//! SACK's audit facility: a bounded in-kernel ring of denial records,
//! readable through `/sys/kernel/security/SACK/audit`.
//!
//! Situation-aware denials are only debuggable if the record says *which
//! situation* the kernel was in — a plain `EACCES` from a rule that exists
//! only in some states would otherwise be unreproducible. Every record
//! therefore carries the situation state at denial time.

use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

use parking_lot::Mutex;

use sack_apparmor::profile::FilePerms;
use sack_kernel::types::Pid;

/// Default ring capacity.
pub const DEFAULT_AUDIT_CAPACITY: usize = 256;

/// One denial record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotonic sequence number, assigned by [`AuditLog::push`] (the value
    /// passed in is overwritten). Readers detect dropped denials by gaps:
    /// retained records always have contiguous sequence numbers, so a
    /// `seq_first` greater than 0 means the first `seq_first` records were
    /// evicted.
    pub seq: u64,
    /// Simulated time of the denial.
    pub at: Duration,
    /// Denied task.
    pub pid: Pid,
    /// Denied task's uid.
    pub uid: u32,
    /// Executable of the task, if it had exec'd.
    pub exe: Option<String>,
    /// Object path.
    pub path: String,
    /// Requested permissions.
    pub requested: FilePerms,
    /// Situation state at denial time.
    pub state: String,
}

impl fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq={} t={:?} DENIED {} uid={} exe={} path={} requested={} state={}",
            self.seq,
            self.at,
            self.pid,
            self.uid,
            self.exe.as_deref().unwrap_or("?"),
            self.path,
            self.requested,
            self.state
        )
    }
}

/// A denial as the hook sees it, borrowed from the hook's context.
/// [`AuditLog::push_denial`] copies it into the ring.
#[derive(Debug, Clone, Copy)]
pub struct Denial<'a> {
    /// Simulated time of the denial.
    pub at: Duration,
    /// Denied task.
    pub pid: Pid,
    /// Denied task's uid.
    pub uid: u32,
    /// Executable of the task, if it had exec'd.
    pub exe: Option<&'a str>,
    /// Object path.
    pub path: &'a str,
    /// Requested permissions.
    pub requested: FilePerms,
    /// Situation state at denial time.
    pub state: &'a str,
}

impl Denial<'_> {
    fn to_record(self, seq: u64) -> AuditRecord {
        AuditRecord {
            seq,
            at: self.at,
            pid: self.pid,
            uid: self.uid,
            exe: self.exe.map(str::to_string),
            path: self.path.to_string(),
            requested: self.requested,
            state: self.state.to_string(),
        }
    }

    /// Overwrites `record` with this denial, reusing its string buffers.
    fn write_into(&self, seq: u64, record: &mut AuditRecord) {
        record.seq = seq;
        record.at = self.at;
        record.pid = self.pid;
        record.uid = self.uid;
        match (self.exe, &mut record.exe) {
            (Some(exe), Some(buf)) => copy_into(buf, exe),
            (exe, slot) => *slot = exe.map(str::to_string),
        }
        copy_into(&mut record.path, self.path);
        record.requested = self.requested;
        copy_into(&mut record.state, self.state);
    }
}

fn copy_into(buf: &mut String, text: &str) {
    buf.clear();
    buf.push_str(text);
}

/// Bounded denial ring.
///
/// Once full, each push recycles the evicted record's string buffers, so a
/// steady stream of denials allocates only when a field outgrows the buffer
/// it lands in.
#[derive(Debug)]
pub struct AuditLog {
    ring: Mutex<VecDeque<AuditRecord>>,
    capacity: usize,
    total: std::sync::atomic::AtomicU64,
}

impl AuditLog {
    /// Creates a log with the default capacity.
    pub fn new() -> AuditLog {
        AuditLog::with_capacity(DEFAULT_AUDIT_CAPACITY)
    }

    /// Creates a log bounded to `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> AuditLog {
        assert!(capacity > 0, "audit capacity must be non-zero");
        AuditLog {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            total: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Appends an owned record; see [`AuditLog::push_denial`]. The record's
    /// `seq` is ignored.
    pub fn push(&self, record: AuditRecord) -> u64 {
        self.push_denial(&Denial {
            at: record.at,
            pid: record.pid,
            uid: record.uid,
            exe: record.exe.as_deref(),
            path: &record.path,
            requested: record.requested,
            state: &record.state,
        })
    }

    /// Appends a denial, evicting the oldest record when full. Assigns and
    /// returns the record's monotonic sequence number; the sequence is
    /// allocated under the ring lock so retained records are always
    /// seq-ordered and contiguous.
    pub fn push_denial(&self, denial: &Denial<'_>) -> u64 {
        let mut ring = self.ring.lock();
        // Writers are serialized by the ring lock; the atomic only lets
        // readers load `total` without it.
        let seq = self.total.load(std::sync::atomic::Ordering::Relaxed);
        self.total
            .store(seq + 1, std::sync::atomic::Ordering::Relaxed);
        if ring.len() == self.capacity {
            let mut record = ring.pop_front().expect("full ring has a front");
            denial.write_into(seq, &mut record);
            ring.push_back(record);
        } else {
            ring.push_back(denial.to_record(seq));
        }
        seq
    }

    /// Snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<AuditRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Total denials ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Records evicted from the ring before anyone could read them: the
    /// ring never shrinks, so every push past `capacity` evicts one.
    pub fn lost_records(&self) -> u64 {
        self.total().saturating_sub(self.capacity as u64)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Renders the retained records as text (the `audit` node's content).
    ///
    /// The first line is a header surfacing the overflow accounting, so a
    /// reader can tell whether the window it sees is complete:
    /// `# audit total=<N> lost=<M> seq_first=<a> seq_last=<b>`
    /// (`seq_first`/`seq_last` are `-` while the ring is empty).
    pub fn render(&self) -> String {
        let ring = self.ring.lock();
        let (first, last) = match (ring.front(), ring.back()) {
            (Some(f), Some(l)) => (f.seq.to_string(), l.seq.to_string()),
            _ => ("-".to_string(), "-".to_string()),
        };
        let mut out = format!(
            "# audit total={} lost={} seq_first={} seq_last={}\n",
            self.total(),
            self.lost_records(),
            first,
            last
        );
        for record in ring.iter() {
            out.push_str(&record.to_string());
            out.push('\n');
        }
        out
    }
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> AuditRecord {
        AuditRecord {
            seq: 0, // assigned by push
            at: Duration::from_millis(i),
            pid: Pid(i as u32),
            uid: 1000,
            exe: Some("/usr/bin/app".to_string()),
            path: format!("/dev/car/door{i}"),
            requested: FilePerms::WRITE,
            state: "driving".to_string(),
        }
    }

    #[test]
    fn push_and_snapshot() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        log.push(record(1));
        log.push(record(2));
        let records = log.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].pid, Pid(1));
        assert_eq!(log.total(), 2);
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = AuditLog::with_capacity(3);
        for i in 0..5 {
            log.push(record(i));
        }
        let records = log.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].pid, Pid(2), "oldest two evicted");
        assert_eq!(log.total(), 5, "total counts evicted records");
        assert_eq!(log.lost_records(), 2, "evictions counted as lost");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "retained seqs stay contiguous");
    }

    #[test]
    fn push_assigns_monotonic_seqs() {
        let log = AuditLog::new();
        assert_eq!(log.push(record(1)), 0);
        assert_eq!(log.push(record(2)), 1);
        let records = log.records();
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(log.lost_records(), 0);
    }

    #[test]
    fn render_is_header_plus_line_per_record() {
        let log = AuditLog::new();
        log.push(record(7));
        let text = log.render();
        assert!(text.contains("DENIED"));
        assert!(text.contains("/dev/car/door7"));
        assert!(text.contains("state=driving"));
        assert_eq!(text.lines().count(), 2, "header + one record");
        assert_eq!(
            text.lines().next().unwrap(),
            "# audit total=1 lost=0 seq_first=0 seq_last=0"
        );
        assert!(text.lines().nth(1).unwrap().starts_with("seq=0 "));
    }

    #[test]
    fn render_header_reports_losses() {
        let log = AuditLog::with_capacity(2);
        for i in 0..5 {
            log.push(record(i));
        }
        let text = log.render();
        assert_eq!(
            text.lines().next().unwrap(),
            "# audit total=5 lost=3 seq_first=3 seq_last=4"
        );
    }

    #[test]
    fn empty_render_has_placeholder_header() {
        let log = AuditLog::new();
        assert_eq!(
            log.render(),
            "# audit total=0 lost=0 seq_first=- seq_last=-\n"
        );
    }

    /// A log that never recycles a buffer: every record is a fresh owned
    /// copy, rendered the way the `audit` node documents.
    struct ReferenceLog {
        records: VecDeque<AuditRecord>,
        capacity: usize,
        total: u64,
    }

    impl ReferenceLog {
        fn push(&mut self, d: &Denial<'_>) -> u64 {
            let seq = self.total;
            self.total += 1;
            if self.records.len() == self.capacity {
                self.records.pop_front();
            }
            self.records.push_back(AuditRecord {
                seq,
                at: d.at,
                pid: d.pid,
                uid: d.uid,
                exe: d.exe.map(String::from),
                path: d.path.to_owned(),
                requested: d.requested,
                state: d.state.to_owned(),
            });
            seq
        }

        fn render(&self) -> String {
            let seq = |r: Option<&AuditRecord>| r.map_or("-".to_string(), |r| r.seq.to_string());
            let mut out = format!(
                "# audit total={} lost={} seq_first={} seq_last={}\n",
                self.total,
                self.total - self.records.len() as u64,
                seq(self.records.front()),
                seq(self.records.back())
            );
            for r in &self.records {
                out.push_str(&format!("{r}\n"));
            }
            out
        }
    }

    #[test]
    fn recycled_ring_matches_a_log_that_never_recycles() {
        const CAP: usize = 5;
        let log = AuditLog::with_capacity(CAP);
        let mut reference = ReferenceLog {
            records: VecDeque::new(),
            capacity: CAP,
            total: 0,
        };
        let exes = [
            Some("/usr/lib/vehicle/long-running-infotainment-daemon"),
            None,
            Some("/bin/sh"),
            Some("/usr/bin/navi"),
            None,
            None,
        ];
        let states = [
            "normal",
            "emergency",
            "parked_with_engine_off_and_doors_locked",
            "p",
        ];
        let perms = [
            FilePerms::READ,
            FilePerms::WRITE,
            FilePerms::READ | FilePerms::WRITE,
        ];
        // Path lengths sweep long → short and back so recycled buffers are
        // both shrunk and regrown.
        for i in 0..(CAP * 40) {
            let path = format!("/dev/car/{}", "seg/".repeat((i * 7) % 23));
            let denial = Denial {
                at: Duration::from_micros(i as u64 * 13),
                pid: Pid(100 + (i % 9) as u32),
                uid: 1000 + (i % 4) as u32,
                exe: exes[i % exes.len()],
                path: &path,
                requested: perms[i % perms.len()],
                state: states[(i / 3) % states.len()],
            };
            assert_eq!(log.push_denial(&denial), reference.push(&denial));
            assert_eq!(log.records(), Vec::from(reference.records.clone()));
            assert_eq!(log.render(), reference.render());
        }
        assert_eq!(log.total(), (CAP * 40) as u64);
        assert_eq!(log.lost_records(), (CAP * 39) as u64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = AuditLog::with_capacity(0);
    }
}
