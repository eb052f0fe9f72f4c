//! The benchmark operations — one per row of the paper's Table II/III —
//! and the suite runner.

use std::collections::HashMap;
use std::fmt;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use sack_core::{HistogramSnapshot, LatencyHistogram, Sack};
use sack_kernel::cred::Credentials;
use sack_kernel::file::OpenFlags;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule, SocketFamily};
use sack_kernel::path::KPath;
use sack_kernel::sched::CtxSwitchPair;
use sack_kernel::smp;
use sack_kernel::types::Pid;

use crate::testbed::TestBed;
use crate::workload::{
    synthetic_independent_policy, synthetic_racing_policy, BENCH_EXE, RACING_SHARED_PREFIX,
    REREAD_FILE, REREAD_SIZE,
};

/// The LMBench operations reproduced from the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Null syscall (`getpid`).
    Syscall,
    /// 1-byte read of an open file (Table III's "I/O" row).
    Io,
    /// `fork` + child exit.
    Fork,
    /// `stat(2)`.
    Stat,
    /// `open(2)` + `close(2)`.
    OpenClose,
    /// `exec(2)`.
    Exec,
    /// Create an empty file.
    FileCreate0k,
    /// Delete an empty file.
    FileDelete0k,
    /// Create a 10 KiB file.
    FileCreate10k,
    /// Delete a 10 KiB file.
    FileDelete10k,
    /// `mmap` + page-touch + unmap of the reread file.
    MmapLatency,
    /// Pipe bandwidth.
    PipeBw,
    /// AF_UNIX stream bandwidth.
    UnixBw,
    /// TCP-loopback bandwidth.
    TcpBw,
    /// File reread bandwidth.
    FileReread,
    /// Mmap reread bandwidth.
    MmapReread,
    /// Context switch, 2 processes / 0 KiB working set.
    Ctx0k,
    /// Context switch, 2 processes / 16 KiB working set.
    Ctx16k,
}

/// Row groups, matching the paper's table sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpGroup {
    /// "Processes (times in µs - smaller is better)"
    Processes,
    /// "File Access (in µs - smaller is better)"
    FileAccess,
    /// "Local Communication Bandwidths (in MB/s - bigger is better)"
    Bandwidth,
    /// "Context Switching (in µs - smaller is better)"
    ContextSwitch,
}

impl Op {
    /// Every operation, in table order.
    pub const ALL: [Op; 18] = [
        Op::Syscall,
        Op::Io,
        Op::Fork,
        Op::Stat,
        Op::OpenClose,
        Op::Exec,
        Op::FileCreate0k,
        Op::FileDelete0k,
        Op::FileCreate10k,
        Op::FileDelete10k,
        Op::MmapLatency,
        Op::PipeBw,
        Op::UnixBw,
        Op::TcpBw,
        Op::FileReread,
        Op::MmapReread,
        Op::Ctx0k,
        Op::Ctx16k,
    ];

    /// Row label, matching the paper's wording.
    pub fn name(self) -> &'static str {
        match self {
            Op::Syscall => "syscall",
            Op::Io => "I/O",
            Op::Fork => "fork",
            Op::Stat => "stat",
            Op::OpenClose => "open/close file",
            Op::Exec => "exec",
            Op::FileCreate0k => "file create (0K)",
            Op::FileDelete0k => "file delete (0K)",
            Op::FileCreate10k => "file create (10K)",
            Op::FileDelete10k => "file delete (10K)",
            Op::MmapLatency => "mmap latency",
            Op::PipeBw => "pipe",
            Op::UnixBw => "AF_UNIX",
            Op::TcpBw => "TCP",
            Op::FileReread => "File reread",
            Op::MmapReread => "Mmap reread",
            Op::Ctx0k => "2p/0K ctxsw",
            Op::Ctx16k => "2p/16K ctxsw",
        }
    }

    /// The table section this row belongs to.
    pub fn group(self) -> OpGroup {
        match self {
            Op::Syscall | Op::Io | Op::Fork | Op::Stat | Op::OpenClose | Op::Exec => {
                OpGroup::Processes
            }
            Op::FileCreate0k
            | Op::FileDelete0k
            | Op::FileCreate10k
            | Op::FileDelete10k
            | Op::MmapLatency => OpGroup::FileAccess,
            Op::PipeBw | Op::UnixBw | Op::TcpBw | Op::FileReread | Op::MmapReread => {
                OpGroup::Bandwidth
            }
            Op::Ctx0k | Op::Ctx16k => OpGroup::ContextSwitch,
        }
    }

    /// True for latency rows (lower is better); false for bandwidths.
    pub fn smaller_is_better(self) -> bool {
        self.group() != OpGroup::Bandwidth
    }

    /// Unit label: `µs` for latencies, `MB/s` for bandwidths.
    pub fn unit(self) -> &'static str {
        if self.smaller_is_better() {
            "µs"
        } else {
            "MB/s"
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Iteration scaling for the suite.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Iterations for latency operations.
    pub iters: usize,
    /// Iterations for heavyweight operations (fork/exec/create).
    pub heavy_iters: usize,
    /// Bytes transferred per bandwidth measurement.
    pub bw_bytes: usize,
    /// Round trips for context-switch measurements.
    pub ctx_round_trips: usize,
}

impl Scale {
    /// Fast settings for unit tests (< 1 s total).
    pub fn quick() -> Scale {
        Scale {
            iters: 300,
            heavy_iters: 60,
            bw_bytes: 1 << 20,
            ctx_round_trips: 100,
        }
    }

    /// Settings for the reported numbers (a few seconds per config).
    pub fn standard() -> Scale {
        Scale {
            iters: 20_000,
            heavy_iters: 2_000,
            bw_bytes: 64 << 20,
            ctx_round_trips: 5_000,
        }
    }
}

/// Results of one suite run: µs per op for latencies, MB/s for bandwidths.
#[derive(Debug, Clone, Default)]
pub struct LmbenchResult {
    values: HashMap<Op, f64>,
}

impl LmbenchResult {
    /// The measured value for an op, if it was run.
    pub fn get(&self, op: Op) -> Option<f64> {
        self.values.get(&op).copied()
    }

    fn set(&mut self, op: Op, value: f64) {
        self.values.insert(op, value);
    }

    /// Relative overhead of `self` against `baseline` for one op, as a
    /// signed fraction: positive = worse than baseline (slower or less
    /// bandwidth), negative = better.
    pub fn overhead_vs(&self, baseline: &LmbenchResult, op: Op) -> Option<f64> {
        let mine = self.get(op)?;
        let base = baseline.get(op)?;
        if base == 0.0 {
            return None;
        }
        Some(if op.smaller_is_better() {
            (mine - base) / base
        } else {
            (base - mine) / base
        })
    }

    /// Merges another run of the same suite, keeping the best value per op
    /// (min for latencies, max for bandwidths). Running several interleaved
    /// rounds and merging suppresses drift between configurations — the
    /// paper attributes its own Table III wobbles to "errors and jitter",
    /// and min-combining is the standard LMBench defence.
    pub fn merge_best(&mut self, other: &LmbenchResult) {
        for op in Op::ALL {
            if let Some(theirs) = other.get(op) {
                let entry = self.values.entry(op).or_insert(theirs);
                if op.smaller_is_better() {
                    *entry = entry.min(theirs);
                } else {
                    *entry = entry.max(theirs);
                }
            }
        }
    }

    /// Mean relative overhead across all common ops (the paper's "average
    /// below 3%" headline number).
    pub fn mean_overhead_vs(&self, baseline: &LmbenchResult) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for op in Op::ALL {
            if let Some(o) = self.overhead_vs(baseline, op) {
                sum += o;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

fn time_per_iter<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    elapsed.as_secs_f64() * 1e6 / iters as f64
}

fn bandwidth_mbps(bytes: usize, elapsed: Duration) -> f64 {
    (bytes as f64 / (1024.0 * 1024.0)) / elapsed.as_secs_f64()
}

/// Runs the full suite on a testbed. Panics only on harness bugs (the
/// workload is constructed to be permitted in every configuration).
pub fn run_suite(bed: &TestBed, scale: Scale) -> LmbenchResult {
    let mut result = LmbenchResult::default();
    let proc = bed.proc();

    // --- Processes -------------------------------------------------------
    result.set(
        Op::Syscall,
        time_per_iter(scale.iters * 4, || {
            std::hint::black_box(proc.null_syscall());
        }),
    );

    proc.write_file("/tmp/bench/io.dat", b"x").expect("io file");
    let io_fd = proc
        .open("/tmp/bench/io.dat", OpenFlags::read_only())
        .expect("io open");
    let mut one = [0u8; 1];
    result.set(
        Op::Io,
        time_per_iter(scale.iters, || {
            proc.seek(io_fd, 0).expect("seek");
            proc.read(io_fd, &mut one).expect("io read");
        }),
    );
    proc.close(io_fd).expect("io close");

    result.set(
        Op::Fork,
        time_per_iter(scale.heavy_iters, || {
            let child = proc.fork().expect("fork");
            child.exit();
        }),
    );

    result.set(
        Op::Stat,
        time_per_iter(scale.iters, || {
            proc.stat("/usr/bin/true").expect("stat");
        }),
    );

    result.set(
        Op::OpenClose,
        time_per_iter(scale.iters, || {
            let fd = proc
                .open(REREAD_FILE, OpenFlags::read_only())
                .expect("open");
            proc.close(fd).expect("close");
        }),
    );

    let execer = proc.fork().expect("fork exec child");
    result.set(
        Op::Exec,
        time_per_iter(scale.heavy_iters, || {
            execer.exec("/usr/bin/true").expect("exec");
        }),
    );
    execer.exit();

    // --- File access ------------------------------------------------------
    let payload_10k = vec![0x5Au8; 10 * 1024];
    for (create_op, delete_op, payload) in [
        (Op::FileCreate0k, Op::FileDelete0k, &[][..]),
        (Op::FileCreate10k, Op::FileDelete10k, &payload_10k[..]),
    ] {
        let mut i = 0usize;
        let create = time_per_iter(scale.heavy_iters, || {
            let path = format!("/tmp/bench/f{i}");
            i += 1;
            let fd = proc.open(&path, OpenFlags::create_new()).expect("create");
            if !payload.is_empty() {
                proc.write(fd, payload).expect("fill");
            }
            proc.close(fd).expect("close");
        });
        // Deletion timed over the files just created (including warmup's).
        let total = i;
        let mut j = 0usize;
        let start = Instant::now();
        while j < total {
            proc.unlink(&format!("/tmp/bench/f{j}")).expect("unlink");
            j += 1;
        }
        let delete = start.elapsed().as_secs_f64() * 1e6 / total as f64;
        result.set(create_op, create);
        result.set(delete_op, delete);
    }

    let map_fd = proc
        .open(REREAD_FILE, OpenFlags::read_only())
        .expect("map open");
    result.set(
        Op::MmapLatency,
        time_per_iter(scale.heavy_iters, || {
            let map = proc.mmap(map_fd, 0, REREAD_SIZE).expect("mmap");
            std::hint::black_box(map.touch_pages(4096));
        }),
    );

    // --- Bandwidths --------------------------------------------------------
    const CHUNK: usize = 64 * 1024;
    let chunk = vec![0xC3u8; CHUNK];

    // Pipe.
    {
        let (r, w) = proc.pipe().expect("pipe");
        let sender = proc.fork().expect("fork sender");
        let total = scale.bw_bytes;
        let start = Instant::now();
        let elapsed = thread::scope(|scope| {
            let chunk = &chunk;
            scope.spawn(move || {
                let mut sent = 0;
                while sent < total {
                    sender.write(w, chunk).expect("pipe write");
                    sent += CHUNK;
                }
                sender.exit();
            });
            let mut buf = vec![0u8; CHUNK];
            let mut received = 0;
            while received < total {
                received += proc.read(r, &mut buf).expect("pipe read");
            }
            start.elapsed()
        });
        proc.close(r).expect("close r");
        proc.close(w).expect("close w");
        result.set(Op::PipeBw, bandwidth_mbps(total, elapsed));
    }

    // AF_UNIX and TCP.
    for (op, family, addr) in [
        (Op::UnixBw, SocketFamily::Unix, "/tmp/bench/bw.sock"),
        (Op::TcpBw, SocketFamily::Inet, "tcp:31337"),
    ] {
        let listener = proc.listen(family, addr).expect("listen");
        let sender = proc.fork().expect("fork sender");
        let total = scale.bw_bytes;
        let elapsed = thread::scope(|scope| {
            let chunk = &chunk;
            let listener = &listener;
            scope.spawn(move || {
                let fd = sender.connect(family, addr).expect("connect");
                let mut sent = 0;
                while sent < total {
                    sender.write(fd, chunk).expect("send");
                    sent += CHUNK;
                }
                sender.exit();
            });
            let server_fd = proc.accept(listener).expect("accept");
            let mut buf = vec![0u8; CHUNK];
            let mut received = 0;
            let start = Instant::now();
            while received < total {
                received += proc.read(server_fd, &mut buf).expect("recv");
            }
            let elapsed = start.elapsed();
            proc.close(server_fd).expect("close server fd");
            elapsed
        });
        bed.kernel().listeners().unbind(addr);
        result.set(op, bandwidth_mbps(total, elapsed));
    }

    // File reread.
    {
        let fd = proc
            .open(REREAD_FILE, OpenFlags::read_only())
            .expect("open");
        let passes = (scale.bw_bytes / REREAD_SIZE).max(1);
        let mut buf = vec![0u8; CHUNK];
        let start = Instant::now();
        for _ in 0..passes {
            proc.seek(fd, 0).expect("seek");
            let mut total = 0;
            while total < REREAD_SIZE {
                let n = proc.read(fd, &mut buf).expect("read");
                if n == 0 {
                    break;
                }
                total += n;
            }
        }
        let elapsed = start.elapsed();
        proc.close(fd).expect("close");
        result.set(
            Op::FileReread,
            bandwidth_mbps(passes * REREAD_SIZE, elapsed),
        );
    }

    // Mmap reread.
    {
        let map = proc.mmap(map_fd, 0, REREAD_SIZE).expect("mmap");
        let passes = (scale.bw_bytes / REREAD_SIZE).max(1);
        let mut buf = vec![0u8; CHUNK];
        let start = Instant::now();
        for _ in 0..passes {
            let mut off = 0;
            while off < REREAD_SIZE {
                off += map.read(off, &mut buf);
            }
        }
        let elapsed = start.elapsed();
        result.set(
            Op::MmapReread,
            bandwidth_mbps(passes * REREAD_SIZE, elapsed),
        );
    }
    proc.close(map_fd).expect("close map fd");

    // --- Context switching ---------------------------------------------------
    for (op, working_set) in [(Op::Ctx0k, 0usize), (Op::Ctx16k, 16 * 1024)] {
        let pair =
            CtxSwitchPair::new(bed.kernel(), Credentials::user(1000, 1000)).expect("ctx pair");
        let report = pair.run(scale.ctx_round_trips, working_set);
        pair.shutdown();
        result.set(op, report.per_switch().as_secs_f64() * 1e6);
    }

    result
}

// ---------------------------------------------------------------------------
// Contended SMP sweep (DESIGN.md §9): p50/p90/p99 hook latency and aggregate
// throughput per thread count, for two contention regimes.

/// Situation-state count for the contended sweep's synthetic policies.
const SWEEP_STATES: usize = 4;
/// Rule count for the contended sweep's synthetic policies.
const SWEEP_RULES: usize = 100;
/// The shared task id all sweep workers run as: one task, hooked from
/// every worker thread at once.
const SWEEP_PID: u32 = 4242;

/// A contention regime of the SMP sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContendedScenario {
    /// A steady policy: every hook walks the per-state DFA under
    /// concurrent RCU reads and sharded-counter traffic.
    DfaWalk,
    /// A control thread churns the policy (SSM transitions plus periodic
    /// full policy reloads) while the hooks walk whichever snapshot is
    /// current.
    ReloadRacing,
}

impl ContendedScenario {
    /// All scenarios, in report order.
    pub const ALL: [ContendedScenario; 2] =
        [ContendedScenario::DfaWalk, ContendedScenario::ReloadRacing];

    /// Human/machine-readable scenario name (used in report lines).
    pub fn name(self) -> &'static str {
        match self {
            ContendedScenario::DfaWalk => "dfa-walk",
            ContendedScenario::ReloadRacing => "reload-racing",
        }
    }

    /// Key used in the `smp` block of `BENCH_hook_latency.json`.
    pub fn json_key(self) -> &'static str {
        match self {
            ContendedScenario::DfaWalk => "dfa_walk",
            ContendedScenario::ReloadRacing => "reload_racing",
        }
    }
}

/// One measured point of the contended sweep: a scenario at a thread count.
#[derive(Debug, Clone)]
pub struct ContendedPoint {
    /// The contention regime measured.
    pub scenario: ContendedScenario,
    /// Number of concurrent worker threads.
    pub threads: usize,
    /// Median per-hook latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile per-hook latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile per-hook latency in nanoseconds.
    pub p99_ns: u64,
    /// Aggregate throughput across all workers (hooks per second).
    pub ops_per_sec: f64,
    /// Total hooks dispatched by the workers at this point.
    pub total_ops: u64,
}

/// Results of [`run_contended_sweep`].
#[derive(Debug, Clone)]
pub struct ContendedSweep {
    /// One point per (scenario, thread count), scenario-major.
    pub points: Vec<ContendedPoint>,
    /// `std::thread::available_parallelism()` on the measuring host. The
    /// scaling gate normalises to `min(threads, available_parallelism)`:
    /// on a 1-core box the ideal speedup at 8 threads is 1×, on an 8-core
    /// box it is the literal 8× linear target.
    pub available_parallelism: usize,
    /// Hook dispatches measured per worker thread.
    pub iters_per_thread: usize,
}

impl ContendedSweep {
    /// The measured point for `scenario` at `threads`, if it was run.
    pub fn point(&self, scenario: ContendedScenario, threads: usize) -> Option<&ContendedPoint> {
        self.points
            .iter()
            .find(|p| p.scenario == scenario && p.threads == threads)
    }

    /// Scaling efficiency of `scenario` at `threads`: the measured
    /// speedup over the single-thread point, divided by the ideal speedup
    /// `min(threads, available_parallelism)`. 1.0 is perfectly linear
    /// scaling up to the core count; the bench gate requires ≥ 0.7 for
    /// DFA-walk hooks at 8 threads.
    pub fn efficiency(&self, scenario: ContendedScenario, threads: usize) -> Option<f64> {
        let base = self.point(scenario, 1)?;
        let point = self.point(scenario, threads)?;
        let ideal = threads.min(self.available_parallelism) as f64;
        Some(point.ops_per_sec / base.ops_per_sec / ideal)
    }
}

/// Runs the contended sweep: for each scenario and each entry of
/// `thread_counts`, storms one task's hooks from that many worker threads
/// (through [`smp::run_workers`] / [`smp::run_with_control`]) and records
/// per-hook latency percentiles plus aggregate throughput.
pub fn run_contended_sweep(thread_counts: &[usize], iters_per_thread: usize) -> ContendedSweep {
    let mut points = Vec::new();
    for scenario in ContendedScenario::ALL {
        for &threads in thread_counts {
            points.push(run_contended_point(scenario, threads, iters_per_thread));
        }
    }
    ContendedSweep {
        points,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        iters_per_thread,
    }
}

fn run_contended_point(
    scenario: ContendedScenario,
    threads: usize,
    iters: usize,
) -> ContendedPoint {
    let policy = match scenario {
        ContendedScenario::ReloadRacing => synthetic_racing_policy(SWEEP_STATES, SWEEP_RULES),
        _ => synthetic_independent_policy(SWEEP_STATES, SWEEP_RULES),
    };
    let sack = Sack::independent(&policy).expect("sweep policy must compile");

    // Workers make one untimed check, align on a barrier so the measured
    // sections fully overlap, then time every hook dispatch.
    let ready = Barrier::new(threads);
    let worker = |w: usize| {
        let ctx = HookCtx::new(
            Pid(SWEEP_PID),
            Credentials::user(1000, 1000),
            Some(KPath::new(BENCH_EXE).expect("bench exe path")),
        );
        // Per-worker object so DFA walks differ by path tail; the racing
        // scenario uses the all-states grant under /shared.
        let path_str = match scenario {
            ContendedScenario::ReloadRacing => format!("{RACING_SHARED_PREFIX}/dev{w}"),
            _ => format!("/protected/area0/s0/devices/dev{w}"),
        };
        let path = KPath::new(&path_str).expect("sweep path");
        let obj = ObjectRef::regular(&path);
        let hist = LatencyHistogram::new();
        sack.file_open(&ctx, &obj, AccessMask::READ)
            .expect("sweep access must be granted");
        ready.wait();
        let start = Instant::now();
        for _ in 0..iters {
            let op = Instant::now();
            sack.file_open(&ctx, &obj, AccessMask::READ)
                .expect("sweep access must be granted");
            hist.record(op.elapsed().as_nanos() as u64);
        }
        (hist.snapshot(), start.elapsed())
    };

    let results: Vec<(HistogramSnapshot, Duration)> = match scenario {
        ContendedScenario::ReloadRacing => {
            smp::run_with_control(threads, worker, |round| {
                // Churn the policy epoch under the workers: mostly SSM
                // transitions around the state ring, with a full policy
                // reload every 64th round.
                if round % 64 == 63 {
                    let _ = sack.reload_policy(&policy);
                } else if let Some(state) = sack
                    .current_state_name()
                    .strip_prefix('s')
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    let next = (state + 1) % SWEEP_STATES;
                    let _ = sack.deliver_event(&format!("goto_s{next}"), Duration::ZERO);
                }
            })
            .results
        }
        _ => smp::run_workers(threads, worker),
    };

    let mut merged = HistogramSnapshot::default();
    let mut wall = Duration::ZERO;
    for (snapshot, elapsed) in &results {
        merged.merge(snapshot);
        wall = wall.max(*elapsed);
    }
    let total_ops = (threads * iters) as u64;
    ContendedPoint {
        scenario,
        threads,
        p50_ns: merged.percentile(0.50),
        p90_ns: merged.percentile(0.90),
        p99_ns: merged.percentile(0.99),
        ops_per_sec: total_ops as f64 / wall.as_secs_f64().max(f64::EPSILON),
        total_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{LsmConfig, TestBedOptions};

    #[test]
    fn quick_suite_produces_all_rows() {
        let bed = TestBed::boot(&TestBedOptions::new(LsmConfig::NoLsm));
        let result = run_suite(&bed, Scale::quick());
        for op in Op::ALL {
            let v = result.get(op).unwrap_or_else(|| panic!("{op} missing"));
            assert!(v > 0.0, "{op} = {v}");
        }
    }

    #[test]
    fn quick_suite_runs_under_every_lsm_config() {
        for config in [
            LsmConfig::AppArmor,
            LsmConfig::SackEnhancedAppArmor,
            LsmConfig::IndependentSack,
        ] {
            let bed = TestBed::boot(&TestBedOptions::new(config));
            let result = run_suite(&bed, Scale::quick());
            assert!(result.get(Op::Syscall).is_some(), "{config}");
        }
    }

    #[test]
    fn merge_best_picks_min_latency_max_bandwidth() {
        let mut a = LmbenchResult::default();
        let mut b = LmbenchResult::default();
        a.set(Op::Stat, 10.0);
        b.set(Op::Stat, 8.0);
        a.set(Op::PipeBw, 100.0);
        b.set(Op::PipeBw, 120.0);
        b.set(Op::Fork, 5.0); // only in b
        a.merge_best(&b);
        assert_eq!(a.get(Op::Stat), Some(8.0));
        assert_eq!(a.get(Op::PipeBw), Some(120.0));
        assert_eq!(a.get(Op::Fork), Some(5.0));
    }

    #[test]
    fn overhead_math() {
        let mut base = LmbenchResult::default();
        let mut other = LmbenchResult::default();
        base.set(Op::Stat, 10.0);
        other.set(Op::Stat, 11.0);
        base.set(Op::PipeBw, 100.0);
        other.set(Op::PipeBw, 90.0);
        // 10% slower stat, 10% less pipe bandwidth: both positive overhead.
        assert!((other.overhead_vs(&base, Op::Stat).unwrap() - 0.1).abs() < 1e-9);
        assert!((other.overhead_vs(&base, Op::PipeBw).unwrap() - 0.1).abs() < 1e-9);
        assert!(other.overhead_vs(&base, Op::Exec).is_none());
        assert!((other.mean_overhead_vs(&base) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn op_metadata_consistency() {
        assert_eq!(Op::ALL.len(), 18);
        for op in Op::ALL {
            assert!(!op.name().is_empty());
            let unit = op.unit();
            if op.smaller_is_better() {
                assert_eq!(unit, "µs");
            } else {
                assert_eq!(unit, "MB/s");
            }
        }
    }

    #[test]
    fn contended_sweep_covers_every_scenario_and_thread_count() {
        let sweep = run_contended_sweep(&[1, 2], 200);
        assert!(sweep.available_parallelism >= 1);
        assert_eq!(sweep.iters_per_thread, 200);
        assert_eq!(sweep.points.len(), ContendedScenario::ALL.len() * 2);
        for scenario in ContendedScenario::ALL {
            for threads in [1usize, 2] {
                let point = sweep
                    .point(scenario, threads)
                    .unwrap_or_else(|| panic!("missing {}/{threads}", scenario.name()));
                assert_eq!(point.total_ops, 200 * threads as u64);
                assert!(point.p50_ns > 0, "{} p50", scenario.name());
                assert!(point.p50_ns <= point.p90_ns, "{} p50<=p90", scenario.name());
                assert!(point.p90_ns <= point.p99_ns, "{} p90<=p99", scenario.name());
                assert!(point.ops_per_sec.is_finite() && point.ops_per_sec > 0.0);
            }
            // Efficiency is defined relative to the single-thread point and
            // must be finite and positive at every measured count.
            let e = sweep.efficiency(scenario, 2).expect("efficiency at 2");
            assert!(
                e.is_finite() && e > 0.0,
                "{} efficiency {e}",
                scenario.name()
            );
            assert!(sweep.efficiency(scenario, 1).unwrap() > 0.99);
        }
        // Unknown thread counts yield no point and no efficiency.
        assert!(sweep.point(ContendedScenario::DfaWalk, 7).is_none());
        assert!(sweep.efficiency(ContendedScenario::DfaWalk, 7).is_none());

        let table = crate::report::render_contended_sweep(&sweep);
        assert!(table.contains("dfa-walk"));
        assert!(table.contains("reload-racing"));
        assert!(table.contains("hooks/sec"));
    }
}
