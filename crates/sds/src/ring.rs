//! Producer side of the batched event path.
//!
//! The synchronous [`crate::service::SdsService`] pays one `write(2)` per
//! detected event. At sensor rates the syscall + per-event SSM evaluation
//! dominates, so this module batches: detections accumulate in a line
//! buffer and ship as one multi-line write to `SACK/sds/ring`, where the
//! kernel coalesces the whole write into at most one SSM transition +
//! epoch bump (one write = one coalesced delivery).
//!
//! Unknown event names are filtered client-side against the event list the
//! policy node publishes, mirroring the sync path's per-event `EINVAL`
//! without failing a whole batch for one stray detection.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use sack_kernel::cred::{Capability, Credentials};
use sack_kernel::error::KernelResult;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::Kernel;
use sack_kernel::types::Fd;
use sack_kernel::uctx::UserContext;

pub use sack_core::EventPlane;

use crate::detector::Detector;
use crate::sensors::SensorFrame;
use crate::service::SdsReport;

/// Path of the SACKfs batched submission node.
pub const SACK_RING_PATH: &str = "/sys/kernel/security/SACK/sds/ring";

/// Path of the SACKfs policy node (read to learn the known event names).
const SACK_POLICY_PATH: &str = "/sys/kernel/security/SACK/policy";

/// A batching writer over `SACK/sds/ring`.
///
/// Detections [`queue`](RingProducer::queue) into a line buffer; once
/// `batch` events accumulate (or on an explicit
/// [`flush`](RingProducer::flush)) the buffer ships as one write, which the
/// kernel delivers as one coalesced batch.
pub struct RingProducer {
    proc: UserContext,
    ring_fd: Fd,
    known_events: BTreeSet<String>,
    buf: String,
    queued: usize,
    batch: usize,
    batches_sent: u64,
    events_sent: u64,
}

impl RingProducer {
    /// Spawns the producer as a new process (uid 500, `CAP_MAC_ADMIN`
    /// only — the same principal as the sync SDS), opens the ring node and
    /// snapshots the policy's event list for client-side filtering.
    ///
    /// # Errors
    ///
    /// Fails if SACKfs is not attached, or `batch` is 0.
    pub fn spawn(kernel: &Arc<Kernel>, batch: usize) -> KernelResult<RingProducer> {
        if batch == 0 {
            return Err(sack_kernel::error::KernelError::with_context(
                sack_kernel::error::Errno::EINVAL,
                "sds-ring",
            ));
        }
        let cred = Credentials::user(500, 500).with_capability(Capability::MacAdmin);
        let proc = kernel.spawn(cred);
        let ring_fd = proc.open(SACK_RING_PATH, OpenFlags::write_only())?;
        let policy = proc.read_to_vec(SACK_POLICY_PATH)?;
        let known_events = String::from_utf8_lossy(&policy)
            .lines()
            .find_map(|l| l.strip_prefix("events ").map(str::to_string))
            .unwrap_or_default()
            .split_whitespace()
            .map(str::to_string)
            .collect();
        Ok(RingProducer {
            proc,
            ring_fd,
            known_events,
            buf: String::new(),
            queued: 0,
            batch,
            batches_sent: 0,
            events_sent: 0,
        })
    }

    /// The producer process handle.
    pub fn process(&self) -> &UserContext {
        &self.proc
    }

    /// True when the loaded policy knows `name` (snapshot at spawn time).
    pub fn knows(&self, name: &str) -> bool {
        self.known_events.contains(name)
    }

    /// Queues one event for the next batch, flushing when the batch is
    /// full. Returns `false` (without queuing) for events the policy does
    /// not know — the client-side mirror of the sync path's `EINVAL`.
    ///
    /// # Errors
    ///
    /// Write errors from an intervening flush.
    pub fn queue(&mut self, name: &str) -> KernelResult<bool> {
        if !self.knows(name) {
            return Ok(false);
        }
        self.buf.push_str(name);
        self.buf.push('\n');
        self.queued += 1;
        if self.queued >= self.batch {
            self.flush()?;
        }
        Ok(true)
    }

    /// Ships the buffered events as one write (one coalesced delivery). A no-op
    /// on an empty buffer. Returns the number of events shipped.
    ///
    /// # Errors
    ///
    /// Write errors from the ring node.
    pub fn flush(&mut self) -> KernelResult<usize> {
        if self.queued == 0 {
            return Ok(0);
        }
        self.proc.write(self.ring_fd, self.buf.as_bytes())?;
        let shipped = self.queued;
        self.batches_sent += 1;
        self.events_sent += shipped as u64;
        self.buf.clear();
        self.queued = 0;
        Ok(shipped)
    }

    /// Batches shipped so far.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Events shipped so far (excludes queued-but-unflushed ones).
    pub fn events_sent(&self) -> u64 {
        self.events_sent
    }

    /// Flushes any queued events, closes the descriptor and exits.
    ///
    /// # Errors
    ///
    /// Write errors from the final flush.
    pub fn shutdown(mut self) -> KernelResult<()> {
        self.flush()?;
        let _ = self.proc.close(self.ring_fd);
        self.proc.exit();
        Ok(())
    }
}

impl fmt::Debug for RingProducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingProducer")
            .field("pid", &self.proc.pid())
            .field("batch", &self.batch)
            .field("queued", &self.queued)
            .field("batches_sent", &self.batches_sent)
            .finish()
    }
}

/// Runs a full trace through `detectors` on the batched path: the
/// counterpart of [`crate::service::SdsService::run_trace`], shipping
/// detections in batches of `batch` events. The final flush happens before
/// returning, so the kernel state reflects the whole trace.
///
/// # Errors
///
/// Spawn or write errors from the ring node.
pub fn run_trace_batched<'a>(
    kernel: &Arc<Kernel>,
    detectors: &mut [Box<dyn Detector>],
    frames: impl IntoIterator<Item = &'a SensorFrame>,
    batch: usize,
) -> KernelResult<SdsReport> {
    let mut producer = RingProducer::spawn(kernel, batch)?;
    let mut report = SdsReport::default();
    for frame in frames {
        if frame.t > kernel.clock().now() {
            kernel.clock().set(frame.t);
        }
        for detector in detectors.iter_mut() {
            for event in detector.observe(frame) {
                if producer.queue(&event)? {
                    report.events.push(event);
                } else {
                    report.rejected.push(event);
                }
            }
        }
        report.frames += 1;
    }
    producer.shutdown()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{standard_detectors, SdsService};
    use sack_core::Sack;
    use sack_kernel::kernel::KernelBuilder;
    use sack_kernel::lsm::SecurityModule;

    const POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { P; }
        state_per { emergency: P; }
        per_rules { P: allow subject=* /dev/car/** wi; }
    "#;

    fn boot() -> (Arc<Kernel>, Arc<Sack>) {
        let sack = Sack::independent(POLICY).unwrap();
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .boot();
        sack.attach(&kernel).unwrap();
        (kernel, sack)
    }

    #[test]
    fn queue_and_flush_coalesce_one_batch() {
        let (kernel, sack) = boot();
        let mut producer = RingProducer::spawn(&kernel, 64).unwrap();
        for name in ["crash", "rescue_done", "crash"] {
            assert!(producer.queue(name).unwrap());
        }
        assert_eq!(producer.flush().unwrap(), 3);
        assert_eq!(producer.batches_sent(), 1);
        assert_eq!(sack.current_state_name(), "emergency");
        // The whole batch published exactly one transition.
        assert_eq!(sack.active().ssm.taken_count(), 1);
        producer.shutdown().unwrap();
    }

    #[test]
    fn full_batch_auto_flushes() {
        let (kernel, sack) = boot();
        let mut producer = RingProducer::spawn(&kernel, 2).unwrap();
        producer.queue("crash").unwrap();
        assert_eq!(sack.current_state_name(), "normal", "still buffered");
        producer.queue("rescue_done").unwrap();
        assert_eq!(producer.batches_sent(), 1, "batch boundary flushed");
        // crash then rescue_done coalesce back to normal (one publish of
        // the round trip would be from==to; the SSM records the self-loop).
        assert_eq!(sack.current_state_name(), "normal");
        producer.shutdown().unwrap();
    }

    #[test]
    fn unknown_events_filter_client_side() {
        let (kernel, sack) = boot();
        let mut producer = RingProducer::spawn(&kernel, 8).unwrap();
        assert!(producer.knows("crash"));
        assert!(!producer.knows("high_speed"));
        assert!(!producer.queue("high_speed").unwrap());
        assert!(producer.queue("crash").unwrap());
        producer.shutdown().unwrap();
        assert_eq!(sack.current_state_name(), "emergency");
        assert_eq!(
            sack.event_plane().unwrap().drained_frames(),
            1,
            "rejected event never reached the kernel"
        );
    }

    #[test]
    fn batched_trace_matches_sync_final_state() {
        let trace = crate::traces::highway_crash(30);
        let (sync_kernel, sync_sack) = boot();
        let mut sds = SdsService::spawn(&sync_kernel, standard_detectors()).unwrap();
        let sync_report = sds.run_trace(&sync_kernel, &trace);
        sds.shutdown();

        let (batched_kernel, batched_sack) = boot();
        let mut detectors = standard_detectors();
        let batched_report =
            run_trace_batched(&batched_kernel, &mut detectors, &trace, 16).unwrap();

        assert_eq!(
            sync_sack.current_state_name(),
            batched_sack.current_state_name(),
            "both ingestion paths must land in the same state"
        );
        assert_eq!(sync_report.frames, batched_report.frames);
        assert_eq!(sync_report.events, batched_report.events);
        assert_eq!(sync_report.rejected, batched_report.rejected);
    }
}
