//! SDS event-plane latency-vs-throughput sweep (DESIGN.md §11).
//!
//! Compares the two sensor-ingestion paths end to end, through securityfs:
//!
//! * **sync** — one `write(2)` to `SACK/events` per sensor frame: every
//!   frame pays an SSM evaluation, and every matching frame pays a
//!   transition publish and an epoch bump;
//! * **batched** — frames grouped into one `write(2)` to `SACK/sds/ring`
//!   per drain tick: the whole batch coalesces into at most one publish.
//!
//! The sweep parameter is the *target sensor rate*: at `rate` events/sec a
//! 1 ms drain tick accumulates `rate / 1000` frames, so the batch size —
//! and with it the coalescing win — scales with the rate. Both paths push
//! the same alternating crash/rescue frame stream (the coalescing
//! worst-best case: every frame matches a transition rule).
//!
//! A separate probe measures warm-hook p50 with and without the plane
//! draining non-matching "heartbeat" batches in the foreground, feeding
//! the bench gate's no-regression check: coalesced drains that publish
//! nothing must not slow the hooks running beside them.

use std::sync::Arc;
use std::time::Instant;

use sack_core::{BackpressurePolicy, EventPlane, LatencyHistogram, Sack};
use sack_kernel::cred::{Capability, Credentials};
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::Pid;
use sack_kernel::uctx::UserContext;

/// The sweep's situation policy: a crash/rescue flip-flop where every
/// alternating frame matches a rule, plus a read grant used by the
/// warm-hook probe. Delivering `rescue_done` while already in `normal`
/// matches nothing — that is the probe's heartbeat frame.
const SWEEP_POLICY: &str = r#"
    states { normal = 0; emergency = 1; }
    events { crash; rescue_done; }
    transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
    initial normal;
    permissions { CAR; }
    state_per { normal: CAR; emergency: CAR; }
    per_rules { CAR: allow subject=* /dev/car/** r; }
"#;

/// Hook dispatches per warm-probe measurement.
const WARM_PROBE_ITERS: usize = 20_000;
/// Heartbeat frames per coalesced drain in the plane-active probe.
const WARM_PROBE_BATCH: usize = 64;

/// One measured rate point: sync vs batched ingestion throughput.
#[derive(Debug, Clone)]
pub struct SdsPoint {
    /// Target sensor rate (events/sec) — sets the batch size.
    pub rate: u64,
    /// Frames per ring `write(2)` at this rate (`max(1, rate / 1000)`).
    pub batch: usize,
    /// Events/sec sustained by the per-event `SACK/events` path.
    pub sync_eps: f64,
    /// Events/sec sustained by the batched `SACK/sds/ring` path.
    pub batched_eps: f64,
    /// `batched_eps / sync_eps`.
    pub speedup: f64,
}

/// Results of [`run_sds_sweep`].
#[derive(Debug, Clone)]
pub struct SdsSweep {
    /// One point per entry of the `rates` argument, in order.
    pub points: Vec<SdsPoint>,
    /// Frames pushed through each path at each point.
    pub events_per_point: usize,
    /// Warm-hook p50 with no event plane installed (nanoseconds).
    pub warm_base_p50_ns: u64,
    /// Warm-hook p50 while the plane drains heartbeat batches (ns).
    pub warm_plane_p50_ns: u64,
}

impl SdsSweep {
    /// The measured batched-over-sync speedup at `rate`, if swept.
    pub fn speedup_at(&self, rate: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.rate == rate)
            .map(|p| p.speedup)
    }

    /// Warm-hook p50 ratio, plane-active over base. The bench gate
    /// requires this ≤ `MAX_SDS_WARM_IMPACT`: coalesced drains of
    /// non-matching batches must not slow the hook path.
    pub fn warm_impact(&self) -> f64 {
        self.warm_plane_p50_ns as f64 / (self.warm_base_p50_ns.max(1)) as f64
    }
}

/// Boots a fresh attached SACK kernel and a `CAP_MAC_ADMIN` process able
/// to write the `SACK/events` and `SACK/sds/ring` nodes.
fn boot() -> (Arc<Kernel>, Arc<Sack>, UserContext) {
    let sack = Sack::independent(SWEEP_POLICY).expect("sweep policy must compile");
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).expect("attach");
    let proc = kernel.spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
    (kernel, sack, proc)
}

/// Measures one path: `events` frames of alternating crash/rescue through
/// `node`, `per_write` frames per `write(2)`. Returns events/sec.
fn ingest_eps(proc: &UserContext, node: &str, events: usize, per_write: usize) -> f64 {
    let fd = proc
        .open(node, OpenFlags::write_only())
        .expect("open ingestion node");
    let mut buf = String::new();
    let mut sent = 0usize;
    let start = Instant::now();
    while sent < events {
        buf.clear();
        let batch = per_write.min(events - sent);
        for i in 0..batch {
            buf.push_str(if (sent + i).is_multiple_of(2) {
                "crash\n"
            } else {
                "rescue_done\n"
            });
        }
        proc.write(fd, buf.as_bytes()).expect("ingest write");
        sent += batch;
    }
    let elapsed = start.elapsed();
    proc.close(fd).expect("close ingestion node");
    events as f64 / elapsed.as_secs_f64().max(f64::EPSILON)
}

/// Repetitions per (point, path). Preemption on a shared host only ever
/// slows a throughput measurement down, so the max over a few runs is the
/// least-noisy estimator of the uncontended rate — and, crucially, noise
/// hits both paths the same way, keeping the gated *ratio* stable.
const POINT_REPS: usize = 3;

/// Best-of-[`POINT_REPS`] events/sec through `node`, a fresh kernel per
/// repetition so no run inherits another's transition history.
fn best_eps(node: &str, events: usize, per_write: usize) -> f64 {
    (0..POINT_REPS)
        .map(|_| {
            let (_kernel, _sack, proc) = boot();
            ingest_eps(&proc, node, events, per_write)
        })
        .fold(0.0, f64::max)
}

fn run_sds_point(rate: u64, events: usize) -> SdsPoint {
    let batch = ((rate / 1000) as usize).max(1);
    let sync_eps = best_eps("/sys/kernel/security/SACK/events", events, 1);
    let batched_eps = best_eps("/sys/kernel/security/SACK/sds/ring", events, batch);
    SdsPoint {
        rate,
        batch,
        sync_eps,
        batched_eps,
        speedup: batched_eps / sync_eps.max(f64::EPSILON),
    }
}

/// Warm-hook p50 over [`WARM_PROBE_ITERS`] dispatches. With
/// `plane_active`, every hook is preceded by a heartbeat submission and
/// every [`WARM_PROBE_BATCH`]th by a coalesced drain — all non-matching,
/// so a correct plane never publishes a transition.
fn warm_p50(plane_active: bool) -> u64 {
    let sack = Sack::independent(SWEEP_POLICY).expect("sweep policy must compile");
    let plane = plane_active.then(|| {
        sack.install_event_plane(EventPlane::DEFAULT_CAPACITY, BackpressurePolicy::DropOldest)
    });
    let ctx = HookCtx::new(Pid(4243), Credentials::user(1000, 1000), None);
    let path = KPath::new("/dev/car/door0").expect("probe path");
    let obj = ObjectRef::regular(&path);
    let hist = LatencyHistogram::new();
    sack.file_open(&ctx, &obj, AccessMask::READ)
        .expect("probe access must be granted");
    for i in 0..WARM_PROBE_ITERS {
        if let Some(plane) = &plane {
            // In `normal`, rescue_done matches nothing: a heartbeat.
            plane
                .submit_name("rescue_done", 0, i as u64)
                .expect("heartbeat");
            if i % WARM_PROBE_BATCH == WARM_PROBE_BATCH - 1 {
                plane.drain_all().expect("heartbeat drain");
            }
        }
        let op = Instant::now();
        sack.file_open(&ctx, &obj, AccessMask::READ)
            .expect("probe access must be granted");
        hist.record(op.elapsed().as_nanos() as u64);
    }
    hist.snapshot().percentile(0.50)
}

/// Runs the sweep: for each target rate, pushes `events_per_point` frames
/// through the sync path and the batched path and records throughput,
/// then measures the warm-hook p50 base/plane pair once.
pub fn run_sds_sweep(rates: &[u64], events_per_point: usize) -> SdsSweep {
    let points = rates
        .iter()
        .map(|&rate| run_sds_point(rate, events_per_point))
        .collect();
    SdsSweep {
        points,
        events_per_point,
        warm_base_p50_ns: warm_p50(false),
        warm_plane_p50_ns: warm_p50(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_measures_both_paths_and_the_warm_probe() {
        let sweep = run_sds_sweep(&[10_000, 100_000], 400);
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.events_per_point, 400);
        for point in &sweep.points {
            assert_eq!(point.batch, (point.rate / 1000).max(1) as usize);
            assert!(point.sync_eps > 0.0 && point.sync_eps.is_finite());
            assert!(point.batched_eps > 0.0 && point.batched_eps.is_finite());
            assert!(point.speedup > 0.0 && point.speedup.is_finite());
        }
        assert!(sweep.speedup_at(100_000).is_some());
        assert!(sweep.speedup_at(7).is_none());
        assert!(sweep.warm_base_p50_ns > 0);
        assert!(sweep.warm_plane_p50_ns > 0);
        assert!(sweep.warm_impact() > 0.0 && sweep.warm_impact().is_finite());
    }

    #[test]
    fn batched_ingestion_outruns_sync_at_high_rates() {
        // At 100k events/sec the batch is 100 frames per write; the
        // coalesced path must clearly beat one-write-one-publish. The CI
        // gate enforces ≥5x; this smoke keeps a conservative margin so it
        // stays green on loaded machines.
        let point = run_sds_point(100_000, 2_000);
        assert!(
            point.speedup > 1.5,
            "batched {}ev/s vs sync {}ev/s (speedup {:.2})",
            point.batched_eps,
            point.sync_eps,
            point.speedup
        );
    }
}
