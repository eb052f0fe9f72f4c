//! Differential oracle for the batched sensor event path: the coalesced
//! ingestion path (`SACK/sds/ring`, one transition and one epoch bump per
//! write at most) must be observationally equivalent to the synchronous
//! per-event `SACK/events` path. Equivalence is checked at every write
//! boundary on three surfaces:
//!
//!   * the SSM state (coalescing may skip intermediate states but must
//!     land where sequential delivery lands);
//!   * access verdicts for situation-sensitive subjects (the paper's
//!     rescue-daemon/media-app probes);
//!   * the denial audit log (same `(uid, path, perms, state)` records in
//!     the same order — negative caching is off by default, so every
//!     denied probe must audit identically on both twins).
//!
//! Deliberately *not* compared: transition counts and transition history.
//! Coalescing publishes at most one transition per write by design, so
//! those legitimately differ between the paths.
//!
//! Runs as a property test over random event sequences with random batch
//! splits (in-tree `sack_suite::prop` harness — the build is offline) and
//! over the shipped synthetic driving traces through the standard
//! detector set.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use sack_core::Sack;
use sack_kernel::cred::{Capability, Credentials};
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::SecurityModule;
use sack_kernel::uctx::UserContext;
use sack_kernel::Fd;
use sack_sds::service::{standard_detectors, SdsReport, SdsService};
use sack_sds::{run_trace_batched, traces, SACK_EVENTS_PATH, SACK_RING_PATH};
use sack_suite::prop;
use sack_vehicle::car::CarHardware;
use sack_vehicle::policies::VEHICLE_SACK_POLICY;

/// Every event the Fig. 2 vehicle SSM declares; the random sequences draw
/// from the full set so matching and non-matching deliveries both occur.
const VEHICLE_EVENTS: [&str; 6] = [
    "crash",
    "park",
    "start_driving",
    "driver_left",
    "driver_entered",
    "emergency_resolved",
];

/// One booted twin: a kernel with SACK attached, car devices installed,
/// and two exec'd probe processes whose verdicts flip with the situation.
struct World {
    kernel: Arc<Kernel>,
    sack: Arc<Sack>,
    rescue: UserContext,
    media: UserContext,
}

fn boot_world() -> World {
    let sack = Sack::independent(VEHICLE_SACK_POLICY).unwrap();
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    CarHardware::install(&kernel, 2, 2).unwrap();
    let mk = |exe: &str, uid: u32| {
        kernel
            .vfs()
            .create_file(
                &sack_kernel::KPath::new(exe).unwrap(),
                sack_kernel::Mode::EXEC,
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
        let proc = kernel.spawn(Credentials::user(uid, uid));
        proc.exec(exe).unwrap();
        proc
    };
    // Distinct uids so the audit comparison can tell the subjects apart.
    let rescue = mk("/usr/bin/rescue_daemon", 1000);
    let media = mk("/usr/bin/media_app", 1001);
    World {
        kernel,
        sack,
        rescue,
        media,
    }
}

/// Spawns the SDS process (uid 500, `CAP_MAC_ADMIN`) and opens one SACKfs
/// ingestion node for it.
fn open_ingestion(world: &World, node: &str) -> (UserContext, Fd) {
    let sds = world
        .kernel
        .spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
    let fd = sds.open(node, OpenFlags::write_only()).unwrap();
    (sds, fd)
}

/// Attempts a write-open; `true` = allowed, `false` = denied by SACK.
/// Any other failure is a harness bug and panics.
fn probe(proc: &UserContext, path: &str) -> bool {
    match proc
        .open(path, OpenFlags::write_only())
        .and_then(|fd| proc.close(fd))
    {
        Ok(()) => true,
        Err(e) if e.context() == Some("sack") => false,
        Err(e) => panic!("unexpected harness error probing {path}: {e:?}"),
    }
}

/// Runs the situation-sensitive probes on both twins and asserts the
/// verdicts agree. The door probe flips at `emergency`, the audio probe at
/// `parking_with_driver`; together they observe every state the vehicle
/// SSM can be in.
fn assert_probes_agree(sync: &World, batched: &World, at: &str) {
    assert_eq!(
        probe(&sync.rescue, "/dev/car/door0"),
        probe(&batched.rescue, "/dev/car/door0"),
        "verdict divergence on /dev/car/door0 {at}"
    );
    assert_eq!(
        probe(&sync.media, "/dev/car/audio"),
        probe(&batched.media, "/dev/car/audio"),
        "verdict divergence on /dev/car/audio {at}"
    );
}

/// The audit log reduced to what must match across the twins: who was
/// denied what, in which situation, in what order. Timestamps and pids are
/// excluded (pids happen to match here, but they are not part of the
/// oracle).
fn audit_fingerprint(sack: &Sack) -> Vec<(u32, String, String, String)> {
    sack.audit()
        .records()
        .into_iter()
        .map(|r| (r.uid, r.path, format!("{:?}", r.requested), r.state))
        .collect()
}

#[test]
fn random_batched_ingestion_matches_the_sync_oracle() {
    prop::for_cases(48, |rng| {
        let sync = boot_world();
        let batched = boot_world();
        let (sync_sds, sync_fd) = open_ingestion(&sync, SACK_EVENTS_PATH);
        let (batched_sds, batched_fd) = open_ingestion(&batched, SACK_RING_PATH);

        let total = rng.range(8, 33);
        let sequence: Vec<&str> = (0..total).map(|_| *rng.pick(&VEHICLE_EVENTS)).collect();

        let mut delivered = 0usize;
        while delivered < sequence.len() {
            let take = rng.range(1, 7).min(sequence.len() - delivered);
            let batch = &sequence[delivered..delivered + take];
            delivered += take;

            // Sync twin: one write(2) per event, one transition each.
            for name in batch {
                sync_sds
                    .write(sync_fd, format!("{name}\n").as_bytes())
                    .unwrap();
            }
            // Batched twin: the same events as one `SACK/sds/ring` write,
            // coalesced into at most one published transition.
            let blob = format!("{}\n", batch.join("\n"));
            batched_sds.write(batched_fd, blob.as_bytes()).unwrap();

            let at = format!("after {delivered}/{} events", sequence.len());
            assert_eq!(
                sync.sack.current_state_name(),
                batched.sack.current_state_name(),
                "state divergence {at} (batch {batch:?})"
            );
            assert_probes_agree(&sync, &batched, &at);
        }

        // Both paths must have counted every event as delivered, resolved
        // every name (all six are declared), and denied identically.
        let sync_active = sync.sack.active();
        let batched_active = batched.sack.active();
        assert_eq!(
            sync_active.ssm.delivered_count(),
            batched_active.ssm.delivered_count(),
            "coalescing must not lose or duplicate deliveries"
        );
        assert_eq!(
            batched.sack.stats().events_unknown.load(Ordering::Relaxed),
            0,
            "every vehicle event is declared; none may resolve as unknown"
        );
        assert_eq!(
            audit_fingerprint(&sync.sack),
            audit_fingerprint(&batched.sack),
            "audit logs diverged"
        );
    });
}

#[test]
fn shipped_traces_drive_both_paths_to_identical_outcomes() {
    let runs: Vec<(&str, traces::Trace)> = vec![
        ("city_drive", traces::city_drive(12)),
        ("highway_crash", traces::highway_crash(25)),
        ("park_and_return", traces::park_and_return(40)),
        (
            "speed_oscillation",
            traces::speed_oscillation(Duration::from_secs(10), 6),
        ),
    ];
    for (name, trace) in runs {
        let sync = boot_world();
        let batched = boot_world();
        let mut service = SdsService::spawn(&sync.kernel, standard_detectors()).unwrap();
        let mut batched_detectors = standard_detectors();
        let mut sync_report = SdsReport::default();
        let mut batched_report = SdsReport::default();

        // Feed the trace in chunks and probe at every chunk boundary, so
        // equivalence is checked *during* the drive, not just at the end.
        for chunk in trace.chunks(5) {
            let part = service.run_trace(&sync.kernel, chunk);
            sync_report.frames += part.frames;
            sync_report.events.extend(part.events);
            sync_report.rejected.extend(part.rejected);

            let part =
                run_trace_batched(&batched.kernel, &mut batched_detectors, chunk, 4).unwrap();
            batched_report.frames += part.frames;
            batched_report.events.extend(part.events);
            batched_report.rejected.extend(part.rejected);

            let at = format!("({name}, frame {})", sync_report.frames);
            assert_eq!(
                sync.sack.current_state_name(),
                batched.sack.current_state_name(),
                "state divergence {at}"
            );
            assert_probes_agree(&sync, &batched, &at);
        }
        service.shutdown();

        // The detectors saw identical frames, so both paths must have
        // produced (and client-side rejected) the same event stream.
        assert_eq!(sync_report, batched_report, "{name}: reports diverged");
        assert_eq!(
            audit_fingerprint(&sync.sack),
            audit_fingerprint(&batched.sack),
            "{name}: audit logs diverged"
        );
    }
}

/// A write longer than any queue the path once had: `crash` then 1,024
/// `park` lines in one `SACK/sds/ring` write must deliver every line,
/// `crash` included, and land where the same lines written one by one to
/// `SACK/events` land.
#[test]
fn an_oversized_ring_write_delivers_every_line() {
    let sync = boot_world();
    let batched = boot_world();
    let (sync_sds, sync_fd) = open_ingestion(&sync, SACK_EVENTS_PATH);
    let (batched_sds, batched_fd) = open_ingestion(&batched, SACK_RING_PATH);

    let lines: Vec<&str> = std::iter::once("crash")
        .chain(std::iter::repeat_n("park", 1024))
        .collect();
    for name in &lines {
        sync_sds
            .write(sync_fd, format!("{name}\n").as_bytes())
            .unwrap();
    }
    let blob = format!("{}\n", lines.join("\n"));
    assert_eq!(
        batched_sds.write(batched_fd, blob.as_bytes()).unwrap(),
        blob.len()
    );

    assert_eq!(sync.sack.current_state_name(), "emergency");
    assert_eq!(batched.sack.current_state_name(), "emergency");
    assert_probes_agree(&sync, &batched, "after the oversized write");
    let plane = batched.sack.event_plane().unwrap();
    assert_eq!(plane.drained_frames(), 1025);
    assert_eq!(plane.transitions_published(), 1);
    assert_eq!(plane.dropped(), 0);
    assert_eq!(
        sync.sack.active().ssm.delivered_count(),
        batched.sack.active().ssm.delivered_count()
    );
}

/// An event name longer than 32 bytes moves the SSM through both nodes.
#[test]
fn a_long_event_name_moves_the_ssm_through_both_nodes() {
    const LONG: &str = "driver_seat_belt_unfastened_while_moving";
    assert_eq!(LONG.len(), 40);
    let policy = format!(
        r#"
        states {{ driving = 0; alert = 1; }}
        events {{ {LONG}; }}
        transitions {{ driving -{LONG}-> alert; }}
        initial driving;
        permissions {{ P; }}
        state_per {{ alert: P; }}
        per_rules {{ P: allow subject=* /dev/car/** r; }}
    "#
    );
    for node in [SACK_EVENTS_PATH, SACK_RING_PATH] {
        let sack = Sack::independent(&policy).unwrap();
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .boot();
        sack.attach(&kernel).unwrap();
        let sds = kernel.spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
        let fd = sds.open(node, OpenFlags::write_only()).unwrap();
        sds.write(fd, format!("{LONG}\n").as_bytes())
            .unwrap_or_else(|e| panic!("{node}: {e:?}"));
        assert_eq!(sack.current_state_name(), "alert", "{node}");
    }
}
