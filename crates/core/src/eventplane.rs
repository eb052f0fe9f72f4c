//! Counters of the coalesced event path behind `SACK/sds/ring`
//! (DESIGN.md §11).
//!
//! The synchronous `SACK/events` node makes one SSM step, one enhancer
//! publish and one epoch bump per event. A write to `SACK/sds/ring` is
//! one call of [`Sack::deliver_coalesced`](crate::sack::Sack::deliver_coalesced):
//! every line resolves against one policy snapshot, and the whole write
//! makes at most one transition, one publish and one bump. This module
//! holds the per-write counters that path keeps; they surface in
//! `SACK/sds/stats`, the Prometheus exposition and `metrics_json`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ssm::CoalescedOutcome;

/// The per-write counters of the coalesced event path. One per [`Sack`]
/// module, reached through [`Sack::event_plane`].
///
/// [`Sack`]: crate::sack::Sack
/// [`Sack::event_plane`]: crate::sack::Sack::event_plane
#[derive(Debug, Default)]
pub struct EventPlane {
    writes: AtomicU64,
    frames: AtomicU64,
    transitions: AtomicU64,
    coalesced: AtomicU64,
}

impl EventPlane {
    /// Coalesced deliveries made (one per `SACK/sds/ring` write).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Events those deliveries carried, matching or not.
    pub fn drained_frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Coalesced transitions published (at most one per write).
    pub fn transitions_published(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Effective transitions elided by coalescing (for a write with
    /// `matched` rule hits, `matched - 1` publishes were saved).
    pub fn frames_coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Always 0: a write delivers every line it carries. Kept, with
    /// [`EventPlane::backpressure_waits`], for sackbench's
    /// `eventplane.dropped` metric until the benchmark's next change
    /// renames them (as with `SackStats::cache_hits`).
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Always 0: no writer ever waits for room. Kept for sackbench's
    /// `eventplane.backpressure_waits` metric, like
    /// [`EventPlane::dropped`].
    pub fn backpressure_waits(&self) -> u64 {
        0
    }

    /// Counts one coalesced delivery.
    pub(crate) fn record(&self, outcome: &CoalescedOutcome) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.frames
            .fetch_add(outcome.delivered as u64, Ordering::Relaxed);
        if outcome.transitioned() {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.matched >= 2 {
            self.coalesced
                .fetch_add((outcome.matched - 1) as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use crate::sack::{Sack, SackError};

    const POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { NORMAL; }
        state_per { normal: NORMAL; }
        per_rules { NORMAL: allow subject=* /dev/car/** r; }
    "#;

    fn events_received(sack: &Sack) -> u64 {
        sack.stats()
            .events_received
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn batch_coalesces_to_one_transition_and_one_epoch_bump() {
        let sack = Sack::independent(POLICY).unwrap();
        let epoch_before = sack.policy_epoch();
        // crash, rescue_done, crash: three effective transitions that
        // coalesce into one publish ending in emergency.
        let out = sack
            .deliver_coalesced(&["crash", "rescue_done", "crash"], Duration::ZERO)
            .unwrap();
        assert_eq!(out.delivered, 3);
        assert_eq!(out.matched, 3);
        assert!(out.transitioned());
        assert_eq!(sack.current_state_name(), "emergency");
        assert_eq!(sack.policy_epoch(), epoch_before + 1, "one bump per write");
        assert_eq!(sack.active().ssm.taken_count(), 1);
        let plane = sack.event_plane().unwrap();
        assert_eq!(plane.writes(), 1);
        assert_eq!(plane.transitions_published(), 1);
        assert_eq!(plane.frames_coalesced(), 2);
        assert_eq!(plane.drained_frames(), 3);
        assert_eq!((plane.dropped(), plane.backpressure_waits()), (0, 0));
        // Sync-path stats see every event.
        assert_eq!(events_received(&sack), 3);
    }

    #[test]
    fn unknown_name_rejects_the_whole_write() {
        let sack = Sack::independent(POLICY).unwrap();
        let err = sack
            .deliver_coalesced(&["crash", "meteor"], Duration::ZERO)
            .unwrap_err();
        assert!(matches!(err, SackError::UnknownEvent(ref name) if name == "meteor"));
        // Nothing before the bad name was delivered or counted.
        assert_eq!(sack.current_state_name(), "normal");
        assert_eq!(sack.policy_epoch(), 0);
        assert_eq!(events_received(&sack), 0);
        assert_eq!(sack.event_plane().unwrap().writes(), 0);
    }

    #[test]
    fn empty_write_is_a_no_op() {
        let sack = Sack::independent(POLICY).unwrap();
        let out = sack.deliver_coalesced::<&str>(&[], Duration::ZERO).unwrap();
        assert!(!out.transitioned());
        assert_eq!(sack.event_plane().unwrap().transitions_published(), 0);
        assert_eq!(sack.policy_epoch(), 0);
    }

    #[test]
    fn concurrent_writers_publish_at_most_once_per_write() {
        let sack = Sack::independent(POLICY).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let sack = Arc::clone(&sack);
                s.spawn(move || {
                    for i in 0..100 {
                        let batch = if (t + i) % 2 == 0 {
                            ["crash", "rescue_done", "crash"]
                        } else {
                            ["rescue_done", "crash", "rescue_done"]
                        };
                        sack.deliver_coalesced(&batch, Duration::ZERO).unwrap();
                    }
                });
            }
        });
        let plane = sack.event_plane().unwrap();
        assert_eq!(plane.writes(), 400);
        assert_eq!(plane.drained_frames(), 1200);
        // One epoch bump per published transition, none lost to a race.
        assert_eq!(plane.transitions_published(), sack.policy_epoch());
        assert_eq!(
            sack.active().ssm.taken_count(),
            plane.transitions_published()
        );
        assert!(["normal", "emergency"].contains(&sack.current_state_name().as_str()));
    }
}
