//! The situation state machine (SSM) — paper §III-E-1 and Algorithm 1.
//!
//! The SSM lives in the kernel, maintains the current situation state, and
//! consumes situation events delivered through SACKfs. When an event matches
//! a transition rule for the current state, the machine moves to the target
//! state and notifies its listeners — the adaptive policy enforcers that
//! swap the active MAC rules (Algorithm 1's `P = f(SS)`, `MR = g(P)` step).

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::situation::{EventId, StateId, StateSpace};

/// One transition rule: `(from, event) -> to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionRule {
    /// Source state.
    pub from: StateId,
    /// Triggering event.
    pub event: EventId,
    /// Target state.
    pub to: StateId,
}

/// Outcome of delivering one situation event (Algorithm 1 loop body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionOutcome {
    /// The event matched a rule; the machine moved `from -> to`.
    Transitioned {
        /// State before the event.
        from: StateId,
        /// State after the event.
        to: StateId,
    },
    /// The event is known but no rule matches the current state; the state
    /// is unchanged (the paper's SSM simply ignores non-matching events).
    NoMatch {
        /// The unchanged current state.
        current: StateId,
    },
}

impl TransitionOutcome {
    /// True if a transition happened.
    pub fn transitioned(&self) -> bool {
        matches!(self, TransitionOutcome::Transitioned { .. })
    }
}

/// Outcome of [`Ssm::deliver_coalesced`]: the net effect of a whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescedOutcome {
    /// State before the batch.
    pub from: StateId,
    /// State after the batch (equals `from` when nothing matched, or when
    /// the matches formed a cycle).
    pub to: StateId,
    /// How many events in the batch matched a rule during the dry run.
    pub matched: usize,
    /// Batch size (every event, matching or not).
    pub delivered: usize,
    /// The last matching event — the one the single history record is
    /// attributed to. `None` iff `matched == 0`.
    pub last_event: Option<EventId>,
}

impl CoalescedOutcome {
    /// True when the batch published a transition (at least one match —
    /// cycles included, mirroring self-loop semantics).
    pub fn transitioned(&self) -> bool {
        self.matched > 0
    }
}

/// A transition-history record (exposed through SACKfs for audit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Simulated timestamp of the transition.
    pub at: Duration,
    /// Triggering event.
    pub event: EventId,
    /// Source state.
    pub from: StateId,
    /// Target state.
    pub to: StateId,
}

/// Observer notified after every successful transition.
///
/// Implemented by SACK's enforcement backends: independent SACK swaps its
/// active compiled-rule set; SACK-enhanced AppArmor patches profiles.
pub trait TransitionListener: Send + Sync {
    /// Called with the old and new state after the SSM has moved.
    fn on_transition(&self, from: StateId, to: StateId);
}

/// Errors building an SSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildSsmError {
    message: String,
}

impl BuildSsmError {
    fn new(message: impl Into<String>) -> Self {
        BuildSsmError {
            message: message.into(),
        }
    }
}

impl fmt::Display for BuildSsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BuildSsmError {}

/// The situation state machine.
///
/// The transition table is dense — `table[state][event] -> Option<StateId>`
/// — so event delivery is two array indexes plus an atomic store, keeping
/// the kernel-side cost of a situation change small (paper C3).
pub struct Ssm {
    space: StateSpace,
    table: Vec<Vec<Option<StateId>>>,
    current: AtomicUsize,
    initial: StateId,
    transitions_delivered: AtomicU64,
    transitions_taken: AtomicU64,
    history: Mutex<Vec<TransitionRecord>>,
    listeners: RwLock<Vec<Arc<dyn TransitionListener>>>,
}

impl Ssm {
    /// Builds an SSM over `space` with the given rules and initial state.
    ///
    /// # Errors
    ///
    /// Rejects rules referencing ids outside `space` and conflicting rules
    /// (two rules for the same `(from, event)` with different targets).
    pub fn new(
        space: StateSpace,
        rules: &[TransitionRule],
        initial: StateId,
    ) -> Result<Ssm, BuildSsmError> {
        let ns = space.state_count();
        let ne = space.event_count();
        if initial.0 >= ns {
            return Err(BuildSsmError::new("initial state out of range"));
        }
        let mut table = vec![vec![None; ne]; ns];
        for rule in rules {
            if rule.from.0 >= ns || rule.to.0 >= ns {
                return Err(BuildSsmError::new(format!(
                    "transition references unknown state: {rule:?}"
                )));
            }
            if rule.event.0 >= ne {
                return Err(BuildSsmError::new(format!(
                    "transition references unknown event: {rule:?}"
                )));
            }
            let cell = &mut table[rule.from.0][rule.event.0];
            match cell {
                Some(existing) if *existing != rule.to => {
                    return Err(BuildSsmError::new(format!(
                        "conflicting transitions from {} on {}: -> {} and -> {}",
                        space.state(rule.from).name,
                        space.event(rule.event).name,
                        space.state(*existing).name,
                        space.state(rule.to).name,
                    )));
                }
                _ => *cell = Some(rule.to),
            }
        }
        Ok(Ssm {
            space,
            table,
            current: AtomicUsize::new(initial.0),
            initial,
            transitions_delivered: AtomicU64::new(0),
            transitions_taken: AtomicU64::new(0),
            history: Mutex::new(Vec::new()),
            listeners: RwLock::new(Vec::new()),
        })
    }

    /// The state/event universe.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// The configured initial state (`q0`).
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The current situation state (one atomic load — this is the read the
    /// enforcement hot path performs).
    pub fn current(&self) -> StateId {
        StateId(self.current.load(Ordering::Acquire))
    }

    /// Name of the current state.
    pub fn current_name(&self) -> &str {
        &self.space.state(self.current()).name
    }

    /// Registers a transition listener.
    pub fn add_listener(&self, listener: Arc<dyn TransitionListener>) {
        self.listeners.write().push(listener);
    }

    /// Delivers a situation event (Algorithm 1): if `(current, event)`
    /// matches a rule, move to the target state, record history at time
    /// `now`, and notify listeners.
    pub fn deliver(&self, event: EventId, now: Duration) -> TransitionOutcome {
        self.transitions_delivered.fetch_add(1, Ordering::Relaxed);
        // Serialize transitions: listeners must observe them in order.
        let mut history = self.history.lock();
        let from = StateId(self.current.load(Ordering::Acquire));
        match self.table[from.0].get(event.0).copied().flatten() {
            Some(to) => {
                self.current.store(to.0, Ordering::Release);
                self.transitions_taken.fetch_add(1, Ordering::Relaxed);
                history.push(TransitionRecord {
                    at: now,
                    event,
                    from,
                    to,
                });
                drop(history);
                for listener in self.listeners.read().iter() {
                    listener.on_transition(from, to);
                }
                TransitionOutcome::Transitioned { from, to }
            }
            None => TransitionOutcome::NoMatch { current: from },
        }
    }

    /// Delivers an event by name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name back as `Err` so SACKfs can report `EINVAL`.
    pub fn deliver_by_name(&self, name: &str, now: Duration) -> Result<TransitionOutcome, String> {
        match self.space.event_id(name) {
            Some(id) => Ok(self.deliver(id, now)),
            None => Err(name.to_string()),
        }
    }

    /// Delivers a whole batch of events as **one** coalesced transition.
    ///
    /// The batch is dry-run through the transition table from the current
    /// state: each event either matches a rule for the evolving state (and
    /// advances the dry-run cursor) or is ignored, exactly as a sequence of
    /// [`Ssm::deliver`] calls would. But the machine then *publishes only
    /// the net effect*: at most one atomic store, one history record (timed
    /// `now`, attributed to the last matching event, spanning pre-batch →
    /// final state) and one listener notification for the entire batch.
    ///
    /// A batch whose matches form a cycle (final state == pre-batch state)
    /// still publishes, mirroring the self-loop semantics of
    /// [`Ssm::deliver`]: enforcers may rely on re-entry notifications.
    ///
    /// `transitions_delivered` counts every event in the batch;
    /// `transitions_taken` grows by at most one. This is the soundness
    /// argument for epoch-per-write (DESIGN.md §11): observers between
    /// batches cannot distinguish the coalesced publish from the final
    /// state of the per-event sequence, because intermediate states were
    /// never observable outside the history anyway.
    pub fn deliver_coalesced(&self, events: &[EventId], now: Duration) -> CoalescedOutcome {
        self.transitions_delivered
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        // Serialize against per-event delivery: the dry run and the publish
        // happen under the same lock, so no interleaved transition can slip
        // between them.
        let mut history = self.history.lock();
        let from = StateId(self.current.load(Ordering::Acquire));
        let mut cursor = from;
        let mut matched = 0usize;
        let mut last_event = None;
        for &event in events {
            if let Some(to) = self.table[cursor.0].get(event.0).copied().flatten() {
                cursor = to;
                matched += 1;
                last_event = Some(event);
            }
        }
        let to = cursor;
        if matched == 0 {
            return CoalescedOutcome {
                from,
                to: from,
                matched: 0,
                delivered: events.len(),
                last_event: None,
            };
        }
        self.current.store(to.0, Ordering::Release);
        self.transitions_taken.fetch_add(1, Ordering::Relaxed);
        history.push(TransitionRecord {
            at: now,
            event: last_event.expect("matched > 0 implies a last event"),
            from,
            to,
        });
        drop(history);
        for listener in self.listeners.read().iter() {
            listener.on_transition(from, to);
        }
        CoalescedOutcome {
            from,
            to,
            matched,
            delivered: events.len(),
            last_event,
        }
    }

    /// Total events delivered.
    pub fn delivered_count(&self) -> u64 {
        self.transitions_delivered.load(Ordering::Relaxed)
    }

    /// Total transitions taken.
    pub fn taken_count(&self) -> u64 {
        self.transitions_taken.load(Ordering::Relaxed)
    }

    /// Copy of the transition history.
    pub fn history(&self) -> Vec<TransitionRecord> {
        self.history.lock().clone()
    }

    /// Renders the machine in Graphviz dot format (the tooling equivalent
    /// of the paper's Fig. 2). The current state is drawn with a double
    /// circle; the initial state gets an entry arrow.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph ssm {\n    rankdir=LR;\n");
        let current = self.current();
        let _ = writeln!(out, "    __start [shape=point];");
        for (i, state) in self.space.states().iter().enumerate() {
            let shape = if StateId(i) == current {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(
                out,
                "    s{i} [label=\"{}\\n({})\" shape={shape}];",
                state.name, state.encoding
            );
        }
        let _ = writeln!(out, "    __start -> s{};", self.initial.0);
        for (from, row) in self.table.iter().enumerate() {
            for (event, target) in row.iter().enumerate() {
                if let Some(to) = target {
                    let _ = writeln!(
                        out,
                        "    s{from} -> s{} [label=\"{}\"];",
                        to.0,
                        self.space.event(EventId(event)).name
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// States reachable from the initial state (used by the policy checker
    /// to warn about dead states).
    pub fn reachable_states(&self) -> Vec<StateId> {
        let ns = self.space.state_count();
        let mut seen = vec![false; ns];
        let mut stack = vec![self.initial];
        seen[self.initial.0] = true;
        while let Some(s) = stack.pop() {
            for target in self.table[s.0].iter().flatten() {
                if !seen[target.0] {
                    seen[target.0] = true;
                    stack.push(*target);
                }
            }
        }
        (0..ns).filter(|i| seen[*i]).map(StateId).collect()
    }
}

impl fmt::Debug for Ssm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ssm")
            .field("states", &self.space.state_count())
            .field("events", &self.space.event_count())
            .field("current", &self.current_name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;

    /// Builds the paper's Fig. 2 example machine: emergency, driving,
    /// parking-with-driver, parking-without-driver.
    fn fig2() -> Ssm {
        let mut space = StateSpace::new();
        let driving = space.add_state("driving", 0).unwrap();
        let pwd = space.add_state("parking_with_driver", 1).unwrap();
        let pwod = space.add_state("parking_without_driver", 2).unwrap();
        let emergency = space.add_state("emergency", 3).unwrap();
        let crash = space.add_event("crash").unwrap();
        let park = space.add_event("park").unwrap();
        let driver_left = space.add_event("driver_left").unwrap();
        let driver_back = space.add_event("driver_entered").unwrap();
        let start = space.add_event("start_driving").unwrap();
        let resolved = space.add_event("emergency_resolved").unwrap();
        let rules = [
            TransitionRule {
                from: driving,
                event: crash,
                to: emergency,
            },
            TransitionRule {
                from: driving,
                event: park,
                to: pwd,
            },
            TransitionRule {
                from: pwd,
                event: driver_left,
                to: pwod,
            },
            TransitionRule {
                from: pwod,
                event: driver_back,
                to: pwd,
            },
            TransitionRule {
                from: pwd,
                event: start,
                to: driving,
            },
            TransitionRule {
                from: emergency,
                event: resolved,
                to: pwd,
            },
        ];
        Ssm::new(space, &rules, driving).unwrap()
    }

    #[test]
    fn fig2_walk() {
        let ssm = fig2();
        assert_eq!(ssm.current_name(), "driving");
        let crash = ssm.space().event_id("crash").unwrap();
        let out = ssm.deliver(crash, Duration::from_secs(1));
        assert!(out.transitioned());
        assert_eq!(ssm.current_name(), "emergency");
        // Crash again: no rule from emergency on crash.
        let out = ssm.deliver(crash, Duration::from_secs(2));
        assert!(!out.transitioned());
        assert_eq!(ssm.current_name(), "emergency");
        let resolved = ssm.space().event_id("emergency_resolved").unwrap();
        ssm.deliver(resolved, Duration::from_secs(3));
        assert_eq!(ssm.current_name(), "parking_with_driver");
        assert_eq!(ssm.taken_count(), 2);
        assert_eq!(ssm.delivered_count(), 3);
    }

    #[test]
    fn history_records_transitions() {
        let ssm = fig2();
        let crash = ssm.space().event_id("crash").unwrap();
        ssm.deliver(crash, Duration::from_millis(42));
        let history = ssm.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].at, Duration::from_millis(42));
        assert_eq!(ssm.space().state(history[0].to).name, "emergency");
    }

    #[test]
    fn listeners_observe_transitions() {
        struct CountListener(Counter);
        impl TransitionListener for CountListener {
            fn on_transition(&self, _from: StateId, _to: StateId) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ssm = fig2();
        let listener = Arc::new(CountListener(Counter::new(0)));
        ssm.add_listener(Arc::clone(&listener) as Arc<dyn TransitionListener>);
        let crash = ssm.space().event_id("crash").unwrap();
        let park = ssm.space().event_id("park").unwrap();
        ssm.deliver(crash, Duration::ZERO); // driving -> emergency
        ssm.deliver(park, Duration::ZERO); // no match
        assert_eq!(listener.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn deliver_by_name_reports_unknown() {
        let ssm = fig2();
        assert!(ssm.deliver_by_name("crash", Duration::ZERO).is_ok());
        assert_eq!(
            ssm.deliver_by_name("meteor", Duration::ZERO).unwrap_err(),
            "meteor"
        );
    }

    #[test]
    fn conflicting_rules_rejected() {
        let mut space = StateSpace::new();
        let a = space.add_state("a", 0).unwrap();
        let b = space.add_state("b", 1).unwrap();
        let c = space.add_state("c", 2).unwrap();
        let e = space.add_event("e").unwrap();
        let rules = [
            TransitionRule {
                from: a,
                event: e,
                to: b,
            },
            TransitionRule {
                from: a,
                event: e,
                to: c,
            },
        ];
        let err = Ssm::new(space, &rules, a).unwrap_err();
        assert!(err.to_string().contains("conflicting"));
    }

    #[test]
    fn duplicate_identical_rule_is_fine() {
        let mut space = StateSpace::new();
        let a = space.add_state("a", 0).unwrap();
        let b = space.add_state("b", 1).unwrap();
        let e = space.add_event("e").unwrap();
        let rules = [
            TransitionRule {
                from: a,
                event: e,
                to: b,
            },
            TransitionRule {
                from: a,
                event: e,
                to: b,
            },
        ];
        assert!(Ssm::new(space, &rules, a).is_ok());
    }

    #[test]
    fn self_loop_rule_is_a_real_transition() {
        // `(a, e) -> a` is legal and counts as a *taken* transition: it
        // lands in the history and renotifies listeners (enforcers may
        // rely on re-entry to refresh derived state), even though the
        // current state is unchanged.
        struct CountListener(Counter);
        impl TransitionListener for CountListener {
            fn on_transition(&self, from: StateId, to: StateId) {
                assert_eq!(from, to);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut space = StateSpace::new();
        let a = space.add_state("a", 0).unwrap();
        let e = space.add_event("ping").unwrap();
        let rules = [TransitionRule {
            from: a,
            event: e,
            to: a,
        }];
        let ssm = Ssm::new(space, &rules, a).unwrap();
        let listener = Arc::new(CountListener(Counter::new(0)));
        ssm.add_listener(Arc::clone(&listener) as Arc<dyn TransitionListener>);

        let out = ssm.deliver(e, Duration::from_secs(1));
        assert_eq!(out, TransitionOutcome::Transitioned { from: a, to: a });
        assert_eq!(ssm.current(), a);
        assert_eq!(ssm.taken_count(), 1);
        assert_eq!(ssm.history().len(), 1);
        assert_eq!(listener.0.load(Ordering::Relaxed), 1);
        // The self-loop shows up as a dot edge a -> a.
        assert!(ssm.to_dot().contains("s0 -> s0 [label=\"ping\"]"));
    }

    #[test]
    fn out_of_range_event_id_is_a_no_match() {
        // Defensive path: a raw EventId beyond the table width (e.g. from
        // a stale handle across a reload) must not panic — it is treated
        // like any event with no rule for the current state.
        let ssm = fig2();
        let out = ssm.deliver(EventId(999), Duration::ZERO);
        assert!(!out.transitioned());
        assert_eq!(ssm.current_name(), "driving");
        assert_eq!(ssm.delivered_count(), 1);
        assert_eq!(ssm.taken_count(), 0);
    }

    #[test]
    fn out_of_range_rule_rejected() {
        let mut space = StateSpace::new();
        let a = space.add_state("a", 0).unwrap();
        let e = space.add_event("e").unwrap();
        let rules = [TransitionRule {
            from: a,
            event: e,
            to: StateId(9),
        }];
        assert!(Ssm::new(space, &rules, a).is_err());
    }

    #[test]
    fn reachability() {
        let mut space = StateSpace::new();
        let a = space.add_state("a", 0).unwrap();
        let b = space.add_state("b", 1).unwrap();
        let island = space.add_state("island", 2).unwrap();
        let e = space.add_event("e").unwrap();
        let rules = [TransitionRule {
            from: a,
            event: e,
            to: b,
        }];
        let ssm = Ssm::new(space, &rules, a).unwrap();
        let reachable = ssm.reachable_states();
        assert!(reachable.contains(&a));
        assert!(reachable.contains(&b));
        assert!(!reachable.contains(&island));
    }

    #[test]
    fn dot_export_contains_machine_structure() {
        let ssm = fig2();
        let crash = ssm.space().event_id("crash").unwrap();
        ssm.deliver(crash, Duration::ZERO);
        let dot = ssm.to_dot();
        assert!(dot.starts_with("digraph ssm {"));
        assert!(dot.contains("label=\"emergency\\n(3)\" shape=doublecircle"));
        assert!(dot.contains("label=\"driving\\n(0)\" shape=circle"));
        assert!(dot.contains("-> s3 [label=\"crash\"]"));
        assert!(dot.contains("__start -> s0;"));
        // One edge per transition rule (6 in the Fig. 2 machine).
        assert_eq!(dot.matches("[label=\"").count() - 4, 6, "{dot}");
    }

    #[test]
    fn coalesced_batch_publishes_net_effect_once() {
        struct CountListener(Counter);
        impl TransitionListener for CountListener {
            fn on_transition(&self, _from: StateId, _to: StateId) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ssm = fig2();
        let listener = Arc::new(CountListener(Counter::new(0)));
        ssm.add_listener(Arc::clone(&listener) as Arc<dyn TransitionListener>);
        let crash = ssm.space().event_id("crash").unwrap();
        let resolved = ssm.space().event_id("emergency_resolved").unwrap();
        let left = ssm.space().event_id("driver_left").unwrap();
        // driving -crash-> emergency -resolved-> pwd -left-> pwod, with a
        // non-matching crash in the middle.
        let out = ssm.deliver_coalesced(&[crash, crash, resolved, left], Duration::from_secs(9));
        assert!(out.transitioned());
        assert_eq!(out.matched, 3);
        assert_eq!(out.delivered, 4);
        assert_eq!(ssm.current_name(), "parking_without_driver");
        // Net effect published once: one taken transition, one history
        // record spanning pre-batch -> final, one listener call.
        assert_eq!(ssm.taken_count(), 1);
        assert_eq!(ssm.delivered_count(), 4);
        let history = ssm.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].at, Duration::from_secs(9));
        assert_eq!(ssm.space().state(history[0].from).name, "driving");
        assert_eq!(
            ssm.space().state(history[0].to).name,
            "parking_without_driver"
        );
        assert_eq!(history[0].event, left, "attributed to last matching event");
        assert_eq!(listener.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn coalesced_no_match_publishes_nothing() {
        let ssm = fig2();
        let resolved = ssm.space().event_id("emergency_resolved").unwrap();
        let out = ssm.deliver_coalesced(&[resolved, resolved], Duration::ZERO);
        assert!(!out.transitioned());
        assert_eq!(out.from, out.to);
        assert_eq!(ssm.current_name(), "driving");
        assert_eq!(ssm.taken_count(), 0);
        assert_eq!(ssm.delivered_count(), 2);
        assert!(ssm.history().is_empty());
    }

    #[test]
    fn coalesced_cycle_still_publishes_like_a_self_loop() {
        struct CountListener(Counter);
        impl TransitionListener for CountListener {
            fn on_transition(&self, from: StateId, to: StateId) {
                assert_eq!(from, to);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ssm = fig2();
        let listener = Arc::new(CountListener(Counter::new(0)));
        ssm.add_listener(Arc::clone(&listener) as Arc<dyn TransitionListener>);
        let crash = ssm.space().event_id("crash").unwrap();
        let resolved = ssm.space().event_id("emergency_resolved").unwrap();
        let start = ssm.space().event_id("start_driving").unwrap();
        // driving -> emergency -> pwd -> driving: a full cycle.
        let out = ssm.deliver_coalesced(&[crash, resolved, start], Duration::ZERO);
        assert!(out.transitioned());
        assert_eq!(out.from, out.to);
        assert_eq!(ssm.current_name(), "driving");
        assert_eq!(ssm.taken_count(), 1);
        assert_eq!(listener.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn coalesced_matches_per_event_final_state() {
        // The coalescing rule is exactly "same final state as per-event
        // delivery" — check against a replayed twin for a long mixed batch.
        let batch_names = [
            "crash",
            "park",
            "emergency_resolved",
            "driver_left",
            "driver_entered",
            "start_driving",
            "crash",
        ];
        let coalesced = fig2();
        let twin = fig2();
        let batch: Vec<EventId> = batch_names
            .iter()
            .map(|n| coalesced.space().event_id(n).unwrap())
            .collect();
        coalesced.deliver_coalesced(&batch, Duration::ZERO);
        for &e in &batch {
            twin.deliver(e, Duration::ZERO);
        }
        assert_eq!(coalesced.current(), twin.current());
        assert_eq!(coalesced.delivered_count(), twin.delivered_count());
        assert!(coalesced.taken_count() <= 1);
    }

    #[test]
    fn coalesced_empty_batch_is_a_no_op() {
        let ssm = fig2();
        let out = ssm.deliver_coalesced(&[], Duration::ZERO);
        assert!(!out.transitioned());
        assert_eq!(out.delivered, 0);
        assert_eq!(ssm.delivered_count(), 0);
    }

    #[test]
    fn concurrent_delivery_is_serialized() {
        use std::thread;
        let ssm = Arc::new(fig2());
        let crash = ssm.space().event_id("crash").unwrap();
        let resolved = ssm.space().event_id("emergency_resolved").unwrap();
        let start = ssm.space().event_id("start_driving").unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let ssm = Arc::clone(&ssm);
            handles.push(thread::spawn(move || {
                for _ in 0..250 {
                    ssm.deliver(crash, Duration::ZERO);
                    ssm.deliver(resolved, Duration::ZERO);
                    ssm.deliver(start, Duration::ZERO);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every taken transition is in the (serialized) history.
        assert_eq!(ssm.history().len() as u64, ssm.taken_count());
        // The final state is a valid state of the machine.
        assert!(ssm.current().0 < ssm.space().state_count());
    }
}
