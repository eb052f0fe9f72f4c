//! Offline policy simulation: the administrator's "what-if" tool.
//!
//! MAC policy errors in a vehicle are discovered at the worst possible
//! time (a rescue daemon denied during a crash). The simulator runs a
//! policy through a scripted timeline of situation events and access
//! queries *without any kernel*, so a CI job can assert properties like
//! "the rescue daemon can open doors in every state reachable after a
//! crash" before the policy ships.

use std::fmt;
use std::time::Duration;

use sack_apparmor::profile::FilePerms;

use crate::policy::CompiledPolicy;
use crate::rules::SubjectCtx;
use crate::sack::SackError;
use crate::ssm::{Ssm, TransitionOutcome};

/// An access question: who wants what on which object.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessQuery {
    /// Subject uid.
    pub uid: u32,
    /// Subject executable path, if any.
    pub exe: Option<String>,
    /// Subject's confining profile, if any.
    pub profile: Option<String>,
    /// Object path.
    pub path: String,
    /// Requested permissions.
    pub perms: FilePerms,
}

impl AccessQuery {
    /// A query for an executable-identified subject.
    pub fn from_exe(exe: &str, path: &str, perms: FilePerms) -> AccessQuery {
        AccessQuery {
            uid: 1000,
            exe: Some(exe.to_string()),
            profile: None,
            path: path.to_string(),
            perms,
        }
    }
}

impl fmt::Display for AccessQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({})",
            self.exe.as_deref().unwrap_or("(anon)"),
            self.path,
            self.perms
        )
    }
}

/// One step of a simulation script.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Deliver a situation event.
    Event(String),
    /// Ask an access question.
    Access(AccessQuery),
}

/// The simulator's answer to one step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepResult {
    /// The event moved the machine.
    Transitioned {
        /// Event name.
        event: String,
        /// State before.
        from: String,
        /// State after.
        to: String,
    },
    /// The event matched no rule for the current state.
    NoTransition {
        /// Event name.
        event: String,
        /// Unchanged state.
        state: String,
    },
    /// The event is not declared by the policy.
    UnknownEvent(String),
    /// The answer to an access question.
    Decision {
        /// The question.
        query: AccessQuery,
        /// State at decision time.
        state: String,
        /// `false` when the object is unprotected (SACK does not mediate).
        mediated: bool,
        /// The decision (always `true` for unmediated objects).
        allowed: bool,
    },
}

impl StepResult {
    /// True for `Decision { allowed: true, .. }` and unmediated accesses.
    pub fn is_allowed(&self) -> bool {
        matches!(self, StepResult::Decision { allowed: true, .. })
    }
}

impl fmt::Display for StepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepResult::Transitioned { event, from, to } => {
                write!(f, "event {event}: {from} -> {to}")
            }
            StepResult::NoTransition { event, state } => {
                write!(f, "event {event}: no transition (still {state})")
            }
            StepResult::UnknownEvent(e) => write!(f, "event {e}: UNKNOWN"),
            StepResult::Decision {
                query,
                state,
                mediated,
                allowed,
            } => {
                let verdict = match (mediated, allowed) {
                    (false, _) => "ALLOW (unprotected)",
                    (true, true) => "ALLOW",
                    (true, false) => "DENY",
                };
                write!(f, "[{state}] {query}: {verdict}")
            }
        }
    }
}

/// The simulator: a compiled policy plus a private state machine.
pub struct PolicySimulator {
    policy: CompiledPolicy,
    ssm: Ssm,
}

impl PolicySimulator {
    /// Builds a simulator from policy text.
    ///
    /// # Errors
    ///
    /// The same parse/validation errors as loading the policy for real.
    pub fn new(policy_text: &str) -> Result<PolicySimulator, SackError> {
        let ast = crate::policy::SackPolicy::parse(policy_text)?;
        let policy = ast.compile().map_err(SackError::Invalid)?;
        let ssm = Ssm::new(
            policy.space().clone(),
            policy.transitions(),
            policy.initial(),
        )
        .map_err(SackError::Ssm)?;
        Ok(PolicySimulator { policy, ssm })
    }

    /// The compiled policy under simulation.
    pub fn policy(&self) -> &CompiledPolicy {
        &self.policy
    }

    /// Diagnostics from the static analysis that runs automatically when
    /// the policy is loaded: SSM reachability (unreachable and dead
    /// states, events that can never fire) and MAC-rule lints (shadowed
    /// rules, allow/deny conflicts on overlapping matches). Errors abort
    /// [`PolicySimulator::new`]; everything surfaced here is advisory,
    /// and `sack-analyze` renders the same issues (plus cross-layer
    /// stacking checks) on the command line.
    pub fn load_diagnostics(&self) -> &[crate::policy::PolicyIssue] {
        self.policy.warnings()
    }

    /// The current simulated situation state name.
    pub fn state(&self) -> &str {
        self.ssm.current_name()
    }

    /// Delivers one event.
    pub fn deliver(&self, event: &str) -> StepResult {
        match self.ssm.deliver_by_name(event, Duration::ZERO) {
            Err(unknown) => StepResult::UnknownEvent(unknown),
            Ok(TransitionOutcome::Transitioned { from, to }) => StepResult::Transitioned {
                event: event.to_string(),
                from: self.ssm.space().state(from).name.clone(),
                to: self.ssm.space().state(to).name.clone(),
            },
            Ok(TransitionOutcome::NoMatch { current }) => StepResult::NoTransition {
                event: event.to_string(),
                state: self.ssm.space().state(current).name.clone(),
            },
        }
    }

    /// Answers an access question in the current state.
    pub fn query(&self, query: &AccessQuery) -> StepResult {
        let state = self.ssm.current();
        let decision = self
            .policy
            .scan(state, &query_subject(query), &query.path, query.perms);
        StepResult::Decision {
            query: query.clone(),
            state: self.ssm.space().state(state).name.clone(),
            mediated: decision.protected,
            allowed: !decision.protected || decision.permitted,
        }
    }

    /// Runs a script, returning one result per step.
    pub fn run(&self, script: &[Step]) -> Vec<StepResult> {
        script
            .iter()
            .map(|step| match step {
                Step::Event(e) => self.deliver(e),
                Step::Access(q) => self.query(q),
            })
            .collect()
    }

    /// Exhaustive check: answers `query` in **every state reachable from
    /// the initial state**, returning `(state, allowed)` pairs — the tool
    /// for "is this permission really emergency-only?" questions.
    ///
    /// Does not disturb the simulator's current state.
    pub fn query_all_reachable_states(&self, query: &AccessQuery) -> Vec<(String, bool)> {
        let subject = query_subject(query);
        self.ssm
            .reachable_states()
            .into_iter()
            .map(|state| {
                let decision = self.policy.scan(state, &subject, &query.path, query.perms);
                let allowed = !decision.protected || decision.permitted;
                (self.ssm.space().state(state).name.clone(), allowed)
            })
            .collect()
    }
}

/// The subject a query asks about.
fn query_subject(query: &AccessQuery) -> SubjectCtx<'_> {
    SubjectCtx {
        uid: query.uid,
        exe: query.exe.as_deref(),
        profile: query.profile.as_deref(),
    }
}

impl fmt::Debug for PolicySimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicySimulator")
            .field("state", &self.state())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { NORMAL; DOORS; }
        state_per { normal: NORMAL; emergency: NORMAL, DOORS; }
        per_rules {
            NORMAL: allow subject=* /dev/car/** r;
            DOORS: allow subject=/usr/bin/rescue* /dev/car/** wi;
        }
    "#;

    fn door_write(exe: &str) -> AccessQuery {
        AccessQuery::from_exe(exe, "/dev/car/door0", FilePerms::WRITE)
    }

    #[test]
    fn scripted_timeline() {
        let sim = PolicySimulator::new(POLICY).unwrap();
        let script = vec![
            Step::Access(door_write("/usr/bin/rescue_daemon")),
            Step::Event("crash".to_string()),
            Step::Access(door_write("/usr/bin/rescue_daemon")),
            Step::Access(door_write("/usr/bin/media_app")),
            Step::Event("rescue_done".to_string()),
            Step::Access(door_write("/usr/bin/rescue_daemon")),
        ];
        let results = sim.run(&script);
        assert!(!results[0].is_allowed(), "denied before crash");
        assert!(matches!(results[1], StepResult::Transitioned { .. }));
        assert!(results[2].is_allowed(), "allowed during emergency");
        assert!(!results[3].is_allowed(), "wrong subject stays denied");
        assert!(!results[5].is_allowed(), "retracted after rescue");
    }

    #[test]
    fn unprotected_objects_are_flagged_unmediated() {
        let sim = PolicySimulator::new(POLICY).unwrap();
        let result = sim.query(&AccessQuery::from_exe(
            "/usr/bin/anything",
            "/tmp/scratch",
            FilePerms::WRITE,
        ));
        match result {
            StepResult::Decision {
                mediated, allowed, ..
            } => {
                assert!(!mediated);
                assert!(allowed);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_and_nonmatching_events() {
        let sim = PolicySimulator::new(POLICY).unwrap();
        assert_eq!(
            sim.deliver("meteor"),
            StepResult::UnknownEvent("meteor".to_string())
        );
        // rescue_done has no rule from `normal`.
        assert!(matches!(
            sim.deliver("rescue_done"),
            StepResult::NoTransition { .. }
        ));
        assert_eq!(sim.state(), "normal");
    }

    #[test]
    fn exhaustive_state_query_proves_emergency_only() {
        let sim = PolicySimulator::new(POLICY).unwrap();
        let per_state = sim.query_all_reachable_states(&door_write("/usr/bin/rescue_daemon"));
        let allowed_states: Vec<&str> = per_state
            .iter()
            .filter(|(_, allowed)| *allowed)
            .map(|(s, _)| s.as_str())
            .collect();
        assert_eq!(allowed_states, vec!["emergency"]);
        // Reads are allowed everywhere.
        let reads = sim.query_all_reachable_states(&AccessQuery::from_exe(
            "/usr/bin/navi",
            "/dev/car/door0",
            FilePerms::READ,
        ));
        assert!(reads.iter().all(|(_, allowed)| *allowed));
        // The exhaustive query did not move the machine.
        assert_eq!(sim.state(), "normal");
    }

    #[test]
    fn display_formats() {
        let sim = PolicySimulator::new(POLICY).unwrap();
        let text = sim.deliver("crash").to_string();
        assert_eq!(text, "event crash: normal -> emergency");
        let text = sim.query(&door_write("/usr/bin/media")).to_string();
        assert!(text.contains("[emergency]"));
        assert!(text.contains("DENY"));
    }

    #[test]
    fn rejects_invalid_policy() {
        assert!(PolicySimulator::new("states {").is_err());
    }

    #[test]
    fn load_runs_the_static_analysis_by_default() {
        let sim = PolicySimulator::new(POLICY).unwrap();
        assert!(sim.load_diagnostics().is_empty());

        // A policy with a shadowed rule loads (warnings are advisory)
        // but the diagnostic is already waiting on the simulator.
        let shadowed = r#"
            states { normal = 0; }
            events { noop; }
            transitions { normal -noop-> normal; }
            initial normal;
            permissions { NORMAL; }
            state_per { normal: NORMAL; }
            per_rules {
                NORMAL:
                    allow subject=* /dev/car/** rw;
                    allow subject=* /dev/car/door* r;
            }
        "#;
        let sim = PolicySimulator::new(shadowed).unwrap();
        let diags = sim.load_diagnostics();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, crate::policy::IssueKind::ShadowedRule);
    }
}
