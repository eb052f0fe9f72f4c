//! The SACK policy language (paper §III-D, Table I).
//!
//! A policy is written against four interfaces:
//!
//! | Interface     | Purpose                                        |
//! |---------------|------------------------------------------------|
//! | `States`      | situation states and their encodings           |
//! | `Permissions` | coarse SACK permissions                        |
//! | `State_Per`   | "State → Permission" mapping                   |
//! | `Per_Rules`   | "Permission → MAC rules" mapping               |
//!
//! plus `events`, `transitions` and `initial` describing the situation
//! state machine. The textual syntax (see [`parser`]) is parsed into the
//! [`SackPolicy`] AST, validated by the [`check`] pass, and compiled into a
//! [`CompiledPolicy`]: the state machine inputs plus one precomputed
//! [`StateRuleSet`] per state — Algorithm 1's `g(f(SS_i))` materialized at
//! load time so situation transitions are an O(1) pointer move.

pub mod check;
pub mod parser;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use sack_apparmor::glob::Glob;
use sack_apparmor::profile::FilePerms;

use crate::rules::{
    MacRule, Permission, PermissionId, ProtectedSet, RuleEffect, StateRuleSet, SubjectMatch,
};
use crate::situation::{StateId, StateSpace};
use crate::ssm::TransitionRule;
use crate::statedfa::StateDfa;

use check::RuleIndex;
pub use check::{check_policy, render_rule, IssueKind, IssueSeverity, PolicyIssue, RuleProvenance};
pub use parser::{parse_policy, ParsePolicyError};

/// Raw subject selector as written in policy text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SubjectSpec {
    /// `subject=*`
    Any,
    /// `subject=<glob>` — executable path pattern.
    Exe(String),
    /// `uid=<n>`
    Uid(u32),
    /// `subject=profile:<name>`
    Profile(String),
}

impl fmt::Display for SubjectSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubjectSpec::Any => f.write_str("subject=*"),
            SubjectSpec::Exe(g) => write!(f, "subject={g}"),
            SubjectSpec::Uid(u) => write!(f, "uid={u}"),
            SubjectSpec::Profile(p) => write!(f, "subject=profile:{p}"),
        }
    }
}

/// One MAC rule as written in policy text (validated during compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpec {
    /// Allow or deny.
    pub effect: RuleEffect,
    /// Subject selector.
    pub subject: SubjectSpec,
    /// Object glob source text.
    pub object: String,
    /// Permission letters (`rwaxmi`).
    pub perms: String,
    /// Source line, for diagnostics.
    pub line: usize,
}

/// The parsed policy AST: a direct transcription of the policy text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SackPolicy {
    /// `states { name = encoding; ... }`
    pub states: Vec<(String, u32)>,
    /// `events { name; ... }`
    pub events: Vec<String>,
    /// `transitions { from -event-> to; ... }`
    pub transitions: Vec<(String, String, String)>,
    /// `initial <state>;`
    pub initial: Option<String>,
    /// `permissions { NAME; ... }`
    pub permissions: Vec<String>,
    /// `state_per { state: PERM, PERM; ... }`
    pub state_per: Vec<(String, Vec<String>)>,
    /// `per_rules { PERM: rule; rule; ... }`
    pub per_rules: Vec<(String, Vec<RuleSpec>)>,
}

impl fmt::Display for SackPolicy {
    /// Renders the policy in canonical syntax; the output re-parses to an
    /// equal AST (see the round-trip property test).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "states {{")?;
        for (name, enc) in &self.states {
            writeln!(f, "    {name} = {enc};")?;
        }
        writeln!(f, "}}")?;
        writeln!(f, "events {{")?;
        for name in &self.events {
            writeln!(f, "    {name};")?;
        }
        writeln!(f, "}}")?;
        writeln!(f, "transitions {{")?;
        for (from, event, to) in &self.transitions {
            writeln!(f, "    {from} -{event}-> {to};")?;
        }
        writeln!(f, "}}")?;
        if let Some(initial) = &self.initial {
            writeln!(f, "initial {initial};")?;
        }
        writeln!(f, "permissions {{")?;
        for name in &self.permissions {
            writeln!(f, "    {name};")?;
        }
        writeln!(f, "}}")?;
        writeln!(f, "state_per {{")?;
        for (state, perms) in &self.state_per {
            writeln!(f, "    {state}: {};", perms.join(", "))?;
        }
        writeln!(f, "}}")?;
        writeln!(f, "per_rules {{")?;
        for (perm, rules) in &self.per_rules {
            writeln!(f, "    {perm}:")?;
            for rule in rules {
                let effect = match rule.effect {
                    RuleEffect::Allow => "allow",
                    RuleEffect::Deny => "deny",
                };
                writeln!(
                    f,
                    "        {effect} {} {} {};",
                    rule.subject, rule.object, rule.perms
                )?;
            }
        }
        writeln!(f, "}}")
    }
}

impl SackPolicy {
    /// Parses policy text (convenience for [`parser::parse_policy`]).
    ///
    /// # Errors
    ///
    /// Syntax errors with line numbers.
    pub fn parse(text: &str) -> Result<SackPolicy, ParsePolicyError> {
        parse_policy(text)
    }

    /// Validates and compiles the policy.
    ///
    /// # Errors
    ///
    /// All detected issues; compilation fails if any has
    /// [`IssueSeverity::Error`]. Warnings are attached to the compiled
    /// policy instead.
    pub fn compile(&self) -> Result<CompiledPolicy, Vec<PolicyIssue>> {
        let (issues, index) = check::check_and_index(self);
        if issues.iter().any(|i| i.severity == IssueSeverity::Error) {
            return Err(issues);
        }
        let warnings = issues;
        let RuleIndex { rules, dfa: index } = index.expect("error-free policies are indexed");

        let mut space = StateSpace::new();
        for (name, enc) in &self.states {
            space
                .add_state(name, *enc)
                .expect("checker guarantees unique states");
        }
        for name in &self.events {
            space
                .add_event(name)
                .expect("checker guarantees unique events");
        }

        let transitions: Vec<TransitionRule> = self
            .transitions
            .iter()
            .map(|(from, event, to)| TransitionRule {
                from: space.state_id(from).expect("checked"),
                event: space.event_id(event).expect("checked"),
                to: space.state_id(to).expect("checked"),
            })
            .collect();

        let initial = space
            .state_id(self.initial.as_deref().expect("checker requires initial"))
            .expect("checked");

        let permissions: Vec<Permission> = self
            .permissions
            .iter()
            .map(|name| Permission { name: name.clone() })
            .collect();
        let perm_id = |name: &str| -> PermissionId {
            PermissionId(
                permissions
                    .iter()
                    .position(|p| p.name == name)
                    .expect("checked"),
            )
        };

        // f: state -> permission set. A `*` entry grants in every state.
        let mut state_perms: Vec<Vec<PermissionId>> = vec![Vec::new(); space.state_count()];
        for (state, perms) in &self.state_per {
            let targets: Vec<usize> = if state == "*" {
                (0..space.state_count()).collect()
            } else {
                vec![space.state_id(state).expect("checked").0]
            };
            for p in perms {
                let pid = perm_id(p);
                for &t in &targets {
                    if !state_perms[t].contains(&pid) {
                        state_perms[t].push(pid);
                    }
                }
            }
        }

        // g: permission -> MAC rules, each with its tag in the rule index
        // (its position in `per_rules` order).
        let mut perm_rules: Vec<Vec<MacRule>> = vec![Vec::new(); permissions.len()];
        let mut perm_tags: Vec<Vec<u32>> = vec![Vec::new(); permissions.len()];
        let mut indexed = rules.into_iter().zip(0u32..);
        for (perm, specs) in &self.per_rules {
            let pid = perm_id(perm);
            for (rule, tag) in indexed.by_ref().take(specs.len()) {
                perm_rules[pid.0].push(rule);
                perm_tags[pid.0].push(tag);
            }
        }

        // Unified per-state DFA tables, rebuilt at every compile so a reload
        // can never serve stale tables. Each is a relabelling of the rule
        // index the checker determinized over every object glob of the
        // policy: its tags are the protected-set markers, so all states
        // share the index's byte-class alphabet and no state determinizes
        // again. States granting the same permission set compile to the
        // same table: relabel each distinct set once — across the bounded
        // worker pool, the index being read-only — and share the `Arc`
        // among the states mapping to it.
        let mut slot_of: Vec<usize> = Vec::with_capacity(state_perms.len());
        let mut distinct: Vec<&Vec<PermissionId>> = Vec::new();
        let mut seen: HashMap<Vec<usize>, usize> = HashMap::new();
        for perms in &state_perms {
            let mut key: Vec<usize> = perms.iter().map(|pid| pid.0).collect();
            key.sort_unstable();
            let next = distinct.len();
            let slot = *seen.entry(key).or_insert(next);
            if slot == next {
                distinct.push(perms);
            }
            slot_of.push(slot);
        }
        let built: Vec<Arc<StateDfa>> = sack_apparmor::pipeline::map_parallel(
            &distinct,
            sack_apparmor::pipeline::default_workers(),
            |perms| {
                Arc::new(StateDfa::from_index(
                    &index,
                    perms.iter().flat_map(|pid| {
                        perm_rules[pid.0]
                            .iter()
                            .zip(perm_tags[pid.0].iter().copied())
                    }),
                ))
            },
        );
        let state_dfas: Vec<Arc<StateDfa>> =
            slot_of.iter().map(|&s| Arc::clone(&built[s])).collect();
        // Free the index before the long-lived rule sets are built, so
        // their many small allocations reuse its memory instead of leaving
        // it scattered for whatever the kernel allocates next.
        drop(index);

        // Precompute g(f(SS_i)) for every state.
        let state_rules: Vec<Arc<StateRuleSet>> = state_perms
            .iter()
            .map(|perms| {
                Arc::new(StateRuleSet::build(
                    perms.iter().flat_map(|pid| perm_rules[pid.0].iter()),
                ))
            })
            .collect();

        let protected = ProtectedSet::build(
            perm_rules
                .iter()
                .flat_map(|rules| rules.iter().map(|r| &r.object)),
        );

        Ok(CompiledPolicy {
            space,
            transitions,
            initial,
            permissions,
            state_perms,
            perm_rules,
            state_rules,
            state_dfas,
            protected,
            warnings,
        })
    }
}

pub(crate) fn compile_rule(spec: &RuleSpec) -> Result<MacRule, String> {
    let subject = match &spec.subject {
        SubjectSpec::Any => SubjectMatch::Any,
        SubjectSpec::Exe(glob) => {
            SubjectMatch::ExeGlob(Glob::compile(glob).map_err(|e| e.to_string())?)
        }
        SubjectSpec::Uid(uid) => SubjectMatch::Uid(*uid),
        SubjectSpec::Profile(name) => SubjectMatch::Profile(name.clone()),
    };
    let object = Glob::compile(&spec.object).map_err(|e| e.to_string())?;
    let perms =
        FilePerms::parse(&spec.perms).map_err(|c| format!("unknown permission letter `{c}`"))?;
    Ok(MacRule {
        subject,
        object,
        perms,
        effect: spec.effect,
    })
}

/// A validated, loaded SACK policy.
pub struct CompiledPolicy {
    space: StateSpace,
    transitions: Vec<TransitionRule>,
    initial: StateId,
    permissions: Vec<Permission>,
    state_perms: Vec<Vec<PermissionId>>,
    perm_rules: Vec<Vec<MacRule>>,
    state_rules: Vec<Arc<StateRuleSet>>,
    state_dfas: Vec<Arc<StateDfa>>,
    protected: ProtectedSet,
    warnings: Vec<PolicyIssue>,
}

impl CompiledPolicy {
    /// The state/event universe.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// Transition rules for the SSM.
    pub fn transitions(&self) -> &[TransitionRule] {
        &self.transitions
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// All declared permissions.
    pub fn permissions(&self) -> &[Permission] {
        &self.permissions
    }

    /// Looks up a permission id by name.
    pub fn permission_id(&self, name: &str) -> Option<PermissionId> {
        self.permissions
            .iter()
            .position(|p| p.name == name)
            .map(PermissionId)
    }

    /// Permission set of a state (`f(SS_i)`).
    pub fn permissions_of(&self, state: StateId) -> &[PermissionId] {
        &self.state_perms[state.0]
    }

    /// MAC rules of a permission (`g(P_i)`).
    pub fn rules_of(&self, perm: PermissionId) -> &[MacRule] {
        &self.perm_rules[perm.0]
    }

    /// The precompiled rule set for a state (`g(f(SS_i))`).
    pub fn state_rules(&self, state: StateId) -> &Arc<StateRuleSet> {
        &self.state_rules[state.0]
    }

    /// The unified decision DFA compiled for a state.
    pub fn state_dfa(&self, state: StateId) -> &Arc<StateDfa> {
        &self.state_dfas[state.0]
    }

    /// The protected-object set.
    pub fn protected(&self) -> &ProtectedSet {
        &self.protected
    }

    /// Non-fatal issues found at compile time.
    pub fn warnings(&self) -> &[PolicyIssue] {
        &self.warnings
    }

    /// Total number of MAC rules across all permissions.
    pub fn rule_count(&self) -> usize {
        self.perm_rules.iter().map(Vec::len).sum()
    }
}

impl fmt::Debug for CompiledPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPolicy")
            .field("states", &self.space.state_count())
            .field("events", &self.space.event_count())
            .field("permissions", &self.permissions.len())
            .field("rules", &self.rule_count())
            .field("warnings", &self.warnings.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SubjectCtx;

    /// The running example from the paper: door control only in emergencies.
    pub(crate) const DOOR_POLICY: &str = r#"
        # SACK policy: allow car-door control only in emergencies.
        states {
            normal = 0;
            emergency = 1;
        }
        events {
            crash;
            rescue_done;
        }
        transitions {
            normal -crash-> emergency;
            emergency -rescue_done-> normal;
        }
        initial normal;
        permissions {
            NORMAL;
            CONTROL_CAR_DOORS;
        }
        state_per {
            normal: NORMAL;
            emergency: NORMAL, CONTROL_CAR_DOORS;
        }
        per_rules {
            NORMAL: allow subject=* /dev/car/** r;
            CONTROL_CAR_DOORS: allow subject=/usr/bin/rescue* /dev/car/** wi;
        }
    "#;

    #[test]
    fn door_policy_compiles() {
        let policy = SackPolicy::parse(DOOR_POLICY).unwrap();
        let compiled = policy.compile().unwrap();
        assert_eq!(compiled.space().state_count(), 2);
        assert_eq!(compiled.permissions().len(), 2);
        assert_eq!(compiled.rule_count(), 2);
        assert_eq!(compiled.space().state(compiled.initial()).name, "normal");
    }

    #[test]
    fn state_dfas_share_one_alphabet() {
        let compiled = SackPolicy::parse(DOOR_POLICY).unwrap().compile().unwrap();
        assert!(compiled.space().state_count() > 1);
        let first = compiled.state_dfa(StateId(0)).alphabet();
        for index in 1..compiled.space().state_count() {
            assert!(
                Arc::ptr_eq(compiled.state_dfa(StateId(index)).alphabet(), first),
                "state {index} compiled against a private alphabet"
            );
        }
    }

    #[test]
    fn states_with_equal_permission_sets_share_one_dfa() {
        // Both states grant exactly P (one via `*`), so their unified
        // tables dedup onto one build; the distinct state gets its own.
        let compiled = SackPolicy::parse(
            r#"
states { a = 0; b = 1; c = 2; }
events { go; }
transitions { a -go-> b; b -go-> c; c -go-> a; }
initial a;
permissions { P; Q; }
state_per { *: P; c: Q; }
per_rules {
    P: allow subject=* /data/** r;
    Q: allow subject=* /dev/car/* w;
}
"#,
        )
        .unwrap()
        .compile()
        .unwrap();
        let a = compiled.space().state_id("a").unwrap();
        let b = compiled.space().state_id("b").unwrap();
        let c = compiled.space().state_id("c").unwrap();
        assert!(
            Arc::ptr_eq(compiled.state_dfa(a), compiled.state_dfa(b)),
            "equal permission sets must share one compiled table"
        );
        assert!(!Arc::ptr_eq(compiled.state_dfa(a), compiled.state_dfa(c)));
    }

    #[test]
    fn state_rules_reflect_state_per() {
        let compiled = SackPolicy::parse(DOOR_POLICY).unwrap().compile().unwrap();
        let normal = compiled.space().state_id("normal").unwrap();
        let emergency = compiled.space().state_id("emergency").unwrap();
        let rescue = SubjectCtx {
            uid: 0,
            exe: Some("/usr/bin/rescue_daemon"),
            profile: None,
        };
        // Write+ioctl on door devices: only in emergency, only for rescue.
        let door = "/dev/car/door0";
        assert!(!compiled
            .state_rules(normal)
            .permits(&rescue, door, FilePerms::IOCTL));
        assert!(compiled.state_rules(emergency).permits(
            &rescue,
            door,
            FilePerms::IOCTL | FilePerms::WRITE
        ));
        let media = SubjectCtx {
            uid: 1000,
            exe: Some("/usr/bin/media_app"),
            profile: None,
        };
        assert!(!compiled
            .state_rules(emergency)
            .permits(&media, door, FilePerms::IOCTL));
        // Read is allowed everywhere via NORMAL.
        assert!(compiled
            .state_rules(normal)
            .permits(&media, door, FilePerms::READ));
    }

    #[test]
    fn protected_set_from_rules() {
        let compiled = SackPolicy::parse(DOOR_POLICY).unwrap().compile().unwrap();
        assert!(compiled.protected().contains("/dev/car/door0"));
        assert!(compiled.protected().contains("/dev/car/window1"));
        assert!(!compiled.protected().contains("/etc/passwd"));
        assert_eq!(compiled.protected().len(), 1, "same glob deduplicated");
    }

    #[test]
    fn wildcard_state_grants_everywhere() {
        let text = r#"
            states { a = 0; b = 1; c = 2; }
            events { go; }
            transitions { a -go-> b; b -go-> c; c -go-> a; }
            initial a;
            permissions { BASE; EXTRA; }
            state_per {
                *: BASE;
                b: EXTRA;
            }
            per_rules {
                BASE: allow subject=* /common/** r;
                EXTRA: allow subject=* /extra/** rw;
            }
        "#;
        let compiled = SackPolicy::parse(text).unwrap().compile().unwrap();
        let subject = SubjectCtx {
            uid: 0,
            exe: None,
            profile: None,
        };
        for state_name in ["a", "b", "c"] {
            let state = compiled.space().state_id(state_name).unwrap();
            assert!(
                compiled
                    .state_rules(state)
                    .permits(&subject, "/common/x", FilePerms::READ),
                "BASE missing in {state_name}"
            );
            assert_eq!(
                compiled
                    .state_rules(state)
                    .permits(&subject, "/extra/x", FilePerms::WRITE),
                state_name == "b",
                "EXTRA wrong in {state_name}"
            );
        }
        assert!(compiled.warnings().is_empty(), "{:?}", compiled.warnings());
    }

    #[test]
    fn compile_rejects_undefined_references() {
        let text = r#"
            states { a = 0; }
            events { e; }
            transitions { a -e-> ghost; }
            initial a;
            permissions { P; }
            state_per { a: P; }
            per_rules { P: allow subject=* /x r; }
        "#;
        let err = SackPolicy::parse(text).unwrap().compile().unwrap_err();
        assert!(err.iter().any(|i| i.message.contains("ghost")));
    }

    #[test]
    fn permission_id_lookup() {
        let compiled = SackPolicy::parse(DOOR_POLICY).unwrap().compile().unwrap();
        let id = compiled.permission_id("CONTROL_CAR_DOORS").unwrap();
        assert_eq!(compiled.rules_of(id).len(), 1);
        assert!(compiled.permission_id("MISSING").is_none());
        let emergency = compiled.space().state_id("emergency").unwrap();
        assert_eq!(compiled.permissions_of(emergency).len(), 2);
    }
}
