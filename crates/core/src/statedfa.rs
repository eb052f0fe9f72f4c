//! Per-state unified DFA decision tables.
//!
//! `SackPolicy::compile` builds one [`StateDfa`] per distinct situation
//! permission set. It does not determinize per state: the policy checker
//! already ran one subset construction over every object glob of the
//! policy, each tagged with its rule's index (`check::RuleIndex`), and
//! every state's table is a relabelling of that one automaton
//! ([`Dfa::relabel`]). A state's accepting annotation is the union
//! [`RuleDecision`] of its active subject-wildcard rules among the tags,
//! plus a protected-set marker that is set whenever any tag is present —
//! every glob of the whole policy protects its paths in every state. One
//! O(|path|) table walk per mediated hook therefore answers both questions
//! the hook asks — "is this path SACK-protected at all?" and "what do this
//! state's rules say?" — independent of rule count.
//!
//! Rules with a non-wildcard subject selector (`exe:`, `uid:`, `profile:`)
//! cannot be folded into a path-only DFA; they are kept aside in small
//! residual scan lists consulted after the walk. Vehicle policies keep
//! almost all rules subject-wildcarded, so the residue is empty or tiny.
//!
//! Tables are rebuilt from scratch on every compile and published through
//! the existing `Rcu<ActivePolicy>`, so a policy reload or situation
//! transition swaps them atomically together with the rule sets
//! (see `DESIGN.md` §7).

use std::sync::Arc;

use sack_apparmor::dfa::{Alphabet, Dfa, DfaBuilder, DfaStats};
use sack_apparmor::matcher::RuleDecision;
use sack_apparmor::Glob;

use crate::rules::{MacRule, RuleEffect, SubjectCtx, SubjectMatch};
use sack_apparmor::FilePerms;

/// Per-DFA-state annotation: protection membership plus the build-time
/// resolved decision of the subject-wildcard rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct StateAnnot {
    protected: bool,
    decision: RuleDecision,
}

/// Outcome of one [`StateDfa::decide`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDecision {
    /// True if the path matches any object glob in the policy (the
    /// [`crate::rules::ProtectedSet`] membership test).
    pub protected: bool,
    /// True if the requested permissions are granted in this state.
    pub permitted: bool,
}

/// A situation state's compiled decision table.
#[derive(Debug)]
pub struct StateDfa {
    dfa: Dfa<StateAnnot>,
    /// Subject-scoped allow rules, scanned after the walk.
    scan_allow: Vec<MacRule>,
    /// Subject-scoped deny rules, scanned before granting.
    scan_deny: Vec<MacRule>,
}

impl StateDfa {
    /// Compiles the table from this state's active rules plus every object
    /// glob in the policy (the protected-set markers), deriving a private
    /// byte-class alphabet.
    pub fn build<'a>(
        rules: impl IntoIterator<Item = &'a MacRule>,
        all_globs: impl IntoIterator<Item = &'a Glob>,
    ) -> StateDfa {
        let rules: Vec<&MacRule> = rules.into_iter().collect();
        let marker = rules.len() as u32;
        let mut builder = DfaBuilder::new();
        for (tag, rule) in rules.iter().enumerate() {
            builder.add_glob(&rule.object, tag as u32);
        }
        for glob in all_globs {
            builder.add_glob(glob, marker);
        }
        let index = builder.determinize(&Arc::new(builder.alphabet()));
        Self::from_index(&index, rules.into_iter().zip(0..))
    }

    /// Relabels a tag automaton into one state's table. `rules` are the
    /// state's active rules, in state-permission order, each with the tag
    /// its object glob carries in `index`; every other tag is a
    /// protected-set marker. `SackPolicy::compile` calls this once per
    /// distinct permission set on the policy's one rule index, so every
    /// state shares the index's alphabet.
    pub(crate) fn from_index<'a>(
        index: &Dfa<Vec<u32>>,
        rules: impl IntoIterator<Item = (&'a MacRule, u32)>,
    ) -> StateDfa {
        // folded[tag]: the subject-wildcard rule behind an active tag.
        let mut folded: Vec<Option<&MacRule>> = Vec::new();
        let mut scan_allow = Vec::new();
        let mut scan_deny = Vec::new();
        for (rule, tag) in rules {
            if matches!(rule.subject, SubjectMatch::Any) {
                let tag = tag as usize;
                if folded.len() <= tag {
                    folded.resize(tag + 1, None);
                }
                folded[tag] = Some(rule);
            } else {
                match rule.effect {
                    RuleEffect::Allow => scan_allow.push(rule.clone()),
                    RuleEffect::Deny => scan_deny.push(rule.clone()),
                }
            }
        }
        let dfa = index.relabel(|tags| {
            let mut annot = StateAnnot {
                protected: !tags.is_empty(),
                decision: RuleDecision::default(),
            };
            for &tag in tags {
                let Some(Some(rule)) = folded.get(tag as usize) else {
                    continue;
                };
                match rule.effect {
                    RuleEffect::Allow => {
                        annot.decision.allowed = annot.decision.allowed.union(rule.perms);
                    }
                    RuleEffect::Deny => {
                        annot.decision.denied = annot.decision.denied.union(rule.perms);
                    }
                }
            }
            annot
        });
        StateDfa {
            dfa,
            scan_allow,
            scan_deny,
        }
    }

    /// Decides a request with one table walk plus the (usually empty)
    /// subject-scoped residue. Produces exactly the outcome of
    /// `ProtectedSet::contains` + `StateRuleSet::permits`.
    pub fn decide(
        &self,
        subject: &SubjectCtx<'_>,
        path: &str,
        requested: FilePerms,
    ) -> StateDecision {
        let annot = self.dfa.eval(path);
        let mut protected = annot.protected;
        let has_residue = !(self.scan_allow.is_empty() && self.scan_deny.is_empty());
        if !protected && has_residue {
            // Subject-scoped rule globs are part of the protected set too,
            // but their decision cannot live in the path-only table. (The
            // markers already cover them; this branch is unreachable when
            // the globs were passed as `all_globs`, kept for robustness.)
            protected = self
                .scan_allow
                .iter()
                .chain(&self.scan_deny)
                .any(|rule| rule.object.matches(path));
        }
        if annot.decision.denied.intersects(requested) {
            return StateDecision {
                protected,
                permitted: false,
            };
        }
        for rule in &self.scan_deny {
            if rule.perms.intersects(requested)
                && rule.object.matches(path)
                && rule.subject.matches(subject)
            {
                return StateDecision {
                    protected,
                    permitted: false,
                };
            }
        }
        let mut granted = annot.decision.allowed;
        if !granted.contains(requested) {
            for rule in &self.scan_allow {
                if rule.object.matches(path) && rule.subject.matches(subject) {
                    granted = granted.union(rule.perms);
                    if granted.contains(requested) {
                        break;
                    }
                }
            }
        }
        StateDecision {
            protected,
            permitted: granted.contains(requested),
        }
    }

    /// Size statistics of the compiled table, surfaced by `sack-analyze`.
    pub fn stats(&self) -> DfaStats {
        self.dfa.stats()
    }

    /// The byte-class alphabet the table was compiled against (shared
    /// across all states of one compiled policy).
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        self.dfa.alphabet()
    }

    /// Number of subject-scoped rules left to the residual scan.
    pub fn residual_rule_count(&self) -> usize {
        self.scan_allow.len() + self.scan_deny.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RuleSpec, SackPolicy, SubjectSpec};
    use crate::rules::StateRuleSet;
    use crate::situation::StateId;

    fn glob(pat: &str) -> Glob {
        Glob::compile(pat).unwrap()
    }

    fn rule(subject: SubjectMatch, object: &str, perms: FilePerms, effect: RuleEffect) -> MacRule {
        MacRule {
            subject,
            object: glob(object),
            perms,
            effect,
        }
    }

    #[test]
    fn dfa_matches_rule_set_semantics() {
        let rules = [
            rule(
                SubjectMatch::Any,
                "/dev/car/**",
                FilePerms::READ | FilePerms::WRITE,
                RuleEffect::Allow,
            ),
            rule(
                SubjectMatch::Any,
                "/dev/car/door*",
                FilePerms::WRITE,
                RuleEffect::Deny,
            ),
            rule(
                SubjectMatch::Uid(0),
                "/dev/car/door*",
                FilePerms::WRITE,
                RuleEffect::Allow,
            ),
        ];
        let set = StateRuleSet::build(rules.iter());
        let dfa = StateDfa::build(rules.iter(), rules.iter().map(|r| &r.object));
        let root = SubjectCtx {
            uid: 0,
            exe: None,
            profile: None,
        };
        let user = SubjectCtx {
            uid: 1000,
            exe: None,
            profile: None,
        };
        for subject in [&root, &user] {
            for path in ["/dev/car/door0", "/dev/car/audio", "/etc/passwd"] {
                for perms in [
                    FilePerms::READ,
                    FilePerms::WRITE,
                    FilePerms::READ | FilePerms::WRITE,
                ] {
                    assert_eq!(
                        dfa.decide(subject, path, perms).permitted,
                        set.permits(subject, path, perms),
                        "uid={} path={path} perms={perms}",
                        subject.uid
                    );
                }
            }
        }
        assert!(
            dfa.decide(&user, "/dev/car/audio", FilePerms::READ)
                .protected
        );
        assert!(!dfa.decide(&user, "/etc/passwd", FilePerms::READ).protected);
        assert_eq!(dfa.residual_rule_count(), 1);
    }

    #[test]
    fn markers_protect_paths_ruled_in_other_states() {
        // A glob from some other state's rules is protected here even
        // though this state has no rule for it.
        let here = [rule(
            SubjectMatch::Any,
            "/dev/car/audio",
            FilePerms::READ,
            RuleEffect::Allow,
        )];
        let elsewhere = glob("/dev/car/door*");
        let globs: Vec<&Glob> = here
            .iter()
            .map(|r| &r.object)
            .chain(std::iter::once(&elsewhere))
            .collect();
        let dfa = StateDfa::build(here.iter(), globs);
        let subject = SubjectCtx {
            uid: 1000,
            exe: None,
            profile: None,
        };
        let d = dfa.decide(&subject, "/dev/car/door0", FilePerms::READ);
        assert!(d.protected, "other-state glob must still be protected");
        assert!(!d.permitted, "no rule grants it in this state");
    }

    /// xorshift64*: the unit tests' source of random policies.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
        }

        fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.below(options.len())]
        }
    }

    /// A random policy that compiles: overlapping and duplicate globs,
    /// mixed effects and subjects, states granting overlapping permission
    /// sets, and some rules listed under two permissions.
    fn random_policy(rng: &mut Rng) -> SackPolicy {
        let n_states = 1 + rng.below(4);
        let n_perms = 1 + rng.below(4);
        let mut policy = SackPolicy {
            states: (0..n_states).map(|s| (format!("s{s}"), s as u32)).collect(),
            events: vec!["e".into()],
            transitions: (0..n_states)
                .map(|s| {
                    (
                        format!("s{s}"),
                        "e".into(),
                        format!("s{}", (s + 1) % n_states),
                    )
                })
                .collect(),
            initial: Some("s0".into()),
            permissions: (0..n_perms).map(|p| format!("P{p}")).collect(),
            ..SackPolicy::default()
        };
        if rng.below(2) == 0 {
            policy.state_per.push(("*".into(), vec!["P0".into()]));
        }
        for s in 0..n_states {
            let perms = (0..n_perms)
                .filter(|_| rng.below(2) == 0)
                .map(|p| format!("P{p}"))
                .collect();
            policy.state_per.push((format!("s{s}"), perms));
        }
        let mut line = 0;
        let mut all: Vec<RuleSpec> = Vec::new();
        for p in 0..n_perms {
            let mut rules = Vec::new();
            for _ in 0..rng.below(7) {
                line += 1;
                if !all.is_empty() && rng.below(5) == 0 {
                    rules.push(all[rng.below(all.len())].clone());
                    continue;
                }
                let depth = 1 + rng.below(3);
                let object: String = (0..depth)
                    .map(|_| {
                        let comp = rng.pick(&["a", "b", "door", "*", "**", "d?", "[0-3]", "{a,b}"]);
                        format!("/{comp}")
                    })
                    .collect();
                let subject = match rng.below(6) {
                    0 => SubjectSpec::Exe(rng.pick(&["/usr/bin/*", "/usr/bin/app"]).into()),
                    1 => SubjectSpec::Uid(rng.below(2) as u32 * 1000),
                    2 => SubjectSpec::Profile("p".into()),
                    _ => SubjectSpec::Any,
                };
                let spec = RuleSpec {
                    effect: if rng.below(3) == 0 {
                        RuleEffect::Deny
                    } else {
                        RuleEffect::Allow
                    },
                    subject,
                    object,
                    perms: rng.pick(&["r", "w", "rw", "wi", "rwaxmi"]).into(),
                    line,
                };
                all.push(spec.clone());
                rules.push(spec);
            }
            policy.per_rules.push((format!("P{p}"), rules));
        }
        policy
    }

    /// Every state's table relabelled from the policy's one rule index is
    /// the table a per-state determinization builds: that state's rules,
    /// subject-wildcard ones tagged for the fold, plus every glob of the
    /// policy as a protected-set marker.
    #[test]
    fn index_relabelling_equals_per_state_builds() {
        const MARKER: u32 = u32::MAX;
        let mut rng = Rng(0x5ac6_d1fa);
        for case in 0..200 {
            let policy = random_policy(&mut rng);
            let compiled = policy
                .compile()
                .unwrap_or_else(|e| panic!("{e:?}\n{policy}"));
            let n_perms = compiled.permissions().len();
            let all_globs: Vec<&Glob> = (0..n_perms)
                .flat_map(|p| compiled.rules_of(crate::rules::PermissionId(p)))
                .map(|rule| &rule.object)
                .collect();
            for s in 0..compiled.space().state_count() {
                let table = compiled.state_dfa(StateId(s));
                let mut builder = DfaBuilder::new();
                let mut folded: Vec<&MacRule> = Vec::new();
                let (mut scan_allow, mut scan_deny) = (Vec::new(), Vec::new());
                for &pid in compiled.permissions_of(StateId(s)) {
                    for rule in compiled.rules_of(pid) {
                        if matches!(rule.subject, SubjectMatch::Any) {
                            builder.add_glob(&rule.object, folded.len() as u32);
                            folded.push(rule);
                        } else if rule.effect == RuleEffect::Allow {
                            scan_allow.push(rule);
                        } else {
                            scan_deny.push(rule);
                        }
                    }
                }
                for glob in &all_globs {
                    builder.add_glob(glob, MARKER);
                }
                let direct = builder.build_with_alphabet(table.alphabet(), |tags| {
                    let mut annot = StateAnnot {
                        protected: !tags.is_empty(),
                        decision: RuleDecision::default(),
                    };
                    for &tag in tags.iter().filter(|&&t| t != MARKER) {
                        let rule = folded[tag as usize];
                        let side = match rule.effect {
                            RuleEffect::Allow => &mut annot.decision.allowed,
                            RuleEffect::Deny => &mut annot.decision.denied,
                        };
                        *side = side.union(rule.perms);
                    }
                    annot
                });
                let context = format!("case {case} state s{s}\n{policy}");
                assert_eq!(
                    format!("{:?}", table.dfa),
                    format!("{direct:?}"),
                    "table, accepts or start differ: {context}"
                );
                assert_eq!(table.stats(), direct.stats(), "{context}");
                let multiset = |rules: Vec<&MacRule>| {
                    let mut shown: Vec<String> = rules.iter().map(|r| format!("{r:?}")).collect();
                    shown.sort();
                    shown
                };
                assert_eq!(
                    multiset(table.scan_allow.iter().collect()),
                    multiset(scan_allow),
                    "{context}"
                );
                assert_eq!(
                    multiset(table.scan_deny.iter().collect()),
                    multiset(scan_deny),
                    "{context}"
                );
            }
        }
    }
}
