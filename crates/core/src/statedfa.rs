//! Per-state unified DFA decision tables.
//!
//! `SackPolicy::compile` builds one [`StateDfa`] per situation state: every
//! object glob of the state's granted permissions is merged into a single
//! minimized DFA (the [`sack_apparmor::dfa`] builder), with accepting
//! states annotated at build time by the union [`RuleDecision`] of the
//! matching subject-wildcard rules *and* a protected-set marker covering
//! every object glob in the whole policy. One O(|path|) table walk per
//! mediated hook therefore answers both questions the hook asks —
//! "is this path SACK-protected at all?" and "what do this state's rules
//! say?" — independent of rule count.
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

/// Tag for protected-set marker globs (never a rule index).
const MARKER: u32 = u32::MAX;

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
        Self::build_inner(rules, all_globs, None)
    }

    /// [`StateDfa::build`] against a shared byte-class alphabet. Since
    /// every state's marker set spans the whole policy's object globs, one
    /// alphabet built from those globs fits all states exactly;
    /// `SackPolicy::compile` builds it once and shares the table.
    pub fn build_with_alphabet<'a>(
        rules: impl IntoIterator<Item = &'a MacRule>,
        all_globs: impl IntoIterator<Item = &'a Glob>,
        alphabet: &Arc<Alphabet>,
    ) -> StateDfa {
        Self::build_inner(rules, all_globs, Some(alphabet))
    }

    fn build_inner<'a>(
        rules: impl IntoIterator<Item = &'a MacRule>,
        all_globs: impl IntoIterator<Item = &'a Glob>,
        alphabet: Option<&Arc<Alphabet>>,
    ) -> StateDfa {
        let mut builder = DfaBuilder::new();
        let mut folded: Vec<&MacRule> = Vec::new();
        let mut scan_allow = Vec::new();
        let mut scan_deny = Vec::new();
        for rule in rules {
            if matches!(rule.subject, SubjectMatch::Any) {
                builder.add_glob(&rule.object, folded.len() as u32);
                folded.push(rule);
            } else {
                match rule.effect {
                    RuleEffect::Allow => scan_allow.push(rule.clone()),
                    RuleEffect::Deny => scan_deny.push(rule.clone()),
                }
            }
        }
        for glob in all_globs {
            builder.add_glob(glob, MARKER);
        }
        let shared;
        let alphabet = match alphabet {
            Some(alphabet) => alphabet,
            None => {
                shared = Arc::new(builder.alphabet());
                &shared
            }
        };
        let dfa = builder.build_with_alphabet(alphabet, |tags| {
            let mut annot = StateAnnot {
                protected: !tags.is_empty(),
                decision: RuleDecision::default(),
            };
            for &tag in tags {
                if tag == MARKER {
                    continue;
                }
                let rule = folded[tag as usize];
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
    use crate::rules::StateRuleSet;

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
}
