//! Compiled rule matching.
//!
//! A profile's rules compile into [`CompiledRules`]: the rule list plus
//! one unified [`crate::dfa::Dfa`] whose accepting states carry the
//! pre-folded [`RuleDecision`], so [`CompiledRules::evaluate_dfa`] answers
//! in O(|path|) regardless of rule count. The DFA is built before the
//! profile is installed, as `apparmor_parser` compiles a profile before
//! the kernel loads it; the hook only walks it.
//!
//! [`CompiledRules::evaluate`] scans every rule and is the one other
//! matcher: the differential-testing oracle the DFA must agree with, and
//! the path hooks take with `PolicyDb::set_dfa_matcher_enabled(false)`.
//!
//! The DFA sits behind an `Arc`: the `PolicyDb` hands every profile with
//! an identical rule body the same one, so each distinct body compiles
//! (and is resident) once.

use std::fmt;
use std::sync::Arc;

use crate::dfa::{Dfa, DfaBuilder, DfaStats};
use crate::profile::{FilePerms, PathRule};

/// One compiled rule.
#[derive(Debug, Clone)]
struct CompiledRule {
    glob: crate::glob::Glob,
    perms: FilePerms,
    deny: bool,
}

/// Outcome of evaluating rules for a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RuleDecision {
    /// Union of permissions from matching allow rules.
    pub allowed: FilePerms,
    /// Union of permissions from matching deny rules.
    pub denied: FilePerms,
}

impl RuleDecision {
    /// True if `requested` is fully granted: every requested permission is
    /// allowed by some rule and none is explicitly denied.
    pub fn permits(&self, requested: FilePerms) -> bool {
        self.allowed.difference(self.denied).contains(requested)
            && !self.denied.intersects(requested)
    }

    /// Folds one matching rule into the decision.
    fn add(&mut self, perms: FilePerms, deny: bool) {
        if deny {
            self.denied = self.denied.union(perms);
        } else {
            self.allowed = self.allowed.union(perms);
        }
    }
}

impl fmt::Display for RuleDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "allow={} deny={}", self.allowed, self.denied)
    }
}

/// Compiles `rules` into one unified, minimized DFA over the byte classes
/// of their own globs — the expensive half of a profile compile.
pub(crate) fn build_dfa(rules: &[PathRule]) -> Dfa<RuleDecision> {
    let mut builder = DfaBuilder::new();
    for (tag, rule) in rules.iter().enumerate() {
        builder.add_glob(&rule.glob, tag as u32);
    }
    builder.build(|tags| {
        let mut decision = RuleDecision::default();
        for &tag in tags {
            let rule = &rules[tag as usize];
            decision.add(rule.perms, rule.deny);
        }
        decision
    })
}

/// An immutable rule set with its compiled DFA.
pub struct CompiledRules {
    /// The rules in source order, for the scan oracle.
    rules: Vec<CompiledRule>,
    /// All rules merged into one minimized DFA; accepting states carry the
    /// union `RuleDecision` resolved at build time. Shared across profiles
    /// with identical rule bodies.
    dfa: Arc<Dfa<RuleDecision>>,
}

impl CompiledRules {
    /// Compiles a rule list into its DFA.
    pub fn build(rules: &[PathRule]) -> CompiledRules {
        Self::with_dfa(rules, Arc::new(build_dfa(rules)))
    }

    /// Wraps an already-built DFA — the dedup path, where `dfa` was
    /// compiled for an identical rule body. The caller guarantees `dfa`
    /// was built from exactly these rules.
    pub(crate) fn with_dfa(rules: &[PathRule], dfa: Arc<Dfa<RuleDecision>>) -> CompiledRules {
        let rules = rules
            .iter()
            .map(|rule| CompiledRule {
                glob: rule.glob.clone(),
                perms: rule.perms,
                deny: rule.deny,
            })
            .collect();
        CompiledRules { rules, dfa }
    }

    /// The shared DFA — one per distinct rule body. Profiles with identical
    /// bodies return `Arc::ptr_eq` handles (the dedup pin).
    pub fn dfa_handle(&self) -> &Arc<Dfa<RuleDecision>> {
        &self.dfa
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates `path` by scanning every rule — the oracle the DFA walk
    /// is tested against, and the ablation baseline.
    pub fn evaluate(&self, path: &str) -> RuleDecision {
        let mut decision = RuleDecision::default();
        for rule in &self.rules {
            if rule.glob.matches(path) {
                decision.add(rule.perms, rule.deny);
            }
        }
        decision
    }

    /// Evaluates `path` with a single walk of the unified DFA — O(|path|)
    /// independent of rule count. Produces the same decision as
    /// [`CompiledRules::evaluate`].
    pub fn evaluate_dfa(&self, path: &str) -> RuleDecision {
        *self.dfa.eval(path)
    }

    /// Size statistics of the compiled DFA, for diagnostics.
    pub fn dfa_stats(&self) -> DfaStats {
        self.dfa.stats()
    }
}

impl fmt::Debug for CompiledRules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledRules")
            .field("rules", &self.rules.len())
            .field("states", &self.dfa.state_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(specs: &[(&str, &str, bool)]) -> Vec<PathRule> {
        specs
            .iter()
            .map(|(pat, perms, deny)| {
                let perms = FilePerms::parse(perms).unwrap();
                if *deny {
                    PathRule::deny(pat, perms).unwrap()
                } else {
                    PathRule::allow(pat, perms).unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn allow_union_across_rules() {
        let c = CompiledRules::build(&rules(&[
            ("/etc/*", "r", false),
            ("/etc/app.conf", "w", false),
        ]));
        let d = c.evaluate("/etc/app.conf");
        assert!(d.permits(FilePerms::READ | FilePerms::WRITE));
        assert!(!c.evaluate("/etc/other").permits(FilePerms::WRITE));
    }

    #[test]
    fn deny_overrides_allow() {
        let c = CompiledRules::build(&rules(&[
            ("/dev/**", "rwi", false),
            ("/dev/car/door*", "wi", true),
        ]));
        assert!(c.evaluate("/dev/audio").permits(FilePerms::WRITE));
        let d = c.evaluate("/dev/car/door0");
        assert!(!d.permits(FilePerms::WRITE));
        assert!(!d.permits(FilePerms::IOCTL));
        assert!(d.permits(FilePerms::READ), "read was not denied");
    }

    #[test]
    fn unmatched_path_permits_nothing() {
        let c = CompiledRules::build(&rules(&[("/a/*", "r", false)]));
        assert!(!c.evaluate("/b/x").permits(FilePerms::READ));
        assert!(c.evaluate("/b/x").permits(FilePerms::empty()));
    }

    /// The compiled DFA index and the rule scan decide identically.
    #[test]
    fn index_and_scan_agree() {
        let c = CompiledRules::build(&rules(&[
            ("/etc/*", "r", false),
            ("/dev/car/**", "rwi", false),
            ("/**", "r", false),
            ("/dev/car/door[0-3]", "i", true),
            ("/*", "w", false),
        ]));
        for path in [
            "/etc/passwd",
            "/dev/car/door1",
            "/dev/car/window0",
            "/toplevel",
            "/a/b/c",
        ] {
            assert_eq!(c.evaluate(path), c.evaluate_dfa(path), "path {path}");
        }
    }

    #[test]
    fn dfa_resolves_deny_at_build_time() {
        let c = CompiledRules::build(&rules(&[
            ("/dev/**", "rwi", false),
            ("/dev/car/door*", "wi", true),
        ]));
        let d = c.evaluate_dfa("/dev/car/door0");
        assert_eq!(d, c.evaluate("/dev/car/door0"));
        assert!(!d.permits(FilePerms::WRITE));
        assert!(d.permits(FilePerms::READ));
        assert!(c.evaluate_dfa("/dev/audio").permits(FilePerms::WRITE));
        assert!(!c.evaluate_dfa("/sys/x").permits(FilePerms::READ));
        assert!(c.dfa_stats().states > 0);
    }

    #[test]
    fn wildcard_first_component_matches() {
        let c = CompiledRules::build(&rules(&[("/**", "r", false)]));
        assert_eq!(c.len(), 1);
        assert!(c.evaluate("/any/where").permits(FilePerms::READ));
        assert!(c.evaluate_dfa("/any/where").permits(FilePerms::READ));
        // A wildcard inside the first component.
        let c = CompiledRules::build(&rules(&[("/de*/audio", "r", false)]));
        assert!(c.evaluate("/dev/audio").permits(FilePerms::READ));
        assert!(c.evaluate_dfa("/dev/audio").permits(FilePerms::READ));
    }

    #[test]
    fn empty_rule_set() {
        let c = CompiledRules::build(&[]);
        assert!(c.is_empty());
        assert!(!c.evaluate("/x").permits(FilePerms::READ));
        assert!(!c.evaluate_dfa("/x").permits(FilePerms::READ));
    }

    #[test]
    fn shared_handle_dedups_across_rule_sets() {
        let body = rules(&[("/etc/*", "r", false)]);
        let dfa = Arc::new(build_dfa(&body));
        let a = CompiledRules::with_dfa(&body, Arc::clone(&dfa));
        let b = CompiledRules::with_dfa(&body, Arc::clone(&dfa));
        assert!(Arc::ptr_eq(a.dfa_handle(), b.dfa_handle()));
        assert_eq!(a.evaluate_dfa("/etc/passwd"), b.evaluate("/etc/passwd"));
        assert!(b.evaluate_dfa("/etc/passwd").permits(FilePerms::READ));
    }
}
