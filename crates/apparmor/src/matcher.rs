//! Compiled rule matching.
//!
//! A profile's rules compile into [`CompiledRules`]: one unified
//! [`crate::dfa::Dfa`] whose accepting states carry the pre-folded
//! [`RuleDecision`], so [`CompiledRules::evaluate_dfa`] answers in
//! O(|path|) regardless of rule count. The DFA is built before the profile
//! is installed, as `apparmor_parser` compiles a profile before the kernel
//! loads it; the hook only walks it.
//!
//! [`scan`] folds every matching rule of a rule list and is the oracle the
//! DFA is tested against. No hook calls it: tests and benches reach it
//! through `CompiledProfile::scan`, over the profile's own `path_rules`.
//!
//! The DFA sits behind an `Arc`: the `PolicyDb` hands every profile with
//! an identical rule body the same one, so each distinct body compiles
//! (and is resident) once.

use std::fmt;
use std::sync::Arc;

use crate::dfa::{Dfa, DfaBuilder, DfaStats};
use crate::profile::{FilePerms, PathRule};

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
    fn add(&mut self, rule: &PathRule) {
        if rule.deny {
            self.denied = self.denied.union(rule.perms);
        } else {
            self.allowed = self.allowed.union(rule.perms);
        }
    }
}

impl fmt::Display for RuleDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "allow={} deny={}", self.allowed, self.denied)
    }
}

/// Evaluates `path` by scanning every rule: the oracle the DFA walk is
/// tested against, and the ablation baseline.
pub fn scan(rules: &[PathRule], path: &str) -> RuleDecision {
    let mut decision = RuleDecision::default();
    for rule in rules.iter().filter(|rule| rule.glob.matches(path)) {
        decision.add(rule);
    }
    decision
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
            decision.add(&rules[tag as usize]);
        }
        decision
    })
}

/// A rule set's compiled DFA: all rules merged into one minimized
/// automaton whose accepting states carry the union `RuleDecision`
/// resolved at build time. Shared across profiles with identical rule
/// bodies.
pub struct CompiledRules {
    dfa: Arc<Dfa<RuleDecision>>,
}

impl CompiledRules {
    /// Compiles a rule list into its DFA.
    pub fn build(rules: &[PathRule]) -> CompiledRules {
        Self::from_dfa(Arc::new(build_dfa(rules)))
    }

    /// Wraps an already-built DFA — the dedup path, where `dfa` was
    /// compiled for an identical rule body.
    pub(crate) fn from_dfa(dfa: Arc<Dfa<RuleDecision>>) -> CompiledRules {
        CompiledRules { dfa }
    }

    /// The shared DFA — one per distinct rule body. Profiles with identical
    /// bodies return `Arc::ptr_eq` handles (the dedup pin).
    pub fn dfa_handle(&self) -> &Arc<Dfa<RuleDecision>> {
        &self.dfa
    }

    /// Evaluates `path` with a single walk of the unified DFA — O(|path|)
    /// independent of rule count. Produces the same decision as [`scan`]
    /// over the rules it was built from.
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
        let r = rules(&[("/etc/*", "r", false), ("/etc/app.conf", "w", false)]);
        let d = scan(&r, "/etc/app.conf");
        assert!(d.permits(FilePerms::READ | FilePerms::WRITE));
        assert!(!scan(&r, "/etc/other").permits(FilePerms::WRITE));
    }

    #[test]
    fn deny_overrides_allow() {
        let r = rules(&[("/dev/**", "rwi", false), ("/dev/car/door*", "wi", true)]);
        assert!(scan(&r, "/dev/audio").permits(FilePerms::WRITE));
        let d = scan(&r, "/dev/car/door0");
        assert!(!d.permits(FilePerms::WRITE));
        assert!(!d.permits(FilePerms::IOCTL));
        assert!(d.permits(FilePerms::READ), "read was not denied");
    }

    #[test]
    fn unmatched_path_permits_nothing() {
        let r = rules(&[("/a/*", "r", false)]);
        assert!(!scan(&r, "/b/x").permits(FilePerms::READ));
        assert!(scan(&r, "/b/x").permits(FilePerms::empty()));
    }

    /// The compiled DFA index and the rule scan decide identically.
    #[test]
    fn index_and_scan_agree() {
        let r = rules(&[
            ("/etc/*", "r", false),
            ("/dev/car/**", "rwi", false),
            ("/**", "r", false),
            ("/dev/car/door[0-3]", "i", true),
            ("/*", "w", false),
        ]);
        let c = CompiledRules::build(&r);
        for path in [
            "/etc/passwd",
            "/dev/car/door1",
            "/dev/car/window0",
            "/toplevel",
            "/a/b/c",
        ] {
            assert_eq!(scan(&r, path), c.evaluate_dfa(path), "path {path}");
        }
    }

    #[test]
    fn dfa_resolves_deny_at_build_time() {
        let r = rules(&[("/dev/**", "rwi", false), ("/dev/car/door*", "wi", true)]);
        let c = CompiledRules::build(&r);
        let d = c.evaluate_dfa("/dev/car/door0");
        assert_eq!(d, scan(&r, "/dev/car/door0"));
        assert!(!d.permits(FilePerms::WRITE));
        assert!(d.permits(FilePerms::READ));
        assert!(c.evaluate_dfa("/dev/audio").permits(FilePerms::WRITE));
        assert!(!c.evaluate_dfa("/sys/x").permits(FilePerms::READ));
        assert!(c.dfa_stats().states > 0);
    }

    #[test]
    fn wildcard_first_component_matches() {
        let r = rules(&[("/**", "r", false)]);
        assert!(scan(&r, "/any/where").permits(FilePerms::READ));
        assert!(CompiledRules::build(&r)
            .evaluate_dfa("/any/where")
            .permits(FilePerms::READ));
        // A wildcard inside the first component.
        let r = rules(&[("/de*/audio", "r", false)]);
        assert!(scan(&r, "/dev/audio").permits(FilePerms::READ));
        assert!(CompiledRules::build(&r)
            .evaluate_dfa("/dev/audio")
            .permits(FilePerms::READ));
    }

    #[test]
    fn empty_rule_set() {
        let c = CompiledRules::build(&[]);
        assert!(!scan(&[], "/x").permits(FilePerms::READ));
        assert!(!c.evaluate_dfa("/x").permits(FilePerms::READ));
    }

    #[test]
    fn shared_handle_dedups_across_rule_sets() {
        let body = rules(&[("/etc/*", "r", false)]);
        let dfa = Arc::new(build_dfa(&body));
        let a = CompiledRules::from_dfa(Arc::clone(&dfa));
        let b = CompiledRules::from_dfa(Arc::clone(&dfa));
        assert!(Arc::ptr_eq(a.dfa_handle(), b.dfa_handle()));
        assert_eq!(a.evaluate_dfa("/etc/passwd"), scan(&body, "/etc/passwd"));
        assert!(b.evaluate_dfa("/etc/passwd").permits(FilePerms::READ));
    }
}
