//! Property-based tests on the core data structures and invariants: glob
//! matching vs a reference implementation, path normalization, the
//! permission algebra, the SSM, the rule index, and the policy pipeline's
//! robustness to arbitrary input.
//!
//! Runs on the in-repo deterministic harness (`sack_suite::prop`) instead
//! of `proptest`: the build environment is offline, and a fixed seed
//! sequence keeps failures reproducible by case index.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sack_suite::prop::{self, Rng};

use sack_apparmor::glob::Glob;
use sack_apparmor::profile::{FilePerms, PathRule, Profile};
use sack_apparmor::{AppArmor, CompiledRules, DfaBuilder, PolicyDb};
use sack_core::policy::{
    check_policy, render_rule, IssueKind, IssueSeverity, RuleSpec, SubjectSpec,
};
use sack_core::rules::{MacRule, ProtectedSet, StateRuleSet, SubjectCtx};
use sack_core::situation::StateSpace;
use sack_core::ssm::{Ssm, TransitionRule};
use sack_core::{
    AccessQuery, PolicySimulator, RuleEffect, Sack, SackPolicy, StateDfa, SubjectMatch,
};
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::Pid;
use sack_vehicle::{VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY, VEHICLE_SACK_POLICY};

// ---------------------------------------------------------------------
// Reference glob matcher: simple recursive implementation with the same
// semantics (`*` not crossing `/`, `**` crossing, `?` single non-`/`).
// ---------------------------------------------------------------------

fn ref_match(pat: &[u8], text: &[u8]) -> bool {
    match pat.first() {
        None => text.is_empty(),
        Some(b'*') => {
            if pat.get(1) == Some(&b'*') {
                // `**`
                (0..=text.len()).any(|i| ref_match(&pat[2..], &text[i..]))
            } else {
                (0..=text.len())
                    .take_while(|&i| i == 0 || text[i - 1] != b'/')
                    .any(|i| ref_match(&pat[1..], &text[i..]))
            }
        }
        Some(b'?') => !text.is_empty() && text[0] != b'/' && ref_match(&pat[1..], &text[1..]),
        Some(&c) => !text.is_empty() && text[0] == c && ref_match(&pat[1..], &text[1..]),
    }
}

/// Pattern fragments made only of literals and wildcards (no classes or
/// braces, which the reference matcher doesn't implement).
// The derefs on `rng.pick` are required: without them inference unifies
// `T` with `str` and the call fails to compile, so clippy's auto-deref
// suggestion is a false positive here.
#[allow(clippy::explicit_auto_deref)]
fn simple_pattern(rng: &mut Rng) -> String {
    let n = rng.range(1, 8);
    let mut out = String::from("/");
    for _ in 0..n {
        match *rng.pick_weighted(&[(3, 0u8), (2, 1), (2, 2), (1, 3), (1, 4)]) {
            0 => out.push_str(*rng.pick(&["a", "b", "dir", "x1"])),
            1 => out.push('/'),
            2 => out.push('*'),
            3 => out.push_str("**"),
            _ => out.push('?'),
        }
    }
    out
}

/// Richer patterns for index-vs-scan equivalence: adds character classes
/// and brace alternations, which the rule index must also bucket correctly.
#[allow(clippy::explicit_auto_deref)] // same inference false positive
fn rich_pattern(rng: &mut Rng) -> String {
    let n = rng.range(1, 8);
    let mut out = String::from("/");
    for _ in 0..n {
        match *rng.pick_weighted(&[(3, 0u8), (2, 1), (2, 2), (1, 3), (1, 4), (1, 5), (1, 6)]) {
            0 => out.push_str(*rng.pick(&["a", "b", "dir", "x1", "door"])),
            1 => out.push('/'),
            2 => out.push('*'),
            3 => out.push_str("**"),
            4 => out.push('?'),
            5 => out.push_str(*rng.pick(&["[ab]", "[0-3]", "[!q]"])),
            _ => out.push_str(*rng.pick(&["{a,b}", "{dir,door}"])),
        }
    }
    out
}

fn path_under_test(rng: &mut Rng) -> String {
    let n = rng.range(1, 6);
    let comps: Vec<&str> = (0..n)
        .map(|_| *rng.pick(&["a", "b", "ab", "dir", "x1", "q"]))
        .collect();
    format!("/{}", comps.join("/"))
}

fn rich_path(rng: &mut Rng) -> String {
    let n = rng.range(1, 6);
    let comps: Vec<&str> = (0..n)
        .map(|_| *rng.pick(&["a", "b", "ab", "dir", "x1", "q", "door", "door0", "door3"]))
        .collect();
    format!("/{}", comps.join("/"))
}

fn perms_from_bits(bits: u8) -> FilePerms {
    let mut perms = FilePerms::empty();
    for (i, p) in [
        FilePerms::READ,
        FilePerms::WRITE,
        FilePerms::APPEND,
        FilePerms::EXEC,
        FilePerms::MMAP,
        FilePerms::IOCTL,
    ]
    .into_iter()
    .enumerate()
    {
        if bits & (1 << i) != 0 {
            perms = perms.union(p);
        }
    }
    perms
}

#[test]
fn glob_matches_reference_semantics() {
    prop::check(|rng| {
        let pat = simple_pattern(rng);
        let path = path_under_test(rng);
        if let Ok(glob) = Glob::compile(&pat) {
            let expected = ref_match(pat.as_bytes(), path.as_bytes());
            assert_eq!(
                glob.matches(&path),
                expected,
                "pattern `{pat}` vs path `{path}`"
            );
        }
    });
}

#[test]
fn glob_literal_prefix_never_causes_false_negatives() {
    prop::check(|rng| {
        let pat = simple_pattern(rng);
        let path = path_under_test(rng);
        if let Ok(glob) = Glob::compile(&pat) {
            if ref_match(pat.as_bytes(), path.as_bytes()) {
                assert!(glob.matches(&path), "pattern `{pat}` vs path `{path}`");
            }
        }
    });
}

#[test]
fn glob_compile_never_panics() {
    prop::check(|rng| {
        let _ = Glob::compile(&rng.soup(40));
    });
}

#[test]
fn kpath_normalization_is_idempotent() {
    prop::check(|rng| {
        // Shape: (/[a-z.]{0,6}){0,6}/?
        let mut raw = String::new();
        for _ in 0..rng.below(7) {
            raw.push('/');
            for _ in 0..rng.below(7) {
                raw.push(*rng.pick(&['a', 'b', 'c', 'z', '.']));
            }
        }
        if rng.bool() {
            raw.push('/');
        }
        if let Ok(p) = KPath::new(&raw) {
            let again = KPath::new(p.as_str()).unwrap();
            assert_eq!(p.as_str(), again.as_str());
            // Invariants: absolute, no empty/dot components.
            assert!(p.as_str().starts_with('/'));
            for comp in p.components() {
                assert!(!comp.is_empty());
                assert!(comp != "." && comp != "..");
            }
        }
    });
}

#[test]
fn kpath_parent_join_roundtrip() {
    prop::check(|rng| {
        // Shape: (/[a-z]{1,5}){1,5}
        let mut raw = String::new();
        for _ in 0..rng.range(1, 6) {
            raw.push('/');
            for _ in 0..rng.range(1, 6) {
                raw.push((b'a' + rng.below(26) as u8) as char);
            }
        }
        let p = KPath::new(&raw).unwrap();
        if let (Some(parent), Some(name)) = (p.parent(), p.file_name()) {
            assert_eq!(parent.join(name).unwrap(), p);
        }
    });
}

#[test]
fn file_perms_parse_display_roundtrip() {
    prop::check(|rng| {
        let perms = perms_from_bits(rng.below(64) as u8);
        if perms.is_empty() {
            assert_eq!(perms.to_string(), "-");
        } else {
            let reparsed = FilePerms::parse(&perms.to_string()).unwrap();
            assert_eq!(reparsed, perms);
        }
    });
}

#[test]
fn file_perms_algebra() {
    prop::check(|rng| {
        let pa = perms_from_bits(rng.below(64) as u8);
        let pb = perms_from_bits(rng.below(64) as u8);
        let union = pa.union(pb);
        assert!(union.contains(pa) && union.contains(pb));
        let diff = pa.difference(pb);
        assert!(!diff.intersects(pb));
        assert!(pa.contains(diff));
        // union covers diff(pa,pb) ∪ pb — sanity via contains:
        assert!(union.contains(diff.union(pb)));
    });
}

/// Tentpole differential: the three `CompiledRules` evaluation strategies —
/// `evaluate` (first-component buckets), `evaluate_scan` (naive
/// scan-everything baseline), and `evaluate_dfa` (unified minimized DFA
/// with build-time-resolved decisions) — must return identical
/// `RuleDecision`s for every generated rule set, including classes and
/// brace alternations, and for several probe paths per set.
#[test]
fn compiled_rules_dfa_index_and_scan_agree() {
    prop::check(|rng| {
        let n_rules = rng.below(13);
        let rules: Vec<PathRule> = (0..n_rules)
            .filter_map(|_| {
                let pat = rich_pattern(rng);
                let perms = {
                    let p = perms_from_bits(rng.range(1, 64) as u8);
                    if p.is_empty() {
                        FilePerms::READ
                    } else {
                        p
                    }
                };
                if rng.bool() {
                    PathRule::deny(&pat, perms).ok()
                } else {
                    PathRule::allow(&pat, perms).ok()
                }
            })
            .collect();
        let compiled = CompiledRules::build(&rules);
        for _ in 0..4 {
            let path = rich_path(rng);
            let scan = compiled.evaluate_scan(&path);
            assert_eq!(
                compiled.evaluate(&path),
                scan,
                "rule index diverged from scan on `{path}` over {rules:?}"
            );
            assert_eq!(
                compiled.evaluate_dfa(&path),
                scan,
                "DFA matcher diverged from scan on `{path}` over {rules:?}"
            );
        }
    });
}

/// The unified per-state table must reproduce the legacy cold path bit for
/// bit: one `StateDfa::decide` walk equals `ProtectedSet::contains` plus
/// `StateRuleSet::permits` for arbitrary rule sets (mixed effects, mixed
/// subject selectors — subject-scoped rules land in the residual scan
/// lists) and arbitrary subjects, paths and requested permissions.
#[test]
fn state_dfa_walk_agrees_with_protected_set_and_rule_scan() {
    prop::check(|rng| {
        let n_rules = rng.below(12);
        let rules: Vec<MacRule> = (0..n_rules)
            .filter_map(|_| {
                let object = Glob::compile(&rich_pattern(rng)).ok()?;
                let subject = match *rng.pick_weighted(&[(4, 0u8), (1, 1), (1, 2)]) {
                    0 => SubjectMatch::Any,
                    1 => SubjectMatch::Uid(if rng.bool() { 0 } else { 1000 }),
                    _ => SubjectMatch::ExeGlob(Glob::compile("/usr/bin/*").unwrap()),
                };
                Some(MacRule {
                    subject,
                    object,
                    perms: perms_from_bits(rng.range(1, 64) as u8),
                    effect: if rng.bool() {
                        RuleEffect::Allow
                    } else {
                        RuleEffect::Deny
                    },
                })
            })
            .collect();
        let set = StateRuleSet::build(rules.iter());
        let protected = ProtectedSet::build(rules.iter().map(|r| &r.object));
        let dfa = StateDfa::build(rules.iter(), rules.iter().map(|r| &r.object));
        let subjects = [
            SubjectCtx {
                uid: 0,
                exe: None,
                profile: None,
            },
            SubjectCtx {
                uid: 1000,
                exe: Some("/usr/bin/app"),
                profile: None,
            },
            SubjectCtx {
                uid: 1000,
                exe: Some("/sbin/init"),
                profile: None,
            },
        ];
        for _ in 0..4 {
            let path = rich_path(rng);
            let requested = perms_from_bits(rng.range(1, 64) as u8);
            for subject in &subjects {
                let decision = dfa.decide(subject, &path, requested);
                assert_eq!(
                    decision.protected,
                    protected.contains(&path),
                    "protected-set membership diverged on `{path}` over {rules:?}"
                );
                assert_eq!(
                    decision.permitted,
                    set.permits(subject, &path, requested),
                    "uid={} exe={:?} path=`{path}` perms={requested} over {rules:?}",
                    subject.uid,
                    subject.exe
                );
            }
        }
    });
}

/// The policy linter's coverage/overlap analysis reads language facts off
/// the merged DFA's tag sets (`dfa.annotations()`): glob `a` covers glob
/// `b` iff every annotation containing `b`'s tag also contains `a`'s, and
/// the two overlap iff some annotation contains both. Those set questions
/// must agree with the pairwise NFA product procedures (`Glob::covers`,
/// `Glob::overlaps`) they replaced in the O(rules) lint loop.
#[test]
fn dfa_tag_sets_agree_with_nfa_cover_and_overlap() {
    prop::check(|rng| {
        let pat_a = simple_pattern(rng);
        let pat_b = simple_pattern(rng);
        let (Ok(glob_a), Ok(glob_b)) = (Glob::compile(&pat_a), Glob::compile(&pat_b)) else {
            return;
        };
        let mut builder = DfaBuilder::new();
        builder.add_glob(&glob_a, 0);
        builder.add_glob(&glob_b, 1);
        let dfa = builder.build(|tags| tags.to_vec());
        let (mut a_covers_b, mut b_covers_a, mut overlap) = (true, true, false);
        for tags in dfa.annotations() {
            let (has_a, has_b) = (tags.contains(&0), tags.contains(&1));
            a_covers_b &= !has_b || has_a;
            b_covers_a &= !has_a || has_b;
            overlap |= has_a && has_b;
        }
        assert_eq!(
            a_covers_b,
            glob_a.covers(&glob_b),
            "covers(`{pat_a}`, `{pat_b}`)"
        );
        assert_eq!(
            b_covers_a,
            glob_b.covers(&glob_a),
            "covers(`{pat_b}`, `{pat_a}`)"
        );
        assert_eq!(
            overlap,
            glob_a.overlaps(&glob_b),
            "overlaps(`{pat_a}`, `{pat_b}`)"
        );
    });
}

/// A random policy the checker accepts, shaped for the rule lints:
/// several permissions and states, overlapping and duplicate globs, mixed
/// effects and subjects, and rules listed under two permissions.
fn lint_policy(rng: &mut Rng) -> SackPolicy {
    let n_states = rng.range(1, 4);
    let n_perms = rng.range(1, 4);
    let mut policy = SackPolicy {
        states: (0..n_states).map(|s| (format!("s{s}"), s as u32)).collect(),
        initial: Some("s0".into()),
        permissions: (0..n_perms).map(|p| format!("P{p}")).collect(),
        ..SackPolicy::default()
    };
    for s in 0..n_states {
        let perms = (0..n_perms)
            .filter(|_| rng.bool())
            .map(|p| format!("P{p}"))
            .collect();
        policy.state_per.push((format!("s{s}"), perms));
    }
    let mut all: Vec<RuleSpec> = Vec::new();
    for p in 0..n_perms {
        let mut rules = Vec::new();
        for _ in 0..rng.below(7) {
            if !all.is_empty() && rng.below(4) == 0 {
                // The same rule again, in this block or another one.
                rules.push(all[rng.below(all.len())].clone());
                continue;
            }
            let subject = match *rng.pick_weighted(&[(4, 0u8), (1, 1), (1, 2), (1, 3), (1, 4)]) {
                0 => SubjectSpec::Any,
                1 => SubjectSpec::Exe("/usr/bin/*".into()),
                2 => SubjectSpec::Exe("/usr/bin/app".into()),
                3 => SubjectSpec::Uid(if rng.bool() { 0 } else { 1000 }),
                _ => SubjectSpec::Profile("p".into()),
            };
            let spec = RuleSpec {
                effect: if rng.bool() {
                    RuleEffect::Allow
                } else {
                    RuleEffect::Deny
                },
                subject,
                object: simple_pattern(rng),
                perms: (*rng.pick(&["r", "w", "rw", "wi", "rwi"])).into(),
                line: all.len() + 1,
            };
            all.push(spec.clone());
            rules.push(spec);
        }
        policy.per_rules.push((format!("P{p}"), rules));
    }
    policy
}

/// The pairwise lint definitions, on the NFA procedures
/// (`Glob::covers`, `Glob::overlaps`) instead of the checker's rule index.
fn reference_rule_lints(policy: &SackPolicy) -> Vec<String> {
    let glob = |spec: &RuleSpec| Glob::compile(&spec.object).unwrap();
    let perms = |spec: &RuleSpec| FilePerms::parse(&spec.perms).unwrap();
    let subject_covers = |a: &SubjectSpec, b: &SubjectSpec| match (a, b) {
        (SubjectSpec::Any, _) => true,
        (SubjectSpec::Exe(a), SubjectSpec::Exe(b)) => {
            Glob::compile(a).unwrap().covers(&Glob::compile(b).unwrap())
        }
        _ => a == b,
    };
    let subjects_overlap = |a: &SubjectSpec, b: &SubjectSpec| match (a, b) {
        (SubjectSpec::Any, _) | (_, SubjectSpec::Any) => true,
        (SubjectSpec::Exe(a), SubjectSpec::Exe(b)) => Glob::compile(a)
            .unwrap()
            .overlaps(&Glob::compile(b).unwrap()),
        (SubjectSpec::Uid(_), SubjectSpec::Uid(_))
        | (SubjectSpec::Profile(_), SubjectSpec::Profile(_)) => a == b,
        _ => true,
    };
    let mut out = Vec::new();
    for (perm, rules) in &policy.per_rules {
        for (ri, later) in rules.iter().enumerate() {
            let shadower = rules[..ri].iter().find(|earlier| {
                glob(earlier).covers(&glob(later))
                    && earlier.effect == later.effect
                    && subject_covers(&earlier.subject, &later.subject)
                    && perms(earlier).contains(perms(later))
            });
            if let Some(earlier) = shadower {
                out.push(format!(
                    "permission `{perm}`: rule `{}` (line {}) is shadowed by broader rule `{}` (line {})",
                    render_rule(later),
                    later.line,
                    render_rule(earlier),
                    earlier.line
                ));
            }
        }
    }
    let granted = |perm: &str| -> Vec<&str> {
        let mut states = Vec::new();
        for (state, perms) in &policy.state_per {
            if perms.iter().any(|p| p == perm) {
                states.push(state.as_str());
            }
        }
        states
    };
    let all: Vec<(&str, &RuleSpec)> = policy
        .per_rules
        .iter()
        .flat_map(|(perm, rules)| rules.iter().map(move |r| (perm.as_str(), r)))
        .collect();
    for (i, &(perm_a, a)) in all.iter().enumerate() {
        for &(perm_b, b) in &all[i + 1..] {
            let exact = a.subject == b.subject && a.object == b.object && a.perms == b.perms;
            let coactive =
                perm_a == perm_b || granted(perm_a).iter().any(|s| granted(perm_b).contains(s));
            if a.effect != b.effect
                && !exact
                && coactive
                && glob(a).overlaps(&glob(b))
                && perms(a).intersects(perms(b))
                && subjects_overlap(&a.subject, &b.subject)
            {
                let ((allow_perm, allow), (deny_perm, deny)) = match a.effect {
                    RuleEffect::Allow => ((perm_a, a), (perm_b, b)),
                    RuleEffect::Deny => ((perm_b, b), (perm_a, a)),
                };
                out.push(format!(
                    "allow rule `{}` (permission `{allow_perm}`, line {}) overlaps deny rule `{}` \
                     (permission `{deny_perm}`, line {}): the deny wins wherever both match",
                    render_rule(allow),
                    allow.line,
                    render_rule(deny),
                    deny.line
                ));
            }
        }
    }
    out
}

/// The checker reads shadowing and allow/deny overlap off one tagged
/// automaton over every rule of the policy. Its `ShadowedRule` and
/// `AllowDenyOverlap` warnings must be exactly, and in the same order, what
/// the pairwise definitions give: same effect, covering subject and glob,
/// and permissions for a shadow; opposite effects, overlapping globs and
/// subjects, shared permissions and a state granting both for an overlap.
#[test]
fn rule_lints_equal_pairwise_reference() {
    prop::check(|rng| {
        let policy = lint_policy(rng);
        let lints: Vec<String> = check_policy(&policy)
            .into_iter()
            .inspect(|issue| assert_ne!(issue.severity, IssueSeverity::Error, "{issue}"))
            .filter(|issue| {
                matches!(
                    issue.kind,
                    IssueKind::ShadowedRule | IssueKind::AllowDenyOverlap
                )
            })
            .map(|issue| issue.message)
            .collect();
        assert_eq!(lints, reference_rule_lints(&policy), "{policy}");
    });
}

#[test]
fn protected_set_equals_naive_union() {
    prop::check(|rng| {
        let n = rng.below(10);
        // Duplicate-heavy: about half the globs repeat an earlier one, which
        // the set's dedup must drop without losing membership.
        let mut globs: Vec<Glob> = Vec::new();
        for _ in 0..n {
            if !globs.is_empty() && rng.bool() {
                globs.push(globs[rng.below(globs.len())].clone());
            } else if let Ok(glob) = Glob::compile(&simple_pattern(rng)) {
                globs.push(glob);
            }
        }
        let path = path_under_test(rng);
        let set = ProtectedSet::build(globs.iter());
        let naive = globs.iter().any(|g| g.matches(&path));
        assert_eq!(set.contains(&path), naive);
    });
}

#[test]
fn ssm_random_walk_stays_consistent() {
    prop::check(|rng| {
        let n_states = rng.range(2, 8);
        let mut space = StateSpace::new();
        for i in 0..n_states {
            space.add_state(&format!("s{i}"), i as u32).unwrap();
        }
        for e in 0..5 {
            space.add_event(&format!("e{e}")).unwrap();
        }
        // Deduplicate rules by (from, event), keeping the first target.
        let mut seen = std::collections::HashSet::new();
        let rules: Vec<TransitionRule> = (0..rng.below(20))
            .filter_map(|_| {
                let from = sack_core::StateId(rng.below(8) % n_states);
                let event = sack_core::EventId(rng.below(5));
                let to = sack_core::StateId(rng.below(8) % n_states);
                seen.insert((from, event))
                    .then_some(TransitionRule { from, event, to })
            })
            .collect();
        let ssm = Ssm::new(space, &rules, sack_core::StateId(0)).unwrap();

        let mut expected = sack_core::StateId(0);
        for _ in 0..rng.below(50) {
            let event = sack_core::EventId(rng.below(5));
            let outcome = ssm.deliver(event, std::time::Duration::ZERO);
            // Recompute what should have happened from the rule list.
            let target = rules
                .iter()
                .find(|r| r.from == expected && r.event == event)
                .map(|r| r.to);
            match (outcome.transitioned(), target) {
                (true, Some(t)) => expected = t,
                (false, None) => {}
                (got, want) => panic!("outcome {got:?} vs rule {want:?}"),
            }
            assert_eq!(ssm.current(), expected);
        }
        assert_eq!(ssm.history().len() as u64, ssm.taken_count());
    });
}

#[test]
fn policy_parser_never_panics() {
    prop::check(|rng| {
        let _ = SackPolicy::parse(&rng.soup(200));
    });
}

#[test]
fn profile_parser_never_panics() {
    prop::check(|rng| {
        let _ = sack_apparmor::parse_profiles(&rng.soup(200));
    });
}

#[test]
fn profile_parser_never_panics_on_structured_soup() {
    prop::check(|rng| {
        let n = rng.below(30);
        let parts: Vec<&str> = (0..n)
            .map(|_| {
                *rng.pick(&[
                    "profile",
                    "p",
                    "{",
                    "}",
                    ",",
                    "/a/*",
                    "rw",
                    "deny",
                    "capability",
                    "network",
                    "unix",
                    "flags=(complain)",
                ])
            })
            .collect();
        let text = parts.join(" ");
        if let Ok(profiles) = sack_apparmor::parse_profiles(&text) {
            // Anything that parses must also render and re-parse.
            for p in profiles {
                let rendered = p.to_string();
                assert!(
                    sack_apparmor::parse_profiles(&rendered).is_ok(),
                    "{rendered}"
                );
            }
        }
    });
}

#[test]
fn policy_display_roundtrips_for_valid_asts() {
    prop::check(|rng| {
        let n_states = rng.range(1, 5);
        let n_perms = rng.range(1, 4);
        // Build a small synthetic AST directly and round-trip it.
        let mut ast = SackPolicy::default();
        for i in 0..n_states {
            ast.states.push((format!("st{i}"), i as u32));
        }
        ast.events.push("go".to_string());
        if n_states > 1 {
            ast.transitions
                .push(("st0".into(), "go".into(), "st1".into()));
        }
        ast.initial = Some("st0".to_string());
        for p in 0..n_perms {
            ast.permissions.push(format!("PERM{p}"));
        }
        ast.state_per
            .push(("st0".to_string(), ast.permissions.clone()));
        ast.per_rules.push((
            "PERM0".to_string(),
            vec![sack_core::policy::RuleSpec {
                effect: sack_core::RuleEffect::Allow,
                subject: sack_core::policy::SubjectSpec::Any,
                object: "/x/**".to_string(),
                perms: "rw".to_string(),
                line: 0,
            }],
        ));
        let rendered = ast.to_string();
        let mut reparsed = SackPolicy::parse(&rendered).unwrap();
        // Line numbers are positional metadata, not semantics.
        for (_, rules) in &mut reparsed.per_rules {
            for r in rules {
                r.line = 0;
            }
        }
        assert_eq!(ast, reparsed);
    });
}

#[test]
fn policy_pipeline_never_panics_on_parsed_input() {
    prop::check(|rng| {
        // Shape: (states { <id> = <d>; } )?(initial <id>;)?
        let mut text = String::new();
        if rng.bool() {
            let mut name = String::new();
            for _ in 0..rng.range(1, 5) {
                name.push((b'a' + rng.below(26) as u8) as char);
            }
            text.push_str(&format!("states {{ {name} = {}; }} ", rng.below(10)));
        }
        if rng.bool() {
            let mut name = String::new();
            for _ in 0..rng.range(1, 5) {
                name.push((b'a' + rng.below(26) as u8) as char);
            }
            text.push_str(&format!("initial {name};"));
        }
        if let Ok(ast) = SackPolicy::parse(&text) {
            // compile() must either succeed or return issues, never panic.
            let _ = ast.compile();
        }
    });
}

#[test]
fn trace_csv_roundtrips() {
    prop::check(|rng| {
        use sack_sds::sensors::SensorFrame;
        let n = rng.below(20);
        let mut t_acc = 0u64;
        let trace: Vec<SensorFrame> = (0..n)
            .map(|_| {
                t_acc += rng.below(1_000_000) as u64; // non-decreasing timestamps
                SensorFrame {
                    t: std::time::Duration::from_millis(t_acc),
                    speed_kmh: rng.f64(0.0, 300.0),
                    accel_g: rng.f64(0.0, 50.0),
                    gps: (rng.f64(-90.0, 90.0), rng.f64(-180.0, 180.0)),
                    driver_present: rng.bool(),
                    airbag_deployed: rng.bool(),
                    ignition_on: rng.bool(),
                }
            })
            .collect();
        let csv = sack_sds::tracefile::to_csv(&trace);
        let parsed = sack_sds::tracefile::from_csv(&csv).unwrap();
        assert_eq!(parsed, trace);
    });
}

/// Probe paths biased toward the vehicle bundles' namespace (`/dev/car`,
/// `/dev/can0`, `/usr/bin`, `/tmp`) plus generic noise paths.
#[allow(clippy::explicit_auto_deref)] // same inference false positive
fn vehicle_path(rng: &mut Rng) -> String {
    if rng.bool() {
        (*rng.pick(&[
            "/dev/car/door0",
            "/dev/car/door3",
            "/dev/car/window0",
            "/dev/car/audio",
            "/dev/car/engine/rpm",
            "/dev/can0",
            "/dev/can1",
            "/usr/bin/media_app",
            "/usr/bin/rescue_daemon",
            "/usr/lib/libc.so",
            "/tmp/scratch",
            "/etc/passwd",
        ]))
        .to_string()
    } else {
        rich_path(rng)
    }
}

/// Acceptance sweep over the shipped vehicle bundles: in every situation
/// state of `VEHICLE_SACK_POLICY` and `VEHICLE_ENHANCED_POLICY`, the
/// published `StateDfa` table must agree with the legacy protected-set +
/// rule-scan pipeline for randomized subjects, paths, and permissions.
#[test]
fn vehicle_bundle_state_dfas_agree_with_scan() {
    for text in [VEHICLE_SACK_POLICY, VEHICLE_ENHANCED_POLICY] {
        let compiled = SackPolicy::parse(text).unwrap().compile().unwrap();
        prop::check(|rng| {
            let path = vehicle_path(rng);
            let requested = perms_from_bits(rng.range(1, 64) as u8);
            let subject = SubjectCtx {
                uid: if rng.bool() { 0 } else { 1000 },
                exe: *rng.pick(&[
                    None,
                    Some("/usr/bin/media_app"),
                    Some("/usr/bin/rescue_daemon"),
                ]),
                profile: *rng.pick(&[None, Some("media_app"), Some("rescue_daemon")]),
            };
            for index in 0..compiled.space().state_count() {
                let state = sack_core::StateId(index);
                let decision = compiled.state_dfa(state).decide(&subject, &path, requested);
                assert_eq!(
                    decision.protected,
                    compiled.protected().contains(&path),
                    "protected-set membership diverged on `{path}`"
                );
                assert_eq!(
                    decision.permitted,
                    compiled
                        .state_rules(state)
                        .permits(&subject, &path, requested),
                    "state {index} diverged on `{path}` perms={requested} exe={:?} profile={:?}",
                    subject.exe,
                    subject.profile
                );
            }
        });
    }
}

/// The same three-way agreement over the shipped AppArmor bundle: every
/// profile's compiled rule set must label paths identically through the
/// bucketed index, the naive scan, and the DFA matcher.
#[test]
fn vehicle_profiles_dfa_index_and_scan_agree() {
    let profiles = sack_apparmor::parse_profiles(VEHICLE_APPARMOR_PROFILES).unwrap();
    assert!(!profiles.is_empty());
    for profile in &profiles {
        let compiled = CompiledRules::build(&profile.path_rules);
        prop::check(|rng| {
            let path = vehicle_path(rng);
            let scan = compiled.evaluate_scan(&path);
            assert_eq!(
                compiled.evaluate(&path),
                scan,
                "profile {} index diverged on `{path}`",
                profile.name
            );
            assert_eq!(
                compiled.evaluate_dfa(&path),
                scan,
                "profile {} DFA diverged on `{path}`",
                profile.name
            );
        });
    }
}

/// A random [`PathRule`] over the rich pattern vocabulary.
fn random_path_rule(rng: &mut Rng) -> Option<PathRule> {
    let pat = rich_pattern(rng);
    let perms = {
        let p = perms_from_bits(rng.range(1, 64) as u8);
        if p.is_empty() {
            FilePerms::READ
        } else {
            p
        }
    };
    if rng.bool() {
        PathRule::deny(&pat, perms).ok()
    } else {
        PathRule::allow(&pat, perms).ok()
    }
}

/// Differential over the `PolicyDb` load path: profiles compiled through
/// the database — i.e. against the *namespace-shared* byte-class alphabet
/// rather than a private one — must still agree with the naive scan and
/// the bucketed index on every probe, and every profile's matcher must
/// literally share the database's alphabet (`Arc` identity, not just
/// equal classes).
#[test]
fn policy_db_profiles_share_the_alphabet_and_agree_with_scan() {
    prop::check(|rng| {
        let db = PolicyDb::new();
        let n_profiles = rng.range(1, 5);
        for i in 0..n_profiles {
            let mut profile = Profile::new(format!("p{i}"));
            for _ in 0..rng.below(8) {
                if let Some(rule) = random_path_rule(rng) {
                    profile.path_rules.push(rule);
                }
            }
            db.load(profile);
        }
        let alphabet = db.alphabet();
        for name in db.profile_names() {
            let compiled = db.get(&name).unwrap();
            assert!(
                Arc::ptr_eq(compiled.rules().alphabet(), &alphabet),
                "profile {name} compiled against a private alphabet"
            );
            for _ in 0..3 {
                let path = rich_path(rng);
                let scan = compiled.rules().evaluate_scan(&path);
                assert_eq!(
                    compiled.rules().evaluate(&path),
                    scan,
                    "profile {name} index diverged on `{path}`"
                );
                assert_eq!(
                    compiled.rules().evaluate_dfa(&path),
                    scan,
                    "profile {name} DFA diverged on `{path}`"
                );
            }
        }
    });
}

/// The shipped AppArmor bundle loaded through the real `PolicyDb` text
/// path: shared-alphabet compilation must not change a single verdict
/// relative to the naive scan, on vehicle-shaped and noise paths alike.
#[test]
fn vehicle_bundle_through_policy_db_agrees_with_scan() {
    let db = PolicyDb::new();
    let loaded = db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
    assert!(loaded > 0);
    let alphabet = db.alphabet();
    prop::check(|rng| {
        let path = vehicle_path(rng);
        for name in db.profile_names() {
            let compiled = db.get(&name).unwrap();
            assert!(Arc::ptr_eq(compiled.rules().alphabet(), &alphabet));
            let scan = compiled.rules().evaluate_scan(&path);
            assert_eq!(
                compiled.rules().evaluate_dfa(&path),
                scan,
                "profile {name} DFA diverged on `{path}`"
            );
            assert_eq!(
                compiled.rules().evaluate(&path),
                scan,
                "profile {name} index diverged on `{path}`"
            );
        }
    });
}

/// The end-to-end stacked verdict — SACK's situation gate plus the
/// AppArmor profile hook, sharing one `Sack::set_dfa_matcher_enabled`
/// switch — must be bit-identical with the DFA matchers on and off,
/// across random situation walks, subjects, paths, and access masks.
#[test]
#[allow(clippy::explicit_auto_deref)] // same inference false positive
fn stacked_sack_apparmor_verdict_is_identical_with_dfa_on_and_off() {
    let sack = Sack::independent(VEHICLE_SACK_POLICY).unwrap();
    let db = Arc::new(PolicyDb::new());
    db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
    let apparmor = AppArmor::new(Arc::clone(&db));
    sack.set_profile_oracle(Arc::clone(&apparmor));
    let confined = Pid(9);
    apparmor.set_profile(confined, "media_app").unwrap();
    let unconfined = Pid(10);
    prop::check(|rng| {
        let event = *rng.pick(&[
            "crash",
            "park",
            "start_driving",
            "driver_left",
            "driver_entered",
            "emergency_resolved",
        ]);
        let _ = sack.deliver_event(event, std::time::Duration::ZERO);
        let pid = if rng.bool() { confined } else { unconfined };
        let ctx = HookCtx::new(
            pid,
            Credentials::user(1000, 1000),
            Some(KPath::new(*rng.pick(&["/usr/bin/media_app", "/usr/bin/rescue_daemon"])).unwrap()),
        );
        let path = KPath::new(&vehicle_path(rng)).unwrap();
        let obj = ObjectRef::regular(&path);
        let mask = *rng.pick(&[
            AccessMask::READ,
            AccessMask::WRITE,
            AccessMask::EXEC,
            AccessMask::APPEND,
        ]);
        let verdict = |dfa: bool| {
            sack.set_dfa_matcher_enabled(dfa);
            (
                sack.file_open(&ctx, &obj, mask).is_ok(),
                apparmor.file_open(&ctx, &obj, mask).is_ok(),
            )
        };
        let with_dfa = verdict(true);
        let with_scan = verdict(false);
        assert_eq!(
            with_dfa,
            with_scan,
            "stacked verdict diverged in state `{}` for pid={pid:?} \
             path=`{path}` mask={mask:?}",
            sack.current_state_name()
        );
    });
}

/// Incremental recompilation differential: after every random edit the
/// whole table still agrees with the naive scan, the edited profile is
/// the *only* one recompiled unless the edit genuinely split a byte
/// class (checked via the database's own counters), and untouched
/// profiles keep their exact `Arc` — the compiler never even looked at
/// them.
#[test]
fn incremental_recompile_preserves_equivalence_and_pins_untouched_profiles() {
    prop::check(|rng| {
        let db = PolicyDb::new();
        let n_profiles = rng.range(2, 5);
        for i in 0..n_profiles {
            let mut profile = Profile::new(format!("p{i}"));
            for _ in 0..rng.range(1, 6) {
                if let Some(rule) = random_path_rule(rng) {
                    profile.path_rules.push(rule);
                }
            }
            db.load(profile);
        }
        for _ in 0..rng.range(1, 5) {
            let target = format!("p{}", rng.below(n_profiles));
            let before: Vec<(String, Arc<sack_apparmor::CompiledProfile>)> = db
                .profile_names()
                .into_iter()
                .map(|name| {
                    let compiled = db.get(&name).unwrap();
                    (name, compiled)
                })
                .collect();
            let compiles_before = db.compile_count();
            let rebuilds_before = db.alphabet_rebuild_count();
            let push = rng.bool();
            let new_rule = random_path_rule(rng);
            db.patch(&target, |p| {
                if push || p.path_rules.is_empty() {
                    if let Some(rule) = new_rule.clone() {
                        p.path_rules.push(rule);
                    }
                } else {
                    p.path_rules.pop();
                }
            })
            .unwrap();
            let changed = db.compile_count() > compiles_before;
            let rebuilt = db.alphabet_rebuild_count() > rebuilds_before;
            if changed {
                let expected = if rebuilt { n_profiles as u64 } else { 1 };
                assert_eq!(
                    db.compile_count() - compiles_before,
                    expected,
                    "a single-profile edit must recompile only that profile \
                     (or the world exactly once on a genuine class split)"
                );
            }
            if !rebuilt {
                for (name, old) in &before {
                    if *name != target {
                        assert!(
                            Arc::ptr_eq(old, &db.get(name).unwrap()),
                            "untouched profile {name} was rebuilt"
                        );
                    }
                }
            }
            let alphabet = db.alphabet();
            for name in db.profile_names() {
                let compiled = db.get(&name).unwrap();
                assert!(
                    Arc::ptr_eq(compiled.rules().alphabet(), &alphabet),
                    "profile {name} lost the shared alphabet after an edit"
                );
                for _ in 0..2 {
                    let path = rich_path(rng);
                    let scan = compiled.rules().evaluate_scan(&path);
                    assert_eq!(
                        compiled.rules().evaluate_dfa(&path),
                        scan,
                        "profile {name} DFA diverged on `{path}` after an edit"
                    );
                }
            }
        }
    });
}

/// Every hook decides afresh from the current snapshot: over random
/// situation walks, subjects, paths and masks the kernel verdict equals
/// `PolicySimulator`'s answer in the same state, every mediated hook
/// counts one `cache_misses` and no `cache_hits`, and every refusal is
/// counted and audited exactly once.
///
/// At random steps the walk also rolls a narrowed candidate policy forward
/// through `reload_policy`, probes it against a candidate twin, and rolls
/// back to `VEHICLE_SACK_POLICY`. A reload restarts the state machine, so
/// each reload restarts the twin too; after a rollback the kernel must
/// decide exactly like a twin that never saw the candidate.
#[test]
fn hook_verdicts_match_simulator_and_every_denial_is_audited_once() {
    const EVENTS: [&str; 6] = [
        "crash",
        "park",
        "start_driving",
        "driver_left",
        "driver_entered",
        "emergency_resolved",
    ];
    // The vehicle policy with one grant narrowed: free volume changes keep
    // the audio ioctl but lose the write.
    let candidate = VEHICLE_SACK_POLICY.replace("/dev/car/audio wi;", "/dev/car/audio i;");
    assert_ne!(candidate, VEHICLE_SACK_POLICY);
    prop::check(|rng| {
        let sack = Sack::independent(VEHICLE_SACK_POLICY).unwrap();
        let mut sim = PolicySimulator::new(VEHICLE_SACK_POLICY).unwrap();
        let mut on_candidate = false;
        let probes = rng.range(1, 40);
        let mut refused = 0u64;
        for _ in 0..probes {
            if rng.below(8) == 0 {
                on_candidate = !on_candidate;
                let text = if on_candidate {
                    candidate.as_str()
                } else {
                    VEHICLE_SACK_POLICY
                };
                sack.reload_policy(text).unwrap();
                sim = PolicySimulator::new(text).unwrap();
                assert_eq!(sack.current_state_name(), sim.state());
            }
            if rng.below(4) == 0 {
                let event = *rng.pick(&EVENTS);
                sack.deliver_event(event, std::time::Duration::ZERO)
                    .unwrap();
                sim.deliver(event);
                assert_eq!(sack.current_state_name(), sim.state());
            }
            let exe = *rng.pick(&["/usr/bin/media_app", "/usr/bin/rescue_daemon"]);
            let ctx = HookCtx::new(
                Pid(9),
                Credentials::user(1000, 1000),
                Some(KPath::new(exe).unwrap()),
            );
            let path = vehicle_path(rng);
            let kpath = KPath::new(&path).unwrap();
            let mask = *rng.pick(&[
                AccessMask::READ,
                AccessMask::WRITE,
                AccessMask::EXEC,
                AccessMask::APPEND,
            ]);
            let expected = sim
                .query(&AccessQuery {
                    uid: 1000,
                    exe: Some(exe.to_string()),
                    profile: None,
                    path: path.clone(),
                    perms: FilePerms::from_access_mask(mask),
                })
                .is_allowed();
            let verdict = sack.file_open(&ctx, &ObjectRef::regular(&kpath), mask);
            assert_eq!(
                verdict.is_ok(),
                expected,
                "state `{}`: {exe} {mask:?} `{path}`",
                sim.state()
            );
            refused += u64::from(verdict.is_err());
        }
        let stats = sack.stats();
        assert_eq!(stats.cache_misses.load(Ordering::Relaxed), probes as u64);
        assert_eq!(stats.cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(stats.denials.load(Ordering::Relaxed), refused);
        assert_eq!(sack.audit().total(), refused);
    });
}

#[test]
fn state_rule_set_deny_always_wins() {
    prop::check(|rng| {
        let perms = perms_from_bits(rng.range(1, 64) as u8);
        if perms.is_empty() {
            return;
        }
        let path = path_under_test(rng);
        let allow = MacRule::allow_any("/**", FilePerms::all()).unwrap();
        let deny = MacRule {
            subject: sack_core::SubjectMatch::Any,
            object: Glob::compile("/**").unwrap(),
            perms,
            effect: sack_core::RuleEffect::Deny,
        };
        let set = StateRuleSet::build([&allow, &deny]);
        let subject = SubjectCtx {
            uid: 0,
            exe: None,
            profile: None,
        };
        // Anything intersecting the denied set is refused...
        assert!(!set.permits(&subject, &path, perms));
        // ...while the complement is still granted by the broad allow.
        let rest = FilePerms::all().difference(perms);
        if !rest.is_empty() {
            assert!(set.permits(&subject, &path, rest));
        }
    });
}
