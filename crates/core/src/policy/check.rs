//! Policy validation — SACK's "policy-checking tools \[that\] handle errors
//! and conflicts" (paper §III-D).
//!
//! The checker runs before compilation (and therefore at every policy-load
//! site, including [`crate::simulate::PolicySimulator`] and
//! [`crate::Sack::reload_policy`]). *Errors* abort the load (undefined
//! references, duplicates, malformed rules, conflicting transitions);
//! *warnings* are surfaced but tolerated (unreachable or absorbing states,
//! events that can never fire, unused permissions, shadowed rules,
//! allow/deny conflicts on overlapping matches).
//!
//! Every issue carries a machine-readable [`IssueKind`] and, for rule-level
//! findings, a [`RuleProvenance`] naming the permission, source line, and
//! rule text. The `sack-analyze` crate layers cross-policy checks (AppArmor
//! and TE stacking, privilege widening) on top of these diagnostics.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;

use sack_apparmor::glob::Glob;
use sack_apparmor::profile::FilePerms;
use sack_apparmor::{Dfa, DfaBuilder};

use crate::rules::{MacRule, RuleEffect};

use super::{compile_rule, RuleSpec, SackPolicy, SubjectSpec};

/// Severity of a policy issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueSeverity {
    /// Fatal: the policy will not load.
    Error,
    /// Suspicious but loadable.
    Warning,
}

impl fmt::Display for IssueSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueSeverity::Error => f.write_str("error"),
            IssueSeverity::Warning => f.write_str("warning"),
        }
    }
}

/// Machine-readable classification of a policy issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum IssueKind {
    /// Two states share a name.
    DuplicateState,
    /// Two states share an integer encoding.
    SharedEncoding,
    /// The policy declares no states at all.
    NoStates,
    /// Two events share a name.
    DuplicateEvent,
    /// A transition, `state_per`, or rule references an unknown name.
    UndefinedReference,
    /// Two transitions from the same state on the same event disagree.
    ConflictingTransitions,
    /// A transition is written twice verbatim.
    DuplicateTransition,
    /// `initial` is missing or names an unknown state.
    BadInitial,
    /// Two permissions share a name.
    DuplicatePermission,
    /// A state appears twice in `state_per`.
    DuplicateStatePer,
    /// A rule has a malformed glob, empty or unknown permission letters.
    InvalidRule,
    /// Exact allow/deny contradiction on the same subject/object/perms.
    ContradictoryRules,
    /// A permission is never granted by any state.
    UnmappedPermission,
    /// A permission has no MAC rules.
    UnruledPermission,
    /// A state cannot be reached from the initial state.
    UnreachableState,
    /// A reachable state has no outgoing transitions (absorbing).
    DeadState,
    /// An event is unused, or used only from unreachable states.
    NeverFiringEvent,
    /// A rule is subsumed by an earlier rule with the same effect.
    ShadowedRule,
    /// An allow and a deny rule overlap without being identical.
    AllowDenyOverlap,
}

impl IssueKind {
    /// Stable kebab-case identifier, used in JSON reports.
    pub fn id(&self) -> &'static str {
        match self {
            IssueKind::DuplicateState => "duplicate-state",
            IssueKind::SharedEncoding => "shared-encoding",
            IssueKind::NoStates => "no-states",
            IssueKind::DuplicateEvent => "duplicate-event",
            IssueKind::UndefinedReference => "undefined-reference",
            IssueKind::ConflictingTransitions => "conflicting-transitions",
            IssueKind::DuplicateTransition => "duplicate-transition",
            IssueKind::BadInitial => "bad-initial",
            IssueKind::DuplicatePermission => "duplicate-permission",
            IssueKind::DuplicateStatePer => "duplicate-state-per",
            IssueKind::InvalidRule => "invalid-rule",
            IssueKind::ContradictoryRules => "contradictory-rules",
            IssueKind::UnmappedPermission => "unmapped-permission",
            IssueKind::UnruledPermission => "unruled-permission",
            IssueKind::UnreachableState => "unreachable-state",
            IssueKind::DeadState => "dead-state",
            IssueKind::NeverFiringEvent => "never-firing-event",
            IssueKind::ShadowedRule => "shadowed-rule",
            IssueKind::AllowDenyOverlap => "allow-deny-overlap",
        }
    }
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Where a rule-level finding came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleProvenance {
    /// The permission block the rule belongs to.
    pub permission: String,
    /// Source line of the rule in the policy text.
    pub line: usize,
    /// The rule, re-rendered in canonical policy syntax.
    pub rule: String,
}

/// One finding from the policy checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyIssue {
    /// Error or warning.
    pub severity: IssueSeverity,
    /// Machine-readable classification.
    pub kind: IssueKind,
    /// Human-readable description.
    pub message: String,
    /// For rule-level findings: the offending rule.
    pub provenance: Option<RuleProvenance>,
}

impl PolicyIssue {
    fn error(kind: IssueKind, message: impl Into<String>) -> Self {
        PolicyIssue {
            severity: IssueSeverity::Error,
            kind,
            message: message.into(),
            provenance: None,
        }
    }

    fn warning(kind: IssueKind, message: impl Into<String>) -> Self {
        PolicyIssue {
            severity: IssueSeverity::Warning,
            kind,
            message: message.into(),
            provenance: None,
        }
    }

    fn for_rule(mut self, perm: &str, spec: &RuleSpec) -> Self {
        self.provenance = Some(RuleProvenance {
            permission: perm.to_string(),
            line: spec.line,
            rule: render_rule(spec),
        });
        self
    }
}

impl fmt::Display for PolicyIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.message)
    }
}

/// Renders a rule back to canonical policy syntax (for provenance and
/// analyzer diagnostics).
pub fn render_rule(spec: &RuleSpec) -> String {
    let effect = match spec.effect {
        RuleEffect::Allow => "allow",
        RuleEffect::Deny => "deny",
    };
    format!("{effect} {} {} {}", spec.subject, spec.object, spec.perms)
}

fn check_rule(perm: &str, spec: &RuleSpec, issues: &mut Vec<PolicyIssue>) {
    if let Err(e) = Glob::compile(&spec.object) {
        issues.push(
            PolicyIssue::error(
                IssueKind::InvalidRule,
                format!("rule for `{perm}` (line {}): {e}", spec.line),
            )
            .for_rule(perm, spec),
        );
    }
    if let SubjectSpec::Exe(glob) = &spec.subject {
        if let Err(e) = Glob::compile(glob) {
            issues.push(
                PolicyIssue::error(
                    IssueKind::InvalidRule,
                    format!("rule for `{perm}` (line {}): subject {e}", spec.line),
                )
                .for_rule(perm, spec),
            );
        }
    }
    match FilePerms::parse(&spec.perms) {
        Ok(p) if p.is_empty() => issues.push(
            PolicyIssue::error(
                IssueKind::InvalidRule,
                format!(
                    "rule for `{perm}` (line {}): empty permission set",
                    spec.line
                ),
            )
            .for_rule(perm, spec),
        ),
        Ok(_) => {}
        Err(c) => issues.push(
            PolicyIssue::error(
                IssueKind::InvalidRule,
                format!(
                    "rule for `{perm}` (line {}): unknown permission letter `{c}`",
                    spec.line
                ),
            )
            .for_rule(perm, spec),
        ),
    }
}

/// True if every subject matched by `b` is also matched by `a`.
fn subject_covers(a: &SubjectSpec, b: &SubjectSpec) -> bool {
    match (a, b) {
        (SubjectSpec::Any, _) => true,
        (SubjectSpec::Exe(ga), SubjectSpec::Exe(gb)) => {
            match (Glob::compile(ga), Glob::compile(gb)) {
                (Ok(ga), Ok(gb)) => ga.covers(&gb),
                _ => false,
            }
        }
        (SubjectSpec::Uid(a), SubjectSpec::Uid(b)) => a == b,
        (SubjectSpec::Profile(a), SubjectSpec::Profile(b)) => a == b,
        _ => false,
    }
}

/// True if some subject can be matched by both selectors.
///
/// Selectors of different kinds (exe glob vs uid vs profile) always
/// overlap: a single task has an executable, a uid, and possibly a
/// profile attachment at the same time.
fn subjects_overlap(a: &SubjectSpec, b: &SubjectSpec) -> bool {
    match (a, b) {
        (SubjectSpec::Any, _) | (_, SubjectSpec::Any) => true,
        (SubjectSpec::Exe(ga), SubjectSpec::Exe(gb)) => {
            match (Glob::compile(ga), Glob::compile(gb)) {
                (Ok(ga), Ok(gb)) => ga.overlaps(&gb),
                _ => false,
            }
        }
        (SubjectSpec::Uid(a), SubjectSpec::Uid(b)) => a == b,
        (SubjectSpec::Profile(a), SubjectSpec::Profile(b)) => a == b,
        _ => true,
    }
}

/// Validates a policy AST, returning every detected issue.
pub fn check_policy(policy: &SackPolicy) -> Vec<PolicyIssue> {
    check_and_index(policy).0
}

/// [`check_policy`] plus the [`RuleIndex`] its rule lints built, present
/// whenever the policy has no errors.
pub(crate) fn check_and_index(policy: &SackPolicy) -> (Vec<PolicyIssue>, Option<RuleIndex>) {
    let mut issues = Vec::new();

    // --- States: duplicates in names and encodings -----------------------
    let mut state_names = HashSet::new();
    let mut encodings = HashMap::new();
    for (name, enc) in &policy.states {
        if !state_names.insert(name.as_str()) {
            issues.push(PolicyIssue::error(
                IssueKind::DuplicateState,
                format!("duplicate state `{name}`"),
            ));
        }
        if let Some(prev) = encodings.insert(*enc, name.as_str()) {
            issues.push(PolicyIssue::error(
                IssueKind::SharedEncoding,
                format!("states `{prev}` and `{name}` share encoding {enc}"),
            ));
        }
    }
    if policy.states.is_empty() {
        issues.push(PolicyIssue::error(
            IssueKind::NoStates,
            "policy declares no situation states",
        ));
    }

    // --- Events -----------------------------------------------------------
    let mut event_names = HashSet::new();
    for name in &policy.events {
        if !event_names.insert(name.as_str()) {
            issues.push(PolicyIssue::error(
                IssueKind::DuplicateEvent,
                format!("duplicate event `{name}`"),
            ));
        }
    }

    // --- Transitions: refs + determinism -----------------------------------
    let mut seen_transitions: HashMap<(&str, &str), &str> = HashMap::new();
    for (from, event, to) in &policy.transitions {
        for state in [from, to] {
            if !state_names.contains(state.as_str()) {
                issues.push(PolicyIssue::error(
                    IssueKind::UndefinedReference,
                    format!("transition references undefined state `{state}`"),
                ));
            }
        }
        if !event_names.contains(event.as_str()) {
            issues.push(PolicyIssue::error(
                IssueKind::UndefinedReference,
                format!("transition references undefined event `{event}`"),
            ));
        }
        match seen_transitions.insert((from.as_str(), event.as_str()), to.as_str()) {
            Some(prev) if prev != to.as_str() => {
                issues.push(PolicyIssue::error(
                    IssueKind::ConflictingTransitions,
                    format!(
                        "conflicting transitions from `{from}` on `{event}`: `-> {prev}` and `-> {to}`"
                    ),
                ));
            }
            Some(_) => issues.push(PolicyIssue::warning(
                IssueKind::DuplicateTransition,
                format!("duplicate transition `{from} -{event}-> {to}`"),
            )),
            None => {}
        }
    }

    // --- Initial state ------------------------------------------------------
    match &policy.initial {
        None => issues.push(PolicyIssue::error(
            IssueKind::BadInitial,
            "missing `initial <state>;`",
        )),
        Some(s) if !state_names.contains(s.as_str()) => {
            issues.push(PolicyIssue::error(
                IssueKind::BadInitial,
                format!("initial state `{s}` is undefined"),
            ));
        }
        Some(_) => {}
    }

    // --- Permissions ---------------------------------------------------------
    let mut perm_names = HashSet::new();
    for name in &policy.permissions {
        if !perm_names.insert(name.as_str()) {
            issues.push(PolicyIssue::error(
                IssueKind::DuplicatePermission,
                format!("duplicate permission `{name}`"),
            ));
        }
    }

    // --- State_Per -------------------------------------------------------------
    let mut mapped_perms: HashSet<&str> = HashSet::new();
    let mut state_per_states: HashSet<&str> = HashSet::new();
    for (state, perms) in &policy.state_per {
        // `*` grants the listed permissions in every state.
        if state != "*" && !state_names.contains(state.as_str()) {
            issues.push(PolicyIssue::error(
                IssueKind::UndefinedReference,
                format!("state_per references undefined state `{state}`"),
            ));
        }
        if !state_per_states.insert(state.as_str()) {
            issues.push(PolicyIssue::warning(
                IssueKind::DuplicateStatePer,
                format!("state `{state}` appears twice in state_per (entries are merged)"),
            ));
        }
        for perm in perms {
            if !perm_names.contains(perm.as_str()) {
                issues.push(PolicyIssue::error(
                    IssueKind::UndefinedReference,
                    format!("state_per references undefined permission `{perm}`"),
                ));
            }
            mapped_perms.insert(perm.as_str());
        }
    }

    // --- Per_Rules -----------------------------------------------------------
    let mut ruled_perms: HashSet<&str> = HashSet::new();
    for (perm, rules) in &policy.per_rules {
        if !perm_names.contains(perm.as_str()) {
            issues.push(PolicyIssue::error(
                IssueKind::UndefinedReference,
                format!("per_rules references undefined permission `{perm}`"),
            ));
        }
        ruled_perms.insert(perm.as_str());
        for spec in rules {
            check_rule(perm, spec, &mut issues);
        }
        // Exact allow/deny contradiction inside one permission. Grouped by
        // the (subject, object, perms) triple so the pass stays linear in
        // the rule count; one warning fires per contradicting pair, on the
        // later rule, exactly as the pairwise scan would.
        let mut seen: HashMap<(&SubjectSpec, &str, &str), [usize; 2]> = HashMap::new();
        for spec in rules {
            let counts = seen
                .entry((&spec.subject, spec.object.as_str(), spec.perms.as_str()))
                .or_default();
            let (own, opposite) = match spec.effect {
                RuleEffect::Allow => (0, counts[1]),
                RuleEffect::Deny => (1, counts[0]),
            };
            for _ in 0..opposite {
                issues.push(
                    PolicyIssue::warning(
                        IssueKind::ContradictoryRules,
                        format!(
                            "permission `{perm}`: contradictory allow/deny for `{}` `{}` (deny wins)",
                            spec.subject, spec.object
                        ),
                    )
                    .for_rule(perm, spec),
                );
            }
            counts[own] += 1;
        }
    }

    // --- Cross-interface warnings ----------------------------------------------
    for name in &policy.permissions {
        if !mapped_perms.contains(name.as_str()) {
            issues.push(PolicyIssue::warning(
                IssueKind::UnmappedPermission,
                format!("permission `{name}` is never granted by any state"),
            ));
        }
        if !ruled_perms.contains(name.as_str()) {
            issues.push(PolicyIssue::warning(
                IssueKind::UnruledPermission,
                format!("permission `{name}` has no MAC rules (grants nothing)"),
            ));
        }
    }

    // --- Deep lints (only when the policy is well-formed so far) ----------------
    let mut index = None;
    if issues.iter().all(|i| i.severity != IssueSeverity::Error) {
        lint_state_machine(policy, &mut issues);
        index = Some(lint_rules(policy, &mut issues));
    }

    (issues, index)
}

/// States reachable from the initial state via declared transitions.
fn reachable_states(policy: &SackPolicy) -> HashSet<&str> {
    let mut seen: HashSet<&str> = HashSet::new();
    let Some(initial) = &policy.initial else {
        return seen;
    };
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for (from, _, to) in &policy.transitions {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut stack = vec![initial.as_str()];
    seen.insert(initial.as_str());
    while let Some(s) = stack.pop() {
        for next in adj.get(s).into_iter().flatten() {
            if seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen
}

/// SSM reachability lints: unreachable states, absorbing (dead) states,
/// events that can never fire.
fn lint_state_machine(policy: &SackPolicy, issues: &mut Vec<PolicyIssue>) {
    let reachable = reachable_states(policy);
    if reachable.is_empty() {
        return;
    }

    for (name, _) in &policy.states {
        if !reachable.contains(name.as_str()) {
            issues.push(PolicyIssue::warning(
                IssueKind::UnreachableState,
                format!("state `{name}` is unreachable from the initial state"),
            ));
        }
    }

    // Absorbing states. A policy with no transitions at all is a static
    // (single-situation) configuration, not a broken machine — skip.
    if !policy.transitions.is_empty() {
        let mut has_exit: HashSet<&str> = HashSet::new();
        for (from, _, _) in &policy.transitions {
            has_exit.insert(from.as_str());
        }
        for (name, _) in &policy.states {
            if reachable.contains(name.as_str()) && !has_exit.contains(name.as_str()) {
                issues.push(PolicyIssue::warning(
                    IssueKind::DeadState,
                    format!(
                        "state `{name}` has no outgoing transitions: once entered, \
                         no event can ever leave it"
                    ),
                ));
            }
        }
    }

    for event in &policy.events {
        let uses: Vec<&(String, String, String)> = policy
            .transitions
            .iter()
            .filter(|(_, e, _)| e == event)
            .collect();
        if uses.is_empty() {
            issues.push(PolicyIssue::warning(
                IssueKind::NeverFiringEvent,
                format!("event `{event}` is not used by any transition"),
            ));
        } else if uses
            .iter()
            .all(|(from, _, _)| !reachable.contains(from.as_str()))
        {
            issues.push(PolicyIssue::warning(
                IssueKind::NeverFiringEvent,
                format!(
                    "event `{event}` can never fire: all of its transitions \
                     start in unreachable states"
                ),
            ));
        }
    }
}

/// Every MAC rule of a policy, compiled once and determinized once.
///
/// Rule `gi` is the `gi`-th rule in `per_rules` order, block by block, and
/// its object glob carries tag `gi` in the index. The checker's lints read
/// the tag sets; `SackPolicy::compile` relabels the same automaton into
/// each situation state's table, so a load runs one subset construction.
pub(crate) struct RuleIndex {
    /// The compiled rules, in tag order.
    pub(crate) rules: Vec<MacRule>,
    /// The subset construction over every rule's object glob.
    pub(crate) dfa: Dfa<Vec<u32>>,
}

/// MAC-rule lints: shadowed rules and overlapping allow/deny conflicts.
///
/// Both lints reason about glob *languages* (`covers`, `overlaps`), but
/// instead of the quadratic pairwise NFA procedures they read the answers
/// off the accepting-state tag sets of one [`RuleIndex`] over every rule:
/// glob `b` is covered by glob `a` iff every tag set containing `b` also
/// contains `a`, and two globs overlap iff some tag set contains both. The
/// index is returned so the compile that follows reuses it: one
/// determinization per policy load.
fn lint_rules(policy: &SackPolicy, issues: &mut Vec<PolicyIssue>) -> RuleIndex {
    // Rules that fail to compile were already reported as errors and this
    // pass does not run.
    let mut all_rules: Vec<(&str, &RuleSpec)> = Vec::new();
    let mut blocks: Vec<Range<usize>> = Vec::with_capacity(policy.per_rules.len());
    let mut block_of: Vec<usize> = Vec::new();
    for (pi, (perm, specs)) in policy.per_rules.iter().enumerate() {
        let start = all_rules.len();
        all_rules.extend(specs.iter().map(|spec| (perm.as_str(), spec)));
        block_of.resize(all_rules.len(), pi);
        blocks.push(start..all_rules.len());
    }
    let rules: Vec<MacRule> = all_rules
        .iter()
        .map(|(_, spec)| compile_rule(spec).expect("checker validated rule"))
        .collect();
    let mut builder = DfaBuilder::new();
    for (gi, rule) in rules.iter().enumerate() {
        builder.add_glob(&rule.object, gi as u32);
    }
    let dfa = builder.determinize();
    // The unminimized index repeats tag sets; each distinct one is enough.
    let sets: HashSet<&[u32]> = dfa
        .annotations()
        .filter(|set| !set.is_empty())
        .map(Vec::as_slice)
        .collect();

    // Shadowing: within one permission block, a later rule subsumed by an
    // earlier rule with the same effect never changes the outcome.
    // coverers[gi] = the rules of gi's block present in every tag set
    // holding gi, i.e. those whose globs cover rule gi's glob. `None` means
    // rule gi matches no path at all (trivially covered by anything).
    let mut coverers: Vec<Option<Vec<u32>>> = vec![None; rules.len()];
    for set in &sets {
        for &tag in *set {
            match &mut coverers[tag as usize] {
                slot @ None => {
                    let block = &blocks[block_of[tag as usize]];
                    let lo = set.partition_point(|&t| (t as usize) < block.start);
                    let hi = set.partition_point(|&t| (t as usize) < block.end);
                    *slot = Some(set[lo..hi].to_vec());
                }
                Some(cur) => cur.retain(|t| set.binary_search(t).is_ok()),
            }
        }
    }
    for block in &blocks {
        for gi in block.clone() {
            let (perm, later) = all_rules[gi];
            let shadows = |ei: &usize| {
                let earlier = all_rules[*ei].1;
                earlier.effect == later.effect
                    && subject_covers(&earlier.subject, &later.subject)
                    && rules[*ei].perms.contains(rules[gi].perms)
            };
            // Candidates ascend, so the first hit is the earliest shadower.
            let shadower = match &coverers[gi] {
                Some(set) => set
                    .iter()
                    .map(|&t| t as usize)
                    .take_while(|&ei| ei < gi)
                    .find(shadows),
                None => (block.start..gi).find(shadows),
            };
            if let Some(ei) = shadower {
                let earlier = all_rules[ei].1;
                issues.push(
                    PolicyIssue::warning(
                        IssueKind::ShadowedRule,
                        format!(
                            "permission `{perm}`: rule `{}` (line {}) is shadowed by \
                             broader rule `{}` (line {})",
                            render_rule(later),
                            later.line,
                            render_rule(earlier),
                            earlier.line
                        ),
                    )
                    .for_rule(perm, later),
                );
            }
        }
    }

    // Allow/deny conflicts on *overlapping* (not identical) matches. Rules
    // from different permissions conflict too when some state grants both
    // permissions: the per-state rule set is the union, and deny wins. A
    // mixed allow/deny tag set pins an overlapping pair.
    let granted_states = resolve_state_per(policy);
    let mut overlapping: HashSet<(u32, u32)> = HashSet::new();
    for set in &sets {
        if set.len() < 2 {
            continue;
        }
        let (mut allows, mut denies) = (Vec::new(), Vec::new());
        for &tag in *set {
            match all_rules[tag as usize].1.effect {
                RuleEffect::Allow => allows.push(tag),
                RuleEffect::Deny => denies.push(tag),
            }
        }
        for &a in &allows {
            for &d in &denies {
                overlapping.insert((a.min(d), a.max(d)));
            }
        }
    }
    let mut overlapping: Vec<(u32, u32)> = overlapping.into_iter().collect();
    overlapping.sort_unstable();
    for (i, j) in overlapping {
        let (perm_a, rule_a) = all_rules[i as usize];
        let (perm_b, rule_b) = all_rules[j as usize];
        // The exact-triple case is already reported as ContradictoryRules.
        if rule_a.subject == rule_b.subject
            && rule_a.object == rule_b.object
            && rule_a.perms == rule_b.perms
        {
            continue;
        }
        // Both rules must be active together in at least one state.
        let coactive = perm_a == perm_b
            || granted_states.get(perm_a).is_some_and(|sa| {
                granted_states
                    .get(perm_b)
                    .is_some_and(|sb| sa.intersection(sb).next().is_some())
            });
        if !coactive {
            continue;
        }
        if rules[i as usize].perms.intersects(rules[j as usize].perms)
            && subjects_overlap(&rule_a.subject, &rule_b.subject)
        {
            let (allow, deny) = match rule_a.effect {
                RuleEffect::Allow => ((perm_a, rule_a), (perm_b, rule_b)),
                RuleEffect::Deny => ((perm_b, rule_b), (perm_a, rule_a)),
            };
            issues.push(
                PolicyIssue::warning(
                    IssueKind::AllowDenyOverlap,
                    format!(
                        "allow rule `{}` (permission `{}`, line {}) overlaps deny rule \
                         `{}` (permission `{}`, line {}): the deny wins wherever both match",
                        render_rule(allow.1),
                        allow.0,
                        allow.1.line,
                        render_rule(deny.1),
                        deny.0,
                        deny.1.line
                    ),
                )
                .for_rule(allow.0, allow.1),
            );
        }
    }
    RuleIndex { rules, dfa }
}

/// Resolves `state_per` into permission → set of granting states, expanding
/// the `*` wildcard entry.
pub(crate) fn resolve_state_per(policy: &SackPolicy) -> HashMap<&str, HashSet<&str>> {
    let mut granted: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (state, perms) in &policy.state_per {
        for perm in perms {
            let entry = granted.entry(perm.as_str()).or_default();
            if state == "*" {
                entry.extend(policy.states.iter().map(|(n, _)| n.as_str()));
            } else {
                entry.insert(state.as_str());
            }
        }
    }
    granted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::parse_policy;

    fn errors(text: &str) -> Vec<String> {
        check_policy(&parse_policy(text).unwrap())
            .into_iter()
            .filter(|i| i.severity == IssueSeverity::Error)
            .map(|i| i.message)
            .collect()
    }

    fn warnings(text: &str) -> Vec<PolicyIssue> {
        check_policy(&parse_policy(text).unwrap())
            .into_iter()
            .filter(|i| i.severity == IssueSeverity::Warning)
            .collect()
    }

    const VALID: &str = r#"
        states { a = 0; b = 1; }
        events { e; }
        transitions { a -e-> b; b -e-> a; }
        initial a;
        permissions { P; }
        state_per { a: P; b: P; }
        per_rules { P: allow subject=* /x rw; }
    "#;

    #[test]
    fn valid_policy_has_no_issues() {
        assert!(check_policy(&parse_policy(VALID).unwrap()).is_empty());
    }

    #[test]
    fn duplicate_state_and_encoding() {
        let errs = errors("states { a = 0; a = 1; b = 0; } initial a;");
        assert!(errs.iter().any(|e| e.contains("duplicate state `a`")));
        assert!(errs.iter().any(|e| e.contains("share encoding 0")));
    }

    #[test]
    fn undefined_references_are_errors() {
        let errs = errors(
            r#"
            states { a = 0; }
            transitions { a -ghost_event-> ghost_state; }
            initial missing;
            state_per { other: NOPERM; }
            per_rules { ALSO_MISSING: allow subject=* /x r; }
            "#,
        );
        assert!(errs
            .iter()
            .any(|e| e.contains("undefined event `ghost_event`")));
        assert!(errs
            .iter()
            .any(|e| e.contains("undefined state `ghost_state`")));
        assert!(errs.iter().any(|e| e.contains("initial state `missing`")));
        assert!(errs.iter().any(|e| e.contains("undefined state `other`")));
        assert!(errs
            .iter()
            .any(|e| e.contains("undefined permission `NOPERM`")));
        assert!(errs
            .iter()
            .any(|e| e.contains("undefined permission `ALSO_MISSING`")));
    }

    #[test]
    fn nondeterministic_transition_is_error() {
        let errs = errors(
            "states { a=0; b=1; c=2; } events { e; } transitions { a -e-> b; a -e-> c; } initial a;",
        );
        assert!(errs.iter().any(|e| e.contains("conflicting transitions")));
    }

    #[test]
    fn duplicate_transition_is_warning() {
        let warns = warnings(
            "states { a=0; b=1; } events { e; } transitions { a -e-> b; a -e-> b; } initial a;",
        );
        assert!(warns
            .iter()
            .any(|w| w.kind == IssueKind::DuplicateTransition));
    }

    #[test]
    fn bad_rule_contents_are_errors() {
        let errs = errors(
            r#"
            states { a = 0; } initial a;
            permissions { P; Q; R; }
            state_per { a: P, Q, R; }
            per_rules {
              P: allow subject=* /x[ r;
              Q: allow subject=* /x zz;
              R: allow subject=/bad[ /x r;
            }
            "#,
        );
        assert!(errs.iter().any(|e| e.contains("invalid glob")));
        assert!(errs.iter().any(|e| e.contains("unknown permission letter")));
        assert!(errs.iter().any(|e| e.contains("subject invalid glob")));
    }

    #[test]
    fn unreachable_state_is_warning() {
        let warns = warnings(
            "states { a=0; island=1; } events { e; } transitions { a -e-> a; } initial a;",
        );
        assert!(warns.iter().any(|w| w.kind == IssueKind::UnreachableState));
    }

    #[test]
    fn unused_permission_warnings() {
        let warns = warnings(
            r#"states { a=0; } initial a;
               permissions { USED; UNMAPPED; NORULE; }
               state_per { a: USED, NORULE; }
               per_rules { USED: allow subject=* /x r; UNMAPPED: allow subject=* /y r; }"#,
        );
        assert!(warns
            .iter()
            .any(|w| w.message.contains("`UNMAPPED` is never granted")));
        assert!(warns
            .iter()
            .any(|w| w.message.contains("`NORULE` has no MAC rules")));
    }

    #[test]
    fn contradictory_rules_are_warned() {
        let warns = warnings(
            r#"states { a=0; } initial a;
               permissions { P; }
               state_per { a: P; }
               per_rules { P: allow subject=* /x w; deny subject=* /x w; }"#,
        );
        assert!(warns
            .iter()
            .any(|w| w.kind == IssueKind::ContradictoryRules));
        // The exact triple must NOT additionally fire the overlap lint.
        assert!(!warns.iter().any(|w| w.kind == IssueKind::AllowDenyOverlap));
    }

    #[test]
    fn empty_policy_is_error() {
        let errs = errors("");
        assert!(errs.iter().any(|e| e.contains("no situation states")));
        assert!(errs.iter().any(|e| e.contains("missing `initial")));
    }

    #[test]
    fn dead_state_is_warning() {
        let warns = warnings(
            "states { a=0; pit=1; } events { fall; } transitions { a -fall-> pit; } initial a;",
        );
        let dead: Vec<_> = warns
            .iter()
            .filter(|w| w.kind == IssueKind::DeadState)
            .collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("`pit`"));
    }

    #[test]
    fn transitionless_policy_has_no_dead_state_warning() {
        let warns = warnings("states { a=0; } initial a;");
        assert!(!warns.iter().any(|w| w.kind == IssueKind::DeadState));
    }

    #[test]
    fn self_loop_counts_as_an_outgoing_transition() {
        // A state whose only exit is a self-loop is not "dead": its event
        // can still fire there (re-entry renotifies enforcers).
        let warns = warnings(
            "states { a=0; b=1; } events { go; ping; } \
             transitions { a -go-> b; b -ping-> b; } initial a;",
        );
        assert!(
            !warns.iter().any(|w| w.kind == IssueKind::DeadState),
            "{warns:?}"
        );
        assert!(!warns.iter().any(|w| w.kind == IssueKind::NeverFiringEvent));
    }

    #[test]
    fn never_firing_events_are_warned() {
        let warns = warnings(
            r#"states { a=0; island=1; } events { unused; islander; loop_e; }
               transitions { a -loop_e-> a; island -islander-> a; }
               initial a;"#,
        );
        let fires: Vec<_> = warns
            .iter()
            .filter(|w| w.kind == IssueKind::NeverFiringEvent)
            .collect();
        assert_eq!(fires.len(), 2);
        assert!(fires
            .iter()
            .any(|w| w.message.contains("`unused` is not used")));
        assert!(fires
            .iter()
            .any(|w| w.message.contains("`islander` can never fire")));
    }

    #[test]
    fn shadowed_rule_is_warned_with_provenance() {
        let warns = warnings(
            r#"states { a=0; } initial a;
               permissions { P; }
               state_per { a: P; }
               per_rules { P:
                 allow subject=* /dev/car/** rw;
                 allow subject=/usr/bin/app /dev/car/door* r;
               }"#,
        );
        let shadowed: Vec<_> = warns
            .iter()
            .filter(|w| w.kind == IssueKind::ShadowedRule)
            .collect();
        assert_eq!(shadowed.len(), 1);
        let prov = shadowed[0].provenance.as_ref().unwrap();
        assert_eq!(prov.permission, "P");
        assert!(prov.rule.contains("/dev/car/door*"));
    }

    #[test]
    fn narrower_earlier_rule_does_not_shadow() {
        let warns = warnings(
            r#"states { a=0; } initial a;
               permissions { P; }
               state_per { a: P; }
               per_rules { P:
                 allow subject=* /dev/car/door* r;
                 allow subject=* /dev/car/** rw;
               }"#,
        );
        assert!(!warns.iter().any(|w| w.kind == IssueKind::ShadowedRule));
    }

    #[test]
    fn overlapping_allow_deny_is_warned() {
        let warns = warnings(
            r#"states { a=0; } initial a;
               permissions { P; }
               state_per { a: P; }
               per_rules { P:
                 allow subject=* /dev/car/** rw;
                 deny subject=* /dev/car/door* w;
               }"#,
        );
        let conflicts: Vec<_> = warns
            .iter()
            .filter(|w| w.kind == IssueKind::AllowDenyOverlap)
            .collect();
        assert_eq!(conflicts.len(), 1);
        assert!(conflicts[0].message.contains("deny wins"));
    }

    #[test]
    fn cross_permission_conflict_requires_shared_state() {
        // P active in a, Q active only in b: never coactive, no conflict.
        let disjoint = warnings(
            r#"states { a=0; b=1; } events { e; } transitions { a -e-> b; b -e-> a; }
               initial a;
               permissions { P; Q; }
               state_per { a: P; b: Q; }
               per_rules {
                 P: allow subject=* /dev/x* w;
                 Q: deny subject=* /dev/x0 w;
               }"#,
        );
        assert!(!disjoint
            .iter()
            .any(|w| w.kind == IssueKind::AllowDenyOverlap));

        // Same rules, both active in `a`: conflict.
        let shared = warnings(
            r#"states { a=0; b=1; } events { e; } transitions { a -e-> b; b -e-> a; }
               initial a;
               permissions { P; Q; }
               state_per { a: P, Q; b: Q; }
               per_rules {
                 P: allow subject=* /dev/x* w;
                 Q: deny subject=* /dev/x0 w;
               }"#,
        );
        assert!(shared.iter().any(|w| w.kind == IssueKind::AllowDenyOverlap));
    }

    #[test]
    fn disjoint_subjects_do_not_conflict() {
        let warns = warnings(
            r#"states { a=0; } initial a;
               permissions { P; }
               state_per { a: P; }
               per_rules { P:
                 allow uid=1000 /dev/x* w;
                 deny uid=2000 /dev/x* w;
               }"#,
        );
        assert!(!warns.iter().any(|w| w.kind == IssueKind::AllowDenyOverlap));
    }
}
