//! The static policy analyzer.
//!
//! [`Analyzer`] takes a parsed SACK policy plus, optionally, the AppArmor
//! profiles and TE policy it will be stacked with, and produces a
//! [`Report`]:
//!
//! * every diagnostic from the core checker (`sack_core::policy::check`),
//!   which covers SSM reachability (unreachable states, dead states,
//!   events that can never fire) and intra-policy MAC-rule lints
//!   (shadowing, allow/deny conflicts on overlapping matches);
//! * **privilege widening**: a permission granted to *any* subject in a
//!   restricted situation but absent from the normal (initial) one;
//! * **AppArmor stacking holes**: a path that SACK gates behind specific
//!   situations but that a stacked profile statically allows regardless;
//! * **TE stacking holes**: the same check against type-enforcement
//!   labeling plus allow rules;
//! * **unknown stacked profiles**: `subject=profile:` rules naming a
//!   profile that is not in the provided profile set.
//!
//! The cross-layer checks use the exact glob decision procedures
//! ([`Glob::overlaps`] / [`Glob::covers`]) rather than sampling paths, so
//! a reported hole always has a concrete witness path and a clean bundle
//! is a proof, not a lucky sample.

use std::collections::{HashMap, HashSet};

use sack_apparmor::glob::Glob;
use sack_apparmor::profile::{FilePerms, Profile};
use sack_core::policy::{check_policy, IssueSeverity, RuleProvenance, SackPolicy, SubjectSpec};
use sack_core::{RuleEffect, StateId};
use sack_te::TePolicy;

use crate::diag::{CompiledDfaSize, DfaSize, Diagnostic, ProfileDfaSize, Report};

/// Origin tag on profile rules injected by SACK's enhancer; such rules are
/// SACK's own and never count as stacking holes.
const SACK_ORIGIN: &str = "sack";

/// Check id: permission granted to any subject only outside the initial
/// situation.
pub const CHECK_PRIVILEGE_WIDENING: &str = "privilege-widening";
/// Check id: SACK-gated path statically allowed by a stacked profile.
pub const CHECK_PROFILE_WIDE_OPEN: &str = "stacked-profile-wide-open";
/// Check id: SACK-gated path statically allowed by the TE policy.
pub const CHECK_TE_WIDE_OPEN: &str = "stacked-te-wide-open";
/// Check id: `subject=profile:` rule naming an unknown profile.
pub const CHECK_UNKNOWN_PROFILE: &str = "unknown-stacked-profile";
/// Check id: a per-state DFA matcher exceeded the state-count budget.
pub const CHECK_DFA_STATE_BLOWUP: &str = "dfa-state-blowup";

/// State-count budget per compiled matcher; beyond this the table no
/// longer looks like something a kernel should pin, so the analyzer warns.
const DFA_STATE_BUDGET: usize = 64 * 1024;

/// Snapshots the per-profile matcher sizes of a live [`PolicyDb`],
/// with shared-body dedup groups (profiles whose identical rule bodies
/// share one DFA get the same `dedup_group`).
/// Entries are in sorted profile-name order; group ids are assigned in
/// first-appearance order.
pub fn profile_dfa_sizes_of(db: &sack_apparmor::PolicyDb) -> Vec<ProfileDfaSize> {
    let mut groups: HashMap<usize, usize> = HashMap::new();
    let mut out = Vec::new();
    for name in db.profile_names() {
        let Some(compiled) = db.get(&name) else {
            continue;
        };
        let handle = compiled.rules().dfa_handle();
        let dfa_addr = std::sync::Arc::as_ptr(handle) as usize;
        let next_group = groups.len();
        let dedup_group = *groups.entry(dfa_addr).or_insert(next_group);
        let stats = handle.stats();
        out.push(ProfileDfaSize {
            profile: name,
            rules: compiled.profile().path_rules.len(),
            classes: stats.classes,
            compiled: CompiledDfaSize {
                states: stats.states,
                transitions: stats.transitions,
            },
            dedup_group,
        });
    }
    out
}

/// Static analyzer over a SACK policy and its stacked MAC layers.
#[derive(Debug)]
pub struct Analyzer<'a> {
    policy: &'a SackPolicy,
    profiles: &'a [Profile],
    te: Option<&'a TePolicy>,
}

impl<'a> Analyzer<'a> {
    /// Creates an analyzer for a single SACK policy.
    pub fn new(policy: &'a SackPolicy) -> Analyzer<'a> {
        Analyzer {
            policy,
            profiles: &[],
            te: None,
        }
    }

    /// Adds the AppArmor profiles the policy will be stacked with.
    #[must_use]
    pub fn with_profiles(mut self, profiles: &'a [Profile]) -> Analyzer<'a> {
        self.profiles = profiles;
        self
    }

    /// Adds the TE policy the SACK policy will be stacked with.
    #[must_use]
    pub fn with_te(mut self, te: &'a TePolicy) -> Analyzer<'a> {
        self.te = Some(te);
        self
    }

    /// Runs every applicable check and returns the report.
    pub fn run(&self) -> Report {
        let mut report = Report::default();
        let issues = check_policy(self.policy);
        let has_errors = issues.iter().any(|i| i.severity == IssueSeverity::Error);
        report
            .diagnostics
            .extend(issues.into_iter().map(Diagnostic::from));
        if has_errors {
            // Cross-layer reasoning needs a well-formed policy.
            return report;
        }
        self.check_privilege_widening(&mut report);
        self.check_profile_stacking(&mut report);
        self.check_te_stacking(&mut report);
        self.collect_dfa_sizes(&mut report);
        self.collect_profile_dfa_sizes(&mut report);
        report
    }

    /// Compiles the policy and records the unified per-state DFA matcher
    /// sizes, warning when a table blows past the state budget.
    fn collect_dfa_sizes(&self, report: &mut Report) {
        let Ok(compiled) = self.policy.compile() else {
            return; // compile issues are already reported by the checker
        };
        for (index, state) in compiled.space().states().iter().enumerate() {
            let dfa = compiled.state_dfa(StateId(index));
            let stats = dfa.stats();
            report.dfa.push(DfaSize {
                state: state.name.clone(),
                states: stats.states,
                transitions: stats.transitions,
                classes: stats.classes,
                residual_rules: dfa.residual_rule_count(),
            });
            if stats.states > DFA_STATE_BUDGET {
                report.diagnostics.push(Diagnostic::warning(
                    CHECK_DFA_STATE_BLOWUP,
                    format!(
                        "situation `{}`: compiled DFA matcher has {} states \
                         (budget {DFA_STATE_BUDGET}) — the rule set's globs \
                         explode under determinization; simplify overlapping \
                         patterns or split the permission",
                        state.name, stats.states,
                    ),
                ));
            }
        }
    }

    /// Loads the stacked profiles through a scratch `PolicyDb` as one
    /// bundle — the compile path the kernel module uses — and records
    /// each profile's compiled matcher size. Compile-time load
    /// diagnostics (duplicate rules, per-profile DFA blowup) surface in
    /// the report verbatim, so `sack-analyze` flags them before a bundle
    /// ever reaches a vehicle.
    fn collect_profile_dfa_sizes(&self, report: &mut Report) {
        if self.profiles.is_empty() {
            return;
        }
        let db = sack_apparmor::PolicyDb::new();
        db.load_many(self.profiles.to_vec());
        for diag in db.take_load_diagnostics() {
            report.diagnostics.push(Diagnostic::warning(
                diag.check,
                format!("profile `{}`: {}", diag.profile, diag.message),
            ));
        }
        let mut sizes: HashMap<String, ProfileDfaSize> = profile_dfa_sizes_of(&db)
            .into_iter()
            .map(|s| (s.profile.clone(), s))
            .collect();
        for profile in self.profiles {
            if let Some(size) = sizes.remove(&profile.name) {
                report.profile_dfa.push(size);
            }
        }
    }

    /// Permission → states granting it, with `*` entries expanded.
    fn granted_states(&self) -> HashMap<&'a str, HashSet<&'a str>> {
        let mut granted: HashMap<&str, HashSet<&str>> = HashMap::new();
        for (state, perms) in &self.policy.state_per {
            for perm in perms {
                let entry = granted.entry(perm.as_str()).or_default();
                if state == "*" {
                    entry.extend(self.policy.states.iter().map(|(n, _)| n.as_str()));
                } else {
                    entry.insert(state.as_str());
                }
            }
        }
        granted
    }

    /// Allow rules of permissions granted only in a strict subset of
    /// states, i.e. access SACK actively gates on the situation. Returns
    /// `(permission, rule provenance pieces, object glob, perms, states)`.
    fn gated_allow_rules(&self) -> Vec<GatedRule<'a>> {
        let granted = self.granted_states();
        let state_count = self.policy.states.len();
        let mut gated = Vec::new();
        for (perm, rules) in &self.policy.per_rules {
            let Some(states) = granted.get(perm.as_str()) else {
                continue; // never granted — a core warning already fired
            };
            if states.len() == state_count {
                continue; // granted everywhere: nothing situational to protect
            }
            for spec in rules {
                if spec.effect != RuleEffect::Allow {
                    continue;
                }
                let (Ok(glob), Ok(perms)) =
                    (Glob::compile(&spec.object), FilePerms::parse(&spec.perms))
                else {
                    continue;
                };
                let mut names: Vec<&str> = states.iter().copied().collect();
                names.sort_unstable();
                gated.push(GatedRule {
                    permission: perm.as_str(),
                    line: spec.line,
                    rule: sack_core::policy::render_rule(spec),
                    subject: &spec.subject,
                    glob,
                    perms,
                    states: names,
                });
            }
        }
        gated
    }

    /// A permission granted to *any* subject in restricted situations but
    /// not in the normal (initial) one is a privilege-widening smell: a
    /// situation flip silently hands every task new access. Grants scoped
    /// to an executable, uid, or profile are deliberate break-glass rules
    /// and exempt.
    fn check_privilege_widening(&self, report: &mut Report) {
        let Some(initial) = &self.policy.initial else {
            return;
        };
        let granted = self.granted_states();
        for (perm, rules) in &self.policy.per_rules {
            let Some(states) = granted.get(perm.as_str()) else {
                continue;
            };
            if states.contains(initial.as_str()) {
                continue;
            }
            for spec in rules {
                if spec.effect != RuleEffect::Allow || spec.subject != SubjectSpec::Any {
                    continue;
                }
                let mut names: Vec<&str> = states.iter().copied().collect();
                names.sort_unstable();
                report.diagnostics.push(
                    Diagnostic::warning(
                        CHECK_PRIVILEGE_WIDENING,
                        format!(
                            "permission `{perm}` grants `{} {}` to any subject in \
                             restricted situation(s) [{}] but not in the normal \
                             situation `{initial}` — privilege widening; scope the \
                             subject or grant it in `{initial}` too",
                            spec.object,
                            spec.perms,
                            names.join(", "),
                        ),
                    )
                    .with_provenance(RuleProvenance {
                        permission: perm.clone(),
                        line: spec.line,
                        rule: sack_core::policy::render_rule(spec),
                    }),
                );
            }
        }
    }

    /// A path SACK gates behind a situation must not be statically allowed
    /// by the stacked AppArmor profile: the profile is the layer that holds
    /// when SACK is in a *denying* state, so a static allow on an
    /// overlapping path defeats the gate.
    fn check_profile_stacking(&self, report: &mut Report) {
        if self.profiles.is_empty() {
            return;
        }
        let known: HashSet<&str> = self.profiles.iter().map(|p| p.name.as_str()).collect();
        for (perm, rules) in &self.policy.per_rules {
            for spec in rules {
                if let SubjectSpec::Profile(name) = &spec.subject {
                    if !known.contains(name.as_str()) {
                        report.diagnostics.push(
                            Diagnostic::warning(
                                CHECK_UNKNOWN_PROFILE,
                                format!(
                                    "permission `{perm}`: rule targets profile `{name}`, \
                                     which is not among the loaded profiles"
                                ),
                            )
                            .with_provenance(RuleProvenance {
                                permission: perm.clone(),
                                line: spec.line,
                                rule: sack_core::policy::render_rule(spec),
                            }),
                        );
                    }
                }
            }
        }

        for gated in self.gated_allow_rules() {
            for profile in self.profiles {
                for rule in &profile.path_rules {
                    if rule.deny || rule.origin.as_deref() == Some(SACK_ORIGIN) {
                        continue;
                    }
                    let shared = rule.perms.intersect(gated.perms);
                    if shared.is_empty() || !rule.glob.overlaps(&gated.glob) {
                        continue;
                    }
                    // A same-profile deny that blankets the gated object
                    // closes the hole.
                    let denied = profile
                        .path_rules
                        .iter()
                        .any(|d| d.deny && d.perms.contains(shared) && d.glob.covers(&gated.glob));
                    if denied {
                        continue;
                    }
                    report.diagnostics.push(
                        Diagnostic::warning(
                            CHECK_PROFILE_WIDE_OPEN,
                            format!(
                                "`{}` is gated by SACK to situation(s) [{}] \
                                 (permission `{}`), but profile `{}` statically \
                                 allows `{}` on overlapping path `{}` — the stacked \
                                 profile defeats the situation gate",
                                gated.glob.source(),
                                gated.states.join(", "),
                                gated.permission,
                                profile.name,
                                shared,
                                rule.glob.source(),
                            ),
                        )
                        .with_provenance(RuleProvenance {
                            permission: gated.permission.to_string(),
                            line: gated.line,
                            rule: gated.rule.clone(),
                        }),
                    );
                }
            }
        }
    }

    /// The TE analogue of [`Analyzer::check_profile_stacking`]: a labeling
    /// rule that can label a SACK-gated path, combined with an allow rule
    /// granting overlapping permissions on that label, is a static hole.
    fn check_te_stacking(&self, report: &mut Report) {
        let Some(te) = self.te else {
            return;
        };
        for gated in self.gated_allow_rules() {
            for (label_glob, object_ty) in te.labeling_rules() {
                if !label_glob.overlaps(&gated.glob) {
                    continue;
                }
                for (subject_ty, obj, granted) in te.allow_rules() {
                    if obj != object_ty {
                        continue;
                    }
                    let shared = granted.intersect(gated.perms);
                    if shared.is_empty() {
                        continue;
                    }
                    report.diagnostics.push(
                        Diagnostic::warning(
                            CHECK_TE_WIDE_OPEN,
                            format!(
                                "`{}` is gated by SACK to situation(s) [{}] \
                                 (permission `{}`), but TE labels overlapping path \
                                 `{}` as `{}` and statically allows `{}` to domain \
                                 `{}` — the stacked TE policy defeats the situation \
                                 gate",
                                gated.glob.source(),
                                gated.states.join(", "),
                                gated.permission,
                                label_glob.source(),
                                te.type_name(object_ty),
                                shared,
                                te.type_name(subject_ty),
                            ),
                        )
                        .with_provenance(RuleProvenance {
                            permission: gated.permission.to_string(),
                            line: gated.line,
                            rule: gated.rule.clone(),
                        }),
                    );
                }
            }
        }
    }
}

/// One situation-gated allow rule, pre-compiled for stacking checks.
struct GatedRule<'a> {
    permission: &'a str,
    line: usize,
    rule: String,
    #[allow(dead_code)]
    subject: &'a SubjectSpec,
    glob: Glob,
    perms: FilePerms,
    states: Vec<&'a str>,
}
