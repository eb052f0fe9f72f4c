//! Structured diagnostics and reports.
//!
//! A [`Diagnostic`] is one finding: a severity, a stable kebab-case check
//! id (machine-matchable), a human-readable message, and — for rule-level
//! findings — the provenance of the offending rule. A [`Report`] is the
//! ordered collection produced by one analyzer run, renderable as text or
//! JSON.

use std::fmt;

use sack_core::policy::{IssueSeverity, PolicyIssue, RuleProvenance};

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error (would abort a load) or warning.
    pub severity: IssueSeverity,
    /// Stable kebab-case check id, e.g. `shadowed-rule` or
    /// `stacked-profile-wide-open`.
    pub check: String,
    /// Human-readable description.
    pub message: String,
    /// The rule this finding is anchored to, when applicable.
    pub provenance: Option<RuleProvenance>,
}

impl Diagnostic {
    /// Builds a warning-severity diagnostic.
    pub fn warning(check: &str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: IssueSeverity::Warning,
            check: check.to_string(),
            message: message.into(),
            provenance: None,
        }
    }

    /// Attaches rule provenance.
    #[must_use]
    pub fn with_provenance(mut self, provenance: RuleProvenance) -> Diagnostic {
        self.provenance = Some(provenance);
        self
    }
}

impl From<PolicyIssue> for Diagnostic {
    fn from(issue: PolicyIssue) -> Diagnostic {
        Diagnostic {
            severity: issue.severity,
            check: issue.kind.id().to_string(),
            message: issue.message,
            provenance: issue.provenance,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.severity, self.check, self.message)?;
        if let Some(prov) = &self.provenance {
            write!(
                f,
                "\n    --> permission `{}`, line {}: `{}`",
                prov.permission, prov.line, prov.rule
            )?;
        }
        Ok(())
    }
}

/// Compiled matcher size for one situation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfaSize {
    /// Situation state name.
    pub state: String,
    /// Number of DFA states in the unified per-state matcher.
    pub states: usize,
    /// Number of live (non-dead) transitions in its table.
    pub transitions: usize,
    /// Byte equivalence classes in the compressed alphabet.
    pub classes: usize,
    /// Subject-scoped rules left on the residual scan path.
    pub residual_rules: usize,
}

/// Table size of one compiled profile matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledDfaSize {
    /// Number of DFA states in the profile's compiled matcher.
    pub states: usize,
    /// Number of live (non-dead) transitions in its table.
    pub transitions: usize,
}

/// Matcher report entry for one stacked AppArmor profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDfaSize {
    /// Profile name.
    pub profile: String,
    /// Number of path rules the profile compiles.
    pub rules: usize,
    /// Byte equivalence classes of this profile's DFA (each DFA derives
    /// its own from its globs).
    pub classes: usize,
    /// Table size of the body's compiled DFA.
    pub compiled: CompiledDfaSize,
    /// Shared-body dedup group: entries carrying the same id share one
    /// DFA (identical rule bodies compiled once).
    pub dedup_group: usize,
}

/// The outcome of one analyzer run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Findings in detection order (core checks first, stacking last).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-state DFA matcher sizes, when the policy compiled cleanly.
    pub dfa: Vec<DfaSize>,
    /// Per-profile DFA matcher sizes for the stacked AppArmor profiles,
    /// compiled through the same `PolicyDb` path the kernel module uses.
    pub profile_dfa: Vec<ProfileDfaSize>,
}

impl Report {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == IssueSeverity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == IssueSeverity::Warning)
            .count()
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings matching a check id.
    pub fn by_check<'r>(&'r self, check: &'r str) -> impl Iterator<Item = &'r Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.check == check)
    }

    /// Renders the report as human-readable text, one finding per block,
    /// followed by the per-state DFA matcher sizes when available.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str("no findings\n");
        } else {
            for diag in &self.diagnostics {
                out.push_str(&diag.to_string());
                out.push('\n');
            }
            out.push_str(&format!(
                "{} error(s), {} warning(s)\n",
                self.error_count(),
                self.warning_count()
            ));
        }
        if !self.dfa.is_empty() {
            out.push_str("per-state DFA matcher:\n");
            for size in &self.dfa {
                out.push_str(&format!(
                    "  {}: {} states, {} transitions, {} byte classes, \
                     {} residual rule(s)\n",
                    size.state, size.states, size.transitions, size.classes, size.residual_rules
                ));
            }
        }
        if !self.profile_dfa.is_empty() {
            out.push_str("per-profile DFA matcher:\n");
            for size in &self.profile_dfa {
                let sharers = self
                    .profile_dfa
                    .iter()
                    .filter(|s| s.dedup_group == size.dedup_group)
                    .count();
                out.push_str(&format!(
                    "  {}: {} rule(s), {} states, {} transitions, {} byte classes",
                    size.profile,
                    size.rules,
                    size.compiled.states,
                    size.compiled.transitions,
                    size.classes
                ));
                if sharers > 1 {
                    out.push_str(&format!(
                        " [shared body group {}, {} profiles]",
                        size.dedup_group, sharers
                    ));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Renders the report as machine-readable JSON.
    ///
    /// Shape:
    ///
    /// ```json
    /// {
    ///   "errors": 0,
    ///   "warnings": 1,
    ///   "diagnostics": [
    ///     {
    ///       "severity": "warning",
    ///       "check": "shadowed-rule",
    ///       "message": "...",
    ///       "provenance": {"permission": "P", "line": 4, "rule": "..."}
    ///     }
    ///   ],
    ///   "dfa": [
    ///     {"state": "normal", "states": 12, "transitions": 40,
    ///      "classes": 7, "residual_rules": 0}
    ///   ]
    /// }
    /// ```
    ///
    /// The `dfa` key is present only when the policy compiled cleanly and
    /// matcher sizes were collected. A `profile_dfa` key is present when
    /// stacked AppArmor profiles were supplied; each entry carries
    /// `profile`, `rules`, `states`, `transitions`, `classes`, and the
    /// shared-body `dedup_group` id.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, diag) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"check\":\"{}\",\"message\":\"{}\"",
                diag.severity,
                json_escape(&diag.check),
                json_escape(&diag.message)
            ));
            if let Some(prov) = &diag.provenance {
                out.push_str(&format!(
                    ",\"provenance\":{{\"permission\":\"{}\",\"line\":{},\"rule\":\"{}\"}}",
                    json_escape(&prov.permission),
                    prov.line,
                    json_escape(&prov.rule)
                ));
            }
            out.push('}');
        }
        out.push(']');
        if !self.dfa.is_empty() {
            out.push_str(",\"dfa\":[");
            for (i, size) in self.dfa.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"state\":\"{}\",\"states\":{},\"transitions\":{},\
                     \"classes\":{},\"residual_rules\":{}}}",
                    json_escape(&size.state),
                    size.states,
                    size.transitions,
                    size.classes,
                    size.residual_rules
                ));
            }
            out.push(']');
        }
        if !self.profile_dfa.is_empty() {
            out.push_str(",\"profile_dfa\":[");
            for (i, size) in self.profile_dfa.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"profile\":\"{}\",\"rules\":{},\"states\":{},\
                     \"transitions\":{},\"classes\":{},\"dedup_group\":{}}}",
                    json_escape(&size.profile),
                    size.rules,
                    size.compiled.states,
                    size.compiled.transitions,
                    size.classes,
                    size.dedup_group
                ));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn report_counts_and_render() {
        let report = Report {
            diagnostics: vec![Diagnostic::warning("shadowed-rule", "rule x is shadowed")],
            ..Report::default()
        };
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
        assert!(!report.is_clean());
        assert!(report.render().contains("[shadowed-rule]"));
        let json = report.to_json();
        assert!(json.contains("\"check\":\"shadowed-rule\""));
        assert!(json.contains("\"warnings\":1"));
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Report::default();
        assert!(report.is_clean());
        assert_eq!(report.render(), "no findings\n");
        assert_eq!(
            report.to_json(),
            "{\"errors\":0,\"warnings\":0,\"diagnostics\":[]}"
        );
    }
}
