//! SACK permissions and MAC rules — the `Permissions` and `Per_Rules`
//! policy interfaces (Table I), and their compiled, per-state form.
//!
//! SACK mediates only *protected objects*: paths matched by at least one
//! rule anywhere in the policy. For a protected object, access is granted
//! only if the **current situation state's** permission set maps to a rule
//! that allows it — deny-by-default, following the principle of least
//! privilege and optimistic access control (break-the-glass in emergencies).

use std::fmt;

use sack_apparmor::glob::Glob;
use sack_apparmor::profile::FilePerms;

/// Index of a SACK permission within its policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PermissionId(pub usize);

/// A named coarse-grained SACK permission (e.g. `CONTROL_CAR_DOORS`),
/// bridging user-space permission vocabulary and kernel MAC rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permission {
    /// Permission name.
    pub name: String,
}

impl fmt::Display for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Subject selector of a MAC rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubjectMatch {
    /// Any subject.
    Any,
    /// Subjects whose executable path matches the glob.
    ExeGlob(Glob),
    /// Subjects with this uid.
    Uid(u32),
    /// Subjects confined under this (AppArmor) profile. Only meaningful in
    /// SACK-enhanced-AppArmor deployments; independent SACK resolves it via
    /// the profile oracle it is configured with.
    Profile(String),
}

impl fmt::Display for SubjectMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubjectMatch::Any => f.write_str("subject=*"),
            SubjectMatch::ExeGlob(g) => write!(f, "subject={g}"),
            SubjectMatch::Uid(uid) => write!(f, "uid={uid}"),
            SubjectMatch::Profile(p) => write!(f, "subject=profile:{p}"),
        }
    }
}

/// Allow or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleEffect {
    /// Grants the listed permissions.
    Allow,
    /// Forbids them, overriding any allow in the same state.
    Deny,
}

/// One MAC rule from the `Per_Rules` interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacRule {
    /// Who the rule applies to.
    pub subject: SubjectMatch,
    /// Object path pattern.
    pub object: Glob,
    /// File permissions granted/denied.
    pub perms: FilePerms,
    /// Allow or deny.
    pub effect: RuleEffect,
}

impl MacRule {
    /// Creates an allow rule for any subject.
    ///
    /// # Errors
    ///
    /// Glob compilation errors.
    pub fn allow_any(
        object: &str,
        perms: FilePerms,
    ) -> Result<MacRule, sack_apparmor::glob::ParseGlobError> {
        Ok(MacRule {
            subject: SubjectMatch::Any,
            object: Glob::compile(object)?,
            perms,
            effect: RuleEffect::Allow,
        })
    }

    /// Creates an allow rule restricted to executables matching `exe`.
    ///
    /// # Errors
    ///
    /// Glob compilation errors.
    pub fn allow_exe(
        exe: &str,
        object: &str,
        perms: FilePerms,
    ) -> Result<MacRule, sack_apparmor::glob::ParseGlobError> {
        Ok(MacRule {
            subject: SubjectMatch::ExeGlob(Glob::compile(exe)?),
            object: Glob::compile(object)?,
            perms,
            effect: RuleEffect::Allow,
        })
    }
}

impl fmt::Display for MacRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let effect = match self.effect {
            RuleEffect::Allow => "allow",
            RuleEffect::Deny => "deny",
        };
        write!(
            f,
            "{effect} {} {} {}",
            self.subject, self.object, self.perms
        )
    }
}

/// Snapshot of the acting subject, assembled from the kernel's `HookCtx`
/// plus (optionally) the confining profile name.
#[derive(Debug, Clone)]
pub struct SubjectCtx<'a> {
    /// Subject uid.
    pub uid: u32,
    /// Executable path, if the task has exec'd.
    pub exe: Option<&'a str>,
    /// Confining AppArmor profile, when a profile oracle is configured.
    pub profile: Option<&'a str>,
}

impl SubjectMatch {
    /// Tests the selector against a subject.
    pub fn matches(&self, subject: &SubjectCtx<'_>) -> bool {
        match self {
            SubjectMatch::Any => true,
            SubjectMatch::ExeGlob(glob) => subject.exe.is_some_and(|exe| glob.matches(exe)),
            SubjectMatch::Uid(uid) => subject.uid == *uid,
            SubjectMatch::Profile(name) => subject.profile == Some(name.as_str()),
        }
    }
}

/// The compiled rules active in one situation state:
/// `MR_i = g(f(SS_i))` precomputed at policy load.
#[derive(Debug, Default)]
pub struct StateRuleSet {
    allow: Vec<MacRule>,
    deny: Vec<MacRule>,
}

impl StateRuleSet {
    /// Builds the set from the rules of a state's granted permissions.
    pub fn build<'a>(rules: impl IntoIterator<Item = &'a MacRule>) -> StateRuleSet {
        let mut set = StateRuleSet::default();
        for rule in rules {
            match rule.effect {
                RuleEffect::Allow => set.allow.push(rule.clone()),
                RuleEffect::Deny => set.deny.push(rule.clone()),
            }
        }
        set
    }

    /// Number of rules (allow + deny).
    pub fn len(&self) -> usize {
        self.allow.len() + self.deny.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.allow.is_empty() && self.deny.is_empty()
    }

    /// Decides a request against this state's rules: allowed iff the
    /// requested permissions are covered by matching allow rules and not
    /// intersected by any matching deny rule.
    pub fn permits(&self, subject: &SubjectCtx<'_>, path: &str, requested: FilePerms) -> bool {
        for rule in &self.deny {
            if rule.perms.intersects(requested)
                && rule.object.matches(path)
                && rule.subject.matches(subject)
            {
                return false;
            }
        }
        let mut granted = FilePerms::empty();
        for rule in &self.allow {
            if rule.object.matches(path) && rule.subject.matches(subject) {
                granted = granted.union(rule.perms);
                if granted.contains(requested) {
                    return true;
                }
            }
        }
        granted.contains(requested)
    }
}

/// The set of object patterns SACK protects — accesses to paths outside
/// this set are not mediated (SACK is a restriction framework for
/// situation-sensitive resources, not a general confinement system).
///
/// Membership tests are on the `file_permission` hot path for *every* file
/// access in the system, so patterns are bucketed by their literal first
/// path component: an access to an unrelated subtree costs one hash lookup
/// regardless of how many rules the policy carries (this is what keeps the
/// paper's Table III rule-count sweep flat).
#[derive(Debug, Default)]
pub struct ProtectedSet {
    buckets: std::collections::HashMap<String, Vec<Glob>>,
    global: Vec<Glob>,
    len: usize,
}

/// The first path component of `prefix` when it is fully literal (i.e. the
/// prefix extends past its closing `/`).
fn literal_first_component(prefix: &str) -> Option<&str> {
    let rest = prefix.strip_prefix('/')?;
    let idx = rest.find('/')?;
    Some(&rest[..idx])
}

impl ProtectedSet {
    /// Builds the set from every object glob in the policy.
    pub fn build<'a>(globs: impl IntoIterator<Item = &'a Glob>) -> ProtectedSet {
        // Dedup by source text, keeping first-seen order.
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let unique: Vec<Glob> = globs
            .into_iter()
            .filter(|glob| seen.insert(glob.source()))
            .cloned()
            .collect();
        let mut set = ProtectedSet {
            len: unique.len(),
            ..ProtectedSet::default()
        };
        for glob in unique {
            match literal_first_component(glob.literal_prefix()) {
                Some(comp) => set.buckets.entry(comp.to_string()).or_default().push(glob),
                None => set.global.push(glob),
            }
        }
        set
    }

    /// Number of distinct patterns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is protected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `path` is a protected object.
    pub fn contains(&self, path: &str) -> bool {
        if !self.buckets.is_empty() {
            if let Some(comp) = path
                .strip_prefix('/')
                .and_then(|rest| rest.split('/').next())
            {
                if let Some(bucket) = self.buckets.get(comp) {
                    if bucket.iter().any(|g| g.matches(path)) {
                        return true;
                    }
                }
            }
        }
        self.global.iter().any(|g| g.matches(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subject(exe: Option<&str>) -> SubjectCtx<'_> {
        SubjectCtx {
            uid: 1000,
            exe,
            profile: None,
        }
    }

    #[test]
    fn subject_match_variants() {
        let any = SubjectMatch::Any;
        assert!(any.matches(&subject(None)));

        let exe = SubjectMatch::ExeGlob(Glob::compile("/usr/bin/rescue*").unwrap());
        assert!(exe.matches(&subject(Some("/usr/bin/rescue_daemon"))));
        assert!(!exe.matches(&subject(Some("/usr/bin/media"))));
        assert!(!exe.matches(&subject(None)));

        let uid = SubjectMatch::Uid(1000);
        assert!(uid.matches(&subject(None)));
        assert!(!SubjectMatch::Uid(0).matches(&subject(None)));

        let prof = SubjectMatch::Profile("rescue".into());
        assert!(!prof.matches(&subject(None)));
        let s = SubjectCtx {
            uid: 0,
            exe: None,
            profile: Some("rescue"),
        };
        assert!(prof.matches(&s));
    }

    #[test]
    fn state_rules_deny_by_default() {
        let set = StateRuleSet::build(&[]);
        assert!(set.is_empty());
        assert!(!set.permits(&subject(None), "/dev/car/door0", FilePerms::WRITE));
        // Empty request is vacuously permitted.
        assert!(set.permits(&subject(None), "/dev/car/door0", FilePerms::empty()));
    }

    #[test]
    fn allow_rules_accumulate() {
        let rules = [
            MacRule::allow_any("/dev/car/door*", FilePerms::READ).unwrap(),
            MacRule::allow_any("/dev/car/door*", FilePerms::WRITE).unwrap(),
        ];
        let set = StateRuleSet::build(rules.iter());
        assert!(set.permits(
            &subject(None),
            "/dev/car/door0",
            FilePerms::READ | FilePerms::WRITE
        ));
        assert!(!set.permits(&subject(None), "/dev/car/door0", FilePerms::IOCTL));
    }

    #[test]
    fn deny_overrides_allow() {
        let rules = [
            MacRule::allow_any("/dev/car/**", FilePerms::all()).unwrap(),
            MacRule {
                subject: SubjectMatch::Any,
                object: Glob::compile("/dev/car/door0").unwrap(),
                perms: FilePerms::WRITE,
                effect: RuleEffect::Deny,
            },
        ];
        let set = StateRuleSet::build(rules.iter());
        assert!(!set.permits(&subject(None), "/dev/car/door0", FilePerms::WRITE));
        assert!(set.permits(&subject(None), "/dev/car/door0", FilePerms::READ));
        assert!(set.permits(&subject(None), "/dev/car/door1", FilePerms::WRITE));
    }

    #[test]
    fn subject_restricted_rule() {
        let rules = [MacRule::allow_exe(
            "/usr/bin/rescue*",
            "/dev/car/**",
            FilePerms::WRITE | FilePerms::IOCTL,
        )
        .unwrap()];
        let set = StateRuleSet::build(rules.iter());
        assert!(set.permits(
            &subject(Some("/usr/bin/rescue_daemon")),
            "/dev/car/door0",
            FilePerms::IOCTL
        ));
        assert!(!set.permits(
            &subject(Some("/usr/bin/malware")),
            "/dev/car/door0",
            FilePerms::IOCTL
        ));
    }

    #[test]
    fn protected_set_membership_and_dedup() {
        let globs = [
            Glob::compile("/dev/car/**").unwrap(),
            Glob::compile("/etc/vehicle.conf").unwrap(),
            Glob::compile("/dev/car/**").unwrap(),
        ];
        let set = ProtectedSet::build(globs.iter());
        assert_eq!(set.len(), 2, "duplicate patterns are deduplicated");
        assert!(set.contains("/dev/car/door0"));
        assert!(set.contains("/etc/vehicle.conf"));
        assert!(!set.contains("/tmp/file"));
    }

    #[test]
    fn protected_set_handles_wildcard_first_component() {
        let globs = [
            Glob::compile("/**/shadow").unwrap(),
            Glob::compile("/dev/car/**").unwrap(),
        ];
        let set = ProtectedSet::build(globs.iter());
        assert!(set.contains("/etc/shadow"), "global pattern still matches");
        assert!(set.contains("/a/b/shadow"));
        assert!(set.contains("/dev/car/door0"));
        assert!(!set.contains("/dev/audio"));
    }

    #[test]
    fn rule_display() {
        let r = MacRule::allow_exe("/usr/bin/r*", "/dev/car/**", FilePerms::WRITE).unwrap();
        assert_eq!(r.to_string(), "allow subject=/usr/bin/r* /dev/car/** w");
    }
}
