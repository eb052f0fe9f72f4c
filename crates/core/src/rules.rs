//! SACK permissions and MAC rules — the `Permissions` and `Per_Rules`
//! policy interfaces (Table I).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CompiledPolicy, SackPolicy};
    use crate::situation::StateId;

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

    /// One state granting `rules` as one permission; a second permission,
    /// granted nowhere, protects `/dev/car/**` without granting it.
    fn one_state(rules: &str) -> CompiledPolicy {
        SackPolicy::parse(&format!(
            "states {{ s = 0; }} initial s; permissions {{ P; IDLE; }}
             state_per {{ s: P; }}
             per_rules {{ P: {rules} IDLE: allow subject=* /dev/car/** r; }}"
        ))
        .unwrap()
        .compile()
        .unwrap()
    }

    fn permits(
        policy: &CompiledPolicy,
        subject: &SubjectCtx<'_>,
        path: &str,
        requested: FilePerms,
    ) -> bool {
        policy.scan(StateId(0), subject, path, requested).permitted
    }

    #[test]
    fn state_rules_deny_by_default() {
        let policy = one_state("allow subject=* /etc/vehicle.conf r;");
        let door = policy.scan(
            StateId(0),
            &subject(None),
            "/dev/car/door0",
            FilePerms::WRITE,
        );
        assert!(door.protected, "a glob of an ungranted permission protects");
        assert!(!door.permitted);
        assert!(!permits(
            &policy,
            &subject(None),
            "/dev/car/door0",
            FilePerms::READ
        ));
        // Empty request is vacuously permitted.
        assert!(permits(
            &policy,
            &subject(None),
            "/dev/car/door0",
            FilePerms::empty()
        ));
    }

    #[test]
    fn allow_rules_accumulate() {
        let policy =
            one_state("allow subject=* /dev/car/door* r; allow subject=* /dev/car/door* w;");
        assert!(permits(
            &policy,
            &subject(None),
            "/dev/car/door0",
            FilePerms::READ | FilePerms::WRITE
        ));
        assert!(!permits(
            &policy,
            &subject(None),
            "/dev/car/door0",
            FilePerms::IOCTL
        ));
    }

    #[test]
    fn deny_overrides_allow() {
        let policy =
            one_state("allow subject=* /dev/car/** rwaxmi; deny subject=* /dev/car/door0 w;");
        assert!(!permits(
            &policy,
            &subject(None),
            "/dev/car/door0",
            FilePerms::WRITE
        ));
        assert!(permits(
            &policy,
            &subject(None),
            "/dev/car/door0",
            FilePerms::READ
        ));
        assert!(permits(
            &policy,
            &subject(None),
            "/dev/car/door1",
            FilePerms::WRITE
        ));
    }

    #[test]
    fn subject_restricted_rule() {
        let policy = one_state("allow subject=/usr/bin/rescue* /dev/car/** wi;");
        assert!(permits(
            &policy,
            &subject(Some("/usr/bin/rescue_daemon")),
            "/dev/car/door0",
            FilePerms::IOCTL
        ));
        assert!(!permits(
            &policy,
            &subject(Some("/usr/bin/malware")),
            "/dev/car/door0",
            FilePerms::IOCTL
        ));
    }

    #[test]
    fn protected_set_membership_and_dedup() {
        // The same glob twice, under two permissions, protects once.
        let policy =
            one_state("allow subject=* /etc/vehicle.conf r; allow subject=* /dev/car/** r;");
        let protected = |path| {
            policy
                .scan(StateId(0), &subject(None), path, FilePerms::READ)
                .protected
        };
        assert!(protected("/dev/car/door0"));
        assert!(protected("/etc/vehicle.conf"));
        assert!(!protected("/tmp/file"));
    }

    #[test]
    fn protected_set_handles_wildcard_first_component() {
        let policy = one_state("allow subject=* /**/shadow r;");
        let protected = |path| {
            policy
                .scan(StateId(0), &subject(None), path, FilePerms::READ)
                .protected
        };
        assert!(protected("/etc/shadow"), "global pattern still matches");
        assert!(protected("/a/b/shadow"));
        assert!(protected("/dev/car/door0"));
        assert!(!protected("/dev/audio"));
    }

    #[test]
    fn rule_display() {
        let r = MacRule::allow_exe("/usr/bin/r*", "/dev/car/**", FilePerms::WRITE).unwrap();
        assert_eq!(r.to_string(), "allow subject=/usr/bin/r* /dev/car/** w");
    }
}
