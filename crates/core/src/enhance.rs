//! SACK-enhanced AppArmor: the adaptive policy enforcer (APE) backend that
//! patches AppArmor profiles when the situation state transitions
//! (paper §III-E-3, second deployment mode).
//!
//! In this mode SACK performs no per-access checks of its own; instead, on
//! every transition it rewrites the affected AppArmor profiles — removing
//! the rules it injected for the previous state and installing the rules
//! mapped from the new state's permissions — in one table publish, then
//! refreshes task confinement so the change takes effect immediately. The
//! per-access cost is therefore exactly AppArmor's, which is how the
//! paper's Table II "SACK-enhanced AppArmor" column stays within noise of
//! the baseline.

use std::fmt;
use std::sync::Arc;

use sack_apparmor::profile::PathRule;
use sack_apparmor::AppArmor;

use crate::policy::CompiledPolicy;
use crate::rules::{RuleEffect, SubjectMatch};
use crate::situation::StateId;

/// Origin tag attached to every AppArmor rule SACK injects, so they can be
/// retracted wholesale on the next transition.
pub const SACK_RULE_ORIGIN: &str = "sack";

/// Errors applying a state's rules to AppArmor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnhanceError {
    message: String,
}

impl EnhanceError {
    fn new(message: impl Into<String>) -> Self {
        EnhanceError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EnhanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EnhanceError {}

/// The APE backend targeting AppArmor.
pub struct AppArmorEnhancer {
    apparmor: Arc<AppArmor>,
}

impl AppArmorEnhancer {
    /// Creates an enhancer over a live AppArmor module.
    pub fn new(apparmor: Arc<AppArmor>) -> Self {
        AppArmorEnhancer { apparmor }
    }

    /// The enhanced AppArmor module.
    pub fn apparmor(&self) -> &Arc<AppArmor> {
        &self.apparmor
    }

    /// Applies the rules of `state` in one AppArmor publish: every loaded
    /// profile drops the rules injected for the previous state, each target
    /// profile gains the new state's rules, and confinement is refreshed
    /// once.
    ///
    /// Only rules with a `subject=profile:<name>` selector can be attached
    /// to a specific profile; the policy checker's enhanced-mode validation
    /// ([`validate_for_enhancement`]) rejects policies relying on other
    /// selectors.
    ///
    /// # Errors
    ///
    /// [`EnhanceError`] if a referenced profile is not loaded. Every target
    /// is checked before anything publishes, so a failed transition leaves
    /// every profile as it was.
    pub fn apply_state(&self, policy: &CompiledPolicy, state: StateId) -> Result<(), EnhanceError> {
        // Collect the new rules per profile.
        let mut per_profile: Vec<(&str, Vec<PathRule>)> = Vec::new();
        for perm in policy.permissions_of(state) {
            for rule in policy.rules_of(*perm) {
                let SubjectMatch::Profile(profile) = &rule.subject else {
                    continue;
                };
                let path_rule = PathRule {
                    glob: rule.object.clone(),
                    perms: rule.perms,
                    deny: rule.effect == RuleEffect::Deny,
                    origin: Some(SACK_RULE_ORIGIN.to_string()),
                };
                match per_profile.iter_mut().find(|(name, _)| name == profile) {
                    Some((_, rules)) => rules.push(path_rule),
                    None => per_profile.push((profile, vec![path_rule])),
                }
            }
        }
        let targets: Vec<&str> = per_profile.iter().map(|(name, _)| *name).collect();
        // The previous state may have touched profiles the new one does
        // not, so every loaded profile is offered for the retraction.
        self.apparmor
            .policy()
            .patch_many(&targets, |profile| {
                let added = per_profile.iter().find(|(name, _)| *name == profile.name);
                let injected = profile
                    .path_rules
                    .iter()
                    .any(|r| r.origin.as_deref() == Some(SACK_RULE_ORIGIN));
                (added.is_some() || injected).then(|| {
                    let mut next = profile.clone();
                    next.remove_rules_with_origin(SACK_RULE_ORIGIN);
                    let added = added
                        .into_iter()
                        .flat_map(|(_, rules)| rules.iter().cloned());
                    next.path_rules.extend(added);
                    next
                })
            })
            .map_err(|e| {
                EnhanceError::new(format!(
                    "SACK policy targets AppArmor profile `{}` which is not loaded",
                    e.name
                ))
            })?;
        self.apparmor.refresh_confinement();
        Ok(())
    }
}

impl fmt::Debug for AppArmorEnhancer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppArmorEnhancer")
            .field("profiles", &self.apparmor.policy().len())
            .finish()
    }
}

/// Enhanced-mode validation: every rule must use a `profile:` subject (so
/// it can be attached to an AppArmor profile) and every referenced profile
/// must exist in `loaded_profiles`.
pub fn validate_for_enhancement(
    policy: &CompiledPolicy,
    loaded_profiles: &[String],
) -> Result<(), EnhanceError> {
    for perm in policy.permissions() {
        let id = policy
            .permission_id(&perm.name)
            .expect("permission from the policy itself");
        for rule in policy.rules_of(id) {
            match &rule.subject {
                SubjectMatch::Profile(name) => {
                    if !loaded_profiles.iter().any(|p| p == name) {
                        return Err(EnhanceError::new(format!(
                            "rule for `{}` targets profile `{name}` which is not loaded",
                            perm.name
                        )));
                    }
                }
                other => {
                    return Err(EnhanceError::new(format!(
                        "rule for `{}` uses selector `{other}`; enhanced mode requires \
                         `subject=profile:<name>`",
                        perm.name
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SackPolicy;
    use sack_apparmor::profile::{FilePerms, Profile};
    use sack_apparmor::PolicyDb;

    const ENHANCED_POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { CONTROL_CAR_DOORS; }
        state_per { emergency: CONTROL_CAR_DOORS; }
        per_rules {
            CONTROL_CAR_DOORS: allow subject=profile:rescue_daemon /dev/car/** wi;
        }
    "#;

    fn setup() -> (
        Arc<AppArmor>,
        AppArmorEnhancer,
        crate::policy::CompiledPolicy,
    ) {
        let db = Arc::new(PolicyDb::new());
        db.load(Profile::new("rescue_daemon"));
        let apparmor = AppArmor::new(db);
        let enhancer = AppArmorEnhancer::new(Arc::clone(&apparmor));
        let policy = SackPolicy::parse(ENHANCED_POLICY)
            .unwrap()
            .compile()
            .unwrap();
        (apparmor, enhancer, policy)
    }

    #[test]
    fn apply_emergency_injects_rules_and_normal_retracts() {
        let (apparmor, enhancer, policy) = setup();
        let normal = policy.space().state_id("normal").unwrap();
        let emergency = policy.space().state_id("emergency").unwrap();

        enhancer.apply_state(&policy, emergency).unwrap();
        let compiled = apparmor.policy().get("rescue_daemon").unwrap();
        assert!(compiled
            .scan("/dev/car/door0")
            .permits(FilePerms::WRITE | FilePerms::IOCTL));

        enhancer.apply_state(&policy, normal).unwrap();
        let compiled = apparmor.policy().get("rescue_daemon").unwrap();
        assert!(!compiled.scan("/dev/car/door0").permits(FilePerms::WRITE));
    }

    #[test]
    fn apply_is_idempotent() {
        let (apparmor, enhancer, policy) = setup();
        let emergency = policy.space().state_id("emergency").unwrap();
        enhancer.apply_state(&policy, emergency).unwrap();
        enhancer.apply_state(&policy, emergency).unwrap();
        let compiled = apparmor.policy().get("rescue_daemon").unwrap();
        // Rules were retracted and re-added, not duplicated.
        assert_eq!(compiled.profile().path_rules.len(), 1);
    }

    #[test]
    fn missing_target_profile_is_an_error() {
        let db = Arc::new(PolicyDb::new()); // rescue_daemon NOT loaded
        let apparmor = AppArmor::new(db);
        let enhancer = AppArmorEnhancer::new(apparmor);
        let policy = SackPolicy::parse(ENHANCED_POLICY)
            .unwrap()
            .compile()
            .unwrap();
        let emergency = policy.space().state_id("emergency").unwrap();
        let err = enhancer.apply_state(&policy, emergency).unwrap_err();
        assert!(err.to_string().contains("rescue_daemon"));
    }

    #[test]
    fn failed_transition_publishes_nothing() {
        let policy = SackPolicy::parse(
            r#"states { s0 = 0; s1 = 1; }
               events { go; }
               transitions { s0 -go-> s1; }
               initial s0;
               permissions { P0; P1; }
               state_per { s0: P0; s1: P1; }
               per_rules {
                   P0: allow subject=profile:second /s0/** r;
                   P1: allow subject=profile:first /s1/** r;
                       allow subject=profile:second /s1/** r;
               }"#,
        )
        .unwrap()
        .compile()
        .unwrap();
        let db = Arc::new(PolicyDb::new());
        db.load_text("profile first { /a r, }\nprofile second { /b r, }\nprofile third { /c r, }")
            .unwrap();
        let enhancer = AppArmorEnhancer::new(AppArmor::new(Arc::clone(&db)));
        let s0 = policy.space().state_id("s0").unwrap();
        let s1 = policy.space().state_id("s1").unwrap();
        enhancer.apply_state(&policy, s0).unwrap();
        // `second` now holds an injected rule that the transition into
        // `s1` would retract, and `s1` targets `first` ahead of it.
        assert!(db.remove("first"));
        let revision = db.revision();
        let before: Vec<_> = db
            .profile_names()
            .into_iter()
            .map(|name| db.get(&name).unwrap())
            .collect();

        let err = enhancer.apply_state(&policy, s1).unwrap_err();
        assert!(err.to_string().contains("`first`"), "{err}");
        assert_eq!(db.revision(), revision);
        assert_eq!(db.profile_names(), ["second", "third"]);
        for old in &before {
            let now = db.get(&old.profile().name).unwrap();
            assert!(Arc::ptr_eq(&now, old), "{} changed", old.profile().name);
        }
        assert!(db
            .get("second")
            .unwrap()
            .rules()
            .evaluate_dfa("/s0/x")
            .permits(FilePerms::READ));
    }

    #[test]
    fn validation_requires_profile_subjects() {
        let policy = SackPolicy::parse(
            r#"states { a = 0; } initial a;
               permissions { P; }
               state_per { a: P; }
               per_rules { P: allow subject=* /x r; }"#,
        )
        .unwrap()
        .compile()
        .unwrap();
        let err = validate_for_enhancement(&policy, &["p".to_string()]).unwrap_err();
        assert!(err.to_string().contains("enhanced mode requires"));
    }

    #[test]
    fn validation_requires_loaded_profiles() {
        let policy = SackPolicy::parse(ENHANCED_POLICY)
            .unwrap()
            .compile()
            .unwrap();
        assert!(validate_for_enhancement(&policy, &["rescue_daemon".to_string()]).is_ok());
        let err = validate_for_enhancement(&policy, &[]).unwrap_err();
        assert!(err.to_string().contains("not loaded"));
    }
}
