//! Serialization round-trips: policies and profiles render to canonical
//! text that re-parses to an equivalent object. This is what makes the
//! SACKfs `policy` node and `apparmor_parser`-style tooling trustworthy.

use sack_apparmor::{parse_profiles, FilePerms};
use sack_core::rules::SubjectCtx;
use sack_core::{SackPolicy, StateId};

/// Strips positional metadata (rule line numbers) before AST comparison.
fn normalized(mut ast: SackPolicy) -> SackPolicy {
    for (_, rules) in &mut ast.per_rules {
        for rule in rules {
            rule.line = 0;
        }
    }
    ast
}

fn assert_policy_roundtrip(text: &str) {
    let ast = SackPolicy::parse(text).unwrap();
    let rendered = ast.to_string();
    let reparsed = SackPolicy::parse(&rendered)
        .unwrap_or_else(|e| panic!("rendered policy must parse: {e}\n{rendered}"));
    assert_eq!(normalized(ast), normalized(reparsed));
}
use sack_lmbench::workload::{synthetic_enhanced_policy, synthetic_independent_policy};
use sack_vehicle::policies::{
    VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY, VEHICLE_SACK_POLICY,
};

#[test]
fn vehicle_policy_roundtrips() {
    assert_policy_roundtrip(VEHICLE_SACK_POLICY);
}

#[test]
fn enhanced_policy_roundtrips() {
    assert_policy_roundtrip(VEHICLE_ENHANCED_POLICY);
}

#[test]
fn brace_alternation_patterns_roundtrip() {
    assert_policy_roundtrip(
        r#"states { s = 0; } initial s;
           permissions { P; }
           state_per { s: P; }
           per_rules { P: allow subject=* /dev/car/{door,window}[0-3] wi; }"#,
    );
    // And the compiled glob behaves as expected.
    let compiled = SackPolicy::parse(
        r#"states { s = 0; } initial s;
           permissions { P; }
           state_per { s: P; }
           per_rules { P: allow subject=* /dev/car/{door,window}* wi; }"#,
    )
    .unwrap()
    .compile()
    .unwrap();
    let subject = SubjectCtx {
        uid: 1000,
        exe: None,
        profile: None,
    };
    let protected = |path| {
        compiled
            .scan(StateId(0), &subject, path, FilePerms::WRITE)
            .protected
    };
    assert!(protected("/dev/car/door0"));
    assert!(protected("/dev/car/window1"));
    assert!(!protected("/dev/car/audio"));
}

#[test]
fn synthetic_policies_roundtrip() {
    for (states, rules) in [(2usize, 0usize), (5, 10), (10, 100), (100, 50)] {
        for text in [
            synthetic_independent_policy(states, rules),
            synthetic_enhanced_policy(states, rules),
        ] {
            assert_policy_roundtrip(&text);
        }
    }
}

#[test]
fn roundtripped_policy_compiles_identically() {
    let ast = SackPolicy::parse(VEHICLE_SACK_POLICY).unwrap();
    let a = ast.compile().unwrap();
    let b = SackPolicy::parse(&ast.to_string())
        .unwrap()
        .compile()
        .unwrap();
    assert_eq!(a.space().state_count(), b.space().state_count());
    assert_eq!(a.rule_count(), b.rule_count());
    assert_eq!(a.permissions().len(), b.permissions().len());
    for state in 0..a.space().state_count() {
        let state = StateId(state);
        assert_eq!(a.state_dfa(state).stats(), b.state_dfa(state).stats());
    }
}

fn profile_fingerprint(p: &sack_apparmor::Profile) -> (String, usize, usize, usize, Vec<String>) {
    (
        p.name.clone(),
        p.path_rules.len(),
        p.capabilities.len(),
        p.networks.len(),
        p.path_rules.iter().map(|r| r.to_string()).collect(),
    )
}

#[test]
fn apparmor_profiles_roundtrip() {
    let profiles = parse_profiles(VEHICLE_APPARMOR_PROFILES).unwrap();
    for profile in profiles {
        let rendered = profile.to_string();
        let reparsed = parse_profiles(&rendered)
            .unwrap_or_else(|e| panic!("rendered profile must parse: {e}\n{rendered}"));
        assert_eq!(reparsed.len(), 1);
        assert_eq!(
            profile_fingerprint(&profile),
            profile_fingerprint(&reparsed[0])
        );
        assert_eq!(profile.mode, reparsed[0].mode);
        assert_eq!(
            profile.attachment.as_ref().map(|g| g.source().to_string()),
            reparsed[0]
                .attachment
                .as_ref()
                .map(|g| g.source().to_string())
        );
    }
}

#[test]
fn complex_profile_roundtrips() {
    let text = r#"
        profile kitchen_sink /usr/bin/sink* flags=(complain) {
            capability net_bind_service,
            capability kill,
            network unix,
            network inet,
            /usr/lib/** rm,
            /dev/car/door[0-3] wi,
            /tmp/{a,b}/*.log ra,
            deny /etc/shadow rwx,
        }
    "#;
    let profile = parse_profiles(text).unwrap().remove(0);
    let reparsed = parse_profiles(&profile.to_string()).unwrap().remove(0);
    assert_eq!(
        profile_fingerprint(&profile),
        profile_fingerprint(&reparsed)
    );
    assert_eq!(reparsed.capabilities.len(), 2);
    assert_eq!(reparsed.networks.len(), 2);
    assert_eq!(reparsed.mode, sack_apparmor::ProfileMode::Complain);
}

#[test]
fn origin_tags_round_trip_as_comments_not_syntax() {
    let mut profile = sack_apparmor::Profile::new("p");
    profile.path_rules.push(
        sack_apparmor::PathRule::allow("/x", sack_apparmor::FilePerms::READ)
            .unwrap()
            .with_origin("sack"),
    );
    let rendered = profile.to_string();
    assert!(rendered.contains("# origin: sack"));
    let reparsed = parse_profiles(&rendered).unwrap().remove(0);
    // Comments are stripped, so the reparsed rule has no origin — which is
    // correct: origins are kernel-internal provenance, not policy.
    assert_eq!(reparsed.path_rules.len(), 1);
    assert_eq!(reparsed.path_rules[0].origin, None);
}
