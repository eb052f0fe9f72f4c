//! Seeded-defect detection and zero-false-positive guarantees for the
//! static analyzer.
//!
//! Each `detects_*` test plants exactly one defect class in an
//! otherwise-clean policy and asserts the analyzer reports it (and only
//! it). The `shipped_*` tests run the analyzer over the real vehicle
//! bundle from `sack-vehicle` and require a completely clean report —
//! the zero-false-positive bar from the paper's tooling claims.

use sack_analyze::analyzer::{
    CHECK_PRIVILEGE_WIDENING, CHECK_PROFILE_WIDE_OPEN, CHECK_TE_WIDE_OPEN, CHECK_UNKNOWN_PROFILE,
};
use sack_analyze::{Analyzer, Report};
use sack_apparmor::parser::parse_profiles;
use sack_core::SackPolicy;
use sack_te::TePolicy;
use sack_vehicle::policies::{
    VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY, VEHICLE_SACK_POLICY,
};

fn analyze(policy: &str) -> Report {
    let policy = SackPolicy::parse(policy).expect("test policy must parse");
    Analyzer::new(&policy).run()
}

fn analyze_stacked(policy: &str, profiles: &str) -> Report {
    let policy = SackPolicy::parse(policy).expect("test policy must parse");
    let profiles = parse_profiles(profiles).expect("test profiles must parse");
    Analyzer::new(&policy).with_profiles(&profiles).run()
}

/// A minimal clean scaffold the defect tests perturb.
const CLEAN: &str = r#"
states { normal = 0; emergency = 1; }
events { crash; resolved; }
transitions {
    normal -crash-> emergency;
    emergency -resolved-> normal;
}
initial normal;
permissions { READ; RESCUE; }
state_per {
    normal: READ;
    emergency: READ, RESCUE;
}
per_rules {
    READ: allow subject=* /dev/car/** r;
    RESCUE: allow subject=/usr/bin/rescue* /dev/car/door* wi;
}
"#;

#[test]
fn clean_scaffold_is_clean() {
    let report = analyze(CLEAN);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn detects_unreachable_ssm_state() {
    // `limp_home` has transitions out but none in, and is not initial.
    let report = analyze(
        r#"
states { normal = 0; emergency = 1; limp_home = 2; }
events { crash; resolved; }
transitions {
    normal -crash-> emergency;
    emergency -resolved-> normal;
    limp_home -resolved-> normal;
}
initial normal;
permissions { READ; }
state_per { *: READ; }
per_rules { READ: allow subject=* /dev/car/** r; }
"#,
    );
    let hits: Vec<_> = report.by_check("unreachable-state").collect();
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert!(hits[0].message.contains("limp_home"));
}

#[test]
fn detects_shadowed_mac_rule() {
    // The broad rw rule makes the later, narrower door rule dead.
    let report = analyze(
        r#"
states { normal = 0; emergency = 1; }
events { crash; resolved; }
transitions {
    normal -crash-> emergency;
    emergency -resolved-> normal;
}
initial normal;
permissions { READ; }
state_per { *: READ; }
per_rules {
    READ:
        allow subject=* /dev/car/** rw;
        allow subject=* /dev/car/door* r;
}
"#,
    );
    let hits: Vec<_> = report.by_check("shadowed-rule").collect();
    assert_eq!(hits.len(), 1, "{}", report.render());
    let provenance = hits[0]
        .provenance
        .as_ref()
        .expect("shadowing has provenance");
    assert!(provenance.rule.contains("/dev/car/door*"));
}

#[test]
fn detects_allow_deny_conflict_on_overlapping_globs() {
    let report = analyze(
        r#"
states { normal = 0; emergency = 1; }
events { crash; resolved; }
transitions {
    normal -crash-> emergency;
    emergency -resolved-> normal;
}
initial normal;
permissions { READ; }
state_per { *: READ; }
per_rules {
    READ:
        allow subject=* /dev/car/door* w;
        deny subject=* /dev/car/** w;
}
"#,
    );
    let hits: Vec<_> = report.by_check("allow-deny-overlap").collect();
    assert_eq!(hits.len(), 1, "{}", report.render());
}

#[test]
fn detects_stacking_hole_in_apparmor_profile() {
    // RESCUE is emergency-gated on door writes, but the stacked profile
    // statically allows rw on all of /dev/car/** — SACK's gate is moot
    // for tasks confined by that profile.
    let profiles = r#"
profile media_app /usr/bin/media_app {
    /usr/bin/media_app rx,
    /dev/car/** rw,
}
"#;
    let report = analyze_stacked(CLEAN, profiles);
    let hits: Vec<_> = report.by_check(CHECK_PROFILE_WIDE_OPEN).collect();
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert!(hits[0].message.contains("media_app"));
    assert!(hits[0].message.contains("emergency"));

    // A blanket same-profile deny closes the hole.
    let fenced = r#"
profile media_app /usr/bin/media_app {
    /usr/bin/media_app rx,
    /dev/car/** rw,
    deny /dev/car/** w,
}
"#;
    let report = analyze_stacked(CLEAN, fenced);
    assert!(
        report.by_check(CHECK_PROFILE_WIDE_OPEN).count() == 0,
        "{}",
        report.render()
    );
}

#[test]
fn read_only_profiles_are_not_stacking_holes() {
    // r-only access to a wi-gated path shares no permission: no finding.
    let profiles = r#"
profile media_app /usr/bin/media_app {
    /dev/car/** r,
}
"#;
    let report = analyze_stacked(CLEAN, profiles);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn detects_privilege_widening() {
    // WIPE is granted to *any* subject, but only in emergency — a
    // situation flip hands every task write access it never had.
    let report = analyze(
        r#"
states { normal = 0; emergency = 1; }
events { crash; resolved; }
transitions {
    normal -crash-> emergency;
    emergency -resolved-> normal;
}
initial normal;
permissions { READ; WIPE; }
state_per {
    normal: READ;
    emergency: READ, WIPE;
}
per_rules {
    READ: allow subject=* /dev/car/** r;
    WIPE: allow subject=* /dev/car/** w;
}
"#,
    );
    let hits: Vec<_> = report.by_check(CHECK_PRIVILEGE_WIDENING).collect();
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert!(hits[0].message.contains("WIPE"));
    // The subject-scoped RESCUE-style grant in CLEAN is exempt.
    assert!(analyze(CLEAN).by_check(CHECK_PRIVILEGE_WIDENING).count() == 0);
}

#[test]
fn detects_te_stacking_hole() {
    let policy = SackPolicy::parse(CLEAN).unwrap();
    let te = TePolicy::parse(
        r#"
type media_t;
type car_dev_t;
label /dev/car/** car_dev_t;
allow media_t car_dev_t { read write ioctl };
"#,
    )
    .unwrap();
    let report = Analyzer::new(&policy).with_te(&te).run();
    let hits: Vec<_> = report.by_check(CHECK_TE_WIDE_OPEN).collect();
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert!(hits[0].message.contains("media_t"));

    // Read-only TE access to the gated path is fine.
    let te = TePolicy::parse(
        r#"
type media_t;
type car_dev_t;
label /dev/car/** car_dev_t;
allow media_t car_dev_t { read };
"#,
    )
    .unwrap();
    let report = Analyzer::new(&policy).with_te(&te).run();
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn detects_unknown_stacked_profile() {
    let policy = r#"
states { normal = 0; emergency = 1; }
events { crash; resolved; }
transitions {
    normal -crash-> emergency;
    emergency -resolved-> normal;
}
initial normal;
permissions { RESCUE; }
state_per { emergency: RESCUE; }
per_rules {
    RESCUE: allow subject=profile:resuce_daemon /dev/car/door* wi;
}
"#;
    let report = analyze_stacked(policy, VEHICLE_APPARMOR_PROFILES);
    let hits: Vec<_> = report.by_check(CHECK_UNKNOWN_PROFILE).collect();
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert!(hits[0].message.contains("resuce_daemon"), "typo is named");
}

#[test]
fn report_json_carries_check_ids_and_provenance() {
    let profiles = r#"
profile media_app /usr/bin/media_app {
    /dev/car/** rw,
}
"#;
    let report = analyze_stacked(CLEAN, profiles);
    let json = report.to_json();
    assert!(json.contains("\"check\":\"stacked-profile-wide-open\""));
    assert!(json.contains("\"provenance\""));
    assert!(json.contains("\"warnings\":1"));
}

#[test]
fn report_carries_per_state_dfa_sizes() {
    let report = analyze(CLEAN);
    assert_eq!(report.dfa.len(), 2, "one entry per situation state");
    let normal = &report.dfa[0];
    assert_eq!(normal.state, "normal");
    assert!(normal.states > 1, "matcher must have a real table");
    assert!(normal.transitions > 0);
    // The emergency matcher also folds in the exe-scoped RESCUE rule,
    // which stays on the residual scan path.
    let emergency = &report.dfa[1];
    assert_eq!(emergency.state, "emergency");
    assert_eq!(emergency.residual_rules, 1);
    assert_eq!(normal.residual_rules, 0);

    let text = report.render();
    assert!(text.contains("per-state DFA matcher:"), "{text}");
    assert!(text.contains("normal:"), "{text}");
    let json = report.to_json();
    assert!(json.contains("\"dfa\":[{\"state\":\"normal\""), "{json}");
    assert!(json.contains("\"residual_rules\":1"), "{json}");
}

#[test]
fn dfa_sizes_are_omitted_when_the_policy_does_not_compile() {
    // An undefined permission in state_per fails compile(): the checker
    // reports it and no sizes are collected.
    let report = analyze(
        r#"
states { s = 0; } initial s;
permissions { P; }
state_per { s: P, GHOST; }
per_rules { P: allow subject=* /x r; }
"#,
    );
    assert!(report.error_count() > 0);
    assert!(report.dfa.is_empty());
    assert!(!report.to_json().contains("\"dfa\""));
}

#[test]
fn report_carries_per_profile_dfa_sizes() {
    let policy = SackPolicy::parse(VEHICLE_SACK_POLICY).unwrap();
    let profiles = parse_profiles(VEHICLE_APPARMOR_PROFILES).unwrap();
    let report = Analyzer::new(&policy).with_profiles(&profiles).run();
    assert_eq!(
        report.profile_dfa.len(),
        profiles.len(),
        "one entry per stacked profile"
    );
    for (size, profile) in report.profile_dfa.iter().zip(&profiles) {
        assert_eq!(size.profile, profile.name);
        assert_eq!(size.rules, profile.path_rules.len());
        let compiled = &size.compiled;
        assert!(
            compiled.states > 1,
            "{}: matcher must have a real table",
            size.profile
        );
        assert!(compiled.transitions > 0, "{}", size.profile);
        assert!(
            size.classes > 1,
            "{}: `/` is always its own class",
            size.profile
        );
    }

    let text = report.render();
    assert!(text.contains("per-profile DFA matcher:"), "{text}");
    let json = report.to_json();
    assert!(json.contains("\"profile_dfa\":[{\"profile\":\""), "{json}");
}

#[test]
fn profile_dfa_sizes_report_dedup_groups() {
    let db = sack_apparmor::PolicyDb::new();
    db.load_text(
        "profile twin_a { /dev/car/** rw, }\n\
         profile twin_b { /dev/car/** rw, }\n\
         profile solo { /var/log/* r, }",
    )
    .unwrap();

    let sizes = sack_analyze::profile_dfa_sizes_of(&db);
    assert_eq!(sizes.len(), 3);
    let by_name = |n: &str| sizes.iter().find(|s| s.profile == n).unwrap();
    let (a, b, solo) = (by_name("twin_a"), by_name("twin_b"), by_name("solo"));
    assert_eq!(a.dedup_group, b.dedup_group, "identical bodies share a DFA");
    assert_ne!(a.dedup_group, solo.dedup_group);
    // Every profile is compiled at load; the sharers report one table.
    assert_eq!(a.compiled, b.compiled);
    for size in [a, b, solo] {
        assert!(size.compiled.states > 1, "{}", size.profile);
        assert!(size.compiled.transitions > 0, "{}", size.profile);
    }

    let report = sack_analyze::Report {
        profile_dfa: sizes,
        ..sack_analyze::Report::default()
    };
    let text = report.render();
    assert!(text.contains("[shared body group"), "{text}");
    assert!(!text.contains("uncompiled"), "{text}");
    let json = report.to_json();
    assert!(!json.contains("\"compiled\""), "{json}");
    assert!(!json.contains("null"), "{json}");
    assert!(json.contains("\"dedup_group\":"), "{json}");
}

#[test]
fn profile_load_diagnostics_surface_in_the_report() {
    let profiles = r#"
profile sloppy /usr/bin/sloppy {
    /data/file r,
    /data/file r,
}
"#;
    let report = analyze_stacked(CLEAN, profiles);
    assert!(
        report
            .by_check("duplicate-path-rule")
            .any(|d| d.message.contains("sloppy")),
        "compile-path lint missing:\n{}",
        report.render()
    );
}

// --- zero false positives on the shipped bundles -------------------------

#[test]
fn shipped_vehicle_policy_is_clean_standalone() {
    let report = analyze(VEHICLE_SACK_POLICY);
    assert!(report.is_clean(), "false positives:\n{}", report.render());
}

#[test]
fn shipped_vehicle_bundle_is_clean_fully_stacked() {
    let policy = SackPolicy::parse(VEHICLE_SACK_POLICY).unwrap();
    let profiles = parse_profiles(VEHICLE_APPARMOR_PROFILES).unwrap();
    let report = Analyzer::new(&policy).with_profiles(&profiles).run();
    assert!(report.is_clean(), "false positives:\n{}", report.render());
}

#[test]
fn shipped_enhanced_bundle_is_clean() {
    let policy = SackPolicy::parse(VEHICLE_ENHANCED_POLICY).unwrap();
    let profiles = parse_profiles(VEHICLE_APPARMOR_PROFILES).unwrap();
    let report = Analyzer::new(&policy).with_profiles(&profiles).run();
    assert!(report.is_clean(), "false positives:\n{}", report.render());
}
