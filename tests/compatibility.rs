//! Integration test: compatibility with AppArmor under LSM stacking
//! (paper Q3, §IV-D) — "we test the compatibility with 10 different SACK
//! policies for independent SACK and SACK-enhanced AppArmor, and they all
//! work well with default AppArmor policies".

use std::sync::Arc;

use sack_apparmor::{AppArmor, PolicyDb};
use sack_core::{EnforcementMode, Sack};
use sack_kernel::cred::Credentials;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::SecurityModule;
use sack_kernel::path::KPath;
use sack_kernel::types::Mode;
use sack_vehicle::policies::VEHICLE_APPARMOR_PROFILES;

/// Generates the i-th of ten distinct SACK policies: different state
/// machine sizes, event vocabularies and object trees.
fn sack_policy(i: usize, enhanced: bool) -> String {
    let states = 2 + (i % 4); // 2..5 states
    let subject = if enhanced {
        "subject=profile:media_app".to_string()
    } else {
        "subject=*".to_string()
    };
    let mut text = String::from("states {\n");
    for s in 0..states {
        text.push_str(&format!("  st{s} = {s};\n"));
    }
    text.push_str("}\nevents {\n");
    for s in 0..states {
        text.push_str(&format!("  ev{s};\n"));
    }
    text.push_str("}\ntransitions {\n");
    for s in 0..states {
        let next = (s + 1) % states;
        text.push_str(&format!("  st{s} -ev{next}-> st{next};\n"));
    }
    text.push_str("}\ninitial st0;\npermissions {\n");
    for s in 0..states {
        text.push_str(&format!("  PERM{s};\n"));
    }
    text.push_str("}\nstate_per {\n");
    for s in 0..states {
        text.push_str(&format!("  st{s}: PERM{s};\n"));
    }
    text.push_str("}\nper_rules {\n");
    for s in 0..states {
        text.push_str(&format!(
            "  PERM{s}: allow {subject} /srv/policy{i}/state{s}/** rw;\n"
        ));
    }
    text.push_str("}\n");
    text
}

fn boot_stacked(sack: &Arc<Sack>, apparmor: &Arc<AppArmor>) -> Arc<Kernel> {
    // CONFIG_LSM="SACK,AppArmor": SACK first, as the paper requires.
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(sack) as Arc<dyn SecurityModule>)
        .security_module(Arc::clone(apparmor) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    kernel
}

fn default_apparmor() -> Arc<AppArmor> {
    let db = Arc::new(PolicyDb::new());
    db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
    AppArmor::new(db)
}

/// Smoke workload: ordinary file business under both modules at once.
fn run_workload(kernel: &Arc<Kernel>) {
    let proc = kernel.spawn(Credentials::user(1000, 1000));
    proc.write_file("/tmp/compat.txt", b"hello").unwrap();
    assert_eq!(proc.read_to_vec("/tmp/compat.txt").unwrap(), b"hello");
    proc.stat("/tmp/compat.txt").unwrap();
    let child = proc.fork().unwrap();
    child.unlink("/tmp/compat.txt").unwrap();
    child.exit();
    proc.exit();
}

#[test]
fn ten_independent_sack_policies_stack_with_default_apparmor() {
    for i in 0..10 {
        let sack =
            Sack::independent(&sack_policy(i, false)).unwrap_or_else(|e| panic!("policy {i}: {e}"));
        assert_eq!(sack.mode(), EnforcementMode::Independent);
        let apparmor = default_apparmor();
        let kernel = boot_stacked(&sack, &apparmor);
        assert_eq!(kernel.lsm().module_names(), vec!["sack", "apparmor"]);
        run_workload(&kernel);
    }
}

#[test]
fn ten_enhanced_policies_stack_with_default_apparmor() {
    for i in 0..10 {
        let apparmor = default_apparmor();
        let sack = Sack::enhanced_apparmor(&sack_policy(i, true), Arc::clone(&apparmor))
            .unwrap_or_else(|e| panic!("policy {i}: {e}"));
        assert_eq!(sack.mode(), EnforcementMode::EnhancedAppArmor);
        let kernel = boot_stacked(&sack, &apparmor);
        run_workload(&kernel);
        // The enhanced policy injected its initial-state rules into the
        // target profile without disturbing the default rules.
        let profile = apparmor.policy().get("media_app").unwrap();
        assert!(profile
            .scan("/usr/bin/media_app")
            .permits(sack_apparmor::FilePerms::EXEC));
    }
}

#[test]
fn sack_denial_short_circuits_before_apparmor() {
    // White-list combination: when SACK denies, AppArmor is never asked.
    let policy = r#"
        states { s = 0; } initial s;
        permissions { P; }
        state_per { s: P; }
        per_rules { P: allow subject=/usr/bin/privileged /locked/** rw; }
    "#;
    let sack = Sack::independent(policy).unwrap();
    let apparmor = default_apparmor();
    let kernel = boot_stacked(&sack, &apparmor);
    kernel
        .vfs()
        .mkdir_all(&KPath::new("/locked").unwrap())
        .unwrap();
    kernel
        .vfs()
        .create_file(
            &KPath::new("/locked/data").unwrap(),
            Mode(0o666),
            sack_kernel::Uid::ROOT,
            sack_kernel::Gid(0),
        )
        .unwrap();
    let proc = kernel.spawn(Credentials::user(1000, 1000));
    let err = proc
        .open("/locked/data", OpenFlags::read_only())
        .unwrap_err();
    assert_eq!(err.context(), Some("sack"), "SACK must answer first");
    // AppArmor never audited the access (the proc is unconfined anyway,
    // but the audit log must be empty in any case).
    assert!(apparmor.take_audit_log().is_empty());
}

#[test]
fn apparmor_still_denies_what_sack_allows() {
    // Stacking is restrictive: SACK allowing an access does not bypass
    // AppArmor's own policy.
    let policy = r#"
        states { s = 0; } initial s;
        permissions { P; }
        state_per { s: P; }
        per_rules { P: allow subject=* /etc/secret.conf rw; }
    "#;
    let sack = Sack::independent(policy).unwrap();
    let db = Arc::new(PolicyDb::new());
    db.load_text("profile jailed { /tmp/** rw, }").unwrap();
    let apparmor = AppArmor::new(db);
    let kernel = boot_stacked(&sack, &apparmor);
    kernel
        .vfs()
        .create_file(
            &KPath::new("/etc/secret.conf").unwrap(),
            Mode(0o666),
            sack_kernel::Uid::ROOT,
            sack_kernel::Gid(0),
        )
        .unwrap();
    let proc = kernel.spawn(Credentials::user(1000, 1000));
    apparmor.set_profile(proc.pid(), "jailed").unwrap();
    let err = proc
        .open("/etc/secret.conf", OpenFlags::read_only())
        .unwrap_err();
    assert_eq!(err.context(), Some("apparmor"));
}

#[test]
fn stacking_order_is_the_declared_order() {
    let sack = Sack::independent(
        "states { s = 0; } initial s; permissions { P; } state_per { s: P; } \
         per_rules { P: allow subject=* /x r; }",
    )
    .unwrap();
    let apparmor = default_apparmor();
    // Reverse order: AppArmor first.
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    assert_eq!(kernel.lsm().module_names(), vec!["apparmor", "sack"]);
}

#[test]
fn independent_sack_with_profile_oracle_uses_apparmor_domains() {
    // Cross-module cooperation: independent SACK resolving
    // `subject=profile:` selectors against live AppArmor confinement.
    let policy = r#"
        states { s = 0; } initial s;
        permissions { P; }
        state_per { s: P; }
        per_rules { P: allow subject=profile:media_app /srv/media/** rw; }
    "#;
    let sack = Sack::independent(policy).unwrap();
    let apparmor = default_apparmor();
    sack.set_profile_oracle(Arc::clone(&apparmor));
    let kernel = boot_stacked(&sack, &apparmor);
    kernel
        .vfs()
        .mkdir_all(&KPath::new("/srv/media").unwrap())
        .unwrap();
    kernel
        .vfs()
        .create_file(
            &KPath::new("/srv/media/track.mp3").unwrap(),
            Mode(0o666),
            sack_kernel::Uid::ROOT,
            sack_kernel::Gid(0),
        )
        .unwrap();
    // AppArmor's media_app profile must also allow the path for the
    // stacked check to pass.
    apparmor
        .policy()
        .patch("media_app", |p| {
            p.path_rules.push(
                sack_apparmor::PathRule::allow(
                    "/srv/media/**",
                    sack_apparmor::FilePerms::READ | sack_apparmor::FilePerms::WRITE,
                )
                .unwrap(),
            );
        })
        .unwrap();
    let media = kernel.spawn(Credentials::user(1001, 1001));
    apparmor.set_profile(media.pid(), "media_app").unwrap();
    assert!(media.read_to_vec("/srv/media/track.mp3").is_ok());

    let other = kernel.spawn(Credentials::user(1002, 1002));
    let err = other.read_to_vec("/srv/media/track.mp3").unwrap_err();
    assert_eq!(err.context(), Some("sack"));
}
