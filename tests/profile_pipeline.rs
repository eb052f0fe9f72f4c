//! Differential properties of the profile-compilation pipeline:
//! **parallel == serial == scan** (DESIGN.md §12).
//!
//! Random profile corpora and the shipped vehicle bundle are loaded with
//! the worker pool pinned to one worker (serial) and sized to four
//! (parallel), and every compiled DFA is checked against the rule scan:
//!
//! * byte-identical verdicts on random path probes, serial DFA vs
//!   parallel DFA vs scan;
//! * verdicts equal to the scan of the confining profile, and identical
//!   audit records, for the same access sequence through two full
//!   `AppArmor` modules (serial and parallel compile);
//! * dedup pinned structurally: profiles with identical rule bodies share
//!   one `Arc<Dfa>` (`Arc::ptr_eq`), and the compile counter moves once
//!   per *distinct body*, not once per profile.

use std::collections::HashSet;
use std::sync::Arc;

use sack_suite::prop::{self, Rng};

use sack_apparmor::profile::FilePerms;
use sack_apparmor::{AppArmor, PolicyDb};
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::Pid;
use sack_vehicle::VEHICLE_APPARMOR_PROFILES;

/// Glob fragments for generated rule patterns: literals, wildcards,
/// classes, and brace alternations, all from a small byte vocabulary so
/// random probes actually collide with the rules.
#[allow(clippy::explicit_auto_deref)] // deref required for inference, as in properties.rs
fn pattern(rng: &mut Rng) -> String {
    let n = rng.range(1, 7);
    let mut out = String::from("/");
    for _ in 0..n {
        match *rng.pick_weighted(&[(3, 0u8), (2, 1), (2, 2), (1, 3), (1, 4), (1, 5), (1, 6)]) {
            0 => out.push_str(*rng.pick(&["a", "b", "dir", "door", "x1"])),
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

fn probe_path(rng: &mut Rng) -> String {
    let n = rng.range(1, 6);
    let comps: Vec<&str> = (0..n)
        .map(|_| *rng.pick(&["a", "b", "ab", "dir", "door", "door0", "x1", "q"]))
        .collect();
    format!("/{}", comps.join("/"))
}

/// A random corpus: a pool of distinct rule bodies (each stamped with a
/// unique literal rule so no two bodies can coincide by chance) and a
/// profile list where several profiles deliberately share a body.
/// Returns the corpus text and each profile's body index.
fn corpus(rng: &mut Rng) -> (String, Vec<usize>) {
    let nbodies = rng.range(2, 5);
    let bodies: Vec<String> = (0..nbodies)
        .map(|b| {
            let mut body = format!("    /body{b}/tag r,\n");
            for _ in 0..rng.range(1, 4) {
                let deny = if rng.below(4) == 0 { "deny " } else { "" };
                let perms = *rng.pick(&["r", "w", "rw", "rwm", "rx"]);
                body.push_str(&format!("    {deny}{} {perms},\n", pattern(rng)));
            }
            body
        })
        .collect();
    let nprofiles = rng.range(4, 10);
    let mut text = String::new();
    let mut assignment = Vec::with_capacity(nprofiles);
    for i in 0..nprofiles {
        let b = rng.below(bodies.len());
        assignment.push(b);
        text.push_str(&format!("profile p{i} {{\n{}}}\n", bodies[b]));
    }
    (text, assignment)
}

fn two_dbs(text: &str) -> (PolicyDb, PolicyDb) {
    let serial = PolicyDb::new();
    serial.set_compile_workers(1);
    let parallel = PolicyDb::new();
    parallel.set_compile_workers(4);
    let n = serial.load_text(text).unwrap();
    assert_eq!(parallel.load_text(text).unwrap(), n);
    (serial, parallel)
}

#[test]
fn random_corpora_load_identically_serial_parallel_scan() {
    prop::for_cases(25, |rng| {
        let (text, assignment) = corpus(rng);
        let nprofiles = assignment.len();
        let distinct: HashSet<usize> = assignment.iter().copied().collect();
        let (serial, parallel) = two_dbs(&text);

        // Dedup compiles each distinct body exactly once.
        assert_eq!(serial.compile_count(), distinct.len() as u64);
        assert_eq!(parallel.compile_count(), distinct.len() as u64);

        // Structural dedup pin at both worker counts: same body ⇔ same DFA.
        for db in [&serial, &parallel] {
            let handles: Vec<_> = (0..nprofiles)
                .map(|i| Arc::clone(db.get(&format!("p{i}")).unwrap().rules().dfa_handle()))
                .collect();
            for i in 0..nprofiles {
                for j in (i + 1)..nprofiles {
                    assert_eq!(
                        Arc::ptr_eq(&handles[i], &handles[j]),
                        assignment[i] == assignment[j],
                        "p{i} vs p{j}: DFA sharing must mirror body equality"
                    );
                }
            }
        }

        // Serial and parallel build identical tables, and every table
        // decides like the rule scan.
        let probes: Vec<String> = (0..12).map(|_| probe_path(rng)).collect();
        for i in 0..nprofiles {
            let name = format!("p{i}");
            let s = serial.get(&name).unwrap();
            let p = parallel.get(&name).unwrap();
            assert_eq!(s.rules().dfa_stats(), p.rules().dfa_stats(), "{name}");
            for probe in &probes {
                let want = s.rules().evaluate_dfa(probe);
                assert_eq!(want, p.rules().evaluate_dfa(probe), "{name} @ {probe}");
                assert_eq!(want, s.scan(probe), "{name} @ {probe} (scan)");
                assert_eq!(want, p.scan(probe), "{name} @ {probe} (scan)");
            }
        }
    });
}

fn hook_ctx(pid: u32, exe: &str) -> HookCtx {
    HookCtx::new(
        Pid(pid),
        Credentials::user(1000, 1000),
        Some(KPath::new(exe).unwrap()),
    )
}

fn open(module: &AppArmor, ctx: &HookCtx, path: &str, mask: AccessMask) -> bool {
    let path = KPath::new(path).unwrap();
    let obj = ObjectRef::regular(&path);
    module.file_open(ctx, &obj, mask).is_ok()
}

/// The shipped vehicle bundle driven through two full `AppArmor` modules
/// — serial and parallel compile, both walking the DFA: one confined task
/// per profile, a shared random access sequence, every verdict equal to
/// the scan of the task's profile, and identical audit records.
#[test]
fn vehicle_bundle_verdicts_and_audits_match_across_load_modes() {
    prop::for_cases(8, |rng| {
        let mk = |cfg: &dyn Fn(&PolicyDb)| {
            let db = Arc::new(PolicyDb::new());
            cfg(&db);
            db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
            let module = AppArmor::new(Arc::clone(&db));
            (db, module)
        };
        let (serial_db, serial) = mk(&|db| db.set_compile_workers(1));
        let (parallel_db, parallel) = mk(&|db| db.set_compile_workers(4));
        assert_eq!(parallel_db.compile_count(), serial_db.compile_count());

        let names = serial_db.profile_names();
        for module in [&serial, &parallel] {
            for (i, name) in names.iter().enumerate() {
                module.set_profile(Pid(9000 + i as u32), name).unwrap();
            }
        }

        let targets = [
            "/usr/bin/media_app",
            "/usr/lib/libc.so",
            "/media/usb/song.mp3",
            "/dev/car/door0",
            "/dev/car/engine/rpm",
            "/tmp/cache/a",
            "/etc/passwd",
            "/var/secret",
        ];
        for _ in 0..40 {
            let task = rng.below(names.len());
            let ctx = hook_ctx(9000 + task as u32, &format!("/usr/bin/{}", names[task]));
            let path = if rng.bool() {
                (*rng.pick(&targets)).to_string()
            } else {
                probe_path(rng)
            };
            let mask = if rng.bool() {
                AccessMask::READ
            } else {
                AccessMask::WRITE
            };
            let profile = serial_db.get(&names[task]).unwrap();
            let want = profile
                .scan(&path)
                .permits(FilePerms::from_access_mask(mask));
            assert_eq!(want, open(&serial, &ctx, &path, mask), "{path} (serial)");
            assert_eq!(
                want,
                open(&parallel, &ctx, &path, mask),
                "{path} (parallel)"
            );
        }

        // The two modules saw identical traffic; their audit trails must
        // be identical records, not merely equal counts.
        let want = serial.take_audit_log();
        assert!(!want.is_empty(), "denied probes must produce audit records");
        assert_eq!(want, parallel.take_audit_log(), "parallel audit diverged");
    });
}

#[test]
fn vehicle_bundle_probe_equivalence() {
    prop::for_cases(8, |rng| {
        let (serial, parallel) = two_dbs(VEHICLE_APPARMOR_PROFILES);
        let mut names = serial.profile_names();
        rng.shuffle(&mut names);
        let probes: Vec<String> = (0..16)
            .map(|_| {
                if rng.bool() {
                    probe_path(rng)
                } else {
                    (*rng.pick(&[
                        "/usr/bin/media_app",
                        "/usr/lib/libc.so",
                        "/dev/car/door0",
                        "/dev/car/engine/rpm",
                        "/tmp/cache/a",
                        "/etc/passwd",
                        "/var/secret",
                    ]))
                    .to_string()
                }
            })
            .collect();
        for name in &names {
            let s = serial.get(name).unwrap();
            let p = parallel.get(name).unwrap();
            for probe in &probes {
                let want = s.rules().evaluate_dfa(probe);
                assert_eq!(want, p.rules().evaluate_dfa(probe), "{name} @ {probe}");
                assert_eq!(want, p.scan(probe), "{name} @ {probe} (scan)");
                assert_eq!(
                    want.permits(FilePerms::READ),
                    s.scan(probe).permits(FilePerms::READ)
                );
            }
        }
        // The bundle's bodies are distinct: one build per profile.
        assert_eq!(parallel.compile_count(), serial.compile_count());
        assert_eq!(serial.compile_count(), names.len() as u64);
    });
}
