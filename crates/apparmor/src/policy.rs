//! The profile database: loaded profiles, compiled for enforcement, with
//! live replacement.
//!
//! Live replacement (`apparmor_parser -r` on a real system) is the primitive
//! SACK-enhanced AppArmor builds on: when the situation state transitions,
//! the adaptive policy enforcer patches the affected profiles and the new
//! compiled form is swapped in atomically.
//!
//! The profile table — name to compiled profile, nothing else — is
//! published as one [`Rcu`] snapshot: hook-side lookups are wait-free
//! `Arc` reads, while every load, replacement, patch and removal
//! serializes on the `Rcu` writer lock and swaps in a new table whose
//! copy clones only `Arc`s.
//!
//! Every install takes one path and compiles eagerly, as `apparmor_parser`
//! does before the kernel loads a profile. Each profile's DFA is built over
//! the byte classes of its own globs, so an edit recompiles the edited
//! profile and nothing else. Identical rule bodies share one DFA: a
//! writer-side map keeps every body the database has compiled, and the
//! bodies it lacks are built across the bounded worker pool
//! ([`pipeline::map_parallel`]) before the new table publishes, so a hook
//! only ever walks a finished table. Several profiles can be rewritten in
//! one publish ([`PolicyDb::patch_many`]), which is how an enhanced-mode
//! situation transition reaches AppArmor.

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use sack_kernel::trace::{TraceEvent, TraceHub};
use sack_kernel::Rcu;

use crate::dfa::Dfa;
use crate::matcher::{self, build_dfa, CompiledRules, RuleDecision};
use crate::parser::{parse_profiles, ParseProfileError};
use crate::pipeline;
use crate::profile::{PathRule, Profile};

/// Diagnostic check name: a profile's unified DFA exceeded the state
/// budget (pathological rule sets; enforcement still works but the table
/// is large).
pub const CHECK_PROFILE_DFA_BLOWUP: &str = "profile-dfa-state-blowup";

/// Diagnostic check name: the same glob/perms/deny rule appears twice in
/// one profile (harmless but usually a sign of a bad merge or a logprof
/// promotion that re-added an existing rule).
pub const CHECK_DUPLICATE_PATH_RULE: &str = "duplicate-path-rule";

/// State budget for [`CHECK_PROFILE_DFA_BLOWUP`].
pub const PROFILE_DFA_STATE_BUDGET: usize = 64 * 1024;

/// A lint produced while compiling a profile into the database.
///
/// Every path that compiles a profile — `load`, `load_text`, `patch`, and
/// therefore also `logprof` promotion — funnels through the same compile
/// routine, so the diagnostics fire uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadDiagnostic {
    /// Name of the profile the diagnostic is about.
    pub profile: String,
    /// Stable check identifier (e.g. [`CHECK_DUPLICATE_PATH_RULE`]).
    pub check: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LoadDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.profile, self.check, self.message)
    }
}

/// A profile together with its compiled rule index.
pub struct CompiledProfile {
    profile: Profile,
    rules: CompiledRules,
}

impl CompiledProfile {
    /// The source profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The compiled rule index.
    pub fn rules(&self) -> &CompiledRules {
        &self.rules
    }

    /// Evaluates `path` by scanning the profile's own rules: the oracle
    /// [`CompiledRules::evaluate_dfa`] must agree with. No hook calls it.
    pub fn scan(&self, path: &str) -> RuleDecision {
        matcher::scan(&self.profile.path_rules, path)
    }
}

impl fmt::Debug for CompiledProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProfile")
            .field("name", &self.profile.name)
            .field("rules", &self.profile.path_rules.len())
            .finish()
    }
}

/// Error returned when an operation references an unknown profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProfileError {
    /// The profile name that was not found.
    pub name: String,
}

impl fmt::Display for UnknownProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown profile `{}`", self.name)
    }
}

impl std::error::Error for UnknownProfileError {}

/// Content hash of a profile's rule body: the full rule list with origin
/// metadata stripped. Profiles whose bodies map to the same key share one
/// compiled DFA — `HashMap` hashing is the content hash, and the
/// full-key equality check makes collisions impossible rather than rare.
type DedupKey = Vec<(String, u8, bool)>;

fn body_key(rules: &[PathRule]) -> DedupKey {
    rules
        .iter()
        .map(|r| (r.glob.to_string(), r.perms.bits(), r.deny))
        .collect()
}

/// One immutable snapshot of the loaded profiles, by name. Copy-on-write
/// updates clone it, which clones `Arc`s only.
type ProfileTable = HashMap<Arc<str>, Arc<CompiledProfile>>;

/// The loaded-policy database.
pub struct PolicyDb {
    table: Rcu<ProfileTable>,
    revision: AtomicU64,
    /// Worker cap for the bulk-compile pool; 0 means
    /// [`pipeline::default_workers`].
    workers: AtomicUsize,
    /// Number of DFA builds actually performed. Dedup reuse does not count.
    profile_compiles: AtomicU64,
    /// Rule body → its DFA, for every body ever installed. Writer-side
    /// state: only installs touch it, under the table's writer lock, and
    /// the hook never reads it.
    dedup: Mutex<HashMap<DedupKey, Arc<Dfa<RuleDecision>>>>,
    diagnostics: Mutex<Vec<LoadDiagnostic>>,
    /// Tracepoint hub for `profile_recompile` events. Set once when tracing
    /// is installed on the owning [`Sack`](../../sack_core/struct.Sack.html);
    /// a `OnceLock` keeps the untraced cost to one load + branch.
    trace: OnceLock<Arc<TraceHub>>,
}

impl Default for PolicyDb {
    fn default() -> Self {
        PolicyDb {
            table: Rcu::new(ProfileTable::new()),
            revision: AtomicU64::new(0),
            workers: AtomicUsize::new(0),
            profile_compiles: AtomicU64::new(0),
            dedup: Mutex::new(HashMap::new()),
            diagnostics: Mutex::new(Vec::new()),
            trace: OnceLock::new(),
        }
    }
}

impl PolicyDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        PolicyDb::default()
    }

    /// Connects the database to a tracepoint hub so every profile compile
    /// emits a `profile_recompile` event. Idempotent: the first hub wins
    /// (matching the attach-once lifecycle of SACK tracing); later calls
    /// with a different hub are ignored.
    pub fn set_trace_hub(&self, hub: Arc<TraceHub>) {
        let _ = self.trace.set(hub);
    }

    /// Caps the bulk-compile worker pool; `0` (the default) sizes it
    /// to the machine's available parallelism.
    pub fn set_compile_workers(&self, workers: usize) {
        self.workers.store(workers, Ordering::SeqCst);
    }

    /// The configured worker cap after resolving `0` to the machine
    /// default.
    pub fn compile_workers(&self) -> usize {
        match self.workers.load(Ordering::SeqCst) {
            0 => pipeline::default_workers(),
            n => n,
        }
    }

    /// The one install path behind `load`, `load_many`, `load_text`,
    /// `patch` and `patch_many`. `edit` reads the current table and returns
    /// the profiles to install, each replacing the loaded profile of its
    /// name; the result is one publish and one revision bump when some
    /// profile changed, and no publish at all otherwise. An `Err` from
    /// `edit` leaves the table and the revision as they were. Returns each
    /// installed profile's handle, in order.
    fn install<E>(
        &self,
        edit: impl FnOnce(&ProfileTable) -> Result<Vec<Profile>, E>,
    ) -> Result<Vec<Arc<CompiledProfile>>, E> {
        let (handles, changed) = self.table.update(|table| match edit(table) {
            Ok(incoming) => {
                let (next, handles) = self.install_many(table, incoming);
                let changed = next.is_some();
                (next, Ok((handles, changed)))
            }
            Err(e) => (None, Err(e)),
        })?;
        if changed {
            self.revision.fetch_add(1, Ordering::Release);
        }
        Ok(handles)
    }

    /// Builds the table that installs `incoming` over `table`. A profile
    /// equal to the loaded one keeps its handle; every other profile gets a
    /// new one whose DFA comes from the dedup map, where each body the map
    /// lacks is first compiled across the worker pool. Returns the next
    /// table, `None` when no profile changed, and the handles of
    /// `incoming` in order.
    fn install_many(
        &self,
        table: &ProfileTable,
        incoming: Vec<Profile>,
    ) -> (Option<ProfileTable>, Vec<Arc<CompiledProfile>>) {
        // The profiles that change the table, by index, with their bodies.
        let changed: Vec<(usize, DedupKey)> = incoming
            .iter()
            .enumerate()
            .filter(|(_, p)| table.get(p.name.as_str()).is_none_or(|c| c.profile() != *p))
            .map(|(i, p)| {
                let key = body_key(&p.path_rules);
                self.lint(&p.name, &key);
                (i, key)
            })
            .collect();
        let mut dedup = self.dedup.lock();
        // The first profile to bring each body the map lacks.
        let mut queued = HashSet::new();
        let fresh: Vec<&(usize, DedupKey)> = changed
            .iter()
            .filter(|(_, key)| !dedup.contains_key(key) && queued.insert(key))
            .collect();
        // Each build reads only its own rules, so they run across the
        // pool. Sizing the pool asks `available_parallelism`, which reads
        // cgroup files on Linux (~17 µs, more than a small profile's
        // build), so an install that compiles at most one body runs inline
        // without asking.
        let workers = if fresh.len() > 1 {
            self.compile_workers()
        } else {
            1
        };
        let dfas = pipeline::map_parallel(&fresh, workers, |(i, _)| {
            build_dfa(&incoming[*i].path_rules)
        });
        for ((i, key), dfa) in fresh.into_iter().zip(dfas) {
            self.record_compile(&incoming[*i].name, &dfa);
            dedup.insert(key.clone(), Arc::new(dfa));
        }
        let mut next = (!changed.is_empty()).then(|| table.clone());
        let mut changed = changed.into_iter().peekable();
        let handles = incoming
            .into_iter()
            .enumerate()
            .map(|(i, profile)| {
                let compiled = match changed.next_if(|(j, _)| *j == i) {
                    Some((_, key)) => {
                        let rules = CompiledRules::from_dfa(Arc::clone(&dedup[&key]));
                        Arc::new(CompiledProfile { profile, rules })
                    }
                    None => Arc::clone(&table[profile.name.as_str()]),
                };
                if let Some(next) = next.as_mut() {
                    next.insert(
                        compiled.profile().name.as_str().into(),
                        Arc::clone(&compiled),
                    );
                }
                compiled
            })
            .collect();
        (next, handles)
    }

    /// Accounts for one DFA build: bump the build counter, emit the
    /// `profile_recompile` tracepoint, and lint for state blowup. `name` is
    /// the profile that introduced the body; body-sharing profiles ride on
    /// its one event.
    fn record_compile(&self, name: &str, dfa: &Dfa<RuleDecision>) {
        self.profile_compiles.fetch_add(1, Ordering::Relaxed);
        if let Some(hub) = self.trace.get() {
            if hub.enabled() {
                hub.emit(&TraceEvent::ProfileRecompile {
                    profile: name.to_string(),
                });
            }
        }
        let states = dfa.stats().states;
        if states > PROFILE_DFA_STATE_BUDGET {
            self.diagnostics.lock().push(LoadDiagnostic {
                profile: name.to_string(),
                check: CHECK_PROFILE_DFA_BLOWUP,
                message: format!(
                    "compiled DFA has {states} states (budget {PROFILE_DFA_STATE_BUDGET})"
                ),
            });
        }
    }

    /// Source-level lints that do not need the compiled form, run on a
    /// profile's body key.
    fn lint(&self, name: &str, body: &DedupKey) {
        let mut seen = HashSet::new();
        for rule in body {
            if !seen.insert(rule) {
                self.diagnostics.lock().push(LoadDiagnostic {
                    profile: name.to_string(),
                    check: CHECK_DUPLICATE_PATH_RULE,
                    message: format!("rule `{}` appears more than once", rule.0),
                });
            }
        }
    }

    /// Loads (or replaces) a profile.
    pub fn load(&self, profile: Profile) -> Arc<CompiledProfile> {
        let Ok(mut handles) = self.install(|_| Ok::<_, Infallible>(vec![profile]));
        handles.pop().expect("one profile installed")
    }

    /// Loads a whole bundle of already-parsed profiles as one atomic
    /// table swap (one parallel compile pass).
    pub fn load_many(&self, profiles: Vec<Profile>) -> usize {
        let n = profiles.len();
        let Ok(_) = self.install(|_| Ok::<_, Infallible>(profiles));
        n
    }

    /// Parses profile-language text and loads every profile in it as one
    /// atomic table swap.
    ///
    /// # Errors
    ///
    /// Syntax errors from the profile parser.
    pub fn load_text(&self, text: &str) -> Result<usize, ParseProfileError> {
        Ok(self.load_many(parse_profiles(text)?))
    }

    /// Removes a profile; returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self.table.update(|table| {
            if !table.contains_key(name) {
                return (None, false);
            }
            let mut next = table.clone();
            next.remove(name);
            (Some(next), true)
        });
        if removed {
            self.revision.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Looks up a compiled profile by name (wait-free snapshot read).
    pub fn get(&self, name: &str) -> Option<Arc<CompiledProfile>> {
        self.table.read().get(name).cloned()
    }

    /// Finds the profile attached to executables at `exe_path`.
    ///
    /// When several attachments match, the most specific one wins: the
    /// attachment glob with the longest literal prefix, and among equals
    /// the profile whose name sorts first. The choice therefore depends
    /// only on the loaded profiles, never on table iteration order.
    pub fn find_by_attachment(&self, exe_path: &str) -> Option<Arc<CompiledProfile>> {
        let table = self.table.read();
        table
            .values()
            .filter_map(|p| {
                let glob = p.profile().attachment.as_ref()?;
                glob.matches(exe_path)
                    .then_some((glob.literal_prefix().len(), p))
            })
            .max_by(|(a_len, a), (b_len, b)| {
                a_len
                    .cmp(b_len)
                    .then_with(|| b.profile().name.cmp(&a.profile().name))
            })
            .map(|(_, p)| Arc::clone(p))
    }

    /// Applies `patch` to the named profile and atomically swaps in the
    /// recompiled result. This models `apparmor_parser -r`.
    ///
    /// Only the patched profile is recompiled, and a patch that leaves the
    /// profile unchanged returns the existing handle without recompiling or
    /// bumping the revision.
    ///
    /// # Errors
    ///
    /// [`UnknownProfileError`] if the profile is not loaded.
    pub fn patch<F>(
        &self,
        name: &str,
        patch: F,
    ) -> Result<Arc<CompiledProfile>, UnknownProfileError>
    where
        F: FnOnce(&mut Profile),
    {
        let mut handles = self.install(|table| {
            let current = table.get(name).ok_or_else(|| UnknownProfileError {
                name: name.to_string(),
            })?;
            let mut profile = current.profile().clone();
            patch(&mut profile);
            Ok(vec![profile])
        })?;
        Ok(handles.pop().expect("one profile installed"))
    }

    /// Rewrites any number of loaded profiles in one table swap: `edit`
    /// sees every loaded profile, in name order, and returns its new form,
    /// or `None` to leave it as it is. Profiles `edit` returns unchanged
    /// keep their handles, and the revision moves once if anything changed.
    ///
    /// # Errors
    ///
    /// [`UnknownProfileError`] naming the first of `targets` that is not
    /// loaded. It is checked before `edit` runs, and no profile or revision
    /// changes.
    pub fn patch_many<F>(&self, targets: &[&str], mut edit: F) -> Result<(), UnknownProfileError>
    where
        F: FnMut(&Profile) -> Option<Profile>,
    {
        self.install(|table| {
            if let Some(missing) = targets.iter().find(|name| !table.contains_key(**name)) {
                return Err(UnknownProfileError {
                    name: missing.to_string(),
                });
            }
            let mut loaded: Vec<&Profile> = table.values().map(|c| c.profile()).collect();
            loaded.sort_by(|a, b| a.name.cmp(&b.name));
            Ok(loaded.into_iter().filter_map(&mut edit).collect())
        })?;
        Ok(())
    }

    /// Monotonic policy revision; bumps once per publish that changes a
    /// profile (a no-op patch or reload does not count). The table is always published
    /// before the revision moves, mirroring the publish-before-bump
    /// ordering of SACK's `ActivePolicy` swap.
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// Names of loaded profiles (sorted).
    pub fn profile_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .table
            .read()
            .keys()
            .map(|name| name.to_string())
            .collect();
        names.sort();
        names
    }

    /// Number of loaded profiles.
    pub fn len(&self) -> usize {
        self.table.read().len()
    }

    /// True if no profiles are loaded.
    pub fn is_empty(&self) -> bool {
        self.table.read().is_empty()
    }

    /// Total DFA builds since creation: one per distinct rule body ever
    /// installed, since no compiled body is dropped or rebuilt. A
    /// single-profile edit moves it by at most one.
    pub fn compile_count(&self) -> u64 {
        self.profile_compiles.load(Ordering::Relaxed)
    }

    /// Drains the accumulated load diagnostics (lints fire on every
    /// compile path, including `logprof` promotions).
    pub fn take_load_diagnostics(&self) -> Vec<LoadDiagnostic> {
        std::mem::take(&mut *self.diagnostics.lock())
    }
}

impl fmt::Debug for PolicyDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyDb")
            .field("profiles", &self.profile_names())
            .field("revision", &self.revision())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{FilePerms, PathRule};

    #[test]
    fn load_and_get() {
        let db = PolicyDb::new();
        db.load(Profile::new("a"));
        assert!(db.get("a").is_some());
        assert!(db.get("b").is_none());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn load_text_parses_and_loads() {
        let db = PolicyDb::new();
        let n = db
            .load_text("profile x { /a r, }\nprofile y { /b w, }")
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.profile_names(), vec!["x", "y"]);
    }

    #[test]
    fn attachment_lookup() {
        let db = PolicyDb::new();
        db.load(
            Profile::new("media")
                .with_attachment("/usr/bin/media*")
                .unwrap(),
        );
        assert_eq!(
            db.find_by_attachment("/usr/bin/media_app")
                .unwrap()
                .profile()
                .name,
            "media"
        );
        assert!(db.find_by_attachment("/usr/bin/other").is_none());
    }

    #[test]
    fn overlapping_attachments_pick_the_same_profile_in_every_db() {
        let general = "profile general /usr/bin/* { /tmp/** r, }";
        let media = "profile media /usr/bin/media* { /media/** r, }";
        // Equal literal prefixes (`/opt/x`): the name decides.
        let ties = "profile zeta /opt/x* { }\nprofile alpha /opt/x? { }";
        for _ in 0..32 {
            for text in [format!("{general}\n{media}"), format!("{media}\n{general}")] {
                let db = PolicyDb::new();
                db.load_text(&text).unwrap();
                db.load_text(ties).unwrap();
                let attached =
                    |exe: &str| db.find_by_attachment(exe).unwrap().profile().name.clone();
                assert_eq!(
                    attached("/usr/bin/media_app"),
                    "media",
                    "longest prefix wins"
                );
                assert_eq!(attached("/usr/bin/other"), "general");
                assert_eq!(attached("/opt/xy"), "alpha", "ties break by name");
                assert_eq!(attached("/opt/xyz"), "zeta");
            }
        }
    }

    #[test]
    fn patch_recompiles_and_bumps_revision() {
        let db = PolicyDb::new();
        db.load(Profile::new("d"));
        let r0 = db.revision();
        db.patch("d", |p| {
            p.path_rules
                .push(PathRule::allow("/new", FilePerms::READ).unwrap());
        })
        .unwrap();
        assert!(db.revision() > r0);
        let compiled = db.get("d").unwrap();
        assert!(compiled.scan("/new").permits(FilePerms::READ));
    }

    #[test]
    fn patch_unknown_profile_errors() {
        let db = PolicyDb::new();
        let err = db.patch("nope", |_| {}).unwrap_err();
        assert_eq!(err.name, "nope");
    }

    #[test]
    fn remove_profile() {
        let db = PolicyDb::new();
        db.load(Profile::new("a"));
        assert!(db.remove("a"));
        assert!(!db.remove("a"));
        assert!(db.is_empty());
    }

    #[test]
    fn old_compiled_handles_stay_valid_after_patch() {
        // Enforcement paths hold an Arc snapshot; a live replacement must
        // not invalidate in-flight checks.
        let db = PolicyDb::new();
        db.load(Profile::new("d").with_rule(PathRule::allow("/old", FilePerms::READ).unwrap()));
        let old = db.get("d").unwrap();
        db.patch("d", |p| p.path_rules.clear()).unwrap();
        assert!(old.scan("/old").permits(FilePerms::READ));
        assert!(!db.get("d").unwrap().scan("/old").permits(FilePerms::READ));
    }

    #[test]
    fn patch_recompiles_only_the_touched_profile() {
        let db = PolicyDb::new();
        db.load_text("profile x { /dev/car/* rw, }\nprofile y { /dev/can0 r, }")
            .unwrap();
        let untouched = db.get("y").unwrap();
        let compiles = db.compile_count();
        // `%` is a byte no loaded rule mentions: it splits a byte class of
        // `x` and of nothing else.
        db.patch("x", |p| {
            p.path_rules
                .push(PathRule::allow("/dev/c%r", FilePerms::READ).unwrap());
        })
        .unwrap();
        assert_eq!(db.compile_count(), compiles + 1, "only `x` recompiled");
        assert!(
            Arc::ptr_eq(&db.get("y").unwrap(), &untouched),
            "untouched profile was rebuilt"
        );
        assert!(db
            .get("x")
            .unwrap()
            .rules()
            .evaluate_dfa("/dev/c%r")
            .permits(FilePerms::READ));
    }

    /// A replacement that changes only a number in a literal compiles that
    /// one body, however often it repeats, and never touches a bystander.
    #[test]
    fn replacements_beside_a_bystander_compile_once_each() {
        let db = PolicyDb::new();
        db.load_text("profile bystander { /var/log/0123456789/* r, }")
            .unwrap();
        let bystander = db.get("bystander").unwrap();
        let compiles = db.compile_count();
        for i in 0..50 {
            db.load_text(&format!("profile p {{ /data/file{i} rw, }}"))
                .unwrap();
        }
        assert_eq!(db.compile_count(), compiles + 50);
        assert!(Arc::ptr_eq(&db.get("bystander").unwrap(), &bystander));
    }

    /// Every body stays compiled: going back to an earlier body reuses
    /// its DFA.
    #[test]
    fn lone_profile_replacements_compile_once_each() {
        let db = PolicyDb::new();
        let replace = |i: usize| {
            db.load_text(&format!("profile p {{ /data/file{i} rw, }}"))
                .unwrap();
        };
        (0..500).for_each(replace);
        assert_eq!(db.compile_count(), 500);
        (0..50).for_each(replace);
        assert_eq!(db.compile_count(), 500);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn noop_patch_skips_recompile_and_revision() {
        let db = PolicyDb::new();
        db.load(Profile::new("d").with_rule(PathRule::allow("/a", FilePerms::READ).unwrap()));
        let before = db.get("d").unwrap();
        let r0 = db.revision();
        let compiles = db.compile_count();
        let handle = db
            .patch("d", |p| {
                p.remove_rules_with_origin("sack");
            })
            .unwrap();
        assert!(Arc::ptr_eq(&handle, &before), "handle must be reused");
        assert_eq!(db.revision(), r0, "no-op patch must not bump revision");
        assert_eq!(db.compile_count(), compiles);
        // Reloading an identical profile is the same no-op.
        let handle = db.load(before.profile().clone());
        assert!(Arc::ptr_eq(&handle, &before));
        assert_eq!(db.revision(), r0);
    }

    /// A write that changes no profile publishes no table: the cell's
    /// generation stays put through a no-op patch, an identical reload, a
    /// failed or empty `patch_many` and edits of unknown names.
    #[test]
    fn noop_writes_publish_no_table() {
        let db = PolicyDb::new();
        db.load_text("profile d { /a r, }\nprofile e { /b w, }")
            .unwrap();
        let generation = db.table.generation();
        db.patch("d", |_| {}).unwrap();
        db.load(db.get("d").unwrap().profile().clone());
        db.load_text("profile d { /a r, }").unwrap();
        let failed = db.patch_many(&["d", "ghost"], |p| Some(Profile::new(p.name.clone())));
        assert_eq!(failed.unwrap_err().name, "ghost");
        db.patch_many(&["d"], |_| None).unwrap();
        assert!(db.patch("ghost", |_| {}).is_err());
        assert!(!db.remove("ghost"));
        assert_eq!(db.table.generation(), generation, "a no-op write published");
        db.patch("d", |p| p.path_rules.clear()).unwrap();
        assert!(db.remove("e"));
        assert_eq!(db.table.generation(), generation + 2);
    }

    #[test]
    fn duplicate_rule_lint_fires_on_every_compile_path() {
        let db = PolicyDb::new();
        db.load(
            Profile::new("d")
                .with_rule(PathRule::allow("/a", FilePerms::READ).unwrap())
                .with_rule(PathRule::allow("/a", FilePerms::READ).unwrap()),
        );
        let diags = db.take_load_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].check, CHECK_DUPLICATE_PATH_RULE);
        assert_eq!(diags[0].profile, "d");
        assert!(db.take_load_diagnostics().is_empty(), "drained");
        // The same lint fires through patch (the logprof promotion path).
        db.patch("d", |p| {
            p.path_rules
                .push(PathRule::allow("/b", FilePerms::WRITE).unwrap());
        })
        .unwrap();
        let diags = db.take_load_diagnostics();
        assert_eq!(diags.len(), 1, "duplicate survived the patch: {diags:?}");
    }

    #[test]
    fn identical_bodies_share_one_dfa() {
        let db = PolicyDb::new();
        db.load_text(
            "profile a { /dev/car/** rw, }\n\
             profile b { /dev/car/** rw, }\n\
             profile c { /var/log/* r, }",
        )
        .unwrap();
        // Two distinct bodies → two builds, not three.
        assert_eq!(db.compile_count(), 2);
        let a = db.get("a").unwrap();
        let b = db.get("b").unwrap();
        let c = db.get("c").unwrap();
        assert!(
            Arc::ptr_eq(a.rules().dfa_handle(), b.rules().dfa_handle()),
            "identical bodies must share one DFA"
        );
        assert!(!Arc::ptr_eq(a.rules().dfa_handle(), c.rules().dfa_handle()));
        // Sharing is transparent to enforcement.
        assert!(a
            .rules()
            .evaluate_dfa("/dev/car/x")
            .permits(FilePerms::WRITE));
        assert!(b
            .rules()
            .evaluate_dfa("/dev/car/x")
            .permits(FilePerms::WRITE));
    }

    #[test]
    fn pinned_worker_count_compiles_eagerly() {
        let db = PolicyDb::new();
        db.set_compile_workers(2);
        assert_eq!(db.compile_workers(), 2);
        db.load_text(
            "profile a { /x/[0-9]* r, }\n\
             profile b { /y/{u,v}w w, }\n\
             profile c { /z/?q rw, }",
        )
        .unwrap();
        assert_eq!(db.compile_count(), 3);
        for name in db.profile_names() {
            let compiled = db.get(&name).unwrap();
            assert!(compiled.rules().dfa_stats().states > 0, "{name}");
        }
    }
}
