//! The profile database: loaded profiles, compiled for enforcement, with
//! live replacement.
//!
//! Live replacement (`apparmor_parser -r` on a real system) is the primitive
//! SACK-enhanced AppArmor builds on: when the situation state transitions,
//! the adaptive policy enforcer patches the affected profiles and the new
//! compiled form is swapped in atomically.
//!
//! The whole profile table is published as one [`Rcu`] snapshot
//! ([`ProfileTable`]): hook-side lookups are wait-free `Arc` reads, while
//! load/replace/remove serialize on the `Rcu` writer lock and swap in a new
//! table. All profiles of the table share a single byte-class
//! [`Alphabet`]; a rule edit recompiles only the touched profile, and the
//! shared alphabet is rebuilt (with a world recompile) only when the new
//! rules actually split a byte class — both events are counted so tests can
//! pin the incremental behaviour.
//!
//! Every install compiles eagerly, as `apparmor_parser` does before the
//! kernel loads a profile: the distinct rule bodies of a bundle are
//! deduplicated and each is built into its DFA across the bounded worker
//! pool ([`pipeline::map_parallel`]) before the new table publishes, so a
//! hook only ever walks a finished table.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use sack_kernel::trace::{TraceEvent, TraceHub};
use sack_kernel::Rcu;

use crate::dfa::{Alphabet, Dfa};
use crate::matcher::{build_dfa, CompiledRules, RuleDecision};
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
    /// Compiles a profile against a private alphabet derived from its own
    /// rules.
    pub fn compile(profile: Profile) -> CompiledProfile {
        let rules = CompiledRules::build(&profile.path_rules);
        CompiledProfile { profile, rules }
    }

    /// Compiles a profile against a shared byte-class alphabet (the
    /// namespace-wide table maintained by [`PolicyDb`]).
    pub fn compile_with_alphabet(profile: Profile, alphabet: &Arc<Alphabet>) -> CompiledProfile {
        let rules = CompiledRules::build_with_alphabet(&profile.path_rules, alphabet);
        CompiledProfile { profile, rules }
    }

    /// The source profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The compiled rule index.
    pub fn rules(&self) -> &CompiledRules {
        &self.rules
    }
}

impl fmt::Debug for CompiledProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProfile")
            .field("name", &self.profile.name)
            .field("rules", &self.rules.len())
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

/// One immutable snapshot of the loaded-profile table.
///
/// Cloning is shallow (`Arc` handles), so the copy-on-write updates in
/// [`PolicyDb`] cost O(profiles) pointer clones, not recompiles.
#[derive(Clone)]
pub struct ProfileTable {
    profiles: HashMap<String, Arc<CompiledProfile>>,
    alphabet: Arc<Alphabet>,
    /// Rule body → shared DFA, all compiled against `alphabet`. Rebuilt
    /// from scratch on an alphabet split (old tables encode stale byte
    /// classes); entries for since-removed bodies may linger — a finer
    /// partition stays correct, reuse only requires an identical body
    /// against the same alphabet.
    dedup: HashMap<DedupKey, Arc<Dfa<RuleDecision>>>,
}

impl ProfileTable {
    fn empty() -> ProfileTable {
        ProfileTable {
            profiles: HashMap::new(),
            alphabet: Arc::new(Alphabet::minimal()),
            dedup: HashMap::new(),
        }
    }
}

impl fmt::Debug for ProfileTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfileTable")
            .field("profiles", &self.profiles.len())
            .field("classes", &self.alphabet.class_count())
            .field("bodies", &self.dedup.len())
            .finish()
    }
}

/// The loaded-policy database.
pub struct PolicyDb {
    table: Rcu<ProfileTable>,
    revision: AtomicU64,
    /// Routes hook evaluation through the unified per-profile DFA; off, the
    /// rule scan serves as the differential-testing oracle.
    dfa_enabled: AtomicBool,
    /// Worker cap for the bulk-compile pool; 0 means
    /// [`pipeline::default_workers`].
    workers: AtomicUsize,
    /// Number of shared-alphabet rebuilds (world recompiles).
    alphabet_rebuilds: AtomicU64,
    /// Number of DFA builds actually performed (incremental-recompile
    /// pin). Dedup reuse does not count.
    profile_compiles: AtomicU64,
    diagnostics: Mutex<Vec<LoadDiagnostic>>,
    /// Tracepoint hub for `profile_recompile` events. Set once when tracing
    /// is installed on the owning [`Sack`](../../sack_core/struct.Sack.html);
    /// a `OnceLock` keeps the untraced cost to one load + branch.
    trace: OnceLock<Arc<TraceHub>>,
}

impl Default for PolicyDb {
    fn default() -> Self {
        PolicyDb {
            table: Rcu::new(ProfileTable::empty()),
            revision: AtomicU64::new(0),
            dfa_enabled: AtomicBool::new(true),
            workers: AtomicUsize::new(0),
            alphabet_rebuilds: AtomicU64::new(0),
            profile_compiles: AtomicU64::new(0),
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

    /// Installs `incoming` into `table`: one alphabet pre-pass for the
    /// whole bundle (rebuilt — with a world recompile — only when a new
    /// rule splits a byte class), identical rule bodies deduplicated onto
    /// one shared DFA, and the distinct fresh bodies compiled across the
    /// worker pool before the table publishes. Returns the next table and
    /// the new compiled handles.
    fn install_many(
        &self,
        table: &ProfileTable,
        incoming: Vec<Profile>,
    ) -> (ProfileTable, Vec<Arc<CompiledProfile>>) {
        let splits = table
            .alphabet
            .would_split(incoming.iter().flat_map(Profile::globs));
        for profile in &incoming {
            self.lint(profile);
        }
        // `pending` is every profile compiled in this pass: on a split the
        // retained profiles (sorted by name) and then `incoming`, otherwise
        // `incoming` alone.
        let (alphabet, mut profiles, mut dedup, mut pending) = if splits {
            // Some new rule separates bytes the current table merges:
            // rebuild the namespace alphabet over everything and recompile
            // the world against it. Old dedup entries encode the stale byte
            // classes, so the map restarts empty. Profiles about to be
            // replaced by `incoming` are skipped — their fresh form
            // installs below.
            let replaced: HashSet<&str> = incoming.iter().map(|p| p.name.as_str()).collect();
            let mut retained: Vec<Profile> = table
                .profiles
                .values()
                .filter(|p| !replaced.contains(p.profile().name.as_str()))
                .map(|p| p.profile().clone())
                .collect();
            retained.sort_by(|a, b| a.name.cmp(&b.name));
            let alphabet = Arc::new(Alphabet::for_globs(
                retained.iter().chain(&incoming).flat_map(Profile::globs),
            ));
            self.alphabet_rebuilds.fetch_add(1, Ordering::Relaxed);
            (alphabet, HashMap::new(), HashMap::new(), retained)
        } else {
            (
                Arc::clone(&table.alphabet),
                table.profiles.clone(),
                table.dedup.clone(),
                Vec::new(),
            )
        };
        let first_incoming = pending.len();
        pending.extend(incoming);
        let keys: Vec<DedupKey> = pending.iter().map(|p| body_key(&p.path_rules)).collect();
        // The first profile to introduce each body the table lacks.
        let mut fresh: Vec<usize> = Vec::new();
        let mut queued: HashSet<&DedupKey> = HashSet::new();
        for (i, key) in keys.iter().enumerate() {
            if !dedup.contains_key(key) && queued.insert(key) {
                fresh.push(i);
            }
        }
        // The alphabet pre-pass above means the builds share no mutable
        // state, so they run across the pool. Sizing the pool asks
        // `available_parallelism`, which reads cgroup files on Linux
        // (~17 µs, more than a small profile's build), so a patch that
        // compiles at most one body runs inline without asking.
        let workers = if fresh.len() > 1 {
            self.compile_workers()
        } else {
            1
        };
        let dfas = pipeline::map_parallel(&fresh, workers, |&i| {
            build_dfa(&pending[i].path_rules, &alphabet)
        });
        for (&i, dfa) in fresh.iter().zip(dfas) {
            self.record_compile(&pending[i].name, splits, &dfa);
            dedup.insert(keys[i].clone(), Arc::new(dfa));
        }
        let mut handles = Vec::with_capacity(pending.len() - first_incoming);
        for (i, (profile, key)) in pending.into_iter().zip(&keys).enumerate() {
            let rules = CompiledRules::with_dfa(&profile.path_rules, Arc::clone(&dedup[key]));
            let compiled = Arc::new(CompiledProfile { profile, rules });
            profiles.insert(compiled.profile().name.clone(), Arc::clone(&compiled));
            if i >= first_incoming {
                handles.push(compiled);
            }
        }
        (
            ProfileTable {
                profiles,
                alphabet,
                dedup,
            },
            handles,
        )
    }

    /// Accounts for one DFA build: bump the build counter, emit the
    /// `profile_recompile` tracepoint, and lint for state blowup. `name` is
    /// the profile that introduced the body; body-sharing profiles ride on
    /// its one event.
    fn record_compile(&self, name: &str, full_rebuild: bool, dfa: &Dfa<RuleDecision>) {
        self.profile_compiles.fetch_add(1, Ordering::Relaxed);
        if let Some(hub) = self.trace.get() {
            if hub.enabled() {
                hub.emit(&TraceEvent::ProfileRecompile {
                    profile: name.to_string(),
                    full_rebuild,
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

    /// Source-level lints that do not need the compiled form.
    fn lint(&self, profile: &Profile) {
        let mut seen: HashSet<(String, u8, bool)> = HashSet::new();
        for rule in &profile.path_rules {
            let key = (rule.glob.to_string(), rule.perms.bits(), rule.deny);
            if !seen.insert(key) {
                self.diagnostics.lock().push(LoadDiagnostic {
                    profile: profile.name.clone(),
                    check: CHECK_DUPLICATE_PATH_RULE,
                    message: format!("rule `{}` appears more than once", rule.glob),
                });
            }
        }
    }

    /// Loads (or replaces) a profile.
    pub fn load(&self, profile: Profile) -> Arc<CompiledProfile> {
        let handle = self.table.update(|table| {
            let (next, mut handles) = self.install_many(table, vec![profile]);
            (next, handles.pop().expect("one profile installed"))
        });
        self.revision.fetch_add(1, Ordering::Release);
        handle
    }

    /// Loads a whole bundle of already-parsed profiles as one atomic
    /// table swap (one alphabet check, one parallel compile pass).
    pub fn load_many(&self, profiles: Vec<Profile>) -> usize {
        let n = profiles.len();
        if n > 0 {
            self.table
                .update(|table| (self.install_many(table, profiles).0, ()));
            self.revision.fetch_add(1, Ordering::Release);
        }
        n
    }

    /// Parses profile-language text and loads every profile in it as one
    /// atomic table swap (one alphabet check for the whole bundle).
    ///
    /// # Errors
    ///
    /// Syntax errors from the profile parser.
    pub fn load_text(&self, text: &str) -> Result<usize, ParseProfileError> {
        let profiles = parse_profiles(text)?;
        let n = profiles.len();
        if n > 0 {
            self.table
                .update(|table| (self.install_many(table, profiles).0, ()));
            self.revision.fetch_add(1, Ordering::Release);
        }
        Ok(n)
    }

    /// Removes a profile; returns whether it existed.
    ///
    /// The shared alphabet is *not* rebuilt on remove: a finer-than-needed
    /// partition stays correct for every remaining profile, so removal is
    /// always a cheap copy-on-write of the name map.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self.table.update(|table| {
            if !table.profiles.contains_key(name) {
                return (table.clone(), false);
            }
            let mut next = table.clone();
            next.profiles.remove(name);
            (next, true)
        });
        if removed {
            self.revision.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Looks up a compiled profile by name (wait-free snapshot read).
    pub fn get(&self, name: &str) -> Option<Arc<CompiledProfile>> {
        self.table.read().profiles.get(name).cloned()
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
            .profiles
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
    /// Only the patched profile is recompiled (the shared alphabet is
    /// rebuilt only if the edit splits a byte class), and a patch that
    /// leaves the profile unchanged returns the existing handle without
    /// recompiling or bumping the revision — retract loops over unaffected
    /// profiles cost a comparison, not a compile.
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
        enum Outcome {
            Installed(Arc<CompiledProfile>),
            Unchanged(Arc<CompiledProfile>),
            Missing,
        }
        let outcome = self.table.update(|table| {
            let Some(current) = table.profiles.get(name) else {
                return (table.clone(), Outcome::Missing);
            };
            let mut profile = current.profile().clone();
            patch(&mut profile);
            if profile == *current.profile() {
                return (table.clone(), Outcome::Unchanged(Arc::clone(current)));
            }
            let (next, mut handles) = self.install_many(table, vec![profile]);
            (
                next,
                Outcome::Installed(handles.pop().expect("one profile installed")),
            )
        });
        match outcome {
            Outcome::Installed(handle) => {
                self.revision.fetch_add(1, Ordering::Release);
                Ok(handle)
            }
            Outcome::Unchanged(handle) => Ok(handle),
            Outcome::Missing => Err(UnknownProfileError {
                name: name.to_string(),
            }),
        }
    }

    /// Monotonic policy revision; bumps on every effective load/remove/
    /// patch (a no-op patch does not count). The table is always published
    /// before the revision moves, mirroring the publish-before-bump
    /// ordering of SACK's `ActivePolicy` swap.
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// Names of loaded profiles (sorted).
    pub fn profile_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.table.read().profiles.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of loaded profiles.
    pub fn len(&self) -> usize {
        self.table.read().profiles.len()
    }

    /// True if no profiles are loaded.
    pub fn is_empty(&self) -> bool {
        self.table.read().profiles.is_empty()
    }

    /// The shared byte-class alphabet of the current table snapshot.
    pub fn alphabet(&self) -> Arc<Alphabet> {
        Arc::clone(&self.table.read().alphabet)
    }

    /// Routes hook evaluation through the per-profile DFA (`true`, the
    /// default) or the rule scan (`false`) — the differential-testing
    /// oracle switch.
    pub fn set_dfa_matcher_enabled(&self, enabled: bool) {
        self.dfa_enabled.store(enabled, Ordering::SeqCst);
    }

    /// True if hooks evaluate through the per-profile DFA.
    pub fn dfa_matcher_enabled(&self) -> bool {
        self.dfa_enabled.load(Ordering::SeqCst)
    }

    /// Total DFA builds since creation. Incremental recompilation is
    /// pinned by this counter: a single-profile edit moves it by exactly
    /// one unless the shared alphabet had to be rebuilt; dedup reuse does
    /// not move it at all.
    pub fn compile_count(&self) -> u64 {
        self.profile_compiles.load(Ordering::Relaxed)
    }

    /// Number of shared-alphabet rebuilds (each implies a world recompile).
    pub fn alphabet_rebuild_count(&self) -> u64 {
        self.alphabet_rebuilds.load(Ordering::Relaxed)
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
        assert!(compiled.rules().evaluate("/new").permits(FilePerms::READ));
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
        assert!(old.rules().evaluate("/old").permits(FilePerms::READ));
        assert!(!db
            .get("d")
            .unwrap()
            .rules()
            .evaluate("/old")
            .permits(FilePerms::READ));
    }

    #[test]
    fn profiles_share_one_alphabet() {
        let db = PolicyDb::new();
        db.load_text(
            "profile x { /dev/car/* rw, }\n\
             profile y { /sys/kernel/** r, }\n\
             profile z { /tmp/[a-z]* w, }",
        )
        .unwrap();
        let shared = db.alphabet();
        for name in db.profile_names() {
            let compiled = db.get(&name).unwrap();
            assert!(
                Arc::ptr_eq(compiled.rules().alphabet(), &shared),
                "profile {name} compiled against a private alphabet"
            );
        }
    }

    #[test]
    fn patch_without_class_split_recompiles_only_touched_profile() {
        let db = PolicyDb::new();
        db.load_text("profile x { /dev/car/* rw, }\nprofile y { /dev/can0 r, }")
            .unwrap();
        let untouched = db.get("y").unwrap();
        let compiles = db.compile_count();
        let rebuilds = db.alphabet_rebuild_count();
        // `/dev/racecar` reuses only bytes the alphabet already separates
        // (`r a c e` all occur in the loaded rules), so no class splits.
        db.patch("x", |p| {
            p.path_rules
                .push(PathRule::allow("/dev/racecar", FilePerms::READ).unwrap());
        })
        .unwrap();
        assert_eq!(db.alphabet_rebuild_count(), rebuilds, "no class split");
        assert_eq!(db.compile_count(), compiles + 1, "only `x` recompiled");
        assert!(
            Arc::ptr_eq(&db.get("y").unwrap(), &untouched),
            "untouched profile was rebuilt"
        );
    }

    #[test]
    fn class_splitting_patch_rebuilds_alphabet_and_world() {
        let db = PolicyDb::new();
        db.load_text("profile x { /dev/car/* rw, }\nprofile y { /dev/can0 r, }")
            .unwrap();
        let compiles = db.compile_count();
        let rebuilds = db.alphabet_rebuild_count();
        // `%` is not a byte any loaded rule discriminates; it must split
        // the catch-all class and trigger a world recompile.
        db.patch("x", |p| {
            p.path_rules
                .push(PathRule::allow("/dev/c%r", FilePerms::READ).unwrap());
        })
        .unwrap();
        assert_eq!(db.alphabet_rebuild_count(), rebuilds + 1);
        // The untouched profile recompiled once, plus the patched one.
        assert_eq!(db.compile_count(), compiles + 2);
        let shared = db.alphabet();
        for name in db.profile_names() {
            assert!(Arc::ptr_eq(
                db.get(&name).unwrap().rules().alphabet(),
                &shared
            ));
        }
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
    }

    #[test]
    fn remove_keeps_finer_alphabet_without_rebuild() {
        let db = PolicyDb::new();
        db.load_text("profile x { /dev/car/* rw, }\nprofile y { /sys/** r, }")
            .unwrap();
        let rebuilds = db.alphabet_rebuild_count();
        let alphabet = db.alphabet();
        assert!(db.remove("x"));
        assert_eq!(db.alphabet_rebuild_count(), rebuilds);
        assert!(Arc::ptr_eq(&db.alphabet(), &alphabet));
        // The remaining profile still decides correctly on the finer table.
        assert!(db
            .get("y")
            .unwrap()
            .rules()
            .evaluate_dfa("/sys/kernel")
            .permits(FilePerms::READ));
    }

    #[test]
    fn dfa_matcher_toggle_defaults_on() {
        let db = PolicyDb::new();
        assert!(db.dfa_matcher_enabled());
        db.set_dfa_matcher_enabled(false);
        assert!(!db.dfa_matcher_enabled());
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

    #[test]
    fn bulk_load_checks_alphabet_once() {
        let db = PolicyDb::new();
        db.load_text(
            "profile a { /x/[0-9]* r, }\n\
             profile b { /y/{u,v}w w, }\n\
             profile c { /z/?q rw, }",
        )
        .unwrap();
        // The initial bundle needs at most one rebuild regardless of how
        // many profiles introduce new byte classes.
        assert!(db.alphabet_rebuild_count() <= 1);
        assert_eq!(db.compile_count(), 3);
    }
}
