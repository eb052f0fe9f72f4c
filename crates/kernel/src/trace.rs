//! # sack-trace — kernel-style static tracepoints
//!
//! Compiled-in probe points modelled on the Linux tracepoint machinery
//! (`include/linux/tracepoint.h`): every probe site is guarded by a single
//! **relaxed atomic load + branch**, so with tracing disabled the entire
//! subsystem costs one predictable-not-taken branch per probe. Consumers
//! attach dynamically at runtime — the moral equivalent of
//! `register_trace_sys_enter()` — and receive every [`TraceEvent`]
//! synchronously on the emitting thread, in program order.
//!
//! With tracing enabled, an emit takes no lock: the hub publishes its
//! callback list as an immutable snapshot and bumps a generation counter
//! on every register/unregister (under the registry's write lock). Each
//! thread caches the snapshot of the hub it last emitted on, keyed by the
//! hub's unique id and that generation, and reads the registry under its
//! read lock only on a miss. Emits that start after `unregister` returns
//! never reach the detached callback; a callback may emit again, on the
//! same hub or another, without deadlocking or panicking.
//!
//! The hub deliberately does **not** buffer, aggregate or render anything:
//! histograms, the flight recorder and the securityfs/Prometheus exports all
//! live in `sack-core` as registered callbacks. This keeps the kernel layer
//! dependency-free and lets benches attach alternative consumers.
//!
//! Event taxonomy (one [`Tracepoint`] per kind):
//!
//! | tracepoint          | fires when                                             |
//! |---------------------|--------------------------------------------------------|
//! | `hook_exit`         | an LSM hook dispatch finishes (verdict, sampled latency)|
//! | `ssm_transition`    | the situation state machine changes state              |
//! | `policy_publish`    | a new `ActivePolicy` is published over RCU             |
//! | `rcu_epoch_bump`    | the global policy epoch counter is incremented         |
//! | `profile_recompile` | an AppArmor profile is (re)compiled to its DFA         |
//! | `audit_emit`        | a record is appended to the audit ring                 |
//! | `sds_enqueue`       | a sensor frame is enqueued into the submission ring    |
//! | `sds_drain`         | a ring drain batch completes (batch size + transitions)|
//! | `sds_coalesce`      | ≥2 frames collapsed into one SSM delivery in a drain   |
//! | `sds_backpressure`  | the ring-full policy engaged (block or drop-oldest)    |

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Identifies an LSM hook in trace events and latency histograms.
///
/// Mirrors the dispatch surface of [`crate::lsm::LsmStack`]; notification
/// hooks (`bprm_committed`, `task_free`) are traced too, always with an
/// `Allow` verdict since they cannot deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceHook {
    /// `file_open`.
    FileOpen,
    /// `file_permission`.
    FilePermission,
    /// `file_ioctl`.
    FileIoctl,
    /// `file_mmap`.
    FileMmap,
    /// `inode_create`.
    InodeCreate,
    /// `inode_unlink`.
    InodeUnlink,
    /// `inode_rename`.
    InodeRename,
    /// `inode_getattr`.
    InodeGetattr,
    /// `bprm_check`.
    BprmCheck,
    /// `bprm_committed` (notification).
    BprmCommitted,
    /// `task_alloc`.
    TaskAlloc,
    /// `task_free` (notification).
    TaskFree,
    /// `capable`.
    Capable,
    /// `socket_create`.
    SocketCreate,
    /// `socket_connect`.
    SocketConnect,
}

impl TraceHook {
    /// Every hook, in dispatch-table order. Index with [`TraceHook::index`].
    pub const ALL: [TraceHook; 15] = [
        TraceHook::FileOpen,
        TraceHook::FilePermission,
        TraceHook::FileIoctl,
        TraceHook::FileMmap,
        TraceHook::InodeCreate,
        TraceHook::InodeUnlink,
        TraceHook::InodeRename,
        TraceHook::InodeGetattr,
        TraceHook::BprmCheck,
        TraceHook::BprmCommitted,
        TraceHook::TaskAlloc,
        TraceHook::TaskFree,
        TraceHook::Capable,
        TraceHook::SocketCreate,
        TraceHook::SocketConnect,
    ];

    /// Dense index into [`TraceHook::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The hook's LSM name (`file_open`, ...).
    pub fn name(self) -> &'static str {
        match self {
            TraceHook::FileOpen => "file_open",
            TraceHook::FilePermission => "file_permission",
            TraceHook::FileIoctl => "file_ioctl",
            TraceHook::FileMmap => "file_mmap",
            TraceHook::InodeCreate => "inode_create",
            TraceHook::InodeUnlink => "inode_unlink",
            TraceHook::InodeRename => "inode_rename",
            TraceHook::InodeGetattr => "inode_getattr",
            TraceHook::BprmCheck => "bprm_check",
            TraceHook::BprmCommitted => "bprm_committed",
            TraceHook::TaskAlloc => "task_alloc",
            TraceHook::TaskFree => "task_free",
            TraceHook::Capable => "capable",
            TraceHook::SocketCreate => "socket_create",
            TraceHook::SocketConnect => "socket_connect",
        }
    }

    /// Parses the LSM name produced by [`TraceHook::name`].
    pub fn from_name(name: &str) -> Option<TraceHook> {
        TraceHook::ALL.into_iter().find(|h| h.name() == name)
    }
}

impl fmt::Display for TraceHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of a hook dispatch as seen by `hook_exit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceVerdict {
    /// Every stacked module allowed the operation.
    Allow,
    /// Some module denied (first-deny-wins).
    Deny,
}

impl TraceVerdict {
    /// Stable lowercase label (`allow` / `deny`).
    pub fn name(self) -> &'static str {
        match self {
            TraceVerdict::Allow => "allow",
            TraceVerdict::Deny => "deny",
        }
    }

    /// Dense index (Allow = 0, Deny = 1).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for TraceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The static tracepoint kinds, one per probe site family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tracepoint {
    /// LSM hook dispatch exit (verdict + sampled latency).
    HookExit,
    /// Situation state machine transition.
    SsmTransition,
    /// New active policy published.
    PolicyPublish,
    /// Policy epoch counter bumped.
    RcuEpochBump,
    /// AppArmor profile (re)compiled.
    ProfileRecompile,
    /// Audit record appended.
    AuditEmit,
    /// Sensor frame enqueued into the SDS submission ring.
    SdsEnqueue,
    /// SDS ring drain batch completed.
    SdsDrain,
    /// Multiple frames coalesced into one SSM delivery during a drain.
    SdsCoalesce,
    /// Ring-full backpressure policy engaged.
    SdsBackpressure,
}

impl Tracepoint {
    /// Every tracepoint, in declaration order.
    pub const ALL: [Tracepoint; 10] = [
        Tracepoint::HookExit,
        Tracepoint::SsmTransition,
        Tracepoint::PolicyPublish,
        Tracepoint::RcuEpochBump,
        Tracepoint::ProfileRecompile,
        Tracepoint::AuditEmit,
        Tracepoint::SdsEnqueue,
        Tracepoint::SdsDrain,
        Tracepoint::SdsCoalesce,
        Tracepoint::SdsBackpressure,
    ];

    /// Dense index into [`Tracepoint::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, as shown in `tracing/events`.
    pub fn name(self) -> &'static str {
        match self {
            Tracepoint::HookExit => "hook_exit",
            Tracepoint::SsmTransition => "ssm_transition",
            Tracepoint::PolicyPublish => "policy_publish",
            Tracepoint::RcuEpochBump => "rcu_epoch_bump",
            Tracepoint::ProfileRecompile => "profile_recompile",
            Tracepoint::AuditEmit => "audit_emit",
            Tracepoint::SdsEnqueue => "sds_enqueue",
            Tracepoint::SdsDrain => "sds_drain",
            Tracepoint::SdsCoalesce => "sds_coalesce",
            Tracepoint::SdsBackpressure => "sds_backpressure",
        }
    }
}

impl fmt::Display for Tracepoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single trace event, the payload delivered to registered callbacks.
///
/// Hot-path variants (`HookExit`, `AuditEmit`, `SdsEnqueue`) carry only
/// `Copy` data; rare control-plane variants own their strings so the flight
/// recorder can retain them without lifetimes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An LSM hook dispatch finished. Fires on every traced dispatch.
    HookExit {
        /// Which hook.
        hook: TraceHook,
        /// Allow or deny.
        verdict: TraceVerdict,
        /// Wall-clock nanoseconds spent in the stacked modules, on the
        /// sampled dispatches only (about one in
        /// [`crate::lsm::SAMPLE_MEAN_GAP`] per thread); `None` on the rest.
        latency_ns: Option<u64>,
    },
    /// The situation state machine transitioned.
    SsmTransition {
        /// Source state name.
        from: String,
        /// Destination state name.
        to: String,
        /// The environmental event that caused the transition.
        event: String,
    },
    /// A new active policy was published over RCU.
    PolicyPublish {
        /// The epoch value after the publish's bump.
        epoch: u64,
    },
    /// The global policy epoch counter was incremented.
    RcuEpochBump {
        /// The new epoch value.
        epoch: u64,
    },
    /// An AppArmor profile was (re)compiled to its unified DFA.
    ProfileRecompile {
        /// Profile name.
        profile: String,
        /// True when the shared alphabet split and the whole world recompiled.
        full_rebuild: bool,
    },
    /// A record was appended to the audit ring.
    AuditEmit {
        /// The record's monotonic sequence number.
        seq: u64,
    },
    /// A sensor frame was enqueued into the SDS submission ring.
    ///
    /// Hot-path: fires once per produced frame, carries only `Copy` data,
    /// and is **not** flight-recorded (it would flush 256 slots in ~256 µs
    /// at sensor rates) — the fired counter and Prometheus export still see
    /// every enqueue.
    SdsEnqueue {
        /// Ring occupancy observed right after the enqueue (racy snapshot).
        depth: usize,
    },
    /// An SDS ring drain batch completed.
    SdsDrain {
        /// Frames consumed by this drain.
        batch: usize,
        /// SSM transitions actually published (0 or 1 per drain).
        transitions: usize,
    },
    /// Two or more frames collapsed into a single SSM delivery in a drain.
    SdsCoalesce {
        /// The environmental event whose frames were collapsed.
        event: String,
        /// How many frames the drain collapsed (≥ 2).
        collapsed: usize,
    },
    /// The ring-full backpressure policy engaged.
    SdsBackpressure {
        /// Policy label: `drop-oldest` or `block`.
        policy: &'static str,
        /// Cumulative frames discarded by drop-oldest since boot.
        dropped_total: u64,
    },
}

impl TraceEvent {
    /// The tracepoint this event belongs to.
    pub fn tracepoint(&self) -> Tracepoint {
        match self {
            TraceEvent::HookExit { .. } => Tracepoint::HookExit,
            TraceEvent::SsmTransition { .. } => Tracepoint::SsmTransition,
            TraceEvent::PolicyPublish { .. } => Tracepoint::PolicyPublish,
            TraceEvent::RcuEpochBump { .. } => Tracepoint::RcuEpochBump,
            TraceEvent::ProfileRecompile { .. } => Tracepoint::ProfileRecompile,
            TraceEvent::AuditEmit { .. } => Tracepoint::AuditEmit,
            TraceEvent::SdsEnqueue { .. } => Tracepoint::SdsEnqueue,
            TraceEvent::SdsDrain { .. } => Tracepoint::SdsDrain,
            TraceEvent::SdsCoalesce { .. } => Tracepoint::SdsCoalesce,
            TraceEvent::SdsBackpressure { .. } => Tracepoint::SdsBackpressure,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::HookExit {
                hook,
                verdict,
                latency_ns,
            } => {
                write!(f, "hook_exit hook={hook} verdict={verdict}")?;
                match latency_ns {
                    Some(ns) => write!(f, " ns={ns}"),
                    None => Ok(()),
                }
            }
            TraceEvent::SsmTransition { from, to, event } => {
                write!(f, "ssm_transition from={from} to={to} event={event}")
            }
            TraceEvent::PolicyPublish { epoch } => write!(f, "policy_publish epoch={epoch}"),
            TraceEvent::RcuEpochBump { epoch } => write!(f, "rcu_epoch_bump epoch={epoch}"),
            TraceEvent::ProfileRecompile {
                profile,
                full_rebuild,
            } => write!(
                f,
                "profile_recompile profile={profile} full_rebuild={full_rebuild}"
            ),
            TraceEvent::AuditEmit { seq } => write!(f, "audit_emit seq={seq}"),
            TraceEvent::SdsEnqueue { depth } => write!(f, "sds_enqueue depth={depth}"),
            TraceEvent::SdsDrain { batch, transitions } => {
                write!(f, "sds_drain batch={batch} transitions={transitions}")
            }
            TraceEvent::SdsCoalesce { event, collapsed } => {
                write!(f, "sds_coalesce event={event} collapsed={collapsed}")
            }
            TraceEvent::SdsBackpressure {
                policy,
                dropped_total,
            } => write!(
                f,
                "sds_backpressure policy={policy} dropped_total={dropped_total}"
            ),
        }
    }
}

/// A registered trace callback: runs synchronously on the emitting thread.
pub type TraceCallback = Arc<dyn Fn(&TraceEvent) + Send + Sync>;

/// Handle returned by [`TraceHub::register`]; pass to
/// [`TraceHub::unregister`] to detach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHandle(u64);

/// One cache line per fired-counter so concurrent probe sites never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCounter(AtomicU64);

#[derive(Clone)]
struct CallbackEntry {
    handle: u64,
    /// `None` attaches to every tracepoint.
    point: Option<Tracepoint>,
    callback: TraceCallback,
}

/// Monotonic hub-id source. The per-thread snapshot cache is keyed by this
/// id rather than the hub's address: a dropped hub's address can be reused
/// by a new hub, its id never is.
static NEXT_HUB: AtomicU64 = AtomicU64::new(1);

/// A thread's copy of one hub's callback list, valid while the hub's
/// generation still equals `generation`.
struct SnapshotCache {
    hub: u64,
    generation: u64,
    callbacks: Arc<[CallbackEntry]>,
}

thread_local! {
    /// Single-entry cache: the callback snapshot of the hub this thread
    /// last emitted on. One entry bounds the per-thread state no matter how
    /// many hubs a thread ever touches. A stale entry keeps detached
    /// callbacks alive, never called, until the thread's next refill.
    static SNAPSHOT: RefCell<Option<SnapshotCache>> = const { RefCell::new(None) };
}

/// The tracepoint hub: one per booted kernel, shared by every layer.
///
/// Disabled cost is a single `Relaxed` load and branch per probe site
/// ([`TraceHub::enabled`]); probe sites must guard event *construction*
/// behind it:
///
/// ```
/// use sack_kernel::trace::{TraceEvent, TraceHub};
///
/// let hub = TraceHub::new();
/// if hub.enabled() {
///     hub.emit(&TraceEvent::AuditEmit { seq: 1 }); // never reached while disabled
/// }
/// ```
///
/// Enabled cost is the fired-counter increment, one acquire load of the
/// hub's generation and the callbacks themselves: the callback list is
/// published as an immutable snapshot that each emitting thread caches, so
/// the registry lock is taken only when a thread first emits on a hub,
/// switches hubs, or sees a register/unregister it has not caught up with.
pub struct TraceHub {
    enabled: AtomicBool,
    /// Unique per hub (see [`NEXT_HUB`]).
    id: u64,
    /// Bumped under the write lock by every register and unregister, so a
    /// cached snapshot is current exactly while its generation matches.
    generation: AtomicU64,
    next_handle: AtomicU64,
    fired: [PaddedCounter; Tracepoint::ALL.len()],
    callbacks: RwLock<Arc<[CallbackEntry]>>,
}

impl TraceHub {
    /// Creates a hub with tracing disabled and no callbacks.
    pub fn new() -> Arc<TraceHub> {
        Arc::new(TraceHub {
            enabled: AtomicBool::new(false),
            id: NEXT_HUB.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            next_handle: AtomicU64::new(1),
            fired: Default::default(),
            callbacks: RwLock::new(Arc::new([])),
        })
    }

    /// The one-load-one-branch global enable check.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables all tracepoints.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Attaches `callback` to a single tracepoint (`register_trace_*` style).
    pub fn register(&self, point: Tracepoint, callback: TraceCallback) -> TraceHandle {
        self.register_entry(Some(point), callback)
    }

    /// Attaches `callback` to **every** tracepoint.
    pub fn register_all(&self, callback: TraceCallback) -> TraceHandle {
        self.register_entry(None, callback)
    }

    fn register_entry(&self, point: Option<Tracepoint>, callback: TraceCallback) -> TraceHandle {
        let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let mut list = self.callbacks.write();
        let entry = CallbackEntry {
            handle,
            point,
            callback,
        };
        *list = list.iter().cloned().chain([entry]).collect();
        self.generation.fetch_add(1, Ordering::Release);
        TraceHandle(handle)
    }

    /// Detaches a callback. Unknown handles are ignored.
    ///
    /// Every emit that starts after this returns, on any thread, misses the
    /// callback: the generation bump invalidates every cached snapshot that
    /// still holds it.
    pub fn unregister(&self, handle: TraceHandle) {
        let mut list = self.callbacks.write();
        if list.iter().any(|e| e.handle == handle.0) {
            *list = list
                .iter()
                .filter(|e| e.handle != handle.0)
                .cloned()
                .collect();
            self.generation.fetch_add(1, Ordering::Release);
        }
    }

    /// Number of attached callbacks (tests / diagnostics).
    pub fn callback_count(&self) -> usize {
        self.callbacks.read().len()
    }

    /// Emits an event to every matching callback and bumps the tracepoint's
    /// fired counter. No-op while disabled; probe sites should still check
    /// [`TraceHub::enabled`] first so the event is never even constructed on
    /// the disabled path.
    pub fn emit(&self, event: &TraceEvent) {
        if !self.enabled() {
            return;
        }
        let point = event.tracepoint();
        self.fired[point.index()].0.fetch_add(1, Ordering::Relaxed);
        // Acquire pairs with the Release bump in register/unregister: an
        // emit ordered after an unregister returns sees the new generation
        // and refills instead of serving the stale snapshot.
        let generation = self.generation.load(Ordering::Acquire);
        // The hit path holds a shared borrow while delivering, so a callback
        // that emits on this hub again hits the cache too; one that needs a
        // refill while the cache is borrowed takes the locked path.
        let delivered = SNAPSHOT
            .try_with(|cache| {
                let Ok(cache) = cache.try_borrow() else {
                    return false;
                };
                match &*cache {
                    Some(c) if c.hub == self.id && c.generation == generation => {
                        deliver(&c.callbacks, point, event);
                        true
                    }
                    _ => false,
                }
            })
            .unwrap_or(false);
        if !delivered {
            self.emit_refill(point, event);
        }
    }

    /// Cache miss: copies the current snapshot under the read lock, caches
    /// it when the cache is not borrowed by an outer emit, and delivers
    /// outside the lock.
    #[cold]
    fn emit_refill(&self, point: Tracepoint, event: &TraceEvent) {
        let (generation, callbacks) = {
            let list = self.callbacks.read();
            (self.generation.load(Ordering::Relaxed), Arc::clone(&list))
        };
        let _ = SNAPSHOT.try_with(|cache| {
            let Ok(mut cache) = cache.try_borrow_mut() else {
                return;
            };
            let evicted = cache.replace(SnapshotCache {
                hub: self.id,
                generation,
                callbacks: Arc::clone(&callbacks),
            });
            // The evicted snapshot may hold the last reference to detached
            // callbacks; drop them with the cache released.
            drop(cache);
            drop(evicted);
        });
        deliver(&callbacks, point, event);
    }

    /// How many times `point` has fired while enabled.
    pub fn fired(&self, point: Tracepoint) -> u64 {
        self.fired[point.index()].0.load(Ordering::Relaxed)
    }

    /// Total events fired across all tracepoints.
    pub fn fired_total(&self) -> u64 {
        Tracepoint::ALL.iter().map(|p| self.fired(*p)).sum()
    }
}

/// Runs every callback of `callbacks` attached to `point`, in registration
/// order.
fn deliver(callbacks: &[CallbackEntry], point: Tracepoint, event: &TraceEvent) {
    for entry in callbacks {
        if entry.point.is_none() || entry.point == Some(point) {
            (entry.callback)(event);
        }
    }
}

impl fmt::Debug for TraceHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHub")
            .field("enabled", &self.enabled())
            .field("callbacks", &self.callback_count())
            .field("fired_total", &self.fired_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn disabled_hub_emits_nothing() {
        let hub = TraceHub::new();
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        hub.register_all(Arc::new(move |_| {
            s.fetch_add(1, Ordering::Relaxed);
        }));
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        assert_eq!(seen.load(Ordering::Relaxed), 0);
        assert_eq!(hub.fired(Tracepoint::AuditEmit), 0);
    }

    #[test]
    fn enabled_hub_delivers_in_order_and_counts() {
        let hub = TraceHub::new();
        hub.set_enabled(true);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        hub.register_all(Arc::new(move |ev| l.lock().unwrap().push(ev.clone())));
        hub.emit(&TraceEvent::SdsEnqueue { depth: 1 });
        hub.emit(&TraceEvent::RcuEpochBump { epoch: 7 });
        let log = log.lock().unwrap();
        assert_eq!(
            *log,
            vec![
                TraceEvent::SdsEnqueue { depth: 1 },
                TraceEvent::RcuEpochBump { epoch: 7 }
            ]
        );
        assert_eq!(hub.fired(Tracepoint::SdsEnqueue), 1);
        assert_eq!(hub.fired(Tracepoint::RcuEpochBump), 1);
        assert_eq!(hub.fired_total(), 2);
    }

    #[test]
    fn point_filter_and_unregister() {
        let hub = TraceHub::new();
        hub.set_enabled(true);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let handle = hub.register(
            Tracepoint::AuditEmit,
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }),
        );
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        hub.emit(&TraceEvent::SdsEnqueue { depth: 1 }); // filtered out
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        hub.unregister(handle);
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(hub.callback_count(), 0);
    }

    #[test]
    fn hook_and_tracepoint_names_round_trip() {
        for hook in TraceHook::ALL {
            assert_eq!(TraceHook::from_name(hook.name()), Some(hook));
            assert_eq!(TraceHook::ALL[hook.index()], hook);
        }
        for (i, point) in Tracepoint::ALL.into_iter().enumerate() {
            assert_eq!(point.index(), i);
        }
    }

    fn counter(hits: &Arc<AtomicU64>) -> TraceCallback {
        let hits = Arc::clone(hits);
        Arc::new(move |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
    }

    /// Thread B: emits one `audit_emit` on its hub per [`Remote::emit`] and
    /// acks it, so "B's next emit" is ordered against the caller.
    struct Remote {
        go: std::sync::mpsc::Sender<()>,
        done: std::sync::mpsc::Receiver<()>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Remote {
        fn spawn(hub: &Arc<TraceHub>) -> Remote {
            let (go, go_rx) = std::sync::mpsc::channel::<()>();
            let (done_tx, done) = std::sync::mpsc::channel::<()>();
            let hub = Arc::clone(hub);
            let thread = std::thread::spawn(move || {
                for () in go_rx {
                    hub.emit(&TraceEvent::AuditEmit { seq: 1 });
                    done_tx.send(()).unwrap();
                }
            });
            Remote { go, done, thread }
        }

        fn emit(&self) {
            self.go.send(()).unwrap();
            self.done.recv().unwrap();
        }

        fn join(self) {
            drop(self.go);
            self.thread.join().unwrap();
        }
    }

    #[test]
    fn unregister_reaches_other_threads_next_emit() {
        let hub = TraceHub::new();
        hub.set_enabled(true);
        let hits = Arc::new(AtomicU64::new(0));
        let handle = hub.register_all(counter(&hits));
        let b = Remote::spawn(&hub);
        // B emits once, caching a snapshot that holds the callback.
        b.emit();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // A unregisters; B's next emit must not reach the callback.
        hub.unregister(handle);
        b.emit();
        b.join();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(hub.fired(Tracepoint::AuditEmit), 2);
    }

    #[test]
    fn register_reaches_thread_holding_stale_snapshot() {
        let hub = TraceHub::new();
        hub.set_enabled(true);
        let first = Arc::new(AtomicU64::new(0));
        hub.register_all(counter(&first));
        let b = Remote::spawn(&hub);
        b.emit();
        // B now caches a one-callback snapshot; A registers a second.
        let second = Arc::new(AtomicU64::new(0));
        hub.register(Tracepoint::AuditEmit, counter(&second));
        b.emit();
        b.join();
        assert_eq!(first.load(Ordering::SeqCst), 2);
        assert_eq!(second.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn alternating_hubs_deliver_only_to_their_own_callbacks() {
        let hubs = [TraceHub::new(), TraceHub::new()];
        let logs: Vec<Arc<Mutex<Vec<u64>>>> = (0..2).map(|_| Arc::default()).collect();
        for (hub, log) in hubs.iter().zip(&logs) {
            hub.set_enabled(true);
            let log = Arc::clone(log);
            hub.register_all(Arc::new(move |ev| {
                if let TraceEvent::RcuEpochBump { epoch } = ev {
                    log.lock().unwrap().push(*epoch);
                }
            }));
        }
        for epoch in 0..100 {
            hubs[(epoch % 2) as usize].emit(&TraceEvent::RcuEpochBump { epoch });
        }
        let even: Vec<u64> = (0..100).step_by(2).collect();
        let odd: Vec<u64> = (1..100).step_by(2).collect();
        assert_eq!(*logs[0].lock().unwrap(), even);
        assert_eq!(*logs[1].lock().unwrap(), odd);
        assert_eq!(hubs[0].fired_total(), 50);
        assert_eq!(hubs[1].fired_total(), 50);
    }

    #[test]
    fn dropped_hub_snapshot_never_serves_a_new_hub() {
        let old_hits = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let hub = TraceHub::new();
            hub.set_enabled(true);
            hub.register_all(counter(&old_hits));
            hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        }
        // A fresh hub (possibly at a reused address) with no callbacks
        // must not deliver through the previous hub's cached snapshot.
        let hub = TraceHub::new();
        hub.set_enabled(true);
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        assert_eq!(old_hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn callbacks_may_emit_on_the_same_and_other_hubs() {
        let hub = TraceHub::new();
        let other = TraceHub::new();
        hub.set_enabled(true);
        other.set_enabled(true);
        let misses = Arc::new(AtomicU64::new(0));
        let other_hits = Arc::new(AtomicU64::new(0));
        hub.register(Tracepoint::SdsEnqueue, counter(&misses));
        other.register_all(counter(&other_hits));
        let (h, o) = (Arc::clone(&hub), Arc::clone(&other));
        hub.register(
            Tracepoint::AuditEmit,
            Arc::new(move |_| {
                h.emit(&TraceEvent::SdsEnqueue { depth: 1 });
                o.emit(&TraceEvent::AuditEmit { seq: 1 });
            }),
        );
        for _ in 0..3 {
            hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        }
        // Registering from inside a callback changes the generation while
        // the outer emit still holds the cached snapshot.
        let late = Arc::new(AtomicU64::new(0));
        let (h, l) = (Arc::clone(&hub), Arc::clone(&late));
        let once = AtomicBool::new(false);
        hub.register(
            Tracepoint::RcuEpochBump,
            Arc::new(move |_| {
                if !once.swap(true, Ordering::SeqCst) {
                    h.register(Tracepoint::SdsEnqueue, counter(&l));
                    h.emit(&TraceEvent::SdsEnqueue { depth: 1 });
                }
            }),
        );
        hub.emit(&TraceEvent::RcuEpochBump { epoch: 1 });
        hub.emit(&TraceEvent::SdsEnqueue { depth: 1 });
        assert_eq!(misses.load(Ordering::SeqCst), 5);
        assert_eq!(late.load(Ordering::SeqCst), 2);
        assert_eq!(other_hits.load(Ordering::SeqCst), 3);
        assert_eq!(hub.fired(Tracepoint::AuditEmit), 3);
        assert_eq!(hub.fired(Tracepoint::SdsEnqueue), 5);
    }

    #[test]
    fn toggling_gates_counters() {
        let hub = TraceHub::new();
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        hub.set_enabled(true);
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        hub.set_enabled(false);
        hub.emit(&TraceEvent::AuditEmit { seq: 1 });
        assert_eq!(hub.fired(Tracepoint::AuditEmit), 1);
    }
}
