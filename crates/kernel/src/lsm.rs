//! The Linux Security Module (LSM) framework of the simulated kernel.
//!
//! Mirrors the real framework's shape: security modules implement the
//! [`SecurityModule`] hook trait; the kernel owns an ordered [`LsmStack`]
//! configured at "boot" (cf. `CONFIG_LSM="SACK,AppArmor"`); every mediated
//! operation consults the stack in registration order and the **first module
//! to return an error denies the operation** (white-list combination, as the
//! paper describes for SACK-before-AppArmor stacking).
//!
//! Hooks default to "allow" so modules only implement what they mediate,
//! exactly like the default hook behaviour in `security/security.c`.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::cred::{Capability, Credentials};
use crate::error::KernelResult;
use crate::path::KPath;
use crate::trace::{TraceEvent, TraceHook, TraceHub, TraceVerdict};
use crate::types::{DeviceId, Pid};

/// Requested access rights, the `MAY_*` mask passed to file hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AccessMask(u8);

impl AccessMask {
    /// `MAY_READ`.
    pub const READ: AccessMask = AccessMask(0b0001);
    /// `MAY_WRITE`.
    pub const WRITE: AccessMask = AccessMask(0b0010);
    /// `MAY_EXEC`.
    pub const EXEC: AccessMask = AccessMask(0b0100);
    /// `MAY_APPEND`.
    pub const APPEND: AccessMask = AccessMask(0b1000);

    /// The empty mask.
    pub fn empty() -> Self {
        AccessMask(0)
    }

    /// Union of two masks.
    pub fn union(self, other: AccessMask) -> AccessMask {
        AccessMask(self.0 | other.0)
    }

    /// True if every bit of `other` is present in `self`.
    pub fn contains(self, other: AccessMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if `self` and `other` share any bit.
    pub fn intersects(self, other: AccessMask) -> bool {
        self.0 & other.0 != 0
    }

    /// True if no bits are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bits (for compact storage in rule tables).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs a mask from raw bits (extraneous bits are masked off).
    pub fn from_bits(bits: u8) -> AccessMask {
        AccessMask(bits & 0b1111)
    }
}

impl std::ops::BitOr for AccessMask {
    type Output = AccessMask;
    fn bitor(self, rhs: AccessMask) -> AccessMask {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for AccessMask {
    fn bitor_assign(&mut self, rhs: AccessMask) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for AccessMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, ch) in [
            (AccessMask::READ, 'r'),
            (AccessMask::WRITE, 'w'),
            (AccessMask::EXEC, 'x'),
            (AccessMask::APPEND, 'a'),
        ] {
            if self.contains(bit) {
                write!(f, "{ch}")?;
                any = true;
            }
        }
        if !any {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// Object classes distinguished by the hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Character device node.
    CharDevice,
    /// securityfs pseudo-file.
    SecurityFs,
    /// Anonymous pipe endpoint.
    Pipe,
    /// Socket endpoint.
    Socket,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::Regular => "file",
            ObjectKind::Directory => "dir",
            ObjectKind::CharDevice => "chardev",
            ObjectKind::SecurityFs => "securityfs",
            ObjectKind::Pipe => "pipe",
            ObjectKind::Socket => "socket",
        };
        f.write_str(s)
    }
}

/// The subject of a hook call: who is performing the access.
///
/// A snapshot of the task's identity taken at syscall entry, so hooks never
/// need to lock the process table (mirrors `current_cred()` semantics).
#[derive(Debug, Clone)]
pub struct HookCtx {
    /// Calling task.
    pub pid: Pid,
    /// The task's credentials at syscall entry.
    pub cred: Credentials,
    /// Path of the task's executable (`/proc/self/exe`), if it has exec'd.
    pub exe: Option<KPath>,
}

impl HookCtx {
    /// Creates a context for a task.
    pub fn new(pid: Pid, cred: Credentials, exe: Option<KPath>) -> Self {
        HookCtx { pid, cred, exe }
    }
}

/// The object of a hook call: what is being accessed.
#[derive(Debug, Clone)]
pub struct ObjectRef<'a> {
    /// The path the object was reached through.
    pub path: &'a KPath,
    /// Object class.
    pub kind: ObjectKind,
    /// Device identity for char-device nodes.
    pub dev: Option<DeviceId>,
}

impl<'a> ObjectRef<'a> {
    /// A regular-file object reference.
    pub fn regular(path: &'a KPath) -> Self {
        ObjectRef {
            path,
            kind: ObjectKind::Regular,
            dev: None,
        }
    }

    /// A char-device object reference.
    pub fn device(path: &'a KPath, dev: DeviceId) -> Self {
        ObjectRef {
            path,
            kind: ObjectKind::CharDevice,
            dev: Some(dev),
        }
    }
}

/// Network address families mediated by socket hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketFamily {
    /// `AF_UNIX`.
    Unix,
    /// `AF_INET` (TCP loopback in the simulation).
    Inet,
}

impl fmt::Display for SocketFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketFamily::Unix => f.write_str("AF_UNIX"),
            SocketFamily::Inet => f.write_str("AF_INET"),
        }
    }
}

/// The LSM hook interface.
///
/// Every method has an allow-by-default implementation; modules override the
/// hooks they mediate. Methods return [`KernelResult<()>`]: `Err(errno)`
/// denies and short-circuits the rest of the stack.
#[allow(unused_variables)]
pub trait SecurityModule: Send + Sync {
    /// Stable module name, used in stacking configuration and error contexts.
    fn name(&self) -> &'static str;

    /// Mediates `open(2)`. `mask` reflects the open flags.
    fn file_open(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, mask: AccessMask) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates each `read(2)`/`write(2)` on an open file.
    fn file_permission(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        mask: AccessMask,
    ) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `ioctl(2)`.
    fn file_ioctl(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, cmd: u32) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `mmap(2)` of a file.
    fn file_mmap(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, mask: AccessMask) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates creation of a new filesystem object in `parent`.
    fn inode_create(
        &self,
        ctx: &HookCtx,
        parent: &KPath,
        name: &str,
        kind: ObjectKind,
    ) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `unlink(2)`/`rmdir(2)` of `obj`.
    fn inode_unlink(&self, ctx: &HookCtx, obj: &ObjectRef<'_>) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `rename(2)`; both the old object and the new path are
    /// checked.
    fn inode_rename(&self, ctx: &HookCtx, old: &ObjectRef<'_>, new: &KPath) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `stat(2)`-style attribute reads.
    fn inode_getattr(&self, ctx: &HookCtx, obj: &ObjectRef<'_>) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `exec(2)`; modules typically switch the task's domain here.
    fn bprm_check(&self, ctx: &HookCtx, exe: &KPath) -> KernelResult<()> {
        Ok(())
    }

    /// Notifies of a successful exec, after the domain transition point.
    fn bprm_committed(&self, ctx: &HookCtx, exe: &KPath) {}

    /// Mediates `fork(2)`; `child` is the about-to-exist task.
    fn task_alloc(&self, ctx: &HookCtx, child: Pid) -> KernelResult<()> {
        Ok(())
    }

    /// Notifies of task exit, so modules free per-task state.
    fn task_free(&self, pid: Pid) {}

    /// Mediates capability use (`capable()`).
    fn capable(&self, ctx: &HookCtx, cap: Capability) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `socket(2)`.
    fn socket_create(&self, ctx: &HookCtx, family: SocketFamily) -> KernelResult<()> {
        Ok(())
    }

    /// Mediates `connect(2)`. `addr` is the bound path (AF_UNIX) or
    /// `"tcp:<port>"` (AF_INET).
    fn socket_connect(&self, ctx: &HookCtx, family: SocketFamily, addr: &str) -> KernelResult<()> {
        Ok(())
    }
}

/// Per-hook invocation counters, for tests and overhead analysis.
#[derive(Debug, Default)]
pub struct LsmStats {
    /// `file_open` calls.
    pub file_open: AtomicU64,
    /// `file_permission` calls.
    pub file_permission: AtomicU64,
    /// `file_ioctl` calls.
    pub file_ioctl: AtomicU64,
    /// Denials across all hooks.
    pub denials: AtomicU64,
}

impl LsmStats {
    /// Total denials observed.
    pub fn denials(&self) -> u64 {
        self.denials.load(Ordering::Relaxed)
    }

    /// Total `file_permission` dispatches.
    pub fn file_permission_calls(&self) -> u64 {
        self.file_permission.load(Ordering::Relaxed)
    }
}

/// Ordered stack of security modules.
///
/// Constructed once at kernel boot ([`crate::kernel::KernelBuilder`]); the
/// order is the checking order, so putting SACK first reproduces the paper's
/// `CONFIG_LSM="SACK,AppArmor,..."` configuration.
pub struct LsmStack {
    modules: Vec<Arc<dyn SecurityModule>>,
    stats: LsmStats,
    trace: Arc<TraceHub>,
}

/// Mean number of traced dispatches per timed one, per thread.
///
/// After each timed dispatch a thread draws a gap of `1..=2·MEAN−1`
/// dispatches, uniformly, to its next timed one. A random gap keeps
/// periodic op patterns from hiding a hook or a verdict: a fixed stride of
/// 16 would never time the second hook of a two-hook op.
pub const SAMPLE_MEAN_GAP: u32 = 16;

/// A thread's latency sampler: a countdown to its next timed dispatch and
/// the xorshift32 state that draws the gaps.
struct Sampler {
    /// Traced dispatches until the next timed one; starts at 1 so the
    /// thread's first traced dispatch is timed.
    countdown: Cell<u32>,
    /// xorshift32 state, 0 until the thread's first draw seeds it.
    rng: Cell<u32>,
}

thread_local! {
    static SAMPLER: Sampler = const {
        Sampler {
            countdown: Cell::new(1),
            rng: Cell::new(0),
        }
    };
}

impl Sampler {
    /// Counts one traced dispatch; true when it is the one to time.
    #[inline]
    fn tick(&self) -> bool {
        let left = self.countdown.get() - 1;
        if left > 0 {
            self.countdown.set(left);
            return false;
        }
        self.countdown.set(self.next_gap());
        true
    }

    fn next_gap(&self) -> u32 {
        let mut x = self.rng.get();
        if x == 0 {
            // Seeded from this thread-local's address, which differs per
            // thread; Murmur3's finalizer spreads nearby addresses apart.
            let addr = self as *const Sampler as u64;
            x = (addr ^ (addr >> 32)) as u32;
            x = (x ^ (x >> 16)).wrapping_mul(0x85EB_CA6B);
            x = (x ^ (x >> 13)).wrapping_mul(0xC2B2_AE35);
            x = (x ^ (x >> 16)).max(1);
        }
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng.set(x);
        1 + x % (2 * SAMPLE_MEAN_GAP - 1)
    }
}

/// The start timestamp of a traced dispatch: read on the sampled ones only.
#[inline]
fn sampled_start() -> Option<Instant> {
    // Thread-local teardown: leave the dispatch untimed.
    let timed = SAMPLER.try_with(Sampler::tick).unwrap_or(false);
    timed.then(Instant::now)
}

/// Dispatch with one probe: [`LsmStack::probe`] before the module walk,
/// `hook_exit` after it on every traced dispatch. The `trace.enabled()`
/// relaxed load + branch is the *entire* disabled-path cost; the clock is
/// read only on a sampled dispatch, and events are only constructed when
/// tracing is on.
macro_rules! dispatch {
    ($self:ident, $tp:expr, $counter:ident, $hook:ident ( $($arg:expr),* )) => {{
        $self.stats.$counter.fetch_add(1, Ordering::Relaxed);
        dispatch!($self, $tp, $hook($($arg),*))
    }};
    ($self:ident, $tp:expr, $hook:ident ( $($arg:expr),* )) => {{
        let probe = $self.probe();
        let mut result = Ok(());
        for m in &$self.modules {
            if let Err(e) = m.$hook($($arg),*) {
                $self.stats.denials.fetch_add(1, Ordering::Relaxed);
                result = Err(e);
                break;
            }
        }
        if let Some(start) = probe {
            $self.hook_exit($tp, result.is_ok(), start);
        }
        result
    }};
}

impl LsmStack {
    /// Creates a stack with the given checking order and a private
    /// (disabled) trace hub.
    pub fn new(modules: Vec<Arc<dyn SecurityModule>>) -> Self {
        LsmStack::with_trace(modules, TraceHub::new())
    }

    /// Creates a stack wired to an externally owned trace hub, so consumers
    /// registered on the hub observe this stack's dispatches.
    pub fn with_trace(modules: Vec<Arc<dyn SecurityModule>>, trace: Arc<TraceHub>) -> Self {
        LsmStack {
            modules,
            stats: LsmStats::default(),
            trace,
        }
    }

    /// An empty stack (no MAC, DAC only) — the paper's "original system
    /// without LSM framework" baseline.
    pub fn empty() -> Self {
        LsmStack::new(Vec::new())
    }

    /// The tracepoint hub observing this stack.
    pub fn trace(&self) -> &Arc<TraceHub> {
        &self.trace
    }

    /// Names of the stacked modules, in checking order.
    pub fn module_names(&self) -> Vec<&'static str> {
        self.modules.iter().map(|m| m.name()).collect()
    }

    /// Number of stacked modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True if no modules are stacked.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Hook counters.
    pub fn stats(&self) -> &LsmStats {
        &self.stats
    }

    /// Dispatches `file_open`.
    pub fn file_open(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        mask: AccessMask,
    ) -> KernelResult<()> {
        dispatch!(
            self,
            TraceHook::FileOpen,
            file_open,
            file_open(ctx, obj, mask)
        )
    }

    /// Dispatches `file_permission`.
    pub fn file_permission(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        mask: AccessMask,
    ) -> KernelResult<()> {
        dispatch!(
            self,
            TraceHook::FilePermission,
            file_permission,
            file_permission(ctx, obj, mask)
        )
    }

    /// Dispatches `file_ioctl`.
    pub fn file_ioctl(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, cmd: u32) -> KernelResult<()> {
        dispatch!(
            self,
            TraceHook::FileIoctl,
            file_ioctl,
            file_ioctl(ctx, obj, cmd)
        )
    }

    /// Dispatches `file_mmap`.
    pub fn file_mmap(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        mask: AccessMask,
    ) -> KernelResult<()> {
        dispatch!(self, TraceHook::FileMmap, file_mmap(ctx, obj, mask))
    }

    /// Dispatches `inode_create`.
    pub fn inode_create(
        &self,
        ctx: &HookCtx,
        parent: &KPath,
        name: &str,
        kind: ObjectKind,
    ) -> KernelResult<()> {
        dispatch!(
            self,
            TraceHook::InodeCreate,
            inode_create(ctx, parent, name, kind)
        )
    }

    /// Dispatches `inode_unlink`.
    pub fn inode_unlink(&self, ctx: &HookCtx, obj: &ObjectRef<'_>) -> KernelResult<()> {
        dispatch!(self, TraceHook::InodeUnlink, inode_unlink(ctx, obj))
    }

    /// Dispatches `inode_rename`.
    pub fn inode_rename(
        &self,
        ctx: &HookCtx,
        old: &ObjectRef<'_>,
        new: &KPath,
    ) -> KernelResult<()> {
        dispatch!(self, TraceHook::InodeRename, inode_rename(ctx, old, new))
    }

    /// Dispatches `inode_getattr`.
    pub fn inode_getattr(&self, ctx: &HookCtx, obj: &ObjectRef<'_>) -> KernelResult<()> {
        dispatch!(self, TraceHook::InodeGetattr, inode_getattr(ctx, obj))
    }

    /// Dispatches `bprm_check`.
    pub fn bprm_check(&self, ctx: &HookCtx, exe: &KPath) -> KernelResult<()> {
        dispatch!(self, TraceHook::BprmCheck, bprm_check(ctx, exe))
    }

    /// Dispatches `bprm_committed` (notification, cannot deny).
    pub fn bprm_committed(&self, ctx: &HookCtx, exe: &KPath) {
        let probe = self.probe();
        for m in &self.modules {
            m.bprm_committed(ctx, exe);
        }
        if let Some(start) = probe {
            self.hook_exit(TraceHook::BprmCommitted, true, start);
        }
    }

    /// Dispatches `task_alloc`.
    pub fn task_alloc(&self, ctx: &HookCtx, child: Pid) -> KernelResult<()> {
        dispatch!(self, TraceHook::TaskAlloc, task_alloc(ctx, child))
    }

    /// Dispatches `task_free` (notification, cannot deny).
    pub fn task_free(&self, pid: Pid) {
        let probe = self.probe();
        for m in &self.modules {
            m.task_free(pid);
        }
        if let Some(start) = probe {
            self.hook_exit(TraceHook::TaskFree, true, start);
        }
    }

    /// A dispatch's one probe: `None` while tracing is off, else the start
    /// timestamp, which is read only on a sampled dispatch.
    #[inline]
    fn probe(&self) -> Option<Option<Instant>> {
        if self.trace.enabled() {
            Some(sampled_start())
        } else {
            None
        }
    }

    /// Emits `hook_exit` for a traced dispatch, with its latency when the
    /// dispatch was sampled. Notification hooks pass `allowed = true`: they
    /// cannot deny.
    fn hook_exit(&self, hook: TraceHook, allowed: bool, start: Option<Instant>) {
        self.trace.emit(&TraceEvent::HookExit {
            hook,
            verdict: if allowed {
                TraceVerdict::Allow
            } else {
                TraceVerdict::Deny
            },
            latency_ns: start.map(|t0| t0.elapsed().as_nanos() as u64),
        });
    }

    /// Dispatches `capable`.
    pub fn capable(&self, ctx: &HookCtx, cap: Capability) -> KernelResult<()> {
        dispatch!(self, TraceHook::Capable, capable(ctx, cap))
    }

    /// Dispatches `socket_create`.
    pub fn socket_create(&self, ctx: &HookCtx, family: SocketFamily) -> KernelResult<()> {
        dispatch!(self, TraceHook::SocketCreate, socket_create(ctx, family))
    }

    /// Dispatches `socket_connect`.
    pub fn socket_connect(
        &self,
        ctx: &HookCtx,
        family: SocketFamily,
        addr: &str,
    ) -> KernelResult<()> {
        dispatch!(
            self,
            TraceHook::SocketConnect,
            socket_connect(ctx, family, addr)
        )
    }
}

impl fmt::Debug for LsmStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LsmStack")
            .field("modules", &self.module_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Errno, KernelError};

    struct AllowAll;
    impl SecurityModule for AllowAll {
        fn name(&self) -> &'static str {
            "allow-all"
        }
    }

    struct DenyOpen;
    impl SecurityModule for DenyOpen {
        fn name(&self) -> &'static str {
            "deny-open"
        }
        fn file_open(&self, _: &HookCtx, _: &ObjectRef<'_>, _: AccessMask) -> KernelResult<()> {
            Err(KernelError::with_context(Errno::EACCES, "deny-open"))
        }
    }

    fn ctx() -> HookCtx {
        HookCtx::new(Pid(1), Credentials::root(), None)
    }

    #[test]
    fn access_mask_ops() {
        let rw = AccessMask::READ | AccessMask::WRITE;
        assert!(rw.contains(AccessMask::READ));
        assert!(rw.contains(AccessMask::WRITE));
        assert!(!rw.contains(AccessMask::EXEC));
        assert!(rw.intersects(AccessMask::WRITE));
        assert!(!AccessMask::empty().intersects(rw));
        assert_eq!(rw.to_string(), "rw");
        assert_eq!(AccessMask::empty().to_string(), "-");
        assert_eq!(AccessMask::from_bits(rw.bits()), rw);
    }

    #[test]
    fn first_deny_wins() {
        let stack = LsmStack::new(vec![Arc::new(DenyOpen), Arc::new(AllowAll)]);
        let path = KPath::new("/etc/passwd").unwrap();
        let obj = ObjectRef::regular(&path);
        let err = stack.file_open(&ctx(), &obj, AccessMask::READ).unwrap_err();
        assert_eq!(err.errno(), Errno::EACCES);
        assert_eq!(err.context(), Some("deny-open"));
        assert_eq!(stack.stats().denials(), 1);
    }

    #[test]
    fn empty_stack_allows_everything() {
        let stack = LsmStack::empty();
        assert!(stack.is_empty());
        let path = KPath::new("/x").unwrap();
        let obj = ObjectRef::regular(&path);
        assert!(stack.file_open(&ctx(), &obj, AccessMask::WRITE).is_ok());
        assert!(stack.capable(&ctx(), Capability::MacAdmin).is_ok());
    }

    #[test]
    fn module_order_is_checking_order() {
        let stack = LsmStack::new(vec![Arc::new(AllowAll), Arc::new(DenyOpen)]);
        assert_eq!(stack.module_names(), vec!["allow-all", "deny-open"]);
        assert_eq!(stack.len(), 2);
    }

    #[test]
    fn unimplemented_hooks_default_to_allow() {
        let stack = LsmStack::new(vec![Arc::new(DenyOpen)]);
        let path = KPath::new("/x").unwrap();
        let obj = ObjectRef::regular(&path);
        // DenyOpen only denies file_open; all other hooks pass.
        assert!(stack
            .file_permission(&ctx(), &obj, AccessMask::READ)
            .is_ok());
        assert!(stack.file_ioctl(&ctx(), &obj, 0xABCD).is_ok());
        assert!(stack.bprm_check(&ctx(), &path).is_ok());
    }

    #[test]
    fn stats_count_dispatches() {
        let stack = LsmStack::new(vec![Arc::new(AllowAll)]);
        let path = KPath::new("/x").unwrap();
        let obj = ObjectRef::regular(&path);
        for _ in 0..5 {
            stack
                .file_permission(&ctx(), &obj, AccessMask::READ)
                .unwrap();
        }
        assert_eq!(stack.stats().file_permission_calls(), 5);
    }
}
