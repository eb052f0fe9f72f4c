//! The kernel object: ties together VFS, LSM stack, process table, IPC and
//! the simulated clock.

use std::fmt;
use std::sync::Arc;

use crate::cred::{Capability, Credentials};
use crate::error::{Errno, KernelError, KernelResult};
use crate::ipc::ListenerTable;
use crate::lsm::{LsmStack, SecurityModule};
use crate::path::KPath;
use crate::securityfs::{SecurityFsFile, SECURITYFS_ROOT};
use crate::task::ProcessTable;
use crate::time::SimClock;
use crate::trace::TraceHub;
use crate::types::Pid;
use crate::uctx::UserContext;
use crate::vfs::Vfs;

/// Boot-time kernel configuration, mirroring `CONFIG_LSM=`.
///
/// # Examples
///
/// ```
/// use sack_kernel::kernel::KernelBuilder;
///
/// let kernel = KernelBuilder::new().boot();
/// assert!(kernel.lsm().is_empty()); // DAC-only kernel
/// ```
#[derive(Default)]
pub struct KernelBuilder {
    modules: Vec<Arc<dyn SecurityModule>>,
    trace: Option<Arc<TraceHub>>,
}

impl KernelBuilder {
    /// Starts a configuration with no security modules (DAC only).
    pub fn new() -> Self {
        KernelBuilder::default()
    }

    /// Appends a security module; order of calls is checking order.
    pub fn security_module(mut self, module: Arc<dyn SecurityModule>) -> Self {
        self.modules.push(module);
        self
    }

    /// Uses an externally owned trace hub instead of booting a fresh one,
    /// so consumers can register callbacks before the first dispatch.
    pub fn trace_hub(mut self, hub: Arc<TraceHub>) -> Self {
        self.trace = Some(hub);
        self
    }

    /// Boots the kernel: builds the LSM stack, creates the standard
    /// filesystem skeleton (`/dev`, `/etc`, `/tmp`, `/usr/bin`, securityfs
    /// mount point) and returns the kernel handle.
    pub fn boot(self) -> Arc<Kernel> {
        let trace = self.trace.unwrap_or_else(TraceHub::new);
        let kernel = Arc::new(Kernel {
            vfs: Vfs::new(),
            lsm: LsmStack::with_trace(self.modules, trace),
            tasks: ProcessTable::new(),
            listeners: ListenerTable::new(),
            clock: SimClock::new(),
        });
        for dir in ["/dev", "/etc", "/usr/bin", "/home", SECURITYFS_ROOT] {
            kernel
                .vfs
                .mkdir_all(&KPath::new(dir).expect("boot path is valid"))
                .expect("boot skeleton creation cannot fail on empty fs");
        }
        // /tmp is world-writable, as on Linux (mode 1777).
        kernel
            .vfs
            .mkdir(
                &KPath::new("/tmp").expect("boot path is valid"),
                crate::types::Mode(0o777),
                crate::cred::Uid::ROOT,
                crate::cred::Gid(0),
            )
            .expect("boot skeleton creation cannot fail on empty fs");
        kernel
    }
}

impl fmt::Debug for KernelBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelBuilder")
            .field("modules", &self.modules.len())
            .finish()
    }
}

/// The simulated kernel.
///
/// All user-space interaction goes through [`UserContext`] handles returned
/// by [`Kernel::spawn`]; the kernel itself only exposes the mechanism
/// surfaces that in-kernel components (security modules, drivers) need.
pub struct Kernel {
    vfs: Vfs,
    lsm: LsmStack,
    tasks: ProcessTable,
    listeners: ListenerTable,
    clock: SimClock,
}

impl Kernel {
    /// Boots a DAC-only kernel (no security modules).
    pub fn boot_default() -> Arc<Kernel> {
        KernelBuilder::new().boot()
    }

    /// The virtual filesystem.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// The LSM stack.
    pub fn lsm(&self) -> &LsmStack {
        &self.lsm
    }

    /// The tracepoint hub shared by the LSM stack and the security modules.
    pub fn trace(&self) -> &Arc<TraceHub> {
        self.lsm.trace()
    }

    /// The process table.
    pub fn tasks(&self) -> &ProcessTable {
        &self.tasks
    }

    /// The socket listener table.
    pub fn listeners(&self) -> &ListenerTable {
        &self.listeners
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Spawns a user-space process with the given credentials and returns
    /// its syscall handle. This models init/systemd launching a service.
    pub fn spawn(self: &Arc<Self>, cred: Credentials) -> UserContext {
        let task = self.tasks.spawn(Pid(0), cred);
        UserContext::new(Arc::clone(self), task)
    }

    /// Registers a securityfs node; used by security modules during
    /// initialization (e.g. SACKfs's `/sys/kernel/security/SACK/events`).
    ///
    /// # Errors
    ///
    /// `EEXIST` if the node already exists.
    pub fn register_securityfs(
        &self,
        path: &KPath,
        ops: Arc<dyn SecurityFsFile>,
    ) -> KernelResult<()> {
        if !path.starts_with(&KPath::new(SECURITYFS_ROOT).expect("const path is valid")) {
            return Err(KernelError::with_context(Errno::EINVAL, "securityfs"));
        }
        self.vfs.register_securityfs(path, ops)?;
        Ok(())
    }

    /// In-kernel capability check with LSM mediation (`capable()`).
    ///
    /// # Errors
    ///
    /// `EPERM` if the credentials lack the capability or a module denies it.
    pub fn capable(&self, ctx: &crate::lsm::HookCtx, cap: Capability) -> KernelResult<()> {
        if !ctx.cred.capable(cap) {
            return Err(KernelError::with_context(Errno::EPERM, "cred"));
        }
        self.lsm.capable(ctx, cap)
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("lsm", &self.lsm)
            .field("tasks", &self.tasks)
            .field("vfs", &self.vfs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_creates_skeleton() {
        let kernel = Kernel::boot_default();
        for dir in ["/dev", "/etc", "/tmp", "/usr/bin", "/sys/kernel/security"] {
            assert!(
                kernel.vfs().exists(&KPath::new(dir).unwrap()),
                "{dir} missing"
            );
        }
    }

    #[test]
    fn spawn_creates_live_task() {
        let kernel = Kernel::boot_default();
        let ctx = kernel.spawn(Credentials::root());
        assert!(kernel.tasks().get(ctx.pid()).is_ok());
    }

    #[test]
    fn securityfs_registration_outside_mount_rejected() {
        struct Stub;
        impl SecurityFsFile for Stub {}
        let kernel = Kernel::boot_default();
        let err = kernel
            .register_securityfs(&KPath::new("/etc/evil").unwrap(), Arc::new(Stub))
            .unwrap_err();
        assert_eq!(err.errno(), Errno::EINVAL);
    }

    #[test]
    fn capable_requires_cred_bit() {
        let kernel = Kernel::boot_default();
        let root = kernel.spawn(Credentials::root());
        let user = kernel.spawn(Credentials::user(1000, 1000));
        let root_task = kernel.tasks().get(root.pid()).unwrap();
        let user_task = kernel.tasks().get(user.pid()).unwrap();
        assert!(kernel
            .capable(&root_task.hook_ctx(), Capability::MacAdmin)
            .is_ok());
        assert!(kernel
            .capable(&user_task.hook_ctx(), Capability::MacAdmin)
            .is_err());
    }
}
