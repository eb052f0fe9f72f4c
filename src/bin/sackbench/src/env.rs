//! The system under test: one booted kernel per LSM configuration, and the
//! harness's handles into its layers. Everything here calls the repository's
//! crates through their public API only.

use std::sync::Arc;

use sack_apparmor::{AppArmor, FilePerms, PolicyDb};
use sack_core::Sack;
use sack_kernel::cred::{Capability, Credentials};
use sack_kernel::error::KernelResult;
use sack_kernel::file::OpenFlags;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::{AccessMask, HookCtx, LsmStack, ObjectKind, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::{DeviceId, Mode};
use sack_kernel::uctx::UserContext;
use sack_kernel::{Gid, Uid};

/// The LSM stacks compared (the paper's Table II columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// No security module: the baseline of `independent`.
    NoLsm,
    /// AppArmor alone: the baseline of `enhanced`.
    AppArmor,
    /// SACK in enhanced mode stacked before AppArmor.
    Enhanced,
    /// SACK enforcing its own rules.
    Independent,
}

impl Config {
    /// Round order: each SACK configuration runs next to its baseline.
    pub const ALL: [Config; 4] = [
        Config::NoLsm,
        Config::Independent,
        Config::Enhanced,
        Config::AppArmor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Config::NoLsm => "no-lsm",
            Config::AppArmor => "apparmor",
            Config::Enhanced => "enhanced",
            Config::Independent => "independent",
        }
    }

    /// The same-run baseline a SACK configuration is compared against.
    pub fn baseline(self) -> Option<Config> {
        match self {
            Config::Independent => Some(Config::NoLsm),
            Config::Enhanced => Some(Config::AppArmor),
            _ => None,
        }
    }
}

/// Policy texts a workload boots its kernels with.
pub struct Policies<'a> {
    /// SACK policy for `independent`.
    pub independent: &'a str,
    /// SACK policy for `enhanced` (profile-scoped rules only).
    pub enhanced: &'a str,
    /// AppArmor profiles for `apparmor` and `enhanced`.
    pub profiles: &'a str,
}

/// One booted kernel and its security modules.
pub struct Env {
    pub config: Config,
    pub kernel: Arc<Kernel>,
    pub sack: Option<Arc<Sack>>,
    pub apparmor: Option<Arc<AppArmor>>,
}

impl Env {
    /// Boots `config` with `policies`, attaching SACKfs when SACK is stacked.
    ///
    /// # Panics
    ///
    /// On a policy the harness generated wrongly: that is a harness bug.
    pub fn boot(config: Config, policies: &Policies<'_>) -> Env {
        let apparmor = matches!(config, Config::AppArmor | Config::Enhanced).then(|| {
            let db = Arc::new(PolicyDb::new());
            db.load_text(policies.profiles)
                .expect("harness profiles parse");
            AppArmor::new(db)
        });
        let sack = match config {
            Config::Independent => {
                Some(Sack::independent(policies.independent).expect("harness policy loads"))
            }
            Config::Enhanced => Some(
                Sack::enhanced_apparmor(
                    policies.enhanced,
                    Arc::clone(apparmor.as_ref().expect("enhanced stacks AppArmor")),
                )
                .expect("harness enhanced policy loads"),
            ),
            _ => None,
        };
        let mut builder = KernelBuilder::new();
        if let Some(s) = &sack {
            builder = builder.security_module(Arc::clone(s) as Arc<dyn SecurityModule>);
        }
        if let Some(aa) = &apparmor {
            builder = builder.security_module(Arc::clone(aa) as Arc<dyn SecurityModule>);
        }
        let kernel = builder.boot();
        if let Some(s) = &sack {
            s.attach(&kernel)
                .expect("SACKfs attaches to a fresh kernel");
        }
        Env {
            config,
            kernel,
            sack,
            apparmor,
        }
    }

    /// Creates an executable at `exe` (root-owned, `0755`).
    pub fn install_exe(&self, exe: &str) -> KernelResult<()> {
        self.kernel
            .vfs()
            .create_file(&KPath::new(exe)?, Mode::EXEC, Uid::ROOT, Gid(0))?;
        Ok(())
    }

    /// Spawns an unprivileged process running `exe`; exec attaches the
    /// matching AppArmor profile where AppArmor is stacked.
    pub fn spawn_exec(&self, uid: u32, exe: &str) -> KernelResult<UserContext> {
        let proc = self.kernel.spawn(Credentials::user(uid, uid));
        proc.exec(exe)?;
        Ok(proc)
    }

    /// Writes `data` to a SACKfs node as a `CAP_MAC_ADMIN` process.
    pub fn admin_write(&self, node: &str, data: &[u8]) -> KernelResult<()> {
        let admin = self
            .kernel
            .spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
        let fd = admin.open(node, OpenFlags::write_only())?;
        let result = admin.write(fd, data).map(|_| ());
        admin.close(fd)?;
        admin.exit();
        result
    }

    /// Reads a SACKfs node as a `CAP_MAC_ADMIN` process.
    pub fn admin_read(&self, node: &str) -> KernelResult<Vec<u8>> {
        let admin = self
            .kernel
            .spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
        let out = admin.read_to_vec(node);
        admin.exit();
        out
    }

    /// The hooks `LsmStats` counts: `file_open`, `file_permission` and
    /// `file_ioctl` dispatches.
    pub fn lsm_calls(&self) -> u64 {
        use std::sync::atomic::Ordering::Relaxed;
        let lsm = self.kernel.lsm().stats();
        lsm.file_open.load(Relaxed)
            + lsm.file_permission.load(Relaxed)
            + lsm.file_ioctl.load(Relaxed)
    }

    /// Every public counter of every layer, summed where a layer keeps
    /// several.
    pub fn counters(&self) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let mut c = Counters {
            lsm_calls: self.lsm_calls(),
            lsm_denials: self.kernel.lsm().stats().denials(),
            ..Counters::default()
        };
        if let Some(sack) = &self.sack {
            let s = sack.stats();
            c.sack_checks = s.checks.load(Relaxed);
            c.sack_denials = s.denials.load(Relaxed);
            c.sack_unprotected = s.unprotected.load(Relaxed);
            c.cache_hits = s.cache_hits.load(Relaxed);
            c.cache_misses = s.cache_misses.load(Relaxed);
            c.audit_records = sack.audit().total();
            c.audit_lost = sack.audit().lost_records();
            if let Some(plane) = sack.event_plane() {
                c.plane_frames = plane.drained_frames();
                c.plane_transitions = plane.transitions_published();
                c.plane_coalesced = plane.frames_coalesced();
                c.plane_dropped = plane.dropped();
                c.plane_backpressure = plane.backpressure_waits();
            }
        }
        if let Some(aa) = &self.apparmor {
            c.profile_compiles = aa.policy().compile_count();
        }
        c
    }
}

/// Declares `Counters` with one `u64` per name, and the field-wise
/// difference and sum rounds are accumulated with.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// A snapshot of the layers' public counters. Reading them costs a
        /// few relaxed loads, so the harness reads them at every round
        /// boundary.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// Field-wise sum.
            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counters!(
    lsm_calls,
    lsm_denials,
    sack_checks,
    sack_denials,
    sack_unprotected,
    cache_hits,
    cache_misses,
    audit_records,
    audit_lost,
    plane_frames,
    plane_transitions,
    plane_coalesced,
    plane_dropped,
    plane_backpressure,
    profile_compiles,
);

/// The object a hook is about, owned so replays can keep it across calls.
#[derive(Debug, Clone)]
pub struct Object {
    pub path: KPath,
    pub kind: ObjectKind,
    pub dev: Option<DeviceId>,
}

impl Object {
    pub fn regular(path: KPath) -> Object {
        Object {
            path,
            kind: ObjectKind::Regular,
            dev: None,
        }
    }

    fn as_ref(&self) -> ObjectRef<'_> {
        ObjectRef {
            path: &self.path,
            kind: self.kind,
            dev: self.dev,
        }
    }
}

/// One LSM hook invocation an operation makes, with its arguments: what the
/// trace replays against the stack and against each module.
#[derive(Debug, Clone)]
pub enum HookCall {
    Open(Object, AccessMask),
    Permission(Object, AccessMask),
    Ioctl(Object, u32),
    Create(KPath, String),
    Rename(Object, KPath),
    Unlink(Object),
}

impl HookCall {
    /// Dispatches through the whole stack (`LsmStack::<hook>`).
    pub fn dispatch(&self, stack: &LsmStack, ctx: &HookCtx) -> KernelResult<()> {
        match self {
            HookCall::Open(o, m) => stack.file_open(ctx, &o.as_ref(), *m),
            HookCall::Permission(o, m) => stack.file_permission(ctx, &o.as_ref(), *m),
            HookCall::Ioctl(o, cmd) => stack.file_ioctl(ctx, &o.as_ref(), *cmd),
            HookCall::Create(parent, name) => {
                stack.inode_create(ctx, parent, name, ObjectKind::Regular)
            }
            HookCall::Rename(o, new) => stack.inode_rename(ctx, &o.as_ref(), new),
            HookCall::Unlink(o) => stack.inode_unlink(ctx, &o.as_ref()),
        }
    }

    /// Calls one module's hook directly (`<M as SecurityModule>::<hook>`).
    pub fn call(&self, module: &dyn SecurityModule, ctx: &HookCtx) -> KernelResult<()> {
        match self {
            HookCall::Open(o, m) => module.file_open(ctx, &o.as_ref(), *m),
            HookCall::Permission(o, m) => module.file_permission(ctx, &o.as_ref(), *m),
            HookCall::Ioctl(o, cmd) => module.file_ioctl(ctx, &o.as_ref(), *cmd),
            HookCall::Create(parent, name) => {
                module.inode_create(ctx, parent, name, ObjectKind::Regular)
            }
            HookCall::Rename(o, new) => module.inode_rename(ctx, &o.as_ref(), new),
            HookCall::Unlink(o) => module.inode_unlink(ctx, &o.as_ref()),
        }
    }

    /// The `(path, permissions)` decisions SACK's access check makes for
    /// this hook, in order.
    pub fn sack_decisions(&self) -> Vec<(&str, FilePerms)> {
        match self {
            HookCall::Open(o, m) | HookCall::Permission(o, m) => {
                vec![(o.path.as_str(), FilePerms::from_access_mask(*m))]
            }
            HookCall::Ioctl(o, _) => vec![(o.path.as_str(), FilePerms::IOCTL)],
            HookCall::Create(..) => Vec::new(),
            HookCall::Rename(o, new) => vec![
                (o.path.as_str(), FilePerms::WRITE),
                (new.as_str(), FilePerms::WRITE),
            ],
            HookCall::Unlink(o) => vec![(o.path.as_str(), FilePerms::WRITE)],
        }
    }

    /// True for the hooks `LsmStats` counts (`file_open`,
    /// `file_permission`, `file_ioctl`).
    pub fn counted(&self) -> bool {
        matches!(
            self,
            HookCall::Open(..) | HookCall::Permission(..) | HookCall::Ioctl(..)
        )
    }
}
