//! The AppArmor security module: LSM hook implementation.
//!
//! Confinement model (matching AppArmor's):
//!
//! * tasks start **unconfined** (everything allowed);
//! * on `exec`, a task whose executable matches a profile's attachment
//!   pattern enters that profile's domain;
//! * children inherit the parent's confinement across `fork`;
//! * confined tasks are mediated on file open/permission/ioctl/mmap,
//!   capability use and socket creation;
//! * `complain`-mode profiles log violations instead of denying them.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use sack_kernel::cred::Capability;
use sack_kernel::error::{Errno, KernelError, KernelResult};
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectKind, ObjectRef, SecurityModule, SocketFamily};
use sack_kernel::path::KPath;
use sack_kernel::sync::Rcu;
use sack_kernel::types::Pid;

use crate::policy::{CompiledProfile, PolicyDb};
use crate::profile::{FilePerms, ProfileMode};

/// One audit-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Acting task.
    pub pid: Pid,
    /// Confining profile.
    pub profile: String,
    /// Operation (`"open"`, `"file_perm"`, `"ioctl"`, `"capable"`, ...).
    pub op: &'static str,
    /// Target (path, capability name, socket family).
    pub target: String,
    /// Requested permissions, displayed in AppArmor letters.
    pub requested: String,
    /// `true` if the access was permitted (complain mode logs allowed=true
    /// for would-be denials together with `complain=true`).
    pub allowed: bool,
    /// `true` when a violation was let through by complain mode.
    pub complain: bool,
}

/// The AppArmor LSM.
pub struct AppArmor {
    policy: Arc<PolicyDb>,
    /// Pid → compiled-profile snapshot, RCU-published copy-on-write: hook
    /// reads are wait-free `Rcu::read` snapshots; the (rare) confinement
    /// mutations on fork/exec/exit swap in a whole rebuilt map.
    confinement: Rcu<HashMap<Pid, Arc<CompiledProfile>>>,
    audit: Mutex<Vec<AuditEvent>>,
}

impl AppArmor {
    /// Creates the module over a policy database.
    pub fn new(policy: Arc<PolicyDb>) -> Arc<AppArmor> {
        Arc::new(AppArmor {
            policy,
            confinement: Rcu::new(HashMap::new()),
            audit: Mutex::new(Vec::new()),
        })
    }

    /// The policy database.
    pub fn policy(&self) -> &Arc<PolicyDb> {
        &self.policy
    }

    /// Confines `pid` under the named profile immediately (the
    /// `aa-exec -p` administrative path).
    ///
    /// # Errors
    ///
    /// `EINVAL` if the profile is not loaded.
    pub fn set_profile(&self, pid: Pid, name: &str) -> KernelResult<()> {
        let profile = self
            .policy
            .get(name)
            .ok_or_else(|| KernelError::with_context(Errno::EINVAL, "apparmor"))?;
        self.confinement.update(|map| {
            let mut next = map.clone();
            next.insert(pid, profile);
            (next, ())
        });
        Ok(())
    }

    /// Removes confinement from `pid`.
    pub fn unconfine(&self, pid: Pid) {
        self.confinement.update(|map| {
            let mut next = map.clone();
            next.remove(&pid);
            (next, ())
        });
    }

    /// The name of the profile confining `pid`, if any.
    pub fn current_profile(&self, pid: Pid) -> Option<String> {
        self.confinement
            .read()
            .get(&pid)
            .map(|p| p.profile().name.clone())
    }

    /// Number of confined tasks.
    pub fn confined_count(&self) -> usize {
        self.confinement.read().len()
    }

    /// Drains and returns the audit log.
    pub fn take_audit_log(&self) -> Vec<AuditEvent> {
        std::mem::take(&mut self.audit.lock())
    }

    /// Refreshes each task's compiled-profile snapshot from the policy
    /// database. Called by SACK's adaptive policy enforcer after patching
    /// profiles so confined tasks pick up the new rules.
    pub fn refresh_confinement(&self) {
        self.confinement.update(|map| {
            let next = map
                .iter()
                .map(|(pid, compiled)| {
                    let fresh = self
                        .policy
                        .get(&compiled.profile().name)
                        .unwrap_or_else(|| Arc::clone(compiled));
                    (*pid, fresh)
                })
                .collect();
            (next, ())
        });
    }

    fn confining(&self, pid: Pid) -> Option<Arc<CompiledProfile>> {
        self.confinement.read().get(&pid).cloned()
    }

    #[allow(clippy::too_many_arguments)] // mirrors the audit record's fields
    fn audit(
        &self,
        ctx: &HookCtx,
        profile: &CompiledProfile,
        op: &'static str,
        target: &str,
        requested: String,
        allowed: bool,
        complain: bool,
    ) {
        self.audit.lock().push(AuditEvent {
            pid: ctx.pid,
            profile: profile.profile().name.clone(),
            op,
            target: target.to_string(),
            requested,
            allowed,
            complain,
        });
    }

    fn check_file(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        requested: FilePerms,
        op: &'static str,
    ) -> KernelResult<()> {
        // Pipes and sockets are not path-mediated by AppArmor file rules.
        if matches!(obj.kind, ObjectKind::Pipe | ObjectKind::Socket) {
            return Ok(());
        }
        let Some(profile) = self.confining(ctx.pid) else {
            return Ok(());
        };
        let decision = if self.policy.dfa_matcher_enabled() {
            profile.rules().evaluate_dfa(obj.path.as_str())
        } else {
            profile.rules().evaluate(obj.path.as_str())
        };
        if decision.permits(requested) {
            return Ok(());
        }
        if profile.profile().mode == ProfileMode::Complain {
            self.audit(
                ctx,
                &profile,
                op,
                obj.path.as_str(),
                requested.to_string(),
                true,
                true,
            );
            return Ok(());
        }
        self.audit(
            ctx,
            &profile,
            op,
            obj.path.as_str(),
            requested.to_string(),
            false,
            false,
        );
        Err(KernelError::with_context(Errno::EACCES, "apparmor"))
    }
}

impl SecurityModule for AppArmor {
    fn name(&self) -> &'static str {
        "apparmor"
    }

    fn file_open(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, mask: AccessMask) -> KernelResult<()> {
        self.check_file(ctx, obj, FilePerms::from_access_mask(mask), "open")
    }

    fn file_permission(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        mask: AccessMask,
    ) -> KernelResult<()> {
        self.check_file(ctx, obj, FilePerms::from_access_mask(mask), "file_perm")
    }

    fn file_ioctl(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, _cmd: u32) -> KernelResult<()> {
        self.check_file(ctx, obj, FilePerms::IOCTL, "ioctl")
    }

    fn file_mmap(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, _mask: AccessMask) -> KernelResult<()> {
        self.check_file(ctx, obj, FilePerms::MMAP, "mmap")
    }

    fn inode_unlink(&self, ctx: &HookCtx, obj: &ObjectRef<'_>) -> KernelResult<()> {
        self.check_file(ctx, obj, FilePerms::WRITE, "unlink")
    }

    fn inode_rename(&self, ctx: &HookCtx, old: &ObjectRef<'_>, new: &KPath) -> KernelResult<()> {
        // AppArmor requires write on both the source and the destination.
        self.check_file(ctx, old, FilePerms::WRITE, "rename")?;
        let new_obj = ObjectRef {
            path: new,
            kind: old.kind,
            dev: None,
        };
        self.check_file(ctx, &new_obj, FilePerms::WRITE, "rename")
    }

    fn bprm_check(&self, ctx: &HookCtx, exe: &KPath) -> KernelResult<()> {
        // If the task is confined, it may only exec what its profile allows.
        let Some(profile) = self.confining(ctx.pid) else {
            return Ok(());
        };
        let decision = if self.policy.dfa_matcher_enabled() {
            profile.rules().evaluate_dfa(exe.as_str())
        } else {
            profile.rules().evaluate(exe.as_str())
        };
        if decision.permits(FilePerms::EXEC) || profile.profile().mode == ProfileMode::Complain {
            Ok(())
        } else {
            self.audit(
                ctx,
                &profile,
                "exec",
                exe.as_str(),
                "x".to_string(),
                false,
                false,
            );
            Err(KernelError::with_context(Errno::EACCES, "apparmor"))
        }
    }

    fn bprm_committed(&self, ctx: &HookCtx, exe: &KPath) {
        // Domain transition: attach the profile matching the new image.
        if let Some(profile) = self.policy.find_by_attachment(exe.as_str()) {
            self.confinement.update(|map| {
                let mut next = map.clone();
                next.insert(ctx.pid, profile);
                (next, ())
            });
        }
    }

    fn task_alloc(&self, ctx: &HookCtx, child: Pid) -> KernelResult<()> {
        if let Some(profile) = self.confining(ctx.pid) {
            self.confinement.update(|map| {
                let mut next = map.clone();
                next.insert(child, profile);
                (next, ())
            });
        }
        Ok(())
    }

    fn task_free(&self, pid: Pid) {
        // Skip the copy-and-swap when the task was never confined: exits of
        // unconfined tasks should not clone the whole map.
        if self.confinement.read().contains_key(&pid) {
            self.confinement.update(|map| {
                let mut next = map.clone();
                next.remove(&pid);
                (next, ())
            });
        }
    }

    fn capable(&self, ctx: &HookCtx, cap: Capability) -> KernelResult<()> {
        let Some(profile) = self.confining(ctx.pid) else {
            return Ok(());
        };
        if profile.profile().capabilities.contains(&cap) {
            return Ok(());
        }
        if profile.profile().mode == ProfileMode::Complain {
            self.audit(
                ctx,
                &profile,
                "capable",
                cap.name(),
                String::new(),
                true,
                true,
            );
            return Ok(());
        }
        self.audit(
            ctx,
            &profile,
            "capable",
            cap.name(),
            String::new(),
            false,
            false,
        );
        Err(KernelError::with_context(Errno::EPERM, "apparmor"))
    }

    fn socket_create(&self, ctx: &HookCtx, family: SocketFamily) -> KernelResult<()> {
        let Some(profile) = self.confining(ctx.pid) else {
            return Ok(());
        };
        if profile.profile().networks.contains(&family) {
            return Ok(());
        }
        if profile.profile().mode == ProfileMode::Complain {
            self.audit(
                ctx,
                &profile,
                "socket",
                &family.to_string(),
                String::new(),
                true,
                true,
            );
            return Ok(());
        }
        self.audit(
            ctx,
            &profile,
            "socket",
            &family.to_string(),
            String::new(),
            false,
            false,
        );
        Err(KernelError::with_context(Errno::EACCES, "apparmor"))
    }
}

impl fmt::Debug for AppArmor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppArmor")
            .field("profiles", &self.policy.len())
            .field("confined", &self.confined_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sack_kernel::cred::Credentials;
    use sack_kernel::file::OpenFlags;
    use sack_kernel::kernel::KernelBuilder;
    use sack_kernel::types::Mode;

    fn boot_with_profiles(text: &str) -> (Arc<sack_kernel::Kernel>, Arc<AppArmor>) {
        let policy = Arc::new(PolicyDb::new());
        policy.load_text(text).unwrap();
        let apparmor = AppArmor::new(policy);
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
            .boot();
        (kernel, apparmor)
    }

    #[test]
    fn unconfined_tasks_are_unrestricted() {
        let (kernel, _aa) = boot_with_profiles("profile locked { /nothing r, }");
        let p = kernel.spawn(Credentials::root());
        assert!(p.write_file("/tmp/x", b"1").is_ok());
    }

    #[test]
    fn confined_task_is_mediated() {
        let (kernel, aa) = boot_with_profiles("profile app { /tmp/allowed rw, /tmp/* r, }");
        let p = kernel.spawn(Credentials::root());
        // Pre-create files while unconfined.
        p.write_file("/tmp/allowed", b"a").unwrap();
        p.write_file("/tmp/readonly", b"r").unwrap();
        aa.set_profile(p.pid(), "app").unwrap();

        assert!(p.open("/tmp/allowed", OpenFlags::read_write()).is_ok());
        assert!(p.open("/tmp/readonly", OpenFlags::read_only()).is_ok());
        let err = p
            .open("/tmp/readonly", OpenFlags::write_only())
            .unwrap_err();
        assert_eq!(err.context(), Some("apparmor"));
        let log = aa.take_audit_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].op, "open");
        assert!(!log[0].allowed);
    }

    #[test]
    fn exec_attaches_profile_and_fork_inherits() {
        let (kernel, aa) =
            boot_with_profiles("profile app /usr/bin/app { /usr/bin/app rx, /tmp/* rw, }");
        let p = kernel.spawn(Credentials::user(1000, 1000));
        kernel
            .vfs()
            .create_file(
                &KPath::new("/usr/bin/app").unwrap(),
                Mode::EXEC,
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
        p.exec("/usr/bin/app").unwrap();
        assert_eq!(aa.current_profile(p.pid()).as_deref(), Some("app"));
        let child = p.fork().unwrap();
        assert_eq!(aa.current_profile(child.pid()).as_deref(), Some("app"));
        // Confinement applies in the child.
        assert!(child.write_file("/tmp/ok", b"1").is_ok());
        assert!(child.write_file("/etc/motd2", b"1").is_err());
        let child_pid = child.pid();
        child.exit();
        assert_eq!(aa.current_profile(child_pid), None, "task_free cleans up");
    }

    #[test]
    fn confined_exec_requires_x_permission() {
        let (kernel, aa) =
            boot_with_profiles("profile app { /usr/bin/tool rx, }\nprofile other { /x r, }");
        let p = kernel.spawn(Credentials::root());
        for exe in ["/usr/bin/tool", "/usr/bin/forbidden"] {
            kernel
                .vfs()
                .create_file(
                    &KPath::new(exe).unwrap(),
                    Mode::EXEC,
                    sack_kernel::Uid::ROOT,
                    sack_kernel::Gid(0),
                )
                .unwrap();
        }
        aa.set_profile(p.pid(), "app").unwrap();
        assert!(p.exec("/usr/bin/tool").is_ok());
        assert!(p.exec("/usr/bin/forbidden").is_err());
    }

    #[test]
    fn complain_mode_logs_but_allows() {
        let (kernel, aa) = boot_with_profiles("profile app flags=(complain) { /tmp/allowed r, }");
        let p = kernel.spawn(Credentials::root());
        p.write_file("/tmp/other", b"x").unwrap();
        aa.set_profile(p.pid(), "app").unwrap();
        assert!(p.read_to_vec("/tmp/other").is_ok());
        let log = aa.take_audit_log();
        assert!(!log.is_empty());
        assert!(log.iter().all(|e| e.complain && e.allowed));
    }

    #[test]
    fn capability_mediation() {
        let (kernel, aa) =
            boot_with_profiles("profile priv { capability kill, }\nprofile unpriv { /x r, }");
        let p = kernel.spawn(Credentials::root());
        aa.set_profile(p.pid(), "priv").unwrap();
        let task = kernel.tasks().get(p.pid()).unwrap();
        assert!(kernel.capable(&task.hook_ctx(), Capability::Kill).is_ok());
        aa.set_profile(p.pid(), "unpriv").unwrap();
        let err = kernel
            .capable(&task.hook_ctx(), Capability::Kill)
            .unwrap_err();
        assert_eq!(err.context(), Some("apparmor"));
    }

    #[test]
    fn socket_family_mediation() {
        let (kernel, aa) =
            boot_with_profiles("profile net { network unix, }\nprofile nonet { /x r, }");
        let server = kernel.spawn(Credentials::root());
        server.listen(SocketFamily::Unix, "/run/s").unwrap();
        let p = kernel.spawn(Credentials::root());
        aa.set_profile(p.pid(), "net").unwrap();
        assert!(p.connect(SocketFamily::Unix, "/run/s").is_ok());
        assert!(p.connect(SocketFamily::Inet, "tcp:80").is_err());
        aa.set_profile(p.pid(), "nonet").unwrap();
        assert!(p.connect(SocketFamily::Unix, "/run/s").is_err());
    }

    #[test]
    fn pipes_are_not_path_mediated() {
        let (kernel, aa) = boot_with_profiles("profile app { /tmp/* rw, }");
        let p = kernel.spawn(Credentials::root());
        aa.set_profile(p.pid(), "app").unwrap();
        let (r, w) = p.pipe().unwrap();
        p.write(w, b"t").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(p.read(r, &mut buf).unwrap(), 1);
    }

    #[test]
    fn refresh_confinement_picks_up_patches() {
        let (kernel, aa) = boot_with_profiles("profile app { /tmp/a r, }");
        let p = kernel.spawn(Credentials::root());
        p.write_file("/tmp/b", b"x").unwrap();
        aa.set_profile(p.pid(), "app").unwrap();
        assert!(p.read_to_vec("/tmp/b").is_err());
        aa.policy()
            .patch("app", |prof| {
                prof.path_rules
                    .push(crate::profile::PathRule::allow("/tmp/b", FilePerms::READ).unwrap());
            })
            .unwrap();
        // Without refresh the task still holds the old snapshot.
        assert!(p.read_to_vec("/tmp/b").is_err());
        aa.refresh_confinement();
        assert!(p.read_to_vec("/tmp/b").is_ok());
    }

    #[test]
    fn deny_rule_beats_broad_allow() {
        let (kernel, aa) = boot_with_profiles("profile app { /dev/** rwi, deny /dev/car/** wi, }");
        kernel
            .vfs()
            .mkdir_all(&KPath::new("/dev/car").unwrap())
            .unwrap();
        let p = kernel.spawn(Credentials::root());
        p.write_file("/dev/car/door0", b"d").unwrap(); // unconfined pre-setup
        aa.set_profile(p.pid(), "app").unwrap();
        assert!(p.open("/dev/car/door0", OpenFlags::read_only()).is_ok());
        assert!(p.open("/dev/car/door0", OpenFlags::write_only()).is_err());
    }
}
