//! The SACK security module itself: situation state machine + adaptive
//! policy enforcement, deployable as **independent SACK** (own MAC rules)
//! or **SACK-enhanced AppArmor** (patches AppArmor's policies on situation
//! transitions). Paper §III-E-3.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sack_apparmor::profile::FilePerms;
use sack_apparmor::AppArmor;
use sack_kernel::cred::Capability;
use sack_kernel::error::{Errno, KernelError, KernelResult};
use sack_kernel::kernel::Kernel;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectKind, ObjectRef, SecurityModule};
use sack_kernel::sync::Rcu;
use sack_kernel::trace::{TraceEvent, TraceHub};

use crate::audit::{AuditLog, Denial};
use crate::enhance::{validate_for_enhancement, AppArmorEnhancer, EnhanceError};
use crate::eventplane::{BackpressurePolicy, EventPlane};
use crate::policy::{CompiledPolicy, ParsePolicyError, PolicyIssue, SackPolicy};
use crate::rules::SubjectCtx;
use crate::situation::StateId;
use crate::ssm::{CoalescedOutcome, Ssm, TransitionOutcome};
use crate::stats::ShardedCounter;
use crate::trace::SackTracing;

/// Deployment mode of the SACK module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementMode {
    /// SACK checks accesses against its own per-state MAC rules.
    Independent,
    /// SACK patches AppArmor profiles on transitions; per-access checks are
    /// AppArmor's alone.
    EnhancedAppArmor,
}

impl fmt::Display for EnforcementMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnforcementMode::Independent => f.write_str("independent"),
            EnforcementMode::EnhancedAppArmor => f.write_str("enhanced-apparmor"),
        }
    }
}

/// Errors raised by the SACK module.
#[derive(Debug)]
pub enum SackError {
    /// Policy text did not parse.
    Parse(ParsePolicyError),
    /// Policy failed validation; all issues are included.
    Invalid(Vec<PolicyIssue>),
    /// The state machine could not be built.
    Ssm(crate::ssm::BuildSsmError),
    /// An event name not declared in the policy.
    UnknownEvent(String),
    /// Enhanced-mode policy application failed.
    Enhance(EnhanceError),
    /// Kernel error (securityfs registration, ...).
    Kernel(KernelError),
}

impl fmt::Display for SackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SackError::Parse(e) => write!(f, "policy parse error: {e}"),
            SackError::Invalid(issues) => {
                write!(f, "policy validation failed:")?;
                for issue in issues {
                    write!(f, "\n  {issue}")?;
                }
                Ok(())
            }
            SackError::Ssm(e) => write!(f, "state machine error: {e}"),
            SackError::UnknownEvent(name) => write!(f, "unknown situation event `{name}`"),
            SackError::Enhance(e) => write!(f, "enhanced-mode error: {e}"),
            SackError::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for SackError {}

impl From<ParsePolicyError> for SackError {
    fn from(e: ParsePolicyError) -> Self {
        SackError::Parse(e)
    }
}

impl From<KernelError> for SackError {
    fn from(e: KernelError) -> Self {
        SackError::Kernel(e)
    }
}

/// Counters exposed through `/sys/kernel/security/SACK/stats`.
///
/// Each counter is striped across cache-line-padded per-thread shards
/// ([`ShardedCounter`]) so concurrent hooks increment without bouncing a
/// shared line; `load` folds the stripes, so readers (the securityfs
/// `stats` node, tests) still see exact totals.
#[derive(Debug, Default)]
pub struct SackStats {
    /// Access checks performed on protected objects.
    pub checks: ShardedCounter,
    /// Denials issued.
    pub denials: ShardedCounter,
    /// Accesses passed through because the object is unprotected.
    pub unprotected: ShardedCounter,
    /// Checks bypassed via `CAP_MAC_OVERRIDE`.
    pub overrides: ShardedCounter,
    /// Situation events received through SACKfs.
    pub events_received: ShardedCounter,
    /// Events rejected as unknown.
    pub events_unknown: ShardedCounter,
    /// Always 0: there is no decision cache, so no hook replays an
    /// earlier decision. Kept, with `cache_misses`, so per-hook cost
    /// attribution (sackbench) can tell decided hooks from the rest.
    pub cache_hits: ShardedCounter,
    /// Hooks that reached the decision step: one per independent-mode
    /// hook on a file object, each deciding afresh through the state's
    /// DFA. Pipe and socket hooks and enhanced-mode hooks return before
    /// it and count neither here nor in `cache_hits`.
    pub cache_misses: ShardedCounter,
}

/// Process-global source of [`ActivePolicy::load_generation`] values.
/// Starts at 1 so that generation 0 can serve as the event frames'
/// "no hint" tag.
static NEXT_LOAD_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A loaded policy with its running state machine; swapped atomically on
/// policy reload.
pub struct ActivePolicy {
    /// The situation state machine.
    pub ssm: Ssm,
    /// The compiled policy.
    pub policy: CompiledPolicy,
    /// Process-unique generation assigned at construction. Event-id hints
    /// resolved against this snapshot's event space carry this value
    /// ([`crate::eventplane::EventFrame::set_hint`]), so the event plane's
    /// drain can tell whether a submit-time hint still names the snapshot
    /// it is about to deliver into: a policy reload swaps the whole
    /// snapshot — generation included — in one RCU publish, and a stale
    /// hint simply falls back to resolution by name.
    pub load_generation: u64,
}

impl ActivePolicy {
    fn from_text(text: &str) -> Result<ActivePolicy, SackError> {
        let ast = SackPolicy::parse(text)?;
        let policy = ast.compile().map_err(SackError::Invalid)?;
        let ssm = Ssm::new(
            policy.space().clone(),
            policy.transitions(),
            policy.initial(),
        )
        .map_err(SackError::Ssm)?;
        Ok(ActivePolicy {
            ssm,
            policy,
            load_generation: NEXT_LOAD_GENERATION.fetch_add(1, Ordering::Relaxed),
        })
    }
}

impl fmt::Debug for ActivePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivePolicy")
            .field("current", &self.ssm.current_name())
            .field("policy", &self.policy)
            .finish()
    }
}

/// The SACK security module.
///
/// Construct with [`Sack::independent`] or [`Sack::enhanced_apparmor`],
/// stack it (first!) into the kernel via
/// [`sack_kernel::KernelBuilder::security_module`], then call
/// [`Sack::attach`] once the kernel is booted to register the SACKfs nodes.
pub struct Sack {
    mode: EnforcementMode,
    /// RCU-published policy snapshot: hot-path hooks read it wait-free; a
    /// reload swaps in a whole new [`ActivePolicy`].
    active: Rcu<ActivePolicy>,
    enhancer: Option<AppArmorEnhancer>,
    /// Oracle resolving `subject=profile:` selectors in independent mode.
    profile_oracle: Rcu<Option<Arc<AppArmor>>>,
    stats: SackStats,
    audit: AuditLog,
    /// Set once at [`Sack::attach`]; used to timestamp audit records. A
    /// `OnceLock` rather than an `Rcu` for the same reason as `tracing`:
    /// every denial reads it.
    kernel: OnceLock<std::sync::Weak<Kernel>>,
    /// Policy epoch: bumped after every policy publish, oracle rewiring
    /// and situation transition. Hooks never read it; it is the change
    /// counter the `stats` node, the metrics export and the event-plane
    /// tests observe.
    policy_epoch: AtomicU64,
    /// Ablation/debug switch for the unified per-state DFA matcher
    /// (default on; off falls back to the linear scan).
    dfa_enabled: AtomicBool,
    /// sack-trace recorder, wired once at [`Sack::attach`] (or explicitly
    /// via [`Sack::install_tracing`]). A `OnceLock` rather than an `Rcu`
    /// because the hot path reads it on every check: the untraced cost must
    /// stay at one acquire load + branch.
    tracing: OnceLock<Arc<SackTracing>>,
    /// The async batched event plane behind `SACK/sds/ring`, created at
    /// [`Sack::attach`] (or explicitly via [`Sack::install_event_plane`]).
    /// `OnceLock` because the plane holds a `Weak` back-reference that can
    /// only exist once the module lives in an `Arc`.
    plane: OnceLock<Arc<EventPlane>>,
}

impl Sack {
    /// Builds an independent-SACK module from policy text.
    ///
    /// # Errors
    ///
    /// Parse/validation/state-machine errors.
    pub fn independent(policy_text: &str) -> Result<Arc<Sack>, SackError> {
        let active = ActivePolicy::from_text(policy_text)?;
        Ok(Arc::new(Sack {
            mode: EnforcementMode::Independent,
            active: Rcu::new(active),
            enhancer: None,
            profile_oracle: Rcu::new(None),
            stats: SackStats::default(),
            audit: AuditLog::new(),
            kernel: OnceLock::new(),
            policy_epoch: AtomicU64::new(0),
            dfa_enabled: AtomicBool::new(true),
            tracing: OnceLock::new(),
            plane: OnceLock::new(),
        }))
    }

    /// Builds a SACK-enhanced-AppArmor module: validates that every rule
    /// targets a loaded AppArmor profile, then applies the initial state.
    ///
    /// # Errors
    ///
    /// Parse/validation errors, plus enhanced-mode validation failures.
    pub fn enhanced_apparmor(
        policy_text: &str,
        apparmor: Arc<AppArmor>,
    ) -> Result<Arc<Sack>, SackError> {
        let active = ActivePolicy::from_text(policy_text)?;
        validate_for_enhancement(&active.policy, &apparmor.policy().profile_names())
            .map_err(SackError::Enhance)?;
        let enhancer = AppArmorEnhancer::new(apparmor);
        enhancer
            .apply_state(&active.policy, active.ssm.current())
            .map_err(SackError::Enhance)?;
        Ok(Arc::new(Sack {
            mode: EnforcementMode::EnhancedAppArmor,
            active: Rcu::new(active),
            enhancer: Some(enhancer),
            profile_oracle: Rcu::new(None),
            stats: SackStats::default(),
            audit: AuditLog::new(),
            kernel: OnceLock::new(),
            policy_epoch: AtomicU64::new(0),
            dfa_enabled: AtomicBool::new(true),
            tracing: OnceLock::new(),
            plane: OnceLock::new(),
        }))
    }

    /// The deployment mode.
    pub fn mode(&self) -> EnforcementMode {
        self.mode
    }

    /// Counter snapshot source.
    pub fn stats(&self) -> &SackStats {
        &self.stats
    }

    /// Configures the profile oracle used to resolve `subject=profile:`
    /// selectors in independent mode.
    pub fn set_profile_oracle(&self, apparmor: Arc<AppArmor>) {
        if let Some(tracing) = self.tracing.get() {
            apparmor.policy().set_trace_hub(Arc::clone(tracing.hub()));
        }
        self.profile_oracle.store(Some(apparmor));
        let epoch = self.policy_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.trace_emit(|| TraceEvent::RcuEpochBump { epoch });
    }

    /// Snapshot of the active policy (wait-free RCU read).
    pub fn active(&self) -> Arc<ActivePolicy> {
        self.active.read()
    }

    /// Name of the current situation state.
    pub fn current_state_name(&self) -> String {
        let active = self.active.read();
        active.ssm.current_name().to_string()
    }

    /// The current decision epoch (telemetry for tests and stats).
    pub fn policy_epoch(&self) -> u64 {
        self.policy_epoch.load(Ordering::SeqCst)
    }

    /// Enables or disables the unified per-state DFA matcher (enabled by
    /// default). Disabled, every hook falls back to the O(rules)
    /// protected-set + rule-scan pipeline; decisions are identical either
    /// way (the scan is the DFA's differential oracle), only the cost
    /// changes. Used by the ablation benchmarks.
    ///
    /// The switch governs the whole stacked path: any enhanced or oracle
    /// AppArmor layer wired to this instance has its `PolicyDb` profile
    /// DFAs toggled in the same call, so a differential run compares pure
    /// DFA stacks against pure scan stacks.
    pub fn set_dfa_matcher_enabled(&self, enabled: bool) {
        self.dfa_enabled.store(enabled, Ordering::SeqCst);
        if let Some(enhancer) = &self.enhancer {
            enhancer
                .apparmor()
                .policy()
                .set_dfa_matcher_enabled(enabled);
        }
        if let Some(oracle) = (*self.profile_oracle.read()).as_ref() {
            oracle.policy().set_dfa_matcher_enabled(enabled);
        }
    }

    /// True if the unified DFA matcher is enabled.
    pub fn dfa_matcher_enabled(&self) -> bool {
        self.dfa_enabled.load(Ordering::SeqCst)
    }

    /// Registers the SACKfs nodes (`events`, `state`, `policy`, `stats`)
    /// under `/sys/kernel/security/SACK/`.
    ///
    /// # Errors
    ///
    /// securityfs registration errors.
    pub fn attach(self: &Arc<Self>, kernel: &Arc<Kernel>) -> Result<(), SackError> {
        self.install_tracing(Arc::clone(kernel.trace()));
        self.install_event_plane(EventPlane::DEFAULT_CAPACITY, BackpressurePolicy::DropOldest);
        crate::sackfs::register(self, kernel)?;
        let _ = self.kernel.set(Arc::downgrade(kernel));
        Ok(())
    }

    /// Creates the async batched event plane (the fast path behind
    /// `SACK/sds/ring`). Called by [`Sack::attach`] with the default
    /// capacity and drop-oldest policy; benches and tests that want a
    /// different ring size or the blocking policy call it first — the first
    /// configuration wins and later calls return the existing plane.
    pub fn install_event_plane(
        self: &Arc<Self>,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Arc<EventPlane> {
        Arc::clone(
            self.plane
                .get_or_init(|| EventPlane::new(self, capacity, policy)),
        )
    }

    /// The attached event plane, if one has been installed.
    pub fn event_plane(&self) -> Option<&Arc<EventPlane>> {
        self.plane.get()
    }

    /// Wires the sack-trace recorder to `hub`: attaches the histogram +
    /// flight-recorder consumer and forwards the hub to every AppArmor
    /// policy layer this instance drives (for `profile_recompile` events).
    ///
    /// Called by [`Sack::attach`] with the booted kernel's hub; benches and
    /// tests that drive hooks without a kernel call it directly. Idempotent:
    /// the first hub wins and later calls return the existing recorder.
    pub fn install_tracing(&self, hub: Arc<TraceHub>) -> Arc<SackTracing> {
        let tracing = self.tracing.get_or_init(|| SackTracing::attach(hub));
        if let Some(enhancer) = &self.enhancer {
            enhancer
                .apparmor()
                .policy()
                .set_trace_hub(Arc::clone(tracing.hub()));
        }
        if let Some(oracle) = (*self.profile_oracle.read()).as_ref() {
            oracle.policy().set_trace_hub(Arc::clone(tracing.hub()));
        }
        Arc::clone(tracing)
    }

    /// The attached sack-trace recorder, if tracing has been wired.
    pub fn tracing(&self) -> Option<&Arc<SackTracing>> {
        self.tracing.get()
    }

    /// Emits a trace event if (and only if) tracing is wired *and* enabled.
    /// `build` runs only on the enabled path, so disabled probes never
    /// construct the event. Untraced cost: one `OnceLock` load + branch.
    #[inline]
    pub(crate) fn trace_emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(tracing) = self.tracing.get() {
            let hub = tracing.hub();
            if hub.enabled() {
                hub.emit(&build());
            }
        }
    }

    /// The denial audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    pub(crate) fn now(&self) -> std::time::Duration {
        self.kernel
            .get()
            .and_then(std::sync::Weak::upgrade)
            .map(|k| k.clock().now())
            .unwrap_or(std::time::Duration::ZERO)
    }

    /// Delivers a situation event by name at simulated time `now`
    /// (Algorithm 1 step). This is the entry point SACKfs calls for every
    /// `write(2)` on `/sys/kernel/security/SACK/events`.
    ///
    /// # Errors
    ///
    /// [`SackError::UnknownEvent`] for undeclared events;
    /// [`SackError::Enhance`] if enhanced-mode profile patching fails.
    pub fn deliver_event(&self, name: &str, now: Duration) -> Result<TransitionOutcome, SackError> {
        self.stats.events_received.fetch_add(1, Ordering::Relaxed);
        let active = self.active();
        let outcome = active.ssm.deliver_by_name(name, now).map_err(|unknown| {
            self.stats.events_unknown.fetch_add(1, Ordering::Relaxed);
            SackError::UnknownEvent(unknown)
        })?;
        if let TransitionOutcome::Transitioned { from, to } = outcome {
            if let Some(enhancer) = &self.enhancer {
                enhancer
                    .apply_state(&active.policy, to)
                    .map_err(SackError::Enhance)?;
            }
            self.trace_emit(|| {
                let space = active.ssm.space();
                TraceEvent::SsmTransition {
                    from: space.state(from).name.clone(),
                    to: space.state(to).name.clone(),
                    event: name.to_string(),
                }
            });
            let epoch = self.policy_epoch.fetch_add(1, Ordering::SeqCst) + 1;
            self.trace_emit(|| TraceEvent::RcuEpochBump { epoch });
        }
        Ok(outcome)
    }

    /// Delivers a whole drain batch of event names as **one** coalesced SSM
    /// publish: for the entire batch, at most one transition, one
    /// `ssm_transition` trace and one epoch bump — the amortization the
    /// event plane exists for (DESIGN.md §11).
    ///
    /// Unknown names are counted in `events_unknown` and skipped rather
    /// than failing the batch: a frame validated at submit time can still
    /// be orphaned by a policy reload between enqueue and drain, and one
    /// stale frame must not poison its batch-mates.
    ///
    /// # Errors
    ///
    /// [`SackError::Enhance`] if enhanced-mode profile patching fails.
    pub fn deliver_coalesced<S: AsRef<str>>(
        &self,
        names: &[S],
        now: Duration,
    ) -> Result<CoalescedOutcome, SackError> {
        self.stats
            .events_received
            .fetch_add(names.len() as u64, Ordering::Relaxed);
        let active = self.active();
        let space = active.ssm.space();
        let mut ids = Vec::with_capacity(names.len());
        for name in names {
            match space.event_id(name.as_ref()) {
                Some(id) => ids.push(id),
                None => {
                    self.stats.events_unknown.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.publish_coalesced(&active, &ids, now)
    }

    /// Frame-based twin of [`Sack::deliver_coalesced`] — the event plane's
    /// drain entry point. A frame whose submit-time id hint was resolved
    /// under this exact policy snapshot (generation match) skips the
    /// name-to-id lookup entirely; any other frame — direct-API
    /// submissions, or frames orphaned by a reload between enqueue and
    /// drain — resolves by name as the string path does.
    ///
    /// # Errors
    ///
    /// [`SackError::Enhance`] if enhanced-mode profile patching fails.
    pub(crate) fn deliver_coalesced_frames(
        &self,
        frames: &[crate::eventplane::EventFrame],
        now: Duration,
    ) -> Result<CoalescedOutcome, SackError> {
        self.stats
            .events_received
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        let active = self.active();
        let space = active.ssm.space();
        let gen = active.load_generation;
        let mut ids = Vec::with_capacity(frames.len());
        for frame in frames {
            match frame.hint(gen).or_else(|| space.event_id(frame.name())) {
                Some(id) => ids.push(id),
                None => {
                    self.stats.events_unknown.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.publish_coalesced(&active, &ids, now)
    }

    /// Shared tail of the coalesced-delivery paths: one dry-run SSM pass
    /// over `ids`, then — only if the batch's net effect is a transition —
    /// one publish, one trace, one epoch bump.
    fn publish_coalesced(
        &self,
        active: &ActivePolicy,
        ids: &[crate::situation::EventId],
        now: Duration,
    ) -> Result<CoalescedOutcome, SackError> {
        let space = active.ssm.space();
        let outcome = active.ssm.deliver_coalesced(ids, now);
        if outcome.transitioned() {
            let (from, to) = (outcome.from, outcome.to);
            if let Some(enhancer) = &self.enhancer {
                enhancer
                    .apply_state(&active.policy, to)
                    .map_err(SackError::Enhance)?;
            }
            self.trace_emit(|| TraceEvent::SsmTransition {
                from: space.state(from).name.clone(),
                to: space.state(to).name.clone(),
                event: outcome
                    .last_event
                    .map(|e| space.event(e).name.clone())
                    .unwrap_or_default(),
            });
            // Same bump as deliver_event, but once per batch instead of
            // once per effective transition.
            let epoch = self.policy_epoch.fetch_add(1, Ordering::SeqCst) + 1;
            self.trace_emit(|| TraceEvent::RcuEpochBump { epoch });
        }
        Ok(outcome)
    }

    /// Replaces the loaded policy atomically (a SACKfs `policy` write).
    /// The state machine restarts from the new policy's initial state.
    ///
    /// # Errors
    ///
    /// Same conditions as construction; on error the old policy stays
    /// active.
    pub fn reload_policy(&self, text: &str) -> Result<Vec<PolicyIssue>, SackError> {
        let next = ActivePolicy::from_text(text)?;
        if let Some(enhancer) = &self.enhancer {
            validate_for_enhancement(&next.policy, &enhancer.apparmor().policy().profile_names())
                .map_err(SackError::Enhance)?;
            enhancer
                .apply_state(&next.policy, next.ssm.current())
                .map_err(SackError::Enhance)?;
        }
        let warnings = next.policy.warnings().to_vec();
        // Publish first, then bump the epoch: a reader that observes the
        // new epoch (SeqCst) also observes the new policy.
        self.active.store(next);
        let epoch = self.policy_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.trace_emit(|| TraceEvent::PolicyPublish { epoch });
        self.trace_emit(|| TraceEvent::RcuEpochBump { epoch });
        Ok(warnings)
    }

    /// The calling task's AppArmor profile, when a profile oracle is wired.
    fn current_profile(&self, ctx: &HookCtx) -> Option<String> {
        (*self.profile_oracle.read())
            .as_ref()
            .and_then(|aa| aa.current_profile(ctx.pid))
    }

    /// The independent-mode access check shared by the file hooks.
    ///
    /// Every mediated hook decides afresh from the RCU policy snapshot:
    /// one walk of the current state's unified DFA answers both the
    /// protected-set membership and the rule decision in O(|path|),
    /// independent of rule count. A reload or transition needs no
    /// invalidation step, because the next hook reads the new snapshot.
    /// `set_dfa_matcher_enabled(false)` falls back to the original
    /// O(rules) scan pipeline (the differential oracle), which must decide
    /// identically.
    fn check_access(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        requested: FilePerms,
    ) -> KernelResult<()> {
        if self.mode != EnforcementMode::Independent {
            return Ok(()); // enhanced mode: AppArmor does the checking
        }
        // Pipes and sockets have synthetic paths; SACK mediates filesystem
        // objects (incl. device nodes), as in the paper's case study.
        if matches!(obj.kind, ObjectKind::Pipe | ObjectKind::Socket) {
            return Ok(());
        }
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        let active = self.active.read();
        let state: StateId = active.ssm.current();
        let mac_override = ctx.cred.capable(Capability::MacOverride);
        let (protected, permitted) = if self.dfa_enabled.load(Ordering::Relaxed) {
            let profile = self.current_profile(ctx);
            let subject = SubjectCtx {
                uid: ctx.cred.uid.0,
                exe: ctx.exe.as_ref().map(|p| p.as_str()),
                profile: profile.as_deref(),
            };
            let decision =
                active
                    .policy
                    .state_dfa(state)
                    .decide(&subject, obj.path.as_str(), requested);
            (decision.protected, decision.permitted)
        } else {
            let protected = active.policy.protected().contains(obj.path.as_str());
            let permitted = protected && !mac_override && {
                let profile = self.current_profile(ctx);
                let subject = SubjectCtx {
                    uid: ctx.cred.uid.0,
                    exe: ctx.exe.as_ref().map(|p| p.as_str()),
                    profile: profile.as_deref(),
                };
                active
                    .policy
                    .state_rules(state)
                    .permits(&subject, obj.path.as_str(), requested)
            };
            (protected, permitted)
        };
        if !protected {
            self.stats.unprotected.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if mac_override {
            self.stats.overrides.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.stats.checks.fetch_add(1, Ordering::Relaxed);
        if permitted {
            return Ok(());
        }
        self.stats.denials.fetch_add(1, Ordering::Relaxed);
        let seq = self.audit.push_denial(&Denial {
            at: self.now(),
            pid: ctx.pid,
            uid: ctx.cred.uid.0,
            exe: ctx.exe.as_ref().map(|p| p.as_str()),
            path: obj.path.as_str(),
            requested,
            state: &active.ssm.space().state(state).name,
        });
        self.trace_emit(|| TraceEvent::AuditEmit { seq });
        Err(KernelError::with_context(Errno::EACCES, "sack"))
    }
}

impl SecurityModule for Sack {
    fn name(&self) -> &'static str {
        "sack"
    }

    fn file_open(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, mask: AccessMask) -> KernelResult<()> {
        self.check_access(ctx, obj, FilePerms::from_access_mask(mask))
    }

    fn file_permission(
        &self,
        ctx: &HookCtx,
        obj: &ObjectRef<'_>,
        mask: AccessMask,
    ) -> KernelResult<()> {
        self.check_access(ctx, obj, FilePerms::from_access_mask(mask))
    }

    fn file_ioctl(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, _cmd: u32) -> KernelResult<()> {
        self.check_access(ctx, obj, FilePerms::IOCTL)
    }

    fn file_mmap(&self, ctx: &HookCtx, obj: &ObjectRef<'_>, _mask: AccessMask) -> KernelResult<()> {
        self.check_access(ctx, obj, FilePerms::MMAP)
    }

    fn inode_unlink(&self, ctx: &HookCtx, obj: &ObjectRef<'_>) -> KernelResult<()> {
        self.check_access(ctx, obj, FilePerms::WRITE)
    }

    fn inode_rename(
        &self,
        ctx: &HookCtx,
        old: &ObjectRef<'_>,
        new: &sack_kernel::KPath,
    ) -> KernelResult<()> {
        self.check_access(ctx, old, FilePerms::WRITE)?;
        let new_obj = ObjectRef {
            path: new,
            kind: old.kind,
            dev: None,
        };
        self.check_access(ctx, &new_obj, FilePerms::WRITE)
    }
}

impl fmt::Debug for Sack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sack")
            .field("mode", &self.mode)
            .field("state", &self.current_state_name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sack_kernel::cred::Credentials;
    use sack_kernel::file::OpenFlags;
    use sack_kernel::kernel::KernelBuilder;
    use sack_kernel::path::KPath;
    use sack_kernel::types::{Mode, Pid};

    const DOOR_POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { NORMAL; CONTROL_CAR_DOORS; }
        state_per {
            normal: NORMAL;
            emergency: NORMAL, CONTROL_CAR_DOORS;
        }
        per_rules {
            NORMAL: allow subject=* /dev/car/** r;
            CONTROL_CAR_DOORS: allow subject=/usr/bin/rescue* /dev/car/** wi;
        }
    "#;

    fn boot_independent() -> (Arc<Kernel>, Arc<Sack>) {
        let sack = Sack::independent(DOOR_POLICY).unwrap();
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .boot();
        kernel
            .vfs()
            .mkdir_all(&KPath::new("/dev/car").unwrap())
            .unwrap();
        // Pre-create device files (as regular files; device semantics are
        // exercised in the vehicle crate).
        for name in ["door0", "window0"] {
            kernel
                .vfs()
                .create_file(
                    &KPath::new(&format!("/dev/car/{name}")).unwrap(),
                    Mode(0o666),
                    sack_kernel::Uid::ROOT,
                    sack_kernel::Gid(0),
                )
                .unwrap();
        }
        for exe in ["/usr/bin/rescue_daemon", "/usr/bin/media_app"] {
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
        (kernel, sack)
    }

    #[test]
    fn independent_mode_enforces_per_state() {
        let (kernel, sack) = boot_independent();
        let rescue = kernel.spawn(Credentials::user(100, 100));
        rescue.exec("/usr/bin/rescue_daemon").unwrap();

        // Normal state: write to door denied even for the rescue daemon.
        let err = rescue
            .open("/dev/car/door0", OpenFlags::write_only())
            .unwrap_err();
        assert_eq!(err.context(), Some("sack"));
        // Reads are fine (NORMAL permission).
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::read_only())
            .is_ok());

        // Crash: emergency state grants CONTROL_CAR_DOORS to rescue*.
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        assert_eq!(sack.current_state_name(), "emergency");
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_ok());

        // Other apps still cannot.
        let media = kernel.spawn(Credentials::user(200, 200));
        media.exec("/usr/bin/media_app").unwrap();
        assert!(media
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_err());

        // Back to normal: permission retracted.
        sack.deliver_event("rescue_done", Duration::ZERO).unwrap();
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_err());
    }

    #[test]
    fn unprotected_objects_are_not_mediated() {
        let (kernel, sack) = boot_independent();
        let p = kernel.spawn(Credentials::user(100, 100));
        assert!(p.write_file("/tmp/scratch", b"ok").is_ok());
        assert!(sack.stats().unprotected.load(Ordering::Relaxed) > 0);
        assert_eq!(sack.stats().denials.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn mac_override_bypasses_sack() {
        let (kernel, sack) = boot_independent();
        let privileged =
            kernel.spawn(Credentials::user(0, 0).with_capability(Capability::MacOverride));
        assert!(privileged
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_ok());
        assert!(sack.stats().overrides.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn unknown_event_is_rejected_and_counted() {
        let (_kernel, sack) = boot_independent();
        let err = sack.deliver_event("meteor", Duration::ZERO).unwrap_err();
        assert!(matches!(err, SackError::UnknownEvent(ref n) if n == "meteor"));
        assert_eq!(sack.stats().events_unknown.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reload_policy_swaps_atomically() {
        let (_kernel, sack) = boot_independent();
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        assert_eq!(sack.current_state_name(), "emergency");
        let new_policy = r#"
            states { idle = 0; busy = 1; }
            events { go; halt; }
            transitions { idle -go-> busy; busy -halt-> idle; }
            initial idle;
            permissions { P; }
            state_per { busy: P; }
            per_rules { P: allow subject=* /data/** rw; }
        "#;
        sack.reload_policy(new_policy).unwrap();
        assert_eq!(sack.current_state_name(), "idle");
        assert!(matches!(
            sack.deliver_event("crash", Duration::ZERO),
            Err(SackError::UnknownEvent(_))
        ));
        sack.deliver_event("go", Duration::ZERO).unwrap();
        assert_eq!(sack.current_state_name(), "busy");
    }

    #[test]
    fn reload_rejects_bad_policy_and_keeps_old() {
        let (_kernel, sack) = boot_independent();
        assert!(sack.reload_policy("states {").is_err());
        assert!(sack
            .reload_policy("states { a = 0; } initial ghost;")
            .is_err());
        // Old policy still live.
        assert_eq!(sack.current_state_name(), "normal");
        assert!(sack.deliver_event("crash", Duration::ZERO).is_ok());
    }

    #[test]
    fn enhanced_mode_reload_reapplies_initial_state() {
        let db = Arc::new(sack_apparmor::PolicyDb::new());
        db.load(sack_apparmor::Profile::new("svc"));
        let apparmor = AppArmor::new(Arc::clone(&db));
        let policy_v1 = r#"
            states { off = 0; on = 1; }
            events { enable; disable; }
            transitions { off -enable-> on; on -disable-> off; }
            initial off;
            permissions { P; }
            state_per { on: P; }
            per_rules { P: allow subject=profile:svc /v1/** rw; }
        "#;
        let sack = Sack::enhanced_apparmor(policy_v1, Arc::clone(&apparmor)).unwrap();
        sack.deliver_event("enable", Duration::ZERO).unwrap();
        assert!(db
            .get("svc")
            .unwrap()
            .rules()
            .evaluate("/v1/data")
            .permits(FilePerms::READ));

        // Reload with a different object tree; the machine restarts in its
        // initial state (off) and the v1 rules are retracted.
        let policy_v2 = policy_v1.replace("/v1/**", "/v2/**");
        sack.reload_policy(&policy_v2).unwrap();
        assert_eq!(sack.current_state_name(), "off");
        let compiled = db.get("svc").unwrap();
        assert!(!compiled
            .rules()
            .evaluate("/v1/data")
            .permits(FilePerms::READ));
        assert!(!compiled
            .rules()
            .evaluate("/v2/data")
            .permits(FilePerms::READ));
        sack.deliver_event("enable", Duration::ZERO).unwrap();
        let compiled = db.get("svc").unwrap();
        assert!(compiled
            .rules()
            .evaluate("/v2/data")
            .permits(FilePerms::READ));
        assert!(!compiled
            .rules()
            .evaluate("/v1/data")
            .permits(FilePerms::READ));
    }

    #[test]
    fn enhanced_mode_reload_rejects_unloaded_profile_targets() {
        let db = Arc::new(sack_apparmor::PolicyDb::new());
        db.load(sack_apparmor::Profile::new("svc"));
        let apparmor = AppArmor::new(Arc::clone(&db));
        let good = r#"
            states { s = 0; } initial s;
            permissions { P; }
            state_per { s: P; }
            per_rules { P: allow subject=profile:svc /x r; }
        "#;
        let sack = Sack::enhanced_apparmor(good, Arc::clone(&apparmor)).unwrap();
        let bad = good.replace("profile:svc", "profile:ghost");
        assert!(matches!(
            sack.reload_policy(&bad),
            Err(SackError::Enhance(_))
        ));
        // Old policy remains active and enforced.
        let compiled = db.get("svc").unwrap();
        assert!(compiled.rules().evaluate("/x").permits(FilePerms::READ));
    }

    #[test]
    fn enhanced_mode_hooks_pass_through() {
        let db = Arc::new(sack_apparmor::PolicyDb::new());
        db.load(sack_apparmor::Profile::new("rescue_daemon"));
        let apparmor = AppArmor::new(db);
        let policy = r#"
            states { normal = 0; emergency = 1; }
            events { crash; }
            transitions { normal -crash-> emergency; }
            initial normal;
            permissions { P; }
            state_per { emergency: P; }
            per_rules { P: allow subject=profile:rescue_daemon /dev/car/** wi; }
        "#;
        let sack = Sack::enhanced_apparmor(policy, Arc::clone(&apparmor)).unwrap();
        assert_eq!(sack.mode(), EnforcementMode::EnhancedAppArmor);
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
            .boot();
        kernel
            .vfs()
            .mkdir_all(&KPath::new("/dev/car").unwrap())
            .unwrap();
        kernel
            .vfs()
            .create_file(
                &KPath::new("/dev/car/door0").unwrap(),
                Mode(0o666),
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
        let daemon = kernel.spawn(Credentials::root());
        apparmor.set_profile(daemon.pid(), "rescue_daemon").unwrap();
        // Normal: the profile has no rules, so the write is denied by
        // AppArmor (not by SACK).
        let err = daemon
            .open("/dev/car/door0", OpenFlags::write_only())
            .unwrap_err();
        assert_eq!(err.context(), Some("apparmor"));
        // Crash: SACK injects the rule into the profile.
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        assert!(daemon
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_ok());
        // SACK itself performed no checks and reached no decision step.
        assert_eq!(sack.stats().checks.load(Ordering::Relaxed), 0);
        assert_eq!(sack.stats().cache_misses.load(Ordering::Relaxed), 0);
        assert_eq!(sack.stats().cache_hits.load(Ordering::Relaxed), 0);
    }

    /// Door policy plus a profile-scoped grant, so verdicts depend on the
    /// situation state, the exe and the AppArmor confinement alike.
    const ORACLE_POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { NORMAL; CONTROL_CAR_DOORS; TRUSTED; }
        state_per {
            normal: NORMAL, TRUSTED;
            emergency: NORMAL, CONTROL_CAR_DOORS;
        }
        per_rules {
            NORMAL: allow subject=* /dev/car/** r;
            CONTROL_CAR_DOORS: allow subject=/usr/bin/rescue* /dev/car/** wi;
            TRUSTED: allow subject=profile:trusted /secret/** r;
        }
    "#;

    /// Drives every (subject, path, mask) combination through `file_open`
    /// and checks each verdict against `sim` in its current state. Returns
    /// the number of hooks called.
    fn assert_hooks_match_simulator(
        sack: &Sack,
        sim: &crate::PolicySimulator,
        subjects: &[(HookCtx, Option<&str>)],
    ) -> u64 {
        use crate::AccessQuery;
        let paths = ["/dev/car/door0", "/secret/key", "/tmp/scratch", "/v2/data"];
        let mut hooks = 0;
        for (ctx, profile) in subjects {
            for path in paths {
                let kpath = KPath::new(path).unwrap();
                let obj = ObjectRef::regular(&kpath);
                for mask in [AccessMask::READ, AccessMask::WRITE] {
                    let query = AccessQuery {
                        uid: ctx.cred.uid.0,
                        exe: ctx.exe.as_ref().map(|p| p.as_str().to_string()),
                        profile: profile.map(str::to_string),
                        path: path.to_string(),
                        perms: FilePerms::from_access_mask(mask),
                    };
                    let expected = sim.query(&query).is_allowed();
                    let verdict = sack.file_open(ctx, &obj, mask);
                    hooks += 1;
                    assert_eq!(
                        verdict.is_ok(),
                        expected,
                        "state `{}`: {query:?}",
                        sim.state()
                    );
                    if let Err(e) = verdict {
                        assert_eq!(e.context(), Some("sack"));
                    }
                }
            }
        }
        hooks
    }

    /// Every hook decides from the snapshot it reads, so verdicts equal the
    /// simulator's in every reachable state, straight after each
    /// transition, after a policy reload and after a confinement change,
    /// with no invalidation step in between. The outcome counters account
    /// for each mediated hook exactly once.
    #[test]
    fn hook_verdicts_match_simulator_across_transitions_reload_and_confinement() {
        use crate::{PolicySimulator, StepResult};
        let sack = Sack::independent(ORACLE_POLICY).unwrap();
        let db = Arc::new(sack_apparmor::PolicyDb::new());
        db.load_text("profile trusted { /secret/** r, }").unwrap();
        let apparmor = AppArmor::new(db);
        sack.set_profile_oracle(Arc::clone(&apparmor));
        let ctx = |pid: u32, uid: u32, exe: &str| {
            HookCtx::new(
                Pid(pid),
                Credentials::user(uid, uid),
                Some(KPath::new(exe).unwrap()),
            )
        };
        let rescue = ctx(10, 100, "/usr/bin/rescue_daemon");
        let media = ctx(11, 200, "/usr/bin/media_app");
        let trusted = ctx(12, 300, "/usr/bin/vault");
        apparmor.set_profile(trusted.pid, "trusted").unwrap();
        let mut subjects = vec![
            (rescue, None),
            (media, None),
            (trusted.clone(), Some("trusted")),
        ];

        let mut sim = PolicySimulator::new(ORACLE_POLICY).unwrap();
        let mut hooks = assert_hooks_match_simulator(&sack, &sim, &subjects);
        // Walk every reachable state and back to the initial one.
        for event in ["crash", "rescue_done", "crash"] {
            sack.deliver_event(event, Duration::ZERO).unwrap();
            assert!(matches!(
                sim.deliver(event),
                StepResult::Transitioned { .. }
            ));
            assert_eq!(sack.current_state_name(), sim.state());
            hooks += assert_hooks_match_simulator(&sack, &sim, &subjects);
        }
        // Unconfining changes the subject, not the policy: the very next
        // hook must see it.
        sack.deliver_event("rescue_done", Duration::ZERO).unwrap();
        assert!(matches!(
            sim.deliver("rescue_done"),
            StepResult::Transitioned { .. }
        ));
        apparmor.unconfine(trusted.pid);
        subjects[2].1 = None;
        hooks += assert_hooks_match_simulator(&sack, &sim, &subjects);
        // A reload swaps the snapshot and restarts the state machine.
        let v2 = ORACLE_POLICY
            .replace("/dev/car/** r;", "/v2/** rw;")
            .replace("initial normal;", "initial emergency;");
        sack.reload_policy(&v2).unwrap();
        sim = PolicySimulator::new(&v2).unwrap();
        assert_eq!(sack.current_state_name(), "emergency");
        hooks += assert_hooks_match_simulator(&sack, &sim, &subjects);
        sack.deliver_event("rescue_done", Duration::ZERO).unwrap();
        assert!(matches!(
            sim.deliver("rescue_done"),
            StepResult::Transitioned { .. }
        ));
        hooks += assert_hooks_match_simulator(&sack, &sim, &subjects);

        let stats = sack.stats();
        let load = |c: &ShardedCounter| c.load(Ordering::Relaxed);
        assert_eq!(load(&stats.cache_misses), hooks);
        assert_eq!(load(&stats.cache_hits), 0);
        assert_eq!(
            load(&stats.checks) + load(&stats.unprotected) + load(&stats.overrides),
            hooks,
            "each mediated hook lands in exactly one outcome counter"
        );
        assert!(load(&stats.denials) > 0);
        assert_eq!(load(&stats.denials), sack.audit().total());
    }

    /// `cache_misses` counts exactly the hooks that reach the decision
    /// step; pipes and sockets return before it, `cache_hits` stays 0, and
    /// the `stats` node still prints both lines.
    #[test]
    fn decision_counters_track_mediated_file_hooks() {
        use sack_kernel::lsm::AccessMask;
        let (kernel, sack) = boot_independent();
        sack.attach(&kernel).unwrap();
        let ctx = HookCtx::new(
            Pid(20),
            Credentials::user(100, 100),
            Some(KPath::new("/usr/bin/rescue_daemon").unwrap()),
        );
        let door = KPath::new("/dev/car/door0").unwrap();
        let obj = ObjectRef::regular(&door);
        let misses = || sack.stats().cache_misses.load(Ordering::Relaxed);
        let before = misses();
        assert!(sack.file_open(&ctx, &obj, AccessMask::READ).is_ok());
        assert!(sack.file_permission(&ctx, &obj, AccessMask::READ).is_ok());
        assert!(sack.file_ioctl(&ctx, &obj, 0).is_err());
        assert!(sack.file_mmap(&ctx, &obj, AccessMask::READ).is_err());
        assert!(sack.inode_unlink(&ctx, &obj).is_err());
        let tmp = KPath::new("/tmp/a").unwrap();
        let tmp_obj = ObjectRef::regular(&tmp);
        assert!(sack
            .inode_rename(&ctx, &tmp_obj, &KPath::new("/tmp/b").unwrap())
            .is_ok());
        // Rename decides its source and its destination.
        assert_eq!(misses() - before, 7);

        let checks = sack.stats().checks.load(Ordering::Relaxed);
        let unprotected = sack.stats().unprotected.load(Ordering::Relaxed);
        for kind in [ObjectKind::Pipe, ObjectKind::Socket] {
            let obj = ObjectRef {
                path: &door,
                kind,
                dev: None,
            };
            assert!(sack.file_permission(&ctx, &obj, AccessMask::WRITE).is_ok());
        }
        assert_eq!(misses() - before, 7, "pipes and sockets are not decided");
        assert_eq!(sack.stats().checks.load(Ordering::Relaxed), checks);
        assert_eq!(
            sack.stats().unprotected.load(Ordering::Relaxed),
            unprotected
        );
        assert_eq!(sack.stats().cache_hits.load(Ordering::Relaxed), 0);

        let root = kernel.spawn(Credentials::root());
        let text = String::from_utf8(root.read_to_vec("/sys/kernel/security/SACK/stats").unwrap())
            .unwrap();
        assert!(text.contains("\ncache_hits 0\n"), "{text}");
        let printed: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("cache_misses "))
            .expect("stats node prints cache_misses")
            .parse()
            .unwrap();
        assert!(printed >= before + 7, "{text}");
    }

    /// The hook keeps no decision cache, so repeated identical opens are
    /// each decided afresh: every one counts a miss, none a hit, and the
    /// verdict follows the next transition immediately.
    #[test]
    fn decision_cache_disabled_keeps_decisions_and_counters() {
        let (kernel, sack) = boot_independent();
        let rescue = kernel.spawn(Credentials::user(100, 100));
        rescue.exec("/usr/bin/rescue_daemon").unwrap();
        let misses = || sack.stats().cache_misses.load(Ordering::Relaxed);
        let before = misses();
        for _ in 0..5 {
            assert!(rescue
                .open("/dev/car/door0", OpenFlags::read_only())
                .is_ok());
        }
        assert_eq!(sack.stats().cache_hits.load(Ordering::Relaxed), 0);
        assert!(
            misses() - before >= 5,
            "each open reaches the decision step"
        );
        assert!(sack.stats().checks.load(Ordering::Relaxed) >= 5);
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_err());
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_ok());
    }

    /// A grant repeated before a reload must not outlive it: the next open
    /// decides against the new snapshot.
    #[test]
    fn decision_cache_invalidates_on_policy_reload() {
        let (kernel, sack) = boot_independent();
        let rescue = kernel.spawn(Credentials::user(100, 100));
        rescue.exec("/usr/bin/rescue_daemon").unwrap();
        for _ in 0..3 {
            assert!(rescue
                .open("/dev/car/door0", OpenFlags::read_only())
                .is_ok());
        }
        // Swap in a policy that still protects /dev/car/** but grants
        // nothing.
        sack.reload_policy(
            r#"
            states { lockdown = 0; } initial lockdown;
            permissions { NONE; }
            state_per { lockdown: NONE; }
            per_rules { NONE: deny subject=* /dev/car/** rwaxmi; }
        "#,
        )
        .unwrap();
        let err = rescue
            .open("/dev/car/door0", OpenFlags::read_only())
            .unwrap_err();
        assert_eq!(err.context(), Some("sack"));
    }

    /// A profile-subject grant repeated before an unconfine must not
    /// outlive it: the next read asks the profile oracle again.
    #[test]
    fn decision_cache_invalidates_on_confinement_change() {
        let policy = r#"
            states { s = 0; } initial s;
            permissions { P; }
            state_per { s: P; }
            per_rules { P: allow subject=profile:trusted /secret/** r; }
        "#;
        let sack = Sack::independent(policy).unwrap();
        let db = Arc::new(sack_apparmor::PolicyDb::new());
        db.load_text("profile trusted { /secret/** r, }").unwrap();
        let apparmor = AppArmor::new(db);
        sack.set_profile_oracle(Arc::clone(&apparmor));
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
            .boot();
        kernel
            .vfs()
            .mkdir_all(&KPath::new("/secret").unwrap())
            .unwrap();
        kernel
            .vfs()
            .create_file(
                &KPath::new("/secret/key").unwrap(),
                Mode(0o644),
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
        let task = kernel.spawn(Credentials::user(100, 100));
        apparmor.set_profile(task.pid(), "trusted").unwrap();
        for _ in 0..3 {
            assert!(task.read_to_vec("/secret/key").is_ok());
        }
        apparmor.unconfine(task.pid());
        let err = task.read_to_vec("/secret/key").unwrap_err();
        assert_eq!(err.context(), Some("sack"));
    }

    #[test]
    fn profile_oracle_resolves_profile_subjects_in_independent_mode() {
        let policy = r#"
            states { s = 0; } initial s;
            permissions { P; }
            state_per { s: P; }
            per_rules { P: allow subject=profile:trusted /secret/** r; }
        "#;
        let sack = Sack::independent(policy).unwrap();
        let db = Arc::new(sack_apparmor::PolicyDb::new());
        db.load_text("profile trusted { /secret/** r, /tmp/** rw, }")
            .unwrap();
        let apparmor = AppArmor::new(db);
        sack.set_profile_oracle(Arc::clone(&apparmor));
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
            .boot();
        kernel
            .vfs()
            .mkdir_all(&KPath::new("/secret").unwrap())
            .unwrap();
        kernel
            .vfs()
            .create_file(
                &KPath::new("/secret/key").unwrap(),
                Mode(0o644),
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
        // Unprivileged users: root holds CAP_MAC_OVERRIDE, which would
        // (correctly) bypass SACK entirely.
        let trusted = kernel.spawn(Credentials::user(100, 100));
        apparmor.set_profile(trusted.pid(), "trusted").unwrap();
        assert!(trusted.read_to_vec("/secret/key").is_ok());
        let untrusted = kernel.spawn(Credentials::user(200, 200));
        let err = untrusted.read_to_vec("/secret/key").unwrap_err();
        assert_eq!(err.context(), Some("sack"));
    }

    #[test]
    fn negative_cache_off_audits_every_denial() {
        let (kernel, sack) = boot_independent();
        let media = kernel.spawn(Credentials::user(200, 200));
        media.exec("/usr/bin/media_app").unwrap();
        for _ in 0..5 {
            assert!(media
                .open("/dev/car/door0", OpenFlags::write_only())
                .is_err());
        }
        assert_eq!(sack.stats().denials.load(Ordering::Relaxed), 5);
        assert_eq!(sack.audit().total(), 5);
    }

    #[test]
    fn scan_fallback_agrees_with_dfa_matcher() {
        let (kernel, sack) = boot_independent();
        // Force every decision down the legacy O(rules) scan path and
        // replay the per-state scenario: outcomes must be identical.
        sack.set_dfa_matcher_enabled(false);
        assert!(!sack.dfa_matcher_enabled());
        let rescue = kernel.spawn(Credentials::user(100, 100));
        rescue.exec("/usr/bin/rescue_daemon").unwrap();
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_err());
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::read_only())
            .is_ok());
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        assert!(rescue
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_ok());
        let media = kernel.spawn(Credentials::user(200, 200));
        media.exec("/usr/bin/media_app").unwrap();
        assert!(media
            .open("/dev/car/door0", OpenFlags::write_only())
            .is_err());
        assert!(rescue.write_file("/tmp/scratch", b"ok").is_ok());
        assert!(sack.stats().unprotected.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn reload_rebuilds_state_dfa_tables() {
        let (_kernel, sack) = boot_independent();
        let epoch = sack.policy_epoch();
        // Hold the old snapshot alive so a rebuilt table cannot land on a
        // recycled allocation and alias the old pointer.
        let active_before = sack.active();
        let before = Arc::as_ptr(active_before.policy.state_dfa(StateId(0)));
        // Reloading the *same* text must still rebuild the tables.
        sack.reload_policy(DOOR_POLICY).unwrap();
        let active_after = sack.active();
        let after = Arc::as_ptr(active_after.policy.state_dfa(StateId(0)));
        assert_ne!(
            before, after,
            "reload must rebuild per-state DFA tables, not reuse them"
        );
        assert!(sack.policy_epoch() > epoch);
    }

    /// SSM transitions racing hooks on several threads: once
    /// `deliver_event` has returned, no thread may get a verdict computed
    /// against the retired situation state. The workers hammer the same
    /// task's hooks *during* each `deliver_event` (verdicts in that window
    /// may come from either side of the transition), then every thread
    /// probes once after it and must see the new state's verdict.
    #[test]
    fn ssm_transition_racing_warm_lookups_never_replays_retired_state() {
        use sack_kernel::lsm::AccessMask;
        use std::sync::Barrier;

        const WORKERS: usize = 4;
        const ROUNDS: usize = 100;
        const HAMMER: usize = 200;

        let sack = Sack::independent(DOOR_POLICY).unwrap();
        // All workers share one task.
        let ctx = HookCtx::new(
            Pid(4100),
            Credentials::user(100, 100),
            Some(KPath::new("/usr/bin/rescue_daemon").unwrap()),
        );
        let path = KPath::new("/dev/car/door0").unwrap();
        let obj = ObjectRef::regular(&path);
        let start = Barrier::new(WORKERS + 1);
        let settled = Barrier::new(WORKERS + 1);
        let probed = Barrier::new(WORKERS + 1);

        // Failures are recorded, never asserted inside the scope: a worker
        // or the controller that panicked would leave the others waiting on
        // a barrier forever. Every thread reaches every barrier; the
        // assertions run once the scope has joined.
        let (mismatches, control_errors) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let (sack, ctx, obj) = (&sack, &ctx, &obj);
                    let (start, settled, probed) = (&start, &settled, &probed);
                    s.spawn(move || {
                        let mut mismatches = Vec::new();
                        for round in 0..ROUNDS {
                            start.wait();
                            // Racing window: the transition lands somewhere
                            // in here, so either verdict is legitimate.
                            for _ in 0..HAMMER {
                                let _ = sack.file_open(ctx, obj, AccessMask::WRITE);
                            }
                            settled.wait();
                            // Post-bump probe: round parity says which state
                            // the completed transition left us in.
                            let emergency = round % 2 == 0;
                            let verdict = sack.file_open(ctx, obj, AccessMask::WRITE);
                            if verdict.is_ok() != emergency {
                                mismatches.push(format!(
                                    "round {round}: verdict from retired state \
                                     (expected {} door-write)",
                                    if emergency { "granted" } else { "denied" },
                                ));
                            }
                            probed.wait();
                        }
                        mismatches
                    })
                })
                .collect();
            let mut control_errors = Vec::new();
            for round in 0..ROUNDS {
                start.wait();
                let event = if round % 2 == 0 {
                    "crash"
                } else {
                    "rescue_done"
                };
                if let Err(e) = sack.deliver_event(event, Duration::ZERO) {
                    control_errors.push(format!("round {round}: {event}: {e}"));
                }
                // deliver_event has returned: the new state is published
                // before any worker passes this barrier.
                settled.wait();
                probed.wait();
            }
            let mismatches: Vec<String> = workers
                .into_iter()
                .flat_map(|w| w.join().expect("worker panicked"))
                .collect();
            (mismatches, control_errors)
        });
        assert!(control_errors.is_empty(), "{control_errors:#?}");
        assert!(mismatches.is_empty(), "{mismatches:#?}");
        assert_eq!(sack.current_state_name(), "normal");
    }
}
