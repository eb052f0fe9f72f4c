//! The deterministic-schedule executor: exhaustive bounded exploration of
//! thread interleavings over the **real** shimmed protocol code.
//!
//! # How one execution runs
//!
//! A [`Scenario`] builds fresh shared state and a set of thread bodies.
//! The executor spawns one OS thread per body; every shim operation the
//! body performs (see `super::backend`) parks the thread with a pending
//! [`OpKind`] announcement. The controller waits until **every** live
//! thread is parked or finished — at that moment the full frontier of
//! pending operations is known — grants exactly one thread its turn, and
//! repeats. A complete run is therefore one interleaving, recorded as the
//! sequence of granted steps.
//!
//! # How the schedule space is enumerated
//!
//! Depth-first search over a persistent choice stack: each decision point
//! stores the pending operations, the ordered not-yet-explored choices,
//! and the inherited *sleep set*. Re-running the scenario replays the
//! stack prefix, then diverges at the deepest frame with an untried
//! choice. Replay is sound because scenario bodies are deterministic and
//! object/allocation ids are assigned from per-run counters (identical
//! prefixes construct identical id sequences).
//!
//! # Partial-order reduction (sleep sets)
//!
//! After fully exploring choice `t` at a node, `t` joins the node's sleep
//! set; descendants drop sleeping threads whose pending op is *dependent*
//! on the op just scheduled (same object, not both reads). A node whose
//! enabled threads are all asleep is pruned: every continuation is a
//! reordering of independent steps already covered in a sibling subtree.
//! Sleep sets preserve all safety violations, so "0 violating schedules"
//! after a complete exploration is still an exhaustive claim.
//!
//! # What a violation is
//!
//! * an acquire of a freed snapshot (caught by the freed-address registry
//!   *before* the real code would touch the memory),
//! * any panic in a scenario thread (assertion failures, the
//!   graveyard-bound `debug_assert` in `Rcu`),
//! * a failed end-of-schedule invariant check,
//! * a deadlock of the scheduled threads, a livelock (every remaining
//!   thread waits in `spin_wait` for a write no thread can make), or a
//!   schedule that runs past the depth bound.
//!
//! # Spin waits
//!
//! A protocol loop that cannot advance until another thread writes calls
//! `Backend::spin_wait`, which announces an [`OpKind::Yield`]. The
//! executor has no fairness, so without it such a loop would run to the
//! depth bound whenever the thread it waits for is not scheduled. A
//! `Yield` is enabled once the run's write counter (granted atomic
//! writes and read-modify-writes, unlocks and frees) has passed the mark
//! taken when the same thread's previous `Yield` was granted (0 before
//! its first). Taking the mark at the grant rather than at the
//! announcement matters: a write landing inside a failed attempt (say
//! between the ring's failed enqueue and its failed dequeue) has already
//! made the retry worth running, though no write may follow. For sleep
//! sets a `Yield` is dependent on every operation, which is conservative
//! and sound.
//!
//! All carry the full counterexample schedule and the seed that orders
//! exploration, so any CI failure is reproducible from its log output.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread;

use sack_kernel::sync::Mutation;

use super::backend::{in_scenario_thread, set_ctx, ThreadCtx};

/// High bit namespacing heap allocation sequence numbers apart from
/// atomic/mutex object ids within one run.
const HEAP_OBJ: u64 = 1 << 63;

/// Classification of a pending shim operation, for enabledness and
/// DPOR independence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Atomic load.
    Read,
    /// Atomic store / swap / CAS / fetch-add.
    Write,
    /// Mutex acquisition — disabled while the mutex is held.
    Lock,
    /// Mutex release.
    Unlock,
    /// A reader is about to take a reference to a heap snapshot
    /// (`Backend::check_acquire`).
    Acquire,
    /// A writer is about to free a retired heap snapshot
    /// (`Backend::trace_free`).
    Free,
    /// A retry loop waits for another thread's write
    /// (`Backend::spin_wait`); see the module docs for when it is enabled.
    Yield,
}

/// A pending operation announced at a yield point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDesc {
    /// Operation class.
    pub kind: OpKind,
    /// Object acted on: a per-run atomic/mutex id, or `HEAP_OBJ |
    /// allocation-sequence` for snapshot lifecycle events.
    pub obj: u64,
    /// Human-readable operation name for counterexample printing.
    pub label: &'static str,
}

impl OpDesc {
    fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read | OpKind::Acquire)
    }

    /// Two operations commute iff they act on different objects or are
    /// both reads. Lock/unlock pairs share the mutex object id, so they
    /// are always dependent with each other — conservative and sound. A
    /// `Yield` is enabled by any write, so it commutes with nothing.
    fn independent(&self, other: &OpDesc) -> bool {
        if self.kind == OpKind::Yield || other.kind == OpKind::Yield {
            return false;
        }
        self.obj != other.obj || (self.is_read() && other.is_read())
    }
}

/// One granted step of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Scenario thread id.
    pub thread: usize,
    /// The operation that was granted.
    pub op: OpDesc,
}

/// A scenario: a named family of identically-shaped runs over real
/// protocol code. `make` is called once per explored schedule and must be
/// deterministic — same construction order, same thread bodies.
pub struct Scenario {
    /// Scenario name (for reports and CLI output).
    pub name: &'static str,
    /// One display name per thread, in body order.
    pub threads: Vec<&'static str>,
    /// Builds fresh state and bodies for one execution.
    #[allow(clippy::type_complexity)]
    pub make: Box<dyn Fn() -> ScenarioRun + Send + Sync>,
}

/// The per-execution product of [`Scenario::make`].
pub struct ScenarioRun {
    /// One body per scenario thread.
    pub bodies: Vec<Box<dyn FnOnce() + Send>>,
    /// End-of-schedule invariant check, run after all bodies complete.
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn FnOnce() -> Result<(), String>>,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for ScenarioRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioRun")
            .field("bodies", &self.bodies.len())
            .finish_non_exhaustive()
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Seed ordering the exploration (ties in choice order); logged in
    /// every violation so failures reproduce.
    pub seed: u64,
    /// Maximum schedule length before the run is flagged as a livelock.
    pub max_depth: usize,
    /// Bound on explored schedules (complete + pruned); exceeded ⇒ the
    /// exploration reports `complete = false`.
    pub max_schedules: usize,
    /// Planted bug for mutation testing (`None` = the shipped protocol).
    pub mutation: Option<Mutation>,
    /// Thread-id priority hint (e.g. an abstract-model counterexample):
    /// at frontier depth `d`, `hint[d]` is tried first when schedulable.
    pub hint: Vec<usize>,
}

impl SchedConfig {
    /// Exhaustive exploration of the unmutated protocol with the
    /// process-wide seed from [`sack_kernel::smp::sched_seed`].
    pub fn exhaustive() -> SchedConfig {
        SchedConfig {
            seed: sack_kernel::smp::sched_seed(),
            max_depth: 10_000,
            max_schedules: 1_000_000,
            mutation: None,
            hint: Vec::new(),
        }
    }

    /// Same exploration with one planted bug.
    pub fn with_mutation(m: Mutation) -> SchedConfig {
        SchedConfig {
            mutation: Some(m),
            ..SchedConfig::exhaustive()
        }
    }
}

/// Statistics from a completed (violation-free) exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedExploration {
    /// Complete schedules executed to the end and invariant-checked.
    pub schedules: usize,
    /// Sleep-set-blocked executions cut short (redundant interleavings).
    pub pruned: usize,
    /// Whether the schedule space was exhausted within `max_schedules`.
    pub complete: bool,
    /// Longest schedule seen, in shim operations.
    pub max_depth_seen: usize,
}

/// A violating schedule, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct SchedViolation {
    /// Scenario name.
    pub scenario: &'static str,
    /// Thread display names.
    pub thread_names: Vec<&'static str>,
    /// What went wrong.
    pub message: String,
    /// The counterexample: every granted step, in order.
    pub schedule: Vec<Step>,
    /// The exploration seed that found it.
    pub seed: u64,
}

impl fmt::Display for SchedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "violation in scenario `{}`: {}",
            self.scenario, self.message
        )?;
        writeln!(
            f,
            "counterexample schedule ({} steps, seed {:#x}):",
            self.schedule.len(),
            self.seed
        )?;
        for (i, step) in self.schedule.iter().enumerate() {
            let name = self
                .thread_names
                .get(step.thread)
                .copied()
                .unwrap_or("thread");
            let t = step.thread;
            let label = step.op.label;
            if step.op.kind == OpKind::Yield {
                writeln!(f, "  {i:3}: [{name}:{t}] {label}")?;
                continue;
            }
            let obj = if step.op.obj & HEAP_OBJ != 0 {
                format!("snapshot#{}", step.op.obj & !HEAP_OBJ)
            } else {
                format!("obj#{}", step.op.obj)
            };
            writeln!(f, "  {i:3}: [{name}:{t}] {label} on {obj}")?;
        }
        Ok(())
    }
}

/// Panic payload used to unwind scenario threads when a run aborts
/// (violation found, or the continuation is sleep-set redundant). The
/// quiet panic hook suppresses its backtrace.
struct SchedAbort;

fn panic_abort() -> ! {
    panic::panic_any(SchedAbort)
}

/// Installs (once, process-wide) a panic hook that silences `SchedAbort`
/// unwinds and expected scenario-thread panics; everything else falls
/// through to the previous hook.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SchedAbort>().is_some() || in_scenario_thread() {
                return;
            }
            prev(info);
        }));
    });
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Running,
    Parked(OpDesc),
    Done,
}

struct CtrlState {
    phase: Vec<Phase>,
    grant: Option<usize>,
    abort: bool,
    violation: Option<String>,
    /// Mutex object ids currently held by a granted-but-not-yet-unlocked
    /// thread; Lock ops on them are disabled.
    held: HashSet<u64>,
    /// Allocation sequence numbers of freed snapshots.
    freed: HashSet<u64>,
    /// Granted writes so far (atomic writes/RMWs, unlocks, frees).
    writes: u64,
    /// Per thread: `writes` when its previous `Yield` was granted; its
    /// next `Yield` is enabled once `writes` exceeds it.
    spin_mark: Vec<u64>,
    /// Live address → allocation sequence (re-allocation overwrites).
    addr_seq: HashMap<usize, u64>,
    next_seq: u64,
    next_obj: u64,
}

/// Shared coordination between scenario threads and the exploration
/// loop for one execution.
pub(super) struct Controller {
    state: Mutex<CtrlState>,
    thread_cv: Condvar,
    ctrl_cv: Condvar,
    mutation: Option<Mutation>,
}

impl Controller {
    fn new(threads: usize, mutation: Option<Mutation>) -> Controller {
        Controller {
            state: Mutex::new(CtrlState {
                phase: vec![Phase::Running; threads],
                grant: None,
                abort: false,
                violation: None,
                held: HashSet::new(),
                freed: HashSet::new(),
                writes: 0,
                spin_mark: vec![0; threads],
                addr_seq: HashMap::new(),
                next_seq: 0,
                next_obj: 0,
            }),
            thread_cv: Condvar::new(),
            ctrl_cv: Condvar::new(),
            mutation,
        }
    }

    pub(super) fn mutation(&self) -> Option<Mutation> {
        self.mutation
    }

    pub(super) fn fresh_obj(&self) -> u64 {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let id = st.next_obj;
        st.next_obj += 1;
        id
    }

    pub(super) fn trace_alloc(&self, addr: usize) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let seq = st.next_seq;
        st.next_seq += 1;
        st.addr_seq.insert(addr, seq);
    }

    /// Announce a pending op and wait to be granted the turn. Controller
    /// thread (`thread == None`) records nothing and never parks.
    pub(super) fn point(&self, thread: Option<usize>, kind: OpKind, obj: u64, label: &'static str) {
        let Some(t) = thread else { return };
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.abort {
            drop(st);
            panic_abort();
        }
        st.phase[t] = Phase::Parked(OpDesc { kind, obj, label });
        self.ctrl_cv.notify_one();
        while st.grant != Some(t) && !st.abort {
            st = self.thread_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.abort {
            drop(st);
            panic_abort();
        }
        st.grant = None;
        st.phase[t] = Phase::Running;
    }

    /// Free of a retired snapshot: a schedule point, then the freed-set
    /// update that arms [`Controller::point_acquire`]. All heap lifecycle
    /// events share one scheduling object (`HEAP_OBJ`): a free is never
    /// reordered past an acquire by the partial-order reduction, and the
    /// freed-set lookup happens at *execution* time, so a snapshot
    /// address legitimately reused by a newer allocation (the benign ABA
    /// case in the `Rcu` docs) is never a false positive.
    pub(super) fn point_free(&self, thread: Option<usize>, addr: usize) {
        self.point(thread, OpKind::Free, HEAP_OBJ, "snapshot.free");
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let seq = *st.addr_seq.get(&addr).unwrap_or(&u64::MAX);
        st.freed.insert(seq);
    }

    /// Reader about to take a reference: a schedule point, then the
    /// use-after-free check. Fires the violation *instead of* letting the
    /// real code touch freed memory.
    pub(super) fn point_acquire(&self, thread: Option<usize>, addr: usize) {
        self.point(thread, OpKind::Acquire, HEAP_OBJ, "snapshot.acquire");
        let freed_as = {
            let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let seq = *st.addr_seq.get(&addr).unwrap_or(&u64::MAX);
            st.freed.contains(&seq).then_some(seq)
        };
        if let Some(seq) = freed_as {
            self.fail(format!(
                "use-after-free: reader acquired snapshot#{seq} after a writer freed it"
            ));
        }
    }

    /// Records a violation, aborts every parked thread, and unwinds the
    /// caller.
    fn fail(&self, message: String) -> ! {
        {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            if st.violation.is_none() {
                st.violation = Some(message);
            }
            st.abort = true;
            self.thread_cv.notify_all();
            self.ctrl_cv.notify_one();
        }
        panic_abort()
    }
}

/// One decision point on the DFS stack.
struct Frame {
    /// Pending ops of every parked thread at this node (replay sanity
    /// check + independence source for sleep-set filtering).
    pending: Vec<(usize, OpDesc)>,
    /// Choice order at this node: enabled threads not asleep, seeded
    /// order, hint first.
    options: Vec<usize>,
    /// Index into `options` of the branch currently being explored;
    /// `options[..chosen]` are fully explored (and asleep below).
    chosen: usize,
    /// Sleep set inherited from the parent.
    sleep: Vec<usize>,
}

impl Frame {
    fn op_of(&self, thread: usize) -> &OpDesc {
        &self
            .pending
            .iter()
            .find(|(t, _)| *t == thread)
            .expect("sleeping/chosen thread must be parked at this node")
            .1
    }

    /// The sleep set passed to the child of the currently chosen branch.
    fn child_sleep(&self) -> Vec<usize> {
        let chosen_op = self.op_of(self.options[self.chosen]);
        self.sleep
            .iter()
            .chain(self.options[..self.chosen].iter())
            .copied()
            .filter(|&u| self.op_of(u).independent(chosen_op))
            .collect()
    }
}

enum RunOutcome {
    Completed { trace: Vec<Step> },
    Pruned,
    Violated { message: String, trace: Vec<Step> },
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "scenario thread panicked".to_string()
    }
}

/// Runs one execution, replaying the stack prefix and extending the
/// frontier. Pushes new frames onto `stack` as decision points are met.
fn run_once(scenario: &Scenario, cfg: &SchedConfig, stack: &mut Vec<Frame>) -> RunOutcome {
    let threads = scenario.threads.len();
    let ctrl = Arc::new(Controller::new(threads, cfg.mutation));

    // Scenario setup runs on this thread with a recording-only context,
    // so snapshot allocations made during construction are tracked.
    set_ctx(Some(ThreadCtx {
        controller: Arc::clone(&ctrl),
        thread: None,
    }));
    let run = (scenario.make)();
    assert_eq!(
        run.bodies.len(),
        threads,
        "scenario `{}` built {} bodies for {} thread names",
        scenario.name,
        run.bodies.len(),
        threads
    );

    let handles: Vec<_> = run
        .bodies
        .into_iter()
        .enumerate()
        .map(|(t, body)| {
            let ctrl = Arc::clone(&ctrl);
            thread::Builder::new()
                .name(format!("sched-{}-{t}", scenario.name))
                .spawn(move || {
                    set_ctx(Some(ThreadCtx {
                        controller: Arc::clone(&ctrl),
                        thread: Some(t),
                    }));
                    let result = panic::catch_unwind(AssertUnwindSafe(body));
                    let mut st = ctrl.state.lock().unwrap_or_else(|p| p.into_inner());
                    st.phase[t] = Phase::Done;
                    if let Err(payload) = result {
                        if !payload.is::<SchedAbort>() {
                            if st.violation.is_none() {
                                st.violation = Some(panic_message(payload.as_ref()));
                            }
                            st.abort = true;
                            ctrl.thread_cv.notify_all();
                        }
                    }
                    ctrl.ctrl_cv.notify_one();
                    set_ctx(None);
                })
                .expect("spawn scenario thread")
        })
        .collect();

    let mut trace: Vec<Step> = Vec::new();
    let mut cur_sleep: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let outcome = loop {
        let mut st = ctrl.state.lock().unwrap_or_else(|p| p.into_inner());
        // Quiescence: no outstanding grant (the granted thread has woken
        // and re-parked or finished) and no thread still running.
        while !st.abort
            && (st.grant.is_some() || st.phase.iter().any(|ph| matches!(ph, Phase::Running)))
        {
            st = ctrl.ctrl_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.abort {
            let message = st
                .violation
                .clone()
                .unwrap_or_else(|| "aborted without a recorded violation".to_string());
            drop(st);
            break RunOutcome::Violated { message, trace };
        }
        let pending: Vec<(usize, OpDesc)> = st
            .phase
            .iter()
            .enumerate()
            .filter_map(|(t, ph)| match ph {
                Phase::Parked(op) => Some((t, op.clone())),
                _ => None,
            })
            .collect();
        if pending.is_empty() {
            drop(st);
            break RunOutcome::Completed { trace };
        }
        if depth >= cfg.max_depth {
            let message = format!(
                "schedule exceeded the {}-step depth bound (livelock in the protocol?)",
                cfg.max_depth
            );
            st.violation = Some(message.clone());
            st.abort = true;
            ctrl.thread_cv.notify_all();
            drop(st);
            break RunOutcome::Violated { message, trace };
        }
        let enabled: Vec<usize> = pending
            .iter()
            .filter(|(t, op)| match op.kind {
                OpKind::Lock => !st.held.contains(&op.obj),
                OpKind::Yield => st.writes > st.spin_mark[*t],
                _ => true,
            })
            .map(|(t, _)| *t)
            .collect();
        if enabled.is_empty() {
            let message = if pending.iter().all(|(_, op)| op.kind == OpKind::Yield) {
                "livelock: every remaining thread spins in spin_wait and no thread \
                 is left to write"
                    .to_string()
            } else {
                "deadlock: every parked thread waits on a held mutex".to_string()
            };
            st.violation = Some(message.clone());
            st.abort = true;
            ctrl.thread_cv.notify_all();
            drop(st);
            break RunOutcome::Violated { message, trace };
        }

        let choice = if depth < stack.len() {
            let frame = &stack[depth];
            debug_assert_eq!(
                frame.pending, pending,
                "replay divergence at depth {depth} — scenario `{}` is nondeterministic",
                scenario.name
            );
            let t = frame.options[frame.chosen];
            cur_sleep = frame.child_sleep();
            t
        } else {
            let mut options: Vec<usize> = enabled
                .iter()
                .copied()
                .filter(|t| !cur_sleep.contains(t))
                .collect();
            if options.is_empty() {
                // Sleep-set blocked: every continuation from here is a
                // reordering of independent steps explored in a sibling.
                st.abort = true;
                ctrl.thread_cv.notify_all();
                drop(st);
                break RunOutcome::Pruned;
            }
            options.sort_by_key(|&t| {
                splitmix(cfg.seed ^ (depth as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64)
            });
            if let Some(&preferred) = cfg.hint.get(depth) {
                if let Some(pos) = options.iter().position(|&t| t == preferred) {
                    let t = options.remove(pos);
                    options.insert(0, t);
                }
            }
            let frame = Frame {
                pending: pending.clone(),
                options,
                chosen: 0,
                sleep: std::mem::take(&mut cur_sleep),
            };
            let t = frame.options[0];
            cur_sleep = frame.child_sleep();
            stack.push(frame);
            t
        };

        let op = pending
            .iter()
            .find(|(t, _)| *t == choice)
            .expect("granted thread is parked")
            .1
            .clone();
        match op.kind {
            OpKind::Lock => {
                st.held.insert(op.obj);
            }
            OpKind::Unlock => {
                st.held.remove(&op.obj);
            }
            OpKind::Yield => st.spin_mark[choice] = st.writes,
            _ => {}
        }
        if matches!(op.kind, OpKind::Write | OpKind::Unlock | OpKind::Free) {
            st.writes += 1;
        }
        trace.push(Step { thread: choice, op });
        st.grant = Some(choice);
        ctrl.thread_cv.notify_all();
        depth += 1;
    };

    for handle in handles {
        let _ = handle.join();
    }

    let outcome = match outcome {
        RunOutcome::Completed { trace } => {
            // Bodies are done; the invariant check (and implicit teardown
            // of the scenario state it captured) runs uninstrumented but
            // with lifecycle recording still live.
            let checked = panic::catch_unwind(AssertUnwindSafe(run.check));
            let late = {
                let st = ctrl.state.lock().unwrap_or_else(|p| p.into_inner());
                st.violation.clone()
            };
            match checked {
                Ok(Ok(())) => match late {
                    None => RunOutcome::Completed { trace },
                    Some(message) => RunOutcome::Violated { message, trace },
                },
                Ok(Err(message)) => RunOutcome::Violated { message, trace },
                Err(payload) => {
                    let message = late.unwrap_or_else(|| panic_message(payload.as_ref()));
                    RunOutcome::Violated { message, trace }
                }
            }
        }
        other => {
            drop(run.check);
            other
        }
    };
    set_ctx(None);
    outcome
}

/// Explores the bounded schedule space of `scenario` under `cfg`.
///
/// Returns statistics if every explored schedule upholds the scenario's
/// invariants, or the first violating schedule found. `Ok` with
/// `complete == true` is the exhaustive claim: *no* schedule of the
/// scenario within the depth bound violates the invariants.
#[allow(clippy::missing_errors_doc)]
pub fn explore(scenario: &Scenario, cfg: &SchedConfig) -> Result<SchedExploration, SchedViolation> {
    install_quiet_hook();
    let mut stack: Vec<Frame> = Vec::new();
    let mut stats = SchedExploration {
        schedules: 0,
        pruned: 0,
        complete: true,
        max_depth_seen: 0,
    };
    loop {
        if stats.schedules + stats.pruned >= cfg.max_schedules {
            stats.complete = false;
            return Ok(stats);
        }
        match run_once(scenario, cfg, &mut stack) {
            RunOutcome::Violated { message, trace } => {
                return Err(SchedViolation {
                    scenario: scenario.name,
                    thread_names: scenario.threads.clone(),
                    message,
                    schedule: trace,
                    seed: cfg.seed,
                });
            }
            RunOutcome::Completed { trace } => {
                stats.schedules += 1;
                stats.max_depth_seen = stats.max_depth_seen.max(trace.len());
            }
            RunOutcome::Pruned => stats.pruned += 1,
        }
        // Backtrack to the deepest frame with an untried branch.
        loop {
            match stack.last_mut() {
                None => return Ok(stats),
                Some(frame) => {
                    frame.chosen += 1;
                    if frame.chosen < frame.options.len() {
                        break;
                    }
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;

    use sack_kernel::sync::shim::{RawAtomicUsize, RawMutex};
    use sack_kernel::sync::Backend;

    use super::super::backend::{SchedBackend, SchedMutex};
    use super::{explore, Scenario, ScenarioRun, SchedConfig};

    type Flag = <SchedBackend as Backend>::AtomicUsize;

    /// A scenario whose bodies share two flag words, both initially 0.
    fn flag_scenario(
        name: &'static str,
        bodies: Vec<fn(&Flag, &Flag)>,
        threads: Vec<&'static str>,
    ) -> Scenario {
        Scenario {
            name,
            threads,
            make: Box::new(move || {
                let flags: Arc<(Flag, Flag)> =
                    Arc::new((RawAtomicUsize::new(0), RawAtomicUsize::new(0)));
                let bodies = bodies
                    .iter()
                    .map(|&body| {
                        let flags = Arc::clone(&flags);
                        Box::new(move || body(&flags.0, &flags.1)) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                ScenarioRun {
                    bodies,
                    check: Box::new(|| Ok(())),
                }
            }),
        }
    }

    /// Spins until either flag is set: one attempt is two loads, the
    /// shape of the ring's failed enqueue followed by a failed dequeue.
    fn wait_for_either(a: &Flag, b: &Flag) {
        while a.load(SeqCst) == 0 && b.load(SeqCst) == 0 {
            SchedBackend::spin_wait();
        }
    }

    #[test]
    fn a_write_before_the_spin_wait_is_not_a_livelock() {
        // In some schedules the writer sets `a` after the waiter's first
        // load and touches `b` before its second, so both loads fail with
        // every write already made. Marking at the announcement would then
        // park the waiter for a third write that never comes.
        let scenario = flag_scenario(
            "write-before-spin",
            vec![wait_for_either, |a, b| {
                a.store(1, SeqCst);
                b.store(0, SeqCst);
            }],
            vec!["waiter", "writer"],
        );
        let stats =
            explore(&scenario, &SchedConfig::exhaustive()).unwrap_or_else(|v| panic!("{v}"));
        assert!(stats.complete);
        assert!(stats.schedules > 1, "the race must be explored");
    }

    #[test]
    fn a_lone_spinner_is_a_livelock() {
        let scenario = flag_scenario("lone-spinner", vec![wait_for_either], vec!["waiter"]);
        let violation = explore(&scenario, &SchedConfig::exhaustive())
            .expect_err("nobody can release the spinner");
        assert!(violation.message.contains("livelock"), "{violation}");
    }

    #[test]
    fn opposite_lock_order_is_a_deadlock() {
        let scenario = Scenario {
            name: "lock-order-inversion",
            threads: vec!["ab", "ba"],
            make: Box::new(|| {
                let a: Arc<SchedMutex<()>> = Arc::new(RawMutex::new(()));
                let b: Arc<SchedMutex<()>> = Arc::new(RawMutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                ScenarioRun {
                    bodies: vec![
                        Box::new(move || a.with(|()| b.with(|()| ()))),
                        Box::new(move || b2.with(|()| a2.with(|()| ()))),
                    ],
                    check: Box::new(|| Ok(())),
                }
            }),
        };
        let violation =
            explore(&scenario, &SchedConfig::exhaustive()).expect_err("inversion must deadlock");
        assert!(violation.message.contains("deadlock"), "{violation}");
    }

    #[test]
    fn a_loop_without_spin_wait_hits_the_depth_bound() {
        let scenario = flag_scenario(
            "busy-loop",
            vec![|a, _| while a.load(SeqCst) == 0 {}],
            vec!["spinner"],
        );
        let cfg = SchedConfig {
            max_depth: 32,
            ..SchedConfig::exhaustive()
        };
        let violation = explore(&scenario, &cfg).expect_err("the loop never ends");
        assert!(violation.message.contains("depth bound"), "{violation}");
        assert_eq!(violation.schedule.len(), 32);
    }
}
