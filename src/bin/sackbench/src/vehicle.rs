//! The `vehicle` workload: the paper's case study (Fig. 3b) with live
//! situation transitions.
//!
//! A producer thread replays a seeded sensor trace at 1000 frames/s (open
//! loop) through the SDS detectors and flushes each frame's events to
//! `SACK/sds/ring`, where the drain and publish happen inside the write.
//! The app thread (closed loop) drives the IVI apps' device operations on
//! held-open `/dev/car/*` descriptors; some are denied by design, and every
//! verdict is checked against a table the policy simulator computes.

use std::hint::spin_loop;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sack_apparmor::FilePerms;
use sack_core::{AccessQuery, PolicySimulator};
use sack_kernel::error::{Errno, KernelResult};
use sack_kernel::file::OpenFlags;
use sack_kernel::lsm::{AccessMask, ObjectKind};
use sack_kernel::path::KPath;
use sack_kernel::types::Fd;
use sack_kernel::uctx::UserContext;
use sack_sds::{standard_detectors, Detector, RingProducer, SensorFrame};
use sack_vehicle::devices::{audio_ioctl, door_ioctl, window_ioctl};
use sack_vehicle::{
    CarHardware, VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY, VEHICLE_SACK_POLICY,
};

use crate::env::{Config, Counters, Env, HookCall, Object, Policies};
use crate::json;
use crate::rng::{Digest, Rng};
use crate::run::{
    closed_loop, event_latency, percentile, LayerInputs, Metric, OpResult, Round, RunResult,
    Workload,
};
use crate::stats::{iqr, Histogram};
use crate::trace::Spans;

const FRAME_PERIOD: Duration = Duration::from_millis(1);
/// Frames in the generated sensor trace; rounds cycle through it.
const TRACE_FRAMES: usize = 1 << 14;
const APP_STREAM: usize = 1 << 16;
const DOORS: usize = 2;
const WINDOWS: usize = 2;
/// Devices each app holds open: doors, windows, then audio.
const DEVICES: usize = DOORS + WINDOWS + 1;
const AUDIO: usize = DOORS + WINDOWS;
const TRACING_ENABLE: &str = "/sys/kernel/security/SACK/tracing/enable";
const METRICS_JSON: &str = "/sys/kernel/security/SACK/tracing/metrics_json";

/// The three IVI apps: profile/executable name and uid.
const APPS: [(&str, u32); 3] = [
    ("rescue_daemon", 2001),
    ("media_app", 2002),
    ("navi_app", 2003),
];
const RESCUE: usize = 0;
const MEDIA: usize = 1;
const NAVI: usize = 2;

fn exe(app: usize) -> String {
    format!("/usr/bin/{}", APPS[app].0)
}

fn device_path(dev: usize) -> String {
    match dev {
        d if d < DOORS => format!("/dev/car/door{d}"),
        d if d < AUDIO => format!("/dev/car/window{}", d - DOORS),
        _ => "/dev/car/audio".to_string(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Action {
    ReadDoor(u8),
    DoorIoctl(u8, u32),
    WindowIoctl(u8, u8),
    SetVolume(u8),
}

#[derive(Debug, Clone, Copy)]
struct AppOp {
    app: usize,
    action: Action,
}

impl AppOp {
    fn device(self) -> usize {
        match self.action {
            Action::ReadDoor(d) | Action::DoorIoctl(d, _) => usize::from(d),
            Action::WindowIoctl(w, _) => DOORS + usize::from(w),
            Action::SetVolume(_) => AUDIO,
        }
    }

    fn is_read(self) -> bool {
        matches!(self.action, Action::ReadDoor(_))
    }

    /// Index into the verdict table: (app, device, read or ioctl).
    fn kind(self) -> usize {
        (self.app * DEVICES + self.device()) * 2 + usize::from(!self.is_read())
    }
}

const KINDS: usize = APPS.len() * DEVICES * 2;

fn app_stream(rng: &mut Rng) -> Vec<AppOp> {
    (0..APP_STREAM)
        .map(|_| {
            let door = rng.below(DOORS) as u8;
            let (app, action) = match rng.below(100) {
                0..=14 => (RESCUE, Action::ReadDoor(door)),
                15..=24 => (MEDIA, Action::ReadDoor(door)),
                25..=29 => (NAVI, Action::ReadDoor(door)),
                30..=44 => {
                    let cmd = if rng.chance(1, 2) {
                        door_ioctl::LOCK
                    } else {
                        door_ioctl::UNLOCK
                    };
                    (RESCUE, Action::DoorIoctl(door, cmd))
                }
                45..=59 => (
                    RESCUE,
                    Action::WindowIoctl(rng.below(WINDOWS) as u8, rng.between(0, 100) as u8),
                ),
                60..=84 => (MEDIA, Action::SetVolume(rng.between(0, 100) as u8)),
                _ => (NAVI, Action::DoorIoctl(door, door_ioctl::UNLOCK)),
            };
            AppOp { app, action }
        })
        .collect()
}

/// A seeded drive: parked spells (the driver sometimes leaves), drives, and
/// one crash in four, each crash followed by a rescue that resolves the
/// emergency (no detector emits `emergency_resolved`; the rescue service
/// does, and the trace marks the frame it arrives with). Every cycle ends
/// parked with the driver in, so the trace repeats seamlessly.
fn sensor_trace(rng: &mut Rng) -> Trace {
    let mut trace = Trace {
        frames: Vec::new(),
        resolved: Vec::new(),
    };
    while trace.frames.len() < TRACE_FRAMES {
        for _ in 0..rng.between(1, 2) {
            trace.push(0.0, true, false, false);
        }
        if rng.chance(1, 2) {
            for _ in 0..rng.between(1, 2) {
                trace.push(0.0, false, false, false);
            }
            trace.push(0.0, true, false, false);
        }
        let speed = rng.between(20, 90) as f64;
        for _ in 0..rng.between(2, 4) {
            trace.push(speed, true, false, false);
        }
        if rng.chance(1, 4) {
            trace.push(speed, true, true, false);
            for _ in 0..rng.between(3, 4) {
                trace.push(0.0, true, false, false);
            }
            trace.push(0.0, true, false, true);
        } else {
            for _ in 0..3 {
                trace.push(0.0, true, false, false);
            }
        }
    }
    trace
}

/// The open-loop side of one configuration.
struct Producer {
    ring: Option<RingProducer>,
    detectors: Vec<Box<dyn Detector>>,
    next_frame: usize,
}

/// What the producer measured in one round.
#[derive(Default)]
struct Produced {
    events: Histogram,
    lag: Histogram,
    frames: u64,
    event_failures: u64,
}

/// The closed-loop side of one configuration.
struct Apps {
    procs: Vec<UserContext>,
    fds: Vec<[Fd; DEVICES]>,
    /// The harness's model of each door; only the app thread moves doors.
    locked: [bool; DOORS],
    /// `expected[kind][state]`: is the op allowed in that state.
    expected: Vec<Vec<bool>>,
    buf: [u8; 16],
}

impl Apps {
    fn op(&mut self, env: &Env, epoch: &AtomicU64, op: AppOp) -> OpResult {
        let proc = &self.procs[op.app];
        let fd = self.fds[op.app][op.device()];
        let before = epoch.load(Ordering::SeqCst);
        let state = env.sack.as_ref().map_or(0, |s| s.active().ssm.current().0);
        let buf = &mut self.buf;
        let t0 = Instant::now();
        let result: KernelResult<i64> = match op.action {
            Action::ReadDoor(_) => proc
                .seek(fd, 0)
                .and_then(|()| proc.read(fd, buf))
                .map(|n| n as i64),
            Action::DoorIoctl(_, cmd) => proc.ioctl(fd, cmd, 0),
            Action::WindowIoctl(_, pos) => proc.ioctl(fd, window_ioctl::SET_POSITION, pos.into()),
            Action::SetVolume(v) => proc.ioctl(fd, audio_ioctl::SET_VOLUME, v.into()),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        fence(Ordering::SeqCst);
        let stable = before.is_multiple_of(2) && epoch.load(Ordering::SeqCst) == before;
        let ok = match (&result, op.action) {
            (Ok(n), Action::ReadDoor(d)) => {
                let want: &[u8] = if self.locked[usize::from(d)] {
                    b"locked\n"
                } else {
                    b"unlocked\n"
                };
                buf[..*n as usize] == *want
            }
            (Ok(v), Action::DoorIoctl(d, cmd)) => {
                self.locked[usize::from(d)] = cmd == door_ioctl::LOCK;
                *v == 0
            }
            (Ok(v), _) => *v == 0,
            (Err(e), _) => e.errno() == Errno::EACCES,
        };
        let verdict_ok = !stable || result.is_ok() == self.expected[op.kind()][state];
        OpResult {
            ns,
            ok: ok && verdict_ok,
            checked: stable,
        }
    }
}

/// One configuration's kernel with its apps and its producer.
struct Slot {
    env: Env,
    apps: Apps,
    producer: Producer,
    /// Seqlock over the ring writes: odd while a write (and the transition
    /// it may publish) is in flight. The app thread reads it around each op
    /// to tell whether the op could have straddled a transition.
    epoch: AtomicU64,
    cursor: u64,
    /// App ops and frames of the timed rounds so far: a replay feeds one
    /// frame per `ops / frames` ops, the rate the rounds ran at.
    ops: u64,
    frames: u64,
}

impl Producer {
    /// Feeds the next trace frame through the detectors and writes its
    /// policy events, if any, to the ring as one batch. Returns `None` when
    /// nothing was written, else whether the write succeeded.
    fn frame(&mut self, env: &Env, trace: &Trace, epoch: &AtomicU64) -> Option<bool> {
        let at = self.next_frame % trace.frames.len();
        self.next_frame += 1;
        env.kernel.clock().advance(FRAME_PERIOD);
        let events = self
            .detectors
            .iter_mut()
            .flat_map(|d| d.observe(&trace.frames[at]))
            .collect::<Vec<_>>();
        let ring = self.ring.as_mut()?;
        let mut queued = 0;
        for event in events
            .iter()
            .map(String::as_str)
            .chain(trace.resolved[at].then_some("emergency_resolved"))
        {
            queued += usize::from(matches!(ring.queue(event), Ok(true)));
        }
        if queued == 0 {
            return None;
        }
        epoch.fetch_add(1, Ordering::SeqCst);
        let written = ring.flush();
        epoch.fetch_add(1, Ordering::SeqCst);
        Some(matches!(written, Ok(n) if n == queued))
    }
}

/// Replays frames, one per `FRAME_PERIOD`, until `deadline`. Each frame is
/// timed from when it was due, so a stall shows in the frames behind it.
fn produce(
    producer: &mut Producer,
    env: &Env,
    trace: &Trace,
    epoch: &AtomicU64,
    deadline: Instant,
) -> Produced {
    let mut out = Produced::default();
    let start = Instant::now();
    for i in 0u32.. {
        let due = start + FRAME_PERIOD * i;
        if due >= deadline {
            break;
        }
        while Instant::now() < due {
            spin_loop();
        }
        out.lag.record(due.elapsed().as_nanos() as u64);
        if let Some(written) = producer.frame(env, trace, epoch) {
            out.events.record(due.elapsed().as_nanos() as u64);
            out.event_failures += u64::from(!written);
        }
        out.frames += 1;
    }
    out
}

/// The generated sensor trace, one frame per `FRAME_PERIOD`.
struct Trace {
    frames: Vec<SensorFrame>,
    /// Frames that also carry `emergency_resolved`.
    resolved: Vec<bool>,
}

impl Trace {
    fn push(&mut self, speed_kmh: f64, driver: bool, crash: bool, resolved: bool) {
        let mut frame = SensorFrame::parked(FRAME_PERIOD * self.frames.len() as u32)
            .with_speed(speed_kmh)
            .with_driver(driver);
        if crash {
            frame = frame.with_accel(25.0).with_airbag(true);
        }
        self.frames.push(frame);
        self.resolved.push(resolved);
    }
}

pub struct VehicleBench {
    configs: Vec<Config>,
    ops: Vec<AppOp>,
    trace: Trace,
    slots: Vec<Slot>,
}

/// The verdict table of one configuration: `expected[kind][state]`.
fn verdicts(env: &Env, sim: &PolicySimulator) -> Vec<Vec<bool>> {
    let states = env
        .sack
        .as_ref()
        .map_or(1, |s| s.active().ssm.space().state_count());
    (0..KINDS)
        .map(|kind| {
            let (app, rest) = (kind / (DEVICES * 2), kind % (DEVICES * 2));
            let (dev, ioctl) = (rest / 2, rest % 2 == 1);
            let path = device_path(dev);
            let perms = if ioctl {
                FilePerms::IOCTL
            } else {
                FilePerms::READ
            };
            match (env.config, &env.sack, &env.apparmor) {
                (Config::NoLsm, ..) => vec![true],
                (Config::AppArmor, _, Some(aa)) => {
                    let profile = aa
                        .policy()
                        .get(APPS[app].0)
                        .expect("app profiles are loaded");
                    vec![profile.rules().evaluate_dfa(&path).permits(perms)]
                }
                (_, Some(sack), _) => {
                    let query = AccessQuery {
                        uid: APPS[app].1,
                        exe: Some(exe(app)),
                        profile: None,
                        path: path.clone(),
                        perms,
                    };
                    let space = sack.active();
                    let mut row = vec![false; states];
                    for (name, allowed) in sim.query_all_reachable_states(&query) {
                        let id = space
                            .ssm
                            .space()
                            .state_id(&name)
                            .expect("both vehicle policies share their states");
                        row[id.0] = allowed;
                    }
                    row
                }
                _ => unreachable!("every configuration is covered"),
            }
        })
        .collect()
}

impl VehicleBench {
    pub fn setup(seed: u64) -> VehicleBench {
        let ops = app_stream(&mut Rng::stream(seed, 11));
        let trace = sensor_trace(&mut Rng::stream(seed, 12));
        let sim = PolicySimulator::new(VEHICLE_SACK_POLICY).expect("vehicle policy loads");
        let policies = Policies {
            independent: VEHICLE_SACK_POLICY,
            enhanced: VEHICLE_ENHANCED_POLICY,
            profiles: VEHICLE_APPARMOR_PROFILES,
        };
        let slots = Config::ALL
            .iter()
            .map(|&config| {
                let env = Env::boot(config, &policies);
                CarHardware::install(&env.kernel, DOORS, WINDOWS).expect("car hardware installs");
                let mut procs = Vec::new();
                let mut fds = Vec::new();
                for (app, (_, uid)) in APPS.iter().enumerate() {
                    env.install_exe(&exe(app)).expect("app executables install");
                    let proc = env.spawn_exec(*uid, &exe(app)).expect("apps start");
                    let open = |dev| {
                        proc.open(&device_path(dev), OpenFlags::read_only())
                            .expect("device reads are allowed in every state")
                    };
                    fds.push(std::array::from_fn(open));
                    procs.push(proc);
                }
                let ring = env.sack.as_ref().map(|_| {
                    env.admin_write(TRACING_ENABLE, b"1\n")
                        .expect("SACK tracing switches on");
                    RingProducer::spawn(&env.kernel, usize::MAX)
                        .expect("ring producer opens the ring")
                });
                let expected = verdicts(&env, &sim);
                Slot {
                    env,
                    apps: Apps {
                        procs,
                        fds,
                        locked: [true; DOORS],
                        expected,
                        buf: [0; 16],
                    },
                    producer: Producer {
                        ring,
                        detectors: standard_detectors(),
                        next_frame: 0,
                    },
                    epoch: AtomicU64::new(0),
                    cursor: 0,
                    ops: 0,
                    frames: 0,
                }
            })
            .collect();
        VehicleBench {
            configs: Config::ALL.to_vec(),
            ops,
            trace,
            slots,
        }
    }

    /// Times the event path's layers on twin modules fed the same events
    /// as the run: detection, the `SACK/sds/ring` write (drain and publish
    /// happen inside it) and `Sack::deliver_event`, in both SACK modes.
    fn event_layers(&self, spans: &mut Spans, frames: usize) -> Vec<Metric> {
        let mut detectors = standard_detectors();
        let mut detect = Vec::new();
        let mut per_frame = Vec::new();
        let mut events: Vec<Vec<String>> = Vec::new();
        for (i, frame) in self.trace.frames.iter().cycle().take(frames).enumerate() {
            let (mut found, ns) = spans.once("sds.detect", i as u64, || {
                detectors
                    .iter_mut()
                    .flat_map(|d| d.observe(frame))
                    .collect::<Vec<_>>()
            });
            if self.trace.resolved[i % self.trace.frames.len()] {
                found.push("emergency_resolved".to_string());
            }
            detect.push(ns);
            per_frame.push(found.len() as f64);
            events.push(found);
        }
        let mut out = vec![
            Metric::over("sds.detect_ns", "ns", detect.len() as u64, &detect),
            Metric::mean("sds.events_per_frame", "count", &per_frame),
        ];
        let policies = Policies {
            independent: VEHICLE_SACK_POLICY,
            enhanced: VEHICLE_ENHANCED_POLICY,
            profiles: VEHICLE_APPARMOR_PROFILES,
        };
        for config in [Config::Independent, Config::Enhanced] {
            let twin = Env::boot(config, &policies);
            let mut ring = RingProducer::spawn(&twin.kernel, usize::MAX).expect("twin ring opens");
            let mut writes = Vec::new();
            for (i, names) in events.iter().enumerate() {
                let mut queued = 0;
                for name in names {
                    queued += usize::from(matches!(ring.queue(name), Ok(true)));
                }
                if queued > 0 {
                    let (_, ns) = spans.once("sackfs.ring_write", i as u64, || ring.flush());
                    writes.push(ns);
                }
            }
            out.push(Metric::over(
                &format!("{}.sackfs.ring_write_ns", config.name()),
                "ns",
                writes.len() as u64,
                &writes,
            ));
            let twin = Env::boot(config, &policies);
            let sack = twin.sack.as_ref().expect("SACK configurations stack SACK");
            let mut delivers = Vec::new();
            for (i, names) in events.iter().enumerate() {
                for name in names
                    .iter()
                    .filter(|n| sack.active().ssm.space().event_id(n).is_some())
                {
                    let (_, ns) = spans.once("ssm.deliver", i as u64, || {
                        sack.deliver_event(name, Duration::ZERO)
                    });
                    delivers.push(ns);
                }
            }
            out.push(Metric::over(
                &format!("{}.ssm.deliver_ns", config.name()),
                "ns",
                delivers.len() as u64,
                &delivers,
            ));
        }
        out
    }
}

impl Workload for VehicleBench {
    fn configs(&self) -> &[Config] {
        &self.configs
    }

    fn env(&self, ci: usize) -> &Env {
        &self.slots[ci].env
    }

    fn run_round(&mut self, ci: usize, len: Duration, round: &mut Round) {
        let ops = &self.ops;
        let trace = &self.trace;
        let Slot {
            env,
            apps,
            producer,
            epoch,
            cursor,
            ops: ops_run,
            frames: frames_run,
        } = &mut self.slots[ci];
        let (env, epoch) = (&*env, &*epoch);
        let mut seq = *cursor;
        let mut app_op = || {
            let r = apps.op(env, epoch, ops[seq as usize % ops.len()]);
            seq += 1;
            r
        };
        let deadline = Instant::now() + len;
        let produced = std::thread::scope(|s| {
            let producer = s.spawn(|| produce(producer, env, trace, epoch, deadline));
            closed_loop(len, round, &mut app_op);
            producer.join().expect("producer thread completes")
        });
        round.events = produced.events;
        round.lag = produced.lag;
        round.frames = produced.frames;
        round.event_failures = produced.event_failures;
        *ops_run += round.ops;
        *frames_run += round.frames;
        *cursor = seq;
        if let Some(aa) = &env.apparmor {
            // AppArmor keeps every denial in memory until drained.
            round.apparmor_audit = aa.take_audit_log().len() as u64;
        }
    }

    fn replay_op(&mut self, ci: usize, seq: u64) -> OpResult {
        let op = self.ops[seq as usize % self.ops.len()];
        let slot = &mut self.slots[ci];
        slot.apps.op(&slot.env, &slot.epoch, op)
    }

    /// Feeds sensor frames at the rate the timed rounds saw them, so the
    /// replay meets the same situation changes.
    fn advance(&mut self, ci: usize, seq: u64) {
        let slot = &mut self.slots[ci];
        let per_frame = (slot.ops / slot.frames.max(1)).max(1);
        if seq.is_multiple_of(per_frame) {
            let written = slot.producer.frame(&slot.env, &self.trace, &slot.epoch);
            assert_ne!(written, Some(false), "a replayed ring write failed");
        }
    }

    fn layer_inputs(&self, ci: usize, seq: u64) -> LayerInputs {
        let op = self.ops[seq as usize % self.ops.len()];
        let slot = &self.slots[ci];
        let path = KPath::new(&device_path(op.device())).expect("device paths are valid");
        let dev = slot
            .env
            .kernel
            .vfs()
            .resolve(&path)
            .ok()
            .and_then(|node| node.device());
        let object = Object {
            path: path.clone(),
            kind: ObjectKind::CharDevice,
            dev,
        };
        let hook = match op.action {
            Action::ReadDoor(_) => HookCall::Permission(object, AccessMask::READ),
            Action::DoorIoctl(_, cmd) => HookCall::Ioctl(object, cmd),
            Action::WindowIoctl(..) => HookCall::Ioctl(object, window_ioctl::SET_POSITION),
            Action::SetVolume(_) => HookCall::Ioctl(object, audio_ioctl::SET_VOLUME),
        };
        LayerInputs {
            ctx: slot.apps.procs[op.app].task().hook_ctx(),
            paths: vec![path],
            resolves: false,
            hooks: vec![hook],
            mutations: Vec::new(),
        }
    }

    fn run_extras(&self, result: &RunResult) -> Vec<Metric> {
        run_metrics(self, result)
    }

    fn trace_extras(&self, spans: &mut Spans, ops: usize) -> Vec<Metric> {
        self.event_layers(spans, ops)
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for op in &self.ops {
            d.bytes(format!("{op:?}").as_bytes());
        }
        for (f, r) in self.trace.frames.iter().zip(&self.trace.resolved) {
            d.bytes(format!("{f:?}{r}").as_bytes());
        }
        d.finish()
    }
}

/// The `vehicle`-only numbers of an untraced run: event latency, the event
/// plane, audit, SACK's own tracing and the open-loop generator.
fn run_metrics(w: &VehicleBench, result: &RunResult) -> Vec<Metric> {
    let mut out = event_latency(result);
    for config in [Config::Independent, Config::Enhanced] {
        let Some(ci) = result.index(config) else {
            continue;
        };
        let run = &result.per_config[ci];
        let c = run.counters();
        let name = config.name();
        let total = |f: fn(&Counters) -> u64| -> Vec<f64> {
            run.rounds.iter().map(|r| f(&r.counters) as f64).collect()
        };
        let count = |metric: &str, f: fn(&Counters) -> u64| Metric {
            name: format!("{name}.{metric}"),
            value: f(&c) as f64,
            unit: "count",
            samples: run.rounds.len() as u64,
            rounds: run.rounds.len(),
            iqr: iqr(&total(f)),
            beyond: None,
        };
        out.push(count("eventplane.frames", |c| c.plane_frames));
        out.push(count("eventplane.transitions", |c| c.plane_transitions));
        let coalesce: Vec<f64> = run
            .rounds
            .iter()
            .map(|r| coalesce_ratio(&r.counters))
            .collect();
        out.push(Metric {
            value: coalesce_ratio(&c),
            ..Metric::over(
                &format!("{name}.eventplane.coalesce_ratio"),
                "ratio",
                run.rounds.len() as u64,
                &coalesce,
            )
        });
        out.push(count("eventplane.dropped", |c| c.plane_dropped));
        out.push(count("eventplane.backpressure_waits", |c| {
            c.plane_backpressure
        }));
        out.push(count("audit.records", |c| c.audit_records));
        out.push(count("audit.lost", |c| c.audit_lost));
        out.push(percentile(
            &format!("{name}.gen.lag_p99_us"),
            run,
            0.99,
            |r| &r.lag,
            true,
        ));
        if let Some((p50, n)) = hook_p50(&w.slots[ci].env) {
            out.push(Metric {
                name: format!("{name}.trace.hook_p50_ns"),
                value: p50,
                unit: "ns",
                samples: n,
                rounds: 1,
                iqr: 0.0,
                beyond: None,
            });
        }
    }
    out
}

/// Share of effective transitions the drain coalesced away.
fn coalesce_ratio(c: &Counters) -> f64 {
    c.plane_coalesced as f64 / (c.plane_coalesced + c.plane_transitions).max(1) as f64
}

/// p50 and count of the busiest hook histogram, as `SACK/tracing/metrics_json`
/// reports it (SACK's own log2 histograms: the value is a bucket bound).
fn hook_p50(env: &Env) -> Option<(f64, u64)> {
    let text = env.admin_read(METRICS_JSON).ok()?;
    let doc = json::parse(std::str::from_utf8(&text).ok()?).ok()?;
    doc.get("histograms")?
        .as_array()
        .iter()
        .filter_map(|h| Some((h.get("p50")?.as_f64()?, h.get("count")?.as_f64()? as u64)))
        .max_by_key(|(_, n)| *n)
}
