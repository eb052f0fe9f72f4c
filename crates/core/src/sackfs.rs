//! SACKfs: the securityfs interface of the SACK module (paper C1).
//!
//! Nodes registered under `/sys/kernel/security/SACK/`:
//!
//! | node                   | access | purpose                                    |
//! |------------------------|--------|--------------------------------------------|
//! | `events`               | write  | situation-event delivery from the SDS      |
//! | `state`                | read   | current situation state (`name encoding`)  |
//! | `policy`               | rw     | policy dump / live policy replacement      |
//! | `stats`                | read   | module counters                            |
//! | `audit`                | read   | denial ring with overflow accounting       |
//! | `sds/ring`             | write  | batched frame submission (one write = one  |
//! |                        |        | coalesced drain)                           |
//! | `sds/stats`            | read   | event-plane counters                       |
//! | `tracing/enable`       | rw     | tracepoint master switch (`0`/`1`)         |
//! | `tracing/events`       | read   | per-tracepoint fired counts                |
//! | `tracing/flight`       | read   | flight-recorder dump (last N events)       |
//! | `tracing/metrics`      | read   | Prometheus text exposition                 |
//! | `tracing/metrics_json` | read   | the same metrics as one JSON object        |
//!
//! Writes to `events`, `policy` and `tracing/enable` require
//! `CAP_MAC_ADMIN`, matching the paper's threat model (attackers cannot
//! obtain MAC capabilities, so they cannot forge situation events even
//! after compromising an application).

use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

use sack_kernel::error::{Errno, KernelError, KernelResult};
use sack_kernel::kernel::Kernel;
use sack_kernel::lsm::HookCtx;
use sack_kernel::securityfs::{require_mac_admin, securityfs_path, SecurityFsFile};
use sack_kernel::trace::{TraceHook, TraceVerdict, Tracepoint};
use sack_kernel::types::Mode;

use crate::eventplane::EventFrame;
use crate::sack::{Sack, SackError};
use crate::stats::ShardedCounter;
use crate::trace::SackTracing;

/// securityfs directory name of the module.
pub const SACK_DIR: &str = "SACK";

fn upgrade<T>(weak: &Weak<T>) -> KernelResult<Arc<T>> {
    weak.upgrade()
        .ok_or_else(|| KernelError::with_context(Errno::EIO, "sackfs"))
}

struct EventsNode {
    sack: Weak<Sack>,
    kernel: Weak<Kernel>,
}

impl SecurityFsFile for EventsNode {
    fn write_content(&self, ctx: &HookCtx, data: &[u8]) -> KernelResult<usize> {
        require_mac_admin(ctx)?;
        let sack = upgrade(&self.sack)?;
        let now = upgrade(&self.kernel)
            .map(|k| k.clock().now())
            .unwrap_or(Duration::ZERO);
        let text = std::str::from_utf8(data)
            .map_err(|_| KernelError::with_context(Errno::EINVAL, "sackfs"))?;
        // A frame is a newline-terminated line. A write whose final frame
        // lacks the terminator is a partial frame — report it instead of
        // silently accepting a truncated event (both ingestion paths
        // validate frames identically).
        if !text.is_empty() && !text.ends_with('\n') {
            return Err(KernelError::with_context(Errno::EINVAL, "sackfs"));
        }
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            match sack.deliver_event(line, now) {
                Ok(_) => {}
                Err(SackError::UnknownEvent(_)) => {
                    return Err(KernelError::with_context(Errno::EINVAL, "sackfs"))
                }
                Err(_) => return Err(KernelError::with_context(Errno::EIO, "sackfs")),
            }
        }
        Ok(data.len())
    }

    fn mode(&self) -> Mode {
        // World-writable node; the CAP_MAC_ADMIN check in the handler is
        // the real gate (DAC would otherwise hide the capability check).
        Mode(0o666)
    }
}

struct StateNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for StateNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        let active = sack.active();
        let state = active.ssm.space().state(active.ssm.current());
        Ok(format!("{} {}\n", state.name, state.encoding).into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o444)
    }
}

struct PolicyNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for PolicyNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        let active = sack.active();
        let space = active.ssm.space();
        let mut out = String::new();
        out.push_str(&format!("mode {}\n", sack.mode()));
        out.push_str(&format!("current {}\n", active.ssm.current_name()));
        out.push_str("states");
        for s in space.states() {
            out.push_str(&format!(" {}={}", s.name, s.encoding));
        }
        out.push('\n');
        out.push_str("events");
        for e in space.events() {
            out.push_str(&format!(" {}", e.name));
        }
        out.push('\n');
        out.push_str(&format!(
            "permissions {}\nrules {}\n",
            active.policy.permissions().len(),
            active.policy.rule_count()
        ));
        Ok(out.into_bytes())
    }

    fn write_content(&self, ctx: &HookCtx, data: &[u8]) -> KernelResult<usize> {
        require_mac_admin(ctx)?;
        let sack = upgrade(&self.sack)?;
        let text = std::str::from_utf8(data)
            .map_err(|_| KernelError::with_context(Errno::EINVAL, "sackfs"))?;
        sack.reload_policy(text)
            .map_err(|_| KernelError::with_context(Errno::EINVAL, "sackfs"))?;
        Ok(data.len())
    }

    fn mode(&self) -> Mode {
        Mode(0o644)
    }
}

struct StatsNode {
    sack: Weak<Sack>,
}

/// The exported module counters, in node order, paired with their labels.
/// One table serves the `stats` node, the Prometheus exposition and the
/// JSON metrics, so the three can never drift apart.
fn stat_counters(s: &crate::sack::SackStats) -> [(&'static str, &ShardedCounter); 8] {
    [
        ("checks", &s.checks),
        ("denials", &s.denials),
        ("unprotected", &s.unprotected),
        ("overrides", &s.overrides),
        ("events_received", &s.events_received),
        ("events_unknown", &s.events_unknown),
        ("cache_hits", &s.cache_hits),
        ("cache_misses", &s.cache_misses),
    ]
}

impl SecurityFsFile for StatsNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        let active = sack.active();
        // One stripe-major fold over every counter instead of eight
        // independent per-counter folds.
        let table = stat_counters(sack.stats());
        let refs: Vec<&ShardedCounter> = table.iter().map(|(_, c)| *c).collect();
        let totals = ShardedCounter::snapshot_all(&refs, Ordering::Relaxed);
        let mut out = String::new();
        for ((name, _), total) in table.iter().zip(&totals) {
            // `transitions_taken` sorts between the event and cache
            // counters to keep the historical node layout stable.
            if *name == "cache_hits" {
                let _ = writeln!(out, "transitions_taken {}", active.ssm.taken_count());
            }
            let _ = writeln!(out, "{name} {total}");
        }
        let _ = writeln!(out, "policy_epoch {}", sack.policy_epoch());
        Ok(out.into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o444)
    }
}

struct AuditNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for AuditNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        Ok(sack.audit().render().into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o400)
    }
}

fn event_plane(sack: &Arc<Sack>) -> KernelResult<Arc<crate::eventplane::EventPlane>> {
    sack.event_plane()
        .cloned()
        .ok_or_else(|| KernelError::with_context(Errno::EIO, "sackfs"))
}

/// `sds/ring`: batched frame submission into the event plane. One write is
/// one batch: every line is validated and enqueued, then a single drain
/// coalesces the whole batch into at most one SSM transition + epoch bump.
/// The synchronous `events` node remains the per-frame slow/compat path.
struct SdsRingNode {
    sack: Weak<Sack>,
    kernel: Weak<Kernel>,
}

impl SecurityFsFile for SdsRingNode {
    fn write_content(&self, ctx: &HookCtx, data: &[u8]) -> KernelResult<usize> {
        require_mac_admin(ctx)?;
        let sack = upgrade(&self.sack)?;
        let plane = event_plane(&sack)?;
        let now = upgrade(&self.kernel)
            .map(|k| k.clock().now())
            .unwrap_or(Duration::ZERO);
        let text = std::str::from_utf8(data)
            .map_err(|_| KernelError::with_context(Errno::EINVAL, "sackfs"))?;
        // Same frame validation as the sync path: newline-terminated lines
        // only, and every name must be a known event. The whole batch is
        // validated and resolved before anything enters the ring, so a bad
        // frame rejects the write without side effects — and each accepted
        // frame carries its resolved event id as a generation-tagged hint,
        // so the drain never resolves the same name twice (a reload
        // between submit and drain invalidates the tag and the drain falls
        // back to the name).
        if !text.is_empty() && !text.ends_with('\n') {
            return Err(KernelError::with_context(Errno::EINVAL, "sackfs"));
        }
        let active = sack.active();
        let space = active.ssm.space();
        let gen = active.load_generation;
        let t_ns = now.as_nanos() as u64;
        let mut frames: Vec<EventFrame> =
            Vec::with_capacity(text.bytes().filter(|b| *b == b'\n').count());
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let Some(id) = space.event_id(line) else {
                return Err(KernelError::with_context(Errno::EINVAL, "sackfs"));
            };
            let mut frame = EventFrame::new(line, 0, t_ns)
                .map_err(|_| KernelError::with_context(Errno::EINVAL, "sackfs"))?;
            frame.set_hint(id, gen);
            frames.push(frame);
        }
        plane.submit_batch(&frames);
        plane
            .drain_all()
            .map_err(|_| KernelError::with_context(Errno::EIO, "sackfs"))?;
        Ok(data.len())
    }

    fn mode(&self) -> Mode {
        // Like `events`: world-writable at the DAC layer, the
        // CAP_MAC_ADMIN check in the handler is the real gate.
        Mode(0o666)
    }
}

/// `sds/stats`: the event-plane counters in `name value` lines.
struct SdsStatsNode {
    sack: Weak<Sack>,
}

/// The exported event-plane counters, in node order. One table serves the
/// `sds/stats` node, the Prometheus exposition and the JSON metrics.
fn sds_counters(plane: &crate::eventplane::EventPlane) -> [(&'static str, u64); 7] {
    [
        ("submitted", plane.submitted()),
        ("drained", plane.drained_frames()),
        ("drain_batches", plane.drain_batches()),
        ("transitions", plane.transitions_published()),
        ("coalesced", plane.frames_coalesced()),
        ("dropped", plane.dropped()),
        ("backpressure_waits", plane.backpressure_waits()),
    ]
}

impl SecurityFsFile for SdsStatsNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        let plane = event_plane(&sack)?;
        let mut out = String::new();
        let _ = writeln!(out, "policy {}", plane.policy().name());
        let _ = writeln!(out, "capacity {}", plane.capacity());
        let _ = writeln!(out, "depth {}", plane.depth());
        for (name, value) in sds_counters(&plane) {
            let _ = writeln!(out, "{name} {value}");
        }
        Ok(out.into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o444)
    }
}

fn tracing(sack: &Arc<Sack>) -> KernelResult<Arc<SackTracing>> {
    sack.tracing()
        .cloned()
        .ok_or_else(|| KernelError::with_context(Errno::EIO, "sackfs"))
}

/// `tracing/enable`: the tracepoint master switch, mirroring tracefs'
/// `tracing_on`. Reads return `0`/`1`; writes of `0`/`1` (MAC-admin-gated)
/// flip every tracepoint at once through the hub's single atomic.
struct TracingEnableNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for TracingEnableNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        let tracing = tracing(&sack)?;
        Ok(if tracing.hub().enabled() {
            b"1\n"
        } else {
            b"0\n"
        }
        .to_vec())
    }

    fn write_content(&self, ctx: &HookCtx, data: &[u8]) -> KernelResult<usize> {
        require_mac_admin(ctx)?;
        let sack = upgrade(&self.sack)?;
        let tracing = tracing(&sack)?;
        let text = std::str::from_utf8(data)
            .map_err(|_| KernelError::with_context(Errno::EINVAL, "sackfs"))?;
        match text.trim() {
            "0" => tracing.hub().set_enabled(false),
            "1" => tracing.hub().set_enabled(true),
            _ => return Err(KernelError::with_context(Errno::EINVAL, "sackfs")),
        }
        Ok(data.len())
    }

    fn mode(&self) -> Mode {
        // Like `events`: world-writable at the DAC layer, the
        // CAP_MAC_ADMIN check in the handler is the real gate.
        Mode(0o666)
    }
}

/// `tracing/events`: per-tracepoint fired counts.
struct TracingEventsNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for TracingEventsNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        Ok(tracing(&sack)?.render_events().into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o444)
    }
}

/// `tracing/flight`: the flight-recorder dump. Root-only like `audit`: the
/// ring replays denials with the situation history that led to them.
struct TracingFlightNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for TracingFlightNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        Ok(tracing(&sack)?.flight().render().into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o400)
    }
}

/// Renders every exported metric in the Prometheus text exposition format
/// (the `tracing/metrics` node).
fn render_prometheus(sack: &Arc<Sack>, tracing: &SackTracing) -> String {
    let mut out = String::new();
    let enabled = u64::from(tracing.hub().enabled());
    let _ = writeln!(
        out,
        "# HELP sack_trace_enabled Tracepoint master switch state."
    );
    let _ = writeln!(out, "# TYPE sack_trace_enabled gauge");
    let _ = writeln!(out, "sack_trace_enabled {enabled}");
    let _ = writeln!(
        out,
        "# HELP sack_tracepoint_fired_total Events emitted per tracepoint."
    );
    let _ = writeln!(out, "# TYPE sack_tracepoint_fired_total counter");
    for point in Tracepoint::ALL {
        let _ = writeln!(
            out,
            "sack_tracepoint_fired_total{{point=\"{}\"}} {}",
            point.name(),
            tracing.hub().fired(point)
        );
    }
    let _ = writeln!(out, "# HELP sack_stat_total SACK module counters.");
    let _ = writeln!(out, "# TYPE sack_stat_total counter");
    let table = stat_counters(sack.stats());
    let refs: Vec<&ShardedCounter> = table.iter().map(|(_, c)| *c).collect();
    let totals = ShardedCounter::snapshot_all(&refs, Ordering::Relaxed);
    for ((name, _), total) in table.iter().zip(&totals) {
        let _ = writeln!(out, "sack_stat_total{{counter=\"{name}\"}} {total}");
    }
    let _ = writeln!(out, "# HELP sack_policy_epoch Current policy epoch.");
    let _ = writeln!(out, "# TYPE sack_policy_epoch gauge");
    let _ = writeln!(out, "sack_policy_epoch {}", sack.policy_epoch());
    let _ = writeln!(
        out,
        "# HELP sack_audit_lost_total Audit records evicted unread."
    );
    let _ = writeln!(out, "# TYPE sack_audit_lost_total counter");
    let _ = writeln!(out, "sack_audit_lost_total {}", sack.audit().lost_records());
    let _ = writeln!(
        out,
        "# HELP sack_flight_dropped_total Flight records overwritten unread."
    );
    let _ = writeln!(out, "# TYPE sack_flight_dropped_total counter");
    let _ = writeln!(
        out,
        "sack_flight_dropped_total {}",
        tracing.flight().dropped()
    );
    if let Some(plane) = sack.event_plane() {
        let _ = writeln!(
            out,
            "# HELP sack_sds_depth Event-plane ring occupancy, frames."
        );
        let _ = writeln!(out, "# TYPE sack_sds_depth gauge");
        let _ = writeln!(out, "sack_sds_depth {}", plane.depth());
        let _ = writeln!(out, "# HELP sack_sds_total Event-plane counters.");
        let _ = writeln!(out, "# TYPE sack_sds_total counter");
        for (name, value) in sds_counters(plane) {
            let _ = writeln!(out, "sack_sds_total{{counter=\"{name}\"}} {value}");
        }
    }
    let hists = tracing.histogram_snapshots();
    let labels = |hook: TraceHook, verdict: TraceVerdict| {
        format!("hook=\"{}\",verdict=\"{}\"", hook.name(), verdict.name())
    };
    let _ = writeln!(
        out,
        "# HELP sack_hook_dispatches_total Hook dispatches, exact; the latency histogram samples them."
    );
    let _ = writeln!(out, "# TYPE sack_hook_dispatches_total counter");
    for (hook, verdict, snap) in &hists {
        let _ = writeln!(
            out,
            "sack_hook_dispatches_total{{{}}} {}",
            labels(*hook, *verdict),
            snap.dispatches
        );
    }
    let _ = writeln!(
        out,
        "# HELP sack_hook_latency_ns Sampled hook dispatch latency, nanoseconds."
    );
    let _ = writeln!(out, "# TYPE sack_hook_latency_ns histogram");
    for (hook, verdict, snap) in &hists {
        let labels = labels(*hook, *verdict);
        let mut cumulative = 0u64;
        for (i, n) in snap.buckets.iter().enumerate() {
            cumulative += n;
            // One cumulative line per log2 boundary the data reaches keeps
            // the exposition compact without losing any occupied bucket.
            if *n > 0 {
                let _ = writeln!(
                    out,
                    "sack_hook_latency_ns_bucket{{{labels},le=\"{}\"}} {cumulative}",
                    crate::stats::bucket_upper_bound(i)
                );
            }
        }
        let _ = writeln!(
            out,
            "sack_hook_latency_ns_bucket{{{labels},le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(out, "sack_hook_latency_ns_sum{{{labels}}} {}", snap.sum);
        let _ = writeln!(out, "sack_hook_latency_ns_count{{{labels}}} {cumulative}");
    }
    out
}

/// Renders the same metrics as one JSON object (the `tracing/metrics_json`
/// node). Hand-rolled: every key and label is a fixed identifier, so no
/// escaping is needed.
fn render_metrics_json(sack: &Arc<Sack>, tracing: &SackTracing) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"enabled\":{},",
        if tracing.hub().enabled() {
            "true"
        } else {
            "false"
        }
    );
    out.push_str("\"tracepoints\":{");
    for (i, point) in Tracepoint::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", point.name(), tracing.hub().fired(*point));
    }
    out.push_str("},\"stats\":{");
    let table = stat_counters(sack.stats());
    let refs: Vec<&ShardedCounter> = table.iter().map(|(_, c)| *c).collect();
    let totals = ShardedCounter::snapshot_all(&refs, Ordering::Relaxed);
    for (i, ((name, _), total)) in table.iter().zip(&totals).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{total}");
    }
    let _ = write!(out, "}},\"policy_epoch\":{},", sack.policy_epoch());
    let _ = write!(
        out,
        "\"audit\":{{\"total\":{},\"lost\":{}}},",
        sack.audit().total(),
        sack.audit().lost_records()
    );
    let flight = tracing.flight();
    let _ = write!(
        out,
        "\"flight\":{{\"capacity\":{},\"total\":{},\"dropped\":{},",
        flight.capacity(),
        flight.total(),
        flight.dropped()
    );
    out.push_str("\"dropped_by_producer\":{");
    for (i, (producer, dropped)) in flight.dropped_by_producer().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{producer}\":{dropped}");
    }
    out.push_str("}},");
    if let Some(plane) = sack.event_plane() {
        let _ = write!(
            out,
            "\"sds\":{{\"policy\":\"{}\",\"capacity\":{},\"depth\":{}",
            plane.policy().name(),
            plane.capacity(),
            plane.depth()
        );
        for (name, value) in sds_counters(plane) {
            let _ = write!(out, ",\"{name}\":{value}");
        }
        out.push_str("},");
    }
    out.push_str("\"histograms\":[");
    for (i, (hook, verdict, snap)) in tracing.histogram_snapshots().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"hook\":\"{}\",\"verdict\":\"{}\",\"dispatches\":{},\
             \"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            hook.name(),
            verdict.name(),
            snap.dispatches,
            snap.count(),
            snap.sum,
            snap.percentile(0.50),
            snap.percentile(0.95),
            snap.percentile(0.99)
        );
    }
    out.push_str("]}");
    out
}

/// `tracing/metrics`: Prometheus text exposition of every SACK metric.
struct MetricsNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for MetricsNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        let tracing = tracing(&sack)?;
        Ok(render_prometheus(&sack, &tracing).into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o444)
    }
}

/// `tracing/metrics_json`: the same metrics as one JSON object.
struct MetricsJsonNode {
    sack: Weak<Sack>,
}

impl SecurityFsFile for MetricsJsonNode {
    fn read_content(&self, _ctx: &HookCtx) -> KernelResult<Vec<u8>> {
        let sack = upgrade(&self.sack)?;
        let tracing = tracing(&sack)?;
        Ok(render_metrics_json(&sack, &tracing).into_bytes())
    }

    fn mode(&self) -> Mode {
        Mode(0o444)
    }
}

/// Registers the SACKfs nodes for `sack` on `kernel`.
///
/// # Errors
///
/// securityfs registration errors (e.g. already attached).
pub fn register(sack: &Arc<Sack>, kernel: &Arc<Kernel>) -> KernelResult<()> {
    let events = securityfs_path(SACK_DIR, "events")?;
    kernel.register_securityfs(
        &events,
        Arc::new(EventsNode {
            sack: Arc::downgrade(sack),
            kernel: Arc::downgrade(kernel),
        }),
    )?;
    let state = securityfs_path(SACK_DIR, "state")?;
    kernel.register_securityfs(
        &state,
        Arc::new(StateNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    let policy = securityfs_path(SACK_DIR, "policy")?;
    kernel.register_securityfs(
        &policy,
        Arc::new(PolicyNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    let stats = securityfs_path(SACK_DIR, "stats")?;
    kernel.register_securityfs(
        &stats,
        Arc::new(StatsNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    let audit = securityfs_path(SACK_DIR, "audit")?;
    kernel.register_securityfs(
        &audit,
        Arc::new(AuditNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    // The sds subtree: the batched event plane's submission + stats nodes.
    let sds_dir = securityfs_path(SACK_DIR, "sds")?;
    kernel.register_securityfs(
        &sds_dir.join("ring")?,
        Arc::new(SdsRingNode {
            sack: Arc::downgrade(sack),
            kernel: Arc::downgrade(kernel),
        }),
    )?;
    kernel.register_securityfs(
        &sds_dir.join("stats")?,
        Arc::new(SdsStatsNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    // The tracing subtree. `securityfs_path` builds single components only
    // (KPath::join rejects '/'), so the nested paths chain a second join;
    // the VFS auto-creates the `tracing` directory on first registration.
    let tracing_dir = securityfs_path(SACK_DIR, "tracing")?;
    kernel.register_securityfs(
        &tracing_dir.join("enable")?,
        Arc::new(TracingEnableNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    kernel.register_securityfs(
        &tracing_dir.join("events")?,
        Arc::new(TracingEventsNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    kernel.register_securityfs(
        &tracing_dir.join("flight")?,
        Arc::new(TracingFlightNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    kernel.register_securityfs(
        &tracing_dir.join("metrics")?,
        Arc::new(MetricsNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    kernel.register_securityfs(
        &tracing_dir.join("metrics_json")?,
        Arc::new(MetricsJsonNode {
            sack: Arc::downgrade(sack),
        }),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sack_kernel::cred::{Capability, Credentials};
    use sack_kernel::file::OpenFlags;
    use sack_kernel::kernel::KernelBuilder;
    use sack_kernel::lsm::SecurityModule;

    const POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { P; }
        state_per { emergency: P; }
        per_rules { P: allow subject=* /dev/car/** wi; }
    "#;

    fn boot() -> (Arc<Kernel>, Arc<Sack>) {
        let sack = Sack::independent(POLICY).unwrap();
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .boot();
        sack.attach(&kernel).unwrap();
        (kernel, sack)
    }

    #[test]
    fn event_write_transitions_state() {
        let (kernel, sack) = boot();
        let sds = kernel.spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
        let fd = sds
            .open("/sys/kernel/security/SACK/events", OpenFlags::write_only())
            .unwrap();
        sds.write(fd, b"crash\n").unwrap();
        assert_eq!(sack.current_state_name(), "emergency");
        sds.write(fd, b"rescue_done\n").unwrap();
        assert_eq!(sack.current_state_name(), "normal");
        sds.close(fd).unwrap();
    }

    #[test]
    fn event_write_without_mac_admin_is_eperm() {
        let (kernel, sack) = boot();
        let attacker = kernel.spawn(Credentials::user(1000, 1000));
        let fd = attacker
            .open("/sys/kernel/security/SACK/events", OpenFlags::write_only())
            .unwrap();
        let err = attacker.write(fd, b"crash\n").unwrap_err();
        assert_eq!(err.errno(), Errno::EPERM);
        assert_eq!(sack.current_state_name(), "normal", "state unchanged");
    }

    #[test]
    fn unknown_event_is_einval() {
        let (kernel, _sack) = boot();
        let sds = kernel.spawn(Credentials::root());
        let fd = sds
            .open("/sys/kernel/security/SACK/events", OpenFlags::write_only())
            .unwrap();
        let err = sds.write(fd, b"meteor\n").unwrap_err();
        assert_eq!(err.errno(), Errno::EINVAL);
    }

    #[test]
    fn state_node_reflects_current_state() {
        let (kernel, sack) = boot();
        let p = kernel.spawn(Credentials::root());
        let content = p.read_to_vec("/sys/kernel/security/SACK/state").unwrap();
        assert_eq!(content, b"normal 0\n");
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        let content = p.read_to_vec("/sys/kernel/security/SACK/state").unwrap();
        assert_eq!(content, b"emergency 1\n");
    }

    #[test]
    fn policy_node_dump_and_reload() {
        let (kernel, sack) = boot();
        let admin = kernel.spawn(Credentials::root());
        let dump = admin
            .read_to_vec("/sys/kernel/security/SACK/policy")
            .unwrap();
        let text = String::from_utf8(dump).unwrap();
        assert!(text.contains("mode independent"));
        assert!(text.contains("current normal"));
        assert!(text.contains("states normal=0 emergency=1"));

        let fd = admin
            .open("/sys/kernel/security/SACK/policy", OpenFlags::write_only())
            .unwrap();
        let new_policy = b"states { solo = 0; } initial solo;\n\
                           permissions { P; } state_per { solo: P; }\n\
                           per_rules { P: allow subject=* /x r; }";
        admin.write(fd, new_policy).unwrap();
        assert_eq!(sack.current_state_name(), "solo");
        // Bad policy is rejected with EINVAL and leaves the current one.
        let err = admin.write(fd, b"garbage {{{").unwrap_err();
        assert_eq!(err.errno(), Errno::EINVAL);
        assert_eq!(sack.current_state_name(), "solo");
    }

    #[test]
    fn stats_node_reports_counters() {
        let (kernel, sack) = boot();
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        let p = kernel.spawn(Credentials::root());
        let text =
            String::from_utf8(p.read_to_vec("/sys/kernel/security/SACK/stats").unwrap()).unwrap();
        assert!(text.contains("events_received 1"));
        assert!(text.contains("transitions_taken 1"));
    }

    #[test]
    fn stats_node_folds_sharded_counters_across_threads() {
        let (kernel, sack) = boot();
        // Bump a striped counter from many threads; the stats node must
        // report the folded total, not a single stripe.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let sack = Arc::clone(&sack);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        sack.stats().checks.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = kernel.spawn(Credentials::root());
        let text =
            String::from_utf8(p.read_to_vec("/sys/kernel/security/SACK/stats").unwrap()).unwrap();
        assert!(
            text.contains("checks 8000"),
            "stats node must fold all stripes: {text}"
        );
    }

    #[test]
    fn audit_node_reports_denials() {
        let (kernel, sack) = boot();
        sack.deliver_event("rescue_done", Duration::ZERO).ok();
        // Set up a protected file and provoke a denial.
        kernel
            .vfs()
            .mkdir_all(&sack_kernel::KPath::new("/dev/car").unwrap())
            .unwrap();
        kernel
            .vfs()
            .create_file(
                &sack_kernel::KPath::new("/dev/car/door0").unwrap(),
                sack_kernel::Mode(0o666),
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
        let app = kernel.spawn(Credentials::user(1000, 1000));
        assert!(app.open("/dev/car/door0", OpenFlags::write_only()).is_err());
        // The audit node is 0400 root-owned; only the admin can read it.
        let admin = kernel.spawn(Credentials::root());
        let text = String::from_utf8(
            admin
                .read_to_vec("/sys/kernel/security/SACK/audit")
                .unwrap(),
        )
        .unwrap();
        assert!(text.contains("DENIED"), "{text}");
        assert!(text.contains("/dev/car/door0"));
        assert!(text.contains("state=normal"));
        assert_eq!(sack.audit().total(), 1);
    }

    #[test]
    fn double_attach_is_rejected() {
        let (kernel, sack) = boot();
        assert!(sack.attach(&kernel).is_err());
    }

    fn make_door(kernel: &Arc<Kernel>) {
        kernel
            .vfs()
            .mkdir_all(&sack_kernel::KPath::new("/dev/car").unwrap())
            .unwrap();
        kernel
            .vfs()
            .create_file(
                &sack_kernel::KPath::new("/dev/car/door0").unwrap(),
                sack_kernel::Mode(0o666),
                sack_kernel::Uid::ROOT,
                sack_kernel::Gid(0),
            )
            .unwrap();
    }

    fn read_node(kernel: &Arc<Kernel>, node: &str) -> String {
        let admin = kernel.spawn(Credentials::root());
        String::from_utf8(
            admin
                .read_to_vec(&format!("/sys/kernel/security/SACK/{node}"))
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn tracing_enable_node_toggles_the_hub() {
        let (kernel, sack) = boot();
        assert_eq!(read_node(&kernel, "tracing/enable"), "0\n");
        let admin = kernel.spawn(Credentials::root());
        let fd = admin
            .open(
                "/sys/kernel/security/SACK/tracing/enable",
                OpenFlags::write_only(),
            )
            .unwrap();
        admin.write(fd, b"1\n").unwrap();
        assert!(sack.tracing().unwrap().hub().enabled());
        assert_eq!(read_node(&kernel, "tracing/enable"), "1\n");
        let err = admin.write(fd, b"2\n").unwrap_err();
        assert_eq!(err.errno(), Errno::EINVAL);
        admin.write(fd, b"0").unwrap();
        assert!(!sack.tracing().unwrap().hub().enabled());
    }

    #[test]
    fn tracing_enable_write_requires_mac_admin() {
        let (kernel, sack) = boot();
        let attacker = kernel.spawn(Credentials::user(1000, 1000));
        let fd = attacker
            .open(
                "/sys/kernel/security/SACK/tracing/enable",
                OpenFlags::write_only(),
            )
            .unwrap();
        let err = attacker.write(fd, b"1").unwrap_err();
        assert_eq!(err.errno(), Errno::EPERM);
        assert!(!sack.tracing().unwrap().hub().enabled(), "switch unchanged");

        let sds = kernel.spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
        let fd = sds
            .open(
                "/sys/kernel/security/SACK/tracing/enable",
                OpenFlags::write_only(),
            )
            .unwrap();
        sds.write(fd, b"1").unwrap();
        assert!(sack.tracing().unwrap().hub().enabled());
    }

    #[test]
    fn tracing_events_node_counts_fired_tracepoints() {
        let (kernel, sack) = boot();
        sack.tracing().unwrap().hub().set_enabled(true);
        let p = kernel.spawn(Credentials::user(100, 100));
        let _ = p.open("/dev/null", OpenFlags::read_only());
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        let text = read_node(&kernel, "tracing/events");
        assert!(text.starts_with("# tracepoints enabled=1\n"), "{text}");
        let count = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(count("hook_exit") > 0);
        assert_eq!(count("ssm_transition"), 1);
        assert_eq!(count("rcu_epoch_bump"), 1);
        // Every traced dispatch lands in exactly one (hook, verdict) key.
        let tracing = sack.tracing().unwrap();
        let dispatches: u64 = tracing
            .histogram_snapshots()
            .iter()
            .map(|(_, _, snap)| snap.dispatches)
            .sum();
        assert_eq!(dispatches, tracing.hub().fired(Tracepoint::HookExit));
    }

    #[test]
    fn flight_node_replays_denial_with_preceding_transition() {
        let (kernel, sack) = boot();
        make_door(&kernel);
        sack.tracing().unwrap().hub().set_enabled(true);
        // Crash, recover, then provoke a denial in the normal state: the
        // flight dump must show the full situation history before it.
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        sack.deliver_event("rescue_done", Duration::ZERO).unwrap();
        let app = kernel.spawn(Credentials::user(1000, 1000));
        assert!(app.open("/dev/car/door0", OpenFlags::write_only()).is_err());
        let text = read_node(&kernel, "tracing/flight");
        assert!(text.starts_with("# flight capacity="), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        let transition = lines
            .iter()
            .position(|l| l.contains("ssm_transition from=emergency to=normal event=rescue_done"))
            .unwrap_or_else(|| panic!("no transition in flight: {text}"));
        let denial = lines
            .iter()
            .position(|l| l.contains("hook_exit hook=file_open verdict=deny"))
            .unwrap_or_else(|| panic!("no denial in flight: {text}"));
        let audit = lines
            .iter()
            .position(|l| l.contains("audit_emit seq=0"))
            .unwrap_or_else(|| panic!("no audit_emit in flight: {text}"));
        assert!(
            transition < denial,
            "transition must precede the denial it explains"
        );
        assert!(audit < denial, "audit record lands before the hook exit");
    }

    /// A minimal Prometheus text-format check: every non-empty line is a
    /// `# HELP`/`# TYPE` comment or `name{labels} value` with a parseable
    /// numeric value, and every sample's metric family was declared by a
    /// preceding `# TYPE`.
    fn assert_valid_prometheus(text: &str) {
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                typed.push(parts.next().unwrap().to_string());
                let kind = parts.next().unwrap();
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad type: {line}"
                );
                continue;
            }
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP "), "bad comment: {line}");
                continue;
            }
            let (name_labels, value) = line.rsplit_once(' ').unwrap();
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in: {line}"));
            let name = name_labels.split('{').next().unwrap();
            if let Some(rest) = name_labels.strip_prefix(&format!("{name}{{")) {
                let labels = rest.strip_suffix('}').unwrap_or_else(|| {
                    panic!("unterminated labels in: {line}");
                });
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').unwrap();
                    assert!(!k.is_empty(), "{line}");
                    assert!(v.starts_with('"') && v.ends_with('"'), "{line}");
                }
            }
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|f| typed.contains(&(*f).to_string()))
                .unwrap_or(name);
            assert!(
                typed.contains(&family.to_string()),
                "sample without # TYPE: {line}"
            );
        }
    }

    #[test]
    fn metrics_node_is_valid_prometheus() {
        let (kernel, sack) = boot();
        make_door(&kernel);
        sack.tracing().unwrap().hub().set_enabled(true);
        let app = kernel.spawn(Credentials::user(1000, 1000));
        assert!(app.open("/dev/car/door0", OpenFlags::write_only()).is_err());
        sack.deliver_event("crash", Duration::ZERO).unwrap();
        let text = read_node(&kernel, "tracing/metrics");
        assert_valid_prometheus(&text);
        assert!(text.contains("sack_trace_enabled 1"), "{text}");
        assert!(
            text.contains("sack_tracepoint_fired_total{point=\"ssm_transition\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hook=\"file_open\",verdict=\"deny\""),
            "denied dispatch must surface a histogram series: {text}"
        );
        // Histogram invariant: the +Inf bucket equals the series count.
        for line in text.lines().filter(|l| l.contains("le=\"+Inf\"")) {
            let labels = line
                .split_once('{')
                .unwrap()
                .1
                .split(",le=")
                .next()
                .unwrap()
                .to_string();
            let inf: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            let count_line = text
                .lines()
                .find(|l| l.starts_with(&format!("sack_hook_latency_ns_count{{{labels}}}")))
                .unwrap();
            let count: u64 = count_line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert_eq!(inf, count, "{line}");
        }
    }

    #[test]
    fn metrics_count_every_dispatch_and_sample_latency() {
        let (kernel, sack) = boot();
        make_door(&kernel);
        let tracing = Arc::clone(sack.tracing().unwrap());
        tracing.hub().set_enabled(true);
        let app = kernel.spawn(Credentials::user(1000, 1000));
        for _ in 0..200 {
            assert!(app.open("/dev/car/door0", OpenFlags::write_only()).is_err());
        }
        // Rendered directly: reading the node would dispatch more hooks.
        let text = render_prometheus(&sack, &tracing);
        assert_valid_prometheus(&text);
        let value = |series: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("no `{series}` in: {text}"))
                .parse()
                .unwrap()
        };
        let mut total = 0;
        for (hook, verdict, snap) in tracing.histogram_snapshots() {
            let labels = format!("hook=\"{}\",verdict=\"{}\"", hook.name(), verdict.name());
            let dispatches = value(&format!("sack_hook_dispatches_total{{{labels}}}"));
            let count = value(&format!("sack_hook_latency_ns_count{{{labels}}}"));
            let inf = value(&format!(
                "sack_hook_latency_ns_bucket{{{labels},le=\"+Inf\"}}"
            ));
            assert_eq!(dispatches, snap.dispatches, "{labels}");
            assert_eq!(inf, count, "{labels}");
            assert_eq!(count, snap.count(), "{labels}");
            assert!(count <= dispatches, "{labels}");
            total += dispatches;
        }
        assert_eq!(
            total,
            value("sack_tracepoint_fired_total{point=\"hook_exit\"}")
        );
        let denied = tracing.histogram(TraceHook::FileOpen, TraceVerdict::Deny);
        assert_eq!(denied.dispatches, 200);
        assert!(
            (1..200).contains(&denied.count()),
            "latency is sampled: {} of 200 timed",
            denied.count()
        );
    }

    #[test]
    fn metrics_json_node_is_well_formed() {
        let (kernel, sack) = boot();
        make_door(&kernel);
        sack.tracing().unwrap().hub().set_enabled(true);
        let app = kernel.spawn(Credentials::user(1000, 1000));
        assert!(app.open("/dev/car/door0", OpenFlags::write_only()).is_err());
        let text = read_node(&kernel, "tracing/metrics_json");
        assert!(text.starts_with('{') && text.ends_with('}'), "{text}");
        // Balanced braces/brackets and no trailing commas — enough to catch
        // hand-rolled-JSON slips without a JSON dependency.
        let mut depth = 0i32;
        let mut prev = ' ';
        for c in text.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    assert_ne!(prev, ',', "trailing comma before {c}");
                    depth -= 1;
                }
                _ => {}
            }
            if !c.is_whitespace() {
                prev = c;
            }
        }
        assert_eq!(depth, 0, "unbalanced braces: {text}");
        assert!(text.contains("\"enabled\":true"));
        assert!(text.contains("\"tracepoints\":{\"hook_exit\":"));
        assert!(
            text.contains("\"verdict\":\"deny\",\"dispatches\":1,"),
            "{text}"
        );
        assert!(text.contains("\"p95\":"), "{text}");
        assert!(text.contains("\"dropped_by_producer\":{"), "{text}");
    }

    #[test]
    fn multiple_events_in_one_write() {
        let (kernel, sack) = boot();
        let sds = kernel.spawn(Credentials::root());
        let fd = sds
            .open("/sys/kernel/security/SACK/events", OpenFlags::write_only())
            .unwrap();
        sds.write(fd, b"crash\nrescue_done\ncrash\n").unwrap();
        assert_eq!(sack.current_state_name(), "emergency");
        let active = sack.active();
        assert_eq!(active.ssm.taken_count(), 3);
    }

    #[test]
    fn partial_frame_write_is_einval() {
        let (kernel, sack) = boot();
        let sds = kernel.spawn(Credentials::root());
        let fd = sds
            .open("/sys/kernel/security/SACK/events", OpenFlags::write_only())
            .unwrap();
        // No trailing newline: a truncated frame must be rejected, not
        // silently treated as complete.
        let err = sds.write(fd, b"crash").unwrap_err();
        assert_eq!(err.errno(), Errno::EINVAL);
        assert_eq!(sack.current_state_name(), "normal", "state unchanged");
        assert_eq!(
            sack.stats().events_received.load(Ordering::Relaxed),
            0,
            "partial frame never reaches the SSM"
        );
        // The batched path applies the same rule.
        let fd = sds
            .open(
                "/sys/kernel/security/SACK/sds/ring",
                OpenFlags::write_only(),
            )
            .unwrap();
        let err = sds.write(fd, b"crash\nrescue_done").unwrap_err();
        assert_eq!(err.errno(), Errno::EINVAL);
        assert_eq!(sack.current_state_name(), "normal");
        assert_eq!(sack.event_plane().unwrap().submitted(), 0);
    }

    #[test]
    fn ring_write_coalesces_to_one_transition() {
        let (kernel, sack) = boot();
        let sds = kernel.spawn(Credentials::user(500, 500).with_capability(Capability::MacAdmin));
        let fd = sds
            .open(
                "/sys/kernel/security/SACK/sds/ring",
                OpenFlags::write_only(),
            )
            .unwrap();
        let epoch_before = sack.policy_epoch();
        // The same batch `multiple_events_in_one_write` pushes through the
        // sync path (3 transitions there) publishes exactly once here.
        sds.write(fd, b"crash\nrescue_done\ncrash\n").unwrap();
        assert_eq!(sack.current_state_name(), "emergency");
        assert_eq!(sack.active().ssm.taken_count(), 1);
        assert_eq!(sack.policy_epoch(), epoch_before + 1, "one bump per write");
        let plane = sack.event_plane().unwrap();
        assert_eq!(plane.submitted(), 3);
        assert_eq!(plane.drained_frames(), 3);
        assert_eq!(plane.frames_coalesced(), 2);
    }

    #[test]
    fn ring_write_unknown_event_is_einval_without_side_effects() {
        let (kernel, sack) = boot();
        let sds = kernel.spawn(Credentials::root());
        let fd = sds
            .open(
                "/sys/kernel/security/SACK/sds/ring",
                OpenFlags::write_only(),
            )
            .unwrap();
        // A bad frame anywhere in the batch rejects the whole write before
        // any frame enters the ring.
        let err = sds.write(fd, b"crash\nmeteor\n").unwrap_err();
        assert_eq!(err.errno(), Errno::EINVAL);
        assert_eq!(sack.current_state_name(), "normal");
        assert_eq!(sack.event_plane().unwrap().submitted(), 0);
    }

    #[test]
    fn ring_write_without_mac_admin_is_eperm() {
        let (kernel, sack) = boot();
        let attacker = kernel.spawn(Credentials::user(1000, 1000));
        let fd = attacker
            .open(
                "/sys/kernel/security/SACK/sds/ring",
                OpenFlags::write_only(),
            )
            .unwrap();
        let err = attacker.write(fd, b"crash\n").unwrap_err();
        assert_eq!(err.errno(), Errno::EPERM);
        assert_eq!(sack.current_state_name(), "normal", "state unchanged");
    }

    #[test]
    fn sds_stats_node_reports_plane_counters() {
        let (kernel, sack) = boot();
        let sds = kernel.spawn(Credentials::root());
        let fd = sds
            .open(
                "/sys/kernel/security/SACK/sds/ring",
                OpenFlags::write_only(),
            )
            .unwrap();
        sds.write(fd, b"crash\nrescue_done\n").unwrap();
        let text = read_node(&kernel, "sds/stats");
        assert!(text.contains("policy drop-oldest"), "{text}");
        assert!(text.contains("capacity 1024"), "{text}");
        assert!(text.contains("depth 0"), "{text}");
        assert!(text.contains("submitted 2"), "{text}");
        assert!(text.contains("drained 2"), "{text}");
        assert!(text.contains("drain_batches 1"), "{text}");
        assert!(text.contains("coalesced 1"), "{text}");
        assert!(text.contains("dropped 0"), "{text}");
        drop(sack);
    }

    #[test]
    fn metrics_expose_sds_counters() {
        let (kernel, sack) = boot();
        let sds = kernel.spawn(Credentials::root());
        let fd = sds
            .open(
                "/sys/kernel/security/SACK/sds/ring",
                OpenFlags::write_only(),
            )
            .unwrap();
        sds.write(fd, b"crash\n").unwrap();
        let text = read_node(&kernel, "tracing/metrics");
        assert_valid_prometheus(&text);
        assert!(
            text.contains("sack_sds_total{counter=\"submitted\"} 1"),
            "{text}"
        );
        assert!(text.contains("sack_sds_depth 0"), "{text}");
        assert!(
            text.contains("sack_tracepoint_fired_total{point=\"sds_drain\"}"),
            "{text}"
        );
        let json = read_node(&kernel, "tracing/metrics_json");
        assert!(
            json.contains("\"sds\":{\"policy\":\"drop-oldest\""),
            "{json}"
        );
        assert!(json.contains("\"submitted\":1"), "{json}");
        drop(sack);
    }
}
