//! `sack-analyze trace` — offline reader for sack-trace flight dumps.
//!
//! The securityfs node `/sys/kernel/security/SACK/tracing/flight` renders
//! the flight recorder as plain text:
//!
//! ```text
//! # flight capacity=256 total=9 dropped=0
//! seq=3 producer=0 pseq=2 ssm_transition from=normal to=emergency event=crash
//! seq=4 producer=0 pseq=3 rcu_epoch_bump epoch=1
//! seq=8 producer=1 pseq=0 hook_exit hook=file_open verdict=deny ns=412
//! seq=9 producer=1 pseq=1 hook_exit hook=file_open verdict=deny
//! ```
//!
//! A `hook_exit` carries `ns=` only when its dispatch was one of the
//! sampled, timed ones.
//!
//! This module parses that text back into structure ([`parse_flight`]),
//! lints it for the anomalies an operator actually chases
//! ([`lint_flight`]: transition storms, per-producer sequence gaps, ring
//! overflow), and
//! renders an annotated replay ([`render_report`]) that pairs every
//! denial with the situation transition that preceded it.
//!
//! [`self_check`] closes the loop end to end: it boots an in-memory
//! stacked SACK + AppArmor kernel, enables tracing through the
//! securityfs `tracing/enable` node, drives every tracepoint, and then
//! verifies — *through this module's own parser* — that the flight dump
//! replays an injected denial behind its situation transition and that
//! the `tracing/metrics` node is valid Prometheus exposition text
//! ([`validate_prometheus`]). `check.sh` runs it as
//! `sack-analyze trace --self-check`.

use std::collections::BTreeMap;
use std::fmt;

use sack_kernel::trace::Tracepoint;

pub use sack_core::IssueSeverity;

/// One parsed flight-recorder record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global ring sequence number (total order of admission).
    pub seq: u64,
    /// Producer (emitting thread) id.
    pub producer: u64,
    /// Per-producer sequence number; gaps inside the retained window
    /// mean records were lost between this producer and the ring.
    pub pseq: u64,
    /// The event name (`hook_exit`, `ssm_transition`, ...).
    pub event: String,
    /// The event's `key=value` payload fields, in emission order.
    pub fields: Vec<(String, String)>,
}

impl FlightRecord {
    /// Looks up a payload field by key.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for FlightRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq={} producer={} pseq={} {}",
            self.seq, self.producer, self.pseq, self.event
        )?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// A parsed flight dump: the ring header plus the retained records in
/// admission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Ring capacity (slots).
    pub capacity: u64,
    /// Records ever admitted, including those since overwritten.
    pub total: u64,
    /// Records lost to overwrite before they could be read.
    pub dropped: u64,
    /// Retained records, sorted by global `seq`.
    pub records: Vec<FlightRecord>,
}

/// One finding from [`lint_flight`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// `Error` findings exit the CLI non-zero; warnings are advisory.
    pub severity: IssueSeverity,
    /// Stable kebab-case id (`transition-storm`, `pseq-gap`, ...).
    pub check: String,
    /// Human-readable description.
    pub message: String,
}

impl Anomaly {
    fn new(severity: IssueSeverity, check: &str, message: String) -> Anomaly {
        Anomaly {
            severity,
            check: check.to_string(),
            message,
        }
    }
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.check, self.message)
    }
}

fn parse_kv(token: &str) -> Option<(&str, &str)> {
    let (k, v) = token.split_once('=')?;
    if k.is_empty() || v.is_empty() {
        None
    } else {
        Some((k, v))
    }
}

fn parse_u64(line_no: usize, key: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("line {line_no}: `{key}` is not a number: `{value}`"))
}

/// Parses the text of the `tracing/flight` securityfs node.
///
/// # Errors
///
/// A message naming the first malformed line: missing or misordered
/// header, non-numeric sequence fields, or an event name that is not a
/// known tracepoint.
pub fn parse_flight(text: &str) -> Result<FlightDump, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty());

    let (header_no, header) = lines.next().ok_or("empty flight dump")?;
    let rest = header
        .strip_prefix("# flight ")
        .ok_or_else(|| format!("line {header_no}: expected `# flight ...` header"))?;
    let mut capacity = None;
    let mut total = None;
    let mut dropped = None;
    for token in rest.split_whitespace() {
        let (k, v) = parse_kv(token)
            .ok_or_else(|| format!("line {header_no}: bad header token `{token}`"))?;
        let n = parse_u64(header_no, k, v)?;
        match k {
            "capacity" => capacity = Some(n),
            "total" => total = Some(n),
            "dropped" => dropped = Some(n),
            other => return Err(format!("line {header_no}: unknown header key `{other}`")),
        }
    }
    let (capacity, total, dropped) = match (capacity, total, dropped) {
        (Some(c), Some(t), Some(d)) => (c, t, d),
        _ => {
            return Err(format!(
                "line {header_no}: header missing capacity/total/dropped"
            ))
        }
    };

    let mut records = Vec::new();
    for (line_no, line) in lines {
        let mut tokens = line.split_whitespace();
        let mut take_u64 = |key: &str| -> Result<u64, String> {
            let token = tokens
                .next()
                .ok_or_else(|| format!("line {line_no}: truncated record"))?;
            match parse_kv(token) {
                Some((k, v)) if k == key => parse_u64(line_no, key, v),
                _ => Err(format!(
                    "line {line_no}: expected `{key}=<n>`, got `{token}`"
                )),
            }
        };
        let seq = take_u64("seq")?;
        let producer = take_u64("producer")?;
        let pseq = take_u64("pseq")?;
        let event = tokens
            .next()
            .ok_or_else(|| format!("line {line_no}: record has no event name"))?
            .to_string();
        if !Tracepoint::ALL.iter().any(|p| p.name() == event) {
            return Err(format!("line {line_no}: unknown tracepoint `{event}`"));
        }
        let fields = tokens
            .map(|token| {
                parse_kv(token)
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .ok_or_else(|| format!("line {line_no}: bad field `{token}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        records.push(FlightRecord {
            seq,
            producer,
            pseq,
            event,
            fields,
        });
    }
    records.sort_by_key(|r| r.seq);
    Ok(FlightDump {
        capacity,
        total,
        dropped,
        records,
    })
}

/// A run of `ssm_transition` records this long, uninterrupted by any
/// hook activity, is flagged as a storm: the SSM is flapping faster
/// than the system does useful work under any of the states.
const STORM_RUN: usize = 6;

/// Lints a parsed flight dump for the anomalies worth paging over.
///
/// * `ring-overflow` (warning) — `dropped > 0`: history was lost before
///   it could be read.
/// * `seq-gap` (warning) — the retained window skips a global sequence
///   number: the snapshot raced an in-flight producer.
/// * `pseq-gap` (error) — one producer's per-producer counter jumps
///   inside the retained window: records from that producer were lost
///   *after* admission, which the ring promises never happens.
/// * `transition-storm` (error) — a long unbroken run of
///   `ssm_transition` records, including the flip-flop signature of a
///   flapping sensor (`a→b`, `b→a`, repeated).
pub fn lint_flight(dump: &FlightDump) -> Vec<Anomaly> {
    let mut anomalies = Vec::new();

    if dump.dropped > 0 {
        anomalies.push(Anomaly::new(
            IssueSeverity::Warning,
            "ring-overflow",
            format!(
                "flight ring dropped {} of {} records before they were read; \
                 raise the capacity ({}) or drain the node more often",
                dump.dropped, dump.total, dump.capacity
            ),
        ));
    }

    // Global seq continuity across the retained window. The ring admits
    // seqs densely, so a hole means the snapshot caught a slot mid-write.
    for pair in dump.records.windows(2) {
        if pair[1].seq > pair[0].seq + 1 {
            anomalies.push(Anomaly::new(
                IssueSeverity::Warning,
                "seq-gap",
                format!(
                    "retained window skips seq {}..{} — snapshot raced an \
                     in-flight producer",
                    pair[0].seq + 1,
                    pair[1].seq
                ),
            ));
        }
    }

    // Per-producer continuity. Eviction only trims the *oldest* records,
    // so whatever survives of one producer must be a gap-free suffix of
    // its pseq sequence.
    let mut by_producer: BTreeMap<u64, Vec<&FlightRecord>> = BTreeMap::new();
    for record in &dump.records {
        by_producer.entry(record.producer).or_default().push(record);
    }
    for (producer, records) in &by_producer {
        for pair in records.windows(2) {
            if pair[1].pseq != pair[0].pseq + 1 {
                anomalies.push(Anomaly::new(
                    IssueSeverity::Error,
                    "pseq-gap",
                    format!(
                        "producer {producer} jumps pseq {}→{} inside the retained \
                         window ({} record(s) lost after admission)",
                        pair[0].pseq,
                        pair[1].pseq,
                        pair[1].pseq - pair[0].pseq - 1
                    ),
                ));
            }
        }
    }

    // Transition storms: a long consecutive run of ssm_transition
    // records with no interleaved hook traffic.
    let mut run: Vec<&FlightRecord> = Vec::new();
    let flag_run = |run: &[&FlightRecord], anomalies: &mut Vec<Anomaly>| {
        if run.len() < STORM_RUN {
            return;
        }
        let flip_flops = run
            .windows(2)
            .filter(|pair| {
                pair[0].field("from") == pair[1].field("to")
                    && pair[0].field("to") == pair[1].field("from")
            })
            .count();
        let detail = if flip_flops * 2 >= run.len() {
            " — flip-flop signature, likely a flapping sensor"
        } else {
            ""
        };
        anomalies.push(Anomaly::new(
            IssueSeverity::Error,
            "transition-storm",
            format!(
                "{} consecutive ssm_transition records (seq {}..={}) with no \
                 other activity{detail}",
                run.len(),
                run[0].seq,
                run[run.len() - 1].seq
            ),
        ));
    };
    for record in &dump.records {
        if record.event == "ssm_transition" {
            run.push(record);
        } else if record.event == "hook_exit" {
            flag_run(&run, &mut anomalies);
            run.clear();
        }
        // Bumps/invalidates ride along with every transition; they
        // neither extend nor break a storm run.
    }
    flag_run(&run, &mut anomalies);

    anomalies
}

/// Renders a parsed dump plus its lint findings as the `trace`
/// subcommand's report: ring summary, the replay with every denial
/// annotated with the situation transition that preceded it, then the
/// anomaly list.
pub fn render_report(dump: &FlightDump, anomalies: &[Anomaly]) -> String {
    let mut out = format!(
        "flight: capacity={} total={} retained={} dropped={}\n",
        dump.capacity,
        dump.total,
        dump.records.len(),
        dump.dropped
    );
    let mut last_transition: Option<&FlightRecord> = None;
    for record in &dump.records {
        out.push_str(&format!("  {record}\n"));
        if record.event == "ssm_transition" {
            last_transition = Some(record);
        }
        let denied = record.event == "hook_exit" && record.field("verdict") == Some("deny");
        if denied {
            match last_transition {
                Some(t) => out.push_str(&format!(
                    "    ^ denial in situation `{}` (entered at seq={} on event `{}`)\n",
                    t.field("to").unwrap_or("?"),
                    t.seq,
                    t.field("event").unwrap_or("?"),
                )),
                None => out
                    .push_str("    ^ denial with no situation transition in the retained window\n"),
            }
        }
    }
    if anomalies.is_empty() {
        out.push_str("no anomalies\n");
    } else {
        out.push_str(&format!("{} anomal(ies):\n", anomalies.len()));
        for anomaly in anomalies {
            out.push_str(&format!("  {anomaly}\n"));
        }
    }
    out
}

/// Validates Prometheus text-exposition format as an external consumer
/// would: every sample line must parse as `name{labels} value`, label
/// values must be quoted, every sample must belong to a family declared
/// by a preceding `# TYPE` line (histogram samples may use the
/// `_bucket` / `_sum` / `_count` suffixes, counters `_total`), every
/// declared family must also carry a `# HELP` line with the same name,
/// and values must be finite numbers.
///
/// Returns the number of sample lines on success.
///
/// # Errors
///
/// A message naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut families: Vec<String> = Vec::new();
    let mut helps: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut tokens = comment.split_whitespace();
            match tokens.next() {
                Some("HELP") => match tokens.next() {
                    Some(name) => helps.push(name.to_string()),
                    None => {
                        return Err(format!("line {line_no}: HELP without a metric name"));
                    }
                },
                Some("TYPE") => {
                    let name = tokens
                        .next()
                        .ok_or_else(|| format!("line {line_no}: TYPE without a metric name"))?;
                    match tokens.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        other => {
                            return Err(format!("line {line_no}: bad TYPE kind {other:?}"));
                        }
                    }
                    families.push(name.to_string());
                }
                _ => return Err(format!("line {line_no}: comment is neither HELP nor TYPE")),
            }
            continue;
        }

        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {line_no}: sample has no value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {line_no}: bad sample value `{value}`"))?;
        if !value.is_finite() {
            return Err(format!("line {line_no}: non-finite sample value"));
        }
        let name = match series.split_once('{') {
            None => series,
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
                for label in labels.split(',').filter(|l| !l.is_empty()) {
                    let (key, val) = label
                        .split_once('=')
                        .ok_or_else(|| format!("line {line_no}: bad label `{label}`"))?;
                    if key.is_empty()
                        || !val.starts_with('"')
                        || !val.ends_with('"')
                        || val.len() < 2
                    {
                        return Err(format!(
                            "line {line_no}: label `{label}` must be key=\"value\""
                        ));
                    }
                }
                name
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!(
                "line {line_no}: bad metric name `{name}` in `{line}`"
            ));
        }
        let declared = families.iter().any(|family| {
            name == family
                || ["_bucket", "_sum", "_count", "_total"]
                    .iter()
                    .any(|suffix| name.strip_suffix(suffix) == Some(family.as_str()))
        });
        if !declared {
            return Err(format!(
                "line {line_no}: sample `{name}` has no preceding # TYPE declaration"
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no sample lines".to_string());
    }
    for family in &families {
        if !helps.iter().any(|h| h == family) {
            return Err(format!("family `{family}` has # TYPE but no # HELP"));
        }
    }
    Ok(samples)
}

/// End-to-end self check: boots an in-memory stacked SACK + AppArmor
/// kernel, enables tracing through the securityfs `tracing/enable`
/// node, drives every tracepoint at least once, and verifies through
/// this module's own parser that the flight dump replays an injected
/// denial behind its situation transition, that no lint fires on a
/// healthy trace, and that `tracing/metrics` is valid Prometheus text.
///
/// Returns a short human-readable report of what was proven.
///
/// # Errors
///
/// A message naming the first check that failed.
pub fn self_check() -> Result<String, String> {
    use std::sync::Arc;

    use sack_apparmor::{AppArmor, PolicyDb};
    use sack_core::Sack;
    use sack_kernel::cred::Credentials;
    use sack_kernel::file::OpenFlags;
    use sack_kernel::kernel::KernelBuilder;
    use sack_kernel::lsm::SecurityModule;
    use sack_kernel::{KPath, Mode};

    const POLICY: &str = r#"
        states { normal = 0; emergency = 1; }
        events { crash; rescue_done; }
        transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
        initial normal;
        permissions { P; }
        state_per { emergency: P; }
        per_rules { P: allow subject=* /dev/car/** wi; }
    "#;
    const PROFILES: &str = r#"
        profile media_app /usr/bin/media_app flags=(enforce) {
          /usr/lib/** rm,
          deny /dev/car/** rwi,
        }
    "#;

    let fail = |what: &str, detail: String| format!("self-check: {what}: {detail}");

    let sack = Sack::independent(POLICY).map_err(|e| fail("policy load", e.to_string()))?;
    let db = Arc::new(PolicyDb::new());
    let apparmor = AppArmor::new(Arc::clone(&db));
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel)
        .map_err(|e| fail("attach", e.to_string()))?;
    // Oracle after attach so the trace hub propagates into the AppArmor
    // policy database; the profile load below must emit profile_recompile.
    sack.set_profile_oracle(Arc::clone(&apparmor));

    let admin = kernel.spawn(Credentials::root());
    let node = |name: &str| format!("/sys/kernel/security/SACK/{name}");

    // Enable tracing through the securityfs node, not the API.
    let fd = admin
        .open(&node("tracing/enable"), OpenFlags::write_only())
        .map_err(|e| fail("open tracing/enable", e.to_string()))?;
    admin
        .write(fd, b"1\n")
        .map_err(|e| fail("write tracing/enable", e.to_string()))?;
    admin.close(fd).ok();

    db.load_text(PROFILES)
        .map_err(|e| fail("profile load", e.to_string()))?;
    sack.reload_policy(POLICY)
        .map_err(|e| fail("policy reload", e.to_string()))?;

    kernel
        .vfs()
        .mkdir_all(&KPath::new("/dev/car").map_err(|e| fail("path", e.to_string()))?)
        .map_err(|e| fail("mkdir", e.to_string()))?;
    kernel
        .vfs()
        .create_file(
            &KPath::new("/dev/car/door0").map_err(|e| fail("path", e.to_string()))?,
            Mode(0o666),
            sack_kernel::Uid::ROOT,
            sack_kernel::Gid(0),
        )
        .map_err(|e| fail("create", e.to_string()))?;

    // The situation history the flight must replay: crash into
    // emergency, where writes to the door are allowed, then rescue back
    // to normal, where the same write is denied.
    let app = kernel.spawn(Credentials::user(1000, 1000));
    sack.deliver_event("crash", std::time::Duration::ZERO)
        .map_err(|e| fail("crash event", e.to_string()))?;
    for _ in 0..3 {
        let fd = app
            .open("/dev/car/door0", OpenFlags::write_only())
            .map_err(|e| fail("door write in emergency", e.to_string()))?;
        app.close(fd).ok();
    }
    sack.deliver_event("rescue_done", std::time::Duration::ZERO)
        .map_err(|e| fail("rescue event", e.to_string()))?;
    if app.open("/dev/car/door0", OpenFlags::write_only()).is_ok() {
        return Err(fail(
            "denial injection",
            "write to /dev/car/door0 was allowed in `normal`".to_string(),
        ));
    }

    // A two-event write to the securityfs ring node coalesces into one
    // delivery and fires sds_coalesce.
    let fd = admin
        .open(&node("sds/ring"), OpenFlags::write_only())
        .map_err(|e| fail("open sds/ring", e.to_string()))?;
    admin
        .write(fd, b"crash\nrescue_done\n")
        .map_err(|e| fail("write sds/ring", e.to_string()))?;
    admin.close(fd).ok();

    // The flight dump — read through securityfs, parsed by this module —
    // must replay the denial behind its situation transition, cleanly.
    let read_node = |name: &str| -> Result<String, String> {
        let bytes = admin
            .read_to_vec(&node(name))
            .map_err(|e| fail(&format!("read {name}"), e.to_string()))?;
        String::from_utf8(bytes).map_err(|e| fail(&format!("decode {name}"), e.to_string()))
    };
    let dump = parse_flight(&read_node("tracing/flight")?).map_err(|e| fail("flight parse", e))?;
    let rescue = dump
        .records
        .iter()
        .find(|r| r.event == "ssm_transition" && r.field("event") == Some("rescue_done"))
        .ok_or_else(|| {
            fail(
                "flight replay",
                "rescue_done transition not retained".into(),
            )
        })?;
    let denial = dump
        .records
        .iter()
        .find(|r| r.event == "hook_exit" && r.field("verdict") == Some("deny"))
        .ok_or_else(|| fail("flight replay", "denied hook_exit not retained".into()))?;
    if denial.seq <= rescue.seq {
        return Err(fail(
            "flight replay",
            format!(
                "denial (seq={}) not ordered after its transition (seq={})",
                denial.seq, rescue.seq
            ),
        ));
    }
    let audit = dump
        .records
        .iter()
        .find(|r| r.event == "audit_emit")
        .ok_or_else(|| fail("flight replay", "audit_emit not retained".into()))?;
    if audit.seq <= rescue.seq {
        return Err(fail(
            "flight replay",
            "audit_emit precedes the transition".into(),
        ));
    }
    let findings = lint_flight(&dump);
    if let Some(anomaly) = findings.first() {
        return Err(fail("healthy-trace lint", anomaly.to_string()));
    }

    let metrics = read_node("tracing/metrics")?;
    let samples = validate_prometheus(&metrics).map_err(|e| fail("prometheus validation", e))?;
    // Latency is sampled, counts are not: the per-key dispatch counters
    // must add up to every hook_exit fired.
    let series_sum = |prefix: &str| -> u64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(prefix))
            .filter_map(|l| l.rsplit_once(' ')?.1.parse::<u64>().ok())
            .sum()
    };
    let dispatches = series_sum("sack_hook_dispatches_total{");
    let exits = series_sum("sack_tracepoint_fired_total{point=\"hook_exit\"}");
    if dispatches == 0 || dispatches != exits {
        return Err(fail(
            "exact dispatch counts",
            format!("sack_hook_dispatches_total sums to {dispatches}, hook_exit fired {exits}"),
        ));
    }

    // Every tracepoint must have fired at least once.
    let hub = kernel.trace();
    for point in Tracepoint::ALL {
        if hub.fired(point) == 0 {
            return Err(fail("tracepoint coverage", format!("{point} never fired")));
        }
    }

    Ok(format!(
        "self-check passed: {} tracepoints fired, flight replayed the denial \
         (seq={}) behind transition `{}→{}` (seq={}), {} retained record(s) \
         lint clean, metrics node valid ({samples} Prometheus samples, \
         {dispatches} dispatches counted exactly)\n",
        Tracepoint::ALL.len(),
        denial.seq,
        rescue.field("from").unwrap_or("?"),
        rescue.field("to").unwrap_or("?"),
        rescue.seq,
        dump.records.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sack_core::trace::FlightRecorder;
    use sack_kernel::trace::{TraceEvent, TraceHook, TraceVerdict};

    #[test]
    fn parse_round_trips_a_real_recorder_render() {
        let ring = FlightRecorder::new(8);
        ring.record(TraceEvent::SsmTransition {
            from: "normal".into(),
            to: "emergency".into(),
            event: "crash".into(),
        });
        ring.record(TraceEvent::RcuEpochBump { epoch: 1 });
        ring.record(TraceEvent::PolicyPublish { epoch: 1 });
        ring.record(TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Deny,
            latency_ns: Some(412),
        });
        let dump = parse_flight(&ring.render()).unwrap();
        assert_eq!(dump.capacity, 8);
        assert_eq!(dump.total, 4);
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.records.len(), 4);
        assert_eq!(dump.records[0].event, "ssm_transition");
        assert_eq!(dump.records[0].field("event"), Some("crash"));
        assert_eq!(dump.records[3].field("verdict"), Some("deny"));
        assert_eq!(dump.records[3].field("ns"), Some("412"));
        assert!(
            lint_flight(&dump).is_empty(),
            "healthy dump must lint clean"
        );
    }

    #[test]
    fn parse_reads_hook_exits_with_and_without_latency() {
        let ring = FlightRecorder::new(4);
        for latency_ns in [Some(412), None] {
            ring.record(TraceEvent::HookExit {
                hook: TraceHook::FileIoctl,
                verdict: TraceVerdict::Deny,
                latency_ns,
            });
        }
        let text = ring.render();
        assert!(
            text.contains("pseq=1 hook_exit hook=file_ioctl verdict=deny\n"),
            "{text}"
        );
        let dump = parse_flight(&text).unwrap();
        let [timed, untimed] = &dump.records[..] else {
            panic!("expected two records: {dump:?}");
        };
        for record in [timed, untimed] {
            assert_eq!(record.event, "hook_exit");
            assert_eq!(record.field("hook"), Some("file_ioctl"));
            assert_eq!(record.field("verdict"), Some("deny"));
        }
        assert_eq!(timed.field("ns"), Some("412"));
        assert_eq!(untimed.field("ns"), None);
        assert_eq!(untimed.fields.len(), 2);
        let report = render_report(&dump, &lint_flight(&dump));
        assert_eq!(report.matches("^ denial").count(), 2, "{report}");
    }

    #[test]
    fn parse_rejects_malformed_dumps() {
        assert!(parse_flight("").is_err());
        assert!(parse_flight("seq=0 producer=0 pseq=0 audit_emit\n").is_err());
        let header = "# flight capacity=4 total=1 dropped=0\n";
        assert!(parse_flight(&format!("{header}seq=0 pseq=0 audit_emit\n")).is_err());
        assert!(parse_flight(&format!("{header}seq=0 producer=0 pseq=0 warp_drive\n")).is_err());
        assert!(parse_flight(&format!("{header}seq=x producer=0 pseq=0 audit_emit\n")).is_err());
    }

    fn record(
        seq: u64,
        producer: u64,
        pseq: u64,
        event: &str,
        fields: &[(&str, &str)],
    ) -> FlightRecord {
        FlightRecord {
            seq,
            producer,
            pseq,
            event: event.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn dump_of(records: Vec<FlightRecord>) -> FlightDump {
        FlightDump {
            capacity: 64,
            total: records.len() as u64,
            dropped: 0,
            records,
        }
    }

    #[test]
    fn lint_flags_overflow_and_pseq_gap() {
        let mut dump = dump_of(vec![
            record(0, 0, 0, "audit_emit", &[]),
            record(1, 0, 3, "audit_emit", &[]),
        ]);
        dump.dropped = 5;
        let anomalies = lint_flight(&dump);
        assert!(anomalies.iter().any(|a| a.check == "ring-overflow"));
        let gap = anomalies.iter().find(|a| a.check == "pseq-gap").unwrap();
        assert_eq!(gap.severity, IssueSeverity::Error);
        assert!(gap.message.contains("0→3"), "{gap}");
    }

    #[test]
    fn lint_flags_a_transition_storm_with_flip_flop_signature() {
        let mut records = Vec::new();
        for i in 0..8u64 {
            let (from, to) = if i % 2 == 0 {
                ("normal", "emergency")
            } else {
                ("emergency", "normal")
            };
            records.push(record(
                i,
                0,
                i,
                "ssm_transition",
                &[("from", from), ("to", to), ("event", "flap")],
            ));
        }
        let anomalies = lint_flight(&dump_of(records));
        let storm = anomalies
            .iter()
            .find(|a| a.check == "transition-storm")
            .unwrap();
        assert!(storm.message.contains("flip-flop"), "{storm}");
    }

    #[test]
    fn lint_accepts_transitions_interleaved_with_hook_traffic() {
        let mut records = Vec::new();
        for i in 0..12u64 {
            let event = if i % 2 == 0 {
                "ssm_transition"
            } else {
                "hook_exit"
            };
            let fields: &[(&str, &str)] = if i % 2 == 0 {
                &[("from", "a"), ("to", "b"), ("event", "e")]
            } else {
                &[("hook", "file_open"), ("verdict", "allow"), ("ns", "10")]
            };
            records.push(record(i, 0, i, event, fields));
        }
        assert!(lint_flight(&dump_of(records)).is_empty());
    }

    #[test]
    fn report_annotates_denials_with_their_situation() {
        let dump = dump_of(vec![
            record(
                0,
                0,
                0,
                "ssm_transition",
                &[
                    ("from", "emergency"),
                    ("to", "normal"),
                    ("event", "rescue_done"),
                ],
            ),
            record(
                1,
                1,
                0,
                "hook_exit",
                &[("hook", "file_open"), ("verdict", "deny"), ("ns", "99")],
            ),
        ]);
        let report = render_report(&dump, &lint_flight(&dump));
        assert!(report.contains("denial in situation `normal`"), "{report}");
        assert!(report.contains("no anomalies"), "{report}");
    }

    #[test]
    fn prometheus_validator_accepts_good_and_rejects_bad() {
        let good = "# HELP x things\n# TYPE x counter\nx_total 3\n\
                    # HELP h stuff\n# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 1\nh_sum 2\nh_count 1\n";
        assert_eq!(validate_prometheus(good).unwrap(), 4);
        assert!(validate_prometheus("orphan 1\n").is_err());
        assert!(validate_prometheus("# HELP x t\n# TYPE x counter\nx_total nope\n").is_err());
        assert!(validate_prometheus("# HELP x t\n# TYPE x counter\nx{a=b} 1\n").is_err());
        assert!(validate_prometheus("").is_err());
        // A family declared by TYPE but never described by HELP is rejected.
        let helpless = "# TYPE x counter\nx_total 3\n";
        let err = validate_prometheus(helpless).unwrap_err();
        assert!(err.contains("no # HELP"), "{err}");
    }

    #[test]
    fn self_check_passes_end_to_end() {
        let report = self_check().unwrap();
        assert!(report.contains("self-check passed"), "{report}");
    }
}
