//! `sack-analyze` — command-line front end for the static policy
//! analyzer and the sack-trace flight-dump reader.
//!
//! ```text
//! sack-analyze <policy.sack> [--profiles <profiles.aa>] [--te <policy.te>]
//!              [--json] [--strict]
//! sack-analyze trace (--self-check | <flight-dump>) [--strict]
//! sack-analyze sched [--smoke]
//! sack-analyze sync-lint [--root <dir>]
//! ```
//!
//! Exit codes: `0` clean (warnings allowed unless `--strict`), `1`
//! findings/anomalies that should block deployment, `2` usage / I/O /
//! parse errors.

use std::process::ExitCode;

use sack_analyze::Analyzer;
use sack_apparmor::parser::parse_profiles;
use sack_apparmor::profile::Profile;
use sack_core::IssueSeverity;
use sack_core::SackPolicy;
use sack_te::TePolicy;

const USAGE: &str = "usage: sack-analyze <policy.sack> [--profiles <profiles.aa>] \
                     [--te <policy.te>] [--json] [--strict]\n       \
                     sack-analyze trace (--self-check | <flight-dump>) \
                     [--strict]\n       \
                     sack-analyze sched [--smoke]\n       \
                     sack-analyze sync-lint [--root <dir>]";

struct Options {
    policy_path: String,
    profiles_path: Option<String>,
    te_path: Option<String>,
    json: bool,
    strict: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut policy_path = None;
    let mut profiles_path = None;
    let mut te_path = None;
    let mut json = false;
    let mut strict = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--profiles" => {
                profiles_path = Some(
                    iter.next()
                        .ok_or("--profiles requires a file argument")?
                        .clone(),
                );
            }
            "--te" => {
                te_path = Some(iter.next().ok_or("--te requires a file argument")?.clone());
            }
            "--json" => json = true,
            "--strict" => strict = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            path => {
                if policy_path.replace(path.to_string()).is_some() {
                    return Err(format!("more than one policy file given\n{USAGE}"));
                }
            }
        }
    }
    Ok(Options {
        policy_path: policy_path.ok_or_else(|| format!("no policy file given\n{USAGE}"))?,
        profiles_path,
        te_path,
        json,
        strict,
    })
}

fn run(options: &Options) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))
    };

    let policy_text = read(&options.policy_path)?;
    let policy =
        SackPolicy::parse(&policy_text).map_err(|err| format!("{}: {err}", options.policy_path))?;

    let profiles: Vec<Profile> = match &options.profiles_path {
        Some(path) => parse_profiles(&read(path)?).map_err(|err| format!("{path}: {err}"))?,
        None => Vec::new(),
    };
    let te = match &options.te_path {
        Some(path) => Some(TePolicy::parse(&read(path)?).map_err(|err| format!("{path}: {err}"))?),
        None => None,
    };

    let mut analyzer = Analyzer::new(&policy).with_profiles(&profiles);
    if let Some(te) = &te {
        analyzer = analyzer.with_te(te);
    }
    let report = analyzer.run();

    if options.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }

    let blocking = report.error_count() > 0 || (options.strict && report.warning_count() > 0);
    Ok(if blocking {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

struct TraceOptions {
    self_check: bool,
    flight_path: Option<String>,
    strict: bool,
}

fn parse_trace_args(args: &[String]) -> Result<TraceOptions, String> {
    let mut self_check = false;
    let mut flight_path = None;
    let mut strict = false;
    for arg in args {
        match arg.as_str() {
            "--self-check" => self_check = true,
            "--strict" => strict = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            path => {
                if flight_path.replace(path.to_string()).is_some() {
                    return Err(format!("more than one flight dump given\n{USAGE}"));
                }
            }
        }
    }
    if !self_check && flight_path.is_none() {
        return Err(format!(
            "trace needs --self-check or a flight dump\n{USAGE}"
        ));
    }
    Ok(TraceOptions {
        self_check,
        flight_path,
        strict,
    })
}

fn run_trace(options: &TraceOptions) -> Result<ExitCode, String> {
    if options.self_check {
        print!("{}", sack_analyze::self_check()?);
        return Ok(ExitCode::SUCCESS);
    }
    let path = options.flight_path.as_deref().expect("checked by parser");
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))
    };
    let dump = sack_analyze::parse_flight(&read(path)?).map_err(|err| format!("{path}: {err}"))?;
    let anomalies = sack_analyze::lint_flight(&dump);
    print!("{}", sack_analyze::render_report(&dump, &anomalies));
    let blocking = anomalies.iter().any(|a| {
        a.severity == IssueSeverity::Error
            || (options.strict && a.severity == IssueSeverity::Warning)
    });
    Ok(if blocking {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs the deterministic-schedule executor gate: exhaustive exploration
/// of every core scenario, every planted mutation caught with a printed
/// counterexample, and the model-conformance replays. `--smoke` caps the
/// per-scenario schedule budget for fast CI runs.
fn run_sched(smoke: bool) -> Result<ExitCode, String> {
    use sack_analyze::sched::{conformance, explore, scenarios, SchedConfig};
    use sack_kernel::sync::Mutation;

    let mut cfg = SchedConfig::exhaustive();
    if smoke {
        cfg.max_schedules = 2_000;
    }

    let core = [
        scenarios::rcu_read_write(1),
        scenarios::profile_publish(),
        scenarios::ring_produce_drain(),
        scenarios::ring_force_enqueue_drain(),
        scenarios::ring_force_enqueue_producers(),
        scenarios::ring_batch_drain(),
        scenarios::ring_batch_vs_dequeuers(),
        scenarios::lazy_first_touch(),
    ];
    println!("== exhaustive exploration (seed {:#x}) ==", cfg.seed);
    for scenario in &core {
        let started = std::time::Instant::now();
        match explore(scenario, &cfg) {
            Ok(stats) => {
                println!(
                    "  {:<32} {:>6} schedules, {:>5} sleep-pruned, complete={}, {:.2} s",
                    scenario.name,
                    stats.schedules,
                    stats.pruned,
                    stats.complete,
                    started.elapsed().as_secs_f64()
                );
                if !smoke && !stats.complete {
                    return Err(format!(
                        "{}: exploration hit the schedule budget before exhausting \
                         the space",
                        scenario.name
                    ));
                }
            }
            Err(violation) => {
                println!("{violation}");
                return Ok(ExitCode::from(1));
            }
        }
    }

    println!("== planted mutations (each must be caught) ==");
    let mutations: [(&str, sack_analyze::sched::Scenario, Option<Mutation>); 5] = [
        (
            "rcu skip hazard re-validation",
            scenarios::rcu_read_write(1),
            Some(Mutation::RcuSkipValidation),
        ),
        (
            "rcu free before hazard scan",
            scenarios::rcu_read_write(1),
            Some(Mutation::RcuFreeBeforeScan),
        ),
        (
            "ring publish after lost claim",
            scenarios::ring_produce_drain(),
            Some(Mutation::RingTornPublish),
        ),
        (
            "ring lost claim, drop-oldest",
            scenarios::ring_force_enqueue_producers(),
            Some(Mutation::RingTornPublish),
        ),
        (
            "lazy slot skips claim, double-publishes",
            scenarios::lazy_first_touch(),
            Some(Mutation::LazyDoublePublish),
        ),
    ];
    for (label, scenario, mutation) in mutations {
        let mut mcfg = cfg.clone();
        mcfg.mutation = mutation;
        match explore(&scenario, &mcfg) {
            Err(violation) => {
                println!(
                    "  {:<32} caught in {} steps",
                    label,
                    violation.schedule.len()
                );
                println!("{violation}");
            }
            Ok(stats) => {
                return Err(format!(
                    "planted bug `{label}` survived {} schedules (complete = {}) — \
                     the executor lost its teeth",
                    stats.schedules, stats.complete
                ));
            }
        }
    }

    println!("== model conformance (abstract counterexamples vs real code) ==");
    let reports = conformance::run_all()?;
    for r in &reports {
        println!(
            "  {:<32} model schedule {:?} -> real violation in {} steps",
            r.model,
            r.model_schedule,
            r.real_violation.schedule.len()
        );
    }
    println!("sched: all gates passed");
    Ok(ExitCode::SUCCESS)
}

/// Runs the sync seam lint over the protocol sources.
fn run_sync_lint(root: &str) -> Result<ExitCode, String> {
    let roots = sack_analyze::sync_lint::default_roots(std::path::Path::new(root));
    for r in &roots {
        if !r.exists() {
            return Err(format!(
                "lint root `{}` does not exist — run from the repo root or pass --root",
                r.display()
            ));
        }
    }
    let findings = sack_analyze::lint_paths(&roots).map_err(|err| format!("sync-lint: {err}"))?;
    if findings.is_empty() {
        println!("sync-lint: clean ({} roots)", roots.len());
        return Ok(ExitCode::SUCCESS);
    }
    for f in &findings {
        println!("{f}");
    }
    println!(
        "sync-lint: {} direct synchronization use(s) outside the sync::shim seam \
         (route them through the shim or add a justified allowlist entry)",
        findings.len()
    );
    Ok(ExitCode::from(1))
}

fn parse_sched_args(args: &[String]) -> Result<bool, String> {
    let mut smoke = false;
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown sched argument `{other}`\n{USAGE}")),
        }
    }
    Ok(smoke)
}

fn parse_sync_lint_args(args: &[String]) -> Result<String, String> {
    let mut root = ".".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                root = iter
                    .next()
                    .ok_or("--root requires a directory argument")?
                    .clone();
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown sync-lint argument `{other}`\n{USAGE}")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sched") {
        return match parse_sched_args(&args[1..]).and_then(run_sched) {
            Ok(code) => code,
            Err(message) => {
                eprintln!("sack-analyze: {message}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("sync-lint") {
        return match parse_sync_lint_args(&args[1..]).and_then(|root| run_sync_lint(&root)) {
            Ok(code) => code,
            Err(message) => {
                eprintln!("sack-analyze: {message}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("trace") {
        let options = match parse_trace_args(&args[1..]) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::from(2);
            }
        };
        return match run_trace(&options) {
            Ok(code) => code,
            Err(message) => {
                eprintln!("sack-analyze: {message}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sack-analyze: {message}");
            ExitCode::from(2)
        }
    }
}
