//! SDS event-path sweep runner (DESIGN.md §11): sync-vs-batched sensor
//! ingestion throughput per target rate, plus the warm-hook p50 impact of
//! interleaved heartbeat deliveries.
//!
//! Usage:
//!   cargo run --release -p sack-lmbench --example sds_sweep -- \
//!       [--rates 10000,100000,1000000] [--events 20000] [--json PATH]
//!
//! Prints the human table, then machine-readable `sds_meta` / `sds_point` /
//! `sds_speedup_at_100k` / `sds_warm_impact` lines for
//! `scripts/bench_gate.sh`. With `--json PATH`, also writes the `sds`
//! block spliced into `BENCH_hook_latency.json`.

use sack_lmbench::{render_sds_sweep, run_sds_sweep, SdsSweep};

fn main() {
    let mut rates: Vec<u64> = vec![10_000, 100_000, 1_000_000];
    let mut events: usize = 20_000;
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rates" => {
                i += 1;
                rates = args[i]
                    .split(',')
                    .map(|r| r.parse().expect("--rates takes e.g. 10000,100000"))
                    .collect();
            }
            "--events" => {
                i += 1;
                events = args[i].parse().expect("--events takes a count");
            }
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }

    let sweep = run_sds_sweep(&rates, events);
    print!("{}", render_sds_sweep(&sweep));

    println!(
        "sds_meta events_per_point={} rates={}",
        sweep.events_per_point,
        sweep.points.len()
    );
    for point in &sweep.points {
        println!(
            "sds_point rate={} batch={} sync_eps={:.1} batched_eps={:.1} speedup={:.2}",
            point.rate, point.batch, point.sync_eps, point.batched_eps, point.speedup
        );
    }
    if let Some(speedup) = sweep.speedup_at(100_000) {
        println!("sds_speedup_at_100k value={speedup:.2}");
    }
    println!("sds_warm_impact value={:.3}", sweep.warm_impact());

    if let Some(path) = json_path {
        std::fs::write(&path, sds_json(&sweep)).expect("write --json output");
    }
}

/// The `sds` block of `BENCH_hook_latency.json`, hand-rendered (the repo
/// vendors no serde; the schema is validated by
/// `scripts/validate_bench_json.py`).
fn sds_json(sweep: &SdsSweep) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "    \"events_per_point\": {},\n",
        sweep.events_per_point
    ));
    let rates: Vec<String> = sweep.points.iter().map(|p| p.rate.to_string()).collect();
    out.push_str(&format!("    \"rates\": [{}],\n", rates.join(", ")));
    out.push_str("    \"points\": {\n");
    for (i, point) in sweep.points.iter().enumerate() {
        let comma = if i + 1 < sweep.points.len() { "," } else { "" };
        out.push_str(&format!(
            "      \"r{}\": {{ \"batch\": {}, \"sync_eps\": {:.1}, \"batched_eps\": {:.1}, \"speedup\": {:.2} }}{comma}\n",
            point.rate, point.batch, point.sync_eps, point.batched_eps, point.speedup
        ));
    }
    out.push_str("    },\n");
    out.push_str(&format!(
        "    \"speedup_at_100k\": {:.2},\n",
        sweep.speedup_at(100_000).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "    \"warm_base_p50_ns\": {},\n",
        sweep.warm_base_p50_ns
    ));
    out.push_str(&format!(
        "    \"warm_plane_p50_ns\": {},\n",
        sweep.warm_plane_p50_ns
    ));
    out.push_str(&format!(
        "    \"warm_impact\": {:.3}\n",
        sweep.warm_impact()
    ));
    out.push_str("  }");
    out
}
