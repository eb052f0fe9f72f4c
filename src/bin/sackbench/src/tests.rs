//! The benchmark's own checks: every workload prints exactly the metrics
//! `BENCHMARK.json` names, and a seed fixes every input and every count.

use std::sync::Mutex;

use crate::json;
use crate::{result_json, run_workload, setup, Options, TraceMode, WORKLOADS};

/// Held by the tests that boot workloads: the traced run's timing checks
/// compare passes a few milliseconds long, which a test booting kernels
/// beside them would skew.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(section)
        .expect("section exists")
        .as_array()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(json::Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// The metric names of a result line.
fn printed(line: &str) -> Vec<String> {
    let doc = json::parse(line).expect("the result line is JSON");
    assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)), "{line}");
    assert_eq!(
        doc.get("failed").and_then(json::Value::as_f64),
        Some(0.0),
        "{line}"
    );
    let mut names: Vec<String> = match doc.get("metrics") {
        Some(json::Value::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics in {line}"),
    };
    names.sort();
    names
}

/// One 20 ms round per configuration after the warm-up round.
fn short(workload: &'static str, trace: TraceMode) -> Options {
    Options {
        workloads: vec![workload],
        seed: 7,
        seconds: 0.02 * 2.0 * 4.0,
        trace,
        rounds: 1,
        boots: Some(1),
        replay_ops: 1500,
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in WORKLOADS {
        let untraced = run_workload(workload, &short(workload, TraceMode::Off));
        assert_eq!(printed(&result_json(&untraced)), end_to_end, "{workload}");
        let traced = run_workload(workload, &short(workload, TraceMode::On(None)));
        let checks: Vec<_> = traced
            .notes
            .iter()
            .filter(|n| n.starts_with("check "))
            .collect();
        assert!(
            !checks.is_empty(),
            "{workload}: the traced run checks nothing"
        );
        assert!(
            checks.iter().all(|n| n.starts_with("check PASS")),
            "{workload}: {checks:#?}"
        );
        // A failed check would also have failed the result line.
        assert_eq!(printed(&result_json(&traced)), per_layer, "{workload}");
    }
}

#[test]
fn a_seed_fixes_inputs_and_counts() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        // Through the traced run's replay: one thread, and in `vehicle`
        // one sensor frame per op, so every transition lands on the same op.
        let run = |seed| {
            let mut w = setup(workload, seed);
            let counters: Vec<_> = (0..w.configs().len())
                .map(|ci| {
                    for seq in 0..300 {
                        w.advance(ci, seq);
                        assert!(w.replay_op(ci, seq).ok, "{workload}: op {seq} on {ci}");
                    }
                    w.env(ci).counters()
                })
                .collect();
            (w.digest(), counters)
        };
        let (digest, counters) = run(7);
        let (again, counters_again) = run(7);
        assert_eq!(digest, again, "{workload}: same seed, other inputs");
        assert_eq!(
            counters, counters_again,
            "{workload}: same seed, other counts"
        );
        assert_ne!(
            digest,
            run(8).0,
            "{workload}: the seed does not reach the inputs"
        );
    }
}
