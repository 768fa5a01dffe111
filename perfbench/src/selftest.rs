//! The benchmark's self-test, at smoke size:
//!
//! * every metric `BENCHMARK.json` names is emitted, with its unit, by
//!   every workload it lists;
//! * an injected wrong answer (one flipped quality bit in each replay
//!   comparison) is counted as a failure;
//! * the traced run's per-layer self times plus its unattributed time add
//!   up to its wall time.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;

use mube_serve::Json;

use crate::harness::{Config, Metric, Outcome};
use crate::{result_line, run_workload, WORKLOADS};

fn smoke(trace: bool, inject_fault: bool) -> Config {
    Config {
        seed: 7,
        seconds: 0.2,
        trace,
        smoke: true,
        inject_fault,
        trace_path: None,
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

fn run(workload: &str, cfg: &Config) -> Outcome {
    run_workload(workload, cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn benchmark_json_lists_exactly_these_workloads() {
    let spec = benchmark_json();
    let listed: Vec<(String, String)> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k: &str| {
                w.get(k)
                    .and_then(Json::as_str)
                    .expect("name and why")
                    .to_owned()
            };
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
        .collect();
    assert_eq!(listed, ours);
}

#[test]
fn every_declared_metric_is_emitted_and_the_ledger_adds_up() {
    let spec = benchmark_json();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for (workload, _) in WORKLOADS {
        let outcome = run(workload, &smoke(true, false));
        assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.errors);
        assert_eq!(
            emitted(&outcome.e2e),
            end_to_end,
            "{workload}: end-to-end metrics"
        );
        assert_eq!(
            emitted(&outcome.layers),
            per_layer,
            "{workload}: per-layer metrics"
        );
        for m in outcome.e2e.iter().chain(&outcome.layers) {
            assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        }
        for m in &outcome.e2e {
            assert!(m.value > 0.0, "{workload}: end-to-end {} reads 0", m.name);
        }
        let line = result_line(&outcome, true);
        assert!(Json::parse(&line).is_ok(), "{workload}: result line {line}");

        let ledger = outcome.ledger.as_ref().expect("traced runs keep a ledger");
        let covered: f64 = ledger.self_ms.iter().map(|(_, ms)| ms).sum();
        let total = covered + ledger.unattributed_ms;
        assert!(
            (total - ledger.wall_ms).abs() <= 1e-9 * ledger.wall_ms.max(1.0),
            "{workload}: self times {covered} + unattributed {} != wall {}",
            ledger.unattributed_ms,
            ledger.wall_ms
        );
        let share = outcome
            .layers
            .iter()
            .find(|m| m.name == "trace.unattributed")
            .expect("trace.unattributed")
            .value;
        assert!((share - ledger.unattributed_ms / ledger.wall_ms).abs() < 1e-12);
        for (layer, ms) in &ledger.self_ms {
            assert!(
                *ms >= -1e-6 * ledger.wall_ms,
                "{workload}: negative self time {layer} = {ms}"
            );
        }
    }
}

#[test]
fn an_injected_wrong_answer_is_counted() {
    for (workload, _) in WORKLOADS {
        let outcome = run(workload, &smoke(false, true));
        assert!(
            outcome.failed > 0,
            "{workload}: a flipped quality bit went unnoticed"
        );
        let ok = outcome
            .e2e
            .iter()
            .find(|m| m.name == "ok_frac")
            .expect("ok_frac")
            .value;
        assert!(ok < 1.0, "{workload}: ok_frac {ok} ignores the failure");
        assert!(result_line(&outcome, false).starts_with("{\"correct\": false"));
    }
}
