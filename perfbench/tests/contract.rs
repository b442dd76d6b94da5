//! The benchmark checks itself: every metric it prints is declared in
//! `BENCHMARK.json` with the unit it prints, the shortest allowed run of
//! each workload finishes without a failed operation, and the counted
//! costs of a traced run repeat exactly.
//!
//! These tests run the release binary; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use stackcache_perfbench::bench::WORKLOADS;
use stackcache_perfbench::json::{parse, Value};

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    doc.get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run the benchmark and parse its last line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

/// `name → (value, unit)` of a result.
fn printed(result: &Value) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Value::as_f64).expect("value");
            let unit = v.get("unit").and_then(Value::as_str).expect("unit");
            (k.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn assert_declared(workload: &str, result: &Value, list: &str) {
    let want = declared(list);
    let got = printed(result);
    for (name, (value, unit)) in &got {
        assert_eq!(
            want.get(name),
            Some(unit),
            "{workload}: {name} [{unit}] is not declared in {list}"
        );
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    for name in want.keys() {
        assert!(
            got.contains_key(name),
            "{workload}: declared {name} was not printed"
        );
    }
}

fn assert_clean(workload: &str, result: &Value) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: error_rate must be 0"
    );
    assert!(result
        .get("attempted")
        .and_then(Value::as_f64)
        .is_some_and(|a| a >= 1.0));
}

#[test]
fn benchmark_json_names_only_workloads_the_benchmark_runs() {
    let declared = workloads();
    assert!(declared.len() >= 2);
    for w in &declared {
        assert!(
            WORKLOADS.iter().any(|(n, _)| n == w),
            "unknown workload {w}"
        );
    }
}

#[test]
fn shortest_run_of_each_workload_has_no_errors_and_prints_every_end_to_end_metric() {
    for (w, _) in WORKLOADS {
        let result = run(w, 3, false);
        assert_clean(w, &result);
        assert_declared(w, &result, "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_repeat_their_counts() {
    for (w, _) in WORKLOADS {
        let result = run(w, 4, true);
        assert_clean(w, &result);
        assert_declared(w, &result, "per_layer");
    }
    let counts = |r: &Value| -> Vec<(String, f64)> {
        printed(r)
            .into_iter()
            .filter(|(k, _)| k.starts_with("core.counted_cycles_per_inst."))
            .map(|(k, (v, _))| (k, v))
            .collect()
    };
    let first = counts(&run("short-hot", 4, true));
    assert_eq!(first.len(), 6, "one counted model per interpreter regime");
    assert_eq!(
        first,
        counts(&run("short-hot", 4, true)),
        "counted costs are counts: they repeat exactly"
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        vec!["--workload", "nope", "--seconds", "1"],
        vec!["--workload", "short-hot", "--seconds", "0"],
        vec!["--workload", "short-hot", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
