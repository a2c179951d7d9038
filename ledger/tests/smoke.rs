//! Runs the real binary at smoke scale: every workload finishes with no
//! failed job or check, and each result object names exactly the metrics
//! `BENCHMARK.json` lists.

use std::path::Path;
use std::process::Command;

use abs_exec::json::Value;

/// Runs `abs-ledger` in the test scratch directory: `(success, stdout)`.
fn ledger(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_abs-ledger"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("abs-ledger starts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Every result object printed on stdout.
fn results(stdout: &str) -> Vec<Value> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Value::parse(l).expect("result object parses"))
        .collect()
}

/// The metric names of one `BENCHMARK.json` section, in order.
fn benchmark_metrics(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// Checks a result object: correct, nothing failed, and exactly the
/// expected metric names, each a finite number with a unit.
fn check(result: &Value, expected: &[String]) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{result:?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, expected);
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name} has no unit"
        );
    }
}

#[test]
fn every_workload_runs_with_failed_frac_zero() {
    let (ok, stdout) = ledger(&["run", "--smoke", "--seconds", "0", "--seed", "5"]);
    assert!(ok, "{stdout}");
    let results = results(&stdout);
    assert_eq!(results.len(), 4, "{stdout}");
    let expected = benchmark_metrics("end_to_end");
    for result in &results {
        check(result, &expected);
    }
    assert_eq!(stdout.matches("failed_frac   0 ").count(), 4, "{stdout}");
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_writes_its_trace() {
    let (ok, stdout) = ledger(&[
        "run",
        "--smoke",
        "--seconds",
        "0",
        "--workload",
        "coherence_apps",
        "--trace",
        "1",
    ]);
    assert!(ok, "{stdout}");
    let results = results(&stdout);
    assert_eq!(results.len(), 1);
    check(&results[0], &benchmark_metrics("per_layer"));
    assert!(stdout.contains("coherence.directory.self_s"), "{stdout}");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_out");
    let trace = std::fs::read_to_string(out.join("ledger_trace_coherence_apps.json"))
        .expect("trace written");
    abs_obs::chrome::validate(&Value::parse(&trace).expect("trace parses"))
        .expect("valid Chrome trace");
    assert!(out
        .join("bench_ledger_layers_coherence_apps.json")
        .is_file());
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "yes"],
        &["frobnicate"],
    ] {
        let (ok, stdout) = ledger(args);
        assert!(!ok, "{args:?}");
        assert!(results(&stdout).is_empty(), "{args:?}: {stdout}");
    }
}
