//! `repro analyze` end to end, driving the real binary.
//!
//! A traced exhibit run writes a Chrome trace document; `repro analyze`
//! imports it and must produce a conserved cycle attribution whose bytes
//! are identical at any `--jobs` count (the trace is, so the analysis — a
//! pure function of the trace — must be too).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Runs a traced quick exhibit into `dir` and returns the trace path.
fn traced_run(dir: &Path, jobs: &str, targets: &[&str]) -> PathBuf {
    let trace = dir.join(format!("trace_j{jobs}.json"));
    let mut args = vec![
        "--quick",
        "--csv",
        dir.to_str().unwrap(),
        "--jobs",
        jobs,
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
    ];
    args.extend_from_slice(targets);
    let run = repro(&args);
    assert!(run.status.success(), "traced run failed:\n{}", stderr(&run));
    assert!(trace.is_file(), "trace file not written");
    trace
}

#[test]
fn analyze_attributes_fig4_with_backoff_contrast() {
    let dir = tmpdir("insight_cli_fig4");
    let trace = traced_run(&dir, "2", &["fig4"]);

    let analyzed = repro(&["analyze", trace.to_str().unwrap()]);
    assert!(
        analyzed.status.success(),
        "analyze failed:\n{}\n{}",
        stdout(&analyzed),
        stderr(&analyzed)
    );
    let text = stdout(&analyzed);
    // All four fig4 units are present: the three no-backoff arrival spans
    // plus the exp-8 contrast at the acceptance point.
    assert!(text.contains("fig4: A=0"), "{text}");
    assert!(text.contains("fig4: A=1000"), "{text}");
    assert!(
        text.contains("A=1000 base 8 backoff"),
        "missing the exp-8 contrast unit:\n{text}"
    );
    // The attribution table and its conservation of buckets.
    assert!(text.contains("spin_poll"), "{text}");
    assert!(text.contains("backoff_wait"), "{text}");
    assert!(!text.contains("not analyzable"), "{text}");
}

#[test]
fn analyze_output_is_identical_at_any_jobs_count() {
    let dir = tmpdir("insight_cli_jobs");
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let trace = traced_run(&dir, jobs, &["fig4", "fairness"]);
        let analyzed = repro(&["analyze", trace.to_str().unwrap()]);
        assert!(analyzed.status.success(), "analyze failed:\n{}", stderr(&analyzed));
        outputs.push(stdout(&analyzed));
    }
    assert_eq!(outputs[0], outputs[1], "--jobs 1 vs 2");
    assert_eq!(outputs[0], outputs[2], "--jobs 1 vs 8");
}

#[test]
fn analyze_renders_slo_timelines_for_open_loop_exhibits() {
    let dir = tmpdir("insight_cli_slo");
    let trace = traced_run(&dir, "2", &["fairness"]);

    let analyzed = repro(&["analyze", trace.to_str().unwrap()]);
    assert!(analyzed.status.success(), "analyze failed:\n{}", stderr(&analyzed));
    let text = stdout(&analyzed);
    assert!(text.contains("open-loop"), "{text}");
    assert!(text.contains("per-tenant SLO"), "{text}");
    assert!(text.contains("tenant"), "{text}");
}

#[test]
fn analyze_rejects_garbage_input() {
    let dir = tmpdir("insight_cli_garbage");
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"not\": \"a trace\"}").unwrap();
    let analyzed = repro(&["analyze", bogus.to_str().unwrap()]);
    assert_eq!(analyzed.status.code(), Some(2), "{}", stderr(&analyzed));
    let missing = repro(&["analyze", dir.join("absent.json").to_str().unwrap()]);
    assert_eq!(missing.status.code(), Some(2), "{}", stderr(&missing));
}
