//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p abs-bench --release --bin repro -- all
//! cargo run -p abs-bench --release --bin repro -- fig7 fig10
//! cargo run -p abs-bench --release --bin repro -- --quick table1
//! cargo run -p abs-bench --release --bin repro -- --csv out/ fig5
//! cargo run -p abs-bench --release --bin repro -- --jobs 8 all
//! cargo run -p abs-bench --release --bin repro -- --resume all
//! cargo run -p abs-bench --release --bin repro -- --trace t.json --metrics fig7
//! cargo run -p abs-bench --release --bin repro -- --kernel cycle fig7
//! cargo run -p abs-bench --release --bin repro -- --list
//! cargo run -p abs-bench --release --bin repro -- analyze repro_out/t.json
//! ```
//!
//! `--kernel` selects the simulation kernel: `event` (default) is the
//! skip-ahead kernel, `cycle` the reference oracle. The two are
//! bit-identical, so the choice affects wall time only — which is also why
//! the kernel is not part of the `--resume` manifest's config equality.
//!
//! Exhibits run on the `abs-exec` engine: `--jobs N` exhibits at a time,
//! committed to stdout in request order, so the output is **bit-identical
//! at any `--jobs` value**. A panicking exhibit is isolated — the others
//! still print and the process exits nonzero. Every run writes
//! `repro_manifest.json` (seed, config, git commit, per-exhibit status and
//! timings) into the output directory; `--resume` loads it and skips
//! exhibits already recorded as completed under the same seed/config.
//!
//! The open-loop exhibits (`loadsweep`, `fairness`) additionally emit a
//! machine-readable JSON artifact into the output directory on every run;
//! `--load`, `--tenants` and `--sched` parameterize them.
//!
//! `--trace FILE` additionally writes a Chrome trace-event JSON document:
//! simulated-clock lanes (one process per traced episode, deterministic
//! for the seed at any `--jobs` count) plus wall-clock worker lanes under
//! pid 0. `--metrics` prints a metrics snapshot of the run to stdout.
//!
//! `repro analyze <trace.json>` replays the abs-insight passes over such a
//! trace: cycle attribution (with the conservation invariant), barrier
//! episode extraction, and per-tenant SLO timelines.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use abs_bench::cli::{self, CliOptions, Parsed};
use abs_bench::render::{assemble_sim_trace, render_one, Rendered};
use abs_bench::ReproConfig;
use abs_exec::{available_parallelism, git_commit, Engine, ExecConfig, JobSet, RunReport};
use abs_exec::{JobRecord, JobStatus, RunManifest};
use abs_obs::ascii::timeline;
use abs_obs::chrome::{exec_report_lanes, validate, ChromeTrace, WALL_PID};
use abs_obs::metrics::Registry;
use abs_obs::trace::Event;

fn main() -> ExitCode {
    match cli::parse_args(std::env::args().skip(1), available_parallelism()) {
        Parsed::Help => {
            println!("{}", cli::help());
            ExitCode::SUCCESS
        }
        Parsed::List => {
            println!("{}", cli::list());
            ExitCode::SUCCESS
        }
        Parsed::Error(message) => {
            eprintln!("{message}\n\n{}", cli::help());
            ExitCode::FAILURE
        }
        Parsed::Analyze { file, json } => analyze(&file, json),
        Parsed::Run(options) => run(options),
    }
}

/// `repro analyze <trace.json> [--json]`: the abs-insight passes over a
/// `--trace` file. Exit code: 0 analyzed cleanly, 1 conservation violated
/// or no unit analyzable, 2 unreadable input.
fn analyze(file: &std::path::Path, json: bool) -> ExitCode {
    let text = match fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("repro analyze: cannot read {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let doc = match abs_exec::json::Value::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("repro analyze: {} is not valid JSON: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let units = match abs_insight::import::import_chrome(&doc) {
        Ok(units) => units,
        Err(e) => {
            eprintln!("repro analyze: {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let analyses = abs_insight::analyze::analyze_units(&units);
    print!("{}", abs_insight::analyze::render_text(&analyses));
    if json {
        let stem = file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace");
        let out_dir = default_out_dir();
        let path = out_dir.join(format!("analysis_{stem}.json"));
        let report = abs_insight::analyze::render_json(&analyses);
        if let Err(e) = fs::create_dir_all(&out_dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                fs::write(&path, report.render_pretty()).map_err(|e| e.to_string())
            })
        {
            eprintln!("repro analyze: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }
    if !abs_insight::analyze::conserved(&analyses) {
        eprintln!("repro analyze: cycle attribution violated conservation");
        return ExitCode::FAILURE;
    }
    if analyses.iter().all(|a| a.result.is_err()) {
        eprintln!("repro analyze: no analyzable unit in {}", file.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The workspace `repro_out/` directory (manifest home when `--csv` is not
/// given).
fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../repro_out")
}

/// Config pairs that must match for `--resume` to trust a manifest.
fn config_pairs(config: &ReproConfig) -> Vec<(String, String)> {
    vec![
        ("reps".to_string(), config.reps.to_string()),
        ("procs".to_string(), config.procs.to_string()),
        ("max_n".to_string(), config.max_n.to_string()),
        (
            "load".to_string(),
            config.load.map_or_else(|| "default".to_string(), |l| l.to_string()),
        ),
        ("tenants".to_string(), config.tenants.to_string()),
        (
            "sched".to_string(),
            config.sched.map_or_else(|| "all".to_string(), |s| s.to_string()),
        ),
    ]
}

fn run(options: CliOptions) -> ExitCode {
    let out_dir = options.csv_dir.clone().unwrap_or_else(default_out_dir);
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let pairs = config_pairs(&options.config);
    let manifest_path = out_dir.join(RunManifest::file_name("repro"));

    // --resume: trust only a manifest produced under the identical
    // seed/reps/scale configuration.
    let mut prior: Option<RunManifest> = None;
    if options.resume {
        match RunManifest::load(&manifest_path) {
            Ok(m) if m.matches(options.config.seed, &pairs) => prior = Some(m),
            Ok(_) => eprintln!(
                "--resume: {} was produced under a different seed/config; rerunning everything",
                manifest_path.display()
            ),
            Err(e) => eprintln!("--resume: {e}; rerunning everything"),
        }
    }
    let completed: BTreeSet<String> = prior.as_ref().map(RunManifest::completed).unwrap_or_default();
    let (skipped, to_run): (Vec<String>, Vec<String>) = options
        .targets
        .iter()
        .cloned()
        .partition(|t| completed.contains(t));
    for id in &skipped {
        eprintln!("{id}: completed in previous run, skipping (--resume)");
    }

    // Parallelism goes to the outermost layer that can use it: with one
    // exhibit to run, the sweep inside it fans out over the engine; with
    // several, the exhibits themselves are the jobs (and sweep inside each
    // sequentially, keeping the thread count at --jobs).
    let (pool_workers, inner_jobs) = if to_run.len() <= 1 {
        (1, options.jobs)
    } else {
        (options.jobs.min(to_run.len()), 1)
    };
    let inner_config = options.config.with_jobs(inner_jobs);
    let tracing = options.trace.is_some();

    let mut set = JobSet::new(options.config.seed);
    for id in &to_run {
        let id = id.clone();
        set.push_seeded(id.clone(), options.config.seed, move |_seed| {
            render_one(&id, &inner_config, tracing)
        });
    }
    let report = Engine::new(ExecConfig::new(pool_workers)).run(set);

    // Commit phase: stdout and CSV files strictly in request order, then
    // the manifest. Failures never abort the commit of other exhibits.
    let mut manifest = RunManifest::new("repro", options.config.seed);
    // Only the pairs that determine the numbers go into config (the resume
    // equality check); the worker count is observability, recorded below.
    for (key, value) in &pairs {
        manifest.set_config(key, value.clone());
    }
    manifest.git = git_commit(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    manifest.workers = report.workers.len();
    manifest.elapsed_ms = report.elapsed.as_secs_f64() * 1e3;
    for id in &skipped {
        if let Some(record) = prior.as_ref().and_then(|m| m.job(id)) {
            manifest.push_record(record.clone());
        }
    }

    let mut failures: Vec<String> = Vec::new();
    // Traced units of every successful exhibit, in request (commit) order —
    // the lane layout is therefore independent of the worker count.
    let mut trace_units: Vec<(String, Vec<Event>)> = Vec::new();
    for outcome in &report.outcomes {
        let mut artifact = None;
        let status = match &outcome.result {
            Ok(rendered) => {
                println!("{}", rendered.text);
                for (unit, events) in &rendered.trace {
                    trace_units.push((format!("{}: {unit}", outcome.name), events.clone()));
                }
                match write_csv(&options, rendered)
                    .and_then(|csv| write_json(&out_dir, rendered).map(|json| csv.or(json)))
                {
                    Ok(written) => {
                        artifact = written;
                        JobStatus::Ok
                    }
                    Err(message) => {
                        eprintln!("{}: {message}", outcome.name);
                        JobStatus::Failed(message)
                    }
                }
            }
            Err(failure) => {
                eprintln!("{}: {failure}", outcome.name);
                JobStatus::Failed(failure.message.clone())
            }
        };
        if let JobStatus::Failed(_) = status {
            failures.push(outcome.name.clone());
        }
        manifest.push_record(JobRecord {
            id: outcome.id,
            name: outcome.name.clone(),
            seed: outcome.seed,
            status,
            wall_ms: outcome.stats.wall.as_secs_f64() * 1e3,
            queue_ms: outcome.stats.queue_wait.as_secs_f64() * 1e3,
            artifact,
        });
    }

    let mut trace_event_count = 0usize;
    if let Some(trace_path) = &options.trace {
        match write_trace(trace_path, trace_units, &report) {
            Ok(events) => trace_event_count = events,
            Err(message) => {
                eprintln!("--trace: {message}");
                failures.push("trace".to_string());
            }
        }
    }
    if options.metrics {
        print!("{}", run_metrics(&report, &failures, &skipped, trace_event_count).to_text());
    }

    match manifest.write_to(&out_dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write run manifest to {}: {e}", out_dir.display()),
    }
    eprintln!(
        "repro: {} ok, {} failed, {} skipped in {:.1} ms ({} worker(s), {:.0} % mean utilization)",
        report.ok_count(),
        failures.len(),
        skipped.len(),
        report.elapsed.as_secs_f64() * 1e3,
        report.workers.len(),
        report.mean_utilization() * 100.0
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failures.join(" "));
        ExitCode::FAILURE
    }
}

/// Assembles, validates and writes the Chrome trace file: deterministic
/// sim-clock units first (pids 1..), then the engine's wall-clock worker
/// lanes under [`WALL_PID`]. Returns the data-event count. Also prints the
/// sim lanes as an ASCII heatmap so the trace gets a first look in the
/// terminal.
fn write_trace(
    path: &std::path::Path,
    units: Vec<(String, Vec<Event>)>,
    report: &RunReport<Rendered>,
) -> Result<usize, String> {
    let sim_events: Vec<Event> = units.iter().flat_map(|(_, e)| e.iter().cloned()).collect();
    let mut trace: ChromeTrace = assemble_sim_trace(units);
    trace.name_process(WALL_PID, "abs-exec workers (wall clock)");
    let (wall_events, wall_lanes) = exec_report_lanes(report);
    for (tid, name) in wall_lanes {
        trace.name_thread(WALL_PID, tid, name);
    }
    trace.push_events(wall_events);
    let events = trace.len();

    let doc = trace.to_value();
    validate(&doc).map_err(|e| format!("internal error: invalid trace: {e}"))?;
    fs::write(path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} ({events} events)", path.display());
    if !sim_events.is_empty() {
        eprint!("{}", timeline(&sim_events, 64));
    }
    Ok(events)
}

/// Builds the `--metrics` snapshot from the execution report.
fn run_metrics(
    report: &RunReport<Rendered>,
    failures: &[String],
    skipped: &[String],
    trace_events: usize,
) -> abs_obs::metrics::Snapshot {
    let mut reg = Registry::new();
    reg.add("exhibits_ok", report.ok_count() as u64);
    reg.add("exhibits_failed", failures.len() as u64);
    reg.add("exhibits_skipped", skipped.len() as u64);
    reg.set_gauge("elapsed_ms", report.elapsed.as_secs_f64() * 1e3);
    reg.set_gauge("mean_utilization", report.mean_utilization());
    reg.set_gauge("workers", report.workers.len() as f64);
    if trace_events > 0 {
        reg.add("trace_events", trace_events as u64);
    }
    const WALL_BOUNDS: &[f64] = &[1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0];
    for outcome in &report.outcomes {
        reg.observe(
            "job_wall_ms",
            WALL_BOUNDS,
            outcome.stats.wall.as_secs_f64() * 1e3,
        );
    }
    reg.snapshot()
}

/// Writes the exhibit's CSV when `--csv` was requested; returns the
/// artifact name.
fn write_csv(options: &CliOptions, rendered: &Rendered) -> Result<Option<String>, String> {
    let (Some(dir), Some((name, data))) = (options.csv_dir.as_deref(), rendered.csv.as_ref())
    else {
        return Ok(None);
    };
    let path = dir.join(name);
    fs::write(&path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(Some(name.clone()))
}

/// Writes the exhibit's machine-readable JSON artifact (the open-loop
/// exhibits carry one) into the output directory; returns the artifact
/// name. Unlike CSV this needs no flag — the JSON *is* the exhibit's
/// data product.
fn write_json(out_dir: &std::path::Path, rendered: &Rendered) -> Result<Option<String>, String> {
    let Some((name, data)) = rendered.json.as_ref() else {
        return Ok(None);
    };
    let path = out_dir.join(name);
    fs::write(&path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(Some(name.clone()))
}
