//! Argument parsing for the `repro` binary, kept in the library so the
//! validation rules (target dedup, `--reps`/`--jobs` bounds) are unit
//! tested rather than exercised only by hand.

use std::path::PathBuf;

use abs_sim::Kernel;
use abs_trace::sched::SchedKind;

use crate::ReproConfig;

/// Every experiment id `repro` knows, in presentation order (`all` expands
/// to this list).
pub const IDS: &[&str] = &[
    "fig1", "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "hw", "sec71", "resource", "netback", "combining", "ablations", "single",
    "snoopy", "loadsweep", "fairness", "megasweep",
];

/// One-line descriptions per experiment id, in [`IDS`] order (`repro
/// --list` prints this table).
pub const EXHIBITS: &[(&str, &str)] = &[
    ("fig1", "Figure 1: invalidation histogram (Dir_i NB directory protocol)"),
    ("table1", "Table 1: invalidating references per application"),
    ("table2", "Table 2: uncached synchronization traffic"),
    ("table3", "Table 3: barrier arrival (A) and execution (E) intervals"),
    ("fig3", "Figure 3: barrier arrival distribution"),
    ("fig4", "Figure 4: analytic models vs simulation, no backoff"),
    ("fig5", "Figure 5: network accesses vs N, simultaneous arrival (A=0)"),
    ("fig6", "Figure 6: network accesses vs N, A=100"),
    ("fig7", "Figure 7: network accesses vs N, A=1000"),
    ("fig8", "Figure 8: waiting time vs N, simultaneous arrival (A=0)"),
    ("fig9", "Figure 9: waiting time vs N, A=100"),
    ("fig10", "Figure 10: waiting time vs N, A=1000"),
    ("hw", "Section 5.1: hardware barrier baselines"),
    ("sec71", "Section 7.1: average-traffic validation"),
    ("resource", "Section 8: adaptive backoff on resource waits"),
    ("netback", "Section 8: network backoff policies (hot-spot substrates)"),
    ("combining", "Section 8: combining-tree barriers"),
    ("ablations", "Ablations: arbitration policy, determinism, backoff cap"),
    ("single", "Sections 2 & 4: single-variable barrier"),
    ("snoopy", "Section 2.1: snoopy-bus contrast"),
    ("loadsweep", "Open loop: sync traffic and idle time vs offered load, per backoff policy"),
    ("fairness", "Open loop: per-tenant throughput/latency shares, per scheduler policy"),
    ("megasweep", "Mega-N: 5N/2 growth and backoff crossover at N = 4096..2^20, plus a combining-tree row"),
];

/// A fully validated `repro` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Repetition/seed/scale configuration (without `jobs` applied).
    pub config: ReproConfig,
    /// Directory to write per-exhibit CSV files into, if requested.
    pub csv_dir: Option<PathBuf>,
    /// Worker threads for the execution engine.
    pub jobs: usize,
    /// Skip exhibits recorded as completed in the run manifest.
    pub resume: bool,
    /// Write a Chrome trace-event JSON file of the run to this path.
    pub trace: Option<PathBuf>,
    /// Print a metrics snapshot of the run to stdout.
    pub metrics: bool,
    /// Deduplicated experiment ids, in first-mention order.
    pub targets: Vec<String>,
}

/// What `main` should do with the parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Run the targets.
    Run(CliOptions),
    /// Print help and exit successfully.
    Help,
    /// Print the exhibit table and exit successfully.
    List,
    /// Run the abs-insight analysis passes over a Chrome trace file
    /// (`repro analyze <trace.json> [--json]`).
    Analyze {
        /// The `--trace` output file to analyze.
        file: PathBuf,
        /// Also write `repro_out/analysis_<stem>.json`.
        json: bool,
    },
    /// Reject the invocation with this message.
    Error(String),
}

/// Parses the argument list (without the program name).
///
/// `default_jobs` seeds `--jobs` when the flag is absent; callers pass the
/// host's available parallelism.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I, default_jobs: usize) -> Parsed {
    let mut config = ReproConfig::paper();
    let mut csv_dir: Option<PathBuf> = None;
    let mut jobs = default_jobs.max(1);
    let mut resume = false;
    let mut trace: Option<PathBuf> = None;
    let mut metrics = false;
    let mut targets: Vec<String> = Vec::new();

    let mut args = args.into_iter().peekable();
    // `repro analyze <trace.json> [--json]` replays the abs-insight passes
    // over a previously written `--trace` file.
    if args.peek().map(String::as_str) == Some("analyze") {
        args.next();
        let mut file: Option<PathBuf> = None;
        let mut json = false;
        for arg in args {
            match arg.as_str() {
                "--json" => json = true,
                other if !other.starts_with('-') && file.is_none() => {
                    file = Some(PathBuf::from(other));
                }
                other => {
                    return Parsed::Error(format!(
                        "unknown analyze argument {other:?}; usage: repro analyze <trace.json> [--json]"
                    ));
                }
            }
        }
        let Some(file) = file else {
            return Parsed::Error(
                "analyze needs a trace file; usage: repro analyze <trace.json> [--json]".into(),
            );
        };
        return Parsed::Analyze { file, json };
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                // Preserve an earlier --reps/--seed override only if it was
                // explicitly given after --quick; flags are order-sensitive
                // like the original CLI.
                config = ReproConfig::quick();
            }
            "--reps" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u32>().ok()) else {
                    return Parsed::Error("--reps needs a positive integer".into());
                };
                if v == 0 {
                    return Parsed::Error(
                        "--reps 0 would aggregate nothing; use --reps 1 or more".into(),
                    );
                }
                config.reps = v;
            }
            "--seed" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    return Parsed::Error("--seed needs an integer".into());
                };
                config.seed = v;
            }
            "--jobs" => {
                let Some(v) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return Parsed::Error("--jobs needs a positive integer".into());
                };
                if v == 0 {
                    return Parsed::Error(
                        "--jobs 0 would run nothing; use --jobs 1 or more".into(),
                    );
                }
                jobs = v;
            }
            "--resume" => resume = true,
            "--csv" => {
                let Some(dir) = args.next() else {
                    return Parsed::Error("--csv needs a directory".into());
                };
                csv_dir = Some(PathBuf::from(dir));
            }
            "--trace" => {
                let Some(file) = args.next() else {
                    return Parsed::Error("--trace needs a file path".into());
                };
                trace = Some(PathBuf::from(file));
            }
            "--kernel" => {
                let Some(v) = args.next() else {
                    return Parsed::Error("--kernel needs a value: cycle or event".into());
                };
                match v.parse::<Kernel>() {
                    Ok(k) => config.kernel = k,
                    Err(e) => return Parsed::Error(e.to_string()),
                }
            }
            "--load" => {
                let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return Parsed::Error("--load needs a positive rate multiplier".into());
                };
                if v <= 0.0 || !v.is_finite() {
                    return Parsed::Error(
                        "--load 0 would offer no traffic; use a positive rate multiplier"
                            .into(),
                    );
                }
                // Stored as permille so ReproConfig stays Eq-comparable
                // for the --resume manifest check.
                #[expect(clippy::cast_possible_truncation, reason = "`as` saturates, which is the wanted clamp for an out-of-range value")]
                let permille = (v * 1000.0).round().max(1.0) as u64;
                config.load = Some(u32::try_from(permille).unwrap_or(u32::MAX));
            }
            "--tenants" => {
                let Some(v) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return Parsed::Error("--tenants needs a positive integer".into());
                };
                if v == 0 {
                    return Parsed::Error(
                        "--tenants 0 would offer no traffic; use --tenants 1 or more".into(),
                    );
                }
                config.tenants = v;
            }
            "--sched" => {
                let Some(v) = args.next() else {
                    return Parsed::Error("--sched needs a value: rr, prio or cfs".into());
                };
                match v.parse::<SchedKind>() {
                    Ok(s) => config.sched = Some(s),
                    Err(e) => return Parsed::Error(e.to_string()),
                }
            }
            "--metrics" => metrics = true,
            "--list" => return Parsed::List,
            "--help" | "-h" => return Parsed::Help,
            "all" => targets.extend(IDS.iter().map(|s| s.to_string())),
            other if IDS.contains(&other) => targets.push(other.to_string()),
            other => {
                return Parsed::Error(format!(
                    "unknown experiment {other:?}; known: {}",
                    IDS.join(" ")
                ));
            }
        }
    }
    if targets.is_empty() {
        return Parsed::Error("no experiments requested".into());
    }
    // --resume replays completed exhibits from the manifest without
    // re-running them, so a combined trace/metrics report would silently
    // cover only the remainder; reject the combination outright.
    if resume && trace.is_some() {
        return Parsed::Error(
            "--trace cannot be combined with --resume: skipped exhibits would be \
             missing from the trace; rerun without --resume"
                .into(),
        );
    }
    if resume && metrics {
        return Parsed::Error(
            "--metrics cannot be combined with --resume: skipped exhibits would be \
             missing from the metrics; rerun without --resume"
                .into(),
        );
    }
    dedup_preserving_order(&mut targets);
    Parsed::Run(CliOptions {
        config,
        csv_dir,
        jobs,
        resume,
        trace,
        metrics,
        targets,
    })
}

/// Drops later duplicates, keeping first-mention order (`repro all fig7`
/// runs `fig7` once, in its `all` position).
fn dedup_preserving_order(targets: &mut Vec<String>) {
    let mut seen = std::collections::BTreeSet::new();
    targets.retain(|t| seen.insert(t.clone()));
}

/// The help text.
pub fn help() -> String {
    format!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro [--quick] [--reps N] [--seed S] [--jobs N] [--kernel K] [--resume]\n\
        \x20            [--csv DIR] [--trace FILE] [--metrics]\n\
        \x20            [--load R] [--tenants N] [--sched P] <id>... | all\n\
        \x20       repro analyze <trace.json> [--json]\n\n\
         --jobs N    run exhibits on N worker threads (default: available\n\
        \x20            parallelism); output is bit-identical at any N\n\
         --kernel K  simulation kernel: event (default, skip-ahead) or\n\
        \x20            cycle (the reference oracle); results are\n\
        \x20            bit-identical under either\n\
         --resume    skip exhibits recorded as completed in repro_out/'s\n\
        \x20            run manifest (same seed/reps config required);\n\
        \x20            incompatible with --trace/--metrics\n\
         --trace F   write a Chrome trace-event JSON file (open in Perfetto\n\
        \x20            or chrome://tracing); sim lanes are seed-deterministic\n\
         --metrics   print a metrics snapshot of the run\n\
         --load R    open-loop exhibits only: scale every offered-load grid\n\
        \x20            point by R (positive rate multiplier)\n\
         --tenants N open-loop exhibits only: tenant population size\n\
         --sched P   open-loop exhibits only: restrict to one scheduler\n\
        \x20            policy (rr, prio or cfs; default runs all three)\n\
         --list      print the exhibit table (id + description) and exit\n\
         analyze     run the abs-insight passes (cycle attribution, barrier\n\
        \x20            episodes, per-tenant SLO timelines) over a --trace\n\
        \x20            file; --json also writes repro_out/analysis_<stem>.json\n\n\
         experiments: {}\n\
         (run `repro --list` for one-line descriptions)",
        IDS.join(" ")
    )
}

/// The `--list` table: every exhibit id with its one-line description.
pub fn list() -> String {
    let width = EXHIBITS.iter().map(|(id, _)| id.len()).max().unwrap_or(0);
    let mut out = String::from("exhibits:\n");
    for (id, description) in EXHIBITS {
        out.push_str(&format!("  {id:<width$}  {description}\n"));
    }
    out.push_str("\nkernels (--kernel): ");
    out.push_str(
        &Kernel::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.push_str("  (bit-identical; cycle is the reference oracle)\n");
    out.push_str("schedulers (--sched): ");
    out.push_str(
        &SchedKind::ALL
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.push_str("  (open-loop exhibits; default runs all three)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        parse_args(args.iter().map(|s| s.to_string()), 4)
    }

    fn options(args: &[&str]) -> CliOptions {
        match parse(args) {
            Parsed::Run(o) => o,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn all_expands_and_deduplicates() {
        let o = options(&["all", "fig7"]);
        assert_eq!(o.targets.len(), IDS.len());
        assert_eq!(o.targets.iter().filter(|t| *t == "fig7").count(), 1);
        // fig7 keeps its `all` position, not the trailing mention.
        assert_eq!(o.targets, IDS.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_explicit_targets_deduplicate() {
        let o = options(&["fig7", "fig5", "fig7"]);
        assert_eq!(o.targets, vec!["fig7", "fig5"]);
    }

    #[test]
    fn zero_reps_rejected() {
        assert_eq!(
            parse(&["--reps", "0", "fig7"]),
            Parsed::Error("--reps 0 would aggregate nothing; use --reps 1 or more".into())
        );
    }

    #[test]
    fn zero_jobs_rejected() {
        assert!(matches!(parse(&["--jobs", "0", "fig7"]), Parsed::Error(_)));
    }

    #[test]
    fn missing_flag_values_rejected() {
        assert!(matches!(parse(&["--reps"]), Parsed::Error(_)));
        assert!(matches!(parse(&["--jobs", "x", "fig7"]), Parsed::Error(_)));
        assert!(matches!(parse(&["--csv"]), Parsed::Error(_)));
    }

    #[test]
    fn unknown_target_rejected() {
        match parse(&["fig99"]) {
            Parsed::Error(msg) => assert!(msg.contains("fig99")),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn empty_invocation_is_an_error() {
        assert_eq!(parse(&[]), Parsed::Error("no experiments requested".into()));
    }

    #[test]
    fn defaults_and_flags() {
        let o = options(&["--quick", "--jobs", "2", "--resume", "--csv", "out", "fig5"]);
        assert_eq!(o.config.reps, ReproConfig::quick().reps);
        assert_eq!(o.jobs, 2);
        assert!(o.resume);
        assert_eq!(o.csv_dir, Some(PathBuf::from("out")));
        assert_eq!(o.targets, vec!["fig5"]);
    }

    #[test]
    fn default_jobs_comes_from_caller() {
        let o = options(&["fig5"]);
        assert_eq!(o.jobs, 4);
        assert!(!o.resume);
    }

    #[test]
    fn help_flag_wins() {
        assert_eq!(parse(&["--help"]), Parsed::Help);
        assert_eq!(parse(&["fig5", "-h"]), Parsed::Help);
    }

    #[test]
    fn ids_match_experiment_registry() {
        // Every id is unique.
        let mut sorted: Vec<_> = IDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), IDS.len());
    }

    #[test]
    fn exhibit_table_matches_ids() {
        let described: Vec<&str> = EXHIBITS.iter().map(|(id, _)| *id).collect();
        assert_eq!(described, IDS, "EXHIBITS must mirror IDS in order");
        assert!(EXHIBITS.iter().all(|(_, d)| !d.is_empty()));
    }

    #[test]
    fn list_prints_every_id() {
        let listing = list();
        for id in IDS {
            assert!(listing.contains(id), "missing {id} in --list output");
        }
        assert_eq!(parse(&["--list"]), Parsed::List);
        // --list wins even with targets present.
        assert_eq!(parse(&["fig5", "--list"]), Parsed::List);
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        let o = options(&["--trace", "t.json", "--metrics", "fig7"]);
        assert_eq!(o.trace, Some(PathBuf::from("t.json")));
        assert!(o.metrics);
        let o = options(&["fig7"]);
        assert_eq!(o.trace, None);
        assert!(!o.metrics);
        assert!(matches!(parse(&["--trace"]), Parsed::Error(_)));
    }

    #[test]
    fn trace_conflicts_with_resume() {
        match parse(&["--resume", "--trace", "t.json", "fig7"]) {
            Parsed::Error(msg) => assert!(msg.contains("--resume"), "{msg}"),
            other => panic!("expected error, got {other:?}"),
        }
        match parse(&["--metrics", "--resume", "fig7"]) {
            Parsed::Error(msg) => assert!(msg.contains("--resume"), "{msg}"),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn help_mentions_new_flags() {
        let h = help();
        for flag in ["--trace", "--metrics", "--list", "--kernel", "--load", "--tenants", "--sched"] {
            assert!(h.contains(flag), "help must mention {flag}");
        }
    }

    #[test]
    fn analyze_subcommand_parses() {
        assert_eq!(
            parse(&["analyze", "t.json"]),
            Parsed::Analyze {
                file: PathBuf::from("t.json"),
                json: false
            }
        );
        assert_eq!(
            parse(&["analyze", "t.json", "--json"]),
            Parsed::Analyze {
                file: PathBuf::from("t.json"),
                json: true
            }
        );
        // Missing file, second positional, and unknown flags are rejected.
        assert!(matches!(parse(&["analyze"]), Parsed::Error(_)));
        assert!(matches!(parse(&["analyze", "a.json", "b.json"]), Parsed::Error(_)));
        assert!(matches!(parse(&["analyze", "t.json", "--csv"]), Parsed::Error(_)));
        // Only the leading position makes it a subcommand.
        assert!(matches!(parse(&["fig7", "analyze"]), Parsed::Error(_)));
    }

    #[test]
    fn help_mentions_analyze() {
        assert!(help().contains("repro analyze"), "{}", help());
    }

    #[test]
    fn kernel_flag_parses() {
        assert_eq!(options(&["fig7"]).config.kernel, Kernel::Event);
        assert_eq!(
            options(&["--kernel", "cycle", "fig7"]).config.kernel,
            Kernel::Cycle
        );
        assert_eq!(
            options(&["--kernel", "event", "fig7"]).config.kernel,
            Kernel::Event
        );
    }

    #[test]
    fn unknown_kernel_rejected() {
        match parse(&["--kernel", "warp", "fig7"]) {
            Parsed::Error(msg) => {
                assert!(msg.contains("warp"), "{msg}");
                assert!(msg.contains("cycle"), "{msg}");
                assert!(msg.contains("event"), "{msg}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert!(matches!(parse(&["--kernel"]), Parsed::Error(_)));
    }

    #[test]
    fn load_flag_parses_to_permille() {
        let o = options(&["--load", "1.5", "loadsweep"]);
        assert_eq!(o.config.load, Some(1_500));
        assert_eq!(options(&["loadsweep"]).config.load, None);
        assert_eq!(options(&["--load", "0.25", "fairness"]).config.load, Some(250));
    }

    #[test]
    fn zero_or_bad_load_rejected() {
        assert_eq!(
            parse(&["--load", "0", "loadsweep"]),
            Parsed::Error(
                "--load 0 would offer no traffic; use a positive rate multiplier".into()
            )
        );
        assert!(matches!(parse(&["--load", "-2", "loadsweep"]), Parsed::Error(_)));
        assert!(matches!(parse(&["--load", "inf", "loadsweep"]), Parsed::Error(_)));
        assert!(matches!(parse(&["--load", "x", "loadsweep"]), Parsed::Error(_)));
        assert!(matches!(parse(&["--load"]), Parsed::Error(_)));
    }

    #[test]
    fn tenants_flag_parses_and_rejects_zero() {
        assert_eq!(options(&["--tenants", "7", "fairness"]).config.tenants, 7);
        assert_eq!(
            parse(&["--tenants", "0", "fairness"]),
            Parsed::Error(
                "--tenants 0 would offer no traffic; use --tenants 1 or more".into()
            )
        );
        assert!(matches!(parse(&["--tenants"]), Parsed::Error(_)));
    }

    #[test]
    fn sched_flag_parses() {
        assert_eq!(options(&["fairness"]).config.sched, None);
        assert_eq!(
            options(&["--sched", "rr", "fairness"]).config.sched,
            Some(SchedKind::RoundRobin)
        );
        assert_eq!(
            options(&["--sched", "prio", "fairness"]).config.sched,
            Some(SchedKind::StrictPriority)
        );
        assert_eq!(
            options(&["--sched", "cfs", "fairness"]).config.sched,
            Some(SchedKind::Cfs)
        );
    }

    #[test]
    fn unknown_sched_rejected() {
        match parse(&["--sched", "fifo", "fairness"]) {
            Parsed::Error(msg) => {
                assert!(msg.contains("fifo"), "{msg}");
                assert!(msg.contains("rr") && msg.contains("cfs"), "{msg}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert!(matches!(parse(&["--sched"]), Parsed::Error(_)));
    }

    #[test]
    fn list_mentions_kernels() {
        let listing = list();
        assert!(listing.contains("--kernel"), "{listing}");
        assert!(listing.contains("cycle"), "{listing}");
        assert!(listing.contains("event"), "{listing}");
        assert!(listing.contains("--sched"), "{listing}");
        assert!(listing.contains("cfs"), "{listing}");
    }
}
