//! `abs-ledger`: the repository's benchmark.
//!
//! Four workloads drive the simulators through their public functions,
//! time every call from outside, check every result against committed
//! goldens and the cycle-kernel oracle, and print every metric by name
//! with its unit. The last line of a `run --workload` is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod compare;
mod golden;
mod probes;
mod runner;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use runner::Options;
use workload::{Scale, Workload, PAPER_SEED};

const USAGE: &str = "\
usage: abs-ledger run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
       abs-ledger set --out FILE [--runs N] [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
       abs-ledger compare A.json B.json [--bench BENCHMARK.json]
       abs-ledger goldens

run      one workload in this process (the last stdout line is its result
         object); without --workload, each workload in its own child process
set      N runs per workload, seeds S, S+1, ..., each in a child process,
         collected into a set file, with medians and quartiles printed
compare  the second set against the first under BENCHMARK.json's bounds;
         exits 1 on a regression or a failed run
goldens  rewrite goldens/ from one pass per workload at the golden seeds

workloads: barrier_paper barrier_mega coherence_apps net_openloop
defaults: --seed 428410373 (0x19890605, the paper's) --seconds 15 --trace 0 --runs 10";

/// Timed seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

/// Parsed command-line flags.
#[derive(Debug)]
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
    bench: PathBuf,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: PAPER_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 10,
        out: None,
        bench: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => flags.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                flags.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds needs a non-negative number, not {v:?}"))?;
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                let v = value()?;
                flags.runs = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--runs needs a positive count, not {v:?}"))?;
            }
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--bench" => flags.bench = PathBuf::from(value()?),
            "--smoke" => flags.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// A decimal or `0x`-prefixed hexadecimal seed.
fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("bad seed {text:?}"))
}

/// The flags a child run needs to repeat this one.
fn child_args(workload: Workload, seed: u64, flags: &Flags) -> Vec<String> {
    let mut args = vec![
        "run".to_string(),
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        flags.seconds.to_string(),
        "--trace".to_string(),
        if flags.trace { "1" } else { "0" }.to_string(),
    ];
    if flags.smoke {
        args.push("--smoke".to_string());
    }
    args
}

fn workloads(flags: &Flags) -> Vec<Workload> {
    flags.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

fn current_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let Some(workload) = flags.workload else {
        // One child process per workload, one at a time, so each
        // workload's peak memory is its own.
        let exe = current_exe()?;
        let mut ok = true;
        for w in Workload::ALL {
            let status = Command::new(&exe)
                .args(child_args(w, flags.seed, flags))
                .status()
                .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
            ok &= status.success();
        }
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };
    let report = runner::run(&Options {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        scale: if flags.smoke {
            Scale::SMOKE
        } else {
            Scale::PAPER
        },
    })?;
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result.render());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_set(flags: &Flags) -> Result<ExitCode, String> {
    let out = flags.out.as_ref().ok_or("set needs --out FILE")?;
    let exe = current_exe()?;
    let mut records = Vec::new();
    let mut ok = true;
    for w in workloads(flags) {
        for seed in (0..flags.runs).map(|i| flags.seed.wrapping_add(i)) {
            eprintln!("abs-ledger set: {} seed {seed}", w.name());
            let output = Command::new(&exe)
                .args(child_args(w, seed, flags))
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
            ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            match abs_exec::json::Value::parse(last) {
                Ok(result) => records.push(compare::Record {
                    workload: w.name().to_string(),
                    seed,
                    result,
                }),
                Err(e) => {
                    ok = false;
                    eprintln!(
                        "abs-ledger set: {} seed {seed} printed no result ({e})",
                        w.name()
                    );
                }
            }
        }
    }
    let text = compare::render_set(flags.seconds, &records);
    std::fs::write(out, &text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let set = compare::parse_set(&text)?;
    let bounds = std::fs::read_to_string(&flags.bench)
        .ok()
        .and_then(|t| compare::bounds(&t).ok())
        .unwrap_or_default();
    for ((workload, metric), values) in &set.values {
        let bound = bounds
            .get(metric)
            .and_then(|b| b.bound)
            .map_or("-".to_string(), |b| b.to_string());
        println!(
            "{workload:<15} {metric:<40} {}  bound {bound}",
            compare::summary(values)
        );
    }
    println!("wrote {} ({} runs)", out.display(), records.len());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(flags: &Flags) -> Result<ExitCode, String> {
    let [a, b] = flags.positional.as_slice() else {
        return Err("compare needs two set files".to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let bounds = compare::bounds(
        &std::fs::read_to_string(&flags.bench)
            .map_err(|e| format!("cannot read {}: {e}", flags.bench.display()))?,
    )?;
    let (lines, regressed) = compare::compare(
        &compare::parse_set(&read(a)?)?,
        &compare::parse_set(&read(b)?)?,
        &bounds,
    );
    for line in &lines {
        println!("{line}");
    }
    println!(
        "{}",
        if regressed {
            "REGRESSION"
        } else {
            "no regression"
        }
    );
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_goldens() -> Result<ExitCode, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens");
    for (name, text) in runner::goldens() {
        let path = dir.join(&name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => parse_flags(rest).and_then(|flags| match cmd.as_str() {
            "run" => cmd_run(&flags),
            "set" => cmd_set(&flags),
            "compare" => cmd_compare(&flags),
            "goldens" => cmd_goldens(),
            other => Err(format!("unknown command {other:?}")),
        }),
        None => Err("no command".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("abs-ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_style_flags_parse() {
        let f = parse_flags(&args(&[
            "--workload",
            "barrier_mega",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(f.workload, Some(Workload::BarrierMega));
        assert_eq!((f.seed, f.seconds, f.trace), (7, 12.0, true));
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("0x1989_0605"), Ok(PAPER_SEED));
        assert_eq!(parse_seed("428410373"), Ok(PAPER_SEED));
        assert!(parse_seed("-1").is_err());
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            &["--trace", "2"][..],
            &["--workload", "nope"],
            &["--seconds", "-1"],
            &["--runs", "0"],
            &["--frobnicate"],
            &["--seed"],
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
