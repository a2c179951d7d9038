//! Run sets and their comparison under the bounds in `BENCHMARK.json`.
//!
//! A set file holds the result objects of many runs, each tagged with
//! its workload and seed. `compare` takes two sets, and per workload and
//! metric reports each side's median and quartiles, and a verdict.

use std::collections::BTreeMap;

use abs_exec::json::Value;

use crate::stats;

/// How a metric may move: `bound` is the share of the first set's median
/// by which it may worsen (end-to-end metrics only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the median; `None` for per-layer
    /// metrics, which have no bound.
    pub bound: Option<f64>,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
}

/// Every metric's bound, read from the text of `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = Value::parse(benchmark_json)?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let metrics = doc
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("a {section} metric has no name"))?;
            let lower_is_better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                other => {
                    return Err(format!(
                        "{name}: better must be lower or higher, not {other:?}"
                    ))
                }
            };
            let bound = m.get("bound").and_then(Value::as_f64);
            out.insert(
                name.to_string(),
                Bound {
                    bound,
                    lower_is_better,
                },
            );
        }
    }
    Ok(out)
}

/// One run inside a set.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// The seed the run was given.
    pub seed: u64,
    /// The run's result object (`correct`, `attempted`, `failed`,
    /// `metrics`).
    pub result: Value,
}

/// Renders a set file.
pub fn render_set(seconds: f64, records: &[Record]) -> String {
    let runs = records
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("workload".into(), Value::Str(r.workload.clone())),
                ("seed".into(), Value::Str(r.seed.to_string())),
                ("result".into(), r.result.clone()),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("seconds".into(), Value::Num(seconds)),
        ("runs".into(), Value::Arr(runs)),
    ])
    .render_pretty()
}

/// A parsed set: every metric's values per workload, in run order, and
/// the runs that reported a failure.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunSet {
    /// `(workload, metric)` → one value per run.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// `workload seed` of every run that was not correct.
    pub failed_runs: Vec<String>,
}

/// Parses a set file.
pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let doc = Value::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("set file has no runs list")?;
    let mut set = RunSet::default();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        let seed = run.get("seed").and_then(Value::as_str).unwrap_or("?");
        let result = run.get("result").ok_or("run without a result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            set.failed_runs.push(format!("{workload} seed {seed}"));
        }
        if let Some(Value::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    set.values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(set)
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second median is within the bound and both spreads are too.
    Ok,
    /// The second median is worse than the first by more than the bound.
    Regression,
    /// A spread exceeds the bound, so the medians cannot show agreement;
    /// unless every second run beats every first run.
    Unresolved,
    /// No bound: reported, not judged.
    Unbounded,
}

impl Verdict {
    /// Label for the report.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// Judges `b` against `a` under `bound`.
pub fn verdict(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
    let Some(limit) = bound.bound else {
        return Verdict::Unbounded;
    };
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    if worsening(ma, mb, bound.lower_is_better) > limit {
        return Verdict::Regression;
    }
    let wide = |v: &[f64]| stats::spread(v).is_none_or(|s| s > limit);
    if wide(a) || wide(b) {
        let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    Verdict::Ok
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs()
}

/// One metric's summary line: median, quartiles and spread.
pub fn summary(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some([q1, med, q3]) => format!(
            "{med:.6} [{q1:.6}, {q3:.6}] spread {:.4}",
            stats::spread(values).unwrap_or(f64::NAN)
        ),
        None => format!(
            "{:.6} (n = {})",
            stats::median(values).unwrap_or(f64::NAN),
            values.len()
        ),
    }
}

/// Compares set `b` against set `a`: report lines and whether any
/// metric regressed or any run of `b` failed.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &BTreeMap<String, Bound>) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut regressed = !b.failed_runs.is_empty();
    for failed in &b.failed_runs {
        lines.push(format!("FAILED run in the second set: {failed}"));
    }
    for ((workload, metric), va) in &a.values {
        let Some(vb) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let bound = bounds.get(metric).copied().unwrap_or(Bound {
            bound: None,
            lower_is_better: true,
        });
        let v = verdict(va, vb, bound);
        regressed |= v == Verdict::Regression;
        let delta = match (stats::median(va), stats::median(vb)) {
            (Some(ma), Some(mb)) => worsening(ma, mb, bound.lower_is_better),
            _ => f64::NAN,
        };
        lines.push(format!(
            "{workload:<15} {metric:<40} A {}  B {}  worse by {:+.4} (bound {})  {}",
            summary(va),
            summary(vb),
            delta,
            bound.bound.map_or("-".to_string(), |x| x.to_string()),
            v.label()
        ));
    }
    (lines, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        bound: Some(0.1),
        lower_is_better: true,
    };

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * (f64::from(i) / 9.0 - 0.5)))
            .collect()
    }

    #[test]
    fn same_distribution_is_ok() {
        assert_eq!(
            verdict(&around(1.0, 0.02), &around(1.0, 0.02), LOWER),
            Verdict::Ok
        );
        // Within the bound: 5 % slower with a 10 % bound.
        assert_eq!(
            verdict(&around(1.0, 0.02), &around(1.05, 0.02), LOWER),
            Verdict::Ok
        );
    }

    #[test]
    fn slower_beyond_the_bound_is_a_regression() {
        assert_eq!(
            verdict(&around(1.0, 0.02), &around(1.2, 0.02), LOWER),
            Verdict::Regression
        );
        // Higher-is-better metrics regress downwards.
        let higher = Bound {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(
            verdict(&around(1.0, 0.02), &around(0.8, 0.02), higher),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&around(1.0, 0.02), &around(1.2, 0.02), higher),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        assert_eq!(
            verdict(&around(1.0, 0.5), &around(1.0, 0.5), LOWER),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&around(1.0, 0.5), &around(0.3, 0.5), LOWER),
            Verdict::Ok
        );
        assert_eq!(verdict(&[1.0], &[1.0], LOWER), Verdict::Unresolved);
    }

    #[test]
    fn per_layer_metrics_are_unbounded() {
        let none = Bound {
            bound: None,
            lower_is_better: true,
        };
        assert_eq!(verdict(&[1.0, 2.0], &[9.0, 9.0], none), Verdict::Unbounded);
    }

    #[test]
    fn sets_round_trip_and_compare() {
        let record = |seed, wall: f64, correct| {
            Record {
            workload: "w".into(),
            seed,
            result: Value::parse(&format!(
                r#"{{"correct": {correct}, "attempted": 1, "failed": 0, "metrics": {{"wall_s": {{"value": {wall}, "unit": "s"}}}}}}"#
            ))
            .unwrap(),
        }
        };
        let a = parse_set(&render_set(
            10.0,
            &[record(1, 1.0, true), record(2, 1.01, true)],
        ))
        .unwrap();
        assert_eq!(
            a.values[&("w".to_string(), "wall_s".to_string())],
            vec![1.0, 1.01]
        );
        let bounds = bounds(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}], "per_layer": []}"#,
        )
        .unwrap();
        assert!(!compare(&a, &a, &bounds).1);
        let slow = parse_set(&render_set(
            10.0,
            &[record(1, 2.0, true), record(2, 2.02, true)],
        ))
        .unwrap();
        assert!(compare(&a, &slow, &bounds).1);
        let failed = parse_set(&render_set(
            10.0,
            &[record(1, 1.0, false), record(2, 1.0, true)],
        ))
        .unwrap();
        assert_eq!(failed.failed_runs, vec!["w seed 1"]);
        assert!(compare(&a, &failed, &bounds).1);
    }
}
