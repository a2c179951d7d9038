//! Chrome-trace JSON import: the inverse of `abs_obs::chrome` export,
//! close enough for analysis.
//!
//! `repro --trace` writes one Chrome document holding several *units*
//! (traced episodes), each under its own `pid` (1-based; `pid` 0 is the
//! reserved wall-clock lane group, which analysis skips). This module
//! reads such a document back into `(unit name, events)` pairs shaped
//! like `abs_bench`'s `sim_trace` output, so the analysis passes run the
//! same way on a live ring or a file from disk.
//!
//! One lossy corner: [`abs_obs::trace::Event`] argument keys are
//! `&'static str`, so imported keys are interned against the fixed
//! vocabulary the simulators emit ([`ARG_KEYS`]); rows with unknown
//! argument keys keep the event but drop that argument. Analysis only
//! reads known keys, so nothing it needs is lost.

use std::collections::BTreeMap;

use abs_exec::json::Value;
use abs_obs::chrome::WALL_PID;
use abs_obs::trace::{Event, Phase};

/// Every argument key the instrumented simulators emit. Imported args
/// with other keys are dropped (see module docs).
pub const ARG_KEYS: [&str; 16] = [
    "accesses",
    "attempts",
    "collisions",
    "count",
    "depth",
    "fanout",
    "held",
    "jobs",
    "polls",
    "procs",
    "tenant",
    "throttle",
    "wait",
    "waiters",
    "waiting",
    "wins",
];

/// Clamps a Chrome-trace id (a JSON number) into the `u32` lane space:
/// negative values floor at 0, oversized ones saturate at `u32::MAX`.
#[expect(clippy::cast_possible_truncation, reason = "`as` saturates, which is the wanted clamp for an out-of-range value")]
fn id_u32(v: f64) -> u32 {
    u32::try_from(v as u64).unwrap_or(u32::MAX)
}

fn intern(key: &str) -> Option<&'static str> {
    ARG_KEYS.iter().find(|&&k| k == key).copied()
}

/// Parses a rendered Chrome trace document back into `(unit name, events)`
/// pairs, ascending by `pid` (the exporter's unit order). Wall-clock rows
/// (`pid` == [`WALL_PID`]) are skipped.
///
/// # Errors
///
/// Returns a message when the document is not a Chrome trace (`traceEvents`
/// missing), a row is malformed, or a phase is unknown.
pub fn import_chrome(doc: &Value) -> Result<Vec<(String, Vec<Event>)>, String> {
    let rows = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array (not a Chrome trace document?)".to_string())?;
    let mut names: BTreeMap<u32, String> = BTreeMap::new();
    let mut units: BTreeMap<u32, Vec<Event>> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let field_f64 = |key: &str| {
            row.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("row {i}: missing numeric {key:?}"))
        };
        let ph = row
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("row {i}: missing ph"))?;
        let pid = id_u32(field_f64("pid")?);
        if ph == "M" {
            if row.get("name").and_then(Value::as_str) == Some("process_name") {
                if let Some(name) = row
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                {
                    names.insert(pid, name.to_string());
                }
            }
            continue;
        }
        if pid == WALL_PID {
            continue;
        }
        let phase = match ph {
            "B" => Phase::Begin,
            "E" => Phase::End,
            "i" => Phase::Instant,
            "C" => Phase::Counter,
            other => return Err(format!("row {i}: unknown phase {other:?}")),
        };
        let name = row
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("row {i}: missing name"))?
            .to_string();
        let mut event = Event::sim(id_u32(field_f64("tid")?), field_f64("ts")?, phase, name);
        if let Some(Value::Obj(args)) = row.get("args") {
            for (key, value) in args {
                if let (Some(key), Some(value)) = (intern(key), value.as_f64()) {
                    event.args.push((key, value));
                }
            }
        }
        units.entry(pid).or_default().push(event);
    }
    Ok(units
        .into_iter()
        .map(|(pid, events)| {
            let name = names.remove(&pid).unwrap_or_else(|| format!("unit {pid}"));
            (name, events)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_obs::chrome::ChromeTrace;
    use abs_obs::trace::{Ring, TraceSink};

    fn round_trip_doc() -> Value {
        let mut ring = Ring::new(64);
        ring.span_begin(0, 10, "barrier", &[]);
        ring.span_begin(0, 10, "var", &[("accesses", 1.0), ("count", 1.0)]);
        ring.span_end(0, 12, "var", &[]);
        ring.instant(0, 13, "poll-miss", &[("polls", 1.0)]);
        ring.counter(1, 12, "var_queue", &[("waiters", 1.0)]);
        ring.span_end(0, 20, "barrier", &[]);
        let mut trace = ChromeTrace::new();
        trace.add_unit(1, "A=0 without backoff", ring.into_events());
        trace.to_value()
    }

    #[test]
    fn round_trips_exported_units() {
        let doc = round_trip_doc();
        let units = import_chrome(&doc).unwrap();
        assert_eq!(units.len(), 1);
        let (name, events) = &units[0];
        assert_eq!(name, "A=0 without backoff");
        assert_eq!(events.len(), 6);
        assert_eq!(events[0].phase, Phase::Begin);
        assert_eq!(events[1].args, vec![("accesses", 1.0), ("count", 1.0)]);
        assert_eq!(events[4].phase, Phase::Counter);
        assert_eq!(events[4].args, vec![("waiters", 1.0)]);
    }

    #[test]
    fn skips_wall_lanes_and_unknown_args() {
        let doc = Value::parse(
            r#"{"traceEvents": [
                {"name": "exec", "cat": "wall", "ph": "B", "ts": 1, "pid": 0, "tid": 0},
                {"name": "x", "cat": "sim", "ph": "i", "ts": 2, "pid": 3, "tid": 1,
                 "args": {"tenant": 2, "mystery": 9}}
            ]}"#,
        )
        .unwrap();
        let units = import_chrome(&doc).unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].0, "unit 3");
        assert_eq!(units[0].1[0].args, vec![("tenant", 2.0)]);
    }

    #[test]
    fn rejects_non_trace_documents() {
        let doc = Value::parse(r#"{"runner": "kernel_speedup", "points": []}"#).unwrap();
        assert!(import_chrome(&doc).unwrap_err().contains("traceEvents"));
        let doc = Value::parse(r#"{"traceEvents": [{"ph": "Z", "pid": 1}]}"#).unwrap();
        assert!(import_chrome(&doc).unwrap_err().contains("unknown phase"));
    }
}
