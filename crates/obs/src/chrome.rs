//! Chrome trace-event export: render recorded [`Event`]s as a JSON
//! document loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! The value model is [`abs_exec::json::Value`], the workspace's in-tree
//! JSON implementation, so exported traces round-trip through the same
//! parser the run manifest uses. The document is the Chrome "JSON object
//! format": `{"traceEvents": [...], "displayTimeUnit": "ms"}` with one
//! object per event (`ph` ∈ `B`/`E`/`i`/`C` plus `M` metadata rows naming
//! processes and threads).
//!
//! Lane layout convention (see DESIGN §8): `pid` [`WALL_PID`] (0) is the
//! wall-clock unit holding one lane per `abs-exec` worker; `pid >= 1` are
//! simulated-clock units (one per traced episode), whose bytes must be
//! deterministic for a fixed seed. [`sim_lane_events`] splits the two
//! apart so tests can byte-compare only the deterministic lanes.

use abs_exec::json::Value;
use abs_exec::RunReport;

use crate::trace::{lane, Event, Phase};

/// The `pid` reserved for wall-clock lanes (`abs-exec` worker spans).
/// Simulated-clock units use `pid >= 1`.
pub const WALL_PID: u32 = 0;

/// A Chrome-trace document under assembly: events plus process/thread
/// naming metadata.
///
/// # Examples
///
/// ```
/// use abs_obs::chrome::ChromeTrace;
/// use abs_obs::trace::{Event, Phase};
///
/// let mut trace = ChromeTrace::new();
/// trace.add_unit(1, "episode", vec![
///     Event::sim(0, 0.0, Phase::Begin, "work"),
///     Event::sim(0, 5.0, Phase::End, "work"),
/// ]);
/// let value = trace.to_value();
/// assert!(abs_obs::chrome::validate(&value).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    events: Vec<Event>,
    process_names: Vec<(u32, String)>,
    thread_names: Vec<(u32, u32, String)>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a process (one timeline unit) in the trace viewer.
    pub fn name_process(&mut self, pid: u32, name: impl Into<String>) {
        self.process_names.push((pid, name.into()));
    }

    /// Names one lane of a process.
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        self.thread_names.push((pid, tid, name.into()));
    }

    /// Appends a named unit: remaps every event's `pid` to `pid` and
    /// records the process name.
    pub fn add_unit(&mut self, pid: u32, name: impl Into<String>, events: Vec<Event>) {
        self.name_process(pid, name);
        for mut event in events {
            event.pid = pid;
            self.events.push(event);
        }
    }

    /// Appends events without touching their `pid` (used for wall-clock
    /// worker lanes that already carry [`WALL_PID`]).
    pub fn push_events(&mut self, events: Vec<Event>) {
        self.events.extend(events);
    }

    /// Number of data (non-metadata) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no data events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Chrome JSON object: metadata rows first (process/thread
    /// names, in insertion order), then data events in insertion order.
    pub fn to_value(&self) -> Value {
        let mut rows = Vec::with_capacity(
            self.events.len() + self.process_names.len() + self.thread_names.len(),
        );
        for (pid, name) in &self.process_names {
            rows.push(metadata_row("process_name", *pid, 0, name));
        }
        for (pid, tid, name) in &self.thread_names {
            rows.push(metadata_row("thread_name", *pid, *tid, name));
        }
        for event in &self.events {
            rows.push(event_row(event));
        }
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(rows)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }

    /// Renders the document as pretty-printed JSON bytes.
    pub fn render(&self) -> String {
        self.to_value().render_pretty()
    }
}

fn metadata_row(kind: &str, pid: u32, tid: u32, name: &str) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str(kind.to_string())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::Num(f64::from(pid))),
        ("tid".into(), Value::Num(f64::from(tid))),
        (
            "args".into(),
            Value::Obj(vec![("name".into(), Value::Str(name.to_string()))]),
        ),
    ])
}

fn event_row(event: &Event) -> Value {
    let ph = match event.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
        Phase::Counter => "C",
    };
    let cat = if event.pid == WALL_PID { "wall" } else { "sim" };
    let mut row = vec![
        ("name".into(), Value::Str(event.name.to_string())),
        ("cat".into(), Value::Str(cat.into())),
        ("ph".into(), Value::Str(ph.into())),
        ("ts".into(), Value::Num(event.ts)),
        ("pid".into(), Value::Num(f64::from(event.pid))),
        ("tid".into(), Value::Num(f64::from(event.tid))),
    ];
    if event.phase == Phase::Instant {
        // Thread-scoped instants render as small arrows, not full-height
        // lines.
        row.push(("s".into(), Value::Str("t".into())));
    }
    if !event.args.is_empty() {
        let args = event
            .args
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v)))
            .collect();
        row.push(("args".into(), Value::Obj(args)));
    }
    Value::Obj(row)
}

/// Converts an `abs-exec` [`RunReport`] into wall-clock lanes: one lane
/// per worker ([`WALL_PID`], `tid` = worker index), one span per job with
/// the queue wait and success flag annotated. Returns the events plus
/// `(tid, name)` lane labels.
///
/// Wall-clock timestamps are inherently nondeterministic; they live only
/// in the trace file, mirroring the manifest's timing-fields rule
/// (DESIGN §7).
///
/// Events come out in per-lane execution order, not job-id order: under
/// work-stealing dispatch a worker's job ids are not monotone in time, so
/// the spans are sorted by `(lane, begin)` to keep each lane's timeline
/// valid.
pub fn exec_report_lanes<T>(report: &RunReport<T>) -> (Vec<Event>, Vec<(u32, String)>) {
    let mut events = Vec::with_capacity(report.outcomes.len() * 2);
    for outcome in &report.outcomes {
        let worker = lane(outcome.stats.worker);
        let begin = outcome.stats.queue_wait.as_secs_f64() * 1e6;
        let end = begin + outcome.stats.wall.as_secs_f64() * 1e6;
        let args = [
            ("queue_ms", outcome.stats.queue_wait.as_secs_f64() * 1e3),
            ("ok", if outcome.result.is_ok() { 1.0 } else { 0.0 }),
        ];
        let mut open = Event::sim(worker, begin, Phase::Begin, outcome.name.clone()).with_args(&args);
        open.pid = WALL_PID;
        let mut close = Event::sim(worker, end, Phase::End, outcome.name.clone());
        close.pid = WALL_PID;
        events.push(open);
        events.push(close);
    }
    // Begin/End pairs were pushed together, so sorting by (lane, ts) keeps
    // each span contiguous (a worker runs jobs back-to-back, never
    // overlapping) while restoring execution order within the lane.
    events.sort_by(|a, b| a.tid.cmp(&b.tid).then(a.ts.total_cmp(&b.ts)));
    let lanes = report
        .workers
        .iter()
        .map(|w| (lane(w.worker), format!("worker {}", w.worker)))
        .collect();
    (events, lanes)
}

/// Extracts only the simulated-clock rows (`pid != WALL_PID`, metadata
/// included) from a rendered trace document — the byte-deterministic
/// subset.
pub fn sim_lane_events(trace: &Value) -> Result<Value, String> {
    let rows = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let sim: Vec<Value> = rows
        .iter()
        .filter(|row| {
            row.get("pid").and_then(Value::as_f64).unwrap_or(-1.0) != f64::from(WALL_PID)
        })
        .cloned()
        .collect();
    Ok(Value::Arr(sim))
}

/// Structural validation of a rendered trace document: `traceEvents` is an
/// array; every row has a string `name`, a known `ph`, and numeric
/// `ts`/`pid`/`tid`; and within each `(pid, tid)` lane the data events'
/// timestamps never decrease.
pub fn validate(trace: &Value) -> Result<(), String> {
    let rows = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = std::collections::BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let ph = row
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("row {i}: missing ph"))?;
        if !matches!(ph, "B" | "E" | "i" | "C" | "M") {
            return Err(format!("row {i}: unknown phase {ph:?}"));
        }
        row.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("row {i}: missing name"))?;
        let pid = row
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("row {i}: missing pid"))?;
        let tid = row
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("row {i}: missing tid"))?;
        if ph == "M" {
            continue;
        }
        let ts = row
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("row {i}: missing ts"))?;
        let lane = (pid as u64, tid as u64);
        if let Some(&prev) = last_ts.get(&lane) {
            if ts < prev {
                return Err(format!(
                    "row {i}: ts {ts} goes backwards on lane pid={pid} tid={tid} (prev {prev})"
                ));
            }
        }
        last_ts.insert(lane, ts);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_exec::{Engine, ExecConfig, JobSet};

    fn sample_trace() -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.add_unit(
            1,
            "unit-a",
            vec![
                Event::sim(0, 0.0, Phase::Begin, "span").with_args(&[("k", 3.0)]),
                Event::sim(0, 4.0, Phase::Instant, "mark"),
                Event::sim(0, 9.0, Phase::End, "span"),
                Event::sim(7, 0.0, Phase::Counter, "queue").with_args(&[("depth", 2.0)]),
            ],
        );
        trace.name_thread(1, 0, "proc 0");
        trace
    }

    #[test]
    fn renders_and_roundtrips() {
        let trace = sample_trace();
        let rendered = trace.render();
        let back = Value::parse(&rendered).unwrap();
        assert_eq!(back, trace.to_value());
        validate(&back).unwrap();
        let rows = back.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 1 thread_name + 4 data events.
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(rows[2].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(rows[2].get("cat").unwrap().as_str(), Some("sim"));
    }

    #[test]
    fn add_unit_remaps_pid() {
        let trace = sample_trace();
        let value = trace.to_value();
        for row in value.get("traceEvents").unwrap().as_array().unwrap() {
            assert_eq!(row.get("pid").unwrap().as_f64(), Some(1.0));
        }
    }

    #[test]
    fn validate_rejects_backwards_time() {
        let mut trace = ChromeTrace::new();
        trace.add_unit(
            1,
            "bad",
            vec![
                Event::sim(0, 5.0, Phase::Instant, "a"),
                Event::sim(0, 2.0, Phase::Instant, "b"),
            ],
        );
        let err = validate(&trace.to_value()).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn sim_lanes_exclude_wall_pid() {
        let mut trace = sample_trace();
        let mut wall = Event::sim(0, 1.0, Phase::Instant, "wall-event");
        wall.pid = WALL_PID;
        trace.push_events(vec![wall]);
        let value = trace.to_value();
        let sim = sim_lane_events(&value).unwrap();
        let rows = sim.as_array().unwrap();
        assert!(rows
            .iter()
            .all(|r| r.get("pid").unwrap().as_f64() != Some(f64::from(WALL_PID))));
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn exec_lanes_are_valid_wall_spans() {
        let mut set = JobSet::new(1);
        for i in 0..4u64 {
            set.push(format!("job{i}"), move |s| s.wrapping_add(i));
        }
        let report = Engine::new(ExecConfig::new(2)).run(set);
        let (events, lanes) = exec_report_lanes(&report);
        assert_eq!(events.len(), 8);
        assert!(events.iter().all(|e| e.pid == WALL_PID));
        assert_eq!(lanes.len(), report.workers.len());
        let mut trace = ChromeTrace::new();
        trace.name_process(WALL_PID, "abs-exec workers");
        for (tid, name) in lanes {
            trace.name_thread(WALL_PID, tid, name);
        }
        trace.push_events(events);
        validate(&trace.to_value()).unwrap();
    }
}
