//! Spans the benchmark records around its own calls into each layer.
//!
//! The chain is workload → pass → job → layer call. Spans live in memory
//! and are exported once, at the end, as a Chrome trace. A span's self
//! time is its duration minus the part its children cover.

use std::time::Instant;

use abs_obs::chrome::{ChromeTrace, WALL_PID};
use abs_obs::trace::{Event, Phase};

/// Lane of the thread that drives the engine (workload and pass spans).
pub const MAIN_LANE: u32 = 0;

/// Lane of the engine's single worker (job and layer-call spans).
pub const WORKER_LANE: u32 = 1;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id; a job's id is the `parent` of its layer calls.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer or phase name.
    pub name: &'static str,
    /// Thread lane.
    pub lane: u32,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Work done in the layer's unit (accesses, refs, ...), 0 if none.
    pub count: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Each span's self time: its duration minus its children's, clipped to
/// its own interval. Children of one parent never overlap (one worker).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let covered: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| {
                    c.end_ns
                        .min(s.end_ns)
                        .saturating_sub(c.start_ns.max(s.start_ns))
                })
                .sum();
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The spans as a wall-clock Chrome trace: one unit, one lane per
/// thread, `B`/`E` pairs nested per lane, with the span id, parent id and
/// count as arguments.
pub fn chrome(spans: &[Span], unit: &str) -> ChromeTrace {
    let mut events = Vec::with_capacity(spans.len() * 2);
    for lane in [MAIN_LANE, WORKER_LANE] {
        let mut order: Vec<&Span> = spans.iter().filter(|s| s.lane == lane).collect();
        // Parents start no later and end no earlier than their children.
        order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.id));
        let mut open: Vec<&Span> = Vec::new();
        for span in order {
            while let Some(top) = open.pop() {
                if top.end_ns > span.start_ns {
                    open.push(top);
                    break;
                }
                events.push(end_event(top));
            }
            let args = [
                ("span", span.id as f64),
                ("parent", span.parent.map_or(-1.0, |p| p as f64)),
                ("count", span.count as f64),
            ];
            events.push(
                Event::sim(lane, micros(span.start_ns), Phase::Begin, span.name).with_args(&args),
            );
            open.push(span);
        }
        while let Some(top) = open.pop() {
            events.push(end_event(top));
        }
    }
    let mut trace = ChromeTrace::new();
    trace.add_unit(WALL_PID, unit, events);
    trace.name_thread(WALL_PID, MAIN_LANE, "main");
    trace.name_thread(WALL_PID, WORKER_LANE, "engine worker");
    trace
}

fn end_event(span: &Span) -> Event {
    Event::sim(span.lane, micros(span.end_ns), Phase::End, span.name)
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, lane: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            lane,
            start_ns,
            end_ns,
            count: 0,
        }
    }

    fn tree() -> Vec<Span> {
        vec![
            span(1, None, MAIN_LANE, 0, 100),
            span(2, Some(1), MAIN_LANE, 10, 90),
            span(3, Some(2), WORKER_LANE, 10, 50),
            span(4, Some(3), WORKER_LANE, 12, 48),
            span(5, Some(2), WORKER_LANE, 50, 85),
            span(6, Some(5), WORKER_LANE, 50, 85),
        ]
    }

    #[test]
    fn self_times_telescope_to_the_root_span() {
        let spans = tree();
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 5, 4, 36, 0, 35]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn chrome_export_nests_per_lane_and_validates() {
        let trace = chrome(&tree(), "unit");
        let value = trace.to_value();
        abs_obs::chrome::validate(&value).unwrap();
        let rows = value.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let phases: String = rows
            .iter()
            .filter_map(|r| r.get("ph").and_then(|p| p.as_str()))
            .filter(|p| *p != "M")
            .collect();
        // Main lane: B1 B2 E2 E1; worker lane: B3 B4 E4 E3 B5 B6 E6 E5.
        assert_eq!(phases, "BBEEBBEEBBEE");
        assert_eq!(trace.len(), 12);
    }
}
