//! Per-tenant SLO timelines for open-loop (`abs-load`) runs.
//!
//! The `fairness` exhibit's final tally can show *that* a tenant starved;
//! the timeline shows *when*: the run is split into equal windows and each
//! tenant gets a per-window completion count, admission count, mean queue
//! depth, and admission-wait quantiles — starvation appears as a tenant
//! whose completion sparkline flat-lines while its queue sparkline climbs.
//!
//! Inputs are the engine's own events: `admit` instants (args `tenant`,
//! `wait`), job spans (Begin args carry `tenant`; an End preceded by a
//! `truncated` instant was force-closed at the horizon and does not count
//! as a completion), and `tenantN_queue` counter samples (arg `jobs`).

use abs_exec::json::Value;
use abs_obs::trace::{Event, Phase};
use abs_sim::stats;
use abs_sim::table::{fmt_f64, Table};

use crate::attribution::OP_LABELS;

/// Glyph ramp for sparklines, dimmest first (mirrors `abs_obs::ascii`).
const RAMP: &[u8] = b" .:-=+*#%@";

/// One tenant × one time window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantWindow {
    /// Jobs admitted onto a processor in this window.
    pub admitted: u64,
    /// Jobs completed in this window.
    pub completed: u64,
    /// Sum and count of queue-depth samples in this window.
    pub queue_sum: f64,
    /// Number of queue-depth samples.
    pub queue_samples: u64,
    /// Admission waits of jobs admitted in this window.
    pub waits: Vec<f64>,
}

impl TenantWindow {
    /// Mean sampled queue depth in this window (0 when unsampled).
    pub fn mean_queue(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_sum / self.queue_samples as f64
        }
    }
}

/// One tenant's full timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSeries {
    /// The tenant index.
    pub tenant: usize,
    /// Total jobs admitted.
    pub admitted: u64,
    /// Total jobs completed (force-closed jobs excluded).
    pub completed: u64,
    /// Every admission wait, in admission order.
    pub waits: Vec<f64>,
    /// Per-window breakdown.
    pub windows: Vec<TenantWindow>,
}

impl TenantSeries {
    /// Median admission wait (nearest rank).
    pub fn p50_wait(&self) -> f64 {
        stats::p50(&self.waits)
    }

    /// 95th-percentile admission wait.
    pub fn p95_wait(&self) -> f64 {
        stats::p95(&self.waits)
    }

    /// 99th-percentile admission wait.
    pub fn p99_wait(&self) -> f64 {
        stats::p99(&self.waits)
    }
}

/// The per-tenant SLO timeline of one open-loop unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTimeline {
    /// The half-open cycle span `[start, end)` the windows cover.
    pub span: (u64, u64),
    /// Tenants, ascending by index; all hold the same window count.
    pub tenants: Vec<TenantSeries>,
}

impl SloTimeline {
    /// Number of time windows.
    pub fn windows(&self) -> usize {
        self.tenants.first().map_or(0, |t| t.windows.len())
    }

    /// The per-tenant summary table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "tenant",
            "admitted",
            "completed",
            "wait p50",
            "wait p95",
            "wait p99",
        ])
        .with_title(format!(
            "per-tenant SLO (cycles {}..{}, {} windows)",
            self.span.0,
            self.span.1,
            self.windows()
        ));
        for t in &self.tenants {
            table.add_row(vec![
                format!("t{}", t.tenant),
                t.admitted.to_string(),
                t.completed.to_string(),
                fmt_f64(t.p50_wait(), 1),
                fmt_f64(t.p95_wait(), 1),
                fmt_f64(t.p99_wait(), 1),
            ]);
        }
        table
    }

    /// Per-tenant sparklines: completions and mean queue depth per window,
    /// each scaled to its own maximum across all tenants.
    pub fn sparklines(&self) -> String {
        let max_done = self
            .tenants
            .iter()
            .flat_map(|t| t.windows.iter().map(|w| w.completed as f64))
            .fold(0.0f64, f64::max);
        let max_queue = self
            .tenants
            .iter()
            .flat_map(|t| t.windows.iter().map(TenantWindow::mean_queue))
            .fold(0.0f64, f64::max);
        let mut out = String::from("timeline (per window, dim→bright = low→high)\n");
        for t in &self.tenants {
            let done: String = t
                .windows
                .iter()
                .map(|w| ramp_glyph(w.completed as f64, max_done))
                .collect();
            let queue: String = t
                .windows
                .iter()
                .map(|w| ramp_glyph(w.mean_queue(), max_queue))
                .collect();
            out.push_str(&format!(
                "  t{} completions |{done}|  queue |{queue}|\n",
                t.tenant
            ));
        }
        out
    }

    /// The timeline as a JSON value (deterministic key order).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "span".to_string(),
                Value::Arr(vec![
                    Value::Num(self.span.0 as f64),
                    Value::Num(self.span.1 as f64),
                ]),
            ),
            ("windows".to_string(), Value::Num(self.windows() as f64)),
            (
                "tenants".to_string(),
                Value::Arr(self.tenants.iter().map(tenant_json).collect()),
            ),
        ])
    }
}

#[expect(clippy::cast_possible_truncation, reason = "the ramp index is at most RAMP.len() - 1")]
fn ramp_glyph(value: f64, max: f64) -> char {
    if max <= 0.0 || value <= 0.0 {
        return RAMP[0] as char;
    }
    let idx = ((value / max) * (RAMP.len() - 1) as f64).ceil() as usize;
    RAMP[idx.min(RAMP.len() - 1)] as char
}

fn tenant_json(t: &TenantSeries) -> Value {
    let series = |f: &dyn Fn(&TenantWindow) -> Value| {
        Value::Arr(t.windows.iter().map(f).collect())
    };
    Value::Obj(vec![
        ("tenant".to_string(), Value::Num(t.tenant as f64)),
        ("admitted".to_string(), Value::Num(t.admitted as f64)),
        ("completed".to_string(), Value::Num(t.completed as f64)),
        (
            "wait".to_string(),
            Value::Obj(vec![
                ("p50".to_string(), Value::Num(t.p50_wait())),
                ("p95".to_string(), Value::Num(t.p95_wait())),
                ("p99".to_string(), Value::Num(t.p99_wait())),
            ]),
        ),
        (
            "per_window".to_string(),
            Value::Obj(vec![
                (
                    "admitted".to_string(),
                    series(&|w| Value::Num(w.admitted as f64)),
                ),
                (
                    "completed".to_string(),
                    series(&|w| Value::Num(w.completed as f64)),
                ),
                (
                    "mean_queue".to_string(),
                    series(&|w| Value::Num(w.mean_queue())),
                ),
            ]),
        ),
    ])
}

/// Builds the per-tenant SLO timeline of one open-loop unit over `windows`
/// equal time windows.
///
/// # Errors
///
/// Returns a message when the unit holds no open-loop events.
#[expect(clippy::cast_possible_truncation, reason = "Chrome-trace timestamps, tids and tenant ids are whole and non-negative")]
pub fn slo_timeline(events: &[Event], windows: usize) -> Result<SloTimeline, String> {
    let windows = windows.max(1);
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for event in events {
        let ts = event.ts as u64;
        lo = lo.min(ts);
        hi = hi.max(ts);
    }
    if lo == u64::MAX {
        return Err("no events to build a timeline from".to_string());
    }
    let span = (lo, hi + 1);
    let window_of = |ts: u64| -> usize {
        (((ts - span.0) as u128 * windows as u128 / (span.1 - span.0) as u128) as usize)
            .min(windows - 1)
    };
    let mut tenants: Vec<TenantSeries> = Vec::new();
    let ensure = |tenants: &mut Vec<TenantSeries>, t: usize| {
        while tenants.len() <= t {
            tenants.push(TenantSeries {
                tenant: tenants.len(),
                admitted: 0,
                completed: 0,
                waits: Vec::new(),
                windows: vec![TenantWindow::default(); windows],
            });
        }
    };
    // Per-lane open-job tenant and pending force-close flag.
    let mut lane_tenant: Vec<Option<usize>> = Vec::new();
    let mut lane_truncated: Vec<bool> = Vec::new();
    let mut saw_open_loop = false;
    for event in events {
        let ts = event.ts as u64;
        let lane = event.tid as usize;
        if lane >= lane_tenant.len() {
            lane_tenant.resize(lane + 1, None);
            lane_truncated.resize(lane + 1, false);
        }
        let arg = |key: &str| {
            event
                .args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
        };
        match event.phase {
            Phase::Instant if event.name == "admit" => {
                saw_open_loop = true;
                let tenant = arg("tenant").unwrap_or(0.0) as usize;
                let wait = arg("wait").unwrap_or(0.0);
                ensure(&mut tenants, tenant);
                let w = window_of(ts);
                tenants[tenant].admitted += 1;
                tenants[tenant].waits.push(wait);
                tenants[tenant].windows[w].admitted += 1;
                tenants[tenant].windows[w].waits.push(wait);
            }
            Phase::Instant if event.name == "truncated" => lane_truncated[lane] = true,
            Phase::Begin if OP_LABELS.contains(&event.name.as_ref()) => {
                saw_open_loop = true;
                lane_tenant[lane] = arg("tenant").map(|t| t as usize);
            }
            Phase::End if OP_LABELS.contains(&event.name.as_ref()) => {
                let truncated = std::mem::replace(&mut lane_truncated[lane], false);
                if let Some(tenant) = lane_tenant[lane].take() {
                    if !truncated {
                        ensure(&mut tenants, tenant);
                        tenants[tenant].completed += 1;
                        tenants[tenant].windows[window_of(ts)].completed += 1;
                    }
                }
            }
            Phase::Counter => {
                if let Some(t) = event
                    .name
                    .strip_prefix("tenant")
                    .and_then(|rest| rest.strip_suffix("_queue"))
                    .and_then(|idx| idx.parse::<usize>().ok())
                {
                    saw_open_loop = true;
                    ensure(&mut tenants, t);
                    let w = &mut tenants[t].windows[window_of(ts)];
                    w.queue_sum += arg("jobs").unwrap_or(0.0);
                    w.queue_samples += 1;
                }
            }
            _ => {}
        }
    }
    if !saw_open_loop {
        return Err("no open-loop events (admit/job spans/tenant queues) in unit".to_string());
    }
    Ok(SloTimeline { span, tenants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_obs::trace::{Ring, TraceSink};

    fn two_tenant_unit() -> Vec<Event> {
        let mut ring = Ring::new(256);
        // Tenant 0 completes early; tenant 1 queues up and gets truncated.
        ring.instant(0, 0, "admit", &[("tenant", 0.0), ("wait", 0.0)]);
        ring.span_begin(0, 0, "faa", &[("tenant", 0.0)]);
        ring.span_end(0, 10, "faa", &[]);
        ring.counter(0, 10, "tenant1_queue", &[("jobs", 4.0)]);
        ring.instant(1, 50, "admit", &[("tenant", 1.0), ("wait", 30.0)]);
        ring.span_begin(1, 50, "rmw", &[("tenant", 1.0)]);
        ring.instant(1, 99, "truncated", &[]);
        ring.span_end(1, 99, "rmw", &[]);
        ring.into_events()
    }

    #[test]
    fn builds_timeline() {
        let slo = slo_timeline(&two_tenant_unit(), 4).unwrap();
        assert_eq!(slo.span, (0, 100));
        assert_eq!(slo.windows(), 4);
        assert_eq!(slo.tenants.len(), 2);
        let t0 = &slo.tenants[0];
        assert_eq!((t0.admitted, t0.completed), (1, 1));
        assert_eq!(t0.windows[0].completed, 1); // done @10 -> window 0
        let t1 = &slo.tenants[1];
        assert_eq!((t1.admitted, t1.completed), (1, 0)); // truncated
        assert_eq!(t1.p95_wait(), 30.0);
        assert_eq!(t1.windows[2].admitted, 1); // @50 of 100 -> window 2
        assert_eq!(t1.windows[0].queue_samples, 1);
        assert_eq!(t1.windows[0].mean_queue(), 4.0);
    }

    #[test]
    fn renders() {
        let slo = slo_timeline(&two_tenant_unit(), 4).unwrap();
        assert!(slo.to_table().to_string().contains("t1"));
        let spark = slo.sparklines();
        assert!(spark.contains("t0 completions"));
        assert!(slo.to_json().render().contains("per_window"));
    }

    #[test]
    fn non_open_loop_is_rejected() {
        let mut ring = Ring::new(8);
        ring.span_begin(0, 0, "barrier", &[]);
        ring.span_end(0, 5, "barrier", &[]);
        assert!(slo_timeline(&ring.into_events(), 4)
            .unwrap_err()
            .contains("no open-loop"));
    }
}
