//! The cycle-attribution pass: where every simulated processor-cycle went.
//!
//! Given the trace events of one unit (one traced barrier episode or one
//! open-loop run), the pass tiles every processor lane's analysis window
//! with disjoint half-open [`Segment`]s, each labelled with a [`Bucket`].
//! Because the tiling is built by *carving* sub-intervals out of a filler
//! that always covers the remainder, the conservation invariant
//!
//! > per-processor bucket totals sum **exactly** to the window length, and
//! > the report totals sum exactly to `window length × processors`
//!
//! holds by construction — [`Attribution::conserved`] re-checks it
//! defensively and the report refuses to render as conserved otherwise.
//!
//! # Bucket semantics
//!
//! | bucket | barrier lanes | open-loop lanes |
//! |---|---|---|
//! | work | cycles outside the `barrier` span (compute phase) | cycles between a `sync-win` instant (exclusive) and job completion |
//! | spin-poll | residual inside `barrier`: polling the counter/flag | residual inside a job span: sync-op attempt cycles |
//! | backoff-wait | `backoff` spans and post-`park` quiescence | `backoff` spans between failed attempts |
//! | queue-stall | `var` and `flag-write` spans (module arbitration) | — (admission wait lives in the SLO timeline) |
//! | net-transit | — (the dance-hall network is one cycle, folded into the access) | `rmw-read` load cycles of CAS read-modify-write ops |
//! | idle | — (every barrier processor is always in some phase) | cycles with no admitted job on the processor |
//!
//! Span interval conventions follow the emitters: barrier `var` /
//! `flag-write` spans are closed on both ends (the End cycle is the serve
//! cycle, which the access consumes), `backoff` spans and open-loop job
//! spans are half-open (the End cycle belongs to the successor), and a job
//! force-closed at the horizon (flagged by a `truncated` instant) is
//! extended through the horizon cycle so occupancy matches the engine's
//! busy/idle accounting exactly.

use std::collections::BTreeMap;

use abs_exec::json::Value;
use abs_obs::trace::{Event, Phase};
use abs_sim::table::{fmt_percent, Table};

/// Open-loop job-span names, as emitted by `abs_load` (`OpKind::label`).
pub(crate) const OP_LABELS: [&str; 3] = ["faa", "spin", "rmw"];

/// Where a processor-cycle went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    /// Useful work: compute phase (barrier) or admitted-job service.
    Work,
    /// Spin-polling a synchronization variable (network accesses).
    SpinPoll,
    /// Waiting out a backoff delay (or parked): no network traffic.
    BackoffWait,
    /// Queued at a memory module waiting for arbitration.
    QueueStall,
    /// In flight on the interconnect (read legs of read-modify-write).
    NetTransit,
    /// No job admitted on this processor.
    Idle,
}

impl Bucket {
    /// All buckets, in report order.
    pub const ALL: [Bucket; 6] = [
        Bucket::Work,
        Bucket::SpinPoll,
        Bucket::BackoffWait,
        Bucket::QueueStall,
        Bucket::NetTransit,
        Bucket::Idle,
    ];

    /// Number of buckets (the length of per-lane totals arrays).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake-case name used in tables and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Work => "work",
            Bucket::SpinPoll => "spin_poll",
            Bucket::BackoffWait => "backoff_wait",
            Bucket::QueueStall => "queue_stall",
            Bucket::NetTransit => "net_transit",
            Bucket::Idle => "idle",
        }
    }

    /// One-character glyph used by the lane heatmap.
    pub fn glyph(self) -> char {
        match self {
            Bucket::Work => 'W',
            Bucket::SpinPoll => 's',
            Bucket::BackoffWait => 'b',
            Bucket::QueueStall => 'q',
            Bucket::NetTransit => 'n',
            Bucket::Idle => '.',
        }
    }

    fn index(self) -> usize {
        match self {
            Bucket::Work => 0,
            Bucket::SpinPoll => 1,
            Bucket::BackoffWait => 2,
            Bucket::QueueStall => 3,
            Bucket::NetTransit => 4,
            Bucket::Idle => 5,
        }
    }
}

/// The kind of traced unit the pass recognized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A `BarrierSim` episode (`barrier`/`var`/`flag-write` spans).
    Barrier,
    /// An `OpenLoopSim` run (`faa`/`spin`/`rmw` job spans, `admit` instants).
    OpenLoop,
}

impl UnitKind {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            UnitKind::Barrier => "barrier",
            UnitKind::OpenLoop => "open-loop",
        }
    }
}

/// Attribution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Analysis window as half-open cycles `[start, end)`. Defaults to the
    /// tight span of the unit's events (`min ts ..= max ts`).
    pub window: Option<(u64, u64)>,
    /// Number of processor lanes. Defaults to the lanes observed in the
    /// trace; pass a larger count to include fully-idle processors.
    pub procs: Option<usize>,
}

/// One attributed half-open cycle interval `[from, to)` on one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First cycle of the interval.
    pub from: u64,
    /// One past the last cycle of the interval.
    pub to: u64,
    /// Where those cycles went.
    pub bucket: Bucket,
}

impl Segment {
    /// Interval length in cycles.
    pub fn len(&self) -> u64 {
        self.to.saturating_sub(self.from)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.to <= self.from
    }
}

/// One processor lane's attribution: a disjoint tiling of the window.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneAttribution {
    /// The processor (trace `tid`).
    pub proc: u32,
    /// Sorted, disjoint segments tiling the window exactly.
    pub segments: Vec<Segment>,
    /// Cycles per bucket, indexed like [`Bucket::ALL`].
    pub totals: [u64; Bucket::COUNT],
}

impl LaneAttribution {
    /// Total attributed cycles (equals the window length when conserved).
    pub fn total(&self) -> u64 {
        self.totals.iter().sum()
    }
}

/// The attribution report for one traced unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// What the pass recognized the unit as.
    pub kind: UnitKind,
    /// The half-open analysis window `[start, end)` in cycles.
    pub window: (u64, u64),
    /// Per-processor lanes, ascending by `proc`.
    pub lanes: Vec<LaneAttribution>,
    /// Cycles per bucket summed over all lanes, indexed like [`Bucket::ALL`].
    pub totals: [u64; Bucket::COUNT],
}

impl Attribution {
    /// Window length in cycles.
    pub fn cycles(&self) -> u64 {
        self.window.1 - self.window.0
    }

    /// Number of processor lanes.
    pub fn procs(&self) -> usize {
        self.lanes.len()
    }

    /// Total cycles in one bucket.
    pub fn bucket(&self, bucket: Bucket) -> u64 {
        self.totals[bucket.index()]
    }

    /// Fraction of all cycles in one bucket.
    pub fn share(&self, bucket: Bucket) -> f64 {
        let all = self.cycles().saturating_mul(self.procs() as u64);
        if all == 0 {
            0.0
        } else {
            self.bucket(bucket) as f64 / all as f64
        }
    }

    /// The conservation invariant: every lane's buckets sum exactly to the
    /// window length, so the grand total is `cycles × procs`.
    pub fn conserved(&self) -> bool {
        let cycles = self.cycles();
        self.lanes.iter().all(|lane| lane.total() == cycles)
            && self.totals.iter().sum::<u64>() == cycles.saturating_mul(self.procs() as u64)
    }

    /// The per-processor bucket table, with an `all` summary row.
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["proc".to_string()];
        headers.extend(Bucket::ALL.iter().map(|b| b.name().to_string()));
        headers.push("total".to_string());
        let mut table = Table::new(headers).with_title(format!(
            "cycle attribution ({}, cycles {}..{}, {} procs)",
            self.kind.name(),
            self.window.0,
            self.window.1,
            self.procs()
        ));
        for lane in &self.lanes {
            let mut row = vec![format!("p{}", lane.proc)];
            row.extend(lane.totals.iter().map(u64::to_string));
            row.push(lane.total().to_string());
            table.add_row(row);
        }
        let mut row = vec!["all".to_string()];
        row.extend(self.totals.iter().map(u64::to_string));
        row.push(self.totals.iter().sum::<u64>().to_string());
        table.add_row(row);
        let mut row = vec!["share".to_string()];
        row.extend(Bucket::ALL.iter().map(|&b| fmt_percent(self.share(b))));
        row.push(fmt_percent(1.0));
        table.add_row(row);
        table
    }

    /// An ASCII lane×time heatmap: one row per processor, one column per
    /// `cycles/width` slice, each cell the glyph of the slice's dominant
    /// bucket. At most `max_lanes` lanes are drawn.
    pub fn heatmap(&self, width: usize, max_lanes: usize) -> String {
        let width = width.max(1);
        let mut out = String::new();
        out.push_str(
            "lanes (W work · s spin-poll · b backoff · q queue-stall · n transit · . idle)\n",
        );
        let label_width = self
            .lanes
            .iter()
            .take(max_lanes)
            .map(|l| format!("p{}", l.proc).len())
            .max()
            .unwrap_or(2);
        for lane in self.lanes.iter().take(max_lanes) {
            let label = format!("p{}", lane.proc);
            out.push_str(&format!("  {label:>label_width$} |"));
            for col in 0..width {
                out.push(self.cell_glyph(lane, col, width));
            }
            out.push_str("|\n");
        }
        if self.lanes.len() > max_lanes {
            out.push_str(&format!(
                "  … ({} more lanes)\n",
                self.lanes.len() - max_lanes
            ));
        }
        out
    }

    /// The dominant bucket's glyph for one heatmap cell.
    #[expect(clippy::cast_possible_truncation, reason = "each bound lies inside the u64 window")]
    fn cell_glyph(&self, lane: &LaneAttribution, col: usize, width: usize) -> char {
        let (w0, w1) = self.window;
        let len = (w1 - w0) as u128;
        let from = w0 + (len * col as u128 / width as u128) as u64;
        let to = w0 + (len * (col as u128 + 1) / width as u128) as u64;
        if to <= from {
            return ' ';
        }
        let mut overlap = [0u64; Bucket::COUNT];
        for seg in &lane.segments {
            let lo = seg.from.max(from);
            let hi = seg.to.min(to);
            if hi > lo {
                overlap[seg.bucket.index()] += hi - lo;
            }
        }
        // Ties break toward the earlier bucket in report order.
        let mut best = Bucket::Idle;
        let mut best_cycles = 0;
        for &bucket in &Bucket::ALL {
            if overlap[bucket.index()] > best_cycles {
                best = bucket;
                best_cycles = overlap[bucket.index()];
            }
        }
        if best_cycles == 0 {
            ' '
        } else {
            best.glyph()
        }
    }

    /// The report as a JSON value (deterministic key order).
    pub fn to_json(&self) -> Value {
        let bucket_obj = |totals: &[u64; Bucket::COUNT]| {
            Value::Obj(
                Bucket::ALL
                    .iter()
                    .map(|&b| (b.name().to_string(), Value::Num(totals[b.index()] as f64)))
                    .collect(),
            )
        };
        Value::Obj(vec![
            ("kind".to_string(), Value::Str(self.kind.name().to_string())),
            (
                "window".to_string(),
                Value::Arr(vec![
                    Value::Num(self.window.0 as f64),
                    Value::Num(self.window.1 as f64),
                ]),
            ),
            ("cycles".to_string(), Value::Num(self.cycles() as f64)),
            ("procs".to_string(), Value::Num(self.procs() as f64)),
            ("conserved".to_string(), Value::Bool(self.conserved())),
            ("totals".to_string(), bucket_obj(&self.totals)),
            (
                "shares".to_string(),
                Value::Obj(
                    Bucket::ALL
                        .iter()
                        .map(|&b| (b.name().to_string(), Value::Num(self.share(b))))
                        .collect(),
                ),
            ),
            (
                "lanes".to_string(),
                Value::Arr(
                    self.lanes
                        .iter()
                        .map(|lane| {
                            Value::Obj(vec![
                                ("proc".to_string(), Value::Num(lane.proc as f64)),
                                ("buckets".to_string(), bucket_obj(&lane.totals)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A paired span on one lane, in cycles.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub(crate) name: String,
    pub(crate) begin: u64,
    pub(crate) end: u64,
}

/// An instant marker on one lane, in cycles.
#[derive(Debug, Clone)]
pub(crate) struct Marker {
    pub(crate) name: String,
    pub(crate) ts: u64,
}

/// One lane's paired structure: spans plus instants, document order.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    pub(crate) spans: Vec<Span>,
    pub(crate) markers: Vec<Marker>,
}

/// Runs the attribution pass over one unit's events.
///
/// Counter events never contribute lane structure (counter lanes share or
/// extend the processor `tid` space); only Begin/End/Instant events do.
///
/// # Errors
///
/// Returns a message when the unit holds no attributable events, mixes
/// barrier and open-loop vocabulary, or has unbalanced spans (e.g. a ring
/// that dropped its oldest events).
pub fn attribute(events: &[Event], opts: &Options) -> Result<Attribution, String> {
    let lanes = pair_lanes(events)?;
    let kind = detect_kind(&lanes)?;
    let window = match opts.window {
        Some((w0, w1)) if w1 > w0 => (w0, w1),
        Some(w) => return Err(format!("empty analysis window {w:?}")),
        None => derive_window(events).ok_or("no events to derive an analysis window from")?,
    };
    let procs = opts
        .procs
        .unwrap_or(0)
        .max(lanes.keys().next_back().map_or(0, |&t| t as usize + 1));
    let mut out_lanes = Vec::with_capacity(procs);
    let empty = Lane::default();
    for proc in 0..u32::try_from(procs).unwrap_or(u32::MAX) {
        let lane = lanes.get(&proc).unwrap_or(&empty);
        let segments = match kind {
            UnitKind::Barrier => barrier_lane(lane, window),
            UnitKind::OpenLoop => open_loop_lane(lane, window),
        };
        let mut totals = [0u64; Bucket::COUNT];
        for seg in &segments {
            totals[seg.bucket.index()] += seg.len();
        }
        out_lanes.push(LaneAttribution {
            proc,
            segments,
            totals,
        });
    }
    let mut totals = [0u64; Bucket::COUNT];
    for lane in &out_lanes {
        for (sum, cycles) in totals.iter_mut().zip(lane.totals.iter()) {
            *sum += cycles;
        }
    }
    let report = Attribution {
        kind,
        window,
        lanes: out_lanes,
        totals,
    };
    if !report.conserved() {
        return Err("attribution lost cycles: bucket sums do not tile the window".to_string());
    }
    Ok(report)
}

/// The tight `[min ts, max ts + 1)` window over all events.
#[expect(clippy::cast_possible_truncation, reason = "Chrome-trace timestamps are whole, non-negative cycle counts")]
fn derive_window(events: &[Event]) -> Option<(u64, u64)> {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for event in events {
        let ts = event.ts as u64;
        lo = lo.min(ts);
        hi = hi.max(ts);
    }
    if lo == u64::MAX {
        None
    } else {
        Some((lo, hi + 1))
    }
}

/// Groups data events by lane and pairs Begin/End spans via a name stack.
pub(crate) fn pair_lanes(events: &[Event]) -> Result<BTreeMap<u32, Lane>, String> {
    let mut lanes: BTreeMap<u32, Lane> = BTreeMap::new();
    let mut stacks: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for event in events {
        #[expect(clippy::cast_possible_truncation, reason = "Chrome-trace timestamps are whole, non-negative cycle counts")]
        let ts = event.ts as u64;
        match event.phase {
            Phase::Counter => {}
            Phase::Instant => lanes.entry(event.tid).or_default().markers.push(Marker {
                name: event.name.to_string(),
                ts,
            }),
            Phase::Begin => stacks.entry(event.tid).or_default().push(Span {
                name: event.name.to_string(),
                begin: ts,
                end: ts,
            }),
            Phase::End => {
                let open = stacks.entry(event.tid).or_default().pop();
                match open {
                    Some(mut span) if span.name == event.name => {
                        span.end = ts.max(span.begin);
                        lanes.entry(event.tid).or_default().spans.push(span);
                    }
                    Some(span) => {
                        return Err(format!(
                            "lane {}: End {:?} at {ts} closes open span {:?}",
                            event.tid, event.name, span.name
                        ))
                    }
                    None => {
                        return Err(format!(
                            "lane {}: End {:?} at {ts} without a Begin (truncated ring?)",
                            event.tid, event.name
                        ))
                    }
                }
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some(span) = stack.last() {
            return Err(format!(
                "lane {tid}: span {:?} opened at {} never closed",
                span.name, span.begin
            ));
        }
    }
    Ok(lanes)
}

/// Recognizes the unit's vocabulary.
fn detect_kind(lanes: &BTreeMap<u32, Lane>) -> Result<UnitKind, String> {
    let mut barrier = false;
    let mut open_loop = false;
    for lane in lanes.values() {
        for span in &lane.spans {
            barrier |= span.name == "barrier";
            open_loop |= OP_LABELS.contains(&span.name.as_str());
        }
        open_loop |= lane.markers.iter().any(|m| m.name == "admit");
    }
    match (barrier, open_loop) {
        (true, false) => Ok(UnitKind::Barrier),
        (false, true) => Ok(UnitKind::OpenLoop),
        (true, true) => Err("unit mixes barrier and open-loop events".to_string()),
        (false, false) => {
            Err("no attributable spans (expected barrier or open-loop events)".to_string())
        }
    }
}

/// Tiles `range` with `subs` (clamped, overlap-trimmed, sorted) and fills
/// every gap with `filler`. The output always covers `range` exactly.
fn carve(range: (u64, u64), mut subs: Vec<Segment>, filler: Bucket, out: &mut Vec<Segment>) {
    let (lo, hi) = range;
    subs.sort_by_key(|s| (s.from, s.to));
    let mut cursor = lo;
    for sub in subs {
        let from = sub.from.max(cursor);
        let to = sub.to.min(hi);
        if to <= from {
            continue;
        }
        if from > cursor {
            out.push(Segment {
                from: cursor,
                to: from,
                bucket: filler,
            });
        }
        out.push(Segment {
            from,
            to,
            bucket: sub.bucket,
        });
        cursor = to;
    }
    if cursor < hi {
        out.push(Segment {
            from: cursor,
            to: hi,
            bucket: filler,
        });
    }
}

/// Tiles the window around top-level occupancy intervals: `outer` fills
/// the gaps between tops, and each top is carved with its own subs over
/// an `inner` filler.
fn tile_lane(
    window: (u64, u64),
    mut tops: Vec<(u64, u64, Vec<Segment>)>,
    outer: Bucket,
    inner: Bucket,
) -> Vec<Segment> {
    let (w0, w1) = window;
    tops.sort_by_key(|&(from, to, _)| (from, to));
    let mut out = Vec::new();
    let mut cursor = w0;
    for (from, to, subs) in tops {
        let from = from.max(cursor);
        let to = to.min(w1);
        if to <= from {
            continue;
        }
        if from > cursor {
            out.push(Segment {
                from: cursor,
                to: from,
                bucket: outer,
            });
        }
        carve((from, to), subs, inner, &mut out);
        cursor = to;
    }
    if cursor < w1 {
        out.push(Segment {
            from: cursor,
            to: w1,
            bucket: outer,
        });
    }
    out
}

/// One barrier lane: `barrier` spans occupy `[arrival, done]` (closed; the
/// End cycle is the wake/last-poll cycle), carved with queue stalls
/// (`var`, `flag-write`, both closed), backoff waits (`backoff` spans,
/// half-open, plus post-`park` quiescence), over a spin-poll filler;
/// cycles outside the barrier are compute-phase work.
fn barrier_lane(lane: &Lane, window: (u64, u64)) -> Vec<Segment> {
    let mut tops = Vec::new();
    for top in lane.spans.iter().filter(|s| s.name == "barrier") {
        let range = (top.begin, top.end + 1);
        let mut subs = Vec::new();
        for span in &lane.spans {
            let bucket = match span.name.as_str() {
                "var" | "flag-write" => Bucket::QueueStall,
                "backoff" => Bucket::BackoffWait,
                _ => continue,
            };
            // Closed spans own their End (serve) cycle; backoff is half-open.
            let to = if span.name == "backoff" {
                span.end
            } else {
                span.end + 1
            };
            if span.begin < range.1 && to > range.0 {
                subs.push(Segment {
                    from: span.begin,
                    to,
                    bucket,
                });
            }
        }
        // A parked processor sleeps from the cycle after `park` until its
        // `wake` (which coincides with the barrier End cycle).
        for marker in lane.markers.iter().filter(|m| m.name == "park") {
            if marker.ts >= range.0 && marker.ts < range.1 {
                subs.push(Segment {
                    from: marker.ts + 1,
                    to: range.1,
                    bucket: Bucket::BackoffWait,
                });
            }
        }
        tops.push((range.0, range.1, subs));
    }
    tile_lane(window, tops, Bucket::Work, Bucket::SpinPoll)
}

/// One open-loop lane: job spans occupy `[admit, completion)` (half-open;
/// the completion cycle belongs to the successor job or to idle), carved
/// with backoff waits, post-win service work (`sync-win` instant), and
/// `rmw-read` transit cycles over a spin-poll (attempt) filler; cycles
/// outside any job are idle. Jobs flagged `truncated` were force-closed
/// at the horizon and extend through it, matching the engine's busy count.
fn open_loop_lane(lane: &Lane, window: (u64, u64)) -> Vec<Segment> {
    let truncated_at: Vec<u64> = lane
        .markers
        .iter()
        .filter(|m| m.name == "truncated")
        .map(|m| m.ts)
        .collect();
    let mut tops = Vec::new();
    for top in lane
        .spans
        .iter()
        .filter(|s| OP_LABELS.contains(&s.name.as_str()))
    {
        let end = if truncated_at.contains(&top.end) {
            top.end + 1
        } else {
            top.end
        };
        let range = (top.begin, end);
        if range.1 <= range.0 {
            continue;
        }
        let mut subs = Vec::new();
        for span in lane.spans.iter().filter(|s| s.name == "backoff") {
            if span.begin < range.1 && span.end > range.0 {
                subs.push(Segment {
                    from: span.begin,
                    to: span.end,
                    bucket: Bucket::BackoffWait,
                });
            }
        }
        for marker in &lane.markers {
            match marker.name.as_str() {
                // Service starts the cycle after the winning sync access.
                "sync-win" if marker.ts >= range.0 && marker.ts < range.1 => subs.push(Segment {
                    from: marker.ts + 1,
                    to: range.1,
                    bucket: Bucket::Work,
                }),
                "rmw-read" if marker.ts >= range.0 && marker.ts < range.1 => subs.push(Segment {
                    from: marker.ts,
                    to: marker.ts + 1,
                    bucket: Bucket::NetTransit,
                }),
                _ => {}
            }
        }
        tops.push((range.0, range.1, subs));
    }
    tile_lane(window, tops, Bucket::Idle, Bucket::SpinPoll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_obs::trace::{Ring, TraceSink};

    fn barrier_events() -> Vec<Event> {
        let mut ring = Ring::new(256);
        // p0: work 0..10, barrier [10, 30]: var [10,12], spin, backoff
        // [14,18), park@20 -> sleeps [21,31).
        ring.span_begin(0, 10, "barrier", &[]);
        ring.span_begin(0, 10, "var", &[]);
        ring.span_end(0, 12, "var", &[("accesses", 1.0), ("count", 1.0)]);
        ring.span_begin(0, 14, "backoff", &[("wait", 4.0)]);
        ring.span_end(0, 18, "backoff", &[]);
        ring.instant(0, 20, "park", &[]);
        ring.instant(0, 30, "wake", &[]);
        ring.span_end(0, 30, "barrier", &[]);
        // p1: the setter; barrier [15, 30]: var [15,16], flag-write [17,19].
        ring.span_begin(1, 15, "barrier", &[]);
        ring.span_begin(1, 15, "var", &[]);
        ring.span_end(1, 16, "var", &[("accesses", 1.0), ("count", 2.0)]);
        ring.span_begin(1, 17, "flag-write", &[]);
        ring.span_end(1, 19, "flag-write", &[]);
        ring.instant(1, 19, "flag-set", &[]);
        ring.span_end(1, 30, "barrier", &[]);
        ring.into_events()
    }

    #[test]
    fn barrier_attribution_tiles_and_conserves() {
        let events = barrier_events();
        let report = attribute(&events, &Options::default()).unwrap();
        assert_eq!(report.kind, UnitKind::Barrier);
        assert_eq!(report.window, (10, 31));
        assert_eq!(report.procs(), 2);
        assert!(report.conserved());
        // p0: var [10,13)=3q, spin [13,14)=1s, backoff [14,18)=4b,
        // spin [18,21)=2s... park@20 -> [21,31)=10b; spin residual 18..21=3s.
        let p0 = &report.lanes[0];
        assert_eq!(p0.totals[Bucket::QueueStall.index()], 3);
        assert_eq!(p0.totals[Bucket::BackoffWait.index()], 4 + 10);
        assert_eq!(p0.totals[Bucket::SpinPoll.index()], 1 + 3);
        assert_eq!(p0.totals[Bucket::Work.index()], 0);
        assert_eq!(p0.total(), 21);
        // p1: work [10,15)=5W, var [15,17)=2q, flag-write [17,20)=3q,
        // spin [20,31)=11s.
        let p1 = &report.lanes[1];
        assert_eq!(p1.totals[Bucket::Work.index()], 5);
        assert_eq!(p1.totals[Bucket::QueueStall.index()], 5);
        assert_eq!(p1.totals[Bucket::SpinPoll.index()], 11);
        assert_eq!(p1.total(), 21);
    }

    #[test]
    fn open_loop_attribution_tiles_and_conserves() {
        let mut ring = Ring::new(256);
        // p0: idle 0..5, job [5, 20): attempt@5 fails, backoff [6,10),
        // attempt@10 wins -> work [11,20). Completion cycle 20 idle.
        ring.instant(0, 5, "admit", &[("tenant", 0.0), ("wait", 0.0)]);
        ring.span_begin(0, 5, "faa", &[("tenant", 0.0)]);
        ring.span_begin(0, 6, "backoff", &[("wait", 4.0)]);
        ring.span_end(0, 10, "backoff", &[]);
        ring.instant(0, 10, "sync-win", &[("attempts", 1.0)]);
        ring.span_end(0, 20, "faa", &[]);
        // p1: rmw job [5, 24) truncated at the horizon 23: read@5,
        // cas wins @6 -> work [7, 24).
        ring.span_begin(1, 5, "rmw", &[("tenant", 1.0)]);
        ring.instant(1, 5, "rmw-read", &[]);
        ring.instant(1, 6, "sync-win", &[("attempts", 0.0)]);
        ring.instant(1, 23, "truncated", &[]);
        ring.span_end(1, 23, "rmw", &[]);
        let events = ring.into_events();
        let report = attribute(
            &events,
            &Options {
                window: Some((0, 24)),
                procs: None,
            },
        )
        .unwrap();
        assert_eq!(report.kind, UnitKind::OpenLoop);
        assert!(report.conserved());
        let p0 = &report.lanes[0];
        assert_eq!(p0.totals[Bucket::Idle.index()], 5 + 4); // 0..5 and 20..24
        assert_eq!(p0.totals[Bucket::SpinPoll.index()], 2); // attempts @5, @10
        assert_eq!(p0.totals[Bucket::BackoffWait.index()], 4);
        assert_eq!(p0.totals[Bucket::Work.index()], 9); // 11..20
        let p1 = &report.lanes[1];
        assert_eq!(p1.totals[Bucket::Idle.index()], 5);
        assert_eq!(p1.totals[Bucket::NetTransit.index()], 1);
        assert_eq!(p1.totals[Bucket::SpinPoll.index()], 1); // winning cas @6
        assert_eq!(p1.totals[Bucket::Work.index()], 17); // 7..24 (truncated)
        assert_eq!(p1.total(), 24);
    }

    #[test]
    fn explicit_procs_pads_idle_lanes() {
        let mut ring = Ring::new(16);
        ring.span_begin(0, 0, "faa", &[("tenant", 0.0)]);
        ring.span_end(0, 4, "faa", &[]);
        let report = attribute(
            &ring.into_events(),
            &Options {
                window: Some((0, 4)),
                procs: Some(3),
            },
        )
        .unwrap();
        assert_eq!(report.procs(), 3);
        assert_eq!(report.lanes[2].totals[Bucket::Idle.index()], 4);
        assert!(report.conserved());
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        let mut ring = Ring::new(16);
        ring.span_end(0, 3, "barrier", &[]);
        let err = attribute(&ring.into_events(), &Options::default()).unwrap_err();
        assert!(err.contains("without a Begin"), "{err}");

        let mut ring = Ring::new(16);
        ring.span_begin(0, 3, "barrier", &[]);
        let err = attribute(&ring.into_events(), &Options::default()).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn unknown_vocabulary_is_rejected() {
        let mut ring = Ring::new(16);
        ring.counter(4, 1, "hot_queue", &[("depth", 2.0)]);
        let err = attribute(&ring.into_events(), &Options::default()).unwrap_err();
        assert!(err.contains("no attributable spans"), "{err}");
    }

    #[test]
    fn table_heatmap_and_json_render() {
        let report = attribute(&barrier_events(), &Options::default()).unwrap();
        let table = report.to_table().to_string();
        assert!(table.contains("spin_poll"));
        assert!(table.contains("share"));
        let map = report.heatmap(21, 8);
        assert!(map.contains("p0 |"));
        assert!(map.contains('b'));
        let json = report.to_json().render();
        assert!(json.contains("\"conserved\": true") || json.contains("\"conserved\":true"));
    }

    #[test]
    fn segments_tile_window_without_gaps() {
        let report = attribute(&barrier_events(), &Options::default()).unwrap();
        for lane in &report.lanes {
            let mut cursor = report.window.0;
            for seg in &lane.segments {
                assert_eq!(seg.from, cursor, "gap on lane {}", lane.proc);
                assert!(!seg.is_empty());
                cursor = seg.to;
            }
            assert_eq!(cursor, report.window.1);
        }
    }
}
