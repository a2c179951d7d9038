//! In-terminal trace rendering: a per-lane event-density heatmap for a
//! quick look at a trace without leaving the shell.
//!
//! The full trace goes to Perfetto via [`crate::chrome`]; this module
//! answers "did the episode look sane?" in about twenty lines of text.
//! Output is deterministic: lanes are sorted by `(pid, tid)` and density
//! depends only on event timestamps.

use std::collections::BTreeMap;

use crate::trace::Event;

/// The density ramp, sparsest to densest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders a density heatmap of `events`: one row per `(pid, tid)` lane,
/// `width` columns spanning the trace's time range, each cell shaded by
/// how many events land in that time slice.
///
/// # Examples
///
/// ```
/// use abs_obs::ascii::timeline;
/// use abs_obs::trace::{Event, Phase};
///
/// let events = vec![
///     Event::sim(0, 0.0, Phase::Begin, "span"),
///     Event::sim(0, 8.0, Phase::End, "span"),
/// ];
/// let art = timeline(&events, 16);
/// assert!(art.contains("p0/t0"));
/// ```
pub fn timeline(events: &[Event], width: usize) -> String {
    let width = width.max(1);
    if events.is_empty() {
        return String::from("(no events)\n");
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for e in events {
        lo = lo.min(e.ts);
        hi = hi.max(e.ts);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);

    // Lane -> per-column event counts, keyed so rows render in a stable
    // order.
    let mut lanes: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
    for e in events {
        #[expect(clippy::cast_possible_truncation, reason = "the column is in [0, width - 1]")]
        let col = (((e.ts - lo) / span) * (width - 1) as f64).round() as usize;
        lanes.entry((e.pid, e.tid)).or_insert_with(|| vec![0; width])[col.min(width - 1)] += 1;
    }
    let peak = lanes
        .values()
        .flat_map(|cells| cells.iter().copied())
        .max()
        .unwrap_or(1)
        .max(1);

    let label_width = lanes
        .keys()
        .map(|(p, t)| format!("p{p}/t{t}").len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "trace heatmap: {} events, ts {lo:.0}..{hi:.0}, {} lanes\n",
        events.len(),
        lanes.len()
    ));
    for ((pid, tid), cells) in &lanes {
        let label = format!("p{pid}/t{tid}");
        out.push_str(&format!("  {label:>label_width$} |"));
        for &c in cells {
            #[expect(clippy::cast_possible_truncation, reason = "the ramp index is at most RAMP.len() - 1")]
            let idx = if c == 0 {
                0
            } else {
                // Nonzero cells always render visibly: map 1..=peak onto
                // the nonblank ramp.
                1 + ((c - 1) as usize * (RAMP.len() - 2)) / peak as usize
            };
            out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Phase;

    fn ev(tid: u32, ts: f64) -> Event {
        Event::sim(tid, ts, Phase::Instant, "e")
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(timeline(&[], 40), "(no events)\n");
    }

    #[test]
    fn lanes_sorted_and_width_respected() {
        let events = vec![ev(1, 0.0), ev(0, 5.0), ev(0, 10.0)];
        let art = timeline(&events, 20);
        let rows: Vec<&str> = art.lines().collect();
        assert_eq!(rows.len(), 3); // header + two lanes
        assert!(rows[1].contains("p0/t0"));
        assert!(rows[2].contains("p0/t1"));
        let cells = rows[1].split('|').nth(1).unwrap();
        assert_eq!(cells.chars().count(), 20);
    }

    #[test]
    fn density_shades_hot_columns_darker() {
        let mut events = vec![ev(0, 10.0)];
        for _ in 0..50 {
            events.push(ev(0, 0.0));
        }
        let art = timeline(&events, 10);
        let cells: Vec<char> = art
            .lines()
            .nth(1)
            .unwrap()
            .split('|')
            .nth(1)
            .unwrap()
            .chars()
            .collect();
        assert!(cells[0] != ' ' && cells[9] != ' ');
        let rank = |c: char| RAMP.iter().position(|&b| b as char == c).unwrap();
        assert!(rank(cells[0]) > rank(cells[9]), "{art}");
        // Quiet middle columns stay blank.
        assert_eq!(cells[5], ' ');
    }

    #[test]
    fn output_is_deterministic() {
        let events = vec![ev(2, 1.0), ev(0, 3.0), ev(1, 2.0)];
        assert_eq!(timeline(&events, 32), timeline(&events, 32));
    }
}
