//! A bucketed time wheel for the event-driven skip-ahead kernels.
//!
//! Every skip-ahead kernel needs three operations on the set of future
//! wake-ups (processor arrivals, backoff expiries, resource/circuit hold
//! completions):
//!
//! * schedule a wake-up at an absolute cycle,
//! * pop everything due at the current cycle (in ascending processor-id
//!   order, matching the cycle stepper's id-ordered activation scan), and
//! * peek the earliest pending wake-up so the clock can jump over dead
//!   cycles.
//!
//! A classic hashed timing wheel covers the common case: wake-ups landing
//! within the next [`TimeWheel::SLOTS`] cycles go into the slot
//! `time % SLOTS`, so scheduling and popping are O(1) amortized.
//! Exponential backoff also produces *far* wake-ups (delays grow as
//! `base^k`, unbounded for the paper's uncapped curves), which overflow
//! into a sorted map keyed by absolute time and migrate into the wheel as
//! the clock approaches them. The structure never inspects more than the
//! due slot per cycle on the hot path; the O(SLOTS / 64) occupancy scan
//! happens only on [`TimeWheel::peek_min`], which the kernel calls exactly
//! when nothing is runnable (i.e. when it is about to skip cycles anyway).
//!
//! Nothing is allocated per wake-up, per slot or per due time. An id has at
//! most one pending wake-up, so the pending ids are threaded through one
//! per-id link array: each near slot and each far due time is a `u32` list
//! head. The closed-population kernels' arrivals — one per processor, drawn
//! already sorted by id — are not scheduled at all:
//! [`TimeWheel::with_arrivals`] replays them from a cursor and merges each
//! cycle's run into the popped ids.

use std::collections::BTreeMap;

/// `next[id]` for an id with no pending wake-up.
const FREE: u32 = u32::MAX;
/// `next[id]` for the last id of a list.
const END: u32 = u32::MAX - 1;

/// A bucketed time wheel over absolute simulation cycles.
///
/// Each id may have at most one pending wake-up: scheduling an id that is
/// already pending (in the wheel or not yet replayed from the arrival
/// stream) panics. The clock may only advance to a cycle at or before
/// [`peek_min`](Self::peek_min): a pending wake-up must never be jumped.
///
/// # Examples
///
/// ```
/// use abs_sim::wheel::TimeWheel;
///
/// let mut wheel = TimeWheel::new(0);
/// wheel.schedule(5, 1);
/// wheel.schedule(5, 0);
/// wheel.schedule(1_000_000, 2); // far future: overflows, still correct
/// assert_eq!(wheel.peek_min(), Some(5));
/// let mut due = Vec::new();
/// wheel.pop_due(5, &mut due);
/// assert_eq!(due, vec![0, 1]); // ascending id order
/// assert_eq!(wheel.peek_min(), Some(1_000_000));
///
/// // Id `i` arrives at `arrivals[i]`; arrivals merge with wake-ups.
/// let mut wheel = TimeWheel::with_arrivals(&[3, 3, 9]);
/// wheel.pop_due(3, &mut due);
/// assert_eq!(due, vec![0, 1]);
/// wheel.schedule(9, 0);
/// wheel.pop_due(9, &mut due);
/// assert_eq!(due, vec![0, 2]);
/// assert!(wheel.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TimeWheel {
    /// `heads[t % SLOTS]` starts the list of near ids due at cycle `t`;
    /// meaningful only while the slot's occupancy bit is set.
    heads: [u32; Self::SLOTS],
    /// Bit `s` set iff slot `s` holds a list: `peek_min` scans these four
    /// words instead of probing up to [`Self::SLOTS`] heads.
    occupancy: [u64; Self::SLOTS / 64],
    /// List heads of the wake-ups at or beyond the horizon, by due cycle.
    far: BTreeMap<u64, u32>,
    /// The far map's smallest key, `u64::MAX` when it is empty: `pop_due`
    /// tests it every cycle instead of walking the map.
    far_min: u64,
    /// Per-id link: the next id in the same list, [`END`] for the last,
    /// [`FREE`] for an id with no wake-up in the slots or the far map.
    next: Vec<u32>,
    /// Id `i`'s arrival cycle; ascending.
    arrivals: Vec<u64>,
    /// The first id whose arrival has not been popped.
    cursor: usize,
    /// Slots cover due cycles in `[now, horizon)`; `horizon = now + SLOTS`.
    now: u64,
    /// Wake-ups in the slots and the far map (arrivals not counted).
    len: usize,
    /// Whether `pop_due` has run: before it has, the slot at `now` is
    /// unpopped and a one-cycle advance can skip it.
    popped: bool,
}

impl TimeWheel {
    /// Number of near slots; wake-ups within this many cycles of `now` are
    /// O(1) to schedule and pop. Must be a power of two.
    pub const SLOTS: usize = 256;

    /// Creates an empty wheel whose clock starts at `now`.
    pub fn new(now: u64) -> Self {
        Self {
            heads: [END; Self::SLOTS],
            occupancy: [0; Self::SLOTS / 64],
            far: BTreeMap::new(),
            far_min: u64::MAX,
            next: Vec::new(),
            arrivals: Vec::new(),
            cursor: 0,
            now,
            len: 0,
            popped: false,
        }
    }

    /// Creates a wheel, clock at 0, in which id `i` is due at
    /// `arrivals[i]`.
    ///
    /// The arrivals are replayed in order rather than scheduled, so the
    /// slice must be sorted ascending (as
    /// [`uniform_arrivals`](crate::rng::Xoshiro256PlusPlus::uniform_arrivals)
    /// draws it). An id may be scheduled again once its arrival is popped.
    ///
    /// # Panics
    ///
    /// If `arrivals` is not sorted ascending.
    pub fn with_arrivals(arrivals: &[u64]) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted ascending"
        );
        let mut wheel = Self::new(0);
        wheel.arrivals = arrivals.to_vec();
        wheel.next = vec![FREE; arrivals.len()];
        wheel
    }

    /// Marks slot `s` occupied.
    #[inline]
    fn mark(&mut self, s: usize) {
        self.occupancy[s / 64] |= 1u64 << (s % 64);
    }

    /// Whether slot `s` holds a list.
    #[inline]
    fn occupied(&self, s: usize) -> bool {
        self.occupancy[s / 64] & (1u64 << (s % 64)) != 0
    }

    /// Pending wake-ups, arrivals not yet popped included.
    pub fn len(&self) -> usize {
        self.len + self.arrivals.len() - self.cursor
    }

    /// Whether no wake-up is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules a wake-up for processor `id` at absolute cycle `time`.
    ///
    /// `time` may not precede the wheel's current cycle (a wake-up in the
    /// past could never be popped).
    ///
    /// # Panics
    ///
    /// If `id` already has a pending wake-up, or `id >= u32::MAX - 1`.
    pub fn schedule(&mut self, time: u64, id: usize) {
        debug_assert!(time >= self.now, "wake-up at {time} scheduled in the past of {}", self.now);
        let link = u32::try_from(id).unwrap_or(END);
        assert!(link < END, "id {id} does not fit the wheel's u32 links");
        if id >= self.next.len() {
            self.next.resize(id + 1, FREE);
        }
        assert!(
            self.next[id] == FREE && !(self.cursor..self.arrivals.len()).contains(&id),
            "id {id} already has a pending wake-up"
        );
        self.len += 1;
        if time - self.now < Self::SLOTS as u64 {
            #[expect(clippy::cast_possible_truncation, reason = "a residue modulo SLOTS fits usize")]
            let s = (time % Self::SLOTS as u64) as usize;
            self.next[id] = if self.occupied(s) { self.heads[s] } else { END };
            self.heads[s] = link;
            self.mark(s);
        } else {
            let head = self.far.entry(time).or_insert(END);
            self.next[id] = *head;
            *head = link;
            self.far_min = self.far_min.min(time);
        }
    }

    /// Advances the clock to `now` and appends every wake-up due at `now`
    /// to `due`, sorted by processor id.
    ///
    /// `now` may not pass a pending wake-up: the kernel advances the clock
    /// either by one cycle or by jumping to [`peek_min`](Self::peek_min).
    ///
    /// # Panics
    ///
    /// If the clock jumps over a pending wake-up. The check runs on the
    /// first pop and whenever the clock moves by more than one cycle: it
    /// is [`peek_min`](Self::peek_min) at the old clock, O(`SLOTS / 64`)
    /// word operations. A one-cycle step after a pop skips only the slot
    /// that pop emptied.
    pub fn pop_due(&mut self, now: u64, due: &mut Vec<usize>) {
        due.clear();
        debug_assert!(now >= self.now, "clock moved backwards");
        if now > self.now.saturating_add(1) || !self.popped {
            assert!(
                self.peek_min().is_none_or(|t| t >= now),
                "clock jumped to {now} over a wake-up due earlier"
            );
        }
        self.popped = true;
        // Migrate far wake-ups that entered the slot horizon. Jumps land on
        // the earliest pending wake-up, so a jump across the horizon moves
        // exactly the entries that are now near, and each lands in an empty
        // slot: a near list due at another time with the same residue would
        // lie a whole `SLOTS` behind it, i.e. before `now`.
        let horizon = now.saturating_add(Self::SLOTS as u64);
        while self.far_min < horizon {
            let Some((t, head)) = self.far.pop_first() else { break };
            #[expect(clippy::cast_possible_truncation, reason = "a residue modulo SLOTS fits usize")]
            let s = (t % Self::SLOTS as u64) as usize;
            debug_assert!(!self.occupied(s), "far wake-ups at {t} migrate into a used slot");
            self.heads[s] = head;
            self.mark(s);
            self.far_min = self.far.first_key_value().map_or(u64::MAX, |(&t, _)| t);
        }
        self.now = now;
        #[expect(clippy::cast_possible_truncation, reason = "a residue modulo SLOTS fits usize")]
        let s = (now % Self::SLOTS as u64) as usize;
        if self.occupied(s) {
            self.occupancy[s / 64] &= !(1u64 << (s % 64));
            let mut id = self.heads[s];
            while id != END {
                let at = id as usize;
                due.push(at);
                id = std::mem::replace(&mut self.next[at], FREE);
            }
            self.len -= due.len();
            due.sort_unstable();
        }
        // The arrivals due now are the id range `first..cursor`; no id in it
        // can also sit in the slots, so it splices in at its rank.
        let first = self.cursor;
        while self.arrivals.get(self.cursor).is_some_and(|&t| t <= now) {
            self.cursor += 1;
        }
        if self.cursor > first {
            let at = due.partition_point(|&id| id < first);
            due.splice(at..at, first..self.cursor);
        }
    }

    /// The earliest pending wake-up cycle, or `None` when empty.
    ///
    /// Called only when the kernel has nothing runnable and is about to
    /// jump the clock. Every near list's due time is in `[now, now +
    /// SLOTS)` (dues at `now` are popped before the clock moves, and jumps
    /// land on the minimum, so nothing is ever left behind the clock),
    /// which means a slot holds one distinct due time — two times with the
    /// same residue would be `SLOTS` apart — and that time follows from the
    /// slot's offset to `now`. The first occupied slot in circular time
    /// order from `now` therefore holds the near minimum; the occupancy
    /// bitmap finds it in at most `SLOTS / 64 + 1` word scans (no per-slot
    /// probing). The far map only holds times at or beyond the horizon, so
    /// it cannot undercut a near hit. The next arrival competes with both.
    pub fn peek_min(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let wheel_min = match self.first_occupied() {
            Some(s) => {
                let offset = (s as u64).wrapping_sub(self.now) % Self::SLOTS as u64;
                self.now + offset
            }
            None => self.far_min,
        };
        let arrival = self.arrivals.get(self.cursor).copied().unwrap_or(u64::MAX);
        Some(wheel_min.min(arrival))
    }

    /// Index of the first occupied slot in circular order starting at
    /// `now % SLOTS`, via the occupancy bitmap.
    fn first_occupied(&self) -> Option<usize> {
        const WORDS: usize = TimeWheel::SLOTS / 64;
        #[expect(clippy::cast_possible_truncation, reason = "a residue modulo SLOTS fits usize")]
        let start = (self.now % Self::SLOTS as u64) as usize;
        let (start_word, start_bit) = (start / 64, start % 64);
        // Head of the start word (bits at or after `start`).
        let head = self.occupancy[start_word] & (u64::MAX << start_bit);
        if head != 0 {
            return Some(start_word * 64 + head.trailing_zeros() as usize);
        }
        // Remaining words in circular order, ending with the wrapped tail
        // of the start word (bits before `start`).
        for step in 1..=WORDS {
            let w = (start_word + step) % WORDS;
            let mut bits = self.occupancy[w];
            if w == start_word {
                bits &= (1u64 << start_bit) - 1;
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(wheel: &mut TimeWheel, now: u64) -> Vec<usize> {
        let mut due = Vec::new();
        wheel.pop_due(now, &mut due);
        due
    }

    #[test]
    fn empty_wheel() {
        let wheel = TimeWheel::new(7);
        assert!(wheel.is_empty());
        assert_eq!(wheel.peek_min(), None);
    }

    #[test]
    fn pops_in_id_order() {
        let mut wheel = TimeWheel::new(0);
        for id in [5usize, 1, 9, 0] {
            wheel.schedule(3, id);
        }
        assert_eq!(wheel.len(), 4);
        assert_eq!(pop(&mut wheel, 2), Vec::<usize>::new());
        assert_eq!(pop(&mut wheel, 3), vec![0, 1, 5, 9]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn near_and_far_interleave() {
        let mut wheel = TimeWheel::new(0);
        wheel.schedule(2, 0);
        wheel.schedule(2 + TimeWheel::SLOTS as u64, 1); // beyond horizon
        wheel.schedule(1 << 40, 2); // far future
        assert_eq!(wheel.peek_min(), Some(2));
        assert_eq!(pop(&mut wheel, 2), vec![0]);
        assert_eq!(wheel.peek_min(), Some(2 + TimeWheel::SLOTS as u64));
        // Jump straight to the migrated far entry.
        assert_eq!(pop(&mut wheel, 2 + TimeWheel::SLOTS as u64), vec![1]);
        assert_eq!(wheel.peek_min(), Some(1 << 40));
        assert_eq!(pop(&mut wheel, 1 << 40), vec![2]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_slot_different_times_do_not_collide() {
        // Two near times that alias to the same slot index must pop at
        // their own cycles.
        let mut wheel = TimeWheel::new(0);
        wheel.schedule(1, 0);
        // After popping cycle 1 the horizon moves; schedule the aliasing
        // time then (1 + SLOTS aliases slot 1).
        assert_eq!(pop(&mut wheel, 1), vec![0]);
        wheel.schedule(1 + TimeWheel::SLOTS as u64, 1);
        wheel.schedule(2, 2);
        assert_eq!(pop(&mut wheel, 2), vec![2]);
        assert_eq!(wheel.peek_min(), Some(1 + TimeWheel::SLOTS as u64));
        assert_eq!(pop(&mut wheel, 1 + TimeWheel::SLOTS as u64), vec![1]);
    }

    /// Drives `wheel` through a random schedule/advance workload and checks
    /// every `pop_due`, `peek_min` and `len` against a plain list of
    /// `(due, id)` pairs that starts as `model`. Ids are drawn only from
    /// those not pending (the per-id contract), up to `max_id` — past the
    /// link array's current length for a fresh wheel — and dues mix the
    /// next cycle, near slots, the horizon edge (`SLOTS - 1`, `SLOTS`,
    /// `SLOTS + 1` ahead), far times and the cycles of pending arrivals.
    fn churn_against_model(
        mut wheel: TimeWheel,
        mut model: Vec<(u64, usize)>,
        start: u64,
        max_id: usize,
        seed: u64,
    ) {
        use crate::rng::Xoshiro256PlusPlus;
        let slots = TimeWheel::SLOTS as u64;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut now = start;
        let mut due = Vec::new();
        for step in 0..3_000 {
            wheel.pop_due(now, &mut due);
            let mut want: Vec<usize> =
                model.iter().filter(|&&(t, _)| t == now).map(|&(_, id)| id).collect();
            want.sort_unstable();
            assert_eq!(due, want, "step {step} at cycle {now}");
            model.retain(|&(t, _)| t != now);
            for _ in 0..rng.next_below(4) {
                let id = rng.next_below_usize(max_id);
                if model.iter().any(|&(_, p)| p == id) {
                    continue;
                }
                let t = match rng.next_below(6) {
                    0 => now + 1,
                    1 => now + slots - 1 + rng.next_below(3),
                    2 => now + 1 + rng.next_below(4 * slots),
                    3 => now + slots + rng.next_below(1 << 20),
                    // Share a cycle with a pending wake-up or arrival.
                    _ => match model.iter().map(|&(t, _)| t).filter(|&t| t > now).min() {
                        Some(t) => t,
                        None => now + 1 + rng.next_below(slots),
                    },
                };
                wheel.schedule(t, id);
                model.push((t, id));
            }
            assert_eq!(wheel.len(), model.len(), "step {step}");
            let min = model.iter().map(|&(t, _)| t).min();
            assert_eq!(wheel.peek_min(), min, "step {step}");
            // Advance: half the time by one cycle, half by jumping (often
            // across the horizon).
            now = match min {
                Some(t) if rng.next_bool(0.5) => t,
                _ => now + 1,
            };
        }
        // Drain whatever is left by jumping.
        while let Some(t) = wheel.peek_min() {
            assert_eq!(Some(t), model.iter().map(|&(t, _)| t).min());
            wheel.pop_due(t, &mut due);
            model.retain(|&(mt, _)| mt != t);
            assert_eq!(wheel.len(), model.len());
        }
        assert!(model.is_empty());
    }

    #[test]
    fn peek_min_matches_naive_min_under_churn() {
        for seed in 0..4u64 {
            churn_against_model(TimeWheel::new(1_000), Vec::new(), 1_000, 48, 0x11EE1 + seed);
        }
    }

    #[test]
    fn arrival_stream_matches_model_under_churn() {
        use crate::rng::Xoshiro256PlusPlus;
        for (seed, span) in [(1u64, 0u64), (2, 5), (3, 255), (4, 256), (5, 257), (6, 2_000)] {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let arrivals = rng.uniform_arrivals(40, span);
            let model: Vec<(u64, usize)> =
                arrivals.iter().enumerate().map(|(id, &t)| (t, id)).collect();
            let wheel = TimeWheel::with_arrivals(&arrivals);
            // Ids past the arrival range grow the link array on demand.
            churn_against_model(wheel, model, arrivals[0], 64, seed);
        }
    }

    #[test]
    fn arrivals_merge_with_wake_ups_in_id_order() {
        let mut wheel = TimeWheel::with_arrivals(&[2, 4, 4, 4, 300]);
        assert_eq!(wheel.len(), 5);
        assert_eq!(wheel.peek_min(), Some(2));
        assert_eq!(pop(&mut wheel, 2), vec![0]);
        wheel.schedule(4, 0);
        wheel.schedule(4, 7);
        assert_eq!(wheel.peek_min(), Some(4));
        assert_eq!(pop(&mut wheel, 4), vec![0, 1, 2, 3, 7]);
        wheel.schedule(300, 1);
        wheel.schedule(5 + 2 * TimeWheel::SLOTS as u64, 2);
        assert_eq!(wheel.peek_min(), Some(300));
        assert_eq!(pop(&mut wheel, 300), vec![1, 4]);
        assert_eq!(wheel.peek_min(), Some(5 + 2 * TimeWheel::SLOTS as u64));
    }

    #[test]
    #[should_panic(expected = "already has a pending wake-up")]
    fn double_schedule_panics() {
        let mut wheel = TimeWheel::new(0);
        wheel.schedule(5, 1);
        wheel.schedule(5 + TimeWheel::SLOTS as u64, 1);
    }

    #[test]
    #[should_panic(expected = "already has a pending wake-up")]
    fn scheduling_a_pending_arrival_panics() {
        let mut wheel = TimeWheel::with_arrivals(&[3, 8]);
        assert_eq!(pop(&mut wheel, 3), vec![0]);
        wheel.schedule(5, 1);
    }

    #[test]
    #[should_panic(expected = "over a wake-up due earlier")]
    fn jumping_over_a_near_wake_up_panics() {
        let mut wheel = TimeWheel::new(0);
        wheel.schedule(5, 0);
        wheel.schedule(9, 1);
        assert_eq!(pop(&mut wheel, 5), vec![0]);
        pop(&mut wheel, 10);
    }

    #[test]
    #[should_panic(expected = "over a wake-up due earlier")]
    fn jumping_over_a_far_wake_up_panics() {
        let mut wheel = TimeWheel::new(0);
        wheel.schedule(5 * TimeWheel::SLOTS as u64, 0);
        pop(&mut wheel, 6 * TimeWheel::SLOTS as u64);
    }

    #[test]
    #[should_panic(expected = "over a wake-up due earlier")]
    fn first_pop_past_an_arrival_panics() {
        let mut wheel = TimeWheel::with_arrivals(&[3, 4]);
        pop(&mut wheel, 4);
    }

    #[test]
    #[should_panic(expected = "over a wake-up due earlier")]
    fn first_pop_one_cycle_past_a_wake_up_panics() {
        // Before the first pop the slot at the clock is still unpopped,
        // so even a one-cycle advance is checked.
        let mut wheel = TimeWheel::new(7);
        wheel.schedule(7, 0);
        pop(&mut wheel, 8);
    }

    #[test]
    fn one_cycle_steps_and_exact_jumps_pass_the_jump_check() {
        // Every wake-up on the first slot after a wrap, at the last near
        // slot and on the far tier is reached by stepping or by jumping to
        // the minimum, never skipped.
        let slots = TimeWheel::SLOTS as u64;
        let mut wheel = TimeWheel::new(0);
        for (id, t) in [0u64, 1, slots - 1, slots, 3 * slots + 7].into_iter().enumerate() {
            wheel.schedule(t, id);
        }
        let mut seen = Vec::new();
        for now in 0..=2 {
            seen.extend(pop(&mut wheel, now));
        }
        while let Some(t) = wheel.peek_min() {
            seen.extend(pop(&mut wheel, t));
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cycle_by_cycle_advance_matches_jump() {
        let mut a = TimeWheel::new(0);
        let mut b = TimeWheel::new(0);
        for (t, id) in [(3u64, 0usize), (300, 1), (301, 2), (900, 3)] {
            a.schedule(t, id);
            b.schedule(t, id);
        }
        // a: advance one cycle at a time; b: jump via peek_min.
        let mut seen_a: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut due = Vec::new();
        for now in 0..=900 {
            a.pop_due(now, &mut due);
            if !due.is_empty() {
                seen_a.push((now, due.clone()));
            }
        }
        let mut seen_b: Vec<(u64, Vec<usize>)> = Vec::new();
        while let Some(t) = b.peek_min() {
            b.pop_due(t, &mut due);
            seen_b.push((t, due.clone()));
        }
        assert_eq!(seen_a, seen_b);
        assert_eq!(seen_b.len(), 4);
    }
}
