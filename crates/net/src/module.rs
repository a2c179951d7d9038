//! The Section-3 memory-module contention model.
//!
//! > "We assume that in a network cycle only one processor can access the
//! > barrier variable or the barrier flag. If a processor is denied access to
//! > the variable in a network cycle it repeats the access to the variable in
//! > the next network cycle."
//!
//! [`MemoryModule`] arbitrates among the set of requesters present in a
//! cycle and picks exactly one winner. The paper does not spell out the
//! arbitration rule; its Model-1 access counts (the flag writer needing ~N
//! attempts against N−1 pollers) imply *memoryless random* selection, which
//! is therefore the default. Round-robin and oldest-first are provided for
//! the ablation study.

use std::collections::BTreeSet;

use abs_sim::rng::Xoshiro256PlusPlus;

/// How a memory module picks one winner among simultaneous requesters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Uniformly random winner each cycle (the paper's implicit model).
    #[default]
    Random,
    /// Rotating priority: the requester with the smallest
    /// `(id - last_winner - 1) mod n` wins.
    RoundRobin,
    /// The requester that has been waiting the longest wins; ties broken by
    /// lowest id. This models a queueing (combining-free) memory controller.
    OldestFirst,
}

impl Arbitration {
    /// All supported policies, for sweeps.
    pub const ALL: [Arbitration; 3] = [
        Arbitration::Random,
        Arbitration::RoundRobin,
        Arbitration::OldestFirst,
    ];
}

/// A pending request presented to a module in some cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Requester (processor) identifier. Used by round-robin arbitration.
    pub id: usize,
    /// The cycle at which this request first became pending. Used by
    /// oldest-first arbitration.
    pub since: u64,
}

impl Request {
    /// Convenience constructor.
    pub fn new(id: usize, since: u64) -> Self {
        Self { id, since }
    }
}

/// A single-ported memory module: serves one request per cycle.
///
/// The module also keeps the access statistics that the paper reports:
/// every *presented* request counts as a network access whether or not it is
/// served ("an unsuccessful network access in accessing the barrier flag is
/// still counted as a network access").
///
/// # Examples
///
/// ```
/// use abs_net::module::{Arbitration, MemoryModule, Request};
/// use abs_sim::rng::Xoshiro256PlusPlus;
///
/// let mut module = MemoryModule::new(Arbitration::Random);
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let winner = module.arbitrate(
///     &[Request::new(0, 0), Request::new(1, 0)],
///     &mut rng,
/// );
/// assert!(winner.is_some());
/// assert_eq!(module.presented(), 2);
/// assert_eq!(module.served(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryModule {
    policy: Arbitration,
    last_winner: Option<usize>,
    presented: u64,
    served: u64,
    busy_cycles: u64,
}

impl MemoryModule {
    /// Creates a module with the given arbitration policy.
    pub fn new(policy: Arbitration) -> Self {
        Self {
            policy,
            last_winner: None,
            presented: 0,
            served: 0,
            busy_cycles: 0,
        }
    }

    /// The arbitration policy in force.
    pub fn policy(&self) -> Arbitration {
        self.policy
    }

    /// Arbitrates one cycle: all `requests` count as presented accesses, and
    /// exactly one winner id is returned (or `None` when idle).
    pub fn arbitrate(
        &mut self,
        requests: &[Request],
        rng: &mut Xoshiro256PlusPlus,
    ) -> Option<usize> {
        self.presented = self.presented.saturating_add(requests.len() as u64);
        if requests.is_empty() {
            return None;
        }
        self.busy_cycles = self.busy_cycles.saturating_add(1);
        self.served = self.served.saturating_add(1);
        let winner = match self.policy {
            Arbitration::Random => requests[rng.next_below_usize(requests.len())].id,
            #[expect(clippy::expect_used, reason = "arbitrate() is only called with a non-empty request list")]
            Arbitration::RoundRobin => {
                // Rotating priority: smallest id at-or-above `base`, with
                // wraparound (ids below `base` sort after all ids >= base).
                let base = self.last_winner.map(|w| w + 1).unwrap_or(0);
                requests
                    .iter()
                    .min_by_key(|r| r.id.wrapping_sub(base))
                    .expect("non-empty")
                    .id
            }
            #[expect(clippy::expect_used, reason = "arbitrate() is only called with a non-empty request list")]
            Arbitration::OldestFirst => {
                requests
                    .iter()
                    .min_by_key(|r| (r.since, r.id))
                    .expect("non-empty")
                    .id
            }
        };
        self.last_winner = Some(winner);
        Some(winner)
    }

    /// Total requests presented (network accesses), served or not.
    pub fn presented(&self) -> u64 {
        self.presented
    }

    /// Total requests served (one per busy cycle).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Cycles in which at least one request was present.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Denied accesses: presented minus served.
    pub fn denied(&self) -> u64 {
        self.presented - self.served
    }

    /// Resets the statistics but keeps the policy and rotation state.
    pub fn reset_stats(&mut self) {
        self.presented = 0;
        self.served = 0;
        self.busy_cycles = 0;
    }
}

impl Default for MemoryModule {
    fn default() -> Self {
        Self::new(Arbitration::default())
    }
}

/// One memory module's pending-request set, incrementally maintained —
/// the arbitration index that every event-driven skip-ahead kernel uses
/// instead of rebuilding a request slice each cycle.
///
/// The set has two layouts, because the two regimes it serves want
/// opposite ones. [`PendingSet::new`] picks one from the declared
/// capacity and the set keeps it for life; there is no migration:
///
/// * **Narrow sets** (a combining node's fan-in, a `resource` pool: a
///   declared capacity of at most `SMALL_MAX` = 16) keep the id-sorted
///   `Vec<Request>`. Random arbitration — which runs every busy cycle,
///   far more often than insert/remove — is a *direct `O(1)` index*,
///   and at this width the `O(len)` insert/remove memmoves are a few
///   requests. Ids past the declared capacity just grow the vector.
/// * **Wide sets** (every barrier of N ≥ 32, and mega-N) use a
///   word-level rank/select index over the id space: a `u64` presence
///   bitset, a Fenwick (binary-indexed) tree over the per-word popcounts
///   (`N/64` counts: 4 KB at N = 65536), and an id-indexed `since`
///   column. *Rank* (pending ids below a bound) is the tree's word
///   prefix sum plus a masked popcount; *select* (k-th smallest pending
///   id) is a Fenwick descent to the word holding it, then a branch-free
///   select within that word. Both are `O(log(capacity / 64))`; insert
///   and remove flip one bit and walk one tree path, moving no memory.
///   That is what makes the set usable at N = 10⁶, where the sorted
///   vector's memmove per insert/remove would turn one mega barrier
///   episode into ~10¹² byte moves, and it already pays off on the
///   paper's barriers of N = 32..512.
///   Random arbitration draws a uniform `k`, so the descent's turns are
///   coin flips a branch predictor cannot learn; the descent and the
///   in-word select therefore use masks and a lookup table, not
///   branches. The default x86-64 target has no `popcnt` instruction,
///   which makes a bit-by-bit in-word loop the most expensive part of a
///   draw. Round-robin usually finds its winner in the base's own word
///   with one masked `trailing_zeros`, and walks the tree only when that
///   word has no pending id left at or above the base. An id past the
///   declared capacity grows the index (`grow_for`).
///
/// The arbitration semantics are identical in both layouts, because rank
/// order over ids *is* sorted-vector order: random arbitration draws an
/// index `k` and selects the k-th smallest pending id — exactly
/// `requests[k].id` of the id-sorted snapshot a cycle stepper would hand
/// to [`MemoryModule::arbitrate`]; round-robin selects the first pending
/// id at-or-above the rotating base; oldest-first keeps its `(since, id)`
/// ordered index, maintained only under that policy (the other modes
/// never pay for it). No RNG draw depends on the layout, so the
/// threshold between them cannot perturb a simulation.
///
/// Unlike [`MemoryModule`], the set keeps no presented/served statistics:
/// skip-ahead kernels charge presented accesses in bulk when a request is
/// removed (a request is pending on *every* cycle of `[since, served]`
/// because the kernels never skip a cycle while a set is non-empty), so a
/// per-cycle counter would be both redundant and wrong across jumps.
///
/// # Examples
///
/// ```
/// use abs_net::module::{Arbitration, PendingSet, Request};
/// use abs_sim::rng::Xoshiro256PlusPlus;
///
/// let mut set = PendingSet::new(Arbitration::RoundRobin, 4);
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// set.insert(Request::new(2, 0));
/// set.insert(Request::new(0, 0));
/// assert_eq!(set.arbitrate(&mut rng), Some(0));
/// assert_eq!(set.arbitrate(&mut rng), Some(2));
/// assert_eq!(set.remove(0).id, 0);
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PendingSet {
    policy: Arbitration,
    index: Index,
    /// Rotating round-robin priority; mirrors the module's last winner.
    last_winner: Option<usize>,
    /// `(since, id)` ordered view; maintained only under `OldestFirst`.
    by_age: BTreeSet<(u64, usize)>,
}

/// The set's backing store, fixed at construction (see [`PendingSet`]).
#[derive(Debug, Clone)]
enum Index {
    /// Id-sorted requests: narrow-set layout.
    Sorted(Vec<Request>),
    /// Word-level rank/select over the id space: wide-set layout.
    Fenwick(Fenwick),
}

/// Ids per presence word.
const WORD: usize = 64;

/// One in every byte: the SWAR broadcast and byte-sum multiplier.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;

/// The high bit of every byte.
const BYTE_HIGHS: u64 = 0x8080_8080_8080_8080;

/// `SELECT_IN_BYTE[r << 8 | b]`: the position of the `r`-th smallest set
/// bit of byte `b` (8 when `b` has `r` or fewer set bits). 2 KB.
#[expect(clippy::cast_possible_truncation, reason = "bit positions are below 8")]
const SELECT_IN_BYTE: [u8; 8 * 256] = {
    let mut table = [8u8; 8 * 256];
    let mut b = 0;
    while b < 256 {
        let (mut r, mut bit) = (0, 0);
        while bit < 8 {
            if (b >> bit) & 1 == 1 {
                table[r << 8 | b] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

/// The position of the `r`-th smallest set bit of `word`, 0-indexed
/// (`r < word.count_ones()`), with no data-dependent branch. The default
/// x86-64 target has no `popcnt`, so a bit-by-bit loop here costs a
/// mispredicted branch per bit; instead SWAR byte counts locate the byte
/// and a table lookup the bit within it.
#[expect(clippy::cast_possible_truncation, reason = "the rank within a byte is below 8")]
fn select_in_word(word: u64, r: u64) -> u64 {
    debug_assert!(r < u64::from(word.count_ones()));
    // Per-byte popcounts, then their inclusive prefix sums: byte i of
    // `prefix` counts the set bits of bytes 0..=i (at most 64).
    let pairs = word - ((word >> 1) & 0x5555_5555_5555_5555);
    let nibbles = (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333);
    let bytes = (nibbles + (nibbles >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    let prefix = bytes.wrapping_mul(BYTE_ONES);
    // Byte i keeps its high bit in `(r | 0x80) - prefix_i` iff
    // `prefix_i <= r`; both are below 128, so no byte borrows from the
    // next. The prefix sums are monotone, so the number of such bytes is
    // the index of the byte that holds the r-th set bit.
    let fits = (((r * BYTE_ONES) | BYTE_HIGHS) - prefix) & BYTE_HIGHS;
    let shift = 8 * ((fits >> 7).wrapping_mul(BYTE_ONES) >> 56);
    // Set bits below that byte: the previous byte's prefix sum.
    let below = ((prefix << 8) >> shift) & 0xFF;
    let byte = ((word >> shift) & 0xFF) as usize;
    shift + u64::from(SELECT_IN_BYTE[((r - below) as usize) << 8 | byte])
}

/// Word-level rank/select index plus the `since` column, keyed by
/// processor id.
#[derive(Debug, Clone)]
struct Fenwick {
    /// Presence bitset: id `i` is bit `i % 64` of `bits[i / 64]`.
    bits: Vec<u64>,
    /// Fenwick tree over the words' popcounts: `tree[w]` (1-based) counts
    /// the pending ids of the words in its implicit range. Its length is a
    /// power of two plus one (the padding words are empty), so the select
    /// descent never steps past its end.
    tree: Vec<u32>,
    /// `Request::since` per id (SoA column; valid only while pending).
    since: Vec<u64>,
    len: usize,
}

impl Fenwick {
    /// An empty index sized for ids `< capacity`.
    fn new(capacity: usize) -> Self {
        let mut index = Self {
            bits: vec![0; capacity.div_ceil(WORD)],
            tree: Vec::new(),
            since: vec![0; capacity],
            len: 0,
        };
        index.rebuild();
        index
    }

    /// The id capacity (largest representable id + 1).
    fn capacity(&self) -> usize {
        self.since.len()
    }

    /// Whether `id` is pending.
    fn contains(&self, id: usize) -> bool {
        id < self.capacity() && (self.bits[id / WORD] >> (id % WORD)) & 1 == 1
    }

    /// Rebuilds the word tree from `bits` in O(words).
    fn rebuild(&mut self) {
        let size = self.bits.len().next_power_of_two();
        self.tree = vec![0; size + 1];
        for (w, word) in self.bits.iter().enumerate() {
            self.tree[w + 1] = word.count_ones();
        }
        // Linear-time Fenwick build: fold each node into its parent.
        for i in 1..=size {
            let parent = i + (i & i.wrapping_neg());
            if parent <= size {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    /// Grows the id space to hold `id` and rebuilds the tree (rare: only
    /// when a caller under-declared the set's capacity).
    fn grow_for(&mut self, id: usize) {
        let cap = (id + 1).max(self.capacity() * 2);
        self.since.resize(cap, 0);
        self.bits.resize(cap.div_ceil(WORD), 0);
        self.rebuild();
    }

    /// Marks `id` pending (`id < capacity`, not yet pending).
    fn set(&mut self, id: usize) {
        self.bits[id / WORD] |= 1 << (id % WORD);
        let mut i = id / WORD + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.len += 1;
    }

    /// Clears pending `id`.
    fn clear(&mut self, id: usize) {
        self.bits[id / WORD] &= !(1 << (id % WORD));
        let mut i = id / WORD + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        self.len -= 1;
    }

    /// Pending ids strictly below `bound`: the word tree's prefix sum
    /// plus a masked popcount of the partial word.
    fn rank(&self, bound: usize) -> usize {
        let bound = bound.min(self.capacity());
        let (word, bit) = (bound / WORD, bound % WORD);
        let mut sum = 0usize;
        let mut i = word;
        while i > 0 {
            sum += self.tree[i] as usize;
            i -= i & i.wrapping_neg();
        }
        if bit > 0 {
            sum += (self.bits[word] & ((1 << bit) - 1)).count_ones() as usize;
        }
        sum
    }

    /// The k-th smallest pending id, 0-indexed (`k < len`): a Fenwick
    /// descent to the word holding it, then [`select_in_word`].
    #[expect(clippy::cast_possible_truncation, reason = "a bit position within a word is below 64")]
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.len);
        let mut remaining = u32::try_from(k).unwrap_or(u32::MAX);
        let mut word = 0usize;
        let mut step = (self.tree.len() - 1) / 2;
        while step > 0 {
            // A mask, not a branch: under random arbitration `k` is
            // uniform, so every turn would be a coin-flip misprediction.
            let count = self.tree[word + step];
            let take = u32::from(count <= remaining).wrapping_neg();
            remaining -= count & take;
            word += step & take as usize;
            step /= 2;
        }
        word * WORD + select_in_word(self.bits[word], u64::from(remaining)) as usize
    }

    /// The smallest pending id at or above `base`, wrapping to the
    /// smallest pending id overall (`len > 0`): round-robin's winner. The
    /// base's own word answers with one masked `trailing_zeros`; only
    /// when it holds no pending id at or above `base` does the tree find
    /// the next one.
    fn first_from(&self, base: usize) -> usize {
        debug_assert!(self.len > 0);
        if base < self.capacity() {
            let word = base / WORD;
            let above = self.bits[word] & (u64::MAX << (base % WORD));
            if above != 0 {
                return word * WORD + above.trailing_zeros() as usize;
            }
            let at = self.rank((word + 1) * WORD);
            if at < self.len {
                return self.select(at);
            }
        }
        self.select(0)
    }
}

impl PendingSet {
    /// Widest declared capacity that gets the sorted-vector layout; a
    /// wider set gets the word-level index. At 16 the vector's direct
    /// draw still beats the index's descent, and its memmoves are short:
    /// combining nodes (2–8 wide) and `resource` pools (16) stay on it.
    /// From N = 32 up the barrier's insert/remove churn dominates, and
    /// the index, which moves no memory, runs the barrier grid faster the
    /// wider the set (DESIGN §9). The word index at every width was
    /// measured too: it slowed 2- and 4-wide combining trees by 25 % and
    /// 7 %.
    const SMALL_MAX: usize = 16;

    /// Creates an empty set with the given arbitration policy, sized for
    /// `capacity` simultaneous requesters. The capacity picks the layout
    /// for the set's whole life; an id past it still works (the set
    /// grows on demand) but keeps that layout.
    pub fn new(policy: Arbitration, capacity: usize) -> Self {
        let index = if capacity > Self::SMALL_MAX {
            Index::Fenwick(Fenwick::new(capacity))
        } else {
            Index::Sorted(Vec::with_capacity(capacity))
        };
        Self {
            policy,
            index,
            last_winner: None,
            by_age: BTreeSet::new(),
        }
    }

    /// The arbitration policy in force.
    pub fn policy(&self) -> Arbitration {
        self.policy
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        match &self.index {
            Index::Sorted(requests) => requests.len(),
            Index::Fenwick(fw) => fw.len,
        }
    }

    /// Whether no request is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The k-th smallest pending id, 0-indexed (`k < len`).
    fn select(&self, k: usize) -> usize {
        match &self.index {
            Index::Sorted(requests) => requests[k].id,
            Index::Fenwick(fw) => fw.select(k),
        }
    }

    /// The smallest pending id at or above `base`, wrapping to the
    /// smallest pending id overall (`len > 0`).
    fn first_from(&self, base: usize) -> usize {
        match &self.index {
            Index::Sorted(requests) => {
                let at = requests.partition_point(|r| r.id < base);
                requests[if at < requests.len() { at } else { 0 }].id
            }
            Index::Fenwick(fw) => fw.first_from(base),
        }
    }

    /// Inserts a request; `req.id` must not already be pending.
    pub fn insert(&mut self, req: Request) {
        match &mut self.index {
            Index::Sorted(requests) => {
                #[expect(clippy::expect_used, reason = "inserting an id that is already pending is a caller bug, reported by this panic")]
                let at = requests
                    .binary_search_by(|r| r.id.cmp(&req.id))
                    .expect_err("processor already pending");
                requests.insert(at, req);
            }
            Index::Fenwick(fw) => {
                if req.id >= fw.capacity() {
                    fw.grow_for(req.id);
                }
                assert!(!fw.contains(req.id), "processor already pending");
                fw.set(req.id);
                fw.since[req.id] = req.since;
            }
        }
        if self.policy == Arbitration::OldestFirst {
            self.by_age.insert((req.since, req.id));
        }
    }

    /// Removes and returns processor `id`'s request.
    pub fn remove(&mut self, id: usize) -> Request {
        let req = match &mut self.index {
            Index::Sorted(requests) => {
                #[expect(clippy::expect_used, reason = "callers pass ids taken from the request list")]
                let at = requests
                    .binary_search_by(|r| r.id.cmp(&id))
                    .expect("processor must be pending");
                requests.remove(at)
            }
            Index::Fenwick(fw) => {
                assert!(fw.contains(id), "processor must be pending");
                fw.clear(id);
                Request::new(id, fw.since[id])
            }
        };
        if self.policy == Arbitration::OldestFirst {
            self.by_age.remove(&(req.since, req.id));
        }
        req
    }

    /// Re-ages processor `id`'s pending request to `since`.
    pub fn refresh(&mut self, id: usize, since: u64) {
        let old = match &mut self.index {
            Index::Sorted(requests) => {
                #[expect(clippy::expect_used, reason = "callers pass ids taken from the request list")]
                let at = requests
                    .binary_search_by(|r| r.id.cmp(&id))
                    .expect("processor must be pending");
                std::mem::replace(&mut requests[at].since, since)
            }
            Index::Fenwick(fw) => {
                assert!(fw.contains(id), "processor must be pending");
                std::mem::replace(&mut fw.since[id], since)
            }
        };
        if self.policy == Arbitration::OldestFirst {
            self.by_age.remove(&(old, id));
            self.by_age.insert((since, id));
        }
    }

    /// Picks this cycle's winner exactly as [`MemoryModule::arbitrate`]
    /// would on the same snapshot: the same single RNG draw (random policy,
    /// non-empty set only) and the same tie-breaks. The winner stays in the
    /// set; the caller decides whether serving removes it.
    pub fn arbitrate(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<usize> {
        let len = self.len();
        if len == 0 {
            return None;
        }
        let winner = match self.policy {
            Arbitration::Random => self.select(rng.next_below_usize(len)),
            Arbitration::RoundRobin => self.first_from(self.last_winner.map_or(0, |w| w + 1)),
            #[expect(clippy::expect_used, reason = "by_age is maintained in lockstep with the non-empty pending set")]
            Arbitration::OldestFirst => self.by_age.first().expect("index tracks requests").1,
        };
        self.last_winner = Some(winner);
        Some(winner)
    }

    /// Advances `rng` exactly as [`Self::arbitrate`] would on this set —
    /// the same single `next_below_usize(len)` draw, rejection loop
    /// included, and no draw on an empty set — without resolving the
    /// winner. For a caller that knows every winner's service changes
    /// nothing it can observe (the barrier kernel's zero-delay poll
    /// misses), this keeps the draw sequence and skips the select.
    ///
    /// # Panics
    ///
    /// Panics unless the set arbitrates at random: round-robin and
    /// oldest-first winners move state (`last_winner`, request ages) that
    /// later picks read, so they cannot go unresolved.
    #[inline]
    pub fn draw_unobserved(&self, rng: &mut Xoshiro256PlusPlus) {
        assert_eq!(
            self.policy,
            Arbitration::Random,
            "only random arbitration can leave its winner unresolved"
        );
        let len = self.len();
        if len > 0 {
            rng.next_below_usize(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abs_sim::check::{self, Config};
    use abs_sim::forall;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(42)
    }

    fn reqs(ids: &[usize]) -> Vec<Request> {
        ids.iter().map(|&id| Request::new(id, 0)).collect()
    }

    #[test]
    fn idle_module_serves_nothing() {
        let mut m = MemoryModule::default();
        assert_eq!(m.arbitrate(&[], &mut rng()), None);
        assert_eq!(m.presented(), 0);
        assert_eq!(m.served(), 0);
        assert_eq!(m.busy_cycles(), 0);
    }

    #[test]
    fn single_requester_always_wins() {
        let mut m = MemoryModule::new(Arbitration::Random);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.arbitrate(&reqs(&[7]), &mut r), Some(7));
        }
        assert_eq!(m.presented(), 10);
        assert_eq!(m.served(), 10);
        assert_eq!(m.denied(), 0);
    }

    #[test]
    fn random_arbitration_counts_denied() {
        let mut m = MemoryModule::new(Arbitration::Random);
        let mut r = rng();
        for _ in 0..100 {
            m.arbitrate(&reqs(&[0, 1, 2, 3]), &mut r);
        }
        assert_eq!(m.presented(), 400);
        assert_eq!(m.served(), 100);
        assert_eq!(m.denied(), 300);
        assert_eq!(m.busy_cycles(), 100);
    }

    #[test]
    fn random_arbitration_is_roughly_fair() {
        let mut m = MemoryModule::new(Arbitration::Random);
        let mut r = rng();
        let mut wins = [0u32; 4];
        for _ in 0..4000 {
            let w = m.arbitrate(&reqs(&[0, 1, 2, 3]), &mut r).unwrap();
            wins[w] += 1;
        }
        for w in wins {
            assert!((800..1200).contains(&w), "wins {wins:?}");
        }
    }

    #[test]
    fn random_winner_expected_wait_matches_model() {
        // With k contenders and random selection, a given requester needs
        // ~k attempts in expectation to win — the assumption behind the
        // paper's Model 1 flag-write term.
        let mut r = rng();
        let k = 16usize;
        let mut total_attempts = 0u64;
        let trials = 2000;
        for _ in 0..trials {
            let mut m = MemoryModule::new(Arbitration::Random);
            let mut attempts = 0u64;
            loop {
                attempts += 1;
                let ids: Vec<Request> = (0..k).map(|i| Request::new(i, 0)).collect();
                if m.arbitrate(&ids, &mut r) == Some(0) {
                    break;
                }
            }
            total_attempts += attempts;
        }
        let avg = total_attempts as f64 / trials as f64;
        assert!((avg - k as f64).abs() < 1.5, "avg attempts {avg}");
    }

    #[test]
    fn round_robin_rotates() {
        let mut m = MemoryModule::new(Arbitration::RoundRobin);
        let mut r = rng();
        let w1 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        let w2 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        let w3 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        assert_eq!(w1, 0);
        assert_eq!(w2, 1);
        assert_eq!(w3, 2);
        let w4 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        assert_eq!(w4, 0);
    }

    #[test]
    fn round_robin_skips_absent() {
        let mut m = MemoryModule::new(Arbitration::RoundRobin);
        let mut r = rng();
        assert_eq!(m.arbitrate(&reqs(&[0, 1, 2]), &mut r), Some(0));
        // 1 absent; next in rotation present is 2.
        assert_eq!(m.arbitrate(&reqs(&[0, 2]), &mut r), Some(2));
    }

    #[test]
    fn oldest_first_prefers_earliest() {
        let mut m = MemoryModule::new(Arbitration::OldestFirst);
        let mut r = rng();
        let requests = vec![Request::new(3, 10), Request::new(5, 2), Request::new(1, 7)];
        assert_eq!(m.arbitrate(&requests, &mut r), Some(5));
    }

    #[test]
    fn oldest_first_ties_break_by_id() {
        let mut m = MemoryModule::new(Arbitration::OldestFirst);
        let mut r = rng();
        let requests = vec![Request::new(9, 4), Request::new(2, 4)];
        assert_eq!(m.arbitrate(&requests, &mut r), Some(2));
    }

    #[test]
    fn pending_set_tracks_membership() {
        let mut set = PendingSet::new(Arbitration::Random, 4);
        assert!(set.is_empty());
        set.insert(Request::new(3, 5));
        set.insert(Request::new(1, 6));
        assert_eq!(set.len(), 2);
        let r = set.remove(3);
        assert_eq!((r.id, r.since), (3, 5));
        assert_eq!(set.len(), 1);
        set.refresh(1, 9);
        let r = set.remove(1);
        assert_eq!((r.id, r.since), (1, 9));
        assert!(set.is_empty());
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn pending_set_rejects_duplicate_id() {
        let mut set = PendingSet::new(Arbitration::Random, 2);
        set.insert(Request::new(0, 0));
        set.insert(Request::new(0, 1));
    }

    #[test]
    fn pending_set_empty_arbitration_draws_nothing() {
        // An empty set must not touch the RNG — the skip-ahead kernels rely
        // on this to keep the draw sequence identical to a cycle stepper
        // that never presents an empty slice.
        let mut set = PendingSet::new(Arbitration::Random, 2);
        let mut a = rng();
        let before = a.next_u64();
        let mut b = rng();
        assert_eq!(set.arbitrate(&mut b), None);
        assert_eq!(before, b.next_u64());
    }

    #[test]
    fn draw_unobserved_advances_rng_like_arbitrate() {
        // Both layouts (the vector up to 16, the word index above), at
        // lengths on either side of a word, each declared at its own
        // width and inside a mega-N set, in lockstep for 1000 draws.
        for len in [1usize, 2, 63, 64, 65, 4096] {
            for capacity in [len, 1 << 16] {
                let mut set = PendingSet::new(Arbitration::Random, capacity);
                for id in 0..len {
                    set.insert(Request::new(id, 0));
                }
                let mut drawn = rng();
                let mut arbitrated = rng();
                for draw in 0..1000 {
                    set.draw_unobserved(&mut drawn);
                    assert!(set.arbitrate(&mut arbitrated).is_some());
                    assert_eq!(drawn, arbitrated, "len {len} capacity {capacity} draw {draw}");
                }
                assert_eq!(set.len(), len);
            }
        }
        // An empty set draws nothing, like `arbitrate`.
        let mut r = rng();
        PendingSet::new(Arbitration::Random, 4).draw_unobserved(&mut r);
        assert_eq!(r, rng());
    }

    #[test]
    fn draw_unobserved_rejects_ordered_arbitration() {
        for policy in [Arbitration::RoundRobin, Arbitration::OldestFirst] {
            let set = PendingSet::new(policy, 4);
            let outcome = std::panic::catch_unwind(|| set.draw_unobserved(&mut rng()));
            assert!(outcome.is_err(), "{policy:?} must refuse an unresolved draw");
        }
    }

    #[test]
    fn pending_set_matches_module_arbitration() {
        // Lockstep equivalence: a PendingSet maintained incrementally and a
        // MemoryModule handed the matching id-sorted slice must pick the
        // same winner with the same RNG draws, across every policy and a
        // randomized churn of inserts/removes/refreshes.
        let mut churn = Xoshiro256PlusPlus::seed_from_u64(0xC0FFEE);
        for policy in Arbitration::ALL {
            let mut module = MemoryModule::new(policy);
            let mut set = PendingSet::new(policy, 8);
            let mut module_rng = rng();
            let mut set_rng = rng();
            let mut pending: Vec<Request> = Vec::new();
            for cycle in 0..2000u64 {
                // Random churn: maybe insert a new id, maybe refresh one.
                let id = churn.next_below_usize(8);
                if pending.iter().all(|r| r.id != id) {
                    let req = Request::new(id, cycle);
                    pending.push(req);
                    pending.sort_by_key(|r| r.id);
                    set.insert(req);
                } else if churn.next_bool(0.3) {
                    let at = pending.iter().position(|r| r.id == id).unwrap();
                    pending[at].since = cycle;
                    set.refresh(id, cycle);
                }
                let expect = module.arbitrate(&pending, &mut module_rng);
                let got = set.arbitrate(&mut set_rng);
                assert_eq!(expect, got, "policy {policy:?} cycle {cycle}");
                // Serve the winner: remove from both views.
                if let Some(w) = got {
                    pending.retain(|r| r.id != w);
                    set.remove(w);
                }
            }
        }
    }

    /// Pending ids of `set` strictly below `bound`, from either layout.
    fn rank(set: &PendingSet, bound: usize) -> usize {
        match &set.index {
            Index::Sorted(requests) => requests.partition_point(|r| r.id < bound),
            Index::Fenwick(fw) => fw.rank(bound),
        }
    }

    /// Runs a set declared at `capacity` in lockstep with an id-sorted
    /// request vector handed to `MemoryModule::arbitrate`: same winners,
    /// same draws, and the same rank/select/round-robin answers at every
    /// step, under a churn whose ids hug word edges and land past the
    /// declared capacity (so the vector grows, or `grow_for` rebuilds the
    /// index, mid-run). The layout must be the one the capacity picks.
    fn assert_lockstep_with_module(seed: u64, policy: Arbitration, capacity: usize) {
        let mut set = PendingSet::new(policy, capacity);
        assert_eq!(
            matches!(set.index, Index::Fenwick(_)),
            capacity > PendingSet::SMALL_MAX,
            "layout at capacity {capacity}"
        );
        let mut module = MemoryModule::new(policy);
        let mut set_rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut module_rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut churn = Xoshiro256PlusPlus::seed_from_u64(!seed);
        let edges = [
            0,
            63,
            64,
            65,
            127,
            128,
            capacity - 1,
            capacity,
            capacity + 63,
            capacity + 64,
            2 * capacity + 65,
        ];
        let mut pending: Vec<Request> = Vec::new();
        for cycle in 0..400u64 {
            for _ in 0..churn.next_below(4) {
                let id = if churn.next_bool(0.3) {
                    edges[churn.next_below_usize(edges.len())]
                } else {
                    churn.next_below_usize(capacity + 128)
                };
                match pending.binary_search_by_key(&id, |r| r.id) {
                    Err(at) => {
                        pending.insert(at, Request::new(id, cycle));
                        set.insert(Request::new(id, cycle));
                    }
                    Ok(at) if churn.next_bool(0.3) => {
                        pending[at].since = cycle;
                        set.refresh(id, cycle);
                    }
                    Ok(_) => {}
                }
            }
            assert_eq!(set.len(), pending.len());
            let bound = churn.next_below_usize(3 * capacity + 130);
            let at = pending.partition_point(|r| r.id < bound);
            assert_eq!(rank(&set, bound), at, "rank({bound}) at cycle {cycle}");
            if !pending.is_empty() {
                let k = churn.next_below_usize(pending.len());
                assert_eq!(set.select(k), pending[k].id, "select({k}) at cycle {cycle}");
                let next = pending.get(at).unwrap_or(&pending[0]).id;
                assert_eq!(
                    set.first_from(bound),
                    next,
                    "first_from({bound}) at cycle {cycle}"
                );
            }
            let expect = module.arbitrate(&pending, &mut module_rng);
            let got = set.arbitrate(&mut set_rng);
            assert_eq!(expect, got, "{policy:?} capacity {capacity} cycle {cycle}");
            if let Some(w) = got {
                let at = pending.binary_search_by_key(&w, |r| r.id).unwrap();
                assert_eq!(set.remove(w), pending.remove(at));
            }
        }
    }

    #[test]
    fn layouts_match_module_arbitration_around_small_max() {
        // Declared capacities on both sides of `SMALL_MAX` and of a word:
        // each picks its layout once and keeps it, whatever ids arrive.
        const CAPACITIES: [usize; 7] = [1, 15, 16, 17, 33, 64, 65];
        forall!(Config::with_cases(64), (
            seed in check::any_u64(),
            policy_ix in check::usize_in(0..3),
            cap_ix in check::usize_in(0..7),
        ) {
            assert_lockstep_with_module(seed, Arbitration::ALL[policy_ix], CAPACITIES[cap_ix]);
        });
    }

    #[test]
    fn mega_layout_matches_module_arbitration() {
        // Mega-N declared capacities on and around a word boundary.
        const CAPACITIES: [usize; 4] = [1025, 4095, 4096, 4097];
        forall!(Config::with_cases(48), (
            seed in check::any_u64(),
            policy_ix in check::usize_in(0..3),
            cap_ix in check::usize_in(0..4),
        ) {
            assert_lockstep_with_module(seed, Arbitration::ALL[policy_ix], CAPACITIES[cap_ix]);
        });
    }

    /// The r-th smallest set bit of `word`, one bit at a time.
    fn naive_select(word: u64, r: u64) -> u64 {
        (0..64)
            .filter(|&bit| (word >> bit) & 1 == 1)
            .nth(usize::try_from(r).unwrap())
            .expect("r < popcount")
    }

    fn assert_select_in_word(word: u64) {
        for r in 0..u64::from(word.count_ones()) {
            assert_eq!(
                select_in_word(word, r),
                naive_select(word, r),
                "{word:#x} rank {r}"
            );
        }
    }

    #[test]
    fn select_in_word_matches_bit_scan() {
        // Every byte value at every byte position, alone and among random
        // neighbours, at every rank; then the dense and alternating words
        // and a batch of random ones.
        let mut filler = rng();
        for shift in (0..64).step_by(8) {
            for byte in 0..=255u64 {
                assert_select_in_word(byte << shift);
                assert_select_in_word(byte << shift | filler.next_u64() & !(0xFF << shift));
            }
        }
        for word in [
            u64::MAX,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAA,
            1,
            1 << 63,
        ] {
            assert_select_in_word(word);
        }
        for _ in 0..1000 {
            assert_select_in_word(filler.next_u64());
        }
    }

    #[test]
    fn pending_set_grows_past_declared_capacity() {
        let mut set = PendingSet::new(Arbitration::RoundRobin, 2);
        set.insert(Request::new(1, 0));
        set.insert(Request::new(100, 0));
        assert_eq!(set.len(), 2);
        let mut r = rng();
        assert_eq!(set.arbitrate(&mut r), Some(1));
        assert_eq!(set.arbitrate(&mut r), Some(100));
        assert_eq!(set.arbitrate(&mut r), Some(1));
        assert_eq!(set.remove(100).id, 100);
        assert_eq!(set.remove(1).id, 1);
        assert!(set.is_empty());
    }

    #[test]
    fn pending_set_rank_select_at_scale() {
        // The word-index paths (insert, remove, random select) must stay
        // consistent over a large sparse id space — the mega-N regime the
        // layout exists for.
        let n = 1 << 16;
        let mut set = PendingSet::new(Arbitration::Random, n);
        for id in (0..n).step_by(3) {
            set.insert(Request::new(id, id as u64));
        }
        let expected = n.div_ceil(3);
        assert_eq!(set.len(), expected);
        // k-th smallest pending id is 3k.
        assert_eq!(set.select(0), 0);
        assert_eq!(set.select(1), 3);
        assert_eq!(set.select(expected - 1), 3 * (expected - 1));
        assert_eq!(rank(&set, 0), 0);
        assert_eq!(rank(&set, 4), 2);
        assert_eq!(rank(&set, n), expected);
        // Churn: removing shifts every later rank down by one.
        set.remove(3);
        assert_eq!(set.select(1), 6);
        assert_eq!(rank(&set, 7), 2);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = MemoryModule::default();
        let mut r = rng();
        m.arbitrate(&reqs(&[0, 1]), &mut r);
        m.reset_stats();
        assert_eq!(m.presented(), 0);
        assert_eq!(m.served(), 0);
        assert_eq!(m.busy_cycles(), 0);
    }
}
