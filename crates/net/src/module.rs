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
            Arbitration::RoundRobin => {
                // Rotating priority: smallest id at-or-above `base`, with
                // wraparound (ids below `base` sort after all ids >= base).
                let base = self.last_winner.map(|w| w + 1).unwrap_or(0);
                requests
                    .iter()
                    .min_by_key(|r| r.id.wrapping_sub(base))
                    .expect("non-empty") // abs-lint: allow(panic-path) -- arbitrate() is only called with a non-empty request list
                    .id
            }
            Arbitration::OldestFirst => {
                requests
                    .iter()
                    .min_by_key(|r| (r.since, r.id))
                    .expect("non-empty") // abs-lint: allow(panic-path) -- arbitrate() is only called with a non-empty request list
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
/// The representation is adaptive, because the two regimes it serves want
/// opposite layouts:
///
/// * **Small sets** (a combining node's fan-in, a 512-processor barrier)
///   keep the id-sorted `Vec<Request>`: `O(len)` insert/remove memmoves
///   are cheap at this size, and random arbitration — which runs every
///   busy cycle, far more often than insert/remove — is a *direct
///   `O(1)` index*. Replacing this path wholesale with the tree below
///   measurably slowed every small-N acceptance point (combining
///   `a0_d4_none` by 4×), so the vector stays the default.
/// * **Mega-N sets** switch to struct-of-arrays over the id space: a
///   Fenwick (binary-indexed) tree of presence counts plus an id-indexed
///   `since` column. The tree answers *rank* (pending ids below a bound)
///   and *select* (k-th smallest pending id) in `O(log capacity)`, which
///   is what makes the set usable at N = 10⁶: the sorted vector's
///   `O(len)` memmove per insert/remove would turn one mega barrier
///   episode into ~10¹² byte moves. The switch happens when the pending
///   count first exceeds `SMALL_MAX` (or at construction, when
///   the declared capacity already exceeds it); it is one `O(capacity)`
///   rebuild and is never undone — a set that has been mega stays SoA.
///
/// The arbitration semantics are identical in both layouts, because rank
/// order over ids *is* sorted-vector order: random arbitration draws an
/// index `k` and selects the k-th smallest pending id — exactly
/// `requests[k].id` of the id-sorted snapshot a cycle stepper would hand
/// to [`MemoryModule::arbitrate`]; round-robin selects the first pending
/// id at-or-above the rotating base; oldest-first keeps its `(since, id)`
/// ordered index, maintained only under that policy (the other modes
/// never pay for it). No RNG draw depends on the layout, so migrating
/// mid-run cannot perturb a simulation.
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

/// The set's adaptive backing store (see [`PendingSet`]).
#[derive(Debug, Clone)]
enum Index {
    /// Id-sorted requests: small-set layout.
    Sorted(Vec<Request>),
    /// Fenwick SoA over the id space: mega-N layout.
    Fenwick(Fenwick),
}

/// Fenwick-tree presence index plus SoA columns, keyed by processor id.
#[derive(Debug, Clone)]
struct Fenwick {
    /// Fenwick tree over `[0, capacity)`: `tree[i]` (1-based) holds the
    /// count of pending ids in its implicit range.
    tree: Vec<u32>,
    /// Presence bit per id (SoA column).
    pending: Vec<bool>,
    /// `Request::since` per id (SoA column; valid only while pending).
    since: Vec<u64>,
    len: usize,
}

impl Fenwick {
    /// An empty index sized for ids `< capacity`.
    fn new(capacity: usize) -> Self {
        Self {
            tree: vec![0; capacity + 1],
            pending: vec![false; capacity],
            since: vec![0; capacity],
            len: 0,
        }
    }

    /// The id capacity (largest representable id + 1).
    fn capacity(&self) -> usize {
        self.pending.len()
    }

    /// Grows the id space to hold `id`, rebuilding the tree in
    /// O(capacity) (rare: only when a caller under-sized the set).
    fn grow_for(&mut self, id: usize) {
        let cap = (id + 1).max(self.capacity() * 2);
        self.pending.resize(cap, false);
        self.since.resize(cap, 0);
        self.tree = vec![0; cap + 1];
        for i in 0..cap {
            if self.pending[i] {
                self.tree[i + 1] += 1;
            }
        }
        // Linear-time Fenwick build: fold each node into its parent.
        for i in 1..=cap {
            let parent = i + (i & i.wrapping_neg());
            if parent <= cap {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    /// Increments the count at `id` (Fenwick point update).
    fn inc(&mut self, id: usize) {
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Decrements the count at `id`; the id must be pending.
    fn dec(&mut self, id: usize) {
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Pending ids strictly below `bound` (Fenwick prefix sum).
    fn rank(&self, bound: usize) -> usize {
        let mut i = bound.min(self.capacity());
        let mut sum = 0usize;
        while i > 0 {
            sum += self.tree[i] as usize;
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// The k-th smallest pending id, 0-indexed (`k < len`).
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.len);
        let mut remaining = u32::try_from(k).unwrap_or(u32::MAX);
        let mut pos = 0usize;
        let mut step = self.tree.len().next_power_of_two() / 2;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        pos // 1-based tree index of the predecessor == 0-based id
    }
}

impl PendingSet {
    /// Pending-count bound for the sorted-vector layout; the first insert
    /// past it (or a declared capacity above it) switches the set to the
    /// Fenwick SoA. At N ≤ 512 the vector is faster, at N = 4096 its
    /// memmoves already lose badly, so the crossover sits between. The
    /// ledger's `net.pendingset.*` probes time both layouts: the vector at
    /// 64 and 1024 pending, the Fenwick SoA at 65536.
    const SMALL_MAX: usize = 1024;

    /// Creates an empty set with the given arbitration policy, sized for
    /// `capacity` simultaneous requesters (it grows on demand if a larger
    /// id shows up).
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

    /// One-way migration to the Fenwick SoA, triggered by the insert that
    /// pushes the pending count past [`Self::SMALL_MAX`]. Pure layout
    /// change: same pending ids, same `since` values, no RNG involvement.
    fn migrate(&mut self) {
        let Index::Sorted(requests) = &self.index else {
            return;
        };
        let cap = requests.last().map_or(0, |r| r.id + 1);
        let mut fw = Fenwick::new(cap);
        for req in requests {
            fw.pending[req.id] = true;
            fw.since[req.id] = req.since;
            fw.tree[req.id + 1] = 1;
        }
        fw.len = requests.len();
        for i in 1..=cap {
            let parent = i + (i & i.wrapping_neg());
            if parent <= cap {
                fw.tree[parent] += fw.tree[i];
            }
        }
        self.index = Index::Fenwick(fw);
    }

    /// The k-th smallest pending id, 0-indexed (`k < len`).
    fn select(&self, k: usize) -> usize {
        match &self.index {
            Index::Sorted(requests) => requests[k].id,
            Index::Fenwick(fw) => fw.select(k),
        }
    }

    /// Pending ids strictly below `bound`.
    fn rank(&self, bound: usize) -> usize {
        match &self.index {
            Index::Sorted(requests) => requests.partition_point(|r| r.id < bound),
            Index::Fenwick(fw) => fw.rank(bound),
        }
    }

    /// Inserts a request; `req.id` must not already be pending.
    pub fn insert(&mut self, req: Request) {
        match &mut self.index {
            Index::Sorted(requests) => {
                let at = requests
                    .binary_search_by(|r| r.id.cmp(&req.id))
                    .expect_err("processor already pending");
                requests.insert(at, req);
                if requests.len() > Self::SMALL_MAX {
                    self.migrate();
                }
            }
            Index::Fenwick(fw) => {
                if req.id >= fw.capacity() {
                    fw.grow_for(req.id);
                }
                assert!(!fw.pending[req.id], "processor already pending");
                fw.pending[req.id] = true;
                fw.since[req.id] = req.since;
                fw.inc(req.id);
                fw.len += 1;
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
                let at = requests
                    .binary_search_by(|r| r.id.cmp(&id))
                    .expect("processor must be pending"); // abs-lint: allow(panic-path) -- callers pass ids taken from the request list
                requests.remove(at)
            }
            Index::Fenwick(fw) => {
                assert!(
                    id < fw.capacity() && fw.pending[id],
                    "processor must be pending"
                );
                fw.pending[id] = false;
                fw.dec(id);
                fw.len -= 1;
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
                let at = requests
                    .binary_search_by(|r| r.id.cmp(&id))
                    .expect("processor must be pending"); // abs-lint: allow(panic-path) -- callers pass ids taken from the request list
                std::mem::replace(&mut requests[at].since, since)
            }
            Index::Fenwick(fw) => {
                assert!(
                    id < fw.capacity() && fw.pending[id],
                    "processor must be pending"
                );
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
            Arbitration::RoundRobin => {
                // Smallest id at-or-above the rotating base, wrapping to
                // the smallest id overall.
                let base = self.last_winner.map_or(0, |w| w + 1);
                let at = self.rank(base);
                self.select(if at < len { at } else { 0 })
            }
            Arbitration::OldestFirst => self.by_age.first().expect("index tracks requests").1, // abs-lint: allow(panic-path) -- by_age is maintained in lockstep with the non-empty pending set
        };
        self.last_winner = Some(winner);
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // The Fenwick paths (insert, remove, random select) must stay
        // consistent over a large sparse id space — the mega-N regime the
        // SoA layout exists for.
        let n = 1 << 16;
        let mut set = PendingSet::new(Arbitration::Random, n);
        for id in (0..n).step_by(3) {
            set.insert(Request::new(id, id as u64));
        }
        let expected = (n + 2) / 3;
        assert_eq!(set.len(), expected);
        // k-th smallest pending id is 3k.
        assert_eq!(set.select(0), 0);
        assert_eq!(set.select(1), 3);
        assert_eq!(set.select(expected - 1), 3 * (expected - 1));
        assert_eq!(set.rank(0), 0);
        assert_eq!(set.rank(4), 2);
        assert_eq!(set.rank(n), expected);
        // Churn: removing shifts every later rank down by one.
        set.remove(3);
        assert_eq!(set.select(1), 6);
        assert_eq!(set.rank(7), 2);
    }

    #[test]
    fn pending_set_migration_is_invisible() {
        // A set that starts in the sorted-vector layout and crosses
        // SMALL_MAX mid-run must arbitrate exactly like one that was
        // Fenwick from construction: the layout is never allowed to
        // perturb a draw or a winner.
        let n = 2 * PendingSet::SMALL_MAX;
        for policy in [
            Arbitration::Random,
            Arbitration::RoundRobin,
            Arbitration::OldestFirst,
        ] {
            let mut small = PendingSet::new(policy, 4); // migrates mid-run
            let mut big = PendingSet::new(policy, n); // Fenwick from birth
            let mut r_small = rng();
            let mut r_big = rng();
            let mut driver = Xoshiro256PlusPlus::seed_from_u64(9);
            for id in 0..n {
                small.insert(Request::new(id, id as u64));
                big.insert(Request::new(id, id as u64));
                if driver.next_bool(0.3) {
                    assert_eq!(
                        small.arbitrate(&mut r_small),
                        big.arbitrate(&mut r_big),
                        "policy {policy:?} after insert {id}"
                    );
                }
            }
            assert_eq!(small.len(), n);
            // Drain through arbitration; winners must stay in lockstep.
            while !small.is_empty() {
                let (a, b) = (small.arbitrate(&mut r_small), big.arbitrate(&mut r_big));
                assert_eq!(a, b, "policy {policy:?} at len {}", small.len());
                let w = a.expect("non-empty set always yields a winner");
                assert_eq!(small.remove(w).since, big.remove(w).since);
            }
        }
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
