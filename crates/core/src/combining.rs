//! Software combining-tree barriers with backoff at intermediate nodes.
//!
//! Section 8: "For software-tree based implementations of barriers on
//! non-cache-coherent multiprocessors as suggested by Yew, Tseng, and
//! Lawrie, our methods can still be used to reduce the spins on the
//! intermediate nodes of the tree." And Section 6.2 notes that for very
//! large `N` "barrier synchronization is probably inappropriate anyway
//! without some form of distributed software combining".
//!
//! The tree: processors are partitioned into groups of `degree` at the
//! leaves; each tree node is a little Tang–Yew barrier (variable + flag)
//! living in its **own** pair of memory modules, so contention is confined
//! to `degree` participants per node. The last arriver at a node climbs to
//! the parent; the root's last arriver sets the root flag, and each climber,
//! once released from above, sets the flag of the node it climbed from,
//! releasing its siblings — release propagates down the tree.
//!
//! # Kernels
//!
//! Like [`BarrierSim`](crate::barrier::BarrierSim), the simulator ships two
//! bit-identical kernels selected by [`Kernel`]: the reference cycle
//! stepper, which rescans all `N` processors and all nodes every cycle, and
//! the event-driven skip-ahead kernel, which keeps one [`PendingSet`] per
//! node module, keyed by node-local slot so a node's set is sized by its
//! fan-in rather than by `N`, tracks the set of *active* nodes (any
//! pending request) in a bitset over node ids, parks dormant processors
//! in a [`TimeWheel`], and jumps the clock over dead cycles. Presented-access
//! charges — including the per-module counters behind
//! [`CombiningRun::max_module_accesses`] — are applied in bulk when a
//! request leaves its set.

use abs_net::module::{Arbitration, MemoryModule, PendingSet, Request};
use abs_sim::bitset::FixedBitset;
use abs_sim::kernel::Kernel;
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::wheel::TimeWheel;

use crate::policy::BackoffPolicy;

/// Static parameters of a combining-tree barrier episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CombiningConfig {
    /// Number of synchronizing processors.
    pub n: usize,
    /// Arrival interval in cycles.
    pub span: u64,
    /// Fan-in of each tree node (`>= 2`).
    pub degree: usize,
    /// Arbitration policy of every node's pair of memory modules.
    pub arbitration: Arbitration,
}

impl CombiningConfig {
    /// Creates a configuration with the paper's default random arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `degree < 2`.
    pub fn new(n: usize, span: u64, degree: usize) -> Self {
        assert!(n > 0, "at least one processor required");
        assert!(degree >= 2, "tree degree must be at least 2");
        Self {
            n,
            span,
            degree,
            arbitration: Arbitration::Random,
        }
    }

    /// Returns a copy using the given arbitration policy.
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> Self {
        self.arbitration = arbitration;
        self
    }
}

/// A node of the combining tree: topology and barrier state. The memory
/// modules backing a node live with the kernel that simulates them.
#[derive(Debug, Clone)]
struct Node {
    /// Parent node index, `None` for the root.
    parent: Option<usize>,
    /// Number of participants expected (children count, or leaf group
    /// size).
    expected: usize,
    /// `degreeᴸ` for a node of level `L` (leaves are level 0): processor
    /// `p` reaches this node from child slot `(p / stride) % degree`.
    stride: usize,
    /// Current fetch-and-add count.
    count: usize,
    /// Whether the release flag is set.
    flag: bool,
}

/// Builds the node list for `n` processors with the given fan-in. Returns
/// `(nodes, leaf_of_processor)`.
fn build_tree(n: usize, degree: usize) -> (Vec<Node>, Vec<usize>) {
    let new_node = |parent, expected, stride| Node {
        parent,
        expected,
        stride,
        count: 0,
        flag: false,
    };
    let mut nodes: Vec<Node> = Vec::new();
    // Leaf level: group processors.
    let leaf_count = n.div_ceil(degree);
    let mut leaf_of = vec![0usize; n];
    for (p, leaf) in leaf_of.iter_mut().enumerate() {
        *leaf = p / degree;
    }
    for leaf in 0..leaf_count {
        let members = ((leaf + 1) * degree).min(n) - leaf * degree;
        nodes.push(new_node(None, members, 1));
    }
    // Upper levels: group nodes of the previous level.
    let mut level_start = 0usize;
    let mut level_len = leaf_count;
    let mut stride = 1usize;
    while level_len > 1 {
        // A next level exists only while `n > stride · degree`, so the
        // product cannot overflow.
        stride *= degree;
        let next_len = level_len.div_ceil(degree);
        let next_start = nodes.len();
        for g in 0..next_len {
            let members = ((g + 1) * degree).min(level_len) - g * degree;
            nodes.push(new_node(None, members, stride));
        }
        for i in 0..level_len {
            nodes[level_start + i].parent = Some(next_start + i / degree);
        }
        level_start = next_start;
        level_len = next_len;
    }
    (nodes, leaf_of)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NotArrived,
    VarReq { node: usize, since: u64 },
    VarWait { node: usize, until: u64 },
    FlagPoll { node: usize, since: u64, polls: u32 },
    FlagWait { node: usize, until: u64, polls: u32 },
    Release { since: u64 },
    Done,
}

/// The result of one combining-tree barrier episode.
#[derive(Debug, Clone, PartialEq)]
pub struct CombiningRun {
    accesses: Vec<u64>,
    waiting: Vec<u64>,
    completion: u64,
    max_module_accesses: u64,
    nodes: usize,
}

impl CombiningRun {
    /// Network accesses per processor.
    pub fn accesses(&self) -> &[u64] {
        &self.accesses
    }

    /// Cycles from arrival to release, per processor.
    pub fn waiting(&self) -> &[u64] {
        &self.waiting
    }

    /// Mean accesses per processor.
    pub fn mean_accesses(&self) -> f64 {
        self.accesses.iter().map(|&a| a as f64).sum::<f64>() / self.accesses.len() as f64
    }

    /// Mean waiting time per processor.
    pub fn mean_waiting(&self) -> f64 {
        self.waiting.iter().map(|&w| w as f64).sum::<f64>() / self.waiting.len() as f64
    }

    /// Cycle at which the last processor was released.
    pub fn completion(&self) -> u64 {
        self.completion
    }

    /// The heaviest per-module access count — the hot-spot measure that the
    /// tree is supposed to flatten relative to a single flag module.
    pub fn max_module_accesses(&self) -> u64 {
        self.max_module_accesses
    }

    /// Number of tree nodes used.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

/// Builds the episode result from the final per-processor state (shared by
/// both kernels, so the field derivations cannot drift apart).
fn collect_run(
    accesses: Vec<u64>,
    done_at: &[u64],
    arrivals: &[u64],
    max_module_accesses: u64,
    nodes: usize,
) -> CombiningRun {
    let waiting: Vec<u64> = done_at
        .iter()
        .zip(arrivals)
        .map(|(&d, &a)| d - a)
        .collect();
    CombiningRun {
        accesses,
        waiting,
        completion: done_at.iter().copied().max().unwrap_or(0),
        max_module_accesses,
        nodes,
    }
}

/// One module kind (every node's variable, or every node's flag) in the
/// event kernel: a [`PendingSet`] per node keyed by **node-local slot**,
/// plus one flat `slot → processor` column and the bulk presented counters.
///
/// Processor `p` reaches node `v` only as the climber from child slot
/// `(p / stride) % degree`, one processor per slot, so the slot key fits in
/// `expected` entries. Within a node the map is monotone in `p`, so the
/// k-th smallest slot, the first slot at-or-above a base, and the lowest
/// slot among equal ages all name the same processor as the global id
/// would.
#[derive(Debug)]
struct NodeSets {
    degree: usize,
    pending: Vec<PendingSet>,
    /// `proc_of[v * degree + slot]`: the processor holding `slot` at `v`.
    proc_of: Vec<usize>,
    /// Presented accesses per node module, mirroring the cycle kernel's.
    presented: Vec<u64>,
}

impl NodeSets {
    fn new(nodes: &[Node], arbitration: Arbitration, degree: usize) -> Self {
        Self {
            degree,
            pending: nodes
                .iter()
                .map(|nd| PendingSet::new(arbitration, nd.expected))
                .collect(),
            proc_of: vec![0; nodes.len() * degree],
            presented: vec![0; nodes.len()],
        }
    }

    /// Enqueues processor `p` at node `v` under its slot there.
    fn insert(&mut self, nodes: &[Node], v: usize, p: usize, since: u64) {
        let slot = (p / nodes[v].stride) % self.degree;
        debug_assert!(slot < nodes[v].expected, "processor {p} outside node {v}");
        self.insert_at(v, slot, p, since);
    }

    /// [`Self::insert`] when the caller already knows `p`'s slot at `v`.
    fn insert_at(&mut self, v: usize, slot: usize, p: usize, since: u64) {
        self.proc_of[v * self.degree + slot] = p;
        self.pending[v].insert(Request::new(slot, since));
    }

    /// Node `v`'s winner this cycle as `(slot, processor)`, if any request
    /// is pending; the slot keys the winner in `pending[v]`.
    fn arbitrate(&mut self, v: usize, rng: &mut Xoshiro256PlusPlus) -> Option<(usize, usize)> {
        let slot = self.pending[v].arbitrate(rng)?;
        Some((slot, self.proc_of[v * self.degree + slot]))
    }
}

/// Simulator of a combining-tree barrier under a backoff policy.
///
/// # Examples
///
/// ```
/// use abs_core::combining::{CombiningConfig, CombiningTreeSim};
/// use abs_core::BackoffPolicy;
///
/// let sim = CombiningTreeSim::new(CombiningConfig::new(64, 100, 4), BackoffPolicy::None);
/// let run = sim.run(1);
/// assert_eq!(run.accesses().len(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombiningTreeSim {
    config: CombiningConfig,
    policy: BackoffPolicy,
}

impl CombiningTreeSim {
    /// Creates a simulator.
    pub fn new(config: CombiningConfig, policy: BackoffPolicy) -> Self {
        Self { config, policy }
    }

    /// The configuration in force.
    pub fn config(&self) -> CombiningConfig {
        self.config
    }

    /// The policy in force.
    pub fn policy(&self) -> BackoffPolicy {
        self.policy
    }

    /// Simulates one episode on the default (event-driven) kernel.
    pub fn run(&self, seed: u64) -> CombiningRun {
        self.run_with(seed, Kernel::default())
    }

    /// Simulates one episode on the given kernel.
    ///
    /// `Kernel::Cycle` is the reference oracle; `Kernel::Event` is
    /// bit-identical and much faster (the equivalence suite in `abs-bench`
    /// asserts the identity).
    pub fn run_with(&self, seed: u64, kernel: Kernel) -> CombiningRun {
        match kernel {
            Kernel::Cycle => self.run_cycle_kernel(seed),
            Kernel::Event => self.run_event_kernel(seed),
        }
    }

    /// The reference cycle stepper: every simulated cycle rescans all `N`
    /// processors and restages every node's request lists.
    fn run_cycle_kernel(&self, seed: u64) -> CombiningRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);
        let (mut nodes, leaf_of) = build_tree(n, self.config.degree);
        let mut var_modules: Vec<MemoryModule> = nodes
            .iter()
            .map(|_| MemoryModule::new(self.config.arbitration))
            .collect();
        let mut flag_modules: Vec<MemoryModule> = nodes
            .iter()
            .map(|_| MemoryModule::new(self.config.arbitration))
            .collect();

        let mut phases: Vec<Phase> = vec![Phase::NotArrived; n];
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut accesses = vec![0u64; n];
        let mut done_at = vec![0u64; n];

        let mut now = arrivals[0];
        let mut done = 0usize;
        // Per-node request staging: (node, proc, since) triples rebuilt each
        // cycle.
        let mut var_reqs: Vec<Vec<Request>> = vec![Vec::new(); nodes.len()];
        let mut flag_reqs: Vec<Vec<Request>> = vec![Vec::new(); nodes.len()];

        while done < n {
            // Activate arrivals and expired waits.
            for (id, phase) in phases.iter_mut().enumerate() {
                match *phase {
                    Phase::NotArrived if arrivals[id] <= now => {
                        *phase = Phase::VarReq {
                            node: leaf_of[id],
                            since: now,
                        };
                    }
                    Phase::VarWait { node, until } if until <= now => {
                        *phase = Phase::FlagPoll {
                            node,
                            since: now,
                            polls: 0,
                        };
                    }
                    Phase::FlagWait { node, until, polls } if until <= now => {
                        *phase = Phase::FlagPoll {
                            node,
                            since: now,
                            polls,
                        };
                    }
                    _ => {}
                }
            }

            // Stage requests per node.
            for list in var_reqs.iter_mut().chain(flag_reqs.iter_mut()) {
                list.clear();
            }
            for (id, phase) in phases.iter().enumerate() {
                match *phase {
                    Phase::VarReq { node, since } => {
                        accesses[id] += 1;
                        var_reqs[node].push(Request::new(id, since));
                    }
                    Phase::FlagPoll { node, since, .. } => {
                        accesses[id] += 1;
                        flag_reqs[node].push(Request::new(id, since));
                    }
                    Phase::Release { since } => {
                        accesses[id] += 1;
                        #[expect(clippy::expect_used, reason = "Release is only entered after climbing owns a node")]
                        let node = *owned[id].last().expect("release implies owned node");
                        flag_reqs[node].push(Request::new(id, since));
                    }
                    _ => {}
                }
            }

            // Arbitrate each node independently (they live in distinct
            // modules).
            for v in 0..nodes.len() {
                if let Some(winner) = var_modules[v].arbitrate(&var_reqs[v], &mut rng) {
                    nodes[v].count += 1;
                    let i = nodes[v].count;
                    let expected = nodes[v].expected;
                    if i == expected {
                        owned[winner].push(v);
                        match nodes[v].parent {
                            Some(parent) => {
                                phases[winner] = Phase::VarReq {
                                    node: parent,
                                    since: now + 1,
                                };
                            }
                            None => {
                                // Root winner: release downwards.
                                phases[winner] = Phase::Release { since: now + 1 };
                            }
                        }
                    } else {
                        let wait = self.policy.variable_wait(expected, i);
                        phases[winner] = if wait == 0 {
                            Phase::FlagPoll {
                                node: v,
                                since: now + 1,
                                polls: 0,
                            }
                        } else {
                            Phase::VarWait {
                                node: v,
                                until: now + 1 + wait,
                            }
                        };
                    }
                }

                if let Some(winner) = flag_modules[v].arbitrate(&flag_reqs[v], &mut rng) {
                    match phases[winner] {
                        Phase::Release { .. } => {
                            nodes[v].flag = true;
                            owned[winner].pop();
                            if owned[winner].is_empty() {
                                phases[winner] = Phase::Done;
                                done_at[winner] = now;
                                done += 1;
                            } else {
                                phases[winner] = Phase::Release { since: now + 1 };
                            }
                        }
                        Phase::FlagPoll { node, polls, .. } => {
                            debug_assert_eq!(node, v);
                            if nodes[v].flag {
                                // Released: propagate down whatever we own.
                                if owned[winner].is_empty() {
                                    phases[winner] = Phase::Done;
                                    done_at[winner] = now;
                                    done += 1;
                                } else {
                                    phases[winner] = Phase::Release { since: now + 1 };
                                }
                            } else {
                                let polls = polls + 1;
                                match self.policy.flag_delay(polls) {
                                    Some(0) | None => {
                                        // The queue variant degenerates to
                                        // continuous polling inside a tree
                                        // node; parking is a flat-barrier
                                        // concept.
                                        phases[winner] = Phase::FlagPoll {
                                            node: v,
                                            since: now + 1,
                                            polls,
                                        };
                                    }
                                    Some(d) => {
                                        phases[winner] = Phase::FlagWait {
                                            node: v,
                                            until: now + 1 + d,
                                            polls,
                                        };
                                    }
                                }
                            }
                        }
                        _ => unreachable!("only pollers and releasers are served"),
                    }
                }
            }

            let any_requesting = phases.iter().any(|p| {
                matches!(
                    p,
                    Phase::VarReq { .. } | Phase::FlagPoll { .. } | Phase::Release { .. }
                )
            });
            if any_requesting {
                now += 1;
            } else if done < n {
                #[expect(clippy::expect_used, reason = "pending < n guarantees a scheduled event exists")]
                let next = phases
                    .iter()
                    .enumerate()
                    .filter_map(|(id, p)| match *p {
                        Phase::NotArrived => Some(arrivals[id]),
                        Phase::VarWait { until, .. } => Some(until),
                        Phase::FlagWait { until, .. } => Some(until),
                        _ => None,
                    })
                    .min()
                    .expect("pending processors must have a next event");
                now = next.max(now + 1);
            }
        }

        let max_module_accesses = var_modules
            .iter()
            .chain(flag_modules.iter())
            .map(|m| m.presented())
            .max()
            .unwrap_or(0);
        collect_run(
            accesses,
            &done_at,
            &arrivals,
            max_module_accesses,
            nodes.len(),
        )
    }

    /// The event-driven skip-ahead kernel.
    ///
    /// Per-node [`PendingSet`]s keyed by node-local slot (see [`NodeSets`])
    /// replace the per-cycle staging scan, an *active-node* bitset
    /// replaces the all-nodes arbitration loop, and dormant processors
    /// wake from a [`TimeWheel`], which replays the sorted arrivals from a
    /// cursor and parks the `VarWait`/`FlagWait` expiries. Per busy cycle
    /// the work is O(nodes / 64 + active nodes + events), not
    /// O(N + nodes): the bitset's ascending scan reads every word, which
    /// at the trees' node counts (257 at N = 2²⁰, d = 4096) is a few
    /// words, and in exchange activating or retiring a node is one bit
    /// flip with no allocation.
    ///
    /// Bit-identity with the cycle stepper rests on the same three
    /// invariants as the barrier kernel (same busy cycles, same RNG draw
    /// order, same transitions), plus one tree-specific refinement: the
    /// cycle stepper stages all requests *before* arbitrating any node, so
    /// this kernel arbitrates every active node on the cycle's snapshots
    /// first (ascending node id, variable before flag — empty sets draw
    /// nothing) and only then applies the winners' transitions, whose
    /// inserted requests become pending at `now + 1`. Presented-access
    /// charges — both the per-processor counts and the per-module hot-spot
    /// counters — are applied wholesale when a request leaves its set; a
    /// zero-delay poll miss re-ages the request in place without breaking
    /// the charge interval.
    fn run_event_kernel(&self, seed: u64) -> CombiningRun {
        let n = self.config.n;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let arrivals = rng.uniform_arrivals(n, self.config.span);
        let (mut nodes, leaf_of) = build_tree(n, self.config.degree);

        let degree = self.config.degree;
        let mut var = NodeSets::new(&nodes, self.config.arbitration, degree);
        let mut flag = NodeSets::new(&nodes, self.config.arbitration, degree);
        // Nodes with at least one pending request, ascending — exactly the
        // nodes whose arbitration could draw this cycle.
        let mut active = FixedBitset::new(nodes.len());

        let mut phases: Vec<Phase> = vec![Phase::NotArrived; n];
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut accesses = vec![0u64; n];
        let mut done_at = vec![0u64; n];
        // First cycle the processor's current request has been charged
        // from. Unlike `Request::since`, never re-aged by a zero-delay poll
        // miss: the request stays pending across the miss, so its charge
        // interval runs unbroken from the original enqueue.
        let mut charge_from = vec![0u64; n];

        let mut now = arrivals[0];
        let mut done = 0usize;
        let mut wheel = TimeWheel::with_arrivals(&arrivals);
        let mut due: Vec<usize> = Vec::new();
        // (node, variable winner, flag winner), each winner a (slot, proc).
        type Winner = Option<(usize, usize)>;
        let mut winners: Vec<(usize, Winner, Winner)> = Vec::new();

        while done < n {
            // Activate arrivals and expired waits due this cycle, in id
            // order.
            wheel.pop_due(now, &mut due);
            for &id in &due {
                match phases[id] {
                    Phase::NotArrived => {
                        let node = leaf_of[id];
                        phases[id] = Phase::VarReq { node, since: now };
                        var.insert(&nodes, node, id, now);
                        charge_from[id] = now;
                        active.insert(node);
                    }
                    Phase::VarWait { node, until } => {
                        debug_assert!(until <= now);
                        phases[id] = Phase::FlagPoll {
                            node,
                            since: now,
                            polls: 0,
                        };
                        flag.insert(&nodes, node, id, now);
                        charge_from[id] = now;
                        active.insert(node);
                    }
                    Phase::FlagWait { node, until, polls } => {
                        debug_assert!(until <= now);
                        phases[id] = Phase::FlagPoll {
                            node,
                            since: now,
                            polls,
                        };
                        flag.insert(&nodes, node, id, now);
                        charge_from[id] = now;
                        active.insert(node);
                    }
                    _ => unreachable!("only dormant processors sleep in the wheel"),
                }
            }

            debug_assert!(!active.is_empty(), "processed a dead cycle at {now}");

            // Arbitrate every active node on this cycle's snapshots before
            // applying any transition: ascending node id, variable before
            // flag, matching the cycle stepper's draw order (its staged
            // lists are fixed before its arbitration loop runs, so later
            // nodes never see earlier winners' transitions).
            winners.clear();
            for v in &active {
                let var_winner = var.arbitrate(v, &mut rng);
                let flag_winner = flag.arbitrate(v, &mut rng);
                winners.push((v, var_winner, flag_winner));
            }

            // Apply the winners' transitions in the same node order.
            for &(v, var_winner, flag_winner) in &winners {
                if let Some((slot, winner)) = var_winner {
                    var.pending[v].remove(slot);
                    // Presented on every cycle since enqueue, served or
                    // denied — charged to the processor and to the node's
                    // variable module alike.
                    let span = now - charge_from[winner] + 1;
                    accesses[winner] += span;
                    var.presented[v] += span;
                    nodes[v].count += 1;
                    let i = nodes[v].count;
                    let expected = nodes[v].expected;
                    if i == expected {
                        owned[winner].push(v);
                        match nodes[v].parent {
                            Some(parent) => {
                                phases[winner] = Phase::VarReq {
                                    node: parent,
                                    since: now + 1,
                                };
                                var.insert(&nodes, parent, winner, now + 1);
                                charge_from[winner] = now + 1;
                                active.insert(parent);
                            }
                            None => {
                                // Root winner: release downwards.
                                phases[winner] = Phase::Release { since: now + 1 };
                                let target = v;
                                debug_assert_eq!(owned[winner].last(), Some(&target));
                                flag.insert(&nodes, target, winner, now + 1);
                                charge_from[winner] = now + 1;
                                active.insert(target);
                            }
                        }
                    } else {
                        let wait = self.policy.variable_wait(expected, i);
                        if wait == 0 {
                            phases[winner] = Phase::FlagPoll {
                                node: v,
                                since: now + 1,
                                polls: 0,
                            };
                            // Same node, same slot.
                            flag.insert_at(v, slot, winner, now + 1);
                            charge_from[winner] = now + 1;
                        } else {
                            phases[winner] = Phase::VarWait {
                                node: v,
                                until: now + 1 + wait,
                            };
                            wheel.schedule(now + 1 + wait, winner);
                        }
                    }
                }

                if let Some((slot, winner)) = flag_winner {
                    match phases[winner] {
                        Phase::Release { .. } => {
                            flag.pending[v].remove(slot);
                            let span = now - charge_from[winner] + 1;
                            accesses[winner] += span;
                            flag.presented[v] += span;
                            nodes[v].flag = true;
                            owned[winner].pop();
                            if owned[winner].is_empty() {
                                phases[winner] = Phase::Done;
                                done_at[winner] = now;
                                done += 1;
                            } else {
                                phases[winner] = Phase::Release { since: now + 1 };
                                #[expect(clippy::expect_used, reason = "the is_empty branch above rules this out")]
                                let target = *owned[winner]
                                    .last()
                                    .expect("non-empty just checked");
                                flag.insert(&nodes, target, winner, now + 1);
                                charge_from[winner] = now + 1;
                                active.insert(target);
                            }
                        }
                        Phase::FlagPoll { node, polls, .. } => {
                            debug_assert_eq!(node, v);
                            if nodes[v].flag {
                                flag.pending[v].remove(slot);
                                let span = now - charge_from[winner] + 1;
                                accesses[winner] += span;
                                flag.presented[v] += span;
                                // Released: propagate down whatever we own.
                                if owned[winner].is_empty() {
                                    phases[winner] = Phase::Done;
                                    done_at[winner] = now;
                                    done += 1;
                                } else {
                                    phases[winner] = Phase::Release { since: now + 1 };
                                    #[expect(clippy::expect_used, reason = "the is_empty branch above rules this out")]
                                    let target = *owned[winner]
                                        .last()
                                        .expect("non-empty just checked");
                                    flag.insert(&nodes, target, winner, now + 1);
                                    charge_from[winner] = now + 1;
                                    active.insert(target);
                                }
                            } else {
                                let polls = polls + 1;
                                match self.policy.flag_delay(polls) {
                                    Some(0) | None => {
                                        // Still pending next cycle; only the
                                        // request age changes (oldest-first
                                        // arbitration reads it). The charge
                                        // interval keeps running — no
                                        // removal. The queue variant
                                        // degenerates to continuous polling
                                        // inside a tree node; parking is a
                                        // flat-barrier concept.
                                        phases[winner] = Phase::FlagPoll {
                                            node: v,
                                            since: now + 1,
                                            polls,
                                        };
                                        flag.pending[v].refresh(slot, now + 1);
                                    }
                                    Some(d) => {
                                        flag.pending[v].remove(slot);
                                        let span = now - charge_from[winner] + 1;
                                        accesses[winner] += span;
                                        flag.presented[v] += span;
                                        phases[winner] = Phase::FlagWait {
                                            node: v,
                                            until: now + 1 + d,
                                            polls,
                                        };
                                        wheel.schedule(now + 1 + d, winner);
                                    }
                                }
                            }
                        }
                        _ => unreachable!("only pollers and releasers are served"),
                    }
                }

                // Later winners in this cycle may still re-activate `v`
                // (a release or climb inserting at `now + 1` calls
                // `active.insert` again), so deactivating eagerly is safe.
                if var.pending[v].is_empty() && flag.pending[v].is_empty() {
                    active.remove(v);
                }
            }

            // Advance time: one cycle while any node has a pending request,
            // else jump to the next wake-up.
            if !active.is_empty() {
                now += 1;
            } else if done < n {
                #[expect(clippy::expect_used, reason = "done < n guarantees a scheduled event exists")]
                let next = wheel
                    .peek_min()
                    .expect("pending processors must have a next event");
                now = next.max(now + 1);
            }
        }

        let max_module_accesses = var.presented
            .iter()
            .chain(flag.presented.iter())
            .copied()
            .max()
            .unwrap_or(0);
        collect_run(
            accesses,
            &done_at,
            &arrivals,
            max_module_accesses,
            nodes.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::{BarrierConfig, BarrierSim};
    use abs_sim::sweep::derive_seed;

    #[test]
    fn tree_shape_small() {
        let (nodes, leaf_of) = build_tree(8, 2);
        // 4 leaves + 2 + 1 root = 7 nodes.
        assert_eq!(nodes.len(), 7);
        assert_eq!(leaf_of, [0, 0, 1, 1, 2, 2, 3, 3]);
        let strides: Vec<usize> = nodes.iter().map(|n| n.stride).collect();
        assert_eq!(strides, [1, 1, 1, 1, 2, 2, 4]);
        assert!(nodes.last().unwrap().parent.is_none());
        assert!(nodes[..6].iter().all(|n| n.parent.is_some()));
    }

    #[test]
    fn tree_shape_uneven() {
        let (nodes, _) = build_tree(5, 4);
        // 2 leaves (sizes 4 and 1) + root of 2.
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].expected, 4);
        assert_eq!(nodes[1].expected, 1);
        assert_eq!(nodes[2].expected, 2);
    }

    #[test]
    fn tree_single_group_is_root() {
        let (nodes, _) = build_tree(4, 8);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].expected, 4);
        assert!(nodes[0].parent.is_none());
    }

    #[test]
    fn expected_counts_sum_to_participants() {
        for (n, d) in [(64usize, 4usize), (100, 3), (7, 2), (1, 2)] {
            let (nodes, _) = build_tree(n, d);
            let total: usize = nodes.iter().map(|nd| nd.expected).sum();
            // Every processor participates once at a leaf, every non-root
            // node contributes one climber to its parent.
            assert_eq!(total, n + nodes.len() - 1, "n={n} d={d}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let sim = CombiningTreeSim::new(CombiningConfig::new(32, 100, 4), BackoffPolicy::None);
        assert_eq!(sim.run(2), sim.run(2));
    }

    #[test]
    fn kernels_bit_identical() {
        // The event kernel must reproduce the cycle stepper exactly across
        // every policy / arbitration / shape mix; the broad sweep lives in
        // the `kernel_equivalence` suite, this is the in-crate smoke
        // version.
        let policies = [
            BackoffPolicy::None,
            BackoffPolicy::exponential(2),
            BackoffPolicy::Linear { step: 10 },
            BackoffPolicy::on_variable(),
            BackoffPolicy::QueueOnThreshold {
                base: 2,
                threshold: 64,
                wake_cost: 100,
            },
        ];
        for policy in policies {
            for arb in Arbitration::ALL {
                for (n, span, degree) in [(48usize, 400u64, 4usize), (17, 0, 2), (1, 10, 2)] {
                    let cfg = CombiningConfig::new(n, span, degree).with_arbitration(arb);
                    let sim = CombiningTreeSim::new(cfg, policy);
                    for seed in 0..3 {
                        assert_eq!(
                            sim.run_with(seed, Kernel::Cycle),
                            sim.run_with(seed, Kernel::Event),
                            "policy {policy:?} arbitration {arb:?} n {n} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernels_bit_identical_with_skippable_dead_time() {
        // Wide arrival spans plus aggressive backoff produce long stretches
        // with no pending request — the regime the skip-ahead clock
        // actually exercises.
        let cfg = CombiningConfig::new(32, 20_000, 4);
        let sim = CombiningTreeSim::new(cfg, BackoffPolicy::exponential(8));
        for seed in 0..4 {
            assert_eq!(
                sim.run_with(seed, Kernel::Cycle),
                sim.run_with(seed, Kernel::Event),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_processors_released() {
        for n in [1usize, 2, 3, 17, 64] {
            let sim =
                CombiningTreeSim::new(CombiningConfig::new(n, 50, 4), BackoffPolicy::None);
            let run = sim.run(3);
            assert_eq!(run.accesses().len(), n);
            assert!(run.accesses().iter().all(|&a| a > 0));
        }
    }

    #[test]
    fn tree_flattens_the_hot_spot() {
        // The whole point of combining: the heaviest module sees far fewer
        // accesses than a flat barrier's flag module.
        let n = 256;
        let seed = derive_seed(0xC0, 1);
        let flat = BarrierSim::new(BarrierConfig::new(n, 0), BackoffPolicy::None).run(seed);
        let tree = CombiningTreeSim::new(
            CombiningConfig::new(n, 0, 4),
            BackoffPolicy::None,
        )
        .run(seed);
        // Flat: all ~5N/2 * N accesses hit two modules; tree: split over
        // many nodes.
        let flat_per_module = flat.total_accesses() / 2;
        assert!(
            tree.max_module_accesses() < flat_per_module / 4,
            "tree max {} flat per-module {}",
            tree.max_module_accesses(),
            flat_per_module
        );
    }

    #[test]
    fn backoff_reduces_tree_accesses() {
        let cfg = CombiningConfig::new(64, 1000, 4);
        let mean = |policy: BackoffPolicy| {
            let sim = CombiningTreeSim::new(cfg, policy);
            (0..10)
                .map(|i| sim.run(derive_seed(9, i)).mean_accesses())
                .sum::<f64>()
                / 10.0
        };
        let plain = mean(BackoffPolicy::None);
        let backoff = mean(BackoffPolicy::exponential(2));
        assert!(
            backoff < plain,
            "plain {plain} backoff {backoff}"
        );
    }

    #[test]
    fn waiting_time_positive_and_bounded() {
        let sim = CombiningTreeSim::new(CombiningConfig::new(16, 0, 4), BackoffPolicy::None);
        let run = sim.run(5);
        assert!(run.mean_waiting() > 0.0);
        assert!(run.completion() >= run.waiting().iter().copied().max().unwrap_or(0));
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn degree_one_rejected() {
        CombiningConfig::new(8, 0, 1);
    }
}
