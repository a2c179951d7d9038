//! Pluggable scheduler policies for open-loop runs.
//!
//! The Appendix-A post-mortem scheduler ([`crate::scheduler::Scheduler`])
//! hardwires round-robin processor assignment, which is faithful to the
//! paper but useless once jobs arrive from an *open-loop* source: with more
//! pending jobs than processors, **which** job is admitted next becomes a
//! policy decision. This module is that decision point. The open-loop
//! engine (`abs-load`) holds a queue of arrived-but-unadmitted jobs and
//! consults a [`SchedPolicy`] every time a simulated processor frees up.
//!
//! Three policies are provided:
//!
//! * [`RoundRobin`] — rotate over tenants, one job per turn; the direct
//!   generalization of the Appendix-A assumption.
//! * [`StrictPriority`] — tenants are priority classes, lowest index
//!   first; starves low classes under overload (by design — the exhibit
//!   shows it).
//! * [`Cfs`] — CFS-style weighted virtual runtime with sleep/wake
//!   accounting: each tenant accrues `service / weight` virtual time, the
//!   smallest virtual runtime runs next, and a tenant waking from an empty
//!   queue is clamped to the virtual clock minus a grace so sleepers
//!   neither lose their fair share nor monopolize the processors with
//!   hoarded lag.
//!
//! Every policy is deterministic — same call sequence, same decisions —
//! which the open-loop determinism contract (bit-identical results at any
//! `--jobs` and under either `--kernel`) inherits for free.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// An admission-scheduling policy over multi-tenant job queues.
///
/// The engine calls [`on_arrival`](Self::on_arrival) when a job joins the
/// pending pool, [`pick`](Self::pick) when a processor is free, and
/// [`on_complete`](Self::on_complete) when a job finishes (with its
/// measured service time, for runtime accounting). Implementations must be
/// deterministic functions of the call sequence.
pub trait SchedPolicy {
    /// A job of `tenant` arrived at cycle `now` and awaits admission.
    fn on_arrival(&mut self, tenant: usize, job: u64, now: u64);

    /// Picks the next pending job to admit at cycle `now`, or `None` when
    /// no job is pending. Returns `(tenant, job)`.
    fn pick(&mut self, now: u64) -> Option<(usize, u64)>;

    /// A previously picked job of `tenant` completed at cycle `now` after
    /// occupying its processor for `service` cycles.
    fn on_complete(&mut self, tenant: usize, service: u64, now: u64);

    /// Jobs currently pending admission.
    fn pending(&self) -> usize;

    /// A short label for tables and figures.
    fn label(&self) -> &'static str;
}

/// Round-robin over tenants: each pick advances a cursor to the next
/// tenant with a pending job. Within a tenant, jobs are FIFO.
///
/// # Examples
///
/// ```
/// use abs_trace::sched::{RoundRobin, SchedPolicy};
/// let mut rr = RoundRobin::new(2);
/// rr.on_arrival(0, 10, 1);
/// rr.on_arrival(0, 11, 1);
/// rr.on_arrival(1, 20, 1);
/// assert_eq!(rr.pick(2), Some((0, 10)));
/// assert_eq!(rr.pick(2), Some((1, 20))); // alternates despite 0's backlog
/// assert_eq!(rr.pick(2), Some((0, 11)));
/// assert_eq!(rr.pick(2), None);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    queues: Vec<VecDeque<u64>>,
    cursor: usize,
    pending: usize,
}

impl RoundRobin {
    /// Creates a round-robin policy over `tenants` queues.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`.
    pub fn new(tenants: usize) -> Self {
        assert!(tenants > 0, "at least one tenant required");
        Self {
            queues: vec![VecDeque::new(); tenants],
            cursor: 0,
            pending: 0,
        }
    }
}

impl SchedPolicy for RoundRobin {
    fn on_arrival(&mut self, tenant: usize, job: u64, _now: u64) {
        self.queues[tenant].push_back(job);
        self.pending += 1;
    }

    fn pick(&mut self, _now: u64) -> Option<(usize, u64)> {
        let n = self.queues.len();
        for offset in 0..n {
            let t = (self.cursor + offset) % n;
            if let Some(job) = self.queues[t].pop_front() {
                self.cursor = (t + 1) % n;
                self.pending -= 1;
                return Some((t, job));
            }
        }
        None
    }

    fn on_complete(&mut self, _tenant: usize, _service: u64, _now: u64) {}

    fn pending(&self) -> usize {
        self.pending
    }

    fn label(&self) -> &'static str {
        "round-robin"
    }
}

/// Strict priority: tenant 0 outranks tenant 1 outranks tenant 2, always.
/// Low-priority tenants starve under overload — the fairness exhibit
/// quantifies exactly how badly.
#[derive(Debug, Clone)]
pub struct StrictPriority {
    queues: Vec<VecDeque<u64>>,
    pending: usize,
}

impl StrictPriority {
    /// Creates a strict-priority policy over `tenants` classes (index 0
    /// highest).
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`.
    pub fn new(tenants: usize) -> Self {
        assert!(tenants > 0, "at least one tenant required");
        Self {
            queues: vec![VecDeque::new(); tenants],
            pending: 0,
        }
    }
}

impl SchedPolicy for StrictPriority {
    fn on_arrival(&mut self, tenant: usize, job: u64, _now: u64) {
        self.queues[tenant].push_back(job);
        self.pending += 1;
    }

    fn pick(&mut self, _now: u64) -> Option<(usize, u64)> {
        for (t, queue) in self.queues.iter_mut().enumerate() {
            if let Some(job) = queue.pop_front() {
                self.pending -= 1;
                return Some((t, job));
            }
        }
        None
    }

    fn on_complete(&mut self, _tenant: usize, _service: u64, _now: u64) {}

    fn pending(&self) -> usize {
        self.pending
    }

    fn label(&self) -> &'static str {
        "strict-priority"
    }
}

/// Virtual-runtime units per service cycle at weight 1. A larger weight
/// divides the charge, so the virtual clock advances more slowly for
/// heavier tenants — they get proportionally more real service per unit of
/// virtual time.
const VRUNTIME_SCALE: u64 = 1 << 10;

/// CFS-style weighted fair scheduling with sleep/wake accounting.
///
/// Each tenant carries a *virtual runtime*: completed service scaled by
/// `VRUNTIME_SCALE / weight`. [`pick`](SchedPolicy::pick) admits the
/// pending tenant with the smallest virtual runtime (ties to the lower
/// index), so long-run service converges to weight-proportional shares.
///
/// **Sleep/wake accounting:** a tenant whose queue drains (sleeps) stops
/// accruing virtual runtime while the others advance the clock. On wake
/// (next arrival into the empty queue) its virtual runtime is clamped to
/// `max(own, clock − grace)`: it keeps up to one grace period of earned
/// lag — enough to reclaim its share promptly — but cannot hoard unbounded
/// credit and then monopolize every processor.
///
/// # Examples
///
/// ```
/// use abs_trace::sched::{Cfs, SchedPolicy};
/// // Tenant 0 has twice tenant 1's weight.
/// let mut cfs = Cfs::new(&[2, 1]);
/// cfs.on_arrival(0, 1, 0);
/// cfs.on_arrival(1, 2, 0);
/// let first = cfs.pick(0).unwrap();
/// cfs.on_complete(first.0, 100, 100);
/// // After one completion the other tenant has the smaller virtual
/// // runtime and must run next.
/// let second = cfs.pick(100).unwrap();
/// assert_ne!(first.0, second.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cfs {
    queues: Vec<VecDeque<u64>>,
    weight: Vec<u64>,
    vruntime: Vec<u64>,
    /// The virtual clock: the largest virtual runtime charged so far.
    clock: u64,
    /// Wake-up clamp distance, in virtual-runtime units.
    grace: u64,
    pending: usize,
}

impl Cfs {
    /// Default wake-up grace: one `VRUNTIME_SCALE` quantum of lag, i.e.
    /// roughly one weight-1 service cycle of credit.
    pub const DEFAULT_GRACE: u64 = VRUNTIME_SCALE;

    /// Creates a CFS policy with one weight per tenant (zero weights are
    /// treated as one).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn new(weights: &[u64]) -> Self {
        assert!(!weights.is_empty(), "at least one tenant required");
        Self {
            queues: vec![VecDeque::new(); weights.len()],
            weight: weights.iter().map(|&w| w.max(1)).collect(),
            vruntime: vec![0; weights.len()],
            clock: 0,
            grace: Self::DEFAULT_GRACE,
            pending: 0,
        }
    }

    /// The same policy with an explicit wake-up grace (virtual-runtime
    /// units; 0 forfeits all sleep credit).
    pub fn with_grace(mut self, grace: u64) -> Self {
        self.grace = grace;
        self
    }

    /// The current virtual runtime of `tenant` (test/inspection hook).
    pub fn vruntime(&self, tenant: usize) -> u64 {
        self.vruntime[tenant]
    }
}

impl SchedPolicy for Cfs {
    fn on_arrival(&mut self, tenant: usize, job: u64, _now: u64) {
        if self.queues[tenant].is_empty() {
            // Wake: clamp hoarded lag to one grace behind the clock.
            let floor = self.clock.saturating_sub(self.grace);
            if self.vruntime[tenant] < floor {
                self.vruntime[tenant] = floor;
            }
        }
        self.queues[tenant].push_back(job);
        self.pending += 1;
    }

    fn pick(&mut self, _now: u64) -> Option<(usize, u64)> {
        let t = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .min_by_key(|&(t, _)| (self.vruntime[t], t))
            .map(|(t, _)| t)?;
        let job = self.queues[t].pop_front()?;
        self.pending -= 1;
        Some((t, job))
    }

    fn on_complete(&mut self, tenant: usize, service: u64, _now: u64) {
        // Weights are clamped to >= 1 in the constructor, so the divide
        // cannot trap; checked_div keeps that local instead of implicit.
        let charge = service
            .saturating_mul(VRUNTIME_SCALE)
            .checked_div(self.weight[tenant])
            .unwrap_or(0);
        self.vruntime[tenant] = self.vruntime[tenant].saturating_add(charge);
        if self.vruntime[tenant] > self.clock {
            self.clock = self.vruntime[tenant];
        }
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn label(&self) -> &'static str {
        "cfs"
    }
}

/// Which scheduler policy drives an open-loop run (CLI selector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedKind {
    /// [`RoundRobin`].
    #[default]
    RoundRobin,
    /// [`StrictPriority`].
    StrictPriority,
    /// [`Cfs`].
    Cfs,
}

impl SchedKind {
    /// All policies, in presentation order.
    pub const ALL: [SchedKind; 3] = [
        SchedKind::RoundRobin,
        SchedKind::StrictPriority,
        SchedKind::Cfs,
    ];

    /// The CLI name (`rr`, `prio` or `cfs`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::RoundRobin => "rr",
            SchedKind::StrictPriority => "prio",
            SchedKind::Cfs => "cfs",
        }
    }

    /// The table/figure label of the built policy.
    pub fn label(&self) -> &'static str {
        match self {
            SchedKind::RoundRobin => "round-robin",
            SchedKind::StrictPriority => "strict-priority",
            SchedKind::Cfs => "cfs",
        }
    }

    /// Builds the policy for tenants with the given weights (only
    /// [`Cfs`] reads them; the others use just the count).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn build(&self, weights: &[u64]) -> Box<dyn SchedPolicy> {
        match self {
            SchedKind::RoundRobin => Box::new(RoundRobin::new(weights.len())),
            SchedKind::StrictPriority => Box::new(StrictPriority::new(weights.len())),
            SchedKind::Cfs => Box::new(Cfs::new(weights)),
        }
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown scheduler name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSched(pub String);

impl fmt::Display for UnknownSched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheduler {:?}; known: rr prio cfs", self.0)
    }
}

impl std::error::Error for UnknownSched {}

impl FromStr for SchedKind {
    type Err = UnknownSched;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" => Ok(SchedKind::RoundRobin),
            "prio" => Ok(SchedKind::StrictPriority),
            "cfs" => Ok(SchedKind::Cfs),
            other => Err(UnknownSched(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_alternates_under_backlog() {
        let mut rr = RoundRobin::new(3);
        for job in 0..6 {
            rr.on_arrival(0, job, 0);
        }
        rr.on_arrival(2, 100, 0);
        assert_eq!(rr.pending(), 7);
        assert_eq!(rr.pick(1), Some((0, 0)));
        // Cursor moved past 0; tenant 1 is empty, tenant 2 is next.
        assert_eq!(rr.pick(1), Some((2, 100)));
        assert_eq!(rr.pick(1), Some((0, 1)));
        assert_eq!(rr.pending(), 4);
    }

    #[test]
    fn strict_priority_starves_low_classes() {
        let mut sp = StrictPriority::new(2);
        sp.on_arrival(1, 50, 0);
        sp.on_arrival(0, 1, 0);
        sp.on_arrival(0, 2, 0);
        assert_eq!(sp.pick(1), Some((0, 1)));
        assert_eq!(sp.pick(1), Some((0, 2)));
        // Only now does class 1 run.
        assert_eq!(sp.pick(1), Some((1, 50)));
        assert_eq!(sp.pick(1), None);
    }

    #[test]
    fn cfs_converges_to_weighted_shares() {
        // Weights 3:1 with both queues always backlogged: service counts
        // must approach 3:1.
        let mut cfs = Cfs::new(&[3, 1]);
        let mut served = [0u64; 2];
        let mut next_job = 0u64;
        for _ in 0..400 {
            cfs.on_arrival(0, next_job, 0);
            cfs.on_arrival(1, next_job + 1, 0);
            next_job += 2;
        }
        for now in 0..400 {
            let (t, _) = cfs.pick(now).expect("backlogged");
            cfs.on_complete(t, 10, now);
            served[t] += 1;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((2.8..=3.2).contains(&ratio), "ratio {ratio}, served {served:?}");
    }

    #[test]
    fn cfs_wake_clamp_bounds_sleeper_credit() {
        let mut cfs = Cfs::new(&[1, 1]);
        // Tenant 0 runs alone for a long time, advancing the clock.
        for round in 0..50u64 {
            cfs.on_arrival(0, round, round);
            let (t, _) = cfs.pick(round).expect("pending");
            assert_eq!(t, 0);
            cfs.on_complete(t, 100, round);
        }
        let clock = cfs.vruntime(0);
        // Tenant 1 wakes: its virtual runtime is clamped near the clock,
        // not left at 0.
        cfs.on_arrival(1, 999, 51);
        assert!(cfs.vruntime(1) >= clock.saturating_sub(Cfs::DEFAULT_GRACE));
        // It still runs next (it is behind by the grace), but after one
        // completion parity is restored — no monopoly.
        let (t, job) = cfs.pick(51).expect("pending");
        assert_eq!((t, job), (1, 999));
    }

    #[test]
    fn cfs_zero_grace_forfeits_all_credit() {
        let mut cfs = Cfs::new(&[1, 1]).with_grace(0);
        cfs.on_arrival(0, 1, 0);
        let (t, _) = cfs.pick(0).expect("pending");
        cfs.on_complete(t, 1_000, 0);
        cfs.on_arrival(1, 2, 1);
        assert_eq!(cfs.vruntime(1), cfs.vruntime(0));
    }

    #[test]
    fn cfs_ties_break_to_lower_tenant() {
        let mut cfs = Cfs::new(&[1, 1]);
        cfs.on_arrival(1, 20, 0);
        cfs.on_arrival(0, 10, 0);
        assert_eq!(cfs.pick(0), Some((0, 10)));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in SchedKind::ALL {
            assert_eq!(kind.name().parse::<SchedKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "fifo".parse::<SchedKind>().unwrap_err();
        assert!(err.to_string().contains("fifo"));
        assert!(err.to_string().contains("rr prio cfs"));
    }

    #[test]
    fn kind_builds_matching_policy() {
        for kind in SchedKind::ALL {
            let policy = kind.build(&[1, 2, 3]);
            assert_eq!(policy.label(), kind.label());
            assert_eq!(policy.pending(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_rejected() {
        RoundRobin::new(0);
    }

    #[test]
    fn pending_counts_track_arrivals_and_picks() {
        for kind in SchedKind::ALL {
            let mut policy = kind.build(&[1, 1]);
            policy.on_arrival(0, 1, 0);
            policy.on_arrival(1, 2, 0);
            assert_eq!(policy.pending(), 2, "{}", kind.name());
            assert!(policy.pick(1).is_some());
            assert_eq!(policy.pending(), 1, "{}", kind.name());
            assert!(policy.pick(1).is_some());
            assert_eq!(policy.pick(1), None, "{}", kind.name());
            assert_eq!(policy.pending(), 0, "{}", kind.name());
        }
    }
}
