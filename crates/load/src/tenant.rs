//! Multi-tenant job mixes: who sends what, and the merged job stream.
//!
//! A [`Tenant`] couples an arrival process with an operation mix and a
//! scheduler weight. [`generate_stream`] expands a tenant population into
//! one globally ordered stream of timestamped [`Job`]s, drawing each
//! tenant's randomness from its own seed derived via
//! [`abs_sim::sweep::derive_seed`] — so the stream is a pure function of
//! `(tenants, vars, horizon, seed)` and is bit-identical no matter how
//! many workers later replay it or which kernel consumes it.

use abs_sim::rng::SplitMix64;
use abs_sim::sweep::derive_seed;

use crate::arrival::{Arrival, ArrivalProcess};

/// The synchronization operation a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Fetch-and-add on a shared counter (serialized at the variable).
    FetchAdd,
    /// Spin on a flag until an external producer sets it, polling under
    /// the backoff policy.
    SpinFlag,
    /// CAS-style read-modify-write: unserialized read, then a serialized
    /// compare-and-swap; losers re-read and retry.
    Rmw,
}

impl OpKind {
    /// A short label for traces and tables.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::FetchAdd => "faa",
            OpKind::SpinFlag => "spin",
            OpKind::Rmw => "rmw",
        }
    }
}

/// Relative weights of the three operation kinds in a tenant's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of [`OpKind::FetchAdd`].
    pub faa: u32,
    /// Weight of [`OpKind::SpinFlag`].
    pub spin: u32,
    /// Weight of [`OpKind::Rmw`].
    pub rmw: u32,
}

impl OpMix {
    /// A pure fetch-and-add mix.
    pub const FAA: OpMix = OpMix { faa: 1, spin: 0, rmw: 0 };

    /// An even three-way mix.
    pub const EVEN: OpMix = OpMix { faa: 1, spin: 1, rmw: 1 };

    /// Draws an operation kind proportionally to the weights.
    ///
    /// # Panics
    ///
    /// Panics if all three weights are zero.
    pub fn draw(&self, rng: &mut SplitMix64) -> OpKind {
        let total = u64::from(self.faa) + u64::from(self.spin) + u64::from(self.rmw);
        assert!(total > 0, "op mix must have at least one nonzero weight");
        let x = rng.next_u64() % total;
        if x < u64::from(self.faa) {
            OpKind::FetchAdd
        } else if x < u64::from(self.faa) + u64::from(self.spin) {
            OpKind::SpinFlag
        } else {
            OpKind::Rmw
        }
    }
}

/// One traffic source: an arrival process, an operation mix, a scheduler
/// weight, and a fixed local-work demand per job.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Scheduler share weight (CFS divides charged runtime by this).
    pub weight: u64,
    /// When this tenant's jobs arrive.
    pub arrival: Arrival,
    /// What its jobs do once admitted.
    pub op_mix: OpMix,
    /// Local-work cycles a job burns after its sync op succeeds (>= 1, so
    /// completion is strictly after the sync success).
    pub work: u64,
}

impl Tenant {
    /// A uniform-weight Poisson tenant with an even op mix — the default
    /// population element for the exhibits.
    pub fn poisson(mean_gap: f64) -> Self {
        Self {
            weight: 1,
            arrival: Arrival::poisson(mean_gap),
            op_mix: OpMix::EVEN,
            work: 4,
        }
    }
}

/// One timestamped job in the merged open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Absolute arrival cycle.
    pub arrive: u64,
    /// Index of the emitting tenant.
    pub tenant: usize,
    /// Per-tenant sequence number (ties in the merge sort break on
    /// `(arrive, tenant, seq)`, so the order is total and deterministic).
    pub seq: u64,
    /// The synchronization operation to perform.
    pub op: OpKind,
    /// The shared variable it targets.
    pub var: usize,
    /// Local-work cycles after the sync op succeeds.
    pub work: u64,
}

/// Expands a tenant population into the merged, time-ordered job stream
/// up to `horizon`.
///
/// Each tenant `t` draws from `SplitMix64::new(derive_seed(seed, t))`:
/// streams are independent per tenant and the merge is a deterministic
/// sort, so the result is bit-identical however the caller parallelizes
/// around it.
///
/// # Panics
///
/// Panics if `vars` is zero or any tenant's op mix is all-zero.
///
/// # Examples
///
/// ```
/// use abs_load::tenant::{generate_stream, Tenant};
///
/// let tenants = vec![Tenant::poisson(50.0), Tenant::poisson(80.0)];
/// let a = generate_stream(&tenants, 4, 10_000, 7);
/// let b = generate_stream(&tenants, 4, 10_000, 7);
/// assert_eq!(a, b);
/// assert!(a.windows(2).all(|w| w[0].arrive <= w[1].arrive));
/// ```
pub fn generate_stream(tenants: &[Tenant], vars: usize, horizon: u64, seed: u64) -> Vec<Job> {
    assert!(vars > 0, "at least one shared variable required");
    let mut jobs = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let mut rng = SplitMix64::new(derive_seed(seed, t as u64));
        let mut arrival = tenant.arrival.clone();
        let mut now = 0u64;
        let mut seq = 0u64;
        loop {
            now = arrival.next_after(&mut rng, now);
            if now > horizon {
                break;
            }
            let op = tenant.op_mix.draw(&mut rng);
            #[expect(clippy::cast_possible_truncation, reason = "a residue modulo vars, a usize, fits usize")]
            let var = (rng.next_u64() % vars as u64) as usize;
            jobs.push(Job {
                arrive: now,
                tenant: t,
                seq,
                op,
                var,
                work: tenant.work.max(1),
            });
            seq += 1;
        }
    }
    jobs.sort_by_key(|j| (j.arrive, j.tenant, j.seq));
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_respects_weights() {
        let mix = OpMix { faa: 8, spin: 1, rmw: 1 };
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            match mix.draw(&mut rng) {
                OpKind::FetchAdd => counts[0] += 1,
                OpKind::SpinFlag => counts[1] += 1,
                OpKind::Rmw => counts[2] += 1,
            }
        }
        assert!(counts[0] > 7_000, "{counts:?}");
        assert!(counts[1] > 500 && counts[2] > 500, "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "nonzero weight")]
    fn all_zero_mix_rejected() {
        OpMix { faa: 0, spin: 0, rmw: 0 }.draw(&mut SplitMix64::new(0));
    }

    #[test]
    fn stream_is_sorted_within_horizon_and_tagged() {
        let tenants = vec![Tenant::poisson(10.0), Tenant::poisson(30.0)];
        let jobs = generate_stream(&tenants, 8, 5_000, 11);
        assert!(!jobs.is_empty());
        assert!(jobs.windows(2).all(|w| {
            (w[0].arrive, w[0].tenant, w[0].seq) < (w[1].arrive, w[1].tenant, w[1].seq)
        }));
        assert!(jobs.iter().all(|j| j.arrive >= 1 && j.arrive <= 5_000));
        assert!(jobs.iter().all(|j| j.var < 8 && j.tenant < 2));
        // The faster tenant emits more jobs.
        let t0 = jobs.iter().filter(|j| j.tenant == 0).count();
        let t1 = jobs.iter().filter(|j| j.tenant == 1).count();
        assert!(t0 > t1, "t0 {t0} t1 {t1}");
    }

    #[test]
    fn tenant_streams_are_independent() {
        // Adding a tenant must not perturb existing tenants' jobs.
        let one = vec![Tenant::poisson(20.0)];
        let two = vec![Tenant::poisson(20.0), Tenant::poisson(5.0)];
        let solo = generate_stream(&one, 4, 3_000, 13);
        let both: Vec<Job> = generate_stream(&two, 4, 3_000, 13)
            .into_iter()
            .filter(|j| j.tenant == 0)
            .collect();
        assert_eq!(solo, both);
    }
}
