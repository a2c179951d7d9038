//! # adaptive-backoff
//!
//! A reproduction of **"Adaptive Backoff Synchronization Techniques"**
//! (Anant Agarwal and Mathews Cherian, *16th Annual International Symposium
//! on Computer Architecture*, 1989).
//!
//! The paper proposes software-only *adaptive backoff* policies that use
//! synchronization state — how many processors have reached a barrier, how
//! many times a flag poll has failed — to postpone re-polling shared
//! synchronization variables, cutting hot-spot network traffic by 20 % to
//! over 95 % at the cost of (sometimes) extra processor idle time.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — deterministic PRNG, statistics, sweep helpers.
//! * [`net`] — the paper's Section-3 memory-module contention model plus
//!   Omega-network circuit/packet simulators for the Section-8 extensions.
//! * [`coherence`] — the Dir_i NB directory-protocol simulator behind the
//!   paper's Section-2 motivation (Figure 1, Tables 1–2).
//! * [`trace`] — synthetic SPMD applications (FFT/SIMPLE/WEATHER-like) and
//!   the round-robin post-mortem scheduler (Table 3, Figure 3).
//! * [`core`] — the paper's contribution: barrier simulation with adaptive
//!   backoff policies (Figures 4–10), resource-wait backoff, and
//!   combining-tree barriers.
//! * [`model`] — the analytic Models 1 and 2 and hardware-barrier baselines.
//! * [`exec`] — the deterministic parallel execution engine: seeded job
//!   sets, a fixed-size worker pool with id-ordered commit, panic
//!   isolation, and JSON run manifests.
//! * [`obs`] — cycle-resolved tracing and metrics: trace recorder with a
//!   bounded ring buffer, metrics registry, Chrome trace-event export
//!   (Perfetto-compatible), and an in-terminal ASCII timeline.
//! * [`load`] — the open-loop traffic engine: arrival processes,
//!   multi-tenant job mixes, admission scheduling, and `OpenLoopSim`
//!   behind the `loadsweep`/`fairness` exhibits.
//! * [`insight`] — offline trace analysis: cycle attribution with a
//!   conservation invariant, barrier episode/critical-path extraction,
//!   and per-tenant SLO timelines (`repro analyze`).
//!
//! # Quick start
//!
//! ```
//! use adaptive_backoff::core::{BackoffPolicy, BarrierSim, BarrierConfig};
//!
//! // 64 processors arriving uniformly over a 1000-cycle window.
//! let config = BarrierConfig::new(64, 1000);
//! let no_backoff = BarrierSim::new(config, BackoffPolicy::None).run(42);
//! let binary = BarrierSim::new(config, BackoffPolicy::exponential(2)).run(42);
//! // Exponential backoff slashes network accesses (the paper reports >95 %).
//! assert!(binary.mean_accesses() < no_backoff.mean_accesses() / 4.0);
//! ```

#![forbid(unsafe_code)]

pub use abs_coherence as coherence;
pub use abs_core as core;
pub use abs_exec as exec;
pub use abs_insight as insight;
pub use abs_load as load;
pub use abs_model as model;
pub use abs_net as net;
pub use abs_obs as obs;
pub use abs_sim as sim;
pub use abs_trace as trace;
