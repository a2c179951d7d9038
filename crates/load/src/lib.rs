//! Open-loop traffic engine: offered load for the synchronization study.
//!
//! Every other simulator in this workspace is *closed-loop*: a fixed
//! population of processors issues a request, waits, and only then issues
//! the next one, so the offered load self-throttles exactly when the
//! system congests. This crate supplies the missing regime — heavy traffic
//! from many independent clients that keep sending regardless — in three
//! composable layers:
//!
//! * [`arrival`] — [`arrival::ArrivalProcess`]: when requests show up
//!   (fixed-rate, Poisson, bursty on-off Markov, diurnal piecewise-rate),
//!   all driven by [`abs_sim::rng::SplitMix64`].
//! * [`tenant`] — who sends what: a [`tenant::Tenant`] couples an arrival
//!   process with a sync-operation mix (fetch-and-add, flag spin,
//!   CAS-style read-modify-write) and a scheduler weight;
//!   [`tenant::generate_stream`] expands a population into one merged,
//!   time-sorted stream of [`tenant::Job`]s, bit-identical for a seed.
//! * [`engine`] — [`engine::OpenLoopSim`] replays a stream onto `P`
//!   simulated processors through a pluggable admission scheduler
//!   ([`abs_trace::sched::SchedPolicy`]: round-robin, strict-priority,
//!   CFS-style) and the paper's serialized sync-variable memory model,
//!   under either simulation [`abs_sim::Kernel`], tracing through
//!   `abs-obs`.
//!
//! # Determinism
//!
//! All randomness is spent during stream generation, from per-tenant
//! seeds derived off one master seed; the engine itself draws nothing.
//! Outcomes are therefore bit-identical across `--kernel cycle/event`
//! and across any `--jobs` parallel fan-out.
//!
//! # Examples
//!
//! ```
//! use abs_load::engine::{LoadConfig, OpenLoopSim};
//! use abs_load::tenant::Tenant;
//!
//! let sim = OpenLoopSim::new(
//!     LoadConfig { horizon: 4_000, ..LoadConfig::default() },
//!     vec![Tenant::poisson(25.0)],
//! );
//! let outcome = sim.run(42);
//! assert_eq!(outcome, sim.run(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod tenant;

pub use arrival::{Arrival, ArrivalProcess, Bursty, Diurnal, FixedRate, Poisson};
pub use engine::{LoadConfig, LoadOutcome, OpenLoopSim, TenantOutcome};
pub use tenant::{generate_stream, Job, OpKind, OpMix, Tenant};
