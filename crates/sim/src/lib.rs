//! Deterministic simulation substrate shared by all the simulators in this
//! workspace.
//!
//! The crate provides four things:
//!
//! * [`rng`] — a small, self-contained pseudo-random number generator family
//!   (SplitMix64 and xoshiro256++) so that every simulation in the workspace
//!   is reproducible bit-for-bit from a single `u64` seed, independent of
//!   external crate versions.
//! * [`stats`] — online mean/variance accumulators, summaries with standard
//!   deviation and confidence intervals, and integer histograms, matching the
//!   paper's methodology of averaging 100 runs and reporting the spread.
//! * [`sweep`] — a repetition runner and parameter-sweep helpers that derive
//!   per-run seeds from a master seed.
//! * [`table`] / [`series`] — plain-text table and CSV rendering used by the
//!   `repro` harness to print the paper's tables and figure series.
//! * [`check`] — an in-tree property-based testing mini-framework (the
//!   [`forall!`] macro, generators, shrinking) so the workspace needs no
//!   external test dependencies.
//! * [`kernel`] — the [`Kernel`] selector shared by every simulator that
//!   ships both a reference cycle stepper and the event-driven skip-ahead
//!   kernel (bit-identical by contract; `cycle` is the oracle).
//! * [`wheel`] — the bucketed [`wheel::TimeWheel`] that every skip-ahead
//!   kernel parks its future wake-ups in, linked through per-id lists, with
//!   the closed-population kernels' sorted arrivals replayed from a cursor.
//! * [`bitset`] — a fixed-capacity [`bitset::FixedBitset`] with ascending
//!   iteration, the compact id-set the event kernels use at mega-`N`.
//!
//! # Examples
//!
//! ```
//! use abs_sim::rng::Xoshiro256PlusPlus;
//! use abs_sim::stats::OnlineStats;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
//! let mut stats = OnlineStats::new();
//! for _ in 0..1000 {
//!     stats.push(rng.next_range_u64(0..100) as f64);
//! }
//! assert!((stats.mean() - 49.5).abs() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod check;
pub mod kernel;
pub mod rng;
pub mod series;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod wheel;

pub use kernel::Kernel;
pub use rng::{SplitMix64, Xoshiro256PlusPlus};
pub use series::{Series, SeriesSet};
pub use stats::{nearest_ranks, p50, p95, p99, quantile, Histogram, OnlineStats, Summary};
pub use sweep::{derive_seed, Repetitions};
pub use table::Table;

/// A simulated clock cycle count.
///
/// All simulators in the workspace measure time in abstract network cycles,
/// following the paper's Section 3 model where a memory access over the
/// network takes one cycle.
pub type Cycle = u64;
