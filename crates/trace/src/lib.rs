//! Synthetic SPMD applications and the post-mortem scheduler (Appendix A).
//!
//! The paper's Section-2 evidence comes from trace-driven simulation of
//! three Epex/Fortran SPMD applications — FFT, SIMPLE and WEATHER — traced
//! on an IBM S/370 by PSIMUL and replayed by a *post-mortem scheduler* that
//! assigns references to processors round-robin and simulates the
//! synchronization constructs (fetch-and-add self-scheduling, barrier
//! variable + flag spinning).
//!
//! Those traces are proprietary, so this crate substitutes **structurally
//! equivalent synthetic applications** (see `DESIGN.md`): each application
//! is a sequence of [`Section`]s — self-scheduled parallel loops, serial
//! sections, and replicated sections — whose iteration counts, lengths and
//! imbalance match what the paper's appendix describes:
//!
//! * [`apps::fft_like`] — few large, perfectly balanced 128-way loops;
//!   ~0.2 % synchronization references; arrival spread `A` driven only by
//!   the serialized loop-index fetch-and-adds.
//! * [`apps::simple_like`] — 20 parallel loops of varying sizes plus 5
//!   serial sections; uneven iteration counts; ~5 % sync references.
//! * [`apps::weather_like`] — grid dimensions (108 × 72) that do not divide
//!   by 64 processors, so many processors idle at loop barriers; the worst
//!   load balance and the highest sync fraction.
//!
//! The [`scheduler::Scheduler`] executes an application on `P` logical
//! processors, one memory reference per processor per cycle, *simulating*
//! the synchronization exactly as the paper's scheduler does, and feeds
//! every reference to a pluggable [`MemorySystem`] (the `abs-coherence`
//! crate implements one; [`ops::CountingConsumer`] just counts). It also
//! records every barrier episode, from which [`measure`] derives the
//! paper's `A`/`E` intervals (Table 3) and arrival distributions (Figure 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod apps;
pub mod measure;
pub mod ops;
pub mod sched;
pub mod scheduler;

pub use app::{Section, SpmdApp};
pub use measure::{arrival_histogram, intervals, IntervalReport};
pub use ops::{CountingConsumer, MemorySystem, RefKind};
pub use sched::{Cfs, RoundRobin, SchedKind, SchedPolicy, StrictPriority, UnknownSched};
pub use scheduler::{BarrierEpisode, ScheduleReport, Scheduler};
