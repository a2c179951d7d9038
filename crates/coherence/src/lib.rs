//! Directory-based cache-coherence simulation (Section 2).
//!
//! The paper's motivation rests on trace-driven simulations of a
//! 64-processor machine with 256 KB direct-mapped caches, 16-byte blocks,
//! and a **Dir_i NB** directory protocol (Censier–Feautrier directories
//! limited to `i` pointers, no broadcast, as classified by
//! Agarwal–Simoni–Hennessy–Horowitz): at most `i` cached copies of any
//! block may exist; a read that would create copy `i + 1` forces an
//! invalidation of an existing copy, and a write invalidates every other
//! copy.
//!
//! This crate implements that machine as a [`trace::MemorySystem`]
//! (`abs-trace`'s scheduler drives it), and accounts for exactly the
//! quantities behind the paper's exhibits:
//!
//! * **Figure 1** — the histogram of invalidations per write to a
//!   previously clean block.
//! * **Table 1** — the percentage of synchronization vs non-synchronization
//!   references that cause at least one invalidation, for
//!   `i ∈ {2, 3, 4, 5, 64}`.
//! * **Table 2** — with synchronization variables *uncached*, their network
//!   traffic as a percentage of total memory traffic.
//!
//! Both machines keep every processor's cache in one line-major slot table
//! (see [`cache`]); the directory is derived from it rather than stored
//! (see [`directory`]).
//!
//! [`trace::MemorySystem`]: abs_trace::ops::MemorySystem

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod directory;
pub mod snoopy;
pub mod stats;
pub mod system;

pub use cache::CacheGeometry;
pub use directory::PointerLimit;
pub use snoopy::{SnoopyBus, SnoopyStats};
pub use stats::CoherenceStats;
pub use system::{DirectorySystem, SyncCaching};
