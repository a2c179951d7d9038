//! Interconnection-network models for the adaptive-backoff study.
//!
//! The paper uses two levels of network modelling, and proposes a third as an
//! extension; all three live here:
//!
//! * [`module`] — the Section-3 model used for every barrier experiment:
//!   unit-latency access to memory, no interior network contention, but each
//!   memory module serves **one** access per cycle and denied requesters
//!   retry the next cycle. Arbitration among simultaneous requesters is
//!   pluggable (random / round-robin / oldest-first) because the paper's
//!   Model-1 constants implicitly assume random winner selection — an
//!   ablation bench compares the policies.
//! * [`omega`] / [`circuit`] — a log₂N-stage Omega multistage interconnection
//!   network with destination-tag routing, and a circuit-switched simulator
//!   on top of it in which colliding requests learn the *depth* at which they
//!   collided. This substrate runs the paper's Section-8 network-backoff
//!   policies (1)–(4).
//! * [`packet`] — a packet-switched MIN with finite queues, used to
//!   demonstrate hot-spot tree saturation (Pfister–Norton) and the
//!   Scott–Sohi queue-feedback backoff (policy 5).
//! * [`backoff`] — the five network backoff policies of Section 8.
//! * [`hotspot`] — hot-spot traffic generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod circuit;
pub mod hotspot;
pub mod module;
pub mod omega;
pub mod packet;

pub use backoff::NetworkBackoff;
pub use circuit::{CircuitConfig, CircuitOutcome, CircuitSim};
pub use hotspot::HotspotTraffic;
pub use module::{Arbitration, MemoryModule, Request};
pub use omega::OmegaTopology;
pub use packet::{PacketConfig, PacketOutcome, PacketSim};
