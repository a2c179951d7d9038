//! A bus-based snoopy-cache multiprocessor (Section 2.1's contrast case).
//!
//! "The widespread sharing that occurs with synchronization variables is
//! not a problem when used in bus-based snoopy-cache multiprocessors.
//! Because snoopy-cache-based protocols perform broadcast invalidates or
//! updates, a variable shared among all processors generates no more
//! traffic on the shared bus than a variable shared among only two
//! processors. The limitation of snoopy-based schemes, however, is that
//! they do not scale."
//!
//! [`SnoopyBus`] implements a classic MSI write-invalidate protocol over a
//! single shared bus: every miss and every upgrade is **one** bus
//! transaction regardless of how many caches must be invalidated (the
//! broadcast is free), so synchronization variables are cheap — but every
//! transaction serializes on the one bus, whose occupancy is the scaling
//! limit the paper points at.

use abs_trace::ops::{MemorySystem, RefKind};

use crate::cache::{holds, is_dirty, CacheGeometry, SlotTable, EMPTY};

/// Counters for the snoopy machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnoopyStats {
    /// Total references processed.
    pub refs: u64,
    /// Of those, synchronization references.
    pub refs_sync: u64,
    /// Bus transactions (miss fills, upgrades, writebacks).
    pub bus_transactions: u64,
    /// Bus transactions attributable to sync references.
    pub bus_sync: u64,
    /// Broadcast invalidations performed (each one bus transaction, any
    /// number of caches).
    pub broadcast_invalidations: u64,
    /// Cycles ticked (for occupancy accounting).
    pub cycles: u64,
}

impl SnoopyStats {
    /// Bus transactions per cycle — >1.0 is physically impossible on a real
    /// bus, so values approaching 1 mean saturation.
    pub fn bus_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bus_transactions as f64 / self.cycles as f64
        }
    }

    /// Sync share of bus traffic, the Table-2 analogue.
    pub fn pct_sync_bus(&self) -> f64 {
        if self.bus_transactions == 0 {
            0.0
        } else {
            100.0 * self.bus_sync as f64 / self.bus_transactions as f64
        }
    }
}

/// A snoopy-bus MSI machine implementing [`MemorySystem`].
///
/// # Examples
///
/// ```
/// use abs_coherence::snoopy::SnoopyBus;
/// use abs_coherence::CacheGeometry;
/// use abs_trace::ops::{MemorySystem, RefKind};
///
/// let mut bus = SnoopyBus::new(4, CacheGeometry::new(1024, 16));
/// // Four readers then one writer: the write is ONE bus transaction no
/// // matter how many copies it kills.
/// for p in 0..4 {
///     bus.access(p, 0x100, false, RefKind::Shared);
/// }
/// let before = bus.stats().bus_transactions;
/// bus.access(0, 0x100, true, RefKind::Shared);
/// assert_eq!(bus.stats().bus_transactions, before + 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SnoopyBus {
    procs: usize,
    slots: SlotTable,
    stats: SnoopyStats,
}

impl SnoopyBus {
    /// Creates a machine of `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0`.
    pub fn new(procs: usize, geometry: CacheGeometry) -> Self {
        assert!(procs > 0, "at least one processor required");
        Self {
            procs,
            slots: SlotTable::new(procs, geometry),
            stats: SnoopyStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SnoopyStats {
        &self.stats
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }
}

impl MemorySystem for SnoopyBus {
    fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
        self.stats.refs += 1;
        let sync = kind.is_sync();
        if sync {
            self.stats.refs_sync += 1;
        }
        // Every cache's copy of the block sits in one row, so each snoop
        // is one scan of it.
        let (start, clean) = self.slots.locate(addr);
        let row = self.slots.row(start);
        let own = row[proc]; // panics on an out-of-range processor id
        let mut bus = 0u64;
        if write {
            if own != clean | 1 {
                // Bus upgrade or read-exclusive: one transaction, and one
                // broadcast invalidation however many copies it kills.
                bus += 1;
                let mut any = false;
                for (q, slot) in row.iter_mut().enumerate() {
                    if q != proc && holds(*slot, clean) {
                        *slot = EMPTY;
                        any = true;
                    }
                }
                if any {
                    self.stats.broadcast_invalidations += 1;
                }
                if is_dirty(own) {
                    bus += 1; // writeback of the displaced block
                }
                row[proc] = clean | 1;
            }
        } else if !holds(own, clean) {
            // Bus read: one transaction; a dirty peer snarfs in and
            // downgrades to shared.
            bus += 1;
            for slot in row.iter_mut().filter(|slot| **slot == clean | 1) {
                *slot = clean;
            }
            if is_dirty(own) {
                bus += 1; // writeback of the displaced block
            }
            row[proc] = clean;
        }
        self.stats.bus_transactions += bus;
        if sync {
            self.stats.bus_sync += bus;
        }
    }

    fn tick(&mut self, _cycle: u64) {
        self.stats.cycles = self.stats.cycles.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::PointerLimit;
    use crate::system::{DirectorySystem, SyncCaching};
    use abs_trace::Scheduler;

    fn tiny() -> SnoopyBus {
        SnoopyBus::new(4, CacheGeometry::new(1024, 16))
    }

    #[test]
    fn read_hits_are_free() {
        let mut b = tiny();
        b.access(0, 0x40, false, RefKind::Shared);
        let t = b.stats().bus_transactions;
        b.access(0, 0x40, false, RefKind::Shared);
        assert_eq!(b.stats().bus_transactions, t);
    }

    #[test]
    fn broadcast_costs_one_regardless_of_sharers() {
        // 2 sharers vs 4 sharers: the invalidating write costs the same.
        let cost = |sharers: usize| {
            let mut b = tiny();
            for p in 0..sharers {
                b.access(p, 0x40, false, RefKind::Shared);
            }
            let before = b.stats().bus_transactions;
            b.access(0, 0x40, true, RefKind::Shared);
            b.stats().bus_transactions - before
        };
        assert_eq!(cost(2), cost(4));
        assert_eq!(cost(4), 1);
    }

    #[test]
    fn dirty_peer_downgrades_on_read() {
        let mut b = tiny();
        b.access(0, 0x80, true, RefKind::Shared);
        b.access(1, 0x80, false, RefKind::Shared);
        // Processor 0 still hits (shared) afterwards.
        let t = b.stats().bus_transactions;
        b.access(0, 0x80, false, RefKind::Shared);
        assert_eq!(b.stats().bus_transactions, t);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut b = tiny();
        b.access(0, 0, true, RefKind::Shared);
        let t = b.stats().bus_transactions;
        // 64 lines: block 64 conflicts with block 0.
        b.access(0, 64 * 16, false, RefKind::Shared);
        assert_eq!(b.stats().bus_transactions, t + 2); // fill + writeback
    }

    #[test]
    fn spinning_is_cheap_on_a_bus() {
        // The Section-2.1 point: barrier spinning costs the bus almost
        // nothing — each release is one broadcast however many spinners.
        let mut b = tiny();
        let flag = abs_trace::ops::SYNC_BASE;
        for p in 0..3 {
            b.access(p, flag, false, RefKind::Sync);
        }
        let t = b.stats().bus_transactions;
        for _ in 0..100 {
            for p in 0..3 {
                b.access(p, flag, false, RefKind::Sync);
            }
        }
        assert_eq!(b.stats().bus_transactions, t, "spins hit in cache");
        b.access(3, flag, true, RefKind::Sync);
        assert_eq!(b.stats().bus_transactions, t + 1, "one broadcast");
    }

    #[test]
    fn sync_share_far_below_directory_machine() {
        // Run WEATHER on both machines: the bus's sync share of traffic is
        // a fraction of the limited-pointer directory's.
        let app = abs_trace::apps::weather_like();
        let mut bus = SnoopyBus::new(32, CacheGeometry::paper());
        Scheduler::new(app.clone(), 32, 5).run(&mut bus);
        let mut dir = DirectorySystem::new(
            32,
            CacheGeometry::paper(),
            PointerLimit::Limited(2),
            SyncCaching::Cached,
        );
        Scheduler::new(app, 32, 5).run(&mut dir);
        let dir_sync_share =
            100.0 * dir.stats().traffic_sync as f64 / dir.stats().traffic_total as f64;
        assert!(
            bus.stats().pct_sync_bus() < dir_sync_share / 2.0,
            "bus {} vs directory {}",
            bus.stats().pct_sync_bus(),
            dir_sync_share
        );
    }

    #[test]
    fn bus_occupancy_grows_with_processors() {
        // The scaling limit: more processors push the single bus toward
        // saturation (occupancy -> 1).
        let occupancy = |procs: usize| {
            let mut b = SnoopyBus::new(procs, CacheGeometry::new(16 * 1024, 16));
            Scheduler::new(abs_trace::apps::fft_like(), procs, 3).run(&mut b);
            b.stats().bus_occupancy()
        };
        let small = occupancy(4);
        let large = occupancy(32);
        assert!(large > small, "occupancy {small} -> {large} must grow");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_processor_panics() {
        tiny().access(4, 0x40, false, RefKind::Shared);
    }

    #[test]
    fn occupancy_zero_without_ticks() {
        let b = tiny();
        assert_eq!(b.stats().bus_occupancy(), 0.0);
        assert_eq!(b.stats().pct_sync_bus(), 0.0);
    }
}
