//! The complete memory system: caches + derived directory + protocol.
//!
//! [`DirectorySystem`] implements [`MemorySystem`], so the `abs-trace`
//! scheduler can drive it directly with a synthetic application — the
//! equivalent of the paper's trace-driven simulations.

use abs_trace::ops::{MemorySystem, RefKind};

use crate::cache::{holds, is_dirty, CacheGeometry, SlotTable, EMPTY};
use crate::directory::PointerLimit;
use crate::stats::CoherenceStats;

/// How synchronization (and optionally all shared) variables are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncCaching {
    /// Everything is cached and kept coherent (the Table-1 configuration).
    #[default]
    Cached,
    /// Synchronization variables bypass the caches; every sync reference is
    /// a two-transaction memory access (the Table-2 configuration:
    /// "disallow caching of synchronization variables").
    UncachedSync,
    /// All shared variables bypass the caches (the RP3/Ultracomputer-style
    /// measurement of Section 2.2: sync traffic was 25.5 %, 49.2 % and
    /// 1.47 % of total for SIMPLE, WEATHER and FFT).
    UncachedShared,
}

/// A directory-coherent multiprocessor memory system.
///
/// # Examples
///
/// ```
/// use abs_coherence::{DirectorySystem, PointerLimit, SyncCaching, CacheGeometry};
/// use abs_trace::ops::{MemorySystem, RefKind};
///
/// let mut sys = DirectorySystem::new(
///     4,
///     CacheGeometry::new(1024, 16),
///     PointerLimit::Limited(2),
///     SyncCaching::Cached,
/// );
/// // Two readers, then a write: the write invalidates both copies.
/// sys.access(0, 0x100, false, RefKind::Shared);
/// sys.access(1, 0x100, false, RefKind::Shared);
/// sys.access(2, 0x100, true, RefKind::Shared);
/// assert!(sys.stats().invalidation_messages >= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DirectorySystem {
    procs: usize,
    mode: SyncCaching,
    /// Pointers per directory entry.
    pointers: usize,
    slots: SlotTable,
    /// When each slot's copy became a read sharer, parallel to `slots`:
    /// the FIFO overflow victim is the sharer with the oldest stamp. Left
    /// empty when entries cannot overflow (`pointers == procs`).
    stamps: Vec<u64>,
    next_stamp: u64,
    stats: CoherenceStats,
}

impl DirectorySystem {
    /// Creates a system of `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0` or the pointer limit is invalid.
    pub fn new(
        procs: usize,
        geometry: CacheGeometry,
        limit: PointerLimit,
        mode: SyncCaching,
    ) -> Self {
        assert!(procs > 0, "at least one processor required");
        let pointers = limit.pointers(procs);
        let stamps = if pointers < procs {
            vec![0; geometry.lines() * procs]
        } else {
            Vec::new()
        };
        Self {
            procs,
            mode,
            pointers,
            slots: SlotTable::new(procs, geometry),
            stamps,
            next_stamp: 1,
            stats: CoherenceStats::new(),
        }
    }

    /// The paper's machine: 64 processors, 256 KB / 16 B caches.
    pub fn paper_machine(limit: PointerLimit, mode: SyncCaching) -> Self {
        Self::new(64, CacheGeometry::paper(), limit, mode)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// The caching mode in force.
    pub fn mode(&self) -> SyncCaching {
        self.mode
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    fn bypasses_cache(&self, kind: RefKind) -> bool {
        match self.mode {
            SyncCaching::Cached => false,
            SyncCaching::UncachedSync => kind == RefKind::Sync,
            SyncCaching::UncachedShared => {
                kind == RefKind::Sync || kind == RefKind::Shared
            }
        }
    }
}

impl MemorySystem for DirectorySystem {
    fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
        self.stats.record_ref(kind);

        if self.bypasses_cache(kind) {
            // Uncached access: request + response over the network.
            self.stats.traffic_total += 2;
            if kind.is_sync() {
                self.stats.traffic_sync += 2;
            }
            return;
        }

        // The block's directory entry is its line's row: the sharers are
        // the slots holding it, dirty iff one of them holds it modified.
        let (start, clean) = self.slots.locate(addr);
        let row = self.slots.row(start);
        let own = row[proc]; // panics on an out-of-range processor id
        let stats = &mut self.stats;
        let mut traffic = 0u64;
        let mut invalidations = 0u64;

        if write {
            if own != clean | 1 {
                // Upgrade or write miss: invalidate every other copy.
                let mut was_dirty = false;
                for (q, slot) in row.iter_mut().enumerate() {
                    if q != proc && holds(*slot, clean) {
                        was_dirty |= is_dirty(*slot);
                        *slot = EMPTY;
                        invalidations += 1;
                    }
                }
                stats.invalidation_messages += invalidations;
                traffic += invalidations;
                if own == clean {
                    traffic += 1;
                } else {
                    // Write miss: fetch exclusive, retrieving a dirty copy
                    // from its owner first.
                    stats.misses += 1;
                    traffic += 2;
                    if was_dirty {
                        stats.writebacks += 1;
                        traffic += 2;
                    }
                    // The displaced block, if modified, is written back.
                    if is_dirty(own) {
                        stats.writebacks += 1;
                        traffic += 2;
                    }
                }
                row[proc] = clean | 1;
                // Figure 1: invalidation count per write to a previously
                // clean block (a block nobody held dirty).
                if !was_dirty {
                    stats.clean_write_invalidations.record(invalidations);
                }
            }
            // A write hit on an exclusive copy is silent.
        } else if !holds(own, clean) {
            stats.misses += 1;
            traffic += 2;
            let mut copies = 0;
            for slot in row.iter_mut().filter(|slot| holds(**slot, clean)) {
                copies += 1;
                if is_dirty(*slot) {
                    // Downgrade the dirty owner: it writes back and keeps
                    // a shared copy.
                    *slot = clean;
                    stats.writebacks += 1;
                    traffic += 2;
                }
            }
            if let Some(stamps) = self.stamps.get_mut(start..start + self.procs) {
                if copies >= self.pointers {
                    // Pointer overflow: the oldest pointer's copy is
                    // evicted.
                    let oldest = stamps
                        .iter()
                        .zip(row.iter_mut())
                        .filter(|(_, slot)| holds(**slot, clean))
                        .min_by_key(|(stamp, _)| **stamp);
                    if let Some((_, slot)) = oldest {
                        *slot = EMPTY;
                        stats.invalidation_messages += 1;
                        traffic += 1;
                        invalidations += 1;
                    }
                }
                stamps[proc] = self.next_stamp;
                self.next_stamp += 1;
            }
            // The displaced block, if modified, is written back.
            if is_dirty(own) {
                stats.writebacks += 1;
                traffic += 2;
            }
            row[proc] = clean;
        }
        // A read hit costs nothing.

        stats.traffic_total += traffic;
        if kind.is_sync() {
            stats.traffic_sync += traffic;
        }
        if invalidations > 0 {
            stats.record_invalidating_ref(kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(limit: PointerLimit, mode: SyncCaching) -> DirectorySystem {
        DirectorySystem::new(4, CacheGeometry::new(1024, 16), limit, mode)
    }

    #[test]
    fn read_hit_is_free() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, false, RefKind::Shared);
        let t = s.stats().traffic_total;
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, t, "second read must hit");
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn miss_costs_two_transactions() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, 2);
    }

    #[test]
    fn write_upgrade_invalidates_sharers() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        for p in 0..3 {
            s.access(p, 0x100, false, RefKind::Shared);
        }
        s.access(0, 0x100, true, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, 2);
        // Figure-1 histogram saw a clean write with 2 invalidations.
        assert_eq!(s.stats().clean_write_invalidations.count(2), 1);
        // The invalidated caches re-miss.
        let misses = s.stats().misses;
        s.access(1, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses + 1);
    }

    #[test]
    fn write_hit_dirty_is_silent() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, true, RefKind::Shared);
        let t = s.stats().traffic_total;
        s.access(0, 0x104, true, RefKind::Shared); // same block
        assert_eq!(s.stats().traffic_total, t);
    }

    #[test]
    fn read_of_dirty_block_forces_writeback() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, true, RefKind::Shared);
        s.access(1, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().writebacks, 1);
        // Both now share cleanly; a further read by 0 hits.
        let misses = s.stats().misses;
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses);
    }

    #[test]
    fn pointer_overflow_invalidates_on_read() {
        let mut s = tiny(PointerLimit::Limited(2), SyncCaching::Cached);
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(1, 0x100, false, RefKind::Shared);
        let inv = s.stats().invalidation_messages;
        s.access(2, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, inv + 1);
        // The victim (processor 0, FIFO) must re-miss.
        let misses = s.stats().misses;
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses + 1);
    }

    #[test]
    fn full_map_read_sharing_is_free_after_fill() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        for p in 0..4 {
            s.access(p, 0x100, false, RefKind::Shared);
        }
        assert_eq!(s.stats().invalidation_messages, 0);
    }

    #[test]
    fn uncached_sync_bypasses() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::UncachedSync);
        let flag = abs_trace::ops::SYNC_BASE;
        for _ in 0..10 {
            s.access(0, flag, false, RefKind::Sync);
        }
        assert_eq!(s.stats().traffic_sync, 20);
        assert_eq!(s.stats().traffic_total, 20);
        assert_eq!(s.stats().invalidation_messages, 0);
        // Non-sync still cached.
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, 22);
    }

    #[test]
    fn uncached_shared_bypasses_shared_too() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::UncachedShared);
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, 4);
        // Private still cached.
        let p = abs_trace::ops::PRIVATE_BASE;
        s.access(0, p, false, RefKind::Private);
        s.access(0, p, false, RefKind::Private);
        assert_eq!(s.stats().traffic_total, 6);
    }

    #[test]
    fn spinning_on_cached_flag_hits_until_invalidated() {
        // The full-pointer case: a poller re-reads its cached flag copy for
        // free; the setter's write invalidates all pollers at once.
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        let flag = abs_trace::ops::SYNC_BASE;
        for p in 0..3 {
            s.access(p, flag, false, RefKind::Sync);
        }
        let t = s.stats().traffic_total;
        for _ in 0..50 {
            for p in 0..3 {
                s.access(p, flag, false, RefKind::Sync);
            }
        }
        assert_eq!(s.stats().traffic_total, t, "spins must hit in cache");
        s.access(3, flag, true, RefKind::Sync);
        assert_eq!(s.stats().invalidation_messages, 3);
    }

    #[test]
    fn limited_pointers_make_spinning_expensive() {
        // With 2 pointers, three spinners ping-pong: most spins miss.
        let mut full = tiny(PointerLimit::Full, SyncCaching::Cached);
        let mut lim = tiny(PointerLimit::Limited(2), SyncCaching::Cached);
        let flag = abs_trace::ops::SYNC_BASE;
        for sys in [&mut full, &mut lim] {
            for _ in 0..50 {
                for p in 0..3 {
                    sys.access(p, flag, false, RefKind::Sync);
                }
            }
        }
        assert!(
            lim.stats().traffic_total > 10 * full.stats().traffic_total.max(1),
            "limited {} full {}",
            lim.stats().traffic_total,
            full.stats().traffic_total
        );
    }

    #[test]
    fn conflict_eviction_writes_back_dirty() {
        // 1024-byte cache, 16-byte blocks: 64 lines. Blocks 0 and 64
        // conflict.
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0, true, RefKind::Shared);
        s.access(0, 64 * 16, false, RefKind::Shared);
        assert_eq!(s.stats().writebacks, 1);
        // Directory no longer tracks proc 0 for block 0.
        let misses = s.stats().misses;
        s.access(0, 0, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses + 1);
    }

    #[test]
    fn dirty_write_miss_transfers_ownership() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x200, true, RefKind::Shared);
        s.access(1, 0x200, true, RefKind::Shared);
        // Writeback from 0 plus invalidation of 0's copy.
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.stats().invalidation_messages, 1);
        // Now 1 owns it dirty; 1's write hits silently.
        let t = s.stats().traffic_total;
        s.access(1, 0x200, true, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, t);
    }

    #[test]
    fn byte_blocks_cover_block_zero_and_the_top_address() {
        // With 1-byte blocks the block number is the whole address. An
        // empty cache must not look like it holds block 0, and u64::MAX
        // must be cacheable like any other address.
        let mut s = DirectorySystem::new(
            2,
            CacheGeometry::new(1024, 1),
            PointerLimit::Full,
            SyncCaching::Cached,
        );
        for addr in [0, u64::MAX] {
            let misses = s.stats().misses;
            s.access(0, addr, false, RefKind::Shared);
            s.access(0, addr, false, RefKind::Shared);
            assert_eq!(s.stats().misses, misses + 1, "addr {addr:#x}");
        }
        // Processor 1 reads the top byte; processor 0's write invalidates it.
        s.access(1, u64::MAX, false, RefKind::Shared);
        s.access(0, u64::MAX, true, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_processor_panics() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(4, 0x100, false, RefKind::Shared);
    }
}
