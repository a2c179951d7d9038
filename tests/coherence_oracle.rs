//! Differential oracle for the coherence simulators.
//!
//! `DirectorySystem` and `SnoopyBus` keep every cache in one line-major
//! slot table and derive the Dir_i NB directory from it. This file keeps
//! the straightforward model they replaced — one `Vec` of tags per
//! processor's cache and an explicit block → sharer-list directory — as a
//! test-only reference, and checks that both machines produce identical
//! statistics on random reference streams: after every reference, over
//! 1–9 processors, tiny conflicting geometries, pointer limits 1, 2, 3
//! and full-map, all three sync-caching modes, and addresses from the
//! private, shared and synchronization regions.
//!
//! A failing case panics with the master seed; replay with
//! `ABS_CHECK_SEED=<seed>`.

use adaptive_backoff::coherence::{
    CacheGeometry, CoherenceStats, DirectorySystem, PointerLimit, SnoopyBus, SnoopyStats,
    SyncCaching,
};
use adaptive_backoff::sim::check::{self, Config, Gen};
use adaptive_backoff::sim::forall;
use adaptive_backoff::trace::ops::{MemorySystem, RefKind, PRIVATE_BASE, PRIVATE_CHUNK, SYNC_BASE};

/// The reference model: per-processor caches plus a stored directory.
mod reference {
    use std::collections::BTreeMap;

    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum LineState {
        Shared,
        Dirty,
    }

    /// Geometry arithmetic by division, independent of `CacheGeometry`'s
    /// shifts and masks.
    #[derive(Debug, Clone, Copy)]
    struct Geometry {
        cache_bytes: u64,
        block_bytes: u64,
    }

    impl Geometry {
        fn lines(&self) -> u64 {
            self.cache_bytes / self.block_bytes
        }

        fn block_of(&self, addr: u64) -> u64 {
            addr / self.block_bytes
        }

        #[expect(clippy::cast_possible_truncation, reason = "lossless on the 64-bit hosts the workspace targets")]
        fn line_of(&self, block: u64) -> usize {
            (block % self.lines()) as usize
        }
    }

    /// One processor's direct-mapped cache.
    #[derive(Debug, Clone)]
    struct Cache {
        geometry: Geometry,
        tags: Vec<Option<(u64, LineState)>>,
    }

    impl Cache {
        fn new(geometry: Geometry) -> Self {
            Self {
                geometry,
                #[expect(clippy::cast_possible_truncation, reason = "lossless on the 64-bit hosts the workspace targets")]
                tags: vec![None; geometry.lines() as usize],
            }
        }

        fn lookup(&self, block: u64) -> Option<LineState> {
            match self.tags[self.geometry.line_of(block)] {
                Some((tag, state)) if tag == block => Some(state),
                _ => None,
            }
        }

        /// Installs `block`, returning the different block it displaced.
        fn fill(&mut self, block: u64, state: LineState) -> Option<(u64, LineState)> {
            let line = self.geometry.line_of(block);
            let evicted = match self.tags[line] {
                Some((tag, old)) if tag != block => Some((tag, old)),
                _ => None,
            };
            self.tags[line] = Some((block, state));
            evicted
        }

        fn set_state(&mut self, block: u64, state: LineState) {
            let line = self.geometry.line_of(block);
            match &mut self.tags[line] {
                Some((tag, s)) if *tag == block => *s = state,
                _ => panic!("block {block} not resident"),
            }
        }

        fn invalidate(&mut self, block: u64) -> Option<LineState> {
            let line = self.geometry.line_of(block);
            match self.tags[line] {
                Some((tag, state)) if tag == block => {
                    self.tags[line] = None;
                    Some(state)
                }
                _ => None,
            }
        }
    }

    #[derive(Debug, Clone, Default)]
    struct Entry {
        /// Sharers in insertion order; overflow evicts the first (FIFO).
        sharers: Vec<usize>,
        dirty: bool,
    }

    /// The stored Dir_i NB directory.
    #[derive(Debug, Clone)]
    struct Directory {
        pointers: usize,
        entries: BTreeMap<u64, Entry>,
    }

    impl Directory {
        fn sharers(&self, block: u64) -> &[usize] {
            self.entries.get(&block).map_or(&[], |e| &e.sharers)
        }

        fn is_dirty(&self, block: u64) -> bool {
            self.entries.get(&block).is_some_and(|e| e.dirty)
        }

        /// Adds a clean sharer, returning the FIFO victim on overflow.
        fn add_sharer(&mut self, block: u64, proc: usize) -> Option<usize> {
            let entry = self.entries.entry(block).or_default();
            entry.dirty = false;
            if entry.sharers.contains(&proc) {
                return None;
            }
            let victim = (entry.sharers.len() >= self.pointers).then(|| entry.sharers.remove(0));
            entry.sharers.push(proc);
            victim
        }

        /// Makes `proc` the dirty owner, returning the other sharers.
        fn make_exclusive(&mut self, block: u64, proc: usize) -> Vec<usize> {
            let entry = self.entries.entry(block).or_default();
            let victims = entry
                .sharers
                .iter()
                .copied()
                .filter(|&s| s != proc)
                .collect();
            entry.sharers = vec![proc];
            entry.dirty = true;
            victims
        }

        fn remove_sharer(&mut self, block: u64, proc: usize) {
            if let Some(entry) = self.entries.get_mut(&block) {
                entry.sharers.retain(|&s| s != proc);
                if entry.sharers.is_empty() {
                    self.entries.remove(&block);
                }
            }
        }
    }

    fn caches(procs: usize, geometry: CacheGeometry) -> Vec<Cache> {
        let geometry = Geometry {
            cache_bytes: geometry.cache_bytes() as u64,
            block_bytes: geometry.block_bytes() as u64,
        };
        vec![Cache::new(geometry); procs]
    }

    /// The directory machine.
    #[derive(Debug, Clone)]
    pub struct DirectoryMachine {
        mode: SyncCaching,
        caches: Vec<Cache>,
        directory: Directory,
        pub stats: CoherenceStats,
    }

    impl DirectoryMachine {
        pub fn new(
            procs: usize,
            geometry: CacheGeometry,
            limit: PointerLimit,
            mode: SyncCaching,
        ) -> Self {
            Self {
                mode,
                caches: caches(procs, geometry),
                directory: Directory {
                    pointers: limit.pointers(procs),
                    entries: BTreeMap::new(),
                },
                stats: CoherenceStats::new(),
            }
        }

        fn handle_eviction(&mut self, proc: usize, evicted: Option<(u64, LineState)>) -> u64 {
            let Some((old_block, state)) = evicted else {
                return 0;
            };
            self.directory.remove_sharer(old_block, proc);
            if state == LineState::Dirty {
                self.stats.writebacks += 1;
                2
            } else {
                0
            }
        }

        fn invalidate_all(&mut self, block: u64, victims: &[usize]) -> u64 {
            for &v in victims {
                self.caches[v].invalidate(block);
            }
            self.stats.invalidation_messages += victims.len() as u64;
            victims.len() as u64
        }
    }

    impl MemorySystem for DirectoryMachine {
        fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
            if kind.is_sync() {
                self.stats.refs_sync += 1;
            } else {
                self.stats.refs_nonsync += 1;
            }
            let bypass = match self.mode {
                SyncCaching::Cached => false,
                SyncCaching::UncachedSync => kind == RefKind::Sync,
                SyncCaching::UncachedShared => kind != RefKind::Private,
            };
            if bypass {
                self.stats.traffic_total += 2;
                if kind.is_sync() {
                    self.stats.traffic_sync += 2;
                }
                return;
            }

            let block = self.caches[proc].geometry.block_of(addr);
            let mut traffic = 0u64;
            let mut invalidations = 0u64;
            let resident = self.caches[proc].lookup(block);
            if write {
                let was_dirty_here = resident == Some(LineState::Dirty);
                let was_clean_globally = !self.directory.is_dirty(block);
                match resident {
                    Some(LineState::Dirty) => {}
                    Some(LineState::Shared) => {
                        let victims = self.directory.make_exclusive(block, proc);
                        traffic += 1 + self.invalidate_all(block, &victims);
                        invalidations += victims.len() as u64;
                        self.caches[proc].set_state(block, LineState::Dirty);
                    }
                    None => {
                        self.stats.misses += 1;
                        traffic += 2;
                        if self.directory.is_dirty(block) {
                            self.stats.writebacks += 1;
                            traffic += 2;
                        }
                        let victims = self.directory.make_exclusive(block, proc);
                        traffic += self.invalidate_all(block, &victims);
                        invalidations += victims.len() as u64;
                        let evicted = self.caches[proc].fill(block, LineState::Dirty);
                        traffic += self.handle_eviction(proc, evicted);
                    }
                }
                if was_clean_globally && !was_dirty_here {
                    self.stats.clean_write_invalidations.record(invalidations);
                }
            } else if resident.is_none() {
                self.stats.misses += 1;
                traffic += 2;
                if self.directory.is_dirty(block) {
                    if let Some(&owner) = self.directory.sharers(block).first() {
                        self.caches[owner].set_state(block, LineState::Shared);
                    }
                    self.stats.writebacks += 1;
                    traffic += 2;
                }
                if let Some(victim) = self.directory.add_sharer(block, proc) {
                    self.caches[victim].invalidate(block);
                    self.stats.invalidation_messages += 1;
                    traffic += 1;
                    invalidations += 1;
                }
                let evicted = self.caches[proc].fill(block, LineState::Shared);
                traffic += self.handle_eviction(proc, evicted);
            }

            self.stats.traffic_total += traffic;
            if kind.is_sync() {
                self.stats.traffic_sync += traffic;
            }
            if invalidations > 0 {
                if kind.is_sync() {
                    self.stats.invalidating_sync += 1;
                } else {
                    self.stats.invalidating_nonsync += 1;
                }
            }
        }
    }

    /// The snoopy-bus MSI machine.
    #[derive(Debug, Clone)]
    pub struct BusMachine {
        caches: Vec<Cache>,
        pub stats: SnoopyStats,
    }

    impl BusMachine {
        pub fn new(procs: usize, geometry: CacheGeometry) -> Self {
            Self {
                caches: caches(procs, geometry),
                stats: SnoopyStats::default(),
            }
        }

        fn bus(&mut self, sync: bool) {
            self.stats.bus_transactions += 1;
            if sync {
                self.stats.bus_sync += 1;
            }
        }

        fn broadcast_invalidate(&mut self, block: u64, except: usize) {
            let mut any = false;
            for (p, cache) in self.caches.iter_mut().enumerate() {
                if p != except && cache.invalidate(block).is_some() {
                    any = true;
                }
            }
            if any {
                self.stats.broadcast_invalidations += 1;
            }
        }
    }

    impl MemorySystem for BusMachine {
        fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
            self.stats.refs += 1;
            let sync = kind.is_sync();
            if sync {
                self.stats.refs_sync += 1;
            }
            let block = self.caches[proc].geometry.block_of(addr);
            let resident = self.caches[proc].lookup(block);
            if write {
                match resident {
                    Some(LineState::Dirty) => {}
                    Some(LineState::Shared) => {
                        self.bus(sync);
                        self.broadcast_invalidate(block, proc);
                        self.caches[proc].set_state(block, LineState::Dirty);
                    }
                    None => {
                        self.bus(sync);
                        self.broadcast_invalidate(block, proc);
                        let evicted = self.caches[proc].fill(block, LineState::Dirty);
                        if let Some((_, LineState::Dirty)) = evicted {
                            self.bus(sync);
                        }
                    }
                }
            } else if resident.is_none() {
                self.bus(sync);
                for (p, cache) in self.caches.iter_mut().enumerate() {
                    if p != proc && cache.lookup(block) == Some(LineState::Dirty) {
                        cache.set_state(block, LineState::Shared);
                    }
                }
                let evicted = self.caches[proc].fill(block, LineState::Shared);
                if let Some((_, LineState::Dirty)) = evicted {
                    self.bus(sync);
                }
            }
        }

        fn tick(&mut self, _cycle: u64) {
            self.stats.cycles += 1;
        }
    }
}

/// One generated reference. The processor is reduced modulo the
/// machine's size, so shrinking the machine keeps every stream valid.
#[derive(Debug, Clone, Copy)]
struct Ref {
    proc: usize,
    kind: RefKind,
    offset: u64,
    write: bool,
}

impl Ref {
    /// Small offsets in each region, so tiny caches conflict constantly
    /// and a handful of sync words is shared by every processor.
    fn gen() -> Gen<Ref> {
        Gen::no_shrink(|rng| {
            let (kind, span) = match rng.next_below(3) {
                0 => (RefKind::Private, 256),
                1 => (RefKind::Shared, 512),
                _ => (RefKind::Sync, 64),
            };
            Ref {
                proc: rng.next_below_usize(9),
                kind,
                offset: rng.next_below(span),
                write: rng.next_below(3) == 0,
            }
        })
    }

    fn resolve(&self, procs: usize) -> (usize, u64) {
        let proc = self.proc % procs;
        let addr = match self.kind {
            RefKind::Private => PRIVATE_BASE + proc as u64 * PRIVATE_CHUNK + self.offset,
            RefKind::Shared => self.offset,
            RefKind::Sync => SYNC_BASE + self.offset,
        };
        (proc, addr)
    }
}

/// A tiny geometry: 16–256-byte caches of 4–16-byte blocks (1–64 lines).
fn geometry(cache_log2: u32, block_log2: u32) -> CacheGeometry {
    CacheGeometry::new(1 << cache_log2, 1 << block_log2.min(cache_log2))
}

fn limit(code: usize) -> PointerLimit {
    match code {
        1..=3 => PointerLimit::Limited(code),
        _ => PointerLimit::Full,
    }
}

const MODES: [SyncCaching; 3] = [
    SyncCaching::Cached,
    SyncCaching::UncachedSync,
    SyncCaching::UncachedShared,
];

#[test]
fn directory_system_matches_reference_model() {
    forall!(Config::with_cases(256), (
        procs in check::usize_in(1..10),
        cache_log2 in check::u32_in(4..=8),
        block_log2 in check::u32_in(2..=4),
        limit_code in check::usize_in(1..5),
        mode in check::usize_in(0..3),
        refs in check::vec_of(Ref::gen(), 0..400),
    ) {
        let geometry = geometry(cache_log2, block_log2);
        let (limit, mode) = (limit(limit_code), MODES[mode]);
        let mut fast = DirectorySystem::new(procs, geometry, limit, mode);
        let mut model = reference::DirectoryMachine::new(procs, geometry, limit, mode);
        for (i, r) in refs.iter().enumerate() {
            let (proc, addr) = r.resolve(procs);
            fast.access(proc, addr, r.write, r.kind);
            model.access(proc, addr, r.write, r.kind);
            assert_eq!(fast.stats(), &model.stats, "after reference {i}");
        }
    });
}

#[test]
fn snoopy_bus_matches_reference_model() {
    forall!(Config::with_cases(256), (
        procs in check::usize_in(1..10),
        cache_log2 in check::u32_in(4..=8),
        block_log2 in check::u32_in(2..=4),
        refs in check::vec_of(Ref::gen(), 0..400),
    ) {
        let geometry = geometry(cache_log2, block_log2);
        let mut fast = SnoopyBus::new(procs, geometry);
        let mut model = reference::BusMachine::new(procs, geometry);
        for (i, r) in refs.iter().enumerate() {
            let (proc, addr) = r.resolve(procs);
            fast.access(proc, addr, r.write, r.kind);
            model.access(proc, addr, r.write, r.kind);
            fast.tick(i as u64);
            model.tick(i as u64);
            assert_eq!(fast.stats(), &model.stats, "after reference {i}");
        }
    });
}

// ---- Directory behaviour the system-level unit tests do not pin ----

fn machine(procs: usize, limit: PointerLimit) -> DirectorySystem {
    DirectorySystem::new(
        procs,
        CacheGeometry::new(1024, 16),
        limit,
        SyncCaching::Cached,
    )
}

fn read(sys: &mut DirectorySystem, proc: usize, addr: u64) -> bool {
    let misses = sys.stats().misses;
    sys.access(proc, addr, false, RefKind::Shared);
    sys.stats().misses > misses
}

#[test]
fn fifo_overflow_evicts_the_next_oldest_pointer() {
    // Dir_2: processor 2 evicts 0, then processor 3 must evict 1 — not 2.
    let mut sys = machine(8, PointerLimit::Limited(2));
    for p in 0..4 {
        assert!(read(&mut sys, p, 0x100), "first read by {p} misses");
    }
    assert_eq!(sys.stats().invalidation_messages, 2);
    assert!(!read(&mut sys, 2, 0x100), "processor 2 kept its copy");
    assert!(!read(&mut sys, 3, 0x100), "processor 3 kept its copy");
    assert!(
        read(&mut sys, 1, 0x100),
        "processor 1 was the second victim"
    );
}

#[test]
fn writer_is_the_oldest_pointer_after_a_read_joins() {
    // The writer becomes the only pointer; a reader joins behind it, so
    // the next overflow evicts the writer.
    let mut sys = machine(4, PointerLimit::Limited(2));
    sys.access(1, 0x100, true, RefKind::Shared);
    read(&mut sys, 2, 0x100);
    read(&mut sys, 3, 0x100);
    assert!(!read(&mut sys, 2, 0x100), "processor 2 kept its copy");
    assert!(read(&mut sys, 1, 0x100), "the writer was evicted first");
}

#[test]
fn read_after_write_leaves_the_block_clean() {
    let mut sys = machine(4, PointerLimit::Full);
    sys.access(1, 0x100, true, RefKind::Shared);
    read(&mut sys, 2, 0x100);
    assert_eq!(sys.stats().writebacks, 1);
    // The next write finds a clean block with two copies to invalidate
    // and nothing to write back.
    sys.access(3, 0x100, true, RefKind::Shared);
    assert_eq!(sys.stats().writebacks, 1);
    assert_eq!(sys.stats().clean_write_invalidations.count(2), 1);
}

#[test]
fn evicting_the_dirty_owner_leaves_the_block_uncached() {
    // 64 lines: blocks 0 and 64 conflict. Once processor 0's dirty copy
    // of block 0 is written back, a reader finds nothing to retrieve.
    let mut sys = machine(4, PointerLimit::Full);
    sys.access(0, 0, true, RefKind::Shared);
    read(&mut sys, 0, 64 * 16);
    assert_eq!(sys.stats().writebacks, 1);
    read(&mut sys, 1, 0);
    assert_eq!(sys.stats().writebacks, 1);
}

#[test]
fn evicting_a_clean_sharer_writes_nothing_back() {
    let mut sys = machine(4, PointerLimit::Full);
    read(&mut sys, 0, 0);
    read(&mut sys, 1, 0);
    read(&mut sys, 0, 64 * 16);
    assert_eq!(sys.stats().writebacks, 0);
    assert!(!read(&mut sys, 1, 0), "the other sharer is untouched");
}

#[test]
fn upgrading_a_shared_copy_displaces_nothing() {
    let mut sys = machine(4, PointerLimit::Full);
    read(&mut sys, 0, 0x100);
    sys.access(0, 0x100, true, RefKind::Shared);
    assert_eq!(sys.stats().misses, 1);
    assert_eq!(sys.stats().writebacks, 0);
    assert_eq!(sys.stats().traffic_total, 3);
}
