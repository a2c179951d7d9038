//! Direct-mapped caches with the paper's geometry.
//!
//! "The simulations used direct-mapped caches of size 256KBytes and block
//! size 16 bytes."
//!
//! Every processor's cache has the same geometry, so the machine keeps all
//! of them in one line-major [`SlotTable`]: the row of a line holds that
//! line's slot in every cache, side by side. A block can only live in its
//! own line, so the row is also the block's complete sharer set — which is
//! what lets the directory be derived from the caches instead of stored.

/// Cache geometry: total size and block size, both powers of two.
///
/// The fields are private so that every geometry passes [`Self::new`]'s
/// checks: the slot table maps addresses with shifts and masks, which are
/// only right for powers of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    cache_bytes: usize,
    block_bytes: usize,
}

impl CacheGeometry {
    /// The paper's geometry: 256 KB direct-mapped, 16-byte blocks.
    pub fn paper() -> Self {
        Self::new(256 * 1024, 16)
    }

    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two, the cache holds at
    /// least one block, and the cache is at least 4 bytes (so that a
    /// slot's tag, dirty bit and empty marker fit one `u64`).
    pub fn new(cache_bytes: usize, block_bytes: usize) -> Self {
        assert!(cache_bytes.is_power_of_two(), "cache size must be 2^k");
        assert!(block_bytes.is_power_of_two(), "block size must be 2^k");
        assert!(cache_bytes >= block_bytes, "cache must hold a block");
        assert!(cache_bytes >= 4, "cache must be at least 4 bytes");
        Self {
            cache_bytes,
            block_bytes,
        }
    }

    /// Total cache capacity in bytes.
    pub fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Block (line) size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Number of lines in a direct-mapped cache.
    pub fn lines(&self) -> usize {
        self.cache_bytes >> self.block_bytes.trailing_zeros()
    }

    /// The block address (block-aligned index) containing a byte address.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr >> self.block_bytes.trailing_zeros()
    }

    /// The direct-mapped line index of a block address.
    pub fn line_of(&self, block: u64) -> usize {
        (block & (self.lines() as u64 - 1)) as usize
    }
}

/// An empty slot. A held block is `(tag + 1) << 1 | dirty`, never zero.
pub(crate) const EMPTY: u64 = 0;

/// Whether a slot holds its block modified.
pub(crate) fn is_dirty(slot: u64) -> bool {
    slot & 1 == 1
}

/// Whether a slot holds the block whose clean slot value is `clean`.
pub(crate) fn holds(slot: u64, clean: u64) -> bool {
    slot | 1 == clean | 1
}

/// Every processor's direct-mapped cache, line-major:
/// `slots[line * procs + p]` is processor `p`'s slot for `line`.
///
/// A slot stores the block's tag (the address bits above the line index)
/// plus one, shifted left past the dirty bit. With the cache at least
/// 4 bytes the tag has at most 62 bits, so every block an address can
/// name has a slot value, and none of them is [`EMPTY`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotTable {
    procs: usize,
    block_shift: u32,
    line_bits: u32,
    line_mask: u64,
    slots: Vec<u64>,
}

impl SlotTable {
    /// All caches empty.
    pub(crate) fn new(procs: usize, geometry: CacheGeometry) -> Self {
        let lines = geometry.lines();
        Self {
            procs,
            block_shift: geometry.block_bytes.trailing_zeros(),
            line_bits: lines.trailing_zeros(),
            line_mask: lines as u64 - 1,
            slots: vec![EMPTY; lines * procs],
        }
    }

    /// Where `addr`'s block lives: the index of its line's row, and the
    /// slot value of a clean copy of the block (`| 1` marks it dirty).
    pub(crate) fn locate(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_shift;
        let line = (block & self.line_mask) as usize;
        (line * self.procs, ((block >> self.line_bits) + 1) << 1)
    }

    /// The row starting at `start`: one slot per processor, in id order.
    pub(crate) fn row(&mut self, start: usize) -> &mut [u64] {
        &mut self.slots[start..start + self.procs]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let g = CacheGeometry::paper();
        assert_eq!(g.lines(), 16384);
        assert_eq!(g.block_of(31), 1);
        assert_eq!(g.block_of(32), 2);
        assert_eq!((g.cache_bytes(), g.block_bytes()), (256 * 1024, 16));
    }

    #[test]
    fn line_of_wraps_at_the_line_count() {
        let g = CacheGeometry::new(256, 16); // 16 lines
        assert_eq!(g.line_of(3), 3);
        assert_eq!(g.line_of(19), 3);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_rejected() {
        CacheGeometry::new(1000, 16);
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn two_byte_cache_rejected() {
        CacheGeometry::new(2, 1);
    }

    #[test]
    fn conflicting_blocks_share_a_row_with_distinct_slots() {
        let t = SlotTable::new(4, CacheGeometry::new(256, 16));
        let (row3, b3) = t.locate(3 * 16);
        let (row19, b19) = t.locate(19 * 16);
        assert_eq!(row3, 3 * 4);
        assert_eq!(row19, row3);
        assert_ne!(b3, b19);
        assert!(holds(b3 | 1, b3) && !holds(b19, b3));
    }

    #[test]
    fn every_address_has_a_slot_value_distinct_from_empty() {
        // Byte-sized blocks: the block is the whole address, so the tag
        // takes every bit above the 10 line bits.
        let t = SlotTable::new(1, CacheGeometry::new(1024, 1));
        let (row0, zero) = t.locate(0);
        let (row_max, max) = t.locate(u64::MAX);
        assert_eq!(row0, 0);
        assert_eq!(row_max, 1023);
        for clean in [zero, max] {
            assert!(!holds(EMPTY, clean));
            assert!(!is_dirty(clean) && is_dirty(clean | 1));
            assert!(holds(clean, clean) && holds(clean | 1, clean));
        }
        let (_, same_line) = t.locate(1024);
        assert!(!holds(zero, same_line));
    }
}
