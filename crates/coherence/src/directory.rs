//! The Dir_i NB directory.
//!
//! "In general, for every memory block, a directory must store as many
//! pointers as the number of processors (say N) in the system. Such a
//! scheme is termed Dir_N NB, for N-pointers-No-Broadcast. In practice, it
//! is possible to maintain just i pointers (i < N) to yield the Dir_i NB
//! scheme. Invalidations are forced to limit the cached copies of a block
//! to i, or to gain exclusive ownership on a write."
//!
//! The directory is not stored: a block's pointers are exactly the caches
//! holding it, which are the matching slots of its line's row in the
//! `SlotTable`, and the entry is dirty iff one of them is.
//! [`crate::system::DirectorySystem`] derives each entry from that row and
//! enforces the pointer limit below, evicting the oldest pointer (FIFO)
//! when a read would add pointer `i + 1`.

/// The number of sharer pointers each directory entry can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointerLimit {
    /// `Dir_i NB` with `i` pointers.
    Limited(usize),
    /// `Dir_N NB`: one pointer per processor (no pointer-overflow
    /// invalidations).
    Full,
}

impl PointerLimit {
    /// The paper's Table-1 sweep: 2, 3, 4, 5 and full-map (quoted as 64).
    pub fn paper_sweep() -> [PointerLimit; 5] {
        [
            PointerLimit::Limited(2),
            PointerLimit::Limited(3),
            PointerLimit::Limited(4),
            PointerLimit::Limited(5),
            PointerLimit::Full,
        ]
    }

    /// The concrete pointer count for a machine of `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if a limited count is zero.
    pub fn pointers(&self, procs: usize) -> usize {
        match *self {
            PointerLimit::Limited(i) => {
                assert!(i > 0, "pointer count must be positive");
                i.min(procs)
            }
            PointerLimit::Full => procs,
        }
    }

    /// Label used in the paper's tables ("2", …, "64").
    pub fn label(&self, procs: usize) -> String {
        self.pointers(procs).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_counts() {
        let counts: Vec<usize> = PointerLimit::paper_sweep()
            .iter()
            .map(|l| l.pointers(64))
            .collect();
        assert_eq!(counts, [2, 3, 4, 5, 64]);
        assert_eq!(PointerLimit::Full.label(64), "64");
    }

    #[test]
    fn limited_clamps_to_procs() {
        assert_eq!(PointerLimit::Limited(8).pointers(4), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pointers_rejected() {
        PointerLimit::Limited(0).pointers(4);
    }
}
