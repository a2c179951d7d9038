//! Allocation budget of one barrier episode on the event kernel.
//!
//! The kernel's per-episode state is a fixed number of id-indexed vectors;
//! the time wheel links its wake-ups through one of them and replays the
//! arrivals from a cursor, so the count of heap allocations per episode
//! must not grow with the number of wake-ups, slots or distinct due
//! times. A counting global allocator measures it on this test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use abs_core::{BackoffPolicy, BarrierConfig, BarrierSim, Kernel};

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` passes through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's obligations are `System.realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's obligations are `System.dealloc`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per episode at N = 512, A = 1000 with base-8 exponential
/// backoff: twice the 67 the event kernel measured when this budget was
/// set. A time wheel with one `Vec` per slot and per far due time made
/// 1004 here.
const BUDGET: u64 = 134;

#[test]
fn barrier_episode_stays_inside_its_allocation_budget() {
    let sim = BarrierSim::new(BarrierConfig::new(512, 1000), BackoffPolicy::exponential(8));
    // One warm-up episode first, so lazily built state is not charged.
    sim.run_with(0, Kernel::Event);
    let episodes = 20u64;
    let before = ALLOCATIONS.with(Cell::get);
    for seed in 1..=episodes {
        std::hint::black_box(sim.run_with(seed, Kernel::Event));
    }
    let per_episode = (ALLOCATIONS.with(Cell::get) - before) / episodes;
    eprintln!("{per_episode} allocations per episode (budget {BUDGET})");
    assert!(
        per_episode <= BUDGET,
        "{per_episode} allocations per barrier episode exceed the budget of {BUDGET}"
    );
}
