//! A counting global allocator for binaries and tests that report heap
//! allocations as an exact count.
//!
//! Install it in the binary that wants counts:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cubemm_bench::alloc_count::CountingAlloc = CountingAlloc;
//! ```
//!
//! and wrap the code to measure in [`allocations_during`]. Counts are
//! per thread, so the test harness's other threads (and anything else
//! running beside the measurement) never leak into the number — which
//! is what lets a test assert on it: the simulator runs a machine below
//! its sharding threshold on one thread, so the same program allocates
//! the same number of times on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by
    /// this thread. `const`-initialized and without a destructor, so
    /// touching it from inside the allocator cannot itself allocate.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
pub struct CountingAlloc;

fn count() {
    CALLS.with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `work` and returns its result with the number of allocation
/// calls this thread made meanwhile. Always 0 unless [`CountingAlloc`]
/// is the binary's global allocator.
pub fn allocations_during<R>(work: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let result = work();
    (result, CALLS.with(Cell::get) - before)
}
