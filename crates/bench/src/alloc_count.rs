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
//! and wrap the code to measure in [`allocations_during`], or in
//! [`peak_bytes_during`] for the most bytes it held at once. Counts are
//! per thread, so the test harness's other threads (and anything else
//! running beside the measurement) never leak into the number — which
//! is what lets a test assert on it: the simulator runs a machine below
//! its sharding threshold on one thread, so the same program allocates
//! the same number of times, and holds the same bytes, on every run.
//! A block freed on another thread than the one that allocated it
//! counts off there, so byte counts are exact only for work that keeps
//! its blocks on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by
    /// this thread. `const`-initialized and without a destructor, so
    /// touching it from inside the allocator cannot itself allocate.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed (negative if it
    /// frees blocks other threads allocated), and the most it has held
    /// since [`peak_bytes_during`] last reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting calls and live bytes per thread.
pub struct CountingAlloc;

/// One allocation call that changes this thread's live bytes by `delta`.
fn count(delta: i64) {
    CALLS.with(|calls| calls.set(calls.get() + 1));
    grow(delta);
}

fn grow(delta: i64) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
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

/// Runs `work` and returns its result with the most bytes this thread
/// held at once meanwhile, above what it held when `work` started (by
/// the sizes the allocations asked for). Always 0 unless
/// [`CountingAlloc`] is the binary's global allocator.
pub fn peak_bytes_during<R>(work: impl FnOnce() -> R) -> (R, u64) {
    let (start, outer) = (LIVE.get(), PEAK.replace(LIVE.get()));
    let result = work();
    let peak = PEAK.get();
    PEAK.set(outer.max(peak));
    (result, (peak - start) as u64)
}
