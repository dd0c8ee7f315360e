//! Parallel-for and scratch buffers for the packed GEMM path.
//!
//! The workspace is deliberately dependency-free (DESIGN.md §2), so the
//! packed kernel's parallel loops and `cubemm_harness::run_grid` run on
//! [`par_for`] — scoped threads that claim job indices from one atomic
//! cursor — instead of `rayon`; [`take_scratch`] recycles `Vec<f64>`
//! packing buffers per thread, so steady-state `gemm_acc` calls
//! allocate nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;

/// Recovers the guard from a poisoned lock: a free list is only ever
/// mutated under the lock by panic-free code (a push, a truncate or a
/// `swap_remove`), so the data is consistent even after a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `body(j)` for every `j` in `0..njobs` on `min(threads, njobs)`
/// threads — the caller and the scoped workers it spawns — and returns
/// once every index has run exactly once.
///
/// Threads claim indices from one atomic cursor, so a thread stalled on
/// a slow job never strands the rest of the range. Which thread runs an
/// index is not deterministic: per-index work must not depend on it
/// (GEMM jobs write disjoint regions of `C`). `threads` is not capped
/// here; `packed` caps a user's request at the host's parallelism.
///
/// # Panics
///
/// A panicking `body` propagates once the other threads have drained
/// the range: with its own payload if it ran on the calling thread, as
/// the scope's "a scoped thread panicked" otherwise.
pub fn par_for(threads: usize, njobs: usize, body: &(dyn Fn(usize) + Sync)) {
    let threads = threads.min(njobs);
    if threads <= 1 {
        (0..njobs).for_each(body);
        return;
    }
    // Relaxed: the cursor publishes no data, and the scope's join
    // orders every body's writes before the return.
    let cursor = AtomicUsize::new(0);
    let drain = || loop {
        let j = cursor.fetch_add(1, Ordering::Relaxed);
        if j >= njobs {
            return;
        }
        body(j);
    };
    thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(drain);
        }
        drain();
    });
}

/// The threads a packed product runs on for a request of `requested`:
/// `0` means every hardware thread, and no request gets more than the
/// host has, read once per process.
pub(crate) fn host_threads(requested: usize) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    let host = *HOST.get_or_init(|| thread::available_parallelism().map_or(1, usize::from));
    if requested == 0 {
        host
    } else {
        requested.min(host)
    }
}

// ---------------------------------------------------------------------
// Scratch-buffer recycling.

/// Free buffers kept per thread. The simulator runs a whole machine on
/// one thread, so its nodes share that thread's free list; bounded so a
/// burst of large packs cannot pin memory forever.
const MAX_FREE_BUFFERS: usize = 8;

/// Free buffers shared across threads. Threads that pack come and go —
/// a host reference beside each `run`, `--jobs` grid workers, serve
/// workers — so purely thread-local recycling would re-allocate every
/// pack on every fresh thread. Exiting threads spill their free lists
/// into [`GLOBAL_FREE`] and fresh threads draw from it before
/// allocating.
const MAX_GLOBAL_FREE: usize = 64;

/// A bounded free list shared across threads.
struct FreeList(Mutex<Vec<Vec<f64>>>);

impl FreeList {
    const fn new() -> Self {
        FreeList(Mutex::new(Vec::new()))
    }

    /// Keeps as many of `bufs` as fit under [`MAX_GLOBAL_FREE`].
    fn spill(&self, mut bufs: Vec<Vec<f64>>) {
        let mut free = lock(&self.0);
        bufs.truncate(MAX_GLOBAL_FREE.saturating_sub(free.len()));
        free.append(&mut bufs);
    }

    /// Takes the newest buffer of at least `len` elements' capacity.
    fn take(&self, len: usize) -> Option<Vec<f64>> {
        let mut free = lock(&self.0);
        let pos = free.iter().rposition(|b| b.capacity() >= len)?;
        Some(free.swap_remove(pos))
    }
}

/// The process-wide spill pool.
static GLOBAL_FREE: FreeList = FreeList::new();

/// The thread-local free list, and the shared list it spills to when
/// the thread exits and draws from when it runs dry.
struct LocalFree {
    bufs: Vec<Vec<f64>>,
    shared: &'static FreeList,
}

impl Drop for LocalFree {
    fn drop(&mut self) {
        let spilled = std::mem::take(&mut self.bufs);
        if !spilled.is_empty() {
            self.shared.spill(spilled);
        }
    }
}

thread_local! {
    static FREE: RefCell<LocalFree> = const {
        RefCell::new(LocalFree {
            bufs: Vec::new(),
            shared: &GLOBAL_FREE,
        })
    };
}

/// A leased scratch buffer; returns to the thread's free list on drop.
pub struct ScratchBuf {
    buf: Vec<f64>,
}

impl ScratchBuf {
    /// The leased storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf
    }

    /// The leased storage, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            return;
        }
        let _ = FREE.try_with(|free| {
            let mut free = free.borrow_mut();
            if free.bufs.len() < MAX_FREE_BUFFERS {
                free.bufs.push(buf);
            }
        });
    }
}

/// Leases a scratch buffer of exactly `len` elements with **unspecified
/// contents** (callers overwrite every element — the packing routines
/// write their zero padding explicitly). Reuses the thread's most
/// recently returned buffer of sufficient capacity, then the
/// process-wide spill pool of exited threads; allocates otherwise.
pub fn take_scratch(len: usize) -> ScratchBuf {
    let reused = FREE
        .try_with(|free| {
            let mut free = free.borrow_mut();
            match free.bufs.iter().rposition(|b| b.capacity() >= len) {
                Some(pos) => Some(free.bufs.swap_remove(pos)),
                None => free.shared.take(len),
            }
        })
        .unwrap_or_else(|_| GLOBAL_FREE.take(len));
    let mut buf = reused.unwrap_or_default();
    // Adjust length without touching retained contents: `resize` only
    // writes the elements beyond the current length.
    if buf.len() > len {
        buf.truncate(len);
    } else {
        buf.resize(len, 0.0);
    }
    ScratchBuf { buf }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_every_index_once() {
        for njobs in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..njobs).map(|_| AtomicUsize::new(0)).collect();
            par_for(4, njobs, &|j| {
                hits[j].fetch_add(1, Ordering::Relaxed);
            });
            for (j, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {j} of {njobs}");
            }
        }
    }

    #[test]
    fn oversubscribed_thread_request_is_clamped() {
        // `packed` resolves its request through `host_threads`: `0` and
        // anything above the host become the host's parallelism.
        let host = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(host_threads(0), host);
        assert_eq!(host_threads(64 * host), host);
        assert_eq!(host_threads(1), 1);
        assert_eq!(host_threads(host), host);
    }

    #[test]
    fn sequential_reuse_works() {
        for round in 0..20 {
            let count = AtomicUsize::new(0);
            par_for(3, 16, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 16, "round {round}");
        }
    }

    #[test]
    fn skewed_jobs_are_stolen_not_stranded() {
        // Job 0 spins until every other index has executed. Under
        // static partitioning the thread owning job 0 would also own a
        // contiguous share of the range, which could then never run —
        // dynamic self-scheduling lets the other thread steal it all.
        let done = AtomicUsize::new(0);
        const NJOBS: usize = 64;
        par_for(2, NJOBS, &|j| {
            if j == 0 {
                let mut spins = 0u64;
                while done.load(Ordering::Acquire) < NJOBS - 1 {
                    thread::yield_now();
                    spins += 1;
                    assert!(
                        spins < 1_000_000_000,
                        "remaining jobs were never stolen by the other thread"
                    );
                }
            }
            done.fetch_add(1, Ordering::Release);
        });
        assert_eq!(done.load(Ordering::Relaxed), NJOBS);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            par_for(3, 8, &|j| {
                assert!(j != 5, "deliberate test panic");
            });
        }));
        assert!(res.is_err());
        // The next call runs normally after a propagated panic.
        let count = AtomicUsize::new(0);
        par_for(3, 8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scratch_buffers_are_recycled() {
        let ptr = {
            let mut s = take_scratch(1024);
            s.as_mut_slice()[0] = 1.0;
            s.as_slice().as_ptr() as usize
        };
        // Same thread, same (or larger) request: the lease comes back.
        let s = take_scratch(512);
        assert_eq!(s.as_slice().as_ptr() as usize, ptr);
        assert_eq!(s.as_slice().len(), 512);
    }

    #[test]
    fn exited_threads_spill_scratch_to_the_global_pool() {
        // Lease-and-return an odd-sized buffer on a short-lived thread,
        // then show a *different* fresh thread reuses that very
        // allocation. Both threads share a private spill pool, so no
        // concurrently running test can take the buffer first.
        const LEN: usize = 77_777;
        let shared: &'static FreeList = Box::leak(Box::new(FreeList::new()));
        let lease = move || {
            FREE.with(|free| free.borrow_mut().shared = shared);
            take_scratch(LEN).as_slice().as_ptr() as usize
        };
        let spilled = thread::spawn(lease).join().unwrap();
        let inherited = thread::spawn(lease).join().unwrap();
        assert_eq!(inherited, spilled, "the fresh thread allocated anew");
    }

    #[test]
    fn scratch_grows_on_demand() {
        let s = take_scratch(10);
        assert_eq!(s.as_slice().len(), 10);
        drop(s);
        let s = take_scratch(100_000);
        assert_eq!(s.as_slice().len(), 100_000);
    }
}
