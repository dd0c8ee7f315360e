//! In-tree worker threads and scratch buffers for the packed GEMM path.
//!
//! The workspace is deliberately dependency-free (DESIGN.md §2), so the
//! parallel macro-loop of [`crate::gemm`]'s packed kernel runs on this
//! small fixed-size pool instead of `rayon`:
//!
//! * [`ThreadPool`] — persistent workers woken per call; a parallel-for
//!   self-schedules job indices through one shared atomic cursor, so
//!   threads steal whatever work remains instead of being pinned to a
//!   pre-cut slice. The 2-D tiled GEMM driver posts many more jobs than
//!   threads and the tiles at ragged edges are cheaper than interior
//!   ones — dynamic scheduling absorbs that imbalance (and any OS-level
//!   preemption) with one `fetch_add` per job. Which thread runs a job
//!   never affects results: every GEMM job writes a disjoint region of
//!   `C`, so determinism is a property of the job decomposition, not
//!   the schedule.
//! * [`take_scratch`] — thread-local recycling of `Vec<f64>` packing
//!   buffers, so steady-state `gemm_acc` calls allocate nothing.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Recovers the guard from a poisoned lock: pool state is only ever
/// mutated under the lock by panic-free code (worker bodies run inside
/// `catch_unwind`), so the data is consistent even after a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One posted parallel-for: the body with its lifetime erased plus the
/// slot bookkeeping. The erased reference is only dereferenced between
/// the post and the moment `remaining` reaches zero, and the posting
/// caller blocks in [`ThreadPool::run`] until exactly then.
struct Job {
    body: &'static (dyn Fn(usize) + Sync),
    njobs: usize,
    /// Participating threads; the caller always owns slot 0.
    slots: usize,
    next_slot: usize,
    /// Slots that have not finished yet (the caller's included).
    remaining: usize,
    panicked: bool,
}

struct State {
    epoch: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
    /// Next unclaimed job index of the in-flight parallel-for. Reset
    /// under the state lock when a job is posted; participating threads
    /// `fetch_add` it lock-free while they drain. Only one job is ever
    /// in flight (the posting mutex), so epochs cannot interleave.
    cursor: AtomicUsize,
}

/// A fixed set of persistent worker threads executing parallel-for
/// calls. See the module docs for the design constraints.
pub struct ThreadPool {
    inner: &'static Inner,
    /// Serializes posters: only one parallel-for is in flight at a time.
    /// Calls from inside a running job would deadlock here — the packed
    /// GEMM only ever posts from the top level.
    post: Mutex<()>,
    workers: usize,
}

impl ThreadPool {
    /// Spawns `workers` persistent worker threads (the calling thread
    /// participates too, so total parallelism is `workers + 1`).
    fn new(workers: usize) -> Self {
        let inner: &'static Inner = Box::leak(Box::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        }));
        for i in 0..workers {
            #[allow(
                clippy::expect_used,
                reason = "thread spawn failure at pool construction is unrecoverable"
            )]
            thread::Builder::new()
                .name(format!("cubemm-gemm-{i}"))
                .spawn(move || worker_loop(inner))
                .expect("spawning GEMM pool worker");
        }
        ThreadPool {
            inner,
            post: Mutex::new(()),
            workers,
        }
    }

    /// The process-wide pool, sized to the machine (`available_parallelism
    /// - 1` workers). Created on first use; lives for the process.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = thread::available_parallelism().map_or(1, |n| n.get());
            ThreadPool::new(cores.saturating_sub(1))
        })
    }

    /// Maximum useful `threads` argument to [`ThreadPool::run`].
    pub fn parallelism(&self) -> usize {
        self.workers + 1
    }

    /// Runs `body(0..njobs)` across up to `threads` threads (capped by
    /// the pool size and by `njobs`), blocking until every index has
    /// been executed exactly once. Indices are claimed dynamically from
    /// a shared atomic cursor (work stealing), so a thread stalled on a
    /// slow job never strands the rest of the range — which indices a
    /// given thread executes is *not* deterministic, and callers must
    /// make per-index work independent of the executing thread (GEMM
    /// jobs write disjoint regions of `C`). Panics (after completing
    /// the call) if any body invocation panicked.
    pub fn run(&self, threads: usize, njobs: usize, body: &(dyn Fn(usize) + Sync)) {
        let threads = threads.clamp(1, self.workers + 1).min(njobs.max(1));
        if threads <= 1 || njobs <= 1 {
            for j in 0..njobs {
                body(j);
            }
            return;
        }
        let _posting = lock(&self.post);
        // SAFETY (lifetime erasure): workers dereference `body` only
        // while `remaining > 0` for this epoch, and this function does
        // not return before `remaining == 0`; `body` outlives the call.
        let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        {
            let mut st = lock(&self.inner.state);
            debug_assert!(st.job.is_none(), "GEMM pool job posted reentrantly");
            // Publish the fresh cursor before the epoch flips: workers
            // only claim after observing the new epoch under this lock.
            self.inner.cursor.store(0, Ordering::Relaxed);
            st.job = Some(Job {
                body: body_static,
                njobs,
                slots: threads,
                next_slot: 1,
                remaining: threads,
                panicked: false,
            });
            st.epoch += 1;
            self.inner.work.notify_all();
        }
        // The caller owns slot 0 and works alongside the pool.
        let res = catch_unwind(AssertUnwindSafe(|| {
            drain(body, njobs, &self.inner.cursor);
        }));
        let mut st = lock(&self.inner.state);
        {
            #[allow(
                clippy::expect_used,
                reason = "pool invariant: the posting lock keeps the job alive until remaining hits 0"
            )]
            let job = st.job.as_mut().expect("pool job vanished mid-run");
            if res.is_err() {
                job.panicked = true;
            }
            job.remaining -= 1;
        }
        while st.job.as_ref().is_some_and(|j| j.remaining > 0) {
            st = self.inner.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        #[allow(
            clippy::expect_used,
            reason = "pool invariant: only this poster takes the job it posted"
        )]
        let job = st.job.take().expect("pool job vanished before collection");
        drop(st);
        if job.panicked {
            panic!("cubemm GEMM thread pool: a parallel job panicked");
        }
    }
}

/// Claims and executes job indices from the shared cursor until the
/// range `0..njobs` is exhausted. One `fetch_add` per job — cheap
/// against even the smallest GEMM jobs (a single packed panel copy).
fn drain(body: &(dyn Fn(usize) + Sync), njobs: usize, cursor: &AtomicUsize) {
    loop {
        let j = cursor.fetch_add(1, Ordering::Relaxed);
        if j >= njobs {
            return;
        }
        body(j);
    }
}

fn worker_loop(inner: &'static Inner) {
    let mut seen = 0u64;
    loop {
        let (body, njobs);
        {
            let mut st = lock(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(job) = st.job.as_mut() {
                        if job.next_slot < job.slots {
                            job.next_slot += 1;
                            body = job.body;
                            njobs = job.njobs;
                            break;
                        }
                    }
                    // Every slot of this epoch is already claimed.
                }
                st = inner.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        let res = catch_unwind(AssertUnwindSafe(|| drain(body, njobs, &inner.cursor)));
        let mut st = lock(&inner.state);
        #[allow(
            clippy::expect_used,
            reason = "pool invariant: a claimed slot's job stays posted until every slot reports"
        )]
        let job = st.job.as_mut().expect("pool job vanished under a worker");
        if res.is_err() {
            job.panicked = true;
        }
        job.remaining -= 1;
        if job.remaining == 0 {
            inner.done.notify_all();
        }
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_every_index_once() {
        let pool = ThreadPool::new(3);
        for njobs in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..njobs).map(|_| AtomicUsize::new(0)).collect();
            pool.run(4, njobs, &|j| {
                hits[j].fetch_add(1, Ordering::Relaxed);
            });
            for (j, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {j} of {njobs}");
            }
        }
    }

    #[test]
    fn oversubscribed_thread_request_is_clamped() {
        let pool = ThreadPool::new(1);
        let sum = AtomicUsize::new(0);
        pool.run(64, 10, &|j| {
            sum.fetch_add(j, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn sequential_reuse_works() {
        let pool = ThreadPool::new(2);
        for round in 0..20 {
            let count = AtomicUsize::new(0);
            pool.run(3, 16, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 16, "round {round}");
        }
    }

    #[test]
    fn skewed_jobs_are_stolen_not_stranded() {
        // Job 0 spins until every other index has executed. Under the
        // old static partitioning the thread owning job 0 also owned a
        // contiguous share of the range, which could then never run —
        // dynamic self-scheduling lets the other thread steal it all.
        let pool = ThreadPool::new(1); // two participants: worker + caller
        let done = AtomicUsize::new(0);
        const NJOBS: usize = 64;
        pool.run(2, NJOBS, &|j| {
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
        let pool = ThreadPool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, 8, &|j| {
                assert!(j != 5, "deliberate test panic");
            });
        }));
        assert!(res.is_err());
        // The pool stays usable after a propagated panic.
        let count = AtomicUsize::new(0);
        pool.run(3, 8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let pool = ThreadPool::global();
        assert!(pool.parallelism() >= 1);
        assert!(std::ptr::eq(pool, ThreadPool::global()));
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
