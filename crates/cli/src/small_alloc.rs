//! The `cubemm` binary's global allocator: small blocks from a
//! per-thread cache, everything else from [`System`].
//!
//! A chaos campaign builds and tears down thousands of tiny machines,
//! and 97 % of its heap allocations are at most 1 032 bytes. A 64-node
//! run frees its per-node objects in bursts, and glibc's own per-thread
//! cache holds only 7 chunks per size, so the rest of each burst falls
//! into the arena's bins, behind a lock that `run_grid`'s threads
//! contend for. [`SmallCache`] keeps those blocks on lock-free
//! per-thread LIFO free lists instead (DESIGN.md §11, "Small objects: a
//! per-thread cache").
//!
//! **Size classes.** A request of at most [`MAX_SMALL`] bytes with
//! alignment at most 16 belongs to one of 64 classes, glibc's usable
//! sizes `24 + 16k`. It is always rounded up to its class, on every
//! path: the cache hands out and takes back only class-sized blocks,
//! and [`System`] allocates and frees them with the class's layout, so
//! a block is safe to cache whichever path allocated it. glibc would
//! have rounded the request to the same chunk, so its chunk sizes do
//! not change.
//!
//! **Cap and thread exit.** A thread caches at most [`CAP`] bytes; a
//! free past the cap goes to [`System`]. A larger cache holds more of a
//! run's teardown burst, but its idle blocks serve no other class, so
//! the cap trades hits against resident memory. A thread's first cached
//! block registers a pthread key whose destructor hands the whole cache
//! back to [`System`] when the thread exits, and marks it drained, so a
//! free later in the thread's teardown goes to [`System`] too.
//!
//! **Other requests.** Larger or over-aligned requests go straight to
//! [`System`]. A small `alloc_zeroed` takes a cached block and zeroes
//! it, since glibc's `calloc` skips its own per-thread cache and, once
//! the process has threads, takes the arena lock every time; with none
//! cached it is `calloc`. A `realloc`
//! inside one class returns the same block; any other is glibc's
//! `realloc`, to the new class's size when the new size is small, so
//! glibc still grows a block in place where it can.
//!
//! **Only `chaos` caches.** It calls [`enable`] before it starts any
//! thread; every other command rounds but caches nothing. A run's heap
//! is glibc's, which `heap.rs` tunes; a long-lived service's resident
//! set grew more than its latency fell; and `analyze` runs on one
//! thread, where glibc's own cache takes no lock, so caching only grew
//! its resident set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ffi::{c_int, c_uint, c_void};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

extern "C" {
    fn pthread_key_create(
        key: *mut c_uint,
        destructor: Option<unsafe extern "C" fn(*mut c_void)>,
    ) -> c_int;
    fn pthread_setspecific(key: c_uint, value: *const c_void) -> c_int;
}

/// glibc's smallest usable size: the payload of its 32-byte chunk.
const MIN_CLASS: usize = 24;
/// glibc's chunk granularity on 64-bit targets.
const STEP: usize = 16;
/// The largest request the cache serves: the payload of a 1 040-byte
/// chunk.
const MAX_SMALL: usize = 1032;
/// The largest alignment the cache serves: glibc's `malloc` alignment.
const MAX_ALIGN: usize = 16;
const CLASSES: usize = (MAX_SMALL - MIN_CLASS) / STEP + 1;
/// Bytes one thread may hold cached.
const CAP: usize = 256 << 10;

/// Every class's layout, the one [`System`] allocates and frees its
/// blocks with.
static LAYOUTS: [Layout; CLASSES] = {
    let mut layouts = [Layout::new::<u8>(); CLASSES];
    let mut class = 0;
    while class < CLASSES {
        layouts[class] = match Layout::from_size_align(MIN_CLASS + class * STEP, MAX_ALIGN) {
            Ok(layout) => layout,
            Err(_) => panic!("every class layout is valid"),
        };
        class += 1;
    }
    layouts
};

/// Whether freed small blocks are cached; [`enable`] sets it.
static CACHING: AtomicBool = AtomicBool::new(false);

/// The allocator; see the module docs.
pub struct SmallCache;

/// Caches freed small blocks from now on, on every thread. Before it,
/// every small request still rounds to its class but goes to
/// [`System`]. `chaos` calls this before it starts any thread.
pub fn enable() {
    CACHING.store(true, Ordering::Relaxed);
}

/// The class of `layout`, or `None` when [`System`] serves it.
#[inline]
fn class_of(layout: Layout) -> Option<usize> {
    (layout.size() <= MAX_SMALL && layout.align() <= MAX_ALIGN)
        .then(|| layout.size().saturating_sub(MIN_CLASS).div_ceil(STEP))
}

/// The layout [`System`] allocates and frees a block of `layout` with:
/// its class's for a small one, and at least 16-aligned otherwise, so
/// that a `realloc` between the two keeps one alignment.
#[inline]
fn system_layout(layout: Layout) -> Layout {
    match class_of(layout) {
        Some(class) => LAYOUTS[class],
        None => layout.align_to(MAX_ALIGN).unwrap_or(layout),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Nothing cached yet; the exit hook is not registered.
    Fresh,
    /// The exit hook is registered.
    Live,
    /// The thread is exiting and its cache went back to [`System`], or
    /// its exit hook could not be registered: nothing is cached.
    Drained,
}

/// One thread's free lists. Each list threads through its blocks: a
/// cached block's first word holds the next block, or null.
struct Cache {
    heads: [Cell<*mut u8>; CLASSES],
    bytes: Cell<usize>,
    state: Cell<State>,
    /// Mirrors `bytes` where a test can read it after the thread exits.
    #[cfg(test)]
    mirror: Cell<Option<&'static std::sync::atomic::AtomicUsize>>,
}

thread_local! {
    // `const`-initialised and without drop glue: every access is a plain
    // thread-local load that never allocates and never registers a
    // destructor, so the allocator can use it at any point of a
    // thread's life, its exit included.
    static CACHE: Cache = const {
        Cache {
            heads: [const { Cell::new(ptr::null_mut()) }; CLASSES],
            bytes: Cell::new(0),
            state: Cell::new(State::Fresh),
            #[cfg(test)]
            mirror: Cell::new(None),
        }
    };
}

impl Cache {
    fn set_bytes(&self, bytes: usize) {
        self.bytes.set(bytes);
        #[cfg(test)]
        if let Some(mirror) = self.mirror.get() {
            mirror.store(bytes, Ordering::Relaxed);
        }
    }

    /// The most recently cached block of `class`, or null.
    #[inline]
    fn pop(&self, class: usize) -> *mut u8 {
        let block = self.heads[class].get();
        if !block.is_null() {
            // SAFETY: a listed block is a live, 16-aligned class block of
            // at least 24 bytes whose first word `push` wrote.
            let next = unsafe { block.cast::<*mut u8>().read() };
            self.heads[class].set(next);
            self.set_bytes(self.bytes.get() - LAYOUTS[class].size());
        }
        block
    }

    /// Caches `block`, a class block of `class` that its owner gave up;
    /// `false` leaves it to the caller.
    #[inline]
    fn push(&self, class: usize, block: *mut u8) -> bool {
        let size = LAYOUTS[class].size();
        if self.bytes.get() + size > CAP || !self.live() {
            return false;
        }
        // SAFETY: `block` is a class block of `class`, 16-aligned and at
        // least 24 bytes, and nothing else uses it once freed.
        unsafe { block.cast::<*mut u8>().write(self.heads[class].get()) };
        self.heads[class].set(block);
        self.set_bytes(self.bytes.get() + size);
        true
    }

    /// Whether the thread may cache; registers the exit hook on the
    /// first call.
    #[inline]
    fn live(&self) -> bool {
        match self.state.get() {
            State::Live => true,
            State::Drained => false,
            State::Fresh => {
                let registered = exit_key().is_some_and(|key| {
                    // Any non-null value makes glibc run the destructor.
                    let value = NonNull::<c_void>::dangling().as_ptr();
                    // SAFETY: `key` is a live key from `pthread_key_create`.
                    // glibc's own allocator, never this one, serves any
                    // memory the call needs, so it cannot re-enter.
                    unsafe { pthread_setspecific(key, value) == 0 }
                });
                let state = if registered {
                    State::Live
                } else {
                    State::Drained
                };
                self.state.set(state);
                registered
            }
        }
    }

    /// Hands every cached block back to [`System`].
    fn drain(&self) {
        for (head, &layout) in self.heads.iter().zip(&LAYOUTS) {
            let mut block = head.replace(ptr::null_mut());
            while !block.is_null() {
                // SAFETY: as in `pop`: the block is listed, so its first
                // word is the next listed block. It was allocated by
                // `System` with its class's `layout` (every path rounds),
                // and once unlinked it is freed exactly once. `System`
                // calls glibc's `free`, which never re-enters this
                // allocator.
                unsafe {
                    let next = block.cast::<*mut u8>().read();
                    System.dealloc(block, layout);
                    block = next;
                }
            }
        }
        self.set_bytes(0);
    }
}

/// The process's one pthread key, whose destructor drains the exiting
/// thread's cache; `None` if the key could not be created, and then no
/// thread caches.
fn exit_key() -> Option<c_uint> {
    static KEY: OnceLock<Option<c_uint>> = OnceLock::new();
    *KEY.get_or_init(|| {
        let mut key = 0;
        // SAFETY: `key` is a valid out-pointer and `drain_at_exit` has
        // the destructor's signature. `OnceLock` allocates nothing, so
        // initialising it from inside the allocator cannot re-enter it.
        (unsafe { pthread_key_create(&mut key, Some(drain_at_exit)) } == 0).then_some(key)
    })
}

/// The key's destructor: glibc calls it on the exiting thread, after the
/// thread's Rust thread-locals were dropped.
unsafe extern "C" fn drain_at_exit(_: *mut c_void) {
    CACHE.with(|cache| {
        cache.state.set(State::Drained);
        cache.drain();
    });
}

// SAFETY (the `GlobalAlloc` contract): `System` sees every block with
// `system_layout` of the caller's layout, on `alloc`, `alloc_zeroed`,
// `dealloc` and `realloc` alike, since all of them see the same layout.
// For a small layout that is its class's: 16-aligned and at least as
// large as any request of the class, so a class block may serve any of
// them, and the cache hands out and takes back nothing else. A cached
// block is owned by exactly one free list until it is handed out again.
// The cache is thread-local and touched through `Cell`s only, and
// nothing it calls (`System`, the pthread key functions) re-enters this
// allocator, so no list is ever seen half-updated.
unsafe impl GlobalAlloc for SmallCache {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(class) = class_of(layout) {
            if CACHING.load(Ordering::Relaxed) {
                let block = CACHE.with(|cache| cache.pop(class));
                if !block.is_null() {
                    return block;
                }
            }
        }
        // SAFETY: `system_layout` keeps a nonzero size.
        unsafe { System.alloc(system_layout(layout)) }
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if let Some(class) = class_of(layout) {
            if CACHING.load(Ordering::Relaxed) && CACHE.with(|cache| cache.push(class, ptr)) {
                return;
            }
        }
        // SAFETY: `System` allocated `ptr` with this `system_layout`.
        unsafe { System.dealloc(ptr, system_layout(layout)) }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if let Some(class) = class_of(layout) {
            if CACHING.load(Ordering::Relaxed) {
                let block = CACHE.with(|cache| cache.pop(class));
                if !block.is_null() {
                    // SAFETY: a cached block of `class` is a live,
                    // unaliased block of its class's size.
                    unsafe { block.write_bytes(0, LAYOUTS[class].size()) };
                    return block;
                }
            }
        }
        // SAFETY: `system_layout` keeps a nonzero size. calloc zeroes the
        // whole block.
        unsafe { System.alloc_zeroed(system_layout(layout)) }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        match (class_of(layout), class_of(new)) {
            // The class block already holds `new_size` bytes.
            (Some(old), Some(class)) if old == class => ptr,
            // glibc resizes in place where it can. The result is a
            // `System` block of `system_layout(new)`: both layouts have
            // the same alignment, and a small one's size is its class's.
            //
            // SAFETY: `System` allocated `ptr` with `system_layout(layout)`.
            _ => unsafe { System.realloc(ptr, system_layout(layout), system_layout(new).size()) },
        }
    }
}

#[cfg(test)]
mod tests {
    //! These run in the `cubemm` binary's test harness, whose global
    //! allocator is [`SmallCache`]: each test thread has its own cache.
    //! Each test first turns caching on, as `chaos` does, so the binary's
    //! other tests run on the cache as well.

    use super::*;
    use std::alloc::{alloc, alloc_zeroed, dealloc, realloc};
    use std::sync::atomic::AtomicUsize;

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    /// Bytes the calling thread holds cached.
    fn cached() -> usize {
        CACHE.with(|cache| cache.bytes.get())
    }

    /// Allocates and frees one block of `size` bytes; returns how many
    /// bytes the free cached.
    fn cached_by_free(size: usize, align: usize) -> usize {
        let layout = layout(size, align);
        // SAFETY: a nonzero size; freed with its own layout.
        unsafe {
            let block = alloc(layout);
            assert!(!block.is_null());
            assert_eq!(block.addr() % align, 0);
            let before = cached();
            dealloc(block, layout);
            cached() - before
        }
    }

    #[test]
    fn the_class_edges_are_glibcs_usable_sizes() {
        enable();
        assert_eq!(LAYOUTS.len(), 64);
        assert_eq!(cached_by_free(1, 8), 24);
        assert_eq!(cached_by_free(24, 8), 24);
        assert_eq!(cached_by_free(25, 8), 40);
        assert_eq!(cached_by_free(1032, 8), 1032);
        assert_eq!(cached_by_free(1033, 8), 0);
        // SAFETY: as in `cached_by_free`.
        unsafe {
            let small = layout(24, 8);
            let block = alloc(small);
            dealloc(block, small);
            assert_eq!(alloc(small), block, "a freed block is reused first");
            let next = layout(25, 8);
            let other = alloc(next);
            assert_ne!(other, block, "25 bytes is the next class");
            dealloc(other, next);
            dealloc(block, small);
        }
    }

    #[test]
    fn over_aligned_requests_bypass_the_cache() {
        enable();
        assert_eq!(cached_by_free(64, 16), 72);
        assert_eq!(cached_by_free(64, 32), 0);
        assert_eq!(cached_by_free(64, 64), 0);
        assert_eq!(cached_by_free(1000, 64), 0);
    }

    #[test]
    fn realloc_keeps_a_class_block_and_the_contents_across_classes() {
        enable();
        // SAFETY: every block is freed once with the layout it has.
        unsafe {
            let block = alloc(layout(30, 8));
            block.write_bytes(0x5a, 30);
            assert_eq!(
                realloc(block, layout(30, 8), 40),
                block,
                "30 and 40 share a class"
            );
            // glibc may grow the block in place or move it; either way
            // it frees the old block itself, so nothing is cached.
            let before = cached();
            let grown = realloc(block, layout(40, 8), 41);
            assert_eq!(cached(), before, "glibc resizes across classes");
            assert!((0..30).all(|i| *grown.add(i) == 0x5a));
            grown.add(30).write_bytes(0x5a, 11);
            // Out of the class range and back.
            let large = realloc(grown, layout(41, 8), 4000);
            assert!((0..41).all(|i| *large.add(i) == 0x5a));
            let small = realloc(large, layout(4000, 8), 20);
            assert!((0..20).all(|i| *small.add(i) == 0x5a));
            // The shrunk block is a class block like any other.
            let before = cached();
            dealloc(small, layout(20, 8));
            assert_eq!(cached() - before, 24);
            assert_eq!(alloc(layout(24, 8)), small);
            dealloc(small, layout(24, 8));
        }
    }

    #[test]
    fn alloc_zeroed_zeroes_a_recycled_block() {
        enable();
        let layout = layout(200, 8);
        // SAFETY: every block is freed once with `layout`.
        unsafe {
            let block = alloc(layout);
            block.write_bytes(0xff, 200);
            dealloc(block, layout);
            let zeroed = alloc_zeroed(layout);
            assert_eq!(zeroed, block, "the dirty block is reused");
            assert!((0..200).all(|i| *zeroed.add(i) == 0));
            // A second one is zeroed too, from the cache or from calloc.
            let fresh = alloc_zeroed(layout);
            assert_ne!(fresh, zeroed);
            assert!((0..200).all(|i| *fresh.add(i) == 0));
            dealloc(fresh, layout);
            dealloc(zeroed, layout);
        }
    }

    #[test]
    fn a_block_freed_on_another_thread_is_reused_there() {
        enable();
        struct Block(*mut u8);
        // SAFETY: the block is a plain heap allocation, handed over whole.
        unsafe impl Send for Block {}
        let layout = layout(100, 8);
        // SAFETY: a nonzero size.
        let block = Block(unsafe { alloc(layout) });
        std::thread::spawn(move || {
            let block = block;
            // SAFETY: the block is freed once, reused, and freed again.
            unsafe {
                dealloc(block.0, layout);
                let reused = alloc(layout);
                assert_eq!(reused, block.0);
                dealloc(reused, layout);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_thread_caches_at_most_the_cap() {
        enable();
        std::thread::spawn(|| {
            let layout = layout(MAX_SMALL, 8);
            let count = 2 * CAP / MAX_SMALL;
            // SAFETY: every block is freed once with `layout`.
            let blocks: Vec<_> = (0..count).map(|_| unsafe { alloc(layout) }).collect();
            for &block in &blocks {
                // SAFETY: as above.
                unsafe { dealloc(block, layout) };
            }
            assert!(cached() <= CAP);
            assert!(cached() > CAP - MAX_SMALL);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_threads_cache_empties_when_it_exits() {
        enable();
        static MIRROR: AtomicUsize = AtomicUsize::new(0);
        std::thread::spawn(|| {
            CACHE.with(|cache| cache.mirror.set(Some(&MIRROR)));
            let layouts = [layout(8, 8), layout(100, 16), layout(1000, 8)];
            // SAFETY: every block is freed once with its own layout.
            let blocks: Vec<_> = layouts.iter().map(|&l| (unsafe { alloc(l) }, l)).collect();
            for (block, layout) in blocks {
                // SAFETY: as above.
                unsafe { dealloc(block, layout) };
            }
            assert!(MIRROR.load(Ordering::Relaxed) >= 24 + 104 + 1000);
        })
        .join()
        .unwrap();
        assert_eq!(MIRROR.load(Ordering::Relaxed), 0);
    }
}
