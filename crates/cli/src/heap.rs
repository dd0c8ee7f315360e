//! Backs `cubemm run`'s heap with transparent huge pages.
//!
//! Simple, 3-D Diagonal and the 3-D All family are space-hungry (the
//! paper's Table 3), so one `run` writes tens of megabytes of fresh heap.
//! On 4 KB pages every one of those pages costs a minor fault on first
//! touch, plus a TLB entry; on 2 MiB pages the same heap faults ~500×
//! less often. [`reserve`] grows glibc's main heap once, up front, and
//! advises the grown range `MADV_HUGEPAGE`. glibc serves a request from
//! its top chunk whenever the chunk is big enough, whatever the mmap
//! threshold, so with 512 MiB on top everything `run` allocates on its
//! main thread lands in that range. Only the page size changes: the
//! program's allocations, every number and every byte of output stay
//! the same.
//!
//! **Safety argument.** glibc, not this module, moves the break: the
//! module only sets a glibc tunable and makes ordinary `malloc`/`free`
//! calls, then reads the break with `sbrk(0)`, which moves nothing.
//! `madvise(MADV_HUGEPAGE)` changes paging policy only — contents,
//! protection and mapping stay as they were — and it is applied to whole
//! pages inside the heap glibc just grew. [`reserve`] runs once, from
//! `main`, before any other thread exists.
//!
//! **Fallback.** When the host's THP mode reads `never`, when no huge
//! page is free at fault time, or when `sbrk` cannot grow the heap (the
//! break never moves, and glibc's default pad is restored), pages stay
//! 4 KB and `run` behaves exactly as it would without this module.
//!
//! **Shard arenas.** A sharded run's other shards allocate on threads of
//! their own, which glibc serves from arenas of their own: one 64 MiB
//! mapping each, aligned to its size, made writable whole (the 512 MiB
//! pad exceeds it) but advised nothing. [`reserve_arenas`] prepares one
//! such arena per shard thread the run may start, on helper threads that
//! advise and pin it as above and then exit; glibc keeps a finished
//! thread's arena on a free list and hands it to the next new thread.
//!
//! Only `run` calls this. `serve`, `chaos`, `analyze` and `sweep` run
//! many small machines on a warm heap of a few megabytes, where one
//! 2 MiB page is a sizable share of the resident set and huge pages
//! measured no gain. What `chaos` gains from instead is the per-thread
//! cache of small blocks in `small_alloc.rs` (DESIGN.md §11).

use std::alloc::{alloc, dealloc, Layout};
use std::ffi::{c_int, c_void};
use std::sync::Barrier;

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn sbrk(increment: isize) -> *mut c_void;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// glibc's `mallopt` parameter for the bytes each heap growth adds
/// beyond the request (`<malloc.h>`).
const M_TOP_PAD: c_int = -2;
/// glibc's default for [`M_TOP_PAD`].
const DEFAULT_TOP_PAD: c_int = 128 << 10;
/// `<sys/mman.h>`'s advice that a range should be backed by huge pages.
const MADV_HUGEPAGE: c_int = 14;
/// The x86-64 and aarch64 PMD huge page.
const HUGE_PAGE: usize = 2 << 20;

/// Address space the heap grows by once. It is committed only when
/// touched, and glibc trims the heap back no further than the pad, so
/// the advised range lives for the whole process.
const TOP_PAD: c_int = 512 << 20;
/// Each probe allocation: below glibc's smallest mmap threshold
/// (128 KiB), so it is carved from the main heap's top chunk.
const PROBE: usize = 64 << 10;
/// Probes that may pass before the break moves: enough to exhaust any
/// top chunk a fresh process has (a few hundred KiB) several times over.
const MAX_PROBES: usize = 64;
/// Bytes past a probe that glibc may write: the next chunk's header.
const HEADER: usize = 2 * std::mem::size_of::<usize>();
/// glibc's `HEAP_MAX_SIZE` on 64-bit targets: a thread arena's heap is
/// one mapping of this size, aligned to it.
const ARENA_HEAP: usize = 64 << 20;

/// Grows the main heap by [`TOP_PAD`], advises the 2 MiB-aligned part
/// of the new range `MADV_HUGEPAGE`, and pins the unaligned 4 KB head
/// below it so that later allocations start on a huge page. Must run
/// before any other thread exists; see the module docs for the safety
/// argument and the fallback.
pub fn reserve() {
    let layout = Layout::from_size_align(PROBE, 16).expect("probe layout is valid");
    // SAFETY: `mallopt` and `sbrk(0)` only set or read glibc's malloc
    // state, and no other thread exists to race them. `sbrk(0)` moves
    // nothing.
    let brk = || unsafe { sbrk(0) } as usize;
    // SAFETY: as above.
    unsafe { mallopt(M_TOP_PAD, TOP_PAD) };
    let before = brk();

    // Allocate until glibc grows the heap. Every probe and the header
    // after it lie below `start`, so nothing in the advised range is
    // touched before the advice: a 2 MiB frame faulted once at 4 KB
    // stays 4 KB.
    let mut probes = [std::ptr::null_mut::<u8>(); MAX_PROBES];
    let mut grown = None;
    for slot in &mut probes {
        // SAFETY: `layout` has a nonzero size.
        *slot = unsafe { alloc(layout) };
        if slot.is_null() {
            break;
        }
        if brk() != before {
            grown = Some(*slot as usize + PROBE + HEADER);
            break;
        }
    }
    let Some(touched) = grown else {
        // The break never moved (`sbrk` failed and glibc fell back to
        // mmap): free the probes and restore glibc's default pad so
        // later growth asks for no more than it did.
        for &ptr in probes.iter().filter(|p| !p.is_null()) {
            // SAFETY: `ptr` came from `alloc(layout)` above and is freed once.
            unsafe { dealloc(ptr, layout) };
        }
        // SAFETY: as above.
        unsafe { mallopt(M_TOP_PAD, DEFAULT_TOP_PAD) };
        return;
    };
    let start = touched.next_multiple_of(HUGE_PAGE);
    let after = brk();
    let end = after - after % HUGE_PAGE;
    if end > start {
        // SAFETY: `[start, end)` is whole pages inside the heap glibc
        // just grew, and MADV_HUGEPAGE changes how those pages are
        // backed, not what they hold. A failure (a kernel without THP)
        // leaves 4 KB pages, so its result is ignored.
        unsafe { madvise(start as *mut c_void, end - start, MADV_HUGEPAGE) };
    }

    pin_below(start, layout);
}

/// Pins the rest of the head below `start` (at most 2 MiB of address
/// space, of which only one header page per probe is ever touched), so
/// that the top chunk begins on the advised range. The probes already
/// taken stay pinned too; the one that crosses `start` is returned to
/// the top chunk.
fn pin_below(start: usize, layout: Layout) {
    for _ in 0..=HUGE_PAGE / PROBE {
        // SAFETY: `layout` has a nonzero size.
        let ptr = unsafe { alloc(layout) };
        if ptr.is_null() {
            return;
        }
        if ptr as usize + PROBE > start {
            // SAFETY: `ptr` came from `alloc(layout)` just above.
            unsafe { dealloc(ptr, layout) };
            return;
        }
    }
}

/// Prepares `threads` glibc thread arenas, advised and pinned like the
/// main heap, for the shard threads a sharded run is about to start.
/// Runs after [`reserve`] (whose pad makes each new arena's heap
/// writable whole) and before any other thread exists; returns once the
/// helper threads have exited and left their arenas on glibc's free
/// list.
pub fn reserve_arenas(threads: usize) {
    // Each helper holds its arena until all have one: a helper that
    // exited first would hand its arena to the next.
    let ready = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                advise_arena();
                ready.wait();
            });
        }
    });
}

/// Advises the calling thread's arena heap `MADV_HUGEPAGE` past the
/// first probe, and pins the head below the first 2 MiB boundary.
fn advise_arena() {
    let layout = Layout::from_size_align(PROBE, 16).expect("probe layout is valid");
    // SAFETY: `layout` has a nonzero size. The first allocation on a new
    // thread makes glibc give it an arena.
    let first = unsafe { alloc(layout) };
    // SAFETY: `sbrk(0)` only reads the break.
    let brk = unsafe { sbrk(0) } as usize;
    // Below the break is the main heap: glibc made no thread arena
    // (the arena limit, or a failed mmap). Leave it as it is.
    if first.is_null() || (first as usize) < brk {
        return;
    }
    let base = first as usize & !(ARENA_HEAP - 1);
    let start = (first as usize + PROBE + HEADER).next_multiple_of(HUGE_PAGE);
    // SAFETY: `[start, base + ARENA_HEAP)` is whole pages of the heap
    // mapping that holds `first`, untouched so far; MADV_HUGEPAGE changes
    // how they are backed, not what they hold, and a failure leaves
    // 4 KB pages.
    unsafe {
        madvise(
            start as *mut c_void,
            base + ARENA_HEAP - start,
            MADV_HUGEPAGE,
        )
    };
    pin_below(start, layout);
}
