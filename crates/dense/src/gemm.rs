//! Local dense multiplication kernels.
//!
//! All distributed algorithms bottom out in `C += A·B` on local blocks.
//! The paper's comparison concerns communication only, so the kernels
//! exist (a) to actually produce correct products in the simulator,
//! (b) to verify them against an independent loop ([`reference()`]), and
//! (c) — since the simulator's wall-clock really computes every block —
//! to make end-to-end runs as fast as the host allows. The fast path is
//! [`Kernel::Packed`]: a cache-blocked GEMM with panel packing
//! ([`crate::pack`]), a runtime-dispatched register-tiled microkernel
//! ([`crate::microkernel`] — AVX2+FMA `6×8` where the host has it,
//! portable `4×8` otherwise), blocking parameters resolved through the
//! tuning layer ([`crate::tune`]), and 2-D tiled parallelism over the
//! in-tree work-stealing pool ([`crate::pool`]).
//!
//! # Determinism contract
//!
//! The packed product is **bitwise identical across thread counts**:
//! every `C` element is accumulated by exactly one compute job, as one
//! FMA chain per `kc` block in ascending `k`, and `kc` blocks are
//! barrier-ordered — the schedule decides *who* computes a tile, never
//! *what* is computed. It is also bitwise identical across the
//! SIMD/scalar microkernels for a fixed `kc` split (both are
//! correctly-rounded FMA; see `microkernel.rs`). Changing `kc` changes
//! where the per-block accumulator is folded into `C` and therefore the
//! rounding — so reproducible deployments pin `kc` (or rely on the
//! shared untuned default). See DESIGN.md §9.

use std::sync::OnceLock;

use crate::microkernel::MicrokernelImpl;
use crate::pack::{pack_a, pack_a_panel, pack_b, pack_b_panel, packed_a_len, packed_b_len};
use crate::pool::{take_scratch, ThreadPool};
use crate::tune::{self, Blocking};
use crate::{Matrix, MatrixView};

/// Untuned cache-block height of `A` for the scalar microkernel
/// (`mc` rows per packed A block). Tuned hosts override via
/// `cubemm tune-kernel` (see [`crate::tune`]).
pub const DEFAULT_MC: usize = 64;
/// Untuned shared-dimension depth (`kc` steps per packed panel pair).
/// Shared by every microkernel so untuned runs are bitwise comparable
/// across hosts (`kc` is the one blocking parameter that affects bits).
pub const DEFAULT_KC: usize = 256;
/// Untuned cache-block width of `B`/`C` for the scalar microkernel.
pub const DEFAULT_NC: usize = 512;

/// Products with at most this many `m·k·n` flops-elements run the packed
/// path single-threaded even when more threads were requested: below
/// roughly `256³` the pool's dispatch + barrier costs more than the
/// parallelism recovers (BENCH_kernels.json showed 2 threads *losing*
/// to 1 at `n = 128` under the old always-dispatch driver).
pub const PAR_MIN_ELEMS: usize = 1 << 24;

/// Products with at most this many `m·k·n` flops-elements, and `k` within
/// one `kc` block, skip packing: the packed path runs one unpacked
/// register loop over the row-major operands instead
/// ([`MicrokernelImpl::run_unpacked`]), which computes the same float
/// sequence per element and so the same bits. `kernel_bench`'s `small`
/// sweep places it: the loop is 1.7–4× the packed path's speed from 4³ to
/// 40³ and still ahead at 64³; the line stops short of that so the 96³
/// blocks the packed kernel is tuned and measured on keep their path.
pub const SMALL_MAX_ELEMS: usize = 1 << 16;

/// Which local kernel to use: the packed fast path the algorithms
/// multiply with, or the blocked loop [`reference()`] verifies with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Cache-tiled `ikj` over `B` tiles `tile` deep and about `4·tile`
    /// wide, swept by 4 × 8 register tiles of `C` — unpacked and
    /// FMA-free: the independent path [`reference()`] verifies against.
    /// The tile size never changes the bits.
    Blocked(usize),
    /// Panel-packed, register-tiled GEMM (the fast path; the default).
    ///
    /// `mc`/`kc`/`nc` are the cache-block sizes (`0` resolves through
    /// the tuning layer: a host-tuned file written by
    /// `cubemm tune-kernel` when present, per-microkernel static
    /// defaults otherwise); `threads` caps the 2-D tile parallelism
    /// (`0` uses every hardware thread, `1` stays sequential; products
    /// at or below [`PAR_MIN_ELEMS`] run sequentially regardless). The
    /// product is bit-for-bit identical across `threads` values: each
    /// `C` element is accumulated by exactly one tile job in a fixed
    /// `kc`-block order.
    Packed {
        /// Rows of `A` per packed block (`0` = tuned/default).
        mc: usize,
        /// Depth of each packed panel pair (`0` = tuned/default).
        kc: usize,
        /// Columns of `B` per macro panel (`0` = tuned/default).
        nc: usize,
        /// Worker threads for the tile loop (`0` = all cores).
        threads: usize,
    },
}

impl Kernel {
    /// The packed kernel with tuned default tiles, single-threaded —
    /// the right choice inside the simulator: its blocks are small, and
    /// the host reference ([`alongside_reference`]) already takes a
    /// second thread once the product pays for one.
    pub const fn packed() -> Kernel {
        Kernel::Packed {
            mc: 0,
            kc: 0,
            nc: 0,
            threads: 1,
        }
    }

    /// The packed kernel with tuned default tiles and an explicit
    /// macro-loop thread count (`0` = all cores).
    pub const fn packed_mt(threads: usize) -> Kernel {
        Kernel::Packed {
            mc: 0,
            kc: 0,
            nc: 0,
            threads,
        }
    }
}

impl Default for Kernel {
    /// The packed single-threaded kernel.
    fn default() -> Self {
        Kernel::packed()
    }
}

impl std::str::FromStr for Kernel {
    type Err = String;

    /// Parses `blocked[:TILE] | packed[:THREADS]`: bare `blocked` is the
    /// reference's `Blocked(64)`, `packed:0` sizes the thread count to
    /// the host. The error names the spec; callers prefix their own flag
    /// or field name.
    fn from_str(s: &str) -> Result<Kernel, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let num = |a: &str| {
            a.parse::<usize>()
                .map_err(|_| format!("{s:?}: invalid number {a:?}"))
        };
        match (name, arg) {
            ("blocked", None) => Ok(Kernel::Blocked(64)),
            ("blocked", Some(a)) => match num(a)? {
                0 => Err(format!("{s:?}: tile must be positive")),
                tile => Ok(Kernel::Blocked(tile)),
            },
            ("packed", None) => Ok(Kernel::packed()),
            ("packed", Some(a)) => Ok(Kernel::packed_mt(num(a)?)),
            _ => Err(format!(
                "{s:?}: unknown kernel (use blocked[:TILE]|packed[:THREADS])"
            )),
        }
    }
}

/// `C += A·B` with the chosen kernel.
///
/// `A` and `B` are read through [`MatrixView`]s: pass `&Matrix` as
/// before, or a view of any row-major slice (a received payload, a run
/// of rows of a larger matrix) to multiply it where it lies. The bits
/// depend on the operands' values only, never on where they live.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_acc<'a, 'b>(
    c: &mut Matrix,
    a: impl Into<MatrixView<'a>>,
    b: impl Into<MatrixView<'b>>,
    kernel: Kernel,
) {
    gemm_acc_with_microkernel(c, a, b, kernel, MicrokernelImpl::active());
}

/// [`gemm_acc`] with an explicit microkernel implementation for the
/// packed path (other kernels ignore it). This is how the forced-scalar
/// determinism suite and the `packed-scalar`/`packed-simd` bench rows
/// pin a specific impl; ordinary callers use [`gemm_acc`], which runs
/// the host-detected best kernel.
///
/// # Panics
/// Panics on dimension mismatch, and if an `Avx2` impl is passed on a
/// host without AVX2+FMA.
pub fn gemm_acc_with_microkernel<'a, 'b>(
    c: &mut Matrix,
    a: impl Into<MatrixView<'a>>,
    b: impl Into<MatrixView<'b>>,
    kernel: Kernel,
    mk: MicrokernelImpl,
) {
    let (a, b) = (a.into(), b.into());
    assert_conformable(c, a, b);
    if mk == MicrokernelImpl::Avx2 {
        assert_eq!(
            MicrokernelImpl::detect(),
            MicrokernelImpl::Avx2,
            "AVX2 microkernel requested on a host without AVX2+FMA"
        );
    }
    match kernel {
        Kernel::Blocked(tile) => blocked(c, a, b, tile, ReferenceIsa::active()),
        Kernel::Packed {
            mc,
            kc,
            nc,
            threads,
        } => packed(c, a, b, mc, kc, nc, threads, mk),
    }
}

fn assert_conformable(c: &Matrix, a: MatrixView<'_>, b: MatrixView<'_>) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "C row mismatch");
    assert_eq!(c.cols(), b.cols(), "C col mismatch");
}

/// `A·B` into a fresh matrix with the default kernel.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_acc(&mut c, a, b, Kernel::default());
    c
}

/// Sequential reference product used to verify every distributed run.
///
/// Deliberately a *different* code path from the packed default the
/// algorithms run with — the unpacked, non-FMA [`Kernel::Blocked`] loop,
/// sharing nothing with `pack.rs`/`microkernel.rs`/`tune.rs` — so
/// verification exercises two independent implementations. Every
/// `C[i][j]` is `c += a·b` for ascending `l`, each product and sum
/// separately rounded, whatever the tile size or instruction set (the
/// contract pinned by `tests/reference.rs`; DESIGN.md §9).
pub fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_acc(&mut c, a, b, Kernel::Blocked(64));
    c
}

/// Whether [`alongside_reference`] computes `reference(a, b)` on a
/// thread of its own: above [`PAR_MIN_ELEMS`].
pub fn reference_takes_thread(a: &Matrix, b: &Matrix) -> bool {
    a.rows().saturating_mul(a.cols()).saturating_mul(b.cols()) > PAR_MIN_ELEMS
}

/// Runs `work` and computes [`reference()`]`(a, b)`, overlapping the two
/// when the product is big enough to pay for a thread.
///
/// Above [`PAR_MIN_ELEMS`] (an input property — the same line the packed
/// driver draws before it fans out) the reference runs on a scoped
/// thread while `work` runs on the caller; at or below it both run in
/// sequence on the caller with no thread traffic. The scope joins the
/// reference thread before this returns or unwinds, so `work` may fail
/// or panic freely. A panic inside the reference comes back as
/// `Err(message)` on either path, for the caller to report as a typed
/// verification failure.
pub fn alongside_reference<R>(
    a: &Matrix,
    b: &Matrix,
    work: impl FnOnce() -> R,
) -> (R, Result<Matrix, String>) {
    let (out, reference) = if reference_takes_thread(a, b) {
        std::thread::scope(|s| {
            let handle = s.spawn(|| reference(a, b));
            (work(), handle.join())
        })
    } else {
        let out = work();
        let reference = std::panic::catch_unwind(|| reference(a, b));
        (out, reference)
    };
    let reference = reference.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        format!("host reference panicked: {msg}")
    });
    (out, reference)
}

/// Which compiled instantiation of the [`Kernel::Blocked`] loop runs.
///
/// One `#[inline(always)]` body is compiled twice — for the baseline
/// target and under `#[target_feature(enable = "avx2")]` (wider
/// vectors, still no FMA) — so the two differ in speed only, never in
/// bits. Ordinary callers get [`ReferenceIsa::active`] through
/// [`gemm_acc`]/[`reference()`]; the equivalence suite and the kernel
/// bench pin one with [`blocked_acc_with_isa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceIsa {
    /// The build target's baseline instruction set.
    Baseline,
    /// 256-bit AVX2 vectors (x86_64, runtime-detected).
    Avx2,
}

impl ReferenceIsa {
    /// The best instantiation the host can run, ignoring the
    /// `CUBEMM_FORCE_SCALAR` override.
    pub fn detect() -> ReferenceIsa {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return ReferenceIsa::Avx2;
            }
        }
        ReferenceIsa::Baseline
    }

    /// The process-wide selection: [`ReferenceIsa::detect`] unless
    /// `CUBEMM_FORCE_SCALAR` pins the baseline (read once).
    pub fn active() -> ReferenceIsa {
        static ACTIVE: OnceLock<ReferenceIsa> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if crate::force_scalar() {
                ReferenceIsa::Baseline
            } else {
                ReferenceIsa::detect()
            }
        })
    }

    /// Stable name for bench output.
    pub const fn name(self) -> &'static str {
        match self {
            ReferenceIsa::Baseline => "baseline",
            ReferenceIsa::Avx2 => "avx2",
        }
    }
}

/// `C += A·B` through the [`Kernel::Blocked`] loop on an explicit
/// instantiation (see [`ReferenceIsa`]).
///
/// # Panics
/// Panics on dimension mismatch, and if `Avx2` is passed on a host
/// without AVX2.
pub fn blocked_acc_with_isa<'a, 'b>(
    c: &mut Matrix,
    a: impl Into<MatrixView<'a>>,
    b: impl Into<MatrixView<'b>>,
    tile: usize,
    isa: ReferenceIsa,
) {
    let (a, b) = (a.into(), b.into());
    assert_conformable(c, a, b);
    blocked(c, a, b, tile, isa);
}

fn blocked(c: &mut Matrix, a: MatrixView<'_>, b: MatrixView<'_>, tile: usize, isa: ReferenceIsa) {
    let (k, n) = (a.cols(), b.cols());
    if a.rows() == 0 || k == 0 || n == 0 {
        return;
    }
    // `tile` is the depth of a `B` tile; its width is four times that,
    // rounded up to whole register strips (64 × 256 doubles = 128 KiB
    // at the reference's `Blocked(64)`). Both saturate: a huge tile is
    // just one tile.
    let lt = tile.max(1);
    let jt = lt.div_ceil(2).saturating_mul(STRIP);
    let (c, a, b) = (c.as_mut_slice(), a.as_slice(), b.as_slice());
    match isa {
        ReferenceIsa::Baseline => blocked_body(c, a, b, k, n, lt, jt),
        ReferenceIsa::Avx2 => {
            assert_eq!(
                ReferenceIsa::detect(),
                ReferenceIsa::Avx2,
                "AVX2 reference kernel requested on a host without AVX2"
            );
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            // SAFETY: AVX2 support was just checked at runtime.
            unsafe {
                blocked_avx2(c, a, b, k, n, lt, jt)
            }
        }
    }
}

/// # Safety
/// The host must support AVX2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn blocked_avx2(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    lt: usize,
    jt: usize,
) {
    blocked_body(c, a, b, k, n, lt, jt);
}

/// Columns of the [`Kernel::Blocked`] register tile: one cache line of
/// a `B` row, two AVX2 vectors.
const STRIP: usize = 8;

/// The [`Kernel::Blocked`] loop: `jt`-column × `lt`-deep tiles of `B`
/// (L2-resident), swept by four rows of `C` at a time, and those rows by
/// 4 × [`STRIP`] register tiles ([`register_tile`]); the columns left
/// over at the right edge of a tile, and the rows left over at the
/// bottom, take the plain row sweep ([`row_sweep`]). Unpacked and
/// FMA-free on purpose; see [`reference()`]. `k`/`n` are the row strides
/// of `a` and of `b`/`c`, all non-empty.
#[inline(always)]
fn blocked_body(c: &mut [f64], a: &[f64], b: &[f64], k: usize, n: usize, lt: usize, jt: usize) {
    // Shift the column grid so every full strip starts on a cache-line
    // boundary of `B`'s first row (of every row when `n % 8 == 0`), so
    // the inner loop's one load per `l` is one line, not two. An
    // allocator only promises 16 bytes; at n = 768 the shift is worth
    // ~10 % of the loop (DESIGN.md §9).
    let lead = b.as_ptr().align_offset(64).min(n);
    let mut j0 = 0;
    while j0 < n {
        let j1 = if j0 < lead {
            lead
        } else {
            j0.saturating_add(jt).min(n)
        };
        // End of the whole strips in `j0..j1`.
        let js = j1 - (j1 - j0) % STRIP;
        let mut l0 = 0;
        while l0 < k {
            let l1 = l0.saturating_add(lt).min(k);
            for (quad, arows) in c.chunks_mut(4 * n).zip(a.chunks(4 * k)) {
                if quad.len() < 4 * n {
                    row_sweep(quad, arows, b, k, n, (l0, l1), (j0, j1));
                    continue;
                }
                for j in (j0..js).step_by(STRIP) {
                    register_tile(quad, arows, b, k, n, (l0, l1), j);
                }
                if js < j1 {
                    row_sweep(quad, arows, b, k, n, (l0, l1), (js, j1));
                }
            }
            l0 = l1;
        }
        j0 = j1;
    }
}

/// `C[i][j..j + STRIP] += A[i][l]·B[l][j..j + STRIP]` for the four rows
/// `i` of `quad` and ascending `l` in `l0..l1`. The 4 × [`STRIP`] block
/// of `C` stays in locals (registers, under AVX2) from the first `l` to
/// the last, and each `B` row segment is loaded once for all four rows.
/// Each element still sees `c = c + a·b`, rounded twice per `l`.
#[inline(always)]
fn register_tile(
    quad: &mut [f64],
    arows: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    (l0, l1): (usize, usize),
    j: usize,
) {
    let mut t = [[0.0; STRIP]; 4];
    for (r, tr) in t.iter_mut().enumerate() {
        tr.copy_from_slice(&quad[r * n + j..][..STRIP]);
    }
    let arow = |r: usize| &arows[r * k + l0..r * k + l1];
    let brows = b[l0 * n..l1 * n].chunks_exact(n);
    for ((((brow, &a0), &a1), &a2), &a3) in
        brows.zip(arow(0)).zip(arow(1)).zip(arow(2)).zip(arow(3))
    {
        let brow = &brow[j..j + STRIP];
        for (tr, av) in t.iter_mut().zip([a0, a1, a2, a3]) {
            for (tv, bv) in tr.iter_mut().zip(brow) {
                *tv += av * bv;
            }
        }
    }
    for (r, tr) in t.iter().enumerate() {
        quad[r * n + j..][..STRIP].copy_from_slice(tr);
    }
}

/// `C[i][j0..j1] += A[i][l]·B[l][j0..j1]` for the rows `i` of `quad`
/// (four at a time when it has four, else one by one) and ascending `l`
/// in `l0..l1`, updating `C` in memory: the edges the register tile
/// does not cover.
#[inline(always)]
fn row_sweep(
    quad: &mut [f64],
    arows: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    (l0, l1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    let brows = || b[l0 * n..l1 * n].chunks_exact(n).map(|row| &row[j0..j1]);
    if quad.len() < 4 * n {
        // Ragged bottom edge: fewer than four rows left.
        for (crow, arow) in quad.chunks_exact_mut(n).zip(arows.chunks_exact(k)) {
            let crow = &mut crow[j0..j1];
            for (&a0, brow) in arow[l0..l1].iter().zip(brows()) {
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += a0 * bv;
                }
            }
        }
        return;
    }
    let (c0, rest) = quad.split_at_mut(n);
    let (c1, rest) = rest.split_at_mut(n);
    let (c2, c3) = rest.split_at_mut(n);
    let (c0, c1, c2, c3) = (
        &mut c0[j0..j1],
        &mut c1[j0..j1],
        &mut c2[j0..j1],
        &mut c3[j0..j1],
    );
    let (a0, a1, a2, a3) = (
        &arows[l0..l1],
        &arows[k + l0..k + l1],
        &arows[2 * k + l0..2 * k + l1],
        &arows[3 * k + l0..3 * k + l1],
    );
    for (l, brow) in brows().enumerate() {
        let (a0, a1, a2, a3) = (a0[l], a1[l], a2[l], a3[l]);
        for (j, &bv) in brow.iter().enumerate() {
            c0[j] += a0 * bv;
            c1[j] += a1 * bv;
            c2[j] += a2 * bv;
            c3[j] += a3 * bv;
        }
    }
}

/// Shared `*mut f64` for the tile/pack jobs. Each job's writes stay
/// inside its own disjoint region (microtiles of `C`, or panels of a
/// packing buffer), so concurrent jobs never touch the same element.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: jobs write disjoint regions (guaranteed by the drivers' tile/
// panel arithmetic); the pointer itself is plain data.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the bare `*mut f64` — edition-2021 disjoint
    /// capture would otherwise grab the non-`Sync` field itself.
    #[inline]
    fn get(self) -> *mut f64 {
        self.0
    }
}

/// The packed driver: BLIS-style five-loop blocking.
///
/// ```text
/// for jc in 0..n step nc        // column panels
///   for pc in 0..k step kc      //   pack B[pc.., jc..] → Bp (parallel: per NR panel)
///     (parallel: pack A[0..m, pc..] → Ap, per MR panel)
///     for (ic, jr) 2-D tile jobs // work-stolen across threads
///       for ir (register tiles)
///         microkernel: C[ic+ir·MR.., jc+jr·NR..] += Ap·Bp
/// ```
///
/// Serial (`threads <= 1` or small products) takes the classic
/// `ic`-blocked path instead, which packs each `mc × kc` block of `A`
/// just before using it. Both orders accumulate every `C` element
/// identically (see the module docs), so the choice is invisible in
/// the bits.
#[allow(clippy::too_many_arguments, reason = "internal driver fan-in")]
fn packed(
    c: &mut Matrix,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    mc: usize,
    kc: usize,
    nc: usize,
    threads: usize,
    mk: MicrokernelImpl,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let bl = tune::resolve(mc, kc, nc, mk);
    let work = m.saturating_mul(k).saturating_mul(n);
    if k <= bl.kc && work <= SMALL_MAX_ELEMS {
        mk.run_unpacked(c.as_mut_slice(), a.as_slice(), b.as_slice(), k, n);
        return;
    }
    let threads = if threads == 0 {
        ThreadPool::global().parallelism()
    } else {
        threads
    };
    if threads <= 1 || work <= PAR_MIN_ELEMS {
        packed_serial(c, a, b, &bl, mk);
    } else {
        packed_parallel(c, a, b, &bl, threads, mk);
    }
}

/// Single-threaded packed path: no pool dispatch, no barriers, `A`
/// blocks packed on first use so the working set is one `mc × kc` block
/// plus one `B` panel.
fn packed_serial(
    c: &mut Matrix,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    bl: &Blocking,
    mk: MicrokernelImpl,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mr, nr) = (mk.mr(), mk.nr());
    let ldc = n;
    let cp = c.as_mut_slice().as_mut_ptr();
    for jc in (0..n).step_by(bl.nc) {
        let ncw = bl.nc.min(n - jc);
        let npan = ncw.div_ceil(nr);
        for pc in (0..k).step_by(bl.kc) {
            let kcw = bl.kc.min(k - pc);
            let mut bbuf = take_scratch(packed_b_len(kcw, ncw, nr));
            pack_b(b, pc, jc, kcw, ncw, nr, bbuf.as_mut_slice());
            for ic in (0..m).step_by(bl.mc) {
                let mcw = bl.mc.min(m - ic);
                let mpan = mcw.div_ceil(mr);
                let mut abuf = take_scratch(packed_a_len(mcw, kcw, mr));
                pack_a(a, ic, pc, mcw, kcw, mr, abuf.as_mut_slice());
                for jr in 0..npan {
                    let nrw = nr.min(ncw - jr * nr);
                    let bp = &bbuf.as_slice()[jr * nr * kcw..(jr + 1) * nr * kcw];
                    for ir in 0..mpan {
                        let mrw = mr.min(mcw - ir * mr);
                        let ap = &abuf.as_slice()[ir * mr * kcw..(ir + 1) * mr * kcw];
                        // SAFETY: the tile spans rows ic+ir·mr .. +mrw
                        // and columns jc+jr·nr .. +nrw, all inside the
                        // m × ldc bounds of `C`; single-threaded, so no
                        // concurrent writers at all.
                        unsafe {
                            let tile = cp.add((ic + ir * mr) * ldc + jc + jr * nr);
                            mk.run(ap, bp, tile, ldc, mrw, nrw);
                        }
                    }
                }
            }
        }
    }
}

/// Parallel packed path. Per `(jc, pc)` macro-iteration the pool runs
/// two phases:
///
/// 1. **Pack** — every `mr`-row panel of the `A` k-slab and every
///    `nr`-column panel of the `B` block is one job writing one
///    disjoint slice of the shared packing buffers.
/// 2. **Compute** — jobs are `(mc-row-block × nr-column-panel)` 2-D
///    tiles of `C`, claimed dynamically (work stealing); consecutive
///    job indices share the same packed `A` block, so a thread's stolen
///    neighborhood stays cache-warm. Each `mr × nr` microtile has
///    exactly one writer, which is the whole determinism argument:
///    scheduling decides who computes a tile, never what is computed.
fn packed_parallel(
    c: &mut Matrix,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    bl: &Blocking,
    threads: usize,
    mk: MicrokernelImpl,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mr, nr) = (mk.mr(), mk.nr());
    let ldc = n;
    let pool = ThreadPool::global();
    let cp = SendPtr(c.as_mut_slice().as_mut_ptr());
    let apan = m.div_ceil(mr);
    let nblocks = m.div_ceil(bl.mc);
    for jc in (0..n).step_by(bl.nc) {
        let ncw = bl.nc.min(n - jc);
        let npan = ncw.div_ceil(nr);
        for pc in (0..k).step_by(bl.kc) {
            let kcw = bl.kc.min(k - pc);
            let mut abuf = take_scratch(apan * mr * kcw);
            let mut bbuf = take_scratch(npan * nr * kcw);
            let ap = SendPtr(abuf.as_mut_slice().as_mut_ptr());
            let bp = SendPtr(bbuf.as_mut_slice().as_mut_ptr());
            // Phase 1: pack every panel of this k-slab (A) and block
            // (B); jobs 0..apan are A panels, the rest B panels.
            pool.run(threads, apan + npan, &move |job| {
                if job < apan {
                    let row0 = job * mr;
                    let live = mr.min(m - row0);
                    // SAFETY: job < apan owns exactly the A slice
                    // [job·mr·kcw, (job+1)·mr·kcw) — in bounds of the
                    // apan·mr·kcw buffer and disjoint from every other
                    // job's slice; the buffer outlives the pool call.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(ap.get().add(job * mr * kcw), mr * kcw)
                    };
                    pack_a_panel(a, row0, pc, live, kcw, mr, dst);
                } else {
                    let p = job - apan;
                    let col0 = p * nr;
                    let live = nr.min(ncw - col0);
                    // SAFETY: as above for the B slice of panel p.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(bp.get().add(p * nr * kcw), nr * kcw)
                    };
                    pack_b_panel(b, pc, jc + col0, live, kcw, nr, dst);
                }
            });
            // Phase 2: 2-D tile jobs over (row block, column panel).
            // pool.run's completion barrier orders every pack write
            // before any compute read.
            pool.run(threads, nblocks * npan, &move |job| {
                let ic = (job / npan) * bl.mc;
                let jr = job % npan;
                let mcw = bl.mc.min(m - ic);
                let nrw = nr.min(ncw - jr * nr);
                // SAFETY: shared re-borrow of the fully packed,
                // no-longer-written B panel jr (pack phase completed
                // under the pool barrier above).
                let bpan = unsafe {
                    std::slice::from_raw_parts(bp.get().add(jr * nr * kcw).cast_const(), nr * kcw)
                };
                for ir in 0..mcw.div_ceil(mr) {
                    // mc is a multiple of mr (tune::resolve), so block
                    // boundaries align with packed A panel boundaries.
                    let row0 = ic + ir * mr;
                    let mrw = mr.min(m - row0);
                    // SAFETY: shared re-borrow of packed A panel
                    // row0/mr, same argument as the B panel.
                    let apanel = unsafe {
                        std::slice::from_raw_parts(
                            ap.get().add((row0 / mr) * mr * kcw).cast_const(),
                            mr * kcw,
                        )
                    };
                    // SAFETY: the tile spans rows row0 .. +mrw and
                    // columns jc+jr·nr .. +nrw, inside the m × ldc
                    // bounds of `C`; this (job, ir) pair is the tile's
                    // only writer (jobs partition the (block, panel)
                    // grid and ir walks disjoint row panels).
                    unsafe {
                        let tile = cp.get().add(row0 * ldc + jc + jr * nr);
                        mk.run(apanel, bpan, tile, ldc, mrw, nrw);
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<Kernel> {
        vec![
            Kernel::Blocked(4),
            Kernel::Blocked(64),
            Kernel::packed(),
            Kernel::packed_mt(2),
            Kernel::Packed {
                mc: 8,
                kc: 3,
                nc: 16,
                threads: 1,
            },
        ]
    }

    fn impls() -> Vec<MicrokernelImpl> {
        let mut v = vec![MicrokernelImpl::Scalar];
        if MicrokernelImpl::detect() == MicrokernelImpl::Avx2 {
            v.push(MicrokernelImpl::Avx2);
        }
        v
    }

    /// The unblocked `ijk` triple loop: the oracle the kernels are
    /// checked against.
    fn triple_loop(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|l| a[(i, l)] * b[(l, j)]).sum()
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::random(9, 9, 3);
        let i = Matrix::identity(9);
        for k in kernels() {
            let mut c = Matrix::zeros(9, 9);
            gemm_acc(&mut c, &a, &i, k);
            assert!(c.max_abs_diff(&a) < 1e-12, "kernel {k:?}");
        }
    }

    #[test]
    fn kernels_agree_on_rectangular_shapes() {
        let a = Matrix::random(7, 13, 1);
        let b = Matrix::random(13, 5, 2);
        let base = triple_loop(&a, &b);
        for k in kernels() {
            for mk in impls() {
                let mut c = Matrix::zeros(7, 5);
                gemm_acc_with_microkernel(&mut c, &a, &b, k, mk);
                assert!(c.max_abs_diff(&base) < 1e-10, "kernel {k:?} impl {mk:?}");
            }
        }
    }

    #[test]
    fn gemm_accumulates_rather_than_overwrites() {
        for k in [Kernel::Blocked(4), Kernel::packed()] {
            let a = Matrix::identity(3);
            let b = Matrix::identity(3);
            let mut c = Matrix::from_fn(3, 3, |_, _| 1.0);
            gemm_acc(&mut c, &a, &b, k);
            assert_eq!(c[(0, 0)], 2.0, "kernel {k:?}");
            assert_eq!(c[(0, 1)], 1.0, "kernel {k:?}");
        }
    }

    #[test]
    fn known_small_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn packed_is_bitwise_stable_across_thread_counts() {
        // Small products take the single-threaded fast path whatever
        // `threads` says, so this exercises the *request* surface; the
        // parallel driver itself is pinned by the direct tests below
        // and the above-threshold suite in tests/determinism.rs.
        let a = Matrix::random(37, 23, 11);
        let b = Matrix::random(23, 61, 12);
        let mut base = Matrix::zeros(37, 61);
        gemm_acc(
            &mut base,
            &a,
            &b,
            Kernel::Packed {
                mc: 16,
                kc: 8,
                nc: 16,
                threads: 1,
            },
        );
        for threads in [2usize, 3, 4, 8] {
            let mut c = Matrix::zeros(37, 61);
            gemm_acc(
                &mut c,
                &a,
                &b,
                Kernel::Packed {
                    mc: 16,
                    kc: 8,
                    nc: 16,
                    threads,
                },
            );
            assert_eq!(c, base, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_driver_matches_serial_bitwise() {
        // Call the parallel driver directly (bypassing the small-job
        // fast path) on shapes that span several blocks and panels in
        // both dimensions, including ragged edges. Runs under miri too
        // — this is the cheapest full exercise of the SendPtr sharing.
        for mk in impls() {
            for (m, k, n) in [(37, 23, 61), (64, 16, 40), (13, 9, 90), (70, 70, 70)] {
                let a = Matrix::random(m, k, 7 + m as u64);
                let b = Matrix::random(k, n, 8 + n as u64);
                let bl = Blocking {
                    mc: 24usize.next_multiple_of(mk.mr()),
                    kc: 16,
                    nc: 32usize.next_multiple_of(mk.nr()),
                };
                let mut want = Matrix::zeros(m, n);
                packed_serial(&mut want, a.view(), b.view(), &bl, mk);
                for threads in [2usize, 4] {
                    let mut got = Matrix::zeros(m, n);
                    packed_parallel(&mut got, a.view(), b.view(), &bl, threads, mk);
                    assert_eq!(got, want, "{mk:?} {m}x{k}x{n} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn microkernel_impls_agree_bitwise_at_shared_kc() {
        // The cross-impl half of the determinism contract: same kc ⇒
        // same bits, whatever the tile shape. mc/nc deliberately differ
        // between the two runs to show they are bitwise-neutral.
        if MicrokernelImpl::detect() != MicrokernelImpl::Avx2 {
            return;
        }
        let (m, k, n) = (45, 33, 52);
        let a = Matrix::random(m, k, 91);
        let b = Matrix::random(k, n, 92);
        let mut scalar = Matrix::zeros(m, n);
        gemm_acc_with_microkernel(
            &mut scalar,
            &a,
            &b,
            Kernel::Packed {
                mc: 16,
                kc: 8,
                nc: 24,
                threads: 1,
            },
            MicrokernelImpl::Scalar,
        );
        let mut simd = Matrix::zeros(m, n);
        gemm_acc_with_microkernel(
            &mut simd,
            &a,
            &b,
            Kernel::Packed {
                mc: 30,
                kc: 8,
                nc: 40,
                threads: 2,
            },
            MicrokernelImpl::Avx2,
        );
        assert_eq!(scalar, simd);
    }

    #[test]
    fn packed_handles_degenerate_shapes() {
        for (m, k, n) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (1, 1, 1), (1, 9, 1)] {
            let a = Matrix::random(m, k, 1);
            let b = Matrix::random(k, n, 2);
            let want = triple_loop(&a, &b);
            let mut got = Matrix::zeros(m, n);
            gemm_acc(&mut got, &a, &b, Kernel::packed());
            assert!(got.max_abs_diff(&want) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn default_kernel_is_packed_single_threaded() {
        assert_eq!(Kernel::default(), Kernel::packed());
        assert!(matches!(
            Kernel::default(),
            Kernel::Packed { threads: 1, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
