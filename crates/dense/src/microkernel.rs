//! The register-tiled inner kernels of the packed GEMM path, behind one
//! dispatch point.
//!
//! One call computes a single `mr × nr` tile of `C += A·B` from packed
//! panels (see [`crate::pack`] for the layout). One const-generic tile
//! body is compiled once per instruction set, with the tile shape that
//! fills that ISA's register file, and [`MicrokernelImpl`] names the
//! instantiations (the BLIS structure: one microkernel shape per ISA):
//!
//! * **`Avx512`** (x86_64 with AVX-512F+FMA, runtime-detected): a
//!   `12 × 8` tile on 512-bit `zmm` vectors — twelve accumulators, one
//!   packed-`B` load and twelve broadcast `vfmadd231pd` per `k` step.
//! * **`Avx2`** (x86_64 with AVX2+FMA, runtime-detected): a `6 × 8` tile
//!   on 256-bit `ymm` vectors — twelve accumulators, two `B` loads and
//!   six broadcasts feeding twelve `vfmadd231pd` per `k` step (the BLIS
//!   Haswell shape).
//! * **`Scalar`** (everything else, `cfg(miri)`, and the
//!   `CUBEMM_FORCE_SCALAR=1` override): the portable `4 × 8` tile.
//!
//! Pack, GEMM-driver, and ABFT code never name a lane width: they ask the
//! active impl for its `mr()`/`nr()` and call [`MicrokernelImpl::run`].
//!
//! # Bitwise contract
//!
//! Every instantiation computes every `C` element as the *same* float
//! sequence: one private accumulator per element, updated by a fused
//! multiply-add (single rounding) for `k` ascending, then one plain add
//! into `C` per `kc` block. `f64::mul_add` and `vfmadd` are both
//! correctly rounded, so for a fixed `kc` split the product is
//! **bit-for-bit identical** across `Scalar`/`Avx2`/`Avx512` and across
//! every tile shape and thread count (pinned by `tests/determinism.rs`).
//! On targets that lack a hardware FMA the scalar kernel falls back to
//! the (slower, still correctly rounded) libm `fma`, preserving the bits.

use std::sync::OnceLock;

/// Largest microkernel tile height any impl uses (panel-slice bound for
/// stack-allocated scratch in pack/microkernel internals).
pub const MAX_MR: usize = 12;
/// Largest microkernel tile width any impl uses.
pub const MAX_NR: usize = 8;

/// Tile height of the portable scalar microkernel.
pub const SCALAR_MR: usize = 4;
/// Tile width of the portable scalar microkernel.
pub const SCALAR_NR: usize = 8;

/// Tile height of the AVX2 microkernel.
pub const AVX2_MR: usize = 6;
/// Tile width of the AVX2 microkernel.
pub const AVX2_NR: usize = 8;

/// Tile height of the AVX-512 microkernel.
pub const AVX512_MR: usize = 12;
/// Tile width of the AVX-512 microkernel.
pub const AVX512_NR: usize = 8;

/// Which register-tiled inner kernel the packed GEMM runs.
///
/// The selection is a pure function of the host: [`MicrokernelImpl::active`]
/// caches the runtime-detected best kernel for the process. Code that
/// needs a *specific* impl (the forced-scalar determinism suite, the
/// per-impl bench rows) passes one of [`MicrokernelImpl::available`]
/// explicitly through [`crate::gemm::gemm_acc_with_microkernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicrokernelImpl {
    /// Portable `4 × 8` tile, `f64::mul_add` per element step.
    Scalar,
    /// `6 × 8` tile on `ymm` vectors (x86_64, AVX2+FMA).
    Avx2,
    /// `12 × 8` tile on `zmm` vectors (x86_64, AVX-512F+FMA).
    Avx512,
}

impl MicrokernelImpl {
    /// Every impl, narrowest ISA first.
    const ALL: [MicrokernelImpl; 3] = [
        MicrokernelImpl::Scalar,
        MicrokernelImpl::Avx2,
        MicrokernelImpl::Avx512,
    ];

    /// Whether this host can run `self` (`Scalar` always; the vector
    /// impls where their features are detected, never under Miri).
    pub fn runs_here(self) -> bool {
        match self {
            MicrokernelImpl::Scalar => true,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            MicrokernelImpl::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            MicrokernelImpl::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f") && MicrokernelImpl::Avx2.runs_here()
            }
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            _ => false,
        }
    }

    /// [`MicrokernelImpl::runs_here`], answered from the cached
    /// [`MicrokernelImpl::active`] on the per-call paths that almost
    /// always run the active impl.
    #[inline]
    pub(crate) fn is_active_or_runs_here(self) -> bool {
        self == MicrokernelImpl::active() || self.runs_here()
    }

    /// Every impl this host can run, narrowest ISA first: what tests and
    /// benches iterate so that no arm the host has goes unchecked.
    pub fn available() -> Vec<MicrokernelImpl> {
        Self::ALL.into_iter().filter(|mk| mk.runs_here()).collect()
    }

    /// Detects the best implementation the host can run: the widest of
    /// [`MicrokernelImpl::available`]. Ignores the `CUBEMM_FORCE_SCALAR`
    /// override; most callers want [`MicrokernelImpl::active`].
    pub fn detect() -> MicrokernelImpl {
        Self::ALL
            .into_iter()
            .rev()
            .find(|mk| mk.runs_here())
            .unwrap_or(MicrokernelImpl::Scalar)
    }

    /// The process-wide selected implementation: [`MicrokernelImpl::detect`]
    /// unless `CUBEMM_FORCE_SCALAR` is set to anything but `0`/empty
    /// (read once; the choice never changes within a process, which is
    /// what keeps repeated runs — ABFT reruns, serve fingerprints —
    /// bitwise stable).
    pub fn active() -> MicrokernelImpl {
        static ACTIVE: OnceLock<MicrokernelImpl> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if crate::force_scalar() {
                MicrokernelImpl::Scalar
            } else {
                MicrokernelImpl::detect()
            }
        })
    }

    /// Tile height (rows of `C` per register tile).
    #[inline]
    pub const fn mr(self) -> usize {
        match self {
            MicrokernelImpl::Scalar => SCALAR_MR,
            MicrokernelImpl::Avx2 => AVX2_MR,
            MicrokernelImpl::Avx512 => AVX512_MR,
        }
    }

    /// Tile width (columns of `C` per register tile).
    #[inline]
    pub const fn nr(self) -> usize {
        match self {
            MicrokernelImpl::Scalar => SCALAR_NR,
            MicrokernelImpl::Avx2 => AVX2_NR,
            MicrokernelImpl::Avx512 => AVX512_NR,
        }
    }

    /// Stable name, used by the tuning file to key persisted blocking
    /// parameters to the kernel they were measured with.
    pub const fn name(self) -> &'static str {
        match self {
            MicrokernelImpl::Scalar => "scalar-4x8",
            MicrokernelImpl::Avx2 => "avx2-6x8",
            MicrokernelImpl::Avx512 => "avx512-12x8",
        }
    }

    /// Computes `C[0..mr, 0..nr] += Ap · Bp` for one register tile.
    ///
    /// `ap` is one packed `self.mr()`-row panel and `bp` one packed
    /// `self.nr()`-column panel, both `kc` steps long
    /// (`ap.len() == kc * self.mr()`, `bp.len() == kc * self.nr()`);
    /// panels are zero-padded by the packers, so the full tile is
    /// computed and only the write-back is masked to the `mr × nr` live
    /// region.
    ///
    /// # Safety
    ///
    /// `c` must point at the tile's top-left element of a row-major
    /// matrix with row stride `ldc >= nr`, valid for reads and writes
    /// over the `mr` rows × `nr` columns footprint. Distinct tiles may
    /// be updated concurrently from several threads **only if their
    /// footprints are disjoint** (the packed driver gives every tile
    /// exactly one writer). A vector impl must only be run where
    /// [`MicrokernelImpl::runs_here`] holds.
    pub unsafe fn run(self, ap: &[f64], bp: &[f64], c: *mut f64, ldc: usize, mr: usize, nr: usize) {
        debug_assert_eq!(ap.len() % self.mr(), 0);
        debug_assert_eq!(bp.len() % self.nr(), 0);
        debug_assert_eq!(ap.len() / self.mr(), bp.len() / self.nr());
        debug_assert!(mr <= self.mr() && nr <= self.nr() && nr <= ldc);
        // SAFETY: forwarded caller contract: the footprint is valid, and
        // a vector impl runs only where its features were detected.
        unsafe {
            match self {
                MicrokernelImpl::Scalar => scalar_tile(ap, bp, c, ldc, mr, nr),
                MicrokernelImpl::Avx2 => tile_avx2::<AVX2_MR, AVX2_NR>(ap, bp, c, ldc, mr, nr),
                MicrokernelImpl::Avx512 => {
                    tile_avx512::<AVX512_MR, AVX512_NR>(ap, bp, c, ldc, mr, nr)
                }
            }
        }
    }

    /// Computes `C += A·B` for a whole small product straight from the
    /// row-major operands: no packing, no register tiles.
    ///
    /// `a` is `m × k`, `b` is `k × n` and `c` is `m × n`, all non-empty.
    /// Every `C` element is the float sequence of [`MicrokernelImpl::run`]
    /// over a single `kc` block: one private accumulator from `+0.0`, one
    /// fused multiply-add per `k` step in ascending order, then one add
    /// into `C`. So when `k` fits in one `kc` block the result is
    /// bit-for-bit the packed product's, whichever impl runs either.
    /// `self` only picks the instruction set the loop is compiled for.
    pub fn run_unpacked(self, c: &mut [f64], a: &[f64], b: &[f64], k: usize, n: usize) {
        debug_assert!(k > 0 && n > 0);
        debug_assert_eq!(a.len() / k, c.len() / n);
        debug_assert_eq!(b.len(), k * n);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            // `Avx512` runs the AVX2 build too: at these sizes the loop
            // is bound by its loads and edges, not its vector width.
            if self != MicrokernelImpl::Scalar && self.is_active_or_runs_here() {
                // SAFETY: AVX2 and FMA were just detected (`Avx512`
                // requires both).
                return unsafe { unpacked_avx2(c, a, b, k, n) };
            }
            if std::arch::is_x86_feature_detected!("fma") {
                // SAFETY: the fma feature was just detected.
                return unsafe { unpacked_fma(c, a, b, k, n) };
            }
        }
        unpacked_body(c, a, b, k, n);
    }
}

/// The [`MicrokernelImpl::run_unpacked`] loop: `C` in tiles of four rows
/// (then single rows) by 8, 4, 2 and 1 columns, each tile's accumulators
/// held in registers across the whole `k` loop.
#[inline(always)]
fn unpacked_body(c: &mut [f64], a: &[f64], b: &[f64], k: usize, n: usize) {
    let m = c.len() / n;
    let mut i = 0;
    while i + 4 <= m {
        unpacked_rows::<4>(c, a, b, k, n, i);
        i += 4;
    }
    while i < m {
        unpacked_rows::<1>(c, a, b, k, n, i);
        i += 1;
    }
}

/// Rows `i .. i + R` of `C`, across every column.
#[inline(always)]
fn unpacked_rows<const R: usize>(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    i: usize,
) {
    let mut j = 0;
    while j + 8 <= n {
        unpacked_tile::<R, 8>(c, a, b, k, n, i, j);
        j += 8;
    }
    if j + 4 <= n {
        unpacked_tile::<R, 4>(c, a, b, k, n, i, j);
        j += 4;
    }
    if j + 2 <= n {
        unpacked_tile::<R, 2>(c, a, b, k, n, i, j);
        j += 2;
    }
    if j < n {
        unpacked_tile::<R, 1>(c, a, b, k, n, i, j);
    }
}

/// `C[i.., j..] += A[i.., ..] · B[.., j..]` over an `R × W` tile, one
/// accumulator per element: the packed path's float sequence.
#[inline(always)]
fn unpacked_tile<const R: usize, const W: usize>(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut acc = [[0.0f64; W]; R];
    for l in 0..k {
        let bl = &b[l * n + j..l * n + j + W];
        for (accr, row) in acc.iter_mut().zip(&rows) {
            let al = row[l];
            for (s, &bv) in accr.iter_mut().zip(bl) {
                *s = al.mul_add(bv, *s);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let at = (i + r) * n + j;
        for (cv, &s) in c[at..at + W].iter_mut().zip(accr) {
            *cv += s;
        }
    }
}

/// The unpacked loop compiled for AVX2+FMA: the 8- and 4-wide strips
/// become `vfmadd` on `ymm` registers.
///
/// # Safety
/// The host must support the `avx2` and `fma` target features.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn unpacked_avx2(c: &mut [f64], a: &[f64], b: &[f64], k: usize, n: usize) {
    unpacked_body(c, a, b, k, n);
}

/// The unpacked loop with hardware FMA but no AVX2 — what the scalar
/// impl runs (bit-identical to the libm fallback).
///
/// # Safety
/// The host must support the `fma` target feature.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "fma")]
unsafe fn unpacked_fma(c: &mut [f64], a: &[f64], b: &[f64], k: usize, n: usize) {
    unpacked_body(c, a, b, k, n);
}

/// The one register-tile body every impl instantiates: `C[0..mr, 0..nr]
/// += Ap · Bp` over an `MR × NR` tile of private accumulators, held in
/// registers across the whole `k` loop.
///
/// Compiled for a vector ISA, each accumulator row becomes `NR / lanes`
/// vector registers and each row step one broadcast of `A` feeding one
/// `vfmadd` per register, with the `B` row loaded once per `k` step.
/// `MR × NR` is chosen per ISA so the accumulators fill the register
/// file without spilling. The plain index loops are deliberate: written
/// with zipped iterators, the `ymm` builds split a row across `xmm`
/// halves and spilled an accumulator (about 30 % slower).
///
/// # Safety
/// See [`MicrokernelImpl::run`].
#[inline(always)]
unsafe fn tile_body<const MR: usize, const NR: usize>(
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                // One fused multiply-add per element step: the single
                // rounding is what makes every instantiation agree bit
                // for bit, whatever its tile or lanes.
                acc[i][j] = ai.mul_add(bv[j], acc[i][j]);
            }
        }
    }
    for (i, row) in acc.iter().take(mr).enumerate() {
        // SAFETY: take(mr)/take(nr) clamp the walk to the mr × nr live
        // region of the caller-guaranteed footprint.
        let crow = unsafe { c.add(i * ldc) };
        for (j, &v) in row.iter().take(nr).enumerate() {
            // SAFETY: see above; j < nr <= ldc keeps the offset in row i.
            unsafe { *crow.add(j) += v };
        }
    }
}

/// The scalar tile: the FMA-compiled instantiation when the hardware has
/// one (so `mul_add` is a single instruction, not a libm call), the
/// portable build otherwise — bit-identical, both correctly rounded.
///
/// # Safety
/// See [`MicrokernelImpl::run`].
unsafe fn scalar_tile(ap: &[f64], bp: &[f64], c: *mut f64, ldc: usize, mr: usize, nr: usize) {
    // SAFETY: `tile_fma` runs only where fma was detected; tile contract
    // forwarded from the caller.
    unsafe {
        if has_fma() {
            tile_fma::<SCALAR_MR, SCALAR_NR>(ap, bp, c, ldc, mr, nr)
        } else {
            tile_body::<SCALAR_MR, SCALAR_NR>(ap, bp, c, ldc, mr, nr)
        }
    }
}

/// Whether the host has hardware FMA (never under Miri).
fn has_fma() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    return std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    false
}

/// Declares `$name`: [`tile_body`] compiled with the `$features` target
/// features on x86_64 (the portable build elsewhere and under Miri,
/// where no impl but `Scalar` ever runs).
///
/// # Safety (of each instantiation)
/// See [`MicrokernelImpl::run`]; on x86_64 the host must support
/// `$features`.
macro_rules! tile_for {
    ($name:ident, $features:literal) => {
        #[doc = concat!("[`tile_body`] under `", $features, "`; see [`tile_for`].")]
        #[cfg_attr(all(target_arch = "x86_64", not(miri)), target_feature(enable = $features))]
        unsafe fn $name<const MR: usize, const NR: usize>(
            ap: &[f64],
            bp: &[f64],
            c: *mut f64,
            ldc: usize,
            mr: usize,
            nr: usize,
        ) {
            // SAFETY: tile contract forwarded from the caller.
            unsafe { tile_body::<MR, NR>(ap, bp, c, ldc, mr, nr) }
        }
    };
}

// FMA brings 256-bit AVX along, so the scalar tile's rows vectorize
// too. The `6 × 8` `ymm` tile is twelve accumulators, two `B` loads and
// six broadcasts per `k` step; the `12 × 8` `zmm` tile twelve
// accumulators, one `B` load and twelve broadcast FMAs.
tile_for!(tile_fma, "fma");
tile_for!(tile_avx2, "avx2,fma");
tile_for!(tile_avx512, "avx512f,avx2,fma");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_a, pack_b, packed_a_len, packed_b_len};
    use crate::Matrix;

    fn impls() -> Vec<MicrokernelImpl> {
        let v = MicrokernelImpl::available();
        let skipped: Vec<_> = [
            MicrokernelImpl::Scalar,
            MicrokernelImpl::Avx2,
            MicrokernelImpl::Avx512,
        ]
        .into_iter()
        .filter(|mk| !v.contains(mk))
        .collect();
        eprintln!("microkernel arms compared: {v:?}; skipped, not on this host: {skipped:?}");
        v
    }

    #[test]
    fn full_tile_matches_scalar_product() {
        for mk in impls() {
            let (m, k, n) = (mk.mr(), 5, mk.nr());
            let a = Matrix::random(m, k, 7);
            let b = Matrix::random(k, n, 8);
            let mut ap = vec![0.0; packed_a_len(m, k, mk.mr())];
            let mut bp = vec![0.0; packed_b_len(k, n, mk.nr())];
            pack_a(&a, 0, 0, m, k, mk.mr(), &mut ap);
            pack_b(&b, 0, 0, k, n, mk.nr(), &mut bp);
            let mut c = Matrix::zeros(m, n);
            // SAFETY: `c` is m × n row-major with ldc = n; the full tile
            // fits, and `mk` came from detection.
            unsafe { mk.run(&ap, &bp, c.as_mut_slice().as_mut_ptr(), n, m, n) };
            let mut want = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    for l in 0..k {
                        want[(i, j)] += a[(i, l)] * b[(l, j)];
                    }
                }
            }
            assert!(c.max_abs_diff(&want) < 1e-12, "{mk:?}");
        }
    }

    #[test]
    fn masked_edge_tile_leaves_outside_untouched() {
        for mk in impls() {
            let (mr, nr, k) = (mk.mr() - 1, mk.nr() - 3, 4);
            let a = Matrix::random(mr, k, 1);
            let b = Matrix::random(k, nr, 2);
            let mut ap = vec![0.0; packed_a_len(mr, k, mk.mr())];
            let mut bp = vec![0.0; packed_b_len(k, nr, mk.nr())];
            pack_a(&a, 0, 0, mr, k, mk.mr(), &mut ap);
            pack_b(&b, 0, 0, k, nr, mk.nr(), &mut bp);
            // Embed the tile in a larger C and check the frame stays put.
            let ldc = mk.nr() + 3;
            let mut c = Matrix::from_fn(mk.mr() + 1, ldc, |_, _| 9.0);
            // SAFETY: `c` is (MR+1) × ldc row-major; the masked mr × nr
            // tile at its top-left corner is in bounds.
            unsafe { mk.run(&ap, &bp, c.as_mut_slice().as_mut_ptr(), ldc, mr, nr) };
            for i in 0..mr {
                for j in 0..nr {
                    let mut want = 9.0;
                    for l in 0..k {
                        want += a[(i, l)] * b[(l, j)];
                    }
                    assert!((c[(i, j)] - want).abs() < 1e-12, "{mk:?} ({i},{j})");
                }
            }
            assert_eq!(c[(mr, 0)], 9.0, "{mk:?}");
            assert_eq!(c[(0, nr)], 9.0, "{mk:?}");
        }
    }

    /// `C += A·B` for an `m × k · k × n` product through `mk`'s tiles
    /// alone: every `kc`-deep block packed whole, every tile run.
    fn tiles(mk: MicrokernelImpl, a: &Matrix, b: &Matrix, kc: usize) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let (mr, nr) = (mk.mr(), mk.nr());
        let mut c = Matrix::zeros(m, n);
        for pc in (0..k).step_by(kc) {
            let kcw = kc.min(k - pc);
            let mut ap = vec![0.0; packed_a_len(m, kcw, mr)];
            let mut bp = vec![0.0; packed_b_len(kcw, n, nr)];
            pack_a(a, 0, pc, m, kcw, mr, &mut ap);
            pack_b(b, pc, 0, kcw, n, nr, &mut bp);
            for ir in 0..m.div_ceil(mr) {
                for jr in 0..n.div_ceil(nr) {
                    // SAFETY: the tile's rows ir·mr .. and columns jr·nr ..
                    // are clamped to the m × n `C`; `mk` runs here.
                    unsafe {
                        mk.run(
                            &ap[ir * mr * kcw..(ir + 1) * mr * kcw],
                            &bp[jr * nr * kcw..(jr + 1) * nr * kcw],
                            c.as_mut_slice().as_mut_ptr().add(ir * mr * n + jr * nr),
                            n,
                            mr.min(m - ir * mr),
                            nr.min(n - jr * nr),
                        )
                    };
                }
            }
        }
        c
    }

    #[test]
    fn impls_agree_bitwise_on_ragged_tiles_and_kc_splits() {
        // The bitwise contract at the tile level: every arm the host
        // runs, on row counts that end a tile of each height raggedly,
        // ragged column counts, and a depth that crosses `kc` blocks.
        // Padding rows/columns of the wider tiles accumulate zeros and
        // are masked off, so the live region must match exactly.
        let arms = impls();
        for (m, k, n) in [
            (4, 23, 8),
            (13, 9, 11),
            (25, 40, 17),
            (12, 1, 8),
            (7, 33, 3),
        ] {
            let a = Matrix::random(m, k, 41 + m as u64);
            let b = Matrix::random(k, n, 42 + n as u64);
            for kc in [k, 16, 5] {
                let want = tiles(MicrokernelImpl::Scalar, &a, &b, kc);
                for &mk in &arms {
                    assert_eq!(tiles(mk, &a, &b, kc), want, "{mk:?} {m}x{k}x{n} kc={kc}");
                }
            }
        }
    }

    #[test]
    fn names_and_shapes_are_consistent() {
        assert_eq!(MicrokernelImpl::Scalar.name(), "scalar-4x8");
        assert_eq!(MicrokernelImpl::Avx2.name(), "avx2-6x8");
        assert_eq!(MicrokernelImpl::Avx512.name(), "avx512-12x8");
        assert_eq!(MicrokernelImpl::Scalar.mr(), 4);
        assert_eq!(MicrokernelImpl::Avx2.mr(), 6);
        assert_eq!(MicrokernelImpl::Avx512.mr(), 12);
        for mk in MicrokernelImpl::ALL {
            assert!(mk.mr() <= MAX_MR && mk.nr() <= MAX_NR);
        }
        // The host's arms: scalar first, the detected one last, and
        // active() stable across calls within a process.
        let arms = MicrokernelImpl::available();
        assert_eq!(arms.first(), Some(&MicrokernelImpl::Scalar));
        assert_eq!(arms.last(), Some(&MicrokernelImpl::detect()));
        assert!(arms.iter().all(|mk| mk.runs_here()));
        assert_eq!(MicrokernelImpl::active(), MicrokernelImpl::active());
    }
}
