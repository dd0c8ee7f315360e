//! Panel packing for the blocked GEMM path.
//!
//! The packed kernel (see [`crate::gemm`]) never reads `A` or `B`
//! directly in its inner loops. Each `mc × kc` block of `A` and
//! `kc × nc` block of `B` is first copied into a contiguous scratch
//! buffer laid out exactly in the order the microkernel consumes it,
//! where `mr × nr` is the register-tile shape of the *active*
//! microkernel ([`crate::microkernel::MicrokernelImpl`] — the packers
//! take the lane widths as parameters so the same code serves the
//! scalar `4×8`, the AVX2 `6×8` and the AVX-512 `12×8` tiles):
//!
//! ```text
//! A block (mc × kc)  →  ⌈mc/mr⌉ row panels, each kc steps of mr values:
//!     ap[panel][l*mr + i] = A[ic + panel*mr + i][pc + l]
//! B block (kc × nc)  →  ⌈nc/nr⌉ column panels, each kc steps of nr values:
//!     bp[panel][l*nr + j] = B[pc + l][jc + panel*nr + j]
//! ```
//!
//! Ragged edges are **zero-padded** to full `mr`/`nr` width, so the
//! microkernel always executes a full register tile and only the
//! write-back is masked. Every element of the destination slice is
//! written (padding included), which is what lets the scratch buffers
//! from [`crate::pool::take_scratch`] carry unspecified contents.
//!
//! Alignment: panels are stored at `f64` (8-byte) granularity and the
//! vector tiles read them with unaligned loads, so a panel stride of
//! `nr·kc` keeps successive `k` steps on one or two cache lines. The
//! `12×8` `zmm` tile's one 64-byte `B` load per `k` step splits a line
//! unless the buffer starts on one; leasing 64-byte-aligned scratch
//! was tried and moved `run_compute` by nothing measurable (four
//! alternating pairs, two each way), so buffers keep the allocator's
//! alignment.
//!
//! [`pack_a_panel`]/[`pack_b_panel`] expose single-panel granularity so
//! the parallel driver can fan the packing itself out across threads
//! (each panel has exactly one writer — same determinism argument as
//! the compute tiles).

use crate::microkernel::MAX_MR;
use crate::MatrixView;

/// Packed length of an `mcw × kcw` block of `A` (rows padded to `mr`).
#[inline]
pub fn packed_a_len(mcw: usize, kcw: usize, mr: usize) -> usize {
    mcw.div_ceil(mr) * mr * kcw
}

/// Packed length of a `kcw × ncw` block of `B` (columns padded to `nr`).
#[inline]
pub fn packed_b_len(kcw: usize, ncw: usize, nr: usize) -> usize {
    ncw.div_ceil(nr) * nr * kcw
}

/// Packs one `mr`-row panel of `a`: rows `[row0, row0 + live)` and
/// columns `[pc, pc + kcw)`, interleaved k-major with rows `live..mr`
/// zero-padded. `dst` must be exactly `mr * kcw` long; every element is
/// written.
///
/// # Panics
/// Panics if `live` is `0`, exceeds `mr`, or `mr` exceeds [`MAX_MR`].
pub fn pack_a_panel<'a>(
    a: impl Into<MatrixView<'a>>,
    row0: usize,
    pc: usize,
    live: usize,
    kcw: usize,
    mr: usize,
    dst: &mut [f64],
) {
    assert!(0 < live && live <= mr && mr <= MAX_MR, "bad A panel shape");
    assert_eq!(dst.len(), mr * kcw, "packed A panel size mismatch");
    let a = a.into();
    // Borrow the live source rows once; stride-1 reads in the k loop.
    let mut rows: [&[f64]; MAX_MR] = [&[]; MAX_MR];
    for (i, row) in rows.iter_mut().take(live).enumerate() {
        *row = &a.row(row0 + i)[pc..pc + kcw];
    }
    for (l, out) in dst.chunks_exact_mut(mr).enumerate() {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = if i < live { rows[i][l] } else { 0.0 };
        }
    }
}

/// Packs one `nr`-column panel of `b`: rows `[pc, pc + kcw)` and columns
/// `[col0, col0 + live)`, k-major with columns `live..nr` zero-padded.
/// `dst` must be exactly `nr * kcw` long; every element is written.
///
/// # Panics
/// Panics if `live` is `0` or exceeds `nr`.
pub fn pack_b_panel<'b>(
    b: impl Into<MatrixView<'b>>,
    pc: usize,
    col0: usize,
    live: usize,
    kcw: usize,
    nr: usize,
    dst: &mut [f64],
) {
    assert!(0 < live && live <= nr, "bad B panel shape");
    assert_eq!(dst.len(), nr * kcw, "packed B panel size mismatch");
    let b = b.into();
    for (l, out) in dst.chunks_exact_mut(nr).enumerate() {
        let src = &b.row(pc + l)[col0..col0 + live];
        out[..live].copy_from_slice(src);
        out[live..].fill(0.0);
    }
}

/// Packs the `mcw × kcw` block of `a` with top-left `(ic, pc)` into
/// `mr`-row panels (layout in the module docs). `ap` must be exactly
/// [`packed_a_len`] long; every element is written.
pub fn pack_a<'a>(
    a: impl Into<MatrixView<'a>>,
    ic: usize,
    pc: usize,
    mcw: usize,
    kcw: usize,
    mr: usize,
    ap: &mut [f64],
) {
    assert_eq!(
        ap.len(),
        packed_a_len(mcw, kcw, mr),
        "packed A size mismatch"
    );
    let a = a.into();
    let panels = mcw.div_ceil(mr);
    for panel in 0..panels {
        let r0 = panel * mr;
        let live = mr.min(mcw - r0);
        let dst = &mut ap[panel * mr * kcw..(panel + 1) * mr * kcw];
        pack_a_panel(a, ic + r0, pc, live, kcw, mr, dst);
    }
}

/// Packs the `kcw × ncw` block of `b` with top-left `(pc, jc)` into
/// `nr`-column panels (layout in the module docs). `bp` must be exactly
/// [`packed_b_len`] long; every element is written.
pub fn pack_b<'b>(
    b: impl Into<MatrixView<'b>>,
    pc: usize,
    jc: usize,
    kcw: usize,
    ncw: usize,
    nr: usize,
    bp: &mut [f64],
) {
    assert_eq!(
        bp.len(),
        packed_b_len(kcw, ncw, nr),
        "packed B size mismatch"
    );
    let b = b.into();
    let panels = ncw.div_ceil(nr);
    for panel in 0..panels {
        let c0 = panel * nr;
        let live = nr.min(ncw - c0);
        let dst = &mut bp[panel * nr * kcw..(panel + 1) * nr * kcw];
        pack_b_panel(b, pc, jc + c0, live, kcw, nr, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::{SCALAR_MR, SCALAR_NR};
    use crate::Matrix;

    const MR: usize = SCALAR_MR;
    const NR: usize = SCALAR_NR;

    #[test]
    fn pack_a_layout_and_padding() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 10 + c) as f64);
        let (mcw, kcw) = (5, 3);
        let mut ap = vec![-1.0; packed_a_len(mcw, kcw, MR)];
        pack_a(&a, 0, 0, mcw, kcw, MR, &mut ap);
        // First panel, step l=1 holds column 1 of rows 0..4.
        assert_eq!(&ap[MR..2 * MR], &[1.0, 11.0, 21.0, 31.0]);
        // Second panel holds row 4 then zero padding.
        let p2 = &ap[MR * kcw..];
        assert_eq!(p2[0], 40.0);
        assert_eq!(&p2[1..MR], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_a_respects_block_origin() {
        let a = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
        let mut ap = vec![0.0; packed_a_len(4, 2, MR)];
        pack_a(&a, 2, 3, 4, 2, MR, &mut ap);
        // l = 0: column 3 of rows 2..6.
        assert_eq!(&ap[..MR], &[19.0, 27.0, 35.0, 43.0]);
    }

    #[test]
    fn pack_b_layout_and_padding() {
        let b = Matrix::from_fn(2, 10, |r, c| (r * 100 + c) as f64);
        let (kcw, ncw) = (2, 10);
        let mut bp = vec![-1.0; packed_b_len(kcw, ncw, NR)];
        pack_b(&b, 0, 0, kcw, ncw, NR, &mut bp);
        // First panel, step l=0: columns 0..8 of row 0.
        assert_eq!(&bp[..NR], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        // Second panel: two live columns then zeros.
        let p2 = &bp[NR * kcw..];
        assert_eq!(&p2[..3], &[8.0, 9.0, 0.0]);
        assert_eq!(&p2[NR..NR + 3], &[108.0, 109.0, 0.0]);
    }

    #[test]
    fn packed_lengths_round_up() {
        assert_eq!(packed_a_len(4, 7, MR), 4 * 7);
        assert_eq!(packed_a_len(5, 7, MR), 8 * 7);
        assert_eq!(packed_b_len(3, 8, NR), 8 * 3);
        assert_eq!(packed_b_len(3, 9, NR), 16 * 3);
        // The 6-row AVX2 tile rounds to multiples of 6.
        assert_eq!(packed_a_len(7, 2, 6), 12 * 2);
    }

    #[test]
    fn wide_tile_panels_match_block_packing() {
        // Packing a block through pack_a must equal packing its panels
        // individually — the contract the parallel driver relies on.
        let a = Matrix::random(13, 9, 5);
        let (mr, kcw) = (6, 9);
        let mut whole = vec![0.0; packed_a_len(13, kcw, mr)];
        pack_a(&a, 0, 0, 13, kcw, mr, &mut whole);
        for panel in 0..13usize.div_ceil(mr) {
            let live = mr.min(13 - panel * mr);
            let mut one = vec![0.0; mr * kcw];
            pack_a_panel(&a, panel * mr, 0, live, kcw, mr, &mut one);
            assert_eq!(&whole[panel * mr * kcw..(panel + 1) * mr * kcw], &one[..]);
        }
        let b = Matrix::random(9, 21, 6);
        let nr = 8;
        let mut whole = vec![0.0; packed_b_len(9, 21, nr)];
        pack_b(&b, 0, 0, 9, 21, nr, &mut whole);
        for panel in 0..21usize.div_ceil(nr) {
            let live = nr.min(21 - panel * nr);
            let mut one = vec![0.0; nr * 9];
            pack_b_panel(&b, 0, panel * nr, live, 9, nr, &mut one);
            assert_eq!(&whole[panel * nr * 9..(panel + 1) * nr * 9], &one[..]);
        }
    }
}
