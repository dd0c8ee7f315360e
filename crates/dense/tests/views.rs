//! Kernels read `A` and `B` through `MatrixView`s, so an operand is
//! multiplied where it lies — a received message payload, a run of rows
//! of a larger buffer — instead of being copied into a `Matrix` first.
//!
//! This suite pins that where an operand lives is bitwise invisible:
//! every kernel, fed views over windows at odd offsets of a larger
//! slice, produces exactly the bits of the owned-`Matrix` call, on
//! ragged shapes, for every microkernel the host can run and for the
//! dispatched one (which CI also runs under `CUBEMM_FORCE_SCALAR=1`).
//! The words around each window are NaN, so a kernel that read one word
//! outside its view would poison the product and fail the comparison.

mod common;

use common::{assert_same_bits, impls, packed_oracle, Values, SIDES};
use cubemm_dense::gemm::{
    blocked_acc_with_isa, gemm_acc, gemm_acc_with_microkernel, Kernel, ReferenceIsa,
};
use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::pack::{pack_a, pack_a_panel, pack_b, pack_b_panel, packed_a_len, packed_b_len};
use cubemm_dense::{tune, Matrix, MatrixView};

/// Ragged shapes: exact tiles for every `mr` value, single-row/column
/// spills, one row past the 12-row tile, primes, and empties.
const SHAPES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (6, 8, 8),
    (12, 8, 8),
    (25, 15, 9),
    (5, 5, 5),
    (7, 11, 3),
    (13, 17, 9),
    (19, 23, 25),
    (24, 16, 33),
    (1, 19, 1),
    (0, 5, 3),
    (3, 0, 0),
];

fn kernels() -> [Kernel; 5] {
    let packed = |threads| Kernel::Packed {
        mc: 10,
        kc: 7,
        nc: 20,
        threads,
    };
    [
        Kernel::Blocked(3),
        Kernel::Blocked(64),
        packed(1),
        packed(2),
        Kernel::packed(),
    ]
}

/// `m`'s words at offset `off` of a larger buffer of NaNs.
fn embedded(m: &Matrix, off: usize) -> Vec<f64> {
    let mut buf = vec![f64::NAN; off];
    buf.extend_from_slice(m.as_slice());
    buf.extend([f64::NAN; 5]);
    buf
}

/// A view of the `rows × cols` window at `off` of `buf`.
fn window(buf: &[f64], off: usize, rows: usize, cols: usize) -> MatrixView<'_> {
    MatrixView::new(rows, cols, &buf[off..off + rows * cols])
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Runs `call` once on owned operands and once on windowed views of the
/// same words, from the same non-zero `C`, and asserts the bits agree.
fn check(
    (m, k, n): (usize, usize, usize),
    what: &str,
    call: impl Fn(&mut Matrix, MatrixView<'_>, MatrixView<'_>),
) {
    let a = Matrix::random(m, k, 11 + m as u64);
    let b = Matrix::random(k, n, 12 + n as u64);
    let c0 = Matrix::random(m, n, 13);
    let (abuf, bbuf) = (embedded(&a, 3), embedded(&b, 7));

    let mut want = c0.clone();
    call(&mut want, a.view(), b.view());
    let mut got = c0;
    call(&mut got, window(&abuf, 3, m, k), window(&bbuf, 7, k, n));
    assert_eq!(bits(&got), bits(&want), "{what} {m}x{k}x{n}");
}

#[test]
fn every_kernel_on_views_matches_owned_matrices_bitwise() {
    let arms = impls();
    for shape in SHAPES {
        for kernel in kernels() {
            for &mk in &arms {
                check(shape, &format!("{kernel:?} {mk:?}"), |c, a, b| {
                    gemm_acc_with_microkernel(c, a, b, kernel, mk)
                });
            }
            // The process-wide dispatch: scalar under CUBEMM_FORCE_SCALAR.
            check(shape, &format!("{kernel:?} dispatched"), |c, a, b| {
                gemm_acc(c, a, b, kernel)
            });
        }
    }
}

#[test]
fn small_shapes_on_views_match_the_packed_path_bitwise() {
    // The small-shape path reads the row-major operands directly, so it
    // is the one most exposed to a view's bounds: every shape below the
    // threshold, fed windows between NaNs, against the packed path on
    // owned operands.
    let arms = impls();
    for m in SIDES {
        for k in SIDES {
            for n in SIDES {
                for values in Values::ALL {
                    let (a, b, c0) = values.operands(m, k, n);
                    let (abuf, bbuf) = (embedded(&a, 3), embedded(&b, 7));
                    let (av, bv) = (window(&abuf, 3, m, k), window(&bbuf, 7, k, n));
                    let oracle = |mk: MicrokernelImpl| {
                        let mut want = c0.clone();
                        packed_oracle(
                            &mut want,
                            a.view(),
                            b.view(),
                            tune::resolve(0, 0, 0, mk).kc,
                            mk,
                        );
                        want
                    };
                    let what = format!("{values:?} {m}x{k}x{n}");
                    for &mk in &arms {
                        let mut got = c0.clone();
                        gemm_acc_with_microkernel(&mut got, av, bv, Kernel::packed(), mk);
                        assert_same_bits(&got, &oracle(mk), &format!("{what} {}", mk.name()));
                    }
                    let mut got = c0.clone();
                    gemm_acc(&mut got, av, bv, Kernel::packed());
                    assert_same_bits(
                        &got,
                        &oracle(MicrokernelImpl::active()),
                        &format!("{what} dispatched"),
                    );
                }
            }
        }
    }
}

#[test]
fn the_parallel_packed_driver_reads_views_like_matrices() {
    // Just above PAR_MIN_ELEMS, so two threads really fan out; ragged in
    // every dimension.
    let shape = (257, 255, 257);
    for mk in impls() {
        check(shape, &format!("packed_mt(2) {mk:?}"), |c, a, b| {
            gemm_acc_with_microkernel(c, a, b, Kernel::packed_mt(2), mk)
        });
    }
}

#[test]
fn both_reference_instantiations_read_views_like_matrices() {
    let isas = ReferenceIsa::available();
    let skipped: Vec<_> = [ReferenceIsa::Avx2, ReferenceIsa::Avx512]
        .into_iter()
        .filter(|isa| !isas.contains(isa))
        .collect();
    eprintln!(
        "reference instantiations compared: {isas:?}; skipped, not on this host: {skipped:?}"
    );
    for shape in SHAPES {
        for &isa in &isas {
            for tile in [1, 4, 64] {
                check(shape, &format!("blocked({tile}) {isa:?}"), |c, a, b| {
                    blocked_acc_with_isa(c, a, b, tile, isa)
                });
            }
        }
    }
}

#[test]
fn packing_a_view_writes_the_same_panels() {
    let a = Matrix::random(13, 9, 5);
    let b = Matrix::random(9, 21, 6);
    let (abuf, bbuf) = (embedded(&a, 1), embedded(&b, 4));
    let (av, bv) = (window(&abuf, 1, 13, 9), window(&bbuf, 4, 9, 21));
    for mk in impls() {
        let (mr, nr) = (mk.mr(), mk.nr());
        // A sub-block with a ragged last panel, at a non-zero origin.
        let (mcw, kcw) = (11, 7);
        let mut want = vec![0.0; packed_a_len(mcw, kcw, mr)];
        let mut got = vec![-1.0; want.len()];
        pack_a(&a, 2, 1, mcw, kcw, mr, &mut want);
        pack_a(av, 2, 1, mcw, kcw, mr, &mut got);
        assert_eq!(got, want, "pack_a {mk:?}");
        // The block's first panel: all 11 rows are live in a 12-row one.
        let mut one = vec![-1.0; mr * kcw];
        pack_a_panel(av, 2, 1, mr.min(mcw), kcw, mr, &mut one);
        assert_eq!(one, want[..mr * kcw], "pack_a_panel {mk:?}");

        let (kcw, ncw) = (8, 19);
        let mut want = vec![0.0; packed_b_len(kcw, ncw, nr)];
        let mut got = vec![-1.0; want.len()];
        pack_b(&b, 1, 2, kcw, ncw, nr, &mut want);
        pack_b(bv, 1, 2, kcw, ncw, nr, &mut got);
        assert_eq!(got, want, "pack_b {mk:?}");
        let mut one = vec![-1.0; nr * kcw];
        pack_b_panel(bv, 1, 2, nr, kcw, nr, &mut one);
        assert_eq!(one, want[..nr * kcw], "pack_b_panel {mk:?}");
    }
}

#[test]
#[should_panic(expected = "inner dimension mismatch")]
fn a_view_of_the_wrong_inner_dimension_panics() {
    let words = [1.0; 12];
    let mut c = Matrix::zeros(3, 3);
    gemm_acc(
        &mut c,
        MatrixView::new(3, 4, &words),
        MatrixView::new(3, 4, &words),
        Kernel::packed(),
    );
}

#[test]
#[should_panic(expected = "C col mismatch")]
fn a_view_that_does_not_fit_c_panics() {
    let words = [1.0; 12];
    let mut c = Matrix::zeros(3, 3);
    gemm_acc(
        &mut c,
        MatrixView::new(3, 3, &words[..9]),
        MatrixView::new(3, 4, &words),
        Kernel::Blocked(64),
    );
}

#[test]
#[should_panic(expected = "view shape mismatch")]
fn a_view_must_cover_its_slice_exactly() {
    let _ = MatrixView::new(2, 3, &[0.0; 5]);
}

#[test]
#[should_panic(expected = "packed A size mismatch")]
fn packing_a_view_into_a_short_buffer_panics() {
    let words = [1.0; 16];
    let mut ap = vec![0.0; 3];
    pack_a(MatrixView::new(4, 4, &words), 0, 0, 4, 4, 4, &mut ap);
}
