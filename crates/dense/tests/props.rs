//! Deterministic property sweeps for matrices, partitions, and kernels
//! (formerly proptest strategies; now seeded reproducible loops so the
//! workspace needs no external crates).

use cubemm_dense::gemm::{gemm_acc, matmul, Kernel};
use cubemm_dense::{partition, Matrix};

/// The unblocked `ijk` triple loop: the oracle every kernel is checked
/// against.
fn triple_loop(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            c[(i, j)] += (0..a.cols()).map(|l| a[(i, l)] * b[(l, j)]).sum::<f64>();
        }
    }
}

fn kernels() -> Vec<Kernel> {
    let mut ks: Vec<Kernel> = [1usize, 2, 3, 5, 8, 15].map(Kernel::Blocked).into();
    // The packed path at every threading level the property sweeps use,
    // plus deliberately awkward tile sizes (not multiples of either
    // register tile's mr/nr, kc smaller than k, nc smaller than n).
    ks.push(Kernel::packed());
    ks.extend([2usize, 4].map(Kernel::packed_mt));
    ks.push(Kernel::Packed {
        mc: 5,
        kc: 3,
        nc: 7,
        threads: 2,
    });
    ks
}

/// Ragged shapes: nothing divides the register tiles (scalar 4×8, AVX2
/// 6×8 or AVX-512 12×8) or the default cache blocks, plus exact-tile
/// shapes for every `mr` value and empty/degenerate extents.
const SHAPES: [(usize, usize, usize); 13] = [
    (1, 1, 1),
    (2, 3, 4),
    (5, 5, 5),
    (7, 11, 3),
    (11, 8, 11),
    (4, 8, 8),
    (6, 8, 8),
    (12, 5, 16),
    (13, 17, 9),
    (19, 23, 25),
    (1, 19, 1),
    (0, 5, 3),
    (3, 0, 0),
];

#[test]
fn kernels_agree_with_naive() {
    for (case, (m, k, n)) in SHAPES.into_iter().enumerate() {
        let seed = case as u64 * 131;
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let mut want = Matrix::zeros(m, n);
        triple_loop(&mut want, &a, &b);
        for kernel in kernels() {
            let mut got = Matrix::zeros(m, n);
            gemm_acc(&mut got, &a, &b, kernel);
            assert!(
                got.max_abs_diff(&want) < 1e-9,
                "{kernel:?} disagrees at {m}x{k}x{n}"
            );
        }
    }
}

#[test]
fn kernels_accumulate_into_nonzero_c() {
    // gemm_acc must add to C, not overwrite it, on every kernel path.
    let (m, k, n) = (9, 14, 21);
    let a = Matrix::random(m, k, 71);
    let b = Matrix::random(k, n, 72);
    let c0 = Matrix::random(m, n, 73);
    let mut want = c0.clone();
    triple_loop(&mut want, &a, &b);
    for kernel in kernels() {
        let mut got = c0.clone();
        gemm_acc(&mut got, &a, &b, kernel);
        assert!(
            got.max_abs_diff(&want) < 1e-9,
            "{kernel:?} does not accumulate correctly"
        );
    }
}

#[test]
fn packed_kernel_is_deterministic_across_thread_counts() {
    // The packed path owes bitwise-identical results regardless of the
    // thread count: each C element is accumulated by exactly one 2-D
    // tile job in a fixed kc-block order (see tests/determinism.rs for
    // the cross-microkernel half of the contract).
    for (case, (m, k, n)) in SHAPES.into_iter().enumerate() {
        let seed = 900 + case as u64;
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let mut want = Matrix::zeros(m, n);
        gemm_acc(&mut want, &a, &b, Kernel::packed());
        for threads in [2usize, 3, 4, 8] {
            let mut got = Matrix::zeros(m, n);
            gemm_acc(&mut got, &a, &b, Kernel::packed_mt(threads));
            assert_eq!(
                got, want,
                "packed kernel drifted at {m}x{k}x{n} with {threads} threads"
            );
        }
    }
}

#[test]
fn matmul_distributes_over_addition() {
    for n in 1usize..10 {
        let seed = n as u64 * 977;
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 1);
        let c = Matrix::random(n, n, seed + 2);
        let mut b_plus_c = b.clone();
        b_plus_c.add_assign(&c);
        let lhs = matmul(&a, &b_plus_c);
        let mut rhs = matmul(&a, &b);
        rhs.add_assign(&matmul(&a, &c));
        assert!(lhs.max_abs_diff(&rhs) < 1e-10, "n = {n}");
    }
}

#[test]
fn transpose_reverses_products() {
    // (A·B)^T = B^T·A^T
    for n in 1usize..10 {
        let seed = n as u64 * 733 + 5;
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 1);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        assert!(lhs.max_abs_diff(&rhs) < 1e-10, "n = {n}");
    }
}

#[test]
fn square_partition_tiles_exactly() {
    for q_exp in 0u32..3 {
        for scale in 1usize..5 {
            let q = 1usize << q_exp;
            let n = q * scale;
            let m = Matrix::random(n, n, (q * 100 + scale) as u64);
            let back = partition::assemble_square(n, q, |i, j| partition::square(&m, q, i, j));
            assert_eq!(back, m, "q = {q}, n = {n}");
        }
    }
}

#[test]
fn row_col_groups_partition_exactly() {
    for groups in 1usize..6 {
        for scale in 1usize..5 {
            let n = groups * scale;
            let m = Matrix::random(n, n, (groups * 31 + scale) as u64);
            let rows: Vec<Matrix> = (0..groups)
                .map(|i| partition::row_group(&m, groups, i))
                .collect();
            assert_eq!(partition::stack_rows(&rows), m.clone());
            let cols: Vec<Matrix> = (0..groups)
                .map(|j| partition::col_group(&m, groups, j))
                .collect();
            assert_eq!(partition::concat_cols(&cols), m);
        }
    }
}

#[test]
fn wide_and_tall_layouts_are_transposes() {
    for q_exp in 0u32..2 {
        for scale in 1usize..4 {
            let q = 1usize << q_exp;
            let n = q * q * scale;
            let m = Matrix::random(n, n, (q * 17 + scale) as u64);
            let mt = m.transpose();
            for k in 0..q {
                for f in 0..q * q {
                    let w = partition::wide(&m, q, k, f);
                    let t = partition::tall(&mt, q, f, k);
                    assert_eq!(w, t.transpose());
                }
            }
        }
    }
}

#[test]
fn payload_roundtrip_arbitrary() {
    for r in [1usize, 2, 5, 11] {
        for c in [1usize, 3, 7, 11] {
            let m = Matrix::random(r, c, (r * 13 + c) as u64);
            let p = m.to_payload();
            assert_eq!(Matrix::from_payload(r, c, &p), m);
        }
    }
}
