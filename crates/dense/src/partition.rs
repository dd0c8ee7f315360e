//! The block layouts the paper's algorithms assume.
//!
//! * [`square`] — the `√p × √p` (or `∛p × ∛p`) block partition of
//!   Figure 1, used by Simple, Cannon, HJE, DNS, Berntsen and the 3-D
//!   Diagonal algorithm.
//! * [`row_group`] / [`col_group`] — contiguous groups of rows/columns,
//!   used by the 2-D Diagonal and Berntsen splits and for the `l`-th
//!   sub-groups exchanged inside the 3-D All algorithms.
//! * [`wide`] / [`tall`] — the `∛p × p^{2/3}` partition of matrix A
//!   (Figure 8) and the `p^{2/3} × ∛p` partition of matrix B (Figure 9)
//!   used by 3-D All_Trans / 3-D All, with `f(i, j) = i·∛p + j`.

use crate::Matrix;

/// The `(i, j)` block of the `q × q` square partition (Figure 1).
///
/// # Panics
/// Panics if the matrix dimensions are not divisible by `q`.
pub fn square(m: &Matrix, q: usize, i: usize, j: usize) -> Matrix {
    assert!(
        m.rows().is_multiple_of(q) && m.cols().is_multiple_of(q),
        "matrix not divisible into {q}x{q} blocks"
    );
    let (br, bc) = (m.rows() / q, m.cols() / q);
    m.block(i * br, j * bc, br, bc)
}

/// Assembles a matrix from its `q × q` square blocks via a getter.
pub fn assemble_square(n: usize, q: usize, mut get: impl FnMut(usize, usize) -> Matrix) -> Matrix {
    assert_eq!(n % q, 0);
    let b = n / q;
    let mut out = Matrix::zeros(n, n);
    for i in 0..q {
        for j in 0..q {
            let blk = get(i, j);
            assert_eq!(
                (blk.rows(), blk.cols()),
                (b, b),
                "block ({i},{j}) has wrong shape"
            );
            out.paste(i * b, j * b, &blk);
        }
    }
    out
}

/// The `i`-th of `g` contiguous groups of rows.
pub fn row_group(m: &Matrix, g: usize, i: usize) -> Matrix {
    assert_eq!(m.rows() % g, 0, "rows not divisible into {g} groups");
    let h = m.rows() / g;
    m.block(i * h, 0, h, m.cols())
}

/// The `j`-th of `g` contiguous groups of columns.
pub fn col_group(m: &Matrix, g: usize, j: usize) -> Matrix {
    assert_eq!(m.cols() % g, 0, "cols not divisible into {g} groups");
    let w = m.cols() / g;
    m.block(0, j * w, m.rows(), w)
}

/// Stacks `g` row groups back into a full matrix.
pub fn stack_rows(groups: &[Matrix]) -> Matrix {
    assert!(!groups.is_empty());
    let cols = groups[0].cols();
    let rows: usize = groups.iter().map(Matrix::rows).sum();
    let mut out = Matrix::zeros(rows, cols);
    let mut r = 0;
    for g in groups {
        assert_eq!(g.cols(), cols);
        out.paste(r, 0, g);
        r += g.rows();
    }
    out
}

/// Concatenates `g` column groups back into a full matrix.
pub fn concat_cols(groups: &[Matrix]) -> Matrix {
    assert!(!groups.is_empty());
    let rows = groups[0].rows();
    let cols: usize = groups.iter().map(Matrix::cols).sum();
    let mut out = Matrix::zeros(rows, cols);
    let mut c = 0;
    for g in groups {
        assert_eq!(g.rows(), rows);
        out.paste(0, c, g);
        c += g.cols();
    }
    out
}

/// The paper's index map `f(i, j) = i·q + j` (with `q = ∛p`).
#[inline]
pub fn f_index(q: usize, i: usize, j: usize) -> usize {
    i * q + j
}

/// Block `A_{k, f}` of the Figure 8 partition: rows split into `q` groups,
/// columns into `q²` groups (block shape `n/q × n/q²`).
pub fn wide(m: &Matrix, q: usize, k: usize, f: usize) -> Matrix {
    assert!(
        m.rows().is_multiple_of(q) && m.cols().is_multiple_of(q * q),
        "matrix not divisible for Figure 8 layout"
    );
    let (br, bc) = (m.rows() / q, m.cols() / (q * q));
    m.block(k * br, f * bc, br, bc)
}

/// Block `B_{f, k}` of the Figure 9 partition: rows split into `q²`
/// groups, columns into `q` groups (block shape `n/q² × n/q`).
pub fn tall(m: &Matrix, q: usize, f: usize, k: usize) -> Matrix {
    assert!(
        m.rows().is_multiple_of(q * q) && m.cols().is_multiple_of(q),
        "matrix not divisible for Figure 9 layout"
    );
    let (br, bc) = (m.rows() / (q * q), m.cols() / q);
    m.block(f * br, k * bc, br, bc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_blocks_tile_the_matrix() {
        let n = 12;
        let q = 4;
        let m = Matrix::from_fn(n, n, |r, c| (r * n + c) as f64);
        let back = assemble_square(n, q, |i, j| square(&m, q, i, j));
        assert_eq!(back, m);
    }

    #[test]
    fn square_block_contents() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let blk = square(&m, 2, 1, 0);
        assert_eq!(blk.as_slice(), &[8.0, 9.0, 12.0, 13.0]);
    }

    #[test]
    fn row_col_groups_roundtrip() {
        let m = Matrix::random(8, 6, 5);
        let rows: Vec<Matrix> = (0..4).map(|i| row_group(&m, 4, i)).collect();
        assert_eq!(stack_rows(&rows), m);
        let cols: Vec<Matrix> = (0..3).map(|j| col_group(&m, 3, j)).collect();
        assert_eq!(concat_cols(&cols), m);
    }

    #[test]
    fn wide_tall_tile_the_matrix() {
        let q = 2;
        let n = 8;
        let m = Matrix::from_fn(n, n, |r, c| (r * n + c) as f64);
        // Figure 8: q row groups x q^2 col groups.
        let mut sum = 0.0;
        for k in 0..q {
            for f in 0..q * q {
                let blk = wide(&m, q, k, f);
                assert_eq!((blk.rows(), blk.cols()), (n / q, n / (q * q)));
                sum += blk.as_slice().iter().sum::<f64>();
            }
        }
        assert_eq!(sum, m.as_slice().iter().sum::<f64>());
        // Figure 9: q^2 row groups x q col groups.
        let mut sum_t = 0.0;
        for f in 0..q * q {
            for k in 0..q {
                let blk = tall(&m, q, f, k);
                assert_eq!((blk.rows(), blk.cols()), (n / (q * q), n / q));
                sum_t += blk.as_slice().iter().sum::<f64>();
            }
        }
        assert_eq!(sum_t, sum);
    }

    #[test]
    fn wide_of_a_equals_tall_of_a_transpose() {
        // The 3-D All_Trans initial condition: "the transpose of matrix B
        // is initially identically distributed as matrix A".
        let q = 2;
        let n = 8;
        let m = Matrix::random(n, n, 11);
        let mt = m.transpose();
        for k in 0..q {
            for f in 0..q * q {
                let a = wide(&m, q, k, f);
                let b = tall(&mt, q, f, k);
                assert_eq!(a, b.transpose());
            }
        }
    }

    #[test]
    fn f_index_matches_paper() {
        // Figure 8 for p = 8 (q = 2): columns ordered f(0,0), f(0,1),
        // f(1,0), f(1,1).
        assert_eq!(f_index(2, 0, 0), 0);
        assert_eq!(f_index(2, 0, 1), 1);
        assert_eq!(f_index(2, 1, 0), 2);
        assert_eq!(f_index(2, 1, 1), 3);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_square_panics() {
        let m = Matrix::zeros(5, 5);
        let _ = square(&m, 2, 0, 0);
    }
}
