//! An owned, row-major dense matrix of `f64`.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// SplitMix64: a tiny, high-quality, dependency-free generator. The test
/// matrices only need reproducible, well-spread entries, not
/// cryptographic quality, and an in-tree generator keeps seeded runs
/// stable across toolchain and dependency upgrades.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` reproducible words in `[-1, 1)`: 53 uniform mantissa bits each.
fn random_words(len: usize, seed: u64) -> impl Iterator<Item = f64> {
    let mut state = seed;
    (0..len).map(move |_| {
        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * u - 1.0
    })
}

/// Owned row-major dense matrix.
///
/// ```
/// use cubemm_dense::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.block(0, 1, 2, 2).as_slice(), &[1.0, 2.0, 4.0, 5.0]);
/// assert_eq!(m.transpose().rows(), 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a generator over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A reproducible pseudo-random matrix with entries in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let data = random_words(rows * cols, seed).collect();
        Matrix { rows, cols, data }
    }

    /// [`Matrix::random`] for untrusted shapes: an order whose storage
    /// overflows `usize` or cannot be allocated is an error, not an
    /// abort. The entries are the same.
    pub fn try_random(rows: usize, cols: usize, seed: u64) -> Result<Self, String> {
        let cannot = || format!("cannot allocate a {rows} × {cols} matrix");
        let len = rows.checked_mul(cols).ok_or_else(cannot)?;
        let mut data = Vec::new();
        data.try_reserve_exact(len).map_err(|_| cannot())?;
        data.extend(random_words(len, seed));
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored words.
    #[inline]
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies the rectangular block with top-left corner `(r0, c0)` and
    /// shape `br × bc` into a new matrix.
    pub fn block(&self, r0: usize, c0: usize, br: usize, bc: usize) -> Matrix {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "block out of range"
        );
        let mut data = Vec::with_capacity(br * bc);
        for r in r0..r0 + br {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + bc]);
        }
        Matrix {
            rows: br,
            cols: bc,
            data,
        }
    }

    /// Copies the rectangular block with top-left corner `(r0, c0)` and
    /// shape `br × bc` into `dst`, reusing `dst`'s allocation when its
    /// capacity suffices — the zero-allocation staging counterpart of
    /// [`Matrix::block`] for per-step hot loops.
    pub fn block_into(&self, r0: usize, c0: usize, br: usize, bc: usize, dst: &mut Matrix) {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "block out of range"
        );
        dst.rows = br;
        dst.cols = bc;
        dst.data.clear();
        dst.data.reserve(br * bc);
        for r in r0..r0 + br {
            dst.data
                .extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + bc]);
        }
    }

    /// Writes `src` into this matrix with top-left corner `(r0, c0)`.
    pub fn paste(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "paste out of range"
        );
        for r in 0..src.rows {
            let dst = (r0 + r) * self.cols + c0;
            self.data[dst..dst + src.cols].copy_from_slice(src.row(r));
        }
    }

    /// Adds `src` element-wise into the block with top-left `(r0, c0)`.
    pub fn add_into(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "add_into out of range"
        );
        for r in 0..src.rows {
            let dst = (r0 + r) * self.cols + c0;
            for (d, s) in self.data[dst..dst + src.cols].iter_mut().zip(src.row(r)) {
                *d += s;
            }
        }
    }

    /// Element-wise sum with another matrix of the same shape.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (d, s) in self.data.iter_mut().zip(&other.data) {
            *d += s;
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Maximum absolute element-wise difference; the correctness metric
    /// used by every end-to-end test. NaN-propagating: if any difference
    /// is NaN (a NaN on either side, or `inf − inf`) the result is NaN,
    /// so callers must accept with `err <= tol` — which NaN fails — and
    /// never reject with `err > tol`, which NaN slips through.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        // Sign-cleared doubles order like their bit patterns, with every
        // NaN above +inf — so an integer max is a float max that keeps a
        // NaN (`f64::max` would drop it) and still vectorizes.
        let bits = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs().to_bits())
            .fold(0, u64::max);
        f64::from_bits(bits)
    }

    /// The whole matrix as a borrowed operand view.
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// Copies the contents into a shared payload for the simulator.
    pub fn to_payload(&self) -> Arc<[f64]> {
        Arc::from(self.data.as_slice())
    }

    /// Converts the contents into a shared payload for the simulator.
    ///
    /// This copies every word into a fresh allocation, exactly like
    /// [`Matrix::to_payload`]: `Arc<[f64]>` keeps its reference counts
    /// in the same block as the words, so the `Vec`'s buffer cannot be
    /// adopted. The algorithms still pay this copy in two places — the
    /// initial partition of `A` and `B` into per-node blocks and each
    /// node's `C` block at finish; received blocks never come back
    /// through a `Matrix` (see [`MatrixView`]).
    pub fn into_payload(self) -> Arc<[f64]> {
        Arc::from(self.data.into_boxed_slice())
    }

    /// Reconstructs a matrix from a payload (copies).
    ///
    /// # Panics
    /// Panics if the payload length is not `rows * cols`.
    pub fn from_payload(rows: usize, cols: usize, payload: &[f64]) -> Matrix {
        assert_eq!(payload.len(), rows * cols, "payload shape mismatch");
        Matrix {
            rows,
            cols,
            data: payload.to_vec(),
        }
    }
}

/// A borrowed row-major `rows × cols` matrix: how every kernel reads its
/// `A` and `B` operands.
///
/// A view is three words — shape and `&[f64]` — so any row-major slice
/// of the right length can be multiplied in place: a received message
/// payload, a run of whole rows of a larger matrix, or an owned
/// [`Matrix`] (`&Matrix` converts into a view, which is why
/// `gemm_acc(&mut c, &a, &b, kernel)` reads as before). Only the
/// accumulator `C` needs to be an owned `Matrix`.
///
/// ```
/// use cubemm_dense::{Matrix, MatrixView};
/// let words = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let v = MatrixView::new(2, 3, &words);
/// assert_eq!(v.row(1), &[4.0, 5.0, 6.0]);
/// assert_eq!(MatrixView::from(&Matrix::identity(2)).cols(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatrixView<'a> {
    /// Views `data` as a `rows × cols` row-major matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[inline]
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape mismatch");
        MatrixView { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

impl<'a> From<&'a Matrix> for MatrixView<'a> {
    #[inline]
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for r in 0..show {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(2, 3)], 23.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn try_random_matches_random_and_refuses_impossible_shapes() {
        assert_eq!(
            Matrix::try_random(7, 5, 9).unwrap(),
            Matrix::random(7, 5, 9)
        );
        // 2^61 words is 2^64 bytes: more than any allocation may ask for.
        let err = Matrix::try_random(1 << 31, 1 << 30, 1).unwrap_err();
        assert_eq!(err, "cannot allocate a 2147483648 × 1073741824 matrix");
        // The word count itself overflows.
        assert!(Matrix::try_random(usize::MAX, 2, 1).is_err());
    }

    #[test]
    fn block_and_paste_roundtrip() {
        let m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f64);
        let b = m.block(2, 3, 2, 3);
        assert_eq!(b[(0, 0)], 15.0);
        assert_eq!(b[(1, 2)], 23.0);
        let mut z = Matrix::zeros(6, 6);
        z.paste(2, 3, &b);
        assert_eq!(z[(3, 5)], 23.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn block_into_reuses_allocation_and_matches_block() {
        let m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f64);
        let mut dst = Matrix::zeros(4, 4); // capacity 16 >= 2*3
        let ptr = dst.data.as_ptr();
        m.block_into(2, 3, 2, 3, &mut dst);
        assert_eq!(dst, m.block(2, 3, 2, 3));
        assert_eq!(dst.data.as_ptr(), ptr, "staging buffer was reallocated");
    }

    #[test]
    fn add_into_accumulates() {
        let mut m = Matrix::zeros(4, 4);
        let one = Matrix::from_fn(2, 2, |_, _| 1.0);
        m.add_into(1, 1, &one);
        m.add_into(1, 1, &one);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(2, 2)], 2.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let want = Matrix::from_vec(1, 3, vec![1.0, 5.0, 2.0]);
        // The old `f64::max` fold read all three of these as 0.
        for bad in [f64::NAN, -f64::NAN] {
            for at in 0..3 {
                let mut got = want.clone();
                got.as_mut_slice()[at] = bad;
                assert!(got.max_abs_diff(&want).is_nan(), "NaN at {at}");
                assert!(want.max_abs_diff(&got).is_nan(), "NaN at {at} (flipped)");
            }
        }
        // inf against the same inf is a NaN difference, not agreement.
        let inf = Matrix::from_vec(1, 2, vec![f64::INFINITY, 0.0]);
        assert!(inf.max_abs_diff(&inf).is_nan());
        // A NaN never masks itself behind a later, larger finite gap.
        let got = Matrix::from_vec(1, 3, vec![f64::NAN, 5.0, 9.0]);
        assert!(got.max_abs_diff(&want).is_nan());
        // Finite inputs are unchanged.
        let got = Matrix::from_vec(1, 3, vec![1.5, 5.0, -1.0]);
        assert_eq!(got.max_abs_diff(&want), 3.0);
        assert_eq!(want.max_abs_diff(&want), 0.0);
        assert_eq!(Matrix::zeros(0, 0).max_abs_diff(&Matrix::zeros(0, 0)), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(5, 7, 42);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn payload_roundtrip() {
        let m = Matrix::random(4, 3, 7);
        let p = m.to_payload();
        let back = Matrix::from_payload(4, 3, &p);
        assert_eq!(back, m);
    }

    #[test]
    fn random_is_reproducible() {
        assert_eq!(Matrix::random(8, 8, 1), Matrix::random(8, 8, 1));
        assert_ne!(Matrix::random(8, 8, 1), Matrix::random(8, 8, 2));
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn block_bounds_checked() {
        let m = Matrix::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }
}
