//! What the small-shape suites share: the packed path written out as an
//! oracle, operands that probe the float contract's corners, and a
//! bitwise comparison that matches NaNs by position.

use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::pack::{pack_a, pack_b, packed_a_len, packed_b_len};
use cubemm_dense::{Matrix, MatrixView};

/// Every side length the small-shape suites combine: 1 through 8 (every
/// ragged edge of the 4- and 6-row tiles and of every 8-wide one), 13
/// (one past the 12-row tile) and 16.
pub const SIDES: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 13, 16];

/// Every microkernel the host can execute, printed so that a host
/// without a vector arm shows it as skipped rather than passed.
pub fn impls() -> Vec<MicrokernelImpl> {
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

/// `C += A·B` the packed way, spelled out from the public pieces: for
/// each `kc`-deep block, pack all of `B` and all of `A`, then run every
/// register tile of `mk`. This is the packed driver with `mc ≥ m` and
/// `nc ≥ n`, which the determinism contract says are bitwise neutral.
pub fn packed_oracle(
    c: &mut Matrix,
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    kc: usize,
    mk: MicrokernelImpl,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mr, nr) = (mk.mr(), mk.nr());
    if m == 0 || n == 0 {
        return;
    }
    for pc in (0..k).step_by(kc) {
        let kcw = kc.min(k - pc);
        let mut bp = vec![0.0; packed_b_len(kcw, n, nr)];
        pack_b(b, pc, 0, kcw, n, nr, &mut bp);
        let mut ap = vec![0.0; packed_a_len(m, kcw, mr)];
        pack_a(a, 0, pc, m, kcw, mr, &mut ap);
        let cp = c.as_mut_slice().as_mut_ptr();
        for jr in 0..n.div_ceil(nr) {
            for ir in 0..m.div_ceil(mr) {
                let (mrw, nrw) = (mr.min(m - ir * mr), nr.min(n - jr * nr));
                // SAFETY: the tile's rows ir·mr .. +mrw and columns
                // jr·nr .. +nrw lie inside the m × n `C`; `mk` came from
                // detection.
                unsafe {
                    mk.run(
                        &ap[ir * mr * kcw..(ir + 1) * mr * kcw],
                        &bp[jr * nr * kcw..(jr + 1) * nr * kcw],
                        cp.add(ir * mr * n + jr * nr),
                        n,
                        mrw,
                        nrw,
                    );
                }
            }
        }
    }
}

/// Operand families for the small-shape suites.
#[derive(Debug, Clone, Copy)]
pub enum Values {
    /// Uniform random words.
    Random,
    /// `A` all signed zeros and `C` all `−0.0`, so every product is a
    /// zero whose sign the accumulator's starting `+0.0` decides.
    SignedZeros,
    /// Random words with `±inf` and NaN planted in `A`, `B` and `C`.
    NonFinite,
}

impl Values {
    /// Every family.
    pub const ALL: [Values; 3] = [Values::Random, Values::SignedZeros, Values::NonFinite];

    /// `(A, B, C₀)` for an `m × k · k × n` product.
    pub fn operands(self, m: usize, k: usize, n: usize) -> (Matrix, Matrix, Matrix) {
        let seed = (m * 10_000 + k * 100 + n) as u64;
        let (mut a, mut b) = (Matrix::random(m, k, seed), Matrix::random(k, n, seed + 1));
        let mut c = Matrix::random(m, n, seed + 2);
        match self {
            Values::Random => {}
            Values::SignedZeros => {
                a = Matrix::from_fn(m, k, |i, l| if (i + l) % 2 == 0 { -0.0 } else { 0.0 });
                c = Matrix::from_fn(m, n, |_, _| -0.0);
            }
            Values::NonFinite => {
                let plant = |x: &mut Matrix, at: usize, v: f64| {
                    if let Some(w) = x.as_mut_slice().get_mut(at) {
                        *w = v;
                    }
                };
                plant(&mut a, 0, f64::INFINITY);
                plant(&mut a, m * k / 2 + 1, f64::NAN);
                plant(&mut b, k * n - 1, f64::NEG_INFINITY);
                plant(&mut c, m * n / 2, f64::NEG_INFINITY);
            }
        }
        (a, b, c)
    }
}

/// Asserts `got` and `want` agree bit for bit, except that a NaN only
/// has to meet a NaN (payloads are not part of the contract).
pub fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (at, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{what}: word {at} is {g}, want NaN");
        } else {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: word {at} is {g}, want {w}"
            );
        }
    }
}
