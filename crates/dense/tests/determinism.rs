//! Cross-feature determinism suite for the packed GEMM.
//!
//! The contract (DESIGN.md §9): for a fixed `kc` split, the packed
//! product is bitwise identical
//!
//! 1. across **thread counts** (each C microtile has exactly one
//!    writer; scheduling picks who computes, never what),
//! 2. across **microkernel implementations** (scalar 4×8 and AVX2 6×8
//!    both accumulate each element as one correctly-rounded FMA chain
//!    in ascending k — tile shape and mc/nc never touch the bits).
//!
//! The SIMD half is `#[cfg]`-gated on what the host can run, so CI
//! exercises whichever paths the runner supports; the scalar fallback
//! is additionally pinned by a CUBEMM_FORCE_SCALAR=1 run of this same
//! suite (see .github/workflows/ci.yml).

//!
//! 3. across the **small-shape path**: a product of at most
//!    `SMALL_MAX_ELEMS` element-steps with `k` inside one `kc` block
//!    skips packing, and must still produce the packed path's bits on
//!    both microkernels, signed zeros and non-finite words included.

mod common;

use common::{assert_same_bits, impls, packed_oracle, Values, SIDES};
use cubemm_dense::gemm::{gemm_acc, gemm_acc_with_microkernel, Kernel, SMALL_MAX_ELEMS};
use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::{abft, tune, Matrix};

/// Runs `gemm_acc`'s default kernel at `(m, k, n)` on every microkernel
/// and on the dispatched one, and asserts each matches the packed path
/// written out, for every operand family.
fn matches_the_packed_path(m: usize, k: usize, n: usize) {
    for values in Values::ALL {
        let (a, b, c0) = values.operands(m, k, n);
        let what = |mk: MicrokernelImpl| format!("{values:?} {m}x{k}x{n} {}", mk.name());
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
        for mk in impls() {
            let mut got = c0.clone();
            gemm_acc_with_microkernel(&mut got, &a, &b, Kernel::packed(), mk);
            assert_same_bits(&got, &oracle(mk), &what(mk));
        }
        // The process-wide dispatch: scalar under CUBEMM_FORCE_SCALAR.
        let mut got = c0.clone();
        gemm_acc(&mut got, &a, &b, Kernel::packed());
        let mk = MicrokernelImpl::active();
        assert_same_bits(&got, &oracle(mk), &format!("{} dispatched", what(mk)));
    }
}

#[test]
fn small_shapes_match_the_packed_path_bitwise() {
    for m in SIDES {
        for k in SIDES {
            for n in SIDES {
                assert!(m * k * n <= SMALL_MAX_ELEMS);
                matches_the_packed_path(m, k, n);
            }
        }
    }
}

#[test]
fn the_small_shape_threshold_edge_matches_the_packed_path_bitwise() {
    // At the threshold, one past it, and k at the default kc = 256
    // (one block) against k one past it (two blocks).
    let edge = [
        (16, 16, 256),
        (64, 16, 64),
        (16, 16, 257),
        (65, 16, 64),
        (1, 256, 256),
        (1, 257, 16),
    ];
    for (m, k, n) in edge {
        matches_the_packed_path(m, k, n);
    }
    assert_eq!(16 * 16 * 256, SMALL_MAX_ELEMS);
}

#[test]
fn an_explicit_kc_below_k_keeps_the_packed_path() {
    // A tuning file or caller asking for kc < k splits the chain: C
    // takes one fold per kc block, which the one-chain small loop would
    // not reproduce. Those bits must be the split ones.
    let mut split_differs = false;
    for (m, k, n) in [(4, 7, 4), (5, 16, 3), (8, 9, 8), (16, 16, 16)] {
        let (a, b, c0) = Values::Random.operands(m, k, n);
        for mk in impls() {
            let kernel = Kernel::Packed {
                mc: 0,
                kc: 3,
                nc: 0,
                threads: 1,
            };
            let mut got = c0.clone();
            gemm_acc_with_microkernel(&mut got, &a, &b, kernel, mk);
            let mut split = c0.clone();
            packed_oracle(&mut split, a.view(), b.view(), 3, mk);
            assert_same_bits(&got, &split, &format!("kc = 3, {m}x{k}x{n} {}", mk.name()));
            let mut one_chain = c0.clone();
            packed_oracle(&mut one_chain, a.view(), b.view(), k, mk);
            split_differs |= one_chain != split;
        }
    }
    assert!(split_differs, "no shape told a kc split from one chain");
}

/// The ragged/edge-padded shape set: exact tiles for both `mr` values
/// (4 and 6), single-row/column spills, primes, and empties.
const SHAPES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (4, 8, 8),
    (6, 8, 8),
    (5, 5, 5),
    (7, 11, 3),
    (12, 5, 16),
    (13, 17, 9),
    (19, 23, 25),
    (24, 16, 32),
    (1, 19, 1),
    (0, 5, 3),
    (3, 0, 0),
];

fn packed(threads: usize) -> Kernel {
    // Explicit blocking so the test is immune to an ambient tuning file:
    // kc pinned (the one parameter that affects bits), mc/nc awkward on
    // purpose (they must not affect bits).
    Kernel::Packed {
        mc: 10,
        kc: 7,
        nc: 20,
        threads,
    }
}

#[test]
fn simd_and_scalar_agree_bitwise_on_all_shapes() {
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let seed = 4000 + case as u64;
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let mut want = Matrix::zeros(m, n);
        gemm_acc_with_microkernel(&mut want, &a, &b, packed(1), MicrokernelImpl::Scalar);
        for mk in impls() {
            for threads in [1usize, 2, 4, 8] {
                let mut got = Matrix::zeros(m, n);
                gemm_acc_with_microkernel(&mut got, &a, &b, packed(threads), mk);
                assert_eq!(
                    got, want,
                    "{mk:?} drifted at {m}x{k}x{n}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn default_blocking_is_bitwise_stable_across_impls_and_threads() {
    // Same property through the public default path (mc/kc/nc = 0):
    // the static defaults share kc across impls precisely so this holds
    // on untuned hosts (no tuning file exists in the test cwd, so the
    // static defaults are what resolve).
    let (m, k, n) = (37, 29, 53);
    let a = Matrix::random(m, k, 77);
    let b = Matrix::random(k, n, 78);
    let mut want = Matrix::zeros(m, n);
    gemm_acc_with_microkernel(&mut want, &a, &b, Kernel::packed(), MicrokernelImpl::Scalar);
    for mk in impls() {
        for threads in [1usize, 3, 8] {
            let mut got = Matrix::zeros(m, n);
            gemm_acc_with_microkernel(&mut got, &a, &b, Kernel::packed_mt(threads), mk);
            assert_eq!(got, want, "{mk:?} with {threads} threads");
        }
    }
}

#[cfg(not(miri))]
#[test]
fn determinism_holds_above_the_parallel_threshold() {
    // The shapes above all take the small-product serial fast path, so
    // also pin a product big enough (m·k·n > 2^24) that requesting
    // threads really fans out over the pool. Ragged on every dimension.
    let (m, k, n) = (264, 262, 291);
    assert!(m * k * n > cubemm_dense::gemm::PAR_MIN_ELEMS);
    let a = Matrix::random(m, k, 31);
    let b = Matrix::random(k, n, 32);
    let mut want = Matrix::zeros(m, n);
    gemm_acc_with_microkernel(&mut want, &a, &b, Kernel::packed(), MicrokernelImpl::Scalar);
    for mk in impls() {
        for threads in [1usize, 2, 4, 8] {
            let mut got = Matrix::zeros(m, n);
            gemm_acc_with_microkernel(&mut got, &a, &b, Kernel::packed_mt(threads), mk);
            assert_eq!(got, want, "{mk:?} with {threads} threads");
        }
    }
}

#[test]
fn abft_augmented_frames_ride_the_contract() {
    // The Huang-Abraham path multiplies checksum-augmented frames with
    // the same packed kernel, then verifies residuals against a
    // tolerance — so ABFT verdicts must not depend on the host's
    // microkernel or thread count either. Bitwise-identical augmented
    // products make that trivially true.
    let na = 21;
    let a = Matrix::random(na, na, 55);
    let b = Matrix::random(na, na, 56);
    let (af, bf) = abft::augment(&a, &b, na + 1);
    let mut want = Matrix::zeros(na + 1, na + 1);
    gemm_acc_with_microkernel(&mut want, &af, &bf, packed(1), MicrokernelImpl::Scalar);
    for mk in impls() {
        for threads in [1usize, 4] {
            let mut got = Matrix::zeros(na + 1, na + 1);
            gemm_acc_with_microkernel(&mut got, &af, &bf, packed(threads), mk);
            assert_eq!(got, want, "{mk:?} with {threads} threads");
            let mut cf = got;
            let tol = abft::default_tolerance(&cf);
            assert_eq!(
                abft::verify_and_correct(&mut cf, na, tol),
                abft::Verdict::Clean,
            );
            assert_eq!(abft::strip(&cf, na), abft::strip(&want, na));
        }
    }
}

#[test]
fn force_scalar_env_is_respected() {
    // In the ordinary suite run this pins active() == detect(); in the
    // CI forced-scalar run (CUBEMM_FORCE_SCALAR=1) it proves the
    // override actually downgraded dispatch, so the fallback path is
    // always exercised somewhere.
    let forced = std::env::var("CUBEMM_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    if forced {
        assert_eq!(MicrokernelImpl::active(), MicrokernelImpl::Scalar);
    } else {
        assert_eq!(MicrokernelImpl::active(), MicrokernelImpl::detect());
    }
}
