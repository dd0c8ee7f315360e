//! Equivalence suite for the host reference kernel.
//!
//! The contract (DESIGN.md §9): `Kernel::Blocked` — and therefore
//! `gemm::reference` — computes every `C[i][j]` as `c += a·b` for
//! ascending `l`, each product and each sum separately rounded. Tile
//! size and instruction set change the loop nest and the vector width,
//! never that per-element sequence, so the result is **bitwise** equal
//! to the loop the repository verified against before the kernel was
//! rewritten. That loop is frozen below as the oracle.
//!
//! Every compiled instantiation (baseline, AVX2, AVX-512) is driven
//! explicitly where the host can run it, and each test prints which it
//! compared; the baseline is additionally pinned as the *dispatched*
//! one by the CUBEMM_FORCE_SCALAR=1 run of this suite, and miri runs it
//! on its reduced shape set (see .github/workflows/ci.yml).

use cubemm_dense::gemm::{
    alongside_reference, blocked_acc_with_isa, gemm_acc, reference, Kernel, ReferenceIsa,
    PAR_MIN_ELEMS,
};
use cubemm_dense::{Matrix, MatrixView};

/// The pre-rewrite `gemm.rs::blocked`, verbatim: square `tile`-sized
/// blocking of a row-at-a-time `ikj` loop.
fn frozen_blocked(c: &mut Matrix, a: &Matrix, b: &Matrix, tile: usize) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i0 in (0..m).step_by(tile) {
        let imax = (i0 + tile).min(m);
        for l0 in (0..k).step_by(tile) {
            let lmax = (l0 + tile).min(k);
            for j0 in (0..n).step_by(tile) {
                let jmax = (j0 + tile).min(n);
                for i in i0..imax {
                    for l in l0..lmax {
                        let aval = a[(i, l)];
                        let brow = &b.row(l)[j0..jmax];
                        let crow = &mut c.as_mut_slice()[i * n + j0..i * n + jmax];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aval * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Every instantiation the host can execute, printed so that a host
/// without a vector build shows it as skipped rather than passed.
fn isas() -> Vec<ReferenceIsa> {
    let v = ReferenceIsa::available();
    let skipped: Vec<_> = [ReferenceIsa::Avx2, ReferenceIsa::Avx512]
        .into_iter()
        .filter(|isa| !v.contains(isa))
        .collect();
    eprintln!("reference instantiations compared: {v:?}; skipped, not on this host: {skipped:?}");
    v
}

/// Bit-for-bit equality (`Matrix: PartialEq` would call `-0 == +0`
/// equal), except that a NaN matches any NaN: the language leaves a
/// computed NaN's sign and payload unspecified (x86 already differs
/// between operand orders of one `add`), so "NaN in exactly the same
/// places" is the strongest claim two compilations of one loop can make.
fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:e}, oracle says {w:e}"
        );
    }
}

/// Ragged in every dimension: not multiples of the 4-row sweep, of the
/// tile, or of a vector; vectors; empties; `k` running several of the
/// reference's 64-deep slabs past the first. Miri keeps the small ones.
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut v = vec![
        (1, 1, 1),
        (1, 19, 1),
        (4, 4, 4),
        (5, 7, 3),
        (3, 9, 17),
        (7, 5, 9),
        (0, 5, 3),
        (3, 0, 2),
        (4, 6, 0),
    ];
    if !cfg!(miri) {
        v.extend([
            (13, 70, 66),
            (66, 65, 67),
            (130, 3, 259),
            (9, 130, 258),
            (64, 64, 256),
            (9, 600, 19),
            (4, 513, 8),
        ]);
    }
    v
}

/// `usize::MAX` is one tile over the whole product: the tile and slab
/// arithmetic saturates rather than wrapping.
const TILES: [usize; 5] = [1, 4, 64, 1000, usize::MAX];

#[test]
fn every_tile_and_isa_matches_the_frozen_loop_bitwise() {
    for (case, (m, k, n)) in shapes().into_iter().enumerate() {
        let seed = 7000 + case as u64;
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let mut want = Matrix::zeros(m, n);
        frozen_blocked(&mut want, &a, &b, 64);
        for tile in TILES {
            // The old loop was itself tile-invariant; check the oracle
            // is a fair one before leaning on it.
            let mut old = Matrix::zeros(m, n);
            frozen_blocked(&mut old, &a, &b, tile);
            assert_same_bits(&old, &want, &format!("oracle tile {tile} at {m}x{k}x{n}"));
            for isa in isas() {
                let mut got = Matrix::zeros(m, n);
                blocked_acc_with_isa(&mut got, &a, &b, tile, isa);
                assert_same_bits(&got, &want, &format!("{isa:?} tile {tile} at {m}x{k}x{n}"));
            }
            let mut got = Matrix::zeros(m, n);
            gemm_acc(&mut got, &a, &b, Kernel::Blocked(tile));
            assert_same_bits(
                &got,
                &want,
                &format!("dispatched tile {tile} at {m}x{k}x{n}"),
            );
        }
        assert_same_bits(
            &reference(&a, &b),
            &want,
            &format!("reference at {m}x{k}x{n}"),
        );
    }
}

#[test]
fn accumulates_into_a_nonzero_c_like_the_frozen_loop() {
    // Each register tile is loaded from `C` and written back once per
    // slab, so a product `k` deep crosses the write-back at every slab
    // boundary (64 for the reference; 1 and 4 for the small tiles).
    let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
        &[(6, 5, 7), (5, 9, 10)]
    } else {
        &[(23, 70, 69), (9, 130, 17), (6, 193, 8)]
    };
    for &(m, k, n) in shapes {
        let a = Matrix::random(m, k, 11);
        let b = Matrix::random(k, n, 12);
        let c0 = Matrix::random(m, n, 13);
        let mut want = c0.clone();
        frozen_blocked(&mut want, &a, &b, 64);
        for tile in TILES {
            for isa in isas() {
                let mut got = c0.clone();
                blocked_acc_with_isa(&mut got, &a, &b, tile, isa);
                assert_same_bits(&got, &want, &format!("{isa:?} tile {tile} at {m}x{k}x{n}"));
            }
        }
    }
}

#[test]
fn special_values_propagate_exactly_like_the_frozen_loop() {
    // ±0, ±inf and NaN sprinkled over both operands: no `a == 0` skip,
    // no reassociation, no FMA — so signed zeros, inf − inf = NaN and
    // every NaN land where the old loop put them.
    let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let (m, k, n) = if cfg!(miri) { (5, 6, 7) } else { (11, 37, 41) };
    let salt = |m: &mut Matrix, stride: usize| {
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if i % stride == 0 {
                *v = specials[(i / stride) % specials.len()];
            }
        }
    };
    let mut a = Matrix::random(m, k, 21);
    let mut b = Matrix::random(k, n, 22);
    salt(&mut a, 7);
    salt(&mut b, 5);
    // All-zero rows and columns keep some outputs finite (and signed).
    for l in 0..k {
        a[(1, l)] = if l % 2 == 0 { 0.0 } else { -0.0 };
        b[(l, 2)] = -0.0;
    }
    let mut want = Matrix::zeros(m, n);
    frozen_blocked(&mut want, &a, &b, 64);
    assert!(want.as_slice().iter().any(|v| v.is_nan()));
    assert!(want.as_slice().iter().any(|v| v.is_finite()));
    for tile in TILES {
        for isa in isas() {
            let mut got = Matrix::zeros(m, n);
            blocked_acc_with_isa(&mut got, &a, &b, tile, isa);
            assert_same_bits(&got, &want, &format!("{isa:?} tile {tile}"));
        }
    }
}

#[test]
fn special_values_straddling_a_slab_boundary_propagate_exactly() {
    // The last `l` of one slab and the first of the next carry ±0, ±inf
    // and NaN, so an inf from one slab meets a −inf (or a NaN) from the
    // next only after the tile went through `C` in memory. `C` starts at
    // −0, which keeps the sign of an all-zero sum observable.
    let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let (slab, m, n) = if cfg!(miri) { (4, 5, 9) } else { (64, 11, 21) };
    let k = 2 * slab + 2;
    let mut a = Matrix::random(m, k, 23);
    let mut b = Matrix::random(k, n, 24);
    for l in [slab - 1, slab] {
        for i in 0..m {
            a[(i, l)] = specials[(i + l) % specials.len()];
        }
        for j in 0..n {
            b[(l, j)] = specials[(j + 2 * l) % specials.len()];
        }
    }
    // Row 1 · column 2 is a sum of −0 products only: −0 if and only if
    // no `+0` ever enters it, across the slab boundary too.
    for l in 0..k {
        a[(1, l)] = 0.0;
        b[(l, 2)] = -0.0;
    }
    let c0 = Matrix::from_fn(m, n, |_, _| -0.0);
    let mut want = c0.clone();
    frozen_blocked(&mut want, &a, &b, 64);
    let v = want.as_slice();
    assert!(v.iter().any(|v| v.is_nan()));
    assert!(v.iter().any(|v| v.is_infinite()));
    assert!(v.iter().any(|v| v.is_finite()));
    assert_eq!(want[(1, 2)].to_bits(), (-0.0f64).to_bits());
    for tile in TILES {
        for isa in isas() {
            let mut got = c0.clone();
            blocked_acc_with_isa(&mut got, &a, &b, tile, isa);
            assert_same_bits(&got, &want, &format!("{isa:?} tile {tile}"));
        }
    }
}

/// `b`'s words copied `phase` words into a fresh buffer: with phases
/// 0..8, the kernel sees `B` start at every 8-byte offset within a
/// 64-byte cache line.
fn at_phase(b: &Matrix, phase: usize) -> Vec<f64> {
    let mut buf = vec![0.0; phase + b.words()];
    buf[phase..].copy_from_slice(b.as_slice());
    buf
}

#[test]
fn every_ragged_edge_of_the_register_tile_matches_at_every_line_phase() {
    // Full 8-column strips start where `B`'s first row meets a cache
    // line, so which columns the register tile covers depends on where
    // `B` sits: all eight phases are tried. `m mod 4 ∈ {1, 2, 3}` leaves
    // rows below the last four-row quad; `n < 8` has no full strip at
    // all; `8 < n < 16` leaves `n mod 8 ∈ {1..7}` columns.
    let (k, ms, ns, phases): (usize, &[usize], Vec<usize>, Vec<usize>) = if cfg!(miri) {
        (3, &[5, 7], vec![3, 13], vec![0, 3])
    } else {
        (
            70,
            &[5, 6, 7],
            (1..16).filter(|&n| n != 8).collect(),
            (0..8).collect(),
        )
    };
    for &m in ms {
        for &n in &ns {
            let a = Matrix::random(m, k, 40 + m as u64);
            let b = Matrix::random(k, n, 60 + n as u64);
            let mut want = Matrix::zeros(m, n);
            frozen_blocked(&mut want, &a, &b, 64);
            for &phase in &phases {
                let buf = at_phase(&b, phase);
                let b = MatrixView::new(k, n, &buf[phase..]);
                for tile in TILES {
                    for isa in isas() {
                        let mut got = Matrix::zeros(m, n);
                        blocked_acc_with_isa(&mut got, &a, b, tile, isa);
                        assert_same_bits(
                            &got,
                            &want,
                            &format!("{isa:?} tile {tile} at {m}x{k}x{n}, B phase {phase}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn forced_scalar_pins_the_dispatched_instantiation() {
    let forced = std::env::var("CUBEMM_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    if forced || cfg!(miri) {
        assert_eq!(ReferenceIsa::active(), ReferenceIsa::Baseline);
    } else {
        assert_eq!(ReferenceIsa::active(), ReferenceIsa::detect());
    }
}

/// Operands just below (`false`) or above (`true`) the overlap
/// threshold — cheap on the `m` side, so the above case stays fast.
fn operands(above: bool) -> (Matrix, Matrix) {
    let (m, k, n) = if above { (17, 1024, 1024) } else { (5, 9, 7) };
    assert_eq!(m * k * n > PAR_MIN_ELEMS, above);
    (Matrix::random(m, k, 31), Matrix::random(k, n, 32))
}

#[test]
#[cfg_attr(miri, ignore = "the above-threshold product is too slow interpreted")]
fn overlapped_and_sequential_orders_return_the_same_pair() {
    for above in [false, true] {
        let (a, b) = operands(above);
        let caller = std::thread::current().id();
        let (out, got) = alongside_reference(&a, &b, || {
            // `work` always runs on the caller, whichever side of the
            // threshold: only the reference ever moves to a thread.
            assert_eq!(std::thread::current().id(), caller);
            cubemm_dense::gemm::matmul(&a, &b)
        });
        let want = reference(&a, &b);
        assert_same_bits(&got.expect("reference"), &want, "reference half");
        assert_same_bits(&out, &cubemm_dense::gemm::matmul(&a, &b), "work half");
    }
}

#[test]
#[cfg_attr(miri, ignore = "the above-threshold product is too slow interpreted")]
fn a_failing_work_closure_still_joins_the_reference() {
    for above in [false, true] {
        let (a, b) = operands(above);
        let (out, got) = alongside_reference(&a, &b, || Err::<(), _>("simulated deadlock"));
        assert_eq!(out, Err("simulated deadlock"));
        assert_same_bits(&got.expect("reference"), &reference(&a, &b), "after Err");
    }
}

#[test]
#[cfg_attr(miri, ignore = "the above-threshold product is too slow interpreted")]
fn a_panicking_work_closure_unwinds_after_the_join() {
    for above in [false, true] {
        let (a, b) = operands(above);
        let caught = std::panic::catch_unwind(|| {
            alongside_reference(&a, &b, || -> () { panic!("work blew up") })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"work blew up"));
    }
}

#[test]
#[cfg_attr(miri, ignore = "the above-threshold product is too slow interpreted")]
fn a_panicking_reference_comes_back_as_a_typed_error() {
    // Mismatched inner dimensions make the reference itself panic; on
    // either side of the threshold that is an `Err`, and `work`'s value
    // survives.
    for (m, k, n) in [(3, 4, 5), (17, 1024, 1024)] {
        let a = Matrix::zeros(m, k);
        let b = Matrix::zeros(k + 1, n);
        let (out, got) = alongside_reference(&a, &b, || 42);
        assert_eq!(out, 42);
        let err = got.expect_err("mismatched operands cannot have a reference");
        assert!(
            err.contains("host reference panicked") && err.contains("inner dimension mismatch"),
            "{err}"
        );
    }
}
