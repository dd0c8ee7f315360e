//! Algorithm-based fault tolerance (ABFT) over any registered algorithm.
//!
//! The Huang–Abraham scheme protects a distributed multiplication
//! without modifying the algorithm itself: `A` is extended with a
//! column-checksum row and `B` with a row-checksum column
//! ([`cubemm_dense::abft::augment`]), the *unmodified* registered
//! algorithm multiplies the augmented matrices, and the checksum
//! invariants of the product locate and correct a single corrupted
//! contribution ([`cubemm_dense::abft::verify_and_correct`]). The
//! wrapper here glues those kernels to the [`Algorithm`] registry:
//!
//! 1. [`padded_order`] finds the smallest augmented order `N > n` the
//!    algorithm accepts on `p` nodes (checksums live at index `n`; the
//!    region between `n + 1` and `N` is zero padding that every
//!    algorithm carries transparently),
//! 2. [`multiply_abft`] runs the algorithm on the augmented inputs and
//!    classifies the product as [`AbftOutcome::Clean`],
//!    [`AbftOutcome::Corrected`], or [`AbftOutcome::Uncorrectable`],
//!    returning the stripped `n × n` product.
//!
//! Corruption *detection* needs no redundant computation — the checksum
//! row/column ride along the normal data motion — so the overhead is
//! the `O(N² − n²)` extra words of traffic and arithmetic. Recovery
//! from uncorrectable patterns (multiple faults, crashed nodes) is the
//! harness's job: see `cubemm-harness`'s quarantine-and-rerun driver.

use std::collections::BTreeSet;

use cubemm_dense::{abft as kernels, Matrix};
use cubemm_simnet::{RunStats, TraceEvent};

use crate::{AlgoError, Algorithm, MachineConfig};

/// How far past `n` [`padded_order`] searches for an acceptable
/// augmented order before giving up. Generous: every registered
/// algorithm accepts *some* multiple of its grid side within twice the
/// data order plus one grid side.
const PAD_SEARCH_SPAN: usize = 64;

/// What the checksum verification concluded about a protected run.
#[derive(Debug, Clone, PartialEq)]
pub enum AbftOutcome {
    /// Every residual was within tolerance: no corruption detected.
    Clean,
    /// Residuals located a correctable error pattern and the product
    /// was repaired in place.
    Corrected {
        /// Corrected entries `(row, col)` of the augmented product, in
        /// the order the passes applied them.
        entries: Vec<(usize, usize)>,
        /// The implicated block `(block_row, block_col)` of the
        /// canonical `√p × √p` layout, when `p` is a perfect square
        /// whose side divides the augmented order and every corrected
        /// entry falls in one block. `None` when the corruption smeared
        /// across blocks (e.g. an in-flight `A` word corrupts a whole
        /// product row) or no square layout applies.
        block: Option<(usize, usize)>,
        /// Row-major rank of `block` in the `√p × √p` grid — the
        /// suspect node under the canonical block-to-node assignment.
        node: Option<usize>,
    },
    /// The residual pattern implicates more than one corrupted
    /// contribution; the product cannot be trusted or repaired.
    Uncorrectable {
        /// Rows of the augmented product with inconsistent checksums.
        rows: Vec<usize>,
        /// Columns of the augmented product with inconsistent checksums.
        cols: Vec<usize>,
    },
}

impl AbftOutcome {
    /// Whether the returned product is trustworthy (clean or repaired).
    pub fn is_good(&self) -> bool {
        !matches!(self, AbftOutcome::Uncorrectable { .. })
    }
}

/// A completed checksum-protected multiplication.
#[derive(Debug)]
pub struct AbftResult {
    /// The stripped `n × n` product (trustworthy iff
    /// `outcome.is_good()`).
    pub c: Matrix,
    /// What verification concluded.
    pub outcome: AbftOutcome,
    /// Virtual-time and traffic statistics of the augmented run.
    pub stats: RunStats,
    /// Per-node event traces (empty unless `MachineConfig::traced`).
    pub traces: Vec<Vec<TraceEvent>>,
    /// The augmented order `N` the algorithm actually ran at.
    pub augmented: usize,
}

/// The smallest order `N > n` at which `algo` accepts an `N × N`
/// problem on `p` nodes — the augmented order a checksum-protected run
/// uses. Index `n` holds the checksum row/column; rows and columns
/// `n + 1 .. N` are zero padding.
///
/// Returns the algorithm's own applicability error for the last order
/// of `n + 1 ..= 2n + 64` if none fits, which in practice means `p`
/// itself is unacceptable (e.g. not a power of two, or too large for
/// any order in range). A `p` no order can cure is answered at once.
///
/// The search skips what cannot fit: every block side an algorithm
/// demands depends on `p` alone, so an [`AlgoError::Indivisible`] order
/// jumps to the next multiple of its divisor. The supernode layouts
/// report a split that fits no order as [`AlgoError::Topology`]; their
/// sides are powers of two, so such an order jumps by its lowest set
/// bit — unless order `p`, which every power-of-two side divides, fails
/// the same way, in which case no order helps.
pub fn padded_order(algo: Algorithm, n: usize, p: usize) -> Result<usize, AlgoError> {
    let last = n.saturating_mul(2).saturating_add(PAD_SEARCH_SPAN);
    let mut total = n.saturating_add(1);
    while total < last {
        let next = match algo.check(total, p) {
            Ok(()) => return Ok(total),
            Err(AlgoError::Indivisible { divisor, .. }) => total.checked_next_multiple_of(divisor),
            Err(e @ AlgoError::Topology(_)) => {
                if matches!(algo.check(p, p), Err(AlgoError::Topology(_))) {
                    return Err(e);
                }
                total.checked_add(1 << total.trailing_zeros())
            }
            Err(_) => total.checked_add(1),
        };
        total = next.map_or(last, |next| next.max(total + 1));
    }
    algo.check(last, p).map(|()| last)
}

/// Runs `algo` on checksum-augmented inputs and verifies the product,
/// using a tolerance scaled to the product's magnitude
/// ([`cubemm_dense::abft::default_tolerance`]).
///
/// Simulator failures of the augmented run — deadlocks, unroutable
/// destinations, scheduled node crashes — surface as
/// [`AlgoError::Sim`], exactly as they would from
/// [`Algorithm::multiply`]; a corrupted-but-completed run instead
/// returns `Ok` with the outcome classifying the damage.
pub fn multiply_abft(
    algo: Algorithm,
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
) -> Result<AbftResult, AlgoError> {
    multiply_abft_with_tol(algo, a, b, p, cfg, None)
}

/// [`multiply_abft`] with an explicit residual tolerance (`None` uses
/// the magnitude-scaled default). Integer-valued test matrices can pass
/// a tiny tolerance to make verification exact.
pub fn multiply_abft_with_tol(
    algo: Algorithm,
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
    tol: Option<f64>,
) -> Result<AbftResult, AlgoError> {
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        return Err(AlgoError::BadShapes {
            a: (a.rows(), a.cols()),
            b: (b.rows(), b.cols()),
        });
    }
    let total = padded_order(algo, n, p)?;
    let (aa, bb) = kernels::augment(a, b, total);
    let run = algo.multiply(&aa, &bb, p, cfg)?;
    let mut cf = run.c;
    let tol = tol.unwrap_or_else(|| kernels::default_tolerance(&cf));
    let outcome = match kernels::verify_and_correct(&mut cf, n, tol) {
        kernels::Verdict::Clean => AbftOutcome::Clean,
        kernels::Verdict::Corrected { fixes } => {
            let (block, node) = localize(&fixes, total, p);
            AbftOutcome::Corrected {
                entries: fixes,
                block,
                node,
            }
        }
        kernels::Verdict::Uncorrectable { rows, cols } => AbftOutcome::Uncorrectable { rows, cols },
    };
    Ok(AbftResult {
        c: kernels::strip(&cf, n),
        outcome,
        stats: run.stats,
        traces: run.traces,
        augmented: total,
    })
}

/// Maps a set of corrected entries to the one block (and its canonical
/// row-major owner node) they all fall in, under the `√p × √p` layout —
/// or `None` when `p` has no square grid, the grid side does not divide
/// the augmented order, or the entries span several blocks.
fn localize(
    entries: &[(usize, usize)],
    total: usize,
    p: usize,
) -> (Option<(usize, usize)>, Option<usize>) {
    let q = (p as f64).sqrt().round() as usize;
    if q == 0 || q * q != p || total % q != 0 || entries.is_empty() {
        return (None, None);
    }
    let side = total / q;
    let blocks: BTreeSet<(usize, usize)> =
        entries.iter().map(|&(i, j)| (i / side, j / side)).collect();
    let mut iter = blocks.into_iter();
    match (iter.next(), iter.next()) {
        (Some((bi, bj)), None) => (Some((bi, bj)), Some(bi * q + bj)),
        _ => (None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm;
    use cubemm_simnet::{CorruptKind, Corruption, FaultPlan, RunError};

    /// Small integer-valued matrices so every checksum identity is
    /// exact in f64 and corrected products are bitwise-reproducible.
    fn ints(n: usize, salt: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3 + salt) % 5) as f64 - 2.0)
    }

    #[test]
    fn padded_order_finds_the_next_acceptable_order() {
        // Cannon on p = 4 needs n divisible by √p = 2: first fit past 3
        // is 4.
        assert_eq!(padded_order(Algorithm::Cannon, 3, 4).unwrap(), 4);
        // Berntsen on p = 8 needs tighter divisibility; whatever it
        // picks must pass the algorithm's own check.
        let total = padded_order(Algorithm::Berntsen, 6, 8).unwrap();
        assert!(total > 6);
        Algorithm::Berntsen.check(total, 8).unwrap();
    }

    #[test]
    fn padded_order_propagates_impossible_processor_counts() {
        // p = 6 is not a power of two; no order helps.
        assert!(padded_order(Algorithm::Cannon, 4, 6).is_err());
    }

    /// The first order past `n` that `algo` accepts on `p`, one order at
    /// a time: what the skipping search must agree with.
    fn first_fit(algo: Algorithm, n: usize, p: usize) -> Result<usize, AlgoError> {
        let last = 2 * n + PAD_SEARCH_SPAN;
        (n + 1..last)
            .find(|&total| algo.check(total, p).is_ok())
            .map_or_else(|| algo.check(last, p).map(|()| last), Ok)
    }

    #[test]
    fn padded_order_skips_only_orders_that_cannot_fit() {
        for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
            for p in [1, 2, 4, 6, 8, 16, 32, 64, 128, 256, 512, 4096] {
                for n in [1, 3, 5, 16, 31, 100] {
                    assert_eq!(
                        padded_order(algo, n, p),
                        first_fit(algo, n, p),
                        "{algo} n={n} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn padded_order_answers_huge_orders_at_once() {
        let start = std::time::Instant::now();
        for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
            // No order cures p = 6; a power-of-two p is cured by the next
            // multiple of a block side; the search bound saturates.
            assert!(matches!(
                padded_order(algo, 2_000_000_000, 6),
                Err(AlgoError::Topology(_))
            ));
            let total = padded_order(algo, 2_000_000_000, 4096);
            if let Ok(total) = total {
                algo.check(total, 4096).unwrap();
            }
            let _ = padded_order(algo, usize::MAX - 1, 64);
        }
        assert!(
            start.elapsed().as_secs_f64() < 1.0,
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn healthy_runs_verify_clean_and_match_the_reference() {
        let n = 6;
        let (a, b) = (ints(n, 1), ints(n, 2));
        let want = gemm::reference(&a, &b);
        for (algo, p) in [
            (Algorithm::Simple, 4),
            (Algorithm::Cannon, 4),
            (Algorithm::Dns, 8),
        ] {
            let out =
                multiply_abft_with_tol(algo, &a, &b, p, &MachineConfig::default(), Some(1e-9))
                    .unwrap();
            assert_eq!(out.outcome, AbftOutcome::Clean, "{algo}");
            assert_eq!(out.c.as_slice(), want.as_slice(), "{algo}");
            assert!(out.augmented > n);
        }
    }

    #[test]
    fn rejects_non_square_inputs() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 4);
        let err = multiply_abft(Algorithm::Cannon, &a, &b, 4, &MachineConfig::default());
        assert!(matches!(err, Err(AlgoError::BadShapes { .. })));
    }

    #[test]
    fn a_single_in_flight_corruption_is_corrected_bitwise() {
        let (n, p) = (6, 4);
        let (a, b) = (ints(n, 3), ints(n, 4));
        let want = gemm::reference(&a, &b);
        // Probe plausible corruption sites until one lands on a payload
        // the run actually sends. Simple broadcasts a fresh copy of each
        // block to every consumer, so a corrupted copy damages only the
        // receiver's partial products — a locatable smear. Every probed
        // site must end well: exact product (clean or corrected) or an
        // honest detect-only verdict; a wrong product certified good is
        // the one forbidden outcome.
        let mut corrected = 0usize;
        for (from, to) in [(0usize, 1usize), (0, 2), (1, 0), (3, 1)] {
            for seq in 0..3u64 {
                let plan = FaultPlan::new().with_corruption(
                    from,
                    to,
                    seq,
                    Corruption {
                        word: 1,
                        kind: CorruptKind::Perturb { delta: 64.0 },
                    },
                );
                let cfg = MachineConfig::default().with_faults(plan);
                let out =
                    multiply_abft_with_tol(Algorithm::Simple, &a, &b, p, &cfg, Some(1e-9)).unwrap();
                match out.outcome {
                    AbftOutcome::Clean => {
                        // Site never fired, or hit a word whose damage
                        // cancelled out of the stripped data block —
                        // either way the product must be exact.
                        assert_eq!(out.c.as_slice(), want.as_slice());
                    }
                    AbftOutcome::Corrected { ref entries, .. } => {
                        assert!(!entries.is_empty());
                        assert_eq!(out.c.as_slice(), want.as_slice());
                        corrected += 1;
                    }
                    AbftOutcome::Uncorrectable { .. } => {
                        // Detected but ambiguous: the recovery driver
                        // re-runs instead of trusting the product.
                    }
                }
            }
        }
        assert!(corrected > 0, "no probed site produced a correction");
    }

    #[test]
    fn localization_reports_a_block_only_when_unambiguous() {
        // All entries in block (1, 0) of a 2×2 grid over an 8×8 product.
        let (block, node) = localize(&[(5, 1), (6, 2)], 8, 4);
        assert_eq!(block, Some((1, 0)));
        assert_eq!(node, Some(2));
        // A smeared row spans both column blocks: ambiguous.
        assert_eq!(localize(&[(5, 1), (5, 6)], 8, 4), (None, None));
        // Non-square p never localizes.
        assert_eq!(localize(&[(1, 1)], 8, 8), (None, None));
    }

    #[test]
    fn a_scheduled_crash_surfaces_as_a_sim_error() {
        let (a, b) = (ints(6, 5), ints(6, 6));
        let cfg = MachineConfig::default().with_faults(FaultPlan::new().with_crash(1, 0));
        let err = multiply_abft(Algorithm::Cannon, &a, &b, 4, &cfg);
        match err {
            Err(AlgoError::Sim(RunError::NodeCrashed { node, .. })) => assert_eq!(node, 1),
            other => panic!("expected NodeCrashed, got {other:?}"),
        }
    }
}
