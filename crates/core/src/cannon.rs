//! Cannon's algorithm (paper §3.2) in its hypercube-native XOR/Gray form.
//!
//! On a hypercube the classical "shift right/down by one" torus steps are
//! realised as XOR steps through the binary-reflected Gray sequence:
//! after the skew, processor `p_{i,j}` holds `A_{i, i⊕j⊕v}` and
//! `B_{i⊕j⊕v, j}` with `v` walking `gray(0), gray(1), …` — each step
//! flips a single coordinate bit, i.e. moves blocks between hypercube
//! neighbors, and `v` visits all `√p` alignments. (Gray-code linearity
//! over GF(2), `gray(a⊕b) = gray(a)⊕gray(b)`, is property-tested in
//! `cubemm-topology`.) The skew itself becomes `log √p` pairwise
//! dimension exchanges, giving the paper's `2·log √p (t_s + t_w·m)`
//! alignment cost.
//!
//! The A and B movements of each step are issued as one batch: multi-port
//! nodes overlap them ("halving the time required", §3.2), one-port
//! nodes serialize them — both measured, matching Table 2.

use std::future::Future;

use cubemm_dense::gemm::{gemm_acc, Kernel};
use cubemm_dense::{Matrix, MatrixView};
use cubemm_simnet::{Payload, Proc};
use cubemm_topology::{gray_delta_bit, Grid2};

use crate::util::{
    assemble_blocks, delivered, phase_tag, require_divides, shift_round, square_blocks,
    square_order,
};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that Cannon can run `n × n` matrices on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid2::new(p)?;
    require_divides(n, grid.q(), "sqrt(p) x sqrt(p) block partition")?;
    Ok(())
}

/// The skew-then-shift-multiply-add body shared with Berntsen's algorithm
/// (which runs Cannon inside each subcube on rectangular blocks) and the
/// two supernode combinations.
///
/// `node_of(i, j)` maps virtual grid coordinates to hypercube labels;
/// each single-bit coordinate change must be a single hop (guaranteed by
/// the grid embeddings). `a` and `b` are this node's row-major blocks of
/// the `m × k · k × n` product; they stay the payloads they arrived as —
/// multiplied through views and forwarded by move, never copied. Returns
/// this node's accumulated `m × n` block of `C`.
#[allow(clippy::too_many_arguments)]
pub(crate) async fn cannon_phase(
    proc: &mut Proc,
    node_of: &dyn Fn(usize, usize) -> usize,
    i: usize,
    j: usize,
    q: usize,
    a: Payload,
    b: Payload,
    shape: (usize, usize, usize),
    kernel: Kernel,
) -> Matrix {
    let (a, b) = skew(proc, node_of, i, j, q, a, b).await;
    // √p multiplies interleaved with √p − 1 Gray-sequence XOR shifts of
    // both matrices.
    shift_multiply(proc, q, a, b, shape, kernel, |step| {
        let bit = gray_delta_bit(step);
        let (a_to, b_to) = (node_of(i, j ^ (1 << bit)), node_of(i ^ (1 << bit), j));
        ((a_to, a_to), (b_to, b_to))
    })
    .await
}

/// The XOR skew of Cannon and HJE (Algorithm 1's first loop):
/// `A_{i,j} -> p_{i, j XOR i}` and `B_{i,j} -> p_{i XOR j, j}`, one
/// coordinate bit per round, both matrices batched per round. Resolves
/// to this node's skewed A and B blocks.
pub(crate) fn skew<'a>(
    proc: &'a mut Proc,
    node_of: &'a dyn Fn(usize, usize) -> usize,
    i: usize,
    j: usize,
    q: usize,
    a: Payload,
    b: Payload,
) -> impl Future<Output = (Payload, Payload)> + 'a {
    let rounds = q.trailing_zeros() as usize;
    align(proc, rounds, a, b, move |bit| {
        let (a_to, b_to) = (node_of(i, j ^ (1 << bit)), node_of(i ^ (1 << bit), j));
        let tag = bit as u64;
        (
            ((i >> bit) & 1 == 1).then_some((a_to, a_to, phase_tag(0) + tag)),
            ((j >> bit) & 1 == 1).then_some((b_to, b_to, phase_tag(1) + tag)),
        )
    })
}

/// The alignment rounds of the Cannon family (the XOR skew, the torus
/// alignment): in round `t`, A moves along `moves(t).0` and B along
/// `moves(t).1` — each `(to, from, tag)`, or `None` to stay put — and
/// each moved block is replaced by the one received. Resolves to the
/// aligned A and B blocks.
pub(crate) async fn align(
    proc: &mut Proc,
    rounds: usize,
    mut a: Payload,
    mut b: Payload,
    moves: impl Fn(usize) -> (Option<(usize, usize, u64)>, Option<(usize, usize, u64)>),
) -> (Payload, Payload) {
    for t in 0..rounds {
        let (a_move, b_move) = moves(t);
        let a_out = a_move.map(|(to, from, tag)| (to, from, tag, std::mem::take(&mut a)));
        let b_out = b_move.map(|(to, from, tag)| (to, from, tag, std::mem::take(&mut b)));
        let moves = a_out.into_iter().chain(b_out);
        let mut received = shift_round(proc, moves).await.into_iter().flatten();
        if a_move.is_some() {
            a = delivered(received.next(), "aligned A");
        }
        if b_move.is_some() {
            b = delivered(received.next(), "aligned B");
        }
    }
    (a, b)
}

/// The shift-multiply-add phase of the Cannon family: `q` multiplies of
/// this node's `m × k` A block and `k × n` B block into C, with a shift
/// round of both between consecutive multiplies. Before multiply
/// `step + 1`, A moves to `to` and is replaced from `from` per
/// `neighbors(step).0`, and B per `neighbors(step).1`.
pub(crate) async fn shift_multiply(
    proc: &mut Proc,
    q: usize,
    mut a: Payload,
    mut b: Payload,
    (m, k, n): (usize, usize, usize),
    kernel: Kernel,
    neighbors: impl Fn(usize) -> ((usize, usize), (usize, usize)),
) -> Matrix {
    let mut c = Matrix::zeros(m, n);
    for step in 0..q {
        gemm_acc(
            &mut c,
            MatrixView::new(m, k, &a),
            MatrixView::new(k, n, &b),
            kernel,
        );
        if step + 1 == q {
            break;
        }
        let ((a_to, a_from), (b_to, b_from)) = neighbors(step);
        let (a_tag, b_tag) = (phase_tag(2) + step as u64, phase_tag(3) + step as u64);
        let moves = [(a_to, a_from, a_tag, a), (b_to, b_from, b_tag, b)];
        let mut received = shift_round(proc, moves).await.into_iter().flatten();
        a = delivered(received.next(), "shifted A");
        b = delivered(received.next(), "shifted B");
    }
    c
}

/// Multiplies `a · b` with Cannon's algorithm on a simulated `p`-node
/// hypercube.
pub fn multiply(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
) -> Result<RunResult, AlgoError> {
    let n = square_order(a, b)?;
    check(n, p)?;
    let grid = Grid2::new(p)?;
    let q = grid.q();
    let bs = n / q;

    let inits = || square_blocks(a, b, q, |label| grid.coords(label));
    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (pa, pb)| async move {
        let (i, j) = grid.coords(proc.id());
        // Constant storage: A, B, C blocks (Table 3: 3n² overall).
        proc.track_peak_words(3 * bs * bs);
        let node_of = |x: usize, y: usize| grid.node(x, y);
        let shape = (bs, bs, bs);
        let c = cannon_phase(&mut proc, &node_of, i, j, q, pa, pb, shape, kernel).await;
        Payload::from(c.into_payload())
    })?;

    let c = assemble_blocks(n, q, &out.outputs, |i, j| grid.node(i, j));
    Ok(RunResult::from_run(c, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let cfg = MachineConfig::new(port, CostParams { ts: 10.0, tw: 2.0 });
        let res = multiply(&a, &b, p, &cfg).expect("applicable");
        let want = reference(&a, &b);
        assert!(
            res.c.max_abs_diff(&want) < 1e-9 * n as f64,
            "wrong product for n={n} p={p}"
        );
        res
    }

    #[test]
    fn correct_on_small_grids() {
        run(8, 4, PortModel::OnePort);
        run(8, 16, PortModel::OnePort);
        run(16, 64, PortModel::OnePort);
        run(16, 16, PortModel::MultiPort);
        run(16, 64, PortModel::MultiPort);
    }

    #[test]
    fn trivial_single_processor() {
        run(4, 1, PortModel::OnePort);
    }

    #[test]
    fn one_port_cost_matches_table2() {
        // Table 2: a = 2(√p - 1) + log p,
        //          b = (n²/√p)(2 - 2/√p + log p /√p).
        let n = 16;
        let p = 16;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let sq = 4.0f64;
        let n2 = (n * n) as f64;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 2.0 * (sq - 1.0) + 4.0),
            (
                CostParams::WORDS_ONLY,
                n2 / sq * (2.0 - 2.0 / sq + 4.0 / sq),
            ),
        ] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect);
        }
    }

    #[test]
    fn multi_port_cost_matches_table2() {
        // Table 2: a = √p - 1 + log p / 2,
        //          b = (n²/√p)(1 - 1/√p + log p/(2√p)).
        let n = 16;
        let p = 16;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let sq = 4.0f64;
        let n2 = (n * n) as f64;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, sq - 1.0 + 2.0),
            (
                CostParams::WORDS_ONLY,
                n2 / sq * (1.0 - 1.0 / sq + 4.0 / (2.0 * sq)),
            ),
        ] {
            let cfg = MachineConfig::new(PortModel::MultiPort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect);
        }
    }

    #[test]
    fn identity_times_identity() {
        let n = 8;
        let a = Matrix::identity(n);
        let b = Matrix::identity(n);
        let cfg = MachineConfig::default();
        let res = multiply(&a, &b, 16, &cfg).unwrap();
        assert!(res.c.max_abs_diff(&Matrix::identity(n)) < 1e-12);
    }

    #[test]
    fn rejects_indivisible() {
        assert!(check(10, 16).is_err());
        assert!(check(8, 8).is_err());
    }
}
