//! Cannon's algorithm in its original 2-D torus form (Cannon 1969),
//! executed on the hypercube through the Gray-code ring embedding.
//!
//! The paper's §3.2 hypercube variant replaces the torus's
//! position-by-position alignment with `log √p` XOR exchanges; this
//! module keeps the *original* unit-shift alignment — row `i` rotates
//! its A blocks left one position per round for `i` rounds (and column
//! `j` rotates B up for `j` rounds) — so the two can be compared
//! directly:
//!
//! * torus form: alignment costs `2(√p−1)(t_s + t_w·m)`,
//! * hypercube form: alignment costs `2·log √p (t_s + t_w·m)`.
//!
//! Ring position `r` of a row/column lives at grid coordinate `gray(r)`,
//! so every unit rotation is a single hypercube hop (the classical
//! Hamiltonian-ring embedding; both directions of the ring are
//! neighbors because the Gray cycle wraps).
//!
//! The shift-multiply-add phase is identical in cost to the hypercube
//! variant; only the alignment differs — measured in the tests below and
//! compared in the `ablation` benches.

use cubemm_dense::Matrix;
use cubemm_simnet::Payload;
use cubemm_topology::{gray, gray_inverse, Grid2};

use crate::cannon::{align, shift_multiply};
use crate::util::{assemble_blocks, phase_tag, square_blocks, square_order};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that torus Cannon can run `n × n` matrices on `p`
/// processors (same shape requirements as the hypercube form).
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    crate::cannon::check(n, p)
}

/// Multiplies `a · b` with torus-form Cannon on a simulated `p`-node
/// hypercube (Gray-ring embedded).
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

    let ring = GrayRing(grid);
    let kernel = cfg.kernel;
    let inits = || ring.inits(a, b);
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (a, b)| async move {
        let (i, j) = ring.coords(proc.id());
        proc.track_peak_words(3 * bs * bs);
        // A moves to its left ring neighbor and B to its up neighbor,
        // each replaced from the opposite side.
        let left = (ring.node(i, j + q - 1), ring.node(i, j + 1));
        let up = (ring.node(i + q - 1, j), ring.node(i + 1, j));

        // Phase 1 — torus alignment: in round t every row with i > t
        // rotates A one position left, every column with j > t rotates B
        // one position up. After q−1 rounds p_{i,j} holds A_{i, i+j} and
        // B_{i+j, j}.
        let (a, b) = align(&mut proc, q - 1, a, b, |t| {
            (
                (i > t).then_some((left.0, left.1, phase_tag(0) + t as u64)),
                (j > t).then_some((up.0, up.1, phase_tag(1) + t as u64)),
            )
        })
        .await;
        // Phase 2 — √p multiplies with unit ring shifts in between,
        // exactly as on a torus.
        let shape = (bs, bs, bs);
        let c = shift_multiply(&mut proc, q, a, b, shape, kernel, |_| (left, up)).await;
        Payload::from(c.into_payload())
    })?;

    let c = ring.assemble(n, &out.outputs);
    Ok(RunResult::from_run(c, out))
}

/// The Gray-ring embedding of the `√p × √p` torus, shared with
/// [`crate::fox`]: ring position `(i, j)` lives at grid coordinate
/// `(gray(i), gray(j))`, so a unit rotation along a row or column is one
/// hypercube hop in either direction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GrayRing(pub(crate) Grid2);

impl GrayRing {
    /// Label of ring position `(i, j)`, each coordinate taken mod `√p`.
    pub(crate) fn node(self, i: usize, j: usize) -> usize {
        let q = self.0.q();
        self.0.node(gray(i % q), gray(j % q))
    }

    /// Ring position of node `label`.
    pub(crate) fn coords(self, label: usize) -> (usize, usize) {
        let (gi, gj) = self.0.coords(label);
        (gray_inverse(gi), gray_inverse(gj))
    }

    /// Block `(i, j)` of `a` and of `b` at ring position `(i, j)`, by label.
    pub(crate) fn inits(self, a: &Matrix, b: &Matrix) -> Vec<(Payload, Payload)> {
        square_blocks(a, b, self.0.q(), |label| self.coords(label))
    }

    /// The `n × n` product from block `(i, j)` at ring position `(i, j)`.
    pub(crate) fn assemble(self, n: usize, outputs: &[Payload]) -> Matrix {
        assemble_blocks(n, self.0.q(), outputs, |i, j| self.node(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 55);
        let b = Matrix::random(n, n, 56);
        let cfg = MachineConfig::new(port, CostParams { ts: 10.0, tw: 2.0 });
        let res = multiply(&a, &b, p, &cfg).expect("applicable");
        let want = reference(&a, &b);
        assert!(
            res.c.max_abs_diff(&want) < 1e-9 * n as f64,
            "wrong product for n={n} p={p} ({port})"
        );
        res
    }

    #[test]
    fn correct_on_small_grids() {
        run(8, 4, PortModel::OnePort);
        run(8, 16, PortModel::OnePort);
        run(16, 64, PortModel::OnePort);
        run(16, 16, PortModel::MultiPort);
        run(4, 1, PortModel::OnePort);
    }

    #[test]
    fn alignment_costs_unit_shifts_not_log() {
        // One-port torus form: a = 2(q−1) alignment + 2(q−1) shifts
        //                        = 4(√p − 1).
        let n = 16;
        let p = 16; // q = 4
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::new(PortModel::OnePort, CostParams::STARTUPS_ONLY);
        let res = multiply(&a, &b, p, &cfg).unwrap();
        assert_eq!(res.stats.elapsed, 12.0); // 4·(4−1)
    }

    #[test]
    fn hypercube_skew_beats_torus_alignment() {
        // The point of §3.2's hypercube form: 2·log √p < 2(√p − 1)
        // alignment start-ups once √p > 2 — measured.
        let n = 32;
        let p = 64; // q = 8: torus 4·7 = 28 vs hypercube 2·7 + log p = 20
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::new(PortModel::OnePort, CostParams::STARTUPS_ONLY);
        let torus = multiply(&a, &b, p, &cfg).unwrap().stats.elapsed;
        let hyper = crate::cannon::multiply(&a, &b, p, &cfg)
            .unwrap()
            .stats
            .elapsed;
        assert_eq!(torus, 28.0);
        assert_eq!(hyper, 20.0);
        assert!(hyper < torus);
    }

    #[test]
    fn runs_on_a_pure_torus_machine() {
        // The original Cannon only ever uses ring links: it must run to
        // completion on a machine stripped down to the 2-D torus. (A
        // q >= 8 ring is a strict subgraph of its dimension group; at
        // q = 4 the ring and the 2-cube coincide, so use p = 64.)
        let n = 16;
        let p = 64; // q = 8, axis_bits = 3
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::default().on_torus(3);
        let res = multiply(&a, &b, p, &cfg).unwrap();
        assert!(res.c.max_abs_diff(&reference(&a, &b)) < 1e-9);
    }

    #[test]
    fn hypercube_cannon_needs_edges_a_torus_lacks() {
        // The XOR-skew form is hypercube-specific: on the torus machine
        // its alignment step tries a missing edge and the simulator
        // reports the offending node as a structured error. (Nodes
        // waiting on the panicked ones are released immediately by the
        // machine-wide abort channel, not by the watchdog.)
        let n = 16;
        let p = 64;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::default().on_torus(3);
        let err = crate::cannon::multiply(&a, &b, p, &cfg).unwrap_err();
        match err {
            crate::AlgoError::Sim(cubemm_simnet::RunError::NodePanicked { message, .. }) => {
                assert!(message.contains("does not exist"), "message: {message}");
            }
            other => panic!("expected Sim(NodePanicked), got {other:?}"),
        }
    }

    #[test]
    fn products_agree_with_hypercube_form_exactly() {
        let n = 16;
        let p = 16;
        let a = Matrix::random(n, n, 3);
        let b = Matrix::random(n, n, 4);
        let cfg = MachineConfig::default();
        let torus = multiply(&a, &b, p, &cfg).unwrap();
        let hyper = crate::cannon::multiply(&a, &b, p, &cfg).unwrap();
        // Both sum the same products per block in a different order;
        // they agree to floating-point roundoff.
        assert!(torus.c.max_abs_diff(&hyper.c) < 1e-12);
    }
}
