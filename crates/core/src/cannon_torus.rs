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

use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{partition, Matrix, MatrixView};
use cubemm_simnet::{Op, Payload};
use cubemm_topology::{gray, Grid2};

use crate::util::{delivered, phase_tag, require_divides, square_order, to_matrix};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that torus Cannon can run `n × n` matrices on `p`
/// processors (same shape requirements as the hypercube form).
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid2::new(p)?;
    require_divides(n, grid.q(), "sqrt(p) x sqrt(p) block partition")?;
    Ok(())
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

    // Ring position (i, j) lives at grid coordinate (gray(i), gray(j)).
    let ring_node = move |i: usize, j: usize| grid.node(gray(i % q), gray(j % q));

    let inits: Vec<(Payload, Payload)> = {
        // Build by label: invert the ring placement.
        let mut by_label: Vec<Option<(Payload, Payload)>> = vec![None; p];
        for i in 0..q {
            for j in 0..q {
                by_label[ring_node(i, j)] = Some((
                    partition::square(a, q, i, j).into_payload().into(),
                    partition::square(b, q, i, j).into_payload().into(),
                ));
            }
        }
        by_label
            .into_iter()
            .map(|x| delivered(x, "bijection"))
            .collect()
    };

    let kernel = cfg.kernel;
    let ring_coords = move |label: usize| {
        let (gi, gj) = grid.coords(label);
        (
            cubemm_topology::gray_inverse(gi),
            cubemm_topology::gray_inverse(gj),
        )
    };
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (mut a, mut b)| async move {
        let (i, j) = ring_coords(proc.id());
        proc.track_peak_words(3 * bs * bs);

        // Phase 1 — torus alignment: in round t every row with i > t
        // rotates A one position left, every column with j > t rotates B
        // one position up. After q−1 rounds p_{i,j} holds A_{i, i+j} and
        // B_{i+j, j}.
        for t in 0..q.saturating_sub(1) {
            let mut ops = Vec::new();
            let shift_a = i > t;
            let shift_b = j > t;
            if shift_a {
                let tag = phase_tag(0) + t as u64;
                ops.push(Op::Send {
                    to: ring_node(i, j + q - 1), // left neighbor
                    tag,
                    data: std::mem::take(&mut a),
                });
                ops.push(Op::Recv {
                    from: ring_node(i, j + 1),
                    tag,
                });
            }
            if shift_b {
                let tag = phase_tag(1) + t as u64;
                ops.push(Op::Send {
                    to: ring_node(i + q - 1, j), // up neighbor
                    tag,
                    data: std::mem::take(&mut b),
                });
                ops.push(Op::Recv {
                    from: ring_node(i + 1, j),
                    tag,
                });
            }
            let results = proc.multi(ops).await;
            let mut received = results.into_iter().flatten();
            if shift_a {
                a = delivered(received.next(), "aligned A");
            }
            if shift_b {
                b = delivered(received.next(), "aligned B");
            }
        }

        // Phase 2 — √p multiplies with unit ring shifts in between,
        // exactly as on a torus.
        let mut c = Matrix::zeros(bs, bs);
        for k in 0..q {
            gemm_acc(
                &mut c,
                MatrixView::new(bs, bs, &a),
                MatrixView::new(bs, bs, &b),
                kernel,
            );
            if k + 1 == q {
                break;
            }
            let a_tag = phase_tag(2) + k as u64;
            let b_tag = phase_tag(3) + k as u64;
            let results = proc
                .multi(vec![
                    Op::Send {
                        to: ring_node(i, j + q - 1),
                        tag: a_tag,
                        data: a,
                    },
                    Op::Send {
                        to: ring_node(i + q - 1, j),
                        tag: b_tag,
                        data: b,
                    },
                    Op::Recv {
                        from: ring_node(i, j + 1),
                        tag: a_tag,
                    },
                    Op::Recv {
                        from: ring_node(i + 1, j),
                        tag: b_tag,
                    },
                ])
                .await;
            let mut received = results.into_iter().flatten();
            a = delivered(received.next(), "shifted A");
            b = delivered(received.next(), "shifted B");
        }
        Payload::from(c.into_payload())
    })?;

    let c = partition::assemble_square(n, q, |i, j| {
        to_matrix(bs, bs, &out.outputs[ring_node(i, j)])
    });
    Ok(RunResult {
        c,
        stats: out.stats,
        traces: out.traces,
    })
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
