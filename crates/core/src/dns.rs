//! The Dekel–Nassimi–Sahni algorithm (paper §3.5), generalized to blocks:
//! A and B start on the `z = 0` plane of a virtual `∛p × ∛p × ∛p` grid;
//! point-to-point transfers lift `A_{ij}` to `p_{i,j,j}` and `B_{ij}` to
//! `p_{i,j,i}`; two one-to-all broadcasts (along y for A, along x for B)
//! give every `p_{i,j,k}` the blocks `A_{ik}` and `B_{kj}`; after the
//! local multiply an all-to-one reduction along z returns `C_{ij}` to the
//! base plane.
//!
//! The two phase-1 transfers both leave along the z dimensions, so even
//! multi-port nodes cannot overlap them (§3.5); the two phase-2
//! broadcasts travel along different grid dimensions and are fused.
//!
//! Applicability: `∛p | n` (square `n/∛p` blocks), i.e. `p ≤ n³`.

use cubemm_collectives::{bcast_plan, execute_fused, reduce_sum};
use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{partition, Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::Grid3;

use crate::util::{delivered, phase_tag, require_divides, square_order, to_matrix};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that DNS can run `n × n` matrices on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid3::new(p)?;
    require_divides(n, grid.q(), "cbrt(p) x cbrt(p) block partition")?;
    Ok(())
}

/// Multiplies `a · b` with the DNS algorithm on a simulated `p`-node
/// hypercube.
pub fn multiply(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
) -> Result<RunResult, AlgoError> {
    let n = square_order(a, b)?;
    check(n, p)?;
    let grid = Grid3::new(p)?;
    let q = grid.q();
    let bs = n / q;

    let inits = || -> Vec<Option<(Payload, Payload)>> {
        (0..p)
            .map(|label| {
                let (i, j, k) = grid.coords(label);
                (k == 0).then(|| {
                    (
                        partition::square(a, q, i, j).into_payload().into(),
                        partition::square(b, q, i, j).into_payload().into(),
                    )
                })
            })
            .collect()
    };

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, init| async move {
        let (i, j, k) = grid.coords(proc.id());
        let me = proc.id();

        // Phase 1: lift A_{ij} to p_{i,j,j} and B_{ij} to p_{i,j,i}.
        // Both transfers travel along z, so they are issued serially
        // even on multi-port nodes (§3.5).
        let mut a_holder: Option<Payload> = None;
        let mut b_holder: Option<Payload> = None;
        if let Some((pa, pb)) = init {
            proc.track_peak_words(2 * bs * bs);
            if j == 0 {
                a_holder = Some(pa);
            } else {
                proc.send_routed(grid.node(i, j, j), phase_tag(0), pa);
            }
            if i == 0 {
                b_holder = Some(pb);
            } else {
                proc.send_routed(grid.node(i, j, i), phase_tag(1), pb);
            }
        }
        if k == j && k != 0 {
            a_holder = Some(proc.recv(grid.node(i, j, 0), phase_tag(0)).await);
        }
        if k == i && k != 0 {
            b_holder = Some(proc.recv(grid.node(i, j, 0), phase_tag(1)).await);
        }

        // Phase 2: broadcast A along y (root p_{i,k,k}, rank k in the y
        // line) and B along x (root p_{k,j,k}, rank k) — fused, so
        // multi-port nodes overlap them.
        let port = proc.port_model();
        let y_line = grid.y_line(i, k);
        let x_line = grid.x_line(j, k);
        let mut ba = bcast_plan(port, &y_line, me, k, phase_tag(2), a_holder, bs * bs);
        let mut bb = bcast_plan(port, &x_line, me, k, phase_tag(3), b_holder, bs * bs);
        execute_fused(&mut proc, &mut [ba.run_mut(), bb.run_mut()]).await;
        let ak = ba.finish(); // A_{i,k}
        let bk = bb.finish(); // B_{k,j}
        proc.track_peak_words(3 * bs * bs);

        let mut c = Matrix::zeros(bs, bs);
        gemm_acc(
            &mut c,
            MatrixView::new(bs, bs, &ak),
            MatrixView::new(bs, bs, &bk),
            kernel,
        );

        // Phase 3: all-to-one reduction along z back to the base plane.
        let z_line = grid.z_line(i, j);
        reduce_sum(&mut proc, &z_line, 0, phase_tag(4), c.into_payload().into()).await
    })?;

    let c = partition::assemble_square(n, q, |i, j| {
        let payload = delivered(
            out.outputs[grid.node(i, j, 0)].as_ref(),
            "base plane holds C",
        );
        to_matrix(bs, bs, payload)
    });
    Ok(RunResult::from_run(c, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 41);
        let b = Matrix::random(n, n, 42);
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
    fn correct_on_small_cubes() {
        run(8, 8, PortModel::OnePort);
        run(16, 64, PortModel::OnePort);
        run(8, 8, PortModel::MultiPort);
        run(16, 64, PortModel::MultiPort);
        run(4, 64, PortModel::OnePort); // p = n³: one element per block
    }

    #[test]
    fn one_port_cost_matches_table2() {
        // Table 2: a = 5/3 log p, b = (n²/p^{2/3}) · 5/3 log p.
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let n2p = (n * n) as f64 / 4.0;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 5.0),
            (CostParams::WORDS_ONLY, n2p * 5.0),
        ] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn multi_port_cost_matches_table2() {
        // Table 2: a = 4/3 log p, b = 4 n²/p^{2/3}.
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let n2p = (n * n) as f64 / 4.0;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 4.0),
            (CostParams::WORDS_ONLY, 4.0 * n2p),
        ] {
            let cfg = MachineConfig::new(PortModel::MultiPort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn rejects_shapes() {
        assert!(check(16, 16).is_err()); // not a cube power
        assert!(check(6, 64).is_err()); // 4 does not divide 6
        assert!(check(4, 64).is_ok());
    }
}
