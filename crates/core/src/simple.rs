//! Algorithm *Simple* (paper §3.1): every processor all-to-all broadcasts
//! its A block along its grid row and its B block along its grid column,
//! then multiplies locally. Fast in start-ups but very space-hungry
//! (`2n²√p` words overall, Table 3).

use cubemm_collectives::{allgather_plan, execute_fused};
use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::Grid2;

use crate::util::{assemble_blocks, phase_tag, square_blocks, square_order};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that Simple can run `n × n` matrices on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    crate::cannon::check(n, p)
}

/// Multiplies `a · b` with Algorithm Simple on a simulated `p`-node
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
        proc.track_peak_words(2 * bs * bs);

        // Both all-to-all broadcast phases, fused: on multi-port machines
        // they proceed in parallel (paper §3.1), on one-port they
        // serialize through the port.
        let port = proc.port_model();
        let row = grid.row(i); // rank within row = column index
        let col = grid.col(j); // rank within col = row index
        let mut ga = allgather_plan(port, &row, proc.id(), phase_tag(0), pa);
        let mut gb = allgather_plan(port, &col, proc.id(), phase_tag(1), pb);
        execute_fused(&mut proc, &mut [ga.run_mut(), gb.run_mut()]).await;
        let a_row = ga.finish(); // a_row[k] = A_{i,k}
        let b_col = gb.finish(); // b_col[k] = B_{k,j}
        proc.track_peak_words(2 * q * bs * bs + bs * bs);

        let mut c = Matrix::zeros(bs, bs);
        for (ak, bk) in a_row.iter().zip(&b_col) {
            gemm_acc(
                &mut c,
                MatrixView::new(bs, bs, ak),
                MatrixView::new(bs, bs, bk),
                kernel,
            );
        }
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
        let a = Matrix::random(n, n, 11);
        let b = Matrix::random(n, n, 22);
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
        run(16, 16, PortModel::MultiPort);
    }

    #[test]
    fn one_port_cost_matches_table2() {
        // Table 2: (a, b) = (log p, 2 n²/√p (1 - 1/√p)).
        let n = 16;
        let p = 16;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 4.0), // log p
            (
                CostParams::WORDS_ONLY,
                2.0 * (n * n) as f64 / 4.0 * (1.0 - 0.25),
            ),
        ] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect);
        }
    }

    #[test]
    fn multi_port_cost_matches_table2() {
        // Table 2: (a, b) = (log p / 2, n²/(√p log √p) (1 - 1/√p)).
        let n = 16;
        let p = 16;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 2.0),
            (
                CostParams::WORDS_ONLY,
                (n * n) as f64 / (4.0 * 2.0) * (1.0 - 0.25),
            ),
        ] {
            let cfg = MachineConfig::new(PortModel::MultiPort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(5, 4);
        let cfg = MachineConfig::default();
        assert!(matches!(
            multiply(&a, &b, 4, &cfg),
            Err(AlgoError::BadShapes { .. })
        ));
    }

    #[test]
    fn rejects_indivisible_n() {
        assert!(matches!(
            check(6, 16),
            Err(AlgoError::Indivisible { divisor: 4, .. })
        ));
    }

    #[test]
    fn rejects_odd_dimension_cube() {
        assert!(matches!(check(8, 8), Err(AlgoError::Topology(_))));
    }

    #[test]
    fn space_is_2n2_sqrt_p() {
        // Table 3: overall space 2 n² √p (plus the n²/p output per node).
        let n = 16;
        let p = 16;
        let res = run(n, p, PortModel::OnePort);
        let expected = 2 * n * n * 4 + n * n; // gathered A,B + C blocks
        assert_eq!(res.stats.total_peak_words(), expected);
    }
}
