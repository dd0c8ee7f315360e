//! The 2-D Diagonal algorithm (paper §4.1.1, Algorithm 2) — the stepping
//! stone to the 3-D Diagonal scheme.
//!
//! Matrices live on the diagonal of a `√p × √p` grid: `p_{j,j}` holds
//! column group `j` of A and row group `j` of B. Column `j` of the grid
//! computes the outer product of those groups: the diagonal node
//! broadcasts its A columns and scatters its B rows down the column, each
//! node multiplies, and a reduction along the rows returns the result to
//! the diagonal, aligned like A.
//!
//! Applicability: `√p | n` (column/row groups and scatter chunks), the
//! `p ≤ n²` condition in Table-3 terms.

use cubemm_collectives::{bcast_plan, execute_fused, reduce_sum, scatter_plan};
use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{partition, Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::Grid2;

use crate::util::{delivered, phase_tag, require_divides, square_order, to_matrix};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that the 2-D Diagonal algorithm can run `n × n` on `p`
/// processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid2::new(p)?;
    require_divides(n, grid.q(), "sqrt(p) column/row groups")?;
    Ok(())
}

/// Multiplies `a · b` with the 2-D Diagonal algorithm on a simulated
/// `p`-node hypercube.
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
    let w = n / q; // group width

    // Only diagonal nodes start with data: column group j of A and row
    // group j of B.
    let inits: Vec<Option<(Payload, Payload)>> = (0..p)
        .map(|label| {
            let (i, j) = grid.coords(label);
            (i == j).then(|| {
                (
                    partition::col_group(a, q, j).into_payload().into(),
                    partition::row_group(b, q, j).into_payload().into(),
                )
            })
        })
        .collect();

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, init| async move {
        let (i, j) = grid.coords(proc.id());
        let me = proc.id();
        let port = proc.port_model();

        // Phase 1 (fused): broadcast A's column group and scatter B's row
        // group along the processor column (x direction), both rooted at
        // the diagonal node (rank j within the column).
        let (a_data, b_parts) = match init {
            Some((pa, pb)) => {
                proc.track_peak_words(2 * n * w);
                let bm = to_matrix(w, n, &pb);
                let parts: Vec<Payload> = (0..q)
                    .map(|k| bm.block(0, k * w, w, w).into_payload().into())
                    .collect();
                (Some(pa), Some(parts))
            }
            None => (None, None),
        };
        let col = grid.col(j); // rank within the column = row coordinate i
        let mut ba = bcast_plan(port, &col, me, j, phase_tag(0), a_data, n * w);
        let mut sb = scatter_plan(port, &col, me, j, phase_tag(1), b_parts, w * w);
        execute_fused(&mut proc, &mut [ba.run_mut(), sb.run_mut()]).await;
        let a_group = ba.finish(); // col group j of A
        let b_chunk = sb.finish(); // cols [i·w, (i+1)w) of row group j
        proc.track_peak_words(n * w + w * w + n * w);

        // Local outer-product slice: columns [i·w, (i+1)·w) of A_j · B_j.
        let mut part = Matrix::zeros(n, w);
        gemm_acc(
            &mut part,
            MatrixView::new(n, w, &a_group),
            MatrixView::new(w, w, &b_chunk),
            kernel,
        );

        // Phase 2: reduce along the row (y direction) to the diagonal
        // node p_{i,i}; the sum over j is column group i of C.
        let row = grid.row(i); // rank within the row = column coordinate j
        reduce_sum(&mut proc, &row, i, phase_tag(2), part.into_payload().into()).await
    })?;

    let mut c = Matrix::zeros(n, n);
    for k in 0..q {
        let payload = delivered(out.outputs[grid.node(k, k)].as_ref(), "diagonal holds C");
        let group = to_matrix(n, w, payload);
        c.paste(0, k * w, &group);
    }
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
        let a = Matrix::random(n, n, 51);
        let b = Matrix::random(n, n, 52);
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
        run(16, 16, PortModel::MultiPort);
        run(16, 64, PortModel::OnePort);
    }

    #[test]
    fn one_port_phase_costs() {
        // Broadcast of n·n/√p words + scatter of (√p−1)(n/√p)² words +
        // reduction of n·n/√p words, all along log √p dimensions.
        let n = 16;
        let p = 16;
        let q = 4.0f64;
        let nf = n as f64;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let bcast_words = 2.0 * nf * nf / q; // log √p · M
        let scatter_words = (q - 1.0) * (nf / q) * (nf / q);
        let reduce_words = 2.0 * nf * nf / q;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 2.0 + 2.0 + 2.0),
            (
                CostParams::WORDS_ONLY,
                bcast_words + scatter_words + reduce_words,
            ),
        ] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn rejects_shapes() {
        assert!(check(8, 8).is_err());
        assert!(check(6, 16).is_err());
        assert!(check(8, 16).is_ok());
    }
}
