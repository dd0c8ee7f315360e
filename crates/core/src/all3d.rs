//! The 3-D All algorithm — the paper's headline contribution (§4.2.2,
//! Algorithm 5, Figure 12).
//!
//! Unlike 3-D All_Trans, A and B start *identically* distributed:
//! `p_{i,j,k}` holds `A_{k,f(i,j)}` and `B_{k,f(i,j)}` in the Figure 8
//! layout. Three phases:
//!
//! 1. all-to-all personalized communication along y: `p_{i,j,k}` sends
//!    row group `l` of its B block to `p_{i,l,k}`; the pieces a node
//!    receives are exactly the Figure 9 block `B_{f(k,j),i}` (proof of
//!    correctness in §4.2.2);
//! 2. fused all-to-all broadcasts: A blocks along x, the reassembled B
//!    blocks along z — every `p_{i,j,k}` then holds `A_{k,f(*,j)}` and
//!    `B_{f(*,j),i}` and computes the outer-product block `I_{k,i}`;
//! 3. all-to-all reduction along y, summing column group `j` of the `∛p`
//!    outer products into `C_{k,f(i,j)}` — aligned like the inputs.
//!
//! The paper shows 3-D All has the least communication overhead of all
//! known hypercube algorithms wherever it applies (`p ≤ n^{3/2}`), on
//! both one-port and multi-port machines.
//!
//! Applicability: `p^{2/3} | n`, i.e. `p ≤ n^{3/2}`.

use cubemm_collectives::{allgather_plan, alltoall_personalized, execute_fused, reduce_scatter};
use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{partition, Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::Grid3;

use crate::util::{col_groups, concat_cols, phase_tag, require_divides, square_order, to_matrix};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that 3-D All can run `n × n` matrices on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid3::new(p)?;
    let q = grid.q();
    require_divides(n, q * q, "Figure 8 p^(2/3)-way partition")?;
    Ok(())
}

/// Multiplies `a · b` with the 3-D All algorithm on a simulated `p`-node
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
    let side = n / q; // block rows
    let wide_c = n / (q * q); // block cols
    let sub = side / q; // rows of a row group of a block (= n/q²)

    let inits: Vec<(Payload, Payload)> = (0..p)
        .map(|label| {
            let (i, j, k) = grid.coords(label);
            let f = partition::f_index(q, i, j);
            (
                partition::wide(a, q, k, f).into_payload().into(),
                partition::wide(b, q, k, f).into_payload().into(),
            )
        })
        .collect();

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (pa, pb)| async move {
        let (i, j, k) = grid.coords(proc.id());
        let me = proc.id();
        let port = proc.port_model();
        proc.track_peak_words(2 * side * wide_c);

        // Phase 1: all-to-all personalized along y. Destination rank l
        // receives row group l of each member's B block.
        let y_line = grid.y_line(i, k);
        let group = sub * wide_c;
        let parts: Vec<Payload> = (0..q)
            .map(|l| pb.slice(l * group, (l + 1) * group))
            .collect();
        let received = alltoall_personalized(&mut proc, &y_line, phase_tag(0), parts).await;

        // Reassemble: piece from origin l is the j-th row group of
        // B_{k,f(i,l)}; side by side (l ascending) they form the Figure 9
        // block B_{f(k,j),i} (§4.2.2 proof of correctness).
        let b_tall = concat_cols(sub, &received); // sub × side = n/q² × n/q
                                                  // An async body keeps its locals to its end, and low labels reach
                                                  // the reduce while higher ones still gather (DESIGN.md §11, "The
                                                  // ready set"): drop each block once it is dead.
        drop((pb, received));

        // Phase 2 (fused): all-gather A along x and the reassembled B
        // along z.
        let x_line = grid.x_line(j, k);
        let z_line = grid.z_line(i, j);
        let mut ga = allgather_plan(port, &x_line, me, phase_tag(1), pa);
        let mut gb = allgather_plan(port, &z_line, me, phase_tag(2), b_tall);
        execute_fused(&mut proc, &mut [ga.run_mut(), gb.run_mut()]).await;
        let a_blocks = ga.finish(); // a_blocks[l] = A_{k, f(l,j)}
        let b_blocks = gb.finish(); // b_blocks[l] = B_{f(l,j), i}
        proc.track_peak_words(2 * (q + 1) * side * wide_c + side * side);

        // I_{k,i} = Σ_l A_{k,f(l,j)} · B_{f(l,j),i}.
        let mut outer = Matrix::zeros(side, side);
        for (ab, bb) in a_blocks.iter().zip(&b_blocks) {
            gemm_acc(
                &mut outer,
                MatrixView::new(side, wide_c, ab),
                MatrixView::new(sub, side, bb),
                kernel,
            );
        }

        drop((a_blocks, b_blocks));
        // Phase 3: all-to-all reduction along y (column group l to rank
        // l) — this node ends with C_{k,f(i,j)}.
        reduce_scatter(&mut proc, &y_line, phase_tag(3), col_groups(&outer, q)).await
    })?;

    let mut c = Matrix::zeros(n, n);
    for label in 0..p {
        let (i, j, k) = grid.coords(label);
        let f = partition::f_index(q, i, j);
        let block = to_matrix(side, wide_c, &out.outputs[label]);
        c.paste(k * side, f * wide_c, &block);
    }
    Ok(RunResult::from_run(c, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 81);
        let b = Matrix::random(n, n, 82);
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
        run(16, 8, PortModel::OnePort);
        run(16, 64, PortModel::OnePort);
        run(16, 8, PortModel::MultiPort);
        run(16, 64, PortModel::MultiPort);
        run(32, 64, PortModel::MultiPort);
    }

    #[test]
    fn one_port_cost_matches_table2() {
        // Table 2: a = 4/3 log p,
        //          b = (n²/p^{2/3})(3(1 − 1/∛p) + log p/(6 ∛p)).
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let n2p = (n * n) as f64 / 4.0;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 4.0),
            (CostParams::WORDS_ONLY, n2p * (3.0 * 0.5 + 3.0 / 12.0)),
        ] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn multi_port_cost_matches_table2() {
        // Table 2 (large-message row): a = log p,
        //          b = (n²/p^{2/3})(6/log p (1 − 1/∛p) + 1/(2∛p)).
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let n2p = (n * n) as f64 / 4.0;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 3.0),
            (CostParams::WORDS_ONLY, n2p * (2.0 * 0.5 + 0.25)),
        ] {
            let cfg = MachineConfig::new(PortModel::MultiPort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn output_alignment_matches_input_alignment() {
        let n = 8;
        let a = Matrix::random(n, n, 9);
        let b = Matrix::identity(n);
        let cfg = MachineConfig::default();
        let res = multiply(&a, &b, 8, &cfg).unwrap();
        assert!(res.c.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn rejects_shapes() {
        assert!(check(16, 16).is_err());
        assert!(check(6, 8).is_err());
        assert!(check(16, 8).is_ok());
    }
}
