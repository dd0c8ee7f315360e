//! The 3-D All_Trans algorithm (paper §4.2.1, Algorithm 4) — the 2-D
//! Diagonal scheme extended so that *every* column of processors (not
//! just the diagonal) carries data, with Bᵀ initially distributed like A.
//!
//! `p_{i,j,k}` holds `A_{k,f(i,j)}` (Figure 8) and `B_{f(i,j),k}`
//! (Figure 9), `f(i,j) = i·∛p + j`. Three phases:
//!
//! 1. all-to-one (gather) along x: `B_{f(i,j),k} → p_{k,j,k}`, i.e. each
//!    row of B collects in the x–z plane it belongs to;
//! 2. fused: all-to-all broadcast of the A blocks along x, and one-to-all
//!    broadcast of the gathered B bundles along z — then every
//!    `p_{i,j,k}` holds `A_{k,f(*,j)}` and `B_{f(*,j),i}` and computes
//!    the outer-product block `I_{k,i}` of plane `y = j`;
//! 3. all-to-all reduction along y: column group `l` of `I_{k,i}` goes to
//!    `p_{i,l,k}`, summing into `C_{k,f(i,j)}` — C aligned like A.
//!
//! Applicability: `p^{2/3} | n` (Figure 8/9 blocks), i.e. `p ≤ n^{3/2}`.

use cubemm_collectives::{allgather_plan, bcast_plan, execute_fused, gather, reduce_scatter};
use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{partition, Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::Grid3;

use crate::util::{
    concat_cols, delivered, phase_tag, require_divides, square_order, stack_rows, to_matrix,
};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that 3-D All_Trans can run `n × n` on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid3::new(p)?;
    let q = grid.q();
    require_divides(n, q * q, "Figure 8/9 p^(2/3)-way partitions")?;
    Ok(())
}

/// Multiplies `a · b` with the 3-D All_Trans algorithm on a simulated
/// `p`-node hypercube.
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

    let inits = || -> Vec<(Payload, Payload)> {
        (0..p)
            .map(|label| {
                let (i, j, k) = grid.coords(label);
                let f = partition::f_index(q, i, j);
                (
                    partition::wide(a, q, k, f).into_payload().into(),
                    partition::tall(b, q, f, k).into_payload().into(),
                )
            })
            .collect()
    };

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (pa, pb)| async move {
        program(&mut proc, &grid, pa, pb, kernel).await
    })?;
    Ok(assemble(n, p, &grid, out))
}

/// §4.1.1's workaround measured: when B starts *identically* distributed
/// to A (the Figure 8 layout, as 3-D All assumes), first redistribute it
/// into the Figure 9 layout All_Trans needs — a distributed transpose-
/// style exchange in which node `p_{i,j,k}` ships row group `l` of its
/// block to `p_{k,l,i}` — then run the normal algorithm. The extra phase
/// is exactly the "additional communication overhead" the paper says
/// 3-D All avoids; `tests/extensions.rs` measures the gap.
pub fn multiply_from_identical(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
) -> Result<RunResult, AlgoError> {
    let n = square_order(a, b)?;
    check(n, p)?;
    let grid = Grid3::new(p)?;
    let q = grid.q();
    let sub = n / (q * q); // row-group height = Figure 9 block rows

    let inits = || -> Vec<(Payload, Payload)> {
        (0..p)
            .map(|label| {
                let (i, j, k) = grid.coords(label);
                let f = partition::f_index(q, i, j);
                (
                    partition::wide(a, q, k, f).into_payload().into(),
                    partition::wide(b, q, k, f).into_payload().into(),
                )
            })
            .collect()
    };

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (pa, pb)| async move {
        let (i, j, k) = grid.coords(proc.id());

        // Phase 0 — redistribution: my wide block B_{k, f(i,j)} covers
        // rows of the Figure 9 blocks B_{f(k, l), i}; its row group l
        // belongs to node p_{k, l, i} (as columns chunk j of that node's
        // tall block).
        let mut own_piece: Option<Payload> = None;
        for l in 0..q {
            // Row group l of my n/q × sub block: whole rows, a window.
            let piece = pb.slice(l * sub * sub, (l + 1) * sub * sub);
            let dest = grid.node(k, l, i);
            if dest == proc.id() {
                own_piece = Some(piece);
            } else {
                proc.send_routed(dest, phase_tag(8) + l as u64, piece);
            }
        }
        // Collect my tall block B_{f(i,j), k}: column chunk j' arrives
        // from p_{k, j', i} — sources mirror the destinations.
        let mut pieces: Vec<Payload> = Vec::with_capacity(q);
        for jp in 0..q {
            let src = grid.node(k, jp, i);
            let payload = if src == proc.id() {
                delivered(own_piece.clone(), "own transpose piece")
            } else {
                proc.recv(src, phase_tag(8) + j as u64).await
            };
            pieces.push(payload);
        }
        let tall = concat_cols(sub, &pieces);

        program(&mut proc, &grid, pa, tall, kernel).await
    })?;
    Ok(assemble(n, p, &grid, out))
}

/// The SPMD body shared by both entry points; `pb` is this node's
/// Figure 9 block `B_{f(i,j),k}`.
async fn program(
    proc: &mut cubemm_simnet::Proc,
    grid: &Grid3,
    pa: Payload,
    pb: Payload,
    kernel: cubemm_dense::gemm::Kernel,
) -> Payload {
    let q = grid.q();
    let n_over_q2 = {
        // Recover block shape from the payload (rows n/q², cols n/q).
        let words = pb.len();
        // words = (n/q²)·(n/q) and side = n/q = q·(n/q²).
        ((words / q) as f64).sqrt() as usize
    };
    let tall_r = n_over_q2;
    let wide_c = n_over_q2;
    let side = q * n_over_q2;
    {
        let (i, j, k) = grid.coords(proc.id());
        let me = proc.id();
        let port = proc.port_model();
        proc.track_peak_words(2 * side * wide_c);

        // Phase 1: gather the B blocks of this x line at rank k
        // (p_{k,j,k}); member rank l contributed B_{f(l,j),k}.
        let x_line = grid.x_line(j, k);
        let gathered = gather(proc, &x_line, k, phase_tag(0), pb).await;

        // Phase 2 (fused): all-gather A along x; broadcast the stacked B
        // bundle along z from rank i (p_{i,j,i}, a gather root).
        // Ascending rank order stacks the tall blocks vertically: rows of
        // B_{f(*,j),k} in f order — an n/q × n/q matrix.
        let bundle = gathered.map(|parts| stack_rows(&parts));
        let z_line = grid.z_line(i, j);
        let mut ga = allgather_plan(port, &x_line, me, phase_tag(1), pa);
        let mut bb = bcast_plan(port, &z_line, me, i, phase_tag(2), bundle, side * side);
        execute_fused(proc, &mut [ga.run_mut(), bb.run_mut()]).await;
        let a_blocks = ga.finish(); // a_blocks[l] = A_{k, f(l,j)}
        let b_bundle = bb.finish(); // B_{f(*,j),i}, side × side
        proc.track_peak_words((q + 1) * side * wide_c + side * side + side * side);

        // Outer-product block of plane y = j:
        // I_{k,i} = Σ_l A_{k,f(l,j)} · B_{f(l,j),i}.
        let mut outer = Matrix::zeros(side, side);
        // Slice by index, not `chunks_exact`: at n = 0 a chunk is empty.
        let b_words = tall_r * side;
        for (l, a_block) in a_blocks.iter().enumerate() {
            let b_rows = &b_bundle[l * b_words..(l + 1) * b_words];
            gemm_acc(
                &mut outer,
                MatrixView::new(side, wide_c, a_block),
                MatrixView::new(tall_r, side, b_rows),
                kernel,
            );
        }

        // Phase 3: all-to-all reduction along y; destination rank l gets
        // column group l, so this node ends with C_{k,f(i,j)}.
        let y_line = grid.y_line(i, k);
        let parts: Vec<Payload> = (0..q)
            .map(|l| partition::col_group(&outer, q, l).into_payload().into())
            .collect();
        reduce_scatter(proc, &y_line, phase_tag(3), parts).await
    }
}

/// Reassembles C from the per-node Figure 8 output blocks.
fn assemble(
    n: usize,
    p: usize,
    grid: &Grid3,
    out: cubemm_simnet::RunOutcome<Payload>,
) -> RunResult {
    let q = grid.q();
    let side = n / q;
    let wide_c = n / (q * q);
    let mut c = Matrix::zeros(n, n);
    for label in 0..p {
        let (i, j, k) = grid.coords(label);
        let f = partition::f_index(q, i, j);
        let block = to_matrix(side, wide_c, &out.outputs[label]);
        c.paste(k * side, f * wide_c, &block);
    }
    RunResult::from_run(c, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 71);
        let b = Matrix::random(n, n, 72);
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
    }

    #[test]
    fn one_port_cost_matches_table2() {
        // Table 2: a = 4/3 log p,
        //          b = (n²/p^{2/3})(3(1 − 1/∛p) + 1/3 log p).
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let n2p = (n * n) as f64 / 4.0;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 4.0),
            (CostParams::WORDS_ONLY, n2p * (3.0 * 0.5 + 1.0)),
        ] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn multi_port_cost_matches_table2() {
        // Table 2: a = log p,
        //          b = (n²/p^{2/3})(6/log p (1 − 1/∛p) + 1).
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let n2p = (n * n) as f64 / 4.0;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 3.0),
            (CostParams::WORDS_ONLY, n2p * (2.0 * 0.5 + 1.0)),
        ] {
            let cfg = MachineConfig::new(PortModel::MultiPort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn rejects_shapes() {
        assert!(check(16, 16).is_err());
        assert!(check(6, 8).is_err());
        assert!(check(16, 8).is_ok());
    }

    #[test]
    fn from_identical_distribution_is_correct_but_costs_more() {
        // §4.1.1's transpose workaround: correct product, strictly more
        // communication than the direct run that starts from the
        // Figure 9 layout — and (the paper's point) more than 3-D All,
        // which needs no workaround at all.
        for (n, p) in [(16usize, 8usize), (16, 64)] {
            let a = Matrix::random(n, n, 73);
            let b = Matrix::random(n, n, 74);
            let cfg = MachineConfig::new(PortModel::OnePort, CostParams { ts: 10.0, tw: 2.0 });
            let via_transpose = multiply_from_identical(&a, &b, p, &cfg).unwrap();
            let want = reference(&a, &b);
            assert!(via_transpose.c.max_abs_diff(&want) < 1e-9 * n as f64);
            let direct = multiply(&a, &b, p, &cfg).unwrap();
            assert!(via_transpose.stats.elapsed > direct.stats.elapsed);
            let all3d = crate::all3d::multiply(&a, &b, p, &cfg).unwrap();
            assert!(
                all3d.stats.elapsed < via_transpose.stats.elapsed,
                "3-D All {} should beat transpose+All_Trans {}",
                all3d.stats.elapsed,
                via_transpose.stats.elapsed
            );
        }
    }
}
