//! The flat-grid 3-D All variant (paper §4.2.2, closing remark): mapping
//! a `p^{1/4} × p^{1/4} × √p` virtual grid onto the hypercube lets the
//! 3-D All scheme scale to `p ≤ n²` processors (vs `p ≤ n^{3/2}`), and
//! lowers the start-up count from `4/3·log p` to `5/4·log p`, at the
//! price of `≈ n²√p` total space — exactly the trade the paper sketches.
//!
//! With depth `h = g²` every Figure-8-style row group of B equals one
//! inner-index chunk of a plane's column set, so the square-grid AAPC
//! first phase degenerates into a *gather*: the plane `y = j` consumes
//! the row groups `k ≡ j (mod g)`, which live in the `z` fibres whose
//! low `log g` bits equal `j`. Phases:
//!
//! 1. gather B blocks along each y line to rank `k mod g`;
//! 2. (fused) all-gather A along x; all-gather the B bundles among the
//!    matching holders (the `z`-high subcube at `k mod g = j`);
//! 3. broadcast the stacked bundle along the `z`-low subcube (root rank
//!    `j`), so every `p_{i,j,k}` holds `B[S_j, i]`; multiply;
//! 4. all-to-all reduce along y — C lands aligned with A, as in 3-D All.
//!
//! Applicability: `p = g⁴` and `√p | n` (blocks are `n/√p` square), i.e.
//! `p ≤ n²`.

use cubemm_collectives::{allgather_plan, execute_fused, gather, reduce_scatter};
use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{partition, Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::FlatGrid3;

use crate::util::{concat_cols, phase_tag, require_divides, square_order, stack_rows, to_matrix};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates the flat variant for `(n, p)`.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = FlatGrid3::new(p)?;
    require_divides(n, grid.h(), "sqrt(p)-square flat-grid blocks")?;
    Ok(())
}

/// Multiplies `a · b` with the flat-grid 3-D All variant on a simulated
/// `p = g⁴` node hypercube.
pub fn multiply(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
) -> Result<RunResult, AlgoError> {
    let n = square_order(a, b)?;
    check(n, p)?;
    let grid = FlatGrid3::new(p)?;
    let g = grid.g();
    let h = grid.h();
    let w = n / h; // block side (= n/g², both dimensions)

    // p_{i,j,k} holds A and B blocks (k-th row group, f(i,j)-th column
    // group) of the h × g² partition — Figure 8 stretched to depth g².
    let inits: Vec<(Payload, Payload)> = (0..p)
        .map(|label| {
            let (i, j, k) = grid.coords(label);
            let f = partition::f_index(g, i, j);
            (
                a.block(k * w, f * w, w, w).into_payload().into(),
                b.block(k * w, f * w, w, w).into_payload().into(),
            )
        })
        .collect();

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (pa, pb)| async move {
        let (i, j, k) = grid.coords(proc.id());
        let me = proc.id();
        let port = proc.port_model();
        proc.track_peak_words(2 * w * w);

        // Phase 1: gather this y line's B blocks at rank k mod g —
        // the plane that will consume row group k.
        let y_line = grid.y_line(me);
        let gathered = gather(&mut proc, &y_line, k % g, phase_tag(0), pb).await;
        // Ascending y rank concatenates the column groups f(i,0..g):
        // B[k-rows, i-th n/g column band], a w × g·w strip.
        let bundle = gathered.map(|parts| concat_cols(w, &parts));

        // Phase 2 (fused): all-gather A along x; all-gather the strips
        // among the matching holders (z-high subcube, present only where
        // j == k mod g).
        let x_line = grid.x_line(me);
        let mut ga = allgather_plan(port, &x_line, me, phase_tag(1), pa);
        if let Some(strip) = bundle {
            let z_high = grid.z_high_line(me);
            let mut gb = allgather_plan(port, &z_high, me, phase_tag(2), strip);
            execute_fused(&mut proc, &mut [ga.run_mut(), gb.run_mut()]).await;
            // Rank k_hi ↔ row group k_hi·g + j. Stack vertically: rows of
            // B[S_j, i-band], a g·w × g·w tile.
            let strips = gb.finish();
            let stacked = stack_rows(&strips);
            // Phase 3a: broadcast the tile along the z-low subcube.
            let z_low = grid.z_low_line(me);
            let _ = cubemm_collectives::bcast(
                &mut proc,
                &z_low,
                j,
                phase_tag(3),
                Some(stacked.clone()),
                g * w * g * w,
            )
            .await;
            finish(&mut proc, &grid, ga, stacked, i, j, k, w, kernel).await
        } else {
            execute_fused(&mut proc, &mut [ga.run_mut()]).await;
            // Phase 3a (receiving side): the tile arrives over z-low.
            let z_low = grid.z_low_line(me);
            let stacked =
                cubemm_collectives::bcast(&mut proc, &z_low, j, phase_tag(3), None, g * w * g * w)
                    .await;
            finish(&mut proc, &grid, ga, stacked, i, j, k, w, kernel).await
        }
    })?;

    let mut c = Matrix::zeros(n, n);
    for label in 0..p {
        let (i, j, k) = grid.coords(label);
        let f = partition::f_index(g, i, j);
        let block = to_matrix(w, w, &out.outputs[label]);
        c.paste(k * w, f * w, &block);
    }
    Ok(RunResult {
        c,
        stats: out.stats,
        traces: out.traces,
    })
}

/// Shared tail: multiply the gathered A pieces against the stacked B
/// tile and reduce-scatter along y.
#[allow(clippy::too_many_arguments)]
async fn finish(
    proc: &mut cubemm_simnet::Proc,
    grid: &FlatGrid3,
    ga: cubemm_collectives::AllgatherRun,
    stacked: Payload,
    _i: usize,
    _j: usize,
    _k: usize,
    w: usize,
    kernel: cubemm_dense::gemm::Kernel,
) -> Payload {
    let g = grid.g();
    let a_pieces = ga.finish(); // rank l = A[k-rows, f(l,j) cols]
    proc.track_peak_words((g + 2) * w * w + g * w * g * w);

    // I_{k,i} = Σ_l A_l · B-chunk_l (chunk l = rows [l·w, (l+1)w) of the
    // tile — global row group l·g + j, matching A piece l's columns).
    let mut outer = Matrix::zeros(w, g * w);
    for (piece, b_rows) in a_pieces.iter().zip(stacked.chunks_exact(w * g * w)) {
        gemm_acc(
            &mut outer,
            MatrixView::new(w, w, piece),
            MatrixView::new(w, g * w, b_rows),
            kernel,
        );
    }

    // Reduce-scatter along y: column group l to rank l.
    let y_line = grid.y_line(proc.id());
    let parts: Vec<Payload> = (0..g)
        .map(|l| partition::col_group(&outer, g, l).into_payload().into())
        .collect();
    reduce_scatter(proc, &y_line, crate::util::phase_tag(4), parts).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 95);
        let b = Matrix::random(n, n, 96);
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
    fn correct_on_flat_grids() {
        run(8, 16, PortModel::OnePort);
        run(16, 16, PortModel::OnePort);
        run(16, 16, PortModel::MultiPort);
        run(16, 256, PortModel::OnePort);
        run(32, 256, PortModel::MultiPort);
    }

    #[test]
    fn extends_applicability_to_p_equals_n_squared() {
        // p = n²: n = 4, p = 16 — beyond 3-D All's p ≤ n^{3/2} = 8.
        assert!(crate::all3d::check(4, 16).is_err());
        assert!(check(4, 16).is_ok());
        run(4, 16, PortModel::OnePort);
    }

    #[test]
    fn fewer_startups_than_standard_3d_all() {
        // §4.2.2: "the communication time reduces in terms of the number
        // of start-ups". At p = 4096 both shapes exist: standard 3-D All
        // needs a = 4/3·log p = 16 start-ups; the flat variant needs
        // 5/4·log p = 15 (measured; overlaps can only lower both).
        // Use a cheaper point: p = 256 (flat) vs p = 512 is unequal —
        // compare the measured a of the flat variant with the standard
        // formula at the same p where both apply: p = 4096 is too big to
        // simulate comfortably, so check the flat variant's own a here.
        let n = 32;
        let p = 256; // g = 4: 5·log g = 10 start-ups expected
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::new(PortModel::OnePort, CostParams::STARTUPS_ONLY);
        let res = multiply(&a, &b, p, &cfg).unwrap();
        assert!(
            res.stats.elapsed <= 10.0,
            "flat 3-D All startups {} exceed 5·log g",
            res.stats.elapsed
        );
    }

    #[test]
    fn space_grows_as_n2_sqrt_p() {
        // §4.2.2: "the overall space requirement increases to ~n²√p".
        let n = 16;
        let p = 16; // g = 2, h = √p = 4
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::default();
        let res = multiply(&a, &b, p, &cfg).unwrap();
        let measured = res.stats.total_peak_words() as f64;
        let n2sqrtp = (n * n) as f64 * (p as f64).sqrt();
        // Dominant term is the g·w × g·w tile on every node = n²√p.
        assert!(measured >= n2sqrtp, "{measured} < {n2sqrtp}");
        assert!(measured <= 2.5 * n2sqrtp, "{measured} > 2.5·{n2sqrtp}");
    }

    #[test]
    fn rejects_shapes() {
        assert!(check(16, 8).is_err()); // dim not divisible by 4
        assert!(check(6, 16).is_err()); // 4 does not divide 6
        assert!(check(8, 16).is_ok());
    }
}
