//! The Fox–Otto–Hey algorithm (the paper's reference \[4\]:
//! "Matrix algorithms on a hypercube I"), the broadcast-multiply-roll
//! scheme: at step `k`, the owner of `A_{i,(i+k) mod √p}` broadcasts it
//! along row `i`, every node multiplies it with its current B block, and
//! B rolls up one position. Included as the remaining classical baseline
//! of the paper's §1 literature list.
//!
//! On a hypercube each row broadcast costs a full SBT
//! (`log √p (t_s + t_w·m)` one-port) *per step*, so Fox pays
//! `√p·log √p` start-ups against Cannon's `2√p` — the reason the paper's
//! comparison set drops it in favor of Cannon/HJE (measured in tests).
//!
//! B's unit rolls use the Gray-ring embedding (as in
//! [`crate::cannon_torus`]); broadcasts run on the row subcubes.

use cubemm_collectives::bcast;
use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::{gray, Grid2};

use crate::cannon_torus::GrayRing;
use crate::util::{delivered, phase_tag, shift_round, square_order};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that Fox's algorithm can run `n × n` on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    crate::cannon::check(n, p)
}

/// Multiplies `a · b` with the Fox–Otto–Hey algorithm on a simulated
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
    let bs = n / q;
    let ring = GrayRing(grid);
    let kernel = cfg.kernel;
    // A's home block stays resident all run; B rolls.
    let inits = || ring.inits(a, b);
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (a_home, mut b)| async move {
        let (i, j) = ring.coords(proc.id());
        proc.track_peak_words(4 * bs * bs); // A home + A bcast + B + C

        let row = grid.row(gray(i)); // rank within row = gray(column)
        let mut c = Matrix::zeros(bs, bs);
        for k in 0..q {
            // Broadcast A_{i, (i+k) mod q} along the row.
            let owner = (i + k) % q;
            let root_rank = gray(owner);
            let data = (owner == j).then(|| a_home.clone());
            let ak = bcast(
                &mut proc,
                &row,
                root_rank,
                phase_tag(2 * k as u64),
                data,
                bs * bs,
            )
            .await;
            gemm_acc(
                &mut c,
                MatrixView::new(bs, bs, &ak),
                MatrixView::new(bs, bs, &b),
                kernel,
            );

            // Roll B up one ring position (except after the last step).
            if k + 1 == q {
                break;
            }
            let tag = phase_tag(2 * k as u64 + 1);
            let up = (ring.node(i + q - 1, j), ring.node(i + 1, j), tag, b);
            let mut received = shift_round(&mut proc, [up]).await.into_iter().flatten();
            b = delivered(received.next(), "rolled B");
        }
        Payload::from(c.into_payload())
    })?;

    let c = ring.assemble(n, &out.outputs);
    Ok(RunResult::from_run(c, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 65);
        let b = Matrix::random(n, n, 66);
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
    fn startup_count_is_q_logq_plus_rolls() {
        // One-port: q broadcasts of log q start-ups + (q−1) rolls.
        let n = 16;
        let p = 16; // q = 4
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::new(PortModel::OnePort, CostParams::STARTUPS_ONLY);
        let res = multiply(&a, &b, p, &cfg).unwrap();
        assert_eq!(res.stats.elapsed, (4 * 2 + 3) as f64); // 11
    }

    #[test]
    fn fox_loses_to_cannon_on_hypercubes() {
        // The reason the paper's §5 comparison keeps Cannon and drops
        // Fox: per-step broadcasts beat per-step shifts only if start-ups
        // are free.
        let n = 32;
        let p = 64; // q = 8
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::new(PortModel::OnePort, CostParams::PAPER);
        let fox = multiply(&a, &b, p, &cfg).unwrap().stats.elapsed;
        let cannon = crate::cannon::multiply(&a, &b, p, &cfg)
            .unwrap()
            .stats
            .elapsed;
        assert!(cannon < fox, "cannon {cannon} vs fox {fox}");
    }
}
