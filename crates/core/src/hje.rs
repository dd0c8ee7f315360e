//! The Ho–Johnsson–Edelman algorithm (paper §3.3, Algorithm 1): Cannon's
//! algorithm using the *full bandwidth* of the hypercube.
//!
//! During the shift-multiply-add phase each local A block is split into
//! `log √p` column groups and each B block into `log √p` row groups;
//! group `l` shifts along the dimension `g_{l,k}` in which the `l`-bit
//! rotated Gray codes of `k` and `k+1` differ. At every step the
//! `log √p` groups therefore travel over pairwise-distinct row links (and
//! likewise for B over column links), so a multi-port node drives all
//! its links and the per-step data time drops by a factor of `log √p`
//! compared to Cannon. Group `l`'s alignment offset walks the bit-rotated
//! Gray sequence — still a bijection of `0..√p` — and A group `l` always
//! pairs with B group `l`, so every `A_{i,m}·B_{m,j}` term is accumulated
//! exactly once (verified against the sequential reference in tests).
//!
//! The algorithm only differs from Cannon's on multi-port machines; the
//! paper accordingly reports no one-port row for it in Table 2. Running
//! this implementation one-port is allowed (the port serializes the
//! group sends) but costs more start-ups than Cannon.
//!
//! Applicability: `n/√p ≥ log √p` (each block needs at least one column
//! per link), the condition given in §3.3.

use cubemm_dense::gemm::gemm_acc;
use cubemm_dense::{Matrix, MatrixView};
use cubemm_simnet::Payload;
use cubemm_topology::gray::hje_schedule_bit;
use cubemm_topology::Grid2;

use crate::cannon::skew;
use crate::util::{
    assemble_blocks, delivered, phase_tag, require_divides, shift_round, square_blocks,
    square_order,
};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that HJE can run `n × n` matrices on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid2::new(p)?;
    let q = grid.q();
    require_divides(n, q, "sqrt(p) x sqrt(p) block partition")?;
    let d = grid.axis_bits() as usize;
    if d > 0 && n / q < d {
        return Err(AlgoError::BlockTooSmall {
            have: n / q,
            need: d,
        });
    }
    Ok(())
}

/// Bounds of column/row group `l` when a block side of `bs` is split into
/// `groups` near-equal contiguous pieces.
fn group_bounds(bs: usize, groups: usize, l: usize) -> (usize, usize) {
    (l * bs / groups, (l + 1) * bs / groups)
}

/// Multiplies `a · b` with the Ho–Johnsson–Edelman algorithm on a
/// simulated `p`-node hypercube.
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
    let d = grid.axis_bits() as usize;

    let inits = || square_blocks(a, b, q, |label| grid.coords(label));
    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (a, b)| async move {
        let (i, j) = grid.coords(proc.id());
        proc.track_peak_words(3 * bs * bs);

        // Skew exactly as in Cannon (Algorithm 1's first loop is the
        // bitwise XOR alignment).
        let node_of = |x: usize, y: usize| grid.node(x, y);
        let (a, b) = skew(&mut proc, &node_of, i, j, q, a, b).await;

        let mut c = Matrix::zeros(bs, bs);
        if d == 0 {
            // Single processor: one local multiply.
            gemm_acc(
                &mut c,
                MatrixView::new(bs, bs, &a),
                MatrixView::new(bs, bs, &b),
                kernel,
            );
            return Payload::from(c.into_payload());
        }

        // Split A into d column groups (one copy: its rows interleave)
        // and B into d row groups (windows of the block, no copy), kept
        // as [A_0, B_0, A_1, B_1, …]; group l shifts along schedule bit
        // g_{l,k} each step.
        let mut groups: Vec<Payload> = Vec::with_capacity(2 * d);
        for l in 0..d {
            let (lo, hi) = group_bounds(bs, d, l);
            let a_cols = (0..bs).map(|r| &a[r * bs + lo..r * bs + hi]);
            groups.push(Payload::concat(bs * (hi - lo), a_cols));
            groups.push(b.slice(lo * bs, hi * bs));
        }

        let axis_bits = grid.axis_bits();
        for k in 0..q {
            for (l, group) in groups.chunks_exact(2).enumerate() {
                let (lo, hi) = group_bounds(bs, d, l);
                gemm_acc(
                    &mut c,
                    MatrixView::new(bs, hi - lo, &group[0]),
                    MatrixView::new(hi - lo, bs, &group[1]),
                    kernel,
                );
            }
            if k + 1 == q {
                break;
            }
            let moves = groups.drain(..).enumerate().map(|(x, block)| {
                let (l, is_b) = (x / 2, x % 2 == 1);
                let bit = 1 << hje_schedule_bit(l as u32, k, axis_bits);
                let to = if is_b {
                    grid.node(i ^ bit, j)
                } else {
                    grid.node(i, j ^ bit)
                };
                let tag = phase_tag(2 + u64::from(is_b)) + (k * d + l) as u64;
                (to, to, tag, block)
            });
            let mut received = shift_round(&mut proc, moves).await.into_iter().flatten();
            groups.extend((0..2 * d).map(|_| delivered(received.next(), "shifted group")));
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
        let a = Matrix::random(n, n, 7);
        let b = Matrix::random(n, n, 8);
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
        run(8, 4, PortModel::MultiPort);
        run(16, 16, PortModel::MultiPort);
        run(32, 64, PortModel::MultiPort);
    }

    #[test]
    fn multi_port_cost_matches_table2() {
        // Table 2 (multi-port): a = √p - 1 + log p / 2,
        // b = (n²/√p)(2/log p − 2/(√p log p) + log p/(2√p)).
        let n = 32;
        let p = 16;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let sq = 4.0f64;
        let logp = 4.0f64;
        let n2 = (n * n) as f64;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, sq - 1.0 + logp / 2.0),
            (
                CostParams::WORDS_ONLY,
                n2 / sq * (2.0 / logp - 2.0 / (sq * logp) + logp / (2.0 * sq)),
            ),
        ] {
            let cfg = MachineConfig::new(PortModel::MultiPort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect);
        }
    }

    #[test]
    fn applicability_condition() {
        // n/√p >= log √p: for p = 64, √p = 8, log √p = 3, need n ≥ 24
        // (and divisible by 8).
        assert!(check(32, 64).is_ok());
        assert!(matches!(
            check(16, 64),
            Err(AlgoError::BlockTooSmall { have: 2, need: 3 })
        ));
    }
}
