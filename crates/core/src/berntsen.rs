//! Berntsen's algorithm (paper §3.4): split A by columns and B by rows
//! into `∛p` sets; subcube `m` (an `x–y` plane of the virtual 3-D grid)
//! computes the outer product of column set `m` of A and row set `m` of B
//! with Cannon's algorithm on rectangular blocks; a final all-to-all
//! reduction along the `z` fibres sums the `∛p` outer products.
//!
//! Note the paper's caveat: A and B start with *different* distributions
//! (column sets vs row sets) and C comes out aligned with neither — the
//! driver reassembles the full matrix from the reduce-scattered strips.
//!
//! Applicability: `p^{2/3} | n` (blocks of shape `n/∛p × n/p^{2/3}`),
//! which implies the paper's `p ≤ n^{3/2}`.

use cubemm_dense::{partition, Matrix};
use cubemm_simnet::Payload;
use cubemm_topology::Grid3;

use crate::cannon::cannon_phase;
use crate::util::{phase_tag, require_divides, square_order, to_matrix};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates that Berntsen's algorithm can run `n × n` on `p` processors.
pub fn check(n: usize, p: usize) -> Result<(), AlgoError> {
    let grid = Grid3::new(p)?;
    let q = grid.q();
    require_divides(
        n,
        q * q,
        "p^(2/3) block partition of the outer product sets",
    )?;
    Ok(())
}

/// Multiplies `a · b` with Berntsen's algorithm on a simulated `p`-node
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
    let big = n / q; // rows of an A block / cols of a B block
    let small = n / (q * q); // cols of an A block / rows of a B block

    // Node p_{i,j,m}: block (i,j) of column set m of A (n/q × n/q²) and
    // block (i,j) of row set m of B (n/q² × n/q).
    let inits = || -> Vec<(Payload, Payload)> {
        (0..p)
            .map(|label| {
                let (i, j, m) = grid.coords(label);
                let ab = a.block(i * big, m * big + j * small, big, small);
                let bb = b.block(m * big + i * small, j * big, small, big);
                (ab.into_payload().into(), bb.into_payload().into())
            })
            .collect()
    };

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (pa, pb)| async move {
        let (i, j, m) = grid.coords(proc.id());
        proc.track_peak_words(2 * big * small + big * big);

        // Cannon within the x-y plane z = m (a p^{2/3}-processor
        // subcube): yields block (i,j) of the outer product of set m.
        let node_of = |x: usize, y: usize| grid.node(x, y, m);
        let shape = (big, small, big);
        let outer = cannon_phase(&mut proc, &node_of, i, j, q, pa, pb, shape, kernel).await;

        // All-to-all reduction along the z fibre: corresponding blocks of
        // the ∛p outer products are summed, each fibre member keeping one
        // row strip of the total.
        let fibre = grid.z_line(i, j);
        let parts: Vec<Payload> = (0..q)
            .map(|l| partition::row_group(&outer, q, l).into_payload().into())
            .collect();
        let strip =
            cubemm_collectives::reduce_scatter(&mut proc, &fibre, phase_tag(4), parts).await;
        proc.track_peak_words(2 * big * small + big * big + small * big);
        strip
    })?;

    // Node p_{i,j,k} holds C rows [i·n/q + k·n/q², +n/q²), cols
    // [j·n/q, +n/q).
    let mut c = Matrix::zeros(n, n);
    for label in 0..p {
        let (i, j, k) = grid.coords(label);
        let strip = to_matrix(small, big, &out.outputs[label]);
        c.paste(i * big + k * small, j * big, &strip);
    }
    Ok(RunResult::from_run(c, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm::reference;
    use cubemm_simnet::{CostParams, PortModel};

    fn run(n: usize, p: usize, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 31);
        let b = Matrix::random(n, n, 32);
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
        run(32, 64, PortModel::MultiPort);
    }

    #[test]
    fn one_port_cost_matches_table2() {
        // Table 2: a = 2(∛p − 1) + log p,
        //          b = (n²/p^{2/3})(3(1 − 1/∛p) + 2 log p/(3 ∛p)).
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cbrt = 2.0f64;
        let p23 = 4.0f64;
        let logp = 3.0f64;
        let n2 = (n * n) as f64;
        for (cost, expect) in [
            (CostParams::STARTUPS_ONLY, 2.0 * (cbrt - 1.0) + logp),
            (
                CostParams::WORDS_ONLY,
                n2 / p23 * (3.0 * (1.0 - 1.0 / cbrt) + 2.0 * logp / (3.0 * cbrt)),
            ),
        ] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let res = multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(res.stats.elapsed, expect, "cost {cost:?}");
        }
    }

    #[test]
    fn rejects_shapes() {
        assert!(check(8, 16).is_err()); // not a cube
        assert!(check(6, 8).is_err()); // 4 does not divide 6
        assert!(check(8, 8).is_ok());
    }
}
