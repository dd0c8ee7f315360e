//! The DNS + Cannon combination algorithm (paper §3.5): the hypercube is
//! viewed as a `∛s × ∛s × ∛s` grid of *supernodes*, each a `√r × √r`
//! processor mesh (`p = s·r`). The DNS broadcast–multiply–reduce
//! structure runs at supernode granularity, while each supernode computes
//! its block product with Cannon's algorithm — trading start-ups for the
//! DNS family's `∛p`-fold memory blow-up (overall space `2n²·∛s + n²·∛s`
//! instead of `3n²·∛p`).
//!
//! The paper presents this combination to note that combining its *new*
//! algorithms with Cannon dominates it; implementing it provides the
//! baseline for that comparison (see the extension benches).
//!
//! Applicability: `p = s·r` with `s` a cubic and `r` a square power of
//! two, and `∛s·√r | n`.

use cubemm_collectives::{bcast_plan, execute_fused, reduce_sum};
use cubemm_dense::Matrix;
use cubemm_simnet::Payload;
use cubemm_topology::SupernodeGrid;

use crate::cannon::cannon_phase;
use crate::util::{delivered, phase_tag, require_divides, square_order, to_matrix};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates the combination for a given mesh split (`r = 4^mesh_bits`).
pub fn check(n: usize, p: usize, mesh_bits: u32) -> Result<(), AlgoError> {
    let grid = SupernodeGrid::new(p, mesh_bits)?;
    require_divides(
        n,
        grid.super_q() * grid.mesh_q(),
        "supernode sub-block partition",
    )?;
    Ok(())
}

/// The largest legal mesh split for `(n, p)` that keeps a non-trivial
/// supernode grid (`s ≥ 8`) — the memory-optimal choice. Falls back to
/// any legal split, or `None` when the shape is impossible.
pub fn default_mesh_bits(n: usize, p: usize) -> Option<u32> {
    let splits = SupernodeGrid::splits(p);
    splits
        .iter()
        .rev()
        .copied()
        .find(|&mb| {
            check(n, p, mb).is_ok()
                && SupernodeGrid::new(p, mb)
                    .map(|g| g.s() >= 8)
                    .unwrap_or(false)
        })
        .or_else(|| {
            splits
                .iter()
                .rev()
                .copied()
                .find(|&mb| check(n, p, mb).is_ok())
        })
}

/// Multiplies `a · b` with the default (memory-optimal) mesh split.
pub fn multiply(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
) -> Result<RunResult, AlgoError> {
    let n = square_order(a, b)?;
    let mb = default_mesh_bits(n, p).ok_or(AlgoError::Topology(
        cubemm_topology::TopologyError::IndivisibleDimension {
            dim: p.trailing_zeros(),
            divisor: 3,
        },
    ))?;
    multiply_with_mesh(a, b, p, mb, cfg)
}

/// Multiplies `a · b` with an explicit `√r = 2^mesh_bits` supernode mesh.
pub fn multiply_with_mesh(
    a: &Matrix,
    b: &Matrix,
    p: usize,
    mesh_bits: u32,
    cfg: &MachineConfig,
) -> Result<RunResult, AlgoError> {
    let n = square_order(a, b)?;
    check(n, p, mesh_bits)?;
    let grid = SupernodeGrid::new(p, mesh_bits)?;
    let qs = grid.super_q();
    let qm = grid.mesh_q();
    let sub = n / (qs * qm); // sub-block side

    // Supernode (i, j, 0) holds A_{ij} and B_{ij}, spread over its mesh.
    let inits: Vec<Option<(Payload, Payload)>> = (0..p)
        .map(|label| {
            let (x, y, i, j, k) = grid.coords(label);
            (k == 0).then(|| {
                let r0 = i * (n / qs) + x * sub;
                let c0 = j * (n / qs) + y * sub;
                (
                    a.block(r0, c0, sub, sub).into_payload().into(),
                    b.block(r0, c0, sub, sub).into_payload().into(),
                )
            })
        })
        .collect();

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, init| async move {
        let (x, y, i, j, k) = grid.coords(proc.id());
        let me = proc.id();

        // Phase 1 (supernode-level DNS lift, piece-wise): each mesh
        // position forwards its sub-block along the super-z dims.
        let mut a_holder: Option<Payload> = None;
        let mut b_holder: Option<Payload> = None;
        if let Some((pa, pb)) = init {
            proc.track_peak_words(2 * sub * sub);
            if j == 0 {
                a_holder = Some(pa);
            } else {
                proc.send_routed(grid.node(x, y, i, j, j), phase_tag(4), pa);
            }
            if i == 0 {
                b_holder = Some(pb);
            } else {
                proc.send_routed(grid.node(x, y, i, j, i), phase_tag(5), pb);
            }
        }
        if k == j && k != 0 {
            a_holder = Some(proc.recv(grid.node(x, y, i, j, 0), phase_tag(4)).await);
        }
        if k == i && k != 0 {
            b_holder = Some(proc.recv(grid.node(x, y, i, j, 0), phase_tag(5)).await);
        }

        // Phase 2 (fused): broadcast A along super-y (root rank k) and B
        // along super-x (root rank k), per mesh position.
        let port = proc.port_model();
        let y_line = grid.super_y_line(me);
        let x_line = grid.super_x_line(me);
        let mut ba = bcast_plan(port, &y_line, me, k, phase_tag(6), a_holder, sub * sub);
        let mut bb = bcast_plan(port, &x_line, me, k, phase_tag(7), b_holder, sub * sub);
        execute_fused(&mut proc, &mut [ba.run_mut(), bb.run_mut()]).await;
        let pa = ba.finish(); // piece (x,y) of A_{ik}
        let pb = bb.finish(); // piece (x,y) of B_{kj}
        proc.track_peak_words(3 * sub * sub);

        // Phase 3: Cannon within the supernode mesh computes
        // piece (x,y) of A_{ik}·B_{kj}.
        let node_of = |mx: usize, my: usize| grid.node(mx, my, i, j, k);
        let shape = (sub, sub, sub);
        let c = cannon_phase(&mut proc, &node_of, x, y, qm, pa, pb, shape, kernel).await;

        // Phase 4: reduce along super-z back to the base plane.
        let z_line = grid.super_z_line(me);
        reduce_sum(&mut proc, &z_line, 0, phase_tag(8), c.into_payload().into()).await
    })?;

    let mut c = Matrix::zeros(n, n);
    for label in 0..p {
        let (x, y, i, j, k) = grid.coords(label);
        if k != 0 {
            continue;
        }
        let piece = to_matrix(
            sub,
            sub,
            delivered(out.outputs[label].as_deref(), "base plane holds C"),
        );
        c.paste(i * (n / qs) + x * sub, j * (n / qs) + y * sub, &piece);
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

    fn run(n: usize, p: usize, mesh_bits: u32, port: PortModel) -> RunResult {
        let a = Matrix::random(n, n, 91);
        let b = Matrix::random(n, n, 92);
        let cfg = MachineConfig::new(port, CostParams { ts: 10.0, tw: 2.0 });
        let res = multiply_with_mesh(&a, &b, p, mesh_bits, &cfg).expect("applicable");
        let want = reference(&a, &b);
        assert!(
            res.c.max_abs_diff(&want) < 1e-9 * n as f64,
            "wrong product for n={n} p={p} r=4^{mesh_bits} ({port})"
        );
        res
    }

    #[test]
    fn correct_across_splits() {
        // p = 32: s=8, r=4. p = 256: s=64, r=4. p = 64 with mesh 8 procs?
        run(16, 32, 1, PortModel::OnePort);
        run(16, 32, 1, PortModel::MultiPort);
        run(32, 256, 1, PortModel::OnePort);
        run(32, 256, 1, PortModel::MultiPort);
        // mesh_bits = 0 degenerates to plain DNS.
        run(16, 64, 0, PortModel::OnePort);
        // large mesh: p = 64 = s(1)·r(64)? splits(64) = {0, 3}: r=4096
        // exceeds p... mesh_bits 3 gives r = 64, s = 1 (pure Cannon).
        run(16, 64, 3, PortModel::OnePort);
    }

    #[test]
    fn default_split_prefers_memory_saving() {
        // p = 32: only split is mesh_bits 1 (s = 8 ≥ 8 ✓).
        assert_eq!(default_mesh_bits(16, 32), Some(1));
        // p = 64: splits {0 (s=64), 3 (s=1)}; s ≥ 8 prefers... the larger
        // mesh has s = 1 < 8, so the s = 64 pure-DNS split is chosen.
        assert_eq!(default_mesh_bits(16, 64), Some(0));
        assert!(default_mesh_bits(16, 7).is_none());
    }

    #[test]
    fn saves_memory_versus_dns() {
        // At p = 256 the combination stores ~3n²·∛s (s = 64 → 4) words
        // versus DNS-at-p's 3n²·∛p; compare against plain DNS on the
        // same machine where both apply.
        let n = 32;
        let cfg = MachineConfig::default();
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let combo = multiply_with_mesh(&a, &b, 256, 1, &cfg).unwrap();
        // combination: 3 sub-blocks per proc * 256 procs * sub² words.
        let sub = n / (4 * 2);
        assert_eq!(combo.stats.total_peak_words(), 3 * 256 * sub * sub);
        // DNS needs p a cube; nearest comparable is p = 512 = 8³ — its
        // footprint per unit of matrix is 3n²·8 vs the combination's
        // 3n²·4 at twice the machine: memory per node strictly smaller.
        let dns = crate::dns::multiply(&a, &b, 512, &cfg).unwrap();
        assert!(combo.stats.total_peak_words() < dns.stats.total_peak_words());
    }

    #[test]
    fn cost_combines_dns_and_cannon_terms() {
        // One-port start-ups: DNS supernode phases contribute
        // 5·log ∛s (with the 3DD-style overlap measured at 4·log ∛s; see
        // E2) and Cannon contributes 2(√r − 1) + log r.
        let n = 16;
        let p = 32; // s = 8 (log ∛s = 1), r = 4 (√r = 2, log r = 2)
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let cfg = MachineConfig::new(PortModel::OnePort, CostParams::STARTUPS_ONLY);
        let res = multiply_with_mesh(&a, &b, p, 1, &cfg).unwrap();
        // Measured: phase1 (2) + phase2 (2) + cannon skew (2) + shifts
        // (2·(√r−1) = 2) + reduce (1) = 9.
        assert_eq!(res.stats.elapsed, 9.0);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(check(16, 32, 2).is_err()); // dim 5 - 4 = 1 not cubic
        assert!(check(15, 32, 1).is_err()); // 4 does not divide 15
        assert!(check(16, 32, 1).is_ok());
    }
}
