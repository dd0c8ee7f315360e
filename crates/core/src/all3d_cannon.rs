//! The 3-D All + Cannon supernode combination.
//!
//! §3.5 closes with: *"The two new algorithms presented in the next
//! section have been shown to be better than the basic DNS algorithm …
//! hence the combination of any proposed new algorithm with Cannon's
//! algorithm would yield an algorithm better than the combination
//! algorithm of the DNS and Cannon."* This module realises that claimed
//! combination for 3-D All and the tests measure the claim against
//! [`crate::dns_cannon`].
//!
//! Structure: the hypercube is a `∛s × ∛s × ∛s` grid of `√r × √r`
//! supernode meshes (`p = s·r`). Each mesh position `(x, y)` holds piece
//! `(x, y)` of its supernode's Figure 8 blocks. The 3-D All phases run
//! over the supernode grid: a tile-level first phase routes every
//! `pc × pc` tile of B directly to the (mesh position, plane) that
//! consumes it — the supernode-granular generalization of Algorithm 5's
//! AAPC, implemented as point-to-point routed sends rather than the
//! dimension-exchange schedule, so it pays a few extra start-ups for
//! `∛s > 2` (measured in the tests); fused all-gathers along
//! super-x/z assemble the plane operands so that the mesh column chunks
//! of the gathered A equal the mesh row chunks of the gathered B
//! tile-for-tile; the multiply stage is then one Cannon run inside each
//! mesh on the concatenated operands, and an all-to-all reduction along
//! super-y scatters C.
//!
//! Applicability: `p = s·r` (`s` cubic, `r` square powers of two) and
//! `∛s²·√r | n`.

use cubemm_collectives::{allgather_plan, execute_fused, reduce_scatter};
use cubemm_dense::{partition, Matrix};
use cubemm_simnet::Payload;
use cubemm_topology::SupernodeGrid;

use crate::cannon::cannon_phase;
use crate::util::{
    concat_cols, delivered, phase_tag, require_divides, square_order, stack_rows, to_matrix,
};
use crate::{AlgoError, MachineConfig, RunResult};

/// Validates the combination for a given mesh split (`r = 4^mesh_bits`).
pub fn check(n: usize, p: usize, mesh_bits: u32) -> Result<(), AlgoError> {
    let grid = SupernodeGrid::new(p, mesh_bits)?;
    let g = grid.super_q();
    require_divides(
        n,
        g * g * grid.mesh_q(),
        "supernode Figure 8 piece partition",
    )?;
    Ok(())
}

/// The memory-optimal default split (mirrors [`crate::dns_cannon`]).
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

/// Multiplies `a · b` with the default split.
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
    let g = grid.super_q(); // supernode grid side (∛s)
    let qm = grid.mesh_q(); // mesh side (√r)
    let pr = n / (g * qm); // piece rows (of a wide super-block piece)
    let pc = n / (g * g * qm); // piece cols (also the tile side)

    // Supernode (i,j,k) holds the Figure 8 blocks A/B_{k, f(i,j)} of the
    // g × g² partition, spread over its mesh: position (x,y) takes rows
    // chunk x, cols chunk y.
    let inits: Vec<(Payload, Payload)> = (0..p)
        .map(|label| {
            let (x, y, i, j, k) = grid.coords(label);
            let f = partition::f_index(g, i, j);
            let r0 = k * (n / g) + x * pr;
            let c0 = f * (n / (g * g)) + y * pc;
            (
                a.block(r0, c0, pr, pc).into_payload().into(),
                b.block(r0, c0, pr, pc).into_payload().into(),
            )
        })
        .collect();

    let kernel = cfg.kernel;
    let out = crate::util::run_spmd(cfg, p, inits, move |mut proc, (pa, pb)| async move {
        let (x, y, i, j, k) = grid.coords(proc.id());
        let me = proc.id();
        let port = proc.port_model();
        let qm = grid.mesh_q();
        proc.track_peak_words(2 * pr * pc);

        // Phase 1 — tile redistribution. Working in pc-units of block
        // k's rows: my piece covers units u = x·g + t (t = 0..g); unit u
        // belongs to consuming plane j' = u/qm at mesh row x' = u mod qm.
        // My column chunk is pc-unit w = j·qm + y of the tall column
        // band, i.e. mesh column y' = w/g, slot w mod g. Tile t therefore
        // travels to node (u mod qm, w/g, i, u/qm, k); at r = 1 these are
        // Algorithm 5's sends of row group l to p_{i,l,k}, here routed
        // point-to-point.
        let w = j * qm + y;
        let mut own_tile: Option<Payload> = None;
        for t in 0..g {
            let u = x * g + t;
            let dest = grid.node(u % qm, w / g, i, u / qm, k);
            // Tile t is rows [t·pc, (t+1)·pc) of my pr × pc piece.
            let tile = pb.slice(t * pc * pc, (t + 1) * pc * pc);
            if dest == proc.id() {
                own_tile = Some(tile);
            } else {
                proc.send_routed(dest, phase_tag(4) + t as u64, tile);
            }
        }
        // Collect my g tiles: slot c comes from the sender holding
        // column unit w' = y·g + c and row unit u' = j·qm + x.
        let u_mine = j * qm + x;
        let t_src = u_mine % g;
        let mut tiles: Vec<Payload> = Vec::with_capacity(g);
        for c in 0..g {
            let wp = y * g + c;
            let src = grid.node(u_mine / g, wp % qm, i, wp / qm, k);
            let payload = if src == proc.id() {
                delivered(own_tile.clone(), "own redistribution tile")
            } else {
                proc.recv(src, phase_tag(4) + t_src as u64).await
            };
            tiles.push(payload);
        }
        // My pc-row strip of the tall slice for block l = k:
        // rows [k·n/g + j·n/g² + x·pc), cols [i·n/g + y·(g·pc)).
        let b_tall = concat_cols(pc, &tiles);

        // Phase 2 (fused): all-gather A pieces along super-x and the
        // reassembled B pieces along super-z.
        let x_line = grid.super_x_line(me);
        let z_line = grid.super_z_line(me);
        let mut ga = allgather_plan(port, &x_line, me, phase_tag(5), pa);
        let mut gb = allgather_plan(port, &z_line, me, phase_tag(6), b_tall);
        execute_fused(&mut proc, &mut [ga.run_mut(), gb.run_mut()]).await;
        // Concatenate the l slices into the mesh-distributed plane
        // operands (both are n/(g·qm) square): the pr × pc A pieces side
        // by side, the pc × g·pc B strips stacked.
        let a_cat = concat_cols(pr, &ga.finish());
        let b_stack = stack_rows(&gb.finish());
        proc.track_peak_words(2 * pr * pc + a_cat.len() + b_stack.len());

        // Multiply stage: Cannon inside the supernode mesh on the
        // concatenated distributed operands.
        let node_of = |mx: usize, my: usize| grid.node(mx, my, i, j, k);
        let shape = (pr, g * pc, g * pc);
        let outer =
            cannon_phase(&mut proc, &node_of, x, y, qm, a_cat, b_stack, shape, kernel).await;

        // Phase 3: all-to-all reduction along super-y — column group l of
        // the outer-product piece to super rank l.
        let parts: Vec<Payload> = (0..g)
            .map(|l| partition::col_group(&outer, g, l).into_payload().into())
            .collect();
        let y_line = grid.super_y_line(me);
        reduce_scatter(&mut proc, &y_line, phase_tag(7), parts).await
    })?;

    // The mesh layout of C comes out row-major over (y, j): node
    // (x, y, i, j, k) holds rows [k·n/g + x·pr) and columns
    // [i·n/g + y·(g·pc) + j·pc) — the same supernode blocks as the
    // inputs, tiled differently within each mesh.
    let mut c = Matrix::zeros(n, n);
    for label in 0..p {
        let (x, y, i, j, k) = grid.coords(label);
        let block = to_matrix(pr, pc, &out.outputs[label]);
        c.paste(
            k * (n / g) + x * pr,
            i * (n / g) + y * g * pc + j * pc,
            &block,
        );
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
        let a = Matrix::random(n, n, 97);
        let b = Matrix::random(n, n, 98);
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
        run(16, 32, 1, PortModel::OnePort); // s=8 (g=2), r=4
        run(16, 32, 1, PortModel::MultiPort);
        run(32, 256, 1, PortModel::OnePort); // s=64 (g=4), r=4
        run(32, 256, 1, PortModel::MultiPort);
        run(16, 8, 0, PortModel::OnePort); // degenerate: plain 3-D All
    }

    #[test]
    fn degenerate_mesh_matches_plain_3d_all_cost() {
        // mesh_bits = 0 reduces the combination to standard 3-D All; at
        // ∛s = 2 the routed tile sends coincide with the AAPC schedule,
        // so the costs match exactly (for larger ∛s the point-to-point
        // phase pays a few extra start-ups over the optimal AAPC).
        let n = 16;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        for cost in [CostParams::STARTUPS_ONLY, CostParams::WORDS_ONLY] {
            let cfg = MachineConfig::new(PortModel::OnePort, cost);
            let combo = multiply_with_mesh(&a, &b, p, 0, &cfg).unwrap();
            let plain = crate::all3d::multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(combo.stats.elapsed, plain.stats.elapsed, "{cost:?}");
        }
    }

    #[test]
    fn beats_dns_cannon_as_the_paper_claims_in_the_volume_regime() {
        // §3.5's closing claim, measured. It holds cleanly once blocks
        // carry real volume (measured ratios 0.63–0.85 below); in the
        // startup-dominated sliver (tiny n at t_s = 150) the tile
        // redistribution's extra start-ups let DNS+Cannon win — the
        // claim's base-algorithm form (3-D All vs DNS) never has that
        // exception because plain 3-D All's first phase is a pure AAPC.
        for (n, p, mb) in [(64usize, 32usize, 1u32), (128, 32, 1), (128, 256, 1)] {
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                let a = Matrix::random(n, n, 3);
                let b = Matrix::random(n, n, 4);
                let cfg = MachineConfig::new(port, CostParams::PAPER);
                let ours = multiply_with_mesh(&a, &b, p, mb, &cfg).unwrap();
                let dns = crate::dns_cannon::multiply_with_mesh(&a, &b, p, mb, &cfg).unwrap();
                assert!(
                    ours.stats.elapsed < dns.stats.elapsed,
                    "{port} n={n} p={p}: 3d-all+cannon {} vs dns+cannon {}",
                    ours.stats.elapsed,
                    dns.stats.elapsed
                );
            }
        }
        // The startup-regime exception, pinned so the crossover is
        // documented by a measurement rather than prose alone.
        let (n, p, mb) = (16usize, 32usize, 1u32);
        let a = Matrix::random(n, n, 3);
        let b = Matrix::random(n, n, 4);
        let cfg = MachineConfig::new(PortModel::OnePort, CostParams::PAPER);
        let ours = multiply_with_mesh(&a, &b, p, mb, &cfg).unwrap();
        let dns = crate::dns_cannon::multiply_with_mesh(&a, &b, p, mb, &cfg).unwrap();
        assert!(ours.stats.elapsed > dns.stats.elapsed);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(check(16, 32, 2).is_err());
        assert!(check(12, 32, 1).is_err()); // needs 8 | n
        assert!(check(16, 32, 1).is_ok());
    }
}
