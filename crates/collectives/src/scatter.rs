//! One-to-all personalized broadcast (scatter).

use cubemm_simnet::{Payload, PortModel, Proc};
use cubemm_topology::Subcube;

use crate::chunk_span;
use crate::plan::{execute, CollectiveRun};
use crate::schema::{CollKind, IdMask};

/// A planned scatter, ready to execute (possibly fused with others).
#[derive(Debug)]
pub struct ScatterRun {
    inner: CollectiveRun,
    v: usize,
}

impl ScatterRun {
    /// The underlying run, for [`crate::plan::execute_fused`].
    pub fn run_mut(&mut self) -> &mut CollectiveRun {
        &mut self.inner
    }

    /// Extracts this node's part after execution.
    pub fn finish(self) -> Payload {
        self.inner
            .store
            .message(IdMask::single(self.v), format_args!("scatter finish"))
    }
}

/// Compiles the SBT scatter for this node. Packet `(c, u)` is slice `c`
/// of the part for *relative* rank `u`; at the root each copy starts as
/// one bundle of all `n`.
pub fn scatter_plan(
    port: PortModel,
    sc: &Subcube,
    me: usize,
    root: usize,
    base: u64,
    parts: Option<Vec<Payload>>,
    part_len: usize,
) -> ScatterRun {
    let n = sc.size();
    let my_rank = sc.rank_of(me);

    let mut inner = CollectiveRun::new(CollKind::Scatter, port, sc, me, root, base, part_len);
    let ncopies = inner.ncopies();
    if my_rank == root {
        #[allow(
            clippy::expect_used,
            reason = "documented API precondition, enforced like the asserts beside it"
        )]
        let parts = parts.expect("scatter root must supply parts");
        assert_eq!(parts.len(), n, "scatter needs one part per member");
        for part in &parts {
            assert_eq!(part.len(), part_len, "scatter parts must have equal length");
        }
        for c in 0..ncopies {
            // Relative rank u corresponds to actual rank u ^ root.
            let slices = (0..n).map(|u| chunk_span(&parts[u ^ root], ncopies, c));
            let bundle = Payload::concat(n * inner.store.expected_len(c * n), slices);
            inner.store.put_bundle(c, IdMask::below(n), bundle);
        }
    } else {
        assert!(parts.is_none(), "non-root nodes must not supply parts");
    }

    ScatterRun {
        inner,
        v: my_rank ^ root,
    }
}

/// Scatter: the root holds one equal-length part per member (indexed by
/// actual subcube rank) and delivers part `r` to the member with rank
/// `r`. Non-roots pass `None` and the per-part length in `part_len`.
///
/// Cost (measured, equals Table 1): one-port `t_s·log N + t_w·(N−1)·M`;
/// multi-port `t_s·log N + t_w·(N−1)·M/log N`.
pub async fn scatter(
    proc: &mut Proc,
    sc: &Subcube,
    root: usize,
    base: u64,
    parts: Option<Vec<Payload>>,
    part_len: usize,
) -> Payload {
    let mut run = scatter_plan(
        proc.port_model(),
        sc,
        proc.id(),
        root,
        base,
        parts,
        part_len,
    );
    execute(proc, run.run_mut()).await;
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::CollSchema;
    use crate::testutil::run;
    use cubemm_simnet::PortModel;
    use cubemm_topology::Subcube;

    fn part_for(rank: usize, m: usize) -> Payload {
        (0..m).map(|x| (rank * 100 + x) as f64).collect()
    }

    fn check(p: usize, port: PortModel, root: usize, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let my_rank = sc.rank_of(proc.id());
            let parts = (my_rank == root).then(|| (0..sc.size()).map(|r| part_for(r, m)).collect());
            let got = scatter(&mut proc, &sc, root, 0, parts, m).await;
            assert_eq!(&got[..], &part_for(my_rank, m)[..], "node {}", proc.id());
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn one_port_matches_table1() {
        // ts log N + tw (N-1) M with N=8, M=12: 30 + 2*7*12 = 198.
        assert_eq!(check(8, PortModel::OnePort, 0, 12), 198.0);
    }

    #[test]
    fn one_port_nonzero_root() {
        assert_eq!(check(8, PortModel::OnePort, 6, 12), 198.0);
    }

    #[test]
    fn multi_port_matches_table1() {
        // ts log N + tw (N-1) M / log N: 30 + 2*7*12/3 = 86.
        assert_eq!(check(8, PortModel::MultiPort, 0, 12), 86.0);
    }

    #[test]
    fn multi_port_assorted() {
        for root in [0, 3] {
            for m in [4, 9] {
                let _ = check(4, PortModel::MultiPort, root, m);
            }
        }
    }

    #[test]
    fn singleton_scatter() {
        let out = run(
            2,
            PortModel::OnePort,
            vec![(); 2],
            |mut proc, ()| async move {
                let sc = Subcube::new(proc.id(), vec![]);
                let got = scatter(&mut proc, &sc, 0, 0, Some(vec![part_for(0, 4)]), 4).await;
                assert_eq!(&got[..], &part_for(0, 4)[..]);
            },
        );
        assert_eq!(out.stats.elapsed, 0.0);
    }

    #[test]
    fn subtree_enumeration() {
        // d=3, copy 1 opens with dimension 1: the root hands child 0b010
        // its whole subtree, free in dimensions {0, 2}.
        let root_send = CollSchema::reference(CollKind::Scatter)
            .xfer(3, 0, 1, 0)
            .and_then(|x| x.send)
            .expect("the root sends in every round");
        let members: Vec<usize> = root_send.ids(0).collect();
        assert_eq!(members, vec![0b010, 0b011, 0b110, 0b111]);
    }
}
