//! All-to-one personalized communication (gather): the communication
//! inverse of the scatter. Used by the 3-D All_Trans algorithm's first
//! phase, where each row of B is collected at one node of its x line.

use cubemm_simnet::{Payload, PortModel, Proc};
use cubemm_topology::Subcube;

use crate::chunk;
use crate::plan::{execute, CollectiveRun};
use crate::schema::{CollKind, IdMask};

/// A planned gather, ready to execute (possibly fused with others).
#[derive(Debug)]
pub struct GatherRun {
    inner: CollectiveRun,
    n: usize,
    is_root: bool,
    root: usize,
}

impl GatherRun {
    /// The underlying run, for [`crate::plan::execute_fused`].
    pub fn run_mut(&mut self) -> &mut CollectiveRun {
        &mut self.inner
    }

    /// Extracts the gathered parts (indexed by *actual* rank) at the
    /// root; `None` elsewhere.
    pub fn finish(self) -> Option<Vec<Payload>> {
        if !self.is_root {
            return None;
        }
        // By relative rank `u`; rank `u ⊕ root` contributed it.
        let mut parts = self.inner.store.messages(
            IdMask::below(self.n),
            format_args!("gather finish at the root"),
        );
        Some(
            (0..self.n)
                .map(|rank| std::mem::take(&mut parts[rank ^ self.root]))
                .collect(),
        )
    }
}

/// Compiles the inverse-SBT gather for this node. Packet `(c, u)` is
/// slice `c` of the contribution of *relative* rank `u`.
pub fn gather_plan(
    port: PortModel,
    sc: &Subcube,
    me: usize,
    root: usize,
    base: u64,
    mine: Payload,
) -> GatherRun {
    let n = sc.size();
    let v = sc.rank_of(me) ^ root;

    let mut inner = CollectiveRun::new(CollKind::Gather, port, sc, me, root, base, mine.len());
    let ncopies = inner.ncopies();
    for c in 0..ncopies {
        inner.store.put(c * n + v, chunk(&mine, ncopies, c));
    }

    GatherRun {
        inner,
        n,
        is_root: v == 0,
        root,
    }
}

/// Gather: every member contributes `mine` (equal lengths); the member
/// with rank `root` receives all contributions indexed by rank, others
/// get `None`.
///
/// Cost (measured): the inverse of the scatter row of Table 1 — one-port
/// `t_s·log N + t_w·(N−1)·M`; multi-port `t_s·log N + t_w·(N−1)·M/log N`.
pub async fn gather(
    proc: &mut Proc,
    sc: &Subcube,
    root: usize,
    base: u64,
    mine: Payload,
) -> Option<Vec<Payload>> {
    let mut run = gather_plan(proc.port_model(), sc, proc.id(), root, base, mine);
    execute(proc, run.run_mut()).await;
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run;
    use cubemm_simnet::PortModel;
    use cubemm_topology::Subcube;

    fn contribution(rank: usize, m: usize) -> Payload {
        (0..m).map(|x| (rank * 1000 + x) as f64).collect()
    }

    fn check(p: usize, port: PortModel, root: usize, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let got = gather(&mut proc, &sc, root, 0, contribution(v, m)).await;
            if v == root {
                let got = got.expect("root gathers");
                for (r, part) in got.iter().enumerate() {
                    assert_eq!(&part[..], &contribution(r, m)[..], "rank {r}");
                }
            } else {
                assert!(got.is_none());
            }
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn one_port_is_inverse_scatter_cost() {
        // ts log N + tw (N-1) M with N=8, M=12: 30 + 2*7*12 = 198.
        assert_eq!(check(8, PortModel::OnePort, 0, 12), 198.0);
    }

    #[test]
    fn multi_port_is_inverse_scatter_cost() {
        // 30 + 2*7*12/3 = 86.
        assert_eq!(check(8, PortModel::MultiPort, 0, 12), 86.0);
    }

    #[test]
    fn nonzero_roots() {
        assert_eq!(check(8, PortModel::OnePort, 5, 12), 198.0);
        assert_eq!(check(8, PortModel::MultiPort, 3, 12), 86.0);
    }

    #[test]
    fn singleton_gather() {
        let out = run(
            2,
            PortModel::OnePort,
            vec![(); 2],
            |mut proc, ()| async move {
                let sc = Subcube::new(proc.id(), vec![]);
                let got = gather(&mut proc, &sc, 0, 0, contribution(0, 4))
                    .await
                    .expect("root");
                assert_eq!(got.len(), 1);
            },
        );
        assert_eq!(out.stats.elapsed, 0.0);
    }
}
