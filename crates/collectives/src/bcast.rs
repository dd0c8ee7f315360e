//! One-to-all broadcast.

use cubemm_simnet::{Payload, PortModel, Proc};
use cubemm_topology::Subcube;

use crate::chunk;
use crate::plan::{execute, CollectiveRun};
use crate::schema::CollKind;

/// A planned broadcast, ready to execute (possibly fused with others).
#[derive(Debug)]
pub struct BcastRun {
    inner: CollectiveRun,
}

impl BcastRun {
    /// The underlying run, for [`crate::plan::execute_fused`].
    pub fn run_mut(&mut self) -> &mut CollectiveRun {
        &mut self.inner
    }

    /// Extracts the broadcast payload after execution.
    pub fn finish(mut self) -> Payload {
        let slices = 0..self.inner.ncopies();
        self.inner
            .store
            .bundle(slices, true, format_args!("broadcast finish"))
    }
}

/// Compiles the spanning-binomial-tree broadcast for this node.
///
/// One-port nodes use a single SBT (`log N` serial rounds of the full
/// message); multi-port nodes split the message into `log N` slices sent
/// down `log N` rotated, link-disjoint SBTs (`t_w` term `M` instead of
/// `M·log N`, the Table 1 bound).
pub fn bcast_plan(
    port: PortModel,
    sc: &Subcube,
    me: usize,
    root: usize,
    base: u64,
    data: Option<Payload>,
    len: usize,
) -> BcastRun {
    if sc.rank_of(me) == root {
        #[allow(
            clippy::expect_used,
            reason = "documented API precondition, enforced like the asserts beside it"
        )]
        let data = data.as_ref().expect("broadcast root must supply data");
        assert_eq!(data.len(), len, "root data length disagrees with len");
    } else {
        assert!(data.is_none(), "non-root nodes must not supply data");
    }

    let mut inner = CollectiveRun::new(CollKind::Bcast, port, sc, me, root, base, len);
    let ncopies = inner.ncopies();
    if let Some(full) = &data {
        for c in 0..ncopies {
            inner.store.put(c, chunk(full, ncopies, c));
        }
    }
    BcastRun { inner }
}

/// One-to-all broadcast of `data` from the member of `sc` with rank
/// `root` to every member. The root passes `Some(data)`; everyone else
/// passes `None` and the (a-priori known) message length in `len`.
///
/// Cost (measured, equals Table 1): one-port `log N·(t_s + t_w·M)`;
/// multi-port `t_s·log N + t_w·M`.
pub async fn bcast(
    proc: &mut Proc,
    sc: &Subcube,
    root: usize,
    base: u64,
    data: Option<Payload>,
    len: usize,
) -> Payload {
    let mut run = bcast_plan(proc.port_model(), sc, proc.id(), root, base, data, len);
    execute(proc, run.run_mut()).await;
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::execute_fused;
    use crate::testutil::run;
    use cubemm_simnet::{FaultPlan, Machine, PortModel, RunError, SendError};
    use cubemm_topology::Subcube;

    fn payload(n: usize) -> Payload {
        (0..n).map(|x| x as f64 + 0.5).collect()
    }

    fn check_bcast(p: usize, port: PortModel, root: usize, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let data = (sc.rank_of(proc.id()) == root).then(|| payload(m));
            let got = bcast(&mut proc, &sc, root, 0, data, m).await;
            assert_eq!(&got[..], &payload(m)[..], "node {}", proc.id());
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn one_port_matches_table1() {
        // log N (ts + tw M) with N=8, M=12: 3 * (10 + 24) = 102.
        assert_eq!(check_bcast(8, PortModel::OnePort, 0, 12), 102.0);
    }

    #[test]
    fn one_port_nonzero_root() {
        assert_eq!(check_bcast(8, PortModel::OnePort, 5, 12), 102.0);
    }

    #[test]
    fn multi_port_matches_table1() {
        // ts log N + tw M with N=8, M=12: 30 + 24 = 54.
        assert_eq!(check_bcast(8, PortModel::MultiPort, 0, 12), 54.0);
    }

    #[test]
    fn multi_port_various_roots_and_sizes() {
        for root in 0..4 {
            for m in [4, 7, 16] {
                let _ = check_bcast(4, PortModel::MultiPort, root, m);
            }
        }
        // Message smaller than log N still works.
        let _ = check_bcast(16, PortModel::MultiPort, 3, 2);
    }

    #[test]
    fn broadcast_on_proper_subcube() {
        let out = run(
            16,
            PortModel::OnePort,
            vec![(); 16],
            |mut proc, ()| async move {
                let sc = Subcube::new(proc.id(), vec![0, 1]);
                let data = (sc.rank_of(proc.id()) == 1).then(|| payload(6));
                let got = bcast(&mut proc, &sc, 1, 0, data, 6).await;
                assert_eq!(got.len(), 6);
                proc.clock()
            },
        );
        // Each row independently: 2 * (10 + 12) = 44.
        assert_eq!(out.stats.elapsed, 44.0);
    }

    #[test]
    fn singleton_subcube_is_a_noop() {
        let out = run(
            2,
            PortModel::OnePort,
            vec![(); 2],
            |mut proc, ()| async move {
                let sc = Subcube::new(proc.id(), vec![]);
                let got = bcast(&mut proc, &sc, 0, 0, Some(payload(3)), 3).await;
                assert_eq!(got.len(), 3);
                proc.clock()
            },
        );
        assert_eq!(out.stats.elapsed, 0.0);
    }

    #[test]
    fn two_fused_broadcasts_overlap_on_multi_port() {
        // A 4-cube seen as a 4x4 grid: broadcast along the row and the
        // column dimensions simultaneously — the paper's "the two
        // broadcasts can occur in parallel".
        let m = 12;
        let fused = |port: PortModel| {
            let out = run(16, port, vec![(); 16], move |mut proc, ()| async move {
                let row = Subcube::new(proc.id(), vec![0, 1]);
                let col = Subcube::new(proc.id(), vec![2, 3]);
                let row_data = (row.rank_of(proc.id()) == 0).then(|| payload(m));
                let col_data = (col.rank_of(proc.id()) == 0).then(|| payload(m));
                let mut b1 = bcast_plan(proc.port_model(), &row, proc.id(), 0, 0, row_data, m);
                let mut b2 = bcast_plan(
                    proc.port_model(),
                    &col,
                    proc.id(),
                    0,
                    crate::TAG_SPACE,
                    col_data,
                    m,
                );
                execute_fused(&mut proc, &mut [b1.run_mut(), b2.run_mut()]).await;
                assert_eq!(&b1.finish()[..], &payload(m)[..]);
                assert_eq!(&b2.finish()[..], &payload(m)[..]);
                proc.clock()
            });
            out.stats.elapsed
        };
        // One-port: the two broadcasts serialize: 2 * 2 * (10 + 24) = 136.
        assert_eq!(fused(PortModel::OnePort), 136.0);
        // Multi-port: they overlap fully (disjoint links):
        // ts log N + tw M = 20 + 24 = 44.
        assert_eq!(fused(PortModel::MultiPort), 44.0);
    }

    #[test]
    fn strict_dead_tree_edge_aborts_with_a_typed_error() {
        // Edge (0,1) carries the round-0 transfer of the rank-0 SBT: the
        // neighbor send hits the dead edge and the machine reports the
        // typed failure.
        let m = 12;
        let plan = FaultPlan::new().with_dead_link(0, 1).strict();
        let err = Machine::builder(8)
            .port(PortModel::OnePort)
            .cost(crate::testutil::COST)
            .faults(plan)
            .build()
            .expect("valid test machine")
            .run(vec![(); 8], move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let data = (sc.rank_of(proc.id()) == 0).then(|| payload(m));
                let _ = bcast(&mut proc, &sc, 0, 0, data, m).await;
            })
            .expect_err("strict dead link must abort the plain schedule");
        let want = SendError::LinkDead { from: 0, to: 1 };
        assert_eq!(
            err,
            RunError::LinkDead {
                node: 0,
                error: want
            }
        );
    }
}
