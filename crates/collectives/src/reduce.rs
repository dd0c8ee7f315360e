//! All-to-one reduction (by addition): the communication inverse of the
//! one-to-all broadcast.

use cubemm_simnet::{Payload, PortModel, Proc};
use cubemm_topology::Subcube;

use crate::chunk;
use crate::plan::{execute, CollectiveRun};
use crate::schema::CollKind;

/// A planned reduction, ready to execute (possibly fused with others).
#[derive(Debug)]
pub struct ReduceRun {
    inner: CollectiveRun,
    is_root: bool,
}

impl ReduceRun {
    /// The underlying run, for [`crate::plan::execute_fused`].
    pub fn run_mut(&mut self) -> &mut CollectiveRun {
        &mut self.inner
    }

    /// Extracts the sum at the root (`None` elsewhere) after execution.
    pub fn finish(mut self) -> Option<Payload> {
        if !self.is_root {
            return None;
        }
        let slices = 0..self.inner.ncopies();
        Some(
            self.inner
                .store
                .bundle(slices, true, format_args!("reduce finish at the root")),
        )
    }
}

/// Compiles the inverse-SBT reduction for this node. Packet `c` is this
/// node's running partial sum of slice `c`.
pub fn reduce_plan(
    port: PortModel,
    sc: &Subcube,
    me: usize,
    root: usize,
    base: u64,
    mine: Payload,
) -> ReduceRun {
    let mut inner = CollectiveRun::new(CollKind::Reduce, port, sc, me, root, base, mine.len());
    let ncopies = inner.ncopies();
    for c in 0..ncopies {
        inner.store.put(c, chunk(&mine, ncopies, c));
    }

    ReduceRun {
        inner,
        is_root: sc.rank_of(me) == root,
    }
}

/// Reduces every member's equal-length `mine` by element-wise addition to
/// the member with rank `root`. Returns `Some(sum)` at the root, `None`
/// elsewhere.
///
/// Cost (measured): one-port `log N·(t_s + t_w·M)`; multi-port
/// `t_s·log N + t_w·M` — the inverses of the broadcast rows of Table 1.
pub async fn reduce_sum(
    proc: &mut Proc,
    sc: &Subcube,
    root: usize,
    base: u64,
    mine: Payload,
) -> Option<Payload> {
    let mut run = reduce_plan(proc.port_model(), sc, proc.id(), root, base, mine);
    execute(proc, run.run_mut()).await;
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run;
    use cubemm_simnet::PortModel;
    use cubemm_topology::Subcube;

    fn check(p: usize, port: PortModel, root: usize, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let mine: Payload = (0..m).map(|x| (v * 100 + x) as f64).collect();
            let got = reduce_sum(&mut proc, &sc, root, 0, mine).await;
            if v == root {
                let got = got.expect("root gets the sum");
                let n = sc.size();
                let sumv: f64 = (0..n).map(|u| (u * 100) as f64).sum();
                for (x, val) in got.iter().enumerate() {
                    assert_eq!(*val, sumv + (n * x) as f64);
                }
            } else {
                assert!(got.is_none());
            }
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn one_port_is_inverse_broadcast_cost() {
        // log N (ts + tw M): 3 * (10 + 24) = 102.
        assert_eq!(check(8, PortModel::OnePort, 0, 12), 102.0);
    }

    #[test]
    fn one_port_nonzero_root() {
        assert_eq!(check(8, PortModel::OnePort, 2, 12), 102.0);
    }

    #[test]
    fn multi_port_is_inverse_broadcast_cost() {
        // ts log N + tw M: 30 + 24 = 54.
        assert_eq!(check(8, PortModel::MultiPort, 0, 12), 54.0);
    }

    #[test]
    fn multi_port_assorted() {
        for root in [0, 1, 3] {
            let _ = check(4, PortModel::MultiPort, root, 7);
        }
        let _ = check(16, PortModel::MultiPort, 9, 3);
    }

    #[test]
    fn singleton_reduce() {
        let out = run(
            2,
            PortModel::OnePort,
            vec![(); 2],
            |mut proc, ()| async move {
                let sc = Subcube::new(proc.id(), vec![]);
                let mine: Payload = vec![1.0, 2.0].into();
                let got = reduce_sum(&mut proc, &sc, 0, 0, mine)
                    .await
                    .expect("singleton root");
                assert_eq!(&got[..], &[1.0, 2.0]);
            },
        );
        assert_eq!(out.stats.elapsed, 0.0);
    }
}
