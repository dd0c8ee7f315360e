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

/// The root of a checked reduction found its checksum word disagreeing
/// with the data it arrived with: some contribution was corrupted in
/// flight (or a node summed wrongly).
#[derive(Debug, Clone, PartialEq)]
pub struct ChecksumMismatch {
    /// Sum of the reduced data words, recomputed at the root.
    pub expected: f64,
    /// The reduced checksum word that should equal it.
    pub got: f64,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reduction checksum mismatch: data sums to {}, checksum word carries {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

/// [`reduce_sum`] with an end-to-end integrity check: every contribution
/// travels with one extra trailing word holding the sum of its data
/// words. Addition is linear, so the reduced trailing word must equal
/// the sum of the reduced data — the root verifies this to within `tol`
/// before handing the data out. A single corrupted in-flight word (data
/// or checksum) breaks the identity and surfaces as
/// [`ChecksumMismatch`]; non-roots return `Ok(None)` as usual.
///
/// Costs one extra word per message over [`reduce_sum`]
/// (`t_w·log N` one-port) — the detection analogue of the ABFT row and
/// column checksums, for reductions whose operands are not matrices.
pub async fn reduce_sum_checked(
    proc: &mut Proc,
    sc: &Subcube,
    root: usize,
    base: u64,
    mine: Payload,
    tol: f64,
) -> Result<Option<Payload>, ChecksumMismatch> {
    let mut words: Vec<f64> = mine.to_vec();
    let check: f64 = words.iter().sum();
    words.push(check);
    match reduce_sum(proc, sc, root, base, Payload::from(words)).await {
        None => Ok(None),
        Some(full) => {
            let all = full.to_vec();
            let (data, tail) = all.split_at(all.len() - 1);
            let expected: f64 = data.iter().sum();
            let got = tail[0];
            if (expected - got).abs() <= tol {
                Ok(Some(Payload::from(data.to_vec())))
            } else {
                Err(ChecksumMismatch { expected, got })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run, COST};
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
    fn checked_reduce_matches_plain_reduce_when_healthy() {
        let out = run(
            8,
            PortModel::OnePort,
            vec![(); 8],
            |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let v = sc.rank_of(proc.id());
                let mine: Payload = (0..5).map(|x| (v * 10 + x) as f64).collect();
                let got = reduce_sum_checked(&mut proc, &sc, 0, 0, mine, 1e-9)
                    .await
                    .expect("healthy run");
                if v == 0 {
                    let got = got.expect("root gets the sum");
                    let sumv: f64 = (0..8).map(|u| (u * 10) as f64).sum();
                    for (x, val) in got.to_vec().iter().enumerate() {
                        assert_eq!(*val, sumv + (8 * x) as f64);
                    }
                } else {
                    assert!(got.is_none());
                }
            },
        );
        // One extra word per message: log N (ts + tw (M+1)) = 3*(10+12).
        assert_eq!(out.stats.elapsed, 66.0);
    }

    #[test]
    fn checked_reduce_detects_a_corrupted_contribution() {
        use cubemm_simnet::{CorruptKind, Corruption, FaultPlan, Machine};
        let plan = FaultPlan::new().with_corruption(
            1,
            0,
            0,
            Corruption {
                word: 2,
                kind: CorruptKind::Perturb { delta: 1000.0 },
            },
        );
        let out = Machine::builder(8)
            .port(PortModel::OnePort)
            .cost(COST)
            .faults(plan)
            .build()
            .expect("valid machine")
            .run(vec![(); 8], |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let v = sc.rank_of(proc.id());
                let mine: Payload = (0..5).map(|x| (v * 10 + x) as f64).collect();
                reduce_sum_checked(&mut proc, &sc, 0, 7, mine, 1e-9).await
            })
            .expect("corruption does not abort the run");
        match &out.outputs[0] {
            // A data word grew by 1000 while the checksum word did not.
            Err(m) => assert_eq!(m.expected - m.got, 1000.0),
            other => panic!("root must flag the corruption, got {other:?}"),
        }
        for v in 1..8 {
            assert!(matches!(out.outputs[v], Ok(None)));
        }
        assert_eq!(out.stats.total_corrupted(), 1);
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
