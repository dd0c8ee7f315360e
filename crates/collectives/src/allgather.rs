//! All-to-all broadcast (all-gather) and its communication inverse,
//! all-to-all reduction (reduce-scatter).

use cubemm_simnet::{Payload, PortModel, Proc};
use cubemm_topology::Subcube;

use crate::chunk;
use crate::plan::{execute, CollectiveRun};
use crate::schema::CollKind;

/// A planned all-gather, ready to execute (possibly fused with others).
#[derive(Debug)]
pub struct AllgatherRun {
    inner: CollectiveRun,
    n: usize,
}

impl AllgatherRun {
    /// The underlying run, for [`crate::plan::execute_fused`].
    pub fn run_mut(&mut self) -> &mut CollectiveRun {
        &mut self.inner
    }

    /// Extracts all contributions, indexed by rank, after execution.
    pub fn finish(mut self) -> Vec<Payload> {
        let (n, nc, store) = (self.n, self.inner.ncopies(), &mut self.inner.store);
        (0..n)
            .map(|r| {
                let slices = (0..nc).map(|c| c * n + r);
                store.bundle(slices, true, format_args!("all-gather finish"))
            })
            .collect()
    }
}

/// Compiles the recursive-doubling all-gather for this node. Packet
/// `(c, r)` is slice `c` of the contribution of rank `r`.
pub fn allgather_plan(
    port: PortModel,
    sc: &Subcube,
    me: usize,
    base: u64,
    mine: Payload,
) -> AllgatherRun {
    let n = sc.size();
    let v = sc.rank_of(me);

    let mut inner = CollectiveRun::new(CollKind::Allgather, port, sc, me, 0, base, mine.len());
    let ncopies = inner.ncopies();
    // Half the row arrives in the last round (see `reserve`).
    inner.store.reserve(ncopies * n / 2);
    for c in 0..ncopies {
        inner.store.put(c * n + v, chunk(&mine, ncopies, c));
    }

    AllgatherRun { inner, n }
}

/// All-to-all broadcast: every member contributes `mine` (all equal
/// length) and receives every member's contribution, indexed by rank.
///
/// Cost (measured, equals Table 1): one-port `t_s·log N + t_w·(N−1)·M`;
/// multi-port `t_s·log N + t_w·(N−1)·M/log N`.
pub async fn allgather(proc: &mut Proc, sc: &Subcube, base: u64, mine: Payload) -> Vec<Payload> {
    let mut run = allgather_plan(proc.port_model(), sc, proc.id(), base, mine);
    execute(proc, run.run_mut()).await;
    run.finish()
}

/// A planned reduce-scatter, ready to execute (possibly fused).
#[derive(Debug)]
pub struct ReduceScatterRun {
    inner: CollectiveRun,
    n: usize,
    v: usize,
}

impl ReduceScatterRun {
    /// The underlying run, for [`crate::plan::execute_fused`].
    pub fn run_mut(&mut self) -> &mut CollectiveRun {
        &mut self.inner
    }

    /// Extracts this node's summed part after execution.
    pub fn finish(mut self) -> Payload {
        let slices = (0..self.inner.ncopies()).map(|c| c * self.n + self.v);
        self.inner
            .store
            .bundle(slices, true, format_args!("reduce-scatter finish"))
    }
}

/// Compiles the recursive-halving reduce-scatter for this node. Packet
/// `(c, r)` is slice `c` of the (partially summed) part destined for
/// rank `r`.
pub fn reduce_scatter_plan(
    port: PortModel,
    sc: &Subcube,
    me: usize,
    base: u64,
    parts: Vec<Payload>,
) -> ReduceScatterRun {
    let n = sc.size();
    assert_eq!(parts.len(), n, "reduce_scatter needs one part per member");
    let part_len = parts[0].len();
    for p in &parts {
        assert_eq!(
            p.len(),
            part_len,
            "reduce_scatter parts must have equal length"
        );
    }

    let mut inner = CollectiveRun::new(CollKind::ReduceScatter, port, sc, me, 0, base, part_len);
    let ncopies = inner.ncopies();
    inner.store.reserve(ncopies * n);
    for (r, part) in parts.iter().enumerate() {
        for c in 0..ncopies {
            inner.store.put(c * n + r, chunk(part, ncopies, c));
        }
    }

    ReduceScatterRun {
        inner,
        n,
        v: sc.rank_of(me),
    }
}

/// All-to-all reduction (reduce-scatter): every member contributes one
/// part per destination rank (all equal length); member `r` receives the
/// element-wise sum of everyone's part `r`.
///
/// This is the inverse of [`allgather`] with respect to communication
/// (paper §2); its measured cost equals the all-gather entry of Table 1.
pub async fn reduce_scatter(
    proc: &mut Proc,
    sc: &Subcube,
    base: u64,
    parts: Vec<Payload>,
) -> Payload {
    let mut run = reduce_scatter_plan(proc.port_model(), sc, proc.id(), base, parts);
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

    fn check_allgather(p: usize, port: PortModel, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let all = allgather(&mut proc, &sc, 0, contribution(v, m)).await;
            for (r, part) in all.iter().enumerate() {
                assert_eq!(
                    &part[..],
                    &contribution(r, m)[..],
                    "node {} part {r}",
                    proc.id()
                );
            }
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn allgather_one_port_matches_table1() {
        // ts log N + tw (N-1) M with N=8, M=12: 30 + 2*7*12 = 198.
        assert_eq!(check_allgather(8, PortModel::OnePort, 12), 198.0);
    }

    #[test]
    fn allgather_multi_port_matches_table1() {
        // 30 + 2*7*12/3 = 86.
        assert_eq!(check_allgather(8, PortModel::MultiPort, 12), 86.0);
    }

    #[test]
    fn allgather_small_messages() {
        let _ = check_allgather(16, PortModel::MultiPort, 2);
        let _ = check_allgather(2, PortModel::OnePort, 1);
    }

    fn check_reduce_scatter(p: usize, port: PortModel, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let parts: Vec<Payload> = (0..sc.size())
                .map(|r| (0..m).map(|x| (v + r * 10 + x) as f64).collect())
                .collect();
            let got = reduce_scatter(&mut proc, &sc, 0, parts).await;
            let n = sc.size();
            let sumv: f64 = (0..n).map(|u| u as f64).sum();
            for (x, val) in got.iter().enumerate() {
                let expect = sumv + (n * (v * 10 + x)) as f64;
                assert_eq!(*val, expect, "node {} x {x}", proc.id());
            }
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn reduce_scatter_one_port_matches_table1_inverse() {
        assert_eq!(check_reduce_scatter(8, PortModel::OnePort, 12), 198.0);
    }

    #[test]
    fn reduce_scatter_multi_port_matches_table1_inverse() {
        assert_eq!(check_reduce_scatter(8, PortModel::MultiPort, 12), 86.0);
    }

    #[test]
    fn reduce_scatter_varied_shapes() {
        let _ = check_reduce_scatter(4, PortModel::OnePort, 5);
        let _ = check_reduce_scatter(4, PortModel::MultiPort, 5);
        let _ = check_reduce_scatter(2, PortModel::MultiPort, 3);
    }
}
