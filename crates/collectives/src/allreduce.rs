//! All-reduce (element-wise sum delivered to every member).
//!
//! Not used by the paper's algorithms directly (their reductions are
//! rooted or scattered), but part of any collective library a user would
//! adopt; composed from the existing optimal schedules:
//!
//! * when the message splits evenly (`N | M`): reduce-scatter followed
//!   by all-gather (the Rabenseifner composition), costing
//!   `2(t_s·log N + t_w·(N−1)·M/N)` one-port — bandwidth-optimal;
//! * otherwise: rooted reduce followed by broadcast,
//!   `2·log N (t_s + t_w·M)` one-port.

use cubemm_simnet::{Payload, Proc};
use cubemm_topology::Subcube;

use crate::plan::execute;
use crate::{allgather, bcast_plan, reduce_plan, reduce_scatter, TAG_SPACE};

/// All-reduce: every member contributes `mine` (equal lengths
/// everywhere) and receives the element-wise sum over all members.
///
/// Internally uses two collective phases, so it consumes **two** tag
/// blocks: callers must space the next collective's base by
/// `2 * TAG_SPACE`.
pub async fn allreduce_sum(proc: &mut Proc, sc: &Subcube, base: u64, mine: Payload) -> Payload {
    let n = sc.size();
    let m = mine.len();
    if n == 1 {
        return mine;
    }
    if m % n == 0 {
        // Reduce-scatter my chunks, then all-gather the reduced pieces.
        let each = m / n;
        let parts: Vec<Payload> = (0..n)
            .map(|r| mine.slice(r * each, (r + 1) * each))
            .collect();
        let reduced = reduce_scatter(proc, sc, base, parts).await;
        let gathered = allgather(proc, sc, base + TAG_SPACE, reduced).await;
        Payload::concat(m, gathered.iter().map(|piece| &piece[..]))
    } else {
        // Rooted reduce at rank 0, then broadcast.
        let port = proc.port_model();
        let mut red = reduce_plan(port, sc, proc.id(), 0, base, mine);
        execute(proc, red.run_mut()).await;
        let summed = red.finish();
        let mut bc = bcast_plan(port, sc, proc.id(), 0, base + TAG_SPACE, summed, m);
        execute(proc, bc.run_mut()).await;
        bc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run;
    use cubemm_simnet::PortModel;
    use cubemm_topology::Subcube;

    fn check(p: usize, port: PortModel, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let mine: Payload = (0..m).map(|x| (v * 10 + x) as f64).collect();
            let got = allreduce_sum(&mut proc, &sc, 0, mine).await;
            let n = sc.size();
            let sumv: f64 = (0..n).map(|u| (u * 10) as f64).sum();
            for (x, val) in got.iter().enumerate() {
                assert_eq!(*val, sumv + (n * x) as f64, "node {} x {x}", proc.id());
            }
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn even_split_is_bandwidth_optimal() {
        // N = 8, M = 16: 2(ts·3 + tw·7·2) = 2(30 + 28) = 116 one-port.
        assert_eq!(check(8, PortModel::OnePort, 16), 116.0);
    }

    #[test]
    fn odd_split_falls_back_to_reduce_bcast() {
        // N = 8, M = 15: 2·3·(10 + 30) = 240 one-port.
        assert_eq!(check(8, PortModel::OnePort, 15), 240.0);
    }

    #[test]
    fn multi_port_paths() {
        let _ = check(8, PortModel::MultiPort, 24);
        let _ = check(8, PortModel::MultiPort, 13);
        let _ = check(4, PortModel::MultiPort, 8);
    }
}
