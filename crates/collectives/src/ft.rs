//! Degraded-mode collectives: fault-tolerant variants of the Table 1
//! schedules.
//!
//! The plain collectives run link-disjoint spanning-tree schedules
//! that assume every hypercube edge is alive. Under a lenient
//! [`FaultPlan`] the simulator already re-routes each neighbor send
//! transparently, but a *strict* plan forbids that, and an unroutable
//! destination aborts the whole machine. The `_ft` variants here instead
//!
//! 1. consult [`Proc::fault_plan`] before every round and pull any
//!    transfer whose scheduled edge is dead out of the batched
//!    [`Proc::multi`] round, relaying it explicitly over a live detour
//!    ([`Proc::try_send_routed`]) — this works even under
//!    [`FaultPlan::strict`], because the relay is a deliberate multi-hop
//!    route, not a silent rewrite of a neighbor send;
//! 2. retry relayed sends against the drop schedule with the default
//!    [`RetryPolicy`] (exponential virtual-time backoff); and
//! 3. return a typed [`SendError`] instead of aborting when the
//!    destination is cut off or the retry budget is exhausted.
//!
//! On a healthy machine (or a plan whose dead links miss this node's
//! schedule) every round degenerates to exactly the batch the plain
//! engine would issue, so the virtual-time results are bit-for-bit
//! identical — asserted against the Table 1 pins in the tests below. With
//! a dead link on a tree edge the collective still delivers the same
//! data, at a strictly higher elapsed time (the relay pays the detour
//! hops honestly; a hypercube is bipartite, so the shortest detour for a
//! neighbor edge is 3 hops).

use cubemm_simnet::{Payload, Proc, RetryPolicy, SendError};
use cubemm_topology::Subcube;

use crate::allgather::allgather_plan;
use crate::bcast::bcast_plan;
use crate::plan::{execute_rounds, CollectiveRun};

/// Executes a single collective with dead-edge relay fallback.
///
/// Behaves exactly like [`crate::plan::execute`] (same batches, same
/// costs) when no dead link touches this node's schedule. Transfers over
/// dead edges are relayed via routed sends before the round's batch;
/// their receives still match on the original `(peer, tag)`, because the
/// simulator delivers relayed messages under the origin's label.
pub async fn execute_ft(proc: &mut Proc, run: &mut CollectiveRun) -> Result<(), SendError> {
    let policy = RetryPolicy::default();
    execute_rounds(proc, &mut [run], |proc, xfer, bundle| {
        let dead = proc
            .fault_plan()
            .is_some_and(|plan| plan.is_dead(proc.id(), xfer.peer));
        if dead {
            relay(proc, xfer.peer, xfer.tag, bundle, policy)?;
            Ok(None)
        } else {
            Ok(Some(bundle))
        }
    })
    .await
}

/// Sends `data` to `peer` over a live detour, retrying dropped attempts
/// under `policy` with exponential virtual-time backoff.
fn relay(
    proc: &mut Proc,
    peer: usize,
    tag: u64,
    data: Payload,
    policy: RetryPolicy,
) -> Result<(), SendError> {
    let mut backoff = policy.backoff;
    for attempt in 1..=policy.max_attempts {
        if proc.try_send_routed(peer, tag, data.clone())? {
            return Ok(());
        }
        if attempt < policy.max_attempts {
            proc.advance_clock(backoff);
            backoff *= policy.backoff_factor;
        }
    }
    Err(SendError::RetriesExhausted {
        from: proc.id(),
        to: peer,
        attempts: policy.max_attempts,
    })
}

/// Fault-tolerant [`crate::bcast`]: identical data, schedule and cost on
/// a healthy machine; relays around dead tree edges (at a measured cost
/// penalty) instead of aborting, and reports cut-off subcubes as
/// [`SendError::Unroutable`].
pub async fn bcast_ft(
    proc: &mut Proc,
    sc: &Subcube,
    root: usize,
    base: u64,
    data: Option<Payload>,
    len: usize,
) -> Result<Payload, SendError> {
    let mut run = bcast_plan(proc.port_model(), sc, proc.id(), root, base, data, len);
    execute_ft(proc, run.run_mut()).await?;
    Ok(run.finish())
}

/// Fault-tolerant [`crate::allgather`]: identical data, schedule and
/// cost on a healthy machine; relays dead-edge exchanges instead of
/// aborting.
pub async fn allgather_ft(
    proc: &mut Proc,
    sc: &Subcube,
    base: u64,
    mine: Payload,
) -> Result<Vec<Payload>, SendError> {
    let mut run = allgather_plan(proc.port_model(), sc, proc.id(), base, mine);
    execute_ft(proc, run.run_mut()).await?;
    Ok(run.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_simnet::{CostParams, FaultPlan, Machine, PortModel, RunError};
    use cubemm_topology::Subcube;

    const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

    fn payload(n: usize) -> Payload {
        (0..n).map(|x| x as f64 + 0.5).collect()
    }

    fn machine(port: PortModel, faults: FaultPlan) -> Machine {
        Machine::builder(8)
            .port(port)
            .cost(COST)
            .faults(faults)
            .build()
            .expect("valid test machine")
    }

    /// Runs an 8-node `bcast_ft` from rank 0 of M = 12 words under the
    /// given plan, asserting every node receives the right payload, and
    /// returns the elapsed virtual time.
    fn ft_bcast_elapsed(port: PortModel, faults: FaultPlan) -> f64 {
        let m = 12;
        let out = machine(port, faults)
            .run(vec![(); 8], move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let data = (sc.rank_of(proc.id()) == 0).then(|| payload(m));
                let got = bcast_ft(&mut proc, &sc, 0, 0, data, m)
                    .await
                    .expect("degraded bcast completes");
                assert_eq!(&got[..], &payload(m)[..], "node {}", proc.id());
                proc.clock()
            })
            .expect("run completes");
        out.stats.elapsed
    }

    fn ft_allgather_elapsed(port: PortModel, faults: FaultPlan) -> f64 {
        let m = 12;
        let out = machine(port, faults)
            .run(vec![(); 8], move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let rank = sc.rank_of(proc.id());
                let mine: Payload = (0..m).map(|x| (rank * m + x) as f64).collect();
                let all = allgather_ft(&mut proc, &sc, 0, mine)
                    .await
                    .expect("degraded allgather completes");
                for (r, got) in all.iter().enumerate() {
                    let want: Payload = (0..m).map(|x| (r * m + x) as f64).collect();
                    assert_eq!(&got[..], &want[..], "node {} rank {r}", proc.id());
                }
                proc.clock()
            })
            .expect("run completes");
        out.stats.elapsed
    }

    #[test]
    fn healthy_ft_bcast_is_bit_identical_to_table1() {
        // Empty plan: the ft engine must issue exactly the plain batches.
        assert_eq!(
            ft_bcast_elapsed(PortModel::OnePort, FaultPlan::new()),
            102.0
        );
        assert_eq!(
            ft_bcast_elapsed(PortModel::MultiPort, FaultPlan::new()),
            54.0
        );
    }

    #[test]
    fn healthy_ft_allgather_is_bit_identical_to_table1() {
        assert_eq!(
            ft_allgather_elapsed(PortModel::OnePort, FaultPlan::new()),
            198.0
        );
        assert_eq!(
            ft_allgather_elapsed(PortModel::MultiPort, FaultPlan::new()),
            86.0
        );
    }

    #[test]
    fn ft_bcast_relays_around_dead_tree_edge_at_a_cost() {
        // Edge (0,1) carries the round-0 transfer of the rank-0 SBT. The
        // strict plan rules out the simulator's transparent re-route, so
        // only the explicit relay can deliver — correct data, strictly
        // more virtual time than the healthy 102 / 54 pins.
        let plan = FaultPlan::new().with_dead_link(0, 1).strict();
        let one = ft_bcast_elapsed(PortModel::OnePort, plan.clone());
        assert!(one > 102.0, "one-port degraded elapsed {one} not > 102");
        let multi = ft_bcast_elapsed(PortModel::MultiPort, plan);
        assert!(multi > 54.0, "multi-port degraded elapsed {multi} not > 54");
    }

    #[test]
    fn ft_allgather_relays_around_dead_exchange_edge_at_a_cost() {
        // Recursive doubling exchanges (0,1) in its first round.
        let plan = FaultPlan::new().with_dead_link(0, 1).strict();
        let one = ft_allgather_elapsed(PortModel::OnePort, plan.clone());
        assert!(one > 198.0, "one-port degraded elapsed {one} not > 198");
        let multi = ft_allgather_elapsed(PortModel::MultiPort, plan);
        assert!(multi > 86.0, "multi-port degraded elapsed {multi} not > 86");
    }

    #[test]
    fn plain_bcast_aborts_under_strict_plan_where_ft_completes() {
        // Same strict dead link: the plain collective hits the dead edge
        // with a neighbor send and the machine reports the typed failure.
        let m = 12;
        let plan = FaultPlan::new().with_dead_link(0, 1).strict();
        let err = machine(PortModel::OnePort, plan)
            .run(vec![(); 8], move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let data = (sc.rank_of(proc.id()) == 0).then(|| payload(m));
                let _ = crate::bcast(&mut proc, &sc, 0, 0, data, m).await;
            })
            .expect_err("strict dead link must abort the plain schedule");
        match err {
            RunError::LinkDead { node: 0, error } => {
                assert_eq!(error, SendError::LinkDead { from: 0, to: 1 });
            }
            other => panic!("expected LinkDead at node 0, got {other:?}"),
        }
    }

    #[test]
    fn ft_bcast_under_lenient_plan_matches_dead_link_penalty_determinism() {
        // Degraded runs are as deterministic as healthy ones: two
        // identical runs give identical elapsed times.
        let plan = FaultPlan::new().with_dead_link(0, 1);
        let a = ft_bcast_elapsed(PortModel::OnePort, plan.clone());
        let b = ft_bcast_elapsed(PortModel::OnePort, plan);
        assert_eq!(a, b);
        assert!(a > 102.0);
    }
}
