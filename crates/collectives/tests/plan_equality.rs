//! Plan equality: the generators that now enumerate packet ids by
//! ascending sub-mask must emit, element for element, the plans their
//! predecessors found by scanning the whole id space.
//!
//! `frozen` holds the id computations exactly as they stood before the
//! rewrite — the `(0..n).filter(..)` scans of all-gather and
//! reduce-scatter, the grow-and-sort `subtree` of scatter and gather,
//! the `for dest { for origin }` double loop of all-to-all. They are the
//! reference: do not "fix" or speed them up. `cubemm-analyze`'s
//! certificates and the schema expansion diff read the plans, so plan
//! equality is what keeps all of those where they were.

use cubemm_collectives::{
    allgather_plan, alltoall_plan, gather_plan, reduce_scatter_plan, scatter_plan, Plan, RecvMode,
};
use cubemm_simnet::{Payload, PortModel};
use cubemm_topology::Subcube;

const PORTS: [PortModel; 2] = [PortModel::OnePort, PortModel::MultiPort];
const BASE: u64 = 3 << 12;
/// Deliberately not a multiple of any `d`, so multi-port slices differ
/// in length.
const WORDS: usize = 7;

/// One transfer, flattened for comparison.
type Row = (usize, u64, Vec<usize>, bool, Vec<usize>, RecvMode);

fn rows(plan: &Plan) -> Vec<Vec<Row>> {
    plan.rounds
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|x| {
                    (
                        x.peer,
                        x.tag,
                        x.send.clone(),
                        x.consume_sends,
                        x.recv.clone(),
                        x.recv_mode,
                    )
                })
                .collect()
        })
        .collect()
}

fn block() -> Payload {
    (0..WORDS).map(|x| x as f64).collect()
}

mod frozen {
    //! The generator bodies as of the parent commit, reduced to what
    //! decides the plan (no payloads, no stores).
    use super::{Row, BASE};
    use cubemm_collectives::RecvMode;
    use cubemm_simnet::PortModel;
    use cubemm_topology::Subcube;

    fn round_tag(base: u64, r: u32, c: u32) -> u64 {
        base + u64::from(r) * 64 + u64::from(c)
    }

    fn ncopies(port: PortModel, d: usize) -> usize {
        match port {
            PortModel::OnePort => 1,
            PortModel::MultiPort => d.max(1),
        }
    }

    fn subtree(child: usize, fixed: usize, d: usize) -> Vec<usize> {
        let mut members = vec![child];
        for b in 0..d {
            if fixed & (1 << b) == 0 {
                let grown: Vec<usize> = members.iter().map(|&m| m | (1 << b)).collect();
                members.extend(grown);
            }
        }
        members.sort_unstable();
        members
    }

    pub fn allgather(port: PortModel, sc: &Subcube, me: usize) -> Vec<Vec<Row>> {
        let d = sc.dim() as usize;
        let n = sc.size();
        let v = sc.rank_of(me);
        let mut rounds = vec![Vec::new(); d];
        for (s, round) in rounds.iter_mut().enumerate() {
            for c in 0..ncopies(port, d) {
                let o_s = (c + s) % d;
                let processed: usize = (0..s).map(|i| 1usize << ((c + i) % d)).sum();
                let peer_rank = v ^ (1 << o_s);
                let tag = round_tag(BASE, s as u32, c as u32);
                let held: Vec<usize> = (0..n)
                    .filter(|r| r & !processed == v & !processed)
                    .collect();
                let incoming: Vec<usize> = (0..n)
                    .filter(|r| r & !processed == peer_rank & !processed)
                    .collect();
                round.push((
                    sc.member(peer_rank),
                    tag,
                    held.iter().map(|&r| c * n + r).collect(),
                    false,
                    incoming.iter().map(|&r| c * n + r).collect(),
                    RecvMode::Fill,
                ));
            }
        }
        rounds
    }

    pub fn reduce_scatter(port: PortModel, sc: &Subcube, me: usize) -> Vec<Vec<Row>> {
        let d = sc.dim() as usize;
        let n = sc.size();
        let v = sc.rank_of(me);
        let mut rounds = vec![Vec::new(); d];
        for (step, round) in rounds.iter_mut().enumerate() {
            for c in 0..ncopies(port, d) {
                let o = (c + d - 1 - step) % d;
                let processed: usize = (0..step).map(|i| 1usize << ((c + d - 1 - i) % d)).sum();
                let peer_rank = v ^ (1 << o);
                let tag = round_tag(BASE, step as u32, c as u32);
                let alive = |r: usize| r & processed == v & processed;
                let send_set: Vec<usize> = (0..n)
                    .filter(|&r| alive(r) && (r >> o) & 1 == (peer_rank >> o) & 1)
                    .collect();
                let keep_set: Vec<usize> = (0..n)
                    .filter(|&r| alive(r) && (r >> o) & 1 == (v >> o) & 1)
                    .collect();
                round.push((
                    sc.member(peer_rank),
                    tag,
                    send_set.iter().map(|&r| c * n + r).collect(),
                    true,
                    keep_set.iter().map(|&r| c * n + r).collect(),
                    RecvMode::Accumulate,
                ));
            }
        }
        rounds
    }

    pub fn scatter(port: PortModel, sc: &Subcube, me: usize, root: usize) -> Vec<Vec<Row>> {
        let d = sc.dim() as usize;
        let n = sc.size();
        let v = sc.rank_of(me) ^ root;
        let mut rounds = vec![Vec::new(); d];
        for (r, round) in rounds.iter_mut().enumerate() {
            for c in 0..ncopies(port, d) {
                let o_r = (c + r) % d;
                let processed: usize = (0..r).map(|i| 1usize << ((c + i) % d)).sum();
                let tag = round_tag(BASE, r as u32, c as u32);
                if v & !processed == 0 {
                    let child = v | (1 << o_r);
                    let dests = subtree(child, processed | (1 << o_r), d);
                    round.push((
                        sc.member(child ^ root),
                        tag,
                        dests.iter().map(|&u| c * n + u).collect(),
                        true,
                        vec![],
                        RecvMode::Fill,
                    ));
                } else if v & !(processed | (1 << o_r)) == 0 && (v >> o_r) & 1 == 1 {
                    let dests = subtree(v, processed | (1 << o_r), d);
                    round.push((
                        sc.member((v ^ (1 << o_r)) ^ root),
                        tag,
                        vec![],
                        false,
                        dests.iter().map(|&u| c * n + u).collect(),
                        RecvMode::Fill,
                    ));
                }
            }
        }
        rounds
    }

    pub fn gather(port: PortModel, sc: &Subcube, me: usize, root: usize) -> Vec<Vec<Row>> {
        let d = sc.dim() as usize;
        let n = sc.size();
        let v = sc.rank_of(me) ^ root;
        let mut rounds = vec![Vec::new(); d];
        for (step, round) in rounds.iter_mut().enumerate() {
            for c in 0..ncopies(port, d) {
                let u_dim = (c + d - 1 - step) % d;
                let remaining: usize = ((step + 1)..d)
                    .map(|i| 1usize << ((c + d - 1 - i) % d))
                    .sum();
                let tag = round_tag(BASE, step as u32, c as u32);
                if v & !(remaining | (1 << u_dim)) == 0 && (v >> u_dim) & 1 == 1 {
                    let members = subtree(v, remaining | (1 << u_dim), d);
                    round.push((
                        sc.member((v ^ (1 << u_dim)) ^ root),
                        tag,
                        members.iter().map(|&u| c * n + u).collect(),
                        true,
                        vec![],
                        RecvMode::Fill,
                    ));
                } else if v & !remaining == 0 {
                    let child = v | (1 << u_dim);
                    let members = subtree(child, remaining | (1 << u_dim), d);
                    round.push((
                        sc.member(child ^ root),
                        tag,
                        vec![],
                        false,
                        members.iter().map(|&u| c * n + u).collect(),
                        RecvMode::Fill,
                    ));
                }
            }
        }
        rounds
    }

    pub fn alltoall(port: PortModel, sc: &Subcube, me: usize) -> Vec<Vec<Row>> {
        let d = sc.dim() as usize;
        let n = sc.size();
        let v = sc.rank_of(me);
        let mut rounds = vec![Vec::new(); d];
        for (i, round) in rounds.iter_mut().enumerate() {
            for c in 0..ncopies(port, d) {
                let o_i = (c + i) % d;
                let processed: usize = (0..i).map(|t| 1usize << ((c + t) % d)).sum();
                let peer_rank = v ^ (1 << o_i);
                let tag = round_tag(BASE, i as u32, c as u32);
                let at = |node: usize, dest: usize, origin: usize| {
                    dest & processed == node & processed && origin & !processed == node & !processed
                };
                let mut send_ids = Vec::new();
                let mut recv_ids = Vec::new();
                for dest in 0..n {
                    for origin in 0..n {
                        if at(v, dest, origin) && (dest >> o_i) & 1 != (v >> o_i) & 1 {
                            send_ids.push(c * n * n + dest * n + origin);
                        }
                        if at(peer_rank, dest, origin) && (dest >> o_i) & 1 == (v >> o_i) & 1 {
                            recv_ids.push(c * n * n + dest * n + origin);
                        }
                    }
                }
                round.push((
                    sc.member(peer_rank),
                    tag,
                    send_ids,
                    true,
                    recv_ids,
                    RecvMode::Fill,
                ));
            }
        }
        rounds
    }
}

/// Every `(port, subcube, member)` over d ∈ 0..=6. The subcubes sit in
/// the high dimensions of a machine one dimension larger, so `member`
/// labels differ from ranks.
fn every_member(mut check: impl FnMut(PortModel, &Subcube, usize)) {
    for d in 0..=6u32 {
        let sc = Subcube::new(1, (1..=d).collect());
        for port in PORTS {
            for rank in 0..sc.size() {
                check(port, &sc, sc.member(rank));
            }
        }
    }
}

#[test]
fn allgather_plans_match_the_frozen_generator() {
    every_member(|port, sc, me| {
        let mut run = allgather_plan(port, sc, me, BASE, block());
        assert_eq!(
            rows(run.run_mut().plan()),
            frozen::allgather(port, sc, me),
            "{port} d={} node {me}",
            sc.dim()
        );
    });
}

#[test]
fn reduce_scatter_plans_match_the_frozen_generator() {
    every_member(|port, sc, me| {
        let parts = vec![block(); sc.size()];
        let mut run = reduce_scatter_plan(port, sc, me, BASE, parts);
        assert_eq!(
            rows(run.run_mut().plan()),
            frozen::reduce_scatter(port, sc, me),
            "{port} d={} node {me}",
            sc.dim()
        );
    });
}

#[test]
fn scatter_plans_match_the_frozen_generator_for_every_root() {
    every_member(|port, sc, me| {
        for root in 0..sc.size() {
            let parts = (sc.rank_of(me) == root).then(|| vec![block(); sc.size()]);
            let mut run = scatter_plan(port, sc, me, root, BASE, parts, WORDS);
            assert_eq!(
                rows(run.run_mut().plan()),
                frozen::scatter(port, sc, me, root),
                "{port} d={} node {me} root {root}",
                sc.dim()
            );
        }
    });
}

#[test]
fn gather_plans_match_the_frozen_generator_for_every_root() {
    every_member(|port, sc, me| {
        for root in 0..sc.size() {
            let mut run = gather_plan(port, sc, me, root, BASE, block());
            assert_eq!(
                rows(run.run_mut().plan()),
                frozen::gather(port, sc, me, root),
                "{port} d={} node {me} root {root}",
                sc.dim()
            );
        }
    });
}

#[test]
fn alltoall_plans_match_the_frozen_generator() {
    every_member(|port, sc, me| {
        let parts = vec![block(); sc.size()];
        let mut run = alltoall_plan(port, sc, me, BASE, parts);
        assert_eq!(
            rows(run.run_mut().plan()),
            frozen::alltoall(port, sc, me),
            "{port} d={} node {me}",
            sc.dim()
        );
    });
}
