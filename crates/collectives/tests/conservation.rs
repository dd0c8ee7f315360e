//! Conservation of packets: what the rounds of a collective do to the
//! machine-wide set of packet ids, stated as an invariant rather than by
//! comparison with a second copy of the generator.
//!
//! For every kind × both ports × d ∈ 1..=6 × every root, each node's run
//! is set up through the public `*_plan` entry points, and the transfers
//! its `xfers(r)` yields — the ones the executor issues, read off the
//! schema the same way — are replayed on id sets alone:
//!
//! * each round-`r` send lists exactly the ids, in exactly the order,
//!   that the matching receive on the other end of the link splits the
//!   bundle into — and every receive has such a send;
//! * a node only sends what it holds; `Fill` never lands on an occupied
//!   slot and `Accumulate` always finds its target;
//! * ownership is conserved after every round: where sends are consumed
//!   and receives fill, every id is held by exactly one node; where
//!   receives accumulate, each id's holders halve; where sends are kept
//!   (the two broadcasts), they double;
//! * at the end each node holds exactly the ids its `finish` bundles.

use std::collections::BTreeSet;

use cubemm_collectives::{
    allgather_plan, alltoall_plan, bcast_plan, gather_plan, reduce_plan, reduce_scatter_plan,
    scatter_plan, CollKind, CollectiveRun, IdMask, RecvMode, Xfer,
};
use cubemm_simnet::{Payload, PortModel};
use cubemm_topology::Subcube;

const BASE: u64 = 3 << 12;
/// Deliberately not a multiple of any `d`, so multi-port slices differ
/// in length (some are empty: a zero-word packet is still a packet).
const WORDS: usize = 7;

fn block() -> Payload {
    (0..WORDS).map(|x| x as f64).collect()
}

/// One node's side: the transfers of each round and the ids its store
/// was filled with.
struct Node {
    rounds: Vec<Vec<Xfer>>,
    held: BTreeSet<usize>,
}

fn snapshot(run: &CollectiveRun) -> Node {
    let store = run.store();
    Node {
        rounds: (0..run.rounds()).map(|r| run.xfers(r).collect()).collect(),
        held: (0..store.len())
            .filter(|&id| store.get(id).is_some())
            .collect(),
    }
}

/// The ids of one side of a transfer, ascending (none for `None`).
fn ids(set: Option<IdMask>, offset: usize) -> Vec<usize> {
    set.map_or_else(Vec::new, |set| set.ids(offset).collect())
}

/// Sets up `kind` for the member of rank `rank` (the unrooted kinds
/// ignore `root`).
fn set_up(kind: CollKind, port: PortModel, sc: &Subcube, rank: usize, root: usize) -> Node {
    let (me, n) = (sc.member(rank), sc.size());
    let at_root = rank == root;
    match kind {
        CollKind::Bcast => {
            let data = at_root.then(block);
            snapshot(bcast_plan(port, sc, me, root, BASE, data, WORDS).run_mut())
        }
        CollKind::Scatter => {
            let parts = at_root.then(|| vec![block(); n]);
            snapshot(scatter_plan(port, sc, me, root, BASE, parts, WORDS).run_mut())
        }
        CollKind::Gather => snapshot(gather_plan(port, sc, me, root, BASE, block()).run_mut()),
        CollKind::Reduce => snapshot(reduce_plan(port, sc, me, root, BASE, block()).run_mut()),
        CollKind::Allgather => snapshot(allgather_plan(port, sc, me, BASE, block()).run_mut()),
        CollKind::ReduceScatter => {
            snapshot(reduce_scatter_plan(port, sc, me, BASE, vec![block(); n]).run_mut())
        }
        CollKind::Alltoall => {
            snapshot(alltoall_plan(port, sc, me, BASE, vec![block(); n]).run_mut())
        }
    }
}

/// The ids (within one copy) the node of relative rank `v` must end up
/// holding — what the kind's `finish` bundles. Ids live in relative
/// rank space: packet `u` of a rooted personalized collective belongs
/// to the member of rank `u ⊕ root`; all-to-all's are `dest·n + origin`.
fn finished(kind: CollKind, n: usize, v: usize) -> Vec<usize> {
    match kind {
        CollKind::Bcast => vec![0],
        CollKind::Scatter | CollKind::ReduceScatter => vec![v],
        CollKind::Reduce | CollKind::Gather if v != 0 => vec![],
        CollKind::Reduce => vec![0],
        CollKind::Gather | CollKind::Allgather => (0..n).collect(),
        CollKind::Alltoall => (0..n).map(|origin| v * n + origin).collect(),
    }
}

fn conserves_at(kind: CollKind, port: PortModel, sc: &Subcube, root: usize) {
    let (d, n) = (sc.dim() as usize, sc.size());
    let at = format!("{} {port} d={d} root {root}", kind.name());
    let mut nodes: Vec<Node> = (0..n)
        .map(|rank| set_up(kind, port, sc, rank, root))
        .collect();
    let copies = match port {
        PortModel::OnePort => 1,
        PortModel::MultiPort => d,
    };
    let per_copy = match kind {
        CollKind::Bcast | CollKind::Reduce => 1,
        CollKind::Alltoall => n * n,
        _ => n,
    };

    let (consume, mode) = (kind.consume_sends(), kind.recv_mode());

    for r in 0..d {
        // The transfer on the other end of `x`'s link, if the peer has one.
        let mirror = |from: usize, x: &Xfer| -> Option<&Xfer> {
            nodes[sc.rank_of(x.peer)].rounds[r]
                .iter()
                .find(|y| y.peer == sc.member(from) && y.tag == x.tag)
        };
        for (rank, node) in nodes.iter().enumerate() {
            assert_eq!(node.rounds.len(), d, "{at}: rank {rank} round count");
            for x in &node.rounds[r] {
                let (their_send, their_recv) = mirror(rank, x).map_or((vec![], vec![]), |y| {
                    (ids(y.send, y.offset), ids(y.recv, y.offset))
                });
                let (send, recv) = (ids(x.send, x.offset), ids(x.recv, x.offset));
                assert_eq!(send, their_recv, "{at}: round {r} rank {rank} send");
                assert_eq!(recv, their_send, "{at}: round {r} rank {rank} recv");
                assert!(
                    send.iter().all(|id| node.held.contains(id)),
                    "{at}: round {r} rank {rank} sends a packet it does not hold"
                );
            }
        }
        // All sends of a round leave before any receive lands.
        for Node { rounds, held } in &mut nodes {
            for x in rounds[r].iter().filter(|_| consume) {
                ids(x.send, x.offset)
                    .iter()
                    .for_each(|id| assert!(held.remove(id)));
            }
        }
        for (rank, Node { rounds, held }) in nodes.iter_mut().enumerate() {
            for x in &rounds[r] {
                for id in ids(x.recv, x.offset) {
                    let fresh = match mode {
                        RecvMode::Fill => held.insert(id),
                        RecvMode::Accumulate => !held.contains(&id),
                    };
                    let want_fresh = mode == RecvMode::Fill;
                    assert_eq!(fresh, want_fresh, "{at}: round {r} rank {rank} packet {id}");
                }
            }
        }
        let holders = match kind {
            // Ownership moves: one holder, always.
            CollKind::Scatter | CollKind::Gather | CollKind::Alltoall => 1,
            // Partial sums merge pairwise.
            CollKind::Reduce | CollKind::ReduceScatter => n >> (r + 1),
            // Copies spread.
            CollKind::Bcast | CollKind::Allgather => 2 << r,
        };
        for id in 0..copies * per_copy {
            let held_by = nodes.iter().filter(|node| node.held.contains(&id)).count();
            assert_eq!(held_by, holders, "{at}: after round {r}, packet {id}");
        }
    }

    for (rank, node) in nodes.iter().enumerate() {
        let want: BTreeSet<usize> = (0..copies)
            .flat_map(|c| {
                finished(kind, n, rank ^ root)
                    .into_iter()
                    .map(move |id| c * per_copy + id)
            })
            .collect();
        assert_eq!(node.held, want, "{at}: rank {rank} at the end");
    }
}

/// Every port × d ∈ 1..=6 × root. The subcubes sit in the high
/// dimensions of a machine one dimension larger, so member labels
/// differ from ranks.
fn conserves(kind: CollKind) {
    let rooted = matches!(
        kind,
        CollKind::Bcast | CollKind::Scatter | CollKind::Gather | CollKind::Reduce
    );
    for d in 1..=6u32 {
        let sc = Subcube::new(1, (1..=d).collect());
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for root in 0..if rooted { sc.size() } else { 1 } {
                conserves_at(kind, port, &sc, root);
            }
        }
    }
}

#[test]
fn bcast_conserves_packets_for_every_root() {
    conserves(CollKind::Bcast);
}

#[test]
fn scatter_conserves_packets_for_every_root() {
    conserves(CollKind::Scatter);
}

#[test]
fn gather_conserves_packets_for_every_root() {
    conserves(CollKind::Gather);
}

#[test]
fn reduce_conserves_packets_for_every_root() {
    conserves(CollKind::Reduce);
}

#[test]
fn allgather_conserves_packets() {
    conserves(CollKind::Allgather);
}

#[test]
fn reduce_scatter_conserves_packets() {
    conserves(CollKind::ReduceScatter);
}

#[test]
fn alltoall_conserves_packets() {
    conserves(CollKind::Alltoall);
}
