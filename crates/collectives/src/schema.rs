//! Declarative *schedule schemas* for the seven Johnsson–Ho
//! collectives, parametric in the cube dimension — the one description
//! of a collective in this workspace.
//!
//! A [`CollSchema`] states, for one collective, the schedule family
//! `{plan(d) : d ≥ 1}`: how many rounds the family runs per copy (always
//! the subcube dimension `δ` for the reference schemas; negative tests
//! skew it), the per-round send volume it *claims* as an exponential
//! schema `coef · (m/nc) · 2^(aδ + br + c)`, and — through the single
//! guard function [`CollSchema::xfer`] — what every node does in every
//! round of every copy: its peer, and the packet ids it sends and
//! receives, named as sub-mask sets ([`IdMask`]) rather than lists.
//!
//! Both consumers call that function directly. The executor asks it for
//! each round's transfers as the round runs and lists an id set only
//! while it bundles or splits a message ([`CollectiveRun`], behind every
//! `*_plan` entry point); the analyzer's [`RoundSpec`] only counts them
//! ([`CollSchema::expand_node`]: words = `|ids|` · slice length). No
//! per-node plan is compiled, so there is no second copy of the
//! schedule to diff against: `cubemm-analyze` attacks the guard function
//! itself — the claimed volume must equal the id-set cardinality, the
//! expansion must pass the concrete checker and hit the closed form, and
//! traced real runs must match it message for message (see DESIGN.md
//! §15).
//!
//! [`CollectiveRun`]: crate::CollectiveRun

use cubemm_simnet::PortModel;

use crate::plan::RecvMode;
use crate::{chunk_bounds, round_tag, submasks};

/// The seven collective kinds of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// One-to-all broadcast (spanning binomial tree, root down).
    Bcast,
    /// One-to-all personalized (scatter: SBT down, personalized).
    Scatter,
    /// All-to-one personalized (gather: SBT up).
    Gather,
    /// All-to-one reduction (SBT up, accumulating).
    Reduce,
    /// All-to-all broadcast (recursive doubling).
    Allgather,
    /// All-to-all reduction (recursive halving).
    ReduceScatter,
    /// All-to-all personalized (dimension exchange).
    Alltoall,
}

impl CollKind {
    /// Every kind, for exhaustive sweeps.
    pub const ALL: [CollKind; 7] = [
        CollKind::Bcast,
        CollKind::Scatter,
        CollKind::Gather,
        CollKind::Reduce,
        CollKind::Allgather,
        CollKind::ReduceScatter,
        CollKind::Alltoall,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            CollKind::Bcast => "bcast",
            CollKind::Scatter => "scatter",
            CollKind::Gather => "gather",
            CollKind::Reduce => "reduce",
            CollKind::Allgather => "allgather",
            CollKind::ReduceScatter => "reduce-scatter",
            CollKind::Alltoall => "alltoall",
        }
    }

    /// Does copy `c` peel dimensions in reverse rotated order
    /// (`o_r = (c + δ − 1 − r) mod δ`, the "up" trees) rather than
    /// forward (`o_r = (c + r) mod δ`)?
    pub fn reverse_order(&self) -> bool {
        matches!(
            self,
            CollKind::Gather | CollKind::Reduce | CollKind::ReduceScatter
        )
    }

    /// Do sent packets leave the sender's store (ownership moves), or
    /// stay for forwarding in later rounds (the two broadcasts)?
    pub fn consume_sends(&self) -> bool {
        !matches!(self, CollKind::Bcast | CollKind::Allgather)
    }

    /// What a receive does with each packet: the two reductions add it
    /// into the slot they already hold, everything else fills an empty
    /// one.
    pub fn recv_mode(&self) -> RecvMode {
        match self {
            CollKind::Reduce | CollKind::ReduceScatter => RecvMode::Accumulate,
            _ => RecvMode::Fill,
        }
    }

    /// Packet ids one copy addresses on a `δ`-cube: one message
    /// (broadcast, reduce), one part per rank, or one per
    /// `(dest, origin)` pair (all-to-all personalized).
    pub fn ids_per_copy(&self, delta: u32) -> usize {
        match self {
            CollKind::Bcast | CollKind::Reduce => 1,
            CollKind::Alltoall => 1 << (2 * delta),
            _ => 1 << delta,
        }
    }
}

/// Per-round send volume as an exponential schema: round `r` of copy
/// `c` moves `coef · 2^(pow2_delta·δ + pow2_r·r + pow2_const)` packets
/// of `chunk(m, nc, c)` words each (the copy's slice of the `m`-word
/// unit). The reference schemas all have `coef = 1`; the field exists
/// so tests can state a *wrong* claim and watch the certifier reject
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolSchema {
    /// Rational coefficient `num/den` on the packet count.
    pub coef: (i64, i64),
    /// Coefficient of `δ` in the packet-count exponent.
    pub pow2_delta: i32,
    /// Coefficient of the round index `r` in the exponent.
    pub pow2_r: i32,
    /// Constant part of the exponent.
    pub pow2_const: i32,
}

impl VolSchema {
    /// Constant one packet per round.
    pub const ONE: VolSchema = VolSchema {
        coef: (1, 1),
        pow2_delta: 0,
        pow2_r: 0,
        pow2_const: 0,
    };

    /// The exact packet count this schema claims for round `r` of a
    /// `δ`-dimensional run, or `None` if the claim is not a
    /// non-negative integer (possible only for skewed test schemas).
    pub fn packets(&self, delta: u32, r: u32) -> Option<u64> {
        let e = i64::from(self.pow2_delta) * i64::from(delta)
            + i64::from(self.pow2_r) * i64::from(r)
            + i64::from(self.pow2_const);
        if !(0..63).contains(&e) {
            return None;
        }
        let count = self.coef.0.checked_mul(1i64 << e)?;
        // `checked_*`: a zero denominator (and `i64::MIN / −1`) is no claim.
        if count.checked_rem(self.coef.1)? != 0 {
            return None;
        }
        u64::try_from(count.checked_div(self.coef.1)?).ok()
    }
}

/// A set of packet ids within one copy, named without listing it:
/// `{fixed | s : s ⊆ free}` (`fixed` and `free` disjoint). Scatter-like
/// collectives name "every rank that agrees with me outside these
/// dimensions" this way; all-to-all's `(dest, origin)` pairs are the
/// same thing over `2δ` bits, `dest` in the high `δ` — so ascending
/// order is dest-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdMask {
    /// The bits every id of the set has.
    pub fixed: usize,
    /// The bits that range over all combinations.
    pub free: usize,
}

impl IdMask {
    /// The one-packet set `{id}`.
    pub fn single(id: usize) -> IdMask {
        IdMask { fixed: id, free: 0 }
    }

    /// Every id below `n`, a power of two: one per rank of an `n`-node
    /// subcube.
    pub(crate) fn below(n: usize) -> IdMask {
        debug_assert!(n.is_power_of_two());
        IdMask {
            fixed: 0,
            free: n - 1,
        }
    }

    /// How many ids the set holds: `2^popcount(free)`.
    #[allow(
        clippy::len_without_is_empty,
        reason = "a sub-mask set always holds `fixed` itself"
    )]
    pub fn len(&self) -> usize {
        1 << self.free.count_ones()
    }

    /// The ids, ascending, each shifted by `offset` (the copy's first
    /// id). The length is exact, so collecting allocates once.
    pub fn ids(&self, offset: usize) -> impl ExactSizeIterator<Item = usize> + Clone {
        submasks(self.fixed, self.free).map(move |id| offset + id)
    }

    /// The largest id of the set.
    pub(crate) fn last(&self) -> usize {
        self.fixed | self.free
    }

    /// Whether `id` is in the set.
    pub(crate) fn contains(&self, id: usize) -> bool {
        id & !self.free == self.fixed
    }

    /// Whether every id of `other` is in the set.
    pub(crate) fn covers(&self, other: IdMask) -> bool {
        other.free & !self.free == 0 && self.contains(other.fixed)
    }

    /// The ids both sets hold, if they share any: the two agree wherever
    /// neither is free.
    pub(crate) fn meet(&self, other: IdMask) -> Option<IdMask> {
        ((self.fixed ^ other.fixed) & !(self.free | other.free) == 0).then_some(IdMask {
            fixed: self.fixed | other.fixed,
            free: self.free & other.free,
        })
    }
}

/// What one node does across one link in one round of one copy, in
/// *relative rank* space (`v = rank ⊕ root`): the caller maps `peer_v`
/// back through the root and the subcube. How packets leave and land
/// ([`CollKind::consume_sends`], [`CollKind::recv_mode`]) is the same
/// for every transfer of a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferShape {
    /// Peer, as a relative rank.
    pub peer_v: usize,
    /// Ids bundled (ascending) into the outgoing message; `None` for a
    /// pure receive.
    pub send: Option<IdMask>,
    /// Ids the incoming message is split into (ascending); `None` for a
    /// pure send.
    pub recv: Option<IdMask>,
}

/// One send or receive of a schema expansion, in *relative rank* space
/// (`v = rank ⊕ root`): the caller maps `v` back through the subcube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSpec {
    /// Peer, as a relative rank.
    pub peer_v: usize,
    /// Message tag (`round_tag` of the base tag, round, and copy).
    pub tag: u64,
    /// Exact message length in words.
    pub words: usize,
}

/// One round of a node's expansion: the sends it issues, then the
/// receives it posts — the same intra-round order the plan executor
/// uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundSpec {
    /// Sends issued this round, in copy order.
    pub sends: Vec<WireSpec>,
    /// Receives posted this round, in copy order.
    pub recvs: Vec<WireSpec>,
}

/// A collective's declarative schedule schema. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollSchema {
    /// Which collective this describes.
    pub kind: CollKind,
    /// Declared rounds per copy, as an offset from the structural `δ`
    /// (`0` for every reference schema; e.g. `+1` states an off-by-one
    /// round count for the checker to refute).
    pub rounds_skew: i32,
    /// Declared per-round send volume.
    pub vol: VolSchema,
}

impl CollSchema {
    /// The reference schema of `kind` — the claims Table 1 makes.
    pub fn reference(kind: CollKind) -> CollSchema {
        let vol = match kind {
            CollKind::Bcast | CollKind::Reduce => VolSchema::ONE,
            // SBT-down personalized and recursive halving shrink as the
            // tree descends: 2^(δ−1−r) packets.
            CollKind::Scatter | CollKind::ReduceScatter => VolSchema {
                coef: (1, 1),
                pow2_delta: 1,
                pow2_r: -1,
                pow2_const: -1,
            },
            // SBT-up personalized and recursive doubling grow with the
            // round: 2^r packets.
            CollKind::Gather | CollKind::Allgather => VolSchema {
                coef: (1, 1),
                pow2_delta: 0,
                pow2_r: 1,
                pow2_const: 0,
            },
            // Dimension exchange always moves half the address space.
            CollKind::Alltoall => VolSchema {
                coef: (1, 1),
                pow2_delta: 1,
                pow2_r: 0,
                pow2_const: -1,
            },
        };
        CollSchema {
            kind,
            rounds_skew: 0,
            vol,
        }
    }

    /// Copies under `port` on a `δ`-cube: one, or `δ` rotated
    /// link-disjoint copies (multi-port).
    pub fn ncopies(&self, port: PortModel, delta: u32) -> usize {
        match port {
            PortModel::OnePort => 1,
            PortModel::MultiPort => (delta as usize).max(1),
        }
    }

    /// Declared rounds per copy at dimension `δ`.
    pub fn rounds(&self, delta: u32) -> usize {
        (i64::from(delta) + i64::from(self.rounds_skew)).max(0) as usize
    }

    /// The dimension copy `c` peels at step `i` of a `d`-cube (`d ≥ 1`):
    /// the rotated order `o_i = (c + i) mod d`, walked backwards by the
    /// "up" shapes. Steps past `d` (skewed schemas only) wrap.
    fn dim_at(&self, d: usize, c: usize, i: usize) -> usize {
        if self.kind.reverse_order() {
            (c + d - 1 - i % d) % d
        } else {
            (c + i) % d
        }
    }

    /// The dimensions rounds `0..r` of copy `c` peel on a `d`-cube
    /// (`r < d`), as a mask: `r` consecutive dimensions, rotated —
    /// forward from `c`, or for the "up" shapes backward from `c − 1`.
    fn done(&self, d: usize, c: usize, r: usize) -> usize {
        let first = match self.kind.reverse_order() {
            true => (c + d - r) % d,
            false => c % d,
        };
        let run = (1usize << r) - 1;
        let wrapped = run.checked_shr((d - first) as u32).unwrap_or(0);
        ((run << first) | wrapped) & ((1usize << d) - 1)
    }

    /// The guard function — the one place the seven schedules are
    /// written down. For relative rank `v` in round `r` of copy `c` on
    /// a `δ`-cube it returns the transfer across the round's dimension,
    /// or `None` when the node sits the round out (tree shapes away from
    /// the frontier; every node in the structurally empty rounds
    /// `r ≥ δ` of a skewed schema).
    ///
    /// With `bit` the round's dimension, `done` the dimensions peeled by
    /// earlier rounds and `rest` those still to come:
    ///
    /// * **SBT down** (broadcast, scatter): the nodes inside `done` hold
    ///   data and feed their child across `bit`; scatter hands over the
    ///   child's whole subtree, the ranks `child | s`, `s ⊆ rest`.
    /// * **SBT up** (gather, reduce): the nodes outside `done` are still
    ///   alive; those with `bit` set push to their parent — gather the
    ///   subtree collected so far, `v | s`, `s ⊆ done`.
    /// * **Exchange** (all-gather, reduce-scatter, all-to-all): every
    ///   node swaps with its neighbour across `bit`. All-gather sends
    ///   all it has gathered (its rank with `done` free). Reduce-scatter
    ///   keeps the parts still alive here (agreeing with `v` on `done`)
    ///   whose destination is on its own side of `bit` and ships the
    ///   other half. All-to-all packet `(dest, origin)` sits at the node
    ///   taking its `done` bits from `dest` and the others from
    ///   `origin`; the ones whose `dest` lies across `bit` cross.
    pub fn xfer(&self, delta: u32, r: usize, c: usize, v: usize) -> Option<XferShape> {
        let d = delta as usize;
        if r >= d {
            return None;
        }
        let bit = 1usize << self.dim_at(d, c, r);
        let done = self.done(d, c, r);
        let rest = ((1usize << d) - 1) & !(done | bit);
        let peer = v ^ bit;
        let one_way = |sender: bool, ids: IdMask| XferShape {
            peer_v: peer,
            send: sender.then_some(ids),
            recv: (!sender).then_some(ids),
        };
        let exchange = |send: IdMask, recv: IdMask| XferShape {
            peer_v: peer,
            send: Some(send),
            recv: Some(recv),
        };
        let mask = |fixed: usize, free: usize| IdMask { fixed, free };
        Some(match self.kind {
            CollKind::Bcast | CollKind::Scatter => {
                let holder = v & !done == 0;
                if !holder && v & !(done | bit) != 0 {
                    return None;
                }
                let parts = match self.kind {
                    CollKind::Bcast => IdMask::single(0),
                    _ => mask(v | bit, rest),
                };
                one_way(holder, parts)
            }
            CollKind::Gather | CollKind::Reduce => {
                if v & done != 0 {
                    return None;
                }
                let parts = match self.kind {
                    CollKind::Reduce => IdMask::single(0),
                    _ => mask(v | bit, done),
                };
                one_way(v & bit != 0, parts)
            }
            CollKind::Allgather => exchange(mask(v & !done, done), mask(peer & !done, done)),
            CollKind::ReduceScatter => {
                let side_of = |rank: usize| mask(v & done | rank & bit, rest);
                exchange(side_of(peer), side_of(v))
            }
            CollKind::Alltoall => {
                let crossing = |holder: usize, side: usize| {
                    let (dest, origin) = (holder & done | side & bit, holder & !done);
                    mask(dest << d | origin, rest << d | done)
                };
                exchange(crossing(v, peer), crossing(peer, v))
            }
        })
    }

    /// Expands this schema for the node with relative rank `v` on a
    /// `δ`-cube: the exact sends and receives of every round, with
    /// peers in relative-rank space and exact chunked lengths. `m` is
    /// the Table 1 unit (full message for the broadcast/reduce shapes,
    /// per-part length for the personalized ones) and `base` the tag
    /// base.
    pub fn expand_node(
        &self,
        port: PortModel,
        delta: u32,
        m: usize,
        base: u64,
        v: usize,
    ) -> Vec<RoundSpec> {
        let nc = self.ncopies(port, delta);
        (0..self.rounds(delta))
            .map(|r| {
                let mut round = RoundSpec::default();
                for c in 0..nc {
                    let Some(x) = self.xfer(delta, r, c, v) else {
                        continue;
                    };
                    let (lo, hi) = chunk_bounds(m, nc, c);
                    let wire = |ids: IdMask| WireSpec {
                        peer_v: x.peer_v,
                        tag: round_tag(base, r as u32, c as u32),
                        words: ids.len() * (hi - lo),
                    };
                    round.sends.extend(x.send.map(wire));
                    round.recvs.extend(x.recv.map(wire));
                }
                round
            })
            .collect()
    }

    /// The rotated dimensions `{o_r(c) : c < ncopies}` used by round
    /// `r` at dimension `δ` — the link-disjointness certificate checks
    /// these are pairwise distinct for every `r < δ`, which holds for
    /// all `δ` by the residue argument (see `cubemm-analyze`).
    pub fn round_dims(&self, delta: u32, port: PortModel, r: u32) -> Vec<u32> {
        let d = delta.max(1) as usize;
        (0..self.ncopies(port, delta))
            .map(|c| self.dim_at(d, c, r as usize) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_packet_counts() {
        let s = CollSchema::reference(CollKind::Scatter);
        // δ = 4: rounds carry 8, 4, 2, 1 packets.
        let got: Vec<u64> = (0..4).map(|r| s.vol.packets(4, r).unwrap()).collect();
        assert_eq!(got, vec![8, 4, 2, 1]);
        let g = CollSchema::reference(CollKind::Gather);
        let got: Vec<u64> = (0..4).map(|r| g.vol.packets(4, r).unwrap()).collect();
        assert_eq!(got, vec![1, 2, 4, 8]);
        let a = CollSchema::reference(CollKind::Alltoall);
        assert_eq!(a.vol.packets(4, 2), Some(8));
    }

    #[test]
    fn bcast_expansion_shape() {
        // d = 3, one-port, root-relative: node 0 sends every round;
        // node 7 receives only in the last round.
        let s = CollSchema::reference(CollKind::Bcast);
        let rounds0 = s.expand_node(PortModel::OnePort, 3, 10, 0, 0);
        assert_eq!(rounds0.len(), 3);
        assert!(rounds0.iter().all(|r| r.sends.len() == 1));
        let rounds7 = s.expand_node(PortModel::OnePort, 3, 10, 0, 7);
        assert_eq!(rounds7[0].sends.len() + rounds7[0].recvs.len(), 0);
        assert_eq!(rounds7[2].recvs.len(), 1);
        assert_eq!(rounds7[2].recvs[0].peer_v, 3);
    }

    #[test]
    fn multi_port_round_dims_are_distinct() {
        for kind in CollKind::ALL {
            let s = CollSchema::reference(kind);
            for delta in 1..=8u32 {
                for r in 0..delta {
                    let mut dims = s.round_dims(delta, PortModel::MultiPort, r);
                    dims.sort_unstable();
                    dims.dedup();
                    assert_eq!(dims.len(), delta as usize, "{kind:?} δ={delta} r={r}");
                }
            }
        }
    }

    #[test]
    fn peeled_dimensions_are_a_rotated_run() {
        for kind in CollKind::ALL {
            let s = CollSchema::reference(kind);
            for d in 1..=12 {
                for c in 0..d {
                    for r in 0..d {
                        let walked: usize = (0..r).map(|i| 1usize << s.dim_at(d, c, i)).sum();
                        assert_eq!(s.done(d, c, r), walked, "{kind:?} d={d} c={c} r={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn skewed_schema_adds_empty_rounds() {
        let mut s = CollSchema::reference(CollKind::Bcast);
        s.rounds_skew = 1;
        let rounds = s.expand_node(PortModel::OnePort, 3, 10, 0, 0);
        assert_eq!(rounds.len(), 4);
        assert!(rounds[3].sends.is_empty() && rounds[3].recvs.is_empty());
    }
}
