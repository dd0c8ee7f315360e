//! The schedule engine behind every collective.
//!
//! A [`CollectiveRun`] is one node's side of a collective: its
//! [`CollSchema`], where the node sits in it, and a [`PacketStore`]
//! holding the packets it owns. Running it is mechanical — each round,
//! ask the schema's guard function what this node sends and receives
//! per copy, bundle the named packets, batch, deliver — and, crucially,
//! *several runs can execute fused*: their rounds are merged into shared
//! [`Proc::multi`] batches, which is how the paper overlaps independent
//! collectives on multi-port nodes (e.g. the two one-to-all broadcasts
//! in the second phase of DNS and 3-D Diagonal). On one-port nodes the
//! same fused execution serializes automatically through the port
//! semantics of [`Proc::multi`].

use std::sync::Arc;

use cubemm_simnet::{Op, Payload, PortModel, Proc};
use cubemm_topology::bits::hamming;
use cubemm_topology::Subcube;

use crate::schema::{CollKind, CollSchema, IdMask};
use crate::{chunk_bounds, round_tag};

/// A malformed [`PacketStore`] access: the typed form of the schedule bugs
/// the store used to surface as raw index/assert panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Packet `id` does not exist in a store of `slots` slots.
    OutOfRange {
        /// The offending packet id.
        id: usize,
        /// Number of slots in the store.
        slots: usize,
    },
    /// A payload's length disagreed with the slot's declared length.
    LengthMismatch {
        /// The target packet id.
        id: usize,
        /// The payload length offered.
        got: usize,
        /// The length the store declares for this slot.
        want: usize,
    },
    /// `put` targeted a slot that already holds a packet.
    AlreadyFilled {
        /// The occupied packet id.
        id: usize,
    },
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::OutOfRange { id, slots } => {
                write!(f, "packet {id} out of range (store has {slots} slots)")
            }
            PacketError::LengthMismatch { id, got, want } => {
                write!(f, "packet {id} length mismatch: got {got}, want {want}")
            }
            PacketError::AlreadyFilled { id } => write!(f, "packet {id} already present"),
        }
    }
}

impl std::error::Error for PacketError {}

/// Packet storage for one in-flight collective. Packet lengths are known
/// up front (every caller knows its block shapes), so received
/// bundles can be split without headers.
///
/// Ids are dense in the collective's id space (`copies × per_copy`, for
/// all-to-all `copies × N²`), but a node only ever holds the packets its
/// own transfers name — a scatter leaf one per copy. So the store is
/// sized by what the node holds: a slot exists exactly while its packet
/// is present, and lengths are kept once per copy, not per id.
#[derive(Debug)]
pub struct PacketStore {
    /// Packet length of each copy; copy `c` owns ids
    /// `c·per_copy .. (c + 1)·per_copy`.
    copy_lens: Vec<usize>,
    per_copy: usize,
    /// The packets present, as `(id, packet)` in no particular order.
    held: Vec<(usize, Payload)>,
    /// Open-addressed map from id to its position in `held`, plus one
    /// (0 marks a vacant cell): linear probing, deletion by backward
    /// shift. Length is a power of two, at least twice `held.len()`.
    index: Vec<u32>,
}

impl PacketStore {
    /// Creates an empty store of `copy_lens.len()` copies of `per_copy`
    /// packets each, every packet of copy `c` being `copy_lens[c]` words
    /// long.
    ///
    /// # Panics
    /// Panics if `per_copy` is zero.
    pub fn new(copy_lens: Vec<usize>, per_copy: usize) -> Self {
        assert!(
            per_copy > 0,
            "PacketStore: a copy holds at least one packet"
        );
        PacketStore {
            copy_lens,
            per_copy,
            held: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Number of packet ids the store addresses.
    pub fn len(&self) -> usize {
        self.copy_lens.len() * self.per_copy
    }

    /// Whether the store addresses no packet ids.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index cell probing for `id` starts at (Fibonacci hashing:
    /// the top bits of the product are the well-mixed ones).
    fn home(&self, id: usize) -> usize {
        let bits = self.index.len().trailing_zeros();
        ((id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// The cell after `cell`, cyclically.
    fn after(&self, cell: usize) -> usize {
        (cell + 1) & (self.index.len() - 1)
    }

    /// The index cell naming packet `id`, if the packet is present.
    fn cell_of(&self, id: usize) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mut cell = self.home(id);
        loop {
            match self.index[cell] as usize {
                0 => return None,
                at if self.held[at - 1].0 == id => return Some(cell),
                _ => cell = self.after(cell),
            }
        }
    }

    /// Position in `held` of packet `id`, if present.
    fn position(&self, id: usize) -> Option<usize> {
        self.cell_of(id).map(|cell| self.index[cell] as usize - 1)
    }

    /// Enters `held[at]` into the index.
    fn link(&mut self, at: usize) {
        let mut cell = self.home(self.held[at].0);
        while self.index[cell] != 0 {
            cell = self.after(cell);
        }
        #[allow(
            clippy::expect_used,
            reason = "a node holding 2^32 packets is far outside any simulated machine"
        )]
        let entry = u32::try_from(at + 1).expect("held packet count fits u32");
        self.index[cell] = entry;
    }

    /// Vacates `cell`, then closes the gap: every entry further along
    /// the probe run whose home lies at or before the gap moves back
    /// into it, so no later lookup meets a vacant cell too early.
    fn unlink(&mut self, mut cell: usize) {
        let mask = self.index.len() - 1;
        let mut probe = self.after(cell);
        while self.index[probe] != 0 {
            let home = self.home(self.held[self.index[probe] as usize - 1].0);
            if probe.wrapping_sub(home) & mask >= probe.wrapping_sub(cell) & mask {
                self.index[cell] = self.index[probe];
                cell = probe;
            }
            probe = self.after(probe);
        }
        self.index[cell] = 0;
    }

    /// The expected length of packet `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range; use
    /// [`PacketStore::try_expected_len`] for the fallible form.
    pub fn expected_len(&self, id: usize) -> usize {
        self.try_expected_len(id)
            .unwrap_or_else(|e| panic!("PacketStore::expected_len: {e}"))
    }

    /// The expected length of packet `id`, or a typed error if the slot
    /// does not exist.
    pub fn try_expected_len(&self, id: usize) -> Result<usize, PacketError> {
        self.copy_lens
            .get(id / self.per_copy)
            .copied()
            .ok_or(PacketError::OutOfRange {
                id,
                slots: self.len(),
            })
    }

    /// Fills slot `id` with an initial payload.
    ///
    /// # Panics
    /// Panics with the [`PacketError`] rendering if the slot does not
    /// exist, the payload length disagrees with the declared length, or
    /// the slot is already filled.
    pub fn put(&mut self, id: usize, payload: Payload) {
        if let Err(e) = self.try_put(id, payload) {
            panic!("PacketStore::put: {e}");
        }
    }

    /// Fallible [`PacketStore::put`]: reports malformed accesses as a
    /// typed [`PacketError`] instead of panicking.
    pub fn try_put(&mut self, id: usize, payload: Payload) -> Result<(), PacketError> {
        let want = self.try_expected_len(id)?;
        if payload.len() != want {
            return Err(PacketError::LengthMismatch {
                id,
                got: payload.len(),
                want,
            });
        }
        if self.cell_of(id).is_some() {
            return Err(PacketError::AlreadyFilled { id });
        }
        self.held.push((id, payload));
        if self.held.len() * 2 > self.index.len() {
            self.reindex(self.index.len() * 2);
        } else {
            self.link(self.held.len() - 1);
        }
        Ok(())
    }

    /// Replaces the index with one of at least `cells` cells.
    fn reindex(&mut self, cells: usize) {
        self.index = vec![0; cells.next_power_of_two().max(8)];
        (0..self.held.len()).for_each(|at| self.link(at));
    }

    /// Makes room for `more` packets beyond those present. Worth calling
    /// with what a node is about to put anyway; reserving for arrivals
    /// of the *last* round costs memory instead — grown on demand, that
    /// last doubling lives from one node's final round to its finish,
    /// reserved it is resident on every node for the whole collective.
    pub(crate) fn reserve(&mut self, more: usize) {
        self.held.reserve_exact(more);
        let cells = (self.held.len() + more) * 2;
        if cells > self.index.len() {
            self.reindex(cells);
        }
    }

    /// Removes and returns packet `id` (`None` when the slot is empty).
    ///
    /// # Panics
    /// Panics if `id` is out of range; use [`PacketStore::try_take`] for
    /// the fallible form.
    pub fn take(&mut self, id: usize) -> Option<Payload> {
        self.try_take(id)
            .unwrap_or_else(|e| panic!("PacketStore::take: {e}"))
    }

    /// Fallible [`PacketStore::take`]: `Ok(None)` when the slot exists
    /// but is empty, `Err` when the slot does not exist at all.
    pub fn try_take(&mut self, id: usize) -> Result<Option<Payload>, PacketError> {
        self.try_expected_len(id)?;
        let Some(cell) = self.cell_of(id) else {
            return Ok(None);
        };
        let at = self.index[cell] as usize - 1;
        self.unlink(cell);
        // `swap_remove` moves the last packet into the hole: re-point
        // its cell first, while `held` still agrees with the index.
        let last = self.held.len() - 1;
        if at != last {
            if let Some(cell) = self.cell_of(self.held[last].0) {
                self.index[cell] = at as u32 + 1;
            }
        }
        Ok(Some(self.held.swap_remove(at).1))
    }

    /// Returns a clone of packet `id` if present.
    pub fn get(&self, id: usize) -> Option<Payload> {
        self.peek(id).cloned()
    }

    /// Borrows packet `id` if present.
    fn peek(&self, id: usize) -> Option<&Payload> {
        self.position(id).map(|at| &self.held[at].1)
    }

    /// Mutably borrows packet `id` if present.
    fn peek_mut(&mut self, id: usize) -> Option<&mut Payload> {
        self.position(id).map(|at| &mut self.held[at].1)
    }

    /// Packets `ids` as one payload, in order, leaving the store if
    /// `consume`. A single packet is returned as stored; several are
    /// joined by [`Payload::concat`]: packets that are consecutive
    /// windows of one allocation come back as their span with no copy
    /// (a multi-port broadcast's slices at the finish), anything else as
    /// one exactly-sized allocation with one copy of each word.
    ///
    /// Both callers — a round's sends and the finish paths — only name
    /// packets the schedule has put in this store by then, so an absent one
    /// is a schedule bug, not a runtime condition: it panics, naming
    /// `context` and the packet (node panics surface as structured run
    /// failures, not process aborts).
    ///
    /// # Panics
    /// Panics if a packet is absent or out of range.
    pub(crate) fn bundle(
        &mut self,
        ids: impl Iterator<Item = usize> + Clone,
        consume: bool,
        context: std::fmt::Arguments<'_>,
    ) -> Payload {
        let absent = |id: usize| -> ! { panic!("{context}: packet {id} not present") };
        let mut probe = ids.clone();
        if let (Some(id), None) = (probe.next(), probe.next()) {
            let packet = if consume { self.take(id) } else { self.get(id) };
            return packet.unwrap_or_else(|| absent(id));
        }
        let len = ids.clone().map(|id| self.expected_len(id)).sum();
        let packet = |id| self.peek(id).unwrap_or_else(|| absent(id));
        let bundle = Payload::concat(len, ids.clone().map(packet));
        if consume {
            ids.for_each(|id| drop(self.take(id)));
        }
        bundle
    }
}

/// What a transfer's receive does with each incoming packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvMode {
    /// Store the packet into its (empty) slot.
    Fill,
    /// Element-wise add the packet into the existing slot (reductions).
    Accumulate,
}

/// One transfer (a send, a receive, or a paired exchange) of one copy
/// within a round, as the executor runs it: [`CollSchema::xfer`]'s shape
/// mapped to a machine label and a tag. The packet ids stay sub-mask
/// sets ([`IdMask`]), listed ascending from `offset` only while a bundle
/// is built or split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xfer {
    /// Neighbor node label on the other end.
    pub peer: usize,
    /// Message tag.
    pub tag: u64,
    /// The first packet id of this transfer's copy: every id of `send`
    /// and `recv` is offset by it.
    pub offset: usize,
    /// Ids concatenated (ascending) into the outgoing bundle; `None` for
    /// a pure receive.
    pub send: Option<IdMask>,
    /// Ids the incoming bundle is split into (ascending); `None` for a
    /// pure send.
    pub recv: Option<IdMask>,
}

impl Xfer {
    /// Checks this transfer as node `me` of a `p`-node hypercube would
    /// run it against `store`: the peer is a genuine hypercube neighbor
    /// and every packet id addresses a real slot. The cross-node
    /// properties (send/receive matching, deadlock freedom, link
    /// contention) need every node's transfers at once — that is
    /// `cubemm-analyze`'s job; this local check is what the executor can
    /// afford to debug-assert on every transfer.
    pub fn validate_local(&self, me: usize, p: usize, store: &PacketStore) -> Result<(), String> {
        if self.peer >= p {
            return Err(format!(
                "node {me} addresses peer {} outside the {p}-node machine",
                self.peer
            ));
        }
        if hamming(me, self.peer) != 1 {
            return Err(format!(
                "node {me} -> {} is not a hypercube edge",
                self.peer
            ));
        }
        if self.send.is_none() && self.recv.is_none() {
            return Err(format!(
                "node {me} has an empty transfer (no send, no recv)"
            ));
        }
        // Ids ascend, so the largest of a set is `fixed | free`.
        for ids in self.send.iter().chain(&self.recv) {
            if let Err(e) = store.try_expected_len(self.offset + (ids.fixed | ids.free)) {
                return Err(format!("node {me}: {e}"));
            }
        }
        Ok(())
    }
}

/// An in-flight collective: the schema, where this node sits in it, and
/// its packet state. Nothing is compiled ahead: each round's transfers
/// are read off [`CollSchema::xfer`] as the round runs.
#[derive(Debug)]
pub struct CollectiveRun {
    schema: CollSchema,
    port: PortModel,
    sc: Subcube,
    /// This node's relative rank, `rank ⊕ root`.
    v: usize,
    root: usize,
    base: u64,
    /// Packets, and the slice length of each copy.
    pub(crate) store: PacketStore,
}

impl CollectiveRun {
    /// Node `me`'s side of the reference schema of `kind` on `sc` (root
    /// rank `root`; 0 for the unrooted shapes) under tag base `base`,
    /// over an empty store for `len`-word messages sliced across the
    /// copies. The caller fills the store.
    pub(crate) fn new(
        kind: CollKind,
        port: PortModel,
        sc: &Subcube,
        me: usize,
        root: usize,
        base: u64,
        len: usize,
    ) -> Self {
        let schema = CollSchema::reference(kind);
        let nc = schema.ncopies(port, sc.dim());
        let slice_lens = (0..nc)
            .map(|c| {
                let (lo, hi) = chunk_bounds(len, nc, c);
                hi - lo
            })
            .collect();
        CollectiveRun {
            schema,
            port,
            sc: sc.clone(),
            v: sc.rank_of(me) ^ root,
            root,
            base,
            store: PacketStore::new(slice_lens, schema.kind.ids_per_copy(sc.dim())),
        }
    }

    /// Read access to the store (for finishers that clone).
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// The copies the message is sliced across: one, or `δ` rotated
    /// link-disjoint copies (multi-port).
    pub(crate) fn ncopies(&self) -> usize {
        self.schema.ncopies(self.port, self.sc.dim())
    }

    /// Rounds this run takes part in.
    pub fn rounds(&self) -> usize {
        self.schema.rounds(self.sc.dim())
    }

    /// This node's transfer for copy `c` in round `r`, if it has one.
    fn xfer(&self, r: usize, c: usize) -> Option<Xfer> {
        let x = self.schema.xfer(self.sc.dim(), r, c, self.v)?;
        Some(Xfer {
            peer: self.sc.member(x.peer_v ^ self.root),
            tag: round_tag(self.base, r as u32, c as u32),
            offset: c * self.store.per_copy,
            send: x.send,
            recv: x.recv,
        })
    }

    /// This node's transfers in round `r`, in copy order — exactly what
    /// the executor issues for the round.
    pub fn xfers(&self, r: usize) -> impl Iterator<Item = Xfer> + '_ {
        (0..self.ncopies()).filter_map(move |c| self.xfer(r, c))
    }
}

/// Delivers the `bundle` received for `xfer` in round `r` into the
/// store. The packets are windows of the bundle: no word is copied.
fn deliver(store: &mut PacketStore, mode: RecvMode, xfer: &Xfer, bundle: &Payload, r: usize) {
    let Some(ids) = xfer.recv else {
        return;
    };
    // Every id of one copy has the copy's slice length.
    let len = store.expected_len(xfer.offset + ids.fixed);
    assert_eq!(
        bundle.len(),
        ids.len() * len,
        "round {r}: bundle length mismatch from node {}",
        xfer.peer
    );
    for (at, id) in ids.ids(xfer.offset).enumerate() {
        let piece = bundle.slice(at * len, (at + 1) * len);
        match mode {
            RecvMode::Fill => store.put(id, piece),
            RecvMode::Accumulate => {
                let sum = store
                    .peek_mut(id)
                    .unwrap_or_else(|| panic!("accumulate target {id} missing"));
                accumulate(sum, &piece);
            }
        }
    }
}

/// `sum[i] = sum[i] + piece[i]`: in place when `sum` owns its words
/// outright, into a fresh allocation when something else (the caller's
/// input, a sibling window) still shares them. Same operand order either
/// way, so reductions are bit-identical whichever path runs.
fn accumulate(sum: &mut Payload, piece: &[f64]) {
    assert_eq!(sum.len(), piece.len(), "reduction operand length mismatch");
    match sum.unique_mut() {
        Some(words) => words.iter_mut().zip(piece).for_each(|(s, p)| *s += p),
        None => {
            let fresh: Arc<[f64]> = sum.iter().zip(piece).map(|(s, p)| s + p).collect();
            *sum = Payload::from(fresh);
        }
    }
}

/// Executes one or more collectives *fused*: round `r` of every run is
/// issued in a single [`Proc::multi`] batch. All participating nodes
/// must fuse the same set of collectives in the same order.
pub async fn execute_fused(proc: &mut Proc, runs: &mut [&mut CollectiveRun]) {
    let max_rounds = runs.iter().map(|run| run.rounds()).max().unwrap_or(0);
    // (run index, transfer) for every transfer of a round, in op order.
    let mut round: Vec<(usize, Xfer)> =
        Vec::with_capacity(runs.iter().map(|run| run.ncopies()).sum());
    for r in 0..max_rounds {
        round.clear();
        for (ri, run) in runs.iter().enumerate() {
            round.extend(run.xfers(r).map(|xfer| (ri, xfer)));
        }
        // Build the batch: all sends (across runs), then all receives. A
        // round this node sits out still takes its step, allocation-free.
        let sides =
            |(_, x): &(usize, Xfer)| usize::from(x.send.is_some()) + usize::from(x.recv.is_some());
        let mut ops: Vec<Op> = Vec::with_capacity(round.iter().map(sides).sum());
        for (ri, xfer) in &round {
            let run = &mut *runs[*ri];
            // Self-check every transfer in debug builds: a malformed
            // schema fails here with a named round and peer instead of
            // deep inside the engine (release builds skip it;
            // `cubemm-analyze` carries the full cross-node proof).
            #[cfg(debug_assertions)]
            if let Err(e) = xfer.validate_local(proc.id(), proc.p(), &run.store) {
                panic!("execute_fused: malformed transfer in round {r}: {e}");
            }
            if let Some(ids) = xfer.send {
                // One packet travels as stored; several are bundled — the
                // single copy a word sees on its way to the peer.
                let consume = run.schema.kind.consume_sends();
                let data = run.store.bundle(
                    ids.ids(xfer.offset),
                    consume,
                    format_args!("round {r} send"),
                );
                ops.push(Op::Send {
                    to: xfer.peer,
                    tag: xfer.tag,
                    data,
                });
            }
        }
        let recvs = || round.iter().filter(|(_, xfer)| xfer.recv.is_some());
        ops.extend(recvs().map(|(_, xfer)| Op::Recv {
            from: xfer.peer,
            tag: xfer.tag,
        }));

        let results = proc.multi(ops).await;
        for ((ri, xfer), bundle) in recvs().zip(results.into_iter().flatten()) {
            let run = &mut *runs[*ri];
            deliver(
                &mut run.store,
                run.schema.kind.recv_mode(),
                xfer,
                &bundle,
                r,
            );
        }
    }
}

/// Executes a single collective (the common case).
pub async fn execute(proc: &mut Proc, run: &mut CollectiveRun) {
    execute_fused(proc, &mut [run]).await;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Payload {
        (0..n).map(|x| x as f64).collect()
    }

    #[test]
    fn try_put_reports_length_mismatch() {
        let mut store = PacketStore::new(vec![4, 2], 1);
        assert_eq!(
            store.try_put(1, payload(3)),
            Err(PacketError::LengthMismatch {
                id: 1,
                got: 3,
                want: 2
            })
        );
        // The failed put must not have filled the slot.
        assert!(store.get(1).is_none());
        assert_eq!(store.try_put(1, payload(2)), Ok(()));
    }

    #[test]
    fn try_put_reports_double_fill() {
        let mut store = PacketStore::new(vec![4], 1);
        store.put(0, payload(4));
        assert_eq!(
            store.try_put(0, payload(4)),
            Err(PacketError::AlreadyFilled { id: 0 })
        );
        // The original packet is untouched.
        assert_eq!(store.take(0).map(|p| p.len()), Some(4));
    }

    #[test]
    fn out_of_range_ids_are_typed_errors() {
        let mut store = PacketStore::new(vec![4, 2], 1);
        let oob = PacketError::OutOfRange { id: 7, slots: 2 };
        assert_eq!(store.try_put(7, payload(1)), Err(oob.clone()));
        assert_eq!(store.try_take(7), Err(oob.clone()));
        assert_eq!(store.try_expected_len(7), Err(oob));
        assert!(store.get(7).is_none());
    }

    #[test]
    fn try_take_distinguishes_empty_from_missing() {
        let mut store = PacketStore::new(vec![3], 1);
        assert_eq!(store.try_take(0), Ok(None));
        store.put(0, payload(3));
        assert_eq!(store.try_take(0).map(|p| p.map(|p| p.len())), Ok(Some(3)));
    }

    #[test]
    fn only_present_packets_occupy_the_store() {
        // 3 copies × 1000 ids, of which this "node" touches four.
        let mut store = PacketStore::new(vec![4, 2, 3], 1000);
        assert_eq!(store.len(), 3000);
        assert_eq!(store.held.len(), 0);
        for id in [1999, 7, 2000, 1000] {
            let len = store.expected_len(id);
            // Empty-but-addressable before the first arrival.
            assert_eq!(store.try_take(id), Ok(None));
            assert_eq!(store.try_put(id, payload(len)), Ok(()));
        }
        assert_eq!(store.held.len(), 4);
        // take → put → put on the same id.
        assert_eq!(store.try_take(7).map(|p| p.map(|p| p.len())), Ok(Some(4)));
        assert_eq!(store.held.len(), 3);
        assert_eq!(store.try_take(7), Ok(None));
        assert_eq!(
            store.try_put(7, payload(2)),
            Err(PacketError::LengthMismatch {
                id: 7,
                got: 2,
                want: 4
            })
        );
        assert_eq!(store.try_put(7, payload(4)), Ok(()));
        assert_eq!(
            store.try_put(7, payload(4)),
            Err(PacketError::AlreadyFilled { id: 7 })
        );
        assert_eq!(store.held.len(), 4);
        let oob = PacketError::OutOfRange {
            id: 3000,
            slots: 3000,
        };
        assert_eq!(store.try_put(3000, payload(3)), Err(oob.clone()));
        assert_eq!(store.try_take(3000), Err(oob));
    }

    #[test]
    fn every_present_id_stays_findable_through_growth_and_removal() {
        // Strided ids (the all-to-all pattern) through several index
        // doublings, then an interleaving of removals and arrivals that
        // exercises the backward shift and the swap-remove re-pointing.
        let tag = |id: usize| Payload::from([id as f64]);
        let mut store = PacketStore::new(vec![1], 64 * 64);
        let mut present: Vec<usize> = (0..64).map(|dest| dest * 64 + 5).collect();
        for &id in &present {
            store.put(id, tag(id));
        }
        let mut rng = 0x9e37_79b9u64;
        for step in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (rng >> 33) as usize;
            let id = pick % (64 * 64);
            if let Some(at) = present.iter().position(|&held| held == id) {
                present.swap_remove(at);
                assert_eq!(store.take(id), Some(tag(id)));
            } else if pick % 2 == 0 || present.is_empty() {
                store.put(id, tag(id));
                present.push(id);
            } else {
                assert_eq!(store.take(id), None);
                let id = present.swap_remove(pick % present.len());
                assert_eq!(store.take(id), Some(tag(id)));
            }
            assert_eq!(store.held.len(), present.len());
            for &id in &present {
                assert_eq!(store.get(id), Some(tag(id)), "step {step}");
            }
        }
    }

    #[test]
    fn accumulate_adds_in_place_only_when_unshared() {
        let piece: Payload = (0..12).map(|x| f64::from(x) * 0.5).collect();
        let want: Vec<f64> = (0..12).map(|x| f64::from(x) + f64::from(x) * 0.5).collect();

        // Sole owner: the sum lands in the same allocation.
        let mut sum = payload(12);
        let before = sum.as_ptr();
        accumulate(&mut sum, &piece);
        assert_eq!(&sum[..], &want[..]);
        assert_eq!(sum.as_ptr(), before);

        // Shared with a caller's clone: the clone must not see the sum.
        let held = payload(12);
        let mut sum = held.clone();
        accumulate(&mut sum, &piece);
        assert_eq!(&sum[..], &want[..]);
        assert_eq!(held, payload(12));

        // Shared with a sibling window of the same bundle.
        let bundle = payload(24);
        let (mut low, high) = (bundle.slice(0, 12), bundle.slice(12, 24));
        drop(bundle);
        accumulate(&mut low, &piece);
        assert_eq!(&low[..], &want[..]);
        assert_eq!(&high[..], &payload(24)[12..]);
    }

    #[test]
    #[should_panic(expected = "packet 9 out of range (store has 1 slots)")]
    fn put_panic_names_the_offending_packet() {
        let mut store = PacketStore::new(vec![4], 1);
        store.put(9, payload(4));
    }

    #[test]
    #[should_panic(expected = "packet 5 out of range")]
    fn take_panic_names_the_offending_packet() {
        let mut store = PacketStore::new(vec![4], 1);
        let _ = store.take(5);
    }

    #[test]
    fn validate_local_accepts_a_neighbour_transfer() {
        let store = PacketStore::new(vec![4, 4], 2);
        let xfer = Xfer {
            peer: 1,
            tag: 0,
            offset: 2,
            send: Some(IdMask::single(0)),
            recv: Some(IdMask::single(1)),
        };
        assert!(xfer.validate_local(0, 4, &store).is_ok());
    }

    #[test]
    fn validate_local_rejects_non_neighbors_and_bad_ids() {
        let store = PacketStore::new(vec![4], 2);
        let send = |peer, offset, ids| Xfer {
            peer,
            tag: 0,
            offset,
            send: Some(ids),
            recv: None,
        };
        let err = send(3, 0, IdMask::single(0))
            .validate_local(0, 4, &store)
            .unwrap_err();
        assert!(err.contains("not a hypercube edge"), "{err}");

        // {0, 2}: the set's last id, not its first, is out of range.
        let err = send(1, 0, IdMask { fixed: 0, free: 2 })
            .validate_local(0, 4, &store)
            .unwrap_err();
        assert!(err.contains("packet 2 out of range"), "{err}");
        let err = send(1, 1, IdMask::single(1))
            .validate_local(0, 4, &store)
            .unwrap_err();
        assert!(err.contains("packet 2 out of range"), "{err}");
    }
}
