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
    /// A bundle or a sum named a packet the store does not hold.
    Absent {
        /// The first missing packet id.
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
            PacketError::Absent { id } => write!(f, "packet {id} not present"),
        }
    }
}

impl std::error::Error for PacketError {}

/// Packet storage for one in-flight collective, kept as the bundles the
/// node holds rather than packet by packet.
///
/// Ids are dense in the collective's id space (`copies × per_copy`, for
/// all-to-all `copies × N²`), and every transfer names a sub-mask set of
/// one copy's ids ([`IdMask`]). So an *entry* is one bundle: the packets
/// of one `IdMask` of one copy in a single [`Payload`], in ascending id
/// order. A received bundle is stored as it arrives, as one entry; a
/// send reads one entry, a window of one, or one concatenation over the
/// entries it covers; a consuming send narrows or splits the entries it
/// drew from instead of removing ids one at a time; and a reduction adds
/// a received bundle into what it covers in one pass. Packet lengths are
/// known up front (every caller knows its block shapes) and kept once
/// per copy, so no bundle carries a header.
#[derive(Debug)]
pub struct PacketStore {
    /// Packet length of each copy; copy `c` owns ids
    /// `c·per_copy .. (c + 1)·per_copy`.
    copy_lens: Vec<usize>,
    per_copy: usize,
    /// The bundles present, in no particular order; their live sets are
    /// disjoint.
    held: Vec<Entry>,
}

/// One bundle: the packets `live` of copy `copy`. `data` holds the
/// packets of `span` in ascending id order — the set the bundle was
/// stored as, of which a consuming send may since have taken some
/// without moving a word — so packet `id` sits at position
/// [`rank_in`]`(id, span.free)`.
#[derive(Debug, Clone)]
struct Entry {
    copy: usize,
    span: IdMask,
    /// The packets still present: `span` with some free bits fixed.
    live: IdMask,
    data: Payload,
}

/// The position of `id` in the ascending list of a set whose free bits
/// are `free`: the bits of `id` at `free`'s positions, packed low.
fn rank_in(id: usize, free: usize) -> usize {
    let (mut rank, mut free, mut bit) = (0, free, 1);
    while free != 0 {
        if id & free & free.wrapping_neg() != 0 {
            rank |= bit;
        }
        free &= free - 1;
        bit <<= 1;
    }
    rank
}

/// Walks a set of ids in ascending order one *run* at a time: ids that
/// sit at consecutive positions of one entry.
struct Cursor {
    ids: IdMask,
    /// The free bits of the next id.
    sub: usize,
    /// Ids not yet walked.
    left: usize,
}

impl Cursor {
    fn new(ids: IdMask) -> Self {
        Cursor {
            ids,
            sub: 0,
            left: ids.len(),
        }
    }

    /// The id the next run starts at, while any remain.
    fn next_id(&self) -> Option<usize> {
        (self.left > 0).then_some(self.ids.fixed | self.sub)
    }

    /// Steps over the run that starts at the next id, inside the entry
    /// laid out by `span` that holds `live` (which must contain that
    /// id): returns the run's first position in the entry and its
    /// length in packets.
    ///
    /// Consecutive ids of the walk stay consecutive in the entry for as
    /// long as the lowest free bits of the walk are the lowest free bits
    /// of `span` and live there: a run spans those bits, and starts
    /// aligned to them because every earlier run did.
    fn run(&mut self, span: IdMask, live: IdMask) -> (usize, usize) {
        let id = self.ids.fixed | self.sub;
        let (mut want, mut have, mut shared) = (self.ids.free, span.free, 0);
        while want != 0 {
            let low = want & want.wrapping_neg();
            if low != have & have.wrapping_neg() || live.free & low == 0 {
                break;
            }
            shared |= low;
            want ^= low;
            have ^= low;
        }
        debug_assert_eq!(self.sub & shared, 0, "runs start aligned");
        let count = 1 << shared.count_ones();
        self.left -= count;
        self.sub = ((self.sub | shared | !self.ids.free).wrapping_add(1)) & self.ids.free;
        (rank_in(id, span.free), count)
    }
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

    /// Number of entries — bundles — the store holds.
    pub fn entries(&self) -> usize {
        self.held.len()
    }

    /// Makes room for `more` entries beyond those present.
    pub(crate) fn reserve(&mut self, more: usize) {
        self.held.reserve_exact(more);
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

    /// Packet `id` as a copy and a one-id set within it.
    fn locate(&self, id: usize) -> Result<(usize, IdMask), PacketError> {
        self.try_expected_len(id)?;
        Ok((id / self.per_copy, IdMask::single(id % self.per_copy)))
    }

    /// The packet id of `id` within copy `copy`.
    fn global(&self, copy: usize, id: usize) -> usize {
        copy.saturating_mul(self.per_copy).saturating_add(id)
    }

    /// The packet length of copy `copy`, if `ids` address real slots of
    /// it; `OutOfRange` names the set's last id otherwise.
    fn packet_len(&self, copy: usize, ids: IdMask) -> Result<usize, PacketError> {
        match self.copy_lens.get(copy) {
            Some(&len) if ids.last() < self.per_copy => Ok(len),
            _ => Err(PacketError::OutOfRange {
                id: self.global(copy, ids.last()),
                slots: self.len(),
            }),
        }
    }

    /// The entries of copy `copy` that hold some of `ids`, with the ids
    /// they hold.
    fn meeting(&self, copy: usize, ids: IdMask) -> impl Iterator<Item = IdMask> + '_ {
        self.held
            .iter()
            .filter(move |entry| entry.copy == copy)
            .filter_map(move |entry| entry.live.meet(ids))
    }

    /// The entry holding id `id` of copy `copy`.
    fn find(&self, copy: usize, id: usize) -> Option<usize> {
        self.held
            .iter()
            .position(|entry| entry.copy == copy && entry.live.contains(id))
    }

    /// `Ok` when every id of `ids` is present; otherwise the first one
    /// missing.
    fn check_held(&self, copy: usize, ids: IdMask) -> Result<(), PacketError> {
        let held: usize = self.meeting(copy, ids).map(|ids| ids.len()).sum();
        if held == ids.len() {
            return Ok(());
        }
        let id = ids
            .ids(0)
            .find(|&id| self.find(copy, id).is_none())
            .unwrap_or(ids.fixed);
        Err(PacketError::Absent {
            id: self.global(copy, id),
        })
    }

    /// `ids` of copy `copy` (all present), ascending, one run at a time:
    /// the run's entry payload, first position and packet count.
    fn runs(
        &self,
        copy: usize,
        ids: IdMask,
    ) -> impl Iterator<Item = (&Payload, usize, usize)> + '_ {
        let mut cursor = Cursor::new(ids);
        let mut at = 0;
        std::iter::from_fn(move || {
            let id = cursor.next_id()?;
            // A walk's runs come from few entries: try the last one first.
            let holds = |at: usize| {
                self.held
                    .get(at)
                    .is_some_and(|entry| entry.copy == copy && entry.live.contains(id))
            };
            if !holds(at) {
                at = self.find(copy, id)?;
            }
            let entry = &self.held[at];
            let (pos, count) = cursor.run(entry.span, entry.live);
            Some((&entry.data, pos, count))
        })
    }

    /// `ids` of copy `copy` (all present) as word spans of the entries,
    /// one per run.
    fn spans(
        &self,
        copy: usize,
        ids: IdMask,
    ) -> impl Iterator<Item = (&Payload, usize, usize)> + '_ {
        let len = self.copy_lens[copy];
        self.runs(copy, ids)
            .map(move |(data, pos, count)| (data, pos * len, (pos + count) * len))
    }

    /// `ids` of copy `copy` (all present) as one payload: a window when
    /// they are one run, else one concatenation of the runs (which
    /// copies each word once, unless the runs are consecutive windows of
    /// one allocation).
    fn read(&self, copy: usize, ids: IdMask) -> Payload {
        let mut spans = self.spans(copy, ids);
        #[allow(
            clippy::expect_used,
            reason = "an id set is never empty, and every caller checked it is held"
        )]
        let first = spans.next().expect("a held set has a run");
        match spans.next() {
            None => first.0.slice(first.1, first.2),
            Some(second) => {
                let len = ids.len() * self.copy_lens[copy];
                Payload::concat(len, [first, second].into_iter().chain(spans))
            }
        }
    }

    /// Drops `ids` (all present) from copy `copy`. An entry inside `ids`
    /// leaves; one that `ids` only cuts into keeps what remains, as one
    /// entry per bit `ids` fixes where the entry is free — the ids that
    /// first leave `ids` at that bit — sharing its words. A narrowed entry
    /// may then move its packets to an allocation of their own
    /// ([`PacketStore::compact`]).
    fn remove(&mut self, copy: usize, ids: IdMask) {
        let mut at = 0;
        while at < self.held.len() {
            let entry = &self.held[at];
            if entry.copy != copy || entry.live.meet(ids).is_none() {
                at += 1;
                continue;
            }
            let live = entry.live;
            let mut cut = live.free & !ids.free;
            if cut == 0 {
                self.held.swap_remove(at);
                continue;
            }
            let mut below = 0;
            while cut != 0 {
                let bit = cut & cut.wrapping_neg();
                let rest = IdMask {
                    fixed: live.fixed | (ids.fixed & below) | (!ids.fixed & bit),
                    free: live.free & !(below | bit),
                };
                if below == 0 {
                    self.held[at].live = rest;
                } else {
                    let piece = Entry {
                        live: rest,
                        ..self.held[at].clone()
                    };
                    self.held.push(piece);
                }
                below |= bit;
                cut ^= bit;
            }
            self.compact(at);
            at += 1;
        }
    }

    /// Moves entry `at`'s packets to an allocation of their own when they
    /// fill at most half of the one they share with packets already sent,
    /// the sent ones fill at least a page, and nothing else holds the
    /// allocation. Windows into it would keep every sent packet resident
    /// with the kept ones — a reduce-scatter's first bundle whole to its
    /// last round — where the per-packet store freed each part as it
    /// left; below a page there is nothing for the allocator to give back.
    fn compact(&mut self, at: usize) {
        /// Words in a 4 KiB page.
        const PAGE_WORDS: usize = 4096 / std::mem::size_of::<f64>();
        let entry = &mut self.held[at];
        let (span, live, len) = (entry.span, entry.live, self.copy_lens[entry.copy]);
        let sent = (span.len() - live.len()) * len;
        if 2 * live.len() > span.len() || sent < PAGE_WORDS || entry.data.unique_mut().is_none() {
            return;
        }
        let mut cursor = Cursor::new(live);
        let data = &entry.data;
        let runs = std::iter::from_fn(|| {
            cursor.next_id()?;
            let (pos, count) = cursor.run(span, live);
            Some(&data[pos * len..(pos + count) * len])
        });
        entry.data = Payload::concat(live.len() * len, runs);
        entry.span = live;
    }

    /// Stores `bundle` — the packets `ids` of copy `copy`, ascending — as
    /// one entry.
    pub fn try_put_bundle(
        &mut self,
        copy: usize,
        ids: IdMask,
        bundle: Payload,
    ) -> Result<(), PacketError> {
        let want = ids.len() * self.packet_len(copy, ids)?;
        if bundle.len() != want {
            return Err(PacketError::LengthMismatch {
                id: self.global(copy, ids.fixed),
                got: bundle.len(),
                want,
            });
        }
        if let Some(first) = self.meeting(copy, ids).map(|ids| ids.fixed).min() {
            return Err(PacketError::AlreadyFilled {
                id: self.global(copy, first),
            });
        }
        self.held.push(Entry {
            copy,
            span: ids,
            live: ids,
            data: bundle,
        });
        Ok(())
    }

    /// [`PacketStore::try_put_bundle`] for a bundle a plan built itself.
    ///
    /// # Panics
    /// Panics with the [`PacketError`] rendering if the bundle does not
    /// fit: a bug in the plan.
    pub(crate) fn put_bundle(&mut self, copy: usize, ids: IdMask, bundle: Payload) {
        if let Err(e) = self.try_put_bundle(copy, ids, bundle) {
            panic!("PacketStore::put_bundle: {e}");
        }
    }

    /// The packets `ids` of copy `copy` as one payload, in ascending id
    /// order, leaving the store if `consume`: a whole entry as stored, a
    /// window of one when `ids` are consecutive in it, else one
    /// concatenation over the entries they cover. A consumed set cut from
    /// an entry that keeps other packets is copied, and the entries it was
    /// drawn from are narrowed or split (and may be compacted).
    pub fn try_bundle(
        &mut self,
        copy: usize,
        ids: IdMask,
        consume: bool,
    ) -> Result<Payload, PacketError> {
        self.packet_len(copy, ids)?;
        // A whole entry — the one packet a broadcast forwards, a bundle
        // a gather passes on — is handed over as stored.
        let whole = |entry: &Entry| entry.copy == copy && entry.span == ids && entry.live == ids;
        if let Some(at) = self.held.iter().position(whole) {
            return Ok(match consume {
                true => self.held.swap_remove(at).data,
                false => self.held[at].data.clone(),
            });
        }
        self.check_held(copy, ids)?;
        if !consume {
            return Ok(self.read(copy, ids));
        }
        // Taken from an entry that keeps other packets, a window would
        // share its words: the packets sent would stay resident as long as
        // the kept ones, and no sum could land in the kept ones in place.
        // So such a set is copied, once, as the per-packet store did.
        let cuts = |entry: &Entry| {
            entry.copy == copy && entry.live.meet(ids).is_some() && !ids.covers(entry.live)
        };
        let bundle = match self.held.iter().any(cuts) {
            true => self.copied(copy, ids),
            false => self.read(copy, ids),
        };
        self.remove(copy, ids);
        Ok(bundle)
    }

    /// `ids` of copy `copy` (all present) copied into one fresh payload.
    fn copied(&self, copy: usize, ids: IdMask) -> Payload {
        let len = ids.len() * self.copy_lens[copy];
        Payload::concat(
            len,
            self.spans(copy, ids).map(|(data, lo, hi)| &data[lo..hi]),
        )
    }

    /// [`PacketStore::try_bundle`] for sets a schedule has put in the
    /// store by then, so an absent packet is a schedule bug: it panics,
    /// naming `context` and the packet (node panics surface as structured
    /// run failures, not process aborts).
    pub(crate) fn bundle(
        &mut self,
        copy: usize,
        ids: IdMask,
        consume: bool,
        context: std::fmt::Arguments<'_>,
    ) -> Payload {
        self.try_bundle(copy, ids, consume)
            .unwrap_or_else(|e| panic!("{context}: {e}"))
    }

    /// Adds `bundle` — the packets `ids` of copy `copy`, ascending —
    /// element-wise into the packets held for them, in one pass: in
    /// place when one entry holds all of `ids` and owns its words
    /// outright, otherwise into the bundle itself when nothing else
    /// shares it (into a copy of it when something does), which then
    /// replaces what it covered as one entry. Every path computes
    /// `held + incoming` in that operand order, so sums are bit-identical
    /// whichever runs, and no payload a caller kept is written through.
    pub fn try_accumulate(
        &mut self,
        copy: usize,
        ids: IdMask,
        bundle: Payload,
    ) -> Result<(), PacketError> {
        let len = self.packet_len(copy, ids)?;
        let want = ids.len() * len;
        if bundle.len() != want {
            return Err(PacketError::LengthMismatch {
                id: self.global(copy, ids.fixed),
                got: bundle.len(),
                want,
            });
        }
        self.check_held(copy, ids)?;
        let sole = self
            .held
            .iter()
            .position(|entry| entry.copy == copy && entry.live.covers(ids));
        if let Some(entry) = sole.map(|at| &mut self.held[at]) {
            let (span, live) = (entry.span, entry.live);
            if let Some(words) = entry.data.unique_mut() {
                let (mut cursor, mut at) = (Cursor::new(ids), 0);
                while cursor.next_id().is_some() {
                    let (pos, count) = cursor.run(span, live);
                    let sum = &mut words[pos * len..(pos + count) * len];
                    let piece = &bundle[at..at + count * len];
                    sum.iter_mut().zip(piece).for_each(|(s, p)| *s += p);
                    at += count * len;
                }
                return Ok(());
            }
        }
        let mut sum = bundle;
        if sum.unique_mut().is_none() {
            sum = Payload::concat(want, [&sum[..]]);
        }
        #[allow(
            clippy::expect_used,
            reason = "`sum` is inline, the sole owner, or the fresh copy made just above"
        )]
        let words = sum.unique_mut().expect("a fresh or unshared bundle");
        let mut at = 0;
        for (held, lo, hi) in self.spans(copy, ids) {
            let piece = &mut words[at..at + hi - lo];
            #[allow(
                clippy::assign_op_pattern,
                reason = "`held + incoming`, in that operand order, like every other path"
            )]
            piece
                .iter_mut()
                .zip(&held[lo..hi])
                .for_each(|(p, h)| *p = h + *p);
            at += hi - lo;
        }
        self.remove(copy, ids);
        self.held.push(Entry {
            copy,
            span: ids,
            live: ids,
            data: sum,
        });
        Ok(())
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
        let (copy, ids) = self.locate(id)?;
        self.try_put_bundle(copy, ids, payload)
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
        let (copy, ids) = self.locate(id)?;
        match self.try_bundle(copy, ids, true) {
            Ok(packet) => Ok(Some(packet)),
            Err(PacketError::Absent { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Returns packet `id` if present: a window of the entry holding it.
    pub fn get(&self, id: usize) -> Option<Payload> {
        let (copy, ids) = self.locate(id).ok()?;
        self.find(copy, ids.fixed)?;
        Some(self.read(copy, ids))
    }

    /// Panics, naming `context`, unless every copy holds all of `ids`.
    fn check_every_copy(&self, ids: IdMask, context: std::fmt::Arguments<'_>) {
        for copy in 0..self.copy_lens.len() {
            if let Err(e) = self.check_held(copy, ids) {
                panic!("{context}: {e}");
            }
        }
    }

    /// The messages `ids` name, in ascending id order, each reassembled
    /// from its slice in every copy: how a finish hands out what its
    /// copies carried. With one copy every message is a window of the
    /// entry holding it; with several, a window of
    /// [`PacketStore::message`]'s one payload.
    ///
    /// # Panics
    /// Panics, naming `context`, if a copy misses one of `ids` — a
    /// schedule bug.
    pub(crate) fn messages(&self, ids: IdMask, context: std::fmt::Arguments<'_>) -> Vec<Payload> {
        if let [len] = self.copy_lens[..] {
            self.check_every_copy(ids, context);
            let mut out = Vec::with_capacity(ids.len());
            for (data, pos, count) in self.runs(0, ids) {
                out.extend((pos..pos + count).map(|at| data.slice(at * len, (at + 1) * len)));
            }
            return out;
        }
        let all = self.message(ids, context);
        let len: usize = self.copy_lens.iter().sum();
        (0..ids.len())
            .map(|k| all.slice(k * len, (k + 1) * len))
            .collect()
    }

    /// The messages `ids` name back to back in one payload — what
    /// [`PacketStore::messages`] returns, joined — read off the entries
    /// without building the messages first. One message of several
    /// copies is joined by [`Payload::concat`], so slices that are
    /// consecutive windows of one allocation come back as their span.
    ///
    /// # Panics
    /// Panics, naming `context`, if a copy misses one of `ids` — a
    /// schedule bug.
    pub(crate) fn message(&self, ids: IdMask, context: std::fmt::Arguments<'_>) -> Payload {
        self.check_every_copy(ids, context);
        if let [_] = self.copy_lens[..] {
            // A window of an entry that consuming sends have narrowed
            // would keep the words they took alive with the result — a
            // reduce-scatter's whole first bundle behind its one part —
            // so the result is copied out of such an entry instead.
            let narrowed =
                |entry: &Entry| entry.live != entry.span && entry.live.meet(ids).is_some();
            return match self.held.iter().any(narrowed) {
                true => self.copied(0, ids),
                false => self.read(0, ids),
            };
        }
        let len: usize = self.copy_lens.iter().sum();
        if ids.len() == 1 {
            let slices = (0..self.copy_lens.len()).flat_map(|copy| self.spans(copy, ids));
            return Payload::concat(len, slices);
        }
        // Message k takes its slice of copy c at k·len + (the slices of
        // the copies before c): a copy's packets land in place, run by
        // run, with no per-message join.
        let mut words: Arc<[f64]> = std::iter::repeat_n(0.0, ids.len() * len).collect();
        #[allow(
            clippy::expect_used,
            reason = "the Arc was created on the line above and has not been cloned"
        )]
        let out = Arc::get_mut(&mut words).expect("fresh allocation");
        let mut before = 0;
        for (copy, &slice) in self.copy_lens.iter().enumerate() {
            let mut at = before;
            for (data, pos, count) in self.runs(copy, ids) {
                for packet in data[pos * slice..(pos + count) * slice].chunks_exact(slice.max(1)) {
                    out[at..at + slice].copy_from_slice(packet);
                    at += len;
                }
            }
            before += slice;
        }
        Payload::from(words)
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
    /// This node's label, and the machine dimension of each rank bit of
    /// the subcube (its first `delta`): every peer is `me` with one of
    /// them flipped.
    me: usize,
    dims: [u8; usize::BITS as usize],
    delta: u32,
    /// This node's relative rank, `rank ⊕ root`.
    v: usize,
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
        let mut store = PacketStore::new(slice_lens, schema.kind.ids_per_copy(sc.dim()));
        // What a node holds at most per copy: its own bundle plus one
        // received per round where receives fill, one entry where they
        // narrow it or sum into it.
        let entries = match kind {
            CollKind::Allgather | CollKind::Gather | CollKind::Alltoall => sc.dim() as usize + 1,
            _ => 1,
        };
        store.reserve(nc * entries);
        let mut dims = [0; usize::BITS as usize];
        for (at, &dim) in dims.iter_mut().zip(sc.dims()) {
            *at = dim as u8;
        }
        CollectiveRun {
            schema,
            port,
            me,
            dims,
            delta: sc.dim(),
            v: sc.rank_of(me) ^ root,
            base,
            store,
        }
    }

    /// Read access to the store (for finishers that clone).
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// The copies the message is sliced across: one, or `δ` rotated
    /// link-disjoint copies (multi-port).
    pub(crate) fn ncopies(&self) -> usize {
        self.schema.ncopies(self.port, self.delta)
    }

    /// Rounds this run takes part in.
    pub fn rounds(&self) -> usize {
        self.schema.rounds(self.delta)
    }

    /// This node's transfer for copy `c` in round `r`, if it has one.
    fn xfer(&self, r: usize, c: usize) -> Option<Xfer> {
        let x = self.schema.xfer(self.delta, r, c, self.v)?;
        // A reference schema's peer differs from this node in one rank
        // bit, so its label differs in that bit's dimension.
        let bit = x.peer_v ^ self.v;
        debug_assert_eq!(bit.count_ones(), 1, "a transfer crosses one dimension");
        Some(Xfer {
            peer: self.me ^ (1 << self.dims[bit.trailing_zeros() as usize]),
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

    /// The copy `xfer` belongs to.
    fn copy_of(&self, xfer: &Xfer) -> usize {
        xfer.offset / self.store.per_copy
    }

    /// The bundle `xfer` (one of round `r`'s) sends, `None` for a pure
    /// receive: its packets in ascending id order, taken from the store
    /// where the kind consumes its sends. This and
    /// [`CollectiveRun::deliver`] are the executor's two halves of a
    /// transfer, public so a round can be replayed without a machine.
    ///
    /// # Panics
    /// Panics, naming the round, if the store misses a packet `xfer`
    /// sends — a schedule bug.
    pub fn outgoing(&mut self, r: usize, xfer: &Xfer) -> Option<Payload> {
        let ids = xfer.send?;
        let copy = self.copy_of(xfer);
        let consume = self.schema.kind.consume_sends();
        Some(
            self.store
                .bundle(copy, ids, consume, format_args!("round {r} send")),
        )
    }

    /// Lands `bundle`, received for `xfer` in round `r`, in the store:
    /// as one entry where the kind fills, summed into the packets held
    /// for it where the kind reduces. A pure send receives nothing.
    ///
    /// # Panics
    /// Panics, naming the round and the peer, if the bundle does not fit
    /// the store — a schedule bug.
    pub fn deliver(&mut self, r: usize, xfer: &Xfer, bundle: Payload) {
        let Some(ids) = xfer.recv else {
            return;
        };
        let copy = self.copy_of(xfer);
        let landed = match self.schema.kind.recv_mode() {
            RecvMode::Fill => self.store.try_put_bundle(copy, ids, bundle),
            RecvMode::Accumulate => self.store.try_accumulate(copy, ids, bundle),
        };
        if let Err(e) = landed {
            panic!("round {r}: bundle from node {}: {e}", xfer.peer);
        }
    }
}

/// Executes one or more collectives *fused*: round `r` of every run is
/// issued in a single [`Proc::multi`] batch. All participating nodes
/// must fuse the same set of collectives in the same order.
pub async fn execute_fused(proc: &mut Proc, runs: &mut [&mut CollectiveRun]) {
    let max_rounds = runs.iter().map(|run| run.rounds()).max().unwrap_or(0);
    // (run index, transfer) for every transfer of a round, in op order,
    // and the batch and its results: all three reused round to round,
    // so a round this node sits out still takes its step,
    // allocation-free.
    let copies = runs.iter().map(|run| run.ncopies()).sum();
    let mut round: Vec<(usize, Xfer)> = Vec::with_capacity(copies);
    let mut ops: Vec<Op> = Vec::with_capacity(2 * copies);
    let mut results: Vec<Option<Payload>> = Vec::with_capacity(2 * copies);
    for r in 0..max_rounds {
        round.clear();
        for (ri, run) in runs.iter().enumerate() {
            round.extend(run.xfers(r).map(|xfer| (ri, xfer)));
        }
        // Build the batch: all sends (across runs), then all receives.
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
            if let Some(data) = run.outgoing(r, xfer) {
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

        proc.multi_into(&mut ops, &mut results).await;
        for ((ri, xfer), bundle) in recvs().zip(results.drain(..).flatten()) {
            runs[*ri].deliver(r, xfer, bundle);
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
        assert_eq!(store.entries(), 0);
        for id in [1999, 7, 2000, 1000] {
            let len = store.expected_len(id);
            // Empty-but-addressable before the first arrival.
            assert_eq!(store.try_take(id), Ok(None));
            assert_eq!(store.try_put(id, payload(len)), Ok(()));
        }
        assert_eq!(store.entries(), 4);
        // take → put → put on the same id.
        assert_eq!(store.try_take(7).map(|p| p.map(|p| p.len())), Ok(Some(4)));
        assert_eq!(store.entries(), 3);
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
        assert_eq!(store.entries(), 4);
        let oob = PacketError::OutOfRange {
            id: 3000,
            slots: 3000,
        };
        assert_eq!(store.try_put(3000, payload(3)), Err(oob.clone()));
        assert_eq!(store.try_take(3000), Err(oob));
    }

    #[test]
    fn every_present_id_stays_findable_through_growth_and_removal() {
        // Strided single-packet entries (the all-to-all pattern), then an
        // interleaving of removals and arrivals that exercises the
        // swap-remove of whole entries.
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
            } else if pick.is_multiple_of(2) || present.is_empty() {
                store.put(id, tag(id));
                present.push(id);
            } else {
                assert_eq!(store.take(id), None);
                let id = present.swap_remove(pick % present.len());
                assert_eq!(store.take(id), Some(tag(id)));
            }
            assert_eq!(store.entries(), present.len());
            for &id in &present {
                assert_eq!(store.get(id), Some(tag(id)), "step {step}");
            }
        }
    }

    #[test]
    fn accumulate_adds_in_place_only_when_unshared() {
        let piece = || -> Payload { (0..12).map(|x| f64::from(x) * 0.5).collect() };
        let want: Vec<f64> = (0..12).map(|x| f64::from(x) + f64::from(x) * 0.5).collect();
        let words_at = |store: &PacketStore| store.get(0).map(|p| p.as_ptr() as usize);

        // Sole owner: the sum lands in the same allocation.
        let mut store = PacketStore::new(vec![12], 1);
        store.put(0, payload(12));
        let before = words_at(&store);
        assert_eq!(store.try_accumulate(0, IdMask::single(0), piece()), Ok(()));
        assert_eq!(store.get(0).as_deref(), Some(&want[..]));
        assert_eq!(words_at(&store), before);

        // Shared with a caller's clone: the clone must not see the sum,
        // which lands in the incoming bundle instead.
        let held = payload(12);
        let mut store = PacketStore::new(vec![12], 1);
        store.put(0, held.clone());
        let incoming = piece();
        let incoming_at = incoming.as_ptr() as usize;
        assert_eq!(store.try_accumulate(0, IdMask::single(0), incoming), Ok(()));
        assert_eq!(store.get(0).as_deref(), Some(&want[..]));
        assert_eq!(words_at(&store), Some(incoming_at));
        assert_eq!(held, payload(12));

        // Shared with a sibling window of the same bundle, the incoming
        // bundle shared too: a fresh allocation, neither written.
        let bundle = payload(24);
        let (low, high) = (bundle.slice(0, 12), bundle.slice(12, 24));
        drop(bundle);
        let mut store = PacketStore::new(vec![12], 1);
        store.put(0, low);
        let incoming = piece();
        let kept = incoming.clone();
        assert_eq!(store.try_accumulate(0, IdMask::single(0), incoming), Ok(()));
        assert_eq!(store.get(0).as_deref(), Some(&want[..]));
        assert_eq!(&high[..], &payload(24)[12..]);
        assert_eq!(kept, piece());
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
