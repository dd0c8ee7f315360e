//! A simulated hypercube multicomputer.
//!
//! The paper evaluates its algorithms under an abstract machine model — a
//! `p`-processor binary hypercube in which sending `m` words to a neighbor
//! costs `t_s + t_w·m`, with either *one-port* nodes (a node drives one
//! link at a time) or *multi-port* nodes (a node drives all `log p` links
//! simultaneously). No such machine exists today, so this crate builds one
//! in software:
//!
//! * every virtual processor executes the *actual* SPMD algorithm (real
//!   data moves, so correctness is checked end to end, not assumed) as a
//!   resumable async node program, run as suspended continuations by an
//!   event loop that resumes the runnable node with the least label
//!   (which scales to `p = 65536` on one host thread, and spreads a
//!   large machine over spare cores);
//! * each processor carries a **virtual clock**; communication primitives
//!   advance the clocks according to the paper's cost model, and the
//!   elapsed virtual time of a run is the maximum clock over all
//!   processors.
//!
//! # Cost semantics
//!
//! The model charges transfers to the **sender's port**:
//!
//! * [`Proc::send`] to a neighbor starts when the sender's port is free
//!   (its clock) and occupies it for `t_s + t_w·m`; the message *arrives*
//!   at the end of that interval.
//! * [`Proc::recv`] is passive: it advances the receiver's clock to the
//!   message arrival time if the message has not yet arrived (receives do
//!   not occupy the port; on real machines they are serviced by the
//!   channel DMA while the node drives its own outgoing transfer on the
//!   same full-duplex link).
//! * [`Proc::multi`] issues a *batch* of logically concurrent operations.
//!   Under [`PortModel::OnePort`] the sends serialize (sum of costs);
//!   under [`PortModel::MultiPort`] sends to distinct neighbors proceed in
//!   parallel (max of costs), with sends sharing a link serialized.
//! * [`Proc::send_routed`] models a point-to-point transfer to a
//!   non-neighbor over `h` hops (`h` = Hamming distance): one-port
//!   store-and-forward `h·(t_s + t_w·m)`, multi-port pipelined
//!   `h·t_s + t_w·m` — exactly how the paper prices such phases (the DNS
//!   and 3-D Diagonal first phases). Relay-port occupancy is not
//!   modelled, matching the paper's accounting.
//!
//! This reproduces every entry the paper derives: e.g. a one-port
//! recursive-doubling all-gather of `M`-word blocks over `N` nodes costs
//! `t_s·log N + t_w·(N−1)M`, and a one-port Cannon shift-multiply-add step
//! (send A right, send B down, receive both) costs `2(t_s + t_w·m)` —
//! see `cubemm-collectives` and the Table 1/Table 2 validation tests.
//!
//! # Determinism
//!
//! Clock arithmetic depends only on per-sender program order and matched
//! `(from, tag)` receives, never on OS scheduling, so a run's virtual time
//! is bit-for-bit reproducible across executions (property-tested).
//!
//! # Fault model
//!
//! A [`FaultPlan`] (see [`MachineOptions::faults`] and the [`faults`]
//! module) deterministically injects dead links, degraded links,
//! straggler nodes, and scheduled message drops. Sends over dead links
//! transparently re-route over a live Hamming detour — charging the
//! extra hops honestly — or fail with a typed [`SendError`] under a
//! strict plan. An empty plan changes no clock arithmetic: every healthy
//! result is bit-for-bit identical with the fault layer present.
//!
//! Failures surface as values through [`Machine::run`], which returns a
//! structured [`RunError`] — distinguishing configuration problems,
//! simulated deadlocks (naming *every* blocked node with the
//! `(from, tag)` it awaited), node panics, scheduled node crashes, and
//! link faults — instead of panicking. Plans can also schedule *silent
//! data corruption* (a bit-flip or perturbation of one word of the k-th
//! payload crossing a directed edge): delivery and timing stay healthy
//! and only the data is wrong, which is the failure mode the ABFT layer
//! in `cubemm-core` detects and corrects.
//!
//! # Execution
//!
//! Machines are built with [`Machine::builder`] and booted with
//! [`Machine::run`] or [`Machine::run_sharded`]; node programs are async
//! functions over an owned [`Proc`] (see the `machine` module docs for
//! the resumable-step contract). A discrete-event loop resumes suspended
//! node continuations, least label first, so there is no OS-thread
//! cap — `p = 4096–65536` sweeps run on a laptop core. `run` drives the
//! whole machine with one loop on the calling thread; `run_sharded`
//! splits a large machine into contiguous label ranges, one loop per
//! spare core, and returns the same result bit for bit.
//!
//! Scheduling decisions come from a **progress ledger** per loop (see
//! `ledger.rs` and DESIGN.md §11/§14): per-node FIFO mailboxes matched on
//! `(from, tag)`, a record of which nodes are parked in receives, and the
//! live count. A blocked receive is woken *exactly* when its message is
//! injected; once no node can run and no message is in flight, every
//! live node is parked and the run is provably deadlocked — there is no
//! host-time watchdog, and host timing can never influence virtual
//! clocks. A failure stops only its node: the others run on until no
//! node can run, the run reports the failure with the least
//! `(clock at failure, node)` whatever the resume order or shard count,
//! and a deadlock names the blocked receives straight from the ledgers'
//! records of parked nodes.

pub mod cores;
pub mod faults;
#[doc(hidden)]
pub mod json;
mod ledger;
mod machine;
mod proc;
mod ready;
mod shard;
mod stats;
pub mod trace;

pub use faults::{CorruptKind, Corruption, FaultEntry, FaultPlan, FaultPlanError, LinkQuality};
pub use machine::{
    most_shards, with_resume_order, with_shards, Blocked, Machine, MachineBuilder, MachineOptions,
    RunError, RunOutcome, SHARD_MIN_NODES,
};
pub use proc::{Op, Proc, SendError};
pub use stats::{FiredFault, FiredKind, NodeStats, RunStats};
pub use trace::{TraceEvent, TraceKind};

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hasher for maps keyed by simulator-internal integers: node labels,
/// tags, packet ids. One multiply per word instead of SipHash's rounds.
///
/// It is not keyed, which is sound only because such keys never come
/// from outside the process — they are computed by the schedules
/// themselves, so there is no adversary to craft collisions. Keep the
/// default hasher for anything parsed from input.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// The multiply mixes upwards only, and `HashMap` picks buckets from
    /// the low bits: rotate well-mixed bits down to them.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by simulator-internal integers (see [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of simulator-internal integers (see [`IdHasher`]).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Words a [`Payload`] stores inline, without touching the heap.
pub const PAYLOAD_INLINE_WORDS: usize = 3;

/// Message payload: an immutable word vector.
///
/// Two representations behind one read surface (`Deref<Target = [f64]>`):
/// messages of at most [`PAYLOAD_INLINE_WORDS`] words — the control- and
/// flit-sized traffic of collective start-up rounds — are stored inline
/// in the envelope and never allocate; anything larger is a *window*
/// (`offset`, `len`) into a shared `Arc<[f64]>`, so cloning, forwarding
/// and [`Payload::slice`] are O(1) and copy nothing.
///
/// The handle is 32 bytes — an `Arc<[f64]>` plus a `u32` offset and
/// length, or three inline words — so every envelope, mailbox slot,
/// batched [`Op`] and packet-store entry that carries one stays small.
/// The simulator moves handles far more often than words: at p = 4096 a
/// run holds hundreds of thousands of them at once.
///
/// Exactly when words are copied:
///
/// * **construction** from a slice, `Vec`, boxed slice, array or
///   iterator copies each word once into a fresh allocation
///   (`Arc<[f64]>` keeps its reference counts in the same block as the
///   words, so not even an owned `Vec` can be adopted in place);
///   `From<Arc<[f64]>>` shares the caller's allocation;
/// * [`Payload::concat`] — how a multi-packet bundle is built for the
///   wire, and how a collective's finish reassembles a message from its
///   slices — returns a window, copying nothing, when its parts are
///   consecutive windows of one allocation (a broadcast's slices all
///   descend from the root's one payload). Anything else — gapped,
///   reordered, inline or cross-allocation parts, or plain word slices —
///   gets one exactly-sized allocation and one copy of each word;
/// * **never** on `clone`, send, receive, or `slice`: splitting a
///   received bundle into its packets, forwarding a stored packet and
///   handing a packet out as a result all share the original words.
///
/// A window keeps its whole allocation alive. Writing is only possible
/// through [`Payload::unique_mut`], which refuses unless no other
/// payload shares the allocation.
///
/// # Size limit
///
/// A payload holds at most `u32::MAX` (2³² − 1) words, because a window
/// stores its bounds as `u32`. Building a longer one panics with a
/// message naming the limit — on a node, the run fails with
/// [`RunError::NodePanicked`] — and never truncates.
///
/// Construct through the `From` / `FromIterator` impls (every send
/// primitive takes `impl Into<Payload>`, so slices, vectors, arrays, and
/// `Arc<[f64]>` all work unchanged).
#[derive(Clone)]
pub struct Payload(PayloadRepr);

#[derive(Clone)]
enum PayloadRepr {
    /// At most [`PAYLOAD_INLINE_WORDS`] words, stored in the envelope.
    Inline {
        len: u8,
        words: [f64; PAYLOAD_INLINE_WORDS],
    },
    /// `data[off..off + len]` of a shared immutable allocation; always
    /// more than [`PAYLOAD_INLINE_WORDS`] words.
    Window {
        data: Arc<[f64]>,
        off: u32,
        len: u32,
    },
}

/// The one checked narrowing of a window bound (an offset or a length,
/// in words) to the `u32` the handle stores.
///
/// # Panics
/// Panics, naming the limit, if `words` exceeds `u32::MAX`.
#[inline]
fn window_bound(words: usize) -> u32 {
    u32::try_from(words).unwrap_or_else(|_| {
        panic!(
            "Payload: {words} words exceed the limit of u32::MAX = {} words per payload",
            u32::MAX
        )
    })
}

/// What [`Payload::concat`] accepts as a part: a [`Payload`] or a
/// `(payload, lo, hi)` span of one (its words `lo..hi`), either of which
/// may join its neighbours without a copy, or a plain `&[f64]`, which is
/// always copied.
mod part {
    use super::{Payload, PayloadRepr};
    use std::sync::Arc;

    pub trait Part<'a>: Copy {
        /// The part's words.
        fn words(self) -> &'a [f64];
        /// The allocation this part is a window of, and its offset there.
        fn window(self) -> Option<(&'a Arc<[f64]>, usize)>;
    }

    impl<'a> Part<'a> for &'a [f64] {
        fn words(self) -> &'a [f64] {
            self
        }
        fn window(self) -> Option<(&'a Arc<[f64]>, usize)> {
            None
        }
    }

    impl<'a> Part<'a> for &'a Payload {
        fn words(self) -> &'a [f64] {
            self
        }
        fn window(self) -> Option<(&'a Arc<[f64]>, usize)> {
            match &self.0 {
                PayloadRepr::Window { data, off, .. } => Some((data, *off as usize)),
                PayloadRepr::Inline { .. } => None,
            }
        }
    }

    /// Words `lo..hi` of a payload, read in place: joins exactly as
    /// `payload.slice(lo, hi)` would, without building that handle.
    impl<'a> Part<'a> for (&'a Payload, usize, usize) {
        fn words(self) -> &'a [f64] {
            &self.0[self.1..self.2]
        }
        fn window(self) -> Option<(&'a Arc<[f64]>, usize)> {
            Part::window(self.0).map(|(data, off)| (data, off + self.1))
        }
    }
}

impl Payload {
    /// Builds the inline representation; `slice` must fit. Each word is
    /// read on its own: a `copy_from_slice` of a run-time length calls
    /// libc's `memcpy` for at most three words.
    #[inline]
    fn inline(slice: &[f64]) -> Self {
        debug_assert!(slice.len() <= PAYLOAD_INLINE_WORDS);
        let words = std::array::from_fn(|at| slice.get(at).copied().unwrap_or(0.0));
        Payload(PayloadRepr::Inline {
            len: slice.len() as u8,
            words,
        })
    }

    /// Words `off..off + len` of `data` as a window; `len` must exceed
    /// [`PAYLOAD_INLINE_WORDS`].
    #[inline]
    fn window(data: Arc<[f64]>, off: usize, len: usize) -> Self {
        debug_assert!(len > PAYLOAD_INLINE_WORDS && off + len <= data.len());
        Payload(PayloadRepr::Window {
            data,
            off: window_bound(off),
            len: window_bound(len),
        })
    }

    /// Whether this payload is stored inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, PayloadRepr::Inline { .. })
    }

    /// Words `lo..hi` of this payload, in O(1): a window into the same
    /// allocation (at most [`PAYLOAD_INLINE_WORDS`] words are copied
    /// inline instead, which is cheaper than the reference count).
    ///
    /// # Panics
    /// Panics unless `lo <= hi <= self.len()`.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> Payload {
        assert!(
            lo <= hi && hi <= self.len(),
            "Payload::slice: {lo}..{hi} out of range for {} words",
            self.len()
        );
        match &self.0 {
            PayloadRepr::Window { data, off, .. } if hi - lo > PAYLOAD_INLINE_WORDS => {
                Payload::window(Arc::clone(data), *off as usize + lo, hi - lo)
            }
            _ => Payload::inline(&self[lo..hi]),
        }
    }

    /// Concatenates `parts` — payloads, `(payload, lo, hi)` spans of
    /// payloads, or `&[f64]` word slices — whose lengths must sum to
    /// `len`, into one payload.
    ///
    /// When the non-empty parts are consecutive windows of one
    /// allocation (each starts where the previous one ends), the result
    /// is the window they span and no word is copied. Otherwise the
    /// result gets a single exactly-sized allocation (none at most
    /// [`PAYLOAD_INLINE_WORDS`] words) and one copy of each word.
    ///
    /// # Panics
    /// Panics if the parts do not add up to exactly `len` words, or if
    /// `len` exceeds the [size limit](Payload#size-limit).
    pub fn concat<'a, P: part::Part<'a>>(
        len: usize,
        parts: impl IntoIterator<Item = P>,
    ) -> Payload {
        fn fill<'a>(buf: &mut [f64], parts: impl IntoIterator<Item = &'a [f64]>) {
            let mut at = 0;
            for part in parts {
                let dst = buf.get_mut(at..at + part.len());
                let dst =
                    dst.unwrap_or_else(|| panic!("Payload::concat: parts do not add up to len"));
                dst.copy_from_slice(part);
                at += part.len();
            }
            assert_eq!(at, buf.len(), "Payload::concat: parts do not add up to len");
        }
        let mut parts = parts
            .into_iter()
            .filter(|part| !part.words().is_empty())
            .peekable();
        // The join rule: take parts while they continue one window.
        let mut joined: &[f64] = &[];
        if len > PAYLOAD_INLINE_WORDS {
            if let Some((data, start)) = parts.peek().and_then(|part| part.window()) {
                let mut end = start;
                while let Some(part) = parts.next_if(|part| {
                    part.window()
                        .is_some_and(|(next, at)| at == end && Arc::ptr_eq(next, data))
                }) {
                    end += part.words().len();
                }
                if end - start == len && parts.peek().is_none() {
                    return Payload::window(Arc::clone(data), start, len);
                }
                joined = &data[start..end];
            }
        }
        let parts = std::iter::once(joined).chain(parts.map(|part| part.words()));
        if len <= PAYLOAD_INLINE_WORDS {
            let mut words = [0.0; PAYLOAD_INLINE_WORDS];
            fill(&mut words[..len], parts);
            return Payload(PayloadRepr::Inline {
                len: len as u8,
                words,
            });
        }
        // Checked before allocating, so an oversized join panics rather
        // than asking for the block.
        window_bound(len);
        // `repeat_n` reports its exact length, so collecting it allocates
        // once; safe Rust cannot hand out the block unwritten.
        let mut data: Arc<[f64]> = std::iter::repeat_n(0.0, len).collect();
        #[allow(
            clippy::expect_used,
            reason = "the Arc was created on the line above and has not been cloned"
        )]
        fill(Arc::get_mut(&mut data).expect("fresh allocation"), parts);
        Payload::window(data, 0, len)
    }

    /// Mutable access to the words, granted only when nothing else can
    /// observe the write: inline payloads own their words, and a window
    /// is unique when no other payload (or outside `Arc`) shares its
    /// allocation.
    #[inline]
    pub fn unique_mut(&mut self) -> Option<&mut [f64]> {
        match &mut self.0 {
            PayloadRepr::Inline { len, words } => Some(&mut words[..usize::from(*len)]),
            PayloadRepr::Window { data, off, len } => {
                let (off, len) = (*off as usize, *len as usize);
                Arc::get_mut(data).map(|words| &mut words[off..off + len])
            }
        }
    }
}

impl std::ops::Deref for Payload {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match &self.0 {
            PayloadRepr::Inline { len, words } => &words[..usize::from(*len)],
            PayloadRepr::Window { data, off, len } => {
                &data[*off as usize..*off as usize + *len as usize]
            }
        }
    }
}

impl AsRef<[f64]> for Payload {
    #[inline]
    fn as_ref(&self) -> &[f64] {
        self
    }
}

impl Default for Payload {
    #[inline]
    fn default() -> Self {
        Payload::inline(&[])
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl From<&[f64]> for Payload {
    fn from(slice: &[f64]) -> Self {
        if slice.len() <= PAYLOAD_INLINE_WORDS {
            Payload::inline(slice)
        } else {
            // Checked before copying, like `concat`.
            window_bound(slice.len());
            Payload::from(Arc::<[f64]>::from(slice))
        }
    }
}

impl From<Vec<f64>> for Payload {
    fn from(vec: Vec<f64>) -> Self {
        Payload::from(&vec[..])
    }
}

impl From<Box<[f64]>> for Payload {
    fn from(boxed: Box<[f64]>) -> Self {
        Payload::from(&boxed[..])
    }
}

impl From<Arc<[f64]>> for Payload {
    fn from(shared: Arc<[f64]>) -> Self {
        // Copying ≤ 3 words out of the Arc keeps the envelope
        // allocation-free; the sharing it forgoes is cheaper than the
        // refcount traffic it avoids.
        if shared.len() <= PAYLOAD_INLINE_WORDS {
            Payload::inline(&shared)
        } else {
            let len = shared.len();
            Payload::window(shared, 0, len)
        }
    }
}

impl<const N: usize> From<[f64; N]> for Payload {
    fn from(array: [f64; N]) -> Self {
        Payload::from(&array[..])
    }
}

impl FromIterator<f64> for Payload {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let mut words = [0.0; PAYLOAD_INLINE_WORDS];
        let mut len = 0usize;
        for w in it.by_ref() {
            if len == PAYLOAD_INLINE_WORDS {
                // Spill: finish collecting on the heap.
                let mut vec = Vec::with_capacity(PAYLOAD_INLINE_WORDS + 1 + it.size_hint().0);
                vec.extend_from_slice(&words);
                vec.push(w);
                vec.extend(it);
                return Payload::from(vec);
            }
            words[len] = w;
            len += 1;
        }
        Payload(PayloadRepr::Inline {
            len: len as u8,
            words,
        })
    }
}

/// Message start-up and per-word transfer costs (`t_s`, `t_w` in the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Start-up cost per message hop.
    pub ts: f64,
    /// Transfer cost per word per hop.
    pub tw: f64,
}

impl CostParams {
    /// Cost of moving `words` words across one link.
    #[inline]
    pub fn hop(&self, words: usize) -> f64 {
        self.ts + self.tw * words as f64
    }

    /// The paper's headline setting (`t_s = 150`, `t_w = 3`).
    pub const PAPER: CostParams = CostParams { ts: 150.0, tw: 3.0 };

    /// Pure start-up accounting: elapsed time equals the number of message
    /// start-ups on the critical path (the `a` of Table 2).
    pub const STARTUPS_ONLY: CostParams = CostParams { ts: 1.0, tw: 0.0 };

    /// Pure bandwidth accounting: elapsed time equals the word volume on
    /// the critical path (the `b` of Table 2).
    pub const WORDS_ONLY: CostParams = CostParams { ts: 0.0, tw: 1.0 };

    /// The rule every cost obeys: `ts` and `tw` are finite and
    /// non-negative. The error names the first cost that breaks it.
    pub fn validate(&self) -> Result<(), String> {
        for (name, cost) in [("ts", self.ts), ("tw", self.tw)] {
            if !(cost.is_finite() && cost >= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative, got {cost}"
                ));
            }
        }
        Ok(())
    }
}

/// Which physical links the machine provides.
///
/// The default is the full hypercube. [`LinkTopology::Torus2d`]
/// restricts the machine to the links of a `q × q` torus embedded via
/// the Gray-code rings (each axis a Hamiltonian ring through its
/// dimension group): sends over any other hypercube edge panic. This is
/// the validation behind the paper's framing — Cannon's original
/// unit-shift form runs on the torus machine, while every
/// hypercube-specific algorithm (including Cannon's XOR-skew form)
/// needs edges a mesh does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkTopology {
    /// All `log p` hypercube links per node (the paper's machine).
    #[default]
    Hypercube,
    /// Only the four torus links per node of a `q × q` Gray-ring
    /// embedding (`q² = p`, axis 0 in the low bits).
    Torus2d {
        /// Bits per axis (`q = 2^bits`).
        axis_bits: u32,
    },
}

impl LinkTopology {
    /// Whether the edge between two hypercube-adjacent labels exists in
    /// this topology.
    pub fn allows(&self, a: usize, b: usize) -> bool {
        match *self {
            LinkTopology::Hypercube => true,
            LinkTopology::Torus2d { axis_bits } => {
                let diff = a ^ b;
                let axis_shift = (diff.trailing_zeros() / axis_bits) * axis_bits;
                let mask = ((1usize << axis_bits) - 1) << axis_shift;
                let ca = cubemm_topology::gray_inverse((a & mask) >> axis_shift);
                let cb = cubemm_topology::gray_inverse((b & mask) >> axis_shift);
                let q = 1usize << axis_bits;
                // Gray-ring neighbors: coordinates adjacent on the ring.
                (ca + 1) % q == cb || (cb + 1) % q == ca
            }
        }
    }
}

/// Which endpoints a transfer's `t_s + t_w·m` occupies.
///
/// The paper's accounting (reproduced by [`ChargePolicy::SenderOnly`])
/// charges the sender's port and treats receives as passive — consistent
/// with channel-DMA hardware and with every Table 1/2 entry (e.g. a
/// recursive-doubling exchange costs one unit per step, a Cannon
/// shift-multiply-add `2(t_s + t_w·m)`). [`ChargePolicy::Symmetric`]
/// additionally charges the receiver's port one `t_s + t_w·m` per
/// message (routed multi-hop messages charge the receiving endpoint for
/// its final hop only) — a strictly more conservative model used by the
/// model-sensitivity ablation to check that the paper's rankings do not
/// depend on the charging assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChargePolicy {
    /// Transfers occupy the sender's port only (the paper's model).
    #[default]
    SenderOnly,
    /// Transfers occupy both endpoints' ports.
    Symmetric,
}

/// Whether a node can drive one link at a time or all of them (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortModel {
    /// A node engages at most one communication link at a time.
    OnePort,
    /// A node can use all its `log p` links simultaneously.
    MultiPort,
}

impl std::fmt::Display for PortModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortModel::OnePort => write!(f, "one-port"),
            PortModel::MultiPort => write!(f, "multi-port"),
        }
    }
}

#[cfg(test)]
mod payload_tests {
    use super::{window_bound, Op, Payload, PayloadRepr, PAYLOAD_INLINE_WORDS};
    use std::sync::Arc;

    /// The handle is the simulator's unit of per-message memory traffic:
    /// every envelope, mailbox slot, batched `Op`, packet-store entry and
    /// node future carries payloads by value. Shrinking it from 72 to 32
    /// bytes (and `Op` from 88 to 48), together with joining consecutive
    /// windows without a copy, cut `run_comm`'s p = 4096 ops by 7–22 % on
    /// a 2-vCPU host (cannon one-port 579 → 461 ms, diag2d multi-port
    /// 292 → 234 ms) and its peak RSS from 88 to 76 MB. A field that
    /// grows it again must fail here, not cost that silently.
    #[test]
    fn handles_stay_small() {
        assert!(std::mem::size_of::<Payload>() <= 32);
        assert!(std::mem::size_of::<Op>() <= 48);
    }

    /// The allocation behind a window and the window's bounds in it.
    fn window_of(payload: &Payload) -> Option<(&Arc<[f64]>, usize, usize)> {
        match &payload.0 {
            PayloadRepr::Window { data, off, len } => Some((data, *off as usize, *len as usize)),
            PayloadRepr::Inline { .. } => None,
        }
    }

    #[test]
    fn consecutive_windows_join_without_a_copy() {
        let whole = ramp(40);
        let parts = [whole.slice(0, 10), whole.slice(10, 25), whole.slice(25, 40)];
        let joined = Payload::concat(40, &parts);
        assert_eq!(joined, whole);
        assert!(std::ptr::eq(&joined[0], &whole[0]), "the span, not a copy");
        // A span in the middle, with empty parts anywhere, joins too.
        let empty = Payload::default();
        let mid = Payload::concat(
            15,
            [&empty, &whole.slice(5, 10), &empty, &whole.slice(10, 20)],
        );
        assert!(std::ptr::eq(&mid[0], &whole[5]));
        assert_eq!(
            window_of(&mid).map(|(_, off, len)| (off, len)),
            Some((5, 15))
        );
    }

    #[test]
    fn other_parts_get_one_exactly_sized_copy() {
        let whole = ramp(40);
        let other = ramp(40);
        let cases = [
            ("gapped", vec![whole.slice(0, 10), whole.slice(11, 21)]),
            ("reordered", vec![whole.slice(10, 20), whole.slice(0, 10)]),
            (
                "cross-allocation",
                vec![whole.slice(0, 10), other.slice(10, 20)],
            ),
            (
                "inline",
                vec![whole.slice(0, 10), whole.slice(10, 12), whole.slice(12, 20)],
            ),
            (
                "prefix then a stranger",
                vec![whole.slice(0, 10), whole.slice(10, 20), other.slice(0, 5)],
            ),
        ];
        for (what, parts) in cases {
            let len = parts.iter().map(|part| part.len()).sum();
            let want: Vec<f64> = parts.iter().flat_map(|part| part.iter().copied()).collect();
            let got = Payload::concat(len, &parts);
            assert_eq!(&got[..], &want[..], "{what}");
            let (data, off, n) = window_of(&got).unwrap_or_else(|| panic!("{what}: heap"));
            assert_eq!(
                (off, n, data.len()),
                (0, len, len),
                "{what}: one exactly-sized copy"
            );
            assert!(!std::ptr::eq(&got[0], &whole[0]) && !std::ptr::eq(&got[0], &other[0]));
        }
        // Plain word slices are always copied, even consecutive ones.
        let got = Payload::concat(40, [&whole[..20], &whole[20..]]);
        assert_eq!(got, whole);
        assert!(!std::ptr::eq(&got[0], &whole[0]));
    }

    #[test]
    fn spans_join_like_the_slices_they_name() {
        let whole = ramp(40);
        let joined = Payload::concat(30, [(&whole, 5, 20), (&whole, 20, 35)]);
        assert_eq!(
            window_of(&joined).map(|(_, off, len)| (off, len)),
            Some((5, 30)),
            "the span, not a copy"
        );
        // Spans of two windows that meet in their allocation join too.
        let (low, high) = (whole.slice(0, 12), whole.slice(12, 40));
        let joined = Payload::concat(20, [(&low, 2, 12), (&high, 0, 10)]);
        assert!(std::ptr::eq(&joined[0], &whole[2]));
        // A gap copies once, exactly sized.
        let gapped = Payload::concat(20, [(&whole, 0, 10), (&whole, 11, 21)]);
        let want: Vec<f64> = (0..10).chain(11..21).map(|x| x as f64).collect();
        assert_eq!(&gapped[..], &want[..]);
        assert_eq!(window_of(&gapped).map(|(data, ..)| data.len()), Some(20));
    }

    #[test]
    #[should_panic(expected = "parts do not add up")]
    fn concat_rejects_joinable_parts_that_overshoot() {
        let whole = ramp(40);
        let _ = Payload::concat(19, [&whole.slice(0, 10), &whole.slice(10, 20)]);
    }

    #[test]
    fn window_bounds_narrow_exactly_up_to_u32_max() {
        assert_eq!(window_bound(0), 0);
        assert_eq!(window_bound(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "exceed the limit of u32::MAX = 4294967295 words per payload")]
    fn window_bounds_past_u32_max_panic_instead_of_truncating() {
        let _ = window_bound(u32::MAX as usize + 1);
    }

    fn ramp(n: usize) -> Payload {
        (0..n).map(|x| x as f64).collect()
    }

    #[test]
    fn every_constructor_inlines_exactly_up_to_the_limit() {
        for n in [0, 1, PAYLOAD_INLINE_WORDS, PAYLOAD_INLINE_WORDS + 1, 40] {
            let words: Vec<f64> = (0..n).map(|x| x as f64).collect();
            let built = [
                Payload::from(&words[..]),
                Payload::from(words.clone()),
                Payload::from(words.clone().into_boxed_slice()),
                Payload::from(Arc::<[f64]>::from(&words[..])),
                words.iter().copied().collect(),
                Payload::concat(n, [&words[..n / 2], &words[n / 2..]]),
            ];
            for payload in built {
                assert_eq!(&payload[..], &words[..]);
                assert_eq!(payload.is_inline(), n <= PAYLOAD_INLINE_WORDS, "n = {n}");
            }
        }
    }

    #[test]
    fn slices_are_windows_of_the_same_allocation() {
        let whole = ramp(40);
        let mid = whole.slice(10, 30);
        assert_eq!(&mid[..], &whole[10..30]);
        assert!(std::ptr::eq(&mid[0], &whole[10]), "no words were copied");
        // A window of a window composes offsets.
        let inner = mid.slice(5, 15);
        assert!(std::ptr::eq(&inner[0], &whole[15]));
        // Short slices go inline rather than hold the allocation.
        assert!(whole.slice(3, 3 + PAYLOAD_INLINE_WORDS).is_inline());
        assert_eq!(&whole.slice(3, 7)[..], &whole[3..7]);
        assert!(whole.slice(40, 40).is_empty());
        // From<Arc<[f64]>> shares the caller's allocation too.
        let shared: Arc<[f64]> = Arc::from(&whole[..]);
        assert!(std::ptr::eq(
            &Payload::from(Arc::clone(&shared))[0],
            &shared[0]
        ));
    }

    #[test]
    #[should_panic(expected = "out of range for 12 words")]
    fn slice_rejects_a_range_past_the_end() {
        let _ = ramp(12).slice(4, 13);
    }

    #[test]
    #[should_panic(expected = "parts do not add up")]
    fn concat_rejects_parts_that_fall_short() {
        let _ = Payload::concat(20, [&[1.0; 9][..], &[2.0; 9][..]]);
    }

    #[test]
    fn unique_mut_is_granted_only_to_a_sole_owner() {
        // Inline payloads own their words.
        let mut small = ramp(3);
        small.unique_mut().expect("inline")[0] = 9.0;
        assert_eq!(&small[..], &[9.0, 1.0, 2.0]);

        let mut big = ramp(20);
        big.unique_mut().expect("sole owner")[19] = -1.0;
        assert_eq!(big[19], -1.0);

        // A clone, a sibling window and an outside Arc each block writes.
        let clone = big.clone();
        assert!(big.unique_mut().is_none());
        drop(clone);
        let mut window = big.slice(0, 10);
        assert!(window.unique_mut().is_none() && big.unique_mut().is_none());
        drop(big);
        // Last view standing: unique again, and confined to its range.
        let words = window.unique_mut().expect("sole owner again");
        assert_eq!(words.len(), 10);
    }
}

#[cfg(test)]
mod topology_tests {
    use super::LinkTopology;
    use cubemm_topology::gray;

    #[test]
    fn hypercube_allows_everything() {
        let t = LinkTopology::Hypercube;
        assert!(t.allows(0, 1));
        assert!(t.allows(0b1000, 0b0000));
    }

    #[test]
    fn torus_allows_exactly_the_ring_edges() {
        // q = 8 per axis (axis_bits = 3): along one axis, allowed edges
        // are exactly consecutive Gray codes.
        let t = LinkTopology::Torus2d { axis_bits: 3 };
        for r in 0..8usize {
            let a = gray(r);
            let b = gray((r + 1) % 8);
            assert!(t.allows(a, b), "ring edge {r}->{} must exist", (r + 1) % 8);
            assert!(t.allows(a << 3, b << 3), "second-axis ring edge");
        }
        // gray(0)=000 and gray(3)=010 differ in one bit but are ring
        // distance 3 apart: not a torus link.
        assert!(!t.allows(gray(0), 0b010));
    }
}
