//! Deterministic fault injection for the simulated machine.
//!
//! The paper's machine model is a perfect, failure-free hypercube. Real
//! machines are not: links die or degrade, nodes straggle, messages get
//! lost. A [`FaultPlan`] describes such imperfections *deterministically*
//! — every fault is keyed by static configuration (an edge, a node) or a
//! per-sender sequence number (the k-th traversal of an edge), never by a
//! random draw — so a faulty run is exactly as reproducible as a healthy
//! one (the crate's determinism contract, property-tested).
//!
//! Injectable faults:
//!
//! * **dead links** — the edge is removed from the machine. Sends either
//!   re-route over one of the `log p` edge-disjoint Hamming paths
//!   (the default), charging the detour hops honestly, or fail with a
//!   typed [`crate::SendError`] under [`FaultPlan::strict`];
//! * **degraded links** — per-edge multipliers on `t_s` and `t_w`;
//! * **stragglers** — a per-node clock-rate multiplier: every charge to
//!   that node's port takes proportionally longer;
//! * **message loss** — drop the k-th message a node injects toward a
//!   given neighbor/destination; [`crate::Proc::send_with_retry`] models
//!   the recovery, charging exponential virtual-time backoff;
//! * **data corruption** — silently flip a bit (or add a delta) in one
//!   word of the k-th payload a sender pushes across a given directed
//!   edge. Delivery and timing are untouched: the receiver gets a wrong
//!   number and no error — the failure mode ABFT (see `cubemm-core`'s
//!   `abft` module) exists to catch;
//! * **node crashes** — kill one rank as it begins its k-th
//!   communication call. The crash rides the same ledger/abort
//!   machinery as link failures and surfaces as a structured
//!   [`crate::RunError::NodeCrashed`].
//!
//! Each fault is one [`FaultEntry`], and a plan is its entries plus the
//! `strict` flag. [`FaultEntry::check`] holds every rule an entry must
//! meet, so the builders, the JSON codec ([`FaultPlan::to_json`] /
//! [`FaultPlan::from_json`]) and [`FaultPlan::from_entries`] accept
//! exactly the same faults.
//!
//! An empty plan (the default) costs nothing: every virtual-time result
//! is bit-for-bit identical to a run without the fault layer.

use std::collections::{BTreeMap, VecDeque};

use cubemm_topology::bits::{dim_walk, hamming};

use crate::json::Json;
use crate::LinkTopology;

/// Normalizes an undirected edge to `(lo, hi)`.
#[inline]
fn edge(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Per-link cost degradation: multipliers applied to the healthy
/// `t_s`/`t_w` of every transfer crossing the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Multiplier on the start-up cost `t_s` (1.0 = healthy).
    pub ts_factor: f64,
    /// Multiplier on the per-word cost `t_w` (1.0 = healthy).
    pub tw_factor: f64,
}

impl LinkQuality {
    /// A healthy link.
    pub const HEALTHY: LinkQuality = LinkQuality {
        ts_factor: 1.0,
        tw_factor: 1.0,
    };
}

/// Why a fault plan can never run as written: a typed rejection raised
/// when an entry fails [`FaultEntry::check`], when a plan is loaded from
/// JSON ([`FaultPlan::from_json`]), or when it is checked against a
/// concrete machine ([`FaultPlan::validate`]).
///
/// Plans are user input (files, service requests), so every way an entry
/// could *silently never fire* — a node outside the machine, a step no
/// counter will ever reach, an empty degradation window — is rejected
/// up front instead of being carried along as a no-op.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// Structurally invalid input: not a JSON object, a missing or
    /// mistyped field, a non-edge, an out-of-range factor.
    Malformed(String),
    /// An entry references a node outside the machine the plan is
    /// validated against.
    NodeOutOfRange {
        /// Which fault family the entry belongs to.
        what: &'static str,
        /// The offending node label.
        node: usize,
        /// The machine size the plan was checked against.
        p: usize,
    },
    /// A step/sequence field is negative, fractional, or beyond 2^53
    /// (the largest integer a JSON number keeps exact) — no program
    /// counter would ever reach it, so the entry could never fire.
    StepOutOfRange {
        /// Which field was rejected (e.g. `"crash step"`).
        what: String,
        /// The offending numeric value as parsed.
        value: f64,
    },
    /// A degradation window `[from_step, until_step)` that contains no
    /// steps — the degradation would silently never apply.
    EmptyDegradationWindow {
        /// Lower edge endpoint.
        a: usize,
        /// Higher edge endpoint.
        b: usize,
        /// Window start (inclusive).
        from_step: u64,
        /// Window end (exclusive).
        until_step: u64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Malformed(msg) => f.write_str(msg),
            FaultPlanError::NodeOutOfRange { what, node, p } => write!(
                f,
                "fault plan references {what} node {node} outside the {p}-node machine"
            ),
            FaultPlanError::StepOutOfRange { what, value } => write!(
                f,
                "{what} must be a non-negative integer within 2^53 (got {value})"
            ),
            FaultPlanError::EmptyDegradationWindow {
                a,
                b,
                from_step,
                until_step,
            } => write!(
                f,
                "degradation window [{from_step}, {until_step}) on link {a} <-> {b} \
                 contains no steps and would never fire"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// How a scheduled corruption mangles the targeted payload word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorruptKind {
    /// XOR one bit (0–63) of the word's IEEE-754 encoding — the classic
    /// single-event-upset model.
    BitFlip {
        /// Bit index into the 64-bit encoding (63 is the sign bit).
        bit: u32,
    },
    /// Add a finite, non-zero delta to the word — a value-level
    /// perturbation whose magnitude the injector controls exactly.
    Perturb {
        /// The additive error.
        delta: f64,
    },
}

/// One scheduled silent-data-corruption event: which word of the
/// affected payload is mangled, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corruption {
    /// Word index into the payload, taken modulo the payload length
    /// (empty payloads are left untouched).
    pub word: usize,
    /// The mutation applied to that word.
    pub kind: CorruptKind,
}

impl Corruption {
    /// Applies the corruption in place. No-op on an empty payload.
    pub fn apply(&self, words: &mut [f64]) {
        if words.is_empty() {
            return;
        }
        let w = self.word % words.len();
        match self.kind {
            CorruptKind::BitFlip { bit } => {
                words[w] = f64::from_bits(words[w].to_bits() ^ (1u64 << (bit % 64)));
            }
            CorruptKind::Perturb { delta } => words[w] += delta,
        }
    }
}

/// One atomic fault: the only description of a fault in the workspace.
/// Builders, plan files, service requests, CLI specs and chaos campaigns
/// all produce these, and [`FaultEntry::check`] holds the rules every
/// one of them must meet. It is also the unit a delta-debugging shrinker
/// removes and re-adds while minimizing a failing plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEntry {
    /// A dead undirected edge (normalized `a < b` inside a plan).
    Dead {
        /// Lower endpoint.
        a: usize,
        /// Higher endpoint.
        b: usize,
    },
    /// A degraded undirected edge with its optional firing window.
    Degraded {
        /// Lower endpoint.
        a: usize,
        /// Higher endpoint.
        b: usize,
        /// The cost multipliers.
        quality: LinkQuality,
        /// `[from_step, until_step)` sender-step window, or `None` when
        /// the degradation is permanent.
        window: Option<(u64, u64)>,
    },
    /// A straggler node.
    Straggler {
        /// The slow node.
        node: usize,
        /// Its clock-rate multiplier (≥ 1).
        slowdown: f64,
    },
    /// One scheduled message drop.
    Drop {
        /// Sending node.
        from: usize,
        /// Destination node.
        to: usize,
        /// 0-based per-sender injection sequence number.
        seq: u64,
    },
    /// One scheduled silent corruption.
    Corrupt {
        /// Sending endpoint of the directed edge.
        from: usize,
        /// Receiving endpoint of the directed edge.
        to: usize,
        /// 0-based per-sender crossing number of the edge.
        seq: u64,
        /// What happens to the payload.
        corruption: Corruption,
    },
    /// One scheduled node crash.
    Crash {
        /// The doomed node.
        node: usize,
        /// 0-based communication-call index at which it dies.
        step: u64,
    },
}

/// The fault families in plan order. A plan holds at most one entry per
/// site: `(family, endpoints or node, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Dead,
    Degraded,
    Straggler,
    Drop,
    Corrupt,
    Crash,
}

type Site = (Family, usize, usize, u64);

/// Per family, in [`Family`] order: its JSON array key, its name in
/// [`FaultPlanError::NodeOutOfRange`], and its JSON entry decoder.
#[allow(clippy::type_complexity)]
const FAMILIES: [(&str, &str, fn(&Json) -> Result<FaultEntry, FaultPlanError>); 6] = [
    ("dead", "dead-link", |v| {
        let pair = v.as_arr().filter(|pair| pair.len() == 2);
        let pair = pair.ok_or_else(|| malformed("each dead entry must be an [a, b] pair"))?;
        Ok(FaultEntry::Dead {
            a: node(pair.first(), "dead node")?,
            b: node(pair.get(1), "dead node")?,
        })
    }),
    ("degraded", "degraded-link", |v| {
        let factor = |key: &str| {
            let need = || malformed(&format!("degraded entry needs {key}"));
            v.get(key).and_then(Json::as_f64).ok_or_else(need)
        };
        Ok(FaultEntry::Degraded {
            a: node(v.get("a"), "degraded a")?,
            b: node(v.get("b"), "degraded b")?,
            quality: LinkQuality {
                ts_factor: factor("ts_factor")?,
                tw_factor: factor("tw_factor")?,
            },
            window: match (v.get("from_step"), v.get("until_step")) {
                (None, None) => None,
                (Some(from), Some(until)) => Some((
                    index(Some(from), "degraded from_step")?,
                    index(Some(until), "degraded until_step")?,
                )),
                _ => {
                    let half = "degraded window needs both from_step and until_step";
                    return Err(malformed(half));
                }
            },
        })
    }),
    ("stragglers", "straggler", |v| {
        let slowdown = v.get("slowdown").and_then(Json::as_f64);
        Ok(FaultEntry::Straggler {
            node: node(v.get("node"), "straggler node")?,
            slowdown: slowdown.ok_or_else(|| malformed("straggler entry needs slowdown"))?,
        })
    }),
    ("drops", "drop-schedule", |v| {
        Ok(FaultEntry::Drop {
            from: node(v.get("from"), "drop from")?,
            to: node(v.get("to"), "drop to")?,
            seq: index(v.get("seq"), "drop seq")?,
        })
    }),
    ("corruptions", "corruption-schedule", |v| {
        Ok(FaultEntry::Corrupt {
            from: node(v.get("from"), "corruption from")?,
            to: node(v.get("to"), "corruption to")?,
            seq: index(v.get("seq"), "corruption seq")?,
            corruption: Corruption {
                word: node(v.get("word"), "corruption word")?,
                kind: match (v.get("bitflip"), v.get("perturb")) {
                    // Saturate rather than wrap: a huge bit must fail
                    // the bit rule, not alias a small one.
                    (Some(bit), None) => CorruptKind::BitFlip {
                        bit: u32::try_from(index(Some(bit), "bitflip bit")?).unwrap_or(u32::MAX),
                    },
                    (None, Some(delta)) => CorruptKind::Perturb {
                        delta: delta
                            .as_f64()
                            .ok_or_else(|| malformed("perturb delta must be a number"))?,
                    },
                    _ => {
                        let kind = "corruption entry needs exactly one of bitflip/perturb";
                        return Err(malformed(kind));
                    }
                },
            },
        })
    }),
    ("crashes", "crash-schedule", |v| {
        Ok(FaultEntry::Crash {
            node: node(v.get("node"), "crash node")?,
            step: index(v.get("step"), "crash step")?,
        })
    }),
];

fn malformed(msg: &str) -> FaultPlanError {
    FaultPlanError::Malformed(msg.to_string())
}

/// A JSON step/sequence field: a number that is not a valid index is a
/// typed out-of-range step; anything else is malformed input.
fn index(v: Option<&Json>, what: &str) -> Result<u64, FaultPlanError> {
    let integer = || malformed(&format!("{what} must be a non-negative integer"));
    let v = v.ok_or_else(integer)?;
    match (v.as_index(), v.as_f64()) {
        (Some(i), _) => Ok(i),
        (None, None) => Err(integer()),
        (None, Some(value)) => {
            let what = what.to_string();
            Err(FaultPlanError::StepOutOfRange { what, value })
        }
    }
}

fn node(v: Option<&Json>, what: &str) -> Result<usize, FaultPlanError> {
    Ok(index(v, what)? as usize)
}

impl FaultEntry {
    /// Every rule a fault must meet, in one place: dead, degraded and
    /// corrupted links join hypercube neighbors; degradation factors are
    /// finite and above zero; a degradation window holds a step; a
    /// straggler's slowdown is finite and at least 1; a perturbation is
    /// finite and non-zero; a flipped bit is one of the word's 64.
    pub fn check(&self) -> Result<(), FaultPlanError> {
        let rule = |ok: bool, why: &str| if ok { Ok(()) } else { Err(malformed(why)) };
        let link = |what: &str, a: usize, b: usize| {
            let why = format!("{what} {a} <-> {b} is not a hypercube edge");
            rule(hamming(a, b) == 1, &why)
        };
        let positive = |x: f64| x.is_finite() && x > 0.0;
        match *self {
            FaultEntry::Dead { a, b } => link("dead link", a, b),
            FaultEntry::Degraded {
                a,
                b,
                quality,
                window,
            } => {
                link("degraded link", a, b)?;
                let factors = positive(quality.ts_factor) && positive(quality.tw_factor);
                rule(factors, "degradation factors must be positive and finite")?;
                match window {
                    Some((from_step, until_step)) if until_step <= from_step => {
                        let (a, b) = edge(a, b);
                        Err(FaultPlanError::EmptyDegradationWindow {
                            a,
                            b,
                            from_step,
                            until_step,
                        })
                    }
                    _ => Ok(()),
                }
            }
            FaultEntry::Straggler { slowdown, .. } => rule(
                slowdown.is_finite() && slowdown >= 1.0,
                "straggler slowdown must be finite and >= 1",
            ),
            FaultEntry::Corrupt {
                from,
                to,
                corruption,
                ..
            } => {
                link("corrupted link", from, to)?;
                match corruption.kind {
                    CorruptKind::BitFlip { bit } => rule(bit <= 63, "bitflip bit must be 0..=63"),
                    CorruptKind::Perturb { delta } => rule(
                        delta.is_finite() && delta != 0.0,
                        "corruption delta must be finite and non-zero",
                    ),
                }
            }
            FaultEntry::Drop { .. } | FaultEntry::Crash { .. } => Ok(()),
        }
    }

    /// Where the entry strikes: a plan holds one entry per site, in site
    /// order.
    fn site(&self) -> Site {
        match *self {
            FaultEntry::Dead { a, b } => (Family::Dead, a, b, 0),
            FaultEntry::Degraded { a, b, .. } => (Family::Degraded, a, b, 0),
            FaultEntry::Straggler { node, .. } => (Family::Straggler, node, node, 0),
            FaultEntry::Drop { from, to, seq } => (Family::Drop, from, to, seq),
            FaultEntry::Corrupt { from, to, seq, .. } => (Family::Corrupt, from, to, seq),
            FaultEntry::Crash { node, .. } => (Family::Crash, node, node, 0),
        }
    }

    /// The entry's JSON object (a `[a, b]` pair for a dead link); see
    /// [`FaultPlan::from_json`] for the schema.
    fn to_json(self) -> Json {
        let fields: Vec<(&str, f64)> = match self {
            FaultEntry::Dead { a, b } => {
                return Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64)])
            }
            FaultEntry::Degraded {
                a,
                b,
                quality,
                window,
            } => {
                let q = quality;
                let mut fields = vec![("a", a as f64), ("b", b as f64)];
                fields.extend([("ts_factor", q.ts_factor), ("tw_factor", q.tw_factor)]);
                if let Some((from, until)) = window {
                    fields.extend([("from_step", from as f64), ("until_step", until as f64)]);
                }
                fields
            }
            FaultEntry::Straggler { node, slowdown } => {
                vec![("node", node as f64), ("slowdown", slowdown)]
            }
            FaultEntry::Drop { from, to, seq } => {
                let (from, to, seq) = (from as f64, to as f64, seq as f64);
                vec![("from", from), ("to", to), ("seq", seq)]
            }
            FaultEntry::Corrupt {
                from,
                to,
                seq,
                corruption,
            } => vec![
                ("from", from as f64),
                ("to", to as f64),
                ("seq", seq as f64),
                ("word", corruption.word as f64),
                match corruption.kind {
                    CorruptKind::BitFlip { bit } => ("bitflip", f64::from(bit)),
                    CorruptKind::Perturb { delta } => ("perturb", delta),
                },
            ],
            FaultEntry::Crash { node, step } => vec![("node", node as f64), ("step", step as f64)],
        };
        let fields = fields
            .into_iter()
            .map(|(k, x)| (k.to_string(), Json::Num(x)));
        Json::Obj(fields.collect())
    }
}

/// A deterministic fault-injection plan for one simulated run: the
/// `strict` flag plus at most one checked [`FaultEntry`] per site, in
/// one map ordered by site (family, then endpoints or node, then seq) —
/// so every per-message query is one lookup.
///
/// Plans are built with the `with_*` methods (or from entries, files and
/// requests) and handed to the machine through
/// [`crate::MachineOptions::faults`]. All faults are global knowledge:
/// every node sees the same plan, mirroring a system whose fault
/// detector has converged.
///
/// ```
/// use cubemm_simnet::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .with_dead_link(0, 1)
///     .with_degraded_link(2, 3, 2.0, 4.0)
///     .with_straggler(5, 3.0)
///     .with_drop(0, 2, 0); // drop the first message 0 sends toward 2
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Each entry under its [`FaultEntry::site`].
    entries: BTreeMap<Site, FaultEntry>,
    /// Bit `f` is set iff an entry of [`Family`] `f` is present, so a
    /// query for an absent family (most queries, on a small plan) needs
    /// no lookup.
    families: u8,
    /// When `true`, sends over dead links fail with
    /// [`crate::SendError::LinkDead`] instead of re-routing.
    strict: bool,
}

impl FaultPlan {
    /// An empty (healthy) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Checks `entry` and adds it, replacing any entry at the same site
    /// (a later fault on the same edge, node or sequence number wins).
    fn insert(&mut self, mut entry: FaultEntry) -> Result<(), FaultPlanError> {
        entry.check()?;
        if let FaultEntry::Dead { a, b } | FaultEntry::Degraded { a, b, .. } = &mut entry {
            (*a, *b) = edge(*a, *b);
        }
        let site = entry.site();
        self.families |= 1 << site.0 as u8;
        self.entries.insert(site, entry);
        Ok(())
    }

    fn find(&self, site: Site) -> Option<&FaultEntry> {
        let present = self.families & 1 << site.0 as u8 != 0;
        present.then(|| self.entries.get(&site)).flatten()
    }

    fn retain(mut self, keep: impl Fn(&Site) -> bool) -> Self {
        self.entries.retain(|site, _| keep(site));
        let families = self.entries.keys().fold(0, |m, site| m | 1 << site.0 as u8);
        self.families = families;
        self
    }

    /// The builders' [`FaultPlan::insert`]: a broken rule is a bug in
    /// the calling program, so it panics with the rule's text.
    fn with(mut self, entry: FaultEntry) -> Self {
        if let Err(e) = self.insert(entry) {
            panic!("{e}");
        }
        self
    }

    /// Kills the undirected hypercube edge `a <-> b`. Panics if `a` and
    /// `b` are not hypercube neighbors.
    pub fn with_dead_link(self, a: usize, b: usize) -> Self {
        self.with(FaultEntry::Dead { a, b })
    }

    /// Degrades the undirected edge `a <-> b` for the whole run:
    /// transfers crossing it pay `ts_factor · t_s + tw_factor · t_w · m`.
    /// Replaces any earlier degradation of the edge, window included.
    /// Panics on a non-edge or a factor that is not a positive number.
    pub fn with_degraded_link(self, a: usize, b: usize, ts_factor: f64, tw_factor: f64) -> Self {
        self.degraded(a, b, ts_factor, tw_factor, None)
    }

    /// Like [`FaultPlan::with_degraded_link`], but the degradation only
    /// applies while the *sender's* communication-call index lies in
    /// `[from_step, until_step)`; outside the window the link charges
    /// healthy costs. Windowed degradation lets a campaign place a
    /// transient slowdown in a specific phase of a schedule. Panics as
    /// [`FaultPlan::with_degraded_link`] does, or on an empty window
    /// (`until_step <= from_step`), which would silently never fire.
    pub fn with_degraded_link_window(
        self,
        a: usize,
        b: usize,
        ts_factor: f64,
        tw_factor: f64,
        from_step: u64,
        until_step: u64,
    ) -> Self {
        self.degraded(a, b, ts_factor, tw_factor, Some((from_step, until_step)))
    }

    fn degraded(self, a: usize, b: usize, ts: f64, tw: f64, window: Option<(u64, u64)>) -> Self {
        let quality = LinkQuality {
            ts_factor: ts,
            tw_factor: tw,
        };
        self.with(FaultEntry::Degraded {
            a,
            b,
            quality,
            window,
        })
    }

    /// Marks `node` as a straggler: every charge to its clock (sends,
    /// local work, retry backoff) is multiplied by `slowdown`. Panics
    /// unless `slowdown` is finite and ≥ 1.
    pub fn with_straggler(self, node: usize, slowdown: f64) -> Self {
        self.with(FaultEntry::Straggler { node, slowdown })
    }

    /// Schedules the `k`-th message (0-based, counted per sender in
    /// program order) injected by `from` toward destination `to` to be
    /// dropped in flight.
    pub fn with_drop(self, from: usize, to: usize, k: u64) -> Self {
        self.with(FaultEntry::Drop { from, to, seq: k })
    }

    /// Schedules silent corruption of the `k`-th payload (0-based,
    /// counted per originating sender in program order) crossing the
    /// *directed* edge `from -> to`. The payload is delivered on time —
    /// only its data is wrong. Panics if the endpoints are not hypercube
    /// neighbors, a delta is zero or non-finite, or a bit is above 63.
    pub fn with_corruption(self, from: usize, to: usize, k: u64, corruption: Corruption) -> Self {
        self.with(FaultEntry::Corrupt {
            from,
            to,
            seq: k,
            corruption,
        })
    }

    /// Schedules `node` to crash (unwind quietly, aborting the run with
    /// [`crate::RunError::NodeCrashed`]) as it begins its `step`-th
    /// communication call (0-based: `step = 0` dies before its first
    /// send or receive).
    pub fn with_crash(self, node: usize, step: u64) -> Self {
        self.with(FaultEntry::Crash { node, step })
    }

    /// Removes any scheduled crash for `node` — the recovery driver's
    /// "reboot" before a re-run.
    pub fn without_crash(self, node: usize) -> Self {
        self.retain(|&site| site != (Family::Crash, node, node, 0))
    }

    /// Removes every scheduled drop from `from` toward `to` — modelling a
    /// replaced lossy channel before a re-run.
    pub fn without_drops(self, from: usize, to: usize) -> Self {
        let drops = (Family::Drop, from, to, 0)..=(Family::Drop, from, to, u64::MAX);
        self.retain(|site| !drops.contains(site))
    }

    /// Forbids transparent re-routing: sends over dead links fail with
    /// [`crate::SendError::LinkDead`] instead of taking a detour.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Re-allows transparent re-routing (undoes [`FaultPlan::strict`]).
    pub fn lenient(mut self) -> Self {
        self.strict = false;
        self
    }

    /// Whether the plan injects no faults at all (`strict` alone does not
    /// count: with no dead links it changes nothing).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the plan schedules any data corruption at all — the
    /// engine's cheap gate before it starts counting edge crossings.
    pub fn has_corruptions(&self) -> bool {
        self.families & 1 << Family::Corrupt as u8 != 0
    }

    /// Whether re-routing around dead links is forbidden.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Whether the undirected edge `a <-> b` is dead.
    pub fn is_dead(&self, a: usize, b: usize) -> bool {
        let (a, b) = edge(a, b);
        self.find((Family::Dead, a, b, 0)).is_some()
    }

    /// The quality of the undirected edge `a <-> b` as observed by the
    /// sender's `step`-th communication call: honors degradation
    /// windows, so a windowed edge is healthy outside `[from, until)`.
    pub fn link_quality_at(&self, a: usize, b: usize, step: u64) -> LinkQuality {
        let (a, b) = edge(a, b);
        match self.find((Family::Degraded, a, b, 0)) {
            Some(&FaultEntry::Degraded {
                quality, window, ..
            }) if window.is_none_or(|(from, until)| (from..until).contains(&step)) => quality,
            _ => LinkQuality::HEALTHY,
        }
    }

    /// The clock-rate multiplier of `node` (1.0 when healthy).
    pub fn slowdown(&self, node: usize) -> f64 {
        match self.find((Family::Straggler, node, node, 0)) {
            Some(&FaultEntry::Straggler { slowdown, .. }) => slowdown,
            _ => 1.0,
        }
    }

    /// Whether the `seq`-th injection from `from` toward `to` is dropped.
    pub fn drops_nth(&self, from: usize, to: usize, seq: u64) -> bool {
        self.find((Family::Drop, from, to, seq)).is_some()
    }

    /// The corruption scheduled for the `seq`-th crossing of the directed
    /// edge `from -> to`, if any.
    pub fn corrupts_nth(&self, from: usize, to: usize, seq: u64) -> Option<Corruption> {
        match self.find((Family::Corrupt, from, to, seq)) {
            Some(&FaultEntry::Corrupt { corruption, .. }) => Some(corruption),
            _ => None,
        }
    }

    /// The communication-call index at which `node` is scheduled to
    /// crash, if any.
    pub fn crash_step(&self, node: usize) -> Option<u64> {
        match self.find((Family::Crash, node, node, 0)) {
            Some(&FaultEntry::Crash { step, .. }) => Some(step),
            _ => None,
        }
    }

    /// Every atomic fault the plan schedules, in site order (family,
    /// then endpoints or node, then seq). `strict` is a plan-wide mode
    /// rather than an entry; carry it via [`FaultPlan::is_strict`]. The
    /// inverse is [`FaultPlan::from_entries`].
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &FaultEntry> + '_ {
        self.entries.values()
    }

    /// Builds a plan from entries, in order (a later entry at the same
    /// site wins), with the given `strict` flag. Feeding a plan's
    /// [`FaultPlan::entries`] back reproduces it exactly; an entry that
    /// fails [`FaultEntry::check`] is returned as the error.
    pub fn from_entries(entries: &[FaultEntry], strict: bool) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan {
            strict,
            ..FaultPlan::default()
        };
        for &entry in entries {
            plan.insert(entry)?;
        }
        Ok(plan)
    }

    /// Checks that every referenced node fits a `p`-node machine.
    pub fn validate(&self, p: usize) -> Result<(), FaultPlanError> {
        for &(family, a, b, _) in self.entries.keys() {
            if let Some(node) = [a, b].into_iter().find(|&n| n >= p) {
                let what = FAMILIES[family as usize].1;
                return Err(FaultPlanError::NodeOutOfRange { what, node, p });
            }
        }
        Ok(())
    }

    /// Serializes the plan to its JSON encoding (see
    /// [`FaultPlan::from_json`] for the schema). Every entry the plan
    /// holds round-trips exactly.
    pub fn to_json(&self) -> String {
        let mut arrays: [Vec<Json>; 6] = Default::default();
        for (&(family, ..), &entry) in &self.entries {
            arrays[family as usize].push(entry.to_json());
        }
        let families = FAMILIES.iter().zip(arrays);
        let fields = families.map(|((key, ..), items)| (key.to_string(), Json::Arr(items)));
        let strict = ("strict".to_string(), Json::Bool(self.strict));
        Json::Obj(std::iter::once(strict).chain(fields).collect()).encode()
    }

    /// Parses a plan from the JSON produced by [`FaultPlan::to_json`].
    ///
    /// The schema is one object with optional array fields `dead`
    /// (`[a, b]` pairs), `degraded` (`{a, b, ts_factor, tw_factor}` plus
    /// an optional `{from_step, until_step}` firing window), `stragglers`
    /// (`{node, slowdown}`), `drops` (`{from, to, seq}`), `corruptions`
    /// (`{from, to, seq, word}` plus either `bitflip: <bit>` or
    /// `perturb: <delta>`), `crashes` (`{node, step}`), and an optional
    /// boolean `strict`. Unlike the panicking builders, malformed input
    /// comes back as a typed [`FaultPlanError`] — plan files are user
    /// input — and entries that could silently never fire (negative or
    /// beyond-2^53 steps, empty degradation windows) are rejected rather
    /// than carried as no-ops.
    pub fn from_json(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let doc = crate::json::parse(text).map_err(FaultPlanError::Malformed)?;
        FaultPlan::from_json_value(&doc)
    }

    /// [`FaultPlan::from_json`] on an already parsed document, such as
    /// the `faults` field of a service request.
    pub fn from_json_value(doc: &Json) -> Result<FaultPlan, FaultPlanError> {
        if !matches!(doc, Json::Obj(_)) {
            return Err(malformed("fault plan must be a JSON object"));
        }
        let mut plan = FaultPlan::new();
        if let Some(strict) = doc.get("strict") {
            plan.strict = strict
                .as_bool()
                .ok_or_else(|| malformed("strict must be a boolean"))?;
        }
        for (key, _, decode) in FAMILIES {
            for item in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
                plan.insert(decode(item)?)?;
            }
        }
        Ok(plan)
    }

    /// A live path from `from` to `to` as the sequence of nodes *after*
    /// `from` (so the last element is `to`), or `None` if every path is
    /// severed.
    ///
    /// Deterministic: first the `h` rotated dimension-ordered corrections
    /// of the classic `log p` edge-disjoint Hamming paths are tried (the
    /// zero-rotation candidate is exactly the healthy dimension-ordered
    /// route, so an empty plan routes as the paper prices it); if every
    /// rotation crosses a dead edge, a breadth-first search in fixed
    /// dimension order finds a shortest live detour.
    pub fn route(
        &self,
        links: LinkTopology,
        dim: u32,
        from: usize,
        to: usize,
    ) -> Option<Vec<usize>> {
        let usable = |a: usize, b: usize| links.allows(a, b) && !self.is_dead(a, b);
        for rot in 0..hamming(from, to) {
            let mut cur = from;
            let path: Option<Vec<usize>> = dim_walk(from, to, rot)
                .map(|next| {
                    let hop = usable(cur, next);
                    cur = next;
                    hop.then_some(next)
                })
                .collect();
            if path.is_some() {
                return path;
            }
        }
        // All minimal rotations blocked: breadth-first search for a
        // shortest live detour (deterministic by dimension order).
        let p = 1usize << dim;
        let mut prev = vec![usize::MAX; p];
        let mut queue = VecDeque::from([from]);
        prev[from] = from;
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                let mut path = Vec::new();
                let mut n = to;
                while n != from {
                    path.push(n);
                    n = prev[n];
                }
                path.reverse();
                return Some(path);
            }
            for d in 0..dim {
                let next = cur ^ (1usize << d);
                if prev[next] == usize::MAX && usable(cur, next) {
                    prev[next] = cur;
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_healthy() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.is_dead(0, 1));
        assert_eq!(plan.link_quality_at(0, 1, 0), LinkQuality::HEALTHY);
        assert_eq!(plan.slowdown(3), 1.0);
        assert!(!plan.drops_nth(0, 1, 0));
    }

    #[test]
    fn edge_queries_are_undirected() {
        let plan = FaultPlan::new()
            .with_dead_link(2, 3)
            .with_degraded_link(4, 5, 2.0, 3.0);
        assert!(plan.is_dead(2, 3) && plan.is_dead(3, 2));
        assert_eq!(plan.link_quality_at(5, 4, 0).tw_factor, 3.0);
    }

    #[test]
    #[should_panic(expected = "not a hypercube edge")]
    fn non_edge_rejected() {
        let _ = FaultPlan::new().with_dead_link(0, 3);
    }

    #[test]
    fn validate_checks_node_bounds() {
        assert!(FaultPlan::new().with_straggler(7, 2.0).validate(8).is_ok());
        assert!(FaultPlan::new().with_straggler(8, 2.0).validate(8).is_err());
        assert!(FaultPlan::new().with_dead_link(8, 9).validate(8).is_err());
    }

    #[test]
    fn healthy_route_is_dimension_ordered() {
        let plan = FaultPlan::new();
        let path = plan.route(LinkTopology::Hypercube, 3, 0, 0b101).unwrap();
        assert_eq!(path, vec![0b001, 0b101]);
    }

    #[test]
    fn dead_edge_forces_rotated_path() {
        // 0 -> 3 normally goes 0,1,3; kill 0<->1 and the rotation
        // 0,2,3 must be found, still 2 hops.
        let plan = FaultPlan::new().with_dead_link(0, 1);
        let path = plan.route(LinkTopology::Hypercube, 2, 0, 3).unwrap();
        assert_eq!(path, vec![2, 3]);
    }

    #[test]
    fn neighbor_detour_costs_three_hops() {
        // Adjacent nodes have no common neighbor in a hypercube: the
        // shortest detour around a dead edge is three hops.
        let plan = FaultPlan::new().with_dead_link(0, 1);
        let path = plan.route(LinkTopology::Hypercube, 3, 0, 1).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(*path.last().unwrap(), 1);
        // Every hop is a live hypercube edge.
        let mut cur = 0usize;
        for &n in &path {
            assert_eq!(hamming(cur, n), 1);
            assert!(!plan.is_dead(cur, n));
            cur = n;
        }
    }

    #[test]
    fn cut_off_node_is_unroutable() {
        // Kill all three links of node 0 in an 8-node cube.
        let plan = FaultPlan::new()
            .with_dead_link(0, 1)
            .with_dead_link(0, 2)
            .with_dead_link(0, 4);
        assert_eq!(plan.route(LinkTopology::Hypercube, 3, 0, 7), None);
        assert_eq!(plan.route(LinkTopology::Hypercube, 3, 7, 0), None);
        // Other pairs still route.
        assert!(plan.route(LinkTopology::Hypercube, 3, 1, 7).is_some());
    }

    #[test]
    fn drops_are_per_sequence_number() {
        let plan = FaultPlan::new().with_drop(1, 2, 0).with_drop(1, 2, 2);
        assert!(plan.drops_nth(1, 2, 0));
        assert!(!plan.drops_nth(1, 2, 1));
        assert!(plan.drops_nth(1, 2, 2));
        assert!(!plan.drops_nth(2, 1, 0), "drops are directed");
    }

    #[test]
    fn corruptions_are_directed_and_per_sequence_number() {
        let hit = Corruption {
            word: 3,
            kind: CorruptKind::Perturb { delta: 64.0 },
        };
        let plan = FaultPlan::new().with_corruption(0, 1, 2, hit);
        assert!(!plan.is_empty());
        assert!(plan.has_corruptions());
        assert_eq!(plan.corrupts_nth(0, 1, 2), Some(hit));
        assert_eq!(plan.corrupts_nth(0, 1, 1), None);
        assert_eq!(plan.corrupts_nth(1, 0, 2), None, "corruptions are directed");
    }

    #[test]
    fn corruption_apply_flips_and_perturbs() {
        let mut words = [1.0, 2.0, 3.0];
        Corruption {
            word: 1,
            kind: CorruptKind::Perturb { delta: 0.5 },
        }
        .apply(&mut words);
        assert_eq!(words, [1.0, 2.5, 3.0]);
        Corruption {
            word: 5, // 5 % 3 == 2
            kind: CorruptKind::BitFlip { bit: 63 },
        }
        .apply(&mut words);
        assert_eq!(words, [1.0, 2.5, -3.0]);
        // Empty payloads are left alone.
        Corruption {
            word: 0,
            kind: CorruptKind::BitFlip { bit: 0 },
        }
        .apply(&mut []);
    }

    #[test]
    fn crash_schedule_round_trips_through_reboot() {
        let plan = FaultPlan::new().with_crash(3, 5);
        assert!(!plan.is_empty());
        assert_eq!(plan.crash_step(3), Some(5));
        assert_eq!(plan.crash_step(2), None);
        let rebooted = plan.without_crash(3);
        assert_eq!(rebooted.crash_step(3), None);
        assert!(rebooted.is_empty());
    }

    #[test]
    fn validate_covers_corruptions_and_crashes() {
        let plan = FaultPlan::new().with_corruption(
            8,
            9,
            0,
            Corruption {
                word: 0,
                kind: CorruptKind::Perturb { delta: 1.0 },
            },
        );
        assert!(plan.validate(8).is_err());
        assert!(FaultPlan::new().with_crash(8, 0).validate(8).is_err());
        assert!(FaultPlan::new().with_crash(7, 0).validate(8).is_ok());
    }

    #[test]
    fn json_round_trip_preserves_every_entry() {
        let plan = FaultPlan::new()
            .with_dead_link(0, 1)
            .with_degraded_link(2, 3, 2.0, 4.5)
            .with_straggler(5, 3.0)
            .with_drop(0, 2, 1)
            .with_corruption(
                4,
                5,
                2,
                Corruption {
                    word: 7,
                    kind: CorruptKind::BitFlip { bit: 63 },
                },
            )
            .with_corruption(
                5,
                4,
                0,
                Corruption {
                    word: 0,
                    kind: CorruptKind::Perturb { delta: -64.0 },
                },
            )
            .with_crash(6, 9)
            .strict();
        let text = plan.to_json();
        let parsed = FaultPlan::from_json(&text).unwrap();
        assert_eq!(parsed, plan);
        // And the re-encoding is stable.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn from_json_rejects_malformed_plans() {
        assert!(FaultPlan::from_json("[]").is_err(), "not an object");
        assert!(
            FaultPlan::from_json(r#"{"dead": [[0, 3]]}"#).is_err(),
            "non-edge"
        );
        assert!(
            FaultPlan::from_json(r#"{"stragglers": [{"node": 1, "slowdown": 0.5}]}"#).is_err(),
            "slowdown below 1"
        );
        assert!(
            FaultPlan::from_json(r#"{"corruptions": [{"from": 0, "to": 1, "seq": 0, "word": 0}]}"#)
                .is_err(),
            "missing bitflip/perturb"
        );
        assert!(
            FaultPlan::from_json(
                r#"{"corruptions": [{"from": 0, "to": 1, "seq": 0, "word": 0,
                    "bitflip": 1, "perturb": 2.0}]}"#
            )
            .is_err(),
            "both bitflip and perturb"
        );
        assert!(
            FaultPlan::from_json(r#"{"crashes": [{"node": -1, "step": 0}]}"#).is_err(),
            "negative node"
        );
        // An empty object is a valid empty plan.
        assert!(FaultPlan::from_json("{}").unwrap().is_empty());
    }

    #[test]
    fn validate_reports_the_offending_node_typed() {
        let err = FaultPlan::new()
            .with_straggler(8, 2.0)
            .validate(8)
            .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::NodeOutOfRange {
                what: "straggler",
                node: 8,
                p: 8
            }
        );
        assert!(err.to_string().contains("outside the 8-node machine"));
    }

    #[test]
    fn out_of_range_steps_are_typed_rejections() {
        let err = FaultPlan::from_json(r#"{"crashes": [{"node": 1, "step": -3}]}"#).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::StepOutOfRange {
                what: "crash step".to_string(),
                value: -3.0
            }
        );
        // Beyond 2^53 a JSON number can no longer represent the integer
        // exactly: no counter would ever equal it.
        let big = format!(r#"{{"drops": [{{"from": 0, "to": 1, "seq": {}}}]}}"#, 1e16);
        assert!(matches!(
            FaultPlan::from_json(&big).unwrap_err(),
            FaultPlanError::StepOutOfRange { .. }
        ));
        // Fractional steps are equally unreachable.
        assert!(matches!(
            FaultPlan::from_json(r#"{"crashes": [{"node": 1, "step": 1.5}]}"#).unwrap_err(),
            FaultPlanError::StepOutOfRange { .. }
        ));
        // A non-number stays a malformed-input error.
        assert!(matches!(
            FaultPlan::from_json(r#"{"crashes": [{"node": 1, "step": "soon"}]}"#).unwrap_err(),
            FaultPlanError::Malformed(_)
        ));
    }

    #[test]
    fn empty_degradation_windows_are_rejected_typed() {
        let err = FaultPlan::from_json(
            r#"{"degraded": [{"a": 0, "b": 1, "ts_factor": 2.0, "tw_factor": 2.0,
                "from_step": 5, "until_step": 5}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::EmptyDegradationWindow {
                a: 0,
                b: 1,
                from_step: 5,
                until_step: 5
            }
        );
        assert!(err.to_string().contains("would never fire"));
        // Half a window is malformed, not silently permanent.
        assert!(matches!(
            FaultPlan::from_json(
                r#"{"degraded": [{"a": 0, "b": 1, "ts_factor": 2.0, "tw_factor": 2.0,
                    "from_step": 5}]}"#,
            )
            .unwrap_err(),
            FaultPlanError::Malformed(_)
        ));
    }

    #[test]
    #[should_panic(expected = "contains no steps")]
    fn window_builder_rejects_empty_windows() {
        let _ = FaultPlan::new().with_degraded_link_window(0, 1, 2.0, 2.0, 3, 3);
    }

    #[test]
    fn degradation_windows_gate_link_quality_and_round_trip() {
        let plan = FaultPlan::new().with_degraded_link_window(0, 1, 2.0, 4.0, 3, 7);
        assert!(matches!(
            plan.entries().collect::<Vec<_>>()[..],
            [FaultEntry::Degraded {
                window: Some((3, 7)),
                ..
            }]
        ));
        // Inside the window the multipliers apply; outside the link is
        // healthy.
        assert_eq!(plan.link_quality_at(0, 1, 2), LinkQuality::HEALTHY);
        assert_eq!(plan.link_quality_at(0, 1, 3).tw_factor, 4.0);
        assert_eq!(plan.link_quality_at(1, 0, 6).ts_factor, 2.0);
        assert_eq!(plan.link_quality_at(0, 1, 7), LinkQuality::HEALTHY);
        // Permanent degradation is unaffected by the step.
        let always = FaultPlan::new().with_degraded_link(2, 3, 3.0, 3.0);
        assert_eq!(always.link_quality_at(2, 3, 999).ts_factor, 3.0);
        // And the window survives the JSON round trip.
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), plan.to_json());
    }

    #[test]
    fn entries_round_trip_through_from_entries() {
        let plan = FaultPlan::new()
            .with_dead_link(0, 1)
            .with_degraded_link_window(2, 3, 2.0, 4.5, 1, 9)
            .with_straggler(5, 3.0)
            .with_drop(0, 2, 1)
            .with_drop(0, 2, 4)
            .with_corruption(
                4,
                5,
                2,
                Corruption {
                    word: 7,
                    kind: CorruptKind::BitFlip { bit: 63 },
                },
            )
            .with_crash(6, 9)
            .strict();
        let entries: Vec<FaultEntry> = plan.entries().copied().collect();
        assert_eq!(entries.len(), 7);
        let back = FaultPlan::from_entries(&entries, plan.is_strict()).unwrap();
        assert_eq!(back, plan);
        // A subset drops exactly the omitted faults.
        let keep: Vec<FaultEntry> = entries
            .iter()
            .filter(|e| matches!(e, FaultEntry::Crash { .. }))
            .cloned()
            .collect();
        let reduced = FaultPlan::from_entries(&keep, plan.is_strict()).unwrap();
        assert_eq!(reduced.entries().len(), 1);
        assert_eq!(reduced.crash_step(6), Some(9));
        assert!(reduced.is_strict());
    }

    #[test]
    fn a_permanent_degradation_replaces_an_earlier_window() {
        // Builders: the later, window-less degradation of the same edge
        // must apply at every step, not only inside the old window.
        let plan = FaultPlan::new()
            .with_degraded_link_window(0, 1, 2.0, 2.0, 3, 5)
            .with_degraded_link(1, 0, 4.0, 4.0);
        for step in [0, 3, 9] {
            assert_eq!(plan.link_quality_at(0, 1, step).ts_factor, 4.0, "{step}");
        }
        // JSON: a window-less entry after a windowed one on that edge.
        let text = r#"{"degraded": [
            {"a": 0, "b": 1, "ts_factor": 2, "tw_factor": 2, "from_step": 3, "until_step": 5},
            {"a": 1, "b": 0, "ts_factor": 4, "tw_factor": 4}]}"#;
        let parsed = FaultPlan::from_json(text).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.link_quality_at(0, 1, 9).tw_factor, 4.0);
    }

    #[test]
    fn every_surface_applies_the_same_rules() {
        let corrupt = |kind| FaultEntry::Corrupt {
            from: 0,
            to: 1,
            seq: 0,
            corruption: Corruption { word: 1, kind },
        };
        let bad = [
            (
                FaultEntry::Dead { a: 0, b: 3 },
                r#"{"dead": [[0, 3]]}"#,
                "dead link 0 <-> 3 is not a hypercube edge",
            ),
            (
                corrupt(CorruptKind::BitFlip { bit: 64 }),
                r#"{"corruptions": [{"from": 0, "to": 1, "seq": 0, "word": 1, "bitflip": 64}]}"#,
                "bitflip bit must be 0..=63",
            ),
            (
                corrupt(CorruptKind::Perturb { delta: 0.0 }),
                r#"{"corruptions": [{"from": 0, "to": 1, "seq": 0, "word": 1, "perturb": 0}]}"#,
                "corruption delta must be finite and non-zero",
            ),
        ];
        for (entry, json, why) in bad {
            assert_eq!(entry.check().unwrap_err().to_string(), why);
            let from_entries = FaultPlan::from_entries(&[entry], false);
            assert_eq!(from_entries.unwrap_err().to_string(), why);
            assert_eq!(FaultPlan::from_json(json).unwrap_err().to_string(), why);
        }
        // A bit beyond u32 must not wrap onto a valid one (2^32 + 1 -> 1).
        let huge = r#"{"corruptions": [{"from": 0, "to": 1, "seq": 0, "word": 1,
            "bitflip": 4294967297}]}"#;
        assert_eq!(
            FaultPlan::from_json(huge).unwrap_err().to_string(),
            "bitflip bit must be 0..=63"
        );
    }

    #[test]
    #[should_panic(expected = "bitflip bit must be 0..=63")]
    fn corruption_builder_rejects_bits_past_the_sign() {
        let flip = Corruption {
            word: 0,
            kind: CorruptKind::BitFlip { bit: 64 },
        };
        let _ = FaultPlan::new().with_corruption(0, 1, 0, flip);
    }
}
