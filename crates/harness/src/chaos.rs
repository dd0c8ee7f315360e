//! Deterministic, coverage-guided chaos campaigns over the algorithm
//! registry.
//!
//! A campaign repeatedly multiplies the same integer matrices under
//! randomized [`FaultPlan`]s, runs every plan through the ABFT layer
//! and [`multiply_with_recovery_tol`]'s quarantine-and-rerun loop, and
//! checks a fixed set of invariant oracles on every outcome:
//!
//! 1. **Bitwise product** — a trustworthy outcome must match the host
//!    reference multiply bit for bit (the campaign's matrices hold
//!    small integers, so f64 arithmetic is exact).
//! 2. **Report sanity** — attempt counts, the capped exponential
//!    backoff schedule, and the mutations-per-retry accounting of the
//!    [`RecoveryReport`] must be internally consistent.
//! 3. **Typed outcomes** — every failure must be one the scheduled
//!    faults explain (a deadlock needs a scheduled drop, an unroutable
//!    destination needs severed links); node panics, shape errors, or
//!    config rejections on valid input are bugs.
//! 4. **Virtual-time budget** — the final attempt must finish within a
//!    generous multiple of the healthy run's virtual time, so a
//!    schedule that spins forever (in virtual time) is caught. Host
//!    wall-clock hangs cannot happen at all: the simulator detects
//!    deadlock exactly instead of blocking.
//! 5. **Exit-code contract** — every outcome must map onto the CLI's
//!    documented `{0, 2, 3}` exit codes.
//!
//! Everything is reproducible from one seed: the campaign's PRNG is an
//! in-tree splitmix64, plans are placed on injection sites harvested
//! from a traced healthy run (so scheduled faults actually fire), and
//! the simulator itself is deterministic. Two campaigns with the same
//! seed render byte-identical reports.
//!
//! Generation is *coverage-guided*: the campaign tracks which
//! [`Coverage`] cells — fault family × schedule phase — have been
//! observed firing (via [`cubemm_simnet::FiredFault`] records, recovery
//! actions, and typed-failure evidence) and steers each new plan toward
//! cells not yet exercised.
//!
//! When an oracle fails, [`shrink_plan`] delta-debugs the offending
//! plan down to a locally minimal set of fault entries that still
//! reproduces the violation; the shrunk plan serializes to the same
//! JSON the CLI's `--fault-plan` flag accepts, making every campaign
//! failure a one-command repro.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use cubemm_core::abft::{multiply_abft_with_tol, padded_order, AbftOutcome, AbftResult};
use cubemm_core::{AlgoError, Algorithm, MachineConfig};
use cubemm_dense::{gemm, Matrix};
use cubemm_simnet::{
    CorruptKind, Corruption, FaultEntry, FaultPlan, FiredKind, RunError, SendError, TraceKind,
};
use cubemm_topology::bits::{dim_walk, hamming};

use crate::recovery::{
    multiply_with_recovery_tol, RecoveryAction, RecoveryError, RecoveryPolicy, RecoveryReport,
};

/// Verification tolerance used by every campaign trial. The campaign's
/// matrices hold small integers, so any nonzero residual is damage;
/// the epsilon only absorbs nothing-at-all.
pub const CHAOS_TOL: f64 = 1e-9;

/// Machine sizes a campaign probes, smallest first (smaller machines
/// make faster trials; every registry algorithm accepts at least one).
const P_MENU: [usize; 4] = [4, 8, 16, 64];

// ---------------------------------------------------------------------------
// Seeded PRNG
// ---------------------------------------------------------------------------

/// One step of splitmix64: a tiny, well-mixed generator that keeps the
/// campaign free of external dependencies while staying reproducible
/// across platforms (pure wrapping integer arithmetic).
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The campaign's deterministic random stream (splitmix64).
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream reproducible from `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`0` when `n == 0`). The modulo bias
    /// at 64 bits is far below anything a fault campaign can observe.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

// ---------------------------------------------------------------------------
// Fault-space coverage
// ---------------------------------------------------------------------------

/// The fault families a campaign schedules — the rows of the coverage
/// grid. Step-keyed families are crossed with a [`SchedulePhase`];
/// whole-run families (a permanently dead link, a strict plan, a
/// straggler's clock) occupy a single cell each because they have no
/// meaningful placement within the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// A dead link under lenient routing (detours, extra hops).
    DeadLink,
    /// A dead link under a strict plan (the send fails typed; recovery
    /// must relax strictness).
    StrictDeadLink,
    /// A degraded link firing only inside a schedule window.
    DegradedLink,
    /// A straggler node (whole-run clock multiplier).
    Straggler,
    /// One scheduled message drop.
    Drop,
    /// A bit-flip corruption of one payload word in flight.
    CorruptFlip,
    /// An additive perturbation of one payload word in flight.
    CorruptPerturb,
    /// A scheduled node crash.
    Crash,
}

impl Family {
    /// Every family, in coverage-grid order.
    pub const ALL: [Family; 8] = [
        Family::DeadLink,
        Family::StrictDeadLink,
        Family::DegradedLink,
        Family::Straggler,
        Family::Drop,
        Family::CorruptFlip,
        Family::CorruptPerturb,
        Family::Crash,
    ];

    /// Whether the family is keyed to a schedule step (and therefore
    /// crossed with all three phases in the coverage grid).
    pub fn stepped(self) -> bool {
        matches!(
            self,
            Family::DegradedLink
                | Family::Drop
                | Family::CorruptFlip
                | Family::CorruptPerturb
                | Family::Crash
        )
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::DeadLink => "dead-link",
            Family::StrictDeadLink => "strict-dead-link",
            Family::DegradedLink => "degraded-window",
            Family::Straggler => "straggler",
            Family::Drop => "drop",
            Family::CorruptFlip => "corrupt-flip",
            Family::CorruptPerturb => "corrupt-perturb",
            Family::Crash => "crash",
        }
    }
}

/// Thirds of a node schedule, used to place step-keyed faults early,
/// mid, or late relative to the shortest per-node schedule of the
/// healthy probe run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchedulePhase {
    /// The first third of the schedule.
    Early,
    /// The middle third.
    Mid,
    /// The final third.
    Late,
}

impl SchedulePhase {
    /// Every phase, in order.
    pub const ALL: [SchedulePhase; 3] = [
        SchedulePhase::Early,
        SchedulePhase::Mid,
        SchedulePhase::Late,
    ];

    /// Which phase `step` falls into for a schedule of `rounds`
    /// communication calls (steps past the end clamp to `Late`).
    pub fn of(step: u64, rounds: u64) -> SchedulePhase {
        if rounds == 0 {
            return SchedulePhase::Early;
        }
        match (step.saturating_mul(3) / rounds).min(2) {
            0 => SchedulePhase::Early,
            1 => SchedulePhase::Mid,
            _ => SchedulePhase::Late,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulePhase::Early => "early",
            SchedulePhase::Mid => "mid",
            SchedulePhase::Late => "late",
        }
    }
}

/// One coverage cell: a fault family and (for step-keyed families) the
/// schedule phase it was placed in. Whole-run families canonicalize to
/// [`SchedulePhase::Early`].
pub type Cell = (Family, SchedulePhase);

/// Which cells of the fault space a campaign has *observed firing* —
/// a scheduled entry that never fires earns nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    covered: BTreeSet<Cell>,
}

impl Coverage {
    /// An empty grid.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Every cell of the grid: stepped families × 3 phases, whole-run
    /// families × 1 — eighteen cells total.
    pub fn all_cells() -> Vec<Cell> {
        let mut out = Vec::new();
        for family in Family::ALL {
            if family.stepped() {
                for phase in SchedulePhase::ALL {
                    out.push((family, phase));
                }
            } else {
                out.push((family, SchedulePhase::Early));
            }
        }
        out
    }

    /// Total cell count (18).
    pub fn total() -> usize {
        Coverage::all_cells().len()
    }

    /// Records a cell as exercised.
    pub fn mark(&mut self, cell: Cell) {
        self.covered.insert(cell);
    }

    /// Cells observed firing so far.
    pub fn covered(&self) -> usize {
        self.covered.len()
    }

    /// Coverage as a percentage of the grid.
    pub fn percent(&self) -> f64 {
        100.0 * self.covered() as f64 / Coverage::total() as f64
    }

    /// Grid cells not yet observed firing, in grid order.
    pub fn uncovered(&self) -> Vec<Cell> {
        Coverage::all_cells()
            .into_iter()
            .filter(|c| !self.covered.contains(c))
            .collect()
    }

    /// Folds another grid into this one (the `chaos all` aggregate).
    pub fn merge(&mut self, other: &Coverage) {
        for &cell in &other.covered {
            self.covered.insert(cell);
        }
    }

    /// `"17/18 fault-space cells (94.4%)"`.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} fault-space cells ({:.1}%)",
            self.covered(),
            Coverage::total(),
            self.percent()
        )
    }
}

// ---------------------------------------------------------------------------
// Healthy probe: where can faults actually land?
// ---------------------------------------------------------------------------

/// One message-injection site harvested from the healthy trace: the
/// `seq`-th injection `from` makes toward destination `to`, issued at
/// the sender's communication-call index `step`.
#[derive(Debug, Clone, Copy)]
struct DropSite {
    from: usize,
    to: usize,
    seq: u64,
    step: u64,
}

/// One directed-edge crossing site: the `seq`-th time the originating
/// sender's traffic crosses the hypercube edge `u -> v`, at the
/// sender's call index `step`. Valid corruption and degradation
/// placements by construction.
#[derive(Debug, Clone, Copy)]
struct EdgeSite {
    u: usize,
    v: usize,
    seq: u64,
    step: u64,
}

/// What a traced healthy run of one `(algo, n, p)` point reveals about
/// the fault space: every place a scheduled fault is guaranteed to
/// fire, plus the baselines the oracles compare against.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The algorithm probed.
    pub algo: Algorithm,
    /// Logical matrix order of the campaign's multiplies.
    pub n: usize,
    /// Machine size chosen from [`P_MENU`].
    pub p: usize,
    /// Longest per-node schedule length — the phase denominator (a
    /// zero-rotation node may issue far fewer calls than its busiest
    /// peer, so per-node placement consults [`Probe::node_rounds`]).
    pub rounds: u64,
    /// Communication calls each node issues on the healthy run.
    pub node_rounds: Vec<u64>,
    /// Healthy virtual time, the budget oracle's baseline.
    pub elapsed: f64,
    drop_sites: Vec<DropSite>,
    edge_sites: Vec<EdgeSite>,
    /// Undirected hypercube edges that carry traffic.
    edges: Vec<(usize, usize)>,
}

/// Deterministic small-integer test matrices (exact in f64, so the
/// bitwise oracle is meaningful).
pub fn ints(n: usize, salt: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3 + salt) % 5) as f64 - 2.0)
}

/// Probes `algo` at order `n`: picks the smallest machine from
/// [`P_MENU`] whose ABFT padding stays reasonable *and* whose schedule
/// is deep enough to distinguish early/mid/late placement (tiny grids
/// can finish in two communication calls), runs one traced healthy
/// protected multiply, and harvests every injection site.
pub fn probe(algo: Algorithm, n: usize) -> Result<Probe, String> {
    const MIN_SCHEDULE: u64 = 6;
    let mut shallow = None;
    for &p in &P_MENU {
        match padded_order(algo, n, p) {
            Ok(total) if total <= 4 * n => {}
            _ => continue,
        }
        let Ok(probe) = probe_at(algo, n, p) else {
            continue;
        };
        if probe.rounds >= MIN_SCHEDULE {
            return Ok(probe);
        }
        if shallow.is_none() {
            shallow = Some(probe);
        }
    }
    shallow.ok_or_else(|| {
        format!(
            "{}: no machine size in {P_MENU:?} accepts order {n} with reasonable padding",
            algo.name()
        )
    })
}

fn probe_at(algo: Algorithm, n: usize, p: usize) -> Result<Probe, String> {
    let (a, b) = (ints(n, 1), ints(n, 2));
    let cfg = MachineConfig::default().with_trace();
    let res = multiply_abft_with_tol(algo, &a, &b, p, &cfg, Some(CHAOS_TOL))
        .map_err(|e| format!("{}: healthy probe failed: {e}", algo.name()))?;
    if !res.outcome.is_good() {
        return Err(format!(
            "{}: healthy probe produced untrustworthy outcome {:?}",
            algo.name(),
            res.outcome
        ));
    }
    let mut drop_sites = Vec::new();
    let mut edge_sites = Vec::new();
    let mut edges = BTreeSet::new();
    // Injection counters per (sender, destination) and per-sender
    // directed-edge crossing counters, replayed in trace program order
    // so harvested sequence numbers match the injector's bookkeeping.
    let mut injections: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut crossings: BTreeMap<(usize, usize, usize), u64> = BTreeMap::new();
    for events in &res.traces {
        for ev in events {
            let TraceKind::Send { to, .. } = ev.kind else {
                continue;
            };
            let from = ev.node;
            let step = ev.round.saturating_sub(1);
            let seq = injections.entry((from, to)).or_insert(0);
            drop_sites.push(DropSite {
                from,
                to,
                seq: *seq,
                step,
            });
            *seq += 1;
            // The healthy dimension-ordered route: exactly the one the
            // simulator takes when no dead link forces a detour, so the
            // crossing counts match the injector's.
            let mut cur = from;
            for next in dim_walk(from, to, 0) {
                let crossing = crossings.entry((from, cur, next)).or_insert(0);
                if hamming(cur, next) == 1 {
                    edge_sites.push(EdgeSite {
                        u: cur,
                        v: next,
                        seq: *crossing,
                        step,
                    });
                    edges.insert((cur.min(next), cur.max(next)));
                }
                *crossing += 1;
                cur = next;
            }
        }
    }
    if drop_sites.is_empty() || edges.is_empty() {
        return Err(format!(
            "{}: healthy probe traced no communication to inject into",
            algo.name()
        ));
    }
    Ok(Probe {
        algo,
        n,
        p,
        rounds: res.stats.nodes.iter().map(|n| n.rounds).max().unwrap_or(0),
        node_rounds: res.stats.nodes.iter().map(|n| n.rounds).collect(),
        elapsed: res.stats.elapsed,
        drop_sites,
        edge_sites,
        edges: edges.into_iter().collect(),
    })
}

// ---------------------------------------------------------------------------
// Steered plan generation
// ---------------------------------------------------------------------------

/// One fault entry a generated plan carries, tagged with the coverage
/// cell its placement targets.
#[derive(Debug, Clone)]
pub struct Placed {
    /// The coverage cell this entry aims at (phase recomputed from the
    /// site actually chosen, so crediting stays honest).
    pub cell: Cell,
    /// The scheduled entry.
    pub entry: FaultEntry,
}

/// Picks the cells a new plan should aim at: uncovered cells first
/// (the steering), uniform over the grid once everything is covered.
fn pick_cells(coverage: &Coverage, rng: &mut ChaosRng, k: usize) -> Vec<Cell> {
    let uncovered = coverage.uncovered();
    let all = Coverage::all_cells();
    (0..k)
        .map(|_| {
            let pool = if uncovered.is_empty() {
                &all
            } else {
                &uncovered
            };
            pool[rng.below(pool.len() as u64) as usize]
        })
        .collect()
}

/// Sites whose sender-step falls in `phase` of the probe's schedule,
/// falling back to the whole list when the phase bucket is empty.
fn phase_slice<T: Copy>(
    sites: &[T],
    step_of: impl Fn(&T) -> u64,
    phase: SchedulePhase,
    rounds: u64,
) -> Vec<T> {
    let hits: Vec<T> = sites
        .iter()
        .filter(|s| SchedulePhase::of(step_of(s), rounds) == phase)
        .copied()
        .collect();
    if hits.is_empty() {
        sites.to_vec()
    } else {
        hits
    }
}

/// Generates one fault plan aimed at `cells`, returning the plan and
/// the per-entry placement record used for coverage crediting. Every
/// entry is placed on a harvested site, so it passes
/// [`FaultEntry::check`] like any other plan's.
pub fn generate_plan(
    probe: &Probe,
    cells: &[Cell],
    rng: &mut ChaosRng,
) -> (FaultPlan, Vec<Placed>) {
    // At most one corruption per plan: the ABFT checksum code promises
    // detection for a *single* silent corruption, and two colluding
    // corruptions really can forge a self-consistent wrong product
    // (e.g. two sign flips on one broadcast word and its checksum-row
    // counterpart — a campaign-found, shrinker-minimized certificate;
    // see DESIGN.md). Scheduling past the declared fault model would
    // make the bitwise oracle flag behavior the detector never claimed
    // to handle.
    //
    // Corruption is also exclusive with dead links, for the same
    // reason one step removed: a lenient detour reroutes a *second*
    // sender's traffic across the corrupting edge, so the one
    // scheduled entry fires once per crossing sender — an effective
    // double corruption from a single-entry plan (campaign-found on
    // 3dd and shrunk to dead [0,2] + one corruption on 3->1, which
    // forged a 7-entry "correction" over a wrong product).
    let mut cells = cells.to_vec();
    let (mut corrupt_seen, mut dead_seen) = (false, false);
    cells.retain(|&(family, _)| {
        let is_corrupt = matches!(family, Family::CorruptFlip | Family::CorruptPerturb);
        let is_dead = matches!(family, Family::DeadLink | Family::StrictDeadLink);
        let keep = !(is_corrupt && (corrupt_seen || dead_seen)) && !(is_dead && corrupt_seen);
        if keep {
            corrupt_seen |= is_corrupt;
            dead_seen |= is_dead;
        }
        keep
    });
    let mut entries = Vec::new();
    let mut placed = Vec::new();
    let mut strict = false;
    let rounds = probe.rounds;
    for &(family, phase) in &cells {
        let (cell, entry) = match family {
            Family::DeadLink | Family::StrictDeadLink => {
                let (a, b) = probe.edges[rng.below(probe.edges.len() as u64) as usize];
                if family == Family::StrictDeadLink {
                    strict = true;
                }
                ((family, SchedulePhase::Early), FaultEntry::Dead { a, b })
            }
            Family::Straggler => {
                // A straggler only observably fires if the node issues
                // at least one communication call.
                let talkers: Vec<usize> = (0..probe.p)
                    .filter(|&nd| probe.node_rounds[nd] > 0)
                    .collect();
                let node = talkers[rng.below(talkers.len() as u64) as usize];
                let slowdown = rng.range_f64(1.5, 4.0);
                (
                    (family, SchedulePhase::Early),
                    FaultEntry::Straggler { node, slowdown },
                )
            }
            Family::DegradedLink => {
                let pool = phase_slice(&probe.edge_sites, |s| s.step, phase, rounds);
                let site = pool[rng.below(pool.len() as u64) as usize];
                let ts = rng.range_f64(1.5, 8.0);
                let tw = rng.range_f64(1.5, 8.0);
                (
                    (family, SchedulePhase::of(site.step, rounds)),
                    FaultEntry::Degraded {
                        a: site.u.min(site.v),
                        b: site.u.max(site.v),
                        quality: cubemm_simnet::LinkQuality {
                            ts_factor: ts,
                            tw_factor: tw,
                        },
                        window: Some((site.step, site.step + 1 + rng.below(2))),
                    },
                )
            }
            Family::Drop => {
                let pool = phase_slice(&probe.drop_sites, |s| s.step, phase, rounds);
                let site = pool[rng.below(pool.len() as u64) as usize];
                (
                    (family, SchedulePhase::of(site.step, rounds)),
                    FaultEntry::Drop {
                        from: site.from,
                        to: site.to,
                        seq: site.seq,
                    },
                )
            }
            Family::CorruptFlip | Family::CorruptPerturb => {
                let pool = phase_slice(&probe.edge_sites, |s| s.step, phase, rounds);
                let site = pool[rng.below(pool.len() as u64) as usize];
                // Damage is kept *exactly correctable*: sign flips and
                // integer deltas stay exact in f64 against the
                // campaign's small-integer matrices, so a corrected
                // product must equal the reference to the last bit. A
                // mantissa flip or fractional delta would instead make
                // the residual sums round, leaving a legitimate
                // ulp-sized error the bitwise oracle cannot tell from
                // a miscorrection. (Non-finite damage is covered by a
                // dense-layer regression test.)
                let kind = if family == Family::CorruptFlip {
                    CorruptKind::BitFlip { bit: 63 }
                } else {
                    let mag = (16 + rng.below(1009)) as f64;
                    let delta = if rng.below(2) == 0 { mag } else { -mag };
                    CorruptKind::Perturb { delta }
                };
                (
                    (family, SchedulePhase::of(site.step, rounds)),
                    FaultEntry::Corrupt {
                        from: site.u,
                        to: site.v,
                        seq: site.seq,
                        corruption: Corruption {
                            word: rng.below(64) as usize,
                            kind,
                        },
                    },
                )
            }
            Family::Crash => {
                let lo = match phase {
                    SchedulePhase::Early => 0,
                    SchedulePhase::Mid => rounds / 3,
                    SchedulePhase::Late => 2 * rounds / 3,
                };
                let hi = match phase {
                    SchedulePhase::Early => (rounds / 3).max(lo + 1),
                    SchedulePhase::Mid => (2 * rounds / 3).max(lo + 1),
                    SchedulePhase::Late => rounds.max(lo + 1),
                };
                // The crash only fires if the node's own schedule
                // reaches the step, so pick among nodes that get there.
                let reachers: Vec<usize> = (0..probe.p)
                    .filter(|&nd| probe.node_rounds[nd] > lo)
                    .collect();
                let node = if reachers.is_empty() {
                    (0..probe.p)
                        .max_by_key(|&nd| probe.node_rounds[nd])
                        .unwrap_or(0)
                } else {
                    reachers[rng.below(reachers.len() as u64) as usize]
                };
                let hi = hi.min(probe.node_rounds[node].max(lo + 1));
                let step = lo + rng.below(hi - lo);
                (
                    (family, SchedulePhase::of(step, rounds)),
                    FaultEntry::Crash { node, step },
                )
            }
        };
        placed.push(Placed { cell, entry });
        entries.push(entry);
    }
    let plan = FaultPlan::from_entries(&entries, strict)
        .unwrap_or_else(|e| panic!("chaos placed an invalid fault: {e}"));
    (plan, placed)
}

// ---------------------------------------------------------------------------
// Trials and oracles
// ---------------------------------------------------------------------------

/// Outcome of one chaos trial: the recovery loop's own result type.
pub type TrialOutcome = Result<(AbftResult, RecoveryReport), RecoveryError>;

/// Runs one protected multiply under `plan`.
pub fn run_trial(
    algo: Algorithm,
    a: &Matrix,
    b: &Matrix,
    p: usize,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> TrialOutcome {
    let cfg = MachineConfig::default().with_faults(plan.clone());
    multiply_with_recovery_tol(algo, a, b, p, &cfg, policy, Some(CHAOS_TOL))
}

/// The CLI exit-code contract for one trial: `0` verified product, `3`
/// deadlock (the documented algorithm-bug signal), `2` every other
/// failure. Total by construction; the oracle asserts it stays that
/// way.
pub fn trial_exit_code(outcome: &TrialOutcome) -> i32 {
    match outcome {
        Ok(_) => 0,
        Err(RecoveryError::Fatal(AlgoError::Sim(RunError::Deadlock { .. }))) => 3,
        Err(_) => 2,
    }
}

/// Everything the oracles need to judge one trial.
pub struct TrialContext<'a> {
    /// The plan the trial ran under.
    pub plan: &'a FaultPlan,
    /// Host-computed reference product.
    pub reference: &'a Matrix,
    /// The policy the trial ran under.
    pub policy: &'a RecoveryPolicy,
    /// Virtual-time ceiling for the final attempt.
    pub budget: f64,
    /// Treat `Corrected` outcomes as violations (shrink-demo mode).
    pub fail_on_corrected: bool,
}

/// Whether `plan` schedules any entry that `is` matches.
fn has(plan: &FaultPlan, is: fn(&FaultEntry) -> bool) -> bool {
    plan.entries().any(is)
}

/// Applies every oracle to one trial; the returned descriptions are
/// empty exactly when the trial is unimpeachable.
pub fn check_trial(outcome: &TrialOutcome, ctx: &TrialContext<'_>) -> Vec<String> {
    let mut violations = Vec::new();
    let code = trial_exit_code(outcome);
    if !matches!(code, 0 | 2 | 3) || (code == 0) != outcome.is_ok() {
        violations.push(format!("exit-code contract broken: outcome maps to {code}"));
    }
    match outcome {
        Ok((res, report)) => {
            if !res.outcome.is_good() {
                violations.push(format!(
                    "recovery returned an untrustworthy outcome: {:?}",
                    res.outcome
                ));
            }
            if res.c != *ctx.reference {
                violations.push("product differs bitwise from the host reference".to_string());
            }
            if ctx.fail_on_corrected && matches!(res.outcome, AbftOutcome::Corrected { .. }) {
                violations
                    .push("corrected outcome treated as failure (fail-on-corrected)".to_string());
            }
            let max = ctx.policy.max_attempts.max(1);
            if report.attempts == 0 || report.attempts > max {
                violations.push(format!(
                    "report claims {} attempts under a budget of {max}",
                    report.attempts
                ));
            }
            if report.backoff_delays.len() != report.attempts.saturating_sub(1) {
                violations.push(format!(
                    "{} backoff delays recorded for {} attempts",
                    report.backoff_delays.len(),
                    report.attempts
                ));
            }
            let total: f64 = report.backoff_delays.iter().sum();
            if report.backoff_spent != total {
                violations.push(format!(
                    "backoff_spent {} disagrees with its own delays (sum {total})",
                    report.backoff_spent
                ));
            }
            let mut expected = ctx.policy.backoff;
            for (i, &delay) in report.backoff_delays.iter().enumerate() {
                if delay != expected.min(ctx.policy.max_backoff) {
                    violations.push(format!(
                        "backoff delay {i} is {delay}, schedule says {}",
                        expected.min(ctx.policy.max_backoff)
                    ));
                    break;
                }
                expected *= ctx.policy.backoff_factor;
            }
            if (report.attempts == 1) != report.actions.is_empty() {
                violations.push(format!(
                    "{} attempts with {} plan mutations",
                    report.attempts,
                    report.actions.len()
                ));
            }
            if res.stats.elapsed > ctx.budget {
                violations.push(format!(
                    "virtual time {} blew the budget {}",
                    res.stats.elapsed, ctx.budget
                ));
            }
        }
        Err(RecoveryError::Exhausted { attempts, .. }) => {
            let max = ctx.policy.max_attempts.max(1);
            if *attempts == 0 || *attempts > max {
                violations.push(format!(
                    "exhaustion after {attempts} attempts under a budget of {max}"
                ));
            }
        }
        Err(RecoveryError::Fatal(e)) => {
            let explained = match e {
                AlgoError::Sim(RunError::Deadlock { .. }) => {
                    // A lost message legitimately starves its receiver —
                    // but only if a drop was actually scheduled.
                    has(ctx.plan, |e| matches!(e, FaultEntry::Drop { .. }))
                }
                AlgoError::Sim(RunError::LinkDead {
                    error: SendError::Unroutable { .. },
                    ..
                }) => {
                    // Severed links (scheduled dead links, or quarantine
                    // killing a corruptor's edge) can cut a node off.
                    has(ctx.plan, |e| matches!(e, FaultEntry::Dead { .. }))
                        || ctx.plan.has_corruptions()
                }
                _ => false,
            };
            if !explained {
                violations.push(format!("unexplained fatal outcome: {e}"));
            }
        }
    }
    violations
}

/// Credits coverage cells whose placed entries demonstrably fired,
/// using simulator [`FiredFault`](cubemm_simnet::FiredFault) records,
/// recovery actions, and the shape of typed failures as evidence.
pub fn credit_coverage(coverage: &mut Coverage, placed: &[Placed], outcome: &TrialOutcome) {
    let fired: Vec<(FiredKind, usize, usize)> = match outcome {
        Ok((res, _)) => res
            .stats
            .fired_faults()
            .map(|f| (f.kind, f.a, f.b))
            .collect(),
        Err(_) => Vec::new(),
    };
    let actions: &[RecoveryAction] = match outcome {
        Ok((_, report)) => &report.actions,
        Err(_) => &[],
    };
    for place in placed {
        let hit = match place.entry {
            FaultEntry::Dead { a, b } => match outcome {
                Err(RecoveryError::Fatal(AlgoError::Sim(RunError::LinkDead {
                    error: SendError::Unroutable { .. },
                    ..
                }))) => true,
                _ => {
                    fired.contains(&(FiredKind::DeadLink, a, b))
                        || actions.contains(&RecoveryAction::RelaxedStrictness)
                }
            },
            FaultEntry::Degraded { a, b, .. } => fired.contains(&(FiredKind::DegradedLink, a, b)),
            FaultEntry::Straggler { node, .. } => {
                fired.contains(&(FiredKind::Straggler, node, node))
            }
            FaultEntry::Drop { from, to, .. } => {
                fired.contains(&(FiredKind::Drop, from, to))
                    || actions.contains(&RecoveryAction::UnblockedDrops { from, to })
                    || matches!(
                        outcome,
                        Err(RecoveryError::Fatal(AlgoError::Sim(RunError::Deadlock {
                            blocked,
                        }))) if blocked.iter().any(|w| w.node == to && w.from == from)
                    )
            }
            FaultEntry::Corrupt { from, to, .. } => {
                fired.contains(&(FiredKind::Corruption, from, to))
                    || actions.contains(&RecoveryAction::QuarantinedLink {
                        a: from.min(to),
                        b: from.max(to),
                    })
                    || matches!(
                        outcome,
                        Err(RecoveryError::Exhausted { last, .. }) if last.contains("uncorrectable")
                    )
            }
            FaultEntry::Crash { node, .. } => {
                actions.contains(&RecoveryAction::RebootedNode { node })
                    || matches!(
                        outcome,
                        Err(RecoveryError::Exhausted { last, .. }) if last.contains("crashed")
                    )
            }
        };
        if hit {
            coverage.mark(place.cell);
        }
    }
}

// ---------------------------------------------------------------------------
// Delta-debugging shrinker
// ---------------------------------------------------------------------------

/// Reduces `plan` to a locally minimal plan for which `still_fails`
/// holds, by coarse-to-fine removal of [`FaultEntry`]s (classic ddmin
/// chunking) followed by an attempt to drop plan-wide strictness. The
/// predicate is assumed deterministic (true of every simulator-backed
/// check in this crate). If the failure survives an *empty* plan the
/// empty plan is returned — the failure was never fault-dependent,
/// which is itself diagnostic.
pub fn shrink_plan(plan: &FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    // Any subset of a valid plan's entries is a valid plan.
    let rebuild = |entries: &[FaultEntry], strict| {
        FaultPlan::from_entries(entries, strict).unwrap_or_else(|e| panic!("{e}"))
    };
    let strict = plan.is_strict();
    let mut entries: Vec<FaultEntry> = plan.entries().copied().collect();
    let mut chunk = entries.len().div_ceil(2).max(1);
    loop {
        let mut i = 0;
        while i < entries.len() {
            let mut candidate = entries.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            if still_fails(&rebuild(&candidate, strict)) {
                entries = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    let mut strict = strict;
    if strict && still_fails(&rebuild(&entries, false)) {
        strict = false;
    }
    rebuild(&entries, strict)
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Knobs of one campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Trials to run.
    pub runs: usize,
    /// Logical matrix order of every trial.
    pub n: usize,
    /// Most fault entries per generated plan.
    pub max_entries: usize,
    /// Treat `Corrected` outcomes as violations — a deliberate way to
    /// exercise the shrinker end to end (any corruption plan "fails",
    /// and the minimal repro is the single corrupting entry).
    pub fail_on_corrected: bool,
    /// Final-attempt virtual time may be at most this multiple of the
    /// healthy baseline (degradations ≤ 8×, stragglers ≤ 4×, detours
    /// and backoff small: an order of magnitude of slack on top).
    pub budget_factor: f64,
    /// Recovery policy for every trial.
    pub policy: RecoveryPolicy,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            runs: 200,
            n: 6,
            max_entries: 3,
            fail_on_corrected: false,
            budget_factor: 64.0,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// One oracle failure, shrunk to its minimal reproducing plan.
#[derive(Debug, Clone)]
pub struct ViolationRecord {
    /// 0-based trial index within the campaign.
    pub run: usize,
    /// Every oracle that fired on the trial.
    pub violations: Vec<String>,
    /// The generated plan, as `--fault-plan` JSON.
    pub plan_json: String,
    /// The shrunk minimal repro, as `--fault-plan` JSON.
    pub shrunk_json: String,
    /// Fault entries remaining after shrinking.
    pub shrunk_entries: usize,
}

/// What one campaign did and found.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The algorithm exercised.
    pub algo: Algorithm,
    /// The seed the campaign is reproducible from.
    pub seed: u64,
    /// Trials run.
    pub runs: usize,
    /// Matrix order of every trial.
    pub n: usize,
    /// Machine size the probe chose.
    pub p: usize,
    /// Shortest healthy per-node schedule (phase denominator).
    pub rounds: u64,
    /// Trials that verified clean on the first attempt.
    pub clean: usize,
    /// Trials whose damage the ABFT layer corrected in place.
    pub corrected: usize,
    /// Trials that needed at least one recovery retry.
    pub recovered: usize,
    /// Trials that failed in an allowed, typed way (deadlocks from
    /// drops, exhausted budgets, severed machines).
    pub typed_failures: usize,
    /// Fault-space cells observed firing.
    pub coverage: Coverage,
    /// Oracle failures, each with a shrunk repro.
    pub violations: Vec<ViolationRecord>,
}

impl CampaignReport {
    /// Deterministic human-readable summary (byte-identical for a
    /// fixed seed).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos {}: seed {}, {} runs at n={} on p={} (shortest schedule {} steps)",
            self.algo.name(),
            self.seed,
            self.runs,
            self.n,
            self.p,
            self.rounds
        );
        let _ = writeln!(
            out,
            "  outcomes: {} clean, {} corrected, {} recovered, {} typed failures, {} violations",
            self.clean,
            self.corrected,
            self.recovered,
            self.typed_failures,
            self.violations.len()
        );
        let _ = writeln!(out, "  coverage: {}", self.coverage.summary());
        let uncovered = self.coverage.uncovered();
        if !uncovered.is_empty() {
            let cells: Vec<String> = uncovered
                .iter()
                .map(|(f, ph)| {
                    if f.stepped() {
                        format!("{}/{}", f.name(), ph.name())
                    } else {
                        f.name().to_string()
                    }
                })
                .collect();
            let _ = writeln!(out, "  uncovered: {}", cells.join(", "));
        }
        for v in &self.violations {
            let _ = writeln!(
                out,
                "  VIOLATION at run {}: {} (shrunk to {} entr{})",
                v.run,
                v.violations.join("; "),
                v.shrunk_entries,
                if v.shrunk_entries == 1 { "y" } else { "ies" }
            );
        }
        out
    }
}

/// Stable per-algorithm salt so `chaos all` gives every campaign its
/// own stream while staying reproducible from the one seed.
fn algo_salt(algo: Algorithm) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for byte in algo.name().bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix(h)
}

/// Runs one coverage-guided campaign against `algo`. Fails only on
/// *setup* problems (no machine size fits, the healthy probe is
/// broken); oracle failures are reported, shrunk, and returned in the
/// [`CampaignReport`].
pub fn run_campaign(
    algo: Algorithm,
    seed: u64,
    opts: &ChaosOptions,
) -> Result<CampaignReport, String> {
    let probe = probe(algo, opts.n)?;
    let (a, b) = (ints(opts.n, 1), ints(opts.n, 2));
    let reference = gemm::reference(&a, &b);
    let budget = opts.budget_factor * (probe.elapsed + 1.0)
        + opts.policy.max_backoff * opts.policy.max_attempts as f64;
    let mut rng = ChaosRng::new(seed ^ algo_salt(algo));
    let mut report = CampaignReport {
        algo,
        seed,
        runs: opts.runs,
        n: opts.n,
        p: probe.p,
        rounds: probe.rounds,
        clean: 0,
        corrected: 0,
        recovered: 0,
        typed_failures: 0,
        coverage: Coverage::new(),
        violations: Vec::new(),
    };
    for run in 0..opts.runs {
        let k = 1 + rng.below(opts.max_entries.max(1) as u64) as usize;
        let cells = pick_cells(&report.coverage, &mut rng, k);
        let (plan, placed) = generate_plan(&probe, &cells, &mut rng);
        let outcome = run_trial(algo, &a, &b, probe.p, &plan, &opts.policy);
        credit_coverage(&mut report.coverage, &placed, &outcome);
        match &outcome {
            Ok((res, rep)) => {
                if rep.attempts > 1 {
                    report.recovered += 1;
                } else if matches!(res.outcome, AbftOutcome::Corrected { .. }) {
                    report.corrected += 1;
                } else {
                    report.clean += 1;
                }
            }
            Err(_) => report.typed_failures += 1,
        }
        let ctx = TrialContext {
            plan: &plan,
            reference: &reference,
            policy: &opts.policy,
            budget,
            fail_on_corrected: opts.fail_on_corrected,
        };
        let violations = check_trial(&outcome, &ctx);
        if violations.is_empty() {
            continue;
        }
        let shrunk = shrink_plan(&plan, |candidate| {
            let o = run_trial(algo, &a, &b, probe.p, candidate, &opts.policy);
            let cctx = TrialContext {
                plan: candidate,
                reference: &reference,
                policy: &opts.policy,
                budget,
                fail_on_corrected: opts.fail_on_corrected,
            };
            !check_trial(&o, &cctx).is_empty()
        });
        report.violations.push(ViolationRecord {
            run,
            violations,
            plan_json: plan.to_json(),
            shrunk_json: shrunk.to_json(),
            shrunk_entries: shrunk.entries().len(),
        });
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Soak-suite plan source
// ---------------------------------------------------------------------------

/// Draws the serve soak suite's fault mix from the chaos stream: about
/// a third of jobs crash a node early, a fifth corrupt a payload word
/// on a random hypercube edge, the rest run healthy — the same ratios
/// the soak suite's quarantine-count assertions were written against.
pub fn random_soak_plan(rng: &mut ChaosRng, p: usize) -> FaultPlan {
    debug_assert!(p.is_power_of_two() && p >= 2);
    match rng.below(15) {
        0..=4 => {
            // Steps 0/1 land inside even the shortest soak schedule, so
            // every scheduled crash really fires (the quarantine-count
            // assertion depends on that).
            let node = rng.below(p as u64) as usize;
            FaultPlan::new().with_crash(node, rng.below(2))
        }
        5..=7 => {
            let dim = p.trailing_zeros();
            let from = rng.below(p as u64) as usize;
            let to = from ^ (1 << rng.below(u64::from(dim)));
            let kind = if rng.below(2) == 0 {
                CorruptKind::BitFlip { bit: 63 }
            } else {
                CorruptKind::Perturb {
                    delta: 64.0 + rng.below(960) as f64,
                }
            };
            FaultPlan::new().with_corruption(
                from,
                to,
                rng.below(2),
                Corruption {
                    word: rng.below(16) as usize,
                    kind,
                },
            )
        }
        _ => FaultPlan::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let mut x = ChaosRng::new(42);
        let mut y = ChaosRng::new(42);
        let mut z = ChaosRng::new(43);
        let xs: Vec<u64> = (0..16).map(|_| x.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| y.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| z.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..64 {
            let v = x.below(7);
            assert!(v < 7);
            let f = x.range_f64(1.5, 4.0);
            assert!((1.5..4.0).contains(&f));
        }
    }

    #[test]
    fn coverage_grid_is_eighteen_cells() {
        assert_eq!(Coverage::total(), 18);
        let mut cov = Coverage::new();
        assert_eq!(cov.covered(), 0);
        assert_eq!(cov.uncovered().len(), 18);
        for cell in Coverage::all_cells() {
            cov.mark(cell);
        }
        assert_eq!(cov.covered(), 18);
        assert!(cov.uncovered().is_empty());
        assert_eq!(cov.summary(), "18/18 fault-space cells (100.0%)");
    }

    #[test]
    fn phases_split_the_schedule_in_thirds() {
        assert_eq!(SchedulePhase::of(0, 9), SchedulePhase::Early);
        assert_eq!(SchedulePhase::of(2, 9), SchedulePhase::Early);
        assert_eq!(SchedulePhase::of(3, 9), SchedulePhase::Mid);
        assert_eq!(SchedulePhase::of(6, 9), SchedulePhase::Late);
        assert_eq!(SchedulePhase::of(100, 9), SchedulePhase::Late);
        assert_eq!(SchedulePhase::of(5, 0), SchedulePhase::Early);
    }

    #[test]
    fn probe_harvests_real_injection_sites() {
        let probe = probe(Algorithm::Cannon, 6).unwrap_or_else(|e| panic!("{e}"));
        // Cannon's 2x2 and 4x4 grids finish in 2 and 5 calls; the probe
        // must keep growing the machine until phases mean something.
        assert_eq!(probe.p, 64);
        assert!(probe.rounds >= 6, "schedule too short: {}", probe.rounds);
        assert!(probe.elapsed > 0.0);
        assert!(!probe.drop_sites.is_empty());
        assert!(!probe.edge_sites.is_empty());
        for s in &probe.edge_sites {
            assert_eq!(hamming(s.u, s.v), 1, "{} -> {}", s.u, s.v);
        }
        for &(a, b) in &probe.edges {
            assert!(a < b);
            assert_eq!(hamming(a, b), 1);
        }
    }

    #[test]
    fn generated_plans_validate_and_round_trip() {
        let probe = probe(Algorithm::Cannon, 6).unwrap_or_else(|e| panic!("{e}"));
        let mut rng = ChaosRng::new(9);
        let mut cov = Coverage::new();
        for _ in 0..40 {
            let k = 1 + rng.below(3) as usize;
            let cells = pick_cells(&cov, &mut rng, k);
            let (plan, placed) = generate_plan(&probe, &cells, &mut rng);
            // The generator enforces the single-corruption fault model,
            // so it may place fewer entries than cells were requested.
            assert!(!placed.is_empty() && placed.len() <= cells.len());
            let count =
                |family: fn(&FaultEntry) -> bool| plan.entries().filter(|&e| family(e)).count();
            let corruptions = count(|e| matches!(e, FaultEntry::Corrupt { .. }));
            assert!(corruptions <= 1, "fault model allows one corruption");
            let dead_links = count(|e| matches!(e, FaultEntry::Dead { .. }));
            assert!(
                corruptions == 0 || dead_links == 0,
                "dead-link detours can re-fire a corruption entry for a \
                 second sender — an effective double fault"
            );
            plan.validate(probe.p).unwrap_or_else(|e| panic!("{e}"));
            let back = FaultPlan::from_json(&plan.to_json()).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(back, plan, "JSON round trip");
            for p in placed {
                cov.mark(p.cell); // pretend it fired, to exercise steering
            }
        }
        assert_eq!(cov.covered(), 18, "steering should reach the whole grid");
    }

    #[test]
    fn campaign_is_deterministic_and_violation_free() {
        let opts = ChaosOptions {
            runs: 30,
            ..ChaosOptions::default()
        };
        let one = run_campaign(Algorithm::Cannon, 7, &opts).unwrap_or_else(|e| panic!("{e}"));
        let two = run_campaign(Algorithm::Cannon, 7, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(one.render(), two.render(), "same seed, same bytes");
        assert!(
            one.violations.is_empty(),
            "oracles fired on a healthy stack:\n{}",
            one.render()
        );
        assert_eq!(
            one.clean + one.corrected + one.recovered + one.typed_failures,
            opts.runs
        );
        assert!(one.coverage.covered() > 6, "{}", one.coverage.summary());
        let other = run_campaign(Algorithm::Cannon, 8, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert_ne!(one.render(), other.render(), "seed must matter");
    }

    #[test]
    fn shrinker_isolates_the_culprit_entry() {
        let plan = FaultPlan::new()
            .with_dead_link(0, 1)
            .with_straggler(2, 2.0)
            .with_crash(1, 0)
            .strict();
        let shrunk = shrink_plan(&plan, |cand| {
            cand.entries()
                .any(|e| matches!(e, FaultEntry::Crash { node: 1, .. }))
        });
        assert!(!shrunk.is_strict(), "irrelevant strictness must be shed");
        assert!(matches!(
            shrunk.entries().collect::<Vec<_>>()[..],
            [FaultEntry::Crash { node: 1, step: 0 }]
        ));
    }

    #[test]
    fn shrinker_reduces_fault_independent_failures_to_empty() {
        let plan = FaultPlan::new()
            .with_dead_link(0, 1)
            .with_straggler(2, 2.0)
            .with_crash(3, 1);
        let shrunk = shrink_plan(&plan, |_| true);
        assert!(shrunk.is_empty());
    }

    #[test]
    fn real_violations_shrink_to_tiny_replayable_repros() {
        // fail_on_corrected turns any firing corruption into an oracle
        // violation, exercising the shrinker against real simulator
        // runs: the minimal repro must be the corrupting entry alone.
        let opts = ChaosOptions {
            runs: 40,
            fail_on_corrected: true,
            ..ChaosOptions::default()
        };
        let report = run_campaign(Algorithm::Cannon, 11, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            !report.violations.is_empty(),
            "40 steered runs must corrupt at least once"
        );
        for v in &report.violations {
            assert!(v.shrunk_entries <= 3, "repro too big: {}", v.shrunk_json);
            let plan = FaultPlan::from_json(&v.shrunk_json).unwrap_or_else(|e| panic!("{e}"));
            plan.validate(report.p).unwrap_or_else(|e| panic!("{e}"));
            assert!(plan.has_corruptions(), "{}", v.shrunk_json);
        }
    }

    #[test]
    fn soak_plans_keep_the_suites_fault_mix() {
        let mut rng = ChaosRng::new(5);
        let (mut crashes, mut corruptions, mut healthy) = (0, 0, 0);
        for _ in 0..600 {
            let plan = random_soak_plan(&mut rng, 8);
            plan.validate(8).unwrap_or_else(|e| panic!("{e}"));
            if has(&plan, |e| matches!(e, FaultEntry::Crash { .. })) {
                crashes += 1;
            } else if plan.has_corruptions() {
                corruptions += 1;
            } else {
                healthy += 1;
            }
        }
        assert!(crashes > 150, "{crashes}");
        assert!(corruptions > 60, "{corruptions}");
        assert!(healthy > 250, "{healthy}");
    }
}
