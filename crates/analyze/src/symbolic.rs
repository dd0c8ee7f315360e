//! Symbolic schedule certification: closed-form proofs over all
//! `p = 2^d`, grounded in what the schemas expand to at concrete `d`.
//!
//! The capture pass (`conformance`) checks concrete schedules at
//! enumerated `(n, p)` points. This module certifies *families*, and
//! is also the one place a captured `(a, b)` is judged: against
//! [`AlgoCertificate::predict`], by [`judge`]. Each collective carries a declarative
//! [`CollSchema`](cubemm_collectives::CollSchema) — round count, copy
//! rule, rotated dimension orders, and per-round volume as an
//! exponential schema — and each registry algorithm a phase-level
//! [`AlgoSchema`](cubemm_core::schema::AlgoSchema). The certifier
//! discharges, per schema, a list of [`Obligation`]s:
//!
//! * **structural obligations** hold for every `d` by a short symbolic
//!   argument (round count equals `δ` as a linear form; the rotated
//!   copies `o_r(c) = (c ± r) mod δ` are pairwise distinct per round by
//!   the residue argument, so multi-port copies are link-disjoint;
//!   round `r` consumes only frontier state produced by rounds `< r`,
//!   so the family is deadlock-free by induction over rounds);
//! * **cost obligations** compare exact polynomials: the closed-form
//!   `(a, b)` summed from the volume schema must *formally equal* the
//!   Table 1 row, and phase-composed algorithm costs the Table 2 row —
//!   monomials in the `n^a·2^(e·d/12)·d^k` basis are linearly
//!   independent, so formal equality is equality for all `p = 2^d`;
//! * **grounding obligations** tie a schema's *claims* to what it
//!   *ships*. The executor reads its rounds from the same guard
//!   function the expansion evaluates, so there is no second generator
//!   to compare with; instead the claimed per-round volume must equal
//!   the busiest node's id-set cardinality at every `δ ≤ 16`, and at the
//!   grounding dimensions the expansion must pass the concrete checker
//!   and replay to exactly the closed form's `(a, b)`. (The test
//!   harness adds trace captures of real runs.)
//!
//! What stays point-checked, and why, is catalogued in DESIGN.md §15.

use cubemm_collectives::{CollKind, CollSchema};
use cubemm_core::schema::{AlgoSchema, CollPhase, Phase, SchemaForm};
use cubemm_core::Algorithm;
use cubemm_model::sym::{Poly, Rat, SymOverhead};
use cubemm_model::{overhead_sym, ModelAlgo, Overhead};
use cubemm_simnet::{CostParams, Machine, Payload, PortModel};
use cubemm_topology::Subcube;

use crate::check::{analyze, Analysis, Strictness};
use crate::conformance::{applicable_grid, check_capture, close};
use crate::ir::{Event, Round, Schedule};

/// A closed-form `(a, b)` cost pair: time is `t_s·a + t_w·b`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymCost {
    /// Start-up coefficient.
    pub a: Poly,
    /// Word-transfer coefficient.
    pub b: Poly,
}

/// One discharged (or refuted) proof obligation of a certificate.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Short obligation name (`rounds`, `cost-b`, …).
    pub name: &'static str,
    /// What is being claimed, for the transcript.
    pub statement: String,
    /// Did the check discharge the obligation?
    pub ok: bool,
    /// How it was discharged, or why it failed.
    pub detail: String,
}

impl Obligation {
    fn pass(name: &'static str, statement: String, detail: String) -> Obligation {
        Obligation {
            name,
            statement,
            ok: true,
            detail,
        }
    }

    fn fail(name: &'static str, statement: String, detail: String) -> Obligation {
        Obligation {
            name,
            statement,
            ok: false,
            detail,
        }
    }
}

/// The Table 1 row for `kind` under `port` as exact polynomials in the
/// collective basis: size variable `m` (the Table 1 unit), `δ` for the
/// subcube dimension, and `N = 2^δ` encoded as `x¹²`. The symbolic
/// counterpart of [`crate::collectives::table1`].
pub fn table1_sym(kind: CollKind, port: PortModel) -> SymCost {
    let m = Poly::v(1);
    let delta = Poly::d();
    let n_minus_1 = Poly::p_pow(1, 1).sub(&Poly::int(1));
    let inv_delta = Poly::term(Rat::ONE, 0, 0, -1);
    let b_one = match kind {
        CollKind::Bcast | CollKind::Reduce => m.mul(&delta),
        CollKind::Scatter | CollKind::Gather | CollKind::Allgather | CollKind::ReduceScatter => {
            n_minus_1.mul(&m)
        }
        CollKind::Alltoall => Poly::p_pow(1, 1).mul(&m).mul(&delta).scale(Rat::new(1, 2)),
    };
    let b = match (kind, port) {
        (_, PortModel::OnePort) => b_one,
        (CollKind::Bcast | CollKind::Reduce, PortModel::MultiPort) => m,
        (CollKind::Alltoall, PortModel::MultiPort) => {
            Poly::p_pow(1, 1).mul(&m).scale(Rat::new(1, 2))
        }
        (_, PortModel::MultiPort) => b_one.mul(&inv_delta),
    };
    SymCost { a: delta, b }
}

/// The closed-form `(a, b)` a schema *claims*, by exact geometric
/// summation of its per-round volume over the declared round count:
///
/// ```text
///   b = Σ_{r=0}^{R−1} coef · 2^(aδ + g·r + c) · m / ncopies
/// ```
///
/// with `R = δ + skew`. Fails if the exponent slope `g` is outside
/// `{−1, 0, 1}` (no reference schema needs more) or the coefficient has
/// a zero denominator.
pub fn coll_cost_sym(schema: &CollSchema, port: PortModel) -> Result<SymCost, String> {
    let skew = schema.rounds_skew;
    let rounds = Poly::d().add(&Poly::int(i128::from(skew)));
    let vol = schema.vol;
    if vol.coef.1 == 0 {
        return Err("volume coefficient has a zero denominator".into());
    }
    let coef =
        Rat::new(i128::from(vol.coef.0), i128::from(vol.coef.1)) * Rat::int(2).pow(vol.pow2_const);
    // m · 2^(pow2_delta·δ) with the constant folded in.
    let base = Poly::term(coef, 1, 12 * vol.pow2_delta, 0);
    let two_pow_skew = Rat::int(2).pow(skew);
    let sum = match vol.pow2_r {
        0 => base.mul(&rounds),
        1 => {
            // Σ 2^r = 2^R − 1,  2^R = 2^skew · 2^δ
            let geom = Poly::term(two_pow_skew, 0, 12, 0).sub(&Poly::int(1));
            base.mul(&geom)
        }
        -1 => {
            // Σ 2^(−r) = 2 − 2^(1−R),  2^(1−R) = 2^(1−skew) · 2^(−δ)
            let geom = Poly::int(2).sub(&Poly::term(Rat::int(2).pow(1 - skew), 0, -12, 0));
            base.mul(&geom)
        }
        g => return Err(format!("unsupported per-round exponent slope {g}")),
    };
    let b = match port {
        PortModel::OnePort => sum,
        PortModel::MultiPort => sum.mul(&Poly::term(Rat::ONE, 0, 0, -1)),
    };
    Ok(SymCost { a: rounds, b })
}

/// Expands `schema` into a whole-machine [`Schedule`] at concrete
/// dimension `d` — the same guard function the executor reads its
/// rounds from, counted instead of listed, so no payload or id is
/// materialised. `root` is the root rank for the rooted shapes (ignored
/// by the all-to-all shapes, which live in plain rank space), `m` the
/// Table 1 unit, `base` the tag base.
pub fn expand_collective(
    schema: &CollSchema,
    port: PortModel,
    d: u32,
    m: usize,
    base: u64,
    root: usize,
) -> Schedule {
    let p = 1usize << d;
    let rooted = matches!(
        schema.kind,
        CollKind::Bcast | CollKind::Scatter | CollKind::Gather | CollKind::Reduce
    );
    let root = if rooted { root } else { 0 };
    let mut s = Schedule::new(p);
    for node in 0..p {
        let v = node ^ root;
        for spec in schema.expand_node(port, d, m, base, v) {
            let mut round = Round::default();
            for send in &spec.sends {
                round.events.push(Event::Send {
                    to: send.peer_v ^ root,
                    tag: send.tag,
                    words: send.words,
                    hops: 1,
                });
            }
            for recv in &spec.recvs {
                round.events.push(Event::Recv {
                    from: recv.peer_v ^ root,
                    tag: recv.tag,
                    expect: Some(recv.words),
                });
            }
            s.push_round(node, round);
        }
    }
    s
}

fn event_key(e: &Event) -> (u8, usize, u64, usize, u32) {
    match *e {
        Event::Send {
            to,
            tag,
            words,
            hops,
        } => (0, to, tag, words, hops),
        Event::Recv { from, tag, expect } => (1, from, tag, expect.unwrap_or(usize::MAX), 1),
    }
}

fn describe(e: &Event) -> String {
    match *e {
        Event::Send { to, tag, words, .. } => format!("send {words}w tag {tag} → {to}"),
        Event::Recv { from, tag, expect } => {
            format!("recv {:?}w tag {tag} ← {from}", expect)
        }
    }
}

/// Message-for-message comparison of two schedules. Each node must run
/// the same rounds carrying the same multiset of events (peer, tag,
/// words, hops). With `skip_empty`, rounds without events are dropped
/// before aligning — trace-derived schedules never record a node's
/// idle rounds, while expansions keep them.
pub fn diff_schedules(lhs: &Schedule, rhs: &Schedule, skip_empty: bool) -> Result<(), String> {
    if lhs.p != rhs.p {
        return Err(format!("node counts differ: {} vs {}", lhs.p, rhs.p));
    }
    for u in 0..lhs.p {
        let pick = |s: &Schedule| -> Vec<Round> {
            s.nodes[u]
                .iter()
                .filter(|r| !skip_empty || !r.events.is_empty())
                .cloned()
                .collect()
        };
        let (lr, rr) = (pick(lhs), pick(rhs));
        if lr.len() != rr.len() {
            return Err(format!(
                "node {u}: round counts differ ({} vs {})",
                lr.len(),
                rr.len()
            ));
        }
        for (i, (a, b)) in lr.iter().zip(&rr).enumerate() {
            let mut ae = a.events.clone();
            let mut be = b.events.clone();
            ae.sort_by_key(event_key);
            be.sort_by_key(event_key);
            if ae != be {
                let detail = ae
                    .iter()
                    .zip(&be)
                    .find(|(x, y)| x != y)
                    .map(|(x, y)| format!("{} vs {}", describe(x), describe(y)))
                    .unwrap_or_else(|| format!("event counts {} vs {}", ae.len(), be.len()));
                return Err(format!("node {u} round {i}: {detail}"));
            }
        }
    }
    Ok(())
}

/// Runs the real collective `kind` on a traced simulated machine and
/// rebuilds its schedule from the trace — the experimental side of the
/// differential harness.
pub fn captured_collective(
    kind: CollKind,
    port: PortModel,
    d: u32,
    m: usize,
    root: usize,
) -> Result<Schedule, String> {
    use cubemm_collectives as coll;
    let p = 1usize << d;
    let machine = Machine::builder(p)
        .port(port)
        .cost(CostParams::PAPER)
        .traced(true)
        .build()
        .map_err(|e| format!("machine build failed: {e}"))?;
    let zeros = |len: usize| -> Payload { std::iter::repeat_n(0.0, len).collect() };
    let out = machine
        .run(vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let n = sc.size();
            match kind {
                CollKind::Bcast => {
                    let data = (v == root).then(|| zeros(m));
                    coll::bcast(&mut proc, &sc, root, 0, data, m).await;
                }
                CollKind::Scatter => {
                    let parts = (v == root).then(|| vec![zeros(m); n]);
                    coll::scatter(&mut proc, &sc, root, 0, parts, m).await;
                }
                CollKind::Gather => {
                    coll::gather(&mut proc, &sc, root, 0, zeros(m)).await;
                }
                CollKind::Reduce => {
                    coll::reduce_sum(&mut proc, &sc, root, 0, zeros(m)).await;
                }
                CollKind::Allgather => {
                    coll::allgather(&mut proc, &sc, 0, zeros(m)).await;
                }
                CollKind::ReduceScatter => {
                    coll::reduce_scatter(&mut proc, &sc, 0, vec![zeros(m); n]).await;
                }
                CollKind::Alltoall => {
                    coll::alltoall_personalized(&mut proc, &sc, 0, vec![zeros(m); n]).await;
                }
            }
        })
        .map_err(|e| format!("collective run failed: {e}"))?;
    Schedule::from_traces(p, &out.traces)
}

/// A collective's symbolic certificate: its claimed closed-form cost,
/// the Table 1 row it must equal, and the discharged obligations.
#[derive(Debug, Clone)]
pub struct CollCertificate {
    /// The collective.
    pub kind: CollKind,
    /// Port model certified under.
    pub port: PortModel,
    /// Schema-derived closed form.
    pub cost: SymCost,
    /// Table 1 closed form.
    pub table: SymCost,
    /// The proof obligations, in discharge order.
    pub obligations: Vec<Obligation>,
}

impl CollCertificate {
    /// Did every obligation discharge?
    pub fn ok(&self) -> bool {
        self.obligations.iter().all(|o| o.ok)
    }
}

/// Concrete dimensions at which certificates run the concrete checker
/// over a schema's expansion (kept small so the certifier stays fast;
/// the test harness sweeps much wider and against real traced runs).
pub const GROUND_DIMS: [u32; 4] = [1, 2, 3, 5];

/// Grounds a schema's claims in what its own expansion ships; the error
/// names the first point where they part.
///
/// 1. For every `δ ≤ 16`, round and copy, the claimed `vol.packets(δ, r)`
///    equals the busiest node's send set, sized as `2^popcount(free)` —
///    nothing is enumerated. Every transfer of a round crosses that
///    round's dimension and the guard function sizes an id set from the
///    round's masks alone, never from who holds it, so the two ends of
///    the root's link (relative ranks `0` and `2^o_r`) include a sender
///    whenever anyone sends, as busy as any.
/// 2. At the grounding dimensions the whole expansion passes the
///    concrete checker, and where the message splits evenly over the
///    copies (always at `m = 60`) its replayed critical path is exactly
///    the closed form `cost` evaluated there.
fn ground_collective(schema: &CollSchema, port: PortModel, cost: &SymCost) -> Result<(), String> {
    for delta in 1..=16u32 {
        for r in 0..schema.rounds(delta) {
            let claimed = schema.vol.packets(delta, r as u32);
            let dims = schema.round_dims(delta, port, r as u32);
            for (c, dim) in dims.into_iter().enumerate() {
                let shipped = [0, 1usize << dim]
                    .into_iter()
                    .filter_map(|v| schema.xfer(delta, r, c, v)?.send)
                    .map(|ids| ids.len() as u64)
                    .max()
                    .unwrap_or(0);
                if claimed != Some(shipped) {
                    return Err(format!(
                        "claimed volume {claimed:?} ≠ {shipped} packets shipped by the busiest \
                         node at δ = {delta}, round {r}, copy {c}"
                    ));
                }
            }
        }
    }
    for &d in &GROUND_DIMS {
        for m in [60usize, 7] {
            let expansion = expand_collective(schema, port, d, m, 0, 0);
            let analysis = analyze(&expansion, port, Strictness::Serialized);
            if !analysis.is_sound() {
                return Err(format!(
                    "expansion fails the concrete checker at δ = {d}, m = {m}"
                ));
            }
            if m % schema.ncopies(port, d) != 0 {
                continue; // uneven slices: b exceeds the ideal by granularity
            }
            let (ea, eb) = (
                cost.a.eval(m as f64, f64::from(d)),
                cost.b.eval(m as f64, f64::from(d)),
            );
            if !analysis
                .cost
                .is_some_and(|got| close(got.a, ea) && close(got.b, eb))
            {
                return Err(format!(
                    "expansion replays to {:?} at δ = {d}, m = {m}; the closed form says \
                     (a = {ea}, b = {eb})",
                    analysis.cost.map(|got| (got.a, got.b))
                ));
            }
        }
    }
    Ok(())
}

/// Certifies one collective schema under `port`: discharges the
/// structural, cost, and grounding obligations described in the module
/// docs. A schema that lies about any claim — round count or volume
/// polynomial — fails the corresponding obligation.
pub fn certify_collective(schema: &CollSchema, port: PortModel) -> CollCertificate {
    let kind = schema.kind;
    let table = table1_sym(kind, port);
    let mut obligations = Vec::new();

    // Obligation 1: declared round count is exactly δ, as a linear form.
    let rounds = Poly::d().add(&Poly::int(i128::from(schema.rounds_skew)));
    let stmt = format!(
        "rounds per copy R(δ) = δ (declared: {})",
        rounds.render("m", "N", "δ")
    );
    if rounds == Poly::d() {
        obligations.push(Obligation::pass(
            "rounds",
            stmt,
            "linear forms equal; with one peeled dimension per round, δ rounds peel \
             every dimension exactly once"
                .into(),
        ));
    } else {
        obligations.push(Obligation::fail(
            "rounds",
            stmt,
            "declared round count differs from the structural δ".into(),
        ));
    }

    // Obligation 2: port legality of the copy rule. One-port: a single
    // copy means one send and one receive per node per round. Multi-port:
    // the δ rotated copies use dimensions o_r(c) = (c ± r) mod δ, which
    // are pairwise distinct for c in [0, δ): o_r(c₁) = o_r(c₂) implies
    // c₁ ≡ c₂ (mod δ), hence c₁ = c₂ — a residue argument valid for all
    // δ. Each copy therefore drives its own link.
    match port {
        PortModel::OnePort => obligations.push(Obligation::pass(
            "port-legality",
            "one-port: ncopies = 1".into(),
            "single copy; at most one send and one receive per node per round by the \
             shape guards"
                .into(),
        )),
        PortModel::MultiPort => {
            let bad = (1u32..=16)
                .flat_map(|delta| (0..delta).map(move |r| (delta, r)))
                .find(|&(delta, r)| {
                    let mut dims = schema.round_dims(delta, PortModel::MultiPort, r);
                    dims.sort_unstable();
                    dims.dedup();
                    dims.len() != delta as usize
                });
            let stmt = "multi-port: δ rotated copies are link-disjoint every round".into();
            match bad {
                None => obligations.push(Obligation::pass(
                    "port-legality",
                    stmt,
                    "residue argument: o_r(c₁) = o_r(c₂) (mod δ) ⇒ c₁ = c₂; spot-verified \
                     for δ ≤ 16"
                        .into(),
                )),
                Some((delta, r)) => obligations.push(Obligation::fail(
                    "port-legality",
                    stmt,
                    format!("copies collide at δ = {delta}, round {r}"),
                )),
            }
        }
    }

    // Obligations 3/4: the closed-form cost claimed by the volume schema
    // equals the Table 1 row, as formal polynomials.
    match coll_cost_sym(schema, port) {
        Err(e) => obligations.push(Obligation::fail(
            "cost-b",
            "closed-form b summable".into(),
            e,
        )),
        Ok(cost) => {
            let render = |p: &Poly| p.render("m", "N", "δ");
            let stmt_a = format!(
                "a = {} must equal Table 1's {}",
                render(&cost.a),
                render(&table.a)
            );
            if cost.a == table.a {
                obligations.push(Obligation::pass(
                    "cost-a",
                    stmt_a,
                    "formal equality in the monomial basis".into(),
                ));
            } else {
                obligations.push(Obligation::fail(
                    "cost-a",
                    stmt_a,
                    "polynomials differ".into(),
                ));
            }
            let stmt_b = format!(
                "b = {} must equal Table 1's {}",
                render(&cost.b),
                render(&table.b)
            );
            if cost.b == table.b {
                obligations.push(Obligation::pass(
                    "cost-b",
                    stmt_b,
                    "geometric sum of the volume schema matches the table row term-for-term".into(),
                ));
            } else {
                obligations.push(Obligation::fail(
                    "cost-b",
                    stmt_b,
                    "polynomials differ".into(),
                ));
            }
            // Obligation 5: FIFO matching and deadlock-freedom, by
            // induction over rounds, grounded by expansion.
            let stmt = "every round-r receive matches a round-r send across one link; \
                        round r depends only on frontier state of rounds < r"
                .to_string();
            match ground_collective(schema, port, &cost) {
                Ok(()) => obligations.push(Obligation::pass(
                    "fifo-deadlock",
                    stmt,
                    format!(
                        "induction over rounds (frontier masks grow monotonically); grounded: \
                         claimed volume = the busiest node's id-set size at every δ ≤ 16, and the \
                         expansion passes the concrete checks on the closed form's (a, b) at \
                         δ ∈ {GROUND_DIMS:?}"
                    ),
                )),
                Err(e) => obligations.push(Obligation::fail("fifo-deadlock", stmt, e)),
            }
            return CollCertificate {
                kind,
                port,
                cost,
                table,
                obligations,
            };
        }
    }
    CollCertificate {
        kind,
        port,
        cost: SymCost {
            a: Poly::zero(),
            b: Poly::zero(),
        },
        table,
        obligations,
    }
}

/// Certifies the reference schemas of all seven collectives under both
/// port models: the all-collectives half of the symbolic gate.
pub fn certify_all_collectives() -> Vec<CollCertificate> {
    let mut out = Vec::new();
    for kind in CollKind::ALL {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            out.push(certify_collective(&CollSchema::reference(kind), port));
        }
    }
    out
}

/// Rewrites a polynomial over `(n, x = 2^(d/12), d)` into the subcube
/// basis `d = j·δ`: `x^e → y^(e·j)` (with `y = 2^(δ/12)`) and
/// `d^k → j^k·δ^k`. Used so dominance arguments can exploit `δ ≥ 1`
/// (i.e. `d ≥ j`) instead of only `d ≥ 1`.
fn in_subcube_basis(p: &Poly, j: u32) -> Poly {
    let j = j as i32;
    let mut out = Poly::zero();
    for ((v, x, d), c) in p.iter_terms() {
        out = out.add(&Poly::term(c * Rat::int(i128::from(j)).pow(d), v, x * j, d));
    }
    out
}

/// `lhs ≥ rhs` for every valid dimension (`d` a multiple of `j`,
/// `n ≥ 1`), by monomial dominance in the subcube basis.
fn dominates(lhs: &Poly, rhs: &Poly, j: u32) -> bool {
    in_subcube_basis(&lhs.sub(rhs), j).nonnegative_for_ge_one()
}

/// The closed-form `(a, b)` one collective phase contributes: its
/// Table 1 row rewritten from the subcube basis (`δ = d/sub`) to the
/// global one, with the message unit substituted in.
fn coll_phase_cost(cp: &CollPhase, port: PortModel) -> Result<SymCost, String> {
    let t = table1_sym(cp.kind, port);
    Ok(SymCost {
        a: t.a.subst_delta(cp.sub)?,
        b: t.b.subst_delta(cp.sub)?.subst_v(&cp.unit)?,
    })
}

/// Composes an algorithm schema's phases into its closed-form `(a, b)`
/// under `port`. Serial phases add; fused multi-port phases cost their
/// slowest stream, established per coordinate by monomial dominance
/// (an error here means no stream provably dominates — a schema bug,
/// not a cost bug).
pub fn algo_cost_sym(schema: &AlgoSchema, port: PortModel) -> Result<SymCost, String> {
    let SchemaForm::Closed(phases) = &schema.form else {
        return Err("parametric family has no closed form".into());
    };
    let mut a = Poly::zero();
    let mut b = Poly::zero();
    for phase in phases {
        match phase {
            Phase::Coll {
                coll,
                repeat,
                label,
            } => {
                let c = coll_phase_cost(coll, port).map_err(|e| format!("{label}: {e}"))?;
                a = a.add(&c.a.mul(repeat));
                b = b.add(&c.b.mul(repeat));
            }
            Phase::Fused { streams, label } => {
                let costs: Result<Vec<SymCost>, String> =
                    streams.iter().map(|s| coll_phase_cost(s, port)).collect();
                let costs = costs.map_err(|e| format!("{label}: {e}"))?;
                let sub = streams[0].sub;
                match port {
                    PortModel::OnePort => {
                        for c in &costs {
                            a = a.add(&c.a);
                            b = b.add(&c.b);
                        }
                    }
                    PortModel::MultiPort => {
                        let pick = |get: &dyn Fn(&SymCost) -> &Poly| -> Result<Poly, String> {
                            costs
                                .iter()
                                .find(|c| costs.iter().all(|o| dominates(get(c), get(o), sub)))
                                .map(|c| get(c).clone())
                                .ok_or_else(|| {
                                    format!("{label}: no fused stream provably dominates")
                                })
                        };
                        a = a.add(&pick(&|c: &SymCost| &c.a)?);
                        b = b.add(&pick(&|c: &SymCost| &c.b)?);
                    }
                }
            }
            Phase::Shift {
                rounds,
                a1,
                b1,
                amp,
                bmp,
                ..
            } => {
                let (pa, pb) = match port {
                    PortModel::OnePort => (a1, b1),
                    PortModel::MultiPort => (amp, bmp),
                };
                a = a.add(&rounds.mul(pa));
                b = b.add(&rounds.mul(pb));
            }
            Phase::Routed { sub, vol, .. } => {
                let delta = Poly::d().scale(Rat::new(1, i128::from(*sub)));
                a = a.add(&delta);
                match port {
                    PortModel::OnePort => b = b.add(&delta.mul(vol)),
                    PortModel::MultiPort => b = b.add(vol),
                }
            }
        }
    }
    Ok(SymCost { a, b })
}

/// Maximum `b` inflation the point judge accepts as slice-granularity
/// rounding (uneven `log`-way multi-port splits send ceiling-sized
/// slices; `a` is never inflated).
const GRANULARITY_SLACK: f64 = 0.2;

/// The factor 3-D Diagonal's one-port runs at against its Table 2 row:
/// the implementation overlaps the two broadcast axes, beating the
/// paper's additive bound by one `log ∛p` phase on each axis.
const DIAG3D_ONE_PORT_FACTOR: f64 = 0.75;

/// How an algorithm's composed closed form relates to the paper's
/// Table 2 — the workspace's documented deviations, stated once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Formally equals this row.
    Table(ModelAlgo),
    /// Formally equals this row, and runs at
    /// [`DIAG3D_ONE_PORT_FACTOR`] × it.
    Scaled(ModelAlgo),
    /// Stepping stone: dominates the row it refines.
    AtLeast(ModelAlgo),
    /// No Table 2 row: the composed form is the certificate.
    NoRow,
}

impl Policy {
    /// The Table 2 row the composed form is compared against.
    fn row(self) -> Option<ModelAlgo> {
        match self {
            Policy::Table(m) | Policy::Scaled(m) | Policy::AtLeast(m) => Some(m),
            Policy::NoRow => None,
        }
    }

    /// What the closed form is multiplied by to predict a measurement.
    fn factor(self) -> f64 {
        match self {
            Policy::Scaled(_) => DIAG3D_ONE_PORT_FACTOR,
            _ => 1.0,
        }
    }
}

pub(crate) fn policy(algo: Algorithm, port: PortModel) -> Policy {
    match (algo, port) {
        (Algorithm::Simple, _) => Policy::Table(ModelAlgo::Simple),
        (Algorithm::Cannon, _) => Policy::Table(ModelAlgo::Cannon),
        (Algorithm::Hje, PortModel::OnePort) => Policy::NoRow,
        (Algorithm::Hje, PortModel::MultiPort) => Policy::Table(ModelAlgo::Hje),
        (Algorithm::Berntsen, _) => Policy::Table(ModelAlgo::Berntsen),
        (Algorithm::Dns, _) => Policy::Table(ModelAlgo::Dns),
        (Algorithm::Diag3d, PortModel::OnePort) => Policy::Scaled(ModelAlgo::Diag3d),
        (Algorithm::Diag3d, PortModel::MultiPort) => Policy::Table(ModelAlgo::Diag3d),
        (Algorithm::AllTrans3d, _) => Policy::AtLeast(ModelAlgo::All3d),
        (Algorithm::All3d, _) => Policy::Table(ModelAlgo::All3d),
        // Diag2d is a stepping stone without a row; the extension and
        // baseline algorithms are outside the paper's table.
        _ => Policy::NoRow,
    }
}

/// The outcome of judging a measured `(a, b)` against a prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Both coordinates equal the prediction.
    Exact,
    /// `a` is exact; `b` exceeds the prediction by the slice granularity
    /// (ratio ≤ `1 + GRANULARITY_SLACK`).
    WithinGranularity {
        /// `measured b / predicted b`.
        ratio: f64,
    },
    /// The measured cost disagrees with the prediction.
    Mismatch {
        /// The extracted `(a, b)`.
        measured: Overhead,
        /// The predicted `(a, b)`.
        predicted: Overhead,
    },
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Exact => write!(f, "exact"),
            Verdict::WithinGranularity { ratio } => {
                write!(f, "within slice granularity (b ×{ratio:.4})")
            }
            Verdict::Mismatch {
                measured,
                predicted,
            } => write!(
                f,
                "MISMATCH: extracted (a={}, b={}), predicted (a={}, b={})",
                measured.a, measured.b, predicted.a, predicted.b
            ),
        }
    }
}

/// The one point judge: a measured `(a, b)` against a predicted one —
/// exact, within slice granularity, or a mismatch.
pub fn judge(predicted: Overhead, a: f64, b: f64) -> Verdict {
    if close(a, predicted.a) && close(b, predicted.b) {
        Verdict::Exact
    } else if close(a, predicted.a)
        && b > predicted.b
        && b <= predicted.b * (1.0 + GRANULARITY_SLACK)
    {
        Verdict::WithinGranularity {
            ratio: b / predicted.b,
        }
    } else {
        Verdict::Mismatch {
            measured: Overhead { a, b },
            predicted,
        }
    }
}

/// One captured algorithm instance, checked and judged.
#[derive(Debug)]
pub struct AlgoAnalysis {
    /// The algorithm.
    pub algo: Algorithm,
    /// Port model analyzed under.
    pub port: PortModel,
    /// Matrix dimension.
    pub n: usize,
    /// Node count.
    pub p: usize,
    /// The static analysis of the captured schedule.
    pub analysis: Analysis,
    /// The certificate's prediction here ([`AlgoCertificate::predict`]).
    pub predicted: Option<Overhead>,
    /// The measured cost judged against `predicted`, when the schedule
    /// is sound and a prediction exists.
    pub verdict: Option<Verdict>,
}

impl AlgoAnalysis {
    /// Sound, and not contradicted by its prediction.
    pub fn is_conformant(&self) -> bool {
        self.analysis.is_sound() && !matches!(self.verdict, Some(Verdict::Mismatch { .. }))
    }
}

/// An algorithm's symbolic certificate.
#[derive(Debug)]
pub struct AlgoCertificate {
    /// The algorithm.
    pub algo: Algorithm,
    /// Port model certified under.
    pub port: PortModel,
    /// Composed closed form (absent for parametric families).
    pub cost: Option<SymCost>,
    /// The Table 2 row compared against, when one exists.
    pub table: Option<SymOverhead>,
    /// Applicability conditions inherited from the table row.
    pub conditions: Vec<&'static str>,
    /// The proof obligations, in discharge order.
    pub obligations: Vec<Obligation>,
    policy: Policy,
}

impl AlgoCertificate {
    /// Did every obligation discharge?
    pub fn ok(&self) -> bool {
        self.obligations.iter().all(|o| o.ok)
    }

    /// The `(a, b)` a run at `(n, p)` must measure: the composed closed
    /// form times the policy factor. `None` for parametric families and
    /// outside the row's side conditions. Runs no captures.
    pub fn predict(&self, n: usize, p: usize) -> Option<Overhead> {
        let cost = self.cost.as_ref()?;
        if self.algo == Algorithm::All3d
            && self.port == PortModel::MultiPort
            && !all3d_mp_compliant(n, p)
        {
            return None;
        }
        let (n, d) = (n as f64, f64::from(p.trailing_zeros()));
        let f = self.policy.factor();
        Some(Overhead {
            a: f * cost.a.eval(n, d),
            b: f * cost.b.eval(n, d),
        })
    }

    /// Captures `(n, p)`, checks the schedule, and judges its measured
    /// `(a, b)` against [`predict`](Self::predict).
    pub fn analyze(&self, n: usize, p: usize) -> Result<AlgoAnalysis, String> {
        let analysis = check_capture(self.algo, n, p, self.port)?;
        let predicted = self.predict(n, p);
        let verdict = match (analysis.is_sound(), analysis.cost, predicted) {
            (true, Some(cost), Some(pred)) => Some(judge(pred, cost.a, cost.b)),
            _ => None,
        };
        Ok(AlgoAnalysis {
            algo: self.algo,
            port: self.port,
            n,
            p,
            analysis,
            predicted,
            verdict,
        })
    }
}

/// Captures, checks, and judges one `(algorithm, n, p, port)` point
/// against its certificate's prediction.
pub fn analyze_algorithm(
    algo: Algorithm,
    n: usize,
    p: usize,
    port: PortModel,
) -> Result<AlgoAnalysis, String> {
    compose_algorithm(algo, port).analyze(n, p)
}

fn render_global(p: &Poly) -> String {
    p.render("n", "p", "log p")
}

/// The All3d multi-port row is the table's large-message regime; its
/// side condition in (n, p, d).
fn all3d_mp_compliant(n: usize, p: usize) -> bool {
    let d = f64::from((p as u32).trailing_zeros());
    ((n * n) as f64) >= (p as f64) * (p as f64).cbrt() * (d / 3.0).max(1.0)
}

/// Grounds a certificate against real captured runs at the first and
/// last applicable grid points: each must be sound and, where the
/// certificate predicts, judged exact or within slice granularity.
fn ground_algorithm(cert: &AlgoCertificate) -> Obligation {
    let points = applicable_grid(cert.algo);
    let stmt = "captured runs match the symbolic prediction at sampled grid points".to_string();
    let mut sample: Vec<(usize, usize)> = Vec::new();
    sample.extend(points.first().copied());
    if points.len() > 1 {
        sample.extend(points.last().copied());
    }
    let mut judged = Vec::new();
    for (n, p) in sample {
        if cert.cost.is_some() && cert.predict(n, p).is_none() {
            continue; // outside the row's side conditions
        }
        let r = match cert.analyze(n, p) {
            Ok(r) => r,
            Err(e) => return Obligation::fail("grounding", stmt, e),
        };
        if !r.is_conformant() {
            let why = r
                .verdict
                .map_or_else(|| "unsound schedule".to_string(), |v| v.to_string());
            return Obligation::fail("grounding", stmt, format!("(n={n}, p={p}): {why}"));
        }
        judged.push(match r.verdict {
            Some(v) => format!("(n={n}, p={p}) {v}"),
            None => format!("(n={n}, p={p})"),
        });
    }
    if judged.is_empty() {
        return Obligation::fail("grounding", stmt, "no applicable grid point".into());
    }
    let how = match (&cert.cost, cert.policy.factor()) {
        (None, _) => "sound, with no closed form to judge against".to_string(),
        (Some(_), f) if f != 1.0 => format!("judged against {f} × the closed form"),
        (Some(_), _) => "judged against the closed form".to_string(),
    };
    Obligation::pass(
        "grounding",
        stmt,
        format!("captured runs {how}: {}", judged.join("; ")),
    )
}

/// An algorithm certificate's symbolic half: composes its schema into a
/// closed form and compares it against the Table 2 row under the
/// policy. Runs no captures; [`certify_algorithm`] adds the grounding.
pub fn compose_algorithm(algo: Algorithm, port: PortModel) -> AlgoCertificate {
    let schema = (algo.descriptor().schema)();
    let pol = policy(algo, port);
    let table = pol.row().and_then(|m| overhead_sym(m, port));
    let conditions = table
        .as_ref()
        .map(|t| t.conditions.clone())
        .unwrap_or_default();
    let mut obligations = Vec::new();

    let cost = match (&schema.form, algo_cost_sym(&schema, port)) {
        (SchemaForm::Family { note }, _) => {
            obligations.push(Obligation::pass(
                "closed-form",
                "the structure is parametric, not a single-variable closed form".into(),
                format!("{note}; certified at concrete points only (documented in DESIGN.md §15)"),
            ));
            None
        }
        (_, Ok(c)) => {
            obligations.push(Obligation::pass(
                "composition",
                format!(
                    "phases compose to a = {}, b = {}",
                    render_global(&c.a),
                    render_global(&c.b)
                ),
                "serial phases add; fused multi-port phases resolved by monomial dominance".into(),
            ));
            Some(c)
        }
        (_, Err(e)) => {
            obligations.push(Obligation::fail(
                "composition",
                "phases compose to a closed form".into(),
                e,
            ));
            None
        }
    };

    if let Some(cost) = &cost {
        let equal = |t: &SymOverhead| cost.a == t.a && cost.b == t.b;
        let (stmt, holds, detail) = match (pol, &table) {
            (Policy::Table(_), Some(t)) => (
                format!(
                    "composed (a, b) formally equals the Table 2 row \
                     (a = {}, b = {})",
                    render_global(&t.a),
                    render_global(&t.b)
                ),
                equal(t),
                "equal as formal polynomials — hence equal for every p = 2^d".to_string(),
            ),
            (Policy::Scaled(_), Some(t)) => (
                format!(
                    "composed (a, b) formally equals the Table 2 row; the \
                     implementation's broadcast-axis overlap runs it at \
                     {} × the row (documented deviation)",
                    pol.factor()
                ),
                equal(t),
                "row equality is formal; the factor is grounded below".to_string(),
            ),
            (Policy::AtLeast(m), Some(t)) => (
                format!(
                    "stepping stone: composed (a, b) dominates the {} row it refines",
                    m.name()
                ),
                dominates(&cost.a, &t.a, schema.divides)
                    && dominates(&cost.b, &t.b, schema.divides),
                format!(
                    "a − a' = {}, b − b' = {}: non-negative for every valid d \
                     by monomial dominance",
                    render_global(&cost.a.sub(&t.a)),
                    render_global(&cost.b.sub(&t.b))
                ),
            ),
            (Policy::NoRow, _) | (_, None) => (
                "no Table 2 row for this algorithm/port".to_string(),
                true,
                format!(
                    "the certificate is the derived closed form a = {}, b = {}, \
                     grounded against measured runs",
                    render_global(&cost.a),
                    render_global(&cost.b)
                ),
            ),
        };
        obligations.push(if holds {
            Obligation::pass("table-2", stmt, detail)
        } else if matches!(pol, Policy::AtLeast(_)) {
            Obligation::fail("table-2", stmt, "dominance not established".into())
        } else {
            Obligation::fail(
                "table-2",
                stmt,
                format!(
                    "composed a = {}, b = {}",
                    render_global(&cost.a),
                    render_global(&cost.b)
                ),
            )
        });
    }

    AlgoCertificate {
        algo,
        port,
        cost,
        table,
        conditions,
        obligations,
        policy: pol,
    }
}

/// Certifies one registry algorithm under `port`: composes its schema
/// into a closed form, compares it symbolically against the Table 2
/// row under the conformance policy, and grounds it against real
/// captured runs.
pub fn certify_algorithm(algo: Algorithm, port: PortModel) -> AlgoCertificate {
    let mut cert = compose_algorithm(algo, port);
    let grounding = ground_algorithm(&cert);
    cert.obligations.push(grounding);
    cert
}

fn render_obligations(f: &mut std::fmt::Formatter<'_>, obs: &[Obligation]) -> std::fmt::Result {
    for o in obs {
        let mark = if o.ok { "✓" } else { "✗" };
        writeln!(f, "  {mark} {:<14} {}", o.name, o.statement)?;
        writeln!(f, "      {}", o.detail)?;
    }
    Ok(())
}

impl std::fmt::Display for CollCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok() { "CERTIFIED" } else { "FAILED" };
        writeln!(
            f,
            "collective {} [{}] — {verdict} for all δ ≥ 1",
            self.kind.name(),
            match self.port {
                PortModel::OnePort => "one-port",
                PortModel::MultiPort => "multi-port",
            }
        )?;
        writeln!(
            f,
            "  a = {}   b = {}",
            self.cost.a.render("m", "N", "δ"),
            self.cost.b.render("m", "N", "δ")
        )?;
        render_obligations(f, &self.obligations)
    }
}

impl std::fmt::Display for AlgoCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok() { "CERTIFIED" } else { "FAILED" };
        writeln!(
            f,
            "algorithm {} [{}] — {verdict} for every applicable p = 2^d",
            self.algo.name(),
            match self.port {
                PortModel::OnePort => "one-port",
                PortModel::MultiPort => "multi-port",
            }
        )?;
        if let Some(cost) = &self.cost {
            writeln!(
                f,
                "  a = {}   b = {}",
                render_global(&cost.a),
                render_global(&cost.b)
            )?;
        }
        for c in &self.conditions {
            writeln!(f, "  condition: {c}")?;
        }
        render_obligations(f, &self.obligations)
    }
}

/// Certifies all 14 registry algorithms under both port models: the
/// all-algorithms half of the symbolic gate.
pub fn certify_all_algorithms() -> Vec<AlgoCertificate> {
    let mut out = Vec::new();
    for desc in cubemm_core::registry::DESCRIPTORS {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            out.push(certify_algorithm(desc.algo, port));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sym_matches_numeric_table() {
        for coll in CollKind::ALL {
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                let sym = table1_sym(coll, port);
                for d in 1u32..=10 {
                    for m in [12usize, 60] {
                        let (na, nb) = crate::collectives::table1(coll, port, d, m);
                        let (sa, sb) = (
                            sym.a.eval(m as f64, f64::from(d)),
                            sym.b.eval(m as f64, f64::from(d)),
                        );
                        assert!(
                            (sa - na).abs() < 1e-6 && (sb - nb).abs() < 1e-6,
                            "{coll:?} {port:?} d={d} m={m}: sym ({sa}, {sb}) vs num ({na}, {nb})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reference_schemas_certify() {
        for cert in certify_all_collectives() {
            assert!(
                cert.ok(),
                "{:?} {:?} failed: {:?}",
                cert.kind,
                cert.port,
                cert.obligations
                    .iter()
                    .filter(|o| !o.ok)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn expansion_matches_plans_with_nonzero_root() {
        for kind in CollKind::ALL {
            let schema = CollSchema::reference(kind);
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                // Certificates expand at root 0 only; nonzero roots
                // are grounded against real traced runs.
                let root = 5;
                let expansion = expand_collective(&schema, port, 3, 12, 0, root);
                let traced = captured_collective(kind, port, 3, 12, root).unwrap();
                diff_schedules(&expansion, &traced, true).unwrap_or_else(|e| {
                    panic!("{kind:?} {port:?} root {root}: {e}");
                });
            }
        }
    }

    #[test]
    fn all_registry_algorithms_certify() {
        for cert in certify_all_algorithms() {
            assert!(
                cert.ok(),
                "{:?} {:?} failed: {:#?}",
                cert.algo,
                cert.port,
                cert.obligations
                    .iter()
                    .filter(|o| !o.ok)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// Registry-coverage lint (CI's `registry_coverage` step): every
    /// registered algorithm must carry a symbolic schema, and every
    /// algorithm the conformance layer judges against a Table 2 row
    /// (Table / Scaled / AtLeast) must provide a *closed-form*
    /// composition — a `Family` escape hatch there would silently turn
    /// the for-all-d proof back into grid spot-checks.
    #[test]
    fn registry_coverage_every_descriptor_has_schema_and_policy() {
        use cubemm_core::SchemaForm;
        for desc in cubemm_core::registry::DESCRIPTORS {
            let schema = (desc.schema)();
            assert_eq!(
                schema.algo, desc.algo,
                "descriptor {:?} wired to the wrong schema",
                desc.algo
            );
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                let pol = policy(desc.algo, port);
                if !matches!(pol, Policy::NoRow) {
                    assert!(
                        matches!(schema.form, SchemaForm::Closed(_)),
                        "{:?} has a Table 2 conformance row under {port:?} but no \
                         closed-form schema: its certificate would not be parametric",
                        desc.algo
                    );
                }
            }
        }
        // And the registry itself is complete: every Algorithm variant
        // appears exactly once.
        let mut seen: Vec<Algorithm> = cubemm_core::registry::DESCRIPTORS
            .iter()
            .map(|d| d.algo)
            .collect();
        seen.dedup();
        assert_eq!(
            seen.len(),
            Algorithm::ALL.len() + Algorithm::EXTENSIONS.len(),
            "registry misses or duplicates an algorithm"
        );
    }

    #[test]
    fn off_by_one_round_schema_is_rejected() {
        let mut schema = CollSchema::reference(CollKind::Bcast);
        schema.rounds_skew = 1;
        let cert = certify_collective(&schema, PortModel::OnePort);
        assert!(!cert.ok());
        let names: Vec<&str> = cert
            .obligations
            .iter()
            .filter(|o| !o.ok)
            .map(|o| o.name)
            .collect();
        assert!(names.contains(&"rounds"), "failed: {names:?}");
        // The claimed extra round ships nothing: grounding fails too.
        assert!(names.contains(&"fifo-deadlock"), "failed: {names:?}");
    }

    #[test]
    fn wrong_volume_polynomial_is_rejected() {
        let mut schema = CollSchema::reference(CollKind::Allgather);
        // Claim constant volume instead of the 2^r doubling.
        schema.vol = cubemm_collectives::VolSchema::ONE;
        let cert = certify_collective(&schema, PortModel::OnePort);
        assert!(!cert.ok());
        assert!(
            cert.obligations.iter().any(|o| o.name == "cost-b" && !o.ok),
            "cost-b should fail: {:?}",
            cert.obligations
        );
    }
}
