//! Phase-level symbolic schemas of the multiplication algorithms.
//!
//! Each registry algorithm declares *what it does per phase* — which
//! collective on which subcube fraction with which unit size, or which
//! explicit shift/route pattern — as data over the dimension variable
//! `d`, with sizes as exact polynomials in `n` and `2^d` (the
//! [`cubemm_model::sym::Poly`] basis). The analyze crate composes these
//! into closed-form `(a, b)` certificates valid for **every** `p = 2^d`
//! the algorithm accepts, compares them symbolically against Table 2,
//! and grounds them against captured runs; this module only *states*
//! the schemas, next to the code they describe.
//!
//! Conventions: the size variable `v` is the matrix order `n`;
//! `x = 2^(d/12)` encodes node-count powers (`x¹² = p`, `x⁶ = √p`,
//! `x⁴ = ∛p`). A `Coll` phase's `unit` is the collective's Table 1
//! message unit (per-part length for the personalized shapes, the whole
//! message otherwise). `Fused` phases run their streams through
//! `execute_fused` over pairwise-disjoint dimension sets: one-port they
//! serialize, multi-port they overlap (the slowest stream is the phase).
//! `Shift` phases declare their moves and volume per round — these are
//! the Cannon family's shift rounds (skews, ring shifts, grouped shifts)
//! whose structure is a round count, not a collective; the analyze crate
//! derives their per-port cost.

use cubemm_collectives::CollKind;
use cubemm_model::sym::{Poly, Rat};

use crate::Algorithm;

/// The Table 1 unit `n²/p` (a block of the `p`-way partition).
pub fn unit_np() -> Poly {
    Poly::term(Rat::ONE, 2, -12, 0)
}

/// The unit `n²/p^(2/3)` (a block of the `p^(2/3)`-way partition).
pub fn unit_np23() -> Poly {
    Poly::term(Rat::ONE, 2, -8, 0)
}

/// The unit `n²/√p` (a column/row group of the `√p`-way partition).
pub fn unit_nsqrtp() -> Poly {
    Poly::term(Rat::ONE, 2, -6, 0)
}

/// The unit `n²/(p·∛p)` (a row group of a `p^(2/3)`-way block).
pub fn unit_np43() -> Poly {
    Poly::term(Rat::ONE, 2, -16, 0)
}

/// `√p − 1` rounds (ring length minus one).
pub fn sqrtp_minus_1() -> Poly {
    Poly::p_pow(1, 2).sub(&Poly::int(1))
}

/// `∛p − 1` rounds.
pub fn cbrtp_minus_1() -> Poly {
    Poly::p_pow(1, 3).sub(&Poly::int(1))
}

/// One collective invocation on a `d/sub`-dimensional subcube.
#[derive(Debug, Clone)]
pub struct CollPhase {
    /// Which collective.
    pub kind: CollKind,
    /// The subcube holds `d/sub` of the cube's dimensions.
    pub sub: u32,
    /// The Table 1 message unit as a polynomial in `(n, 2^d)`.
    pub unit: Poly,
}

/// One phase of an algorithm's communication structure.
#[derive(Debug, Clone)]
pub enum Phase {
    /// A single collective, `repeat` times in sequence.
    Coll {
        /// The collective invocation.
        coll: CollPhase,
        /// How many times it runs back-to-back (`1` almost always;
        /// Fox broadcasts once per ring step).
        repeat: Poly,
        /// Phase name for certificates.
        label: &'static str,
    },
    /// Collectives fused over pairwise-disjoint dimension sets: one-port
    /// serializes them, multi-port runs them concurrently on separate
    /// links (the phase costs as much as its slowest stream).
    Fused {
        /// The fused streams. All must share `sub` (they split one
        /// cube into disjoint dimension sets of equal size).
        streams: Vec<CollPhase>,
        /// Phase name for certificates.
        label: &'static str,
    },
    /// A shift loop (skew, ring shift, grouped shift): `rounds` shift
    /// rounds, each sending `moves` blocks of `vol` words per node to
    /// pairwise-distinct neighbors. One-port serializes the moves;
    /// multi-port overlaps them on their distinct links.
    /// `note` records the structural justification the numbers encode.
    Shift {
        /// Iteration count.
        rounds: Poly,
        /// Blocks each node sends per round.
        moves: Poly,
        /// Words per move.
        vol: Poly,
        /// Why the moves and volumes are what they are.
        note: &'static str,
        /// Phase name for certificates.
        label: &'static str,
    },
    /// A routed point-to-point lift across a `d/sub`-dimensional
    /// subcube (cut-through: `δ` start-ups worst case; one-port pays
    /// the volume per hop, multi-port pipelines it).
    Routed {
        /// The route spans `d/sub` dimensions.
        sub: u32,
        /// Words carried per node.
        vol: Poly,
        /// Phase name for certificates.
        label: &'static str,
    },
}

/// How completely an algorithm's structure is expressible in the
/// symbolic IR.
#[derive(Debug, Clone)]
pub enum SchemaForm {
    /// A closed phase list over the single dimension variable `d`.
    Closed(Vec<Phase>),
    /// The structure depends on a parametric split of `d` chosen per
    /// `(n, p)` (supernode mesh factors); no single-variable closed
    /// form exists. Certified numerically at concrete points only.
    Family {
        /// What varies and why.
        note: &'static str,
    },
}

/// An algorithm's symbolic schema: divisibility of `d` plus its phase
/// structure.
#[derive(Debug, Clone)]
pub struct AlgoSchema {
    /// The algorithm described.
    pub algo: Algorithm,
    /// Valid dimensions satisfy `sub | d` (grid shape): 2 for `√p`
    /// grids, 3 for `∛p` cubes, 1 for the parametric families.
    pub divides: u32,
    /// The phase structure.
    pub form: SchemaForm,
}

fn coll(kind: CollKind, sub: u32, unit: Poly, label: &'static str) -> Phase {
    Phase::Coll {
        coll: CollPhase { kind, sub, unit },
        repeat: Poly::int(1),
        label,
    }
}

/// Cannon-style paired skew/shift: two streams (A and B) over disjoint
/// dimension sets, `vol` words each per round.
fn paired_shift(rounds: Poly, vol: Poly, note: &'static str, label: &'static str) -> Phase {
    Phase::Shift {
        rounds,
        moves: Poly::int(2),
        vol,
        note,
        label,
    }
}

/// The symbolic schema of `algo`.
pub fn schema(algo: Algorithm) -> AlgoSchema {
    let m = unit_np();
    let form = match algo {
        Algorithm::Simple => SchemaForm::Closed(vec![Phase::Fused {
            streams: vec![
                CollPhase {
                    kind: CollKind::Allgather,
                    sub: 2,
                    unit: m.clone(),
                },
                CollPhase {
                    kind: CollKind::Allgather,
                    sub: 2,
                    unit: m,
                },
            ],
            label: "row/column all-to-all broadcasts",
        }]),
        Algorithm::Cannon => SchemaForm::Closed(vec![
            paired_shift(
                Poly::d().scale(Rat::new(1, 2)),
                m.clone(),
                "XOR alignment: one A exchange (column bits) and one B exchange \
                 (row bits) per axis bit, disjoint dimension sets",
                "skew",
            ),
            paired_shift(
                sqrtp_minus_1(),
                m,
                "ring shift: A left one grid column, B up one grid row per step, \
                 disjoint dimension sets",
                "shift-multiply",
            ),
        ]),
        Algorithm::Hje => SchemaForm::Closed(vec![
            paired_shift(
                Poly::d().scale(Rat::new(1, 2)),
                m.clone(),
                "XOR alignment exactly as Cannon's",
                "skew",
            ),
            Phase::Shift {
                rounds: sqrtp_minus_1(),
                // log √p = d/2 A groups + d/2 B groups per step, each of
                // 2m/d words.
                moves: Poly::d(),
                vol: m.scale(Rat::int(2)).mul(&Poly::term(Rat::ONE, 0, 0, -1)),
                note: "grouped shifts: block split log √p ways; group l shifts on \
                       schedule bit g_{l,k}, pairwise-distinct links per step",
                label: "grouped shift-multiply",
            },
        ]),
        Algorithm::Berntsen => SchemaForm::Closed(vec![
            paired_shift(
                Poly::d().scale(Rat::new(1, 3)),
                m.clone(),
                "Cannon skew within each ∛p-node subcube (d/3 axis bits)",
                "subcube skew",
            ),
            paired_shift(
                cbrtp_minus_1(),
                m.clone(),
                "Cannon shifts within each subcube ring of length ∛p",
                "subcube shift-multiply",
            ),
            coll(
                CollKind::ReduceScatter,
                3,
                m,
                "all-to-all reduction across subcubes",
            ),
        ]),
        Algorithm::Dns => SchemaForm::Closed(vec![
            Phase::Routed {
                sub: 3,
                vol: unit_np23(),
                label: "lift A to its plane",
            },
            Phase::Routed {
                sub: 3,
                vol: unit_np23(),
                label: "lift B to its plane",
            },
            Phase::Fused {
                streams: vec![
                    CollPhase {
                        kind: CollKind::Bcast,
                        sub: 3,
                        unit: unit_np23(),
                    },
                    CollPhase {
                        kind: CollKind::Bcast,
                        sub: 3,
                        unit: unit_np23(),
                    },
                ],
                label: "broadcast A along y, B along x",
            },
            coll(
                CollKind::Reduce,
                3,
                unit_np23(),
                "reduce partial products along z",
            ),
        ]),
        Algorithm::Diag2d => SchemaForm::Closed(vec![
            coll(
                CollKind::Bcast,
                2,
                unit_nsqrtp(),
                "broadcast A column group down the processor column",
            ),
            coll(
                CollKind::Scatter,
                2,
                m.clone(),
                "scatter B row group down the processor column",
            ),
            coll(
                CollKind::Reduce,
                2,
                unit_nsqrtp(),
                "reduce outer-product slices along the row",
            ),
        ]),
        Algorithm::Diag3d => SchemaForm::Closed(vec![
            Phase::Routed {
                sub: 3,
                vol: unit_np23(),
                label: "route B blocks to the diagonal plane",
            },
            Phase::Fused {
                streams: vec![
                    CollPhase {
                        kind: CollKind::Bcast,
                        sub: 3,
                        unit: unit_np23(),
                    },
                    CollPhase {
                        kind: CollKind::Bcast,
                        sub: 3,
                        unit: unit_np23(),
                    },
                ],
                label: "broadcast A along x, B along z",
            },
            coll(
                CollKind::Reduce,
                3,
                unit_np23(),
                "reduce partial products along y",
            ),
        ]),
        Algorithm::AllTrans3d => SchemaForm::Closed(vec![
            coll(CollKind::Gather, 3, m.clone(), "gather B rows along x"),
            Phase::Fused {
                streams: vec![
                    CollPhase {
                        kind: CollKind::Allgather,
                        sub: 3,
                        unit: m.clone(),
                    },
                    CollPhase {
                        kind: CollKind::Bcast,
                        sub: 3,
                        unit: unit_np23(),
                    },
                ],
                label: "all-gather A along x, broadcast B bundle along z",
            },
            coll(
                CollKind::ReduceScatter,
                3,
                m,
                "all-to-all reduction along y",
            ),
        ]),
        Algorithm::All3d => SchemaForm::Closed(vec![
            coll(
                CollKind::Alltoall,
                3,
                unit_np43(),
                "all-to-all personalized B redistribution along y",
            ),
            Phase::Fused {
                streams: vec![
                    CollPhase {
                        kind: CollKind::Allgather,
                        sub: 3,
                        unit: m.clone(),
                    },
                    CollPhase {
                        kind: CollKind::Allgather,
                        sub: 3,
                        unit: m.clone(),
                    },
                ],
                label: "all-gather A along x, B along z",
            },
            coll(
                CollKind::ReduceScatter,
                3,
                m,
                "all-to-all reduction along y",
            ),
        ]),
        Algorithm::CannonTorus => SchemaForm::Closed(vec![
            paired_shift(
                sqrtp_minus_1(),
                m.clone(),
                "torus alignment: unit ring rotations, row i for i rounds \
                 (critical path √p − 1); A row-wise and B column-wise on \
                 disjoint ring links",
                "torus alignment",
            ),
            paired_shift(
                sqrtp_minus_1(),
                m,
                "unit ring shifts between multiplies (Gray-ring neighbors)",
                "shift-multiply",
            ),
        ]),
        Algorithm::Fox => SchemaForm::Closed(vec![
            Phase::Coll {
                coll: CollPhase {
                    kind: CollKind::Bcast,
                    sub: 2,
                    unit: unit_np(),
                },
                repeat: Poly::p_pow(1, 2),
                label: "one A broadcast along the row per ring step",
            },
            Phase::Shift {
                rounds: sqrtp_minus_1(),
                moves: Poly::int(1),
                vol: unit_np(),
                note: "single B roll up the column ring per step",
                label: "roll B",
            },
        ]),
        Algorithm::DnsCannon => SchemaForm::Family {
            note: "DNS over a supernode mesh whose per-axis bit split is chosen \
                   per (n, p) by default_mesh_bits; the phase structure is \
                   parametric in the split, not in d alone",
        },
        Algorithm::All3dCannon => SchemaForm::Family {
            note: "3-D All over a supernode mesh whose per-axis bit split is \
                   chosen per (n, p) by default_mesh_bits; parametric in the \
                   split, not in d alone",
        },
        Algorithm::All3dFlat => SchemaForm::Family {
            note: "flat p^(1/4) × p^(1/4) × √p grid requires 4 | d and overlaps \
                   phases on its critical path (measured 5·log g, not the \
                   phase-sum 6·log g); certified numerically",
        },
    };
    let divides = match algo {
        Algorithm::Simple
        | Algorithm::Cannon
        | Algorithm::Hje
        | Algorithm::CannonTorus
        | Algorithm::Fox
        | Algorithm::Diag2d => 2,
        Algorithm::Berntsen
        | Algorithm::Dns
        | Algorithm::Diag3d
        | Algorithm::AllTrans3d
        | Algorithm::All3d => 3,
        Algorithm::DnsCannon | Algorithm::All3dCannon | Algorithm::All3dFlat => 1,
    };
    AlgoSchema {
        algo,
        divides,
        form,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_has_a_schema() {
        for desc in crate::registry::DESCRIPTORS {
            let s = (desc.schema)();
            assert_eq!(s.algo, desc.algo);
            match s.form {
                SchemaForm::Closed(phases) => assert!(!phases.is_empty()),
                SchemaForm::Family { note } => assert!(!note.is_empty()),
            }
        }
    }

    #[test]
    fn fused_streams_share_their_subcube_split() {
        for desc in crate::registry::DESCRIPTORS {
            if let SchemaForm::Closed(phases) = (desc.schema)().form {
                for phase in phases {
                    if let Phase::Fused { streams, label } = phase {
                        assert!(streams.len() >= 2, "{label}: fused needs 2+ streams");
                        assert!(
                            streams.iter().all(|s| s.sub == streams[0].sub),
                            "{label}: fused streams must split the cube evenly"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn closed_forms_cover_the_non_parametric_algorithms() {
        for desc in crate::registry::DESCRIPTORS {
            let parametric = matches!(
                desc.algo,
                Algorithm::DnsCannon | Algorithm::All3dCannon | Algorithm::All3dFlat
            );
            match (desc.schema)().form {
                SchemaForm::Closed(_) => assert!(!parametric, "{}", desc.name),
                SchemaForm::Family { .. } => assert!(parametric, "{}", desc.name),
            }
        }
    }
}
