//! Randomized round-trip coverage for the fault-plan JSON encoding.
//!
//! The `faults.rs` suite pins one representative plan; these tests are
//! the workspace's in-tree "proptest" idiom (seeded splitmix64
//! generators, no external crates): hundreds of structurally random
//! plans — every fault family including crash-at-step and both
//! corruption kinds — must survive `to_json` → `from_json` exactly,
//! and a re-encode must be byte-identical (the encoding is canonical
//! because the plan's internals are ordered maps).

use cubemm_simnet::{CorruptKind, Corruption, FaultEntry, FaultPlan};

/// Machine size the generated plans target (`dim = 4`).
const P: usize = 16;
const DIM: u32 = 4;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform pick in `0..bound`.
fn pick(state: &mut u64, bound: u64) -> u64 {
    splitmix64(state) % bound
}

/// A random directed hypercube edge of the `DIM`-cube.
fn edge(state: &mut u64) -> (usize, usize) {
    let a = pick(state, P as u64) as usize;
    let b = a ^ (1 << pick(state, u64::from(DIM)));
    (a, b)
}

/// Builds a random — but always valid for `P` nodes — fault plan with a
/// random mix of every fault family.
fn random_plan(state: &mut u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..pick(state, 3) {
        let (a, b) = edge(state);
        plan = plan.with_dead_link(a, b);
    }
    for _ in 0..pick(state, 3) {
        let (a, b) = edge(state);
        let tsf = 1.0 + pick(state, 100) as f64 / 8.0;
        let twf = 0.25 + pick(state, 100) as f64 / 16.0;
        plan = plan.with_degraded_link(a, b, tsf, twf);
    }
    for _ in 0..pick(state, 3) {
        let node = pick(state, P as u64) as usize;
        let slowdown = 1.0 + pick(state, 64) as f64 / 4.0;
        plan = plan.with_straggler(node, slowdown);
    }
    for _ in 0..pick(state, 4) {
        let (from, to) = edge(state);
        plan = plan.with_drop(from, to, pick(state, 8));
    }
    for _ in 0..pick(state, 4) {
        let (from, to) = edge(state);
        let word = pick(state, 512) as usize;
        let kind = if pick(state, 2) == 0 {
            CorruptKind::BitFlip {
                bit: pick(state, 64) as u32,
            }
        } else {
            // Halves keep the delta exactly representable, so the f64
            // text round-trip cannot blur it.
            CorruptKind::Perturb {
                delta: pick(state, 256) as f64 / 2.0 + 0.5,
            }
        };
        plan = plan.with_corruption(from, to, pick(state, 6), Corruption { word, kind });
    }
    for _ in 0..pick(state, 3) {
        let node = pick(state, P as u64) as usize;
        plan = plan.with_crash(node, pick(state, 10));
    }
    if pick(state, 2) == 0 {
        plan = plan.strict();
    }
    plan
}

#[test]
fn random_plans_round_trip_exactly() {
    let mut state = 0x5eed_0001u64;
    for case in 0..300 {
        let plan = random_plan(&mut state);
        assert!(plan.validate(P).is_ok(), "case {case}: generator broke");
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap_or_else(|e| {
            panic!("case {case}: decode failed: {e}\n{text}");
        });
        assert_eq!(back, plan, "case {case}: round trip changed the plan");
        // Canonical encoding: encode(decode(encode(p))) == encode(p).
        assert_eq!(back.to_json(), text, "case {case}: re-encode differs");
    }
}

#[test]
fn round_trip_preserves_crash_and_corruption_queries() {
    // Queries — not just equality — must survive: the recovery loop
    // steers by `crash_step` and `corrupts_nth` on decoded plans.
    let mut state = 0xdead_beefu64;
    for _ in 0..100 {
        let plan = random_plan(&mut state);
        let back = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        for node in 0..P {
            assert_eq!(back.crash_step(node), plan.crash_step(node));
        }
        for entry in plan.entries() {
            match *entry {
                FaultEntry::Corrupt {
                    from,
                    to,
                    seq,
                    corruption,
                } => assert_eq!(back.corrupts_nth(from, to, seq), Some(corruption)),
                FaultEntry::Drop { from, to, seq } => assert!(back.drops_nth(from, to, seq)),
                _ => {}
            }
        }
        assert_eq!(back.is_strict(), plan.is_strict());
    }
}

/// One plan per fault family (a windowed degradation included), the
/// strict flag alone, and the empty plan.
fn family_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::new().with_dead_link(0, 1),
        FaultPlan::new().with_degraded_link(2, 3, 2.5, 4.0),
        FaultPlan::new().with_degraded_link_window(6, 7, 1.5, 3.0, 2, 9),
        FaultPlan::new().with_straggler(5, 3.0),
        FaultPlan::new().with_drop(1, 3, 2),
        FaultPlan::new().with_corruption(
            0,
            4,
            1,
            Corruption {
                word: 7,
                kind: CorruptKind::BitFlip { bit: 63 },
            },
        ),
        FaultPlan::new().with_corruption(
            4,
            5,
            0,
            Corruption {
                word: 0,
                kind: CorruptKind::Perturb { delta: -64.0 },
            },
        ),
        FaultPlan::new().with_crash(6, 9),
        FaultPlan::new().strict(),
        FaultPlan::new(),
    ]
}

#[test]
fn every_single_fault_family_round_trips_alone() {
    // One plan per family, so a format regression names its culprit.
    for (i, plan) in family_plans().iter().enumerate() {
        let back = FaultPlan::from_json(&plan.to_json())
            .unwrap_or_else(|e| panic!("family {i}: decode failed: {e}"));
        assert_eq!(&back, plan, "family {i}");
    }
}

/// The wire format, pinned: `golden/faultplans.txt` holds `to_json` of
/// 40 seeded random plans and then [`family_plans`], one per line, as
/// encoded when the corpus was written. Both directions must hold byte
/// for byte.
#[test]
fn golden_corpus_is_reproduced_byte_for_byte() {
    let mut state = 0x601d_f00d_u64;
    let mut plans: Vec<FaultPlan> = (0..40).map(|_| random_plan(&mut state)).collect();
    plans.extend(family_plans());
    let golden = include_str!("golden/faultplans.txt");
    assert_eq!(golden.lines().count(), plans.len());
    for (i, (plan, line)) in plans.iter().zip(golden.lines()).enumerate() {
        assert_eq!(plan.to_json(), line, "plan {i}: encoding moved");
        let back = FaultPlan::from_json(line).unwrap_or_else(|e| panic!("plan {i}: {e}"));
        assert_eq!(&back, plan, "plan {i}: decoding moved");
    }
}
