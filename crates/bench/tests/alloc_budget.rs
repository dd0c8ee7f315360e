//! The zero-copy data path, guarded as an exact count.
//!
//! Heap allocations are deterministic on a one-shard machine (p = 64
//! never shards), so "a delivered packet costs no allocation of its own" can
//! be asserted without a timer. Each collective runs on one 64-node row
//! with 16-word blocks; the budget is allocations per delivered packet
//! (a packet counts once per hop), everything included — machine
//! spin-up, node futures, runs, stores, mailboxes, bundles, results.
//! Cannon's algorithm, the shift-heavy end of the comparison, HJE and
//! torus-form Cannon, which run the same shift round, and 3-D All, the
//! collective-heavy end, are guarded the same way per delivered message
//! (see their tests below).
//!
//! What the budgets pin: a received bundle is stored whole (no
//! allocation), a bundle is one allocation however many packets it
//! carries, a round is read off its schema with no per-node plan
//! compiled first, a collective's batch and result vectors and a
//! multi-port batch's link clocks are buffers the node reuses, and the
//! packet store grows with the bundles a node holds.

use cubemm_bench::alloc_count::{allocations_during, peak_bytes_during, CountingAlloc};
use cubemm_bench::rows::{self, RowCollective};
use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_simnet::{CostParams, Machine, PortModel};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const P: usize = 64;
const WORDS: usize = 16;
const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

/// Allocations per delivered packet, in hundredths: what the data path
/// measures now plus 10–20 % headroom, so one new allocation per round
/// or per node passes and one per packet does not. (Scatter and gather
/// deliver few packets per node — 3 on average one-port — so their
/// figure is mostly the per-node fixed cost of a run.)
///
/// Measured with a packet store of one entry per packet and a fresh
/// batch per round, in the order of the match below: 0.44, 0.32, 0.40,
/// 0.14, 4.30, 1.30, 4.03, 1.24, 0.14, 0.10; with a compiled per-node
/// plan before that: 0.73, 0.58, 0.68, 0.40, 5.61, 2.29, 5.17, 2.27,
/// 0.23, 0.20 (and before the zero-copy path: 5.84, 1.97, 5.82, 1.47,
/// 10.96, 5.57, 10.81, 5.45, 3.05, 0.79). Now, with one entry per
/// bundle: 0.22, 0.11, 0.27, 0.13, 3.22, 0.79, 2.56, 0.66, 0.08, 0.04.
fn budget(kind: RowCollective, port: PortModel) -> u64 {
    match (kind, port) {
        (RowCollective::Allgather, PortModel::OnePort) => 26,
        (RowCollective::Allgather, PortModel::MultiPort) => 13,
        (RowCollective::ReduceScatter, PortModel::OnePort) => 31,
        (RowCollective::ReduceScatter, PortModel::MultiPort) => 14,
        (RowCollective::Scatter, PortModel::OnePort) => 370,
        (RowCollective::Scatter, PortModel::MultiPort) => 90,
        (RowCollective::Gather, PortModel::OnePort) => 300,
        (RowCollective::Gather, PortModel::MultiPort) => 78,
        (RowCollective::Alltoall, PortModel::OnePort) => 10,
        (RowCollective::Alltoall, PortModel::MultiPort) => 5,
    }
}

#[test]
fn allocations_per_delivered_packet_stay_within_budget() {
    let mut report = String::new();
    let mut over = Vec::new();
    for port in [PortModel::OnePort, PortModel::MultiPort] {
        let machine = Machine::builder(P)
            .port(port)
            .cost(COST)
            .build()
            .expect("valid test machine");
        for kind in RowCollective::ALL {
            let measure = || {
                let inputs = rows::inputs(kind, P, P, WORDS);
                allocations_during(|| rows::run(&machine, kind, P, 1, inputs))
            };
            let (stats, allocations) = measure();
            assert_eq!(
                stats.elapsed,
                kind.closed_form(COST, port, P, WORDS),
                "{} {port}: virtual time left Table 1",
                kind.name()
            );
            assert_eq!(
                measure().1,
                allocations,
                "{} {port}: allocation counts must repeat exactly",
                kind.name()
            );
            let packets = kind.delivered_packets(port, P, P) as u64;
            let per_packet = allocations * 100 / packets;
            report.push_str(&format!(
                "{:<15} {port:<10} {allocations:>6} allocations / {packets:>6} packets = {:>4}.{:02} (budget {}.{:02})\n",
                kind.name(),
                per_packet / 100,
                per_packet % 100,
                budget(kind, port) / 100,
                budget(kind, port) % 100,
            ));
            if per_packet > budget(kind, port) {
                over.push(format!("{} {port}", kind.name()));
            }
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over budget: {over:?}\n{report}");
}

/// Cannon on a 64-node machine (n = 64: an 8 × 8 grid of 8 × 8 blocks,
/// 7 shift steps after a 3-round skew), allocations per delivered
/// message in hundredths, everything included — partition, machine
/// spin-up, node futures, mailboxes, GEMMs, assembly. Budgets are the
/// current counts plus 10–20 %; what they pin is that a shifted block is
/// multiplied where it lands and forwarded by move (no `Matrix` ↔
/// payload copy per step) and that a queued message allocates nothing.
///
/// Measured with a fresh link-clock map per multi-port batch: 1.64
/// one-port (one-port batches never kept one), 2.19 multi-port; and
/// before the flat mailboxes, 3.84 and 4.38.
fn cannon_budget(port: PortModel) -> u64 {
    match port {
        PortModel::OnePort => 180,
        PortModel::MultiPort => 195,
    }
}

/// 3-D All on the same machine (a 4 × 4 × 4 grid: an all-gather, an
/// all-to-all and a reduce-scatter per node, fused where the algorithm
/// fuses them), the collective-heavy end of the comparison. Budgets are
/// the current counts plus 10–20 %; what they pin is that a collective
/// round is read off its schema as it runs, with no per-node plan
/// compiled first.
///
/// Measured with a compiled per-node plan: 10.92 one-port, 8.43
/// multi-port; before a finish joined consecutive windows without a
/// copy, 7.92 and 5.36; with a packet store of one entry per packet,
/// 7.92 and 5.18 (now, one entry per bundle, 5.29 and 3.55).
fn all3d_budget(port: PortModel) -> u64 {
    match port {
        PortModel::OnePort => 610,
        PortModel::MultiPort => 410,
    }
}

/// Runs `algo` at n = 64 on 64 nodes under both ports and checks its
/// allocations per delivered message against `budget`.
fn within_budget(algo: Algorithm, budget: fn(PortModel) -> u64) {
    let (n, p) = (64, 64);
    let (a, b) = (Matrix::random(n, n, 1), Matrix::random(n, n, 2));
    let mut report = String::new();
    let mut over = Vec::new();
    for port in [PortModel::OnePort, PortModel::MultiPort] {
        let cfg = MachineConfig::new(port, COST);
        let measure = || {
            allocations_during(|| {
                algo.multiply(&a, &b, p, &cfg)
                    .unwrap_or_else(|e| panic!("{algo} applies at n = 64, p = 64: {e}"))
            })
        };
        // The first multiply also fills per-thread caches (the packing
        // scratch pool, kernel dispatch), so count from the second on.
        let _ = measure();
        let (run, allocations) = measure();
        assert!(run.c.max_abs_diff(&cubemm_dense::gemm::reference(&a, &b)) <= 1e-12);
        assert_eq!(
            measure().1,
            allocations,
            "{algo} {port}: allocation counts must repeat exactly"
        );
        let messages = run.stats.total_messages() as u64;
        let per_message = allocations * 100 / messages;
        report.push_str(&format!(
            "{algo} {port:<10} {allocations:>6} allocations / {messages:>6} messages = {:>4}.{:02} (budget {}.{:02})\n",
            per_message / 100,
            per_message % 100,
            budget(port) / 100,
            budget(port) % 100,
        ));
        if per_message > budget(port) {
            over.push(format!("{algo} {port}"));
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over budget: {over:?}\n{report}");
}

#[test]
fn cannon_allocations_per_delivered_message_stay_within_budget() {
    within_budget(Algorithm::Cannon, cannon_budget);
}

#[test]
fn all3d_allocations_per_delivered_message_stay_within_budget() {
    within_budget(Algorithm::All3d, all3d_budget);
}

/// HJE on the same machine (3 column/row groups per block, so 6 group
/// moves per shift step). Budgets are the counts measured when the
/// Cannon family was moved onto one shift round (0.74 one-port, 0.79
/// multi-port) plus 10–20 %; what they pin is that a shift step is one
/// batch allocation however many groups it moves.
fn hje_budget(port: PortModel) -> u64 {
    match port {
        PortModel::OnePort => 85,
        PortModel::MultiPort => 90,
    }
}

/// Torus-form Cannon on the same machine (7 unit-shift alignment rounds
/// on the Gray ring, then 7 shift steps). Budgets are the counts measured
/// when the Cannon family was moved onto one shift round (1.59 one-port,
/// 1.63 multi-port) plus 10–20 %.
fn cannon_torus_budget(port: PortModel) -> u64 {
    match port {
        PortModel::OnePort => 185,
        PortModel::MultiPort => 190,
    }
}

#[test]
fn hje_allocations_per_delivered_message_stay_within_budget() {
    within_budget(Algorithm::Hje, hje_budget);
}

#[test]
fn cannon_torus_allocations_per_delivered_message_stay_within_budget() {
    within_budget(Algorithm::CannonTorus, cannon_torus_budget);
}

/// The most bytes a one-shard multiply of 3-D All and of Simple holds at
/// once (n = 192 on 64 nodes, operands and product excluded): what the
/// run measures now plus 10 %. The simulator resumes the runnable node
/// with the least label first, so a low subcube runs through its phase
/// and frees its blocks before the next one gathers its own, and 3-D
/// All drops each block once it is dead instead of at the end of its
/// node program. Now: 1 620 968 / 1 750 632 bytes (3-D All, one- /
/// multi-port) and 2 948 192 / 2 640 984 (Simple). With the nodes in
/// lock step, as under the `(park clock, label)` queue before: 3 788 312
/// / 5 501 704 and 3 481 096 / 3 771 296 at the parent commit, and
/// 2 112 136 / 2 604 184 for 3-D All with its early drops, so every row
/// fails here if the lock step comes back.
fn peak_budget(algo: Algorithm, port: PortModel) -> u64 {
    match (algo, port) {
        (Algorithm::All3d, PortModel::OnePort) => 1_780_000,
        (Algorithm::All3d, PortModel::MultiPort) => 1_930_000,
        (Algorithm::Simple, PortModel::OnePort) => 3_240_000,
        (Algorithm::Simple, PortModel::MultiPort) => 2_900_000,
        _ => unreachable!("no peak budget for {algo} {port}"),
    }
}

#[test]
fn space_hungry_algorithms_hold_no_more_than_their_peak_budget() {
    let (n, p) = (192, 64);
    let (a, b) = (Matrix::random(n, n, 1), Matrix::random(n, n, 2));
    let mut report = String::new();
    let mut over = Vec::new();
    for algo in [Algorithm::All3d, Algorithm::Simple] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            let cfg = MachineConfig::new(port, COST);
            let measure = || {
                peak_bytes_during(|| {
                    algo.multiply(&a, &b, p, &cfg)
                        .unwrap_or_else(|e| panic!("{algo} applies at n = {n}, p = {p}: {e}"))
                })
            };
            // As above: the first multiply also fills per-thread caches.
            let _ = measure();
            let (run, peak) = measure();
            assert!(run.c.max_abs_diff(&cubemm_dense::gemm::reference(&a, &b)) <= 1e-12);
            assert_eq!(
                measure().1,
                peak,
                "{algo} {port}: peaks must repeat exactly"
            );
            let budget = peak_budget(algo, port);
            report.push_str(&format!(
                "{algo:<7} {port:<10} peak {peak:>9} bytes (budget {budget})\n"
            ));
            if peak > budget {
                over.push(format!("{algo} {port}"));
            }
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over budget: {over:?}\n{report}");
}
