//! The zero-copy data path, guarded as an exact count.
//!
//! Heap allocations are deterministic on the single-threaded simulator,
//! so "a delivered packet costs no allocation of its own" can
//! be asserted without a timer. Each collective runs on one 64-node row
//! with 16-word blocks; the budget is allocations per delivered packet
//! (a packet counts once per hop), everything included — machine
//! spin-up, node futures, runs, stores, mailboxes, bundles, results.
//! Cannon's algorithm, the shift-heavy end of the comparison, and 3-D
//! All, the collective-heavy end, are guarded the same way per delivered
//! message (see their tests below).
//!
//! What the budgets pin: splitting a received bundle allocates nothing
//! (windows), a bundle is one allocation however many packets it
//! carries, a round is read off its schema with no per-node plan
//! compiled first, a multi-port batch keeps its link clocks in a buffer
//! the node reuses, and the packet store grows with what a node holds.

use cubemm_bench::alloc_count::{allocations_during, CountingAlloc};
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
/// Measured with a compiled per-node plan, same order: 0.73, 0.58,
/// 0.68, 0.40, 5.61, 2.29, 5.17, 2.27, 0.23, 0.20 (and before the
/// zero-copy path: 5.84, 1.97, 5.82, 1.47, 10.96, 5.57, 10.81, 5.45,
/// 3.05, 0.79).
fn budget(kind: RowCollective, port: PortModel) -> u64 {
    match (kind, port) {
        (RowCollective::Allgather, PortModel::OnePort) => 50,
        (RowCollective::Allgather, PortModel::MultiPort) => 33,
        (RowCollective::ReduceScatter, PortModel::OnePort) => 46,
        (RowCollective::ReduceScatter, PortModel::MultiPort) => 14,
        (RowCollective::Scatter, PortModel::OnePort) => 495,
        (RowCollective::Scatter, PortModel::MultiPort) => 138,
        (RowCollective::Gather, PortModel::OnePort) => 465,
        (RowCollective::Gather, PortModel::MultiPort) => 131,
        (RowCollective::Alltoall, PortModel::OnePort) => 16,
        (RowCollective::Alltoall, PortModel::MultiPort) => 12,
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
                allocations_during(|| rows::run(&machine, kind, P, inputs))
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
/// multi-port.
fn all3d_budget(port: PortModel) -> u64 {
    match port {
        PortModel::OnePort => 910,
        PortModel::MultiPort => 615,
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
