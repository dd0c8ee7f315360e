//! The zero-copy data path, guarded as an exact count.
//!
//! Heap allocations are deterministic on the single-threaded simulator,
//! so "a delivered packet costs no allocation of its own" can
//! be asserted without a timer. Each collective runs on one 64-node row
//! with 16-word blocks; the budget is allocations per delivered packet
//! (a packet counts once per hop), everything included — machine
//! spin-up, node futures, plans, stores, mailboxes, bundles, results.
//! Cannon's algorithm, the shift-heavy end of the comparison, is
//! guarded the same way per delivered message (see its test below).
//!
//! What the budgets pin: splitting a received bundle allocates nothing
//! (windows), a bundle is one allocation however many packets it
//! carries, plan id lists are sized exactly, and the packet store grows
//! with what a node holds. Before that work every received packet was
//! copied into an allocation of its own and every bundle grew
//! geometrically, which put each row of this table at 1.6–10× its
//! budget.

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
/// Measured at the commit before the zero-copy path, same order:
/// 5.84, 1.97, 5.82, 1.47, 10.96, 5.57, 10.81, 5.45, 3.05, 0.79.
fn budget(kind: RowCollective, port: PortModel) -> u64 {
    match (kind, port) {
        (RowCollective::Allgather, PortModel::OnePort) => 90,
        (RowCollective::Allgather, PortModel::MultiPort) => 70,
        (RowCollective::ReduceScatter, PortModel::OnePort) => 85,
        (RowCollective::ReduceScatter, PortModel::MultiPort) => 50,
        (RowCollective::Scatter, PortModel::OnePort) => 675,
        (RowCollective::Scatter, PortModel::MultiPort) => 275,
        (RowCollective::Gather, PortModel::OnePort) => 650,
        (RowCollective::Gather, PortModel::MultiPort) => 275,
        (RowCollective::Alltoall, PortModel::OnePort) => 30,
        (RowCollective::Alltoall, PortModel::MultiPort) => 25,
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
/// Measured at the commit before: 3.84 one-port, 4.38 multi-port.
fn cannon_budget(port: PortModel) -> u64 {
    match port {
        PortModel::OnePort => 200,
        PortModel::MultiPort => 260,
    }
}

#[test]
fn cannon_allocations_per_delivered_message_stay_within_budget() {
    let (n, p) = (64, 64);
    let (a, b) = (Matrix::random(n, n, 1), Matrix::random(n, n, 2));
    let mut report = String::new();
    let mut over = Vec::new();
    for port in [PortModel::OnePort, PortModel::MultiPort] {
        let cfg = MachineConfig::new(port, COST);
        let measure = || {
            allocations_during(|| {
                Algorithm::Cannon
                    .multiply(&a, &b, p, &cfg)
                    .expect("cannon applies at n = 64, p = 64")
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
            "cannon {port}: allocation counts must repeat exactly"
        );
        let messages = run.stats.total_messages() as u64;
        let per_message = allocations * 100 / messages;
        report.push_str(&format!(
            "cannon {port:<10} {allocations:>6} allocations / {messages:>6} messages = {:>4}.{:02} (budget {}.{:02})\n",
            per_message / 100,
            per_message % 100,
            cannon_budget(port) / 100,
            cannon_budget(port) % 100,
        ));
        if per_message > cannon_budget(port) {
            over.push(format!("cannon {port}"));
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over budget: {over:?}\n{report}");
}
