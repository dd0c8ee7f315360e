//! Every registry algorithm gives the same result on any number of
//! shards.
//!
//! `with_shards` fixes the shard count of the runs `multiply` starts, so
//! the golden grid's small machines (n = 24, p ∈ {8, 16, 64}) split into
//! 2 and 4 label ranges on as many threads. The product's bits, every
//! node's `NodeStats` and every trace event must equal the one-shard
//! run's, under both port models. Faulted machines of two shards' worth
//! of nodes must agree too, down to the failure they report.

use cubemm_core::{Algorithm, MachineConfig, RunResult};
use cubemm_dense::Matrix;
use cubemm_simnet::{with_shards, CostParams, FaultPlan, PortModel, SHARD_MIN_NODES};

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_algorithm_gives_the_one_shard_result_on_two_and_four_shards() {
    let n = 24;
    let (a, b) = (Matrix::random(n, n, 11), Matrix::random(n, n, 12));
    let mut runs = 0;
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for p in [8, 16, 64] {
                if algo.check(n, p).is_err() {
                    continue;
                }
                let mut cfg = MachineConfig::new(port, CostParams::PAPER);
                cfg.traced = true;
                let run = |shards| -> RunResult {
                    with_shards(shards, || algo.multiply(&a, &b, p, &cfg))
                        .unwrap_or_else(|e| panic!("{algo} {port} p={p}: {e}"))
                };
                let one = run(1);
                for shards in [2, 4] {
                    let many = run(shards);
                    let what = format!("{algo} {port} p={p} on {shards} shards");
                    assert_eq!(bits(&many.c), bits(&one.c), "{what}: product");
                    assert_eq!(many.stats.nodes, one.stats.nodes, "{what}: node stats");
                    assert_eq!(many.traces, one.traces, "{what}: traces");
                    runs += 1;
                }
            }
        }
    }
    assert!(runs >= 14 * 2 * 2, "only {runs} sharded runs");
}

/// Every registry algorithm that applies at `p = 2 · SHARD_MIN_NODES`
/// (n = 32), under fault plan `faults` on 1, 2 and 4 shards: the
/// product's bits, every node's statistics, every trace event and the
/// failure must equal the one-shard run's. Returns how many algorithms
/// failed and how many ran.
fn faulted_runs_agree(faults: &FaultPlan) -> (usize, usize) {
    let (n, p) = (32, 2 * SHARD_MIN_NODES);
    let (a, b) = (Matrix::random(n, n, 21), Matrix::random(n, n, 22));
    let (mut failed, mut ran) = (0, 0);
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        if algo.check(n, p).is_err() {
            continue;
        }
        let mut cfg = MachineConfig::new(PortModel::OnePort, CostParams::PAPER);
        cfg.traced = true;
        cfg.faults = faults.clone();
        let run = |shards| {
            with_shards(shards, || algo.multiply(&a, &b, p, &cfg))
                .map(|run| (bits(&run.c), run.stats, run.traces))
        };
        let one = run(1);
        for shards in [2, 4] {
            assert_eq!(
                run(shards),
                one,
                "{algo} on {shards} shards under {faults:?}"
            );
        }
        failed += usize::from(one.is_err());
        ran += 1;
    }
    (failed, ran)
}

#[test]
fn faulted_machines_give_the_one_shard_result_on_two_and_four_shards() {
    // A straggler in one shard and a degraded link across the top
    // dimension, between the shards: every run completes.
    let slow = FaultPlan::new().with_straggler(3, 2.0).with_degraded_link(
        5,
        5 + SHARD_MIN_NODES,
        3.0,
        2.0,
    );
    let (failed, ran) = faulted_runs_agree(&slow);
    assert!(ran >= 2 && failed == 0, "{failed} of {ran} failed");
    // Strict dead links in both halves: every run fails, with the same
    // failure on every shard count.
    let dead = FaultPlan::new()
        .with_dead_link(0, 1)
        .with_dead_link(SHARD_MIN_NODES + 6, SHARD_MIN_NODES + 7)
        .strict();
    let (failed, ran) = faulted_runs_agree(&dead);
    assert!(ran >= 2 && failed == ran, "{failed} of {ran} failed");
}
