//! Every registry algorithm gives the same result on any number of
//! shards.
//!
//! `with_shards` fixes the shard count of the runs `multiply` starts, so
//! the golden grid's small machines (n = 24, p ∈ {8, 16, 64}) split into
//! 2 and 4 label ranges on as many threads. The product's bits, every
//! node's `NodeStats` and every trace event must equal the one-shard
//! run's, under both port models.

use cubemm_core::{Algorithm, MachineConfig, RunResult};
use cubemm_dense::Matrix;
use cubemm_simnet::{with_shards, CostParams, PortModel};

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
