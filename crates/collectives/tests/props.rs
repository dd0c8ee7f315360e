//! Deterministic property sweeps for the collective schedules: subcube
//! shapes, roots, message sizes, and port models — data must always be
//! delivered correctly and the measured cost must obey the Table 1
//! bounds. (Formerly proptest strategies; now reproducible loops so the
//! workspace needs no external crates.)

use std::future::Future;

use cubemm_collectives as coll;
use cubemm_simnet::{CostParams, Machine, Payload, PortModel, Proc, RunOutcome};
use cubemm_topology::Subcube;

const COST: CostParams = CostParams { ts: 3.0, tw: 1.0 };
const PORTS: [PortModel; 2] = [PortModel::OnePort, PortModel::MultiPort];

fn payload(tagish: usize, m: usize) -> Payload {
    (0..m).map(|x| (tagish * 10_000 + x) as f64).collect()
}

#[allow(
    clippy::expect_used,
    reason = "fixed, valid test machines; a failure is a test bug"
)]
fn run<O, F, Fut>(p: usize, port: PortModel, program: F) -> RunOutcome<O>
where
    F: Fn(Proc, ()) -> Fut,
    Fut: Future<Output = O>,
{
    Machine::builder(p)
        .port(port)
        .cost(COST)
        .build()
        .expect("valid test machine")
        .run(vec![(); p], program)
        .expect("healthy run")
}

/// Builds a machine whose collective group is an arbitrary subcube (a
/// permuted subset of the dimensions), not just the canonical low dims.
fn subcube_of(dims_mask: u32, machine_dim: u32) -> Vec<u32> {
    (0..machine_dim)
        .filter(|d| dims_mask >> d & 1 == 1)
        .collect()
}

#[test]
fn bcast_delivers_on_arbitrary_subcubes() {
    let machine_dim = 4u32;
    let p = 1usize << machine_dim;
    for dims_mask in 1u32..16 {
        for port in PORTS {
            for (m, root_seed) in [(1usize, 0usize), (7, 3), (40, 13)] {
                let dims = subcube_of(dims_mask, machine_dim);
                let group = 1usize << dims.len();
                let root = root_seed % group;
                let dims2 = dims.clone();
                let out = run(p, port, move |mut proc, ()| {
                    let dims2 = dims2.clone();
                    async move {
                        let sc = Subcube::new(proc.id(), dims2);
                        let data = (sc.rank_of(proc.id()) == root).then(|| payload(root, m));
                        let got = coll::bcast(&mut proc, &sc, root, 0, data, m).await;
                        assert_eq!(&got[..], &payload(root, m)[..]);
                        proc.clock()
                    }
                });
                // Cost bound: never worse than the one-port closed form
                // plus the multi-port slicing granularity.
                let d = dims.len() as f64;
                let bound = d * (COST.ts + COST.tw * m as f64) + 1e-9;
                assert!(
                    out.stats.elapsed <= bound,
                    "elapsed {} exceeds one-port bound {bound} (mask {dims_mask}, {port}, m {m})",
                    out.stats.elapsed
                );
            }
        }
    }
}

#[test]
fn allgather_and_reduce_scatter_are_inverses() {
    let machine_dim = 4u32;
    let p = 1usize << machine_dim;
    for dims_mask in 1u32..16 {
        for port in PORTS {
            for m in [1usize, 5, 24] {
                let dims = subcube_of(dims_mask, machine_dim);
                let dims2 = dims.clone();
                let out = run(p, port, move |mut proc, ()| {
                    let dims2 = dims2.clone();
                    async move {
                        let sc = Subcube::new(proc.id(), dims2);
                        let v = sc.rank_of(proc.id());
                        let n = sc.size();
                        // allgather everyone's contribution...
                        let all = coll::allgather(&mut proc, &sc, 0, payload(v, m)).await;
                        for (r, part) in all.iter().enumerate() {
                            assert_eq!(&part[..], &payload(r, m)[..]);
                        }
                        // ...then reduce-scatter the same parts back: every
                        // member contributes the same `all` vector, so slot v
                        // sums n copies of payload(v, m).
                        let back = coll::reduce_scatter(&mut proc, &sc, coll::TAG_SPACE, all).await;
                        for (x, val) in back.iter().enumerate() {
                            assert_eq!(*val, payload(v, m)[x] * n as f64);
                        }
                        proc.clock()
                    }
                });
                assert!(out.stats.elapsed >= 0.0);
            }
        }
    }
}

#[test]
fn alltoall_permutes_correctly_and_scatter_agrees_with_gather() {
    let machine_dim = 3u32;
    let p = 1usize << machine_dim;
    for dims_mask in 1u32..8 {
        for port in PORTS {
            for (m, root_seed) in [(1usize, 0usize), (4, 5), (16, 2)] {
                let dims = subcube_of(dims_mask, machine_dim);
                let group = 1usize << dims.len();
                let root = root_seed % group;
                let dims2 = dims.clone();
                run(p, port, move |mut proc, ()| {
                    let dims2 = dims2.clone();
                    async move {
                        let sc = Subcube::new(proc.id(), dims2);
                        let v = sc.rank_of(proc.id());
                        let n = sc.size();
                        // all-to-all personalized: message (v → r).
                        let parts: Vec<Payload> = (0..n).map(|r| payload(v * 100 + r, m)).collect();
                        let got = coll::alltoall_personalized(&mut proc, &sc, 0, parts).await;
                        for (origin, part) in got.iter().enumerate() {
                            assert_eq!(&part[..], &payload(origin * 100 + v, m)[..]);
                        }
                        // gather to root then scatter back must round-trip.
                        let gathered =
                            coll::gather(&mut proc, &sc, root, coll::TAG_SPACE, payload(v, m))
                                .await;
                        let scattered =
                            coll::scatter(&mut proc, &sc, root, 2 * coll::TAG_SPACE, gathered, m)
                                .await;
                        assert_eq!(&scattered[..], &payload(v, m)[..]);
                    }
                });
            }
        }
    }
}

#[test]
fn fused_collectives_agree_with_sequential_execution_values() {
    // Fusing two independent broadcasts must deliver the same data as
    // running them back to back, and never take longer.
    let p = 16usize;
    for port in PORTS {
        for m in [1usize, 9, 24] {
            let elapsed_fused = run(p, port, move |mut proc, ()| async move {
                let row = Subcube::new(proc.id(), vec![0, 1]);
                let col = Subcube::new(proc.id(), vec![2, 3]);
                let d1 = (row.rank_of(proc.id()) == 0).then(|| payload(1, m));
                let d2 = (col.rank_of(proc.id()) == 0).then(|| payload(2, m));
                let mut b1 = coll::bcast_plan(proc.port_model(), &row, proc.id(), 0, 0, d1, m);
                let mut b2 = coll::bcast_plan(
                    proc.port_model(),
                    &col,
                    proc.id(),
                    0,
                    coll::TAG_SPACE,
                    d2,
                    m,
                );
                coll::execute_fused(&mut proc, &mut [b1.run_mut(), b2.run_mut()]).await;
                assert_eq!(&b1.finish()[..], &payload(1, m)[..]);
                assert_eq!(&b2.finish()[..], &payload(2, m)[..]);
                proc.clock()
            })
            .stats
            .elapsed;
            let elapsed_seq = run(p, port, move |mut proc, ()| async move {
                let row = Subcube::new(proc.id(), vec![0, 1]);
                let col = Subcube::new(proc.id(), vec![2, 3]);
                let d1 = (row.rank_of(proc.id()) == 0).then(|| payload(1, m));
                let d2 = (col.rank_of(proc.id()) == 0).then(|| payload(2, m));
                let _ = coll::bcast(&mut proc, &row, 0, 0, d1, m).await;
                let _ = coll::bcast(&mut proc, &col, 0, coll::TAG_SPACE, d2, m).await;
                proc.clock()
            })
            .stats
            .elapsed;
            assert!(
                elapsed_fused <= elapsed_seq + 1e-9,
                "fused {elapsed_fused} slower than sequential {elapsed_seq} ({port}, m {m})"
            );
        }
    }
}
