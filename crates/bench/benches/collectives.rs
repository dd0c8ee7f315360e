//! Collective-schedule benchmarks: host wall time of executing each
//! Table 1 collective on the simulated machine, one-port vs multi-port.
//! (The *virtual* costs are validated exactly in the test suites; these
//! benches track the simulator's own overhead.)

use cubemm_bench::microbench::{BenchmarkId, Criterion};
use cubemm_bench::{criterion_group, criterion_main};
use cubemm_collectives as coll;
use cubemm_simnet::{CostParams, Machine, Payload, PortModel, Proc, RunOutcome};
use cubemm_topology::Subcube;

const COST: CostParams = CostParams { ts: 1.0, tw: 1.0 };

fn payload(rank: usize, m: usize) -> Payload {
    (0..m).map(|x| (rank + x) as f64).collect()
}

/// Boots a healthy `p`-node machine and runs `program` on every node.
fn run<O, F, Fut>(p: usize, port: PortModel, program: F) -> RunOutcome<O>
where
    F: Fn(Proc, ()) -> Fut,
    Fut: std::future::Future<Output = O>,
{
    #[allow(
        clippy::expect_used,
        reason = "fixed, valid bench machines; a failure is a bench bug"
    )]
    Machine::builder(p)
        .port(port)
        .cost(COST)
        .build()
        .expect("valid bench machine")
        .run(vec![(); p], program)
        .expect("healthy bench run")
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives_sim");
    group.sample_size(20);
    let p = 16usize;
    let m = 256usize;
    for port in [PortModel::OnePort, PortModel::MultiPort] {
        group.bench_with_input(BenchmarkId::new("bcast", port), &port, |bench, &port| {
            bench.iter(|| {
                run(p, port, |mut proc, ()| async move {
                    let sc = Subcube::whole(proc.dim());
                    let data = (sc.rank_of(proc.id()) == 0).then(|| payload(0, m));
                    coll::bcast(&mut proc, &sc, 0, 0, data, m).await
                })
            })
        });
        group.bench_with_input(
            BenchmarkId::new("allgather", port),
            &port,
            |bench, &port| {
                bench.iter(|| {
                    run(p, port, |mut proc, ()| async move {
                        let sc = Subcube::whole(proc.dim());
                        let v = sc.rank_of(proc.id());
                        coll::allgather(&mut proc, &sc, 0, payload(v, m)).await
                    })
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("alltoall", port), &port, |bench, &port| {
            bench.iter(|| {
                run(p, port, |mut proc, ()| async move {
                    let sc = Subcube::whole(proc.dim());
                    let v = sc.rank_of(proc.id());
                    let parts: Vec<Payload> = (0..sc.size()).map(|r| payload(v + r, m)).collect();
                    coll::alltoall_personalized(&mut proc, &sc, 0, parts).await
                })
            })
        });
        group.bench_with_input(
            BenchmarkId::new("reduce_scatter", port),
            &port,
            |bench, &port| {
                bench.iter(|| {
                    run(p, port, |mut proc, ()| async move {
                        let sc = Subcube::whole(proc.dim());
                        let v = sc.rank_of(proc.id());
                        let parts: Vec<Payload> =
                            (0..sc.size()).map(|r| payload(v + r, m)).collect();
                        coll::reduce_scatter(&mut proc, &sc, 0, parts).await
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
