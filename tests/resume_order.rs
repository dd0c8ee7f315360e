//! Resume order never changes a result, checked as an oracle.
//!
//! Each shard's event loop resumes the runnable node with the least
//! label first. DESIGN.md §11 ("One failure rule") argues that every
//! other order reaches the same maximal execution, failures included.
//! `with_resume_order(seed, ..)` makes every shard pop a seeded
//! pseudo-random runnable node instead, and `with_shards(K, ..)` splits
//! the machine over `K` shards. Under seeds × K ∈ {1, 2, 4} this file
//! requires byte-identical results against the default order on one
//! shard:
//!
//! * the golden grid (every registry algorithm, both port models,
//!   n = 24, p ∈ {8, 16, 64}, traced): product bits, `RunStats`, traces;
//! * Table 1's collectives, and Table 2's and Table 3's algorithm
//!   points at the costs they are measured under: outputs and `RunStats`
//!   (peak words included);
//! * the runs of the CLI's failure transcripts (a deadlock, a scheduled
//!   crash, a strict dead link; plain and ABFT): the job's whole outcome
//!   or error.
//!
//! Chaos campaigns get the same check in `chaos.rs`'s tests, which can
//! keep a campaign on the one thread the seeded order applies to.
//! Tier-1 runs the first two seeds (and Tables 2–3 at their smaller
//! points); CI runs the other six, and the larger points under all
//! eight, with the chaos share's larger campaigns (`cargo test
//! --release -p cubemm-harness -q resume_order -- --ignored`).

use std::fmt::Debug;

use cubemm_collectives as coll;
use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_harness::job::{Job, Protection};
use cubemm_harness::recovery::RecoveryPolicy;
use cubemm_simnet::{
    with_resume_order, with_shards, CostParams, FaultPlan, Machine, Payload, PortModel,
};
use cubemm_topology::Subcube;

/// The seeded orders: tier-1 takes the first two.
const SEEDS: [u64; 8] = [1, 2, 3, 0x5eed, 77, 1 << 40, 0xdead_beef, u64::MAX];
const QUICK: usize = 2;

/// Checks that `run` gives the default order's one-shard result under
/// every seed of `seeds` on 1, 2 and 4 shards. The results can be large
/// (every trace event of a run), so a mismatch prints only where it is.
fn same_under_every_order<T: PartialEq + Debug>(seeds: &[u64], what: &str, run: impl Fn() -> T) {
    let want = with_shards(1, &run);
    for &seed in seeds {
        for shards in [1, 2, 4] {
            let got = with_resume_order(seed, || with_shards(shards, &run));
            assert!(got == want, "{what}: seed {seed:#x} on {shards} shards");
        }
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn golden_grid(seeds: &[u64]) {
    let n = 24;
    let (a, b) = (Matrix::random(n, n, 11), Matrix::random(n, n, 12));
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for p in [8, 16, 64] {
                if algo.check(n, p).is_err() {
                    continue;
                }
                let mut cfg = MachineConfig::new(port, CostParams::PAPER);
                cfg.traced = true;
                same_under_every_order(seeds, &format!("{algo} {port} p={p}"), || {
                    algo.multiply(&a, &b, p, &cfg)
                        .map(|run| (bits(&run.c), run.stats, run.traces))
                });
            }
        }
    }
}

/// One Table 1 collective on a `2^d`-node machine with `m`-word
/// messages: every node's output and the run's statistics.
fn collective(kind: &'static str, d: u32, m: usize, port: PortModel) -> impl Fn() -> String {
    move || {
        let p = 1usize << d;
        let payload =
            |rank: usize| -> Payload { (0..m).map(|x| (rank * 1000 + x) as f64).collect() };
        let out = Machine::builder(p)
            .port(port)
            .cost(CostParams { ts: 5.0, tw: 2.0 })
            .build()
            .expect("valid machine")
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let v = sc.rank_of(proc.id());
                let all = || (0..sc.size()).map(payload).collect::<Vec<_>>();
                let got: Vec<Payload> = match kind {
                    "bcast" => {
                        let data = (v == 0).then(|| payload(0));
                        vec![coll::bcast(&mut proc, &sc, 0, 0, data, m).await]
                    }
                    "scatter" => {
                        let parts = (v == 0).then(all);
                        vec![coll::scatter(&mut proc, &sc, 0, 0, parts, m).await]
                    }
                    "gather" => coll::gather(&mut proc, &sc, 0, 0, payload(v))
                        .await
                        .unwrap_or_default(),
                    "allgather" => coll::allgather(&mut proc, &sc, 0, payload(v)).await,
                    "alltoall" => coll::alltoall_personalized(&mut proc, &sc, 0, all()).await,
                    "reduce" => coll::reduce_sum(&mut proc, &sc, 0, 0, payload(v))
                        .await
                        .into_iter()
                        .collect(),
                    "reduce_scatter" => vec![coll::reduce_scatter(&mut proc, &sc, 0, all()).await],
                    other => unreachable!("{other}"),
                };
                got.iter()
                    .flat_map(|part| part.iter().map(|x| x.to_bits()))
                    .collect::<Vec<u64>>()
            })
            .expect("healthy run");
        format!("{:?} {:?}", out.outputs, out.stats)
    }
}

/// Table 2's and Table 3's `(n, p)` points: the small ones run in
/// tier-1 under its seeds, the large ones only with the rest.
const SMALL_POINTS: [(usize, usize); 2] = [(32, 16), (16, 8)];
const LARGE_POINTS: [(usize, usize); 2] = [(64, 64), (96, 16)];

fn tables(seeds: &[u64], points: &[(usize, usize)]) {
    for kind in [
        "bcast",
        "scatter",
        "gather",
        "allgather",
        "alltoall",
        "reduce",
        "reduce_scatter",
    ] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for (d, m) in [(3, 12), (4, 7)] {
                let what = format!("Table 1 {kind} {port} d={d} m={m}");
                same_under_every_order(seeds, &what, collective(kind, d, m, port));
            }
        }
    }
    // Table 2 measures `a` and `b` at startup-only and word-only costs;
    // Table 3 reads peak words at the paper's.
    let costs = [
        CostParams::STARTUPS_ONLY,
        CostParams::WORDS_ONLY,
        CostParams::PAPER,
    ];
    for &(n, p) in points {
        let (a, b) = (Matrix::random(n, n, 77), Matrix::random(n, n, 88));
        for algo in Algorithm::ALL {
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                for cost in costs {
                    if algo.check(n, p).is_err() {
                        continue;
                    }
                    let cfg = MachineConfig::new(port, cost);
                    let what = format!("Tables 2-3 {algo} {port} n={n} p={p} {cost:?}");
                    same_under_every_order(seeds, &what, || {
                        algo.multiply(&a, &b, p, &cfg)
                            .map(|run| (bits(&run.c), run.stats))
                    });
                }
            }
        }
    }
}

/// The runs of `crates/cli/tests/golden/failure_transcripts.txt`:
/// `cubemm run --algo cannon --n 24 --p 64` under each fault plan, plain
/// and `--abft`.
fn failure_runs(seeds: &[u64]) {
    let plans = [
        ("drop 0:1:0", FaultPlan::new().with_drop(0, 1, 0)),
        ("crash 5:3", FaultPlan::new().with_crash(5, 3)),
        (
            "strict link 0:1",
            FaultPlan::new().with_dead_link(0, 1).strict(),
        ),
    ];
    for (name, plan) in plans {
        let mut cfg = MachineConfig::new(PortModel::OnePort, CostParams::PAPER);
        cfg.faults = plan;
        for protection in [
            Protection::Plain,
            Protection::Abft(RecoveryPolicy::default()),
        ] {
            let job = Job {
                algo: Algorithm::Cannon,
                n: 24,
                p: 64,
                seed: 1,
                protection,
            };
            let what = format!("{name} {:?}", job.protection);
            same_under_every_order(seeds, &what, || format!("{:?}", job.run(&cfg, true)));
        }
    }
}

#[test]
fn the_golden_grid_is_the_same_under_any_resume_order() {
    golden_grid(&SEEDS[..QUICK]);
}

#[test]
fn table_runs_are_the_same_under_any_resume_order() {
    tables(&SEEDS[..QUICK], &SMALL_POINTS);
}

#[test]
fn failures_are_the_same_under_any_resume_order() {
    failure_runs(&SEEDS[..QUICK]);
}

#[test]
#[ignore = "the remaining seeds: CI runs them in release"]
fn every_check_is_the_same_under_the_remaining_resume_orders() {
    golden_grid(&SEEDS[QUICK..]);
    tables(&SEEDS[QUICK..], &SMALL_POINTS);
    tables(&SEEDS, &LARGE_POINTS);
    failure_runs(&SEEDS[QUICK..]);
}
