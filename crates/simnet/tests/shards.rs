//! A machine run on several shards gives the one-shard run's result.
//!
//! `with_shards` fixes the shard count, so these run at small `p` in
//! debug builds. Outputs, every node's statistics and every trace event
//! must match bit for bit, a deadlock must name the same receives, and
//! a failure must come back as the one-shard run's `RunError`.

use std::thread::ThreadId;
use std::time::{Duration, Instant};

use cubemm_simnet::{
    with_shards, Blocked, CostParams, FaultPlan, Machine, Op, PortModel, RunError, RunOutcome,
    SHARD_MIN_NODES,
};

const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

#[allow(clippy::expect_used, reason = "fixed, valid test machines")]
fn machine(p: usize, port: PortModel) -> Machine {
    Machine::builder(p)
        .port(port)
        .cost(COST)
        .traced(true)
        .build()
        .expect("valid test machine")
}

/// Every node gathers a word from every other node by recursive doubling
/// (one exchange per dimension, the top ones across shards), then sends
/// its total to the node across the top `log p / 2` dimensions by routed
/// send and takes the matching one, in a multi-port batch of both.
fn mix(machine: &Machine, shards: usize) -> Result<RunOutcome<(Vec<f64>, f64)>, RunError> {
    let p = machine.p();
    let far = p - (p >> (p.trailing_zeros() / 2));
    with_shards(shards, || {
        machine.run_sharded(
            || (0..p).map(|id| id as f64 * 0.5).collect(),
            move |mut proc, mine: f64| async move {
                let id = proc.id();
                let mut all = vec![mine];
                for dim in 0..proc.dim() {
                    let got = proc
                        .exchange(id ^ (1 << dim), u64::from(dim), all.clone())
                        .await;
                    all.extend_from_slice(&got);
                }
                let total: f64 = all.iter().sum();
                if far != 0 {
                    let partner = id ^ far;
                    proc.send_routed(partner, 100, [total, mine]);
                    let back = proc.recv(partner, 100).await;
                    all.push(back[1]);
                }
                let batch = proc
                    .multi(vec![
                        Op::Send {
                            to: id ^ (p >> 1),
                            tag: 200,
                            data: vec![total; 3].into(),
                        },
                        Op::Recv {
                            from: id ^ (p >> 1),
                            tag: 200,
                        },
                    ])
                    .await;
                let last = batch.into_iter().flatten().map(|got| got[0]).sum::<f64>();
                (all, last + proc.clock())
            },
        )
    })
}

#[test]
fn sharded_runs_equal_the_one_shard_run_bit_for_bit() {
    for port in [PortModel::OnePort, PortModel::MultiPort] {
        for p in [8, 64, 256] {
            let machine = machine(p, port);
            let one = mix(&machine, 1).expect("healthy run");
            for shards in [2, 4, 8] {
                let many = mix(&machine, shards).expect("healthy run");
                let what = format!("p = {p}, {port:?}, {shards} shards");
                assert_eq!(many.outputs, one.outputs, "{what}");
                assert_eq!(many.stats.nodes, one.stats.nodes, "{what}");
                assert_eq!(many.stats.elapsed.to_bits(), one.stats.elapsed.to_bits());
                assert_eq!(many.traces, one.traces, "{what}");
            }
        }
    }
}

/// The deadlock of `aborts.rs`'s p = 4096 machine — every node waits on
/// a message its neighbour never sends — through the sharded entry.
#[test]
fn a_sharded_4096_node_deadlock_names_every_blocked_receive() {
    const BIG: usize = 4096;
    let machine = machine(BIG, PortModel::OnePort);
    let want: Vec<Blocked> = (0..BIG)
        .map(|node| Blocked {
            node,
            from: node ^ 1,
            tag: node as u64,
        })
        .collect();
    for shards in [1, 2, 4] {
        let wall = Instant::now();
        let err = with_shards(shards, || {
            machine.run_sharded(
                || vec![(); BIG],
                |mut proc, ()| async move {
                    let id = proc.id();
                    let _ = proc.recv(id ^ 1, id as u64).await;
                },
            )
        })
        .expect_err("nobody sends");
        assert!(
            wall.elapsed() < Duration::from_secs(1),
            "{:?}",
            wall.elapsed()
        );
        assert_eq!(
            err,
            RunError::Deadlock {
                blocked: want.clone()
            }
        );
    }
}

/// A deadlock whose blocked receives sit in both shards, one of them
/// behind messages from the other shard that did arrive.
#[test]
fn a_sharded_deadlock_across_shards_equals_the_one_shard_report() {
    let machine = machine(16, PortModel::OnePort);
    let run = |shards| {
        with_shards(shards, || {
            machine.run_sharded(
                || vec![(); 16],
                |mut proc, ()| async move {
                    let id = proc.id();
                    let partner = id ^ 8;
                    proc.send(partner, 1, [id as f64]);
                    let _ = proc.recv(partner, 1).await;
                    if id % 3 == 0 {
                        let _ = proc.recv(partner, 2).await;
                    }
                },
            )
        })
    };
    let one = run(1).expect_err("nodes 0, 3, 6, 9, 12 and 15 wait on tag 2");
    assert!(matches!(&one, RunError::Deadlock { blocked } if blocked.len() == 6));
    for shards in [2, 4] {
        assert_eq!(run(shards).expect_err("same deadlock"), one);
    }
}

/// A node panics in each of two shards, after communicating: the
/// sharded run returns the one-shard run's `NodePanicked`.
#[test]
fn a_panic_in_each_of_two_shards_reports_the_one_shard_error() {
    let p = 64;
    let machine = machine(p, PortModel::MultiPort);
    let run = |shards| {
        with_shards(shards, || {
            machine.run_sharded(
                || vec![(); p],
                |mut proc, ()| async move {
                    let id = proc.id();
                    for dim in 0..proc.dim() {
                        let _ = proc.exchange(id ^ (1 << dim), u64::from(dim), [1.0]).await;
                        if (id == 5 && dim == 4) || (id == 37 && dim == 2) {
                            panic!("node {id} gives up at dimension {dim}");
                        }
                    }
                },
            )
        })
    };
    let one = run(1).expect_err("two nodes panic");
    assert!(matches!(&one, RunError::NodePanicked { .. }), "{one}");
    assert_eq!(run(2).expect_err("two nodes panic"), one);
    assert_eq!(run(4).expect_err("two nodes panic"), one);
}

/// Node 0 returns at once; its neighbour across the top dimension, in
/// the other shard, sends to it after a round of its own. Only shard 0
/// can see that node 0 has finished.
#[test]
fn a_cross_shard_send_to_a_finished_node_reports_the_one_shard_error() {
    let p = 16;
    let machine = machine(p, PortModel::OnePort);
    let run = |shards| {
        with_shards(shards, || {
            machine.run_sharded(
                || vec![(); p],
                |mut proc, ()| async move {
                    let id = proc.id();
                    if id == 0 {
                        return;
                    }
                    if id != 1 {
                        let _ = proc.exchange(id ^ 1, 1, [1.0]).await;
                    }
                    if id == p / 2 {
                        proc.send(0, 2, [2.0]);
                    }
                },
            )
        })
    };
    let one = run(1).expect_err("a send to a finished node");
    assert_eq!(
        one,
        RunError::NodePanicked {
            node: p / 2,
            message: "send: node 0 already finished its program".into()
        }
    );
    for shards in [2, 4] {
        assert_eq!(run(shards).expect_err("same failure"), one);
    }
}

/// Each node's output: the thread that ran it.
#[allow(clippy::expect_used, reason = "a healthy test machine")]
fn threads(machine: &Machine) -> Vec<ThreadId> {
    machine
        .run_sharded(
            || vec![(); machine.p()],
            |_proc, ()| async move { std::thread::current().id() },
        )
        .expect("healthy run")
        .outputs
}

#[test]
fn a_one_shard_run_spawns_no_thread() {
    let me = std::thread::current().id();
    let machine = machine(64, PortModel::OnePort);
    let on = with_shards(1, || threads(&machine));
    assert!(on.iter().all(|&thread| thread == me));
    // Two shards: the upper half of the labels runs on one other thread.
    let on = with_shards(2, || threads(&machine));
    assert!(on[..32].iter().all(|&thread| thread == me));
    assert!(on[32..]
        .iter()
        .all(|&thread| thread == on[32] && thread != me));
}

#[test]
fn small_or_faulty_or_core_starved_machines_run_on_one_shard() {
    let me = std::thread::current().id();
    let on_caller = |machine: &Machine| threads(machine).iter().all(|&thread| thread == me);
    // Below two shards' worth of nodes.
    assert!(on_caller(&machine(SHARD_MIN_NODES, PortModel::OnePort)));
    // A fault plan, however large the machine.
    let faulty = Machine::builder(2 * SHARD_MIN_NODES)
        .faults(FaultPlan::new().with_straggler(3, 2.0))
        .build()
        .expect("valid test machine");
    assert!(on_caller(&faulty));
    // No spare core: this test is the only one here that leases.
    let _all = cubemm_simnet::cores::lease(usize::MAX);
    assert!(on_caller(&machine(2 * SHARD_MIN_NODES, PortModel::OnePort)));
}

/// A program that panics while making its future, outside any poll,
/// unwinds out of the sharded run as it does out of a one-shard one,
/// instead of leaving the other shards waiting.
#[test]
#[should_panic(expected = "no future for node 40")]
fn a_panic_outside_a_poll_on_a_shard_thread_unwinds_the_sharded_run() {
    let machine = machine(64, PortModel::OnePort);
    let _ = with_shards(2, || {
        machine.run_sharded(
            || vec![(); 64],
            |mut proc, ()| {
                assert_ne!(proc.id(), 40, "no future for node 40");
                async move {
                    let id = proc.id();
                    let _ = proc.exchange(id ^ 1, 0, [1.0]).await;
                }
            },
        )
    });
}
