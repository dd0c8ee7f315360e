//! Integration tests for the fault-injection subsystem: structured run
//! outcomes, a run that ends at its first failure, fault-tolerant routing, and
//! the determinism of degraded runs.

use std::time::{Duration, Instant};

use cubemm_simnet::{
    Blocked, CorruptKind, Corruption, CostParams, FaultPlan, Machine, Op, Payload, PortModel, Proc,
    RunError, SendError,
};

const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

#[allow(
    clippy::expect_used,
    reason = "fixed, valid test machines; a failure is a test bug"
)]
fn machine(p: usize, port: PortModel, faults: FaultPlan) -> Machine {
    Machine::builder(p)
        .port(port)
        .cost(COST)
        .faults(faults)
        .build()
        .expect("valid test machine")
}

/// A poisoned run ends at its first failure: a node panic ends the run
/// almost immediately, with every sibling still parked in its receive.
#[test]
fn node_panic_releases_blocked_siblings_immediately() {
    let started = Instant::now();
    let err = machine(8, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 8], |mut proc, ()| async move {
            if proc.id() == 3 {
                panic!("injected failure");
            }
            // Everyone else waits for a message node 3 will never send.
            let _ = proc.recv(3, 1).await;
        })
        .expect_err("the poisoned run must fail");
    let wall = started.elapsed();
    match err {
        RunError::NodePanicked { node, message } => {
            assert_eq!(node, 3);
            assert!(message.contains("injected failure"), "message: {message}");
        }
        other => panic!("expected NodePanicked, got {other:?}"),
    }
    assert!(
        wall < Duration::from_secs(10),
        "abort took {wall:?}; the run did not end at its first failure"
    );
}

/// A tag-mismatch deadlock reports every blocked node with the exact
/// `(from, tag)` it was waiting on — detected by the ledger the moment
/// the last node parks, in well under a second of host time.
#[test]
fn deadlock_report_names_all_blocked_nodes_with_their_awaited_receives() {
    let started = Instant::now();
    let err = machine(4, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 4], |mut proc, ()| async move {
            // A cycle of receives nobody ever feeds: node i waits on its
            // successor with a tag unique to i.
            let from = (proc.id() + 1) % 4;
            let _ = proc.recv(from, 40 + proc.id() as u64).await;
        })
        .expect_err("the cycle must deadlock");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "exact deadlock detection took {:?}",
        started.elapsed()
    );
    match &err {
        RunError::Deadlock { blocked } => {
            let want: Vec<Blocked> = (0..4)
                .map(|node| Blocked {
                    node,
                    from: (node + 1) % 4,
                    tag: 40 + node as u64,
                })
                .collect();
            assert_eq!(*blocked, want, "every blocked receive must be reported");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    // The rendered report names each node and its awaited (from, tag).
    let text = err.to_string();
    for node in 0..4 {
        assert!(
            text.contains(&format!("node {node} blocked on (from={}", (node + 1) % 4)),
            "report missing node {node}: {text}"
        );
    }
}

/// A dead link re-routes transparently (lenient plans): the run completes
/// with the same data at a strictly higher virtual time — exactly the
/// 3-hop bipartite detour.
#[test]
fn dead_link_rerouting_completes_with_strictly_higher_elapsed() {
    let m = 4;
    let program = move |mut proc: Proc, ()| async move {
        if proc.id() == 0 {
            proc.send(1, 9, (0..m).map(f64::from).collect::<Vec<_>>());
            0.0
        } else if proc.id() == 1 {
            let got = proc.recv(0, 9).await;
            assert_eq!(&got[..], &[0.0, 1.0, 2.0, 3.0]);
            proc.clock()
        } else {
            0.0
        }
    };
    let healthy = machine(4, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 4], program)
        .unwrap();
    assert_eq!(healthy.stats.elapsed, 18.0); // ts + tw·m

    let plan = FaultPlan::new().with_dead_link(0, 1);
    let faulty = machine(4, PortModel::OnePort, plan.clone())
        .run(vec![(); 4], program)
        .unwrap();
    // Store-and-forward over the 3-hop detour: 3 (ts + tw·m).
    assert_eq!(faulty.stats.elapsed, 54.0);
    assert!(faulty.stats.elapsed > healthy.stats.elapsed);
    assert_eq!(faulty.stats.total_detour_hops(), 2);

    // Multi-port pipelines the detour: 3·ts + tw·m.
    let mp = machine(4, PortModel::MultiPort, plan)
        .run(vec![(); 4], program)
        .unwrap();
    assert_eq!(mp.stats.elapsed, 38.0);
}

/// Under a strict plan the same dead link is a typed failure instead.
#[test]
fn strict_plan_turns_the_dead_link_into_a_structured_error() {
    let plan = FaultPlan::new().with_dead_link(0, 1).strict();
    let err = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 9, [1.0]);
            } else if proc.id() == 1 {
                let _ = proc.recv(0, 9).await;
            }
        })
        .expect_err("strict dead link must abort");
    assert_eq!(
        err,
        RunError::LinkDead {
            node: 0,
            error: SendError::LinkDead { from: 0, to: 1 },
        }
    );
}

/// A node cut off by dead links is unroutable: the run fails cleanly
/// with the typed error rather than hanging or panicking.
#[test]
fn cut_off_destination_is_reported_unroutable() {
    let plan = (0..2u32).fold(FaultPlan::new(), |plan, d| {
        plan.with_dead_link(1, 1 ^ (1 << d))
    });
    let err = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 9, [1.0]);
            } else if proc.id() == 1 {
                let _ = proc.recv(0, 9).await;
            }
        })
        .expect_err("cut-off node must be unroutable");
    assert_eq!(
        err,
        RunError::LinkDead {
            node: 0,
            error: SendError::Unroutable { from: 0, to: 1 },
        }
    );
}

/// A scheduled corruption mangles exactly the k-th payload crossing the
/// directed edge — delivery, timing, and every other message untouched.
#[test]
fn scheduled_corruption_mangles_exactly_the_targeted_payload() {
    let plan = FaultPlan::new().with_corruption(
        0,
        1,
        1,
        Corruption {
            word: 2,
            kind: CorruptKind::Perturb { delta: 100.0 },
        },
    );
    let faulty = machine(2, PortModel::OnePort, plan)
        .run(vec![(); 2], |mut proc: Proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 7, [1.0, 2.0, 3.0]);
                proc.send(1, 8, [4.0, 5.0, 6.0]);
                proc.clock()
            } else if proc.id() == 1 {
                let first = proc.recv(0, 7).await;
                let second = proc.recv(0, 8).await;
                assert_eq!(&first[..], &[1.0, 2.0, 3.0], "crossing 0 is clean");
                assert_eq!(
                    &second[..],
                    &[4.0, 5.0, 106.0],
                    "crossing 1, word 2 carries the delta"
                );
                proc.clock()
            } else {
                0.0
            }
        })
        .unwrap();
    assert_eq!(faulty.stats.total_corrupted(), 1);
    // Timing is identical to the healthy run: corruption is silent.
    let healthy = machine(2, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 2], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 7, [1.0, 2.0, 3.0]);
                proc.send(1, 8, [4.0, 5.0, 6.0]);
            } else {
                let _ = proc.recv(0, 7).await;
                let _ = proc.recv(0, 8).await;
            }
            proc.clock()
        })
        .unwrap();
    assert_eq!(
        faulty.stats.elapsed.to_bits(),
        healthy.stats.elapsed.to_bits()
    );
}

/// Corruption keyed to a detour edge fires when routing pushes traffic
/// across it — the crossing counters follow the actual path, not the
/// logical destination.
#[test]
fn corruption_follows_the_routed_path() {
    // Kill 0<->1 so 0 -> 1 detours; corrupt the first crossing of the
    // detour's first edge 0 -> 2 (dimension order tries bit 1 next).
    let plan = FaultPlan::new().with_dead_link(0, 1).with_corruption(
        0,
        2,
        0,
        Corruption {
            word: 0,
            kind: CorruptKind::BitFlip { bit: 63 },
        },
    );
    let out = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 9, [8.0]);
            } else if proc.id() == 1 {
                let got = proc.recv(0, 9).await;
                assert_eq!(&got[..], &[-8.0], "sign flipped on the detour edge");
            }
        })
        .unwrap();
    assert_eq!(out.stats.total_corrupted(), 1);
}

/// Payload windows share one allocation, and corruption is applied to a
/// message in flight — so it must land in a private copy. The targeted
/// crossing differs in exactly the scheduled word; the sibling window,
/// the window the sender still holds (sent again afterwards) and the
/// sender's original payload stay bit-for-bit what they were.
#[test]
fn corrupting_one_window_leaves_every_other_view_of_the_words_alone() {
    let original: Vec<f64> = (0..32).map(|x| f64::from(x) + 0.25).collect();
    for kind in [
        CorruptKind::BitFlip { bit: 63 },
        CorruptKind::Perturb { delta: 1000.0 },
    ] {
        let plan = FaultPlan::new().with_corruption(0, 1, 1, Corruption { word: 5, kind });
        let words = original.clone();
        let out = machine(2, PortModel::OnePort, plan)
            .run(vec![(); 2], move |mut proc: Proc, ()| {
                let words = words.clone();
                async move {
                    if proc.id() == 0 {
                        let whole = Payload::from(words);
                        let (low, high) = (whole.slice(0, 16), whole.slice(16, 32));
                        proc.send(1, 1, low.clone()); // crossing 0
                        proc.send(1, 2, high.clone()); // crossing 1: corrupted
                        proc.send(1, 3, high.clone()); // crossing 2: the same window
                        vec![whole, low, high]
                    } else {
                        let mut got = Vec::new();
                        for tag in 1..=3 {
                            got.push(proc.recv(0, tag).await);
                        }
                        got
                    }
                }
            })
            .unwrap();
        assert_eq!(out.stats.total_corrupted(), 1);
        let bits = |words: &[f64]| words.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let [whole, low, high] = &out.outputs[0][..] else {
            panic!("sender returns three views");
        };
        assert_eq!(bits(whole), bits(&original), "{kind:?}: caller's payload");
        assert_eq!(bits(low), bits(&original[..16]), "{kind:?}: sibling window");
        assert_eq!(bits(high), bits(&original[16..]), "{kind:?}: sent window");

        let [first, second, third] = &out.outputs[1][..] else {
            panic!("receiver returns three messages");
        };
        assert_eq!(bits(first), bits(&original[..16]), "{kind:?}: crossing 0");
        assert_eq!(bits(third), bits(&original[16..]), "{kind:?}: crossing 2");
        let damaged: Vec<usize> = (0..16)
            .filter(|&w| second[w].to_bits() != original[16 + w].to_bits())
            .collect();
        assert_eq!(damaged, vec![5], "{kind:?}: exactly the scheduled word");
    }
}

/// A scheduled crash kills the rank as it begins the given communication
/// call and surfaces as a structured `NodeCrashed`; the run ends there,
/// with its blocked siblings still parked.
#[test]
fn scheduled_crash_surfaces_as_node_crashed() {
    let plan = FaultPlan::new().with_crash(2, 1);
    let err = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            // Ring: everyone sends right, receives from the left. Node 2
            // dies beginning its second call (the receive).
            let right = (proc.id() + 1) % 4;
            let left = (proc.id() + 3) % 4;
            proc.send_routed(right, 9, [proc.id() as f64]);
            let _ = proc.recv(left, 9).await;
        })
        .expect_err("the crash must abort the run");
    assert_eq!(err, RunError::NodeCrashed { node: 2, step: 1 });
    assert_eq!(
        err.to_string(),
        "node 2 crashed at communication step 1 (scheduled fault)"
    );
}

/// Corrupted runs obey the determinism contract: the same plan twice
/// gives bitwise-identical outputs, and clearing the crash entry
/// ("rebooting") lets the same program complete.
#[test]
fn corruption_and_crash_plans_are_deterministic_and_reboot_clears_crashes() {
    let plan = FaultPlan::new()
        .with_corruption(
            0,
            1,
            0,
            Corruption {
                word: 1,
                kind: CorruptKind::Perturb { delta: -3.5 },
            },
        )
        .with_crash(3, 0);
    let program = |mut proc: Proc, ()| async move {
        // Everyone communicates, so the crash (which fires at the start
        // of a communication call) has a step to fire on at node 3.
        let partner = proc.id() ^ 1;
        proc.send(partner, 9, [proc.id() as f64, 2.0]);
        let got = proc.recv(partner, 9).await;
        got[1]
    };
    let a = machine(4, PortModel::OnePort, plan.clone())
        .run(vec![(); 4], program)
        .expect_err("node 3 crashes immediately");
    let b = machine(4, PortModel::OnePort, plan.clone())
        .run(vec![(); 4], program)
        .expect_err("deterministically");
    assert_eq!(a, b);
    assert_eq!(a, RunError::NodeCrashed { node: 3, step: 0 });
    // Reboot node 3: the corruption still fires, but the run completes.
    let rebooted = machine(4, PortModel::OnePort, plan.without_crash(3))
        .run(vec![(); 4], program)
        .unwrap();
    assert_eq!(rebooted.outputs[1], -1.5);
    assert_eq!(rebooted.stats.total_corrupted(), 1);
}

/// Stragglers and degraded links price exactly as configured.
#[test]
fn stragglers_and_degraded_links_scale_costs_exactly() {
    let program = |mut proc: Proc, ()| async move {
        if proc.id() == 0 {
            proc.send(1, 9, [1.0, 2.0, 3.0, 4.0]);
        } else {
            let _ = proc.recv(0, 9).await;
        }
        proc.clock()
    };
    // Healthy: ts + tw·4 = 18.
    let healthy = machine(2, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 2], program)
        .unwrap();
    assert_eq!(healthy.stats.elapsed, 18.0);
    // A 2x straggler sender doubles it.
    let slow = FaultPlan::new().with_straggler(0, 2.0);
    let out = machine(2, PortModel::OnePort, slow)
        .run(vec![(); 2], program)
        .unwrap();
    assert_eq!(out.stats.elapsed, 36.0);
    // Degradation multiplies the per-edge terms: 2·ts + 3·tw·4 = 44.
    let degraded = FaultPlan::new().with_degraded_link(0, 1, 2.0, 3.0);
    let out = machine(2, PortModel::OnePort, degraded)
        .run(vec![(); 2], program)
        .unwrap();
    assert_eq!(out.stats.elapsed, 44.0);
}

/// An empty fault plan is bit-for-bit identical to the fault-free
/// machine, including routed sends and batched exchanges.
#[test]
fn empty_plan_is_bit_identical_to_the_fault_free_machine() {
    let program = |mut proc: Proc, ()| async move {
        let partner = proc.id() ^ 1;
        let got = proc.exchange(partner, 5, vec![proc.id() as f64; 3]).await;
        assert_eq!(&got[..], &[partner as f64; 3]);
        // A 2-hop routed send with a disjoint tag pattern.
        let far = proc.id() ^ 0b11;
        proc.send_routed(far, 6, [proc.clock()]);
        let _ = proc.recv(far, 6).await;
        proc.clock()
    };
    let fault_free = Machine::builder(8)
        .port(PortModel::OnePort)
        .cost(COST)
        .build()
        .expect("valid machine")
        .run(vec![(); 8], program)
        .unwrap();
    let with_empty_plan = machine(8, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 8], program)
        .unwrap();
    assert_eq!(
        fault_free.stats.elapsed.to_bits(),
        with_empty_plan.stats.elapsed.to_bits()
    );
    assert_eq!(fault_free.outputs, with_empty_plan.outputs);
    assert_eq!(
        fault_free.stats.total_messages(),
        with_empty_plan.stats.total_messages()
    );
}

/// Faulty runs obey the same determinism contract as healthy ones: two
/// identical degraded runs agree bit-for-bit.
#[test]
fn degraded_runs_are_deterministic() {
    let plan = FaultPlan::new()
        .with_dead_link(0, 1)
        .with_straggler(2, 1.5)
        .with_degraded_link(4, 5, 2.0, 2.0)
        .with_drop(3, 2, 0);
    let program = |mut proc: Proc, ()| async move {
        let partner = proc.id() ^ 1;
        if proc.id() < partner {
            proc.send(partner, 9, vec![proc.id() as f64; 5]);
            if proc.id() == 2 {
                let _ = proc.recv(3, 10).await;
            }
        } else {
            let _ = proc.recv(partner, 9).await;
            if proc.id() == 3 {
                // The first injection toward node 2 is dropped; the
                // second is delivered.
                proc.send(2, 10, [9.0]);
                proc.send(2, 10, [9.0]);
            }
        }
        proc.clock()
    };
    let a = machine(8, PortModel::OnePort, plan.clone())
        .run(vec![(); 8], program)
        .unwrap();
    let b = machine(8, PortModel::OnePort, plan)
        .run(vec![(); 8], program)
        .unwrap();
    assert_eq!(a.stats.elapsed.to_bits(), b.stats.elapsed.to_bits());
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.stats.total_dropped(), 1);
}

/// A fault plan that touches no edge of a routed send leaves its time
/// alone to the bit: the healthy path is priced by the paper's closed
/// form whether or not a plan is present. (Summing six 0.1 start-ups
/// gives 0.6, while the closed form 6 · 0.1 gives 0.6000000000000001.)
#[test]
fn routed_send_time_ignores_faults_off_its_path() {
    let costs = [
        (CostParams { ts: 0.1, tw: 0.0 }, 1),
        (CostParams { ts: 0.1, tw: 0.1 }, 7),
    ];
    for port in [PortModel::OnePort, PortModel::MultiPort] {
        for (cost, words) in costs {
            let elapsed = |plan: FaultPlan| {
                let out = Machine::builder(64)
                    .port(port)
                    .cost(cost)
                    .faults(plan)
                    .build()
                    .expect("valid test machine")
                    .run(vec![(); 64], move |mut proc, ()| async move {
                        if proc.id() == 0 {
                            proc.send_routed(63, 1, vec![1.0; words]);
                        } else if proc.id() == 63 {
                            let _ = proc.recv(0, 1).await;
                        }
                    })
                    .expect("the route 0 -> 63 stays healthy");
                out.stats.elapsed.to_bits()
            };
            let healthy = elapsed(FaultPlan::new());
            let off_path = [
                FaultPlan::new().with_dead_link(40, 41),
                FaultPlan::new().with_straggler(5, 1.0),
            ];
            for plan in off_path {
                assert_eq!(elapsed(plan.clone()), healthy, "{port:?} {cost:?} {plan:?}");
            }
        }
    }
}

/// `send` and a one-op `multi` are the same send: equal statistics,
/// traces and failures, under both port models and every fault family.
#[test]
fn send_and_one_op_multi_share_one_path() {
    let flip = Corruption {
        word: 1,
        kind: CorruptKind::BitFlip { bit: 63 },
    };
    let plans = [
        FaultPlan::new(),
        FaultPlan::new().with_dead_link(0, 1),
        FaultPlan::new().with_dead_link(0, 1).strict(),
        FaultPlan::new().with_degraded_link_window(0, 1, 2.0, 3.0, 1, 2),
        FaultPlan::new().with_straggler(0, 1.5),
        FaultPlan::new().with_drop(0, 1, 1),
        FaultPlan::new().with_corruption(0, 1, 1, flip),
    ];
    for port in [PortModel::OnePort, PortModel::MultiPort] {
        for plan in &plans {
            let run = |batched: bool| {
                Machine::builder(4)
                    .port(port)
                    .cost(COST)
                    .traced(true)
                    .faults(plan.clone())
                    .build()
                    .expect("valid test machine")
                    .run(vec![(); 4], move |mut proc, ()| async move {
                        if proc.id() == 0 {
                            for tag in 0..3 {
                                let data = Payload::from(vec![f64::from(tag as u8); 4]);
                                if batched {
                                    proc.multi(vec![Op::Send { to: 1, tag, data }]).await;
                                } else {
                                    proc.send(1, tag, data);
                                }
                            }
                        } else if proc.id() == 1 {
                            for tag in 0..3 {
                                let _ = proc.recv(0, tag).await;
                            }
                        }
                    })
                    .map(|out| (out.stats, out.traces))
            };
            assert_eq!(run(false), run(true), "{port:?} {plan:?}");
        }
    }
}
