//! In-place accumulation must never write through an allocation someone
//! else can see.
//!
//! Reductions add an incoming packet into the stored one in place when
//! the store is the sole owner of its words. The inputs here are the
//! cases where it is not: the caller keeps clones of what it passed in,
//! and the parts are windows of a single allocation. Under both port
//! models the sums must come out right *and* every view the caller kept
//! must be bit-for-bit what it was.

use cubemm_collectives::{reduce_scatter, reduce_sum};
use cubemm_simnet::{CostParams, Machine, Payload, PortModel};
use cubemm_topology::Subcube;

const P: usize = 16;
/// Long enough that every multi-port slice still lives on the heap.
const WORDS: usize = 40;

#[allow(
    clippy::expect_used,
    reason = "fixed, valid test machines; a failure is a test bug"
)]
fn machines() -> [(PortModel, Machine); 2] {
    [PortModel::OnePort, PortModel::MultiPort].map(|port| {
        let machine = Machine::builder(P)
            .port(port)
            .cost(CostParams { ts: 10.0, tw: 2.0 })
            .build()
            .expect("valid test machine");
        (port, machine)
    })
}

fn word(rank: usize, part: usize, x: usize) -> f64 {
    (rank * 10_000 + part * 100 + x) as f64 + 0.5
}

fn bits(words: &[f64]) -> Vec<u64> {
    words.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn reduce_sum_leaves_the_callers_clone_untouched() {
    for (port, machine) in machines() {
        for root in [0, 5] {
            let out = machine
                .run(vec![(); P], move |mut proc, ()| async move {
                    let sc = Subcube::whole(proc.dim());
                    let rank = sc.rank_of(proc.id());
                    let mine: Payload = (0..WORDS).map(|x| word(rank, 0, x)).collect();
                    let kept = mine.clone();
                    let sum = reduce_sum(&mut proc, &sc, root, 0, mine).await;
                    (kept, sum)
                })
                .expect("healthy run");
            for (rank, (kept, sum)) in out.outputs.iter().enumerate() {
                let original: Vec<f64> = (0..WORDS).map(|x| word(rank, 0, x)).collect();
                assert_eq!(
                    bits(kept),
                    bits(&original),
                    "{port} root {root}: rank {rank}'s input was written through"
                );
                assert_eq!(sum.is_some(), rank == root);
            }
            let sum = out.outputs[root].1.as_ref().expect("root holds the sum");
            for (x, got) in sum.iter().enumerate() {
                let want: f64 = (0..P).map(|rank| word(rank, 0, x)).sum();
                assert_eq!(*got, want, "{port} root {root}: word {x}");
            }
        }
    }
}

#[test]
fn reduce_scatter_leaves_shared_windows_and_clones_untouched() {
    for (port, machine) in machines() {
        let out = machine
            .run(vec![(); P], move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let rank = sc.rank_of(proc.id());
                // One allocation, one window per destination.
                let whole: Payload = (0..P * WORDS)
                    .map(|i| word(rank, i / WORDS, i % WORDS))
                    .collect();
                let parts: Vec<Payload> = (0..P)
                    .map(|part| whole.slice(part * WORDS, (part + 1) * WORDS))
                    .collect();
                let kept = parts.clone();
                let mine = reduce_scatter(&mut proc, &sc, 0, parts).await;
                (whole, kept, mine)
            })
            .expect("healthy run");
        for (rank, (whole, kept, mine)) in out.outputs.iter().enumerate() {
            let original: Vec<f64> = (0..P * WORDS)
                .map(|i| word(rank, i / WORDS, i % WORDS))
                .collect();
            assert_eq!(
                bits(whole),
                bits(&original),
                "{port}: rank {rank}'s allocation was written through"
            );
            for (part, window) in kept.iter().enumerate() {
                assert_eq!(
                    bits(window),
                    bits(&original[part * WORDS..(part + 1) * WORDS]),
                    "{port}: rank {rank}'s window {part} changed"
                );
            }
            // Recursive halving adds in a fixed tree order; these
            // integers-plus-a-half sum exactly in any order.
            for (x, got) in mine.iter().enumerate() {
                let want: f64 = (0..P).map(|from| word(from, rank, x)).sum();
                assert_eq!(*got, want, "{port}: rank {rank} word {x}");
            }
        }
    }
}
