//! The collectives as the matmul algorithms use them: one instance on
//! every `n`-node row of the machine at once (a row spans the low
//! `log n` dimensions), one block per packet. Shared by `simnet_bench`
//! (p = 4096 as 64 rows of 64: ns and allocations per message) and the
//! allocation-budget test (a single 64-node row: allocations per
//! packet). [`shift`] is the point-to-point counterpart: Cannon's
//! shift phase on the whole machine. Each runs on a given number of
//! shards (`cubemm_simnet::with_shards`; 1 is `Machine::run`).

use std::cell::Cell;

use cubemm_collectives as coll;
use cubemm_simnet::{CostParams, Machine, Op, Payload, PortModel, Proc, RunStats};
use cubemm_topology::{gray_delta_bit, Grid2, Subcube};

/// A collective that moves many packets per message — the ones whose
/// host cost is bundling, splitting and plan generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCollective {
    Allgather,
    ReduceScatter,
    Scatter,
    Gather,
    Alltoall,
}

impl RowCollective {
    pub const ALL: [RowCollective; 5] = [
        RowCollective::Allgather,
        RowCollective::ReduceScatter,
        RowCollective::Scatter,
        RowCollective::Gather,
        RowCollective::Alltoall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RowCollective::Allgather => "allgather",
            RowCollective::ReduceScatter => "reduce_scatter",
            RowCollective::Scatter => "scatter",
            RowCollective::Gather => "gather",
            RowCollective::Alltoall => "alltoall",
        }
    }

    /// Blocks a node of an `n`-node row contributes.
    fn blocks_per_node(self, n: usize, is_root: bool) -> usize {
        match self {
            RowCollective::Allgather | RowCollective::Gather => 1,
            RowCollective::ReduceScatter | RowCollective::Alltoall => n,
            RowCollective::Scatter => n * usize::from(is_root),
        }
    }

    /// Table 1's virtual time for this collective over `n = 2^d`-node
    /// rows with `words`-word blocks. Multi-port schedules cut a block
    /// into `d` slices and every round moves the same number of packets
    /// in each, so the longest slice, `⌈words/d⌉`, sets the pace.
    pub fn closed_form(self, cost: CostParams, port: PortModel, n: usize, words: usize) -> f64 {
        let d = n.trailing_zeros() as usize;
        let slice = match port {
            PortModel::OnePort => words,
            PortModel::MultiPort => words.div_ceil(d.max(1)),
        };
        let packets_in_sequence = match self {
            RowCollective::Alltoall => d * n / 2,
            _ => n - 1,
        };
        cost.ts * d as f64 + cost.tw * (packets_in_sequence * slice) as f64
    }

    /// Packets delivered (each counted at every hop) over all `n`-node
    /// rows of a `p`-node machine: the sum of the receive lists of every
    /// node's plan.
    pub fn delivered_packets(self, port: PortModel, p: usize, n: usize) -> usize {
        let d = n.trailing_zeros() as usize;
        let copies = match port {
            PortModel::OnePort => 1,
            PortModel::MultiPort => d.max(1),
        };
        // A packet crosses one link per bit in which source and
        // destination differ: `n·d/2` bit differences from one rank to
        // all others.
        let per_row = match self {
            RowCollective::Allgather | RowCollective::ReduceScatter => n * (n - 1),
            RowCollective::Scatter | RowCollective::Gather => n * d / 2,
            RowCollective::Alltoall => n * n * d / 2,
        };
        per_row * copies * (p / n)
    }
}

/// The `n`-node row of `id`.
fn row_of(id: usize, n: usize) -> Subcube {
    Subcube::new(id, (0..n.trailing_zeros()).collect())
}

/// Every node's input blocks (`words` words each), built up front so a
/// measurement of [`run`] sees the collective's own work only.
pub fn inputs(kind: RowCollective, p: usize, n: usize, words: usize) -> Vec<Vec<Payload>> {
    (0..p)
        .map(|id| {
            let row = row_of(id, n);
            let blocks = kind.blocks_per_node(n, row.rank_of(id) == 0);
            (0..blocks)
                .map(|b| vec![(id * 1000 + b) as f64; words].into())
                .collect()
        })
        .collect()
}

/// The input builder of a run that builds its inputs once: a healthy
/// bench run is never repeated on one shard, so the prepared inputs move
/// in whole, untimed and uncloned.
fn once<I>(inputs: Vec<I>) -> impl Fn() -> Vec<I> {
    let inputs = Cell::new(Some(inputs));
    move || {
        #[allow(
            clippy::expect_used,
            reason = "only a failed sharded run builds twice, and a bench run never fails"
        )]
        inputs
            .take()
            .expect("a healthy bench run builds its inputs once")
    }
}

/// Runs `kind` once on every `n`-node row of `machine` (rooted ones at
/// rank 0), on `shards` shards.
///
/// # Panics
/// Panics if the healthy run fails — a bench bug.
pub fn run(
    machine: &Machine,
    kind: RowCollective,
    n: usize,
    shards: usize,
    inputs: Vec<Vec<Payload>>,
) -> RunStats {
    let words = inputs[0][0].len();
    let build = once(inputs);
    let program = move |mut proc: Proc, mut mine: Vec<Payload>| async move {
        let row = row_of(proc.id(), n);
        let delivered = match kind {
            RowCollective::Allgather => {
                let mine = mine.swap_remove(0);
                coll::allgather(&mut proc, &row, 0, mine).await.len()
            }
            RowCollective::ReduceScatter => {
                coll::reduce_scatter(&mut proc, &row, 0, mine).await.len()
            }
            RowCollective::Scatter => {
                let parts = (!mine.is_empty()).then_some(mine);
                coll::scatter(&mut proc, &row, 0, 0, parts, words)
                    .await
                    .len()
            }
            RowCollective::Gather => {
                let mine = mine.swap_remove(0);
                let got = coll::gather(&mut proc, &row, 0, 0, mine).await;
                got.map_or(0, |parts| parts.len())
            }
            RowCollective::Alltoall => coll::alltoall_personalized(&mut proc, &row, 0, mine)
                .await
                .len(),
        };
        std::hint::black_box(delivered);
    };
    let out = cubemm_simnet::with_shards(shards, || machine.run_sharded(build, program));
    #[allow(
        clippy::expect_used,
        reason = "bench machine shapes are fixed and valid; failure is a bench bug"
    )]
    out.expect("healthy collective").stats
}

/// Cannon's shift phase as the algorithm runs it, without the GEMMs: on
/// the `q × q` grid of a `p = q²`-node machine every node holds a
/// `words`-word A and B block and, for each of the `q − 1` steps of the
/// XOR-Gray sequence, sends A to its row neighbour and B to its column
/// neighbour across dimension `gray_delta_bit(step)` in one batch,
/// receives both replacements and keeps them — forwarded by move on the
/// next step, as `cannon_phase` does.
pub mod shift {
    use super::*;

    /// Every node's `(A, B)` blocks, built up front so a measurement of
    /// [`run`] sees the shifts only.
    pub fn inputs(p: usize, words: usize) -> Vec<(Payload, Payload)> {
        (0..p)
            .map(|id| {
                let a = vec![id as f64; words].into();
                let b = vec![-(id as f64); words].into();
                (a, b)
            })
            .collect()
    }

    /// Virtual time of the `q − 1` shift steps: each step is two
    /// `t_s + t_w·words` sends, serialized one-port and overlapped
    /// multi-port (A and B leave on different links); receives are
    /// passive and arrive when the partner's matching send ends.
    pub fn closed_form(cost: CostParams, port: PortModel, q: usize, words: usize) -> f64 {
        let sends_in_sequence = match port {
            PortModel::OnePort => 2,
            PortModel::MultiPort => 1,
        };
        (q - 1) as f64 * sends_in_sequence as f64 * cost.hop(words)
    }

    /// Runs the shift phase on every node of `machine`, on `shards`
    /// shards.
    ///
    /// # Panics
    /// Panics if `machine.p()` is not a square power of two or the
    /// healthy run fails — a bench bug.
    pub fn run(machine: &Machine, shards: usize, inputs: Vec<(Payload, Payload)>) -> RunStats {
        #[allow(
            clippy::expect_used,
            reason = "bench machine shapes are fixed and valid; failure is a bench bug"
        )]
        let grid = Grid2::new(machine.p()).expect("square machine");
        let build = once(inputs);
        let program = move |mut proc: Proc, (mut a, mut b): (Payload, Payload)| async move {
            let (i, j) = grid.coords(proc.id());
            for step in 0..grid.q() - 1 {
                let bit = gray_delta_bit(step);
                let a_partner = grid.node(i, j ^ (1 << bit));
                let b_partner = grid.node(i ^ (1 << bit), j);
                let (a_tag, b_tag) = (2 * step as u64, 2 * step as u64 + 1);
                let results = proc
                    .multi(vec![
                        Op::Send {
                            to: a_partner,
                            tag: a_tag,
                            data: a,
                        },
                        Op::Send {
                            to: b_partner,
                            tag: b_tag,
                            data: b,
                        },
                        Op::Recv {
                            from: a_partner,
                            tag: a_tag,
                        },
                        Op::Recv {
                            from: b_partner,
                            tag: b_tag,
                        },
                    ])
                    .await;
                let mut received = results.into_iter().flatten();
                #[allow(
                    clippy::expect_used,
                    reason = "multi returns one payload per Recv on a healthy machine"
                )]
                {
                    a = received.next().expect("shifted A");
                    b = received.next().expect("shifted B");
                }
            }
            std::hint::black_box(a.len() + b.len());
        };
        let out = cubemm_simnet::with_shards(shards, || machine.run_sharded(build, program));
        #[allow(
            clippy::expect_used,
            reason = "bench machine shapes are fixed and valid; failure is a bench bug"
        )]
        out.expect("healthy shift").stats
    }
}
