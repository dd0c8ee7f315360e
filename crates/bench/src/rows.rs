//! The collectives as the matmul algorithms use them: one instance on
//! every `n`-node row of the machine at once (a row spans the low
//! `log n` dimensions), one block per packet. Shared by `simnet_bench`
//! (p = 4096 as 64 rows of 64: ns and allocations per message) and the
//! allocation-budget test (a single 64-node row: allocations per
//! packet).

use cubemm_collectives as coll;
use cubemm_simnet::{CostParams, Machine, Payload, PortModel, RunStats};
use cubemm_topology::Subcube;

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

/// Runs `kind` once on every `n`-node row of `machine` (rooted ones at
/// rank 0).
///
/// # Panics
/// Panics if the healthy run fails — a bench bug.
pub fn run(
    machine: &Machine,
    kind: RowCollective,
    n: usize,
    inputs: Vec<Vec<Payload>>,
) -> RunStats {
    let words = inputs[0][0].len();
    let out = machine.run(inputs, move |mut proc, mut mine: Vec<Payload>| async move {
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
    });
    #[allow(
        clippy::expect_used,
        reason = "bench machine shapes are fixed and valid; failure is a bench bug"
    )]
    out.expect("healthy collective").stats
}
