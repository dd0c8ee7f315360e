//! Shared helpers for the algorithm drivers.

use std::future::Future;

use cubemm_dense::{partition, Matrix};
use cubemm_simnet::{Machine, Op, Payload, Proc, RunOutcome};

use crate::{AlgoError, MachineConfig};

/// Tag base for phase `i` of an algorithm (phases must not reuse tags).
#[inline]
pub fn phase_tag(i: u64) -> u64 {
    i * cubemm_collectives::TAG_SPACE
}

/// Validates that `a` and `b` are square matrices of the same order and
/// returns that order.
pub fn square_order(a: &Matrix, b: &Matrix) -> Result<usize, AlgoError> {
    let n = a.rows();
    if a.cols() != n || b.rows() != n || b.cols() != n {
        return Err(AlgoError::BadShapes {
            a: (a.rows(), a.cols()),
            b: (b.rows(), b.cols()),
        });
    }
    Ok(n)
}

/// Checks `divisor | n`, attributing the requirement to `what`.
pub fn require_divides(n: usize, divisor: usize, what: &'static str) -> Result<(), AlgoError> {
    if divisor == 0 || !n.is_multiple_of(divisor) {
        return Err(AlgoError::Indivisible { n, divisor, what });
    }
    Ok(())
}

/// Reconstructs a matrix block from a payload of known shape.
#[inline]
pub fn to_matrix(rows: usize, cols: usize, p: &[f64]) -> Matrix {
    Matrix::from_payload(rows, cols, p)
}

/// Block `coords(label)` of the `√p × √p` partitions of `a` and `b` for
/// every node `label` of a `q × q` grid.
pub(crate) fn square_blocks(
    a: &Matrix,
    b: &Matrix,
    q: usize,
    coords: impl Fn(usize) -> (usize, usize),
) -> Vec<(Payload, Payload)> {
    (0..q * q)
        .map(|label| {
            let (i, j) = coords(label);
            (
                partition::square(a, q, i, j).into_payload().into(),
                partition::square(b, q, i, j).into_payload().into(),
            )
        })
        .collect()
}

/// The `n × n` product assembled from one `n/q × n/q` block per node:
/// block `(i, j)` is the output of node `node(i, j)`.
pub(crate) fn assemble_blocks(
    n: usize,
    q: usize,
    outputs: &[Payload],
    node: impl Fn(usize, usize) -> usize,
) -> Matrix {
    partition::assemble_square(n, q, |i, j| to_matrix(n / q, n / q, &outputs[node(i, j)]))
}

/// One shift round of the Cannon family: each `(to, from, tag, block)`
/// move sends `block` to `to` and takes its replacement from `from`
/// under the same tag. The round is one [`Proc::multi`] batch — every
/// send in move order, then every receive in move order — issued even
/// when there are no moves, because a scheduled crash counts
/// communication calls. It resolves to the batch's results, whose `Some`s
/// are the replacement blocks in move order. It allocates two vectors:
/// the `Vec<Op>` that `multi` takes, and the results vector `multi`
/// returns.
///
/// The batch is built before the returned future is first polled, and
/// that future is `multi`'s own: a round runs once per step on every
/// node, and an async layer of its own per round, or a push per op,
/// measurably slows 4096-node runs.
#[inline(always)]
pub(crate) fn shift_round(
    proc: &mut Proc,
    moves: impl IntoIterator<Item = (usize, usize, u64, Payload)>,
) -> impl Future<Output = Vec<Option<Payload>>> + '_ {
    // `multi` runs every send before any receive, so pairing them here
    // issues the same batch. Collecting pairs writes the batch in place,
    // which a push per op does not.
    let ops = moves
        .into_iter()
        .map(|(to, from, tag, data)| [Op::Send { to, tag, data }, Op::Recv { from, tag }])
        .collect::<Vec<[Op; 2]>>()
        .into_flattened();
    proc.multi(ops)
}

/// The `g` column groups of `m`, each row-major — the payload form of
/// [`cubemm_dense::partition::col_group`] for every group at once — as
/// consecutive windows of one allocation: one copy of each word, and a
/// reduce-scatter takes them as one bundle without another.
///
/// # Panics
/// Panics if `g` does not divide the column count.
pub fn col_groups(m: &Matrix, g: usize) -> Vec<Payload> {
    assert_eq!(m.cols() % g, 0, "cols not divisible into {g} groups");
    let (rows, w) = (m.rows(), m.cols() / g);
    let segments = (0..g).flat_map(|l| (0..rows).map(move |r| &m.row(r)[l * w..(l + 1) * w]));
    let all = Payload::concat(m.words(), segments);
    (0..g)
        .map(|l| all.slice(l * rows * w, (l + 1) * rows * w))
        .collect()
}

/// The `g` row groups of `m` — [`cubemm_dense::partition::row_group`]
/// for every group at once — as consecutive windows of `m`'s words,
/// which are copied once.
///
/// # Panics
/// Panics if `g` does not divide the row count.
pub fn row_groups(m: Matrix, g: usize) -> Vec<Payload> {
    assert_eq!(m.rows() % g, 0, "rows not divisible into {g} groups");
    let h = m.words() / g;
    let all = Payload::from(m.into_payload());
    (0..g).map(|l| all.slice(l * h, (l + 1) * h)).collect()
}

/// Stacks row-major blocks of equal width vertically — the payload form
/// of [`cubemm_dense::partition::stack_rows`] — copying each word once,
/// straight from the received payloads (or nothing, when they are
/// consecutive windows of one allocation; see [`Payload::concat`]).
pub fn stack_rows(parts: &[Payload]) -> Payload {
    let len = parts.iter().map(|part| part.len()).sum();
    Payload::concat(len, parts)
}

/// Places row-major blocks of `rows` rows each side by side — the
/// payload form of [`cubemm_dense::partition::concat_cols`] — copying
/// each word once, straight from the received payloads.
pub fn concat_cols(rows: usize, parts: &[Payload]) -> Payload {
    let len = parts.iter().map(|part| part.len()).sum();
    let row_segments = (0..rows).flat_map(|r| {
        parts.iter().map(move |part| {
            let w = part.len() / rows;
            &part[r * w..(r + 1) * w]
        })
    });
    Payload::concat(len, row_segments)
}

/// Unwraps a value an algorithm invariant guarantees is present — an
/// engine-delivered payload ([`Proc::multi`] returns exactly one `Some`
/// per `Op::Recv` on a healthy machine), a node's own staged block, or
/// a bijectively-assigned slot. A `None` here is a bug in the engine or
/// the algorithm's index arithmetic, not a recoverable condition, so
/// the node panics (which the machine turns into a structured
/// [`RunOutcome`] failure, not a process abort).
#[inline]
#[track_caller]
#[allow(
    clippy::expect_used,
    reason = "documented algorithm/engine invariant; a miss is a bug, not a recoverable state"
)]
pub fn delivered<T>(value: Option<T>, what: &str) -> T {
    value.expect(what)
}

/// Runs an SPMD program on the machine described by `cfg`, honoring the
/// tracing flag and the fault plan. `inits` holds each node's initial
/// data; a large machine spreads over spare host cores
/// ([`Machine::run_sharded`]), with the result bit for bit the one-shard
/// run's. Simulator failures — deadlock, node panic, link faults — come
/// back as [`AlgoError::Sim`] values rather than panics, so a faulty
/// machine degrades a multiplication into a reportable error.
pub fn run_spmd<I, O, F, Fut>(
    cfg: &MachineConfig,
    p: usize,
    inits: Vec<I>,
    f: F,
) -> Result<RunOutcome<O>, AlgoError>
where
    F: Fn(Proc, I) -> Fut + Sync,
    Fut: Future<Output = O>,
    I: Send,
    O: Send,
{
    // Reuse a pre-validated machine only when it still describes
    // exactly this run; any mismatch (size, ports, fault plan, ...)
    // falls back to a fresh validate-and-boot.
    let machine = match &cfg.prepared {
        Some(m) if m.p() == p && *m.options() == cfg.machine_options() => m.clone(),
        _ => Machine::new(p, cfg.machine_options()).map_err(AlgoError::Sim)?,
    };
    machine.run_sharded(inits, f).map_err(AlgoError::Sim)
}
