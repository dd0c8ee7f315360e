//! Shared helpers for the algorithm drivers.

use std::future::Future;

use cubemm_dense::Matrix;
use cubemm_simnet::{Machine, Payload, Proc, RunOutcome};

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
    if divisor == 0 || n % divisor != 0 {
        return Err(AlgoError::Indivisible { n, divisor, what });
    }
    Ok(())
}

/// Reconstructs a matrix block from a payload of known shape.
#[inline]
pub fn to_matrix(rows: usize, cols: usize, p: &[f64]) -> Matrix {
    Matrix::from_payload(rows, cols, p)
}

/// Stacks row-major blocks of equal width vertically — the payload form
/// of [`cubemm_dense::partition::stack_rows`] — copying each word once,
/// straight from the received payloads.
pub fn stack_rows(parts: &[Payload]) -> Payload {
    let len = parts.iter().map(|part| part.len()).sum();
    Payload::concat(len, parts.iter().map(|part| &part[..]))
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
/// tracing flag and the fault plan. Simulator failures — deadlock, node
/// panic, link faults — come back as [`AlgoError::Sim`] values rather
/// than panics, so a faulty machine degrades a multiplication into a
/// reportable error.
pub fn run_spmd<I, O, F, Fut>(
    cfg: &MachineConfig,
    p: usize,
    inits: Vec<I>,
    f: F,
) -> Result<RunOutcome<O>, AlgoError>
where
    F: Fn(Proc, I) -> Fut,
    Fut: Future<Output = O>,
{
    // Reuse a pre-validated machine only when it still describes
    // exactly this run; any mismatch (size, ports, fault plan, ...)
    // falls back to a fresh validate-and-boot.
    let machine = match &cfg.prepared {
        Some(m) if m.p() == p && *m.options() == cfg.machine_options() => m.clone(),
        _ => Machine::new(p, cfg.machine_options()).map_err(AlgoError::Sim)?,
    };
    machine.run(inits, f).map_err(AlgoError::Sim)
}
