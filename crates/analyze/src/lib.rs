//! Static schedule analysis for the simulated hypercube.
//!
//! The collectives and algorithms in this workspace all reduce to
//! *static communication schedules*: per-node lists of rounds, each a
//! batch of sends and receives. That structure never depends on matrix
//! values, which makes the interesting properties provable without
//! execution:
//!
//! 1. **Matching / deadlock freedom** — every receive has a matching
//!    send (FIFO per `(src, dst, tag)` channel, exactly the simulator's
//!    discipline), and the wait graph admits an execution order. A
//!    violation yields a counterexample naming the offending nodes,
//!    rounds, and tags ([`Diagnostic::UnmatchedRecv`],
//!    [`Diagnostic::CyclicWait`]).
//! 2. **Architecture legality** — every transfer crosses genuine
//!    hypercube edges; one-port schedules drive at most one link per
//!    round (strict mode); multi-port schedules never put two transfers
//!    on one link in the same round ([`Diagnostic::LinkContention`] —
//!    the full-bandwidth claim behind the paper's Table 1).
//! 3. **Cost conformance** — replaying the simulator's clock rules over
//!    the schedule at `(t_s, t_w) = (1, 0)` and `(0, 1)` extracts the
//!    exact `(a, b)` = (start-ups, word volume) on the critical path,
//!    which one point judge ([`symbolic::judge`]) compares against the
//!    algorithm certificate's prediction — its composed closed form,
//!    proven against the paper's Table 2 in `cubemm_model`.
//!
//! Schedules enter the analyzer two ways: a collective's schema is
//! expanded for every node ([`symbolic::expand_collective`] — the same
//! description the executor reads its rounds from), and whole
//! multiplication algorithms are captured from one traced run via the
//! per-event program-round stamps ([`ir::Schedule::from_traces`]), after
//! which every check is static. The static replay is cross-validated against
//! the machine on every capture: it must reproduce the run's elapsed
//! time exactly ([`AlgoCertificate::analyze`]).

pub mod check;
pub mod collectives;
pub mod conformance;
pub mod ir;
pub mod report;
pub mod symbolic;

pub use check::{
    analyze, replay_elapsed, Analysis, Diagnostic, Extracted, PhaseSummary, Strictness, WaitLink,
};
pub use collectives::table1;
pub use conformance::{applicable_grid, capture};
pub use ir::{Event, Round, Schedule};
pub use report::{render, render_analysis};
pub use symbolic::{
    algo_cost_sym, analyze_algorithm, captured_collective, certify_algorithm,
    certify_all_algorithms, certify_all_collectives, certify_collective, coll_cost_sym,
    compose_algorithm, diff_schedules, expand_collective, judge, table1_sym, AlgoAnalysis,
    AlgoCertificate, CollCertificate, Obligation, SymCost, Verdict,
};
