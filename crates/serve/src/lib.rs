//! `cubemm-serve`: a long-lived multiply service over the simulated
//! hypercube machines.
//!
//! The crate turns the one-shot pipeline (boot a machine, multiply,
//! exit) into a service: a pool of workers boots machines once and
//! keeps them hot, jobs arrive as JSON lines (see [`protocol`]), and a
//! bounded queue with priority shedding keeps overload honest — the
//! service answers `overloaded` with a retry hint instead of buffering
//! without limit.
//!
//! Robustness contract, end to end:
//!
//! * **no silent wrong answers** — every `ok` carries a verified
//!   product's fingerprint; ABFT jobs are checksum-verified, non-ABFT
//!   jobs are checked against the host reference ([`exec`]),
//! * **per-job deadlines** in virtual time, charged with recovery
//!   backoff,
//! * **quarantine-and-reboot** — a machine that crashes or corrupts is
//!   self-tested back into service while the rest of the pool keeps
//!   draining the queue ([`pool`]),
//! * **malformed-request isolation** — a bad line gets a `malformed`
//!   response; the stream lives on,
//! * **clean drain** — EOF or SIGTERM stops admission, finishes queued
//!   work, then exits ([`shutdown`]).
//!
//! The CLI front end (`cubemm serve`) lives in `cubemm-cli`; this crate
//! holds everything testable without a process boundary.

pub mod exec;
pub mod pool;
pub mod protocol;
pub mod shutdown;

pub use cubemm_harness::job::{fingerprint, fingerprint_hex};
pub use exec::{execute, resolve_auto, ExecOutcome};
pub use pool::{PoolStats, Responder, ServeConfig, ServePool};
pub use protocol::{parse_request, AlgoChoice, JobRequest, JobResponse, JobStatus};
