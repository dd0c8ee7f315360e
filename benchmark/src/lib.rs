//! cubemm's benchmark: four front-door workloads (`run_compute`,
//! `run_comm`, `serve_mix`, `chaos_certify`) with per-layer attribution.
//!
//! * [`frontdoor`] takes every end-to-end number from real `cubemm`
//!   processes, tracing off;
//! * [`traced`] replays the same inputs in-process ([`replay`]) under
//!   spans ([`span`]) and measures each crate's public functions
//!   ([`layers`]) for the per-layer numbers;
//! * [`report`] turns either pass into the result line and file, and
//!   compares two result files against the bounds in `BENCHMARK.json`.
//!
//! `benchmark/README.md` has the workload rationale and the table of
//! which layer metric should move which end-to-end metric.

pub mod endtoend;
pub mod frontdoor;
pub mod host;
pub mod json;
pub mod layers;
pub mod replay;
pub mod report;
pub mod rng;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workloads;
