//! Dense matrices, blocked partitioning, and local GEMM kernels.
//!
//! Every distributed algorithm in the paper decomposes the global
//! `n × n` matrices into sub-blocks, row groups, or column groups, ships
//! those around a hypercube, and multiplies the local pieces. This crate
//! supplies:
//!
//! * [`Matrix`] — an owned row-major `f64` matrix, and [`MatrixView`],
//!   the borrowed row-major view every kernel reads its operands through,
//! * [`gemm`] — the two local multiplication kernels: the packed
//!   register-tiled fast path and the unpacked tiled loop the host
//!   reference verifies with, both accumulating (`C += A·B`),
//! * [`pack`] / [`microkernel`] / [`pool`] — the packed kernel's panel
//!   layouts, runtime-dispatched register-tiled microkernels (AVX-512
//!   `12×8`, AVX2+FMA `6×8`, a portable `4×8` fallback — one tile body
//!   compiled per ISA), and its parallel-for on
//!   scoped threads with per-thread scratch buffers,
//! * [`tune`] — cache detection, blocking-parameter sweeps, and the
//!   persisted tuning file behind `cubemm tune-kernel`,
//! * [`partition`] — the exact block/group layouts the paper's algorithms
//!   assume initially (Figures 1, 8, 9) and their inverses for
//!   reassembling distributed results.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod abft;
pub mod gemm;
pub mod matrix;
pub mod microkernel;
pub mod pack;
pub mod partition;
pub mod pool;
pub mod tune;

pub use matrix::{Matrix, MatrixView};

/// Whether `CUBEMM_FORCE_SCALAR` (set to anything but `0`/empty) pins
/// every runtime-dispatched kernel to its portable instantiation.
pub(crate) fn force_scalar() -> bool {
    std::env::var("CUBEMM_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}
