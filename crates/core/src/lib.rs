//! Distributed dense matrix multiplication on hypercubes.
//!
//! This crate implements, end to end on the simulated hypercube
//! multicomputer of `cubemm-simnet`, every algorithm analysed in
//! *"Communication Efficient Matrix Multiplication on Hypercubes"*
//! (Gupta & Sadayappan, SPAA 1994):
//!
//! | module | algorithm | paper section |
//! |---|---|---|
//! | [`simple`] | row/column all-to-all broadcast | §3.1 |
//! | [`cannon`] | Cannon (hypercube XOR/Gray form) | §3.2 |
//! | [`hje`] | Ho–Johnsson–Edelman full-bandwidth Cannon | §3.3 |
//! | [`berntsen`] | Berntsen's subcube outer products | §3.4 |
//! | [`dns`] | Dekel–Nassimi–Sahni 3-D algorithm | §3.5 |
//! | [`diag2d`] | 2-D Diagonal (stepping stone) | §4.1.1 |
//! | [`diag3d`] | **3-D Diagonal (3DD)** — new in the paper | §4.1.2 |
//! | [`all_trans3d`] | 3-D All_Trans (stepping stone) | §4.2.1 |
//! | [`all3d`] | **3-D All** — new in the paper | §4.2.2 |
//!
//! Extensions and baselines beyond the tabulated set: [`dns_cannon`] and
//! [`all3d_cannon`] (the §3.5 supernode combinations), [`all3d_flat`]
//! (the §4.2.2 flat-grid remark), [`cannon_torus`] (Cannon's 1969 torus
//! original on the Gray-ring embedding), [`fox`] (Fox–Otto–Hey,
//! reference \[4\]), and
//! [`all_trans3d::multiply_from_identical`] (the §4.1.1 transpose
//! workaround).
//!
//! Every `multiply` function runs the *actual* SPMD data movement on a
//! simulated `p`-node hypercube (under a virtual-clock event loop, over
//! spare host cores when the machine is large), returns the assembled
//! product matrix plus the run's virtual-time and traffic statistics,
//! and is verified against a sequential reference product in the test
//! suites. The communication cost of a run is measured, not assumed; the
//! Table 2 validation suite compares these measurements with the paper's
//! closed forms.
//!
//! # Quick start
//!
//! ```
//! use cubemm_core::{Algorithm, MachineConfig};
//! use cubemm_dense::Matrix;
//!
//! let n = 16;
//! let a = Matrix::random(n, n, 1);
//! let b = Matrix::random(n, n, 2);
//! let cfg = MachineConfig::default();
//! let result = Algorithm::All3d.multiply(&a, &b, 8, &cfg).unwrap();
//! let reference = cubemm_dense::gemm::reference(&a, &b);
//! assert!(result.c.max_abs_diff(&reference) < 1e-9);
//! println!("simulated time: {}", result.stats.elapsed);
//! ```

pub mod abft;
pub mod all3d;
pub mod all3d_cannon;
pub mod all3d_flat;
pub mod all_trans3d;
pub mod berntsen;
pub mod cannon;
pub mod cannon_torus;
pub mod config;
pub mod diag2d;
pub mod diag3d;
pub mod dns;
pub mod dns_cannon;
pub mod error;
pub mod fox;
pub mod hje;
pub mod registry;
pub mod schema;
pub mod simple;
pub(crate) mod util;

pub use abft::{AbftOutcome, AbftResult};
pub use config::{MachineConfig, MachineConfigBuilder, RunResult};
pub use error::AlgoError;
pub use registry::{AlgoDescriptor, AlgoGroup, Algorithm};
pub use schema::{AlgoSchema, CollPhase, Phase, SchemaForm};

/// One-line import for the common driver surface:
///
/// ```
/// use cubemm_core::prelude::*;
///
/// let a = Matrix::random(16, 16, 1);
/// let b = Matrix::random(16, 16, 2);
/// let cfg = MachineConfig::builder().kernel(Kernel::packed()).build();
/// let res = Algorithm::All3d.multiply(&a, &b, 8, &cfg).unwrap();
/// assert!(res.c.max_abs_diff(&cubemm_dense::gemm::reference(&a, &b)) < 1e-9);
/// ```
pub mod prelude {
    pub use crate::{AlgoError, Algorithm, MachineConfig, MachineConfigBuilder, RunResult};
    pub use cubemm_dense::gemm::Kernel;
    pub use cubemm_dense::Matrix;
}
