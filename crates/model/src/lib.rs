//! The paper's analytical communication-cost model.
//!
//! The evaluation of the paper is numerical: Table 2 gives each
//! algorithm's communication overhead as a pair `(a, b)` with time
//! `t_s·a + t_w·b`, Table 3 gives applicability conditions and total
//! space, and Figures 13/14 mark, for each region of the `(n, p)`
//! parameter space, the algorithm with the least overhead ("generated by
//! a computer program on the basis of the expressions in Table 2" — §5).
//!
//! This crate *is* that computer program. [`sym`] states each Table 2
//! row once, as an exact polynomial in `n`, `p` and `log p`, built once
//! per process; [`costs`] evaluates those rows (a term whose exact value
//! is representable evaluates to it, so 3DD one-port at `n = p = 64` is
//! `(8, 2048)`, not `2047.9999…`), [`space`] transcribes the Table 3
//! space/conditions, and [`regions`] rasterizes the best-algorithm maps.
//! The same rows are proven against every composed algorithm schema by
//! `cubemm-analyze`, and checked against the executable simulator in the
//! workspace integration tests (`tests/table2_validation.rs`).

pub mod costs;
pub mod extensions;
pub mod regions;
pub mod scalability;
pub mod space;
pub mod sym;

pub use costs::{all3d_full_bandwidth, overhead, time, ModelAlgo, Overhead};
pub use extensions::{dns_cannon_overhead, flat_all3d_overhead};
pub use regions::{best_algorithm, render_ascii, RegionMap, Sweep};
pub use scalability::{efficiency, isoefficiency_curve, isoefficiency_n, ScaleParams};
pub use space::total_space;
pub use sym::{overhead_sym, Poly, Rat, SymOverhead};

pub use cubemm_simnet::PortModel;
