//! The paper's Table 1, numerically: the closed-form `(a, b)` every
//! collective schedule is checked against at concrete `(d, m)`. (Its
//! exact-polynomial counterpart is [`crate::symbolic::table1_sym`].)

use cubemm_collectives::CollKind;
use cubemm_simnet::PortModel;

/// The Table 1 closed form for `coll` on an `N = 2^d`-node subcube with
/// `M = m` words per node: returns `(a, b)` such that the optimal
/// schedule costs `t_s·a + t_w·b`. Exact when the slice arithmetic is
/// even (`m` divisible by `d` for the multi-port rows).
pub fn table1(coll: CollKind, port: PortModel, d: u32, m: usize) -> (f64, f64) {
    let nf = (1usize << d) as f64;
    let df = f64::from(d);
    let mf = m as f64;
    let b = match (coll, port) {
        (CollKind::Bcast | CollKind::Reduce, PortModel::OnePort) => mf * df,
        (CollKind::Bcast | CollKind::Reduce, PortModel::MultiPort) => mf,
        (
            CollKind::Scatter | CollKind::Gather | CollKind::Allgather | CollKind::ReduceScatter,
            PortModel::OnePort,
        ) => (nf - 1.0) * mf,
        (
            CollKind::Scatter | CollKind::Gather | CollKind::Allgather | CollKind::ReduceScatter,
            PortModel::MultiPort,
        ) => (nf - 1.0) * mf / df,
        (CollKind::Alltoall, PortModel::OnePort) => nf * mf * df / 2.0,
        (CollKind::Alltoall, PortModel::MultiPort) => nf * mf / 2.0,
    };
    (df, b)
}
