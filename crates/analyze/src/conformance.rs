//! Whole-algorithm capture, static checks, and replay fidelity.
//!
//! Every multiplication algorithm's communication schedule is
//! data-oblivious: the messages, peers, and sizes depend only on
//! `(n, p, port)`. So one traced run — at any cost parameters and with
//! any local kernel — yields the schedule, and everything else is
//! static: the checks prove it deadlock-free and legal, and the replay
//! extracts its exact `(a, b)`. Judging that `(a, b)` is the symbolic
//! certificate's job ([`crate::symbolic::AlgoCertificate::analyze`]).

use cubemm_core::{AlgoError, Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_simnet::{CostParams, PortModel};

use crate::check::{analyze, replay_elapsed, Analysis, Strictness};
use crate::ir::Schedule;

/// Relative equality for extracted costs: "exactly equal" up to
/// floating-point summation order.
pub(crate) fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

/// Captures the communication schedule `algo` compiles to for `n × n`
/// matrices on `p` nodes: one traced run, then the trace is regrouped
/// into per-node program rounds. Also returns the run's elapsed virtual
/// time at [`CostParams::PAPER`] so callers can cross-validate the
/// static replay against the machine.
pub fn capture(
    algo: Algorithm,
    n: usize,
    p: usize,
    port: PortModel,
) -> Result<(Schedule, f64), String> {
    algo.check(n, p).map_err(|e| e.to_string())?;
    let a = Matrix::random(n, n, 0xA11CE);
    let b = Matrix::random(n, n, 0xB0B);
    let cfg = MachineConfig::builder()
        .port(port)
        .costs(CostParams::PAPER)
        .traced(true)
        .build();
    let res = algo
        .multiply(&a, &b, p, &cfg)
        .map_err(|e| format!("capture run failed: {e}"))?;
    let schedule = Schedule::from_traces(p, &res.traces)?;
    Ok((schedule, res.stats.elapsed))
}

/// Measures an algorithm's effective `(a, b)` overhead by running the
/// simulator twice: once with `t_s = 1, t_w = 0` (elapsed = start-ups on
/// the critical path) and once with `t_s = 0, t_w = 1` (elapsed = words
/// on the critical path). The schedule is data-oblivious, so the
/// operands' values do not matter.
pub fn measure_ab(
    algo: Algorithm,
    n: usize,
    p: usize,
    port: PortModel,
) -> Result<(f64, f64), AlgoError> {
    let a = Matrix::random(n, n, 1234);
    let b = Matrix::random(n, n, 5678);
    let cfg_a = MachineConfig::new(port, CostParams::STARTUPS_ONLY);
    let cfg_b = MachineConfig::new(port, CostParams::WORDS_ONLY);
    let ra = algo.multiply(&a, &b, p, &cfg_a)?;
    let rb = algo.multiply(&a, &b, p, &cfg_b)?;
    Ok((ra.stats.elapsed, rb.stats.elapsed))
}

/// Captures one `(algorithm, n, p, port)` point and runs the static
/// checks on its schedule.
///
/// Besides the schedule checks, this cross-validates the analyzer
/// itself: for a sound schedule, the static replay at the capture's cost
/// parameters must reproduce the machine's elapsed time, or the analysis
/// engine no longer models the machine and the result would be
/// untrustworthy.
pub(crate) fn check_capture(
    algo: Algorithm,
    n: usize,
    p: usize,
    port: PortModel,
) -> Result<Analysis, String> {
    let (schedule, machine_elapsed) = capture(algo, n, p, port)?;
    let analysis = analyze(&schedule, port, Strictness::Serialized);
    if analysis.is_sound() && analysis.cost.is_some() {
        let replayed = replay_elapsed(&schedule, port, CostParams::PAPER)?;
        if !close(replayed, machine_elapsed) {
            return Err(format!(
                "replay fidelity failure for {algo} (n={n}, p={p}, {port:?}): \
                 static replay says {replayed}, machine measured {machine_elapsed}"
            ));
        }
    }
    Ok(analysis)
}

/// The default `(n, p)` sweep: a 3×3 grid whose points keep every
/// algorithm's block arithmetic even wherever the table demands
/// exactness (`n` multiples of 24 cover the `√p` and `∛p` splits; `p`
/// covers a square, a cube, and 64 = both).
pub const DEFAULT_NS: [usize; 3] = [24, 48, 96];
/// Node counts of the default sweep.
pub const DEFAULT_PS: [usize; 3] = [8, 16, 64];

/// The applicable `(n, p)` points of the default grid for `algo`.
pub fn applicable_grid(algo: Algorithm) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &p in &DEFAULT_PS {
        for &n in &DEFAULT_NS {
            if algo.check(n, p).is_ok() {
                out.push((n, p));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_ab_recovers_table2_for_cannon() {
        let (a, b) = measure_ab(Algorithm::Cannon, 16, 16, PortModel::OnePort).unwrap();
        assert_eq!(a, 10.0); // 2(√p−1) + log p
        assert_eq!(b, 160.0); // n²/√p (2 − 2/√p + log p/√p)
    }
}
