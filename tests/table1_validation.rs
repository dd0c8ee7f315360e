//! E1 — Table 1 validation: the measured virtual cost of every
//! collective schedule equals the Johnsson–Ho closed form whenever the
//! message divides evenly across the rotated copies (and stays within
//! the slicing-granularity bound otherwise).

use cubemm_analyze::run_collective;
use cubemm_collectives::CollKind;
use cubemm_simnet::{CostParams, PortModel};

const TS: f64 = 5.0;
const TW: f64 = 2.0;
const COST: CostParams = CostParams { ts: TS, tw: TW };

/// Measures one collective's virtual time.
fn run(kind: CollKind, d: u32, m: usize, port: PortModel) -> f64 {
    run_collective(kind, port, COST, d, m, 0, false)
        .expect("healthy run")
        .stats
        .elapsed
}

/// Message sizes divisible by every subcube dimension used below, so the
/// rotated multi-port schedules slice evenly and Table 1 holds exactly.
const SIZES: [usize; 2] = [12, 60];
const DIMS: [u32; 3] = [2, 3, 4];

#[test]
fn one_to_all_broadcast_matches_table1() {
    for d in DIMS {
        for m in SIZES {
            let df = f64::from(d);
            let mf = m as f64;
            assert_eq!(
                run(CollKind::Bcast, d, m, PortModel::OnePort),
                df * (TS + TW * mf),
                "one-port d={d} m={m}"
            );
            assert_eq!(
                run(CollKind::Bcast, d, m, PortModel::MultiPort),
                TS * df + TW * mf,
                "multi-port d={d} m={m}"
            );
        }
    }
}

#[test]
fn personalized_and_allgather_match_table1() {
    for d in DIMS {
        for m in SIZES {
            let n = (1usize << d) as f64;
            let df = f64::from(d);
            let mf = m as f64;
            let one = TS * df + TW * (n - 1.0) * mf;
            let multi = TS * df + TW * (n - 1.0) * mf / df;
            for kind in [
                CollKind::Scatter,
                CollKind::Gather,
                CollKind::Allgather,
                CollKind::ReduceScatter,
            ] {
                assert_eq!(
                    run(kind, d, m, PortModel::OnePort),
                    one,
                    "{kind:?} d={d} m={m}"
                );
                assert_eq!(
                    run(kind, d, m, PortModel::MultiPort),
                    multi,
                    "{kind:?} d={d} m={m}"
                );
            }
        }
    }
}

#[test]
fn all_to_all_personalized_matches_table1() {
    for d in DIMS {
        for m in SIZES {
            let n = (1usize << d) as f64;
            let df = f64::from(d);
            let mf = m as f64;
            assert_eq!(
                run(CollKind::Alltoall, d, m, PortModel::OnePort),
                TS * df + TW * n * mf * df / 2.0,
                "one-port d={d} m={m}"
            );
            assert_eq!(
                run(CollKind::Alltoall, d, m, PortModel::MultiPort),
                TS * df + TW * n * mf / 2.0,
                "multi-port d={d} m={m}"
            );
        }
    }
}

#[test]
fn reduction_is_inverse_broadcast() {
    for d in DIMS {
        for m in SIZES {
            let df = f64::from(d);
            let mf = m as f64;
            assert_eq!(
                run(CollKind::Reduce, d, m, PortModel::OnePort),
                df * (TS + TW * mf)
            );
            assert_eq!(
                run(CollKind::Reduce, d, m, PortModel::MultiPort),
                TS * df + TW * mf
            );
        }
    }
}

#[test]
fn indivisible_messages_stay_within_granularity_bound() {
    // With M not divisible by log N the rotated slices are uneven; the
    // measured time exceeds the ideal by at most the one-extra-word-per-
    // round penalty.
    for d in [3u32, 4] {
        for m in [7usize, 13, 17] {
            let n = (1usize << d) as f64;
            let df = f64::from(d);
            let mf = m as f64;
            let ideal = TS * df + TW * (n - 1.0) * mf / df;
            let ceiling = TS * df + TW * (n - 1.0) * (mf / df).ceil();
            let measured = run(CollKind::Allgather, d, m, PortModel::MultiPort);
            assert!(
                measured >= ideal - 1e-9 && measured <= ceiling + 1e-9,
                "d={d} m={m}: {measured} not in [{ideal}, {ceiling}]"
            );
        }
    }
}
