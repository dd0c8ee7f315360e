//! The full registry sweep: every algorithm, both port models, over
//! the default 3×3 `(n, p)` grid — captured once, then statically
//! proven deadlock-free and contention-legal, with extracted `(a, b)`
//! judged against the algorithm certificate's prediction (its composed
//! closed form, proven against the paper's Table 2 under the documented
//! deviation policies).

use cubemm_analyze::{analyze_algorithm, applicable_grid, compose_algorithm, Verdict};
use cubemm_core::Algorithm;
use cubemm_model::{overhead, ModelAlgo};
use cubemm_simnet::PortModel;

fn sweep(port: PortModel) {
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        let cert = compose_algorithm(algo, port);
        let grid = applicable_grid(algo);
        assert!(
            grid.len() >= 3,
            "{algo}: default grid admits only {} points",
            grid.len()
        );
        for (n, p) in grid {
            let r = cert
                .analyze(n, p)
                .unwrap_or_else(|e| panic!("{algo} n={n} p={p} {port:?}: {e}"));
            // Correctness always: deadlock-free, matched volumes,
            // genuine hypercube edges.
            assert!(
                r.analysis.is_sound(),
                "{algo} n={n} p={p} {port:?}: {:?}",
                r.analysis.diagnostics
            );
            // Every closed form predicts every grid point, and the
            // capture agrees with it.
            assert_eq!(
                r.verdict.is_some(),
                cert.cost.is_some(),
                "{algo} n={n} p={p} {port:?}: judged {:?}",
                r.verdict
            );
            assert!(
                r.is_conformant(),
                "{algo} n={n} p={p} {port:?}: {:?}",
                r.verdict
            );
            // Full bandwidth wherever a Table 2 row is claimed: no link
            // may carry two transfers in one round.
            if cert.table.is_some() {
                assert!(
                    r.analysis.is_full_bandwidth(),
                    "{algo} n={n} p={p} {port:?} claims a table row but contends: {:?}",
                    r.analysis.diagnostics
                );
            }
        }
    }
}

#[test]
fn every_algorithm_certifies_one_port() {
    sweep(PortModel::OnePort);
}

#[test]
fn every_algorithm_certifies_multi_port() {
    sweep(PortModel::MultiPort);
}

/// The table rows must not silently degrade into slack verdicts at the
/// grid points whose block arithmetic is even: pin exactness there.
#[test]
fn paper_rows_are_exact_at_even_points() {
    use Algorithm::*;
    let exact_one_port = [
        (Simple, 96, 64),
        (Cannon, 96, 64),
        (Berntsen, 96, 64),
        (Dns, 96, 64),
        (All3d, 96, 64),
    ];
    for (algo, n, p) in exact_one_port {
        let r = analyze_algorithm(algo, n, p, PortModel::OnePort).unwrap();
        assert_eq!(
            r.verdict,
            Some(Verdict::Exact),
            "{algo} one-port n={n} p={p}"
        );
    }
    let exact_multi_port = [(Cannon, 96, 64), (Dns, 96, 64), (All3d, 96, 64)];
    for (algo, n, p) in exact_multi_port {
        let r = analyze_algorithm(algo, n, p, PortModel::MultiPort).unwrap();
        assert_eq!(
            r.verdict,
            Some(Verdict::Exact),
            "{algo} multi-port n={n} p={p}"
        );
    }
}

/// 2-D Diagonal is the one schedule that legitimately reuses links
/// under multi-port: its first phase fuses a broadcast and a scatter
/// over the *same* column subcube, so their two full-bandwidth rotated
/// schedules pigeonhole 2·log q transfers onto log q links per round.
/// The engine serializes that correctly; the analyzer must call it out
/// (it is why §4.1.1 is a stepping stone with no Table 2 row) while
/// still certifying the schedule sound and its composed closed form
/// exact.
#[test]
fn diag2d_serializes_links_under_multi_port_and_is_flagged() {
    let r = analyze_algorithm(Algorithm::Diag2d, 24, 16, PortModel::MultiPort).unwrap();
    assert!(r.analysis.is_sound(), "{:?}", r.analysis.diagnostics);
    assert!(
        !r.analysis.is_full_bandwidth(),
        "diag2d's fused bcast+scatter share column links; the analyzer \
         should report the contention"
    );
    assert!(compose_algorithm(Algorithm::Diag2d, PortModel::MultiPort)
        .table
        .is_none());
    assert_eq!(r.verdict, Some(Verdict::Exact));
}

/// The documented deviations keep their precise shape, as the
/// certificates state them.
#[test]
fn documented_deviations_hold() {
    let paper = |m: ModelAlgo, port, n, p| overhead(m, port, n, p).unwrap();

    // 3-D Diagonal one-port: the measurement is exactly the certificate's
    // prediction, which beats the paper's additive row on both axes.
    let r = analyze_algorithm(Algorithm::Diag3d, 96, 64, PortModel::OnePort).unwrap();
    assert_eq!(r.verdict, Some(Verdict::Exact), "{:?}", r.verdict);
    let (got, row) = (
        r.predicted.unwrap(),
        paper(ModelAlgo::Diag3d, PortModel::OnePort, 96, 64),
    );
    assert!(got.a < row.a && got.b < row.b, "{got:?} vs {row:?}");

    // 3-D All_Trans: a stepping stone whose own closed form is exact and
    // costs strictly more volume than the 3-D All row it refines.
    let cert = compose_algorithm(Algorithm::AllTrans3d, PortModel::OnePort);
    assert!(cert.ok(), "{:?}", cert.obligations);
    let r = analyze_algorithm(Algorithm::AllTrans3d, 96, 64, PortModel::OnePort).unwrap();
    assert_eq!(r.verdict, Some(Verdict::Exact), "{:?}", r.verdict);
    let row = paper(ModelAlgo::All3d, PortModel::OnePort, 96, 64);
    let got = r.predicted.unwrap();
    assert!(
        got.a == row.a && got.b > row.b,
        "transpose phase must add volume: {got:?} vs {row:?}"
    );

    // HJE has no one-port Table 2 row: its derived closed form is the
    // certificate, and the capture hits it exactly.
    assert!(compose_algorithm(Algorithm::Hje, PortModel::OnePort)
        .table
        .is_none());
    let r = analyze_algorithm(Algorithm::Hje, 96, 16, PortModel::OnePort).unwrap();
    assert_eq!(r.verdict, Some(Verdict::Exact), "{:?}", r.verdict);
    // ... its multi-port row exists and is hit exactly where the
    // block-column groups divide evenly (n=96, p=16: 24 columns into
    // log √p = 2 groups).
    let r = analyze_algorithm(Algorithm::Hje, 96, 16, PortModel::MultiPort).unwrap();
    assert_eq!(r.verdict, Some(Verdict::Exact), "{:?}", r.verdict);
}
