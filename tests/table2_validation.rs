//! E2 — Table 2 validation: the `(a, b)` overheads measured from
//! end-to-end simulated runs (via `(t_s,t_w) = (1,0)` and `(0,1)`)
//! against the algorithm certificates, whose composed closed forms are
//! proven against the paper's rows transcribed in `cubemm-model`.
//!
//! Each measurement goes through the analyzer's one point judge
//! (`cubemm_analyze::judge`): exact, within slice granularity, or a
//! mismatch. The documented deviations (3DD one-port's overlap, 3-D
//! All_Trans as a stepping stone, the granularity slack) live in the
//! certificates, not here.

use cubemm_analyze::{compose_algorithm, judge, Verdict};
use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_model::{costs, ModelAlgo, PortModel};
use cubemm_simnet::CostParams;

fn measure_ab(algo: Algorithm, n: usize, p: usize, port: PortModel) -> (f64, f64) {
    let a = Matrix::random(n, n, 77);
    let b = Matrix::random(n, n, 88);
    let ra = algo
        .multiply(
            &a,
            &b,
            p,
            &MachineConfig::new(port, CostParams::STARTUPS_ONLY),
        )
        .unwrap();
    let rb = algo
        .multiply(&a, &b, p, &MachineConfig::new(port, CostParams::WORDS_ONLY))
        .unwrap();
    (ra.stats.elapsed, rb.stats.elapsed)
}

/// The measured `(a, b)` judged against the certificate's prediction,
/// after checking the certificate's own Table 2 obligations hold.
fn judged(algo: Algorithm, n: usize, p: usize, port: PortModel) -> Verdict {
    let cert = compose_algorithm(algo, port);
    assert!(cert.ok(), "{algo} {port}: {:?}", cert.obligations);
    let predicted = cert
        .predict(n, p)
        .unwrap_or_else(|| panic!("{algo} {port}: no prediction at n={n}, p={p}"));
    let (ma, mb) = measure_ab(algo, n, p, port);
    judge(predicted, ma, mb)
}

#[test]
fn one_port_rows_match_exactly() {
    // n = 64, p = 64: every block size divides evenly.
    let (n, p) = (64usize, 64usize);
    for algo in [
        Algorithm::Simple,
        Algorithm::Cannon,
        Algorithm::Berntsen,
        Algorithm::Dns,
        Algorithm::AllTrans3d,
        Algorithm::All3d,
    ] {
        let v = judged(algo, n, p, PortModel::OnePort);
        assert_eq!(v, Verdict::Exact, "{algo}: {v}");
    }
    // All_Trans shares 3-D All's a; its b is strictly larger (the paper
    // motivates 3-D All by exactly this delta).
    let (ma, mb) = measure_ab(Algorithm::AllTrans3d, n, p, PortModel::OnePort);
    let o = costs::overhead(ModelAlgo::All3d, PortModel::OnePort, n, p).unwrap();
    assert_eq!(ma, o.a, "3d-all-trans a");
    assert!(mb > o.b, "3d-all-trans should cost more words than 3-D All");
}

#[test]
fn one_port_3dd_beats_the_papers_additive_bound() {
    let (n, p) = (64usize, 64usize);
    // The measurement is the certificate's prediction...
    let v = judged(Algorithm::Diag3d, n, p, PortModel::OnePort);
    assert_eq!(v, Verdict::Exact, "{v}");
    // ... and the phase overlap puts it strictly under the paper's row.
    let (ma, mb) = measure_ab(Algorithm::Diag3d, n, p, PortModel::OnePort);
    let o = costs::overhead(ModelAlgo::Diag3d, PortModel::OnePort, n, p).unwrap();
    assert!(ma < o.a && mb < o.b, "paper bound not beaten: ({ma}, {mb})");
}

#[test]
fn multi_port_rows_match_exactly_when_divisible() {
    // With p = 64: √p = 8 (log √p = 3), ∛p = 4 (log ∛p = 2); these
    // rows' block sizes slice evenly.
    let (n, p) = (64usize, 64usize);
    for algo in [
        Algorithm::Dns,
        Algorithm::Diag3d,
        Algorithm::All3d,
        Algorithm::Cannon,
    ] {
        let v = judged(algo, n, p, PortModel::MultiPort);
        assert_eq!(v, Verdict::Exact, "{algo}: {v}");
    }
}

#[test]
fn hje_multi_port_matches_where_groups_divide() {
    // n = 96, p = 16: block side 24 divides into log √p = 2 groups.
    let v = judged(Algorithm::Hje, 96, 16, PortModel::MultiPort);
    assert_eq!(v, Verdict::Exact, "{v}");
}

#[test]
fn simple_multi_port_within_granularity() {
    // Block of 64 words into log √p = 3 slices: uneven, so b carries
    // the one-extra-word-per-round ceiling.
    let v = judged(Algorithm::Simple, 64, 64, PortModel::MultiPort);
    assert!(
        matches!(v, Verdict::WithinGranularity { ratio } if ratio > 1.0),
        "{v}"
    );
}

#[test]
fn measured_time_is_linear_in_ts_tw() {
    // time(ts, tw) = ts·a + tw·b must hold for the simulator itself:
    // measure a and b, then check a third parameter pair.
    let (n, p) = (32usize, 16usize);
    for algo in [Algorithm::Cannon, Algorithm::Simple] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            let (a_ov, b_ov) = measure_ab(algo, n, p, port);
            let a = Matrix::random(n, n, 5);
            let b = Matrix::random(n, n, 6);
            let cost = CostParams { ts: 150.0, tw: 3.0 };
            let res = algo
                .multiply(&a, &b, p, &MachineConfig::new(port, cost))
                .unwrap();
            assert!(
                (res.stats.elapsed - (150.0 * a_ov + 3.0 * b_ov)).abs() < 1e-6,
                "{algo} {port}: time not linear in (ts, tw)"
            );
        }
    }
}
