//! Full correctness matrix: every algorithm × both port models × a range
//! of machine and matrix shapes, each run verified against the
//! sequential reference product.

use cubemm_core::{AlgoError, Algorithm, MachineConfig};
use cubemm_dense::{gemm, Matrix};
use cubemm_simnet::{CostParams, PortModel};

fn verify(algo: Algorithm, n: usize, p: usize, port: PortModel, seed: u64) {
    let a = Matrix::random(n, n, seed);
    let b = Matrix::random(n, n, seed + 1);
    let cfg = MachineConfig::new(port, CostParams { ts: 7.0, tw: 1.5 });
    let res = algo
        .multiply(&a, &b, p, &cfg)
        .unwrap_or_else(|e| panic!("{algo} rejected n={n} p={p}: {e}"));
    let want = gemm::reference(&a, &b);
    let err = res.c.max_abs_diff(&want);
    assert!(
        err < 1e-9 * n as f64,
        "{algo} wrong at n={n} p={p} {port}: max |Δ| = {err}"
    );
    assert!(res.stats.elapsed >= 0.0);
    if p > 1 {
        assert!(res.stats.total_messages() > 0, "{algo} moved no data");
    }
}

#[test]
fn square_grid_algorithms_all_shapes() {
    for algo in [
        Algorithm::Simple,
        Algorithm::Cannon,
        Algorithm::Hje,
        Algorithm::Diag2d,
    ] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for (n, p) in [(8usize, 4usize), (16, 16), (32, 16), (64, 64)] {
                if algo.check(n, p).is_ok() {
                    verify(algo, n, p, port, 100);
                }
            }
        }
    }
}

#[test]
fn cubic_grid_algorithms_all_shapes() {
    for algo in [
        Algorithm::Berntsen,
        Algorithm::Dns,
        Algorithm::Diag3d,
        Algorithm::AllTrans3d,
        Algorithm::All3d,
    ] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for (n, p) in [(8usize, 8usize), (16, 8), (32, 8), (16, 64), (32, 64)] {
                if algo.check(n, p).is_ok() {
                    verify(algo, n, p, port, 200);
                }
            }
        }
    }
}

#[test]
fn larger_machine_512_nodes() {
    // 512 = 2^9 is both a cube (8³) — exercise the 3-D family at scale.
    for algo in [Algorithm::Berntsen, Algorithm::Diag3d, Algorithm::All3d] {
        verify(algo, 64, 512, PortModel::OnePort, 300);
    }
}

#[test]
fn larger_matrices() {
    for algo in [Algorithm::Cannon, Algorithm::All3d] {
        if algo.check(128, 64).is_ok() {
            verify(algo, 128, 64, PortModel::MultiPort, 400);
        }
    }
}

#[test]
fn non_random_structured_inputs() {
    // Identity, all-ones, and asymmetric band inputs catch index
    // transposition bugs that random matrices can statistically mask.
    let n = 16;
    let p = 8;
    let ident = Matrix::identity(n);
    let ones = Matrix::from_fn(n, n, |_, _| 1.0);
    let band = Matrix::from_fn(n, n, |r, c| {
        if r.abs_diff(c) <= 1 {
            (r * n + c) as f64
        } else {
            0.0
        }
    });
    let cfg = MachineConfig::default();
    for (a, b) in [
        (&ident, &band),
        (&band, &ident),
        (&ones, &band),
        (&band, &band),
    ] {
        for algo in [Algorithm::Diag3d, Algorithm::All3d, Algorithm::AllTrans3d] {
            let res = algo.multiply(a, b, p, &cfg).unwrap();
            let want = gemm::reference(a, b);
            assert!(
                res.c.max_abs_diff(&want) < 1e-9,
                "{algo} wrong on structured input"
            );
        }
    }
}

#[test]
fn rectangular_inputs_rejected() {
    let a = Matrix::zeros(8, 16);
    let b = Matrix::zeros(16, 8);
    let cfg = MachineConfig::default();
    for algo in Algorithm::ALL {
        assert!(
            algo.multiply(&a, &b, 4, &cfg).is_err(),
            "{algo} accepted rectangular input"
        );
    }
}

#[test]
fn empty_order_never_panics_inside_a_node() {
    // n = 0 is refused at the CLI, but the library takes it: every
    // algorithm either returns the empty product or a typed error.
    let a = Matrix::zeros(0, 0);
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            let cfg = MachineConfig::new(port, CostParams { ts: 7.0, tw: 1.5 });
            match algo.multiply(&a, &a, 64, &cfg) {
                Ok(res) => assert_eq!((res.c.rows(), res.c.cols()), (0, 0), "{algo} {port}"),
                Err(AlgoError::Sim(e)) => panic!("{algo} {port} failed in a node: {e}"),
                Err(_) => {}
            }
        }
    }
}
