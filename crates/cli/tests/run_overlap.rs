//! `cubemm run` above the overlap threshold, through the real binary.
//!
//! At `n = 288` (`288³ > PAR_MIN_ELEMS`) the host reference runs on a
//! second thread beside the simulated product. Nothing a user can see
//! may depend on that: the report must equal what a sequential
//! multiply-then-reference computes in-process, and a run that
//! deadlocks must still exit 3 with the simulator's own diagnostic on
//! stderr (after joining the reference thread).

use std::process::{Command, Output};

use cubemm_core::{AlgoError, Algorithm, MachineConfig};
use cubemm_dense::gemm::{self, PAR_MIN_ELEMS};
use cubemm_dense::Matrix;
use cubemm_simnet::{CostParams, FaultPlan, RunError};

const N: usize = 288;
const _: () = assert!(N * N * N > PAR_MIN_ELEMS, "must sit above the threshold");

fn cubemm(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn cubemm")
}

/// The CLI's default machine (`ts = 150, tw = 3`) with `faults`.
fn cli_config(faults: FaultPlan) -> MachineConfig {
    MachineConfig::builder()
        .costs(CostParams { ts: 150.0, tw: 3.0 })
        .faults(faults)
        .build()
}

fn operands() -> (Matrix, Matrix) {
    (Matrix::random(N, N, 1), Matrix::random(N, N, 2))
}

#[test]
fn overlapped_run_reports_what_a_sequential_check_computes() {
    let out = cubemm(&format!("run --algo cannon --n {N} --p 64"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");

    let (a, b) = operands();
    let res = Algorithm::Cannon
        .multiply(&a, &b, 64, &cli_config(FaultPlan::new()))
        .expect("in-process run");
    let err = res.c.max_abs_diff(&gemm::reference(&a, &b));
    let want = [
        format!("  verified:              max |Δ| = {err:.2e}"),
        format!(
            "  fingerprint:           {}",
            cubemm_serve::fingerprint_hex(&res.c)
        ),
        format!("  simulated comm time:   {:.1}", res.stats.elapsed),
    ];
    let got: Vec<&str> = stdout.lines().skip(1).take(3).collect();
    assert_eq!(got, want, "full report:\n{stdout}");
}

#[test]
fn deadlock_above_the_threshold_still_exits_3_with_the_same_stderr() {
    let plain = cubemm(&format!(
        "run --algo cannon --n {N} --p 4 --fault-drop 0:1:0"
    ));
    let abft = cubemm(&format!(
        "run --algo cannon --n {N} --p 4 --abft --fault-drop 0:1:0"
    ));

    let (a, b) = operands();
    let plan = FaultPlan::new().with_drop(0, 1, 0);
    let Err(AlgoError::Sim(e @ RunError::Deadlock { .. })) =
        Algorithm::Cannon.multiply(&a, &b, 4, &cli_config(plan))
    else {
        panic!("a dropped message must deadlock the run: nothing retransmits it");
    };
    // The simulator's own diagnostic, naming the blocked node.
    let want = format!("error: {e}\n");

    assert_eq!(plain.status.code(), Some(3), "{plain:?}");
    assert_eq!(String::from_utf8_lossy(&plain.stderr), want);
    assert!(plain.stdout.is_empty(), "no report before the verdict");
    // The ABFT arm reports its own (augmented-order) deadlock; same
    // exit code, same shape, nothing on stdout.
    assert_eq!(abft.status.code(), Some(3), "{abft:?}");
    let abft_err = String::from_utf8_lossy(&abft.stderr);
    assert!(
        abft_err.starts_with("error: ") && abft_err.contains("deadlock"),
        "{abft_err}"
    );
    assert!(abft.stdout.is_empty());
}
