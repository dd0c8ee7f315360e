//! One fault vocabulary, one rule set: a bad fault entry is refused for
//! the same reason whether it arrives as a plan file (`FaultPlan::from_json`),
//! as a `cubemm run --fault-*` spec (exit 2, `--flag "SPEC": ` prefix)
//! or inside a serve request's `faults` object (answered `malformed`).

use std::io::Write;
use std::process::{Command, Output, Stdio};

use cubemm_simnet::FaultPlan;

fn cubemm(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cubemm");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write requests");
    child.wait_with_output().expect("wait for cubemm")
}

#[test]
fn every_surface_refuses_a_bad_entry_for_the_same_reason() {
    // (plan JSON, CLI flag, CLI spec, reason): one per rule, including
    // the two entries JSON and serve used to accept (a bit past the
    // sign bit, a perturbation that never changes the word).
    let cases = [
        (
            r#"{"dead":[[0,3]]}"#,
            "--fault-link",
            "0:3",
            "dead link 0 <-> 3 is not a hypercube edge",
        ),
        (
            r#"{"degraded":[{"a":0,"b":1,"ts_factor":0,"tw_factor":2}]}"#,
            "--fault-degrade",
            "0:1:0:2",
            "degradation factors must be positive and finite",
        ),
        (
            r#"{"stragglers":[{"node":2,"slowdown":0.5}]}"#,
            "--fault-straggler",
            "2:0.5",
            "straggler slowdown must be finite and >= 1",
        ),
        (
            r#"{"corruptions":[{"from":0,"to":1,"seq":0,"word":1,"bitflip":64}]}"#,
            "--fault-flip",
            "0:1:0:1:64",
            "bitflip bit must be 0..=63",
        ),
        (
            r#"{"corruptions":[{"from":0,"to":1,"seq":0,"word":1,"perturb":0}]}"#,
            "--fault-corrupt",
            "0:1:0:1:0",
            "corruption delta must be finite and non-zero",
        ),
    ];
    for (json, flag, spec, why) in cases {
        let err = FaultPlan::from_json(json).expect_err(json);
        assert_eq!(err.to_string(), why, "from_json {json}");

        let args = [
            "run", "--algo", "cannon", "--n", "8", "--p", "4", flag, spec,
        ];
        let out = cubemm(&args, "");
        assert_eq!(out.status.code(), Some(2), "{flag} {spec}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {flag} {spec:?}: {why}\n")
        );

        let line = format!(r#"{{"id":"bad","n":8,"p":4,"algo":"cannon","faults":{json}}}"#);
        let out = cubemm(&["serve", "--workers", "1"], &(line + "\n"));
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let error = format!("field \"faults\": {why}");
        let want = format!(r#"{{"id":"bad","status":"malformed","error":{error:?}}}"#);
        assert_eq!(String::from_utf8_lossy(&out.stdout), want + "\n");
    }
}
