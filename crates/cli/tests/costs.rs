//! Message costs obey one rule: finite and non-negative.
//!
//! `run`, `sweep` and `regions` hold `--ts`/`--tw` to the simulator's
//! rule (`CostParams::validate`) at parse time and exit 2 with a one-line
//! `error:`, instead of simulating with a cost that means nothing. Serve
//! applies the same rule with its own wording, which stays as it was.

use std::io::Write;
use std::process::{Command, Output, Stdio};

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
        .expect("write stdin");
    child.wait_with_output().expect("wait for cubemm")
}

#[test]
fn run_sweep_and_regions_reject_impossible_costs() {
    let commands: [&[&str]; 3] = [
        &["run", "--algo", "cannon", "--n", "8", "--p", "4"],
        &["sweep", "--n", "8", "--p", "4"],
        &["regions"],
    ];
    for command in commands {
        for flag in ["ts", "tw"] {
            for (value, shown) in [("nan", "NaN"), ("inf", "inf"), ("-1", "-1")] {
                let flag_arg = format!("--{flag}");
                let mut args = command.to_vec();
                args.extend([flag_arg.as_str(), value]);
                let out = cubemm(&args, "");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
                assert_eq!(
                    stderr,
                    format!("error: --{flag} must be finite and non-negative, got {shown}\n"),
                    "{args:?}"
                );
                assert!(out.stdout.is_empty(), "{args:?} printed a result");
            }
        }
    }
}

#[test]
fn zero_costs_are_valid() {
    let out = cubemm(
        &[
            "run", "--algo", "cannon", "--n", "8", "--p", "4", "--ts", "0", "--tw", "0",
        ],
        "",
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("simulated comm time:   0.0"), "{stdout}");
}

#[test]
fn serve_keeps_its_cost_messages() {
    let script = concat!(
        r#"{"id":"neg","n":8,"p":4,"algo":"cannon","ts":-1}"#,
        "\n",
        r#"{"id":"ok","n":8,"p":4,"algo":"cannon","ts":0,"tw":0}"#,
        "\n",
    );
    let out = cubemm(&["serve", "--workers", "1"], script);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 responses");
    let line = |id: &str| {
        stdout
            .lines()
            .find(|l| l.contains(&format!(r#""id":"{id}""#)))
            .unwrap_or_else(|| panic!("no response for {id}:\n{stdout}"))
            .to_string()
    };
    assert!(
        line("neg").contains(r#""status":"malformed""#)
            && line("neg").contains(r#"\"ts\" and \"tw\" must be non-negative"#),
        "{}",
        line("neg")
    );
    assert!(line("ok").contains(r#""status":"ok""#), "{}", line("ok"));
}
