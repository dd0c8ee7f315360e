//! An order no host can hold is an answer, not an abort, and so is an
//! empty one.
//!
//! `cubemm serve` and `cubemm run` check the shape first and then
//! generate operands fallibly, so a job whose `n × n` operands cannot be
//! allocated is answered `rejected` (serve keeps reading its stream) or
//! fails with a typed error and exit 2 (run, sweep and chaos). The oversized order here,
//! `n = 4·10⁹`, needs more bytes than any single allocation may request,
//! so the refusal never depends on the host's overcommit policy.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::Instant;

const BIG: &str = "4000000000";

fn cubemm(args: &str, stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(args.split_whitespace())
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
fn serve_answers_an_unallocatable_job_and_keeps_serving() {
    let script = [
        r#"{"id":"a","n":24,"p":16,"algo":"cannon","seed":1}"#.to_string(),
        format!(r#"{{"id":"big","n":{BIG},"p":4,"algo":"cannon"}}"#),
        r#"{"id":"c","n":24,"p":16,"algo":"cannon","seed":1}"#.to_string(),
    ]
    .join("\n");
    let out = cubemm("serve --workers 1", &(script + "\n"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 responses");
    let status = |id: &str| {
        let line = stdout
            .lines()
            .find(|l| l.contains(&format!(r#""id":"{id}""#)))
            .unwrap_or_else(|| panic!("no response for {id}:\n{stdout}"));
        let doc = cubemm_simnet::json::parse(line).expect("valid JSON");
        doc.get("status")
            .and_then(|s| s.as_str().map(str::to_string))
            .expect("status field")
    };
    assert_eq!(
        [status("a"), status("big"), status("c")],
        ["ok", "rejected", "ok"]
    );
    assert!(
        stdout.contains(&format!(
            r#""error":"operands: cannot allocate a {BIG} × {BIG} matrix""#
        )),
        "{stdout}"
    );
}

#[test]
fn run_reports_an_unallocatable_order_as_a_typed_error() {
    for abft in ["", " --abft"] {
        let out = cubemm(&format!("run --algo cannon --n {BIG} --p 4{abft}"), "");
        assert_eq!(out.status.code(), Some(2), "{abft}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: cannot allocate a {BIG} × {BIG} matrix\n")
        );
        assert!(out.stdout.is_empty());
    }
}

/// `chaos` draws its campaign operands fallibly too, before probing any
/// machine size, for one algorithm and for all of them.
#[test]
fn chaos_reports_an_unallocatable_order_as_a_typed_error() {
    for algo in ["cannon", "all"] {
        let out = cubemm(&format!("chaos {algo} --n {BIG} --runs 1"), "");
        assert_eq!(out.status.code(), Some(2), "{algo}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: cannot allocate a {BIG} × {BIG} matrix\n")
        );
        assert!(out.stdout.is_empty());
    }
}

/// `sweep` draws its operands through the same fallible step: an order
/// whose storage cannot be allocated, or whose `n·n` overflows `usize`,
/// is the same typed error, not an abort or a hang.
#[test]
fn sweep_reports_an_unallocatable_order_as_a_typed_error() {
    for n in ["100000000", "4294967296"] {
        let start = Instant::now();
        let out = cubemm(&format!("sweep --n {n} --p 4"), "");
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "sweep --n {n} took {:?}",
            start.elapsed()
        );
        assert_eq!(out.status.code(), Some(2), "{n}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: cannot allocate a {n} × {n} matrix\n")
        );
        assert!(out.stdout.is_empty());
    }
}

/// A checksum-protected order on a processor count no order can cure is
/// answered at once on both surfaces, with the same texts as ever: the
/// padded-order search no longer walks every order up to `2n + 64`.
#[test]
fn an_incurable_abft_shape_is_answered_at_once() {
    const HUGE: &str = "2000000000";
    let start = Instant::now();
    let out = cubemm(&format!("run --algo cannon --n {HUGE} --p 6 --abft"), "");
    assert!(
        start.elapsed().as_secs_f64() < 1.0,
        "run took {:?}",
        start.elapsed()
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unrecoverable failure: node count 6 is not a power of two\n"
    );

    let start = Instant::now();
    let line = format!(r#"{{"id":"x","n":{HUGE},"p":6,"algo":"cannon"}}"#);
    let out = cubemm("serve --workers 1", &(line + "\n"));
    assert!(
        start.elapsed().as_secs_f64() < 1.0,
        "serve took {:?}",
        start.elapsed()
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        r#"{"id":"x","status":"failed","error":"unrecoverable: node count 6 is not a power of two"}"#
            .to_string()
            + "\n"
    );
}

/// A `--p` entry no machine can have is refused by name, like `--n 0`,
/// instead of printing a row of inapplicable cells.
#[test]
fn sweep_refuses_a_machine_size_that_is_not_a_power_of_two() {
    for (list, entry) in [("3,0,4", 3), ("4,0", 0), ("16,12", 12)] {
        let args = format!("sweep --n 16 --p {list}");
        let out = cubemm(&args, "");
        assert_eq!(out.status.code(), Some(2), "{args}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "error: --p entry {entry} is not a power of two (node counts are 1, 2, 4, ...)\n"
            ),
            "{args}"
        );
        assert!(out.stdout.is_empty(), "{args}");
    }
}

/// The other end: an empty order is refused by the one `--n` rule that
/// `run` and `sweep` share, before any node could see an empty block.
#[test]
fn an_empty_order_is_refused_by_run_and_sweep() {
    for args in ["run --algo 3d-all-trans --n 0 --p 64", "sweep --n 0"] {
        let out = cubemm(args, "");
        assert_eq!(out.status.code(), Some(2), "{args}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: --n must be at least 1\n",
            "{args}"
        );
        assert!(out.stdout.is_empty(), "{args}");
    }
}
