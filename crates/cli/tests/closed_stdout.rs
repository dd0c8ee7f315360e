//! A reader that closes stdout early (`cubemm chaos all | head -1`) ends
//! `chaos`, `sweep` and `analyze` by SIGPIPE, as it ends any filter:
//! quietly, with no panic message and no backtrace.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};

/// Runs `cubemm args`, reads one line of its stdout and closes the
/// pipe, then requires death by SIGPIPE (signal 13) with an empty
/// stderr. Each command writes again after its first line: `chaos` once
/// its next campaign ends, `analyze --symbolic` once the algorithms are
/// certified, and the `sweep` table, written at once, outgrows the pipe.
fn dies_by_sigpipe_after_one_line(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cubemm");
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read one line");
    let out = child.wait_with_output().expect("wait for cubemm");
    assert!(!line.is_empty(), "{args:?} printed nothing");
    assert_eq!(out.status.signal(), Some(13), "{args:?}: {}", out.status);
    assert!(
        out.stderr.is_empty(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn chaos_dies_by_sigpipe_when_its_reader_leaves() {
    dies_by_sigpipe_after_one_line(&["chaos", "all", "--seed", "3", "--runs", "50"]);
}

#[test]
fn sweep_dies_by_sigpipe_when_its_reader_leaves() {
    // 600 columns of p = 4: a 90 KB table, past the 64 KiB pipe.
    let ps = vec!["4"; 600].join(",");
    dies_by_sigpipe_after_one_line(&["sweep", "--n", "4", "--p", &ps]);
}

#[test]
fn analyze_dies_by_sigpipe_when_its_reader_leaves() {
    dies_by_sigpipe_after_one_line(&["analyze", "all", "--symbolic"]);
}
