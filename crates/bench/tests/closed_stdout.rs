//! A reader that closes stdout early (`kernel_bench --smoke | head -1`)
//! ends a bench bin by SIGPIPE, as it ends any filter: quietly, with no
//! panic message and no backtrace.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};

/// Runs `bin args`, reads one line of its stdout and closes the pipe,
/// then requires death by SIGPIPE (signal 13) with an empty stderr. Each
/// bin writes again well after its first line: `kernel_bench` once its
/// kernels are timed, `table2` once its simulated runs are measured.
fn dies_by_sigpipe_after_one_line(bin: &str, args: &[&str]) {
    let results = std::env::temp_dir().join(format!("cubemm-closed-stdout-{}", std::process::id()));
    let mut child = Command::new(bin)
        .args(args)
        // A bin that outlived its reader would write its CSV here, not
        // into the checkout.
        .env("CUBEMM_RESULTS_DIR", &results)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the bench bin");
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read one line");
    let out = child.wait_with_output().expect("wait for the bench bin");
    let _ = std::fs::remove_dir_all(&results);
    assert!(!line.is_empty(), "{bin} {args:?} printed nothing");
    assert_eq!(
        out.status.signal(),
        Some(13),
        "{bin} {args:?}: {}",
        out.status
    );
    assert!(
        out.stderr.is_empty(),
        "{bin} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn kernel_bench_dies_by_sigpipe_when_its_reader_leaves() {
    dies_by_sigpipe_after_one_line(env!("CARGO_BIN_EXE_kernel_bench"), &["--smoke"]);
}

#[test]
fn a_table_bin_dies_by_sigpipe_when_its_reader_leaves() {
    dies_by_sigpipe_after_one_line(env!("CARGO_BIN_EXE_table2"), &[]);
}
