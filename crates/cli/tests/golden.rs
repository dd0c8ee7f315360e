//! `cubemm run`'s report and its failure paths are pinned byte for byte.
//!
//! `golden/run_transcripts.txt` holds the stdout, stderr and exit code
//! of `cubemm run` for every algorithm, both port models, plain and
//! `--abft`, at (n, p) = (24, 64), as the binary printed them before
//! `run` became a formatter over `cubemm_harness::job`.
//! `golden/failure_transcripts.txt` holds runs that end in a deadlock, a
//! scheduled crash or a strict dead link, plain and `--abft`, and a
//! chaos campaign over every algorithm, as the binary printed them while
//! an aborted run still unwound every parked node. Every case is re-run
//! here and must match exactly.

use std::process::Command;

const TRANSCRIPTS: &str = include_str!("golden/run_transcripts.txt");
const FAILURES: &str = include_str!("golden/failure_transcripts.txt");

/// One case as the golden file spells it: its stdout, each stderr line
/// after `! `, then `exit CODE`.
fn transcript(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn cubemm");
    let mut text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for line in String::from_utf8(out.stderr).expect("utf-8 stderr").lines() {
        text += &format!("! {line}\n");
    }
    text + &format!("exit {}\n", out.status.code().expect("exit code"))
}

/// Re-runs every case of a golden file and returns how many it held.
fn check_golden(file: &str) -> usize {
    let body: String = file
        .lines()
        .skip_while(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut cases = 0;
    for case in body.split("$ cubemm ").skip(1) {
        let (args, want) = case.split_once('\n').expect("a command line");
        assert_eq!(transcript(args), want, "cubemm {args}");
        cases += 1;
    }
    cases
}

#[test]
fn run_reports_match_the_golden_transcripts() {
    assert_eq!(check_golden(TRANSCRIPTS), 14 * 2 * 2);
}

#[test]
fn failing_runs_match_the_golden_transcripts() {
    assert_eq!(check_golden(FAILURES), 3 * 2 + 1);
}

#[test]
fn the_largest_seed_wraps_to_the_release_fingerprint() {
    // B's seed is `seed + 1`, wrapping: u64::MAX draws B from seed 0, as
    // release builds always did, and a debug build no longer overflows.
    let got = transcript("run --algo cannon --n 16 --p 16 --seed 18446744073709551615");
    assert!(got.ends_with("exit 0\n"), "{got}");
    assert!(
        got.contains("  fingerprint:           cb8db8898c66aa82\n"),
        "{got}"
    );
}

#[test]
fn the_largest_blocked_tile_is_one_tile_with_the_same_bits() {
    // The tile is a blocking hint: its arithmetic saturates, so
    // `usize::MAX` is one tile covering the whole product, and the
    // report is the one every other tile prints.
    let got = transcript("run --algo cannon --n 64 --p 16 --kernel blocked:18446744073709551615");
    assert!(got.ends_with("exit 0\n"), "{got}");
    assert!(
        got.contains("  fingerprint:           b7f3cace485d210a\n"),
        "{got}"
    );
    for tile in ["blocked", "blocked:1"] {
        let other = transcript(&format!("run --algo cannon --n 64 --p 16 --kernel {tile}"));
        assert_eq!(got, other, "--kernel {tile}");
    }
}
