//! `cubemm run`'s report is pinned byte for byte.
//!
//! `golden/run_transcripts.txt` holds the stdout, stderr and exit code
//! of `cubemm run` for every algorithm, both port models, plain and
//! `--abft`, at (n, p) = (24, 64), as the binary printed them before
//! `run` became a formatter over `cubemm_harness::job`. Every case is
//! re-run here and must match exactly.

use std::process::Command;

const TRANSCRIPTS: &str = include_str!("golden/run_transcripts.txt");

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

#[test]
fn run_reports_match_the_golden_transcripts() {
    let body: String = TRANSCRIPTS
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
    assert_eq!(cases, 14 * 2 * 2);
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
