//! The `cubemm` subcommands, one module each. Every subcommand returns
//! its exit code, or an error that `main` prints as `error: …` before
//! exiting 2.

mod analyze;
mod chaos;
mod list;
mod machine;
mod regions;
mod run;
mod serve;
mod sweep;
mod tune_kernel;

use cubemm_core::Algorithm;

use crate::args::Args;

pub use analyze::analyze;
pub use chaos::chaos;
pub use list::list;
pub use regions::regions;
pub use run::run;
pub use serve::serve;
pub use sweep::sweep;
pub use tune_kernel::tune_kernel;

/// Top-level usage text.
pub const USAGE: &str = "\
cubemm — communication-efficient matrix multiplication on simulated hypercubes
(reproduction of Gupta & Sadayappan, SPAA 1994)

USAGE:
  cubemm list [n] [p]            show every algorithm and its applicability
  cubemm run --algo A --n N --p P [--seed S] [--port one|multi] [--ts T]
             [--tw W] [--charge sender|symmetric]
             [--kernel blocked[:TILE]|packed[:THREADS]]
             [--fault-link A:B] [--fault-degrade A:B:TSF:TWF]
             [--fault-straggler NODE:FACTOR] [--fault-drop FROM:TO:K]
             [--fault-corrupt FROM:TO:K:WORD:DELTA]
             [--fault-flip FROM:TO:K:WORD:BIT] [--fault-crash NODE:STEP]
             [--fault-strict true|false]
             [--fault-plan FILE] [--fault-plan-dump FILE]
             [--abft] [--recover-attempts N]
                                 one verified simulated multiplication of
                                 A = random(seed), B = random(seed + 1)
                                 (default seed 1); --fault-* flags
                                 repeat, and a faulty run
                                 reports detour hops, dropped messages and the
                                 extra virtual time against a healthy
                                 baseline re-run
  cubemm sweep --n N [--p 4,16,64,512] [--port one|multi] [--ts T] [--tw W]
               [--kernel ...] [--jobs N]
                                 compare all applicable algorithms
  cubemm regions [--port one|multi] [--ts T] [--tw W]
                                 Figure 13/14-style best-algorithm map
  cubemm analyze <algo|all> [--n N] [--p P] [--port one|multi|both]
                 [--jobs N] [--symbolic]
                                 static schedule analysis: prove the compiled
                                 schedule deadlock-free and port/link-legal,
                                 extract its exact (a, b) by replay, judge it
                                 against the certificate's closed-form
                                 prediction, and report per-phase traffic;
                                 `analyze all` sweeps every algorithm over
                                 the default (n, p) grid and fails on any
                                 violation. --symbolic certifies the closed
                                 forms instead: collective schemas and
                                 algorithm compositions are proven against
                                 Tables 1/2 as polynomial identities in n
                                 and 2^d, valid for every p = 2^d at once
                                 (grid replay remains as a spot-check
                                 inside each certificate)
  cubemm serve [--workers N] [--queue N] [--socket PATH]
                                 long-lived multiply service: JSON-lines
                                 requests on stdin (or a Unix socket),
                                 one typed JSON response per job; see
                                 DESIGN.md §13 for the protocol
  cubemm chaos <algo|all> [--seed S] [--runs N] [--n N] [--max-entries K]
               [--budget-factor F] [--recover-attempts N]
               [--fail-on corrected] [--repro-dir DIR]
                                 seeded coverage-guided chaos campaign:
                                 randomized fault plans spanning every
                                 fault family run under ABFT + recovery
                                 against invariant oracles (bitwise
                                 product, report sanity, typed-failure
                                 taxonomy, virtual-time budget); any
                                 oracle failure is delta-debugged to a
                                 minimal repro plan, written to
                                 --repro-dir as --fault-plan JSON.
                                 Byte-identical output for a fixed
                                 --seed; `all` also prints aggregate
                                 fault-space coverage. Exit 0 = every
                                 oracle held, 2 = violations (repros
                                 written)
  cubemm tune-kernel [--n 512] [--reps 3] [--threads 1] [--full]
                     [--out FILE] [--dry-run]
                                 sweep the packed kernel's mc/kc/nc blocking
                                 grid (pruned against this host's detected
                                 cache sizes) on an n×n×n product and write
                                 the winner to FILE (default
                                 $CUBEMM_TUNE_FILE or ./cubemm-tune.json);
                                 untuned packed runs load it automatically
                                 when its microkernel matches. --full widens
                                 the grid ~4x; --dry-run prints the table
                                 without writing
  cubemm help                    this text

Defaults: n=64, p=64, port=one, ts=150, tw=3, charge=sender (the paper's
parameters and accounting), kernel=packed (single-threaded; `packed:0`
picks a thread count automatically). A flag a command does not read is
an error (exit 2), never silently ignored.
The simulated machine runs under a virtual-clock-ordered event loop,
one loop per spare host core from p = 1024 on (same results), and
scales to p = 4096..65536 nodes.
A run that cannot progress (e.g. under --fault-drop: nothing retransmits
a dropped message) is reported as a structured deadlock naming every
blocked node, detected exactly and instantly by the simulator's progress
ledger (no watchdog; results are identical at any --jobs value).
--jobs N runs independent sweep/analysis grid points on N worker threads,
each running its whole machine; output is identical to --jobs 1 (the
default).
--abft runs the multiplication under Huang-Abraham checksum protection:
silent data corruption (--fault-corrupt perturbs word WORD of the K-th
payload crossing the directed edge FROM->TO by DELTA; --fault-flip flips
bit BIT of it) is detected from the product's checksum residuals and
either corrected in place or survived by quarantining the corrupting
link and re-running; a node crash scheduled with --fault-crash (kills
NODE at its STEP-th communication call) is survived by rebooting it.
--recover-attempts N bounds the re-runs (default 4, capped exponential
virtual backoff between attempts). --fault-plan loads a JSON fault plan
(flags stack on top); --fault-plan-dump writes the effective plan.
cubemm serve boots a pool of --workers machines (default 4) and reads
one JSON request per line: {\"id\",\"n\",\"p\",...} with optional algo
(default auto = the Table 2 model's pick), kernel, port, ts, tw, seed,
abft (default true), priority 0-9, deadline (virtual time), attempts,
and faults (a fault-plan object). Each job is answered with exactly one
typed JSON line: ok (with a bit-exact product fingerprint), overloaded
(+retry_after_ms; the --queue bound is strict and excess load is shed
lowest-priority-first), rejected, failed, deadline, or malformed (bad
lines never kill the stream). EOF or SIGTERM stops admission, drains
the queue, and prints a summary to stderr.
Exit codes: 0 = verified product (clean, ABFT-corrected, or recovered);
            2 = usage/run errors, or damage still uncorrectable after
                the --recover-attempts budget;
            3 = deadlock (every live node blocked in a receive);
            4 = serve only: the request stream itself broke (I/O error);
                per-job failures never abort the service.
Algorithms: simple cannon hje berntsen dns diag2d 3dd 3d-all-trans 3d-all
            dns-cannon 3d-all-cannon 3d-all-flat cannon-torus fox
";

/// Parses `--jobs N` (default 1 — serial, byte-identical output at any
/// value; see `cubemm_harness::run_grid`).
fn jobs_from(args: &Args) -> Result<usize, String> {
    let jobs: usize = args.get_or("jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(jobs)
}

/// Parses `--n N` (default 64), the matrix order `run` and `sweep`
/// multiply. An empty product is refused here, once, rather than
/// reaching an algorithm whose blocks would be empty.
fn order_from(args: &Args) -> Result<usize, String> {
    let n: usize = args.get_or("n", 64)?;
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    Ok(n)
}

/// The `<algo|all>` selector `analyze` and `chaos` take, positionally
/// or as `--algo`.
fn selector(args: &Args, command: &str) -> Result<String, String> {
    args.positional(0)
        .or_else(|| args.raw("algo").map(str::to_string))
        .ok_or_else(|| format!("{command} needs an algorithm name or `all`"))
}

/// Parses an algorithm name, pointing at the list on a miss.
fn parse_algo(name: &str) -> Result<Algorithm, String> {
    name.parse()
        .map_err(|e| format!("{e} (see `cubemm help` for the list)"))
}

#[cfg(test)]
mod tests {
    use super::analyze::ANALYZE_FLAGS;
    use super::chaos::CHAOS_FLAGS;
    use super::run::RUN_FLAGS;
    use super::serve::{serve_stream, SERVE_FLAGS};
    use super::sweep::SWEEP_FLAGS;
    use cubemm_core::prelude::*;
    use cubemm_simnet::FaultPlan;

    use crate::args::Args;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Each subcommand as `main` runs it: an error is printed and
    /// exits 2.
    macro_rules! exit_codes {
        ($($command:ident),*) => {$(
            fn $command(argv: &[String]) -> i32 {
                crate::finish(super::$command(argv))
            }
        )*};
    }
    exit_codes!(
        list,
        run,
        sweep,
        regions,
        analyze,
        serve,
        chaos,
        tune_kernel
    );

    #[test]
    fn list_runs_clean() {
        assert_eq!(list(&argv("64 64")), 0);
        assert_eq!(list(&argv("")), 0);
    }

    #[test]
    fn chaos_campaign_runs_clean_on_a_healthy_stack() {
        assert_eq!(chaos(&argv("cannon --seed 7 --runs 6")), 0);
    }

    #[test]
    fn chaos_rejects_bad_arguments() {
        assert_ne!(chaos(&argv("")), 0);
        assert_ne!(chaos(&argv("nope --runs 1")), 0);
        assert_ne!(chaos(&argv("cannon --runs 0")), 0);
        assert_ne!(chaos(&argv("cannon --runs 1 --fail-on everything")), 0);
        assert_ne!(chaos(&argv("cannon --runs 1 --seed many")), 0);
    }

    #[test]
    fn chaos_fail_on_corrected_writes_replayable_repros() {
        // `--fail-on corrected` turns every in-place correction into a
        // "violation", exercising the shrinker and the repro files end
        // to end: the campaign must exit 2 and each written plan must
        // replay through `run --abft --fault-plan` (exit 0 — the
        // corruption is corrected or recovered, which is the point).
        let dir = std::env::temp_dir().join(format!("cubemm-chaos-cli-{}", std::process::id()));
        let dirs = dir.display().to_string();
        assert_eq!(
            chaos(&argv(&format!(
                "cannon --seed 11 --runs 40 --fail-on corrected --repro-dir {dirs}"
            ))),
            2
        );
        let mut repros = 0usize;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let plan = FaultPlan::from_json(&text).unwrap();
            assert!(!plan.is_empty(), "{path:?} shrunk to nothing");
            assert_eq!(
                run(&argv(&format!(
                    "--abft --algo cannon --n 6 --p 64 --fault-plan {}",
                    path.display()
                ))),
                0,
                "repro {path:?} must replay"
            );
            repros += 1;
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(repros > 0, "no repro files were written");
    }

    #[test]
    fn tune_kernel_dry_run_and_bad_args() {
        // Tiny n: pins the plumbing (sweep, table, flag parsing), not perf.
        assert_eq!(tune_kernel(&argv("--n 48 --reps 1 --dry-run")), 0);
        assert_ne!(tune_kernel(&argv("--n 0 --dry-run")), 0);
        assert_ne!(tune_kernel(&argv("--reps 0 --dry-run")), 0);
        assert_ne!(tune_kernel(&argv("--n nope")), 0);
    }

    #[test]
    fn run_small_configuration() {
        assert_eq!(run(&argv("--algo 3d-all --n 16 --p 8")), 0);
        assert_eq!(run(&argv("--algo cannon --n 16 --p 16 --port multi")), 0);
    }

    #[test]
    fn run_rejects_bad_input() {
        assert_ne!(run(&argv("--algo nope --n 16 --p 8")), 0);
        assert_ne!(run(&argv("--algo 3d-all --n 15 --p 8")), 0);
        assert_ne!(run(&argv("--n 16")), 0);
        assert_ne!(run(&argv("--algo cannon --n 16 --p 16 --kernel simd")), 0);
        assert_ne!(run(&argv("--algo cannon --n 16 --p 16 --engine fiber")), 0);
    }

    #[test]
    fn unknown_flags_exit_2_before_anything_runs() {
        // A typo used to run silently with the default (one-port here);
        // retired flags must not be ignored either.
        assert_eq!(run(&argv("--algo cannon --n 16 --p 16 --prot multi")), 2);
        assert_eq!(
            run(&argv("--algo cannon --n 16 --p 16 --engine threaded")),
            2
        );
        assert_eq!(sweep(&argv("--n 16 --p 4 --engine event")), 2);
        assert_eq!(analyze(&argv("cannon --n 16 --p 16 --engine event")), 2);
        assert_eq!(serve(&argv("--node-budget 64")), 2);
        assert_eq!(chaos(&argv("cannon --runs 1 --symbolic")), 2);
        assert_eq!(list(&argv("--n 64")), 2);
    }

    #[test]
    fn every_flag_scripts_pass_is_accepted() {
        // What CI and the front-door benchmark put on `cubemm` command
        // lines; serve is parsed only, since running it reads stdin.
        for (flags, line) in [
            (
                &RUN_FLAGS,
                "--algo cannon --n 256 --p 4096 --port multi --seed 3",
            ),
            (&ANALYZE_FLAGS, "all --symbolic"),
            (&CHAOS_FLAGS, "all --seed 20260807 --runs 500 --repro-dir d"),
            (&SWEEP_FLAGS, "--n 192 --p 1024,4096"),
            (&SERVE_FLAGS, "--workers 2 --queue 256"),
        ] {
            assert!(Args::parse(&argv(line), flags).is_ok(), "{line}");
        }
    }

    #[test]
    fn run_accepts_every_kernel_spelling() {
        let run_with = |kernel: &str| {
            run(&argv(&format!(
                "--algo cannon --n 16 --p 16 --kernel {kernel}"
            )))
        };
        for kernel in ["blocked", "blocked:32", "packed", "packed:2", "packed:0"] {
            assert_eq!(run_with(kernel), 0, "--kernel {kernel} failed");
        }
        for retired in ["naive", "ikj"] {
            assert_eq!(run_with(retired), 2, "--kernel {retired} accepted");
        }
    }

    #[test]
    fn run_with_injected_faults_still_verifies() {
        // Lenient dead link: the simulator detours, the product is still
        // checked against the reference, and the faults section prints.
        assert_eq!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-link 0:1")),
            0
        );
        // Degraded link + straggler, multi-port.
        assert_eq!(
            run(&argv(
                "--algo 3d-all --n 16 --p 8 --port multi \
                 --fault-degrade 0:1:2.0:4.0 --fault-straggler 3:2.5"
            )),
            0
        );
    }

    #[test]
    fn run_rejects_malformed_fault_specs() {
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-link 0:3")),
            0
        );
        assert_ne!(run(&argv("--algo cannon --n 16 --p 16 --fault-link 0")), 0);
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-straggler 2:0.5")),
            0
        );
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-drop 0:1")),
            0
        );
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-strict maybe")),
            0
        );
        // A fault plan referencing a node outside the machine surfaces
        // the simulator's config error rather than panicking.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 16 --p 16 --fault-straggler 99:2.0"
            )),
            0
        );
    }

    #[test]
    fn abft_corrects_or_recovers_and_exits_zero() {
        // In-flight corruption, corrected in place on the first attempt
        // (site found by the smoke probe; the simulator is
        // deterministic, so it stays stable).
        assert_eq!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-corrupt 0:1:0:1:64"
            )),
            0
        );
        // Sign-flip corruption.
        assert_eq!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-flip 0:1:0:1:63"
            )),
            0
        );
        // Scheduled node crash: survived by reboot-and-rerun.
        assert_eq!(
            run(&argv("--algo cannon --n 6 --p 4 --abft --fault-crash 2:1")),
            0
        );
        // ABFT pads internally: n = 6 is indivisible for p = 16 (√p = 4)
        // but the augmented order 8 is fine.
        assert_eq!(run(&argv("--algo cannon --n 6 --p 16 --abft")), 0);
    }

    #[test]
    fn abft_exit_codes_follow_the_contract() {
        // Site (2,3,seq 0) propagates through Cannon's forwarded blocks:
        // detected but not locatable, so a budget of one attempt leaves
        // it uncorrectable (exit 2) while the default budget quarantines
        // the link and converges (exit 0).
        let site = "--algo cannon --n 6 --p 4 --abft --fault-corrupt 2:3:0:1:64";
        assert_eq!(run(&argv(&format!("{site} --recover-attempts 1"))), 2);
        assert_eq!(run(&argv(site)), 0);
        // Nothing retransmits a dropped message, so the run deadlocks:
        // exit 3, with and without --abft.
        assert_eq!(
            run(&argv("--algo cannon --n 16 --p 4 --fault-drop 0:1:0")),
            3
        );
        assert_eq!(
            run(&argv(
                "--algo cannon --n 16 --p 4 --abft --fault-drop 0:1:0"
            )),
            3
        );
    }

    #[test]
    fn fault_plan_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!("cubemm-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("plan.json");
        let path = path.to_str().expect("utf-8 temp path");
        assert_eq!(
            run(&argv(&format!(
                "--algo cannon --n 6 --p 4 --abft \
                 --fault-corrupt 0:1:0:1:64 --fault-crash 2:1 \
                 --fault-plan-dump {path}"
            ))),
            0
        );
        let text = std::fs::read_to_string(path).expect("dumped plan exists");
        let plan = FaultPlan::from_json(&text).expect("dumped plan parses");
        assert!(plan.has_corruptions());
        assert_eq!(plan.crash_step(2), Some(1));
        // Loading the dumped plan reproduces the run; a flag on top of
        // the file stacks.
        assert_eq!(
            run(&argv(&format!(
                "--algo cannon --n 6 --p 4 --abft --fault-plan {path}"
            ))),
            0
        );
        assert_eq!(
            run(&argv(&format!(
                "--algo cannon --n 6 --p 4 --abft --fault-plan {path} --fault-crash 3:1"
            ))),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abft_and_fault_flags_reject_malformed_specs() {
        // Not a hypercube edge.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-corrupt 0:3:0:1:64"
            )),
            0
        );
        // Zero delta, bad bit, short spec.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-corrupt 0:1:0:1:0"
            )),
            0
        );
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-flip 0:1:0:1:64"
            )),
            0
        );
        assert_ne!(run(&argv("--algo cannon --n 6 --p 4 --fault-crash 2")), 0);
        // Missing plan file; zero retry budget.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --fault-plan /nonexistent/plan.json"
            )),
            0
        );
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --recover-attempts 0"
            )),
            0
        );
    }

    #[test]
    fn sweep_and_regions_run_clean() {
        assert_eq!(sweep(&argv("--n 16 --p 4,8,16")), 0);
        assert_eq!(regions(&argv("--port multi --ts 5 --tw 3")), 0);
    }

    #[test]
    fn sweep_accepts_parallel_jobs() {
        assert_eq!(sweep(&argv("--n 16 --p 4,8,16 --jobs 3")), 0);
    }

    #[test]
    fn jobs_flag_is_validated() {
        assert_ne!(sweep(&argv("--n 16 --p 4 --jobs 0")), 0);
        assert_ne!(sweep(&argv("--n 16 --p 4 --jobs many")), 0);
        assert_ne!(analyze(&argv("all --jobs 0")), 0);
        assert_ne!(analyze(&argv("all --jobs many")), 0);
    }

    #[test]
    fn analyze_certifies_small_configurations() {
        assert_eq!(analyze(&argv("cannon --n 16 --p 16 --port one")), 0);
        assert_eq!(analyze(&argv("3d-all --n 16 --p 8 --port multi")), 0);
        // `--algo` spelling and the both-ports default.
        assert_eq!(analyze(&argv("--algo simple --n 16 --p 16")), 0);
    }

    #[test]
    fn analyze_rejects_bad_input() {
        assert_ne!(analyze(&argv("")), 0);
        assert_ne!(analyze(&argv("nosuch --n 16 --p 16")), 0);
        assert_ne!(analyze(&argv("cannon --n 17 --p 16")), 0);
        assert_ne!(analyze(&argv("cannon --n 16 --p 16 --port dual")), 0);
    }

    /// Runs `serve_stream` over a canned script against a small live
    /// pool and returns the decoded response lines.
    fn serve_script(script: &str) -> Vec<cubemm_simnet::json::Json> {
        use std::sync::{Arc, Mutex};
        let pool = cubemm_serve::ServePool::start(cubemm_serve::ServeConfig {
            workers: 2,
            ..cubemm_serve::ServeConfig::default()
        });
        let output: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        serve_stream(std::io::Cursor::new(script.to_string()), &output, &pool)
            .expect("in-memory stream cannot break");
        pool.drain();
        let bytes = output.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("responses are UTF-8")
            .lines()
            .map(|l| cubemm_simnet::json::parse(l).expect("each response line is JSON"))
            .collect()
    }

    #[test]
    fn serve_stream_answers_every_line_and_survives_malformed_input() {
        use cubemm_simnet::json::Json;
        let script = concat!(
            "{\"id\":\"a\",\"n\":16,\"p\":16,\"algo\":\"cannon\"}\n",
            "this is not json\n",
            "\n", // blank lines are skipped, not answered
            "{\"id\":\"b\",\"n\":16,\"p\":16,\"algo\":\"cannon\",\"abft\":false}\n",
            "{\"id\":\"c\",\"n\":16,\"p\":16,\"priority\":99}\n",
        );
        let responses = serve_script(script);
        assert_eq!(responses.len(), 4);
        let status_of = |id: &str| {
            responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
                .and_then(|r| r.get("status"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(status_of("a").as_deref(), Some("ok"));
        assert_eq!(status_of("b").as_deref(), Some("ok"));
        // Bad priority: malformed, but the id was readable and echoed.
        assert_eq!(status_of("c").as_deref(), Some("malformed"));
        // The unparseable line got an anonymous malformed response.
        assert!(responses.iter().any(|r| {
            r.get("id").and_then(Json::as_str) == Some("")
                && r.get("status").and_then(Json::as_str) == Some("malformed")
        }));
    }

    #[test]
    fn serve_stream_matches_one_shot_run_bitwise() {
        use cubemm_simnet::json::Json;
        // The serve-vs-run byte-identity check, through the CLI layer:
        // the served fingerprint equals the fingerprint of the same
        // multiplication done directly (same seed → same inputs).
        let responses = serve_script(
            "{\"id\":\"x\",\"n\":16,\"p\":16,\"algo\":\"cannon\",\"abft\":false,\"seed\":1}\n",
        );
        let served = responses[0]
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("ok response carries a fingerprint")
            .to_string();
        let a = Matrix::random(16, 16, 1);
        let b = Matrix::random(16, 16, 2);
        let direct = Algorithm::Cannon
            .multiply(&a, &b, 16, &MachineConfig::default())
            .expect("direct run");
        assert_eq!(served, cubemm_serve::fingerprint_hex(&direct.c));
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert_eq!(serve(&["--workers".into(), "0".into()]), 2);
        assert_eq!(serve(&["--queue".into(), "x".into()]), 2);
    }
}
