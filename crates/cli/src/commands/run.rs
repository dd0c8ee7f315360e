//! `cubemm run`: one verified multiplication, a formatter over
//! [`Job::run`].

use cubemm_core::abft::AbftOutcome;
use cubemm_harness::job::{self, AbftRun, Job, JobOutcome, Protection};
use cubemm_harness::recovery::RecoveryPolicy;
use cubemm_simnet::{FaultEntry, FaultPlan};

use super::machine::{machine_from, MACHINE_FLAGS};
use super::{order_from, parse_algo};
use crate::args::{Args, Flags};

pub(super) const RUN_FLAGS: Flags = Flags {
    command: "run",
    values: &[
        &[
            "algo",
            "n",
            "p",
            "seed",
            "fault-plan-dump",
            "recover-attempts",
        ],
        MACHINE_FLAGS,
    ],
    switches: &["abft"],
};

/// `cubemm run --algo A --n N --p P ...` (see `USAGE` for the exit-code
/// contract).
pub fn run(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &RUN_FLAGS)?;
    let algo = parse_algo(&args.require::<String>("algo")?)?;
    let n = order_from(&args)?;
    let p: usize = args.get_or("p", 64)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let cfg = machine_from(&args)?;
    // The run's shard threads, if it starts any, allocate in arenas
    // prepared now, while no other thread exists.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    crate::heap::reserve_arenas(cubemm_simnet::most_shards(p) - 1);
    if let Some(path) = args.raw("fault-plan-dump") {
        std::fs::write(path, cfg.faults.to_json() + "\n")
            .map_err(|e| format!("--fault-plan-dump {path:?}: {e}"))?;
        println!("effective fault plan written to {path}");
    }
    let protection = if args.has("abft") {
        let max_attempts: usize = args.get_or("recover-attempts", 4)?;
        if max_attempts == 0 {
            return Err("--recover-attempts must be at least 1".into());
        }
        Protection::Abft(RecoveryPolicy {
            max_attempts,
            ..RecoveryPolicy::default()
        })
    } else {
        Protection::Plain
    };
    let job = Job {
        algo,
        n,
        p,
        seed,
        protection,
    };
    let outcome = match job.run(&cfg, true) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(job::exit_code(Err(&e)));
        }
    };
    let (port, ts, tw) = (cfg.port, cfg.cost.ts, cfg.cost.tw);
    match &outcome.abft {
        None => println!("{algo}: n = {n}, p = {p}, {port} nodes, ts = {ts}, tw = {tw}"),
        Some(abft) => println!(
            "{algo}: n = {n} (ABFT-augmented to {}), p = {p}, {port} nodes, ts = {ts}, tw = {tw}",
            abft.augmented
        ),
    }
    // `run` always asks for the reference, so max |Δ| is measured.
    let err = outcome.max_diff.unwrap_or(f64::NAN);
    println!("  verified:              max |Δ| = {err:.2e}");
    match &outcome.abft {
        None => report_plain(&job, &outcome, &cfg)?,
        Some(abft) => report_abft(abft, &outcome)?,
    }
    if outcome.verified {
        Ok(0)
    } else {
        Err("verification FAILED".into())
    }
}

/// The rest of a plain run's report: its fingerprint and traffic, and,
/// under a fault plan, what the faults cost against a healthy re-run.
fn report_plain(
    job: &Job,
    outcome: &JobOutcome,
    cfg: &cubemm_core::MachineConfig,
) -> Result<(), String> {
    let stats = &outcome.stats;
    // The same identity `cubemm serve` reports: FNV-1a 64 over the
    // product's bits, for byte-exact comparison across modes.
    println!("  fingerprint:           {}", outcome.fingerprint);
    println!("  simulated comm time:   {:.1}", stats.elapsed);
    println!("  messages injected:     {}", stats.total_messages());
    println!("  word·hops moved:       {}", stats.total_word_hops());
    println!("  peak words (total):    {}", stats.total_peak_words());
    let fp = &cfg.faults;
    if fp.is_empty() {
        return Ok(());
    }
    // Re-run the same job on a healthy machine so the report can price
    // the injected faults.
    let mut healthy = cfg.clone();
    healthy.faults = FaultPlan::new();
    let baseline = job
        .run(&healthy, true)
        .map_err(|e| format!("healthy baseline run failed: {e}"))?
        .stats
        .elapsed;
    let count = |is: fn(&FaultEntry) -> bool| fp.entries().filter(|e| is(e)).count();
    println!("  faults:");
    println!(
        "    injected:            {} dead, {} degraded, {} stragglers, {} drops ({})",
        count(|e| matches!(e, FaultEntry::Dead { .. })),
        count(|e| matches!(e, FaultEntry::Degraded { .. })),
        count(|e| matches!(e, FaultEntry::Straggler { .. })),
        count(|e| matches!(e, FaultEntry::Drop { .. })),
        if fp.is_strict() { "strict" } else { "lenient" },
    );
    println!("    retries:             {}", stats.total_retries());
    println!("    detour hops:         {}", stats.total_detour_hops());
    println!("    messages dropped:    {}", stats.total_dropped());
    println!(
        "    vs healthy run:      {baseline:.1} -> {:.1} ({:+.1})",
        stats.elapsed,
        stats.elapsed - baseline,
    );
    Ok(())
}

/// The rest of an `--abft` run's report: what the checksums found and
/// what recovery did about it.
fn report_abft(abft: &AbftRun, outcome: &JobOutcome) -> Result<(), String> {
    match &abft.outcome {
        AbftOutcome::Clean => {
            println!("  abft outcome:          clean (no corruption detected)");
        }
        AbftOutcome::Corrected {
            entries,
            block,
            node,
        } => {
            print!(
                "  abft outcome:          corrected {} entr{}",
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            if let (Some((bi, bj)), Some(node)) = (block, node) {
                print!(" in block ({bi},{bj}) — suspect node {node}");
            }
            println!();
        }
        AbftOutcome::Uncorrectable { .. } => {
            // Recovery never returns an untrustworthy product; keep the
            // arm so the match stays exhaustive.
            return Err("internal error: recovery returned an uncorrectable product".into());
        }
    }
    let report = &abft.report;
    println!(
        "  attempts:              {} (virtual backoff {:.1})",
        report.attempts, report.backoff_spent
    );
    if !report.backoff_delays.is_empty() {
        let schedule = report
            .backoff_delays
            .iter()
            .map(|d| format!("{d:.1}"))
            .collect::<Vec<_>>()
            .join(" -> ");
        println!("    backoff schedule:    {schedule}");
    }
    for act in &report.actions {
        println!("    recovery:            {act}");
    }
    println!("  fingerprint:           {}", outcome.fingerprint);
    println!(
        "  payloads corrupted:    {} (final attempt)",
        outcome.stats.total_corrupted()
    );
    println!(
        "  simulated comm time:   {:.1} (final attempt)",
        outcome.stats.elapsed
    );
    Ok(())
}
