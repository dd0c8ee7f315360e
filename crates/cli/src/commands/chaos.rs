//! `cubemm chaos`: the seeded, coverage-guided fault campaign.

use cubemm_core::Algorithm;
use cubemm_harness::chaos::{operands, run_campaign_on, ChaosOptions, Coverage};
use cubemm_harness::recovery::RecoveryPolicy;

use super::{parse_algo, selector};
use crate::args::{Args, Flags};

pub(super) const CHAOS_FLAGS: Flags = Flags {
    command: "chaos",
    values: &[&[
        "algo",
        "seed",
        "runs",
        "n",
        "max-entries",
        "budget-factor",
        "recover-attempts",
        "fail-on",
        "repro-dir",
    ]],
    switches: &[],
};

/// `cubemm chaos <algo|all>` (DESIGN.md §16). Every run is reproducible
/// from `--seed`; oracle failures are delta-debugged down to a minimal
/// fault plan and (with `--repro-dir`) written as `--fault-plan`-ready
/// JSON.
pub fn chaos(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &CHAOS_FLAGS)?;
    let selector = selector(&args, "chaos")?;
    let seed: u64 = args.get_or("seed", 0)?;
    let defaults = ChaosOptions::default();
    let fail_on_corrected = match args.raw("fail-on") {
        None => false,
        Some("corrected") => true,
        Some(other) => {
            return Err(format!(
                "unknown --fail-on value {other:?} (only `corrected`)"
            ))
        }
    };
    let opts = ChaosOptions {
        runs: args.get_or("runs", defaults.runs)?,
        n: args.get_or("n", defaults.n)?,
        max_entries: args.get_or("max-entries", defaults.max_entries)?,
        budget_factor: args.get_or("budget-factor", defaults.budget_factor)?,
        fail_on_corrected,
        policy: RecoveryPolicy {
            max_attempts: args.get_or("recover-attempts", defaults.policy.max_attempts)?,
            ..defaults.policy
        },
    };
    if opts.runs == 0 || opts.n == 0 || opts.max_entries == 0 {
        return Err("--runs, --n and --max-entries must be at least 1".into());
    }
    // Below 1 the healthy run itself breaks the time oracle; NaN or
    // infinity switch it off.
    if !(opts.budget_factor.is_finite() && opts.budget_factor >= 1.0) {
        return Err(format!(
            "--budget-factor must be finite and at least 1, got {}",
            opts.budget_factor
        ));
    }

    let algos: Vec<Algorithm> = if selector == "all" {
        Algorithm::ALL
            .into_iter()
            .chain(Algorithm::EXTENSIONS)
            .collect()
    } else {
        vec![parse_algo(&selector)?]
    };

    // An order no host can hold is a typed error, worded as `run` and
    // `sweep` word it, before any campaign starts.
    let (a, b) = operands(opts.n)?;
    let mut aggregate = Coverage::new();
    let mut total_violations = 0usize;
    for algo in &algos {
        let report = run_campaign_on(*algo, seed, &opts, &a, &b)
            .map_err(|e| format!("chaos {}: {e}", algo.name()))?;
        print!("{}", report.render());
        aggregate.merge(&report.coverage);
        total_violations += report.violations.len();
        if let Some(dir) = args.raw("repro-dir") {
            if !report.violations.is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("--repro-dir {dir:?}: {e}"))?;
                for v in &report.violations {
                    let path = format!("{dir}/chaos-{}-run{}.json", algo.name(), v.run);
                    std::fs::write(&path, &v.shrunk_json)
                        .map_err(|e| format!("writing {path:?}: {e}"))?;
                    eprintln!(
                        "chaos {}: run {} repro ({} entr{}) -> {path}",
                        algo.name(),
                        v.run,
                        v.shrunk_entries,
                        if v.shrunk_entries == 1 { "y" } else { "ies" }
                    );
                }
            }
        }
    }
    if algos.len() > 1 {
        println!("aggregate coverage: {}", aggregate.summary());
    }
    if total_violations > 0 {
        eprintln!(
            "chaos: {total_violations} oracle violation(s); replay a repro with \
             `cubemm run --abft --fault-plan FILE`"
        );
        return Ok(2);
    }
    println!("chaos: every oracle held over {} campaign(s)", algos.len());
    Ok(0)
}
