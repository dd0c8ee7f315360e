//! `cubemm analyze`: static schedule certification, on a grid or
//! symbolically.

use cubemm_core::Algorithm;
use cubemm_simnet::PortModel;

use super::{jobs_from, parse_algo, selector};
use crate::args::{parse_port, Args, Flags};

pub(super) const ANALYZE_FLAGS: Flags = Flags {
    command: "analyze",
    values: &[&["algo", "n", "p", "port", "jobs"]],
    switches: &["symbolic"],
};

/// The port models `--port one|multi|both` selects (default: both —
/// analysis is cheap and the claims differ per model).
fn analyze_ports(raw: Option<&str>) -> Result<Vec<PortModel>, String> {
    match raw {
        None | Some("both") => Ok(vec![PortModel::OnePort, PortModel::MultiPort]),
        some => Ok(vec![parse_port(some)?]),
    }
}

/// `cubemm analyze <algo|all> ...`.
pub fn analyze(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &ANALYZE_FLAGS)?;
    let ports = analyze_ports(args.raw("port"))?;
    let selector = selector(&args, "analyze")?;

    if args.has("symbolic") {
        return analyze_symbolic(&selector, &ports);
    }

    if selector == "all" {
        // Registry sweep over the default grid: one summary line per
        // point, non-zero exit on any unsound or non-conformant result.
        // Each point replays its schedule on an independent simulated
        // machine, so the grid runs through the parallel driver; results
        // come back in task order and the report below is identical at
        // any --jobs value.
        let jobs = jobs_from(&args)?;
        let mut tasks = Vec::new();
        for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
            for &port in &ports {
                for (n, p) in cubemm_analyze::applicable_grid(algo) {
                    tasks.push((algo, port, n, p));
                }
            }
        }
        let results = cubemm_harness::run_grid(&tasks, jobs, |&(algo, port, n, p)| {
            cubemm_analyze::analyze_algorithm(algo, n, p, port)
        });
        let mut violations = 0usize;
        for (&(algo, port, n, p), result) in tasks.iter().zip(results) {
            let r = result?;
            let cost = r.analysis.cost;
            let status = if !r.is_conformant() {
                violations += 1;
                "VIOLATION"
            } else if r.analysis.is_full_bandwidth() {
                "ok"
            } else {
                "ok (links serialize)"
            };
            println!(
                "{:<14} n={n:<3} p={p:<3} {:<10} a={:<6} b={:<9} {status}: {}",
                algo.name(),
                format!("{port}"),
                cost.map_or_else(|| "-".into(), |c| format!("{}", c.a)),
                cost.map_or_else(|| "-".into(), |c| format!("{}", c.b)),
                r.verdict
                    .as_ref()
                    .map_or_else(|| "no closed form here".into(), ToString::to_string)
            );
            if !r.analysis.is_sound() {
                for d in &r.analysis.diagnostics {
                    println!("    - {d}");
                }
            }
        }
        if violations > 0 {
            return Err(format!("{violations} schedule(s) failed analysis"));
        }
        println!("all schedules certified");
        return Ok(0);
    }

    let algo = parse_algo(&selector)?;
    let n: usize = args.get_or("n", 64)?;
    let p: usize = args.get_or("p", 64)?;
    algo.check(n, p)
        .map_err(|e| format!("{algo} cannot run n={n} on p={p}: {e}"))?;
    let mut bad = false;
    for port in ports {
        let r = cubemm_analyze::analyze_algorithm(algo, n, p, port)?;
        print!("{}", cubemm_analyze::render(&r));
        bad |= !r.is_conformant();
    }
    if bad {
        return Err("schedule failed analysis".into());
    }
    Ok(0)
}

/// `cubemm analyze ... --symbolic`: the parametric certification gate.
///
/// Instead of replaying schedules at enumerated `(n, p)` grid points,
/// this certifies the *closed forms*: every collective schema and every
/// algorithm composition is proven against Tables 1/2 as polynomial
/// identities in `n` and `2^d`, valid for every hypercube size at once.
/// Grid replay survives only as the grounding spot-check inside each
/// certificate. Non-zero exit if any obligation fails.
fn analyze_symbolic(selector: &str, ports: &[PortModel]) -> Result<i32, String> {
    let mut bad = 0usize;
    let mut total = 0usize;
    if selector == "all" {
        for cert in cubemm_analyze::certify_all_collectives() {
            total += 1;
            bad += usize::from(!cert.ok());
            print!("{cert}");
        }
        println!();
        for cert in cubemm_analyze::certify_all_algorithms() {
            total += 1;
            bad += usize::from(!cert.ok());
            print!("{cert}");
        }
    } else {
        let algo = parse_algo(selector)?;
        for &port in ports {
            total += 1;
            let cert = cubemm_analyze::certify_algorithm(algo, port);
            bad += usize::from(!cert.ok());
            print!("{cert}");
        }
    }
    if bad > 0 {
        return Err(format!("{bad}/{total} symbolic certificate(s) failed"));
    }
    println!("{total}/{total} symbolic certificates hold for all p = 2^d");
    Ok(0)
}
