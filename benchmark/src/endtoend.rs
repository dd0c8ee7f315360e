//! The front-door pass of one workload: the end-to-end metrics.
//!
//! * `setup_s` — median wall of the workload's set-up, repeated: op-list
//!   generation and warm-up ops (serve: child spawn, pool boot, warm-up
//!   jobs), everything before the first timed op.
//! * `ops_per_s` — verified ops per second of timed wall: ops per cycle
//!   (serve: per batch of responses) over the median cycle time, so one
//!   slow cycle does not move it.
//! * `op_p50_ms`, `op_p90_ms` — per-op wall latency over every timed op
//!   of the mix (spawn→exit, or request written→response read). The
//!   sample count, and how many samples lie beyond p90, are printed and
//!   stored next to them.
//! * `peak_rss_mb` — largest resident set of any child of the workload.
//!
//! Failed or refused ops are counted against ops attempted in the result
//! line (`attempted`, `failed`), not hidden inside a latency.

use std::collections::BTreeMap;

use crate::frontdoor::{self, FrontDoor, FrontDoorOutcome};
use crate::host;
use crate::json::Json;
use crate::layers::Metrics;
use crate::replay;
use crate::report::PassResult;
use crate::span::Tracer;
use crate::stats;
use crate::workloads::{OpSpec, Workload};

/// The end-to-end metrics, in the order `BENCHMARK.json` declares them.
pub const METRICS: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_p50_ms",
    "op_p90_ms",
    "peak_rss_mb",
];

/// Recomputes in-process what the children printed: every distinct
/// `run` point's fingerprint and virtual time, every sampled serve
/// response. Called only once the last child has exited, so this
/// process is still small whenever a child is spawned (see
/// [`host::self_peak_rss_kib`]).
fn cross_check(out: &FrontDoorOutcome, failures: &mut Vec<String>) -> u64 {
    let mut checked = 0;
    let mut off = Tracer::new(false);
    for (key, (op, printed)) in &out.observed {
        let OpSpec::Run {
            algo,
            n,
            p,
            port,
            seed,
        } = op.spec
        else {
            continue;
        };
        checked += 1;
        match replay::replay_run(&mut off, algo, n, p, port, seed) {
            Ok(run) if run.observed == *printed => {}
            Ok(run) => failures.push(format!(
                "cross-check {key}: CLI printed `{printed}`, in-process replay gives `{}`",
                run.observed
            )),
            Err(why) => failures.push(format!("cross-check {key}: {why}")),
        }
    }
    for (request, response) in &out.sampled {
        checked += 1;
        match replay::execute_job(request) {
            Ok(expected) if expected == *response => {}
            Ok(expected) => failures.push(format!(
                "cross-check {request}: served `{response}`, in-process executor gives `{expected}`"
            )),
            Err(why) => failures.push(format!("cross-check {request}: {why}")),
        }
    }
    checked
}

pub fn front_door_pass(
    fd: &FrontDoor,
    workload: Workload,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
) -> PassResult {
    let mut out = match workload {
        Workload::ServeMix => frontdoor::run_serve_workload(fd, seed, seconds, setup_reps),
        _ => frontdoor::run_cli_workload(fd, workload, seed, seconds, setup_reps),
    };
    // Children are all reaped: read their high-water mark, and this
    // process's own, before the in-process checking grows it.
    let peak_rss_mb = host::children_peak_rss_kib() as f64 / 1024.0;
    let self_rss_mb = host::self_peak_rss_kib() as f64 / 1024.0;

    let mut failures = std::mem::take(&mut out.failures);
    let cross_checked = cross_check(&out, &mut failures);

    let mut all: Vec<f64> = out.latencies_ms.iter().map(|(_, ms)| *ms).collect();
    all.sort_by(f64::total_cmp);
    let pct = |q| stats::percentile(&all, q).unwrap_or(f64::NAN);
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        stats::median(&mut out.setup_s).unwrap_or(f64::NAN),
        "s",
    );
    m.put(
        "ops_per_s",
        out.ops_per_cycle as f64 / stats::median(&mut out.cycle_s.clone()).unwrap_or(f64::NAN),
        "1/s",
    );
    m.put("op_p50_ms", pct(0.5), "ms");
    m.put("op_p90_ms", pct(0.9), "ms");
    m.put("peak_rss_mb", peak_rss_mb, "MB");

    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (kind, ms) in &out.latencies_ms {
        by_kind.entry(kind).or_default().push(*ms);
    }
    let mut extras = vec![
        ("samples".to_string(), Json::Num(all.len() as f64)),
        (
            "samples_beyond_p90".to_string(),
            Json::Num(stats::samples_beyond(all.len(), 0.9) as f64),
        ),
        ("cycles".to_string(), Json::Num(out.cycle_s.len() as f64)),
        (
            "timed_wall_s".to_string(),
            Json::Num(out.cycle_s.iter().sum()),
        ),
        (
            "cycle_s".to_string(),
            Json::Arr(out.cycle_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("cross_checked".to_string(), Json::Num(cross_checked as f64)),
        ("bench_process_rss_mb".to_string(), Json::Num(self_rss_mb)),
        (
            "op_p50_ms_by_kind".to_string(),
            Json::Obj(
                by_kind
                    .into_iter()
                    .map(|(kind, mut v)| {
                        (
                            kind.to_string(),
                            Json::Num(stats::median(&mut v).unwrap_or(f64::NAN)),
                        )
                    })
                    .collect(),
            ),
        ),
    ];
    if workload == Workload::ServeMix {
        // Only the serve workload has the samples for a 99th
        // percentile (a thousand beyond it per hundred thousand jobs).
        extras.push(("op_p99_ms".to_string(), Json::Num(pct(0.99))));
        extras.push((
            "samples_beyond_p99".to_string(),
            Json::Num(stats::samples_beyond(all.len(), 0.99) as f64),
        ));
    }
    if self_rss_mb >= peak_rss_mb {
        eprintln!(
            "warning: the benchmark process ({self_rss_mb:.1} MB) was not smaller than its \
             children ({peak_rss_mb:.1} MB); peak_rss_mb is an upper bound on this run"
        );
    }
    PassResult {
        workload: workload.name(),
        traced: false,
        seed,
        seconds,
        metrics: m,
        extras,
        attempted: out.attempted.max(1),
        failures,
    }
}
