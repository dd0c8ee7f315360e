//! Load generator for the `cubemm-serve` machine pool.
//!
//! Drives thousands of concurrent multiply requests straight into a
//! live [`ServePool`] (no process or socket in the way — this measures
//! the pool, not the pipe) and reports sustained throughput and
//! wall-clock latency quantiles per concurrency level, plus the typed
//! backpressure counts that prove overload is answered honestly rather
//! than buffered. Writes `BENCH_serve.json` in the working directory,
//! mirroring the other `BENCH_*.json` formats.
//!
//! ```text
//! cargo run --release -p cubemm-bench --bin serve_bench              # full run
//! cargo run --release -p cubemm-bench --bin serve_bench -- --smoke   # CI smoke
//! cargo run --release -p cubemm-bench --bin serve_bench -- --soak    # CI chaos
//! cargo run --release -p cubemm-bench --bin serve_bench -- \
//!     --baseline OLD.json                                            # + speedups
//! ```
//!
//! `--smoke` runs one small level and writes nothing. `--soak` runs the
//! chaos mix (crashes + corruption under load) and prints a Markdown
//! error-budget table — the piece CI appends to its step summary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cubemm_serve::{parse_request, JobStatus, Responder, ServeConfig, ServePool};

/// One load level: `concurrency` requests submitted as fast as the
/// generator can go against a bounded queue of the same depth class.
#[derive(Clone, Copy)]
struct Level {
    concurrency: usize,
    queue_cap: usize,
    workers: usize,
}

/// The job mix: small fault-free ABFT multiplications (the service's
/// bread and butter), shapes cycling so the pool sees heterogeneous
/// machine sizes.
fn job_line(i: usize, faulty: bool) -> String {
    let n = [8usize, 12, 16][i % 3];
    let p = if i % 7 == 0 { 16 } else { 4 };
    let faults = if faulty && i % 3 == 0 {
        format!(
            r#","faults":{{"crashes":[{{"node":{},"step":{}}}]}}"#,
            i % p,
            i % 2
        )
    } else if faulty && i % 5 == 0 {
        format!(
            r#","faults":{{"corruptions":[{{"from":0,"to":1,"seq":{},"word":{},"perturb":64.0}}]}}"#,
            i % 3,
            i % 8
        )
    } else {
        String::new()
    };
    format!(
        r#"{{"id":"bench-{i}","n":{n},"p":{p},"algo":"cannon","seed":{},"priority":{}{faults}}}"#,
        i % 11,
        i % 10
    )
}

#[derive(Default)]
struct LevelOutcome {
    ok: u64,
    failed: u64,
    overloaded: u64,
    quarantines: u64,
    reboots: u64,
    jobs_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Submits `level.concurrency` jobs against a fresh pool and measures
/// submit→response wall latency per job plus drained totals.
fn run_level(level: Level, faulty: bool) -> LevelOutcome {
    let pool = ServePool::start(ServeConfig {
        workers: level.workers,
        queue_cap: level.queue_cap,
    });
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let overloaded = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    for i in 0..level.concurrency {
        let req = parse_request(&job_line(i, faulty)).expect("generator line");
        let submit_time = Instant::now();
        let latencies = Arc::clone(&latencies);
        let overloaded = Arc::clone(&overloaded);
        let responder: Responder = Arc::new(move |resp| {
            if matches!(resp.status, JobStatus::Overloaded { .. }) {
                overloaded.fetch_add(1, Ordering::Relaxed);
            }
            let ms = submit_time.elapsed().as_secs_f64() * 1e3;
            latencies.lock().unwrap_or_else(|e| e.into_inner()).push(ms);
        });
        pool.submit(req, responder);
    }
    let stats = pool.drain();
    let wall = started.elapsed().as_secs_f64();
    let mut lat = latencies.lock().unwrap_or_else(|e| e.into_inner()).clone();
    lat.sort_by(f64::total_cmp);
    let quantile = |q: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() - 1) as f64 * q).round() as usize;
        lat[idx]
    };
    let executed = stats.ok + stats.failed + stats.deadline_missed;
    assert_eq!(
        stats.responses(),
        level.concurrency as u64,
        "load generator dropped a response"
    );
    LevelOutcome {
        ok: stats.ok,
        failed: stats.failed,
        overloaded: stats.overloaded + stats.shed,
        quarantines: stats.quarantines,
        reboots: stats.reboots,
        jobs_per_sec: executed as f64 / wall,
        p50_ms: quantile(0.50),
        p99_ms: quantile(0.99),
    }
}

/// Pulls `(concurrency) -> jobs_per_sec` rows out of a previously
/// written `BENCH_serve.json` (line scanner; no JSON stack needed).
fn parse_baseline(text: &str) -> Vec<(usize, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let get = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
            let rest = line[at..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        };
        if let (Some(c), Some(jps)) = (get("concurrency"), get("jobs_per_sec")) {
            if let (Ok(c), Ok(jps)) = (c.parse(), jps.parse()) {
                rows.push((c, jps));
            }
        }
    }
    rows
}

/// The chaos soak for CI: sustained faulty load, Markdown error-budget
/// table on stdout (appended to the step summary).
fn run_soak() {
    let level = Level {
        concurrency: 1500,
        queue_cap: 1500,
        workers: 4,
    };
    let started = Instant::now();
    let out = run_level(level, true);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "### serve chaos soak ({} jobs, {wall:.1}s wall)",
        level.concurrency
    );
    println!();
    println!("| metric | value | budget | status |");
    println!("|---|---|---|---|");
    let answered = out.ok + out.failed + out.overloaded;
    let mut bad = false;
    let mut row = |metric: &str, value: String, budget: &str, ok: bool| {
        println!(
            "| {metric} | {value} | {budget} | {} |",
            if ok { "✅" } else { "❌" }
        );
        bad |= !ok;
    };
    row(
        "responses",
        format!("{answered}/{}", level.concurrency),
        "every job answered",
        answered == level.concurrency as u64,
    );
    row(
        "verified ok",
        format!("{}", out.ok),
        ">= 90% of jobs",
        out.ok * 10 >= level.concurrency as u64 * 9,
    );
    row(
        "typed failures",
        format!("{}", out.failed),
        "typed only (no panics: run completed)",
        true,
    );
    row(
        "quarantines healed",
        format!("{}/{}", out.reboots, out.quarantines),
        "every quarantine reboots",
        out.reboots == out.quarantines && out.quarantines > 0,
    );
    row(
        "throughput",
        format!("{:.0} jobs/s", out.jobs_per_sec),
        "> 100 jobs/s",
        out.jobs_per_sec > 100.0,
    );
    row(
        "p99 latency",
        format!("{:.0} ms", out.p99_ms),
        "informational",
        true,
    );
    if bad {
        eprintln!("error: soak exceeded its error budget");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--soak") {
        run_soak();
        return;
    }
    let baseline: Vec<(usize, f64)> = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .map(|path| match std::fs::read_to_string(path) {
            Ok(text) => parse_baseline(&text),
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        })
        .unwrap_or_default();

    // Three levels; the top one intentionally overruns its queue so the
    // overload column exercises (and documents) typed backpressure.
    let levels: Vec<Level> = if smoke {
        vec![Level {
            concurrency: 64,
            queue_cap: 64,
            workers: 2,
        }]
    } else {
        vec![
            Level {
                concurrency: 128,
                queue_cap: 128,
                workers: 4,
            },
            Level {
                concurrency: 512,
                queue_cap: 512,
                workers: 4,
            },
            Level {
                concurrency: 2048,
                queue_cap: 1024,
                workers: 4,
            },
        ]
    };

    let mut rows: Vec<String> = Vec::new();
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "concurrency", "ok", "failed", "overloaded", "jobs/sec", "p50 ms", "p99 ms", "vs base"
    );
    for &level in &levels {
        let out = run_level(level, false);
        let base = baseline
            .iter()
            .find(|(c, _)| *c == level.concurrency)
            .map(|&(_, jps)| jps);
        let speedup = base.map_or(0.0, |b| out.jobs_per_sec / b);
        println!(
            "{:<12} {:>8} {:>8} {:>10} {:>12.0} {:>10.2} {:>10.2} {:>10}",
            level.concurrency,
            out.ok,
            out.failed,
            out.overloaded,
            out.jobs_per_sec,
            out.p50_ms,
            out.p99_ms,
            base.map_or_else(|| "-".to_string(), |_| format!("{speedup:.2}x")),
        );
        rows.push(format!(
            "    {{\"concurrency\": {}, \"queue_cap\": {}, \"workers\": {}, \"ok\": {}, \
             \"failed\": {}, \"overloaded\": {}, \"jobs_per_sec\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"speedup_vs_baseline\": {:.3}}}",
            level.concurrency,
            level.queue_cap,
            level.workers,
            out.ok,
            out.failed,
            out.overloaded,
            out.jobs_per_sec,
            out.p50_ms,
            out.p99_ms,
            speedup
        ));
    }

    if !smoke {
        let json = format!(
            "{{\n  \"bench\": \"serve_pool\",\n  \"baseline\": \
             \"4-worker pool, bounded queue, ABFT jobs (PR 6)\",\n  \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
        println!("wrote BENCH_serve.json");
    }
}
