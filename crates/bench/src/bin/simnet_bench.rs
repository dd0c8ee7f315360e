//! Simulator throughput: the checked-in perf trajectory of the event loop.
//!
//! Measures host-time cost of the simnet execution core itself — machine
//! spin-up, neighbor ping-pong latency, and a full recursive-doubling
//! all-gather — plus the collective data path at p = 4096 (all-gather,
//! reduce-scatter and all-to-all on 64 rows of 64 nodes, both port
//! models, as ns and heap allocations per message) and Cannon's shift
//! phase on the same machine's 64 × 64 grid (`rows64_shift`: 63 XOR-Gray
//! steps, each node trading a 16-word block with its row and its column
//! neighbour per step), and writes the
//! results as `BENCH_simnet.json` in the working directory, mirroring
//! the `BENCH_kernels.json` format (host cores, ISA and cache sizes in
//! the header).
//!
//! ```text
//! cargo run --release -p cubemm-bench --bin simnet_bench              # full run
//! cargo run --release -p cubemm-bench --bin simnet_bench -- --smoke   # CI smoke
//! cargo run --release -p cubemm-bench --bin simnet_bench -- \
//!     --baseline OLD.json                                             # + speedups
//! ```
//!
//! `--smoke` runs the small sizes only — plus a p = 4096 spin-up, one
//! collective row and the one-port shift row — and cross-checks every
//! case's virtual-time result against its closed form, exiting non-zero
//! on mismatch — a cheap guard that keeps the simulator and bench code
//! from bit-rotting. The full run performs the same verification before
//! timing anything, and includes spin-up points at p = 4096 and
//! p = 65536. A `--baseline FILE` reads a previously written
//! `BENCH_simnet.json` and emits a `speedup_vs_baseline` column, the
//! before/after evidence for simulator changes; a case with no baseline
//! row reports `null`, not zero.

use std::time::Instant;

use cubemm_bench::alloc_count::{allocations_during, CountingAlloc};
use cubemm_bench::rows::{self, RowCollective};
use cubemm_collectives::allgather;
use cubemm_simnet::json::Json;
use cubemm_simnet::{CostParams, Machine, PortModel, Proc, RunStats};
use cubemm_topology::Subcube;

/// Counts allocations so the collective rows can report them per
/// message next to the time.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

/// Ping-pong rounds per run: enough that per-message cost dominates the
/// two-node spin-up.
const PINGPONG_ROUNDS: usize = 512;

/// Words per all-gather contribution.
const ALLGATHER_WORDS: usize = 64;

/// The row collectives run as `run_comm` uses them: 64-node rows (64 of
/// them at p = 4096), 16-word blocks.
const ROW_NODES: usize = 64;
const ROW_WORDS: usize = 16;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Machine spin-up and tear-down with no communication.
    Spinup,
    /// Two nodes volleying a 4-word message `PINGPONG_ROUNDS` times.
    Pingpong,
    /// Full-cube recursive-doubling all-gather of `ALLGATHER_WORDS`-word
    /// contributions.
    Allgather,
    /// One collective on every `ROW_NODES`-node row at once.
    Rows(RowCollective),
    /// Cannon's shift phase on the `ROW_NODES × ROW_NODES` grid.
    Shift,
}

#[derive(Clone, Copy)]
struct Case {
    kind: Kind,
    p: usize,
    port: PortModel,
}

impl Case {
    fn name(&self) -> String {
        match self.kind {
            Kind::Spinup => "spinup".to_string(),
            Kind::Pingpong => "pingpong".to_string(),
            Kind::Allgather => "allgather".to_string(),
            Kind::Rows(kind) => format!("rows{ROW_NODES}_{}", kind.name()),
            Kind::Shift => format!("rows{ROW_NODES}_shift"),
        }
    }

    fn port_name(&self) -> &'static str {
        match self.port {
            PortModel::OnePort => "one",
            PortModel::MultiPort => "multi",
        }
    }
}

/// Boots `machine` and runs `program` on every node.
fn run<O, F, Fut>(machine: &Machine, program: F) -> RunStats
where
    F: Fn(Proc, ()) -> Fut,
    Fut: std::future::Future<Output = O>,
{
    #[allow(
        clippy::expect_used,
        reason = "bench programs are healthy by construction; failure is a bench bug"
    )]
    machine
        .run(vec![(); machine.p()], program)
        .expect("healthy bench run")
        .stats
}

/// Builds the case's machine and inputs, untimed, and returns the run
/// itself for the caller to time.
fn prepare(case: Case) -> Box<dyn FnOnce() -> RunStats> {
    #[allow(
        clippy::expect_used,
        reason = "bench machine shapes are fixed and valid; failure is a bench bug"
    )]
    let machine = Machine::builder(case.p)
        .cost(COST)
        .port(case.port)
        .build()
        .expect("valid bench machine");
    let p = case.p;
    match case.kind {
        Kind::Spinup => Box::new(move || run(&machine, |proc, ()| async move { proc.id() })),
        Kind::Pingpong => Box::new(move || {
            run(&machine, |mut proc, ()| async move {
                let msg = vec![proc.id() as f64; 4];
                for r in 0..PINGPONG_ROUNDS as u64 {
                    if proc.id() == 0 {
                        proc.send(1, r, msg.clone());
                        let _ = proc.recv(1, r).await;
                    } else {
                        let got = proc.recv(0, r).await;
                        proc.send(0, r, got);
                    }
                }
            })
        }),
        Kind::Allgather => Box::new(move || {
            run(&machine, move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let mine: Vec<f64> = vec![proc.id() as f64; ALLGATHER_WORDS];
                let got = allgather(&mut proc, &sc, 0, mine.into()).await;
                assert_eq!(got.len(), p);
                got[p - 1].len()
            })
        }),
        Kind::Rows(kind) => {
            let inputs = rows::inputs(kind, p, ROW_NODES, ROW_WORDS);
            Box::new(move || rows::run(&machine, kind, ROW_NODES, inputs))
        }
        Kind::Shift => {
            let inputs = rows::shift::inputs(p, ROW_WORDS);
            Box::new(move || rows::shift::run(&machine, inputs))
        }
    }
}

/// Verifies each case's virtual time against its closed form — the
/// simulator must get faster without changing a single simulated number.
fn verify(case: Case) -> Result<(), String> {
    let elapsed = prepare(case)().elapsed;
    let want = match case.kind {
        Kind::Spinup => 0.0,
        // Each volley is two serialized 4-word hops.
        Kind::Pingpong => PINGPONG_ROUNDS as f64 * 2.0 * (COST.ts + COST.tw * 4.0),
        // Table 1, one-port: ts·log p + tw·(p−1)·M.
        Kind::Allgather => {
            COST.ts * f64::from(case.p.trailing_zeros())
                + COST.tw * ((case.p - 1) * ALLGATHER_WORDS) as f64
        }
        Kind::Rows(kind) => kind.closed_form(COST, case.port, ROW_NODES, ROW_WORDS),
        Kind::Shift => rows::shift::closed_form(COST, case.port, ROW_NODES, ROW_WORDS),
    };
    if elapsed != want {
        return Err(format!(
            "{}/p={}/{}: virtual time {elapsed} != closed form {want}",
            case.name(),
            case.p,
            case.port_name()
        ));
    }
    Ok(())
}

/// One measured case: median wall seconds, messages injected, and the
/// heap allocations of one run (exact: every node runs on the measuring
/// thread).
struct Measured {
    seconds: f64,
    messages: usize,
    allocations: u64,
}

fn measure(case: Case, reps: usize) -> Measured {
    let (stats, allocations) = allocations_during(prepare(case)); // also the warm-up
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let job = prepare(case);
            let t = Instant::now();
            std::hint::black_box(job());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Measured {
        seconds: samples[samples.len() / 2],
        messages: stats.total_messages(),
        allocations,
    }
}

/// A `(case, p, port) -> seconds` row of a baseline file.
type BaselineRow = (String, usize, String, f64);

/// Pulls the rows back out of a previously written `BENCH_simnet.json`.
/// Files written while the simulator still had a thread-per-node engine
/// tag each row with an `engine`; only their `event` rows are
/// comparable. Rows without a `port` are one-port.
fn parse_baseline(text: &str) -> Result<Vec<BaselineRow>, String> {
    let rows = cubemm_bench::baseline_results(text)?;
    let row = |row: &Json| {
        let text = |key| row.get(key).and_then(Json::as_str);
        if text("engine").is_some_and(|engine| engine != "event") {
            return None;
        }
        let case = text("case")?.to_string();
        let p = row.get("p")?.as_index()? as usize;
        let port = text("port").unwrap_or("one").to_string();
        Some((case, p, port, row.get("seconds")?.as_f64()?))
    };
    Ok(rows.iter().filter_map(row).collect())
}

/// `x` to `digits` decimals, or `absent` when there is nothing to
/// report (no baseline row, no messages).
fn num_or(x: Option<f64>, digits: usize, absent: &str) -> String {
    x.map_or_else(|| absent.to_string(), |x| format!("{x:.digits$}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1));
    let baseline: Vec<BaselineRow> = baseline_path
        .map(|path| {
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_baseline(&text))
            {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("error: cannot read baseline {path}: {e}");
                    std::process::exit(1);
                }
            }
        })
        .unwrap_or_default();

    let case = |kind: Kind, p: usize| Case {
        kind,
        p,
        port: PortModel::OnePort,
    };
    let grid_case = |kind: Kind, port: PortModel| Case {
        kind,
        p: ROW_NODES * ROW_NODES,
        port,
    };
    let rows_case = |kind: RowCollective, port: PortModel| grid_case(Kind::Rows(kind), port);
    let cases: Vec<Case> = if smoke {
        vec![
            case(Kind::Pingpong, 2),
            case(Kind::Allgather, 8),
            case(Kind::Spinup, 4096),
            // One collective and Cannon's shifts at the scale the data
            // path is tuned for.
            rows_case(RowCollective::Allgather, PortModel::MultiPort),
            grid_case(Kind::Shift, PortModel::OnePort),
        ]
    } else {
        let mut cases = vec![
            case(Kind::Spinup, 256),
            case(Kind::Pingpong, 2),
            case(Kind::Allgather, 8),
            case(Kind::Allgather, 64),
            case(Kind::Allgather, 256),
            case(Kind::Spinup, 4096),
            case(Kind::Spinup, 65536),
        ];
        // The collective data path at p = 4096: 64 rows of 64 nodes.
        for kind in [
            RowCollective::Allgather,
            RowCollective::ReduceScatter,
            RowCollective::Alltoall,
        ] {
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                cases.push(rows_case(kind, port));
            }
        }
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            cases.push(grid_case(Kind::Shift, port));
        }
        cases
    };

    // Correctness first: a fast simulator that produces wrong times is
    // worse than a slow one.
    for &case in &cases {
        if let Err(e) = verify(case) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!("all cases verified against closed-form virtual times");

    let reps = if smoke { 3 } else { 9 };
    let mut rows: Vec<String> = Vec::new();
    println!(
        "{:<22} {:>6} {:>6} {:>12} {:>10} {:>11} {:>10}",
        "case", "p", "port", "seconds", "ns/msg", "allocs/msg", "vs base"
    );
    for &case in &cases {
        let m = measure(case, reps);
        let (name, port) = (case.name(), case.port_name());
        let base = baseline
            .iter()
            .find(|(n, p, pt, _)| *n == name && *p == case.p && pt == port)
            .map(|&(.., s)| s);
        let per_msg = |total: f64| (m.messages > 0).then(|| total / m.messages as f64);
        let ns_per_msg = per_msg(m.seconds * 1e9);
        let allocs_per_msg = per_msg(m.allocations as f64);
        let speedup = base.map(|b| b / m.seconds);
        println!(
            "{:<22} {:>6} {:>6} {:>12.6} {:>10} {:>11} {:>10}",
            name,
            case.p,
            port,
            m.seconds,
            num_or(ns_per_msg, 0, "-"),
            num_or(allocs_per_msg, 2, "-"),
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        );
        rows.push(format!(
            "    {{\"case\": \"{name}\", \"p\": {}, \"port\": \"{port}\", \
             \"seconds\": {:.6}, \"messages\": {}, \"ns_per_msg\": {}, \"allocs_per_msg\": {}, \
             \"speedup_vs_baseline\": {}}}",
            case.p,
            m.seconds,
            m.messages,
            num_or(ns_per_msg, 1, "null"),
            num_or(allocs_per_msg, 2, "null"),
            num_or(speedup, 3, "null"),
        ));
    }

    if !smoke {
        let json = format!(
            "{{\n  \"bench\": \"simnet\",\n  \"baseline\": \"{}\",\n{}  \"results\": [\n{}\n  ]\n}}\n",
            // The file the speedups are against, by name: say in the
            // name which commit and host it was measured on.
            baseline_path
                .and_then(|path| std::path::Path::new(path).file_name())
                .map_or("none".into(), |name| name.to_string_lossy()),
            cubemm_bench::host_header(),
            rows.join(",\n")
        );
        #[allow(
            clippy::expect_used,
            reason = "a bench that cannot write its result file has nothing else to do"
        )]
        std::fs::write("BENCH_simnet.json", &json).expect("write BENCH_simnet.json");
        println!("wrote BENCH_simnet.json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line scanner this bench read baselines with before it used
    /// the workspace's JSON parser: the oracle for the committed file.
    fn line_scan(text: &str) -> Vec<BaselineRow> {
        let mut rows = Vec::new();
        for line in text.lines() {
            let get = |key: &str| -> Option<&str> {
                let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
                let rest = line[at..].trim_start();
                let rest = rest.strip_prefix('"').unwrap_or(rest);
                let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
                Some(rest[..end].trim())
            };
            if get("engine").is_some_and(|engine| engine != "event") {
                continue;
            }
            if let (Some(case), Some(p), Some(secs)) = (get("case"), get("p"), get("seconds")) {
                let port = get("port").unwrap_or("one").to_string();
                if let (Ok(p), Ok(secs)) = (p.parse(), secs.parse()) {
                    rows.push((case.to_string(), p, port, secs));
                }
            }
        }
        rows
    }

    #[test]
    fn the_committed_baseline_reads_as_it_always_did() {
        let text = include_str!("../../../../BENCH_simnet.json");
        let rows = parse_baseline(text).expect("committed baseline parses");
        assert!(!rows.is_empty());
        assert_eq!(rows, line_scan(text));
    }
}
