//! Simulator throughput: the checked-in perf trajectory of the event loop.
//!
//! Measures host-time cost of the simnet execution core itself — machine
//! spin-up, neighbor ping-pong latency, and a full recursive-doubling
//! all-gather — plus the collective data path at p = 4096 (all-gather,
//! reduce-scatter and all-to-all on 64 rows of 64 nodes, both port
//! models, as ns and heap allocations per message) and Cannon's shift
//! phase on the same machine's 64 × 64 grid (`rows64_shift`: 63 XOR-Gray
//! steps, each node trading a 16-word block with its row and its column
//! neighbour per step), plus the failure path (`abort`: a p = 4096
//! one-port run that deadlocks after one exchange round, as µs and heap
//! allocations per failed run), and writes the
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
//! collective row, the one-port shift row and the abort row — and
//! cross-checks every case's virtual-time result against its closed form
//! (the abort row's exact list of blocked receives instead), exiting
//! non-zero on mismatch — a cheap guard that keeps the simulator and bench code
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
use cubemm_simnet::{Blocked, CostParams, Machine, PortModel, Proc, RunError, RunStats};
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
    /// One exchange round, then every node waits on a message its
    /// partner never sends: the run fails with a deadlock.
    Abort,
}

#[derive(Clone, Copy)]
struct Case {
    kind: Kind,
    p: usize,
    port: PortModel,
    /// Host threads the machine runs on (`cubemm_simnet::with_shards`).
    shards: usize,
}

impl Case {
    fn name(&self) -> String {
        match self.kind {
            Kind::Spinup => "spinup".to_string(),
            Kind::Pingpong => "pingpong".to_string(),
            Kind::Allgather => "allgather".to_string(),
            Kind::Rows(kind) => format!("rows{ROW_NODES}_{}", kind.name()),
            Kind::Shift => format!("rows{ROW_NODES}_shift"),
            Kind::Abort => "abort".to_string(),
        }
    }

    fn port_name(&self) -> &'static str {
        match self.port {
            PortModel::OnePort => "one",
            PortModel::MultiPort => "multi",
        }
    }
}

/// Boots `machine` on `shards` shards and runs `program` on every node.
fn run<O, F, Fut>(machine: &Machine, shards: usize, program: F) -> Result<RunStats, RunError>
where
    F: Fn(Proc, ()) -> Fut + Sync,
    Fut: std::future::Future<Output = O>,
    O: Send,
{
    cubemm_simnet::with_shards(shards, || {
        machine.run_sharded(|| vec![(); machine.p()], program)
    })
    .map(|out| out.stats)
}

/// The abort case's deadlock report: every node blocked on tag 1 from
/// its dimension-0 partner.
fn abort_blocked(p: usize) -> Vec<Blocked> {
    (0..p)
        .map(|node| Blocked {
            node,
            from: node ^ 1,
            tag: 1,
        })
        .collect()
}

/// Builds the case's machine and inputs, untimed, and returns the run
/// itself for the caller to time.
fn prepare(case: Case) -> Box<dyn FnOnce() -> Result<RunStats, RunError>> {
    #[allow(
        clippy::expect_used,
        reason = "bench machine shapes are fixed and valid; failure is a bench bug"
    )]
    let machine = Machine::builder(case.p)
        .cost(COST)
        .port(case.port)
        .build()
        .expect("valid bench machine");
    let (p, shards) = (case.p, case.shards);
    match case.kind {
        Kind::Spinup => {
            Box::new(move || run(&machine, shards, |proc, ()| async move { proc.id() }))
        }
        Kind::Pingpong => Box::new(move || {
            run(&machine, shards, |mut proc, ()| async move {
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
            run(&machine, shards, move |mut proc, ()| async move {
                let sc = Subcube::whole(proc.dim());
                let mine: Vec<f64> = vec![proc.id() as f64; ALLGATHER_WORDS];
                let got = allgather(&mut proc, &sc, 0, mine.into()).await;
                assert_eq!(got.len(), p);
                got[p - 1].len()
            })
        }),
        Kind::Rows(kind) => {
            let inputs = rows::inputs(kind, p, ROW_NODES, ROW_WORDS);
            Box::new(move || Ok(rows::run(&machine, kind, ROW_NODES, shards, inputs)))
        }
        Kind::Shift => {
            let inputs = rows::shift::inputs(p, ROW_WORDS);
            Box::new(move || Ok(rows::shift::run(&machine, shards, inputs)))
        }
        Kind::Abort => Box::new(move || {
            run(&machine, shards, |mut proc, ()| async move {
                let partner = proc.id() ^ 1;
                proc.exchange(partner, 0, [proc.id() as f64]).await;
                let _ = proc.recv(partner, 1).await;
            })
        }),
    }
}

/// Verifies each case's virtual time against its closed form — the
/// simulator must get faster without changing a single simulated number.
/// The abort case must fail with exactly its deadlock report.
fn verify(case: Case) -> Result<(), String> {
    let label = format!(
        "{}/p={}/{}/{} shards",
        case.name(),
        case.p,
        case.port_name(),
        case.shards
    );
    let result = prepare(case)();
    if case.kind == Kind::Abort {
        let want = RunError::Deadlock {
            blocked: abort_blocked(case.p),
        };
        return match result {
            Err(err) if err == want => Ok(()),
            _ => Err(format!(
                "{label}: did not end in the deadlock naming every node"
            )),
        };
    }
    let elapsed = result.map_err(|e| format!("{label}: {e}"))?.elapsed;
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
        Kind::Shift => rows::shift::closed_form(COST, case.port, case.p.isqrt(), ROW_WORDS),
        Kind::Abort => unreachable!("checked above"),
    };
    if elapsed != want {
        return Err(format!(
            "{label}: virtual time {elapsed} != closed form {want}"
        ));
    }
    Ok(())
}

/// One measured case: median wall seconds, messages injected (none
/// counted for a failed run), and the heap allocations of one run —
/// exact on one shard, where every node runs on the measuring thread,
/// and not reported on several, whose other threads the per-thread
/// counter does not see.
struct Measured {
    seconds: f64,
    messages: usize,
    allocations: Option<u64>,
}

fn measure(case: Case, reps: usize) -> Measured {
    let (result, allocations) = allocations_during(prepare(case)); // also the warm-up
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let job = prepare(case);
            let t = Instant::now();
            let _ = std::hint::black_box(job());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Measured {
        seconds: samples[samples.len() / 2],
        messages: result.map_or(0, |stats| stats.total_messages()),
        allocations: (case.shards == 1).then_some(allocations),
    }
}

/// A `(case, p, port, shards) -> seconds` row of a baseline file.
type BaselineRow = (String, usize, String, usize, f64);

/// Pulls the rows back out of a previously written `BENCH_simnet.json`.
/// Files written while the simulator still had a thread-per-node engine
/// tag each row with an `engine`; only their `event` rows are
/// comparable. Rows without a `port` are one-port, and rows without
/// `shards` ran on one.
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
        let shards = row.get("shards").and_then(Json::as_index).unwrap_or(1) as usize;
        Some((case, p, port, shards, row.get("seconds")?.as_f64()?))
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
        shards: 1,
    };
    let grid_case = |kind: Kind, port: PortModel| Case {
        kind,
        p: ROW_NODES * ROW_NODES,
        port,
        shards: 1,
    };
    let rows_case = |kind: RowCollective, port: PortModel| grid_case(Kind::Rows(kind), port);
    let sharded = |case: Case, shards: usize| Case { shards, ..case };
    let cases: Vec<Case> = if smoke {
        vec![
            case(Kind::Pingpong, 2),
            case(Kind::Allgather, 8),
            case(Kind::Spinup, 4096),
            // One collective and Cannon's shifts at the scale the data
            // path is tuned for.
            rows_case(RowCollective::Allgather, PortModel::MultiPort),
            grid_case(Kind::Shift, PortModel::OnePort),
            sharded(grid_case(Kind::Shift, PortModel::OnePort), 2),
            // The failure path: every node parked when the run dies.
            case(Kind::Abort, 4096),
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
        cases.push(case(Kind::Abort, 4096));
        // The same machines on two host threads, and the rows that place
        // `SHARD_MIN_NODES`: Cannon's shifts and the multi-port row
        // all-gather at p = 256, 1024 and 4096 on one and on two shards.
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            cases.push(sharded(grid_case(Kind::Shift, port), 2));
        }
        cases.push(sharded(
            rows_case(RowCollective::Allgather, PortModel::MultiPort),
            2,
        ));
        cases.push(sharded(case(Kind::Spinup, 65536), 2));
        cases.push(sharded(case(Kind::Abort, 4096), 2));
        for p in [256, 1024] {
            let shift = Case {
                p,
                ..grid_case(Kind::Shift, PortModel::OnePort)
            };
            let allgather = Case {
                p,
                ..rows_case(RowCollective::Allgather, PortModel::MultiPort)
            };
            for case in [shift, allgather] {
                cases.push(case);
                cases.push(sharded(case, 2));
            }
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
        "{:<22} {:>6} {:>6} {:>6} {:>12} {:>10} {:>11} {:>9} {:>10}",
        "case", "p", "port", "shards", "seconds", "ns/msg", "allocs/msg", "allocs", "vs base"
    );
    for &case in &cases {
        let m = measure(case, reps);
        let (name, port) = (case.name(), case.port_name());
        let base = baseline
            .iter()
            .find(|(n, p, pt, k, _)| *n == name && *p == case.p && pt == port && *k == case.shards)
            .map(|&(.., s)| s);
        let per_msg = |total: f64| (m.messages > 0).then(|| total / m.messages as f64);
        let ns_per_msg = per_msg(m.seconds * 1e9);
        let allocs_per_msg = m.allocations.and_then(|a| per_msg(a as f64));
        let allocs = m.allocations.map(|a| a as f64);
        let speedup = base.map(|b| b / m.seconds);
        println!(
            "{:<22} {:>6} {:>6} {:>6} {:>12.6} {:>10} {:>11} {:>9} {:>10}",
            name,
            case.p,
            port,
            case.shards,
            m.seconds,
            num_or(ns_per_msg, 0, "-"),
            num_or(allocs_per_msg, 2, "-"),
            num_or(allocs, 0, "-"),
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        );
        rows.push(format!(
            "    {{\"case\": \"{name}\", \"p\": {}, \"port\": \"{port}\", \"shards\": {}, \
             \"seconds\": {:.6}, \"messages\": {}, \"ns_per_msg\": {}, \"allocs_per_msg\": {}, \
             \"allocs\": {}, \"speedup_vs_baseline\": {}}}",
            case.p,
            case.shards,
            m.seconds,
            m.messages,
            num_or(ns_per_msg, 1, "null"),
            num_or(allocs_per_msg, 2, "null"),
            num_or(allocs, 0, "null"),
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
                let shards = get("shards").map_or(Ok(1), str::parse);
                if let (Ok(p), Ok(shards), Ok(secs)) = (p.parse(), shards, secs.parse()) {
                    rows.push((case.to_string(), p, port, shards, secs));
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
