//! The traced pass: the per-layer numbers of one workload.
//!
//! Nothing here feeds an end-to-end metric. The pass replays the
//! workload's inputs in-process with a span around every call into a
//! crate (where an op's time goes, layer by layer), measures each
//! layer's public functions at the workload's sizes ([`crate::layers`]),
//! and runs just enough front-door ops to say how much of a real op the
//! in-process spans do not account for (`cli.unattributed_ms`: process
//! start, argument parsing, page faults, printing).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cubemm_harness::chaos::{self, ChaosRng};
use cubemm_harness::recovery::RecoveryPolicy;

use crate::frontdoor::{self, FrontDoor, ServeChild, Until};
use crate::json::Json;
use crate::layers::{self, CampaignTotals, Metrics, MixTime, Traffic};
use crate::replay::{self, Replayed};
use crate::report::PassResult;
use crate::span::{self, Tracer};
use crate::stats;
use crate::workloads::{self, CliOp, OpSpec, ServeDraw, Workload};

/// What replaying a workload's ops with spans established.
#[derive(Default)]
struct Replay {
    /// Median in-process wall of an op of each kind, milliseconds.
    op_ms: BTreeMap<String, f64>,
    /// Median duration of each span name under an op of each kind.
    span_ms: BTreeMap<String, BTreeMap<&'static str, f64>>,
    /// Smallest share of an op's span that its child spans cover.
    min_coverage: f64,
    traffic: Traffic,
    campaigns: CampaignTotals,
    /// Wall seconds of each replayed op with spans on, and of the same
    /// op replayed with spans off.
    on_off_s: Vec<(f64, f64)>,
    /// Whole replays of the op list made with spans on.
    reps: usize,
}

impl Replay {
    /// Median over ops of (time with spans on ÷ time with spans off) − 1.
    /// Pairing op with op gives a dozen samples per replay where whole
    /// replays would give one.
    fn trace_overhead_frac(&self) -> f64 {
        median_of(self.on_off_s.iter().map(|(on, off)| on / off).collect()) - 1.0
    }
}

fn median_of(mut v: Vec<f64>) -> f64 {
    stats::median(&mut v).unwrap_or(f64::NAN)
}

/// Folds the recorded spans into per-kind medians. `kind_of[op]` names
/// the kind of operation id `op`.
fn summarize(tracer: &Tracer, kind_of: &[String], into: &mut Replay) {
    let mut roots: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut kids: BTreeMap<String, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    into.min_coverage = f64::INFINITY;
    for breakdown in span::op_breakdowns(tracer.spans()) {
        let Some(kind) = kind_of.get(breakdown.op as usize) else {
            continue;
        };
        let (root_ns, children) = (breakdown.root_ns, breakdown.children);
        roots
            .entry(kind.clone())
            .or_default()
            .push(root_ns as f64 / 1e6);
        let covered: u64 = children.iter().map(|(_, ns)| ns).sum();
        into.min_coverage = into
            .min_coverage
            .min(covered as f64 / root_ns.max(1) as f64);
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, ns) in children {
            *by_name.entry(name).or_default() += ns as f64 / 1e6;
        }
        for (name, ms) in by_name {
            kids.entry(kind.clone())
                .or_default()
                .entry(name)
                .or_default()
                .push(ms);
        }
    }
    into.op_ms = roots.into_iter().map(|(k, v)| (k, median_of(v))).collect();
    into.span_ms = kids
        .into_iter()
        .map(|(k, names)| {
            (
                k,
                names.into_iter().map(|(n, v)| (n, median_of(v))).collect(),
            )
        })
        .collect();
}

/// Replays one cycle of a CLI workload, alternating spans on and off
/// until `budget` is spent (one of each at least).
fn replay_cli(
    workload: Workload,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Replay {
    let ops = workloads::canonical_cycle(workload, seed, 0);
    let mut out = Replay::default();
    let mut kind_of = Vec::new();
    let mut off = Tracer::new(false);
    let start = Instant::now();
    for rep in 0.. {
        let first_pair = out.on_off_s.len();
        for op in &ops {
            tracer.set_op(kind_of.len() as u32);
            kind_of.push(op.kind.clone());
            let span_start = tracer.spans().len();
            let t = Instant::now();
            let replayed = replay::replay_op(tracer, &op.spec);
            out.on_off_s.push((t.elapsed().as_secs_f64(), f64::NAN));
            match replayed {
                Err(why) => failures.push(format!("replay {}: {why}", op.kind)),
                Ok(_) if rep > 0 => {}
                Ok(Replayed::Run(run)) => out.traffic.add(&run.stats),
                Ok(Replayed::Chaos(report)) => {
                    let campaign_s = tracer.spans()[span_start..]
                        .iter()
                        .find(|s| s.name == "harness.campaign")
                        .map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
                    out.campaigns.add(&report, campaign_s);
                }
                Ok(Replayed::Certify) => {}
            }
        }
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            if let Err(why) = replay::replay_op(&mut off, &op.spec) {
                failures.push(format!("replay {}: {why}", op.kind));
            }
            out.on_off_s[first_pair + i].1 = t.elapsed().as_secs_f64();
        }
        out.reps = rep + 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    summarize(tracer, &kind_of, &mut out);
    out
}

/// Replays the first `jobs` serve jobs of the seed's draw, each once
/// with spans on and once with spans off; every eighth job is also held
/// against the real executor.
fn replay_serve(seed: u64, jobs: u64, tracer: &mut Tracer, failures: &mut Vec<String>) -> Replay {
    let mut draw = ServeDraw::new(seed);
    let lines: Vec<String> = (0..jobs).map(|_| draw.next_line()).collect();
    let mut out = Replay::default();
    let mut off = Tracer::new(false);
    let kind_of = vec!["job".to_string(); lines.len()];
    for (i, line) in lines.iter().enumerate() {
        tracer.set_op(i as u32);
        let timed = |tr: &mut Tracer| {
            let t = Instant::now();
            let replayed = replay::replay_job(tr, line);
            (replayed, t.elapsed().as_secs_f64())
        };
        // Whichever replay of a job goes second finds its operands and
        // code warm, so the order alternates from job to job.
        let ((replayed, on), off_s) = if i % 2 == 0 {
            let first = timed(tracer);
            (first, timed(&mut off).1)
        } else {
            let off_s = timed(&mut off).1;
            (timed(tracer), off_s)
        };
        out.on_off_s.push((on, off_s));
        match replayed {
            Ok(job) => out.traffic.add(&job.stats),
            Err(why) => failures.push(format!("replay j{i}: {why}")),
        }
    }
    out.reps = 1;
    for (i, line) in lines.iter().enumerate().step_by(8) {
        if let Err(why) = replay::replay_job_checked(&mut off, line) {
            failures.push(format!("replay j{i}: {why}"));
        }
    }
    summarize(tracer, &kind_of, &mut out);
    out
}

/// Protected multiplies under seeded fault plans on each algorithm's
/// probe machine — the traffic a chaos campaign generates, taken through
/// the public trial API because a campaign report carries no traffic
/// statistics. Gives `chaos_certify` its exact fault counters.
fn fault_trials(seed: u64, traffic: &mut Traffic, failures: &mut Vec<String>) {
    const TRIALS_PER_ALGO: u64 = 8;
    let (a, b) = (chaos::ints(6, 1), chaos::ints(6, 2));
    let policy = RecoveryPolicy::default();
    for op in workloads::canonical_cycle(Workload::ChaosCertify, seed, 0) {
        let OpSpec::Chaos { algo, seed } = op.spec else {
            continue;
        };
        let which: cubemm_core::Algorithm = match algo.parse() {
            Ok(a) => a,
            Err(why) => {
                failures.push(format!("fault trials {algo}: {why}"));
                continue;
            }
        };
        let p = match chaos::probe(which, 6) {
            Ok(probe) => probe.p,
            Err(why) => {
                failures.push(format!("fault trials {algo}: {why}"));
                continue;
            }
        };
        let mut rng = ChaosRng::new(seed);
        for _ in 0..TRIALS_PER_ALGO {
            let plan = chaos::random_soak_plan(&mut rng, p);
            if let Ok((res, _)) = chaos::run_trial(which, &a, &b, p, &plan, &policy) {
                traffic.add(&res.stats);
            }
        }
    }
}

/// Times each distinct CLI op once at the front door and returns
/// per-kind milliseconds.
fn front_door_ops(
    fd: &FrontDoor,
    ops: &[CliOp],
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> BTreeMap<String, f64> {
    let mut wall = BTreeMap::new();
    for op in ops {
        let res = fd.run_cli(&op.args);
        *attempted += 1;
        if let Err(why) = frontdoor::check_cli(op, &res) {
            failures.push(format!("front door {}: {why}", op.kind));
        }
        wall.insert(op.kind.clone(), res.wall.as_secs_f64() * 1e3);
    }
    wall
}

struct PipeRun {
    jobs_per_s: f64,
    p50_ms: f64,
}

/// `jobs` jobs of the seed's draw through a real `cubemm serve` child.
fn front_door_serve(
    fd: &FrontDoor,
    seed: u64,
    jobs: u64,
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> Option<PipeRun> {
    let mut child = match ServeChild::spawn(fd) {
        Ok(c) => c,
        Err(why) => {
            failures.push(why);
            return None;
        }
    };
    // Warm-up jobs come from another stream so the measured jobs are
    // exactly the ones the in-process pool gets.
    child.pump(
        &mut ServeDraw::new(seed ^ 0x5eed),
        Until::jobs(frontdoor::SERVE_WARMUP_JOBS),
    );
    let mut pumped = child.pump(&mut ServeDraw::new(seed), Until::jobs(jobs));
    *attempted += pumped.sent;
    failures.append(&mut pumped.failures);
    if let Err(why) = child.finish() {
        failures.push(why);
    }
    pumped.latencies_ms.sort_by(f64::total_cmp);
    Some(PipeRun {
        jobs_per_s: pumped.latencies_ms.len() as f64 / pumped.wall_s,
        p50_ms: stats::percentile(&pumped.latencies_ms, 0.5)?,
    })
}

const SERVE_MIX: [(&str, &str); 3] = [("cannon", "one"), ("simple", "one"), ("cannon", "multi")];
const CHAOS_MIX: [(&str, &str); 3] = [("cannon", "one"), ("dns", "one"), ("3dd", "one")];

pub fn traced_pass(
    fd: &FrontDoor,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> (PassResult, Tracer) {
    let shape = workload.shape();
    // Each timed measurement gets a hundredth of the run.
    let budget = Duration::from_secs_f64(seconds / 100.0);
    let replay_budget = Duration::from_secs_f64(seconds / 6.0);
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut tracer = Tracer::new(true);
    // Where the pass itself spends its wall time, for the result file.
    let mut phases: Vec<(String, Json)> = Vec::new();
    let mut phase_start = Instant::now();
    let mut phase_done = |name: &str| {
        phases.push((
            name.to_string(),
            Json::Num(phase_start.elapsed().as_secs_f64()),
        ));
        phase_start = Instant::now();
    };

    // Jobs through the pool and the pipe: a few seconds' worth on the
    // serve workload, a token stream elsewhere.
    let pipe_jobs = (seconds
        * match workload {
            Workload::ServeMix => 300.0,
            _ => 100.0,
        }) as u64;

    let mut replayed = match workload {
        Workload::ServeMix => replay_serve(seed, pipe_jobs / 2, &mut tracer, &mut failures),
        _ => replay_cli(workload, seed, replay_budget, &mut tracer, &mut failures),
    };
    let mut traffic = replayed.traffic;
    if workload == Workload::ChaosCertify {
        fault_trials(seed, &mut traffic, &mut failures);
    }
    attempted += replayed.op_ms.len() as u64;
    phase_done("replay");

    let front = match workload {
        Workload::ServeMix => BTreeMap::new(),
        _ => front_door_ops(
            fd,
            &workloads::canonical_cycle(workload, seed, 0),
            &mut attempted,
            &mut failures,
        ),
    };
    let pipe = front_door_serve(fd, seed, pipe_jobs, &mut attempted, &mut failures);
    phase_done("front_door");

    let stream_bytes = layers::dense(&mut m, shape, budget);
    phase_done("dense");
    layers::simnet(&mut m, shape, budget);
    layers::put_traffic(&mut m, &traffic);
    phase_done("simnet");
    layers::collectives(&mut m, shape, budget);
    phase_done("collectives");

    let mix: Vec<MixTime> = match workload {
        Workload::RunCompute | Workload::RunComm => workloads::canonical_cycle(workload, seed, 0)
            .iter()
            .filter_map(|op| match op.spec {
                OpSpec::Run { algo, port, .. } => Some(MixTime {
                    algo,
                    port,
                    seconds: replayed.span_ms.get(&op.kind)?.get("core.multiply")? / 1e3,
                }),
                _ => None,
            })
            .collect(),
        Workload::ServeMix => layers::time_mix(&SERVE_MIX, shape.n, shape.p, budget),
        Workload::ChaosCertify => layers::time_mix(&CHAOS_MIX, shape.n, shape.p, budget),
    };
    layers::core(&mut m, shape, &mix, budget);
    layers::model(&mut m, shape, budget);
    let (issued, ok) = layers::analyze(&mut m, budget);
    if ok != issued {
        failures.push(format!("only {ok}/{issued} symbolic certificates hold"));
    }
    let campaigns = layers::harness(
        &mut m,
        shape,
        seed,
        std::mem::take(&mut replayed.campaigns),
        budget,
    );
    if campaigns.violations > 0 {
        failures.push(format!(
            "{} chaos oracle violation(s)",
            campaigns.violations
        ));
    }
    phase_done("core_model_analyze_harness");
    let pool = layers::pool_closed_loop(&mut m, seed, pipe_jobs);
    if pool.not_ok > 0 {
        failures.push(format!("{} pool job(s) not answered ok", pool.not_ok));
    }
    layers::serve(&mut m, shape, seed, &pool, budget);
    phase_done("serve");

    let spawn_ms = layers::time_it(budget, || {
        let res = fd.run_cli(&["list".into(), "64".into(), "64".into()]);
        if res.code != Some(0) {
            eprintln!("warning: `cubemm list 64 64` exited {:?}", res.code);
        }
    }) * 1e3;
    m.put("cli.spawn_ms", spawn_ms, "ms");
    // Front-door latency of an op minus the in-process span of the same
    // op: what no in-process span can see.
    let unattributed = match (&pipe, workload) {
        (Some(pipe), Workload::ServeMix) => pipe.p50_ms - pool.p50_ms,
        _ => {
            let gaps: Vec<f64> = front
                .iter()
                .filter_map(|(kind, ms)| Some(ms - replayed.op_ms.get(kind)?))
                .collect();
            gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
        }
    };
    m.put("cli.unattributed_ms", unattributed, "ms");
    m.put(
        "cli.pipe_overhead_frac",
        pipe.as_ref()
            .map_or(f64::NAN, |pipe| 1.0 - pipe.jobs_per_s / pool.jobs_per_s),
        "ratio",
    );
    m.put(
        "bench.trace_overhead_frac",
        replayed.trace_overhead_frac(),
        "ratio",
    );

    let per_kind = |f: &dyn Fn(&String) -> Json| {
        Json::Obj(replayed.op_ms.keys().map(|k| (k.clone(), f(k))).collect())
    };
    let extras = vec![
        (
            "in_process_op_ms".to_string(),
            per_kind(&|k| Json::Num(replayed.op_ms[k])),
        ),
        (
            "in_process_span_ms".to_string(),
            per_kind(&|k| {
                Json::Obj(
                    replayed.span_ms[k]
                        .iter()
                        .map(|(n, ms)| (n.to_string(), Json::Num(*ms)))
                        .collect(),
                )
            }),
        ),
        (
            "front_door_op_ms".to_string(),
            Json::Obj(
                front
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "span_coverage_min".to_string(),
            Json::Num(replayed.min_coverage),
        ),
        (
            "core.multiply_ms_by_algo".to_string(),
            Json::Obj(
                mix.iter()
                    .map(|t| (format!("{}/{}", t.algo, t.port), Json::Num(t.seconds * 1e3)))
                    .collect(),
            ),
        ),
        (
            "replays_traced".to_string(),
            Json::Num(replayed.reps as f64),
        ),
        ("pass_phase_s".to_string(), Json::Obj(phases)),
        (
            "stream_array_bytes".to_string(),
            Json::Num(stream_bytes as f64),
        ),
    ];
    let result = PassResult {
        workload: workload.name(),
        traced: true,
        seed,
        seconds,
        metrics: m,
        extras,
        attempted: attempted.max(1),
        failures,
    };
    (result, tracer)
}
