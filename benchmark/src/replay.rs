//! In-process replay of the front door's inputs.
//!
//! Two jobs. After a front-door pass, the same `(algo, n, p, port,
//! seed)` points and sampled serve jobs are recomputed here and must
//! agree with what the child processes printed. In the traced pass, each
//! op is replayed call by call — the same public functions, in the same
//! order, as `cubemm run` / `chaos` / `analyze --symbolic` and the serve
//! executor make — with a span around every call, which is where the
//! per-layer attribution of an op comes from.

use cubemm_core::prelude::*;
use cubemm_dense::gemm;
use cubemm_harness::chaos::{run_campaign, CampaignReport, ChaosOptions};
use cubemm_harness::recovery::{multiply_with_recovery_tol, RecoveryPolicy};
use cubemm_serve::AlgoChoice;
use cubemm_simnet::{CostParams, PortModel, RunStats};

use crate::span::Tracer;
use crate::workloads::OpSpec;

pub fn port_of(name: &str) -> PortModel {
    if name == "multi" {
        PortModel::MultiPort
    } else {
        PortModel::OnePort
    }
}

/// The machine `cubemm run --port PORT` builds when given no other flag.
pub fn run_config(port: PortModel) -> MachineConfig {
    MachineConfig::builder()
        .port(port)
        .costs(CostParams::PAPER)
        .kernel(Kernel::default())
        .build()
}

pub struct ReplayedRun {
    /// `fingerprint elapsed`, exactly as [`crate::frontdoor::check_cli`]
    /// extracts it from the CLI's output.
    pub observed: String,
    pub stats: RunStats,
}

/// `cubemm run --algo A --n N --p P --port PORT --seed S`, call by call.
pub fn replay_run(
    tr: &mut Tracer,
    algo: &str,
    n: usize,
    p: usize,
    port: &str,
    seed: u64,
) -> Result<ReplayedRun, String> {
    tr.span("op.run", |tr| {
        let algo: Algorithm = algo.parse()?;
        let cfg = run_config(port_of(port));
        let (a, b) = tr.span("dense.random", |_| {
            (Matrix::random(n, n, seed), Matrix::random(n, n, seed + 1))
        });
        tr.span("core.check", |_| algo.check(n, p))
            .map_err(|e| e.to_string())?;
        let res = tr
            .span("core.multiply", |_| algo.multiply(&a, &b, p, &cfg))
            .map_err(|e| e.to_string())?;
        let reference = tr.span("dense.reference", |_| gemm::reference(&a, &b));
        let err = tr.span("dense.max_abs_diff", |_| res.c.max_abs_diff(&reference));
        let fingerprint = tr.span("serve.fingerprint", |_| {
            cubemm_serve::fingerprint_hex(&res.c)
        });
        if err.is_nan() || err > 1e-9 * n as f64 {
            return Err(format!("replay verification failed: max |Δ| = {err:e}"));
        }
        let observed = tr.span("cli.format", |_| {
            format!("{fingerprint} {:.1}", res.stats.elapsed)
        });
        Ok(ReplayedRun {
            observed,
            stats: res.stats,
        })
    })
}

/// `cubemm chaos ALGO --seed S`: one default campaign and its rendered
/// report (the CLI prints the report followed by one summary line).
pub fn replay_chaos(tr: &mut Tracer, algo: &str, seed: u64) -> Result<CampaignReport, String> {
    tr.span("op.chaos", |tr| {
        let algo: Algorithm = algo.parse()?;
        let report = tr.span("harness.campaign", |_| {
            run_campaign(algo, seed, &ChaosOptions::default())
        })?;
        let rendered = tr.span("harness.render", |_| report.render());
        if !report.violations.is_empty() || !rendered.contains(" 0 violations") {
            return Err(format!(
                "campaign reported {} violation(s)",
                report.violations.len()
            ));
        }
        Ok(report)
    })
}

/// `cubemm analyze all --symbolic`: returns how many certificates hold
/// and how many were issued.
pub fn replay_certify(tr: &mut Tracer) -> (usize, usize) {
    tr.span("op.certify", |tr| {
        let colls = tr.span("analyze.certify_collectives", |_| {
            cubemm_analyze::certify_all_collectives()
        });
        let algos = tr.span("analyze.certify_algorithms", |_| {
            cubemm_analyze::certify_all_algorithms()
        });
        tr.span("cli.format", |_| {
            let text: String = colls
                .iter()
                .map(|c| c.to_string())
                .chain(algos.iter().map(|c| c.to_string()))
                .collect();
            std::hint::black_box(text.len());
        });
        let ok = colls.iter().filter(|c| c.ok()).count() + algos.iter().filter(|c| c.ok()).count();
        (ok, colls.len() + algos.len())
    })
}

/// Replays one CLI op of any kind, discarding what only the traced pass
/// needs.
pub fn replay_op(tr: &mut Tracer, spec: &OpSpec) -> Result<Replayed, String> {
    match spec {
        OpSpec::Run {
            algo,
            n,
            p,
            port,
            seed,
        } => replay_run(tr, algo, *n, *p, port, *seed).map(Replayed::Run),
        OpSpec::Chaos { algo, seed } => replay_chaos(tr, algo, *seed).map(Replayed::Chaos),
        OpSpec::Certify => match replay_certify(tr) {
            (ok, total) if ok == total => Ok(Replayed::Certify),
            (ok, total) => Err(format!("only {ok}/{total} certificates hold")),
        },
    }
}

pub enum Replayed {
    Run(ReplayedRun),
    Chaos(CampaignReport),
    Certify,
}

/// What replaying one serve job yields: the product's fingerprint and
/// the traffic statistics of its (final) run.
pub struct ReplayedJob {
    pub fingerprint: String,
    pub stats: RunStats,
}

/// One serve job, call by call: the work `cubemm_serve::execute` does
/// for a fault-free job without a deadline, spelled out so each step
/// gets a span. It reads only the request fields the wire protocol
/// documents, and stops at the fingerprint — building the response is
/// the executor's business; [`replay_job_checked`] holds the two
/// together.
pub fn replay_job(tr: &mut Tracer, line: &str) -> Result<ReplayedJob, String> {
    tr.span("op.job", |tr| {
        let req = tr
            .span("serve.parse", |_| cubemm_serve::parse_request(line))
            .map_err(|(_, why)| why)?;
        let algo = match req.algo {
            AlgoChoice::Named(algo) => algo,
            AlgoChoice::Auto => tr
                .span("model.resolve_auto", |_| cubemm_serve::resolve_auto(&req))
                .ok_or("no algorithm accepts the job's shape")?,
        };
        let cfg = MachineConfig::builder()
            .port(req.port)
            .costs(CostParams {
                ts: req.ts,
                tw: req.tw,
            })
            .build();
        let (a, b) = tr.span("dense.random", |_| {
            (
                Matrix::random(req.n, req.n, req.seed),
                Matrix::random(req.n, req.n, req.seed.wrapping_add(1)),
            )
        });
        let (c, stats) = if req.abft {
            let policy = RecoveryPolicy {
                max_attempts: req.attempts,
                ..RecoveryPolicy::default()
            };
            let (res, _) = tr
                .span("harness.recovery_multiply", |_| {
                    multiply_with_recovery_tol(algo, &a, &b, req.p, &cfg, &policy, None)
                })
                .map_err(|e| e.to_string())?;
            (res.c, res.stats)
        } else {
            tr.span("core.check", |_| algo.check(req.n, req.p))
                .map_err(|e| e.to_string())?;
            let res = tr
                .span("core.multiply", |_| algo.multiply(&a, &b, req.p, &cfg))
                .map_err(|e| e.to_string())?;
            let reference = tr.span("dense.reference", |_| gemm::reference(&a, &b));
            let err = tr.span("dense.max_abs_diff", |_| res.c.max_abs_diff(&reference));
            if err.is_nan() || err > 1e-9 * req.n as f64 {
                return Err(format!("verification failed: max |Δ| = {err:e}"));
            }
            (res.c, res.stats)
        };
        let fingerprint = tr.span("serve.fingerprint", |_| cubemm_serve::fingerprint_hex(&c));
        Ok(ReplayedJob { fingerprint, stats })
    })
}

/// What the real executor answers for `line`.
pub fn execute_job(line: &str) -> Result<String, String> {
    let req = cubemm_serve::parse_request(line).map_err(|(_, why)| why)?;
    Ok(cubemm_serve::execute(&req).response.encode())
}

/// [`replay_job`], checked: the executor's `ok` response must carry the
/// fingerprint the call-by-call replay arrived at.
pub fn replay_job_checked(tr: &mut Tracer, line: &str) -> Result<ReplayedJob, String> {
    let replayed = replay_job(tr, line)?;
    let real = execute_job(line)?;
    let want = format!(r#""fingerprint":"{}""#, replayed.fingerprint);
    if !real.contains(r#""status":"ok""#) || !real.contains(&want) {
        return Err(format!(
            "replay arrived at fingerprint {} but the executor answers {real}",
            replayed.fingerprint
        ));
    }
    Ok(replayed)
}
