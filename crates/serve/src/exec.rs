//! Executes one parsed job on a simulated machine.
//!
//! The contract the service's robustness story rests on: [`execute`]
//! never returns an unverified product as `ok`. Every job runs the one
//! pipeline of [`cubemm_harness::job`] — ABFT jobs under
//! quarantine-and-rerun recovery, where only a trustworthy outcome
//! counts, non-ABFT jobs checked against the host reference — and this
//! module reads how it ended: a typed response, plus
//! [`ExecOutcome::machine_fault`], which tells the pool whether the
//! worker's machine must be quarantined and rebooted before the next job.

use cubemm_core::abft::AbftOutcome;
use cubemm_core::{Algorithm, MachineConfig};
use cubemm_harness::job::{Job, JobError, JobOutcome, Protection};
use cubemm_harness::recovery::{RecoveryError, RecoveryPolicy};
use cubemm_model::ModelAlgo;
use cubemm_simnet::RunError;

use crate::protocol::{AlgoChoice, JobRequest, JobResponse, JobStatus};

/// The result of running one job, plus what it implies about the
/// machine that ran it.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The response to send.
    pub response: JobResponse,
    /// Whether the run tripped a machine-level fault (crash, corruption,
    /// deadlock, dead or dropping link): the pool quarantines the
    /// worker's machine and reboots it before taking the next job.
    pub machine_fault: bool,
}

/// The job a request names once its algorithm is known.
fn job_of(req: &JobRequest, algo: Algorithm) -> Job {
    let policy = RecoveryPolicy {
        max_attempts: req.attempts,
        ..RecoveryPolicy::default()
    };
    Job {
        algo,
        n: req.n,
        p: req.p,
        seed: req.seed,
        protection: if req.abft {
            Protection::Abft(policy)
        } else {
            Protection::Plain
        },
    }
}

/// Resolves `algo: auto` to the §5 model's cheapest applicable
/// contender for `(n, p)` on this machine, among algorithms that accept
/// the shape (ABFT jobs accept the padded order instead).
pub fn resolve_auto(req: &JobRequest) -> Option<Algorithm> {
    let mut best: Option<(Algorithm, f64)> = None;
    for model in ModelAlgo::COMPARED {
        let Ok(algo) = model.name().parse::<Algorithm>() else {
            continue;
        };
        if job_of(req, algo).check().is_err() {
            continue;
        }
        let Some(t) = cubemm_model::time(model, req.port, req.n, req.p, req.ts, req.tw) else {
            continue;
        };
        match best {
            Some((_, bt)) if bt <= t => {}
            _ => best = Some((algo, t)),
        }
    }
    best.map(|(algo, _)| algo)
}

fn config_of(req: &JobRequest) -> MachineConfig {
    MachineConfig::builder()
        .port(req.port)
        .costs(cubemm_simnet::CostParams {
            ts: req.ts,
            tw: req.tw,
        })
        .kernel(req.kernel)
        .faults(req.faults.clone())
        .build()
}

/// Validates the reusable [`Machine`](cubemm_simnet::Machine) a job of
/// this shape boots — the artifact the pool caches across same-shape
/// jobs.
pub fn machine_for(req: &JobRequest) -> Result<cubemm_simnet::Machine, RunError> {
    config_of(req).prepare(req.p)
}

/// Runs the job to a typed response, booting a fresh machine. Blocking;
/// the caller owns scheduling and admission.
pub fn execute(req: &JobRequest) -> ExecOutcome {
    execute_on(req, None)
}

/// [`execute`], reusing a pre-validated machine when one is offered
/// (the pool's same-shape cache). The run falls back to a fresh boot
/// whenever the machine doesn't match the job, so a stale or mismatched
/// cache entry can never change a response.
pub fn execute_on(req: &JobRequest, prepared: Option<cubemm_simnet::Machine>) -> ExecOutcome {
    let algo = match req.algo {
        AlgoChoice::Named(algo) => Some(algo),
        AlgoChoice::Auto => resolve_auto(req),
    };
    let (status, machine_fault) = match algo {
        None => {
            let error = format!("no compared algorithm accepts n={} on p={}", req.n, req.p);
            (JobStatus::Rejected { error }, false)
        }
        Some(algo) => {
            let mut cfg = config_of(req);
            if let Some(machine) = prepared {
                cfg = cfg.with_prepared(machine);
            }
            // Serve trusts an ABFT job's checksums: only a plain job is
            // checked against the host reference.
            status_of(req, algo, job_of(req, algo).run(&cfg, false))
        }
    };
    ExecOutcome {
        response: JobResponse {
            id: req.id.clone(),
            status,
        },
        machine_fault,
    }
}

/// The service's reading of how a job ended: its status, and whether
/// it faulted the machine that ran it.
fn status_of(
    req: &JobRequest,
    algo: Algorithm,
    end: Result<JobOutcome, JobError>,
) -> (JobStatus, bool) {
    let outcome = match end {
        Ok(outcome) => outcome,
        Err(e) => {
            let machine_fault = e.implicates_machine();
            let error = match e {
                JobError::Shape(error) => return (JobStatus::Rejected { error }, false),
                JobError::Operands(e) => {
                    let error = format!("operands: {e}");
                    return (JobStatus::Rejected { error }, false);
                }
                JobError::Sim(e) => e.to_string(),
                JobError::Recovery(RecoveryError::Exhausted { attempts, last }) => {
                    format!("recovery exhausted after {attempts} attempt(s): {last}")
                }
                JobError::Recovery(RecoveryError::Fatal(e)) => format!("unrecoverable: {e}"),
                JobError::Reference(e) => format!("verification failed: {e}"),
            };
            return (JobStatus::Failed { error }, machine_fault);
        }
    };
    if !outcome.verified {
        let err = outcome.max_diff.unwrap_or(f64::NAN);
        let error = format!("verification failed: max |Δ| = {err:.2e}");
        return (JobStatus::Failed { error }, true);
    }
    let report = outcome.abft.as_ref().map(|abft| &abft.report);
    // Any retry means the machine faulted mid-service, even though
    // recovery hid it from the client.
    let machine_fault = report.is_some_and(|r| r.attempts > 1 || !r.actions.is_empty());
    let backoff = report.map_or(0.0, |r| r.backoff_spent);
    let spent = outcome.stats.elapsed + backoff;
    if let Some(deadline) = req.deadline.filter(|&deadline| spent > deadline) {
        return (JobStatus::Deadline { spent, deadline }, machine_fault);
    }
    // `corrected` products are rebuilt from checksums, so they are
    // verified within tolerance but not bit-identical to a clean run;
    // the wire outcome keeps that distinction (the bitwise guarantee
    // covers clean/recovered/verified only).
    let tag = match &outcome.abft {
        None => "verified",
        Some(abft) => match abft.outcome {
            AbftOutcome::Clean if abft.report.attempts > 1 => "recovered",
            AbftOutcome::Clean => "clean",
            AbftOutcome::Corrected { .. } => "corrected",
            // `verified` gated this arm; uncorrectable can't reach here.
            AbftOutcome::Uncorrectable { .. } => "uncorrectable",
        },
    };
    let status = JobStatus::Ok {
        algo: algo.name(),
        elapsed: outcome.stats.elapsed,
        backoff,
        attempts: report.map_or(1, |r| r.attempts),
        outcome: tag,
        fingerprint: outcome.fingerprint,
    };
    (status, machine_fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint_hex;
    use crate::protocol::parse_request;
    use cubemm_dense::{gemm, Matrix};
    use cubemm_simnet::{CorruptKind, Corruption, FaultPlan};

    fn req(line: &str) -> JobRequest {
        parse_request(line).expect("test request")
    }

    #[test]
    fn healthy_abft_job_answers_clean_with_a_fingerprint() {
        let out = execute(&req(r#"{"id":"h","n":24,"p":16,"algo":"cannon"}"#));
        assert!(!out.machine_fault);
        match out.response.status {
            JobStatus::Ok {
                algo,
                attempts,
                outcome,
                ref fingerprint,
                ..
            } => {
                assert_eq!(algo, "cannon");
                assert_eq!(attempts, 1);
                assert_eq!(outcome, "clean");
                assert_eq!(fingerprint.len(), 16);
            }
            ref other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn shape_comes_before_operands_and_operands_are_fallible() {
        // A shape no algorithm accepts keeps its answer on both paths.
        let out = execute(&req(
            r#"{"id":"s","n":25,"p":16,"algo":"cannon","abft":false}"#,
        ));
        assert!(
            matches!(out.response.status, JobStatus::Rejected { ref error }
                if error.starts_with("cannon cannot run n=25 on p=16: ")),
            "{:?}",
            out.response.status
        );
        let out = execute(&req(r#"{"id":"s","n":24,"p":8,"algo":"simple"}"#));
        assert!(
            matches!(out.response.status, JobStatus::Failed { ref error }
                if error.starts_with("unrecoverable: ")),
            "{:?}",
            out.response.status
        );
        // An acceptable shape whose operands no allocation can hold is
        // rejected before anything is allocated.
        for abft in [true, false] {
            let out = execute(&req(&format!(
                r#"{{"id":"big","n":4000000000,"p":4,"algo":"cannon","abft":{abft}}}"#
            )));
            assert!(!out.machine_fault);
            assert_eq!(
                out.response.status,
                JobStatus::Rejected {
                    error: "operands: cannot allocate a 4000000000 × 4000000000 matrix".into()
                }
            );
        }
    }

    #[test]
    fn ok_responses_carry_no_engine_field() {
        // A client that still names the event engine is served as before
        // on both paths; the answer no longer echoes a constant engine.
        for line in [
            r#"{"id":"d","n":24,"p":16,"algo":"cannon","engine":"event"}"#,
            r#"{"id":"p","n":24,"p":16,"algo":"cannon","abft":false,"engine":"event"}"#,
        ] {
            let response = execute(&req(line)).response;
            assert!(
                matches!(response.status, JobStatus::Ok { .. }),
                "{response:?}"
            );
            let doc = cubemm_simnet::json::parse(&response.encode()).expect("valid JSON");
            assert!(doc.get("engine").is_none(), "{line}");
        }
    }

    #[test]
    fn serve_and_direct_run_agree_bitwise() {
        // The acceptance headline: a served job's fingerprint equals the
        // fingerprint of the product of a one-shot multiply with the
        // same seed and machine.
        let r = req(r#"{"id":"d","n":24,"p":16,"algo":"cannon","abft":false,"seed":9}"#);
        let out = execute(&r);
        let JobStatus::Ok {
            ref fingerprint, ..
        } = out.response.status
        else {
            panic!("expected ok, got {:?}", out.response.status);
        };
        let a = Matrix::random(24, 24, 9);
        let b = Matrix::random(24, 24, 10);
        let direct = Algorithm::Cannon
            .multiply(&a, &b, 16, &MachineConfig::default())
            .expect("direct run");
        assert_eq!(*fingerprint, fingerprint_hex(&direct.c));
    }

    #[test]
    fn auto_resolves_to_a_compared_algorithm_and_runs() {
        let out = execute(&req(r#"{"id":"a","n":24,"p":16}"#));
        match out.response.status {
            JobStatus::Ok { algo, .. } => {
                assert!(
                    ModelAlgo::COMPARED.iter().any(|m| m.name() == algo),
                    "auto picked {algo}, not a §5 contender"
                );
            }
            ref other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn a_crash_is_recovered_and_flags_the_machine() {
        let out = execute(&req(
            r#"{"id":"c","n":24,"p":16,"algo":"cannon","faults":{"crashes":[{"node":3,"step":1}]}}"#,
        ));
        assert!(out.machine_fault, "a crashed run must quarantine");
        match out.response.status {
            JobStatus::Ok {
                attempts,
                outcome,
                backoff,
                ..
            } => {
                assert_eq!(attempts, 2);
                assert_eq!(outcome, "recovered");
                assert_eq!(backoff, 16.0);
            }
            ref other => panic!("expected recovered ok, got {other:?}"),
        }
    }

    #[test]
    fn recovered_jobs_fingerprint_like_healthy_ones() {
        let healthy = execute(&req(r#"{"id":"x","n":24,"p":16,"algo":"cannon","seed":3}"#));
        let crashed = execute(&req(
            r#"{"id":"y","n":24,"p":16,"algo":"cannon","seed":3,"faults":{"crashes":[{"node":2,"step":0}]}}"#,
        ));
        let fp = |o: &ExecOutcome| match &o.response.status {
            JobStatus::Ok { fingerprint, .. } => fingerprint.clone(),
            other => panic!("expected ok, got {other:?}"),
        };
        assert_eq!(fp(&healthy), fp(&crashed), "recovery changed the bits");
    }

    #[test]
    fn unprotected_crash_is_a_typed_failure_not_a_wrong_answer() {
        let out = execute(&req(
            r#"{"id":"u","n":24,"p":16,"algo":"cannon","abft":false,"faults":{"crashes":[{"node":3,"step":1}]}}"#,
        ));
        assert!(out.machine_fault);
        assert!(
            matches!(out.response.status, JobStatus::Failed { .. }),
            "got {:?}",
            out.response.status
        );
    }

    #[test]
    fn missed_deadline_withholds_the_product() {
        // A healthy run's elapsed time is thousands of virtual units;
        // a deadline of 1 must trip.
        let out = execute(&req(
            r#"{"id":"t","n":24,"p":16,"algo":"cannon","deadline":1}"#,
        ));
        match out.response.status {
            JobStatus::Deadline { spent, deadline } => {
                assert!(spent > deadline);
                assert_eq!(deadline, 1.0);
            }
            ref other => panic!("expected deadline, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_recovery_is_failed_and_faults_the_machine() {
        // One attempt, one scheduled crash: recovery cannot retry.
        let out = execute(&req(
            r#"{"id":"e","n":24,"p":16,"algo":"cannon","attempts":1,"faults":{"crashes":[{"node":1,"step":0}]}}"#,
        ));
        assert!(out.machine_fault);
        match out.response.status {
            JobStatus::Failed { ref error } => assert!(error.contains("exhausted"), "{error}"),
            ref other => panic!("expected failed, got {other:?}"),
        }
    }

    #[test]
    fn nan_only_damage_is_a_verification_failure_not_ok() {
        // Flipping bit 62 of a word in [1, 2) sets every exponent bit:
        // the word becomes NaN. On a reduce-phase partial sum that
        // poisons exactly one entry of the product and leaves the rest
        // exact — damage the old `f64::max` fold read as max |Δ| = 0 and
        // the old `err > tol` predicate could not have rejected anyway.
        // Search DNS's schedule for such a site, then serve the job.
        let (n, p) = (24, 8);
        let a = Matrix::random(n, n, 5);
        let b = Matrix::random(n, n, 6);
        let want = gemm::reference(&a, &b);
        let sites = (0..p)
            .flat_map(|from| (0..3).map(move |bit| (from, from ^ (1 << bit))))
            .flat_map(|(from, to)| (0..4u64).map(move |k| (from, to, k)))
            .flat_map(|(from, to, k)| (0..8).map(move |word| (from, to, k, word)));
        let mut served = 0;
        for (from, to, k, word) in sites {
            let plan = FaultPlan::new().with_corruption(
                from,
                to,
                k,
                Corruption {
                    word,
                    kind: CorruptKind::BitFlip { bit: 62 },
                },
            );
            let cfg = MachineConfig::builder().faults(plan.clone()).build();
            let Ok(res) = Algorithm::Dns.multiply(&a, &b, p, &cfg) else {
                continue;
            };
            let nans = res.c.as_slice().iter().filter(|v| v.is_nan()).count();
            let rest_exact = res
                .c
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(g, w)| g.is_nan() || (g - w).abs() <= 1e-9 * n as f64);
            if nans == 0 || !rest_exact {
                continue;
            }
            let line = format!(
                r#"{{"id":"nan","n":{n},"p":{p},"algo":"dns","abft":false,"seed":5,"faults":{}}}"#,
                plan.to_json()
            );
            let out = execute(&req(&line));
            assert!(out.machine_fault, "a poisoned product must quarantine");
            match out.response.status {
                JobStatus::Failed { ref error } => {
                    assert_eq!(error, "verification failed: max |Δ| = NaN")
                }
                ref other => panic!("NaN-only damage answered {other:?}"),
            }
            served += 1;
            if served == 3 {
                break;
            }
        }
        assert!(served > 0, "no NaN-only corruption site found to test");
    }

    #[test]
    fn corruption_is_absorbed_or_recovered_never_wrong() {
        // The bit-exact yardstick is a healthy run of the same job, not
        // the host reference (distributed summation order differs).
        let healthy = execute(&req(
            r#"{"id":"k0","n":24,"p":16,"algo":"cannon","seed":1}"#,
        ));
        let JobStatus::Ok {
            fingerprint: ref want,
            ..
        } = healthy.response.status
        else {
            panic!("healthy run must succeed");
        };
        let plan = FaultPlan::new().with_corruption(
            0,
            1,
            1,
            Corruption {
                word: 2,
                kind: CorruptKind::Perturb { delta: 64.0 },
            },
        );
        let line = format!(
            r#"{{"id":"k","n":24,"p":16,"algo":"cannon","seed":1,"faults":{}}}"#,
            plan.to_json()
        );
        let out = execute(&req(&line));
        match out.response.status {
            JobStatus::Ok {
                ref fingerprint,
                outcome,
                ..
            } => {
                // A corrected product is rebuilt from checksums and only
                // tolerance-verified; every other ok outcome is bitwise.
                if outcome != "corrected" {
                    assert_eq!(fingerprint, want, "corrupted run answered wrong bits");
                }
            }
            JobStatus::Failed { .. } => {}
            ref other => panic!("expected ok or failed, got {other:?}"),
        }
    }
}
