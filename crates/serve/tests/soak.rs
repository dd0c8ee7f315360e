//! Chaos soak: sustained load against a live pool under crash and
//! corruption injection.
//!
//! The assertions are the service's headline promises, checked at
//! soak scale (>1000 jobs):
//!
//! * **zero dropped jobs** — every submission produces exactly one
//!   response,
//! * **zero wrong answers** — every `ok` fingerprint matches the
//!   fingerprint of the same job executed directly and healthily
//!   (bitwise; `corrected` outcomes are excluded from the bitwise
//!   check by contract, they are checksum-rebuilt),
//! * **quarantine heals without draining** — machines crash and
//!   corrupt throughout, the pool quarantines and reboots them, and
//!   the queue keeps being served (all of this inside one pool
//!   lifetime),
//! * **typed failures only** — the deliberately unrecoverable jobs
//!   come back `failed`, never `ok`, never a panic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cubemm_harness::chaos::{random_soak_plan, ChaosRng};
use cubemm_serve::{
    execute, parse_request, JobRequest, JobResponse, JobStatus, Responder, ServeConfig, ServePool,
};
use cubemm_simnet::FaultPlan;

const JOBS: usize = 1200;

/// One fixed seed reproduces the whole soak, fault plans included.
const SOAK_SEED: u64 = 0x5EED_50AC;

/// Deterministic job mix. Index `i` decides shape, seed, priority, and
/// algorithm; every 151st job is unrecoverable by construction (a
/// scheduled crash under a one-attempt budget). All other fault plans
/// come from the chaos module's seeded soak stream
/// ([`random_soak_plan`]): about a third of jobs crash a node early, a
/// fifth corrupt a payload word on a random hypercube edge, the rest
/// run healthy — the ratios the quarantine assertions below expect.
fn job_line(i: usize) -> String {
    let n = [8usize, 12, 16][i % 3];
    let p = if i % 7 == 0 { 16 } else { 4 };
    let seed = i % 11;
    let priority = i % 10;
    let algo = if i % 13 == 0 { "auto" } else { "cannon" };
    format!(
        r#"{{"id":"soak-{i}","n":{n},"p":{p},"algo":"{algo}","seed":{seed},"priority":{priority}}}"#
    )
}

/// Attaches the i-th job's fault plan, drawn from the seeded chaos
/// stream (the unrecoverable jobs keep their hand-built plan so the
/// typed-failure assertion stays exact).
fn with_faults(mut req: JobRequest, i: usize, rng: &mut ChaosRng) -> JobRequest {
    if i % 151 == 150 {
        // One attempt + a scheduled crash: recovery cannot retry, the
        // job must come back as a typed failure.
        req.attempts = 1;
        req.faults = FaultPlan::new().with_crash(1, 0);
    } else {
        req.faults = random_soak_plan(rng, req.p);
    }
    req
}

/// The healthy twin of a job: same shape, algorithm, and seed, no
/// faults — its fingerprint is the job's expected answer.
fn healthy_twin(req: &JobRequest) -> JobRequest {
    let mut twin = req.clone();
    twin.faults = cubemm_simnet::FaultPlan::new();
    twin.attempts = 4;
    twin
}

/// Cache key: everything that determines the product's bits.
fn spec_key(req: &JobRequest) -> String {
    format!(
        "{:?}|{}|{}|{}|{:?}|{:?}|{}|{}",
        req.algo, req.n, req.p, req.seed, req.kernel, req.port, req.ts, req.tw
    )
}

#[test]
fn chaos_soak_never_drops_or_lies() {
    let pool = ServePool::start(ServeConfig {
        workers: 4,
        queue_cap: JOBS, // the soak measures correctness, not shedding
    });
    let responses: Arc<Mutex<Vec<JobResponse>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&responses);
    let responder: Responder = Arc::new(move |resp| {
        sink.lock().unwrap_or_else(|e| e.into_inner()).push(resp);
    });

    let mut rng = ChaosRng::new(SOAK_SEED);
    let mut requests: HashMap<String, JobRequest> = HashMap::new();
    for i in 0..JOBS {
        let req = parse_request(&job_line(i)).unwrap_or_else(|e| {
            panic!("soak generator produced a malformed line at {i}: {e:?}");
        });
        let req = with_faults(req, i, &mut rng);
        requests.insert(req.id.clone(), req.clone());
        assert!(
            pool.submit(req, Arc::clone(&responder)),
            "job {i} was not admitted (queue_cap covers the whole soak)"
        );
    }
    let stats = pool.drain();

    // Zero dropped: one response per submission, by count and by id.
    let responses = responses.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(stats.submitted, JOBS as u64);
    assert_eq!(
        responses.len(),
        JOBS,
        "a job was dropped or double-answered"
    );
    assert_eq!(stats.responses(), JOBS as u64);
    for resp in responses.iter() {
        assert!(requests.contains_key(&resp.id), "unknown id {}", resp.id);
    }

    // Zero wrong answers: every ok fingerprint (minus checksum-rebuilt
    // `corrected` products) matches its healthy twin's, computed once
    // per distinct spec.
    let mut expected: HashMap<String, String> = HashMap::new();
    let mut checked = 0usize;
    let (mut ok, mut failed, mut deadline) = (0u64, 0u64, 0u64);
    for resp in responses.iter() {
        let req = &requests[&resp.id];
        match &resp.status {
            JobStatus::Ok {
                fingerprint,
                outcome,
                attempts,
                ..
            } => {
                ok += 1;
                assert!(*attempts >= 1);
                if *outcome == "corrected" {
                    continue;
                }
                let key = spec_key(req);
                let want = expected.entry(key).or_insert_with(|| {
                    let twin = execute(&healthy_twin(req));
                    match twin.response.status {
                        JobStatus::Ok { fingerprint, .. } => fingerprint,
                        other => panic!("healthy twin of {} failed: {other:?}", resp.id),
                    }
                });
                assert_eq!(fingerprint, want, "job {} answered wrong bits", resp.id);
                checked += 1;
            }
            JobStatus::Failed { error } => {
                failed += 1;
                assert!(!error.is_empty());
            }
            JobStatus::Deadline { .. } => deadline += 1,
            other => panic!("soak job {} got unexpected status {other:?}", resp.id),
        }
    }
    assert_eq!(stats.ok, ok);
    assert_eq!(stats.failed, failed);
    assert_eq!(stats.deadline_missed, deadline);
    assert!(
        ok >= (JOBS as u64) * 9 / 10,
        "too few verified products: {ok}/{JOBS}"
    );
    assert!(checked >= 1000, "bitwise-checked only {checked} products");

    // The unrecoverable jobs all failed, typed.
    for i in (0..JOBS).filter(|i| i % 151 == 150) {
        let id = format!("soak-{i}");
        let resp = responses
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("{id} unanswered"));
        assert!(
            matches!(resp.status, JobStatus::Failed { .. }),
            "{id} should be a typed failure, got {:?}",
            resp.status
        );
    }

    // Machines faulted throughout and the pool healed them in place —
    // while the same pool lifetime answered every job above.
    assert!(
        stats.quarantines >= (JOBS as u64) / 4,
        "expected hundreds of quarantines, saw {}",
        stats.quarantines
    );
    assert_eq!(
        stats.quarantines, stats.reboots,
        "every quarantined machine must reboot back into service"
    );
}
