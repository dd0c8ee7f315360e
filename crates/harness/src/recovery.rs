//! Quarantine-and-rerun recovery around checksum-protected runs.
//!
//! [`cubemm_core::abft::multiply_abft`] detects silent corruption but
//! can only *correct* the patterns its residuals localize; propagated
//! input corruption, multi-fault damage, scheduled node crashes, and
//! hard link failures all need another attempt on a healthier machine.
//! [`multiply_with_recovery`] drives that loop:
//!
//! 1. run the protected multiplication,
//! 2. on a trustworthy outcome (clean or corrected), stop,
//! 3. otherwise mutate the fault plan to excise the implicated
//!    component — quarantine every corrupting link (routing detours
//!    around dead links, so a quarantined corruptor cannot re-fire),
//!    reboot a crashed node, stop dropping on a drop-exhausted edge,
//!    relax strictness so detours are allowed — charge one capped
//!    exponential-backoff delay, and retry,
//! 4. give up after a bounded number of attempts.
//!
//! Because the simulator is deterministic, a retry against an
//! *unchanged* plan would reproduce the failure bit-for-bit; the loop
//! therefore insists every retry changes the plan, and reports
//! exhaustion immediately when no mutation applies (e.g. damage was
//! detected but no scheduled corruptor explains it).

use std::collections::BTreeSet;

use cubemm_core::abft::{multiply_abft_with_tol, AbftOutcome, AbftResult};
use cubemm_core::{AlgoError, Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_simnet::{FaultEntry, FaultPlan, RunError, SendError};

/// Retry budget and virtual backoff schedule for
/// [`multiply_with_recovery`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Total runs allowed, the first included (at least 1).
    pub max_attempts: usize,
    /// Virtual-time delay charged before the first retry.
    pub backoff: f64,
    /// Multiplier applied to the delay after each retry.
    pub backoff_factor: f64,
    /// Cap on any single retry's delay, so the exponential schedule
    /// cannot dwarf the reruns it paces.
    pub max_backoff: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 4,
            backoff: 16.0,
            backoff_factor: 2.0,
            max_backoff: 1024.0,
        }
    }
}

/// One plan mutation the recovery loop applied before a retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Killed the (undirected) link so routing detours around its
    /// scheduled corruption.
    QuarantinedLink {
        /// Lower endpoint.
        a: usize,
        /// Higher endpoint.
        b: usize,
    },
    /// Cleared a node's scheduled crash (the rerun models a reboot).
    RebootedNode {
        /// The previously crashed node.
        node: usize,
    },
    /// Cleared the drop schedule of the edge whose retries ran out.
    UnblockedDrops {
        /// Sending node.
        from: usize,
        /// Destination node.
        to: usize,
    },
    /// Switched a strict plan to lenient so quarantined links detour
    /// instead of failing sends outright.
    RelaxedStrictness,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryAction::QuarantinedLink { a, b } => {
                write!(f, "quarantined link {a}<->{b}")
            }
            RecoveryAction::RebootedNode { node } => write!(f, "rebooted node {node}"),
            RecoveryAction::UnblockedDrops { from, to } => {
                write!(f, "cleared drop schedule on edge {from}->{to}")
            }
            RecoveryAction::RelaxedStrictness => write!(f, "relaxed plan to lenient routing"),
        }
    }
}

/// What the recovery loop did on the way to its answer.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Runs performed (1 = succeeded first try).
    pub attempts: usize,
    /// Plan mutations, in the order applied.
    pub actions: Vec<RecoveryAction>,
    /// Total virtual backoff delay charged between attempts. Not part
    /// of any run's clock — bookkeeping for cost accounting.
    pub backoff_spent: f64,
    /// The individual delays behind [`RecoveryReport::backoff_spent`],
    /// one per retry in order: `delays[i]` was charged before attempt
    /// `i + 2`. Exposes the capped exponential schedule so callers (the
    /// CLI's verbose report, the serve deadline check) can show *when*
    /// the virtual time went, not just how much.
    pub backoff_delays: Vec<f64>,
    /// The fault plan the final (returned) attempt ran under.
    pub final_plan: FaultPlan,
}

/// Why [`multiply_with_recovery`] gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The failure is not a machine fault rerunning could fix: bad
    /// shapes, impossible topology, a deadlock or node panic (algorithm
    /// bugs), or an unroutable destination (quarantine disconnected the
    /// machine).
    Fatal(AlgoError),
    /// The attempt budget ran out — or no plan mutation could explain
    /// the damage — without producing a trustworthy product.
    Exhausted {
        /// Runs performed.
        attempts: usize,
        /// Human-readable description of the last failure.
        last: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Fatal(e) => write!(f, "unrecoverable failure: {e}"),
            RecoveryError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "no trustworthy product after {attempts} attempt(s): {last}"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// [`multiply_with_recovery_tol`] with the magnitude-scaled default
/// verification tolerance.
pub fn multiply_with_recovery(
    algo: Algorithm,
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
    policy: &RecoveryPolicy,
) -> Result<(AbftResult, RecoveryReport), RecoveryError> {
    multiply_with_recovery_tol(algo, a, b, p, cfg, policy, None)
}

/// Runs the checksum-protected multiplication under quarantine-and-rerun
/// recovery (see the module docs). On success the returned
/// [`AbftResult`] is the final, trustworthy attempt and the
/// [`RecoveryReport`] records every plan mutation and backoff charged
/// to reach it.
pub fn multiply_with_recovery_tol(
    algo: Algorithm,
    a: &Matrix,
    b: &Matrix,
    p: usize,
    cfg: &MachineConfig,
    policy: &RecoveryPolicy,
    tol: Option<f64>,
) -> Result<(AbftResult, RecoveryReport), RecoveryError> {
    let mut cfg = cfg.clone();
    let mut report = RecoveryReport {
        attempts: 0,
        actions: Vec::new(),
        backoff_spent: 0.0,
        backoff_delays: Vec::new(),
        final_plan: cfg.faults.clone(),
    };
    let mut backoff = policy.backoff;
    let max_attempts = policy.max_attempts.max(1);
    loop {
        report.attempts += 1;
        let last = match multiply_abft_with_tol(algo, a, b, p, &cfg, tol) {
            Ok(res) if res.outcome.is_good() => {
                report.final_plan = cfg.faults.clone();
                return Ok((res, report));
            }
            Ok(res) => {
                let mutated = quarantine_corruptors(&mut cfg.faults, &mut report.actions);
                let desc = match res.outcome {
                    AbftOutcome::Uncorrectable { rows, cols } => {
                        format!("uncorrectable damage (suspect rows {rows:?}, columns {cols:?})")
                    }
                    _ => unreachable!("is_good() covered the other outcomes"),
                };
                if !mutated {
                    // Deterministic simulator + unchanged plan = the
                    // same damage again; don't waste the attempts.
                    return Err(RecoveryError::Exhausted {
                        attempts: report.attempts,
                        last: format!("{desc}; no scheduled corruptor left to quarantine"),
                    });
                }
                desc
            }
            Err(AlgoError::Sim(RunError::NodeCrashed { node, step })) => {
                cfg.faults = cfg.faults.clone().without_crash(node);
                report.actions.push(RecoveryAction::RebootedNode { node });
                format!("node {node} crashed at step {step}")
            }
            Err(AlgoError::Sim(RunError::LinkDead {
                error: SendError::LinkDead { from, to },
                ..
            })) => {
                // A strict plan fails sends on dead links; let the
                // rerun route around them instead.
                cfg.faults = cfg.faults.clone().lenient();
                report.actions.push(RecoveryAction::RelaxedStrictness);
                format!("strict plan failed the {from}->{to} send on a dead link")
            }
            Err(AlgoError::Sim(RunError::LinkDead {
                error: SendError::RetriesExhausted { from, to, attempts },
                ..
            })) => {
                cfg.faults = cfg.faults.clone().without_drops(from, to);
                report
                    .actions
                    .push(RecoveryAction::UnblockedDrops { from, to });
                format!("edge {from}->{to} dropped {attempts} delivery attempts")
            }
            // Unroutable destinations, deadlocks, panics, config and
            // shape errors: rerunning cannot help.
            Err(e) => return Err(RecoveryError::Fatal(e)),
        };
        if report.attempts >= max_attempts {
            return Err(RecoveryError::Exhausted {
                attempts: report.attempts,
                last,
            });
        }
        let delay = backoff.min(policy.max_backoff);
        report.backoff_spent += delay;
        report.backoff_delays.push(delay);
        backoff *= policy.backoff_factor;
    }
}

/// Kills every link that still has scheduled corruptions (routing then
/// detours around it). Returns whether the plan changed.
fn quarantine_corruptors(plan: &mut FaultPlan, actions: &mut Vec<RecoveryAction>) -> bool {
    let links: BTreeSet<(usize, usize)> = plan
        .entries()
        .filter_map(|e| match *e {
            FaultEntry::Corrupt { from, to, .. } => Some((from.min(to), from.max(to))),
            _ => None,
        })
        .collect();
    let mut mutated = false;
    for (a, b) in links {
        if plan.is_dead(a, b) {
            continue;
        }
        *plan = plan.clone().with_dead_link(a, b);
        actions.push(RecoveryAction::QuarantinedLink { a, b });
        mutated = true;
    }
    mutated
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_dense::gemm;
    use cubemm_dense::Matrix;
    use cubemm_simnet::{CorruptKind, Corruption};

    fn ints(n: usize, salt: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3 + salt) % 5) as f64 - 2.0)
    }

    fn perturb(word: usize) -> Corruption {
        Corruption {
            word,
            kind: CorruptKind::Perturb { delta: 64.0 },
        }
    }

    #[test]
    fn healthy_run_succeeds_first_try_with_an_empty_report() {
        let (a, b) = (ints(6, 1), ints(6, 2));
        let (res, report) = multiply_with_recovery_tol(
            Algorithm::Cannon,
            &a,
            &b,
            4,
            &MachineConfig::default(),
            &RecoveryPolicy::default(),
            Some(1e-9),
        )
        .expect("healthy run");
        assert_eq!(res.outcome, AbftOutcome::Clean);
        assert_eq!(report.attempts, 1);
        assert!(report.actions.is_empty());
        assert_eq!(report.backoff_spent, 0.0);
        assert_eq!(res.c.as_slice(), gemm::reference(&a, &b).as_slice());
    }

    #[test]
    fn a_crash_is_survived_by_rebooting_the_node() {
        let (a, b) = (ints(6, 3), ints(6, 4));
        let cfg = MachineConfig::default().with_faults(FaultPlan::new().with_crash(2, 1));
        let (res, report) = multiply_with_recovery_tol(
            Algorithm::Cannon,
            &a,
            &b,
            4,
            &cfg,
            &RecoveryPolicy::default(),
            Some(1e-9),
        )
        .expect("reboot must converge");
        assert_eq!(report.attempts, 2);
        assert_eq!(
            report.actions,
            vec![RecoveryAction::RebootedNode { node: 2 }]
        );
        assert_eq!(report.backoff_spent, 16.0);
        assert_eq!(report.backoff_delays, vec![16.0]);
        assert!(report.final_plan.crash_step(2).is_none());
        assert_eq!(res.c.as_slice(), gemm::reference(&a, &b).as_slice());
    }

    #[test]
    fn two_retries_record_the_exponential_schedule() {
        let (a, b) = (ints(6, 9), ints(6, 10));
        // Two scheduled crashes: each attempt reboots one node, so the
        // run converges on attempt 3 after charging 16 then 32.
        let cfg = MachineConfig::default()
            .with_faults(FaultPlan::new().with_crash(1, 0).with_crash(2, 1));
        let (res, report) = multiply_with_recovery_tol(
            Algorithm::Cannon,
            &a,
            &b,
            4,
            &cfg,
            &RecoveryPolicy::default(),
            Some(1e-9),
        )
        .expect("two reboots fit the default budget");
        assert_eq!(report.attempts, 3);
        assert_eq!(report.backoff_delays, vec![16.0, 32.0]);
        assert_eq!(
            report.backoff_spent,
            report.backoff_delays.iter().sum::<f64>()
        );
        // Which crash fires first depends on host scheduling, but both
        // nodes must end up rebooted.
        assert_eq!(report.actions.len(), 2);
        assert!(report.actions.iter().all(
            |act| matches!(act, RecoveryAction::RebootedNode { node } if *node == 1 || *node == 2)
        ));
        assert_eq!(res.c.as_slice(), gemm::reference(&a, &b).as_slice());
    }

    #[test]
    fn backoff_schedule_honors_the_cap() {
        let (a, b) = (ints(6, 11), ints(6, 12));
        let cfg = MachineConfig::default()
            .with_faults(FaultPlan::new().with_crash(1, 0).with_crash(2, 1));
        let policy = RecoveryPolicy {
            max_attempts: 4,
            backoff: 100.0,
            backoff_factor: 10.0,
            max_backoff: 250.0,
        };
        let (_, report) =
            multiply_with_recovery_tol(Algorithm::Cannon, &a, &b, 4, &cfg, &policy, Some(1e-9))
                .expect("two reboots fit a budget of four");
        // Uncapped the second delay would be 1000; the cap pins it.
        assert_eq!(report.backoff_delays, vec![100.0, 250.0]);
        assert_eq!(report.backoff_spent, 350.0);
    }

    #[test]
    fn delay_landing_exactly_on_the_cap_is_not_disturbed() {
        let (a, b) = (ints(6, 13), ints(6, 14));
        // Three crashes burn three retries. The second delay is 1000
        // uncapped and the cap is 1000 — the boundary case must pass
        // through unchanged, and only the third (10000) gets clamped.
        let cfg = MachineConfig::default().with_faults(
            FaultPlan::new()
                .with_crash(1, 0)
                .with_crash(2, 0)
                .with_crash(3, 0),
        );
        let policy = RecoveryPolicy {
            max_attempts: 4,
            backoff: 100.0,
            backoff_factor: 10.0,
            max_backoff: 1000.0,
        };
        let (res, report) =
            multiply_with_recovery_tol(Algorithm::Cannon, &a, &b, 4, &cfg, &policy, Some(1e-9))
                .expect("three reboots fit a budget of four");
        assert_eq!(report.attempts, 4);
        assert_eq!(report.backoff_delays, vec![100.0, 1000.0, 1000.0]);
        assert_eq!(report.backoff_spent, 2100.0);
        assert_eq!(report.backoff_delays.len(), report.attempts - 1);
        assert_eq!(report.actions.len(), 3);
        assert_eq!(res.c.as_slice(), gemm::reference(&a, &b).as_slice());
    }

    #[test]
    fn no_mutation_avenue_exhausts_immediately_without_burning_budget() {
        let (a, b) = (ints(6, 15), ints(6, 16));
        // A negative tolerance makes every residual suspect, so
        // verification reports uncorrectable damage on a healthy
        // machine — and with no scheduled corruptor to quarantine, a
        // rerun would reproduce the verdict bit-for-bit. The loop must
        // give up on attempt 1 instead of spending the other three.
        let policy = RecoveryPolicy::default();
        let err = multiply_with_recovery_tol(
            Algorithm::Cannon,
            &a,
            &b,
            4,
            &MachineConfig::default(),
            &policy,
            Some(-1.0),
        )
        .expect_err("nothing to mutate, so retrying is pointless");
        match err {
            RecoveryError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 1, "must not retry an unchanged plan");
                assert!(
                    last.contains("no scheduled corruptor left to quarantine"),
                    "{last}"
                );
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn propagated_corruption_is_survived_by_quarantining_the_link() {
        let (a, b) = (ints(6, 5), ints(6, 6));
        let want = gemm::reference(&a, &b);
        // Probe sites until one produces an outcome Cannon cannot
        // correct in place (forwarded A/B blocks propagate the damage);
        // recovery must then quarantine the link and converge exactly.
        let mut recovered = 0usize;
        for (from, to) in [(0usize, 1usize), (1, 0), (0, 2), (2, 3)] {
            for seq in 0..3u64 {
                let plan = FaultPlan::new().with_corruption(from, to, seq, perturb(1));
                let cfg = MachineConfig::default().with_faults(plan);
                let (res, report) = multiply_with_recovery_tol(
                    Algorithm::Cannon,
                    &a,
                    &b,
                    4,
                    &cfg,
                    &RecoveryPolicy::default(),
                    Some(1e-9),
                )
                .expect("single corruption must always be survivable");
                assert_eq!(res.c.as_slice(), want.as_slice(), "({from},{to},{seq})");
                if report.attempts > 1 {
                    assert!(report
                        .actions
                        .iter()
                        .any(|act| matches!(act, RecoveryAction::QuarantinedLink { .. })));
                    recovered += 1;
                }
            }
        }
        assert!(recovered > 0, "no probed site forced a quarantine-rerun");
    }

    #[test]
    fn exhaustion_reports_the_last_failure() {
        let (a, b) = (ints(6, 7), ints(6, 8));
        // Crash at every attempt the budget allows: crash node 1, and
        // keep max_attempts at 1 so the reboot never happens.
        let cfg = MachineConfig::default().with_faults(FaultPlan::new().with_crash(1, 0));
        let policy = RecoveryPolicy {
            max_attempts: 1,
            ..RecoveryPolicy::default()
        };
        let err =
            multiply_with_recovery_tol(Algorithm::Cannon, &a, &b, 4, &cfg, &policy, Some(1e-9))
                .expect_err("budget of one cannot absorb a crash");
        match err {
            RecoveryError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 1);
                assert!(last.contains("crashed"), "{last}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn impossible_shapes_are_fatal_not_retried() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 4);
        let err = multiply_with_recovery(
            Algorithm::Cannon,
            &a,
            &b,
            4,
            &MachineConfig::default(),
            &RecoveryPolicy::default(),
        )
        .expect_err("bad shapes cannot run");
        assert!(matches!(
            err,
            RecoveryError::Fatal(AlgoError::BadShapes { .. })
        ));
    }
}
