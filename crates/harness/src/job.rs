//! One job pipeline: check → operands → multiply → verify.
//!
//! Every front door that answers "what is `A·B`?" runs [`Job::run`]: it
//! checks the shape before anything is allocated ([`Job::check`]),
//! draws the seeded operands fallibly ([`operands`]), multiplies —
//! plain, or under quarantine-and-rerun recovery — and fingerprints the
//! product beside the host reference ([`gemm::alongside_reference`]),
//! then judges it by the one acceptance rule ([`accept`]). `cubemm run`
//! and the serve executor are formatters over its [`JobOutcome`] or
//! [`JobError`]; `cubemm sweep` uses the stages directly. [`exit_code`]
//! is the CLI's reading of how a job ended; DESIGN.md §13 tabulates
//! every error against its exit code and serve status.

use cubemm_core::abft::{padded_order, AbftOutcome};
use cubemm_core::{AlgoError, Algorithm, MachineConfig};
use cubemm_dense::{gemm, Matrix};
use cubemm_simnet::{RunError, RunStats};

use crate::recovery::{multiply_with_recovery, RecoveryError, RecoveryPolicy, RecoveryReport};

/// How a job's product is protected.
#[derive(Debug, Clone, PartialEq)]
pub enum Protection {
    /// An unprotected run, always checked against the host reference.
    Plain,
    /// A checksum-protected run under [`multiply_with_recovery`].
    Abft(RecoveryPolicy),
}

/// One multiplication: `algo` on `p` simulated nodes, of the `n × n`
/// [`operands`] drawn from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The algorithm that runs.
    pub algo: Algorithm,
    /// Matrix order.
    pub n: usize,
    /// Simulated machine size.
    pub p: usize,
    /// Operand seed.
    pub seed: u64,
    /// Plain or checksum-protected.
    pub protection: Protection,
}

/// What recovery concluded about a checksum-protected product.
#[derive(Debug, Clone)]
pub struct AbftRun {
    /// The final attempt's checksum verdict.
    pub outcome: AbftOutcome,
    /// The augmented order the algorithm ran at.
    pub augmented: usize,
    /// The attempts, plan mutations and backoff behind it.
    pub report: RecoveryReport,
}

/// A job that produced a product.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The product's [`fingerprint_hex`].
    pub fingerprint: String,
    /// Statistics of the (final) simulated run.
    pub stats: RunStats,
    /// Recovery's verdict, for an ABFT job.
    pub abft: Option<AbftRun>,
    /// `max |Δ|` against the host reference, when it was checked.
    pub max_diff: Option<f64>,
    /// Whether the checksums held (ABFT) and [`accept`] passed (when
    /// the reference was checked).
    pub verified: bool,
}

/// Why a job produced no product.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The algorithm refuses a plain job's order.
    Shape(String),
    /// The operands cannot be allocated.
    Operands(String),
    /// A plain run failed in the simulator.
    Sim(AlgoError),
    /// A protected run found no trustworthy product: recovery was
    /// exhausted or hit a fatal error — a shape no padded order cures
    /// is fatal before the first attempt.
    Recovery(RecoveryError),
    /// The host reference panicked.
    Reference(String),
}

impl JobError {
    /// The simulator error a failed run ended in.
    fn run_error(&self) -> Option<&RunError> {
        match self {
            JobError::Sim(AlgoError::Sim(e))
            | JobError::Recovery(RecoveryError::Fatal(AlgoError::Sim(e))) => Some(e),
            _ => None,
        }
    }

    /// Whether the run deadlocked: every live node blocked in a receive.
    fn is_deadlock(&self) -> bool {
        matches!(self.run_error(), Some(RunError::Deadlock { .. }))
    }

    /// Whether the failure implicates the machine that ran the job (a
    /// crash, deadlock, dead link, node panic, or damage recovery could
    /// not outrun) rather than the job's shape or the host.
    pub fn implicates_machine(&self) -> bool {
        use RunError::{Deadlock, LinkDead, NodeCrashed, NodePanicked};
        matches!(self, JobError::Recovery(RecoveryError::Exhausted { .. }))
            || matches!(
                self.run_error(),
                Some(NodeCrashed { .. } | Deadlock { .. } | LinkDead { .. } | NodePanicked { .. })
            )
    }
}

/// The CLI's one-line message; a deadlock reads as the simulator's own
/// diagnostic, naming every blocked node.
impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(e @ RunError::Deadlock { .. }) = self.run_error() {
            return write!(f, "{e}");
        }
        match self {
            JobError::Shape(m) | JobError::Operands(m) | JobError::Reference(m) => f.write_str(m),
            JobError::Sim(e) => write!(f, "{e}"),
            JobError::Recovery(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The CLI's exit code for how a job ended, `Ok(verified)` if it
/// produced a product: `0` verified, `3` deadlock, `2` anything else.
pub fn exit_code(end: Result<bool, &JobError>) -> i32 {
    match end {
        Ok(true) => 0,
        Err(e) if e.is_deadlock() => 3,
        _ => 2,
    }
}

/// The one acceptance rule, `max |Δ| ≤ 1e-9·n`: accept-if-within
/// rather than reject-if-beyond, so a NaN error fails.
pub fn accept(max_diff: f64, n: usize) -> bool {
    max_diff <= 1e-9 * n as f64
}

/// `A = random(seed)`, `B = random(seed + 1)` (wrapping), drawn
/// fallibly: storage that overflows or cannot be allocated is an error,
/// not an abort.
pub fn operands(n: usize, seed: u64) -> Result<(Matrix, Matrix), String> {
    let a = Matrix::try_random(n, n, seed)?;
    let b = Matrix::try_random(n, n, seed.wrapping_add(1))?;
    Ok((a, b))
}

/// FNV-1a 64 over the matrix's `f64::to_bits`, little-endian bytes —
/// the bit-exact result identity every front door reports. Two runs
/// agree on this hash iff their products are bitwise identical.
pub fn fingerprint(m: &Matrix) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &x in m.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// [`fingerprint`] as 16 hex digits, as `run` prints and serve answers.
pub fn fingerprint_hex(m: &Matrix) -> String {
    format!("{:016x}", fingerprint(m))
}

impl Job {
    /// Whether the algorithm accepts the shape: the raw order for a
    /// plain job, some padded order for an ABFT job.
    pub fn check(&self) -> Result<(), AlgoError> {
        match self.protection {
            Protection::Plain => self.algo.check(self.n, self.p),
            Protection::Abft(_) => padded_order(self.algo, self.n, self.p).map(drop),
        }
    }

    /// Runs the pipeline on `cfg`. `reference` asks an ABFT job to be
    /// checked against the host reference too; a plain job always is.
    /// The reference runs beside the multiplication (on a second thread
    /// once `n` is big enough to pay for one) and is joined before any
    /// outcome, error or not, is judged.
    pub fn run(&self, cfg: &MachineConfig, reference: bool) -> Result<JobOutcome, JobError> {
        let Job { algo, n, p, .. } = *self;
        self.check().map_err(|e| match self.protection {
            Protection::Plain => JobError::Shape(format!("{algo} cannot run n={n} on p={p}: {e}")),
            Protection::Abft(_) => JobError::Recovery(RecoveryError::Fatal(e)),
        })?;
        let (a, b) = operands(n, self.seed).map_err(JobError::Operands)?;
        let multiply = || {
            let (c, stats, abft) = match &self.protection {
                Protection::Plain => {
                    let res = algo.multiply(&a, &b, p, cfg).map_err(JobError::Sim)?;
                    (res.c, res.stats, None)
                }
                Protection::Abft(policy) => {
                    let (res, report) = multiply_with_recovery(algo, &a, &b, p, cfg, policy)
                        .map_err(JobError::Recovery)?;
                    let (outcome, augmented) = (res.outcome, res.augmented);
                    let abft = AbftRun {
                        outcome,
                        augmented,
                        report,
                    };
                    (res.c, res.stats, Some(abft))
                }
            };
            Ok((fingerprint_hex(&c), c, stats, abft))
        };
        let (run, reference) = if reference || matches!(self.protection, Protection::Plain) {
            // A reference on its own thread holds a core the run's
            // shards then do not take.
            let _reference_core =
                cubemm_simnet::cores::lease(usize::from(gemm::reference_takes_thread(&a, &b)));
            let (run, reference) = gemm::alongside_reference(&a, &b, multiply);
            (run, Some(reference))
        } else {
            (multiply(), None)
        };
        let (fingerprint, c, stats, abft) = run?;
        let reference = reference.transpose().map_err(JobError::Reference)?;
        let max_diff = reference.map(|r| c.max_abs_diff(&r));
        let verified = abft.as_ref().is_none_or(|x| x.outcome.is_good())
            && max_diff.is_none_or(|err| accept(err, n));
        Ok(JobOutcome {
            fingerprint,
            stats,
            abft,
            max_diff,
            verified,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemm_simnet::FaultPlan;

    fn job(algo: Algorithm, n: usize, p: usize, protection: Protection) -> Job {
        Job {
            algo,
            n,
            p,
            seed: 1,
            protection,
        }
    }

    fn abft() -> Protection {
        Protection::Abft(RecoveryPolicy::default())
    }

    #[test]
    fn the_reference_is_checked_when_asked_and_never_changes_the_product() {
        let cfg = MachineConfig::default();
        let plain = job(Algorithm::Cannon, 24, 16, Protection::Plain)
            .run(&cfg, false)
            .expect("plain job");
        assert!(plain.verified && plain.abft.is_none());
        assert!(plain.max_diff.is_some(), "a plain job is always checked");
        let protected = job(Algorithm::Cannon, 24, 16, abft())
            .run(&cfg, false)
            .expect("protected job");
        assert!(protected.verified && protected.max_diff.is_none());
        assert!(protected.abft.expect("abft run").augmented > 24);
        let checked = job(Algorithm::Cannon, 24, 16, abft())
            .run(&cfg, true)
            .expect("checked job");
        assert!(checked.verified && checked.max_diff.is_some_and(|e| accept(e, 24)));
        assert_eq!(checked.fingerprint, protected.fingerprint);
        assert_eq!(checked.stats, protected.stats);
    }

    #[test]
    fn every_error_keeps_its_exit_code() {
        let cfg = MachineConfig::default();
        let shape = job(Algorithm::Cannon, 25, 16, Protection::Plain)
            .run(&cfg, true)
            .unwrap_err();
        assert!(matches!(shape, JobError::Shape(_)), "{shape:?}");
        let padded = job(Algorithm::Cannon, 24, 6, abft()).run(&cfg, true);
        assert!(
            matches!(padded, Err(JobError::Recovery(RecoveryError::Fatal(_)))),
            "{padded:?}"
        );
        let big = job(Algorithm::Cannon, 4_000_000_000, 4, Protection::Plain)
            .run(&cfg, true)
            .unwrap_err();
        assert_eq!(
            big,
            JobError::Operands("cannot allocate a 4000000000 × 4000000000 matrix".into())
        );
        let dropping = MachineConfig::default().with_faults(FaultPlan::new().with_drop(0, 1, 0));
        for protection in [Protection::Plain, abft()] {
            let e = job(Algorithm::Cannon, 16, 4, protection)
                .run(&dropping, true)
                .unwrap_err();
            assert!(e.is_deadlock() && e.implicates_machine(), "{e:?}");
            assert_eq!(exit_code(Err(&e)), 3);
            assert!(e.to_string().contains("deadlock"), "{e}");
        }
        for e in [shape, big] {
            assert_eq!(exit_code(Err(&e)), 2);
            assert!(!e.implicates_machine());
        }
        assert_eq!(exit_code(Ok(true)), 0);
        assert_eq!(exit_code(Ok(false)), 2);
    }

    #[test]
    fn the_acceptance_rule_fails_nan() {
        assert!(accept(0.0, 1));
        assert!(accept(1e-9 * 24.0, 24));
        assert!(!accept(1e-6, 24));
        assert!(!accept(f64::NAN, 24));
    }

    #[test]
    fn the_seed_wraps_instead_of_overflowing() {
        let (a, b) = operands(4, u64::MAX).expect("tiny operands");
        assert_eq!(a, Matrix::random(4, 4, u64::MAX));
        assert_eq!(b, Matrix::random(4, 4, 0));
    }
}
