//! The JSON-lines wire protocol of the multiply service.
//!
//! One request per line in, one response per line out, same order of
//! *completion* (not submission — jobs finish as the pool schedules
//! them; clients correlate by `id`). The encoding rides the simnet
//! crate's std-only JSON module, so the whole protocol — like the rest
//! of the workspace — needs no external crates.
//!
//! A request:
//!
//! ```json
//! {"id":"job-1","n":24,"p":16,"algo":"auto","abft":true,"priority":7,
//!  "deadline":50000,"faults":{"crashes":[{"node":3,"step":1}]}}
//! ```
//!
//! Every field except `id`, `n`, and `p` is optional; see
//! [`JobRequest`] for the defaults. A response is always one of the
//! typed statuses of [`JobStatus`] — the service never prints a
//! product matrix (results are fingerprinted, not shipped) and never
//! returns an unverified answer as `ok`.

use cubemm_core::Algorithm;
use cubemm_dense::gemm::Kernel;
use cubemm_dense::Matrix;
use cubemm_simnet::json::Json;
use cubemm_simnet::{FaultPlan, FaultPlanError, PortModel};

/// Which algorithm a job asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Let the service pick the §5 model's winner for `(n, p)`.
    Auto,
    /// A specific registry algorithm.
    Named(Algorithm),
}

/// One parsed multiply job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen correlation token, echoed on the response.
    pub id: String,
    /// Matrix order (the job multiplies two `n × n` matrices).
    pub n: usize,
    /// Simulated machine size (power of two).
    pub p: usize,
    /// `"auto"` (default) or an algorithm name.
    pub algo: AlgoChoice,
    /// Local GEMM kernel (`blocked[:TILE] | packed[:THREADS]`).
    pub kernel: Kernel,
    /// `"one"` (default) or `"multi"` port model.
    pub port: PortModel,
    /// Message start-up cost (default: the paper's 150).
    pub ts: f64,
    /// Per-word cost (default: the paper's 3).
    pub tw: f64,
    /// Seed of the deterministic inputs: `A = Matrix::random(n, n,
    /// seed)`, `B = Matrix::random(n, n, seed + 1)` — exactly what
    /// `cubemm run --seed` multiplies, so a served job and a one-shot
    /// run are byte-comparable.
    pub seed: u64,
    /// Checksum-protect the run and recover from faults (default true).
    pub abft: bool,
    /// 0 (shed first) ..= 9 (shed last); default 5.
    pub priority: u8,
    /// Virtual-time budget: elapsed + recovery backoff must not exceed
    /// it, else the response is `deadline`. `None` = no deadline.
    pub deadline: Option<f64>,
    /// Recovery attempt budget (ABFT jobs; default 4).
    pub attempts: usize,
    /// Deterministic fault injection for this job's machine.
    pub faults: FaultPlan,
}

/// What happened to a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// A verified product. `fingerprint` is the FNV-1a 64 hash of the
    /// result's bit pattern (see [`fingerprint`]).
    Ok {
        /// The algorithm that ran (resolved, if the request said auto).
        algo: &'static str,
        /// Virtual communication time of the final attempt.
        elapsed: f64,
        /// Total virtual backoff charged by recovery retries.
        backoff: f64,
        /// Runs performed (1 = clean first try).
        attempts: usize,
        /// `clean`, `corrected`, `recovered`, or `verified` (non-ABFT).
        outcome: &'static str,
        /// FNV-1a 64 over the product's `f64::to_bits`, hex.
        fingerprint: String,
    },
    /// The queue is full and nothing on it was lower-priority; retry
    /// after the hinted (wall-clock) delay.
    Overloaded {
        /// Deterministic backpressure hint derived from queue depth.
        retry_after_ms: u64,
    },
    /// The job can never run here (no algorithm for the shape, service
    /// draining).
    Rejected {
        /// Why.
        error: String,
    },
    /// The line was not a valid request. Malformed input never takes
    /// down the stream — the error is answered in-band.
    Malformed {
        /// Why.
        error: String,
    },
    /// The job ran but produced no trustworthy product (recovery
    /// exhausted, verification failed, deadlock).
    Failed {
        /// Why.
        error: String,
    },
    /// A verified product existed but missed the job's virtual-time
    /// deadline; the product is withheld (deadline semantics are "late
    /// is useless"), only the cost accounting is reported.
    Deadline {
        /// Virtual time actually spent (elapsed + backoff).
        spent: f64,
        /// The budget it exceeded.
        deadline: f64,
    },
}

impl JobStatus {
    /// The `status` field value on the wire.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Ok { .. } => "ok",
            JobStatus::Overloaded { .. } => "overloaded",
            JobStatus::Rejected { .. } => "rejected",
            JobStatus::Malformed { .. } => "malformed",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Deadline { .. } => "deadline",
        }
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResponse {
    /// The request's `id` (empty if the line was too malformed to have
    /// one).
    pub id: String,
    /// The typed outcome.
    pub status: JobStatus,
}

impl JobResponse {
    /// Serializes the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("status".to_string(), Json::Str(self.status.tag().into())),
        ];
        match &self.status {
            JobStatus::Ok {
                algo,
                elapsed,
                backoff,
                attempts,
                outcome,
                fingerprint,
            } => {
                fields.push(("algo".into(), Json::Str((*algo).into())));
                fields.push(("elapsed".into(), Json::Num(*elapsed)));
                fields.push(("backoff".into(), Json::Num(*backoff)));
                fields.push(("attempts".into(), Json::Num(*attempts as f64)));
                fields.push(("outcome".into(), Json::Str((*outcome).into())));
                fields.push(("fingerprint".into(), Json::Str(fingerprint.clone())));
            }
            JobStatus::Overloaded { retry_after_ms } => {
                fields.push(("retry_after_ms".into(), Json::Num(*retry_after_ms as f64)));
            }
            JobStatus::Rejected { error }
            | JobStatus::Malformed { error }
            | JobStatus::Failed { error } => {
                fields.push(("error".into(), Json::Str(error.clone())));
            }
            JobStatus::Deadline { spent, deadline } => {
                fields.push(("spent".into(), Json::Num(*spent)));
                fields.push(("deadline".into(), Json::Num(*deadline)));
            }
        }
        Json::Obj(fields).encode()
    }
}

/// FNV-1a 64 over the matrix's `f64::to_bits`, little-endian bytes —
/// the service's bit-exact result identity. Two runs agree on this hash
/// iff their products are bitwise identical.
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

/// [`fingerprint`] in the wire format (16 hex digits).
pub fn fingerprint_hex(m: &Matrix) -> String {
    format!("{:016x}", fingerprint(m))
}

fn field_index(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_index()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("field {key:?} must be a number"))?;
            if x.is_finite() {
                Ok(Some(x))
            } else {
                Err(format!("field {key:?} must be finite"))
            }
        }
    }
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

/// Parses one request line. `Err` carries `(id-if-recoverable, why)` so
/// the caller can answer `malformed` with the client's own token when
/// at least the `id` field was readable.
pub fn parse_request(line: &str) -> Result<JobRequest, (String, String)> {
    let doc = cubemm_simnet::json::parse(line).map_err(|e| (String::new(), e))?;
    let id = match field_str(&doc, "id") {
        Ok(Some(id)) => id.to_string(),
        Ok(None) => return Err((String::new(), "missing field \"id\"".into())),
        Err(e) => return Err((String::new(), e)),
    };
    let fail = |e: String| (id.clone(), e);
    let n = field_index(&doc, "n")
        .map_err(fail)?
        .ok_or_else(|| fail("missing field \"n\"".into()))? as usize;
    let p = field_index(&doc, "p")
        .map_err(fail)?
        .ok_or_else(|| fail("missing field \"p\"".into()))? as usize;
    if n == 0 || p == 0 {
        return Err(fail("\"n\" and \"p\" must be positive".into()));
    }
    let algo = match field_str(&doc, "algo").map_err(fail)? {
        None | Some("auto") => AlgoChoice::Auto,
        Some(name) => AlgoChoice::Named(
            name.parse::<Algorithm>()
                .map_err(|e| fail(format!("field \"algo\": {e}")))?,
        ),
    };
    let kernel = match field_str(&doc, "kernel").map_err(fail)? {
        None => Kernel::default(),
        Some(s) => s
            .parse()
            .map_err(|e| fail(format!("field \"kernel\": {e}")))?,
    };
    let port = match field_str(&doc, "port").map_err(fail)? {
        None | Some("one") | Some("one-port") => PortModel::OnePort,
        Some("multi") | Some("multi-port") => PortModel::MultiPort,
        Some(other) => {
            return Err(fail(format!(
                "field \"port\": unknown model {other:?} (use one|multi)"
            )))
        }
    };
    // Every job runs on the simulator's one event loop; older clients
    // may still name it.
    match field_str(&doc, "engine").map_err(fail)? {
        None | Some("event") => {}
        Some(other) => {
            return Err(fail(format!(
                "field \"engine\": {other:?} is not available (the threaded engine was \
                 removed; every job runs on the event engine)"
            )))
        }
    }
    let paper = cubemm_simnet::CostParams::PAPER;
    let ts = field_f64(&doc, "ts").map_err(fail)?.unwrap_or(paper.ts);
    let tw = field_f64(&doc, "tw").map_err(fail)?.unwrap_or(paper.tw);
    if ts < 0.0 || tw < 0.0 {
        return Err(fail("\"ts\" and \"tw\" must be non-negative".into()));
    }
    let seed = field_index(&doc, "seed").map_err(fail)?.unwrap_or(1);
    let abft = match doc.get("abft") {
        None | Some(Json::Null) => true,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| fail("field \"abft\" must be a boolean".into()))?,
    };
    let priority = field_index(&doc, "priority").map_err(fail)?.unwrap_or(5);
    if priority > 9 {
        return Err(fail("field \"priority\" must be 0..=9".into()));
    }
    let deadline = field_f64(&doc, "deadline").map_err(fail)?;
    if deadline.is_some_and(|d| d <= 0.0) {
        return Err(fail("field \"deadline\" must be positive".into()));
    }
    let attempts = field_index(&doc, "attempts").map_err(fail)?.unwrap_or(4) as usize;
    if attempts == 0 {
        return Err(fail("field \"attempts\" must be at least 1".into()));
    }
    let faults = match doc.get("faults") {
        None | Some(Json::Null) => FaultPlan::new(),
        Some(v) => {
            let bad = |e: FaultPlanError| fail(format!("field \"faults\": {e}"));
            let plan = FaultPlan::from_json_value(v).map_err(bad)?;
            plan.validate(p).map_err(bad)?;
            plan
        }
    };
    Ok(JobRequest {
        id,
        n,
        p,
        algo,
        kernel,
        port,
        ts,
        tw,
        seed,
        abft,
        priority: priority as u8,
        deadline,
        attempts,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_the_documented_defaults() {
        let req = parse_request(r#"{"id":"j1","n":24,"p":16}"#).expect("minimal request");
        assert_eq!(req.id, "j1");
        assert_eq!((req.n, req.p), (24, 16));
        assert_eq!(req.algo, AlgoChoice::Auto);
        assert_eq!(req.kernel, Kernel::default());
        assert_eq!(req.port, PortModel::OnePort);
        assert_eq!((req.ts, req.tw), (150.0, 3.0));
        assert_eq!(req.seed, 1);
        assert!(req.abft);
        assert_eq!(req.priority, 5);
        assert_eq!(req.deadline, None);
        assert_eq!(req.attempts, 4);
        assert!(req.faults.is_empty());
    }

    #[test]
    fn full_request_round_trips_every_field() {
        let line = concat!(
            r#"{"id":"j2","n":32,"p":8,"algo":"cannon","kernel":"blocked:32","#,
            r#""port":"multi","engine":"event","ts":10,"tw":1,"seed":7,"abft":false,"#,
            r#""priority":9,"deadline":5000,"attempts":2,"#,
            r#""faults":{"crashes":[{"node":3,"step":1}]}}"#
        );
        let req = parse_request(line).expect("full request");
        assert_eq!(req.algo, AlgoChoice::Named(Algorithm::Cannon));
        assert_eq!(req.kernel, Kernel::Blocked(32));
        assert_eq!(req.port, PortModel::MultiPort);
        assert_eq!((req.ts, req.tw), (10.0, 1.0));
        assert_eq!(req.seed, 7);
        assert!(!req.abft);
        assert_eq!(req.priority, 9);
        assert_eq!(req.deadline, Some(5000.0));
        assert_eq!(req.attempts, 2);
        assert_eq!(req.faults.crash_step(3), Some(1));
    }

    #[test]
    fn malformed_lines_keep_the_id_when_it_parsed() {
        // Unparseable JSON: no id to echo.
        let (id, _) = parse_request("not json").unwrap_err();
        assert!(id.is_empty());
        // Valid JSON with an id but a bad field: the id survives.
        let (id, err) = parse_request(r#"{"id":"j3","n":24,"p":16,"priority":12}"#).unwrap_err();
        assert_eq!(id, "j3");
        assert!(err.contains("priority"), "{err}");
        // Missing n.
        let (id, err) = parse_request(r#"{"id":"j4","p":16}"#).unwrap_err();
        assert_eq!(id, "j4");
        assert!(err.contains("\"n\""), "{err}");
        // Fault plan that doesn't fit the machine.
        let (_, err) =
            parse_request(r#"{"id":"j5","n":24,"p":4,"faults":{"crashes":[{"node":9,"step":0}]}}"#)
                .unwrap_err();
        assert!(err.contains("faults"), "{err}");
    }

    #[test]
    fn responses_encode_as_single_typed_lines() {
        let ok = JobResponse {
            id: "a".into(),
            status: JobStatus::Ok {
                algo: "cannon",
                elapsed: 1234.5,
                backoff: 16.0,
                attempts: 2,
                outcome: "recovered",
                fingerprint: "00ff00ff00ff00ff".into(),
            },
        };
        let line = ok.encode();
        assert!(!line.contains('\n'));
        let doc = cubemm_simnet::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert!(doc.get("engine").is_none(), "{line}");
        assert_eq!(doc.get("attempts").and_then(Json::as_index), Some(2));
        let over = JobResponse {
            id: "b".into(),
            status: JobStatus::Overloaded { retry_after_ms: 75 },
        };
        let doc = cubemm_simnet::json::parse(&over.encode()).expect("valid JSON");
        assert_eq!(doc.get("retry_after_ms").and_then(Json::as_index), Some(75));
    }

    #[test]
    fn engine_field_accepts_only_the_event_engine() {
        let plain = parse_request(r#"{"id":"e0","n":24,"p":16}"#).expect("no engine field");
        let named = parse_request(r#"{"id":"e0","n":24,"p":16,"engine":"event"}"#)
            .expect("the event engine");
        assert_eq!(named, plain);
        for engine in ["threaded", "fiber"] {
            let line = format!(r#"{{"id":"e1","n":24,"p":16,"engine":"{engine}"}}"#);
            let (id, err) = parse_request(&line).unwrap_err();
            assert_eq!(id, "e1");
            assert!(err.contains("threaded engine was removed"), "{err}");
        }
    }

    #[test]
    fn kernel_field_accepts_only_the_product_kernels() {
        let kernel =
            |spec: &str| parse_request(&format!(r#"{{"id":"k","n":24,"p":16,"kernel":"{spec}"}}"#));
        for (spec, want) in [
            ("blocked", Kernel::Blocked(64)),
            ("blocked:8", Kernel::Blocked(8)),
            ("packed", Kernel::packed()),
            ("packed:0", Kernel::packed_mt(0)),
            ("packed:3", Kernel::packed_mt(3)),
        ] {
            assert_eq!(kernel(spec).expect(spec).kernel, want, "{spec}");
        }
        for retired in ["naive", "ikj"] {
            let (id, err) = kernel(retired).unwrap_err();
            assert_eq!(id, "k");
            assert_eq!(
                err,
                format!(
                    "field \"kernel\": {retired:?}: unknown kernel \
                     (use blocked[:TILE]|packed[:THREADS])"
                )
            );
        }
        for bad in ["blocked:0", "packed:two", "simd"] {
            let (_, err) = kernel(bad).unwrap_err();
            assert!(err.starts_with("field \"kernel\": "), "{err}");
        }
    }

    #[test]
    fn fingerprint_is_bit_exact_not_value_loose() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // -0.0 == 0.0 numerically but differs bitwise: the fingerprint
        // must see the difference.
        let z = Matrix::from_fn(1, 1, |_, _| 0.0);
        let nz = Matrix::from_fn(1, 1, |_, _| -0.0);
        assert_ne!(fingerprint(&z), fingerprint(&nz));
        assert_eq!(fingerprint_hex(&a).len(), 16);
    }
}
