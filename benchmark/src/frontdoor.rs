//! The front door: real `cubemm` processes, timed from outside.
//!
//! Every end-to-end number comes from here, with tracing off. A CLI op
//! is one `cubemm` invocation timed from spawn to exit; a serve op is
//! one JSON line through a `cubemm serve` child, timed from the write of
//! the request line to the read of its response line. The load generator
//! is this one thread (a closed loop: the next op goes out only when an
//! earlier one has come back).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json;
use crate::workloads::{self, CliOp, OpSpec, ServeDraw, Workload};

/// Untimed ops before the first timed one (per set-up).
pub const CLI_WARMUP_OPS: usize = 3;
/// Untimed jobs through a freshly spawned serve child (per set-up).
pub const SERVE_WARMUP_JOBS: u64 = 200;
/// Worker threads of the serve child (and of the in-process pool the
/// traced pass compares it with). One, on purpose: this benchmark is
/// built for a 2-core host, where one worker plus the child's reader
/// thread plus the client leave no core oversubscribed. With two
/// workers the ten-seed spread of `ops_per_s` was 10–15 % (four runnable
/// threads on two cores, and seconds-long stretches at 60 % speed
/// depending on where the scheduler put them); with one it is ≈ 2 %.
pub const SERVE_WORKERS: usize = 1;
/// Jobs the single client keeps in flight.
pub const SERVE_WINDOW: usize = 8;
/// Serve throughput is the median over batches of this many responses.
pub const SERVE_BATCH: usize = 1000;
/// One response in this many is replayed in-process and compared.
pub const SERVE_SAMPLE_EVERY: u64 = 64;
/// How often a CLI workload's set-up is repeated; `setup_s` is the
/// median. (`--quick` sets up once.)
pub const SETUP_REPS: usize = 3;
/// The serve set-up is a twentieth of a second, so it can afford more
/// repeats, and needs them: the first spawn after a pause is twice as
/// slow as the rest.
pub const SERVE_SETUP_REPS: usize = 5;
/// Timed serve jobs per second of `--seconds`. The timed phase is a
/// fixed number of jobs (this rate × seconds, about what the service
/// sustains on the reference host, rounded up) rather than a deadline, so a seed
/// always means the same jobs, and the child's memory — which grows with
/// every machine-cache miss — is compared at equal work. A deadline of
/// twice `--seconds` still ends a run on a much slower system.
pub const SERVE_JOBS_PER_SECOND: f64 = 2000.0;

/// Where the program under test lives and where its children run: an
/// empty scratch directory inside the checkout, with the tuning file
/// pointed at a path that does not exist and the scalar override unset,
/// so nothing lying around on the host can move a number.
pub struct FrontDoor {
    bin: PathBuf,
    cwd: PathBuf,
}

impl FrontDoor {
    pub fn new() -> Result<FrontDoor, String> {
        let bin = match std::env::var_os("CUBEMM_BIN") {
            Some(p) => PathBuf::from(p),
            None => {
                let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
                PathBuf::from(target).join("release/cubemm")
            }
        };
        let bin = bin.canonicalize().map_err(|e| {
            format!(
                "program under test not found at {} ({e}); build it with \
                 `cargo build --release -p cubemm-cli` or run `bash benchmark/run.sh`",
                bin.display()
            )
        })?;
        let cwd = PathBuf::from(format!("benchmark/out/tmp-{}", std::process::id()));
        std::fs::create_dir_all(&cwd).map_err(|e| format!("creating {}: {e}", cwd.display()))?;
        let cwd = cwd
            .canonicalize()
            .map_err(|e| format!("resolving scratch directory: {e}"))?;
        Ok(FrontDoor { bin, cwd })
    }

    /// The tuning-file path handed to every child (and set in this
    /// process too, so the in-process replay resolves the same
    /// blocking): inside the scratch directory, never created.
    pub fn absent_tune_file(&self) -> PathBuf {
        self.cwd.join("no-such-tune.json")
    }

    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.current_dir(&self.cwd)
            .env("CUBEMM_TUNE_FILE", self.absent_tune_file())
            .env_remove("CUBEMM_FORCE_SCALAR");
        cmd
    }

    /// Runs one CLI op to completion and times it, spawn to exit.
    pub fn run_cli(&self, args: &[String]) -> CliResult {
        let start = Instant::now();
        let output = self.command().args(args).stdin(Stdio::null()).output();
        let wall = start.elapsed();
        match output {
            Ok(out) => CliResult {
                wall,
                code: out.status.code(),
                stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            },
            Err(e) => CliResult {
                wall,
                code: None,
                stdout: String::new(),
                stderr: format!("spawn failed: {e}"),
            },
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.cwd);
    }
}

pub struct CliResult {
    pub wall: Duration,
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

/// The value after the first `label` on any line of `text`, trimmed.
fn field_after<'a>(text: &'a str, label: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.split_once(label).map(|(_, rest)| rest.trim()))
}

/// Checks one finished CLI op against what its kind must print, and
/// returns the text a repeat of the same op must reproduce exactly:
/// fingerprint and virtual time for a `run`, the whole output for a
/// chaos campaign or a certification.
pub fn check_cli(op: &CliOp, res: &CliResult) -> Result<String, String> {
    if res.code != Some(0) {
        return Err(format!(
            "exit {:?}: {}",
            res.code,
            res.stderr.lines().next().unwrap_or("")
        ));
    }
    match &op.spec {
        OpSpec::Run { n, .. } => {
            let verified = field_after(&res.stdout, "max |Δ| =").ok_or("no `verified:` line")?;
            let delta: f64 = verified
                .parse()
                .map_err(|_| format!("unreadable max |Δ| {verified:?}"))?;
            if delta.is_nan() || delta > 1e-9 * *n as f64 {
                return Err(format!("max |Δ| = {delta:e} exceeds 1e-9·n"));
            }
            let fingerprint =
                field_after(&res.stdout, "fingerprint:").ok_or("no `fingerprint:` line")?;
            let elapsed = field_after(&res.stdout, "simulated comm time:")
                .ok_or("no `simulated comm time:` line")?;
            Ok(format!("{fingerprint} {elapsed}"))
        }
        OpSpec::Chaos { .. } => {
            if !res.stdout.contains(" 0 violations")
                || !res.stdout.contains("chaos: every oracle held")
            {
                return Err("campaign did not report every oracle holding".into());
            }
            Ok(res.stdout.clone())
        }
        OpSpec::Certify => {
            if !res
                .stdout
                .contains("42/42 symbolic certificates hold for all p = 2^d")
            {
                return Err("certifier did not report 42/42 certificates".into());
            }
            Ok(res.stdout.clone())
        }
    }
}

/// What the front-door pass of a CLI workload measured.
#[derive(Default)]
pub struct FrontDoorOutcome {
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Per-op wall latency in milliseconds with the op's kind, in issue
    /// order (serve jobs all carry the kind `job`).
    pub latencies_ms: Vec<(String, f64)>,
    /// Wall seconds of each timed cycle (CLI) or response batch (serve).
    pub cycle_s: Vec<f64>,
    /// Ops per cycle or batch.
    pub ops_per_cycle: usize,
    pub attempted: u64,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// CLI: the reproducible part of each distinct op's output, for the
    /// cross-check against the in-process replay.
    pub observed: BTreeMap<String, (CliOp, String)>,
    /// Serve: sampled `(request line, response line)` pairs.
    pub sampled: Vec<(String, String)>,
}

/// Key under which repeats of one op must agree: kind plus arguments
/// (two chaos ops of one kind but different seeds are different ops).
fn op_key(op: &CliOp) -> String {
    format!("{} [{}]", op.kind, op.args.join(" "))
}

fn timed_cli_op(fd: &FrontDoor, op: &CliOp, out: &mut FrontDoorOutcome) {
    let res = fd.run_cli(&op.args);
    out.attempted += 1;
    out.latencies_ms
        .push((op.kind.clone(), res.wall.as_secs_f64() * 1e3));
    match check_cli(op, &res) {
        Err(why) => out.failures.push(format!("{}: {why}", op_key(op))),
        Ok(text) => match out.observed.get(&op_key(op)) {
            Some((_, first)) if *first != text => out.failures.push(format!(
                "{}: output differs from an earlier run of the same op",
                op_key(op)
            )),
            Some(_) => {}
            None => {
                out.observed.insert(op_key(op), (op.clone(), text));
            }
        },
    }
}

/// Front-door pass of a CLI workload: repeated set-up (op-list
/// generation plus warm-up ops), then whole shuffled cycles until about
/// `seconds` of timed wall have passed — a cycle that would end further
/// from the target than stopping now is not started, and at least one
/// cycle always runs.
pub fn run_cli_workload(
    fd: &FrontDoor,
    workload: Workload,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
) -> FrontDoorOutcome {
    let mut out = FrontDoorOutcome::default();
    for _ in 0..setup_reps.max(1) {
        let start = Instant::now();
        let warm = workloads::canonical_cycle(workload, seed, 0);
        for op in warm.iter().take(CLI_WARMUP_OPS) {
            let res = fd.run_cli(&op.args);
            if let Err(why) = check_cli(op, &res) {
                out.failures.push(format!("warm-up {}: {why}", op_key(op)));
            }
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    for cycle in 0.. {
        let ops = workloads::shuffled_cycle(workload, seed, cycle);
        out.ops_per_cycle = ops.len();
        let cycle_start = Instant::now();
        for op in &ops {
            timed_cli_op(fd, op, &mut out);
        }
        out.cycle_s.push(cycle_start.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        let typical = elapsed / out.cycle_s.len() as f64;
        if elapsed + typical / 2.0 >= seconds {
            break;
        }
    }
    out
}

/// Request ids awaiting their response line. A response whose id is not
/// in flight (never sent, or answered twice) matches nothing.
#[derive(Default)]
pub struct Inflight {
    slots: Vec<(u64, Instant)>,
}

impl Inflight {
    pub fn sent(&mut self, id: u64, at: Instant) {
        self.slots.push((id, at));
    }

    /// Takes the send time of `id` out of flight, if it is in flight.
    pub fn answered(&mut self, id: u64) -> Option<Instant> {
        let at = self.slots.iter().position(|(i, _)| *i == id)?;
        Some(self.slots.swap_remove(at).1)
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// When a closed-loop pump stops issuing new jobs: after `jobs` jobs,
/// or at `deadline` if that comes first.
#[derive(Clone, Copy)]
pub struct Until {
    pub jobs: u64,
    pub deadline: Option<Instant>,
}

impl Until {
    pub fn jobs(jobs: u64) -> Until {
        Until {
            jobs,
            deadline: None,
        }
    }
}

/// What one pump through a serve child saw.
#[derive(Default)]
pub struct PumpOutcome {
    pub latencies_ms: Vec<f64>,
    /// Wall seconds per [`SERVE_BATCH`] responses.
    pub batch_s: Vec<f64>,
    pub sent: u64,
    pub failures: Vec<String>,
    pub sampled: Vec<(String, String)>,
    pub wall_s: f64,
}

/// A live `cubemm serve --workers 1 --queue 256` child on pipes.
pub struct ServeChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Jobs written to this child over its lifetime.
    pub submitted: u64,
}

impl ServeChild {
    pub fn spawn(fd: &FrontDoor) -> Result<ServeChild, String> {
        let mut child = fd
            .command()
            .args([
                "serve",
                "--workers",
                &SERVE_WORKERS.to_string(),
                "--queue",
                "256",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning cubemm serve: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("serve child has no stdout")?;
        Ok(ServeChild {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            submitted: 0,
        })
    }

    /// Closed loop with [`SERVE_WINDOW`] jobs in flight: each response
    /// read admits the next request, until `until` says stop; then the
    /// jobs still in flight are collected.
    pub fn pump(&mut self, draw: &mut ServeDraw, until: Until) -> PumpOutcome {
        let mut out = PumpOutcome::default();
        let mut inflight = Inflight::default();
        let mut kept: BTreeMap<u64, String> = BTreeMap::new();
        let Some(stdin) = self.stdin.as_mut() else {
            out.failures.push("serve child stdin already closed".into());
            return out;
        };
        let start = Instant::now();
        let mut batch_start = start;
        let more =
            |sent: u64| sent < until.jobs && until.deadline.is_none_or(|at| Instant::now() < at);
        let mut line = String::new();
        loop {
            while inflight.len() < SERVE_WINDOW && more(out.sent) {
                let id = draw.next_id();
                let mut request = draw.next_line();
                if id % SERVE_SAMPLE_EVERY == 0 {
                    kept.insert(id, request.clone());
                }
                request.push('\n');
                inflight.sent(id, Instant::now());
                out.sent += 1;
                if let Err(e) = stdin
                    .write_all(request.as_bytes())
                    .and_then(|()| stdin.flush())
                {
                    out.failures.push(format!("j{id}: writing request: {e}"));
                }
            }
            if inflight.is_empty() {
                break;
            }
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    out.failures.push(format!(
                        "serve child closed its stdout with {} job(s) in flight",
                        inflight.len()
                    ));
                    break;
                }
                Ok(_) => {}
            }
            let now = Instant::now();
            let response = line.trim_end();
            let doc = json::parse(response).unwrap_or(json::Json::Null);
            let id_text = doc.get("id").and_then(json::Json::as_str).unwrap_or("");
            let Some((id, sent_at)) = workloads::job_index(id_text)
                .and_then(|id| inflight.answered(id).map(|at| (id, at)))
            else {
                out.failures
                    .push(format!("response matches no job in flight: {response}"));
                continue;
            };
            out.latencies_ms
                .push(now.duration_since(sent_at).as_secs_f64() * 1e3);
            if doc.get("status").and_then(json::Json::as_str) != Some("ok") {
                out.failures.push(format!("j{id}: {response}"));
            }
            if let Some(request) = kept.remove(&id) {
                out.sampled.push((request, response.to_string()));
            }
            if out.latencies_ms.len() % SERVE_BATCH == 0 {
                out.batch_s
                    .push(now.duration_since(batch_start).as_secs_f64());
                batch_start = now;
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        self.submitted += out.sent;
        out
    }

    /// Closes the request stream, waits for the child to drain and
    /// exit, and checks its own account of the session: exit 0, every
    /// job submitted answered `ok`.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let mut summary = String::new();
        if let Some(mut err) = self.child.stderr.take() {
            let _ = err.read_to_string(&mut summary);
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for serve child: {e}"))?;
        if !status.success() {
            return Err(format!(
                "serve child exited with {status}: {}",
                summary.trim()
            ));
        }
        if !rest.trim().is_empty() {
            return Err("serve child printed responses nobody was waiting for".into());
        }
        let want = format!("{0} submitted, {0} ok, 0 failed", self.submitted);
        if !summary.contains(&want) {
            return Err(format!(
                "serve child's drain summary disagrees with the client (wanted `{want}`): {}",
                summary.trim()
            ));
        }
        Ok(())
    }
}

impl Drop for ServeChild {
    /// A child abandoned on an error path is killed and reaped, so the
    /// benchmark never leaves a process behind.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Front-door pass of `serve_mix`: repeated set-up (spawn the child,
/// boot its pool, push the warm-up jobs), then the timed closed loop —
/// [`SERVE_JOBS_PER_SECOND`] × `seconds` jobs — on the last child
/// spawned.
pub fn run_serve_workload(
    fd: &FrontDoor,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
) -> FrontDoorOutcome {
    let mut out = FrontDoorOutcome {
        ops_per_cycle: SERVE_BATCH,
        ..FrontDoorOutcome::default()
    };
    let mut draw = ServeDraw::new(seed);
    let mut live: Option<ServeChild> = None;
    for _ in 0..setup_reps.max(1) {
        if let Some(previous) = live.take() {
            if let Err(why) = previous.finish() {
                out.failures.push(format!("set-up: {why}"));
            }
        }
        let start = Instant::now();
        match ServeChild::spawn(fd) {
            Ok(mut child) => {
                let warm = child.pump(&mut draw, Until::jobs(SERVE_WARMUP_JOBS));
                out.failures
                    .extend(warm.failures.into_iter().map(|f| format!("warm-up {f}")));
                live = Some(child);
            }
            Err(why) => out.failures.push(why),
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let Some(mut child) = live else {
        out.attempted = 1;
        return out;
    };
    let until = Until {
        jobs: (seconds * SERVE_JOBS_PER_SECOND).round().max(1.0) as u64,
        deadline: Some(Instant::now() + Duration::from_secs_f64(2.0 * seconds)),
    };
    let pumped = child.pump(&mut draw, until);
    out.attempted = pumped.sent;
    out.latencies_ms = pumped
        .latencies_ms
        .into_iter()
        .map(|ms| ("job".to_string(), ms))
        .collect();
    out.cycle_s = pumped.batch_s;
    if out.cycle_s.is_empty() {
        // Fewer than one batch of responses (a very short run): the
        // whole timed phase is the one batch.
        out.ops_per_cycle = out.latencies_ms.len().max(1);
        out.cycle_s.push(pumped.wall_s);
    }
    out.failures.extend(pumped.failures);
    out.sampled = pumped.sampled;
    if let Err(why) = child.finish() {
        out.failures.push(why);
    }
    out
}
