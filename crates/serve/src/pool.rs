//! The machine pool: admission control, a bounded priority queue, and
//! quarantine-and-reboot healing.
//!
//! Jobs enter through [`ServePool::submit`], which answers *immediately*
//! when the job cannot be queued — the queue is strictly bounded and the
//! pool never buffers without limit:
//!
//! * a full queue sheds its lowest-priority newest entry if the
//!   newcomer outranks it, and otherwise answers the newcomer
//!   `overloaded` with a deterministic `retry_after_ms` hint,
//! * a draining pool answers `rejected` without touching the queue.
//!
//! Workers pull the highest-priority oldest job, execute it — the whole
//! simulated machine runs on the worker's own thread, whatever its `p`
//! — and respond through the job's own responder callback.
//!
//! Machines are cheap to boot — a validated [`Machine`] is pure
//! configuration — so the pool keeps one per *job shape* (`p`, port,
//! costs) in a shared cache: same-shape jobs reuse the validated machine
//! instead of re-validating per boot. Jobs carrying fault plans are never cached
//! (their machine options are job-specific), and a run only honors a
//! cached machine whose options still match the job exactly, so the
//! cache can change cost, never answers.
//!
//! A job whose run tripped a machine-level fault (crash, corruption,
//! deadlock) sends its worker's machine through quarantine: the whole
//! machine cache is evicted (nothing validated before the fault is
//! trusted after it), and the worker boots a self-test on its own
//! 2-node machine — validated once at worker start — returning to the
//! queue only when the self-test passes. The queue keeps draining
//! through other workers the whole time.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use cubemm_simnet::{CostParams, Machine, MachineOptions, PortModel};

use crate::exec::{execute_on, machine_for};
use crate::protocol::{JobRequest, JobResponse, JobStatus};

/// Where a job's answer goes (stdout writer, socket writer, test
/// collector). Called exactly once per submitted job, from an arbitrary
/// pool thread.
pub type Responder = Arc<dyn Fn(JobResponse) + Send + Sync>;

/// Pool shape.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one simulated machine at a time).
    pub workers: usize,
    /// Bounded queue capacity; beyond it the pool sheds or pushes back.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 256,
        }
    }
}

/// Monotonic service counters; a snapshot is returned by
/// [`ServePool::stats`] and [`ServePool::drain`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls to [`ServePool::submit`].
    pub submitted: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `failed` responses.
    pub failed: u64,
    /// `deadline` responses.
    pub deadline_missed: u64,
    /// `rejected` responses (no algorithm for the shape, or draining).
    pub rejected: u64,
    /// `overloaded` responses to *newcomers* (queue full, no shed).
    pub overloaded: u64,
    /// Queued jobs shed (answered `overloaded`) to admit a
    /// higher-priority newcomer.
    pub shed: u64,
    /// Machine-fault quarantines entered.
    pub quarantines: u64,
    /// Successful reboot self-tests (machines returned to service).
    pub reboots: u64,
    /// Jobs that reused a cached same-shape machine instead of
    /// validating a fresh one.
    pub machine_reuses: u64,
    /// Cached machines evicted by quarantines.
    pub machine_evictions: u64,
}

impl PoolStats {
    /// Every response the pool produced (each submitted job gets
    /// exactly one).
    pub fn responses(&self) -> u64 {
        self.ok + self.failed + self.deadline_missed + self.rejected + self.overloaded + self.shed
    }
}

struct QueuedJob {
    req: JobRequest,
    responder: Responder,
    /// Submission order, for oldest-first within a priority class.
    seq: u64,
}

struct QueueState {
    queue: VecDeque<QueuedJob>,
    draining: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work: Condvar,
    queue_cap: usize,
    stats: Mutex<PoolStats>,
    seq: AtomicU64,
    /// Validated machines by job shape, reused across same-shape jobs
    /// and evicted wholesale on quarantine.
    machines: Mutex<HashMap<MachineKey, Machine>>,
}

/// The machine-identity of a fault-free job: every field of its
/// [`MachineOptions`] the wire protocol can vary. Two jobs with equal
/// keys boot byte-identical machines. Costs are keyed by bit pattern —
/// exact, no float comparison subtleties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MachineKey {
    p: usize,
    port: PortModel,
    ts_bits: u64,
    tw_bits: u64,
}

impl MachineKey {
    fn of(req: &JobRequest) -> MachineKey {
        MachineKey {
            p: req.p,
            port: req.port,
            ts_bits: req.ts.to_bits(),
            tw_bits: req.tw.to_bits(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic backpressure hint: deeper queue, longer suggested
/// retry. No wall clock involved, so responses stay reproducible.
fn retry_after_ms(depth: usize) -> u64 {
    50 + 25 * depth as u64
}

/// A running service pool. Dropping without [`ServePool::drain`] leaks
/// the worker threads' join handles (they exit once drained); call
/// `drain` for a clean shutdown.
pub struct ServePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServePool {
    /// Boots the pool: spawns the workers and prepares (validates) each
    /// worker's self-test machine once, up front.
    pub fn start(config: ServeConfig) -> ServePool {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                draining: false,
            }),
            work: Condvar::new(),
            queue_cap: config.queue_cap.max(1),
            stats: Mutex::new(PoolStats::default()),
            seq: AtomicU64::new(0),
            machines: Mutex::new(HashMap::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                #[allow(
                    clippy::expect_used,
                    reason = "thread spawn failure at pool boot is unrecoverable"
                )]
                std::thread::Builder::new()
                    .name(format!("cubemm-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning serve pool worker")
            })
            .collect();
        ServePool { shared, workers }
    }

    /// Submits one job. Returns `true` if the job was queued for
    /// execution; `false` means it was answered immediately (rejected,
    /// overloaded, or it displaced nothing). Either way the responder
    /// is called exactly once for this job, now or later.
    pub fn submit(&self, req: JobRequest, responder: Responder) -> bool {
        let shared = &self.shared;
        lock(&shared.stats).submitted += 1;
        let mut st = lock(&shared.state);
        if st.draining {
            drop(st);
            let resp = JobResponse {
                id: req.id,
                status: JobStatus::Rejected {
                    error: "service is draining".to_string(),
                },
            };
            lock(&shared.stats).rejected += 1;
            responder(resp);
            return false;
        }
        if st.queue.len() >= shared.queue_cap {
            // Full. Shed the weakest queued job if the newcomer strictly
            // outranks it; otherwise push back on the newcomer. Swap
            // and enqueue happen under one lock, so the queue bound is
            // exact — the shed job's response goes out after unlocking.
            let weakest = st
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| (j.req.priority, std::cmp::Reverse(j.seq)))
                .map(|(i, j)| (i, j.req.priority));
            match weakest {
                Some((i, weakest_priority)) if weakest_priority < req.priority => {
                    #[allow(
                        clippy::expect_used,
                        reason = "index i came from enumerate() over the same queue under the same lock"
                    )]
                    let shed = st.queue.remove(i).expect("weakest entry vanished");
                    st.queue.push_back(QueuedJob {
                        req,
                        responder,
                        seq: shared.seq.fetch_add(1, Ordering::Relaxed),
                    });
                    let depth = st.queue.len();
                    shared.work.notify_one();
                    drop(st);
                    lock(&shared.stats).shed += 1;
                    (shed.responder)(JobResponse {
                        id: shed.req.id,
                        status: JobStatus::Overloaded {
                            retry_after_ms: retry_after_ms(depth),
                        },
                    });
                    return true;
                }
                _ => {
                    let depth = st.queue.len();
                    drop(st);
                    lock(&shared.stats).overloaded += 1;
                    responder(JobResponse {
                        id: req.id,
                        status: JobStatus::Overloaded {
                            retry_after_ms: retry_after_ms(depth),
                        },
                    });
                    return false;
                }
            }
        }
        st.queue.push_back(QueuedJob {
            req,
            responder,
            seq: shared.seq.fetch_add(1, Ordering::Relaxed),
        });
        shared.work.notify_one();
        true
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> PoolStats {
        lock(&self.shared.stats).clone()
    }

    /// Clean shutdown: stop admitting, let the workers finish every
    /// queued job, join them, and return the final counters.
    pub fn drain(self) -> PoolStats {
        {
            let mut st = lock(&self.shared.state);
            st.draining = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers {
            // A worker that panicked already failed its job loudly;
            // drain still collects the rest.
            let _ = handle.join();
        }
        lock(&self.shared.stats).clone()
    }
}

/// Picks the next job: highest priority first, oldest within a class.
fn pop_next(queue: &mut VecDeque<QueuedJob>) -> Option<QueuedJob> {
    let best = queue
        .iter()
        .enumerate()
        .max_by_key(|(_, j)| (j.req.priority, std::cmp::Reverse(j.seq)))
        .map(|(i, _)| i)?;
    queue.remove(best)
}

/// Looks up — or validates and caches — the reusable machine for this
/// job's shape. Jobs with fault plans never hit the cache: their
/// machine options are job-specific.
fn cached_machine(shared: &Shared, req: &JobRequest) -> Option<Machine> {
    if !req.faults.is_empty() {
        return None;
    }
    let key = MachineKey::of(req);
    let hit = lock(&shared.machines).get(&key).cloned();
    if let Some(machine) = hit {
        lock(&shared.stats).machine_reuses += 1;
        return Some(machine);
    }
    let machine = machine_for(req).ok()?;
    lock(&shared.machines).insert(key, machine.clone());
    Some(machine)
}

fn worker_loop(shared: &Shared) {
    // Validated once per worker: a reboot self-test re-boots the
    // 2-node machine but never re-validates the configuration.
    let self_test = Machine::new(
        2,
        MachineOptions::paper(PortModel::OnePort, CostParams::PAPER),
    );
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = pop_next(&mut st.queue) {
                    break job;
                }
                if st.draining {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let prepared = cached_machine(shared, &job.req);
        let outcome = execute_on(&job.req, prepared);
        {
            let mut stats = lock(&shared.stats);
            match &outcome.response.status {
                JobStatus::Ok { .. } => stats.ok += 1,
                JobStatus::Failed { .. } => stats.failed += 1,
                JobStatus::Deadline { .. } => stats.deadline_missed += 1,
                JobStatus::Rejected { .. } => stats.rejected += 1,
                JobStatus::Overloaded { .. } => stats.overloaded += 1,
                JobStatus::Malformed { .. } => {}
            }
        }
        (job.responder)(outcome.response);
        if outcome.machine_fault {
            quarantine_and_reboot(shared, &self_test);
        }
    }
}

/// Takes this worker's machine out of service: evicts every cached
/// machine (nothing validated before the fault is trusted after it) and
/// boots a self-test on the worker's own pre-validated configuration
/// until it passes. The rest of the pool keeps serving the queue
/// meanwhile.
fn quarantine_and_reboot(shared: &Shared, self_test: &Result<Machine, cubemm_simnet::RunError>) {
    let evicted = {
        let mut machines = lock(&shared.machines);
        let n = machines.len() as u64;
        machines.clear();
        n
    };
    {
        let mut stats = lock(&shared.stats);
        stats.quarantines += 1;
        stats.machine_evictions += evicted;
    }
    let Ok(machine) = self_test else {
        // The self-test config itself failed to validate (cannot happen
        // for the fixed 2-node paper machine); count the quarantine but
        // skip the boot.
        return;
    };
    // Two nodes exchange a token and verify it: the machine, its
    // channels, and its clocks all work.
    let booted = machine.run(vec![1.0f64, 2.0f64], |mut proc, token| async move {
        let partner = proc.id() ^ 1;
        let got = proc.exchange(partner, 0xbeef, [token]).await;
        got.first().copied().unwrap_or(f64::NAN)
    });
    if let Ok(out) = booted {
        if out.outputs == [2.0, 1.0] {
            lock(&shared.stats).reboots += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use std::sync::mpsc;

    fn req(line: &str) -> JobRequest {
        parse_request(line).expect("test request")
    }

    /// A responder that records every response it sees.
    fn collector() -> (Responder, Arc<Mutex<Vec<JobResponse>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let responder: Responder = Arc::new(move |resp| lock(&sink).push(resp));
        (responder, seen)
    }

    #[test]
    fn jobs_flow_through_and_drain_reports_them() {
        let pool = ServePool::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let (responder, seen) = collector();
        for i in 0..6 {
            let line = format!(r#"{{"id":"j{i}","n":24,"p":16,"algo":"cannon","seed":{i}}}"#);
            assert!(pool.submit(req(&line), Arc::clone(&responder)));
        }
        let stats = pool.drain();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.ok, 6);
        assert_eq!(stats.responses(), 6);
        let seen = lock(&seen);
        assert_eq!(seen.len(), 6);
        assert!(seen
            .iter()
            .all(|r| matches!(r.status, JobStatus::Ok { .. })));
    }

    /// Wedges the pool's single worker on one job (the responder blocks
    /// until released), so queue-level behavior can be asserted
    /// deterministically.
    fn wedge(pool: &ServePool) -> (mpsc::Sender<()>, mpsc::Receiver<()>) {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let blocker: Responder = Arc::new(move |_| {
            let _ = started_tx.send(());
            let _ = lock(&release_rx).recv();
        });
        assert!(pool.submit(
            req(r#"{"id":"wedge","n":24,"p":16,"algo":"cannon"}"#),
            blocker
        ));
        let started = started_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .is_ok();
        assert!(started, "wedge job never reached its responder");
        (release_tx, started_rx)
    }

    #[test]
    fn full_queue_pushes_back_with_a_typed_overload() {
        let pool = ServePool::start(ServeConfig {
            workers: 1,
            queue_cap: 2,
        });
        let (release, _started) = wedge(&pool);
        let (responder, seen) = collector();
        // Fill the queue (the worker is wedged, so nothing drains).
        for i in 0..2 {
            let line = format!(r#"{{"id":"q{i}","n":24,"p":16,"algo":"cannon"}}"#);
            assert!(pool.submit(req(&line), Arc::clone(&responder)));
        }
        // Equal priority: the newcomer is pushed back, queue untouched.
        assert!(!pool.submit(
            req(r#"{"id":"extra","n":24,"p":16,"algo":"cannon"}"#),
            Arc::clone(&responder)
        ));
        {
            let seen = lock(&seen);
            let extra = seen.iter().find(|r| r.id == "extra").expect("answered");
            assert!(
                matches!(extra.status, JobStatus::Overloaded { retry_after_ms } if retry_after_ms > 0)
            );
        }
        drop(release); // un-wedge; the queued jobs drain
        let stats = pool.drain();
        assert_eq!(stats.overloaded, 1);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.ok, 3); // wedge + q0 + q1
        assert_eq!(stats.responses(), stats.submitted);
    }

    #[test]
    fn higher_priority_newcomer_sheds_the_weakest_queued_job() {
        let pool = ServePool::start(ServeConfig {
            workers: 1,
            queue_cap: 2,
        });
        let (release, _started) = wedge(&pool);
        let (responder, seen) = collector();
        assert!(pool.submit(
            req(r#"{"id":"low","n":24,"p":16,"algo":"cannon","priority":1}"#),
            Arc::clone(&responder)
        ));
        assert!(pool.submit(
            req(r#"{"id":"mid","n":24,"p":16,"algo":"cannon","priority":5}"#),
            Arc::clone(&responder)
        ));
        // Priority 9 newcomer: the priority-1 job is shed to make room.
        assert!(pool.submit(
            req(r#"{"id":"urgent","n":24,"p":16,"algo":"cannon","priority":9}"#),
            Arc::clone(&responder)
        ));
        {
            let seen = lock(&seen);
            let low = seen.iter().find(|r| r.id == "low").expect("low answered");
            assert!(matches!(low.status, JobStatus::Overloaded { .. }));
        }
        drop(release);
        let stats = pool.drain();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.ok, 3); // wedge + mid + urgent
        let seen = lock(&seen);
        let urgent = seen.iter().find(|r| r.id == "urgent").expect("answered");
        assert!(matches!(urgent.status, JobStatus::Ok { .. }));
    }

    #[test]
    fn draining_pool_rejects_new_work() {
        let pool = ServePool::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // Mark draining through the shared state, then submit.
        lock(&pool.shared.state).draining = true;
        let (responder, seen) = collector();
        assert!(!pool.submit(
            req(r#"{"id":"late","n":24,"p":16,"algo":"cannon"}"#),
            responder
        ));
        assert!(matches!(lock(&seen)[0].status, JobStatus::Rejected { .. }));
        let stats = pool.drain();
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn machine_faults_quarantine_and_reboot_without_draining_the_queue() {
        let pool = ServePool::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let (responder, seen) = collector();
        // Interleave crashing and healthy jobs.
        for i in 0..8 {
            let line = if i % 2 == 0 {
                format!(
                    r#"{{"id":"c{i}","n":24,"p":16,"algo":"cannon","seed":{i},"faults":{{"crashes":[{{"node":3,"step":1}}]}}}}"#
                )
            } else {
                format!(r#"{{"id":"h{i}","n":24,"p":16,"algo":"cannon","seed":{i}}}"#)
            };
            assert!(pool.submit(req(&line), Arc::clone(&responder)));
        }
        let stats = pool.drain();
        assert_eq!(stats.ok, 8, "every job must still be answered ok");
        assert_eq!(stats.quarantines, 4, "each crashed run quarantines");
        assert_eq!(stats.reboots, 4, "each quarantine reboots successfully");
        let seen = lock(&seen);
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn same_shape_jobs_reuse_one_cached_machine_bitwise_identically() {
        let pool = ServePool::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (responder, seen) = collector();
        for i in 0..4 {
            let line = format!(r#"{{"id":"s{i}","n":24,"p":16,"algo":"cannon","seed":7}}"#);
            assert!(pool.submit(req(&line), Arc::clone(&responder)));
        }
        let stats = pool.drain();
        assert_eq!(stats.ok, 4);
        assert_eq!(
            stats.machine_reuses, 3,
            "first job validates, the rest reuse"
        );
        assert_eq!(stats.machine_evictions, 0);
        // The cache must be invisible in the answers: a per-job boot of
        // the same request fingerprints identically.
        let direct =
            crate::exec::execute(&req(r#"{"id":"d","n":24,"p":16,"algo":"cannon","seed":7}"#));
        let JobStatus::Ok {
            fingerprint: want, ..
        } = direct.response.status
        else {
            panic!("per-job boot must succeed");
        };
        let seen = lock(&seen);
        assert_eq!(seen.len(), 4);
        for r in seen.iter() {
            match &r.status {
                JobStatus::Ok { fingerprint, .. } => assert_eq!(*fingerprint, want),
                other => panic!("expected ok, got {other:?}"),
            }
        }
    }

    #[test]
    fn quarantine_evicts_the_cached_machines() {
        let pool = ServePool::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (responder, _seen) = collector();
        let healthy = |i: usize| format!(r#"{{"id":"h{i}","n":24,"p":16,"algo":"cannon"}}"#);
        // h0 validates and caches the 16-node shape; the crashing job
        // bypasses the cache (fault plans are job-specific) but its
        // quarantine drops the cached machine; h2 re-validates; h3
        // reuses again.
        assert!(pool.submit(req(&healthy(0)), Arc::clone(&responder)));
        assert!(pool.submit(
            req(r#"{"id":"c","n":24,"p":16,"algo":"cannon","faults":{"crashes":[{"node":3,"step":1}]}}"#),
            Arc::clone(&responder)
        ));
        assert!(pool.submit(req(&healthy(2)), Arc::clone(&responder)));
        assert!(pool.submit(req(&healthy(3)), Arc::clone(&responder)));
        let stats = pool.drain();
        assert_eq!(stats.ok, 4);
        assert_eq!(stats.quarantines, 1);
        assert_eq!(stats.machine_evictions, 1);
        assert_eq!(
            stats.machine_reuses, 1,
            "only the post-quarantine pair shares a boot"
        );
    }

    #[test]
    fn priority_order_is_highest_first_oldest_within_class() {
        let mut queue = VecDeque::new();
        for (seq, (id, priority)) in [("a", 5u8), ("b", 9), ("c", 9), ("d", 1)]
            .into_iter()
            .enumerate()
        {
            let line = format!(r#"{{"id":"{id}","n":24,"p":16,"priority":{priority}}}"#);
            queue.push_back(QueuedJob {
                req: req(&line),
                responder: Arc::new(|_| {}),
                seq: seq as u64,
            });
        }
        let order: Vec<String> = std::iter::from_fn(|| pop_next(&mut queue))
            .map(|j| j.req.id)
            .collect();
        assert_eq!(order, ["b", "c", "a", "d"]);
    }
}
