//! Building and booting a simulated machine: the [`Machine::builder`]
//! surface, the two execution engines, and the run outcome types.
//!
//! # Node programs are resumable step functions
//!
//! A node program is an async function `Fn(Proc, I) -> Future<Output = O>`:
//! the compiler turns it into a state machine whose suspension points are
//! exactly the simulator's blocking primitives ([`Proc::recv`],
//! [`Proc::multi`], [`Proc::exchange`]). Both engines drive the *same*
//! program values:
//!
//! * [`Engine::Threaded`] spawns one OS thread per node; a blocking
//!   primitive parks the thread on the progress ledger's condvars, so each
//!   node future completes in a single poll. This is the PR 4 engine,
//!   preserved verbatim.
//! * [`Engine::Event`] runs every node on the calling thread: a blocking
//!   primitive parks the *continuation* as a per-node work item, and a
//!   virtual-clock-ordered work queue resumes whichever runnable node has
//!   the smallest clock. This removes the OS-thread cap on `p` — machines
//!   of 4096–65536 nodes boot in milliseconds.
//!
//! Both engines share one progress ledger, so the exact `(from, tag)` FIFO
//! matching, first-failure-wins abort, and instant deadlock detection are
//! byte-for-byte the same code path; and because clock arithmetic depends
//! only on per-sender program order and matched receives (crate docs,
//! *Determinism*), the two engines produce bitwise-identical stats and
//! traces.

use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use cubemm_topology::log2_exact;

use crate::faults::{FaultPlan, SendError};
use crate::ledger::{lock, Ledger};
use crate::stats::{NodeStats, RunStats};
use crate::trace::TraceEvent;
use crate::{ChargePolicy, CostParams, LinkTopology, PortModel, Proc};

/// Which execution engine boots the node programs (see module docs).
///
/// Engine choice never changes results: stats, traces, outputs, and
/// failure reports are bitwise identical (pinned by the
/// `engine_equivalence` test suite). It only changes *how* the host
/// executes the simulation: `Threaded` burns one OS thread per node and
/// exercises real concurrency; `Event` runs any `p` on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// One OS thread per virtual node (the PR 4 engine). Opt-in via
    /// `--engine threaded` / [`MachineBuilder::engine`]; still valuable
    /// because it exercises real concurrency against the ledger.
    Threaded,
    /// Single-threaded discrete-event execution ordered by virtual
    /// clock: node programs suspend at blocking primitives and resume
    /// from a work queue. The default — identical results to
    /// `Threaded`, and the only engine that scales past a few hundred
    /// nodes.
    #[default]
    Event,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Threaded => write!(f, "threaded"),
            Engine::Event => write!(f, "event"),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threaded" => Ok(Engine::Threaded),
            "event" => Ok(Engine::Event),
            other => Err(format!(
                "unknown engine {other:?} (expected threaded or event)"
            )),
        }
    }
}

/// Full machine configuration (see [`Machine::builder`] for the
/// ergonomic construction surface). Equality is field-wise, which is
/// what lets callers check a cached [`Machine`] still matches the
/// options a job asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOptions {
    /// One-port or multi-port nodes.
    pub port: PortModel,
    /// Message cost parameters.
    pub cost: CostParams,
    /// Port-charging policy (the paper's sender-only model by default).
    pub charge: ChargePolicy,
    /// Which physical links exist (full hypercube by default).
    pub links: LinkTopology,
    /// Record per-message event traces.
    pub traced: bool,
    /// Deterministic fault injection (empty — a healthy machine — by
    /// default; an empty plan changes no clock arithmetic).
    pub faults: FaultPlan,
    /// Execution engine (event-driven by default; results are
    /// identical either way).
    pub engine: Engine,
}

impl MachineOptions {
    /// The paper's machine: given port model and costs, sender-charged,
    /// full hypercube, untraced, fault-free, event engine.
    pub fn paper(port: PortModel, cost: CostParams) -> Self {
        MachineOptions {
            port,
            cost,
            charge: ChargePolicy::SenderOnly,
            links: LinkTopology::Hypercube,
            traced: false,
            faults: FaultPlan::new(),
            engine: Engine::Event,
        }
    }
}

/// Result of a completed simulated run.
#[derive(Debug)]
pub struct RunOutcome<O> {
    /// Per-node outputs of the SPMD program, indexed by node label.
    pub outputs: Vec<O>,
    /// Virtual-time and traffic statistics.
    pub stats: RunStats,
    /// Per-node event traces (empty unless the run was traced).
    pub traces: Vec<Vec<crate::trace::TraceEvent>>,
}

/// A receive that was still waiting when a run died, for the deadlock
/// report: `node` was blocked on a message from `from` tagged `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocked {
    /// The waiting node.
    pub node: usize,
    /// The sender it was waiting on.
    pub from: usize,
    /// The tag it was waiting on.
    pub tag: u64,
}

/// Why a simulated run failed ([`Machine::run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The machine could not be constructed (bad size, bad init count,
    /// fault plan referencing nodes outside the machine).
    Config(String),
    /// Every live node was blocked in a receive no remaining sender can
    /// satisfy — detected *exactly* by the progress ledger the instant
    /// the last live node parks (or finishes), with no host-time
    /// watchdog involved. `blocked` names every node still parked in a
    /// receive with the `(from, tag)` it was waiting for, sorted by node
    /// label.
    Deadlock {
        /// Every blocked receive at the time of death.
        blocked: Vec<Blocked>,
    },
    /// The SPMD program panicked on a node.
    NodePanicked {
        /// The panicking node.
        node: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A send failed against the fault plan: dead link under a strict
    /// plan, destination unroutable, or retries exhausted.
    LinkDead {
        /// The node whose send failed.
        node: usize,
        /// The typed send failure.
        error: SendError,
    },
    /// A scheduled fault-plan crash killed a node mid-algorithm (see
    /// [`crate::FaultPlan::with_crash`]).
    NodeCrashed {
        /// The crashed node.
        node: usize,
        /// The 0-based communication-call index at which it died.
        step: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(msg) => write!(f, "{msg}"),
            RunError::Deadlock { blocked } => {
                write!(f, "simulated deadlock: every live node is blocked;")?;
                for (i, b) in blocked.iter().enumerate() {
                    let sep = if i == 0 { " " } else { "; " };
                    write!(
                        f,
                        "{sep}node {} blocked on (from={}, tag={:#x})",
                        b.node, b.from, b.tag
                    )?;
                }
                Ok(())
            }
            RunError::NodePanicked { node, message } => {
                write!(f, "node {node} panicked: {message}")
            }
            RunError::LinkDead { node, error } => {
                write!(f, "node {node} send failed: {error}")
            }
            RunError::NodeCrashed { node, step } => {
                write!(
                    f,
                    "node {node} crashed at communication step {step} (scheduled fault)"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The unwind payload of a node that aborts *quietly* because the run is
/// already failing elsewhere (or because its own failure was recorded as
/// a typed [`Failure`]): carries no message and is swallowed by the
/// engine, unlike a genuine program panic.
pub(crate) struct Aborted;

/// Why the run is aborting — the first failure wins the slot; later ones
/// (cascading victims of the abort) are ignored.
pub(crate) enum Failure {
    /// The progress ledger proved no node can ever run again.
    Deadlock,
    /// The SPMD program panicked.
    Panicked {
        /// The panicking node.
        node: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// A typed send failure (see [`SendError`]).
    Link {
        /// The sending node.
        node: usize,
        /// The failure.
        error: SendError,
    },
    /// A scheduled crash killed a node.
    Crashed {
        /// The crashed node.
        node: usize,
        /// The communication-call index at which it died.
        step: u64,
    },
}

/// Stringifies a panic payload for [`RunError::NodePanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-node channel between a [`Proc`] and its engine, shared by `Arc`.
///
/// * `clock_bits` mirrors the node's virtual clock (as `f64::to_bits`,
///   monotone for non-negative clocks) so the event executor can order
///   its work queue without touching the `Proc` that owns the clock. The
///   mirror is refreshed every time the node is about to suspend.
/// * `parts` carries the node's final statistics and trace out of the
///   program: [`Proc`]'s `Drop` impl fills it whether the async body
///   returned normally or unwound, so the engine reads it after the node
///   future is dropped.
#[derive(Debug, Default)]
pub(crate) struct NodeSlot {
    pub(crate) clock_bits: AtomicU64,
    pub(crate) parts: Mutex<Option<(NodeStats, Vec<TraceEvent>)>>,
}

/// Drives a node future to completion on the current thread. Blocking
/// primitives under the threaded engine wait on ledger condvars *inside*
/// `poll`, so a healthy node completes in exactly one poll; `Pending` is
/// only reachable by awaiting something that is not a simnet primitive,
/// which the node-program contract forbids.
fn block_on<Fut: Future>(fut: Fut) -> Fut::Output {
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "node program suspended on a non-simnet future \
             (only Proc primitives may be awaited)"
        ),
    }
}

/// A machine whose configuration has been validated **once**, ready to
/// boot any number of times without re-validation.
///
/// Construct through [`Machine::builder`] (or [`Machine::new`] when an
/// assembled [`MachineOptions`] is at hand), then boot with
/// [`Machine::run`]. Runs are independent: each boot gets a fresh
/// progress ledger and fresh virtual clocks, so results are bit-for-bit
/// identical from boot to boot — long-lived pools (`cubemm serve`)
/// prepare once and reboot continuously.
///
/// ```
/// use cubemm_simnet::{CostParams, Machine, PortModel};
///
/// let machine = Machine::builder(2)
///     .port(PortModel::OnePort)
///     .cost(CostParams { ts: 10.0, tw: 2.0 })
///     .build()
///     .unwrap();
/// let out = machine
///     .run(vec![(), ()], |mut proc, ()| async move {
///         let other = proc.id() ^ 1;
///         let got = proc.exchange(other, 3, [1.0, 2.0]).await;
///         got.len()
///     })
///     .unwrap();
/// assert_eq!(out.outputs, vec![2, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    p: usize,
    dim: u32,
    options: MachineOptions,
}

/// Typed construction surface for [`Machine`]: engine selection,
/// tracing, fault plan, charging policy, link topology.
///
/// Every knob defaults to the paper's machine (one-port,
/// [`CostParams::PAPER`], sender-charged, full hypercube, untraced,
/// fault-free) on the event engine; set what differs and [`build`].
///
/// [`build`]: MachineBuilder::build
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    p: usize,
    options: MachineOptions,
}

impl MachineBuilder {
    /// Port model (default [`PortModel::OnePort`]).
    pub fn port(mut self, port: PortModel) -> Self {
        self.options.port = port;
        self
    }

    /// Message cost parameters (default [`CostParams::PAPER`]).
    pub fn cost(mut self, cost: CostParams) -> Self {
        self.options.cost = cost;
        self
    }

    /// Port-charging policy (default [`ChargePolicy::SenderOnly`]).
    pub fn charge(mut self, charge: ChargePolicy) -> Self {
        self.options.charge = charge;
        self
    }

    /// Link topology (default [`LinkTopology::Hypercube`]).
    pub fn links(mut self, links: LinkTopology) -> Self {
        self.options.links = links;
        self
    }

    /// Record per-message event traces (default off). Tracing costs host
    /// memory proportional to the message count; virtual times are
    /// unaffected.
    pub fn traced(mut self, traced: bool) -> Self {
        self.options.traced = traced;
        self
    }

    /// Deterministic fault plan (default empty/healthy).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.options.faults = faults;
        self
    }

    /// Execution engine (default [`Engine::Event`]; results are
    /// identical either way — see [`Engine`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.options.engine = engine;
        self
    }

    /// Replaces the whole option block at once (callers that assemble a
    /// [`MachineOptions`] elsewhere, e.g. from a `MachineConfig`).
    pub fn options(mut self, options: MachineOptions) -> Self {
        self.options = options;
        self
    }

    /// Validates the configuration and produces the bootable machine.
    /// All [`RunError::Config`] cases except the per-run init-count
    /// check are reported here.
    pub fn build(self) -> Result<Machine, RunError> {
        Machine::new(self.p, self.options)
    }
}

impl Machine {
    /// Starts building a `p`-node machine with the paper's defaults.
    pub fn builder(p: usize) -> MachineBuilder {
        MachineBuilder {
            p,
            options: MachineOptions::paper(PortModel::OnePort, CostParams::PAPER),
        }
    }

    /// Validates an assembled [`MachineOptions`] once and captures it
    /// for repeated boots (the non-builder construction path).
    pub fn new(p: usize, options: MachineOptions) -> Result<Machine, RunError> {
        let Some(dim) = log2_exact(p) else {
            return Err(RunError::Config(format!(
                "machine size {p} is not a power of two"
            )));
        };
        options
            .faults
            .validate(p)
            .map_err(|e| RunError::Config(e.to_string()))?;
        Ok(Machine { p, dim, options })
    }

    /// The machine size the configuration was validated for.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The validated machine options.
    pub fn options(&self) -> &MachineOptions {
        &self.options
    }

    /// Boots the machine: runs `program` as an SPMD job on every node
    /// under the configured [`Engine`], skipping every already-performed
    /// configuration check (only the init count is per-run).
    ///
    /// `inits[i]` is handed to node `i` as its initial local data — the
    /// paper's algorithms all start from an *assumed* initial
    /// distribution, so placing the blocks is free, exactly as in the
    /// paper's accounting. Per-node return values are collected in label
    /// order.
    ///
    /// Failure is a structured [`RunError`]: simulated deadlocks (naming
    /// every blocked node and the `(from, tag)` it awaited), node
    /// panics, typed link faults, and scheduled crashes are all values.
    /// When any node fails, the progress ledger aborts the whole run
    /// promptly under either engine.
    ///
    /// ```
    /// use cubemm_simnet::{FaultPlan, Machine, RunError};
    ///
    /// // Node 0's only link in a 2-node machine is dead and the plan is
    /// // strict: the run reports the failure instead of panicking.
    /// let machine = Machine::builder(2)
    ///     .faults(FaultPlan::new().with_dead_link(0, 1).strict())
    ///     .build()
    ///     .unwrap();
    /// let err = machine
    ///     .run(vec![(), ()], |mut proc, ()| async move {
    ///         if proc.id() == 0 {
    ///             proc.send(1, 0, vec![1.0]);
    ///         } else {
    ///             let _ = proc.recv(0, 0).await;
    ///         }
    ///     })
    ///     .unwrap_err();
    /// assert!(matches!(err, RunError::LinkDead { node: 0, .. }));
    /// ```
    pub fn run<I, O, F, Fut>(&self, inits: Vec<I>, program: F) -> Result<RunOutcome<O>, RunError>
    where
        I: Send,
        O: Send,
        F: Fn(Proc, I) -> Fut + Sync,
        Fut: Future<Output = O>,
    {
        if inits.len() != self.p {
            return Err(RunError::Config(format!(
                "need exactly one initial-data entry per node: got {} for p = {}",
                inits.len(),
                self.p
            )));
        }
        match self.options.engine {
            Engine::Threaded => self.run_threaded(inits, &program),
            Engine::Event => self.run_event(inits, &program),
        }
    }

    /// The PR 4 engine: one scoped OS thread per node; node futures
    /// complete in a single poll because blocking primitives wait on the
    /// ledger's condvars inside `poll`.
    fn run_threaded<I, O, F, Fut>(
        &self,
        inits: Vec<I>,
        program: &F,
    ) -> Result<RunOutcome<O>, RunError>
    where
        I: Send,
        O: Send,
        F: Fn(Proc, I) -> Fut + Sync,
        Fut: Future<Output = O>,
    {
        let (p, dim, options) = (self.p, self.dim, &self.options);
        let ledger = Arc::new(Ledger::new(p, false));
        let slots: Vec<Arc<NodeSlot>> = (0..p).map(|_| Arc::new(NodeSlot::default())).collect();
        let faults = (!options.faults.is_empty()).then(|| Arc::new(options.faults.clone()));

        let mut outputs: Vec<Option<O>> = Vec::with_capacity(p);
        outputs.resize_with(p, || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (id, init) in inits.into_iter().enumerate() {
                let ledger = Arc::clone(&ledger);
                let slot = Arc::clone(&slots[id]);
                let faults = faults.clone();
                handles.push(scope.spawn(move || {
                    let body = AssertUnwindSafe(|| {
                        let proc = Proc::new(id, dim, options, faults, Arc::clone(&ledger), slot);
                        block_on(program(proc, init))
                    });
                    let result = match catch_unwind(body) {
                        Ok(out) => Some(out),
                        Err(payload) => {
                            // Quiet unwinds already registered their failure
                            // (or are cascading victims); anything else is a
                            // genuine program panic. Trigger BEFORE finish so
                            // the genuine failure wins the first-failure slot
                            // even if finishing would also declare deadlock.
                            if !payload.is::<Aborted>() {
                                ledger.trigger(Failure::Panicked {
                                    node: id,
                                    message: panic_message(payload.as_ref()),
                                });
                            }
                            None
                        }
                    };
                    ledger.finish(id);
                    result
                }));
            }
            for (id, handle) in handles.into_iter().enumerate() {
                // The closure catches every unwind, so the join itself only
                // fails on catastrophic runtime errors.
                if let Ok(result) = handle.join() {
                    outputs[id] = result;
                }
            }
        });

        finish_outcome(&ledger, outputs, &slots)
    }

    /// The discrete-event engine: all node futures live on the calling
    /// thread; a work queue ordered by `(virtual clock, node id)` picks
    /// the next runnable continuation. A poll runs the node until it
    /// completes or parks in the ledger; handoff injections unpark their
    /// target, which re-enters the queue at its park-time clock.
    fn run_event<I, O, F, Fut>(&self, inits: Vec<I>, program: &F) -> Result<RunOutcome<O>, RunError>
    where
        F: Fn(Proc, I) -> Fut,
        Fut: Future<Output = O>,
    {
        use std::cmp::Reverse;

        let (p, dim, options) = (self.p, self.dim, &self.options);
        let ledger = Arc::new(Ledger::new(p, true));
        let slots: Vec<Arc<NodeSlot>> = (0..p).map(|_| Arc::new(NodeSlot::default())).collect();
        let faults = (!options.faults.is_empty()).then(|| Arc::new(options.faults.clone()));

        let mut outputs: Vec<Option<O>> = Vec::with_capacity(p);
        outputs.resize_with(p, || None);
        let mut futures: Vec<Option<Pin<Box<Fut>>>> = Vec::with_capacity(p);
        for (id, init) in inits.into_iter().enumerate() {
            let proc = Proc::new(
                id,
                dim,
                options,
                faults.clone(),
                Arc::clone(&ledger),
                Arc::clone(&slots[id]),
            );
            futures.push(Some(Box::pin(program(proc, init))));
        }

        // Min-queue on (clock bits, node id): non-negative f64 bit
        // patterns order like the floats, and the id tiebreak keeps the
        // schedule deterministic. A node appears at most once: it is
        // enqueued at creation, when a handoff unparks it, or (once) when
        // an abort must unblock it — each strictly after it left the
        // queue and parked.
        let mut ready: BinaryHeap<Reverse<(u64, usize)>> =
            (0..p).map(|id| Reverse((0, id))).collect();
        let mut cx = Context::from_waker(Waker::noop());
        let mut abort_seen = false;
        let mut woken: Vec<usize> = Vec::new();

        while let Some(Reverse((_, id))) = ready.pop() {
            let Some(fut) = futures[id].as_mut() else {
                continue;
            };
            let suspended = match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
                Ok(Poll::Ready(out)) => {
                    outputs[id] = Some(out);
                    futures[id] = None;
                    ledger.finish(id);
                    false
                }
                // Suspended inside a ledger receive; the queue will see
                // it again via `woken` (or the abort sweep).
                Ok(Poll::Pending) => true,
                Err(payload) => {
                    // Same first-failure protocol as the threaded join.
                    if !payload.is::<Aborted>() {
                        ledger.trigger(Failure::Panicked {
                            node: id,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                    futures[id] = None;
                    ledger.finish(id);
                    false
                }
            };
            let (aborting, parked) = ledger.after_poll(id, &mut woken);
            assert!(
                !suspended || parked,
                "node program suspended on a non-simnet future \
                 (only Proc primitives may be awaited)"
            );
            for node in woken.drain(..) {
                let clock = slots[node].clock_bits.load(Ordering::Relaxed);
                ready.push(Reverse((clock, node)));
            }
            if !abort_seen && aborting {
                abort_seen = true;
                // Mirror the condvar broadcast: every parked node gets
                // one more poll to record its Blocked receive and unwind.
                for parked in ledger.parked_nodes() {
                    let clock = slots[parked].clock_bits.load(Ordering::Relaxed);
                    ready.push(Reverse((clock, parked)));
                }
            }
        }
        debug_assert!(
            futures.iter().all(Option::is_none),
            "event executor drained its queue with a node still suspended"
        );

        finish_outcome(&ledger, outputs, &slots)
    }
}

/// Shared run epilogue: converts the ledger's failure record into a
/// [`RunError`], or assembles the [`RunOutcome`] from per-node outputs
/// and the stats/trace parts each [`Proc`] deposited in its slot.
fn finish_outcome<O>(
    ledger: &Ledger,
    outputs: Vec<Option<O>>,
    slots: &[Arc<NodeSlot>],
) -> Result<RunOutcome<O>, RunError> {
    let (failure, blocked) = ledger.take_outcome();
    if let Some(failure) = failure {
        return Err(match failure {
            Failure::Deadlock => RunError::Deadlock { blocked },
            Failure::Panicked { node, message } => RunError::NodePanicked { node, message },
            Failure::Link { node, error } => RunError::LinkDead { node, error },
            Failure::Crashed { node, step } => RunError::NodeCrashed { node, step },
        });
    }

    let p = slots.len();
    let mut outs = Vec::with_capacity(p);
    let mut nodes = Vec::with_capacity(p);
    let mut traces = Vec::with_capacity(p);
    for (out, slot) in outputs.into_iter().zip(slots) {
        #[allow(
            clippy::expect_used,
            reason = "failed nodes returned RunError above; every surviving output is Some \
                      and every dropped Proc filled its slot"
        )]
        {
            outs.push(out.expect("every node completed"));
            let (stats, trace) = lock(&slot.parts).take().expect("node slot filled on drop");
            nodes.push(stats);
            traces.push(trace);
        }
    }
    let elapsed = nodes.iter().map(|n| n.clock).fold(0.0, f64::max);
    Ok(RunOutcome {
        outputs: outs,
        stats: RunStats { elapsed, nodes },
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Payload};

    fn words(n: usize) -> Payload {
        (0..n).map(|x| x as f64).collect()
    }

    const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

    /// Both-engine test driver: the paper's machine at test costs.
    fn machine(p: usize, port: PortModel, engine: Engine) -> Machine {
        Machine::builder(p)
            .port(port)
            .cost(COST)
            .engine(engine)
            .build()
            .expect("valid test machine")
    }

    const ENGINES: [Engine; 2] = [Engine::Threaded, Engine::Event];

    #[test]
    fn neighbor_send_recv_costs_one_hop() {
        // Node 0 sends 5 words to node 1; both clocks end at ts + 5 tw.
        for engine in ENGINES {
            let out = machine(2, PortModel::OnePort, engine)
                .run(vec![(), ()], |mut proc, ()| async move {
                    if proc.id() == 0 {
                        proc.send(1, 7, words(5));
                    } else {
                        let got = proc.recv(0, 7).await;
                        assert_eq!(got.len(), 5);
                    }
                    proc.clock()
                })
                .expect("healthy run");
            let expect = 10.0 + 2.0 * 5.0;
            assert_eq!(out.outputs, vec![expect, expect]);
            assert_eq!(out.stats.elapsed, expect);
            assert_eq!(out.stats.total_messages(), 1);
            assert_eq!(out.stats.total_word_hops(), 5);
        }
    }

    #[test]
    fn receive_is_passive_for_busy_receiver() {
        // Node 1 first performs its own send (port busy until 20), then
        // receives a message that arrived at t=20; its clock stays 20.
        for engine in ENGINES {
            let out = machine(2, PortModel::OnePort, engine)
                .run(vec![(), ()], |mut proc, ()| async move {
                    match proc.id() {
                        0 => {
                            proc.send(1, 1, words(5)); // arrives at 20
                            let _ = proc.recv(1, 2).await;
                        }
                        _ => {
                            proc.send(0, 2, words(5)); // port busy [0, 20]
                            let _ = proc.recv(0, 1).await; // arrival 20 <= clock 20
                        }
                    }
                    proc.clock()
                })
                .expect("healthy run");
            assert_eq!(out.outputs, vec![20.0, 20.0]);
        }
    }

    #[test]
    fn one_port_serializes_multi_sends() {
        for engine in ENGINES {
            let out = machine(4, PortModel::OnePort, engine)
                .run(vec![(); 4], |mut proc, ()| async move {
                    if proc.id() == 0 {
                        proc.multi(vec![
                            Op::Send {
                                to: 1,
                                tag: 0,
                                data: words(5),
                            },
                            Op::Send {
                                to: 2,
                                tag: 0,
                                data: words(5),
                            },
                        ])
                        .await;
                    } else if proc.id() != 3 {
                        let _ = proc.recv(0, 0).await;
                    }
                    proc.clock()
                })
                .expect("healthy run");
            // Two serialized 20-unit sends.
            assert_eq!(out.outputs[0], 40.0);
            assert_eq!(out.outputs[1], 20.0); // first arrival
            assert_eq!(out.outputs[2], 40.0); // second arrival
        }
    }

    #[test]
    fn multi_port_overlaps_distinct_links() {
        for engine in ENGINES {
            let out = machine(4, PortModel::MultiPort, engine)
                .run(vec![(); 4], |mut proc, ()| async move {
                    if proc.id() == 0 {
                        proc.multi(vec![
                            Op::Send {
                                to: 1,
                                tag: 0,
                                data: words(5),
                            },
                            Op::Send {
                                to: 2,
                                tag: 0,
                                data: words(5),
                            },
                        ])
                        .await;
                    } else if proc.id() != 3 {
                        let _ = proc.recv(0, 0).await;
                    }
                    proc.clock()
                })
                .expect("healthy run");
            assert_eq!(out.outputs[0], 20.0);
            assert_eq!(out.outputs[1], 20.0);
            assert_eq!(out.outputs[2], 20.0);
        }
    }

    #[test]
    fn multi_port_serializes_same_link() {
        for engine in ENGINES {
            let out = machine(2, PortModel::MultiPort, engine)
                .run(vec![(); 2], |mut proc, ()| async move {
                    if proc.id() == 0 {
                        proc.multi(vec![
                            Op::Send {
                                to: 1,
                                tag: 0,
                                data: words(5),
                            },
                            Op::Send {
                                to: 1,
                                tag: 1,
                                data: words(5),
                            },
                        ])
                        .await;
                    } else {
                        let _ = proc.recv(0, 0).await;
                        let _ = proc.recv(0, 1).await;
                    }
                    proc.clock()
                })
                .expect("healthy run");
            assert_eq!(out.outputs[0], 40.0);
            assert_eq!(out.outputs[1], 40.0);
        }
    }

    #[test]
    fn exchange_costs_one_unit_on_the_critical_path() {
        // Recursive-doubling style pairwise exchange: both nodes send and
        // receive; the paper charges t_s + t_w m per step.
        for engine in ENGINES {
            let out = machine(2, PortModel::OnePort, engine)
                .run(vec![(), ()], |mut proc, ()| async move {
                    let other = proc.id() ^ 1;
                    let got = proc.exchange(other, 9, words(5)).await;
                    assert_eq!(got.len(), 5);
                    proc.clock()
                })
                .expect("healthy run");
            assert_eq!(out.outputs, vec![20.0, 20.0]);
        }
    }

    #[test]
    fn routed_send_charges_hamming_distance() {
        for engine in ENGINES {
            let out = machine(8, PortModel::OnePort, engine)
                .run(vec![(); 8], |mut proc, ()| async move {
                    if proc.id() == 0 {
                        proc.send_routed(0b111, 3, words(5)); // distance 3
                    } else if proc.id() == 0b111 {
                        let _ = proc.recv(0, 3).await;
                    }
                    proc.clock()
                })
                .expect("healthy run");
            assert_eq!(out.outputs[0], 60.0);
            assert_eq!(out.outputs[0b111], 60.0);
            assert_eq!(out.stats.total_messages(), 3);
            assert_eq!(out.stats.total_word_hops(), 15);
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        for engine in ENGINES {
            let out = machine(2, PortModel::OnePort, engine)
                .run(vec![(), ()], |mut proc, ()| async move {
                    if proc.id() == 0 {
                        proc.send(1, 1, words(1));
                        proc.send(1, 2, words(2));
                    } else {
                        // Receive in reverse tag order.
                        let b = proc.recv(0, 2).await;
                        let a = proc.recv(0, 1).await;
                        assert_eq!(b.len(), 2);
                        assert_eq!(a.len(), 1);
                    }
                    proc.clock()
                })
                .expect("healthy run");
            // Node 0: two serialized sends: 12 + 14 = 26.
            assert_eq!(out.outputs[0], 26.0);
            assert_eq!(out.outputs[1], 26.0);
        }
    }

    #[test]
    fn peak_words_tracked() {
        for engine in ENGINES {
            let out = machine(2, PortModel::OnePort, engine)
                .run(vec![(), ()], |mut proc, ()| async move {
                    proc.track_peak_words(100);
                    proc.track_peak_words(40);
                })
                .expect("healthy run");
            assert_eq!(out.stats.max_peak_words(), 100);
            assert_eq!(out.stats.total_peak_words(), 200);
        }
    }

    #[test]
    fn non_power_of_two_rejected_at_build() {
        let err = Machine::builder(3).build().unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("power of two")));
    }

    #[test]
    fn non_neighbor_send_rejected() {
        for engine in ENGINES {
            let err = machine(4, PortModel::OnePort, engine)
                .run(vec![(); 4], |mut proc, ()| async move {
                    if proc.id() == 0 {
                        proc.send(3, 0, words(1));
                    }
                })
                .unwrap_err();
            match err {
                RunError::NodePanicked { node: 0, message } => {
                    assert!(message.contains("not a hypercube neighbor"));
                }
                other => panic!("expected NodePanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn machine_reboots_identically_without_revalidation() {
        // Prepare once (validation happens here), then boot three times
        // per engine: every reboot must reproduce the same virtual
        // numbers bit for bit — machine reuse cannot perturb determinism.
        for engine in ENGINES {
            let machine = machine(2, PortModel::OnePort, engine);
            assert_eq!(machine.p(), 2);
            let boot = || {
                machine
                    .run(vec![(), ()], |mut proc, ()| async move {
                        let got = proc.exchange(proc.id() ^ 1, 3, words(4)).await;
                        (got.len(), proc.clock())
                    })
                    .expect("healthy boot")
            };
            let first = boot();
            for _ in 0..2 {
                let again = boot();
                assert_eq!(again.outputs, first.outputs);
                assert_eq!(again.stats.elapsed, first.stats.elapsed);
            }
        }
    }

    #[test]
    fn builder_rejects_bad_configs_at_build() {
        let err = Machine::builder(3).build().unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("power of two")));
        let err = Machine::builder(4)
            .faults(crate::FaultPlan::new().with_straggler(9, 2.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("outside the 4-node")));
        // The init count stays a per-run check.
        let machine = Machine::builder(4).build().expect("valid config");
        let err = machine.run(vec![(), ()], |_, ()| async {}).unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("one initial-data entry")));
    }

    #[test]
    fn run_reports_node_panics_with_label_and_message() {
        for engine in ENGINES {
            let err = machine(4, PortModel::OnePort, engine)
                .run(vec![(); 4], |proc, ()| async move {
                    if proc.id() == 2 {
                        panic!("kaboom on node two");
                    }
                })
                .unwrap_err();
            match err {
                RunError::NodePanicked { node, message } => {
                    assert_eq!(node, 2);
                    assert!(message.contains("kaboom"), "message was {message:?}");
                }
                other => panic!("expected NodePanicked, got {other:?}"),
            }
        }
    }

    /// The two deadlock-exactness contracts from PR 4, pinned under
    /// *both* engines: the ledger proves the deadlock the instant the
    /// last live node parks (or finishes) — no watchdog, no timeout.
    fn check_two_node_cyclic_wait(engine: Engine) {
        let wall = std::time::Instant::now();
        let err = machine(2, PortModel::OnePort, engine)
            .run(vec![(), ()], |mut proc, ()| async move {
                let other = proc.id() ^ 1;
                let _ = proc.recv(other, 77).await;
            })
            .unwrap_err();
        assert!(
            wall.elapsed() < std::time::Duration::from_secs(1),
            "exact deadlock detection took {:?}",
            wall.elapsed()
        );
        match err {
            RunError::Deadlock { blocked } => {
                assert_eq!(
                    blocked,
                    vec![
                        Blocked {
                            node: 0,
                            from: 1,
                            tag: 77
                        },
                        Blocked {
                            node: 1,
                            from: 0,
                            tag: 77
                        },
                    ]
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    fn check_finished_sender_deadlock(engine: Engine) {
        // Node 0 exits without sending; node 1 waits forever. The last
        // live node is parked, so the ledger declares deadlock from the
        // finish path (not only the park path).
        let wall = std::time::Instant::now();
        let err = machine(2, PortModel::OnePort, engine)
            .run(vec![(), ()], |mut proc, ()| async move {
                if proc.id() == 1 {
                    let _ = proc.recv(0, 5).await;
                }
            })
            .unwrap_err();
        assert!(
            wall.elapsed() < std::time::Duration::from_secs(1),
            "exact deadlock detection took {:?}",
            wall.elapsed()
        );
        assert_eq!(
            err,
            RunError::Deadlock {
                blocked: vec![Blocked {
                    node: 1,
                    from: 0,
                    tag: 5
                }]
            }
        );
    }

    #[test]
    fn two_node_cyclic_wait_is_detected_exactly_and_instantly() {
        check_two_node_cyclic_wait(Engine::Threaded);
    }

    #[test]
    fn event_engine_two_node_cyclic_wait_is_detected_exactly_and_instantly() {
        check_two_node_cyclic_wait(Engine::Event);
    }

    #[test]
    fn finished_sender_leaves_receiver_deadlocked_not_hung() {
        check_finished_sender_deadlock(Engine::Threaded);
    }

    #[test]
    fn event_engine_finished_sender_leaves_receiver_deadlocked_not_hung() {
        check_finished_sender_deadlock(Engine::Event);
    }

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("threaded".parse::<Engine>(), Ok(Engine::Threaded));
        assert_eq!("event".parse::<Engine>(), Ok(Engine::Event));
        assert!("both".parse::<Engine>().is_err());
        assert_eq!(Engine::Threaded.to_string(), "threaded");
        assert_eq!(Engine::Event.to_string(), "event");
        assert_eq!(Engine::default(), Engine::Event);
    }

    #[test]
    fn event_engine_scales_past_the_thread_limit() {
        // A 4096-node all-to-nearest exchange: impossible thread-per-node
        // on a default host, routine for the event engine.
        let out = machine(4096, PortModel::OnePort, Engine::Event)
            .run(vec![(); 4096], |mut proc, ()| async move {
                let other = proc.id() ^ 1;
                let got = proc.exchange(other, 1, [proc.id() as f64]).await;
                got[0] as usize
            })
            .expect("healthy run");
        assert_eq!(out.stats.elapsed, 10.0 + 2.0);
        for (id, partner) in out.outputs.iter().enumerate() {
            assert_eq!(*partner, id ^ 1);
        }
    }

    #[test]
    fn engines_agree_bitwise_on_a_traced_run() {
        // Same program, both engines, traced: outputs, stats, and traces
        // must match bitwise.
        let run = |engine: Engine| {
            Machine::builder(8)
                .cost(COST)
                .traced(true)
                .engine(engine)
                .build()
                .expect("valid machine")
                .run(vec![(); 8], |mut proc, ()| async move {
                    // Recursive doubling over all 3 dimensions.
                    let mut acc = vec![proc.id() as f64];
                    for d in 0..proc.dim() {
                        let partner = proc.id() ^ (1 << d);
                        let got = proc.exchange(partner, u64::from(d), acc.clone()).await;
                        acc.extend(got.iter());
                    }
                    acc.iter().sum::<f64>()
                })
                .expect("healthy run")
        };
        let threaded = run(Engine::Threaded);
        let event = run(Engine::Event);
        assert_eq!(threaded.outputs, event.outputs);
        assert_eq!(threaded.stats, event.stats);
        assert_eq!(threaded.traces, event.traces);
    }
}
