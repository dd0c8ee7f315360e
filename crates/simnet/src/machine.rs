//! Building and booting a simulated machine: the [`Machine::builder`]
//! surface, the event loop that runs it, and the run outcome types.
//!
//! # Node programs are resumable step functions
//!
//! A node program is an async function `Fn(Proc, I) -> Future<Output = O>`:
//! the compiler turns it into a state machine whose suspension points are
//! exactly the simulator's blocking primitives ([`Proc::recv`],
//! [`Proc::multi`], [`Proc::exchange`]). An event loop drives a *shard* —
//! a contiguous range of labels — on one thread: a blocking primitive
//! parks the node's *continuation* in the shard's progress ledger, and
//! the loop resumes whichever runnable node has the least label (the
//! ready set, `ready.rs`), so a low subcube runs through a phase and
//! frees its blocks before a higher one fills. [`Machine::run`] is one
//! shard holding every node, on the calling thread;
//! [`Machine::run_sharded`] runs `K` shards on `K` threads, passing
//! messages between them through per-shard inboxes (`shard.rs`).
//! Machines of 4096–65536 nodes boot in milliseconds.
//!
//! The ledger (`ledger.rs`) does the exact `(from, tag)` FIFO matching
//! and exact deadlock detection. A failure stops only its own node: the
//! others run on to quiescence, and the run reports the least failure by
//! `(clock at failure, node)` (see [`conclude`]). Clock arithmetic
//! depends only on per-sender program order and matched receives (crate
//! docs, *Determinism*), so a run's maximal execution is unique, and the
//! order in which the loops resume runnable nodes — within a shard or
//! across shards — can never change a result, a failure included.

use std::cell::Cell;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use cubemm_topology::log2_exact;

use crate::faults::FaultPlan;
use crate::ledger::{least, Ledger, LedgerEnd};
use crate::proc::SendError;
use crate::ready::{mix, Ready};
use crate::shard::Fabric;
use crate::stats::RunStats;
use crate::{ChargePolicy, CostParams, LinkTopology, PortModel, Proc};

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
}

impl MachineOptions {
    /// The paper's machine: given port model and costs, sender-charged,
    /// full hypercube, untraced, fault-free.
    pub fn paper(port: PortModel, cost: CostParams) -> Self {
        MachineOptions {
            port,
            cost,
            charge: ChargePolicy::SenderOnly,
            links: LinkTopology::Hypercube,
            traced: false,
            faults: FaultPlan::new(),
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
    /// a cost that is negative or not finite, fault plan referencing
    /// nodes outside the machine), or its costs are so large that the
    /// run's virtual time overflowed to infinity.
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
    /// plan, or destination unroutable.
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

/// The unwind payload of a node whose scheduled crash or strict send
/// has just failed: the typed failure, which the event loop records,
/// where a genuine program panic carries a message.
pub(crate) struct Aborted(pub RunError);

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

/// The fewest nodes per shard [`Machine::run_sharded`] splits a machine
/// into, so machines below `2 · SHARD_MIN_NODES` nodes run on one shard.
/// Placed from `simnet_bench`'s one- and two-shard rows and whole
/// multiplies at p = 256, 512, 1024 and 4096 (DESIGN.md §14): two
/// shards lose 12 % on average at p = 256, are mixed at p = 512 and win
/// from p = 1024 on.
pub const SHARD_MIN_NODES: usize = 512;

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

/// Typed construction surface for [`Machine`]: tracing, fault plan,
/// charging policy, link topology.
///
/// Every knob defaults to the paper's machine (one-port,
/// [`CostParams::PAPER`], sender-charged, full hypercube, untraced,
/// fault-free); set what differs and [`build`].
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
        options.cost.validate().map_err(RunError::Config)?;
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

    /// Boots the machine: runs `program` as an SPMD job on every node,
    /// skipping every already-performed configuration check (only the
    /// init count is per-run).
    ///
    /// `inits[i]` is handed to node `i` as its initial local data — the
    /// paper's algorithms all start from an *assumed* initial
    /// distribution, so placing the blocks is free, exactly as in the
    /// paper's accounting. Per-node return values are collected in label
    /// order.
    ///
    /// All node futures live on the calling thread, in one shard that
    /// resumes the runnable node with the least label next
    /// ([`Machine::run_sharded`] spreads them over several). A poll runs
    /// the node until it completes or parks in the ledger; handoff
    /// injections unpark their target, which becomes runnable again.
    /// The run ends when no node can run: with every node finished, or
    /// deadlocked. The order changes no result, only how many nodes hold
    /// their blocks at once.
    ///
    /// Failure is a structured [`RunError`]: simulated deadlocks (naming
    /// every blocked node and the `(from, tag)` it awaited), node
    /// panics, typed link faults, and scheduled crashes are all values.
    /// A failing node is polled no more; the others run on until nothing
    /// can run, and the run reports the failure with the least
    /// `(clock at failure, node)`. A message a finished node never
    /// received is a failure too, its sender's. Every node future still
    /// held at the end is dropped, which runs its locals' destructors.
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
        F: Fn(Proc, I) -> Fut,
        Fut: Future<Output = O>,
    {
        self.check_inits(inits.len())?;
        let order = RESUME_ORDER.get();
        conclude(
            &mut [self.run_shard(None, 0, inits, &program, order)],
            self.options.cost,
        )
    }

    /// Boots the machine like [`Machine::run`], spreading a large
    /// machine's nodes over spare host cores, with the same result bit
    /// for bit: the same outputs, statistics, traces and [`RunError`].
    ///
    /// The number of shards `K` is a power of two: 1 when `p` is below
    /// `2 ·` [`SHARD_MIN_NODES`], and otherwise
    /// `min(p / SHARD_MIN_NODES, 1 + spare cores)`, the spare cores
    /// leased from the process-wide count in [`crate::cores`] for the
    /// length of the run. Shard `k` runs the nodes whose labels' top
    /// `log₂ K` bits read `k`, on its own thread; shard 0 runs on the
    /// caller. At `K = 1`, or when a shard thread cannot be spawned, the
    /// whole machine runs on the caller.
    pub fn run_sharded<I, O, F, Fut>(
        &self,
        inits: Vec<I>,
        program: F,
    ) -> Result<RunOutcome<O>, RunError>
    where
        F: Fn(Proc, I) -> Fut + Sync,
        Fut: Future<Output = O>,
        I: Send,
        O: Send,
    {
        if let Some(shards) = FORCED_SHARDS.get() {
            return self.run_on_shards(shards.min(self.p), inits, program);
        }
        let mut lease = crate::cores::lease(most_shards(self.p) - 1);
        let shards = prev_power_of_two(1 + lease.cores());
        lease.trim(shards - 1);
        self.run_on_shards(shards, inits, program)
    }

    /// [`Machine::run_sharded`] on exactly `shards` shards (a power of
    /// two, at most `p`). One shard is [`Machine::run`] on the calling
    /// thread.
    fn run_on_shards<I, O, F, Fut>(
        &self,
        shards: usize,
        inits: Vec<I>,
        program: F,
    ) -> Result<RunOutcome<O>, RunError>
    where
        F: Fn(Proc, I) -> Fut + Sync,
        Fut: Future<Output = O>,
        I: Send,
        O: Send,
    {
        self.check_inits(inits.len())?;
        if shards == 1 {
            return self.run(inits, program);
        }
        let fabric = Fabric::new(self.p, shards);
        let size = self.p / shards;
        let (fabric, program) = (&fabric, &program);
        // Each shard draws its own seeded order from the caller's seed.
        let order = RESUME_ORDER.get();
        let order = move |shard: usize| order.map(|seed| mix(seed ^ shard as u64));
        let ends = std::thread::scope(|scope| {
            // Every shard thread waits for its chunk until all have
            // started, so one that cannot start leaves every input here:
            // the others see their channel close and return, and the
            // machine runs on one shard instead.
            let mut started = Vec::with_capacity(shards - 1);
            for shard in 1..shards {
                let (post, chunk) = std::sync::mpsc::channel();
                let spawned = std::thread::Builder::new()
                    .name(format!("cubemm-shard-{shard}"))
                    .spawn_scoped(scope, move || {
                        let chunk = chunk.recv().ok()?;
                        let at = Some((fabric, shard));
                        Some(self.run_shard(at, shard * size, chunk, program, order(shard)))
                    });
                match spawned {
                    Ok(handle) => started.push((post, handle)),
                    Err(_) => return Err(inits),
                }
            }
            let mut inits = inits.into_iter();
            let first = inits.by_ref().take(size).collect();
            for (post, _) in &started {
                // The thread is blocked on its channel, so it takes this.
                let _ = post.send(inits.by_ref().take(size).collect());
            }
            let mut ends = vec![self.run_shard(Some((fabric, 0)), 0, first, program, order(0))];
            for (_, handle) in started {
                match handle.join() {
                    Ok(end) => ends.extend(end),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            Ok(ends)
        });
        match ends {
            Ok(mut ends) => conclude(&mut ends, self.options.cost),
            Err(inits) => self.run(inits, program),
        }
    }

    /// The per-run check: one initial-data entry per node.
    fn check_inits(&self, count: usize) -> Result<(), RunError> {
        if count != self.p {
            return Err(RunError::Config(format!(
                "need exactly one initial-data entry per node: got {count} for p = {}",
                self.p
            )));
        }
        Ok(())
    }

    /// One shard's event loop over the nodes `base..base + inits.len()`
    /// (all of them when `fabric` is `None`, the one-shard run), on the
    /// calling thread.
    ///
    /// All of the shard's node futures live here; the ready set resumes
    /// the runnable node with the least label next (a seeded
    /// pseudo-random one when `order` is set, see [`with_resume_order`]).
    /// A poll runs the node until it completes or parks in the ledger;
    /// handoff injections unpark their target, which re-enters the ready
    /// set. A node that fails is dropped and its failure recorded; the
    /// rest run on. On a sharded run the loop also posts the ledger's
    /// outbox after every poll, delivers its inbox whenever the fabric
    /// signals, and blocks in the fabric when it has nothing to run. The
    /// loop ends when nothing can run on any shard, and then drops every
    /// node future still held, which runs its locals' destructors.
    fn run_shard<I, O, F, Fut>(
        &self,
        fabric: Option<(&Fabric, usize)>,
        base: usize,
        inits: Vec<I>,
        program: &F,
        order: Option<u64>,
    ) -> ShardEnd<O>
    where
        F: Fn(Proc, I) -> Fut,
        Fut: Future<Output = O>,
    {
        // A panic outside a node's poll (a program that panics before it
        // returns its future, a destructor) must not leave the other
        // shards waiting for this one.
        let _stop_on_panic = fabric.map(|(fabric, _)| StopOnPanic(fabric));
        let (dim, options, len) = (self.dim, &self.options, inits.len());
        let ledger = Rc::new(Ledger::new(base, len));
        let faults = (!options.faults.is_empty()).then(|| Rc::new(options.faults.clone()));

        let mut outputs: Vec<Option<O>> = Vec::with_capacity(len);
        outputs.resize_with(len, || None);
        let mut futures: Vec<Option<Pin<Box<Fut>>>> = (inits.into_iter().enumerate())
            .map(|(at, init)| {
                let proc = Proc::new(base + at, dim, options, faults.clone(), Rc::clone(&ledger));
                Some(Box::pin(program(proc, init)))
            })
            .collect();

        let mut ready = Ready::full(len, order);
        let mut cx = Context::from_waker(Waker::noop());
        let mut mail = Vec::new();
        'run: loop {
            while let Some(at) = ready.pop() {
                let id = base + at;
                let Some(fut) = futures[at].as_mut() else {
                    continue;
                };
                match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
                    Ok(Poll::Ready(out)) => {
                        outputs[at] = Some(out);
                        futures[at] = None;
                        ledger.finish(id);
                    }
                    // Parked inside a ledger receive; the ready set holds
                    // it again once the ledger wakes it.
                    Ok(Poll::Pending) => {}
                    // The node failed. Dropping its future drops its
                    // `Proc`, if the unwind has not, which deposits the
                    // clock that ranks the failure.
                    Err(payload) => {
                        futures[at] = None;
                        let error = match payload.downcast::<Aborted>() {
                            Ok(aborted) => aborted.0,
                            Err(payload) => RunError::NodePanicked {
                                node: id,
                                message: panic_message(payload.as_ref()),
                            },
                        };
                        ledger.fail(id, error);
                    }
                }
                ledger.drain_woken(|at| ready.push(at));
                if let Some((fabric, shard)) = fabric {
                    ledger.take_outbox(&mut mail);
                    if !mail.is_empty() {
                        fabric.post(&mut mail);
                    }
                    if fabric.signaled(shard) {
                        if !fabric.take_mail(shard, &mut mail) {
                            break 'run;
                        }
                        deliver(&ledger, fabric, &mut mail, &mut ready);
                    }
                }
            }
            // Nothing runnable: on one shard the run is over; a shard
            // waits for mail until the whole machine is quiet.
            let Some((fabric, shard)) = fabric else {
                break;
            };
            if !fabric.idle(shard, &mut mail) {
                break;
            }
            deliver(&ledger, fabric, &mut mail, &mut ready);
        }
        // Dropping the futures still held runs their locals' destructors,
        // and each `Proc` deposits its parts.
        drop(futures);
        ShardEnd {
            outputs,
            ledger: ledger.end(),
        }
    }
}

thread_local! {
    /// The shard count [`with_shards`] fixes for this thread's runs.
    static FORCED_SHARDS: Cell<Option<usize>> = const { Cell::new(None) };
    /// The seed [`with_resume_order`] fixes for this thread's runs.
    static RESUME_ORDER: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` with every [`Machine::run`] and [`Machine::run_sharded`] it
/// starts on this thread resuming its runnable nodes in a pseudo-random
/// order drawn from `seed` (each shard its own), instead of least label
/// first. Resume order never changes a result (DESIGN.md §11, "One
/// failure rule"), so every output, statistic, trace and failure must
/// equal the default order's: the oracle tests that check that claim
/// run under it. Nothing else selects the order.
#[doc(hidden)]
pub fn with_resume_order<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            RESUME_ORDER.set(self.0);
        }
    }
    let _restore = Restore(RESUME_ORDER.replace(Some(seed)));
    f()
}

/// Runs `f` with every [`Machine::run_sharded`] it starts on this thread
/// split over exactly `shards` shards (a power of two; machines smaller
/// than that run on all their nodes' worth), whatever the machine's
/// size or the host's spare cores. For tests and benches that compare
/// shard counts; nothing else selects `K`.
///
/// # Panics
/// Panics if `shards` is not a power of two.
#[doc(hidden)]
pub fn with_shards<R>(shards: usize, f: impl FnOnce() -> R) -> R {
    assert!(shards.is_power_of_two(), "{shards} shards");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_SHARDS.set(self.0);
        }
    }
    let _restore = Restore(FORCED_SHARDS.replace(Some(shards)));
    f()
}

/// The most shards [`Machine::run_sharded`] splits a `p`-node machine
/// into on this host, before spare cores are leased: `p /
/// SHARD_MIN_NODES` capped by the host's cores, as a power of two.
pub fn most_shards(p: usize) -> usize {
    prev_power_of_two((p / SHARD_MIN_NODES).clamp(1, crate::cores::host()))
}

/// The largest power of two that is at most `n` (`n >= 1`).
fn prev_power_of_two(n: usize) -> usize {
    1 << n.ilog2()
}

/// Injects every message of `mail` (swapped out of the shard's inbox)
/// through the shard's ledger, queues the nodes it wakes, and counts the
/// messages off the fabric.
fn deliver(
    ledger: &Ledger,
    fabric: &Fabric,
    mail: &mut Vec<crate::ledger::Mail>,
    ready: &mut Ready,
) {
    let count = mail.len();
    for (to, env) in mail.drain(..) {
        ledger.inject(to, env);
    }
    fabric.delivered(count);
    ledger.drain_woken(|at| ready.push(at));
}

/// Stops every shard if dropped while its thread is panicking.
struct StopOnPanic<'a>(&'a Fabric);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// How one shard's event loop ended: its nodes' outputs, in label order,
/// and its ledger's account.
struct ShardEnd<O> {
    outputs: Vec<Option<O>>,
    ledger: LedgerEnd,
}

/// The outcome every run shares, from its shards' ends in label order:
/// the least failure by `(clock at failure, node)`; else a deadlock
/// naming every parked receive; else the outputs, statistics and traces —
/// unless `cost` overflowed the virtual clock, which no per-cost check
/// can rule out (finite `ts` and `tw` can still sum past `f64::MAX`).
///
/// Once no node can run, every live node is parked on a receive no
/// injection can satisfy (a matching one would have unparked it). A
/// machine's maximal execution is unique: each node is a deterministic
/// program over FIFO channels it reads one at a time, so every node
/// stops at the same receive, fails at the same clock and leaves the
/// same mail untaken however the nodes were scheduled or sharded. So
/// the union of the shards' parked tables is the deadlock report, and
/// the least failure is the same on any number of shards.
fn conclude<O>(ends: &mut [ShardEnd<O>], cost: CostParams) -> Result<RunOutcome<O>, RunError> {
    let mut failure = None;
    for end in ends.iter_mut() {
        if let Some(failed) = end.ledger.failure.take() {
            least(&mut failure, failed);
        }
    }
    if let Some((_, failure)) = failure {
        return Err(failure);
    }
    let live: usize = ends.iter().map(|end| end.ledger.live).sum();
    if live > 0 {
        let mut tables = ends
            .iter_mut()
            .map(|end| std::mem::take(&mut end.ledger.blocked));
        let mut blocked = tables.next().unwrap_or_default();
        for mut table in tables {
            blocked.append(&mut table);
        }
        assert!(
            blocked.len() == live,
            "node program suspended on a non-simnet future \
             (only Proc primitives may be awaited)"
        );
        return Err(RunError::Deadlock { blocked });
    }

    let p = ends.iter().map(|end| end.outputs.len()).sum();
    let mut outs = Vec::with_capacity(p);
    let mut nodes = Vec::with_capacity(p);
    let mut traces = Vec::with_capacity(p);
    for end in ends {
        let parts = std::mem::take(&mut end.ledger.parts);
        for (out, part) in std::mem::take(&mut end.outputs).into_iter().zip(parts) {
            #[allow(
                clippy::expect_used,
                reason = "a failed or deadlocked run returned above; every node completed \
                          and every dropped Proc deposited its parts"
            )]
            {
                outs.push(out.expect("every node completed"));
                let (stats, trace) = part.expect("node parts deposited on drop");
                nodes.push(stats);
                traces.push(trace);
            }
        }
    }
    let elapsed = nodes.iter().map(|n| n.clock).fold(0.0, f64::max);
    if !elapsed.is_finite() {
        let CostParams { ts, tw } = cost;
        return Err(RunError::Config(format!(
            "ts = {ts:?} and tw = {tw:?} overflow the virtual clock: \
             the simulated time is not finite"
        )));
    }
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

    /// The paper's machine at test costs.
    fn machine(p: usize, port: PortModel) -> Machine {
        Machine::builder(p)
            .port(port)
            .cost(COST)
            .build()
            .expect("valid test machine")
    }

    #[test]
    fn neighbor_send_recv_costs_one_hop() {
        // Node 0 sends 5 words to node 1; both clocks end at ts + 5 tw.
        let out = machine(2, PortModel::OnePort)
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

    #[test]
    fn receive_is_passive_for_busy_receiver() {
        // Node 1 first performs its own send (port busy until 20), then
        // receives a message that arrived at t=20; its clock stays 20.
        let out = machine(2, PortModel::OnePort)
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

    #[test]
    fn one_port_serializes_multi_sends() {
        let out = machine(4, PortModel::OnePort)
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

    #[test]
    fn multi_port_overlaps_distinct_links() {
        let out = machine(4, PortModel::MultiPort)
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

    #[test]
    fn multi_port_serializes_same_link() {
        let out = machine(2, PortModel::MultiPort)
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

    #[test]
    fn multi_port_link_clocks_start_fresh_each_batch() {
        // The second batch reuses the first one's link after a receive
        // has moved the node on to t = 100: it must start there, not
        // where the link last fell idle (t = 20).
        let out = machine(2, PortModel::MultiPort)
            .run(vec![(); 2], |mut proc, ()| async move {
                if proc.id() == 0 {
                    for tag in 0..2 {
                        let data = words(5);
                        proc.multi(vec![Op::Send { to: 1, tag, data }]).await;
                        if tag == 0 {
                            // Sent at t = 20, 35 words: arrives at t = 100.
                            let _ = proc.recv(1, 7).await;
                        }
                    }
                } else {
                    let _ = proc.recv(0, 0).await;
                    proc.send(0, 7, words(35));
                    let _ = proc.recv(0, 1).await;
                }
                proc.clock()
            })
            .expect("healthy run");
        assert_eq!(out.outputs, vec![120.0, 120.0]);
    }

    #[test]
    fn exchange_costs_one_unit_on_the_critical_path() {
        // Recursive-doubling style pairwise exchange: both nodes send and
        // receive; the paper charges t_s + t_w m per step.
        let out = machine(2, PortModel::OnePort)
            .run(vec![(), ()], |mut proc, ()| async move {
                let other = proc.id() ^ 1;
                let got = proc.exchange(other, 9, words(5)).await;
                assert_eq!(got.len(), 5);
                proc.clock()
            })
            .expect("healthy run");
        assert_eq!(out.outputs, vec![20.0, 20.0]);
    }

    #[test]
    fn routed_send_charges_hamming_distance() {
        let out = machine(8, PortModel::OnePort)
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

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = machine(2, PortModel::OnePort)
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

    #[test]
    fn peak_words_tracked() {
        let out = machine(2, PortModel::OnePort)
            .run(vec![(), ()], |mut proc, ()| async move {
                proc.track_peak_words(100);
                proc.track_peak_words(40);
            })
            .expect("healthy run");
        assert_eq!(out.stats.max_peak_words(), 100);
        assert_eq!(out.stats.total_peak_words(), 200);
    }

    #[test]
    fn non_power_of_two_rejected_at_build() {
        let err = Machine::builder(3).build().unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("power of two")));
    }

    #[test]
    fn non_neighbor_send_rejected() {
        let err = machine(4, PortModel::OnePort)
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

    #[test]
    fn machine_reboots_identically_without_revalidation() {
        // Prepare once (validation happens here), then boot three
        // times: every reboot must reproduce the same virtual
        // numbers bit for bit — machine reuse cannot perturb determinism.
        let machine = machine(2, PortModel::OnePort);
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

    #[test]
    fn builder_rejects_bad_configs_at_build() {
        let err = Machine::builder(3).build().unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("power of two")));
        let err = Machine::builder(4)
            .faults(crate::FaultPlan::new().with_straggler(9, 2.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("outside the 4-node")));
        for (ts, tw, why) in [
            (f64::NAN, 3.0, "ts must be finite and non-negative, got NaN"),
            (-1.0, 3.0, "ts must be finite and non-negative, got -1"),
            (
                150.0,
                f64::INFINITY,
                "tw must be finite and non-negative, got inf",
            ),
        ] {
            let err = Machine::builder(4)
                .cost(CostParams { ts, tw })
                .build()
                .unwrap_err();
            assert!(matches!(err, RunError::Config(ref m) if m == why), "{err}");
        }
        // The init count stays a per-run check.
        let machine = Machine::builder(4).build().expect("valid config");
        let err = machine.run(vec![(), ()], |_, ()| async {}).unwrap_err();
        assert!(matches!(err, RunError::Config(ref m) if m.contains("one initial-data entry")));
    }

    #[test]
    fn run_reports_node_panics_with_label_and_message() {
        let err = machine(4, PortModel::OnePort)
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

    /// The two deadlock-exactness contracts: the ledger proves the
    /// deadlock the instant the last live node parks (or finishes) — no
    /// watchdog, no timeout. Each is pinned under both port models; the
    /// `event_engine_` names date from when a second engine existed and
    /// now carry the multi-port case.
    fn check_two_node_cyclic_wait(port: PortModel) {
        let wall = std::time::Instant::now();
        let err = machine(2, port)
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

    fn check_finished_sender_deadlock(port: PortModel) {
        // Node 0 exits without sending; node 1 waits forever. The last
        // live node is parked, so the ledger declares deadlock from the
        // finish path (not only the park path).
        let wall = std::time::Instant::now();
        let err = machine(2, port)
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
        check_two_node_cyclic_wait(PortModel::OnePort);
    }

    #[test]
    fn event_engine_two_node_cyclic_wait_is_detected_exactly_and_instantly() {
        check_two_node_cyclic_wait(PortModel::MultiPort);
    }

    #[test]
    fn finished_sender_leaves_receiver_deadlocked_not_hung() {
        check_finished_sender_deadlock(PortModel::OnePort);
    }

    #[test]
    fn event_engine_finished_sender_leaves_receiver_deadlocked_not_hung() {
        check_finished_sender_deadlock(PortModel::MultiPort);
    }

    #[test]
    fn event_engine_scales_past_the_thread_limit() {
        // A 4096-node all-to-nearest exchange: impossible thread-per-node
        // on a default host, routine for the event loop.
        let out = machine(4096, PortModel::OnePort)
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
    fn machines_and_outcomes_cross_threads() {
        // Compile-time guard: serve caches `Machine`s across its workers
        // and `run_grid` returns outcomes across threads, so the
        // per-shard ledger (`Rc`) must never leak into these types.
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        fn outcome<O: Send>() {
            send::<RunOutcome<O>>();
        }
        send_sync::<Machine>();
        send_sync::<MachineOptions>();
        send_sync::<RunError>();
        outcome::<Vec<Payload>>();
    }
}
