//! The per-processor handle: virtual clock, message primitives, counters.

use std::rc::Rc;

use cubemm_topology::bits::{dim_walk, hamming};

use crate::faults::{FaultPlan, LinkQuality};
use crate::ledger::Ledger;
use crate::machine::{MachineOptions, RunError};
use crate::stats::{FiredFault, FiredKind, NodeStats};
use crate::trace::{TraceEvent, TraceKind};
use crate::{ChargePolicy, CostParams, IdMap, LinkTopology, Payload, PortModel};

/// A message in flight.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub from: usize,
    pub tag: u64,
    /// Virtual time at which the message is available at the receiver.
    pub arrive: f64,
    pub data: Payload,
}

/// One element of a [`Proc::multi`] batch.
#[derive(Debug, Clone)]
pub enum Op {
    /// Send `data` to neighbor `to` under tag `tag`.
    Send {
        /// Destination node label (must be a hypercube neighbor).
        to: usize,
        /// Message tag for matching.
        tag: u64,
        /// Message payload.
        data: Payload,
    },
    /// Receive the message tagged `tag` from node `from`.
    Recv {
        /// Source node label.
        from: usize,
        /// Message tag for matching.
        tag: u64,
    },
}

/// A typed send failure: the sending node fails with it as
/// [`crate::RunError::LinkDead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The direct link to the destination is dead and the plan forbids
    /// re-routing ([`FaultPlan::strict`]).
    LinkDead {
        /// Sending node.
        from: usize,
        /// Intended neighbor.
        to: usize,
    },
    /// No live path exists between the endpoints (the destination is cut
    /// off by dead links).
    Unroutable {
        /// Sending node.
        from: usize,
        /// Destination node.
        to: usize,
    },
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::LinkDead { from, to } => {
                write!(f, "link {from} <-> {to} is dead (strict fault plan)")
            }
            SendError::Unroutable { from, to } => {
                write!(f, "no live path from node {from} to node {to}")
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Handle through which a virtual processor's SPMD program communicates.
///
/// A node program receives its `Proc` by value and communicates through
/// it; the blocking primitives ([`Proc::recv`], [`Proc::multi`],
/// [`Proc::exchange`]) are `async` — they suspend the node's
/// continuation until the awaited message exists, handing control back
/// to the machine's event loop. Only `Proc` futures may be awaited
/// inside a node program.
///
/// See the crate-level documentation for the cost semantics and the
/// [`crate::faults`] module for the fault model.
pub struct Proc {
    id: usize,
    dim: u32,
    port: PortModel,
    cost: CostParams,
    charge: ChargePolicy,
    links: LinkTopology,
    clock: f64,
    /// Straggler clock-rate multiplier (1.0 when healthy).
    slow: f64,
    /// `None` when the plan is empty: the healthy fast path performs the
    /// exact arithmetic of the fault-free simulator.
    faults: Option<Rc<FaultPlan>>,
    /// The shard's progress ledger: mailboxes, parked receives, liveness,
    /// and where `Drop` deposits the node's final stats and trace.
    ledger: Rc<Ledger>,
    /// Per-destination injection counters driving the drop schedules.
    /// Only maintained while the plan schedules drops.
    seq: IdMap<usize, u64>,
    /// Per-directed-edge crossing counters driving the corruption
    /// schedules: how many payloads this node has pushed across each
    /// edge (its sends count every edge of their path). Only maintained
    /// while the plan schedules corruption, so the healthy path pays
    /// nothing.
    crossings: IdMap<(usize, usize), u64>,
    stats: NodeStats,
    trace: Option<Vec<TraceEvent>>,
    /// Program-step counter stamped on trace events: each public
    /// communication call is one step, a `multi` batch shares one.
    round: u64,
    /// Multi-port link occupancy within the current [`Proc::multi`]
    /// batch, as `(link, busy until)`: cleared per batch, kept across
    /// batches so a batch allocates nothing. A batch touches at most
    /// `2·log p` links, so a linear scan finds one.
    link_busy: Vec<(usize, f64)>,
}

impl Proc {
    pub(crate) fn new(
        id: usize,
        dim: u32,
        options: &MachineOptions,
        faults: Option<Rc<FaultPlan>>,
        ledger: Rc<Ledger>,
    ) -> Self {
        let slow = faults.as_ref().map_or(1.0, |plan| plan.slowdown(id));
        Proc {
            id,
            dim,
            port: options.port,
            cost: options.cost,
            charge: options.charge,
            links: options.links,
            clock: 0.0,
            slow,
            faults,
            ledger,
            seq: IdMap::default(),
            crossings: IdMap::default(),
            stats: NodeStats::default(),
            trace: options.traced.then(Vec::new),
            round: 0,
            link_busy: Vec::new(),
        }
    }

    /// Starts the next program step (see [`TraceEvent::round`]): called
    /// once per public communication call, so every event a single call
    /// records shares one round.
    ///
    /// This is also where a scheduled node crash fires: a plan entry
    /// `with_crash(id, k)` kills the node as it *begins* its k-th
    /// (0-based) communication call, before any cost is charged or any
    /// message moves — modelling a rank that dies between algorithm
    /// steps. The crash surfaces as [`crate::RunError::NodeCrashed`].
    fn begin_round(&mut self) {
        let step = self.round;
        self.round += 1;
        if self.slow != 1.0 && step == 0 {
            // A straggler fires (scales its first charge) the moment the
            // node starts communicating.
            self.note_fired(FiredKind::Straggler, self.id, self.id);
        }
        let crashes = self
            .faults
            .as_deref()
            .is_some_and(|plan| plan.crash_step(self.id) == Some(step));
        if crashes {
            self.note_fired(FiredKind::Crash, self.id, self.id);
            self.quiet_abort(RunError::NodeCrashed {
                node: self.id,
                step,
            });
        }
    }

    /// Records a fault-plan entry observed firing at this node, once per
    /// `(kind, endpoints)` pair, stamped with the current program step.
    /// Only called on fault paths, so an empty plan records nothing.
    fn note_fired(&mut self, kind: FiredKind, a: usize, b: usize) {
        if self
            .stats
            .fired
            .iter()
            .any(|f| f.kind == kind && f.a == a && f.b == b)
        {
            return;
        }
        self.stats.fired.push(FiredFault {
            kind,
            a,
            b,
            step: self.round.saturating_sub(1),
        });
    }

    /// Applies any scheduled in-flight corruption to `data` as it
    /// crosses the directed edges of `path` (successor labels from this
    /// node), bumping the per-edge crossing counters. The counters are
    /// only maintained once the plan schedules corruption at all, so a
    /// corruption-free plan costs one boolean check per send.
    fn corrupt_along(&mut self, path: impl Iterator<Item = usize>, data: Payload) -> Payload {
        let plan = match &self.faults {
            Some(plan) if plan.has_corruptions() => Rc::clone(plan),
            _ => return data,
        };
        let mut data = data;
        let mut cur = self.id;
        for next in path {
            let seq = self.crossings.entry((cur, next)).or_insert(0);
            let s = *seq;
            *seq += 1;
            if let Some(corruption) = plan.corrupts_nth(cur, next, s) {
                let mut words: Vec<f64> = data.to_vec();
                corruption.apply(&mut words);
                self.stats.corrupted += 1;
                self.note_fired(FiredKind::Corruption, cur, next);
                data = Payload::from(words);
            }
            cur = next;
        }
        data
    }

    fn record(&mut self, kind: TraceKind, tag: u64, words: usize, start: f64, end: f64) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                node: self.id,
                round: self.round,
                kind,
                tag,
                words,
                start,
                end,
            });
        }
    }

    /// This processor's hypercube label.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Hypercube dimension (`log2 p`).
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Total processor count.
    #[inline]
    pub fn p(&self) -> usize {
        1usize << self.dim
    }

    /// The port model this machine runs under.
    #[inline]
    pub fn port_model(&self) -> PortModel {
        self.port
    }

    /// The cost parameters of this machine.
    #[inline]
    pub fn cost(&self) -> CostParams {
        self.cost
    }

    /// Current virtual time at this processor.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Straggler clock-rate multiplier on cost `c` — the identity on a
    /// healthy node, so an empty fault plan changes no clock arithmetic.
    #[inline]
    fn scaled(&self, cost: f64) -> f64 {
        if self.slow == 1.0 {
            cost
        } else {
            cost * self.slow
        }
    }

    /// Records an instantaneous resident-data footprint in words; the peak
    /// over the run feeds the Table 3 space measurements.
    #[inline]
    pub fn track_peak_words(&mut self, words: usize) {
        self.stats.peak_words = self.stats.peak_words.max(words);
    }

    /// Sends `data` to a hypercube neighbor, charging the sender's port
    /// for one hop.
    ///
    /// If the direct link is dead the message transparently re-routes
    /// over a live detour, charging the extra hops honestly (strict fault
    /// plans fail instead). A scheduled message drop silently loses the
    /// payload in flight, so the receiver deadlocks. A failure stops this
    /// node and fails the run with a structured [`crate::RunError`].
    pub fn send(&mut self, to: usize, tag: u64, data: impl Into<Payload>) {
        self.begin_round();
        let detour = self.route(to, true).unwrap_or_else(|e| self.fail_link(e));
        self.clock = self.issue(to, tag, data.into(), detour, self.clock);
    }

    /// Point-to-point transfer to an arbitrary node via dimension-ordered
    /// routing over `h` hops (`h` = Hamming distance), priced as the
    /// paper prices its non-neighbor point-to-point phases:
    ///
    /// * one-port: store-and-forward, `h·(t_s + t_w·m)`;
    /// * multi-port: the message is pipelined along the path in pieces,
    ///   `h·t_s + t_w·m` (this is what makes the DNS and 3-D Diagonal
    ///   multi-port rows of Table 2 carry a `t_w` term of `m`, not
    ///   `m·log ∛p`).
    ///
    /// Under a fault plan the route deterministically detours around dead
    /// links (charging the extra hops); if the destination is cut off the
    /// node fails with [`SendError::Unroutable`].
    pub fn send_routed(&mut self, to: usize, tag: u64, data: impl Into<Payload>) {
        self.begin_round();
        let detour = self.route(to, false).unwrap_or_else(|e| self.fail_link(e));
        self.clock = self.issue(to, tag, data.into(), detour, self.clock);
    }

    /// The route step of every send: `Ok(None)` takes the healthy
    /// dimension-ordered route, `Ok(Some(path))` a detour (successor
    /// labels ending at `to`) around a dead or missing edge. A
    /// `neighbor` send must name an existing hypercube edge, and only
    /// it fails under a strict plan; a routed send always detours.
    fn route(&mut self, to: usize, neighbor: bool) -> Result<Option<Vec<usize>>, SendError> {
        let id = self.id;
        if neighbor {
            assert_eq!(
                hamming(id, to),
                1,
                "send: node {id} -> {to} is not a hypercube neighbor (use send_routed)"
            );
            assert!(
                self.links.allows(id, to),
                "send: edge {id} -> {to} does not exist in {:?}",
                self.links
            );
        } else {
            assert_ne!(id, to, "send_routed: node {id} sending to itself");
        }
        let Some(plan) = self.faults.clone() else {
            return Ok(None);
        };
        // A neighbor's healthy route is its one edge, asserted above.
        if neighbor && !plan.is_dead(id, to) {
            return Ok(None);
        }
        // The healthy route is usable unless it crosses a dead (or, on a
        // restricted topology, a missing) edge; the first dead edge is
        // the one that forced the detour.
        let (mut cur, mut usable, mut dead) = (id, true, None);
        for next in dim_walk(id, to, 0) {
            if plan.is_dead(cur, next) {
                (usable, dead) = (false, Some((cur.min(next), cur.max(next))));
                break;
            }
            usable &= self.links.allows(cur, next);
            cur = next;
        }
        if usable {
            return Ok(None);
        }
        if neighbor && plan.is_strict() {
            return Err(SendError::LinkDead { from: id, to });
        }
        let path = plan
            .route(self.links, self.dim, id, to)
            .ok_or(SendError::Unroutable { from: id, to })?;
        if let Some((a, b)) = dead {
            self.note_fired(FiredKind::DeadLink, a, b);
        }
        Ok(Some(path))
    }

    /// The issue step of every send, starting at `start`: prices the
    /// route, records the trace event, applies scheduled corruption and
    /// injects the message. Returns when the port frees up.
    fn issue(
        &mut self,
        to: usize,
        tag: u64,
        data: Payload,
        detour: Option<Vec<usize>>,
        start: f64,
    ) -> f64 {
        let words = data.len();
        let hamming = hamming(self.id, to);
        let hops = detour.as_ref().map_or(hamming, |path| path.len() as u32);
        let (cost, data) = match &detour {
            Some(path) => (
                self.path_cost(hops, path.iter().copied(), words),
                self.corrupt_along(path.iter().copied(), data),
            ),
            // The hot case: a neighbor's healthy route is its one edge.
            None if hops == 1 => (
                self.path_cost(hops, std::iter::once(to), words),
                self.corrupt_along(std::iter::once(to), data),
            ),
            None => (
                self.path_cost(hops, dim_walk(self.id, to, 0), words),
                self.corrupt_along(dim_walk(self.id, to, 0), data),
            ),
        };
        let end = start + self.scaled(cost);
        self.record(TraceKind::Send { to, hops }, tag, words, start, end);
        self.stats.detour_hops += (hops - hamming) as usize;
        self.inject(to, tag, end, data, hops as usize);
        end
    }

    /// Port-occupancy cost of pushing `words` words over the `hops`
    /// edges of `path` (successor labels), including any degradation in
    /// effect at the current program step. Over healthy edges this is
    /// the paper's closed form: one-port `h·(t_s + t_w·m)`, multi-port
    /// `h·t_s + t_w·m`. Once an edge is degraded, one-port
    /// store-and-forward sums the per-edge costs and multi-port pipelines
    /// the message, paying every edge's start-up but only the slowest
    /// edge's bandwidth.
    fn path_cost(&mut self, hops: u32, path: impl Iterator<Item = usize>, words: usize) -> f64 {
        let (ts, tw, m) = (self.cost.ts, self.cost.tw, words as f64);
        let closed_form = match self.port {
            PortModel::OnePort => f64::from(hops) * self.cost.hop(words),
            PortModel::MultiPort => f64::from(hops) * ts + tw * m,
        };
        let Some(plan) = self.faults.clone() else {
            return closed_form;
        };
        let step = self.round.saturating_sub(1);
        let mut healthy = true;
        let (mut ts_sum, mut tw_worst, mut store_forward) = (0.0, 0.0f64, 0.0);
        let mut cur = self.id;
        for next in path {
            let q = plan.link_quality_at(cur, next, step);
            if q != LinkQuality::HEALTHY {
                healthy = false;
                self.note_fired(FiredKind::DegradedLink, cur.min(next), cur.max(next));
            }
            ts_sum += q.ts_factor * ts;
            tw_worst = tw_worst.max(q.tw_factor);
            store_forward += q.ts_factor * ts + q.tw_factor * tw * m;
            cur = next;
        }
        match (healthy, self.port) {
            (true, _) => closed_form,
            (false, PortModel::OnePort) => store_forward,
            (false, PortModel::MultiPort) => ts_sum + tw_worst * tw * m,
        }
    }

    /// Receives the message tagged `tag` from `from`, advancing the clock
    /// to its arrival time if it has not yet arrived. Receives are
    /// passive: they do not occupy the port (crate docs).
    ///
    /// Blocking point: awaiting suspends the node until the message is
    /// available (see the type-level docs).
    pub async fn recv(&mut self, from: usize, tag: u64) -> Payload {
        self.begin_round();
        let start = self.clock;
        let env = self.take_matching(from, tag).await;
        self.clock = match self.charge {
            ChargePolicy::SenderOnly => self.clock.max(env.arrive),
            // Symmetric: pulling the message occupies this port too.
            ChargePolicy::Symmetric => {
                self.clock.max(env.arrive) + self.scaled(self.cost.hop(env.data.len()))
            }
        };
        self.record(
            TraceKind::Recv { from },
            tag,
            env.data.len(),
            start,
            self.clock,
        );
        env.data
    }

    /// When the link to `to` frees up in the current multi-port batch:
    /// `idle` unless the batch has already used it. Keyed by label, not
    /// dimension — a routed send's first hop and a symmetric pull's
    /// source are labels too.
    fn busy_until(&self, to: usize, idle: f64) -> f64 {
        self.link_busy
            .iter()
            .find(|&&(link, _)| link == to)
            .map_or(idle, |&(_, end)| end)
    }

    /// Records that the link to `to` is busy until `end` in the current
    /// multi-port batch.
    fn occupy(&mut self, to: usize, end: f64) {
        match self.link_busy.iter_mut().find(|(link, _)| *link == to) {
            Some(slot) => slot.1 = end,
            None => self.link_busy.push((to, end)),
        }
    }

    /// Issues a batch of logically concurrent operations.
    ///
    /// All `Send`s are processed first, then all `Recv`s (so a batch may
    /// safely exchange with partners issuing mirror-image batches). Under
    /// one-port the sends serialize; under multi-port sends to distinct
    /// neighbors overlap (sends sharing a link serialize on it). The
    /// returned vector is aligned with `ops`: `Some(payload)` for each
    /// `Recv`, `None` for each `Send`. Sends over dead links re-route
    /// exactly as [`Proc::send`] does (detours occupy the first-hop
    /// link); under a strict plan they fail the node.
    ///
    /// Blocking point: awaiting suspends the node at each batched
    /// receive whose message has not been injected yet.
    pub async fn multi(&mut self, mut ops: Vec<Op>) -> Vec<Option<Payload>> {
        let mut results = Vec::with_capacity(ops.len());
        self.multi_into(&mut ops, &mut results).await;
        results
    }

    /// [`Proc::multi`] over buffers the caller keeps: drains `ops` and
    /// appends the results to `results`, so a node that issues a batch
    /// per round allocates neither vector again once they have grown.
    ///
    /// Blocking point: as [`Proc::multi`].
    pub async fn multi_into(&mut self, ops: &mut Vec<Op>, results: &mut Vec<Option<Payload>>) {
        self.begin_round();
        let batch_start = self.clock;
        self.link_busy.clear();
        let mut batch_end = batch_start;

        // Phase 1: inject all sends (moving each payload out of its op).
        for op in ops.iter_mut() {
            if let Op::Send { to, tag, data } = op {
                let (to, tag, data) = (*to, *tag, std::mem::take(data));
                let detour = self.route(to, true).unwrap_or_else(|e| self.fail_link(e));
                let first_hop = detour.as_ref().map_or(to, |path| path[0]);
                let start = match self.port {
                    // One-port: the single port serializes every send.
                    PortModel::OnePort => batch_end.max(batch_start),
                    // Multi-port: each link proceeds independently.
                    PortModel::MultiPort => self.busy_until(first_hop, batch_start),
                };
                let end = self.issue(to, tag, data, detour, start);
                match self.port {
                    PortModel::OnePort => batch_end = end,
                    PortModel::MultiPort => {
                        self.occupy(first_hop, end);
                        batch_end = batch_end.max(end);
                    }
                }
            }
        }

        // Phase 2: satisfy all receives (passive).
        for op in ops.drain(..) {
            match op {
                Op::Send { .. } => results.push(None),
                Op::Recv { from, tag } => {
                    let env = self.take_matching(from, tag).await;
                    let end = match self.charge {
                        ChargePolicy::SenderOnly => env.arrive,
                        ChargePolicy::Symmetric => match self.port {
                            // One-port: the pull serializes on the port.
                            PortModel::OnePort => {
                                batch_end.max(env.arrive)
                                    + self.scaled(self.cost.hop(env.data.len()))
                            }
                            // Multi-port: the pull occupies its own link.
                            PortModel::MultiPort => {
                                let busy = self.busy_until(from, batch_start);
                                let end = busy.max(env.arrive)
                                    + self.scaled(self.cost.hop(env.data.len()));
                                self.occupy(from, end);
                                end
                            }
                        },
                    };
                    batch_end = batch_end.max(end);
                    self.record(
                        TraceKind::Recv { from },
                        tag,
                        env.data.len(),
                        batch_start,
                        end.max(batch_start),
                    );
                    results.push(Some(env.data));
                }
            }
        }

        self.clock = self.clock.max(batch_end);
    }

    /// Convenience: simultaneous exchange with one partner — send `data`
    /// and receive the partner's message with the same tag. On one-port
    /// machines this is one charged send plus a passive receive, i.e. one
    /// `t_s + t_w·m` on the critical path when both sides exchange — the
    /// cost the paper assigns to a recursive-doubling step.
    ///
    /// Blocking point: awaiting suspends the node until the partner's
    /// message arrives.
    pub async fn exchange(
        &mut self,
        partner: usize,
        tag: u64,
        data: impl Into<Payload>,
    ) -> Payload {
        let out = self
            .multi(vec![
                Op::Send {
                    to: partner,
                    tag,
                    data: data.into(),
                },
                Op::Recv { from: partner, tag },
            ])
            .await;
        #[allow(
            clippy::expect_used,
            reason = "engine contract: multi returns one Some per Op::Recv; a miss is an engine bug"
        )]
        out.into_iter().flatten().next().expect("exchange recv")
    }

    /// Fails this node with the typed send failure.
    fn fail_link(&self, error: SendError) -> ! {
        self.quiet_abort(RunError::LinkDead {
            node: self.id,
            error,
        })
    }

    /// Leaves a node whose own scheduled crash or strict send has just
    /// failed, carrying the failure to the event loop (no panic hook, no
    /// message). `send` is synchronous, so this unwind is the only way
    /// out of it; it happens at most once per node.
    fn quiet_abort(&self, error: RunError) -> ! {
        std::panic::resume_unwind(Box::new(crate::machine::Aborted(error)))
    }

    /// Counts the message against this node and delivers it, honoring the
    /// drop schedule. Port time has already been charged by the caller: a
    /// dropped message still spent the wire time.
    fn inject(&mut self, to: usize, tag: u64, arrive: f64, data: Payload, hops: usize) {
        self.stats.messages += hops;
        self.stats.word_hops += hops * data.len();
        if let Some(plan) = self.faults.clone().filter(|plan| plan.has_drops()) {
            let seq = self.seq.entry(to).or_insert(0);
            let s = *seq;
            *seq += 1;
            if plan.drops_nth(self.id, to, s) {
                self.stats.dropped += 1;
                self.note_fired(FiredKind::Drop, self.id, to);
                self.record(TraceKind::Dropped { to }, tag, data.len(), arrive, arrive);
                return;
            }
        }
        let env = Envelope {
            from: self.id,
            tag,
            arrive,
            data,
        };
        self.ledger.inject(to, env);
    }

    /// The shared blocking receive behind [`Proc::recv`] and
    /// [`Proc::multi`]: polls the ledger's receive until the `(from, tag)`
    /// message is available, suspending the continuation while the node
    /// is parked; a handoff puts it back in the event loop's ready set.
    async fn take_matching(&mut self, from: usize, tag: u64) -> Envelope {
        let (ledger, id) = (&self.ledger, self.id);
        std::future::poll_fn(|_cx| ledger.poll_receive(id, from, tag)).await
    }
}

impl Drop for Proc {
    /// Deposits the node's final statistics and trace in the ledger.
    /// Runs on every exit path — normal completion of the async body,
    /// quiet abort, a genuine panic, or the loop dropping a node future
    /// still parked when the run ends — so the event loop can always
    /// read the parts after the node future is gone: a failed node's
    /// clock ranks its failure, and a run that succeeds uses them all.
    fn drop(&mut self) {
        self.stats.clock = self.clock;
        self.stats.rounds = self.round;
        let stats = std::mem::take(&mut self.stats);
        let trace = self.trace.take().unwrap_or_default();
        self.ledger.deposit(self.id, (stats, trace));
    }
}

#[cfg(test)]
mod tests {
    use super::Envelope;

    /// Every message waits in a mailbox as an `Envelope`, so its size is
    /// paid once per message in copies and heap. At 96 bytes (a 72-byte
    /// payload handle) `run_comm`'s p = 4096 ops spent 26–36 % of wall
    /// time in malloc, free and page faults; at 56 bytes the cannon
    /// one-port op fell from 579 to 461 ms on a 2-vCPU host. A field that
    /// grows it again must fail here, not cost that silently.
    #[test]
    fn envelope_stays_small() {
        assert!(std::mem::size_of::<Envelope>() <= 56);
    }
}
