//! The per-processor handle: virtual clock, message primitives, counters.

use std::rc::Rc;

use cubemm_topology::bits::hamming;

use crate::faults::{FaultPlan, LinkQuality, RetryPolicy, SendError};
use crate::ledger::{Delivery, Ledger};
use crate::machine::{Failure, MachineOptions};
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

/// Handle through which a virtual processor's SPMD program communicates.
///
/// A node program receives its `Proc` by value and communicates through
/// it; the blocking primitives ([`Proc::recv`], [`Proc::multi`],
/// [`Proc::exchange`]) are `async` — they suspend the node's
/// continuation until the awaited message exists, handing control back
/// to the machine's virtual-clock work queue. Only `Proc` futures may be
/// awaited inside a node program.
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
    /// The run's progress ledger: mailboxes, parked receives, liveness,
    /// the abort/failure channel, and where `Drop` deposits the node's
    /// final stats and trace.
    ledger: Rc<Ledger>,
    /// Per-destination injection counters driving the drop schedules.
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
        }
    }

    /// Starts the next program step (see [`TraceEvent::round`]): called
    /// once per public communication call, so every event a single call
    /// records — including fault-plan retries — shares one round.
    ///
    /// This is also where a scheduled node crash fires: a plan entry
    /// `with_crash(id, k)` kills the node as it *begins* its k-th
    /// (0-based) communication call, before any cost is charged or any
    /// message moves — modelling a rank that dies between algorithm
    /// steps. The crash rides the ledger's abort machinery and surfaces
    /// as [`crate::RunError::NodeCrashed`].
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
            self.ledger.trigger(Failure::Crashed {
                node: self.id,
                step,
            });
            self.quiet_abort();
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
    fn corrupt_along(&mut self, path: &[usize], data: Payload) -> Payload {
        let plan = match &self.faults {
            Some(plan) if plan.has_corruptions() => Rc::clone(plan),
            _ => return data,
        };
        let mut data = data;
        let mut cur = self.id;
        for &next in path {
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

    /// The fault plan in effect, or `None` when the machine is healthy.
    /// Degraded-mode collectives use this to spot dead dimension links
    /// before scheduling over them.
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
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

    /// Charges local (non-communication) work to the virtual clock. The
    /// paper compares communication overheads only — the flop count is
    /// identical across algorithms — so the matmul drivers do not call
    /// this; it exists for experiments that want total-time estimates.
    /// Straggler nodes pay their slowdown factor here too.
    #[inline]
    pub fn advance_clock(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.clock += self.scaled(dt);
    }

    /// Records an instantaneous resident-data footprint in words; the peak
    /// over the run feeds the Table 3 space measurements.
    #[inline]
    pub fn track_peak_words(&mut self, words: usize) {
        self.stats.peak_words = self.stats.peak_words.max(words);
    }

    /// Cost of the direct link to `to` for `words` words, including any
    /// degradation in effect at the current program step. With no fault
    /// plan this is exactly `CostParams::hop`.
    fn link_cost(&mut self, to: usize, words: usize) -> f64 {
        match self.faults.clone() {
            None => self.cost.hop(words),
            Some(plan) => {
                let step = self.round.saturating_sub(1);
                let q = plan.link_quality_at(self.id, to, step);
                if q != LinkQuality::HEALTHY {
                    self.note_fired(FiredKind::DegradedLink, self.id.min(to), self.id.max(to));
                }
                q.ts_factor * self.cost.ts + q.tw_factor * self.cost.tw * words as f64
            }
        }
    }

    /// Port-occupancy cost of pushing `words` words along a multi-hop
    /// `path` (successor labels): one-port store-and-forward sums the
    /// per-edge costs; multi-port pipelines the message, paying every
    /// edge's start-up but only the slowest edge's bandwidth.
    fn path_cost(&mut self, path: &[usize], words: usize) -> f64 {
        let mut ts_sum = 0.0;
        let mut tw_worst: f64 = 0.0;
        let mut store_forward = 0.0;
        let mut cur = self.id;
        let step = self.round.saturating_sub(1);
        let faults = self.faults.clone();
        for &next in path {
            let q = match &faults {
                Some(plan) => plan.link_quality_at(cur, next, step),
                None => LinkQuality::HEALTHY,
            };
            if q != LinkQuality::HEALTHY {
                self.note_fired(FiredKind::DegradedLink, cur.min(next), cur.max(next));
            }
            ts_sum += q.ts_factor * self.cost.ts;
            tw_worst = tw_worst.max(q.tw_factor);
            store_forward += q.ts_factor * self.cost.ts + q.tw_factor * self.cost.tw * words as f64;
            cur = next;
        }
        match self.port {
            PortModel::OnePort => store_forward,
            PortModel::MultiPort => ts_sum + tw_worst * self.cost.tw * words as f64,
        }
    }

    /// Sends `data` to a hypercube neighbor, charging the sender's port
    /// for one hop.
    ///
    /// If the direct link is dead the message transparently re-routes
    /// over a live detour, charging the extra hops honestly (strict fault
    /// plans fail instead). A scheduled message drop silently loses the
    /// payload in flight — use [`Proc::send_with_retry`] to model
    /// recovery, or [`Proc::try_send`] to observe delivery. Failures
    /// abort the run with a structured [`crate::RunError`] when driven
    /// through [`crate::Machine::run`].
    pub fn send(&mut self, to: usize, tag: u64, data: impl Into<Payload>) {
        self.begin_round();
        if let Err(e) = self.transmit(to, tag, data.into()) {
            self.fail_link(e);
        }
    }

    /// Non-panicking [`Proc::send`]: returns `Ok(true)` when the message
    /// was delivered to the destination's queue, `Ok(false)` when a
    /// scheduled fault dropped it in flight (the port time is still
    /// charged — the words left the node), and `Err` when no live route
    /// exists or a strict plan forbids the detour.
    pub fn try_send(
        &mut self,
        to: usize,
        tag: u64,
        data: impl Into<Payload>,
    ) -> Result<bool, SendError> {
        self.begin_round();
        self.transmit(to, tag, data.into())
    }

    /// Sends to a neighbor with bounded retries against the drop
    /// schedule: after each lost attempt the sender charges an
    /// exponentially growing *virtual-time* backoff to its own clock and
    /// retransmits. Returns the number of attempts the successful
    /// delivery took, or [`SendError::RetriesExhausted`] if every attempt
    /// was dropped (routing failures propagate immediately) or the next
    /// backoff would exceed [`RetryPolicy::max_total_backoff`].
    pub fn send_with_retry(
        &mut self,
        to: usize,
        tag: u64,
        data: impl Into<Payload>,
        policy: RetryPolicy,
    ) -> Result<u32, SendError> {
        assert!(
            policy.max_attempts >= 1,
            "retry policy needs at least one attempt"
        );
        self.begin_round();
        let data = data.into();
        let mut backoff = policy.backoff;
        let mut backoff_spent = 0.0;
        for attempt in 1..=policy.max_attempts {
            if self.transmit(to, tag, data.clone())? {
                return Ok(attempt);
            }
            if attempt < policy.max_attempts {
                if backoff_spent + backoff > policy.max_total_backoff {
                    // The time cap binds before the attempt cap does:
                    // stop here rather than burn unbounded virtual time
                    // against a permanently lossy link.
                    return Err(SendError::RetriesExhausted {
                        from: self.id,
                        to,
                        attempts: attempt,
                    });
                }
                self.stats.retries += 1;
                self.clock += self.scaled(backoff);
                backoff_spent += backoff;
                backoff *= policy.backoff_factor;
            }
        }
        Err(SendError::RetriesExhausted {
            from: self.id,
            to,
            attempts: policy.max_attempts,
        })
    }

    /// The charged neighbor send shared by [`Proc::send`],
    /// [`Proc::try_send`] and [`Proc::send_with_retry`]. `Ok(delivered)`
    /// reports whether the message survived the drop schedule.
    fn transmit(&mut self, to: usize, tag: u64, data: Payload) -> Result<bool, SendError> {
        assert_eq!(
            hamming(self.id, to),
            1,
            "send: node {} -> {} is not a hypercube neighbor (use send_routed)",
            self.id,
            to
        );
        assert!(
            self.links.allows(self.id, to),
            "send: edge {} -> {} does not exist in {:?}",
            self.id,
            to,
            self.links
        );
        if let Some(plan) = self.faults.clone() {
            if plan.is_dead(self.id, to) {
                if plan.is_strict() {
                    return Err(SendError::LinkDead { from: self.id, to });
                }
                let path = plan
                    .route(self.links, self.dim, self.id, to)
                    .ok_or(SendError::Unroutable { from: self.id, to })?;
                self.note_fired(FiredKind::DeadLink, self.id.min(to), self.id.max(to));
                return Ok(self.send_along(&path, to, tag, data));
            }
        }
        let start = self.clock;
        let cost = self.link_cost(to, data.len());
        let end = start + self.scaled(cost);
        self.clock = end;
        self.record(TraceKind::Send { to, hops: 1 }, tag, data.len(), start, end);
        let data = self.corrupt_along(&[to], data);
        Ok(self.inject(to, tag, end, data, 1))
    }

    /// Charges and injects a multi-hop transfer along `path` (successor
    /// labels ending at `to`), counting detour hops beyond the Hamming
    /// distance.
    fn send_along(&mut self, path: &[usize], to: usize, tag: u64, data: Payload) -> bool {
        let h = path.len();
        let start = self.clock;
        let cost = self.path_cost(path, data.len());
        let end = start + self.scaled(cost);
        self.clock = end;
        self.record(
            TraceKind::Send { to, hops: h as u32 },
            tag,
            data.len(),
            start,
            end,
        );
        self.stats.detour_hops += h - hamming(self.id, to) as usize;
        let data = self.corrupt_along(path, data);
        self.inject(to, tag, end, data, h)
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
    /// run aborts with [`SendError::Unroutable`].
    pub fn send_routed(&mut self, to: usize, tag: u64, data: impl Into<Payload>) {
        self.begin_round();
        if let Err(e) = self.transmit_routed(to, tag, data.into()) {
            self.fail_link(e);
        }
    }

    /// Non-panicking [`Proc::send_routed`]; see [`Proc::try_send`] for
    /// the meaning of the `Ok` value.
    pub fn try_send_routed(
        &mut self,
        to: usize,
        tag: u64,
        data: impl Into<Payload>,
    ) -> Result<bool, SendError> {
        self.begin_round();
        self.transmit_routed(to, tag, data.into())
    }

    fn transmit_routed(&mut self, to: usize, tag: u64, data: Payload) -> Result<bool, SendError> {
        let h = hamming(self.id, to);
        assert!(h > 0, "send_routed: node {} sending to itself", self.id);
        match self.faults.clone() {
            // Healthy machine: the closed-form pricing, bit-for-bit.
            None => {
                let cost = match self.port {
                    PortModel::OnePort => f64::from(h) * self.cost.hop(data.len()),
                    PortModel::MultiPort => {
                        f64::from(h) * self.cost.ts + self.cost.tw * data.len() as f64
                    }
                };
                let start = self.clock;
                let end = start + cost;
                self.clock = end;
                self.record(TraceKind::Send { to, hops: h }, tag, data.len(), start, end);
                Ok(self.inject(to, tag, end, data, h as usize))
            }
            Some(plan) => {
                let path = plan
                    .route(self.links, self.dim, self.id, to)
                    .ok_or(SendError::Unroutable { from: self.id, to })?;
                // The zero-rotation route candidate is exactly the
                // healthy dimension-ordered path; it is only rejected
                // when a dead edge lies on it — so scanning that path
                // pinpoints which dead link (if any) forced this send
                // off the healthy route.
                if plan.dead_links().next().is_some() {
                    let mut cur = self.id;
                    let diff = self.id ^ to;
                    for d in 0..self.dim {
                        if diff >> d & 1 == 1 {
                            let next = cur ^ (1usize << d);
                            if plan.is_dead(cur, next) {
                                self.note_fired(FiredKind::DeadLink, cur.min(next), cur.max(next));
                                break;
                            }
                            cur = next;
                        }
                    }
                }
                Ok(self.send_along(&path, to, tag, data))
            }
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

    /// Issues a batch of logically concurrent operations.
    ///
    /// All `Send`s are processed first, then all `Recv`s (so a batch may
    /// safely exchange with partners issuing mirror-image batches). Under
    /// one-port the sends serialize; under multi-port sends to distinct
    /// neighbors overlap (sends sharing a link serialize on it). The
    /// returned vector is aligned with `ops`: `Some(payload)` for each
    /// `Recv`, `None` for each `Send`. Sends over dead links re-route
    /// exactly as [`Proc::send`] does (detours occupy the first-hop
    /// link); under a strict plan they abort the run.
    ///
    /// Blocking point: awaiting suspends the node at each batched
    /// receive whose message has not been injected yet.
    pub async fn multi(&mut self, mut ops: Vec<Op>) -> Vec<Option<Payload>> {
        self.begin_round();
        let batch_start = self.clock;
        let mut link_busy: IdMap<usize, f64> = IdMap::default();
        let mut results: Vec<Option<Payload>> = Vec::with_capacity(ops.len());
        let mut batch_end = batch_start;

        // Phase 1: inject all sends (moving each payload out of its op).
        for op in &mut ops {
            if let Op::Send { to, tag, data } = op {
                let data = std::mem::take(data);
                assert_eq!(
                    hamming(self.id, *to),
                    1,
                    "multi: node {} -> {} is not a hypercube neighbor",
                    self.id,
                    to
                );
                assert!(
                    self.links.allows(self.id, *to),
                    "multi: edge {} -> {} does not exist in {:?}",
                    self.id,
                    to,
                    self.links
                );
                let mut detour: Option<Vec<usize>> = None;
                if let Some(plan) = self.faults.clone() {
                    if plan.is_dead(self.id, *to) {
                        if plan.is_strict() {
                            let e = SendError::LinkDead {
                                from: self.id,
                                to: *to,
                            };
                            self.fail_link(e);
                        }
                        match plan.route(self.links, self.dim, self.id, *to) {
                            Some(path) => {
                                self.note_fired(
                                    FiredKind::DeadLink,
                                    self.id.min(*to),
                                    self.id.max(*to),
                                );
                                detour = Some(path);
                            }
                            None => {
                                let e = SendError::Unroutable {
                                    from: self.id,
                                    to: *to,
                                };
                                self.fail_link(e);
                            }
                        }
                    }
                }
                let (cost, hops, first_hop) = match &detour {
                    None => {
                        let cost = self.link_cost(*to, data.len());
                        (self.scaled(cost), 1usize, *to)
                    }
                    Some(path) => {
                        let cost = self.path_cost(path, data.len());
                        (self.scaled(cost), path.len(), path[0])
                    }
                };
                let start = match self.port {
                    // One-port: the single port serializes every send.
                    PortModel::OnePort => batch_end.max(batch_start),
                    // Multi-port: each link proceeds independently.
                    PortModel::MultiPort => *link_busy.get(&first_hop).unwrap_or(&batch_start),
                };
                let end = start + cost;
                match self.port {
                    PortModel::OnePort => batch_end = end,
                    PortModel::MultiPort => {
                        link_busy.insert(first_hop, end);
                        batch_end = batch_end.max(end);
                    }
                }
                self.record(
                    TraceKind::Send {
                        to: *to,
                        hops: hops as u32,
                    },
                    *tag,
                    data.len(),
                    start,
                    end,
                );
                self.stats.detour_hops += hops - 1;
                let payload = match &detour {
                    None => self.corrupt_along(&[*to], data),
                    Some(path) => self.corrupt_along(path, data),
                };
                self.inject(*to, *tag, end, payload, hops);
            }
        }

        // Phase 2: satisfy all receives (passive).
        for op in ops {
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
                                let busy = link_busy.get(&from).copied().unwrap_or(batch_start);
                                let end = busy.max(env.arrive)
                                    + self.scaled(self.cost.hop(env.data.len()));
                                link_busy.insert(from, end);
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
        results
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

    /// Registers the typed failure as the run's outcome and unwinds this
    /// node quietly (no panic hook, no message: the failure is reported
    /// by [`crate::Machine::run`]).
    fn fail_link(&self, error: SendError) -> ! {
        self.ledger.trigger(Failure::Link {
            node: self.id,
            error,
        });
        self.quiet_abort();
    }

    fn quiet_abort(&self) -> ! {
        std::panic::resume_unwind(Box::new(crate::machine::Aborted))
    }

    /// Counts the message against this node and delivers it, honoring the
    /// drop schedule. Returns whether the message reached the
    /// destination's queue. Port time has already been charged by the
    /// caller: a dropped message still spent the wire time.
    fn inject(&mut self, to: usize, tag: u64, arrive: f64, data: Payload, hops: usize) -> bool {
        self.stats.messages += hops;
        self.stats.word_hops += hops * data.len();
        if let Some(plan) = self.faults.clone() {
            let seq = self.seq.entry(to).or_insert(0);
            let s = *seq;
            *seq += 1;
            if plan.drops_nth(self.id, to, s) {
                self.stats.dropped += 1;
                self.note_fired(FiredKind::Drop, self.id, to);
                self.record(TraceKind::Dropped { to }, tag, data.len(), arrive, arrive);
                return false;
            }
        }
        let env = Envelope {
            from: self.id,
            tag,
            arrive,
            data,
        };
        match self.ledger.inject(to, env) {
            Delivery::Delivered => true,
            // The destination finished: either the machine is aborting
            // (fall in line quietly) or the SPMD program is malformed.
            Delivery::Aborting => self.quiet_abort(),
            Delivery::DestFinished => {
                panic!("send: node {} already finished its program", to)
            }
        }
    }

    /// The shared blocking receive behind [`Proc::recv`] and
    /// [`Proc::multi`]: polls the ledger's receive until the `(from, tag)`
    /// message is available, suspending the continuation while the node
    /// is parked. The ledger records the park-time clock so the event
    /// loop re-enqueues this node at the right virtual time.
    async fn take_matching(&mut self, from: usize, tag: u64) -> Envelope {
        let (ledger, id, clock) = (&self.ledger, self.id, self.clock);
        let taken = std::future::poll_fn(|_cx| ledger.poll_receive(id, from, tag, clock)).await;
        match taken {
            Ok(env) => env,
            // The run aborted while this node was parked; the ledger has
            // already recorded the blocked receive for the post-mortem
            // report, so unwind quietly.
            Err(()) => self.quiet_abort(),
        }
    }
}

impl Drop for Proc {
    /// Deposits the node's final statistics and trace in the ledger.
    /// Runs on every exit path — normal completion of the async body,
    /// quiet abort, or a genuine panic — so the event loop can always
    /// read the parts after the node future is gone (they are only
    /// *used* when the run succeeds).
    fn drop(&mut self) {
        self.stats.clock = self.clock;
        self.stats.rounds = self.round;
        let stats = std::mem::take(&mut self.stats);
        let trace = self.trace.take().unwrap_or_default();
        self.ledger.deposit(self.id, (stats, trace));
    }
}
