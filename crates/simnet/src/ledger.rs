//! The progress ledger: the scheduler state of one shard of a run.
//!
//! One structure per shard, owned by the shard's event loop and shared
//! with the node programs it polls by `Rc` (a shard runs on one host
//! thread, so a `RefCell` is the whole synchronisation story; traffic
//! between shards goes through the loop, never through here). It covers
//! the shard's contiguous range of labels and tracks everything the loop
//! needs to make scheduling decisions *exactly*:
//!
//! * **per-node mailboxes** — one flat FIFO vector of envelopes per
//!   node, so a receive is a short scan instead of a channel drain;
//! * **parked receives** — which nodes are blocked, on which
//!   `(from, tag)`, and at which virtual clock they parked;
//! * **liveness** — how many nodes are still executing their program;
//! * **per-node results** — the statistics and trace each [`Proc`]
//!   deposits when it is dropped;
//! * **the outbox** — messages for labels outside the range, which the
//!   loop posts to their shard after every poll.
//!
//! The bookkeeping buys two properties:
//!
//! 1. **Exact wakeups.** When a message is injected for a parked
//!    receiver waiting on precisely that `(from, tag)`, the ledger
//!    unparks it *at injection time* and puts it on the wake list the
//!    loop drains. A parked node is therefore never woken by traffic it
//!    cannot consume, and never re-scans a queue of unrelated messages.
//! 2. **Exact deadlock detection.** A node only parks after checking its
//!    mailbox, and a matching injection eagerly unparks its target, so
//!    the invariant *"every parked node's awaited message is absent"*
//!    holds between any two ledger calls. Once no shard has a runnable
//!    node or a message in flight, every live node is parked on a
//!    receive no future injection can satisfy: the run is deadlocked,
//!    and [`Ledger::end`] reads the report straight off the parked
//!    table. No host-time watchdog is involved, so detection cannot leak
//!    into results.
//!
//! Aborts (node panic, typed link failure, scheduled crash) store the
//! first failure as the shard's [`RunError`], and the loop polls no node
//! after it.
//!
//! [`Proc`]: crate::Proc

use std::cell::RefCell;
use std::task::Poll;

use crate::machine::{Blocked, RunError};
use crate::proc::Envelope;
use crate::stats::NodeStats;
use crate::trace::TraceEvent;

/// Per-node mailbox: every queued envelope in injection order. Injection
/// appends and a receive takes the *first* envelope under its
/// `(from, tag)`, so sender program order is preserved per key. A
/// mailbox is short — the deepest over every algorithm and both port
/// models at p = 4096 holds 39 envelopes — so the scan costs less than a
/// hash probe into a per-node map, and the vector keeps its capacity:
/// after a node's first few rounds a queued message allocates nothing.
type Mailbox = Vec<Envelope>;

/// A node's final statistics and trace, deposited when its [`Proc`] drops.
///
/// [`Proc`]: crate::Proc
pub(crate) type NodeParts = (NodeStats, Vec<TraceEvent>);

/// A message bound for another shard: its destination label and itself.
pub(crate) type Mail = (usize, Envelope);

/// Where the oldest envelope under `(from, tag)` sits, if any.
fn position(mailbox: &Mailbox, from: usize, tag: u64) -> Option<usize> {
    mailbox
        .iter()
        .position(|env| env.from == from && env.tag == tag)
}

/// Removes the oldest envelope under `(from, tag)`.
fn dequeue(mailbox: &mut Mailbox, from: usize, tag: u64) -> Option<Envelope> {
    position(mailbox, from, tag).map(|at| mailbox.remove(at))
}

/// What [`Ledger::inject`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Queued in the destination mailbox (and the destination unparked
    /// if it was waiting on exactly this `(from, tag)`), or put in the
    /// outbox when the destination belongs to another shard.
    Delivered,
    /// The destination already finished its program — an SPMD protocol
    /// bug on a healthy machine.
    DestFinished,
}

/// How a shard's part of a run ended, read off its ledger once the loop
/// has stopped and every node future has been dropped.
pub(crate) struct LedgerEnd {
    /// The shard's first failure, if it had one.
    pub failure: Option<RunError>,
    /// Each node's deposited statistics and trace, in label order.
    pub parts: Vec<Option<NodeParts>>,
    /// Every receive still parked, sorted by node label.
    pub blocked: Vec<Blocked>,
    /// Nodes that never returned from their program.
    pub live: usize,
    /// Whether a finished node left a message it never took: a run in
    /// which some order of the loop sends to an already finished node.
    pub stray: bool,
}

/// Everything the ledger tracks (see module docs). Per-node vectors are
/// indexed by label minus `base`.
struct State {
    /// The first label of the shard's range.
    base: usize,
    mailboxes: Vec<Mailbox>,
    /// Direct-handoff slot: a message injected while its receiver is
    /// parked on exactly that `(from, tag)` bypasses the mailbox and is
    /// taken from here on wakeup. Single-slot by construction: filling
    /// it unparks the receiver, so a second matching inject goes to the
    /// mailbox, and the receiver drains the slot before parking again.
    handoff: Vec<Option<Envelope>>,
    /// `Some((from, tag))` while a node is blocked in a receive.
    parked: Vec<Option<(usize, u64)>>,
    /// The virtual clock each node last parked at: where the loop
    /// re-enqueues it when it wakes.
    clocks: Vec<f64>,
    /// Whether each node has returned from its program.
    done: Vec<bool>,
    /// Each node's final statistics and trace, once its `Proc` dropped.
    parts: Vec<Option<NodeParts>>,
    /// Nodes still executing their program.
    live: usize,
    /// The shard's failure, once it has one: the loop stops polling then.
    failure: Option<RunError>,
    /// Nodes unparked by a direct handoff since the loop last drained
    /// the list (it does after every poll), by label.
    woken: Vec<usize>,
    /// Messages for labels outside the range, in injection order.
    outbox: Vec<Mail>,
}

/// The per-shard scheduler structure (see module docs).
pub(crate) struct Ledger {
    state: RefCell<State>,
}

impl Ledger {
    /// A ledger for the `len` nodes labelled `base..base + len`.
    pub(crate) fn new(base: usize, len: usize) -> Self {
        Ledger {
            state: RefCell::new(State {
                base,
                mailboxes: (0..len).map(|_| Mailbox::default()).collect(),
                handoff: (0..len).map(|_| None).collect(),
                parked: vec![None; len],
                clocks: vec![0.0; len],
                done: vec![false; len],
                parts: (0..len).map(|_| None).collect(),
                live: len,
                failure: None,
                woken: Vec::new(),
                outbox: Vec::new(),
            }),
        }
    }

    /// Queues `env` for `to`, waking `to` iff it is parked on exactly
    /// `(env.from, env.tag)`; a destination outside the range goes to
    /// the outbox.
    pub(crate) fn inject(&self, to: usize, env: Envelope) -> Delivery {
        let s = &mut *self.state.borrow_mut();
        let at = to.wrapping_sub(s.base);
        if at >= s.done.len() {
            s.outbox.push((to, env));
            return Delivery::Delivered;
        }
        if s.done[at] {
            return Delivery::DestFinished;
        }
        if s.parked[at] == Some((env.from, env.tag)) {
            // Exact wakeup: hand the envelope straight to the waiting
            // receiver and unpark it here — it is logically runnable
            // from this instant.
            debug_assert!(s.handoff[at].is_none());
            s.handoff[at] = Some(env);
            s.parked[at] = None;
            s.woken.push(to);
            return Delivery::Delivered;
        }
        s.mailboxes[at].push(env);
        Delivery::Delivered
    }

    /// One non-blocking pass of the check-then-park receive protocol for
    /// node `id` at virtual time `clock`. `Ready` hands over the matching
    /// envelope; `Pending` means the node parked (the loop resumes it
    /// once [`Ledger::drain_woken`] names it).
    pub(crate) fn poll_receive(
        &self,
        id: usize,
        from: usize,
        tag: u64,
        clock: f64,
    ) -> Poll<Envelope> {
        let s = &mut *self.state.borrow_mut();
        let at = id - s.base;
        if let Some(env) = s.handoff[at].take() {
            debug_assert!(env.from == from && env.tag == tag);
            return Poll::Ready(env);
        }
        if let Some(env) = dequeue(&mut s.mailboxes[at], from, tag) {
            return Poll::Ready(env);
        }
        // Only a handoff re-enqueues a parked node, and it unparks it.
        debug_assert!(s.parked[at].is_none(), "node {id} polled while parked");
        s.parked[at] = Some((from, tag));
        s.clocks[at] = clock;
        Poll::Pending
    }

    /// Hands every node unparked by a handoff since the last call to
    /// `wake`, with the clock it parked at, and reports whether the run
    /// has failed.
    pub(crate) fn drain_woken(&self, mut wake: impl FnMut(f64, usize)) -> bool {
        let s = &mut *self.state.borrow_mut();
        for node in s.woken.drain(..) {
            wake(s.clocks[node - s.base], node);
        }
        s.failure.is_some()
    }

    /// Moves the outbox's messages to the end of `mail`.
    pub(crate) fn take_outbox(&self, mail: &mut Vec<Mail>) {
        mail.append(&mut self.state.borrow_mut().outbox);
    }

    /// Marks a node finished (returned from its program).
    pub(crate) fn finish(&self, id: usize) {
        let s = &mut *self.state.borrow_mut();
        let at = id - s.base;
        // A returning node was just polled, so it is not parked, and the
        // loop polls no node once the run has failed.
        debug_assert!(s.parked[at].is_none() && !s.done[at] && s.failure.is_none());
        s.done[at] = true;
        s.live -= 1;
    }

    /// Records a failure (keeping the first) and aborts the run.
    pub(crate) fn trigger(&self, failure: RunError) {
        self.state.borrow_mut().failure.get_or_insert(failure);
    }

    /// Stores node `id`'s final statistics and trace.
    pub(crate) fn deposit(&self, id: usize, parts: NodeParts) {
        let s = &mut *self.state.borrow_mut();
        let at = id - s.base;
        s.parts[at] = Some(parts);
    }

    /// Takes how the shard's part of the run ended (see [`LedgerEnd`]).
    pub(crate) fn end(&self) -> LedgerEnd {
        let s = &mut *self.state.borrow_mut();
        let blocked: Vec<Blocked> = (s.parked.iter().enumerate())
            .filter_map(|(at, key)| {
                key.map(|(from, tag)| Blocked {
                    node: s.base + at,
                    from,
                    tag,
                })
            })
            .collect();
        debug_assert!(
            blocked.iter().all(|b| {
                let mailbox = &s.mailboxes[b.node - s.base];
                position(mailbox, b.from, b.tag).is_none()
            }),
            "a parked node's message was deliverable"
        );
        let stray = (s.done.iter().zip(&s.mailboxes)).any(|(&done, mail)| done && !mail.is_empty());
        LedgerEnd {
            failure: s.failure.take(),
            parts: std::mem::take(&mut s.parts),
            blocked,
            live: s.live,
            stray,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, Machine, Payload, PortModel, RunError};

    fn machine(p: usize) -> Machine {
        Machine::builder(p)
            .port(PortModel::OnePort)
            .cost(CostParams { ts: 10.0, tw: 2.0 })
            .build()
            .expect("valid test machine")
    }

    #[test]
    fn duplicate_keys_keep_send_order_among_other_keys() {
        // Tags 7 and 3 each carry several messages, interleaved with each
        // other and with tag 9; node 1 asks for them in another order.
        let sends: [(u64, f64); 7] = [
            (7, 0.0),
            (3, 1.0),
            (7, 2.0),
            (9, 3.0),
            (7, 4.0),
            (3, 5.0),
            (7, 6.0),
        ];
        let asks: [(u64, f64); 7] = [
            (9, 3.0),
            (7, 0.0),
            (3, 1.0),
            (7, 2.0),
            (7, 4.0),
            (3, 5.0),
            (7, 6.0),
        ];
        let out = machine(2)
            .run(vec![(), ()], |mut proc, ()| async move {
                if proc.id() == 0 {
                    for (tag, word) in sends {
                        proc.send(1, tag, [word]);
                    }
                    Vec::new()
                } else {
                    let mut got = Vec::new();
                    for (tag, _) in asks {
                        got.push(proc.recv(0, tag).await[0]);
                    }
                    got
                }
            })
            .expect("healthy run");
        let want: Vec<f64> = asks.iter().map(|&(_, word)| word).collect();
        assert_eq!(out.outputs[1], want);
        // Seven serialized 1-word hops of 12 each.
        assert_eq!(out.stats.elapsed, 7.0 * 12.0);
    }

    #[test]
    fn a_node_drains_63_senders_in_reverse_send_order() {
        let out = machine(64)
            .run(vec![(); 64], |mut proc, ()| async move {
                let me = proc.id();
                if me != 0 {
                    proc.send_routed(0, me as u64, [me as f64]);
                    return Vec::new();
                }
                let mut got = Vec::new();
                for from in (1..64).rev() {
                    got.push(proc.recv(from, from as u64).await[0]);
                }
                got
            })
            .expect("healthy run");
        let want: Vec<f64> = (1..64).rev().map(|from| from as f64).collect();
        assert_eq!(out.outputs[0], want);
        // The farthest sender is 6 hops away: 6 store-and-forward hops.
        assert_eq!(out.stats.elapsed, 6.0 * 12.0);
        assert_eq!(out.stats.total_messages(), 6 * 32);
    }

    fn envelope(from: usize, tag: u64, word: f64) -> Envelope {
        Envelope {
            from,
            tag,
            arrive: word,
            data: Payload::from([word]),
        }
    }

    /// `(mailbox length, handoff slot filled, parked key)` of `id`.
    fn snapshot(ledger: &Ledger, id: usize) -> (usize, bool, Option<(usize, u64)>) {
        let s = ledger.state.borrow();
        let at = id - s.base;
        (s.mailboxes[at].len(), s.handoff[at].is_some(), s.parked[at])
    }

    fn ready(poll: Poll<Envelope>) -> Envelope {
        match poll {
            Poll::Ready(env) => env,
            Poll::Pending => panic!("receive parked"),
        }
    }

    #[test]
    fn handoff_and_queued_delivery_hand_over_the_same_envelope() {
        // Queued: injected before anyone waits, taken from the mailbox.
        let ledger = Ledger::new(0, 2);
        assert_eq!(ledger.inject(1, envelope(0, 5, 1.5)), Delivery::Delivered);
        assert_eq!(snapshot(&ledger, 1), (1, false, None));
        let queued = ready(ledger.poll_receive(1, 0, 5, 0.0));
        assert_eq!(snapshot(&ledger, 1), (0, false, None));

        // Handoff: node 1 parks first; traffic under another key is
        // queued without waking it, and the matching message goes to
        // the handoff slot, never the mailbox.
        let ledger = Ledger::new(0, 2);
        assert!(ledger.poll_receive(1, 0, 5, 7.0).is_pending());
        assert_eq!(snapshot(&ledger, 1), (0, false, Some((0, 5))));
        assert_eq!(ledger.inject(1, envelope(0, 6, 9.0)), Delivery::Delivered);
        assert_eq!(snapshot(&ledger, 1), (1, false, Some((0, 5))));
        assert_eq!(ledger.inject(1, envelope(0, 5, 1.5)), Delivery::Delivered);
        assert_eq!(snapshot(&ledger, 1), (1, true, None));
        let mut woken = Vec::new();
        assert!(!ledger.drain_woken(|clock, node| woken.push((clock, node))));
        assert_eq!(woken, [(7.0, 1)]);
        let handed = ready(ledger.poll_receive(1, 0, 5, 7.0));
        // The other key's message is still queued; the slot is drained.
        assert_eq!(snapshot(&ledger, 1), (1, false, None));
        for env in [&queued, &handed] {
            assert_eq!((env.from, env.tag, env.arrive), (0, 5, 1.5));
            assert_eq!(&env.data[..], &[1.5]);
        }
    }

    #[test]
    fn deadlock_report_names_every_blocked_receive() {
        // Node 1 consumes one of two queued messages and then waits on a
        // third that never comes (the leftover stays queued); node 0
        // waits on node 1; node 2 waits on node 3, which just finishes.
        let err = machine(4)
            .run(vec![(); 4], |mut proc, ()| async move {
                match proc.id() {
                    0 => {
                        proc.send(1, 1, [1.0]);
                        proc.send(1, 2, [2.0]);
                        let _ = proc.recv(1, 9).await;
                    }
                    1 => {
                        let _ = proc.recv(0, 2).await;
                        let _ = proc.recv(0, 3).await;
                    }
                    2 => {
                        let _ = proc.recv(3, 4).await;
                    }
                    _ => {}
                }
            })
            .unwrap_err();
        let blocked = |node, from, tag| Blocked { node, from, tag };
        assert_eq!(
            err,
            RunError::Deadlock {
                blocked: vec![blocked(0, 1, 9), blocked(1, 0, 3), blocked(2, 3, 4)]
            }
        );
    }
}
