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
//! * **parked receives** — which nodes are blocked, and on which
//!   `(from, tag)`;
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
//!    loop drains into its ready set (`ready.rs`). A parked node is
//!    therefore never woken by traffic it cannot consume, and never
//!    re-scans a queue of unrelated messages.
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
//! A failure (node panic, typed link failure, scheduled crash) stops only
//! its node; the ledger keeps the shard's least by [`Rank`], and the
//! other nodes run on to quiescence.
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

/// Where a failure falls in the one order every shard count and every
/// resume order agree on: the clock and label of the node at fault, then,
/// for one node, its own failure (`None`) before any message it left
/// untaken, those by `(destination, tag)`.
pub(crate) type Rank = (u64, usize, Option<(usize, u64)>);

/// How a shard's part of a run ended, read off its ledger once the loop
/// has stopped and every node future has been dropped.
pub(crate) struct LedgerEnd {
    /// The shard's least failure by [`Rank`], if it had one.
    pub failure: Option<(Rank, RunError)>,
    /// Each node's deposited statistics and trace, in label order.
    pub parts: Vec<Option<NodeParts>>,
    /// Every receive still parked, sorted by node label.
    pub blocked: Vec<Blocked>,
    /// Nodes that neither returned from their program nor failed.
    pub live: usize,
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
    /// Whether each node has returned from its program.
    done: Vec<bool>,
    /// Each node's final statistics and trace, once its `Proc` dropped.
    parts: Vec<Option<NodeParts>>,
    /// Nodes still executing their program.
    live: usize,
    /// The shard's least failure so far.
    failure: Option<(Rank, RunError)>,
    /// Nodes unparked by a direct handoff since the loop last drained
    /// the list (it does after every poll), by offset into the range.
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
    /// the outbox. Mail for a node that has finished or failed waits in
    /// its mailbox like any other, to be judged by [`Ledger::end`].
    pub(crate) fn inject(&self, to: usize, env: Envelope) {
        let s = &mut *self.state.borrow_mut();
        let at = to.wrapping_sub(s.base);
        if at >= s.done.len() {
            s.outbox.push((to, env));
        } else if s.parked[at] == Some((env.from, env.tag)) {
            // Exact wakeup: hand the envelope straight to the waiting
            // receiver and unpark it here — it is logically runnable
            // from this instant.
            debug_assert!(s.handoff[at].is_none());
            s.handoff[at] = Some(env);
            s.parked[at] = None;
            s.woken.push(at);
        } else {
            s.mailboxes[at].push(env);
        }
    }

    /// One non-blocking pass of the check-then-park receive protocol for
    /// node `id`. `Ready` hands over the matching envelope; `Pending`
    /// means the node parked (the loop resumes it once
    /// [`Ledger::drain_woken`] names it).
    pub(crate) fn poll_receive(&self, id: usize, from: usize, tag: u64) -> Poll<Envelope> {
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
        Poll::Pending
    }

    /// Hands every node unparked by a handoff since the last call to
    /// `wake`, by its offset into the shard's range.
    pub(crate) fn drain_woken(&self, wake: impl FnMut(usize)) {
        self.state.borrow_mut().woken.drain(..).for_each(wake);
    }

    /// Moves the outbox's messages to the end of `mail`.
    pub(crate) fn take_outbox(&self, mail: &mut Vec<Mail>) {
        mail.append(&mut self.state.borrow_mut().outbox);
    }

    /// Marks a node finished (returned from its program).
    pub(crate) fn finish(&self, id: usize) {
        let s = &mut *self.state.borrow_mut();
        let at = id - s.base;
        // A returning node was just polled, so it is not parked.
        debug_assert!(s.parked[at].is_none() && !s.done[at]);
        s.done[at] = true;
        s.live -= 1;
    }

    /// Records node `id`'s failure, ranked by the clock its `Proc` left
    /// in its deposited parts, and keeps the shard's least.
    ///
    /// # Panics
    /// Panics if the node has deposited no parts. The loop calls this
    /// only after dropping the failed node's future, which owns the
    /// node's `Proc` (unless the program leaked it), so the `Proc`'s
    /// `Drop` has deposited them by then, in the unwind or in that drop.
    pub(crate) fn fail(&self, id: usize, error: RunError) {
        let s = &mut *self.state.borrow_mut();
        let at = id - s.base;
        #[allow(
            clippy::expect_used,
            reason = "a failed node's future was dropped before this call, and with it its Proc"
        )]
        let clock = s.parts[at]
            .as_ref()
            .map(|(stats, _)| stats.clock)
            .expect("a failed node deposits its parts when its future drops");
        s.live -= 1;
        least(&mut s.failure, ((clock.to_bits(), id, None), error));
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
        // A message a finished node never took is one more failure, its
        // sender's, ranked where the sender's port finished the send.
        let untaken = (s.mailboxes.iter().enumerate())
            .filter(|&(at, _)| s.done[at])
            .flat_map(|(at, mailbox)| mailbox.iter().map(move |env| (at, env)))
            .map(|(at, env)| (env.arrive.to_bits(), env.from, Some((s.base + at, env.tag))))
            .min();
        if let Some(rank @ (_, from, Some((to, tag)))) = untaken {
            let message =
                format!("send: node {to} finished its program without receiving tag {tag:#x}");
            least(
                &mut s.failure,
                (
                    rank,
                    RunError::NodePanicked {
                        node: from,
                        message,
                    },
                ),
            );
        }
        LedgerEnd {
            failure: s.failure.take(),
            parts: std::mem::take(&mut s.parts),
            blocked,
            live: s.live,
        }
    }
}

/// Keeps in `kept` the lesser by rank of itself and `failure`.
pub(crate) fn least(kept: &mut Option<(Rank, RunError)>, failure: (Rank, RunError)) {
    if kept.as_ref().is_none_or(|(rank, _)| failure.0 < *rank) {
        *kept = Some(failure);
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
        ledger.inject(1, envelope(0, 5, 1.5));
        assert_eq!(snapshot(&ledger, 1), (1, false, None));
        let queued = ready(ledger.poll_receive(1, 0, 5));
        assert_eq!(snapshot(&ledger, 1), (0, false, None));

        // Handoff: node 1 parks first; traffic under another key is
        // queued without waking it, and the matching message goes to
        // the handoff slot, never the mailbox.
        let ledger = Ledger::new(0, 2);
        assert!(ledger.poll_receive(1, 0, 5).is_pending());
        assert_eq!(snapshot(&ledger, 1), (0, false, Some((0, 5))));
        ledger.inject(1, envelope(0, 6, 9.0));
        assert_eq!(snapshot(&ledger, 1), (1, false, Some((0, 5))));
        ledger.inject(1, envelope(0, 5, 1.5));
        assert_eq!(snapshot(&ledger, 1), (1, true, None));
        let mut woken = Vec::new();
        ledger.drain_woken(|at| woken.push(at));
        assert_eq!(woken, [1]);
        let handed = ready(ledger.poll_receive(1, 0, 5));
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
