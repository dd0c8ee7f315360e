//! The progress ledger: the central scheduler of the simulated machine.
//!
//! One shared structure (a mutex-protected state block plus one condvar
//! per node, std-only) tracks everything the engine needs to make
//! scheduling decisions *exactly*:
//!
//! * **per-node mailboxes** — one flat FIFO vector of envelopes per
//!   node, so a receive is a short scan instead of a channel drain;
//! * **parked receives** — which nodes are blocked, and on which
//!   `(from, tag)`;
//! * **liveness** — how many nodes are still executing their program,
//!   and how many messages sit undelivered in mailboxes.
//!
//! The bookkeeping buys two properties the old mpsc-channel engine
//! could not provide:
//!
//! 1. **Exact wakeups.** When a message is injected for a parked
//!    receiver waiting on precisely that `(from, tag)`, the ledger
//!    unparks it *at injection time* (under the same lock) and signals
//!    its condvar. A parked node is therefore never woken by traffic it
//!    cannot consume, and never re-scans a queue of unrelated messages.
//! 2. **Exact, instant deadlock detection.** A node only parks after
//!    checking its mailbox, and a matching injection eagerly unparks its
//!    target, so the invariant *"every parked node's awaited message is
//!    absent"* holds whenever the lock is released. The moment every
//!    live node is parked, no future injection is possible and the run
//!    is deadlocked — detected in microseconds by whichever node parks
//!    last (or finishes last), not by a 60-second host-time watchdog.
//!    Virtual clocks never see host time, so detection latency cannot
//!    leak into results.
//!
//! Aborts (node panic, typed link failure, deadlock) ride the same
//! condvars: `trigger` stores the first failure and broadcasts to every
//! node, and unwinding receivers record the `(from, tag)` they were
//! blocked on for the post-mortem report.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::task::Poll;

use crate::machine::{Blocked, Failure};
use crate::proc::Envelope;

/// Per-node mailbox: every queued envelope in injection order. Injection
/// appends under the global lock and a receive takes the *first*
/// envelope under its `(from, tag)`, so sender program order is
/// preserved per key. A mailbox is short — the deepest over every
/// algorithm and both port models at p = 4096 holds 39 envelopes — so
/// the scan costs less than a hash probe into a per-node map, and the
/// vector keeps its capacity: after a node's first few rounds a queued
/// message allocates nothing.
type Mailbox = Vec<Envelope>;

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
    /// if it was waiting on exactly this `(from, tag)`).
    Delivered,
    /// The machine is aborting; the sender should unwind quietly.
    Aborting,
    /// The destination already finished its program — an SPMD protocol
    /// bug on a healthy machine.
    DestFinished,
}

/// State protected by the ledger mutex.
struct State {
    mailboxes: Vec<Mailbox>,
    /// Direct-handoff slot: a message injected while its receiver is
    /// parked on exactly that `(from, tag)` bypasses the mailbox and is
    /// taken from here on wakeup. Single-slot by construction: filling
    /// it unparks the receiver, so a second matching inject goes to the
    /// mailbox, and the receiver drains the slot before parking again.
    handoff: Vec<Option<Envelope>>,
    /// `Some((from, tag))` while a node is blocked in a receive.
    parked: Vec<Option<(usize, u64)>>,
    /// Whether each node has finished (returned or unwound).
    done: Vec<bool>,
    /// Nodes still executing their program.
    live: usize,
    /// Nodes currently blocked in a receive.
    parked_count: usize,
    /// Messages sitting in mailboxes that no receive has consumed yet.
    in_flight: usize,
    aborting: bool,
    /// First failure wins; later ones are cascading victims.
    failure: Option<Failure>,
    /// Parked receives recorded as nodes unwind, for the deadlock report.
    blocked: Vec<Blocked>,
    /// Event engine only: nodes unparked by a direct handoff since the
    /// executor last took the list (it does after every poll).
    woken: Vec<usize>,
}

/// The shared scheduler structure (see module docs).
pub(crate) struct Ledger {
    state: Mutex<State>,
    /// One condvar per node: a wakeup targets exactly one parked
    /// receiver (aborts broadcast to all). Unused — and never waited
    /// on — under the event engine.
    signals: Vec<Condvar>,
    /// Event engine: record handoff wakeups in `State::woken` for the
    /// executor instead of signalling condvars (no thread is parked).
    track_wakes: bool,
}

/// Locks ignoring poisoning: the protected state stays consistent under
/// every partial update we perform, and panicking nodes are the normal
/// case here.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Ledger {
    pub(crate) fn new(p: usize, track_wakes: bool) -> Self {
        Ledger {
            state: Mutex::new(State {
                mailboxes: (0..p).map(|_| Mailbox::default()).collect(),
                handoff: (0..p).map(|_| None).collect(),
                parked: vec![None; p],
                done: vec![false; p],
                live: p,
                parked_count: 0,
                in_flight: 0,
                aborting: false,
                failure: None,
                blocked: Vec::new(),
                woken: Vec::new(),
            }),
            // The event engine never waits on a condvar; skip the
            // allocation (p can be 65536).
            signals: if track_wakes {
                Vec::new()
            } else {
                (0..p).map(|_| Condvar::new()).collect()
            },
            track_wakes,
        }
    }

    /// Queues `env` for `to`, waking `to` iff it is parked on exactly
    /// `(env.from, env.tag)`.
    pub(crate) fn inject(&self, to: usize, env: Envelope) -> Delivery {
        let mut s = lock(&self.state);
        if s.done[to] {
            return if s.aborting {
                Delivery::Aborting
            } else {
                Delivery::DestFinished
            };
        }
        let key = (env.from, env.tag);
        if s.parked[to] == Some(key) {
            // Exact wakeup: hand the envelope straight to the waiting
            // receiver and unpark it here — it is logically runnable
            // from this instant, and the deadlock predicate must see it
            // that way even before its thread is scheduled. Notify after
            // releasing the lock so the woken thread does not immediately
            // block on the mutex we still hold.
            debug_assert!(s.handoff[to].is_none());
            s.handoff[to] = Some(env);
            s.parked[to] = None;
            s.parked_count -= 1;
            if self.track_wakes {
                // Event engine: the receiver has no thread to signal;
                // queue it for the executor instead.
                s.woken.push(to);
                return Delivery::Delivered;
            }
            drop(s);
            self.signals[to].notify_one();
            return Delivery::Delivered;
        }
        s.mailboxes[to].push(env);
        s.in_flight += 1;
        Delivery::Delivered
    }

    /// Blocks until the message tagged `(from, tag)` sent to `id` is
    /// available and returns it. `Err(())` means the machine aborted
    /// while waiting (the blocked receive has been recorded for the
    /// post-mortem report); the caller must unwind quietly.
    pub(crate) fn receive(&self, id: usize, from: usize, tag: u64) -> Result<Envelope, ()> {
        // Before parking (a futex wait plus a futex wake on the sender's
        // side), yield the core a couple of times: if the awaited sender
        // is runnable it will usually inject the message into the
        // mailbox meanwhile, and the receive completes without any
        // condvar traffic. Only worthwhile while few nodes are live —
        // with many runnable threads a yield rarely lands on the awaited
        // sender and just churns the scheduler. Misses fall through to
        // an exact parked wait, so deadlock detection is unaffected.
        const PRE_PARK_YIELDS: u32 = 2;
        const YIELD_LIVE_LIMIT: usize = 32;
        let mut yields = 0;
        let mut s = lock(&self.state);
        loop {
            if s.aborting {
                s.blocked.push(Blocked {
                    node: id,
                    from,
                    tag,
                });
                return Err(());
            }
            if let Some(env) = s.handoff[id].take() {
                debug_assert!(env.from == from && env.tag == tag);
                return Ok(env);
            }
            if let Some(env) = dequeue(&mut s.mailboxes[id], from, tag) {
                s.in_flight -= 1;
                return Ok(env);
            }
            if yields < PRE_PARK_YIELDS
                && s.live > 1
                && s.live <= YIELD_LIVE_LIMIT
                && s.parked[id].is_none()
            {
                yields += 1;
                drop(s);
                std::thread::yield_now();
                s = lock(&self.state);
                continue;
            }
            if s.parked[id].is_none() {
                s.parked[id] = Some((from, tag));
                s.parked_count += 1;
                if s.parked_count == s.live {
                    // Every live node is blocked and no matching message
                    // exists (a matching inject would have unparked its
                    // target): the run can never progress again.
                    self.declare_deadlock(&mut s);
                    continue; // loop top records this node and unwinds
                }
            }
            s = self.signals[id].wait(s).unwrap_or_else(|e| e.into_inner());
            // Woken: by a matching inject (parked[id] cleared), by an
            // abort broadcast, or spuriously (still parked — wait more).
        }
    }

    /// The event engine's [`Ledger::receive`]: one non-blocking pass of
    /// the same check-then-park protocol. `Ready(Ok)` hands over the
    /// matching envelope; `Pending` means the node parked (the executor
    /// suspends its continuation until [`Ledger::after_poll`] names it);
    /// `Ready(Err(()))` means the machine aborted (the blocked receive
    /// has been recorded) and the caller must unwind quietly.
    ///
    /// The park-after-check invariant and the `parked_count == live`
    /// deadlock predicate are shared verbatim with the threaded path —
    /// only the waiting mechanism differs (a suspended future instead of
    /// a condvar wait).
    pub(crate) fn poll_receive(
        &self,
        id: usize,
        from: usize,
        tag: u64,
    ) -> Poll<Result<Envelope, ()>> {
        let mut s = lock(&self.state);
        loop {
            if s.aborting {
                s.blocked.push(Blocked {
                    node: id,
                    from,
                    tag,
                });
                return Poll::Ready(Err(()));
            }
            if let Some(env) = s.handoff[id].take() {
                debug_assert!(env.from == from && env.tag == tag);
                return Poll::Ready(Ok(env));
            }
            if let Some(env) = dequeue(&mut s.mailboxes[id], from, tag) {
                s.in_flight -= 1;
                return Poll::Ready(Ok(env));
            }
            if s.parked[id].is_none() {
                s.parked[id] = Some((from, tag));
                s.parked_count += 1;
                if s.parked_count == s.live {
                    self.declare_deadlock(&mut s);
                    continue; // loop top records this node and errors out
                }
            }
            return Poll::Pending;
        }
    }

    /// Event engine: everything the executor needs after polling node
    /// `polled`, in one lock round-trip. Swaps the nodes unparked by
    /// handoffs since the last call into `woken` (which must come in
    /// empty; the executor reuses one buffer, so no wake allocates) and
    /// returns `(aborting, polled is parked)` — the latter backs the
    /// executor's sanity check that a `Pending` poll came from a simnet
    /// primitive and not some foreign future.
    pub(crate) fn after_poll(&self, polled: usize, woken: &mut Vec<usize>) -> (bool, bool) {
        debug_assert!(woken.is_empty());
        let mut s = lock(&self.state);
        std::mem::swap(&mut s.woken, woken);
        (s.aborting, s.parked[polled].is_some())
    }

    /// Every node currently parked in a receive. The event-engine
    /// executor re-polls these once after an abort so each records its
    /// [`Blocked`] receive and unwinds, exactly as the condvar broadcast
    /// unblocks parked threads under the threaded engine.
    pub(crate) fn parked_nodes(&self) -> Vec<usize> {
        lock(&self.state)
            .parked
            .iter()
            .enumerate()
            .filter_map(|(id, key)| key.map(|_| id))
            .collect()
    }

    /// Marks a node finished (normal return or unwind), releasing any
    /// parked slot it held and re-checking the deadlock predicate: if
    /// the nodes that remain are all parked, nobody can feed them.
    pub(crate) fn finish(&self, id: usize) {
        let mut s = lock(&self.state);
        if s.parked[id].take().is_some() {
            s.parked_count -= 1;
        }
        if !s.done[id] {
            s.done[id] = true;
            s.live -= 1;
        }
        if !s.aborting && s.live > 0 && s.parked_count == s.live {
            self.declare_deadlock(&mut s);
        }
    }

    /// Records a failure (keeping the first) and wakes every node.
    pub(crate) fn trigger(&self, failure: Failure) {
        let mut s = lock(&self.state);
        s.failure.get_or_insert(failure);
        self.abort_and_broadcast(&mut s);
    }

    /// Takes the run outcome after every thread joined: the first
    /// failure (if any) and the blocked receives, sorted by node label.
    pub(crate) fn take_outcome(&self) -> (Option<Failure>, Vec<Blocked>) {
        let mut s = lock(&self.state);
        let failure = s.failure.take();
        let mut blocked = std::mem::take(&mut s.blocked);
        blocked.sort_by_key(|b| b.node);
        (failure, blocked)
    }

    fn declare_deadlock(&self, s: &mut State) {
        debug_assert!(
            s.parked
                .iter()
                .enumerate()
                .filter_map(|(id, key)| key.map(|k| (id, k)))
                .all(|(id, (from, tag))| position(&s.mailboxes[id], from, tag).is_none()),
            "deadlock declared while a parked node's message was deliverable"
        );
        s.failure.get_or_insert(Failure::Deadlock);
        self.abort_and_broadcast(s);
    }

    fn abort_and_broadcast(&self, s: &mut State) {
        if !s.aborting {
            s.aborting = true;
            for cv in &self.signals {
                cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, Engine, Machine, Payload, PortModel, RunError};

    const ENGINES: [Engine; 2] = [Engine::Threaded, Engine::Event];

    fn machine(p: usize, engine: Engine) -> Machine {
        Machine::builder(p)
            .port(PortModel::OnePort)
            .cost(CostParams { ts: 10.0, tw: 2.0 })
            .engine(engine)
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
        for engine in ENGINES {
            let out = machine(2, engine)
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
            assert_eq!(out.outputs[1], want, "{engine}");
            // Seven serialized 1-word hops of 12 each.
            assert_eq!(out.stats.elapsed, 7.0 * 12.0, "{engine}");
        }
    }

    #[test]
    fn a_node_drains_63_senders_in_reverse_send_order() {
        for engine in ENGINES {
            let out = machine(64, engine)
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
            assert_eq!(out.outputs[0], want, "{engine}");
            // The farthest sender is 6 hops away: 6 store-and-forward hops.
            assert_eq!(out.stats.elapsed, 6.0 * 12.0, "{engine}");
            assert_eq!(out.stats.total_messages(), 6 * 32, "{engine}");
        }
    }

    fn envelope(from: usize, tag: u64, word: f64) -> Envelope {
        Envelope {
            from,
            tag,
            arrive: word,
            data: Payload::from([word]),
        }
    }

    /// `(mailbox length, in_flight, handoff slot filled, parked key)` of `id`.
    fn snapshot(ledger: &Ledger, id: usize) -> (usize, usize, bool, Option<(usize, u64)>) {
        let s = lock(&ledger.state);
        (
            s.mailboxes[id].len(),
            s.in_flight,
            s.handoff[id].is_some(),
            s.parked[id],
        )
    }

    #[test]
    fn handoff_and_queued_delivery_hand_over_the_same_envelope() {
        // `track_wakes` selects the engine's side of the ledger: condvar
        // waits (threaded) or poll-and-park (event).
        for event in [false, true] {
            // Queued: injected before anyone waits, taken from the mailbox.
            let ledger = Ledger::new(2, event);
            assert_eq!(ledger.inject(1, envelope(0, 5, 1.5)), Delivery::Delivered);
            assert_eq!(snapshot(&ledger, 1), (1, 1, false, None));
            let queued = if event {
                match ledger.poll_receive(1, 0, 5) {
                    Poll::Ready(Ok(env)) => env,
                    other => panic!("queued message not ready: {:?}", other.is_ready()),
                }
            } else {
                ledger.receive(1, 0, 5).expect("queued message")
            };
            assert_eq!(snapshot(&ledger, 1), (0, 0, false, None));

            // Handoff: node 1 parks first; traffic under another key is
            // queued without waking it, and the matching message goes to
            // the handoff slot, never the mailbox.
            let ledger = Ledger::new(2, event);
            let handed = std::thread::scope(|scope| {
                let receiver = (!event).then(|| scope.spawn(|| ledger.receive(1, 0, 5)));
                if event {
                    assert!(ledger.poll_receive(1, 0, 5).is_pending());
                }
                while ledger.parked_nodes() != [1] {
                    std::thread::yield_now();
                }
                assert_eq!(ledger.inject(1, envelope(0, 6, 9.0)), Delivery::Delivered);
                assert_eq!(snapshot(&ledger, 1), (1, 1, false, Some((0, 5))));
                assert_eq!(ledger.inject(1, envelope(0, 5, 1.5)), Delivery::Delivered);
                let (queued, in_flight, _, parked) = snapshot(&ledger, 1);
                assert_eq!((queued, in_flight, parked), (1, 1, None));
                match receiver {
                    Some(thread) => thread.join().expect("receiver").expect("handoff"),
                    None => {
                        let mut woken = Vec::new();
                        assert_eq!(ledger.after_poll(1, &mut woken), (false, false));
                        assert_eq!(woken, [1]);
                        match ledger.poll_receive(1, 0, 5) {
                            Poll::Ready(Ok(env)) => env,
                            other => panic!("handoff not ready: {:?}", other.is_ready()),
                        }
                    }
                }
            });
            // The other key's message is still queued; the slot is drained.
            assert_eq!(snapshot(&ledger, 1), (1, 1, false, None));
            for env in [&queued, &handed] {
                assert_eq!((env.from, env.tag, env.arrive), (0, 5, 1.5));
                assert_eq!(&env.data[..], &[1.5]);
            }
        }
    }

    #[test]
    fn deadlock_report_names_every_blocked_receive() {
        // Node 1 consumes one of two queued messages and then waits on a
        // third that never comes (the leftover stays queued); node 0
        // waits on node 1; node 2 waits on node 3, which just finishes.
        for engine in ENGINES {
            let err = machine(4, engine)
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
                },
                "{engine}"
            );
        }
    }
}
