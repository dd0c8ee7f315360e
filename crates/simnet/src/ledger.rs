//! The progress ledger: the central scheduler of the simulated machine.
//!
//! One shared structure (a mutex-protected state block plus one condvar
//! per node, std-only) tracks everything the engine needs to make
//! scheduling decisions *exactly*:
//!
//! * **per-node mailboxes** — an indexed slab keyed by `(from, tag)`, so
//!   a receive is a direct map lookup instead of a channel drain;
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

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::task::Poll;

use crate::machine::{Blocked, Failure};
use crate::proc::Envelope;
use crate::IdMap;

/// Per-node mailbox: FIFO queues indexed by `(from, tag)`. Sender
/// program order is preserved per key because injection appends under
/// the global lock.
type Mailbox = IdMap<(usize, u64), Queue>;

/// A non-empty FIFO of envelopes. Schedules tag each round uniquely, so
/// a key almost always holds exactly one message: the head lives in the
/// map entry itself and only a second message under the same key
/// allocates.
struct Queue {
    head: Envelope,
    rest: VecDeque<Envelope>,
}

/// Appends `env` to the queue under its `(from, tag)`.
fn enqueue(mailbox: &mut Mailbox, env: Envelope) {
    use std::collections::hash_map::Entry;
    match mailbox.entry((env.from, env.tag)) {
        Entry::Occupied(mut queue) => queue.get_mut().rest.push_back(env),
        Entry::Vacant(slot) => {
            slot.insert(Queue {
                head: env,
                rest: VecDeque::new(),
            });
        }
    }
}

/// Removes the oldest envelope under `(from, tag)`, dropping the key
/// with its last message so the map does not accumulate dead keys.
fn dequeue(mailbox: &mut Mailbox, from: usize, tag: u64) -> Option<Envelope> {
    use std::collections::hash_map::Entry;
    let Entry::Occupied(mut queue) = mailbox.entry((from, tag)) else {
        return None;
    };
    Some(match queue.get_mut().rest.pop_front() {
        Some(next) => std::mem::replace(&mut queue.get_mut().head, next),
        None => queue.remove().head,
    })
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
        enqueue(&mut s.mailboxes[to], env);
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
                .all(|(id, key)| !s.mailboxes[id].contains_key(&key)),
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
