//! What the shards of one run share: an inbox per shard for messages
//! that cross between label ranges, and the count that tells when the
//! whole machine has gone quiet.
//!
//! A sharded run splits the labels into `K` contiguous ranges on their
//! top `log₂ K` bits, one per host thread. Each shard runs the ordinary
//! event loop over its own ledger; a send to a label outside its range
//! lands in the ledger's outbox, and the loop posts the outbox here after
//! every poll. The owner drains its inbox between polls and delivers each
//! message through its ledger's `inject`, so exact wakeup and the handoff
//! slot work as they do within a shard.
//!
//! **Quiescence.** `active` counts the shards that are running plus the
//! messages posted but not yet delivered. A poster counts its messages
//! before they become visible, and an owner counts a delivery off only
//! after it has injected it, while it is itself still counted, so
//! `active` cannot touch zero while anything can still happen. A shard
//! with an empty queue and an empty inbox counts itself off and blocks
//! on its inbox's condition variable; the one whose decrement reaches
//! zero knows every shard is idle with nothing in flight — the run has
//! finished or deadlocked — and stops them all. A failure stops them all
//! the same way.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::ledger::Mail;

/// How many times an idle shard re-reads its inbox signal before it
/// blocks: a neighbour shard usually posts again within microseconds,
/// and a wakeup through the condition variable costs more than that.
const SPIN: u32 = 1 << 10;

#[derive(Default)]
struct InboxState {
    mail: Vec<Mail>,
    /// The owner is blocked on the condition variable.
    waiting: bool,
    /// The run is over (quiet or failed): the owner stops polling.
    stop: bool,
}

#[derive(Default)]
struct Inbox {
    /// Set whenever mail or a stop arrives, cleared by the owner as it
    /// takes them: the loop's one read per poll. A hint only — it is
    /// written under `state`'s lock and the mail is read under it, so it
    /// publishes nothing and every access is `Relaxed`.
    signal: AtomicBool,
    state: Mutex<InboxState>,
    wake: Condvar,
}

impl Inbox {
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        // Every update under the lock (a push, a swap, a flag) leaves the
        // inbox valid, so a poisoned lock's state is usable as it is.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The cross-shard state of one sharded run (see module docs).
pub(crate) struct Fabric {
    /// `label >> shift` is the label's shard.
    shift: u32,
    /// Running shards plus posted, undelivered messages. Only
    /// read-modify-writes touch it, and those are totally ordered, which
    /// is all the quiescence argument needs; `AcqRel` also orders a
    /// shard's work before the count-off that lets another see zero.
    active: AtomicUsize,
    inboxes: Box<[Inbox]>,
}

impl Fabric {
    /// The fabric of a `p`-node machine split into `shards` ranges
    /// (both powers of two, `shards <= p`).
    pub(crate) fn new(p: usize, shards: usize) -> Self {
        debug_assert!(p.is_power_of_two() && shards.is_power_of_two() && shards <= p);
        Fabric {
            shift: (p / shards).trailing_zeros(),
            active: AtomicUsize::new(shards),
            inboxes: (0..shards).map(|_| Inbox::default()).collect(),
        }
    }

    /// Whether mail or a stop has arrived for `shard` since it last took
    /// its inbox.
    #[inline]
    pub(crate) fn signaled(&self, shard: usize) -> bool {
        self.inboxes[shard].signal.load(Ordering::Relaxed)
    }

    /// Posts every message in `mail` to its owner's inbox, leaving
    /// `mail` empty. Messages to one owner keep their order.
    pub(crate) fn post(&self, mail: &mut Vec<Mail>) {
        self.active.fetch_add(mail.len(), Ordering::AcqRel);
        let mut open: Option<(usize, MutexGuard<'_, InboxState>)> = None;
        for (to, env) in mail.drain(..) {
            let owner = to >> self.shift;
            if open.as_ref().is_none_or(|&(at, _)| at != owner) {
                if let Some((at, state)) = open.take() {
                    self.signal(at, state);
                }
                open = Some((owner, self.inboxes[owner].lock()));
            }
            if let Some((_, state)) = &mut open {
                state.mail.push((to, env));
            }
        }
        if let Some((at, state)) = open {
            self.signal(at, state);
        }
    }

    /// Raises `shard`'s signal, waking it if it is blocked, and releases
    /// its inbox.
    fn signal(&self, shard: usize, state: MutexGuard<'_, InboxState>) {
        let inbox = &self.inboxes[shard];
        inbox.signal.store(true, Ordering::Relaxed);
        if state.waiting {
            inbox.wake.notify_one();
        }
    }

    /// Swaps `shard`'s inbox into `mail` (which must be empty). `false`
    /// when the run is over instead.
    pub(crate) fn take_mail(&self, shard: usize, mail: &mut Vec<Mail>) -> bool {
        let inbox = &self.inboxes[shard];
        let mut state = inbox.lock();
        inbox.signal.store(false, Ordering::Relaxed);
        std::mem::swap(&mut state.mail, mail);
        !state.stop
    }

    /// Counts `n` delivered messages off.
    pub(crate) fn delivered(&self, n: usize) {
        self.active.fetch_sub(n, Ordering::AcqRel);
    }

    /// `shard` has nothing to run: waits until mail arrives and swaps it
    /// into `mail` (which must be empty), or returns `false` once the run
    /// is over — when this shard's going idle leaves the whole machine
    /// quiet, it is the one that says so.
    pub(crate) fn idle(&self, shard: usize, mail: &mut Vec<Mail>) -> bool {
        let inbox = &self.inboxes[shard];
        for _ in 0..SPIN {
            if inbox.signal.load(Ordering::Relaxed) {
                break;
            }
            std::hint::spin_loop();
        }
        let mut state = inbox.lock();
        if state.stop {
            return false;
        }
        if state.mail.is_empty() {
            if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
                drop(state);
                self.stop();
                return false;
            }
            while !state.stop && state.mail.is_empty() {
                state.waiting = true;
                state = inbox.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                state.waiting = false;
            }
            if state.stop {
                return false;
            }
            self.active.fetch_add(1, Ordering::AcqRel);
        }
        inbox.signal.store(false, Ordering::Relaxed);
        std::mem::swap(&mut state.mail, mail);
        true
    }

    /// Ends the run for every shard: the machine is quiet, or a shard
    /// failed.
    pub(crate) fn stop(&self) {
        for inbox in &*self.inboxes {
            let mut state = inbox.lock();
            state.stop = true;
            inbox.signal.store(true, Ordering::Relaxed);
            if state.waiting {
                inbox.wake.notify_one();
            }
        }
    }
}
