//! A failure stops only its own node: the failed node's program runs
//! nothing after it, every other node runs on to quiescence, every
//! node's locals are dropped, only a node that fails on its own unwinds,
//! and a deadlock names every blocked receive straight from the ledger's
//! parked table.

use std::cell::Cell;
use std::rc::Rc;

use cubemm_simnet::{Blocked, FaultPlan, Machine, RunError, SendError};

/// Nodes of the failure-kind machine: the exchanges walk dimensions
/// 0–2, so dimension 3 carries no traffic but the failing send.
const P: usize = 16;
/// Exchange rounds before the deadlock kind's final receive.
const ROUNDS: u64 = 6;
/// The node that fails.
const FAILING: usize = 5;
/// The rounds (communication calls) at which it fails: at its first,
/// before nodes 6–15 have even started, and mid-run.
const FAIL_ROUNDS: [u64; 2] = [0, 3];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Deadlock,
    Crash,
    StrictDeadLink,
    Panic,
}

const KINDS: [Kind; 4] = [
    Kind::Deadlock,
    Kind::Crash,
    Kind::StrictDeadLink,
    Kind::Panic,
];

/// Shared by every node: set `failing` right before the action that
/// fails the run, count how often the failing node's program runs code
/// after it, and how many exchange rounds each node completes.
#[derive(Default)]
struct Watch {
    failing: Cell<bool>,
    /// Nodes about to wait on a message nobody sends (deadlock kind):
    /// the last of them to park declares the deadlock.
    doomed: Cell<usize>,
    /// The failing node's program entries and await returns seen after
    /// `failing`.
    after_failure: Cell<usize>,
    /// Exchange rounds each node completed.
    rounds: [Cell<u64>; P],
    /// Nodes whose locals were dropped by an unwind.
    unwound: Cell<usize>,
}

/// A node program local that counts, when dropped, whether its node
/// left by unwinding.
struct Guard<'a>(&'a Watch);

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.unwound.set(self.0.unwound.get() + 1);
        }
    }
}

impl Watch {
    /// Bumped at a node program's start and after every await.
    fn resumed(&self, id: usize) {
        if id == FAILING && self.failing.get() {
            self.after_failure.set(self.after_failure.get() + 1);
        }
    }
}

/// The exchange partner of `id` in `round`.
fn partner(id: usize, round: u64) -> usize {
    id ^ (1 << (round % 3))
}

fn plan(kind: Kind, fail_round: u64) -> FaultPlan {
    match kind {
        Kind::Crash => FaultPlan::new().with_crash(FAILING, fail_round),
        Kind::StrictDeadLink => FaultPlan::new()
            .with_dead_link(FAILING, FAILING ^ 8)
            .strict(),
        Kind::Deadlock | Kind::Panic => FaultPlan::new(),
    }
}

/// Runs `kind`'s program, failing at `fail_round`, with one `Rc<Watch>`
/// cloned into every init, and returns the failure and the watch.
#[allow(
    clippy::expect_used,
    reason = "fixed, valid test machines; a failure is a test bug"
)]
fn run(kind: Kind, fail_round: u64) -> (RunError, Rc<Watch>) {
    let watch = Rc::new(Watch::default());
    let machine = Machine::builder(P)
        .faults(plan(kind, fail_round))
        .build()
        .expect("valid test machine");
    let inits = (0..P).map(|_| Rc::clone(&watch)).collect();
    let err = machine
        .run(inits, move |mut proc, watch: Rc<Watch>| async move {
            let id = proc.id();
            watch.resumed(id);
            let _guard = Guard(&watch);
            for round in 0..ROUNDS {
                if id == FAILING && round == fail_round {
                    match kind {
                        Kind::Deadlock => {}
                        Kind::Crash => watch.failing.set(true),
                        Kind::StrictDeadLink => {
                            watch.failing.set(true);
                            proc.send(id ^ 8, 99, [1.0]);
                        }
                        Kind::Panic => {
                            watch.failing.set(true);
                            panic!("node {id} gives up");
                        }
                    }
                }
                proc.exchange(partner(id, round), round, [id as f64]).await;
                watch.resumed(id);
                watch.rounds[id].set(round + 1);
            }
            watch.doomed.set(watch.doomed.get() + 1);
            if watch.doomed.get() == P {
                watch.failing.set(true);
            }
            let _ = proc.recv(id ^ 1, 1000).await;
            watch.resumed(id);
        })
        .expect_err("every kind fails the run");
    (err, watch)
}

/// Every failure kind at every failing round.
fn cases() -> impl Iterator<Item = (Kind, u64)> {
    KINDS
        .into_iter()
        .flat_map(|kind| FAIL_ROUNDS.map(|round| (kind, round)))
}

#[test]
fn each_failure_kind_is_the_run_error() {
    for (kind, fail_round) in cases() {
        let (err, _) = run(kind, fail_round);
        match (kind, err) {
            (Kind::Deadlock, RunError::Deadlock { blocked }) => {
                let want: Vec<Blocked> = (0..P)
                    .map(|node| Blocked {
                        node,
                        from: node ^ 1,
                        tag: 1000,
                    })
                    .collect();
                assert_eq!(blocked, want);
            }
            (Kind::Crash, RunError::NodeCrashed { node, step }) => {
                assert_eq!((node, step), (FAILING, fail_round));
            }
            (Kind::StrictDeadLink, RunError::LinkDead { node, error }) => {
                assert_eq!(node, FAILING);
                let (from, to) = (FAILING, FAILING ^ 8);
                assert_eq!(error, SendError::LinkDead { from, to });
            }
            (Kind::Panic, RunError::NodePanicked { node, message }) => {
                assert_eq!(node, FAILING);
                assert!(message.contains("gives up"), "{message}");
            }
            (kind, err) => panic!("{kind:?} ended in {err:?}"),
        }
    }
}

/// The exchange rounds each node completes when the run reaches
/// quiescence: a node completes a round iff its partner sends in it, and
/// a node sends in every round it starts but the failing node's failing
/// one.
fn quiescent_rounds(kind: Kind, fail_round: u64) -> Vec<u64> {
    let fails = kind != Kind::Deadlock;
    let mut rounds = vec![ROUNDS; P];
    if fails {
        rounds[FAILING] = fail_round;
    }
    loop {
        let sends = |id: usize, round: u64, rounds: &[u64]| {
            round < rounds[id] || (round == rounds[id] && !(fails && id == FAILING))
        };
        let next: Vec<u64> = (0..P)
            .map(|id| {
                (0..rounds[id])
                    .find(|&round| !sends(partner(id, round), round, &rounds))
                    .unwrap_or(rounds[id])
            })
            .collect();
        if next == rounds {
            return rounds;
        }
        rounds = next;
    }
}

#[test]
fn a_failed_node_runs_nothing_more_and_the_rest_run_to_quiescence() {
    for (kind, fail_round) in cases() {
        let (_, watch) = run(kind, fail_round);
        let what = format!("{kind:?} at {fail_round}");
        assert!(watch.failing.get(), "{what}: not reached");
        assert_eq!(watch.after_failure.get(), 0, "{what}");
        let rounds: Vec<u64> = watch.rounds.iter().map(Cell::get).collect();
        assert_eq!(rounds, quiescent_rounds(kind, fail_round), "{what}");
    }
}

#[test]
fn every_node_drops_its_locals_when_the_run_fails() {
    for (kind, fail_round) in cases() {
        let (_, watch) = run(kind, fail_round);
        assert_eq!(Rc::strong_count(&watch), 1, "{kind:?} at {fail_round}");
    }
}

/// A deadlock unwinds no node, not even the receive that declares it;
/// a crash, a strict dead link or a panic unwinds the failing node only.
#[test]
fn only_a_node_that_fails_on_its_own_unwinds() {
    for (kind, fail_round) in cases() {
        let (_, watch) = run(kind, fail_round);
        let want = usize::from(kind != Kind::Deadlock);
        assert_eq!(watch.unwound.get(), want, "{kind:?} at {fail_round}");
    }
}

/// Every node of a p = 4096 machine waits on a message its neighbor
/// never sends: the report names all 4096 receives, sorted by node.
#[test]
fn a_4096_node_deadlock_names_every_blocked_receive() {
    const BIG: usize = 4096;
    #[allow(clippy::expect_used, reason = "a fixed, valid test machine")]
    let machine = Machine::builder(BIG).build().expect("valid test machine");
    let err = machine
        .run(vec![(); BIG], |mut proc, ()| async move {
            let id = proc.id();
            let _ = proc.recv(id ^ 1, id as u64).await;
        })
        .expect_err("nobody sends");
    let want: Vec<Blocked> = (0..BIG)
        .map(|node| Blocked {
            node,
            from: node ^ 1,
            tag: node as u64,
        })
        .collect();
    assert_eq!(err, RunError::Deadlock { blocked: want });
}
