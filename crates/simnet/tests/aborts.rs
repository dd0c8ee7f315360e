//! A failed run ends at its failure: no node program runs after it,
//! every node's locals are dropped, only a node that fails on its own
//! unwinds, and a deadlock names every blocked receive straight from
//! the ledger's parked table.

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
/// fails the run, and count how often a node program runs code after it.
#[derive(Default)]
struct Watch {
    failing: Cell<bool>,
    /// Nodes about to wait on a message nobody sends (deadlock kind):
    /// the last of them to park declares the deadlock.
    doomed: Cell<usize>,
    /// Node program entries and await returns seen after `failing`.
    after_failure: Cell<usize>,
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
    fn resumed(&self) {
        if self.failing.get() {
            self.after_failure.set(self.after_failure.get() + 1);
        }
    }
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
            watch.resumed();
            let _guard = Guard(&watch);
            let id = proc.id();
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
                let partner = id ^ (1 << (round % 3));
                proc.exchange(partner, round, [id as f64]).await;
                watch.resumed();
            }
            watch.doomed.set(watch.doomed.get() + 1);
            if watch.doomed.get() == P {
                watch.failing.set(true);
            }
            let _ = proc.recv(id ^ 1, 1000).await;
            watch.resumed();
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

#[test]
fn no_node_program_runs_after_the_failure() {
    for (kind, fail_round) in cases() {
        let (_, watch) = run(kind, fail_round);
        assert!(watch.failing.get(), "{kind:?} at {fail_round}: not reached");
        assert_eq!(watch.after_failure.get(), 0, "{kind:?} at {fail_round}");
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
