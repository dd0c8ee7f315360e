//! The analyzer's schedule IR.
//!
//! A [`Schedule`] is the communication skeleton of a program: for every
//! node, a list of [`Round`]s, each holding the sends and receives that
//! node issues as one logically concurrent batch. It deliberately drops
//! payload *values* and keeps only the structure the checks need —
//! peers, tags, word counts, hop counts — because every schedule in this
//! workspace is data-oblivious: which messages go where depends only on
//! `(n, p, port)`, never on matrix contents.
//!
//! Schedules come from two sources:
//!
//! * [`crate::symbolic::expand_collective`] — a collective's schema
//!   expanded for every node, without compiling or executing anything;
//! * [`Schedule::from_traces`] — from the per-message trace of one
//!   executed run, regrouped into program rounds via
//!   [`cubemm_simnet::TraceEvent::round`]. This is how whole
//!   multiplication algorithms are captured: one cheap traced run at any
//!   cost parameters yields the schedule, and everything after that is
//!   static.

use cubemm_simnet::{TraceEvent, TraceKind};

/// One communication action of a node within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An outgoing message charged to this node's port.
    Send {
        /// Destination node label.
        to: usize,
        /// Message tag.
        tag: u64,
        /// Payload length in words.
        words: usize,
        /// Hops travelled (1 for neighbor sends, the Hamming distance
        /// for dimension-ordered routed sends).
        hops: u32,
    },
    /// A (passive) receive.
    Recv {
        /// Source node label.
        from: usize,
        /// Message tag.
        tag: u64,
        /// Expected payload length in words, when the schedule source
        /// declares one (`None` leaves the volume unchecked).
        expect: Option<usize>,
    },
}

/// One batch of logically concurrent events at a node. The engine
/// issues all sends of a round before blocking on its receives, and the
/// analyzer preserves that order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round {
    /// The round's events, sends first.
    pub events: Vec<Event>,
}

/// A whole-machine communication schedule: per-node rounds.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Number of nodes (a power of two).
    pub p: usize,
    /// `nodes[u]` lists node `u`'s rounds in program order.
    pub nodes: Vec<Vec<Round>>,
}

impl Schedule {
    /// An empty schedule over `p` nodes.
    pub fn new(p: usize) -> Self {
        Schedule {
            p,
            nodes: vec![Vec::new(); p],
        }
    }

    /// Appends a round to node `u`.
    pub fn push_round(&mut self, u: usize, round: Round) {
        self.nodes[u].push(round);
    }

    /// Rebuilds the per-node schedule of an executed run from its event
    /// traces (one `Vec<TraceEvent>` per node, as produced by a run with
    /// tracing enabled). Events sharing a
    /// [`TraceEvent::round`] stamp at a node were issued as one batch
    /// and become one [`Round`].
    ///
    /// Fails if the trace contains dropped messages: a schedule captured
    /// under fault injection is not the algorithm's healthy schedule and
    /// proving things about it would be misleading.
    pub fn from_traces(p: usize, traces: &[Vec<TraceEvent>]) -> Result<Schedule, String> {
        if traces.len() != p {
            return Err(format!(
                "trace has {} node timelines, machine has {p} nodes",
                traces.len()
            ));
        }
        let mut s = Schedule::new(p);
        for (u, timeline) in traces.iter().enumerate() {
            let mut current: Option<u64> = None;
            let mut round = Round::default();
            for ev in timeline {
                if current != Some(ev.round) {
                    if current.is_some() {
                        s.nodes[u].push(std::mem::take(&mut round));
                    }
                    current = Some(ev.round);
                }
                match ev.kind {
                    TraceKind::Send { to, hops } => round.events.push(Event::Send {
                        to,
                        tag: ev.tag,
                        words: ev.words,
                        hops,
                    }),
                    TraceKind::Recv { from } => round.events.push(Event::Recv {
                        from,
                        tag: ev.tag,
                        expect: Some(ev.words),
                    }),
                    TraceKind::Dropped { to } => {
                        return Err(format!(
                            "node {u} round {}: message to {to} was dropped in flight; \
                             refusing to analyze a faulted schedule",
                            ev.round
                        ));
                    }
                }
            }
            if current.is_some() {
                s.nodes[u].push(round);
            }
        }
        Ok(s)
    }

    /// The schedule's round count (the longest node program).
    pub fn rounds(&self) -> usize {
        self.nodes.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of messages sent.
    pub fn messages(&self) -> usize {
        self.each_send().count()
    }

    /// Total words sent across all messages.
    pub fn words(&self) -> usize {
        self.each_send()
            .map(|(_, _, ev)| match ev {
                Event::Send { words, .. } => words,
                Event::Recv { .. } => 0,
            })
            .sum()
    }

    /// Iterates `(node, round, send event)` over every send.
    fn each_send(&self) -> impl Iterator<Item = (usize, usize, Event)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(u, rounds)| {
            rounds.iter().enumerate().flat_map(move |(r, round)| {
                round
                    .events
                    .iter()
                    .filter(|ev| matches!(ev, Event::Send { .. }))
                    .map(move |ev| (u, r, *ev))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(node: usize, round: u64, kind: TraceKind, tag: u64, words: usize) -> TraceEvent {
        TraceEvent {
            node,
            round,
            kind,
            tag,
            words,
            start: 0.0,
            end: 0.0,
        }
    }

    #[test]
    fn traces_group_by_round_stamp() {
        let traces = vec![
            vec![
                trace(0, 1, TraceKind::Send { to: 1, hops: 1 }, 7, 4),
                trace(0, 1, TraceKind::Recv { from: 1 }, 7, 4),
                trace(0, 2, TraceKind::Send { to: 1, hops: 1 }, 8, 2),
            ],
            vec![
                trace(1, 1, TraceKind::Send { to: 0, hops: 1 }, 7, 4),
                trace(1, 1, TraceKind::Recv { from: 0 }, 7, 4),
                trace(1, 2, TraceKind::Recv { from: 0 }, 8, 2),
            ],
        ];
        let s = Schedule::from_traces(2, &traces).unwrap();
        assert_eq!(s.nodes[0].len(), 2);
        assert_eq!(s.nodes[0][0].events.len(), 2);
        assert_eq!(s.nodes[0][1].events.len(), 1);
        assert_eq!(s.messages(), 3);
        assert_eq!(s.words(), 10);
        assert_eq!(s.rounds(), 2);
    }

    #[test]
    fn faulted_traces_are_rejected() {
        let traces = vec![
            vec![trace(0, 1, TraceKind::Dropped { to: 1 }, 7, 4)],
            vec![],
        ];
        let err = Schedule::from_traces(2, &traces).unwrap_err();
        assert!(err.contains("dropped"), "{err}");
    }
}
