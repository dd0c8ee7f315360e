//! The static checks: matching/deadlock analysis, port and link
//! legality, and exact cost extraction by symbolic replay.
//!
//! Everything here works on the [`Schedule`] IR alone — nothing is
//! executed. The cost replay reproduces the simulator's clock
//! arithmetic ([`cubemm_simnet::Proc`]'s batch semantics under the
//! paper's sender-only port charging) as a deterministic fixed-point
//! computation, so the `(a, b)` it extracts are exactly the values a
//! real run would measure at `(t_s, t_w) = (1, 0)` and `(0, 1)`.

use cubemm_simnet::{CostParams, IdMap, IdSet, PortModel};
use cubemm_topology::bits::hamming;

use crate::ir::{Event, Round, Schedule};

/// How strictly the one-port rule is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// A node may drive at most one link per round. This is the right
    /// mode for a single collective's schedule: the Johnsson–Ho
    /// one-port schedules claim one transfer per round, and a second
    /// send in a round would silently serialize and break the Table 1
    /// startup counts.
    StrictOnePort,
    /// Multiple sends per round are legal and serialize through the
    /// port (the engine's actual semantics). This is the right mode for
    /// captured whole-algorithm schedules, whose fused batches
    /// deliberately serialize on one-port machines.
    Serialized,
}

/// A wait edge in a deadlock counterexample: `node`, blocked in
/// `round`, waiting on a message from `from` with tag `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitLink {
    /// The blocked node.
    pub node: usize,
    /// The round it is blocked in.
    pub round: usize,
    /// The peer it waits on.
    pub from: usize,
    /// The tag it waits for.
    pub tag: u64,
}

/// One analyzer finding. An empty diagnostic list is the proof: the
/// schedule is deadlock-free, every transfer is legal for the machine,
/// and all declared volumes agree.
#[derive(Debug, Clone, PartialEq)]
pub enum Diagnostic {
    /// A send whose destination is not in the machine (or is the
    /// sender itself).
    BadPeer {
        /// Sending node.
        node: usize,
        /// Offending round.
        round: usize,
        /// The destination outside `0..p` (or equal to `node`).
        peer: usize,
    },
    /// A transfer that does not traverse genuine hypercube edges: a
    /// neighbor send to a non-neighbor, or a routed send whose hop
    /// count is not the Hamming distance to its destination.
    NotAnEdge {
        /// Sending node.
        node: usize,
        /// Offending round.
        round: usize,
        /// Destination.
        to: usize,
        /// Hops the schedule claims.
        hops: u32,
        /// Actual Hamming distance.
        distance: u32,
    },
    /// Under [`Strictness::StrictOnePort`]: a node drives more than one
    /// link in a single round.
    OnePortDoubleDrive {
        /// Offending node.
        node: usize,
        /// Offending round.
        round: usize,
        /// How many sends the round holds.
        sends: usize,
    },
    /// Multi-port only: a directed link carries more than one transfer
    /// in the same round. The simulator serializes these legally, but a
    /// schedule that claims the full-bandwidth Table 1/2 rows must
    /// never do it.
    LinkContention {
        /// Driving node.
        node: usize,
        /// Offending round.
        round: usize,
        /// The first-hop neighbor the contended link leads to.
        link_to: usize,
        /// Number of transfers on the link that round.
        transfers: usize,
    },
    /// A receive with no matching send anywhere in the schedule: the
    /// node would wait forever.
    UnmatchedRecv {
        /// The starving node.
        node: usize,
        /// Round of the receive.
        round: usize,
        /// Peer it expects a message from.
        from: usize,
        /// Expected tag.
        tag: u64,
    },
    /// A send with no matching receive: the message is never consumed.
    StraySend {
        /// Sending node.
        node: usize,
        /// Round of the send.
        round: usize,
        /// Destination that never receives it.
        to: usize,
        /// Tag.
        tag: u64,
    },
    /// A matched send/receive pair whose word counts disagree.
    VolumeMismatch {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Words the sender ships.
        sent: usize,
        /// Words the receiver declares.
        expected: usize,
        /// The receive's round at `dst`.
        round: usize,
    },
    /// A cyclic wait: each listed node is blocked on a message whose
    /// sender is the next node in the cycle, itself blocked.
    CyclicWait {
        /// The wait cycle (last entry waits on the first).
        cycle: Vec<WaitLink>,
    },
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diagnostic::BadPeer { node, round, peer } => {
                write!(
                    f,
                    "round {round}: node {node} addresses invalid peer {peer}"
                )
            }
            Diagnostic::NotAnEdge {
                node,
                round,
                to,
                hops,
                distance,
            } => write!(
                f,
                "round {round}: node {node} -> {to} is not a hypercube path \
                 ({hops} hop(s) claimed, Hamming distance {distance})"
            ),
            Diagnostic::OnePortDoubleDrive { node, round, sends } => write!(
                f,
                "round {round}: node {node} drives {sends} links in one round \
                 on a one-port machine"
            ),
            Diagnostic::LinkContention {
                node,
                round,
                link_to,
                transfers,
            } => write!(
                f,
                "round {round}: link {node} -> {link_to} carries {transfers} \
                 transfers in one multi-port round"
            ),
            Diagnostic::UnmatchedRecv {
                node,
                round,
                from,
                tag,
            } => write!(
                f,
                "round {round}: node {node} waits forever on (from {from}, \
                 tag {tag:#x}) — no matching send exists"
            ),
            Diagnostic::StraySend {
                node,
                round,
                to,
                tag,
            } => write!(
                f,
                "round {round}: node {node} sends (to {to}, tag {tag:#x}) \
                 but no receive ever consumes it"
            ),
            Diagnostic::VolumeMismatch {
                src,
                dst,
                tag,
                sent,
                expected,
                round,
            } => write!(
                f,
                "round {round}: {src} -> {dst} (tag {tag:#x}) ships {sent} \
                 words but the receiver declares {expected}"
            ),
            Diagnostic::CyclicWait { cycle } => {
                write!(f, "cyclic wait: ")?;
                for (i, w) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(
                        f,
                        "node {} (round {}, awaits {} tag {:#x})",
                        w.node, w.round, w.from, w.tag
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// The exact Table 2 coordinates extracted from a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extracted {
    /// Start-ups on the critical path (elapsed time at `t_s=1, t_w=0`).
    pub a: f64,
    /// Words on the critical path (elapsed time at `t_s=0, t_w=1`).
    pub b: f64,
}

/// Per-phase traffic summary (phases are the `tag / TAG_SPACE` bands
/// the algorithms allocate with `phase_tag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase index (`tag / TAG_SPACE`).
    pub phase: u64,
    /// Messages sent in this phase.
    pub messages: usize,
    /// Total words those messages carry.
    pub words: usize,
    /// First round (over all nodes) with traffic in this phase.
    pub first_round: usize,
    /// Last round with traffic in this phase.
    pub last_round: usize,
}

/// Everything the analyzer proves about one schedule on one port model.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The port model the legality checks ran under.
    pub port: PortModel,
    /// All findings; empty means the schedule is certified.
    pub diagnostics: Vec<Diagnostic>,
    /// Extracted `(a, b)`; `None` when the schedule cannot complete
    /// (deadlock or unmatched receives), in which case a time would be
    /// meaningless.
    pub cost: Option<Extracted>,
    /// Total messages sent.
    pub messages: usize,
    /// Total words sent.
    pub words: usize,
    /// Round count (longest node program).
    pub rounds: usize,
    /// Per-phase traffic, sorted by phase index.
    pub phases: Vec<PhaseSummary>,
}

impl Diagnostic {
    /// Whether this finding is a *bandwidth* issue rather than a
    /// correctness issue: the engine executes such schedules correctly
    /// (serializing the contended link), just slower than the
    /// full-bandwidth bound the multi-port rows claim.
    pub fn is_bandwidth_only(&self) -> bool {
        matches!(self, Diagnostic::LinkContention { .. })
    }
}

impl Analysis {
    /// Whether every check passed, including full-bandwidth link use.
    pub fn is_certified(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Correctness certification: deadlock-free, every volume matched,
    /// every transfer on genuine edges — ignoring bandwidth-only
    /// findings (which cost time, never correctness).
    pub fn is_sound(&self) -> bool {
        self.diagnostics.iter().all(Diagnostic::is_bandwidth_only)
    }

    /// Bandwidth certification: no multi-port link ever carries two
    /// transfers in one round (the premise of the full-bandwidth
    /// Table 1/2 rows).
    pub fn is_full_bandwidth(&self) -> bool {
        !self.diagnostics.iter().any(Diagnostic::is_bandwidth_only)
    }
}

/// `(src, dst, tag)` — the simulator matches messages FIFO per this key.
type Key = (usize, usize, u64);
/// `(node, round, index-within-round)` — one event instance.
type EvRef = (usize, usize, usize);

/// The send/receive pairing of a schedule.
struct Matching {
    /// Matched receive for each send.
    send_to_recv: IdMap<EvRef, EvRef>,
    /// Originating `(node, round)` of each receive's matched send.
    recv_src: IdMap<EvRef, (usize, usize)>,
}

/// Pairs every send with its receive, FIFO per `(src, dst, tag)` in
/// node program order — the same discipline the simulator's per-channel
/// queues implement. Unmatched leftovers become diagnostics.
///
/// Each side is listed and sorted by `(key, event)`; an event reference
/// `(node, round, index)` orders a key's events in program order, since
/// one node issues all of them. One merge walk then visits the keys in
/// order and pairs each key's sends and receives FIFO. The pairing maps
/// are keyed by event references the schedule computed, so they are
/// [`IdMap`]s, sized once for every pair.
fn match_events(s: &Schedule, diags: &mut Vec<Diagnostic>) -> Matching {
    let mut sends: Vec<(Key, EvRef, usize)> = Vec::new();
    let mut recvs: Vec<(Key, EvRef, Option<usize>)> = Vec::new();
    for (u, rounds) in s.nodes.iter().enumerate() {
        for (r, round) in rounds.iter().enumerate() {
            for (i, ev) in round.events.iter().enumerate() {
                match *ev {
                    Event::Send { to, tag, words, .. } => {
                        sends.push(((u, to, tag), (u, r, i), words));
                    }
                    Event::Recv { from, tag, expect } => {
                        recvs.push(((from, u, tag), (u, r, i), expect));
                    }
                }
            }
        }
    }
    sends.sort_unstable_by_key(|&(key, ev, _)| (key, ev));
    recvs.sort_unstable_by_key(|&(key, ev, _)| (key, ev));

    let pairs = sends.len().min(recvs.len());
    let mut m = Matching {
        send_to_recv: IdMap::with_capacity_and_hasher(pairs, Default::default()),
        recv_src: IdMap::with_capacity_and_hasher(pairs, Default::default()),
    };
    let mut sends = sends.into_iter().peekable();
    let mut recvs = recvs.into_iter().peekable();
    loop {
        let key = match (sends.peek(), recvs.peek()) {
            (Some(send), Some(recv)) => send.0.min(recv.0),
            (Some(send), None) => send.0,
            (None, Some(recv)) => recv.0,
            (None, None) => break,
        };
        loop {
            match (
                sends.next_if(|send| send.0 == key),
                recvs.next_if(|recv| recv.0 == key),
            ) {
                (Some((_, sref, words)), Some((_, rref, expect))) => {
                    if let Some(expected) = expect {
                        if expected != words {
                            diags.push(Diagnostic::VolumeMismatch {
                                src: key.0,
                                dst: key.1,
                                tag: key.2,
                                sent: words,
                                expected,
                                round: rref.1,
                            });
                        }
                    }
                    m.send_to_recv.insert(sref, rref);
                    m.recv_src.insert(rref, (sref.0, sref.1));
                }
                (Some((_, sref, _)), None) => diags.push(Diagnostic::StraySend {
                    node: sref.0,
                    round: sref.1,
                    to: key.1,
                    tag: key.2,
                }),
                (None, Some((_, rref, _))) => diags.push(Diagnostic::UnmatchedRecv {
                    node: rref.0,
                    round: rref.1,
                    from: key.0,
                    tag: key.2,
                }),
                (None, None) => break,
            }
        }
    }
    m
}

/// The neighbor a message from `u` to `to` leaves through under
/// dimension-ordered routing (lowest differing dimension first).
fn first_hop(u: usize, to: usize) -> usize {
    u ^ (1 << (u ^ to).trailing_zeros())
}

/// A node observed blocked at the simulation fixed point.
struct Blocked {
    round: usize,
    from: usize,
    tag: u64,
    /// Sender node of the matched message, when one exists.
    src: Option<usize>,
}

/// Outcome of one symbolic execution of the schedule.
struct SimOutcome {
    /// Elapsed virtual time, valid only when `stuck` is empty.
    elapsed: f64,
    /// Nodes that could not finish, keyed by node label.
    stuck: IdMap<usize, Blocked>,
}

/// Symbolically executes the schedule under the simulator's clock
/// rules: per round, all sends issue first (serialized through the port
/// on one-port nodes; concurrent per-link on multi-port nodes), then
/// the node blocks until every receive's message has arrived. Receives
/// are passive (sender-only charging): they finish at the message's
/// arrival time.
fn simulate(s: &Schedule, port: PortModel, m: &Matching, cost: CostParams) -> SimOutcome {
    struct NodeState {
        pc: usize,
        issued: bool,
        clock: f64,
        /// When the current round's own sends are done.
        send_end: f64,
    }
    let mut st: Vec<NodeState> = (0..s.p)
        .map(|_| NodeState {
            pc: 0,
            issued: false,
            clock: 0.0,
            send_end: 0.0,
        })
        .collect();
    let mut arrivals: IdMap<EvRef, f64> =
        IdMap::with_capacity_and_hasher(m.send_to_recv.len(), Default::default());

    let issue = |u: usize,
                 r: usize,
                 round: &Round,
                 batch_start: f64,
                 arrivals: &mut IdMap<EvRef, f64>|
     -> f64 {
        let mut send_end = batch_start;
        let mut link_busy: IdMap<usize, f64> = IdMap::default();
        for (i, ev) in round.events.iter().enumerate() {
            let Event::Send {
                to, words, hops, ..
            } = *ev
            else {
                continue;
            };
            let h = f64::from(hops.max(1));
            let (start, xfer) = match port {
                // One-port: the node's single port serializes the batch;
                // a routed message pays the full per-hop price.
                PortModel::OnePort => (send_end, h * (cost.ts + cost.tw * words as f64)),
                // Multi-port: each link is independent; routed messages
                // pipeline (h start-ups, one payload transmission).
                PortModel::MultiPort => (
                    *link_busy.get(&first_hop(u, to)).unwrap_or(&batch_start),
                    h * cost.ts + cost.tw * words as f64,
                ),
            };
            let end = start + xfer;
            if matches!(port, PortModel::MultiPort) {
                link_busy.insert(first_hop(u, to), end);
            }
            send_end = send_end.max(end);
            if let Some(&rref) = m.send_to_recv.get(&(u, r, i)) {
                arrivals.insert(rref, end);
            }
        }
        send_end
    };

    loop {
        let mut progress = false;
        for (u, node) in st.iter_mut().enumerate() {
            while let Some(round) = s.nodes[u].get(node.pc) {
                if !node.issued {
                    node.send_end = issue(u, node.pc, round, node.clock, &mut arrivals);
                    node.issued = true;
                    progress = true;
                }
                let mut end = node.send_end;
                let mut ready = true;
                for (i, ev) in round.events.iter().enumerate() {
                    if !matches!(ev, Event::Recv { .. }) {
                        continue;
                    }
                    match arrivals.get(&(u, node.pc, i)) {
                        Some(&t) => end = end.max(t),
                        None => {
                            ready = false;
                            break;
                        }
                    }
                }
                if !ready {
                    break;
                }
                node.clock = node.clock.max(end);
                node.pc += 1;
                node.issued = false;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }

    let mut stuck = IdMap::default();
    for (u, state) in st.iter().enumerate() {
        let Some(round) = s.nodes[u].get(state.pc) else {
            continue;
        };
        // The first receive still waiting is what blocks the node.
        for (i, ev) in round.events.iter().enumerate() {
            let Event::Recv { from, tag, .. } = *ev else {
                continue;
            };
            if arrivals.contains_key(&(u, state.pc, i)) {
                continue;
            }
            stuck.insert(
                u,
                Blocked {
                    round: state.pc,
                    from,
                    tag,
                    src: m.recv_src.get(&(u, state.pc, i)).map(|&(v, _)| v),
                },
            );
            break;
        }
    }
    SimOutcome {
        elapsed: st.iter().map(|n| n.clock).fold(0.0, f64::max),
        stuck,
    }
}

/// Turns the stuck set of a failed simulation into cyclic-wait
/// counterexamples. Chains ending in an unmatched receive are already
/// reported as [`Diagnostic::UnmatchedRecv`] and produce no cycle.
fn extract_cycles(stuck: &IdMap<usize, Blocked>, diags: &mut Vec<Diagnostic>) {
    let mut done: IdSet<usize> = IdSet::default();
    let mut nodes: Vec<usize> = stuck.keys().copied().collect();
    nodes.sort_unstable();
    for start in nodes {
        if done.contains(&start) {
            continue;
        }
        let mut path: Vec<usize> = Vec::new();
        let mut pos: IdMap<usize, usize> = IdMap::default();
        let mut cur = start;
        loop {
            if done.contains(&cur) {
                break; // feeds an already-reported component
            }
            if let Some(&i) = pos.get(&cur) {
                let cycle = path[i..]
                    .iter()
                    .map(|&u| {
                        let b = &stuck[&u];
                        WaitLink {
                            node: u,
                            round: b.round,
                            from: b.from,
                            tag: b.tag,
                        }
                    })
                    .collect();
                diags.push(Diagnostic::CyclicWait { cycle });
                break;
            }
            pos.insert(cur, path.len());
            path.push(cur);
            match stuck.get(&cur).and_then(|b| b.src) {
                Some(src) if stuck.contains_key(&src) => cur = src,
                // Blocked on an unmatched message (or on a sender that
                // is not itself stuck, which cannot happen for a true
                // deadlock): the chain is not a cycle.
                _ => break,
            }
        }
        done.extend(path);
    }
}

/// Structural legality: peers in range, genuine hypercube edges, and
/// the port/link discipline of the machine model.
fn check_legality(s: &Schedule, port: PortModel, strict: Strictness, diags: &mut Vec<Diagnostic>) {
    for (u, rounds) in s.nodes.iter().enumerate() {
        for (r, round) in rounds.iter().enumerate() {
            let mut sends = 0usize;
            let mut links: IdMap<usize, usize> = IdMap::default();
            for ev in &round.events {
                let Event::Send { to, hops, .. } = *ev else {
                    continue;
                };
                sends += 1;
                if to >= s.p || to == u {
                    diags.push(Diagnostic::BadPeer {
                        node: u,
                        round: r,
                        peer: to,
                    });
                    continue;
                }
                let distance = hamming(u, to);
                if distance != hops {
                    diags.push(Diagnostic::NotAnEdge {
                        node: u,
                        round: r,
                        to,
                        hops,
                        distance,
                    });
                }
                if matches!(port, PortModel::MultiPort) {
                    *links.entry(first_hop(u, to)).or_insert(0) += 1;
                }
            }
            if matches!(port, PortModel::OnePort)
                && matches!(strict, Strictness::StrictOnePort)
                && sends > 1
            {
                diags.push(Diagnostic::OnePortDoubleDrive {
                    node: u,
                    round: r,
                    sends,
                });
            }
            let mut contended: Vec<(usize, usize)> =
                links.into_iter().filter(|&(_, count)| count > 1).collect();
            contended.sort_unstable();
            for (link_to, transfers) in contended {
                diags.push(Diagnostic::LinkContention {
                    node: u,
                    round: r,
                    link_to,
                    transfers,
                });
            }
        }
    }
}

/// Per-phase traffic summaries, grouped by `tag / TAG_SPACE`.
fn summarize_phases(s: &Schedule) -> Vec<PhaseSummary> {
    let mut phases: IdMap<u64, PhaseSummary> = IdMap::default();
    for rounds in &s.nodes {
        for (r, round) in rounds.iter().enumerate() {
            for ev in &round.events {
                let Event::Send { tag, words, .. } = *ev else {
                    continue;
                };
                let id = tag / cubemm_collectives::TAG_SPACE;
                let entry = phases.entry(id).or_insert(PhaseSummary {
                    phase: id,
                    messages: 0,
                    words: 0,
                    first_round: r,
                    last_round: r,
                });
                entry.messages += 1;
                entry.words += words;
                entry.first_round = entry.first_round.min(r);
                entry.last_round = entry.last_round.max(r);
            }
        }
    }
    let mut out: Vec<PhaseSummary> = phases.into_values().collect();
    out.sort_unstable_by_key(|ph| ph.phase);
    out
}

/// Runs every static check on the schedule and extracts its exact
/// `(a, b)` cost coordinates when it can complete.
pub fn analyze(s: &Schedule, port: PortModel, strict: Strictness) -> Analysis {
    let mut diags = Vec::new();
    check_legality(s, port, strict, &mut diags);
    let m = match_events(s, &mut diags);

    // The startup-basis execution doubles as the deadlock check: a
    // schedule completes at one cost parameterization iff it completes
    // at all (readiness never depends on clock values).
    let a_run = simulate(s, port, &m, CostParams::STARTUPS_ONLY);
    let cost = if a_run.stuck.is_empty() {
        let b_run = simulate(s, port, &m, CostParams::WORDS_ONLY);
        Some(Extracted {
            a: a_run.elapsed,
            b: b_run.elapsed,
        })
    } else {
        extract_cycles(&a_run.stuck, &mut diags);
        None
    };

    Analysis {
        port,
        diagnostics: diags,
        cost,
        messages: s.messages(),
        words: s.words(),
        rounds: s.rounds(),
        phases: summarize_phases(s),
    }
}

/// Replays the schedule's clocks at arbitrary `(t_s, t_w)` — the static
/// twin of running the machine. Fails when the schedule cannot
/// complete.
pub fn replay_elapsed(s: &Schedule, port: PortModel, cost: CostParams) -> Result<f64, String> {
    let mut diags = Vec::new();
    let m = match_events(s, &mut diags);
    let run = simulate(s, port, &m, cost);
    if !run.stuck.is_empty() {
        return Err(format!(
            "schedule cannot complete ({} nodes stuck)",
            run.stuck.len()
        ));
    }
    Ok(run.elapsed)
}
