//! Per-node and per-run statistics gathered by the simulator.

/// Which fault-plan family a [`FiredFault`] record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FiredKind {
    /// A send had to detour around (or failed on) a dead link.
    DeadLink,
    /// A transfer paid a degraded link's cost multipliers.
    DegradedLink,
    /// The node's clock runs at a straggler multiplier.
    Straggler,
    /// A scheduled drop lost a message this node injected.
    Drop,
    /// A scheduled corruption mangled a payload this node pushed.
    Corruption,
    /// The node's scheduled crash fired (only observable in stats when
    /// another node's counters survive the aborted run).
    Crash,
}

/// One fault-plan entry observed actually firing at a node, recorded
/// once per `(kind, endpoints)` pair with the program step (the node's
/// 0-based communication-call index) of its *first* firing. Campaign
/// drivers use these records as ground truth for fault-space coverage:
/// a scheduled fault that never fires leaves no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// The fault family.
    pub kind: FiredKind,
    /// Link endpoint (normalized `lo` for undirected families, the
    /// sender for directed drops/corruptions, the node itself for node
    /// faults).
    pub a: usize,
    /// The other endpoint (`hi`, the destination, or `a` again for node
    /// faults).
    pub b: usize,
    /// The recording node's communication-call index at first firing.
    pub step: u64,
}

/// Counters for a single virtual processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Final virtual clock of the node.
    pub clock: f64,
    /// Messages injected by this node (each routed hop of a
    /// `send_routed` counts once, matching the start-up accounting).
    pub messages: usize,
    /// Words injected by this node, multiplied by hops travelled.
    pub word_hops: usize,
    /// Peak words of matrix data held at any instrumented point
    /// (see [`crate::Proc::track_peak_words`]).
    pub peak_words: usize,
    /// Retransmissions after a scheduled message drop. Nothing in the
    /// simulator retransmits, so this stays 0; the field is kept because
    /// reports and the golden statistics digest carry it.
    pub retries: usize,
    /// Extra hops travelled beyond the Hamming distance because dead
    /// links forced detours (fault injection).
    pub detour_hops: usize,
    /// Messages this node injected that a fault plan dropped in flight.
    pub dropped: usize,
    /// Payloads this node pushed that a fault plan silently corrupted in
    /// flight (the receiver saw wrong data, not an error).
    pub corrupted: usize,
    /// Communication calls this node issued (its schedule length): every
    /// public send/receive/batch primitive counts one. Chaos campaigns
    /// bucket fault steps into schedule phases with this.
    pub rounds: u64,
    /// Fault-plan entries observed firing at this node (deduplicated per
    /// `(kind, endpoints)`, stamped with the step of first firing). Empty
    /// under an empty plan.
    pub fired: Vec<FiredFault>,
}

/// Aggregated result of one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Elapsed virtual time: the maximum final clock over all nodes.
    pub elapsed: f64,
    /// Per-node counters, indexed by node label.
    pub nodes: Vec<NodeStats>,
}

impl RunStats {
    /// Total messages injected across all nodes.
    pub fn total_messages(&self) -> usize {
        self.nodes.iter().map(|n| n.messages).sum()
    }

    /// Total word·hops across all nodes.
    pub fn total_word_hops(&self) -> usize {
        self.nodes.iter().map(|n| n.word_hops).sum()
    }

    /// Maximum peak resident words over all nodes.
    pub fn max_peak_words(&self) -> usize {
        self.nodes.iter().map(|n| n.peak_words).max().unwrap_or(0)
    }

    /// Sum of per-node peak words: the paper's "overall space used"
    /// (Table 3) counts total words across the machine.
    pub fn total_peak_words(&self) -> usize {
        self.nodes.iter().map(|n| n.peak_words).sum()
    }

    /// Total retransmissions across all nodes: always 0 (see
    /// [`NodeStats::retries`]).
    pub fn total_retries(&self) -> usize {
        self.nodes.iter().map(|n| n.retries).sum()
    }

    /// Total detour hops around dead links across all nodes.
    pub fn total_detour_hops(&self) -> usize {
        self.nodes.iter().map(|n| n.detour_hops).sum()
    }

    /// Total messages lost to scheduled drops across all nodes.
    pub fn total_dropped(&self) -> usize {
        self.nodes.iter().map(|n| n.dropped).sum()
    }

    /// Total payloads silently corrupted in flight across all nodes.
    pub fn total_corrupted(&self) -> usize {
        self.nodes.iter().map(|n| n.corrupted).sum()
    }

    /// Every fault-plan entry observed firing anywhere in the run, in
    /// node order (see [`NodeStats::fired`]).
    pub fn fired_faults(&self) -> impl Iterator<Item = FiredFault> + '_ {
        self.nodes.iter().flat_map(|n| n.fired.iter().copied())
    }

    /// The shortest per-node schedule length of the run (communication
    /// calls of the least-talkative node) — the denominator chaos
    /// campaigns use to place faults in early/mid/late phases so that a
    /// scheduled step is guaranteed to be reached by every node.
    pub fn min_rounds(&self) -> u64 {
        self.nodes.iter().map(|n| n.rounds).min().unwrap_or(0)
    }
}
