//! Wall-clock spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! id of the operation it belongs to. Spans are kept in memory and
//! written out once, when the benchmark ends. The program itself carries
//! no spans yet (that is ROADMAP item 1); until it does, a span here
//! wraps one call into a crate's public function, and the layer is the
//! prefix of the span's name (`dense.reference`, `core.multiply`, ...).

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (replayed CLI op or serve job) this span is part of.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] is one
/// branch around the call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name`. `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times_ns(&self.spans);
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(selfs)
                        .map(|(s, self_ns)| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("op", Json::Num(f64::from(s.op))),
                                ("self_ns", Json::Num(self_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once, so the result never goes
/// negative and never double-counts.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One operation's root span (the span of that op with no parent): its
/// duration and the `(name, duration)` of each direct child, in
/// nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBreakdown {
    pub op: u32,
    pub root_ns: u64,
    pub children: Vec<(&'static str, u64)>,
}

/// The breakdown of every operation that has a root span, in recording
/// order. One pass over the spans: a span is recorded after its parent,
/// so a root is always seen before its children.
pub fn op_breakdowns(spans: &[Span]) -> Vec<OpBreakdown> {
    let mut out: Vec<OpBreakdown> = Vec::new();
    // Index into `out` of the breakdown whose root is span `i`.
    let mut slot_of_root = vec![usize::MAX; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => {
                slot_of_root[i] = out.len();
                out.push(OpBreakdown {
                    op: s.op,
                    root_ns: s.duration_ns(),
                    children: Vec::new(),
                });
            }
            Some(p) if slot_of_root[p] != usize::MAX => {
                out[slot_of_root[p]]
                    .children
                    .push((s.name, s.duration_ns()));
            }
            Some(_) => {}
        }
    }
    out
}
