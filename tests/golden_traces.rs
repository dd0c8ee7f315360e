//! The message order of every registry algorithm, pinned.
//!
//! `golden/runstats.txt` pins clocks and counters but not the order in
//! which messages are issued, and chaos fault placement and crash steps
//! depend on that order. Each line of `golden/traces.txt` is one
//! `(algorithm, port, p)` run of `golden_runstats.rs`'s grid (n = 24,
//! paper costs), traced, with an FNV-1a digest of every node's trace
//! events in order: kind, peer, tag, words, round, and the start/end
//! times as bits. The failure message prints the table the current code
//! produces, which is also how to regenerate it after a change that is
//! *meant* to reorder messages.

use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_simnet::{CostParams, PortModel, TraceEvent, TraceKind};

const GOLDEN: &str = include_str!("golden/traces.txt");

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(traces: &[Vec<TraceEvent>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (node, events) in traces.iter().enumerate() {
        hash = fnv1a(hash, &(node as u64).to_le_bytes());
        hash = fnv1a(hash, &(events.len() as u64).to_le_bytes());
        for ev in events {
            let (kind, peer, hops) = match ev.kind {
                TraceKind::Send { to, hops } => (0u8, to, hops),
                TraceKind::Recv { from } => (1, from, 0),
                TraceKind::Dropped { to } => (2, to, 0),
            };
            hash = fnv1a(hash, &[kind]);
            for word in [
                peer as u64,
                u64::from(hops),
                ev.tag,
                ev.words as u64,
                ev.round,
                ev.start.to_bits(),
                ev.end.to_bits(),
            ] {
                hash = fnv1a(hash, &word.to_le_bytes());
            }
        }
    }
    hash
}

fn table() -> String {
    let n = 24;
    let (a, b) = (Matrix::random(n, n, 11), Matrix::random(n, n, 12));
    let mut out = String::new();
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for p in [8, 16, 64] {
                if algo.check(n, p).is_err() {
                    continue;
                }
                let mut cfg = MachineConfig::new(port, CostParams::PAPER);
                cfg.traced = true;
                let res = algo.multiply(&a, &b, p, &cfg).expect("applicable shape");
                let events: usize = res.traces.iter().map(Vec::len).sum();
                out.push_str(&format!(
                    "{algo} {port} p={p} events={events} traces={:016x}\n",
                    digest(&res.traces),
                ));
            }
        }
    }
    out
}

#[test]
fn every_algorithm_issues_messages_in_the_pinned_order() {
    let actual = table();
    if let Some((line, (want, got))) = GOLDEN
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "golden line {} differs:\n  pinned  {want}\n  current {got}\n\nfull current table:\n{actual}",
            line + 1
        );
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "row count differs; full current table:\n{actual}"
    );
    assert!(actual.lines().count() >= 14 * 2);
}
