//! The simulated results of every registry algorithm, pinned to what
//! the commit before the zero-copy payload path produced.
//!
//! Host-side changes to how words are stored and moved (payload
//! windows, the sparse packet store, the plan generators) must not move
//! a single simulated number: each line of `golden/runstats.txt` is one
//! `(algorithm, port, p)` run at n = 24 with its product
//! fingerprint, elapsed virtual time (as bits), message / word·hop /
//! peak-word totals, and a digest of the complete `RunStats` (every
//! per-node clock and counter). The table was generated by this same
//! code at the parent commit; the failure message prints the table the
//! current code produces, which is also how to regenerate it after a
//! change that is *meant* to alter simulated results.

use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_simnet::{CostParams, PortModel};

const GOLDEN: &str = include_str!("golden/runstats.txt");

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
                let cfg = MachineConfig::new(port, CostParams::PAPER);
                let res = algo.multiply(&a, &b, p, &cfg).expect("applicable shape");
                // Same hash `cubemm run` prints as `fingerprint:`.
                let product = res
                    .c
                    .as_slice()
                    .iter()
                    .flat_map(|x| x.to_bits().to_le_bytes());
                let stats = &res.stats;
                out.push_str(&format!(
                    "{algo} {port} p={p} fingerprint={:016x} elapsed={:016x} \
                     messages={} word_hops={} peak_words={} stats={:016x}\n",
                    fnv1a(product),
                    stats.elapsed.to_bits(),
                    stats.total_messages(),
                    stats.total_word_hops(),
                    stats.total_peak_words(),
                    fnv1a(format!("{stats:?}").bytes()),
                ));
            }
        }
    }
    out
}

#[test]
fn every_algorithm_matches_the_table_pinned_at_the_parent_commit() {
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
    // All 14 algorithms x 2 ports are present.
    assert!(actual.lines().count() >= 14 * 2);
}
