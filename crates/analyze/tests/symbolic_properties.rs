//! Randomized differential tests for the symbolic schedule IR.
//!
//! The certificates in `cubemm_analyze::symbolic` prove cost and
//! structure for *all* `d` by polynomial identity, and the executable
//! plans are compiled from the very guard function the expansion
//! evaluates — so the remaining trusted component is that function.
//! These tests attack it from outside: at random dimensions and random
//! roots the expanded schedule must be message-for-message what a real
//! machine run actually sent (`captured_collective`), under both
//! execution engines.
//!
//! Plus negative controls: a schema skewed by one round, or carrying a
//! wrong, malformed or negative volume polynomial, must be *rejected*
//! by the checker — the gate has teeth.

use cubemm_analyze::{
    captured_collective, certify_collective, diff_schedules, expand_collective, CollCertificate,
};
use cubemm_collectives::{CollKind, CollSchema};
use cubemm_simnet::{Engine, PortModel};

/// Deterministic xorshift64* — no external PRNG crates, reproducible
/// failures (the seed is in the panic message via the drawn values).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

const PORTS: [PortModel; 2] = [PortModel::OnePort, PortModel::MultiPort];

/// The trace oracle: the expansion matches what a real traced machine
/// run actually sent, at random roots, under both engines. Threaded runs
/// stay at d ≤ 5 (one OS thread per node); the event engine draws from
/// d ∈ [6, 8], sizes the threaded engine cannot reach cheaply.
#[test]
fn random_d_expansion_matches_traced_runs_under_both_engines() {
    let mut rng = Rng(0x5eed_0002);
    for kind in CollKind::ALL {
        let schema = CollSchema::reference(kind);
        for port in PORTS {
            for engine in [Engine::Threaded, Engine::Event] {
                let d = match engine {
                    Engine::Threaded => rng.range(1, 5) as u32,
                    Engine::Event => rng.range(6, 8) as u32,
                };
                let m = rng.range(1, 16) as usize;
                let root = (rng.next() as usize) % (1usize << d);
                let expansion = expand_collective(&schema, port, d, m, 0, root);
                let traced = captured_collective(kind, port, engine, d, m, root)
                    .unwrap_or_else(|e| panic!("{kind:?} {port:?} {engine} d={d}: {e}"));
                // Traces drop a node's idle rounds; expansions keep them.
                diff_schedules(&expansion, &traced, true).unwrap_or_else(|e| {
                    panic!(
                        "{kind:?} {port:?} {engine} d={d} m={m} root={root}: \
                         expansion != trace: {e}"
                    )
                });
            }
        }
    }
}

/// Names of the obligations `cert` failed, in discharge order.
fn failed(cert: &CollCertificate) -> Vec<&'static str> {
    let failed = cert.obligations.iter().filter(|o| !o.ok);
    failed.map(|o| o.name).collect()
}

/// Negative control: skewing any schema's round count by one must fail
/// certification — and not via some incidental obligation, but via the
/// round-count identity itself.
#[test]
fn every_schema_skewed_by_one_round_is_rejected() {
    for kind in CollKind::ALL {
        for port in PORTS {
            let mut schema = CollSchema::reference(kind);
            schema.rounds_skew += 1;
            let cert = certify_collective(&schema, port);
            assert!(
                !cert.ok(),
                "{kind:?} {port:?}: off-by-one rounds certified anyway"
            );
            let failed = failed(&cert);
            assert!(
                failed.contains(&"rounds"),
                "{kind:?} {port:?}: wrong rounds not caught by the rounds identity: {failed:?}"
            );
        }
    }
}

/// Negative control: doubling any schema's volume polynomial must trip
/// the symbolic Table 1 word-count identity — and the grounding, since
/// the expansion ships half of what is now claimed.
#[test]
fn every_schema_with_wrong_volume_polynomial_is_rejected() {
    for kind in CollKind::ALL {
        for port in PORTS {
            let mut schema = CollSchema::reference(kind);
            // Doubling every round's packet count breaks the Table 1
            // word-volume identity for every collective (all have
            // non-zero b), whatever shape the true polynomial has.
            schema.vol.coef.0 *= 2;
            let cert = certify_collective(&schema, port);
            assert!(
                !cert.ok(),
                "{kind:?} {port:?}: wrong volume polynomial certified anyway"
            );
            assert_eq!(
                failed(&cert),
                ["cost-b", "fifo-deadlock"],
                "{kind:?} {port:?}"
            );
        }
    }
}

/// Negative control: a volume coefficient with a zero denominator is no
/// claim at all. It must fail `cost-b` as a typed refusal — not panic
/// inside the rational arithmetic — and `packets` must decline too.
#[test]
fn zero_denominator_volume_fails_cost_b_without_panicking() {
    for kind in CollKind::ALL {
        for port in PORTS {
            let mut schema = CollSchema::reference(kind);
            schema.vol.coef.1 = 0;
            assert_eq!(schema.vol.packets(4, 0), None);
            let cert = certify_collective(&schema, port);
            assert_eq!(failed(&cert), ["cost-b"], "{kind:?} {port:?}");
        }
    }
}

/// Negative control: `coef = (1, −1)` claims a negative packet count.
/// `packets` used to hand it back wrapped into a huge `u64`; it is not
/// a count, and the certificate must fail both the polynomial identity
/// and the grounding against what the expansion ships.
#[test]
fn negative_volume_is_no_packet_count_and_is_rejected() {
    for kind in CollKind::ALL {
        for port in PORTS {
            let mut schema = CollSchema::reference(kind);
            schema.vol.coef = (1, -1);
            for delta in 1..=8 {
                for r in 0..delta {
                    assert_eq!(
                        schema.vol.packets(delta, r),
                        None,
                        "{kind:?} δ={delta} r={r}"
                    );
                }
            }
            let cert = certify_collective(&schema, port);
            assert_eq!(
                failed(&cert),
                ["cost-b", "fifo-deadlock"],
                "{kind:?} {port:?}"
            );
        }
    }
}
