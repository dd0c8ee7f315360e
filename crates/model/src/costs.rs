//! Table 2 — communication overheads `(a, b)` with time `t_s·a + t_w·b`,
//! evaluated from the exact rows of [`crate::sym::overhead_sym`].

use cubemm_simnet::PortModel;

/// The algorithms priced by Table 2 (Algorithm Simple is included even
/// though §5 excludes it from the comparison for its space cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelAlgo {
    /// Row/column all-to-all broadcasts (§3.1).
    Simple,
    /// Cannon's algorithm (§3.2).
    Cannon,
    /// Ho–Johnsson–Edelman (§3.3) — multi-port only.
    Hje,
    /// Berntsen's algorithm (§3.4).
    Berntsen,
    /// Dekel–Nassimi–Sahni (§3.5).
    Dns,
    /// 3-D Diagonal (§4.1.2).
    Diag3d,
    /// 3-D All (§4.2.2).
    All3d,
}

impl ModelAlgo {
    /// All Table 2 rows, in paper order.
    pub const ALL: [ModelAlgo; 7] = [
        ModelAlgo::Simple,
        ModelAlgo::Cannon,
        ModelAlgo::Hje,
        ModelAlgo::Berntsen,
        ModelAlgo::Dns,
        ModelAlgo::Diag3d,
        ModelAlgo::All3d,
    ];

    /// The algorithms §5 actually compares in Figures 13/14.
    pub const COMPARED: [ModelAlgo; 5] = [
        ModelAlgo::Cannon,
        ModelAlgo::Hje,
        ModelAlgo::Berntsen,
        ModelAlgo::Diag3d,
        ModelAlgo::All3d,
    ];

    /// Short stable name for reports (matches `cubemm_core`'s names).
    pub fn name(&self) -> &'static str {
        match self {
            ModelAlgo::Simple => "simple",
            ModelAlgo::Cannon => "cannon",
            ModelAlgo::Hje => "hje",
            ModelAlgo::Berntsen => "berntsen",
            ModelAlgo::Dns => "dns",
            ModelAlgo::Diag3d => "3dd",
            ModelAlgo::All3d => "3d-all",
        }
    }

    /// Single-letter glyph used in the ASCII region maps.
    pub fn glyph(&self) -> char {
        match self {
            ModelAlgo::Simple => 'S',
            ModelAlgo::Cannon => 'C',
            ModelAlgo::Hje => 'H',
            ModelAlgo::Berntsen => 'B',
            ModelAlgo::Dns => 'D',
            ModelAlgo::Diag3d => 'd',
            ModelAlgo::All3d => 'A',
        }
    }
}

impl std::fmt::Display for ModelAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A Table 2 entry: communication time is `t_s·a + t_w·b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Message start-ups on the critical path.
    pub a: f64,
    /// Words transferred on the critical path.
    pub b: f64,
}

impl Overhead {
    /// Evaluates the entry at the given machine parameters.
    #[inline]
    pub fn time(&self, ts: f64, tw: f64) -> f64 {
        ts * self.a + tw * self.b
    }
}

/// Structural applicability (Table 3 column "Conditions"): whether the
/// algorithm's data decomposition exists at all for `(n, p)`.
pub fn structurally_applicable(algo: ModelAlgo, n: usize, p: usize) -> bool {
    let nf = n as f64;
    let pf = p as f64;
    match algo {
        ModelAlgo::Simple | ModelAlgo::Cannon => pf <= nf * nf,
        // HJE additionally needs at least log √p block columns per node.
        ModelAlgo::Hje => pf <= nf * nf && nf / pf.sqrt() >= (pf.sqrt().log2()).max(1.0),
        ModelAlgo::Berntsen | ModelAlgo::All3d => pf <= nf.powf(1.5),
        ModelAlgo::Dns | ModelAlgo::Diag3d => pf <= nf * nf * nf,
    }
}

/// Whether ALL3D's first-phase all-to-all runs at full bandwidth on a
/// multi-port machine, `n² ≥ p^{4/3}·log ∛p` (with `log ∛p` at least
/// 1): the regime that picks the first of its two Table 2 rows.
pub fn all3d_full_bandwidth(n: usize, p: usize) -> bool {
    let (nf, pf) = (n as f64, p as f64);
    nf * nf >= pf * pf.cbrt() * (pf.log2() / 3.0).max(1.0)
}

/// The Table 2 overhead of `algo` on a `p`-node machine of the given port
/// model for `n × n` matrices, or `None` where the paper gives no entry
/// (HJE one-port) or the algorithm is structurally inapplicable: the
/// exact row of [`overhead_sym`](crate::sym::overhead_sym) evaluated at
/// `(n, log p)`.
///
/// ```
/// use cubemm_model::{overhead, ModelAlgo, PortModel};
///
/// // 3DD one-port: a = 4/3 log p, b = (n²/p^{2/3}) · 4/3 log p.
/// let o = overhead(ModelAlgo::Diag3d, PortModel::OnePort, 64, 64).unwrap();
/// assert_eq!((o.a, o.b), (8.0, 2048.0));
/// assert_eq!(o.time(150.0, 3.0), 150.0 * 8.0 + 3.0 * 2048.0);
/// ```
pub fn overhead(algo: ModelAlgo, port: PortModel, n: usize, p: usize) -> Option<Overhead> {
    if p < 2 || !structurally_applicable(algo, n, p) {
        return None;
    }
    let row = crate::sym::table2(algo, port, all3d_full_bandwidth(n, p))?;
    let (n, d) = (n as f64, (p as f64).log2());
    Some(Overhead {
        a: row.a.eval(n, d),
        b: row.b.eval(n, d),
    })
}

/// Total communication time `t_s·a + t_w·b`, or `None` if not applicable.
pub fn time(algo: ModelAlgo, port: PortModel, n: usize, p: usize, ts: f64, tw: f64) -> Option<f64> {
    overhead(algo, port, n, p).map(|o| o.time(ts, tw))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: PortModel = PortModel::OnePort;
    const MULTI: PortModel = PortModel::MultiPort;

    #[test]
    fn hje_has_no_one_port_row() {
        assert!(overhead(ModelAlgo::Hje, ONE, 1024, 64).is_none());
        assert!(overhead(ModelAlgo::Hje, MULTI, 1024, 64).is_some());
    }

    #[test]
    fn applicability_thresholds() {
        // 3D All needs p ≤ n^{3/2}.
        assert!(overhead(ModelAlgo::All3d, ONE, 64, 512).is_some());
        assert!(overhead(ModelAlgo::All3d, ONE, 64, 1024).is_none());
        // 3DD works up to p = n³.
        assert!(overhead(ModelAlgo::Diag3d, ONE, 64, 1 << 18).is_some());
        assert!(overhead(ModelAlgo::Diag3d, ONE, 64, 1 << 19).is_none());
        // Cannon up to p = n².
        assert!(overhead(ModelAlgo::Cannon, ONE, 64, 4096).is_some());
        assert!(overhead(ModelAlgo::Cannon, ONE, 64, 8192).is_none());
    }

    #[test]
    fn paper_claim_3dall_beats_3dd_one_port() {
        // §5.1: 3D All beats 3DD, Berntsen, Cannon for all p ≥ 8 wherever
        // applicable, for any n, t_s, t_w.
        for n in [64usize, 256, 1024, 4096] {
            for d in [3u32, 6, 9, 12] {
                let p = 1usize << d;
                let Some(all) = overhead(ModelAlgo::All3d, ONE, n, p) else {
                    continue;
                };
                for other in [ModelAlgo::Diag3d, ModelAlgo::Berntsen, ModelAlgo::Cannon] {
                    if let Some(o) = overhead(other, ONE, n, p) {
                        assert!(
                            all.a <= o.a + 1e-9 && all.b <= o.b + 1e-9,
                            "3D All should dominate {other} at n={n} p={p}: {all:?} vs {o:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_claim_3dd_dominates_dns() {
        // §3.5/§5: 3DD is at least as good as DNS for both architectures,
        // irrespective of n, p, t_s, t_w.
        for n in [64usize, 1024] {
            for d in [3u32, 6, 9, 12, 15] {
                let p = 1usize << d;
                for port in [ONE, MULTI] {
                    let (Some(dd), Some(dns)) = (
                        overhead(ModelAlgo::Diag3d, port, n, p),
                        overhead(ModelAlgo::Dns, port, n, p),
                    ) else {
                        continue;
                    };
                    assert!(dd.a <= dns.a + 1e-9 && dd.b <= dns.b + 1e-9);
                }
            }
        }
    }

    #[test]
    fn paper_claim_hje_beats_cannon_multi_port() {
        // §5.2: HJE, wherever applicable, beats Cannon on multi-port.
        for n in [256usize, 1024] {
            for d in [4u32, 6, 8, 10] {
                let p = 1usize << d;
                let (Some(h), Some(c)) = (
                    overhead(ModelAlgo::Hje, MULTI, n, p),
                    overhead(ModelAlgo::Cannon, MULTI, n, p),
                ) else {
                    continue;
                };
                assert_eq!(h.a, c.a);
                assert!(h.b <= c.b + 1e-9, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn all3d_multi_port_row_switches_with_message_size() {
        // Large n: first-phase AAPC uses full bandwidth (smaller tail
        // term). Small n (but still structurally applicable): falls back
        // to the second row.
        // p = 512: row 1 needs n² ≥ p^{4/3}·log ∛p = 4096·3 = 12288,
        // i.e. n ≥ 111; n = 64 (structurally applicable, 512 ≤ 64^1.5)
        // falls back to row 2.
        let p = 512;
        let big = overhead(ModelAlgo::All3d, MULTI, 4096, p).unwrap();
        let small = overhead(ModelAlgo::All3d, MULTI, 64, p).unwrap();
        let n2 = |n: f64| n * n;
        let p23 = (p as f64).powf(2.0 / 3.0);
        // tail coefficients: 1/(2∛p) = 1/16 vs log p/(6∛p) = 9/48.
        let base = |n: f64| n2(n) / p23 * (6.0 / 9.0 * (1.0 - 1.0 / 8.0));
        assert!((big.b - (base(4096.0) + n2(4096.0) / p23 / 16.0)).abs() < 1e-6);
        assert!((small.b - (base(64.0) + n2(64.0) / p23 * 9.0 / 48.0)).abs() < 1e-6);
    }

    #[test]
    fn overheads_are_positive_and_scale_with_n() {
        for algo in ModelAlgo::ALL {
            for port in [ONE, MULTI] {
                let (Some(small), Some(large)) = (
                    overhead(algo, port, 512, 64),
                    overhead(algo, port, 2048, 64),
                ) else {
                    continue;
                };
                assert!(small.a > 0.0 && small.b > 0.0);
                assert_eq!(small.a, large.a, "{algo}: a must not depend on n");
                assert!(large.b > small.b, "{algo}: b must grow with n");
            }
        }
    }
}
