//! Closed-form overheads for the extension algorithms the paper sketches
//! but does not tabulate: the §3.5 DNS+Cannon supernode combination and
//! the §4.2.2 flat-grid 3-D All variant. Derivations follow the same
//! phase-by-phase accounting as Table 2; the workspace integration tests
//! compare them against measured simulator runs.

use cubemm_simnet::PortModel;

use crate::costs::Overhead;

/// DNS + Cannon on `p = s·r` (supernode grid side `∛s`, mesh side `√r`).
///
/// Phase accounting (one-port): two point-to-point lifts
/// (`2·log ∛s` units), two fused broadcasts (`2·log ∛s`), Cannon inside
/// the mesh (`2·log √r + 2(√r−1)` units of mesh-block size), and the
/// final reduction (`log ∛s`) — the paper's DNS row with `p → s` plus
/// Cannon's row with `p → r` on blocks of `n²·s^{-2/3}·r^{-1}` words.
/// Multi-port halves the Cannon terms and pipelines the lifts exactly as
/// in the DNS/Cannon rows of Table 2.
pub fn dns_cannon_overhead(
    n: usize,
    p: usize,
    mesh_bits: u32,
    port: PortModel,
) -> Option<Overhead> {
    let r = 1usize << (2 * mesh_bits);
    if !p.is_multiple_of(r) {
        return None;
    }
    let s = p / r;
    let logs = (s as f64).log2();
    if s == 0 || !(logs as u32).is_multiple_of(3) && s != 1 {
        return None;
    }
    let n2 = (n * n) as f64;
    let s23 = (s as f64).powf(2.0 / 3.0);
    let sqrt_r = (r as f64).sqrt();
    let logr = (r as f64).log2();
    // Mesh sub-block words.
    let m = n2 / (s23 * r as f64);
    let log_cb_s = logs / 3.0;
    Some(match port {
        PortModel::OnePort => Overhead {
            a: 5.0 * log_cb_s + logr + 2.0 * (sqrt_r - 1.0),
            b: m * (5.0 * log_cb_s + logr + 2.0 * (sqrt_r - 1.0)),
        },
        PortModel::MultiPort => Overhead {
            a: 4.0 * log_cb_s + logr / 2.0 + (sqrt_r - 1.0),
            b: m * (4.0 * log_cb_s + logr / 2.0 + (sqrt_r - 1.0)),
        },
    })
}

/// Flat-grid 3-D All on `p = g⁴` (`g = p^{1/4}`, depth `h = √p`).
///
/// One-port accounting with block size `M = n²/p`:
/// gather `(g−1)M` + A all-gather `(g−1)M` + strip all-gather
/// `(g−1)·gM` + tile broadcast `log g · g²M` + reduce-scatter `(g−1)M`,
/// with `5·log g = 5/4·log p` start-ups — fewer than standard 3-D All's
/// `4/3·log p` (the paper's remark), at `≈ n²√p` space. Multi-port
/// divides each phase's `t_w` term by `log g` except the broadcast,
/// whose multi-port form carries `g²M`.
pub fn flat_all3d_overhead(n: usize, p: usize, port: PortModel) -> Option<Overhead> {
    let dim = (p as f64).log2() as u32;
    if p < 16 || !p.is_power_of_two() || !dim.is_multiple_of(4) {
        return None;
    }
    let g = (1usize << (dim / 4)) as f64;
    let n2 = (n * n) as f64;
    // Applicability p ≤ n²  ⇔  √p | n structurally.
    if (p as f64).sqrt() > n as f64 {
        return None;
    }
    let m = n2 / p as f64;
    let logg = g.log2();
    Some(match port {
        PortModel::OnePort => Overhead {
            a: 5.0 * logg,
            b: (g - 1.0) * m * 3.0 + (g - 1.0) * g * m + logg * g * g * m,
        },
        PortModel::MultiPort => Overhead {
            a: 5.0 * logg,
            b: ((g - 1.0) * m * 3.0 + (g - 1.0) * g * m) / logg + g * g * m,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_cannon_with_trivial_mesh_is_dns() {
        // mesh_bits = 0 ⇒ r = 1 ⇒ the DNS row of Table 2 (up to the
        // degenerate Cannon terms, which vanish).
        let o = dns_cannon_overhead(64, 64, 0, PortModel::OnePort).unwrap();
        let dns = crate::costs::overhead(crate::costs::ModelAlgo::Dns, PortModel::OnePort, 64, 64)
            .unwrap();
        assert_eq!(o.a, dns.a);
        assert!((o.b - dns.b).abs() < 1e-9);
    }

    #[test]
    fn dns_cannon_startup_count_matches_measured_shape() {
        // s = 8, r = 4: one-port a = 5·1 + 2 + 2·1 = 9 (the measured
        // value in cubemm-core's dns_cannon tests).
        let o = dns_cannon_overhead(16, 32, 1, PortModel::OnePort).unwrap();
        assert_eq!(o.a, 9.0);
    }

    #[test]
    fn flat_all3d_has_fewer_startups_than_standard() {
        for dim in [4u32, 8, 12] {
            let p = 1usize << dim;
            let n = 1usize << (dim / 2 + 2);
            let flat = flat_all3d_overhead(n, p, PortModel::OnePort).unwrap();
            assert_eq!(flat.a, 5.0 / 4.0 * f64::from(dim));
            assert!(flat.a < 4.0 / 3.0 * f64::from(dim));
        }
    }

    #[test]
    fn flat_all3d_applicability_extends_to_n_squared() {
        // p = n²: standard 3-D All refuses, the flat variant applies.
        let n = 4;
        let p = 16;
        assert!(
            crate::costs::overhead(crate::costs::ModelAlgo::All3d, PortModel::OnePort, n, p)
                .is_none()
        );
        assert!(flat_all3d_overhead(n, p, PortModel::OnePort).is_some());
        // ...but beyond n², nothing.
        assert!(flat_all3d_overhead(3, 16, PortModel::OnePort).is_none());
    }

    #[test]
    fn flat_all3d_pays_in_volume() {
        // The flat variant's b grows like n²√p·log/4 — worse than the
        // standard 3-D All's 3n²/p^{2/3} wherever both apply.
        let (n, p) = (4096usize, 4096usize);
        let flat = flat_all3d_overhead(n, p, PortModel::OnePort).unwrap();
        let std = crate::costs::overhead(crate::costs::ModelAlgo::All3d, PortModel::OnePort, n, p)
            .unwrap();
        assert!(flat.b > std.b);
        assert!(flat.a < std.a);
    }
}
