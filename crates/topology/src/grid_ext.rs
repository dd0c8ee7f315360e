//! Extended grid embeddings for the paper's combination and flat-grid
//! variants.
//!
//! * [`SupernodeGrid`] — the §3.5 DNS+Cannon view: the hypercube as a
//!   `∛s × ∛s × ∛s` grid of *supernodes*, each supernode a `√r × √r`
//!   processor mesh (`p = s·r`).
//! * [`FlatGrid3`] — the §4.2.2 view: a `g × g × g²` grid (`p = g⁴`,
//!   i.e. `g = p^{1/4}` and a `√p`-deep z axis), which extends the 3-D
//!   All algorithm's applicability to `p ≤ n²`.

use crate::subcube::Subcube;
use crate::TopologyError;

/// A `∛s × ∛s × ∛s` grid of `√r × √r` supernode meshes embedded in a
/// `p = s·r` node hypercube.
///
/// Label layout: intra-mesh coordinates `(x, y)` in the low `log r`
/// bits, supernode coordinates `(i, j, k)` in the high `log s` bits —
/// so every supernode is a subcube, every intra-mesh line is a subcube,
/// and every supernode-grid line at a fixed intra position is a subcube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupernodeGrid {
    mesh_bits: u32,  // per intra axis (√r = 2^mesh_bits)
    super_bits: u32, // per super axis (∛s = 2^super_bits)
}

impl SupernodeGrid {
    /// Builds the embedding for `p = s·r` with `r = 4^mesh_bits`
    /// processors per supernode mesh.
    pub fn new(p: usize, mesh_bits: u32) -> Result<Self, TopologyError> {
        let dim = crate::bits::log2_exact(p).ok_or(TopologyError::NotPowerOfTwo(p))?;
        let intra = 2 * mesh_bits;
        if dim < intra || !(dim - intra).is_multiple_of(3) {
            return Err(TopologyError::IndivisibleDimension { dim, divisor: 3 });
        }
        Ok(SupernodeGrid {
            mesh_bits,
            super_bits: (dim - intra) / 3,
        })
    }

    /// All legal `mesh_bits` values for a `p`-node machine (including 0,
    /// which degenerates to the plain DNS grid).
    pub fn splits(p: usize) -> Vec<u32> {
        let Some(dim) = crate::bits::log2_exact(p) else {
            return Vec::new();
        };
        (0..=dim / 2).filter(|mb| (dim - 2 * mb) % 3 == 0).collect()
    }

    /// Mesh side `√r`.
    #[inline]
    pub fn mesh_q(&self) -> usize {
        1usize << self.mesh_bits
    }

    /// Supernode-grid side `∛s`.
    #[inline]
    pub fn super_q(&self) -> usize {
        1usize << self.super_bits
    }

    /// Processors per supernode, `r`.
    #[inline]
    pub fn r(&self) -> usize {
        1usize << (2 * self.mesh_bits)
    }

    /// Supernode count, `s`.
    #[inline]
    pub fn s(&self) -> usize {
        1usize << (3 * self.super_bits)
    }

    /// Total processors `p = s·r`.
    #[inline]
    pub fn p(&self) -> usize {
        self.r() * self.s()
    }

    /// Node label of intra position `(x, y)` in supernode `(i, j, k)`.
    #[inline]
    pub fn node(&self, x: usize, y: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(x < self.mesh_q() && y < self.mesh_q());
        debug_assert!(i < self.super_q() && j < self.super_q() && k < self.super_q());
        let mb = self.mesh_bits;
        let sb = self.super_bits;
        x | (y << mb) | (i << (2 * mb)) | (j << (2 * mb + sb)) | (k << (2 * mb + 2 * sb))
    }

    /// Inverse of [`SupernodeGrid::node`]: `(x, y, i, j, k)`.
    #[inline]
    pub fn coords(&self, label: usize) -> (usize, usize, usize, usize, usize) {
        let mq = self.mesh_q() - 1;
        let sq = self.super_q() - 1;
        let mb = self.mesh_bits;
        let sb = self.super_bits;
        (
            label & mq,
            (label >> mb) & mq,
            (label >> (2 * mb)) & sq,
            (label >> (2 * mb + sb)) & sq,
            (label >> (2 * mb + 2 * sb)) & sq,
        )
    }

    /// Supernode-grid y line through this label (varying `j`), at fixed
    /// intra position — a `∛s`-node subcube.
    pub fn super_y_line(&self, label: usize) -> Subcube {
        let base = 2 * self.mesh_bits + self.super_bits;
        Subcube::new(label, (base..base + self.super_bits).collect())
    }

    /// Supernode-grid x line (varying `i`).
    pub fn super_x_line(&self, label: usize) -> Subcube {
        let base = 2 * self.mesh_bits;
        Subcube::new(label, (base..base + self.super_bits).collect())
    }

    /// Supernode-grid z line (varying `k`).
    pub fn super_z_line(&self, label: usize) -> Subcube {
        let base = 2 * self.mesh_bits + 2 * self.super_bits;
        Subcube::new(label, (base..base + self.super_bits).collect())
    }
}

/// A `g × g × g²` virtual grid embedded in a `p = g⁴` node hypercube
/// (the paper's `p^{1/4} × p^{1/4} × √p` flat mapping, §4.2.2).
///
/// Axis layout: `i` (x) in bits `[0, b)`, `j` (y) in `[b, 2b)`, `k` (z)
/// in `[2b, 4b)` with `b = log g`. The z coordinate's low `b` bits
/// (`k mod g`) form their own subcube, which the flat 3-D All algorithm
/// uses to route B row groups to the plane that consumes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatGrid3 {
    bits: u32, // b = log g
}

impl FlatGrid3 {
    /// Builds the embedding for `p = g⁴` (hypercube dimension divisible
    /// by 4).
    pub fn new(p: usize) -> Result<Self, TopologyError> {
        let dim = crate::bits::log2_exact(p).ok_or(TopologyError::NotPowerOfTwo(p))?;
        if dim % 4 != 0 {
            return Err(TopologyError::IndivisibleDimension { dim, divisor: 4 });
        }
        Ok(FlatGrid3 { bits: dim / 4 })
    }

    /// Short side `g = p^{1/4}`.
    #[inline]
    pub fn g(&self) -> usize {
        1usize << self.bits
    }

    /// Deep side `h = g² = √p`.
    #[inline]
    pub fn h(&self) -> usize {
        1usize << (2 * self.bits)
    }

    /// Total processors `p = g⁴`.
    #[inline]
    pub fn p(&self) -> usize {
        1usize << (4 * self.bits)
    }

    /// Node label of `p_{i,j,k}` (`i, j < g`, `k < g²`).
    #[inline]
    pub fn node(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.g() && j < self.g() && k < self.h());
        i | (j << self.bits) | (k << (2 * self.bits))
    }

    /// Inverse of [`FlatGrid3::node`].
    #[inline]
    pub fn coords(&self, label: usize) -> (usize, usize, usize) {
        let g = self.g() - 1;
        let h = self.h() - 1;
        (
            label & g,
            (label >> self.bits) & g,
            (label >> (2 * self.bits)) & h,
        )
    }

    /// x line `p_{*,j,k}` (g nodes).
    pub fn x_line(&self, label: usize) -> Subcube {
        Subcube::new(label, (0..self.bits).collect())
    }

    /// y line `p_{i,*,k}` (g nodes).
    pub fn y_line(&self, label: usize) -> Subcube {
        Subcube::new(label, (self.bits..2 * self.bits).collect())
    }

    /// The z sub-line varying only `k mod g` (g nodes): the "low" z
    /// subcube used for the final broadcast of the flat 3-D All scheme.
    pub fn z_low_line(&self, label: usize) -> Subcube {
        Subcube::new(label, (2 * self.bits..3 * self.bits).collect())
    }

    /// The z sub-line varying only `k div g` (g nodes): the "high" z
    /// subcube over which matching B row-group holders all-gather.
    pub fn z_high_line(&self, label: usize) -> Subcube {
        Subcube::new(label, (3 * self.bits..4 * self.bits).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supernode_grid_shapes() {
        // p = 32 = r(4) · s(8): mesh_bits 1, super_bits 1.
        let g = SupernodeGrid::new(32, 1).unwrap();
        assert_eq!(g.r(), 4);
        assert_eq!(g.s(), 8);
        assert_eq!(g.p(), 32);
        // dim 5 with mesh_bits 0 → 5 % 3 != 0 rejected.
        assert!(SupernodeGrid::new(32, 0).is_err());
        assert_eq!(SupernodeGrid::splits(32), vec![1]);
        assert_eq!(SupernodeGrid::splits(64), vec![0, 3]);
        assert_eq!(SupernodeGrid::splits(512), vec![0, 3]);
    }

    #[test]
    fn supernode_label_roundtrip() {
        let g = SupernodeGrid::new(256, 1).unwrap(); // r=4, s=64
        let mut seen = vec![false; 256];
        for x in 0..g.mesh_q() {
            for y in 0..g.mesh_q() {
                for i in 0..g.super_q() {
                    for j in 0..g.super_q() {
                        for k in 0..g.super_q() {
                            let l = g.node(x, y, i, j, k);
                            assert_eq!(g.coords(l), (x, y, i, j, k));
                            assert!(!seen[l]);
                            seen[l] = true;
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn supernode_lines_are_subcubes_with_coordinate_rank() {
        let g = SupernodeGrid::new(256, 1).unwrap();
        let l = g.node(1, 0, 2, 1, 3);
        assert_eq!(g.super_y_line(l).rank_of(l), 1);
        assert_eq!(g.super_x_line(l).rank_of(l), 2);
        assert_eq!(g.super_z_line(l).rank_of(l), 3);
        assert_eq!(g.super_y_line(l).size(), 4);
    }

    #[test]
    fn flat_grid_shapes() {
        assert!(FlatGrid3::new(8).is_err());
        let g = FlatGrid3::new(16).unwrap();
        assert_eq!((g.g(), g.h()), (2, 4));
        let g = FlatGrid3::new(256).unwrap();
        assert_eq!((g.g(), g.h()), (4, 16));
    }

    #[test]
    fn flat_grid_label_roundtrip_and_lines() {
        let g = FlatGrid3::new(256).unwrap();
        for i in 0..g.g() {
            for j in 0..g.g() {
                for k in 0..g.h() {
                    let l = g.node(i, j, k);
                    assert_eq!(g.coords(l), (i, j, k));
                    assert_eq!(g.x_line(l).rank_of(l), i);
                    assert_eq!(g.y_line(l).rank_of(l), j);
                    assert_eq!(g.z_low_line(l).rank_of(l), k % g.g());
                    assert_eq!(g.z_high_line(l).rank_of(l), k / g.g());
                }
            }
        }
    }

    #[test]
    fn flat_grid_z_sublines_partition_the_z_axis() {
        let g = FlatGrid3::new(16).unwrap();
        let l = g.node(1, 0, 3);
        let low: Vec<usize> = g.z_low_line(l).members().collect();
        let high: Vec<usize> = g.z_high_line(l).members().collect();
        // low varies k in {2,3} (k_hi=1 fixed), high varies k in {1,3}.
        assert_eq!(low.len(), 2);
        assert_eq!(high.len(), 2);
        assert!(low.contains(&l) && high.contains(&l));
    }
}
