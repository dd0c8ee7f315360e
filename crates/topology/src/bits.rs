//! Small bit-manipulation helpers used throughout the workspace.

/// Returns `true` iff `x` is a positive power of two.
#[inline]
pub fn is_pow2(x: usize) -> bool {
    x != 0 && x & (x - 1) == 0
}

/// Returns `log2(x)` when `x` is an exact power of two, `None` otherwise.
#[inline]
pub fn log2_exact(x: usize) -> Option<u32> {
    if is_pow2(x) {
        Some(x.trailing_zeros())
    } else {
        None
    }
}

/// Deposits the low bits of `value` into the bit positions listed in
/// `dims` (lowest-order source bit goes to `dims[0]`, and so on).
///
/// This is the software equivalent of the PDEP instruction restricted to a
/// list of bit positions; it converts a *rank within a subcube* into the
/// subcube-relative part of a hypercube node label.
#[inline]
pub fn deposit_bits(value: usize, dims: &[u32]) -> usize {
    let mut out = 0usize;
    for (i, &d) in dims.iter().enumerate() {
        if (value >> i) & 1 == 1 {
            out |= 1usize << d;
        }
    }
    out
}

/// Extracts the bits of `label` at the positions listed in `dims` and packs
/// them into the low bits of the result (inverse of [`deposit_bits`]).
#[inline]
pub fn extract_bits(label: usize, dims: &[u32]) -> usize {
    let mut out = 0usize;
    for (i, &d) in dims.iter().enumerate() {
        if (label >> d) & 1 == 1 {
            out |= 1usize << i;
        }
    }
    out
}

/// Hamming distance between two node labels: the number of hypercube hops
/// on a shortest path between them.
#[inline]
pub fn hamming(a: usize, b: usize) -> u32 {
    (a ^ b).count_ones()
}

/// The dimension-ordered walk from `from` to `to`, as the labels after
/// `from` (the last is `to`). The differing bits are corrected in
/// ascending order, starting at the `rot`-th one and wrapping around:
/// rotation 0 is the healthy route, and rotations `0..hamming(from, to)`
/// are the classic edge-disjoint Hamming paths.
pub fn dim_walk(from: usize, to: usize, rot: u32) -> impl Iterator<Item = usize> {
    let diff = from ^ to;
    // `diff` less its `rot` lowest set bits: those are corrected last.
    let first = (0..rot).fold(diff, |rest, _| rest & rest.wrapping_sub(1));
    let mut cur = from;
    [first, diff ^ first]
        .into_iter()
        .flat_map(|mask| {
            (0..usize::BITS - mask.leading_zeros()).filter(move |d| mask >> d & 1 == 1)
        })
        .map(move |d| {
            cur ^= 1 << d;
            cur
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_detection() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(1024));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(1023));
    }

    #[test]
    fn log2_exact_values() {
        assert_eq!(log2_exact(1), Some(0));
        assert_eq!(log2_exact(8), Some(3));
        assert_eq!(log2_exact(12), None);
        assert_eq!(log2_exact(0), None);
    }

    #[test]
    fn deposit_extract_roundtrip() {
        let dims = [1, 4, 5, 9];
        for v in 0..16usize {
            let lab = deposit_bits(v, &dims);
            assert_eq!(extract_bits(lab, &dims), v);
            // Only the listed positions may be set.
            let mask: usize = dims.iter().map(|&d| 1usize << d).sum();
            assert_eq!(lab & !mask, 0);
        }
    }

    #[test]
    fn hamming_examples() {
        assert_eq!(hamming(0, 0), 0);
        assert_eq!(hamming(0b1010, 0b0110), 2);
        assert_eq!(hamming(0, usize::MAX), usize::BITS);
    }

    #[test]
    fn dim_walk_rotates_the_corrected_dimensions() {
        let walk = |rot| dim_walk(0b0000, 0b1011, rot).collect::<Vec<_>>();
        assert_eq!(walk(0), [0b0001, 0b0011, 0b1011]);
        assert_eq!(walk(1), [0b0010, 0b1010, 0b1011]);
        assert_eq!(walk(2), [0b1000, 0b1001, 0b1011]);
        assert_eq!(dim_walk(5, 5, 0).count(), 0);
    }
}
