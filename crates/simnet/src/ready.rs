//! The ready set: which of a shard's nodes the event loop may resume.
//!
//! One bit per node of the shard's range, by offset into it. A push sets
//! the node's bit; a pop clears and returns the lowest set bit, found
//! from a low-water word cursor below which every word is zero, so the
//! scan never revisits the words it has emptied and a pop is one
//! `trailing_zeros` in the common case. A node is in the set at most
//! once: it enters at boot or when a handoff unparks it, each after it
//! left the set and parked.
//!
//! **Why lowest label first.** Resume order never changes a result
//! (DESIGN.md §11, "One failure rule"), so the loop is free to pick the
//! order that keeps the host's live set small. The paper's algorithms
//! split the cube into subcubes on the label bits and run a phase per
//! subcube (a gather, a multiply, a reduce); resuming the least runnable
//! label lets a low subcube run through its reduce and free its blocks
//! before the next one gathers its own, where a clock-ordered queue
//! takes every node through each phase in lock step and holds every
//! node's peak at once (DESIGN.md §11, "Why label order bounds the live
//! set").
//!
//! Under [`crate::with_resume_order`] a pop takes a seeded pseudo-random
//! runnable node instead: the oracle that checks the order-free claim.

/// The runnable nodes of one shard (see module docs).
pub(crate) struct Ready {
    words: Vec<u64>,
    /// Every word below this one is zero.
    low: usize,
    /// The xorshift state of a seeded order, `None` for label order.
    seeded: Option<u64>,
}

impl Ready {
    /// A set holding every node of a `len`-node shard, popped in label
    /// order, or in a pseudo-random order drawn from `seed`.
    pub(crate) fn full(len: usize, seed: Option<u64>) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            if !len.is_multiple_of(64) {
                *last = (1 << (len % 64)) - 1;
            }
        }
        Ready {
            words,
            low: 0,
            // xorshift needs a non-zero state.
            seeded: seed.map(|seed| mix(seed).max(1)),
        }
    }

    /// Makes the node at offset `at` runnable.
    #[inline]
    pub(crate) fn push(&mut self, at: usize) {
        let word = at / 64;
        self.words[word] |= 1 << (at % 64);
        self.low = self.low.min(word);
    }

    /// Takes the next node to resume: the lowest runnable offset, or a
    /// seeded pseudo-random one. `None` when no node is runnable.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        while *self.words.get(self.low)? == 0 {
            self.low += 1;
        }
        let (word, bit) = match self.seeded.as_mut() {
            None => (self.low, self.words[self.low].trailing_zeros()),
            Some(state) => {
                let draw = next(state);
                self.pick(draw)
            }
        };
        self.words[word] &= !(1 << bit);
        Some(word * 64 + bit as usize)
    }

    /// A seeded pop's `(word, bit)`: the runnable node `draw` picks,
    /// uniformly among them (a scan of the set, which only the oracle
    /// tests pay).
    #[cold]
    fn pick(&self, draw: u64) -> (usize, u32) {
        let count: u32 = self.words[self.low..].iter().map(|w| w.count_ones()).sum();
        let mut skip = (draw % u64::from(count)) as u32;
        for (word, &bits) in self.words.iter().enumerate().skip(self.low) {
            if skip < bits.count_ones() {
                let mut bits = bits;
                for _ in 0..skip {
                    bits &= bits - 1;
                }
                return (word, bits.trailing_zeros());
            }
            skip -= bits.count_ones();
        }
        unreachable!("the cursor's word is non-empty")
    }
}

/// splitmix64's finaliser: spreads nearby seeds (and shard indices mixed
/// into them) far apart.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One xorshift64* step.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[cfg(test)]
mod tests {
    use super::Ready;

    fn drain(ready: &mut Ready) -> Vec<usize> {
        std::iter::from_fn(|| ready.pop()).collect()
    }

    #[test]
    fn label_order_pops_the_least_runnable_offset() {
        for len in [1, 5, 64, 65, 130] {
            let mut ready = Ready::full(len, None);
            assert_eq!(drain(&mut ready), (0..len).collect::<Vec<_>>());
        }
        // A push below the cursor moves it back.
        let mut ready = Ready::full(200, None);
        for want in 0..150 {
            assert_eq!(ready.pop(), Some(want));
        }
        for at in [140, 3, 199, 70] {
            ready.push(at);
        }
        assert_eq!(ready.pop(), Some(3));
        ready.push(1);
        let rest: Vec<usize> = [1, 70, 140].into_iter().chain(150..200).collect();
        assert_eq!(drain(&mut ready), rest);
        assert_eq!(ready.pop(), None);
    }

    #[test]
    fn a_seeded_order_pops_each_node_once_in_another_order() {
        for len in [1, 7, 64, 100, 4096] {
            let mut orders = Vec::new();
            for seed in 0..4 {
                let mut ready = Ready::full(len, Some(seed));
                let mut got = drain(&mut ready);
                orders.push(got.clone());
                got.sort_unstable();
                assert_eq!(got, (0..len).collect::<Vec<_>>(), "len {len} seed {seed}");
                ready.push(len - 1);
                ready.push(0);
                let mut last = drain(&mut ready);
                last.sort_unstable();
                assert_eq!(
                    last,
                    [0, len - 1]
                        .into_iter()
                        .take(len.min(2))
                        .collect::<Vec<_>>()
                );
            }
            if len >= 64 {
                let sorted: Vec<usize> = (0..len).collect();
                assert!(orders.iter().all(|order| *order != sorted), "len {len}");
                assert!(
                    orders.windows(2).any(|pair| pair[0] != pair[1]),
                    "len {len}"
                );
            }
        }
    }
}
