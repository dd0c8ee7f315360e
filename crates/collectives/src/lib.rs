//! Collective communication on sub-hypercubes of the simulated machine.
//!
//! The paper prices every algorithm in terms of the optimal hypercube
//! collectives of Johnsson & Ho \[7\] (its Table 1):
//!
//! | pattern | one-port `t_w` | multi-port `t_w` |
//! |---|---|---|
//! | one-to-all broadcast | `M log N` | `M` |
//! | one-to-all personalized (scatter) | `(N−1)M` | `(N−1)M / log N` |
//! | all-to-all broadcast (all-gather) | `(N−1)M` | `(N−1)M / log N` |
//! | all-to-all personalized | `N·M·log N / 2` | `N·M / 2` |
//!
//! (each with `t_s·log N` start-ups; reductions are the communication
//! inverses of the corresponding broadcasts).
//!
//! This crate implements those schedules *as real message-passing
//! programs* over [`cubemm_simnet::Proc`]:
//!
//! * **one-port**: spanning-binomial-tree (SBT) broadcast/scatter/reduce,
//!   recursive-doubling all-gather / recursive-halving reduce-scatter, and
//!   the classic `log N`-step dimension-exchange all-to-all personalized.
//! * **multi-port**: the message is split into `log N` slices and the
//!   one-port schedule is replicated over `log N` *rotated* dimension
//!   orders; at every round the copies use pairwise-distinct dimensions,
//!   so a node drives all its links at once, recovering the
//!   full-bandwidth bounds above. (Zero-length slice messages are still
//!   sent so the round structure is uniform; they cost only their `t_s`,
//!   which is absorbed into the round's concurrent batch.)
//!
//! The Table 1 entries are *measured* from these implementations by the
//! `table1` integration tests and the `cubemm-bench` harness rather than
//! assumed.
//!
//! # Calling conventions
//!
//! Every member of the subcube must call the collective with the same
//! `base` tag and consistent arguments. Callers must space base tags of
//! distinct collective invocations by at least [`TAG_SPACE`].
//!
//! ```
//! use cubemm_collectives::bcast;
//! use cubemm_simnet::{CostParams, Machine, Payload};
//! use cubemm_topology::Subcube;
//!
//! // Broadcast 6 words from rank 0 over a whole 8-node hypercube.
//! let cost = CostParams { ts: 1.0, tw: 1.0 };
//! let machine = Machine::builder(8).cost(cost).build().unwrap();
//! let out = machine
//!     .run(vec![(); 8], |mut proc, ()| async move {
//!         let sc = Subcube::whole(proc.dim());
//!         let data = (sc.rank_of(proc.id()) == 0)
//!             .then(|| (0..6).map(f64::from).collect::<Payload>());
//!         let got = bcast(&mut proc, &sc, 0, 0, data, 6).await;
//!         assert_eq!(got.len(), 6);
//!     })
//!     .unwrap();
//! // Table 1, one-port: log N · (t_s + t_w · M) = 3 · 7.
//! assert_eq!(out.stats.elapsed, 21.0);
//! ```

mod allgather;
mod allreduce;
mod alltoall;
mod bcast;
mod gather;
pub mod plan;
mod reduce;
mod scatter;
pub mod schema;

pub use allgather::{
    allgather, allgather_plan, reduce_scatter, reduce_scatter_plan, AllgatherRun, ReduceScatterRun,
};
pub use allreduce::allreduce_sum;
pub use alltoall::{alltoall_personalized, alltoall_plan, AlltoallRun};
pub use bcast::{bcast, bcast_plan, BcastRun};
pub use gather::{gather, gather_plan, GatherRun};
pub use plan::{execute, execute_fused, CollectiveRun, PacketError, PacketStore, RecvMode, Xfer};
pub use reduce::{reduce_plan, reduce_sum, ReduceRun};
pub use scatter::{scatter, scatter_plan, ScatterRun};
pub use schema::{CollKind, CollSchema, IdMask, RoundSpec, VolSchema, WireSpec, XferShape};

use cubemm_simnet::Payload;

/// Minimum spacing between the `base` tags of two collective calls whose
/// messages could be in flight concurrently.
pub const TAG_SPACE: u64 = 1 << 12;

/// Tag for round `r` of copy (rotated schedule) `c`.
#[inline]
pub(crate) fn round_tag(base: u64, r: u32, c: u32) -> u64 {
    debug_assert!(r < 64 && c < 64);
    base + u64::from(r) * 64 + u64::from(c)
}

/// Chunk `c` of `data` split into `parts` near-equal contiguous word
/// ranges, `[c·len/parts, (c+1)·len/parts)` — a window of `data`, not a
/// copy.
pub(crate) fn chunk(data: &Payload, parts: usize, c: usize) -> Payload {
    let (lo, hi) = chunk_bounds(data.len(), parts, c);
    data.slice(lo, hi)
}

/// Chunk `c` of `data` as a span of it, a part for [`Payload::concat`]:
/// the words [`chunk`] would window, read in place.
pub(crate) fn chunk_span(data: &Payload, parts: usize, c: usize) -> (&Payload, usize, usize) {
    let (lo, hi) = chunk_bounds(data.len(), parts, c);
    (data, lo, hi)
}

/// The bounds of chunk `c` of a `len`-word message split `parts` ways.
#[inline]
pub(crate) fn chunk_bounds(len: usize, parts: usize, c: usize) -> (usize, usize) {
    (c * len / parts, (c + 1) * len / parts)
}

/// Every `fixed | s` for `s` a subset of the bits of `free`, ascending
/// (`fixed` and `free` must be disjoint). This is how a schema's
/// [`IdMask`] is listed: in time proportional to the answer, not to the
/// subcube; the length is exact, so collecting allocates once.
pub(crate) fn submasks(fixed: usize, free: usize) -> Submasks {
    debug_assert_eq!(fixed & free, 0);
    Submasks {
        fixed,
        free,
        sub: 0,
        left: 1 << free.count_ones(),
    }
}

/// The iterator behind [`submasks`].
#[derive(Debug, Clone)]
pub(crate) struct Submasks {
    fixed: usize,
    free: usize,
    sub: usize,
    left: usize,
}

impl Iterator for Submasks {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let out = self.fixed | self.sub;
        // The standard successor of a sub-mask (wraps to 0 after `free`).
        self.sub = self.sub.wrapping_sub(self.free) & self.free;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Submasks {}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared machinery for the per-module collective tests: boots a
    //! healthy machine with the standard test cost model.
    use cubemm_simnet::{CostParams, Machine, PortModel, Proc, RunOutcome};

    pub(crate) const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

    pub(crate) fn run<I, O, F, Fut>(
        p: usize,
        port: PortModel,
        inits: Vec<I>,
        program: F,
    ) -> RunOutcome<O>
    where
        F: Fn(Proc, I) -> Fut,
        Fut: std::future::Future<Output = O>,
    {
        Machine::builder(p)
            .port(port)
            .cost(COST)
            .build()
            .expect("valid test machine")
            .run(inits, program)
            .expect("healthy run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly() {
        let data: Payload = (0..13).map(|x| x as f64).collect();
        for parts in 1..6 {
            let pieces: Vec<Payload> = (0..parts).map(|c| chunk(&data, parts, c)).collect();
            let total: usize = pieces.iter().map(|p| p.len()).sum();
            assert_eq!(total, 13);
            let back = Payload::concat(13, pieces.iter().map(|p| &p[..]));
            assert_eq!(&back[..], &data[..]);
        }
    }

    #[test]
    fn chunk_handles_fewer_words_than_parts() {
        let data = Payload::from([1.0, 2.0]);
        let pieces: Vec<Payload> = (0..5).map(|c| chunk(&data, 5, c)).collect();
        assert_eq!(pieces.iter().map(|p| p.len()).sum::<usize>(), 2);
        assert!(pieces.iter().any(|p| p.is_empty()));
    }

    #[test]
    fn split_equal_roundtrip() {
        // Bundling then windowing gives back the packets, word for word.
        let a: Payload = (0..12).map(f64::from).collect();
        let b: Payload = (12..24).map(f64::from).collect();
        let bundle = Payload::concat(24, [&a[..], &b[..]]);
        assert_eq!(bundle.slice(0, 12), a);
        assert_eq!(bundle.slice(12, 24), b);
    }

    #[test]
    fn submasks_ascend_and_cover() {
        let got: Vec<usize> = submasks(0b0100, 0b1010).collect();
        assert_eq!(got, vec![0b0100, 0b0110, 0b1100, 0b1110]);
        assert_eq!(submasks(5, 0).collect::<Vec<_>>(), vec![5]);
        for free in 0..64usize {
            let want: Vec<usize> = (0..64).filter(|r| r & !free == 0).collect();
            assert_eq!(submasks(0, free).collect::<Vec<_>>(), want);
        }
    }
}
