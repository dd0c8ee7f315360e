//! All-to-all personalized communication (AAPC).
//!
//! Every member holds one distinct part per destination; after the
//! collective, every member holds one part per *origin*. Implemented as
//! the classic `log N`-round dimension-exchange algorithm: at round `i`
//! each node forwards, across dimension `o_i`, every packet whose
//! destination differs from the node in bit `o_i`. Packets are identified
//! purely positionally — at round `i` a packet `(dest, origin)` resides
//! at the node whose processed-dimension bits come from `dest` and
//! remaining bits from `origin` — so bundles need no headers and the
//! measured word counts are exactly the paper's.

use cubemm_simnet::{Payload, PortModel, Proc};
use cubemm_topology::Subcube;

use crate::chunk_span;
use crate::plan::{execute, CollectiveRun};
use crate::schema::{CollKind, IdMask};

/// A planned all-to-all personalized exchange.
#[derive(Debug)]
pub struct AlltoallRun {
    inner: CollectiveRun,
    n: usize,
    v: usize,
}

impl AlltoallRun {
    /// The underlying run, for [`crate::plan::execute_fused`].
    pub fn run_mut(&mut self) -> &mut CollectiveRun {
        &mut self.inner
    }

    /// Extracts the received messages, indexed by origin rank.
    pub fn finish(self) -> Vec<Payload> {
        let to_me = IdMask {
            fixed: self.v * self.n,
            ..IdMask::below(self.n)
        };
        self.inner
            .store
            .messages(to_me, format_args!("all-to-all finish"))
    }
}

/// Compiles the dimension-exchange AAPC for this node. Packet
/// `(c, dest, origin)` is slice `c` of the message from `origin` to
/// `dest`; copy `c` routes with dimension order `o_i = (c + i) mod d`,
/// and starts as one bundle of this node's `n` messages.
pub fn alltoall_plan(
    port: PortModel,
    sc: &Subcube,
    me: usize,
    base: u64,
    parts: Vec<Payload>,
) -> AlltoallRun {
    let n = sc.size();
    let v = sc.rank_of(me);
    assert_eq!(parts.len(), n, "alltoall needs one part per member");
    let part_len = parts[0].len();
    for p in &parts {
        assert_eq!(p.len(), part_len, "alltoall parts must have equal length");
    }

    let mut inner = CollectiveRun::new(CollKind::Alltoall, port, sc, me, 0, base, part_len);
    let ncopies = inner.ncopies();
    // Packet `(dest, v)` for every `dest`: ids `dest·n + v`.
    let from_me = IdMask {
        fixed: v,
        free: (n - 1) * n,
    };
    for c in 0..ncopies {
        let slices = parts.iter().map(|part| chunk_span(part, ncopies, c));
        let bundle = Payload::concat(n * inner.store.expected_len(c * n * n), slices);
        inner.store.put_bundle(c, from_me, bundle);
    }

    AlltoallRun { inner, n, v }
}

/// All-to-all personalized broadcast. `parts[r]` is this node's message
/// for the member with rank `r` (all equal length). Returns the received
/// messages indexed by origin rank.
///
/// Cost (measured, equals Table 1): one-port
/// `t_s·log N + t_w·N·M·log N / 2`; multi-port `t_s·log N + t_w·N·M/2`.
pub async fn alltoall_personalized(
    proc: &mut Proc,
    sc: &Subcube,
    base: u64,
    parts: Vec<Payload>,
) -> Vec<Payload> {
    let mut run = alltoall_plan(proc.port_model(), sc, proc.id(), base, parts);
    execute(proc, run.run_mut()).await;
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run;
    use cubemm_simnet::PortModel;
    use cubemm_topology::Subcube;

    fn msg(from: usize, to: usize, m: usize) -> Payload {
        (0..m)
            .map(|x| (from * 10_000 + to * 100 + x) as f64)
            .collect()
    }

    fn check(p: usize, port: PortModel, m: usize) -> f64 {
        let out = run(p, port, vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let parts: Vec<Payload> = (0..sc.size()).map(|r| msg(v, r, m)).collect();
            let got = alltoall_personalized(&mut proc, &sc, 0, parts).await;
            for (origin, payload) in got.iter().enumerate() {
                assert_eq!(
                    &payload[..],
                    &msg(origin, v, m)[..],
                    "node {} origin {origin}",
                    proc.id()
                );
            }
            proc.clock()
        });
        out.stats.elapsed
    }

    #[test]
    fn one_port_matches_table1() {
        // ts log N + tw N M log N / 2 = 30 + 2*8*12*3/2 = 318.
        assert_eq!(check(8, PortModel::OnePort, 12), 318.0);
    }

    #[test]
    fn multi_port_matches_table1() {
        // ts log N + tw N M / 2 = 30 + 2*8*12/2 = 126.
        assert_eq!(check(8, PortModel::MultiPort, 12), 126.0);
    }

    #[test]
    fn assorted_shapes() {
        let _ = check(2, PortModel::OnePort, 3);
        let _ = check(4, PortModel::MultiPort, 5);
        let _ = check(16, PortModel::OnePort, 1);
    }

    #[test]
    fn works_on_proper_subcube_lines() {
        // Four disjoint 4-node "columns" (high dims) of a 16-cube.
        let out = run(
            16,
            PortModel::OnePort,
            vec![(); 16],
            |mut proc, ()| async move {
                let sc = Subcube::new(proc.id(), vec![2, 3]);
                let v = sc.rank_of(proc.id());
                let parts: Vec<Payload> = (0..4).map(|r| msg(v, r, 4)).collect();
                let got = alltoall_personalized(&mut proc, &sc, 0, parts).await;
                for (origin, payload) in got.iter().enumerate() {
                    assert_eq!(&payload[..], &msg(origin, v, 4)[..]);
                }
            },
        );
        // ts*2 + tw*4*4*2/2 = 20 + 32 = 52.
        assert_eq!(out.stats.elapsed, 52.0);
    }
}
