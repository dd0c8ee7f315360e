//! The packet store against a model, and the shape it keeps.
//!
//! `PacketStore` holds bundles, not packets: an entry is one `IdMask` of
//! one copy and the payload carrying its packets in ascending id order.
//! Here it is driven through random sequences of bundle puts, bundles
//! (kept or consumed), sums and single-packet puts, takes and gets over
//! the id sets every collective's schedule names — every kind × both
//! ports × δ ∈ 1..=8 — and after each step it must agree word for word
//! with a plain `BTreeMap<id, Vec<f64>>`: the same packets present, the
//! same words, the same typed error for a malformed access and no change
//! after one. Every payload the test handed in or got back is kept with
//! a snapshot of its words: an in-place sum must never write through
//! one.
//!
//! The structural guard replays one-port all-gathers and reduce-scatters
//! round by round through the executor's own two halves
//! (`CollectiveRun::outgoing` and `CollectiveRun::deliver`): a received
//! bundle lands as exactly one entry, and after its r-th round a node
//! holds at most r + 1 entries. Storing packets one by one again fails
//! here, not only in a benchmark.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use cubemm_collectives::{
    allgather_plan, reduce_scatter_plan, CollKind, CollSchema, CollectiveRun, IdMask, PacketError,
    PacketStore,
};
use cubemm_simnet::{Payload, PortModel};
use cubemm_topology::Subcube;

/// A small deterministic generator (64-bit LCG, high bits out).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    /// A word with every mantissa bit in play, so a sum in the wrong
    /// place or the wrong operand order shows in the bits.
    fn word(&mut self) -> f64 {
        (self.next() as f64 / (1u64 << 31) as f64 - 0.5) * 1e3
    }
}

/// The id sets of one configuration: every send and receive set of
/// every round and copy at a few nodes, plus the sets the plans start
/// from (a whole copy, a node's own all-to-all row) and single ids.
fn mask_pool(kind: CollKind, port: PortModel, delta: u32, rng: &mut Rng) -> Vec<(usize, IdMask)> {
    let schema = CollSchema::reference(kind);
    let (n, ncopies) = (1usize << delta, schema.ncopies(port, delta));
    let per_copy = kind.ids_per_copy(delta);
    let mut pool = BTreeSet::new();
    for _ in 0..3 {
        let v = rng.below(n);
        for c in 0..ncopies {
            for r in 0..schema.rounds(delta) {
                if let Some(x) = schema.xfer(delta, r, c, v) {
                    for ids in x.send.into_iter().chain(x.recv) {
                        pool.insert((c, ids.fixed, ids.free));
                    }
                }
            }
            let whole = match kind {
                CollKind::Alltoall => (v, (n - 1) * n),
                _ => (0, per_copy - 1),
            };
            pool.insert((c, whole.0, whole.1));
            pool.insert((c, rng.below(per_copy), 0));
        }
    }
    pool.into_iter()
        .map(|(c, fixed, free)| (c, IdMask { fixed, free }))
        .collect()
}

/// A payload the test handed to the store or got back from it, with
/// the words it had then.
struct Kept {
    payload: Payload,
    words: Vec<u64>,
}

fn bits(words: &[f64]) -> Vec<u64> {
    words.iter().map(|w| w.to_bits()).collect()
}

fn keep(kept: &mut Vec<Kept>, payload: &Payload) {
    kept.push(Kept {
        payload: payload.clone(),
        words: bits(payload),
    });
}

/// The store under test beside its model.
struct Pair {
    store: PacketStore,
    model: BTreeMap<usize, Vec<f64>>,
    copy_lens: Vec<usize>,
    per_copy: usize,
}

impl Pair {
    fn global(&self, copy: usize, id: usize) -> usize {
        copy * self.per_copy + id
    }

    fn ids(&self, copy: usize, ids: IdMask) -> Vec<usize> {
        ids.ids(copy * self.per_copy).collect()
    }

    fn first_absent(&self, copy: usize, ids: IdMask) -> Option<usize> {
        self.ids(copy, ids)
            .into_iter()
            .find(|id| !self.model.contains_key(id))
    }

    fn first_present(&self, copy: usize, ids: IdMask) -> Option<usize> {
        self.ids(copy, ids)
            .into_iter()
            .find(|id| self.model.contains_key(id))
    }

    fn fresh(&self, rng: &mut Rng, words: usize) -> Payload {
        (0..words).map(|_| rng.word()).collect()
    }

    /// A length that is wrong for `want` words.
    fn wrong(&self, rng: &mut Rng, want: usize) -> usize {
        if want == 0 || rng.chance(2) {
            want + 1 + rng.below(3)
        } else {
            want - 1
        }
    }

    /// Checks every id of `ids` in copy `copy` against the model.
    fn agree(&self, copy: usize, ids: IdMask, at: &str) {
        for id in self.ids(copy, ids) {
            let got = self.store.get(id).map(|p| bits(&p));
            let want = self.model.get(&id).map(|w| bits(w));
            assert_eq!(got, want, "{at}: packet {id}");
        }
    }

    fn put_bundle(
        &mut self,
        rng: &mut Rng,
        kept: &mut Vec<Kept>,
        copy: usize,
        ids: IdMask,
        at: &str,
    ) {
        let want = ids.len() * self.copy_lens[copy];
        let words = if rng.chance(8) {
            self.wrong(rng, want)
        } else {
            want
        };
        let bundle = self.fresh(rng, words);
        keep(kept, &bundle);
        let expect = if words != want {
            Err(PacketError::LengthMismatch {
                id: self.global(copy, ids.fixed),
                got: words,
                want,
            })
        } else if let Some(id) = self.first_present(copy, ids) {
            Err(PacketError::AlreadyFilled { id })
        } else {
            let len = self.copy_lens[copy];
            for (k, id) in self.ids(copy, ids).into_iter().enumerate() {
                self.model
                    .insert(id, bundle[k * len..(k + 1) * len].to_vec());
            }
            Ok(())
        };
        assert_eq!(self.store.try_put_bundle(copy, ids, bundle), expect, "{at}");
    }

    fn bundle(&mut self, kept: &mut Vec<Kept>, copy: usize, ids: IdMask, consume: bool, at: &str) {
        let got = self.store.try_bundle(copy, ids, consume);
        if let Some(id) = self.first_absent(copy, ids) {
            assert_eq!(got, Err(PacketError::Absent { id }), "{at}");
            return;
        }
        let got = got.unwrap_or_else(|e| panic!("{at}: {e}"));
        let want: Vec<f64> = self
            .ids(copy, ids)
            .iter()
            .flat_map(|id| self.model[id].iter().copied())
            .collect();
        assert_eq!(bits(&got), bits(&want), "{at}");
        keep(kept, &got);
        if consume {
            for id in self.ids(copy, ids) {
                self.model.remove(&id);
            }
        }
    }

    fn accumulate(
        &mut self,
        rng: &mut Rng,
        kept: &mut Vec<Kept>,
        copy: usize,
        ids: IdMask,
        at: &str,
    ) {
        let want = ids.len() * self.copy_lens[copy];
        let words = if rng.chance(8) {
            self.wrong(rng, want)
        } else {
            want
        };
        let bundle = self.fresh(rng, words);
        // Half the time the caller keeps a clone of what it hands over.
        if rng.chance(2) {
            keep(kept, &bundle);
        }
        let expect = if words != want {
            Err(PacketError::LengthMismatch {
                id: self.global(copy, ids.fixed),
                got: words,
                want,
            })
        } else if let Some(id) = self.first_absent(copy, ids) {
            Err(PacketError::Absent { id })
        } else {
            let len = self.copy_lens[copy];
            for (k, id) in self.ids(copy, ids).into_iter().enumerate() {
                let piece = &bundle[k * len..(k + 1) * len];
                let held = self.model.get_mut(&id);
                let held = held.unwrap_or_else(|| panic!("{at}: packet {id} is present"));
                // `held + incoming`, in the store's operand order.
                held.iter_mut().zip(piece).for_each(|(h, p)| *h += p);
            }
            Ok(())
        };
        assert_eq!(self.store.try_accumulate(copy, ids, bundle), expect, "{at}");
    }

    fn single(&mut self, rng: &mut Rng, kept: &mut Vec<Kept>, copy: usize, ids: IdMask, at: &str) {
        let list = self.ids(copy, ids);
        let id = list[rng.below(list.len())];
        let len = self.copy_lens[copy];
        match rng.below(3) {
            0 => {
                let packet = self.fresh(rng, len);
                keep(kept, &packet);
                let expect = match self.model.entry(id) {
                    Entry::Occupied(_) => Err(PacketError::AlreadyFilled { id }),
                    Entry::Vacant(slot) => {
                        slot.insert(packet.to_vec());
                        Ok(())
                    }
                };
                assert_eq!(self.store.try_put(id, packet), expect, "{at}: put {id}");
            }
            1 => {
                let got = self.store.try_take(id).map(|p| p.map(|p| bits(&p)));
                let want = self.model.remove(&id).map(|w| bits(&w));
                assert_eq!(got, Ok(want), "{at}: take {id}");
            }
            _ => {
                let got = self.store.get(id).map(|p| bits(&p));
                assert_eq!(got, self.model.get(&id).map(|w| bits(w)), "{at}: get {id}");
            }
        }
    }
}

/// Random steps over one configuration's id sets.
fn drive(kind: CollKind, port: PortModel, delta: u32, words: usize, rng: &mut Rng) {
    let ncopies = CollSchema::reference(kind).ncopies(port, delta);
    let copy_lens: Vec<usize> = (0..ncopies)
        .map(|c| (c + 1) * words / ncopies - c * words / ncopies)
        .collect();
    let per_copy = kind.ids_per_copy(delta);
    let mut pair = Pair {
        store: PacketStore::new(copy_lens.clone(), per_copy),
        model: BTreeMap::new(),
        copy_lens,
        per_copy,
    };
    let pool = mask_pool(kind, port, delta, rng);
    let mut kept = Vec::new();
    let slots = ncopies * per_copy;
    for step in 0..160 {
        let (copy, ids) = pool[rng.below(pool.len())];
        let at = format!(
            "{} {port} δ={delta} words={words} step {step}: copy {copy} {ids:?}",
            kind.name()
        );
        match rng.below(6) {
            // Filling comes first often enough that the other steps find
            // packets present.
            0 | 1 => pair.put_bundle(rng, &mut kept, copy, ids, &at),
            2 => pair.bundle(&mut kept, copy, ids, rng.chance(2), &at),
            3 => pair.accumulate(rng, &mut kept, copy, ids, &at),
            4 => pair.single(rng, &mut kept, copy, ids, &at),
            _ => {
                // Out of range: a copy past the last, or an id past the
                // id space; the error names the id-space size as slots.
                let oob = PacketError::OutOfRange {
                    id: ncopies * per_copy + ids.fixed,
                    slots,
                };
                let payload = pair.fresh(rng, 0);
                assert_eq!(
                    pair.store
                        .try_bundle(ncopies, IdMask::single(ids.fixed), false),
                    Err(oob.clone()),
                    "{at}"
                );
                assert_eq!(
                    pair.store
                        .try_put_bundle(ncopies, IdMask::single(ids.fixed), payload.clone()),
                    Err(oob.clone()),
                    "{at}"
                );
                assert_eq!(
                    pair.store
                        .try_accumulate(ncopies, IdMask::single(ids.fixed), payload),
                    Err(oob),
                    "{at}"
                );
                let past = slots + ids.fixed;
                let oob = PacketError::OutOfRange { id: past, slots };
                assert_eq!(pair.store.try_take(past), Err(oob.clone()), "{at}");
                assert_eq!(pair.store.try_expected_len(past), Err(oob), "{at}");
                assert!(pair.store.get(past).is_none(), "{at}");
            }
        }
        pair.agree(copy, ids, &at);
    }
    // Everything the pool names, and nothing a caller kept was written.
    let at = format!("{} {port} δ={delta} words={words}", kind.name());
    for &(copy, ids) in &pool {
        pair.agree(copy, ids, &at);
    }
    for (k, Kept { payload, words }) in kept.iter().enumerate() {
        assert_eq!(
            &bits(payload),
            words,
            "{at}: kept payload {k} was written through"
        );
    }
}

#[test]
fn the_store_agrees_with_a_map_of_packets_over_every_schedule() {
    let mut rng = Rng(0x5eed_0fb0_d1e5);
    for kind in CollKind::ALL {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for delta in 1..=8u32 {
                // Zero-word multi-port slices (fewer words than copies),
                // inline-sized packets, and heap windows.
                for words in [0, 2, 7, 16] {
                    drive(kind, port, delta, words, &mut rng);
                }
            }
        }
    }
}

#[test]
fn every_packet_error_is_typed_and_leaves_the_store_alone() {
    // Two copies of 8 ids, 3 and 0 words per packet.
    let mut store = PacketStore::new(vec![3, 0], 8);
    let low = IdMask { fixed: 0, free: 3 };
    let words = |n: usize| -> Payload { (0..n).map(|x| x as f64 + 0.25).collect() };
    assert_eq!(store.try_put_bundle(0, low, words(12)), Ok(()));
    assert_eq!(
        store.try_put_bundle(0, IdMask { fixed: 2, free: 4 }, words(6)),
        Err(PacketError::AlreadyFilled { id: 2 })
    );
    assert_eq!(
        store.try_put_bundle(0, IdMask { fixed: 4, free: 1 }, words(5)),
        Err(PacketError::LengthMismatch {
            id: 4,
            got: 5,
            want: 6
        })
    );
    assert_eq!(
        store.try_bundle(0, IdMask { fixed: 0, free: 5 }, true),
        Err(PacketError::Absent { id: 4 })
    );
    assert_eq!(
        store.try_accumulate(0, IdMask { fixed: 1, free: 4 }, words(6)),
        Err(PacketError::Absent { id: 5 })
    );
    assert_eq!(
        store.try_bundle(0, IdMask { fixed: 0, free: 8 }, false),
        Err(PacketError::OutOfRange { id: 8, slots: 16 })
    );
    assert_eq!(
        store.try_put_bundle(2, IdMask::single(1), words(0)),
        Err(PacketError::OutOfRange { id: 17, slots: 16 })
    );
    // None of that touched the one bundle present.
    assert_eq!(store.entries(), 1);
    assert_eq!(store.try_bundle(0, low, false), Ok(words(12)));
    // Zero-word packets are still packets, present or not.
    assert_eq!(store.try_put_bundle(1, low, words(0)), Ok(()));
    assert_eq!(store.try_take(9), Ok(Some(words(0))));
    assert_eq!(store.try_take(9), Ok(None));
    assert_eq!(
        store.try_accumulate(1, low, words(0)),
        Err(PacketError::Absent { id: 9 })
    );
}

/// The block rank `rank` contributes to an all-gather, or sends toward
/// rank `to` in a reduce-scatter.
fn block(rank: usize, to: usize, words: usize) -> Payload {
    (0..words)
        .map(|x| (rank * 10_000 + to * 100 + x) as f64 + 0.5)
        .collect()
}

/// Runs every node's one-port `runs` round by round through the
/// executor's halves, checking the entries each node holds (and, where
/// receives `fill`, that each bundle lands as one).
fn replay(sc: &Subcube, runs: &mut [&mut CollectiveRun], fills: bool, what: &str) {
    for r in 0..runs[0].rounds() {
        let mut wire: HashMap<(usize, usize, u64), Payload> = HashMap::new();
        let xfers: Vec<Vec<_>> = runs.iter().map(|run| run.xfers(r).collect()).collect();
        for (rank, run) in runs.iter_mut().enumerate() {
            for x in &xfers[rank] {
                if let Some(bundle) = run.outgoing(r, x) {
                    wire.insert((sc.member(rank), x.peer, x.tag), bundle);
                }
            }
        }
        for (rank, run) in runs.iter_mut().enumerate() {
            for x in xfers[rank].iter().filter(|x| x.recv.is_some()) {
                let bundle = wire
                    .remove(&(x.peer, sc.member(rank), x.tag))
                    .unwrap_or_else(|| panic!("{what}: round {r} rank {rank} has no message"));
                let before = run.store().entries();
                run.deliver(r, x, bundle);
                if fills {
                    assert_eq!(
                        run.store().entries(),
                        before + 1,
                        "{what}: round {r} rank {rank}: a bundle lands as one entry"
                    );
                }
            }
            assert!(
                run.store().entries() <= r + 2,
                "{what}: rank {rank} holds {} entries after round {}",
                run.store().entries(),
                r + 1
            );
        }
        assert!(wire.is_empty(), "{what}: round {r} left messages unread");
    }
}

#[test]
fn one_port_all_gather_and_reduce_scatter_hold_a_bundle_per_round() {
    const WORDS: usize = 5;
    const BASE: u64 = 1 << 12;
    for delta in 1..=6u32 {
        // A subcube in the high dimensions of a larger machine, so
        // labels differ from ranks.
        let sc = Subcube::new(1, (1..=delta).collect());
        let n = sc.size();
        let port = PortModel::OnePort;

        let what = format!("all-gather δ={delta}");
        let mut gathers: Vec<_> = (0..n)
            .map(|rank| allgather_plan(port, &sc, sc.member(rank), BASE, block(rank, 0, WORDS)))
            .collect();
        let mut runs: Vec<_> = gathers.iter_mut().map(|g| g.run_mut()).collect();
        replay(&sc, &mut runs, true, &what);
        for (rank, gather) in gathers.into_iter().enumerate() {
            let got = gather.finish();
            let want: Vec<Payload> = (0..n).map(|from| block(from, 0, WORDS)).collect();
            assert_eq!(got, want, "{what}: rank {rank}");
        }

        let what = format!("reduce-scatter δ={delta}");
        let mut scatters: Vec<_> = (0..n)
            .map(|rank| {
                let parts = (0..n).map(|to| block(rank, to, WORDS)).collect();
                reduce_scatter_plan(port, &sc, sc.member(rank), BASE, parts)
            })
            .collect();
        let mut runs: Vec<_> = scatters.iter_mut().map(|s| s.run_mut()).collect();
        replay(&sc, &mut runs, false, &what);
        for (rank, scatter) in scatters.into_iter().enumerate() {
            let got = scatter.finish();
            // Halves and small integers: every order of summing is exact.
            let want: Vec<f64> = (0..WORDS)
                .map(|x| (0..n).map(|from| block(from, rank, WORDS)[x]).sum())
                .collect();
            assert_eq!(&got[..], &want[..], "{what}: rank {rank}");
        }
    }
}
