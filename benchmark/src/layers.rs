//! Per-layer measurements: each crate's public functions, timed
//! in-process at the traced workload's sizes.
//!
//! The layers are the crates. Each function here fills in the metrics
//! of one layer; `benchmark/README.md` says which end-to-end metric on
//! which workload each is expected to move. Counts are computed or read
//! from the simulator's own statistics and repeat exactly; times are
//! medians over as many calls as fit the per-measurement budget.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cubemm_collectives as coll;
use cubemm_core::prelude::*;
use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::{abft, gemm, pack, partition, tune};
use cubemm_harness::chaos::{self, ChaosOptions};
use cubemm_harness::recovery::{multiply_with_recovery, RecoveryPolicy};
use cubemm_serve::{JobStatus, Responder, ServeConfig, ServePool};
use cubemm_simnet::{
    CorruptKind, Corruption, CostParams, FaultPlan, Machine, MachineOptions, Op, Payload,
    PortModel, RunStats,
};
use cubemm_topology::Subcube;

use crate::host;
use crate::stats;
use crate::workloads::{ServeDraw, Shape};

/// Named measurements with their units, in the order taken.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Median seconds per call of `f`, sampling for about `budget`: one
/// warm-up call, then calls batched so a sample lasts at least 100 µs,
/// until the budget is spent or two hundred samples are in. At least
/// three samples are taken — two when a single call already outlasts
/// the budget, so the slowest measurements cost three calls, not five.
pub fn time_it(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let one = probe.elapsed().as_secs_f64().max(1e-9);
    let batch = (1e-4 / one).ceil().max(1.0) as usize;
    let floor = if one > budget.as_secs_f64() { 2 } else { 3 };
    let mut samples = vec![one];
    let start = Instant::now();
    while samples.len() < floor || (start.elapsed() < budget && samples.len() < 200) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    stats::median(&mut samples).unwrap_or(one)
}

/// Traffic totals of simulated runs, summed from [`RunStats`].
#[derive(Default, Clone, Copy)]
pub struct Traffic {
    pub messages: u64,
    pub word_hops: u64,
    pub virtual_elapsed: f64,
    pub peak_words: u64,
    pub retries: u64,
    pub dropped: u64,
    pub corrupted: u64,
}

impl Traffic {
    pub fn add(&mut self, s: &RunStats) {
        self.messages += s.total_messages() as u64;
        self.word_hops += s.total_word_hops() as u64;
        self.virtual_elapsed += s.elapsed;
        self.peak_words += s.total_peak_words() as u64;
        self.retries += s.total_retries() as u64;
        self.dropped += s.total_dropped() as u64;
        self.corrupted += s.total_corrupted() as u64;
    }
}

/// Order of the square matmul behind the kernel-rate, packing and
/// thread-scaling numbers (the size the committed kernel benches use).
const KERNEL_N: usize = 768;

/// Returns the size in bytes of the array the bandwidth measurement
/// streamed, to be stated next to the cache size it has to exceed.
pub fn dense(m: &mut Metrics, shape: Shape, budget: Duration) -> usize {
    let (n, q, bs) = (shape.n, shape.q(), shape.block());
    let ms = 1e3;
    m.put(
        "dense.random_ms",
        time_it(budget, || {
            std::hint::black_box(Matrix::random(n, n, 7));
        }) * ms,
        "ms",
    );
    let (a, b) = (Matrix::random(n, n, 7), Matrix::random(n, n, 8));
    let flops = 2.0 * (n as f64).powi(3);
    let t_ref = time_it(budget, || {
        std::hint::black_box(gemm::reference(&a, &b));
    });
    m.put("dense.reference_ms", t_ref * ms, "ms");
    m.put("dense.reference_gflops", flops / t_ref / 1e9, "gflop/s");
    let (c, r) = (gemm::matmul(&a, &b), gemm::reference(&a, &b));
    m.put(
        "dense.max_abs_diff_ms",
        time_it(budget, || {
            std::hint::black_box(c.max_abs_diff(&r));
        }) * ms,
        "ms",
    );

    // What every 2-D algorithm does around its run: cut A and B into
    // p blocks each, put the p result blocks back together.
    let c_blocks: Vec<Matrix> = (0..q * q)
        .map(|k| partition::square(&c, q, k / q, k % q))
        .collect();
    m.put(
        "dense.partition_ms",
        time_it(budget, || {
            for k in 0..q * q {
                std::hint::black_box(partition::square(&a, q, k / q, k % q));
                std::hint::black_box(partition::square(&b, q, k / q, k % q));
            }
            std::hint::black_box(partition::assemble_square(n, q, |i, j| {
                c_blocks[i * q + j].clone()
            }));
        }) * ms,
        "ms",
    );

    // The local products of one multiply on the √p × √p grid: every
    // node accumulates √p block products (p·√p calls, n³ multiply-adds
    // in all), at the block size the workload's nodes really see.
    let (ab, bb) = (Matrix::random(bs, bs, 9), Matrix::random(bs, bs, 10));
    let mut cb = Matrix::zeros(bs, bs);
    let calls = q * q * q;
    let t_blocks = time_it(budget, || {
        for _ in 0..calls {
            gemm::gemm_acc(&mut cb, &ab, &bb, Kernel::default());
        }
        std::hint::black_box(&cb);
    });
    m.put("dense.gemm_block_ms", t_blocks * ms, "ms");
    m.put(
        "dense.gemm_block_gflops",
        2.0 * (bs as f64).powi(3) * calls as f64 / t_blocks / 1e9,
        "gflop/s",
    );

    let (ka, kb) = (
        Matrix::random(KERNEL_N, KERNEL_N, 11),
        Matrix::random(KERNEL_N, KERNEL_N, 12),
    );
    let kflops = 2.0 * (KERNEL_N as f64).powi(3);
    let t_1t = time_it(budget, || {
        std::hint::black_box(gemm::matmul(&ka, &kb));
    });
    let t_mt = time_it(budget, || {
        let mut c = Matrix::zeros(KERNEL_N, KERNEL_N);
        gemm::gemm_acc(&mut c, &ka, &kb, Kernel::packed_mt(0));
        std::hint::black_box(c);
    });
    m.put("dense.matmul_gflops", kflops / t_1t / 1e9, "gflop/s");
    m.put("dense.matmul_mt_gflops", kflops / t_mt / 1e9, "gflop/s");
    m.put("dense.mt_speedup", t_1t / t_mt, "ratio");

    // Panel packing of one KERNEL_N matmul under the resolved blocking.
    let mk = MicrokernelImpl::active();
    let blk = tune::resolve(0, 0, 0, mk);
    let mut ap = vec![0.0; pack::packed_a_len(blk.mc, blk.kc, mk.mr())];
    let mut bp = vec![0.0; pack::packed_b_len(blk.kc, blk.nc, mk.nr())];
    let t_pa = time_it(budget, || {
        for pc in (0..KERNEL_N).step_by(blk.kc) {
            let kcw = blk.kc.min(KERNEL_N - pc);
            for ic in (0..KERNEL_N).step_by(blk.mc) {
                let mcw = blk.mc.min(KERNEL_N - ic);
                let len = pack::packed_a_len(mcw, kcw, mk.mr());
                pack::pack_a(&ka, ic, pc, mcw, kcw, mk.mr(), &mut ap[..len]);
            }
        }
        std::hint::black_box(&ap);
    });
    let t_pb = time_it(budget, || {
        for pc in (0..KERNEL_N).step_by(blk.kc) {
            let kcw = blk.kc.min(KERNEL_N - pc);
            for jc in (0..KERNEL_N).step_by(blk.nc) {
                let ncw = blk.nc.min(KERNEL_N - jc);
                let len = pack::packed_b_len(kcw, ncw, mk.nr());
                pack::pack_b(&kb, pc, jc, kcw, ncw, mk.nr(), &mut bp[..len]);
            }
        }
        std::hint::black_box(&bp);
    });
    m.put("dense.pack_a_ms", t_pa * ms, "ms");
    m.put("dense.pack_b_ms", t_pb * ms, "ms");
    // Computed bytes: each packed element is read once and written once.
    let matrix_bytes = (KERNEL_N * KERNEL_N * 8) as f64;
    m.put(
        "dense.pack_gbps",
        2.0 * 2.0 * matrix_bytes / (t_pa + t_pb) / 1e9,
        "GB/s",
    );

    // Checksum protection at the size of the workload's protected jobs.
    let (an, ap_) = (shape.abft_n, shape.abft_p);
    let total = cubemm_core::abft::padded_order(Algorithm::Cannon, an, ap_).unwrap_or(an + 1);
    let (sa, sb) = (Matrix::random(an, an, 13), Matrix::random(an, an, 14));
    m.put(
        "dense.abft_augment_us",
        time_it(budget, || {
            std::hint::black_box(abft::augment(&sa, &sb, total));
        }) * 1e6,
        "us",
    );
    let (aa, bb2) = abft::augment(&sa, &sb, total);
    let cf = gemm::matmul(&aa, &bb2);
    m.put(
        "dense.abft_verify_us",
        time_it(budget, || {
            let mut x = cf.clone();
            let tol = abft::default_tolerance(&x);
            std::hint::black_box(abft::verify_and_correct(&mut x, an, tol));
        }) * 1e6,
        "us",
    );

    // Exact, computed: flops of one multiply at the workload's n, and
    // bytes the packed kernel packs for one such product (B once, A once
    // per column macro-panel).
    m.put("dense.flops", flops, "count");
    m.put(
        "dense.bytes_packed",
        (n * n * 8 * (1 + n.div_ceil(blk.nc))) as f64,
        "bytes",
    );

    // Ceilings, measured in this same run.
    let peak = fma_peak_gflops(budget);
    let (stream, stream_bytes) = stream_gbps();
    m.put("dense.fma_peak_gflops", peak, "gflop/s");
    m.put("dense.stream_gbps", stream, "GB/s");
    // Roofline bound of the KERNEL_N matmul: the lower of peak compute
    // and bandwidth × (computed) flops per byte over A, B and C.
    let flops_per_byte = kflops / (3.0 * matrix_bytes);
    m.put(
        "dense.roofline_frac",
        (kflops / t_1t / 1e9) / peak.min(stream * flops_per_byte),
        "ratio",
    );
    stream_bytes
}

/// Peak FMA rate of one core from a register-resident loop: twelve
/// independent accumulator chains (enough to cover FMA latency on two
/// ports), no memory traffic.
pub fn fma_peak_gflops(budget: Duration) -> f64 {
    const ITERS: u64 = 200_000;
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the function requires AVX2 and FMA, both detected
            // on this CPU on the line above.
            let t = time_it(budget, || {
                std::hint::black_box(unsafe { fma_chains_avx2(std::hint::black_box(ITERS)) });
            });
            // 12 chains × 4 lanes × 2 flops per fused multiply-add.
            return (ITERS * 12 * 4 * 2) as f64 / t / 1e9;
        }
    }
    let t = time_it(budget, || {
        std::hint::black_box(fma_chains_scalar(std::hint::black_box(ITERS)));
    });
    (ITERS * 12 * 2) as f64 / t / 1e9
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::{_mm256_add_pd, _mm256_fmadd_pd, _mm256_set1_pd, _mm256_storeu_pd};
    // acc ← acc·x + y with x < 1 converges, so no chain overflows or
    // goes denormal however long it runs. The operands pass through
    // `black_box` and every chain starts elsewhere, or the compiler
    // would merge the twelve chains into one.
    let x = _mm256_set1_pd(std::hint::black_box(0.999_999));
    let y = _mm256_set1_pd(std::hint::black_box(0.000_001));
    let mut acc = [_mm256_set1_pd(1.0); 12];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = _mm256_set1_pd(std::hint::black_box(1.0 + i as f64 / 16.0));
    }
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_pd(*a, x, y);
        }
    }
    let mut sum = acc[0];
    for a in &acc[1..] {
        sum = _mm256_add_pd(sum, *a);
    }
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is four f64s, exactly the 32 bytes the unaligned
    // store writes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

fn fma_chains_scalar(iters: u64) -> f64 {
    let (x, y) = std::hint::black_box((0.999_999f64, 0.000_001f64));
    let mut acc: [f64; 12] = std::array::from_fn(|i| 1.0 + i as f64 / 16.0);
    for _ in 0..iters {
        for a in &mut acc {
            *a = *a * x + y;
        }
    }
    acc.iter().sum()
}

/// Sustainable memory bandwidth from scaling one array in place (8
/// bytes read and 8 written per element). The array is four times the
/// last-level cache, or a quarter of available memory if that is less;
/// both sizes go into the result file. Returns `(GB/s, array bytes)`.
pub fn stream_gbps() -> (f64, usize) {
    let available = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<usize>().ok())
        })
        .map_or(usize::MAX, |kib| kib.saturating_mul(1024));
    let bytes = (4 * host::llc_bytes()).min(available / 4).max(64 << 20);
    let mut data = vec![1.0f64; bytes / 8];
    let pass = |data: &mut [f64]| {
        let t = Instant::now();
        for v in data.iter_mut() {
            *v *= 1.000_000_1;
        }
        std::hint::black_box(&data);
        t.elapsed().as_secs_f64()
    };
    pass(&mut data);
    let mut samples = [pass(&mut data), pass(&mut data), pass(&mut data)];
    let t = stats::median(&mut samples).unwrap_or(1.0);
    ((data.len() * 16) as f64 / t / 1e9, data.len() * 8)
}

fn paper_machine(p: usize, port: PortModel) -> Machine {
    Machine::new(p, MachineOptions::paper(port, CostParams::PAPER))
        .expect("benchmark machine sizes are powers of two")
}

pub fn simnet(m: &mut Metrics, shape: Shape, budget: Duration) {
    let p = shape.p;
    let words = shape.block() * shape.block();
    m.put(
        "simnet.machine_build_us",
        time_it(budget, || {
            std::hint::black_box(paper_machine(p, PortModel::OnePort));
        }) * 1e6,
        "us",
    );

    const VOLLEYS: u64 = 512;
    let two = paper_machine(2, PortModel::OnePort);
    let t_pp = time_it(budget, || {
        let out = two.run(vec![(); 2], |mut proc, ()| async move {
            let msg = vec![proc.id() as f64; 4];
            for r in 0..VOLLEYS {
                if proc.id() == 0 {
                    proc.send(1, r, msg.clone());
                    let _ = proc.recv(1, r).await;
                } else {
                    let got = proc.recv(0, r).await;
                    proc.send(0, r, got);
                }
            }
        });
        std::hint::black_box(out.expect("healthy ping-pong").stats.elapsed);
    });
    m.put(
        "simnet.pingpong_ns_per_msg",
        t_pp / (2 * VOLLEYS) as f64 * 1e9,
        "ns",
    );

    // One exchange per dimension on every node, payload the size of the
    // workload's block: the traffic pattern underneath every collective.
    let machine = paper_machine(p, PortModel::OnePort);
    let dim = p.trailing_zeros();
    let t_ex = time_it(budget, || {
        let out = machine.run(vec![(); p], move |mut proc, ()| async move {
            let data: Payload = vec![proc.id() as f64; words].into();
            for d in 0..dim {
                let peer = proc.id() ^ (1 << d);
                let got = proc
                    .multi(vec![
                        Op::Send {
                            to: peer,
                            tag: u64::from(d),
                            data: data.clone(),
                        },
                        Op::Recv {
                            from: peer,
                            tag: u64::from(d),
                        },
                    ])
                    .await;
                std::hint::black_box(got);
            }
        });
        std::hint::black_box(out.expect("healthy exchange").stats.elapsed);
    });
    let msgs = (p as u64 * u64::from(dim)) as f64;
    m.put("simnet.exchange_ns_per_msg", t_ex / msgs * 1e9, "ns");
    m.put("simnet.exchange_msgs_per_s", msgs / t_ex, "1/s");

    let plan = FaultPlan::new()
        .with_dead_link(0, 1)
        .with_degraded_link(0, 2, 2.0, 2.0)
        .with_straggler(1, 2.0)
        .with_drop(1, 3, 1)
        .with_corruption(
            2,
            3,
            0,
            Corruption {
                word: 1,
                kind: CorruptKind::BitFlip { bit: 63 },
            },
        )
        .with_crash(3, 1);
    m.put(
        "simnet.faultplan_roundtrip_us",
        time_it(budget, || {
            let back = FaultPlan::from_json(&plan.to_json()).expect("plan round-trips");
            std::hint::black_box(back.validate(4).is_ok());
        }) * 1e6,
        "us",
    );
}

pub fn put_traffic(m: &mut Metrics, t: &Traffic) {
    m.put("simnet.messages", t.messages as f64, "count");
    m.put("simnet.word_hops", t.word_hops as f64, "count");
    m.put("simnet.virtual_elapsed", t.virtual_elapsed, "vtime");
    m.put("simnet.peak_words", t.peak_words as f64, "count");
    m.put("simnet.retries", t.retries as f64, "count");
    m.put("simnet.dropped", t.dropped as f64, "count");
    m.put("simnet.corrupted", t.corrupted as f64, "count");
}

/// Each collective once on every row of the workload's `√p × √p` grid
/// (all rows at the same time, as the algorithms use them), one block
/// per message.
pub fn collectives(m: &mut Metrics, shape: Shape, budget: Duration) {
    let p = shape.p;
    let half = p.trailing_zeros() / 2;
    let words = shape.block() * shape.block();
    let machine = paper_machine(p, PortModel::OnePort);
    let row = move |id: usize| Subcube::new(id, (0..half).collect());
    let block = move |tagged: usize| -> Payload { vec![tagged as f64; words].into() };
    let mut total_messages = 0u64;
    let mut measure = |name: &str, run: &dyn Fn() -> RunStats| {
        let messages = std::cell::Cell::new(1);
        let t = time_it(budget, || {
            messages.set(run().total_messages().max(1) as u64)
        });
        total_messages += messages.get();
        m.put(&format!("collectives.{name}_us"), t * 1e6, "us");
        m.put(
            &format!("collectives.{name}_ns_per_msg"),
            t / messages.get() as f64 * 1e9,
            "ns",
        );
    };
    let healthy = "healthy collective";
    measure("bcast", &|| {
        machine
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = row(proc.id());
                let data = (sc.rank_of(proc.id()) == 0).then(|| block(1));
                std::hint::black_box(coll::bcast(&mut proc, &sc, 0, 0, data, words).await);
            })
            .expect(healthy)
            .stats
    });
    measure("scatter", &|| {
        machine
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = row(proc.id());
                let parts =
                    (sc.rank_of(proc.id()) == 0).then(|| (0..sc.size()).map(block).collect());
                std::hint::black_box(coll::scatter(&mut proc, &sc, 0, 0, parts, words).await);
            })
            .expect(healthy)
            .stats
    });
    measure("gather", &|| {
        machine
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = row(proc.id());
                let mine = block(proc.id());
                std::hint::black_box(coll::gather(&mut proc, &sc, 0, 0, mine).await);
            })
            .expect(healthy)
            .stats
    });
    measure("allgather", &|| {
        machine
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = row(proc.id());
                let mine = block(proc.id());
                std::hint::black_box(coll::allgather(&mut proc, &sc, 0, mine).await);
            })
            .expect(healthy)
            .stats
    });
    measure("reduce", &|| {
        machine
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = row(proc.id());
                let mine = block(proc.id());
                std::hint::black_box(coll::reduce_sum(&mut proc, &sc, 0, 0, mine).await);
            })
            .expect(healthy)
            .stats
    });
    measure("allreduce", &|| {
        machine
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = row(proc.id());
                let mine = block(proc.id());
                std::hint::black_box(coll::allreduce_sum(&mut proc, &sc, 0, mine).await);
            })
            .expect(healthy)
            .stats
    });
    measure("alltoall", &|| {
        machine
            .run(vec![(); p], move |mut proc, ()| async move {
                let sc = row(proc.id());
                let parts = (0..sc.size()).map(block).collect();
                std::hint::black_box(coll::alltoall_personalized(&mut proc, &sc, 0, parts).await);
            })
            .expect(healthy)
            .stats
    });
    m.put("collectives.messages", total_messages as f64, "count");
}

/// One distributed multiply of the workload's mix: algorithm, port and
/// the measured median wall time of `Algorithm::multiply`.
pub struct MixTime {
    pub algo: &'static str,
    pub port: &'static str,
    pub seconds: f64,
}

/// Times `Algorithm::multiply` directly for a mix at `(n, p)`; used by
/// the workloads whose multiplies are small enough to repeat freely
/// (the `run_*` workloads take these times from their replayed ops).
pub fn time_mix(
    mix: &[(&'static str, &'static str)],
    n: usize,
    p: usize,
    budget: Duration,
) -> Vec<MixTime> {
    let (a, b) = (Matrix::random(n, n, 15), Matrix::random(n, n, 16));
    mix.iter()
        .map(|&(algo, port)| {
            let which: Algorithm = algo.parse().expect("mix names registry algorithms");
            let cfg = crate::replay::run_config(crate::replay::port_of(port));
            MixTime {
                algo,
                port,
                seconds: time_it(budget, || {
                    std::hint::black_box(
                        which.multiply(&a, &b, p, &cfg).expect("mix shape applies"),
                    );
                }),
            }
        })
        .collect()
}

pub fn core(m: &mut Metrics, shape: Shape, mix: &[MixTime], budget: Duration) {
    let (n, p) = (shape.n, shape.p);
    let algos: Vec<Algorithm> = mix
        .iter()
        .map(|t| t.algo.parse().expect("mix names registry algorithms"))
        .collect();
    m.put(
        "core.check_us",
        time_it(budget, || {
            for algo in &algos {
                std::hint::black_box(algo.check(n, p).is_ok());
            }
        }) / algos.len().max(1) as f64
            * 1e6,
        "us",
    );
    let mean = mix.iter().map(|t| t.seconds).sum::<f64>() / mix.len().max(1) as f64;
    m.put("core.multiply_ms", mean * 1e3, "ms");
    // How much a distributed multiply costs the host beyond its local
    // block products (partitioning, payload copies, the simulator).
    let blocks = m.get("dense.gemm_block_ms").unwrap_or(f64::NAN) / 1e3;
    m.put("core.overhead_ratio", mean / blocks, "ratio");

    let (an, ap) = (shape.abft_n, shape.abft_p);
    let (sa, sb) = (Matrix::random(an, an, 13), Matrix::random(an, an, 14));
    let cfg = MachineConfig::default();
    m.put(
        "core.abft_multiply_us",
        time_it(budget, || {
            std::hint::black_box(
                cubemm_core::abft::multiply_abft(Algorithm::Cannon, &sa, &sb, ap, &cfg)
                    .expect("protected multiply of a healthy machine"),
            );
        }) * 1e6,
        "us",
    );
}

fn typical_job(shape: Shape) -> String {
    format!(
        r#"{{"id":"typical","n":{},"p":{},"algo":"cannon"}}"#,
        shape.abft_n, shape.abft_p
    )
}

pub fn model(m: &mut Metrics, shape: Shape, budget: Duration) {
    let auto = format!(
        r#"{{"id":"auto","n":{},"p":{}}}"#,
        shape.abft_n, shape.abft_p
    );
    let req = cubemm_serve::parse_request(&auto).expect("valid request");
    m.put(
        "model.resolve_auto_us",
        time_it(budget, || {
            std::hint::black_box(cubemm_serve::resolve_auto(&req));
        }) * 1e6,
        "us",
    );
    m.put(
        "model.regions_ms",
        time_it(budget, || {
            std::hint::black_box(cubemm_model::RegionMap::generate(
                cubemm_model::Sweep::default(),
                PortModel::OnePort,
                150.0,
                3.0,
            ));
        }) * 1e3,
        "ms",
    );
}

/// Returns how many certificates were issued and how many hold.
pub fn analyze(m: &mut Metrics, budget: Duration) -> (usize, usize) {
    let colls = cubemm_analyze::certify_all_collectives();
    let algos = cubemm_analyze::certify_all_algorithms();
    m.put(
        "analyze.certify_collectives_ms",
        time_it(budget, || {
            std::hint::black_box(cubemm_analyze::certify_all_collectives());
        }) * 1e3,
        "ms",
    );
    m.put(
        "analyze.certify_algorithm_ms",
        time_it(budget, || {
            std::hint::black_box(cubemm_analyze::certify_all_algorithms());
        }) * 1e3,
        "ms",
    );
    let ok = colls.iter().filter(|c| c.ok()).count() + algos.iter().filter(|c| c.ok()).count();
    m.put("analyze.certificates_ok", ok as f64, "count");
    (colls.len() + algos.len(), ok)
}

/// What the campaigns run in a traced pass found, summed.
#[derive(Default)]
pub struct CampaignTotals {
    pub campaigns: usize,
    pub trials: usize,
    pub clean: usize,
    pub corrected: usize,
    pub recovered: usize,
    pub typed_failures: usize,
    pub violations: usize,
    pub coverage_cells: usize,
    pub seconds: f64,
}

impl CampaignTotals {
    pub fn add(&mut self, report: &chaos::CampaignReport, seconds: f64) {
        self.campaigns += 1;
        self.trials += report.runs;
        self.clean += report.clean;
        self.corrected += report.corrected;
        self.recovered += report.recovered;
        self.typed_failures += report.typed_failures;
        self.violations += report.violations.len();
        self.coverage_cells += report.coverage.covered();
        self.seconds += seconds;
    }
}

/// `campaigns` carries the campaigns the traced pass has already run
/// (the replayed ops of `chaos_certify`); when it is empty, one default
/// Cannon campaign is run here so the numbers exist for every workload.
pub fn harness(
    m: &mut Metrics,
    shape: Shape,
    seed: u64,
    mut campaigns: CampaignTotals,
    budget: Duration,
) -> CampaignTotals {
    let (an, ap) = (shape.abft_n, shape.abft_p);
    let (sa, sb) = (Matrix::random(an, an, 13), Matrix::random(an, an, 14));
    let cfg = MachineConfig::default();
    let policy = RecoveryPolicy::default();
    m.put(
        "harness.recovery_multiply_us",
        time_it(budget, || {
            std::hint::black_box(
                multiply_with_recovery(Algorithm::Cannon, &sa, &sb, ap, &cfg, &policy)
                    .expect("recovery of a healthy machine"),
            );
        }) * 1e6,
        "us",
    );
    m.put(
        "harness.probe_ms",
        time_it(budget, || {
            std::hint::black_box(chaos::probe(Algorithm::Cannon, 6).expect("cannon probes"));
        }) * 1e3,
        "ms",
    );
    if campaigns.campaigns == 0 {
        let t = Instant::now();
        let report = chaos::run_campaign(Algorithm::Cannon, seed, &ChaosOptions::default())
            .expect("cannon campaign sets up");
        campaigns.add(&report, t.elapsed().as_secs_f64());
    }
    let c = &campaigns;
    m.put(
        "harness.campaign_ms",
        c.seconds / c.campaigns as f64 * 1e3,
        "ms",
    );
    m.put("harness.trials_per_s", c.trials as f64 / c.seconds, "1/s");
    m.put("harness.trials", c.trials as f64, "count");
    m.put("harness.clean", c.clean as f64, "count");
    m.put("harness.corrected", c.corrected as f64, "count");
    m.put("harness.recovered", c.recovered as f64, "count");
    m.put("harness.typed_failures", c.typed_failures as f64, "count");
    m.put("harness.violations", c.violations as f64, "count");
    m.put("harness.coverage_cells", c.coverage_cells as f64, "count");
    campaigns
}

/// What a closed loop through an in-process [`ServePool`] saw.
pub struct PoolRun {
    pub jobs_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub not_ok: u64,
}

/// The same closed loop the front door runs against `cubemm serve`
/// (window of eight, one worker, queue of 256, the same seeded jobs),
/// without the process and the pipes.
pub fn pool_closed_loop(m: &mut Metrics, seed: u64, jobs: u64) -> PoolRun {
    let pool = ServePool::start(ServeConfig {
        workers: crate::frontdoor::SERVE_WORKERS,
        queue_cap: 256,
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel::<(String, bool, Instant)>();
    let responder: Responder = Arc::new(move |resp| {
        let ok = matches!(resp.status, JobStatus::Ok { .. });
        let _ = tx.send((resp.id, ok, Instant::now()));
    });
    let mut draw = ServeDraw::new(seed);
    let mut inflight = crate::frontdoor::Inflight::default();
    let mut latencies = Vec::with_capacity(jobs as usize);
    let (mut sent, mut not_ok) = (0u64, 0u64);
    let start = Instant::now();
    loop {
        while inflight.len() < crate::frontdoor::SERVE_WINDOW && sent < jobs {
            let id = draw.next_id();
            let req = cubemm_serve::parse_request(&draw.next_line()).expect("generated job parses");
            inflight.sent(id, Instant::now());
            sent += 1;
            pool.submit(req, Arc::clone(&responder));
        }
        if inflight.is_empty() {
            break;
        }
        let Ok((id, ok, at)) = rx.recv() else { break };
        not_ok += u64::from(!ok);
        if let Some(sent_at) = crate::workloads::job_index(&id).and_then(|i| inflight.answered(i)) {
            latencies.push(at.duration_since(sent_at).as_secs_f64() * 1e3);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = pool.drain();
    latencies.sort_by(f64::total_cmp);
    let run = PoolRun {
        jobs_per_s: latencies.len() as f64 / wall,
        p50_ms: stats::percentile(&latencies, 0.5).unwrap_or(f64::NAN),
        p99_ms: stats::percentile(&latencies, 0.99).unwrap_or(f64::NAN),
        not_ok,
    };
    m.put("serve.pool_jobs_per_s", run.jobs_per_s, "1/s");
    m.put("serve.job_p99_ms", run.p99_ms, "ms");
    m.put(
        "serve.machine_reuse_ratio",
        stats.machine_reuses as f64 / stats.ok.max(1) as f64,
        "ratio",
    );
    m.put("serve.ok", stats.ok as f64, "count");
    m.put("serve.failed", stats.failed as f64, "count");
    m.put("serve.overloaded", stats.overloaded as f64, "count");
    m.put("serve.shed", stats.shed as f64, "count");
    m.put("serve.rejected", stats.rejected as f64, "count");
    run
}

pub fn serve(m: &mut Metrics, shape: Shape, seed: u64, pool: &PoolRun, budget: Duration) {
    let line = typical_job(shape);
    let req = cubemm_serve::parse_request(&line).expect("valid request");
    m.put(
        "serve.parse_us",
        time_it(budget, || {
            std::hint::black_box(cubemm_serve::parse_request(&line).is_ok());
        }) * 1e6,
        "us",
    );
    let answer = cubemm_serve::execute(&req).response;
    m.put(
        "serve.encode_us",
        time_it(budget, || {
            std::hint::black_box(answer.encode());
        }) * 1e6,
        "us",
    );
    let product = Matrix::random(shape.n, shape.n, 17);
    let t_fp = time_it(budget, || {
        std::hint::black_box(cubemm_serve::fingerprint(&product));
    });
    m.put("serve.fingerprint_ms", t_fp * 1e3, "ms");
    m.put(
        "serve.fingerprint_mb_s",
        (shape.n * shape.n * 8) as f64 / t_fp / 1e6,
        "MB/s",
    );
    let machine = cubemm_serve::exec::machine_for(&req).expect("valid machine");
    m.put(
        "serve.execute_us",
        time_it(budget, || {
            std::hint::black_box(cubemm_serve::exec::execute_on(&req, Some(machine.clone())));
        }) * 1e6,
        "us",
    );
    m.put(
        "serve.execute_cold_us",
        time_it(budget, || {
            std::hint::black_box(cubemm_serve::execute(&req));
        }) * 1e6,
        "us",
    );
    // Estimate of the time a job spends waiting rather than executing:
    // the pool's median submit→response latency minus the median time
    // the executor needs for the same jobs run one at a time. (The pool
    // exposes no per-job timestamps yet; ROADMAP item 4.)
    let mut draw = ServeDraw::new(seed);
    let mut alone: Vec<f64> = (0..256)
        .map(|_| {
            let req = cubemm_serve::parse_request(&draw.next_line()).expect("generated job parses");
            let t = Instant::now();
            std::hint::black_box(cubemm_serve::execute(&req));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let alone_p50 = stats::median(&mut alone).unwrap_or(f64::NAN);
    m.put("serve.queue_wait_us", (pool.p50_ms - alone_p50) * 1e3, "us");
}
