//! Local GEMM kernel throughput: the checked-in perf trajectory.
//!
//! Measures GFLOP/s (`2·n³` flops per product) for every kernel at a
//! range of sizes and writes the results as `BENCH_kernels.json` in the
//! working directory, the file the README perf table is generated from.
//!
//! ```text
//! cargo run --release -p cubemm-bench --bin kernel_bench              # full run
//! cargo run --release -p cubemm-bench --bin kernel_bench -- --smoke   # CI smoke
//!   --sizes 128,256,512     override the size grid
//!   --threads 1,2,4         thread counts for the packed rows
//!   --assert-scaling 2.0    fail unless max-threads packed ≥ 2.0x its
//!                           1-thread row at the largest size ≥ 512
//!                           (soft-warns instead when the host has
//!                           fewer cores than the top thread count),
//!                           and unless `reference` ≥ 1.5x `ikj` there
//!                           (soft-warns on hosts without AVX2)
//! ```
//!
//! The packed kernel is benched per microkernel implementation
//! (`packed-scalar-*` forced onto the portable 4×8 tile,
//! `packed-simd-*` on the AVX2+FMA 6×8 tile when the host has it) and
//! per thread count, with a machine-readable `speedup_vs_1t` column so
//! CI can assert parallel scaling. The `reference` row times
//! `gemm::reference` itself — the host re-multiply every front door
//! verifies against: the `blocked64` loop plus its output allocation.
//! The `naive` and `ikj` rows are unblocked baseline loops that live
//! only here; the product's `Kernel` has just the packed and blocked
//! kernels. `--smoke` runs small sizes only,
//! cross-checks every kernel against the naive product, and exits
//! non-zero on mismatch — a cheap guard that keeps the kernel and bench
//! code from bit-rotting. The full run performs the same verification
//! before timing anything.

use std::time::Instant;

use cubemm_dense::gemm::{self, gemm_acc_with_microkernel, Kernel, ReferenceIsa, PAR_MIN_ELEMS};
use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::pack::{pack_a, pack_b, packed_a_len, packed_b_len};
use cubemm_dense::{tune, Matrix};

/// What one row times.
#[derive(Clone, Copy)]
enum Body {
    /// A loop of this bench's own (the baselines), or `gemm::reference`.
    Loop(fn(&mut Matrix, &Matrix, &Matrix)),
    /// A product kernel on a pinned microkernel.
    Kernel(Kernel, MicrokernelImpl),
}

struct KernelSpec {
    name: String,
    body: Body,
    /// Name of this spec's single-thread sibling for the speedup column
    /// (its own name for 1t and non-packed rows).
    base_1t: String,
}

impl KernelSpec {
    fn new(name: &str, body: Body) -> KernelSpec {
        KernelSpec {
            name: name.into(),
            body,
            base_1t: name.into(),
        }
    }

    /// One product into `c` (zeroed by the caller).
    fn run(&self, c: &mut Matrix, a: &Matrix, b: &Matrix) {
        match self.body {
            Body::Loop(run) => run(c, a, b),
            Body::Kernel(kernel, mk) => gemm_acc_with_microkernel(c, a, b, kernel, mk),
        }
    }

    /// The packed thread count this row requests (1 for the others).
    fn threads(&self) -> usize {
        match self.body {
            Body::Kernel(Kernel::Packed { threads, .. }, _) => threads,
            _ => 1,
        }
    }
}

/// The textbook `ijk` triple loop: the verification oracle and the
/// slowest baseline row.
fn naive(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            c[(i, j)] += acc;
        }
    }
}

/// The loop-reordered `ikj` baseline the reference kernel must stay
/// clear of.
fn ikj(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, n) = (a.rows(), b.cols());
    for i in 0..m {
        for (l, &aval) in a.row(i).iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let brow = b.row(l);
            let crow = &mut c.as_mut_slice()[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aval * bv;
            }
        }
    }
}

fn kernels(threads: &[usize]) -> Vec<KernelSpec> {
    let scalar = MicrokernelImpl::Scalar;
    let mut v = vec![
        KernelSpec::new("naive", Body::Loop(naive)),
        KernelSpec::new("ikj", Body::Loop(ikj)),
        KernelSpec::new("blocked64", Body::Kernel(Kernel::Blocked(64), scalar)),
        // `gemm::reference` itself, fresh output and all.
        KernelSpec::new(
            "reference",
            Body::Loop(|c, a, b| *c = gemm::reference(a, b)),
        ),
    ];
    let mut impls = vec![("packed-scalar", scalar)];
    if MicrokernelImpl::detect() == MicrokernelImpl::Avx2 {
        impls.push(("packed-simd", MicrokernelImpl::Avx2));
    }
    for (family, mk) in impls {
        for &t in threads {
            v.push(KernelSpec {
                name: format!("{family}-{t}t"),
                body: Body::Kernel(Kernel::packed_mt(t), mk),
                base_1t: format!("{family}-1t"),
            });
        }
    }
    v
}

/// Median-of-`reps` seconds for one `n×n×n` product with `spec`.
fn time_product(n: usize, spec: &KernelSpec, reps: usize) -> f64 {
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    // Warm-up (and pool/buffer spin-up).
    spec.run(&mut c, &a, &b);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut c = Matrix::zeros(n, n);
            let t = Instant::now();
            spec.run(&mut c, &a, &b);
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(&c);
            dt
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Verifies `spec` against the naive product at size `n`.
fn verify(n: usize, spec: &KernelSpec) -> Result<(), String> {
    let a = Matrix::random(n, n, 3);
    let b = Matrix::random(n, n, 4);
    let mut want = Matrix::zeros(n, n);
    naive(&mut want, &a, &b);
    let mut got = Matrix::zeros(n, n);
    spec.run(&mut got, &a, &b);
    let err = got.max_abs_diff(&want);
    // Accept-if-within: a NaN error is a mismatch.
    if err <= 1e-9 * n as f64 {
        Ok(())
    } else {
        Err(format!(
            "kernel {} mismatch at n={n}: max |Δ| = {err:.2e}",
            spec.name
        ))
    }
}

/// The packed path written out for a product that fits one `mc × kc × nc`
/// block, from this bench's own buffers: pack all of `B`, pack all of
/// `A`, run every register tile. `gemm_acc` takes no such path below
/// `SMALL_MAX_ELEMS`, and this one computes the same bits, so the
/// `small` rows can time the two side by side.
fn packed_one_block(
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    mk: MicrokernelImpl,
    bufs: &mut [Vec<f64>; 2],
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mr, nr) = (mk.mr(), mk.nr());
    let [abuf, bbuf] = bufs;
    abuf.resize(packed_a_len(m, k, mr), 0.0);
    bbuf.resize(packed_b_len(k, n, nr), 0.0);
    pack_b(b, 0, 0, k, n, nr, bbuf);
    pack_a(a, 0, 0, m, k, mr, abuf);
    let cp = c.as_mut_slice().as_mut_ptr();
    for jr in 0..n.div_ceil(nr) {
        let bp = &bbuf[jr * nr * k..(jr + 1) * nr * k];
        for ir in 0..m.div_ceil(mr) {
            let ap = &abuf[ir * mr * k..(ir + 1) * mr * k];
            // SAFETY: the tile spans rows ir·mr .. +mr.min(m - ir·mr) and
            // columns jr·nr .. +nr.min(n - jr·nr), inside the m × n `C`.
            unsafe {
                mk.run(
                    ap,
                    bp,
                    cp.add(ir * mr * n + jr * nr),
                    n,
                    mr.min(m - ir * mr),
                    nr.min(n - jr * nr),
                );
            }
        }
    }
}

/// Median ns per call of `call` on a fresh `C`, over 5 batches of at
/// least ~2 ms each.
fn ns_per_call(m: usize, n: usize, mut call: impl FnMut(&mut Matrix)) -> f64 {
    let mut c = Matrix::zeros(m, n);
    call(&mut c);
    let t = Instant::now();
    let mut calls = 0u32;
    while t.elapsed().as_secs_f64() < 2e-3 {
        call(&mut c);
        calls += 1;
    }
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                call(&mut c);
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        })
        .collect();
    std::hint::black_box(&c);
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// The per-call shapes of `cubemm run` at n = 256, p = 4096: the 4×4
/// blocks of the √p grids (Cannon, Simple), the k = 1 outer products of
/// 3-D All, 3-D All_Trans and Berntsen, a 256-row strip times a 4×4
/// block, and the 16×16 blocks of the ∛p grids.
const CALL_SHAPES: [(usize, usize, usize); 4] = [(4, 4, 4), (16, 1, 16), (256, 4, 4), (16, 16, 16)];

/// The sweep that places `SMALL_MAX_ELEMS`: cubes and thin shapes on
/// both sides of it, up to `run_compute`'s 96×96 blocks.
const SWEEP_SHAPES: [(usize, usize, usize); 12] = [
    (8, 8, 8),
    (12, 12, 12),
    (24, 24, 24),
    (32, 32, 32),
    (40, 40, 40),
    (48, 48, 48),
    (64, 64, 64),
    (96, 96, 96),
    (64, 1, 64),
    (64, 4, 64),
    (4, 64, 4),
    (16, 256, 16),
];

/// Times the unpacked loop, the packed path and `gemm_acc`'s choice at
/// each shape on every microkernel the host runs, after checking that
/// the three agree bitwise. Returns JSON rows, or the first mismatch.
fn small_rows(shapes: &[(usize, usize, usize)]) -> Result<Vec<String>, String> {
    let mut impls = vec![MicrokernelImpl::Scalar];
    if MicrokernelImpl::detect() == MicrokernelImpl::Avx2 {
        impls.push(MicrokernelImpl::Avx2);
    }
    let bits = |m: &Matrix| {
        m.as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u64>>()
    };
    let mut rows = Vec::new();
    for &(m, k, n) in shapes {
        let (a, b) = (Matrix::random(m, k, 5), Matrix::random(k, n, 6));
        let c0 = Matrix::random(m, n, 7);
        let dispatched = m * k * n <= gemm::SMALL_MAX_ELEMS;
        for &mk in &impls {
            let mut bufs = [Vec::new(), Vec::new()];
            let mut unpacked = c0.clone();
            mk.run_unpacked(unpacked.as_mut_slice(), a.as_slice(), b.as_slice(), k, n);
            let mut packed = c0.clone();
            packed_one_block(&mut packed, &a, &b, mk, &mut bufs);
            let mut front = c0.clone();
            gemm_acc_with_microkernel(&mut front, &a, &b, Kernel::packed(), mk);
            if bits(&unpacked) != bits(&packed) || bits(&front) != bits(&packed) {
                return Err(format!(
                    "small {m}x{k}x{n} {}: paths differ bitwise",
                    mk.name()
                ));
            }
            let t_unpacked = ns_per_call(m, n, |c| {
                mk.run_unpacked(c.as_mut_slice(), a.as_slice(), b.as_slice(), k, n)
            });
            let t_packed = ns_per_call(m, n, |c| packed_one_block(c, &a, &b, mk, &mut bufs));
            let t_front = ns_per_call(m, n, |c| {
                gemm_acc_with_microkernel(c, &a, &b, Kernel::packed(), mk)
            });
            println!(
                "{:<12} {:>11} {:>11.0}ns {:>9.0}ns {:>9.0}ns {:>6.2}x  {}",
                mk.name(),
                format!("{m}x{k}x{n}"),
                t_front,
                t_packed,
                t_unpacked,
                t_packed / t_front,
                if dispatched { "unpacked" } else { "packed" }
            );
            rows.push(format!(
                "    {{\"microkernel\": \"{}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"path\": \"{}\", \"dispatched_ns\": {t_front:.1}, \"packed_ns\": {t_packed:.1}, \"unpacked_ns\": {t_unpacked:.1}}}",
                mk.name(),
                if dispatched { "unpacked" } else { "packed" }
            ));
        }
    }
    Ok(rows)
}

fn parse_list(raw: &str, flag: &str) -> Vec<usize> {
    raw.split(',')
        .map(|tok| match tok.trim().parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("error: {flag} wants positive comma-separated integers, got {tok:?}");
                std::process::exit(2);
            }
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let flag_val = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let sizes: Vec<usize> = match flag_val("--sizes") {
        Some(raw) => parse_list(&raw, "--sizes"),
        None if smoke => vec![64, 96],
        None => vec![128, 256, 512, 768],
    };
    let threads: Vec<usize> = match flag_val("--threads") {
        Some(raw) => parse_list(&raw, "--threads"),
        None => vec![1, 2, 4],
    };
    let assert_scaling: Option<f64> = flag_val("--assert-scaling").map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("error: --assert-scaling wants a number, got {raw:?}");
            std::process::exit(2);
        })
    });
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let specs = kernels(&threads);

    // Correctness first: a fast wrong kernel is worse than a slow one.
    // 31 exercises every ragged-edge path of both register tiles.
    for &n in if smoke {
        &[31usize, 64][..]
    } else {
        &[31usize, 128][..]
    } {
        for spec in &specs {
            if let Err(e) = verify(n, spec) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "all kernels verified against naive (microkernel: {}, reference: {}, host cores: {host_cores})",
        MicrokernelImpl::active().name(),
        ReferenceIsa::active().name()
    );

    let mut rows: Vec<String> = Vec::new();
    let mut table: Vec<(String, usize, f64)> = Vec::new();
    println!(
        "{:<16} {:>6} {:>12} {:>10} {:>8}",
        "kernel", "n", "time", "GFLOP/s", "vs-1t"
    );
    for &n in &sizes {
        let reps = if n >= 512 { 3 } else { 5 };
        for spec in &specs {
            if smoke && spec.name == "naive" && n > 64 {
                continue; // keep the smoke job snappy
            }
            let secs = time_product(n, spec, reps);
            let gflops = 2.0 * (n as f64).powi(3) / secs / 1e9;
            let base = table
                .iter()
                .find(|(name, bn, _)| *name == spec.base_1t && *bn == n)
                .map_or(gflops, |&(_, _, g)| g);
            let speedup = if base > 0.0 { gflops / base } else { 0.0 };
            table.push((spec.name.clone(), n, gflops));
            let t = spec.threads();
            println!(
                "{:<16} {:>6} {:>10.2}ms {:>10.2} {:>7.2}x{}",
                spec.name,
                n,
                secs * 1e3,
                gflops,
                speedup,
                if t != 1 && n.pow(3) <= PAR_MIN_ELEMS {
                    "  (below parallel threshold: ran 1t)"
                } else {
                    ""
                },
            );
            rows.push(format!(
                "    {{\"kernel\": \"{}\", \"n\": {}, \"threads\": {}, \"seconds\": {:.6}, \"gflops\": {:.3}, \"speedup_vs_1t\": {:.3}}}",
                spec.name, n, t, secs, gflops, speedup
            ));
        }
    }

    // Per-call cost of small products: `gemm_acc`'s choice beside the
    // packed path, bitwise-checked (the full run adds the threshold sweep).
    println!(
        "\n{:<12} {:>11} {:>13} {:>11} {:>11} {:>7}  path (m·k·n <= {})",
        "small",
        "m x k x n",
        "gemm_acc",
        "packed",
        "unpacked",
        "gain",
        gemm::SMALL_MAX_ELEMS
    );
    let small_shapes: Vec<_> = if smoke {
        CALL_SHAPES.to_vec()
    } else {
        CALL_SHAPES.iter().chain(&SWEEP_SHAPES).copied().collect()
    };
    let small = small_rows(&small_shapes).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    if !smoke {
        // Who measured (ROADMAP item 1): cores, the two runtime ISA
        // dispatches, and the cache sizes the blocking was pruned to.
        let caches = tune::detect_caches();
        let json = format!(
            "{{\n  \"bench\": \"local_gemm_kernels\",\n  \"flops_formula\": \"2*n^3\",\n  \"microkernel\": \"{}\",\n  \"reference_isa\": \"{}\",\n  \"host_cores\": {},\n  \"l1d_bytes\": {},\n  \"l2_bytes\": {},\n  \"results\": [\n{}\n  ],\n  \"small_max_elems\": {},\n  \"small\": [\n{}\n  ]\n}}\n",
            MicrokernelImpl::active().name(),
            ReferenceIsa::active().name(),
            host_cores,
            caches.l1d,
            caches.l2,
            rows.join(",\n"),
            gemm::SMALL_MAX_ELEMS,
            small.join(",\n")
        );
        match std::fs::write("BENCH_kernels.json", &json) {
            Ok(()) => println!("wrote BENCH_kernels.json"),
            Err(e) => {
                eprintln!("error: writing BENCH_kernels.json: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(min) = assert_scaling {
        let top = threads.iter().copied().max().unwrap_or(1);
        let family = if MicrokernelImpl::active() == MicrokernelImpl::Avx2 {
            "packed-simd"
        } else {
            "packed-scalar"
        };
        let Some(&n) = sizes.iter().filter(|&&n| n >= 512).max() else {
            eprintln!("warning: --assert-scaling needs a size >= 512 in --sizes; skipping");
            return;
        };
        let find = |name: &str| {
            table
                .iter()
                .find(|(t, bn, _)| t == name && *bn == n)
                .map(|&(_, _, g)| g)
        };
        // The reference-kernel floor: the 4-row AVX2 instantiation must
        // stay well clear of the plain `ikj` loop it verifies beside.
        if let (Some(reference), Some(ikj)) = (find("reference"), find("ikj")) {
            let ratio = reference / ikj;
            println!("reference: reference / ikj = {ratio:.2}x at n={n} (want >= 1.50x)");
            if ratio < 1.5 {
                if ReferenceIsa::active() == ReferenceIsa::Avx2 {
                    eprintln!("error: reference kernel regression: {ratio:.2}x < 1.50x over ikj");
                    std::process::exit(1);
                }
                println!(
                    "warning: reference below target, but this host runs the baseline \
                     instantiation (no AVX2, or CUBEMM_FORCE_SCALAR) — soft-failing"
                );
            }
        }
        let (one, multi) = (
            find(&format!("{family}-1t")),
            find(&format!("{family}-{top}t")),
        );
        let (Some(one), Some(multi)) = (one, multi) else {
            eprintln!("warning: --assert-scaling found no {family} 1t/{top}t rows at n={n}");
            std::process::exit(1);
        };
        let ratio = multi / one;
        println!(
            "scaling: {family}-{top}t / {family}-1t = {ratio:.2}x at n={n} (want >= {min:.2}x)"
        );
        if ratio < min {
            if host_cores < top {
                println!(
                    "warning: scaling below target, but host has only {host_cores} core(s) \
                     for a {top}-thread row — soft-failing"
                );
            } else {
                eprintln!("error: parallel scaling regression: {ratio:.2}x < {min:.2}x");
                std::process::exit(1);
            }
        }
    }
}
