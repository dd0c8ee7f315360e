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

    if !smoke {
        // Who measured (ROADMAP item 1): cores, the two runtime ISA
        // dispatches, and the cache sizes the blocking was pruned to.
        let caches = tune::detect_caches();
        let json = format!(
            "{{\n  \"bench\": \"local_gemm_kernels\",\n  \"flops_formula\": \"2*n^3\",\n  \"microkernel\": \"{}\",\n  \"reference_isa\": \"{}\",\n  \"host_cores\": {},\n  \"l1d_bytes\": {},\n  \"l2_bytes\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
            MicrokernelImpl::active().name(),
            ReferenceIsa::active().name(),
            host_cores,
            caches.l1d,
            caches.l2,
            rows.join(",\n")
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
