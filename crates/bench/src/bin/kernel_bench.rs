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
//! `--smoke` runs small sizes only,
//! cross-checks every kernel against the naive product, and exits
//! non-zero on mismatch — a cheap guard that keeps the kernel and bench
//! code from bit-rotting. The full run performs the same verification
//! before timing anything.

use std::time::Instant;

use cubemm_dense::gemm::{self, gemm_acc_with_microkernel, Kernel, ReferenceIsa, PAR_MIN_ELEMS};
use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::{tune, Matrix};

struct KernelSpec {
    name: String,
    kernel: Kernel,
    mk: MicrokernelImpl,
    /// Name of this spec's single-thread sibling for the speedup column
    /// (its own name for 1t and non-packed rows).
    base_1t: String,
    /// Time `gemm::reference` itself (fresh output and all) rather
    /// than `kernel` into a caller-zeroed `C`.
    via_reference: bool,
}

impl KernelSpec {
    /// One product into `c` (zeroed by the caller).
    fn run(&self, c: &mut Matrix, a: &Matrix, b: &Matrix) {
        if self.via_reference {
            *c = gemm::reference(a, b);
        } else {
            gemm_acc_with_microkernel(c, a, b, self.kernel, self.mk);
        }
    }
}

fn kernels(threads: &[usize]) -> Vec<KernelSpec> {
    let scalar = MicrokernelImpl::Scalar;
    let mut v = vec![
        KernelSpec {
            name: "naive".into(),
            kernel: Kernel::Naive,
            mk: scalar,
            base_1t: "naive".into(),
            via_reference: false,
        },
        KernelSpec {
            name: "ikj".into(),
            kernel: Kernel::Ikj,
            mk: scalar,
            base_1t: "ikj".into(),
            via_reference: false,
        },
        KernelSpec {
            name: "blocked64".into(),
            kernel: Kernel::Blocked(64),
            mk: scalar,
            base_1t: "blocked64".into(),
            via_reference: false,
        },
        KernelSpec {
            name: "reference".into(),
            kernel: Kernel::Blocked(64),
            mk: scalar,
            base_1t: "reference".into(),
            via_reference: true,
        },
    ];
    let mut impls = vec![("packed-scalar", scalar)];
    if MicrokernelImpl::detect() == MicrokernelImpl::Avx2 {
        impls.push(("packed-simd", MicrokernelImpl::Avx2));
    }
    for (family, mk) in impls {
        for &t in threads {
            v.push(KernelSpec {
                name: format!("{family}-{t}t"),
                kernel: Kernel::packed_mt(t),
                mk,
                base_1t: format!("{family}-1t"),
                via_reference: false,
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
    gemm_acc_with_microkernel(&mut want, &a, &b, Kernel::Naive, MicrokernelImpl::Scalar);
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
            if smoke && matches!(spec.kernel, Kernel::Naive) && n > 64 {
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
            let spawned = matches!(spec.kernel, Kernel::Packed { threads: t, .. }
                if t != 1 && n.pow(3) > PAR_MIN_ELEMS);
            println!(
                "{:<16} {:>6} {:>10.2}ms {:>10.2} {:>7.2}x{}",
                spec.name,
                n,
                secs * 1e3,
                gflops,
                speedup,
                if matches!(spec.kernel, Kernel::Packed { threads: t, .. } if t != 1) && !spawned {
                    "  (below parallel threshold: ran 1t)"
                } else {
                    ""
                },
            );
            let t = match spec.kernel {
                Kernel::Packed { threads, .. } => threads,
                _ => 1,
            };
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
