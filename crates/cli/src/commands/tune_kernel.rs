//! `cubemm tune-kernel`: sweep the packed kernel's mc/kc/nc blocking
//! grid on this host and persist the winner so untuned
//! `Kernel::Packed` runs pick it up (see `cubemm_dense::tune`).

use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::tune;

use crate::args::{Args, Flags};

const TUNE_KERNEL_FLAGS: Flags = Flags {
    command: "tune-kernel",
    values: &[&["n", "reps", "threads", "out"]],
    switches: &["full", "dry-run"],
};

/// `cubemm tune-kernel [--n 512] [--reps 3] [--threads 1] ...`.
pub fn tune_kernel(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &TUNE_KERNEL_FLAGS)?;
    let n: usize = args.get_or("n", 512)?;
    let reps: usize = args.get_or("reps", 3)?;
    let threads: usize = args.get_or("threads", 1)?;
    if n == 0 || reps == 0 {
        return Err("--n and --reps must be at least 1".into());
    }
    let out = args
        .raw("out")
        .map(str::to_string)
        .or_else(|| {
            std::env::var(tune::TUNE_FILE_ENV)
                .ok()
                .filter(|p| !p.is_empty())
        })
        .unwrap_or_else(|| tune::DEFAULT_TUNE_FILE.to_string());
    let mk = MicrokernelImpl::active();
    let cache = tune::detect_caches();
    eprintln!(
        "tune-kernel: microkernel {} — L1d {} KiB, L2 {} KiB — sweeping n={n} reps={reps} threads={threads}",
        mk.name(),
        cache.l1d / 1024,
        cache.l2 / 1024,
    );
    let (best, entries) = tune::tune(mk, n, reps, threads, args.has("full"));
    println!("{:>5} {:>5} {:>5} {:>9}", "mc", "kc", "nc", "GFLOPS");
    for e in &entries {
        println!(
            "{:>5} {:>5} {:>5} {:>9.3}",
            e.blocking.mc, e.blocking.kc, e.blocking.nc, e.gflops
        );
    }
    eprintln!(
        "tune-kernel: winner mc={} kc={} nc={} at {:.3} GFLOPS{}",
        best.mc,
        best.kc,
        best.nc,
        best.gflops,
        if best.kc != cubemm_dense::gemm::DEFAULT_KC {
            " (kc differs from the untuned default — tuned runs will not be \
             bitwise comparable to untuned hosts; pin kc explicitly if you \
             need that)"
        } else {
            ""
        },
    );
    if args.has("dry-run") {
        eprintln!("tune-kernel: --dry-run, not writing {out}");
        return Ok(0);
    }
    best.save(std::path::Path::new(&out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("tune-kernel: wrote {out} (picked up by the next untuned packed run)");
    Ok(0)
}
