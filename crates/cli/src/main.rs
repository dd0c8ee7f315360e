//! `cubemm` — command-line front end for the simulated-hypercube matrix
//! multiplication workspace.
//!
//! ```text
//! cubemm list  [n] [p]                     applicability of every algorithm
//! cubemm run   --algo A --n N --p P [...]  one verified simulated run
//! cubemm sweep --n N [--p P1,P2,...]       all algorithms across machines
//! cubemm regions [--port one|multi] [--ts X] [--tw Y]
//!                                          Figure 13/14-style region map
//! cubemm analyze <algo|all> [--n N] [--p P] [--port one|multi|both]
//!                                          static schedule certification
//! cubemm serve [--workers N] [--queue N] [--socket PATH]
//!                                          long-lived JSON-lines multiply
//!                                          service with admission control
//! cubemm chaos <algo|all> [--seed S] [--runs N] [--repro-dir DIR]
//!                                          seeded coverage-guided fault
//!                                          campaign with shrunk repros
//! cubemm tune-kernel [--n N] [--reps R] [--threads T] [--full]
//!                    [--out FILE] [--dry-run]
//!                                          sweep packed-GEMM blocking
//!                                          params, persist the winner
//! ```

mod args;
mod commands;
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap;
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod small_alloc;

/// Small blocks of `chaos` come from a per-thread cache
/// (`small_alloc.rs`); its size classes are glibc's, so it is installed
/// where glibc is.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[global_allocator]
static ALLOC: small_alloc::SmallCache = small_alloc::SmallCache;

#[cfg(unix)]
extern "C" {
    fn signal(signum: std::ffi::c_int, handler: usize) -> usize;
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A reader that closes stdout early (`cubemm sweep | head`) ends the
    // process by SIGPIPE, as it would any filter, instead of a panic in
    // `println!`. `serve` keeps Rust's ignored SIGPIPE: it answers a
    // broken stream with its own exit code.
    #[cfg(unix)]
    if argv.first().map(String::as_str) != Some("serve") {
        const SIGPIPE: std::ffi::c_int = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: restoring a signal's default disposition touches no
        // memory, and no other thread exists yet to race it.
        unsafe { signal(SIGPIPE, SIG_DFL) };
    }
    let result = match argv.first().map(String::as_str) {
        Some("list") => commands::list(&argv[1..]),
        Some("run") => {
            // Before `run` draws its operands and before any other
            // thread exists.
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            heap::reserve();
            commands::run(&argv[1..])
        }
        Some("sweep") => commands::sweep(&argv[1..]),
        Some("regions") => commands::regions(&argv[1..]),
        Some("analyze") => commands::analyze(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("chaos") => {
            // Before the campaign starts its threads, which build and
            // tear down thousands of tiny machines.
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            small_alloc::enable();
            commands::chaos(&argv[1..])
        }
        Some("tune-kernel") => commands::tune_kernel(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(0)
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n\n{}", commands::USAGE);
            Ok(2)
        }
    };
    std::process::exit(finish(result));
}

/// The one error exit: a subcommand's error is printed as `error: …`
/// and exits 2.
fn finish(result: Result<i32, String>) -> i32 {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    })
}
