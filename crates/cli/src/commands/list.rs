//! `cubemm list`: which algorithms accept a shape.

use cubemm_core::Algorithm;

use crate::args::{Args, Flags};

const LIST_FLAGS: Flags = Flags {
    command: "list",
    values: &[],
    switches: &[],
};

/// `cubemm list [n] [p]`.
pub fn list(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &LIST_FLAGS)?;
    let n: usize = args.positional(0).unwrap_or(64);
    let p: usize = args.positional(1).unwrap_or(64);
    println!("applicability at n = {n}, p = {p}:");
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        match algo.check(n, p) {
            Ok(()) => println!("  {:<14} ok", algo.name()),
            Err(e) => println!("  {:<14} -- {e}", algo.name()),
        }
    }
    Ok(0)
}
