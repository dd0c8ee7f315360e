//! The ablations of DESIGN.md §6, in virtual time: the quantity the
//! design choices actually trade off.
//!
//! At `n = 64, p = 64` and the paper's `t_s = 150, t_w = 3`:
//!
//! * **port model** — one-port vs multi-port for Cannon, 3DD and 3-D All;
//! * **data movement** — skew-based (Cannon) vs broadcast-based (3-D All);
//! * **first phase** — 3-D All_Trans (gather + bigger broadcast) vs 3-D
//!   All (all-to-all personalized), the delta §4.2.2 highlights;
//! * **local kernel** — the packed and blocked kernels must give the same
//!   virtual time (exit 1 otherwise): the communication comparison is
//!   kernel-independent.
//!
//! Usage: `cargo run --release -p cubemm-bench --bin ablation`

use cubemm_bench::{fmt, write_result, Table};
use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::gemm::Kernel;
use cubemm_dense::Matrix;
use cubemm_simnet::{CostParams, PortModel};

const N: usize = 64;
const P: usize = 64;

fn virtual_time(algo: Algorithm, port: PortModel, kernel: Kernel) -> f64 {
    let a = Matrix::random(N, N, 1);
    let b = Matrix::random(N, N, 2);
    let cfg = MachineConfig {
        kernel,
        ..MachineConfig::new(port, CostParams::PAPER)
    };
    match algo.multiply(&a, &b, P, &cfg) {
        Ok(res) => res.stats.elapsed,
        Err(e) => {
            eprintln!("error: {algo} {port}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let time = |algo, port| virtual_time(algo, port, Kernel::default());
    let (one, multi) = (PortModel::OnePort, PortModel::MultiPort);
    println!(
        "=== Ablations: virtual communication time at n = {N}, p = {P}, ts = 150, tw = 3 ===\n"
    );
    let mut table = Table::new(&[
        "ablation", "setting", "compared", "time", "vs", "time", "ratio",
    ]);
    let mut row = |what: &str, setting: String, (x, tx): (&str, f64), (y, ty): (&str, f64)| {
        table.row(vec![
            what.into(),
            setting,
            x.into(),
            fmt(tx),
            y.into(),
            fmt(ty),
            format!("{:.2}", tx / ty),
        ]);
    };
    for algo in [Algorithm::Cannon, Algorithm::Diag3d, Algorithm::All3d] {
        row(
            "port model",
            algo.name().into(),
            ("one-port", time(algo, one)),
            ("multi-port", time(algo, multi)),
        );
    }
    for port in [one, multi] {
        row(
            "data movement",
            port.to_string(),
            ("cannon", time(Algorithm::Cannon, port)),
            ("3d-all", time(Algorithm::All3d, port)),
        );
    }
    for port in [one, multi] {
        row(
            "first phase",
            port.to_string(),
            ("3d-all-trans", time(Algorithm::AllTrans3d, port)),
            ("3d-all", time(Algorithm::All3d, port)),
        );
    }
    let blocked = virtual_time(Algorithm::All3d, one, Kernel::Blocked(32));
    let packed = time(Algorithm::All3d, one);
    row(
        "local kernel",
        one.to_string(),
        ("blocked:32", blocked),
        ("packed", packed),
    );
    println!("{}", table.render());
    if let Ok(path) = write_result("ablation.csv", &table.to_csv()) {
        println!("csv written to {}", path.display());
    }
    if blocked.to_bits() != packed.to_bits() {
        eprintln!("error: the local kernel changed virtual time ({blocked} vs {packed})");
        std::process::exit(1);
    }
}
