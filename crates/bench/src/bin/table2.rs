//! Regenerates **Table 2**: per-algorithm communication overheads
//! `(a, b)` (time `t_s·a + t_w·b`), comparing the paper's closed forms
//! with overheads *measured* from end-to-end simulated runs.
//!
//! Measurement technique: the simulator is run twice per configuration,
//! once with `(t_s, t_w) = (1, 0)` and once with `(0, 1)`; the elapsed
//! virtual times are exactly the effective `a` and `b` of the critical
//! path.
//!
//! Usage: `cargo run --release -p cubemm-bench --bin table2 [-- --large]`

use cubemm_analyze::measure_ab;
use cubemm_bench::{fmt, write_result, Table};
use cubemm_core::Algorithm;
use cubemm_model::{costs, PortModel};

fn main() {
    cubemm_bench::die_quietly_on_closed_stdout();
    let large = std::env::args().any(|a| a == "--large");
    // (n, p) pairs: p must be a 6th power of two to exercise both 2-D
    // and 3-D algorithms at the same size; 64 covers the default run,
    // 4096 the --large run.
    let configs: &[(usize, usize)] = if large {
        &[(64, 64), (128, 64), (256, 64), (512, 4096)]
    } else {
        &[(32, 64), (64, 64), (128, 64)]
    };

    println!("=== Table 2: communication overheads (a, b); time = ts*a + tw*b ===");
    println!("measured via (ts,tw)=(1,0) and (0,1) simulator runs\n");

    let mut table = Table::new(&[
        "algorithm",
        "port",
        "n",
        "p",
        "a measured",
        "a paper",
        "b measured",
        "b paper",
    ]);
    for &(n, p) in configs {
        for algo in Algorithm::ALL {
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                if algo.check(n, p).is_err() {
                    continue;
                }
                let Ok((ma, mb)) = measure_ab(algo, n, p, port) else {
                    continue;
                };
                let paper = algo
                    .descriptor()
                    .row
                    .and_then(|m| costs::overhead(m, port, n, p));
                let (pa, pb) = paper.map_or(("-".into(), "-".into()), |o| (fmt(o.a), fmt(o.b)));
                table.row(vec![
                    algo.name().to_string(),
                    port.to_string(),
                    n.to_string(),
                    p.to_string(),
                    fmt(ma),
                    pa,
                    fmt(mb),
                    pb,
                ]);
            }
        }
    }
    println!("{}", table.render());
    println!(
        "notes: '-' = no Table 2 entry (HJE one-port; the 2-D Diagonal and 3-D\n\
         All_Trans stepping stones). Measured values can undercut the paper's\n\
         figures where phases overlap across different nodes (3DD one-port; see\n\
         EXPERIMENTS.md E2)."
    );
    if let Ok(path) = write_result("table2.csv", &table.to_csv()) {
        println!("csv written to {}", path.display());
    }
}
