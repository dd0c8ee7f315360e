//! Regenerates **Table 3**: applicability conditions and overall space,
//! comparing the paper's formulas with the peak resident words *measured*
//! across all nodes of real simulated runs.
//!
//! Usage: `cargo run --release -p cubemm-bench --bin table3`

use cubemm_bench::{fmt, write_result, Table};
use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_model::{total_space, PortModel};
use cubemm_simnet::CostParams;

fn main() {
    cubemm_bench::die_quietly_on_closed_stdout();
    let configs = [(64usize, 64usize), (32, 64), (64, 8)];
    println!("=== Table 3: overall space used (measured peak words vs paper) ===\n");
    let mut table = Table::new(&[
        "algorithm",
        "n",
        "p",
        "measured words",
        "paper words",
        "ratio",
    ]);
    for (n, p) in configs {
        for algo in Algorithm::ALL {
            if algo.check(n, p).is_err() {
                continue;
            }
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let cfg = MachineConfig::new(PortModel::OnePort, CostParams::PAPER);
            let res = algo.multiply(&a, &b, p, &cfg).expect("applicable");
            let measured = res.stats.total_peak_words() as f64;
            let paper = algo.descriptor().row.and_then(|m| total_space(m, n, p));
            let (ps, ratio) = paper.map_or(("-".into(), "-".into()), |s| {
                (fmt(s), format!("{:.3}", measured / s))
            });
            table.row(vec![
                algo.name().to_string(),
                n.to_string(),
                p.to_string(),
                fmt(measured),
                ps,
                ratio,
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "notes: measured = sum over nodes of each node's peak resident matrix\n\
         words. The paper's column counts the replicated *input* storage only;\n\
         the measurement additionally sees the outer-product accumulators and\n\
         staging blocks, so e.g. DNS/3DD measure 3n²·cbrt(p) against the paper's\n\
         2n²·cbrt(p) (ratio 1.5) and Cannon measures exactly 3n² (ratio 1.0,\n\
         its Table 3 entry already includes C). Ratios are constant in n for\n\
         fixed p, confirming the growth rates of the column."
    );
    if let Ok(path) = write_result("table3.csv", &table.to_csv()) {
        println!("csv written to {}", path.display());
    }
}
