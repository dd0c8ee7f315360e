//! Regenerates **Table 1**: optimal broadcasting and personalized
//! communication costs on an N-processor hypercube, comparing the
//! paper's closed forms against costs *measured* from the executable
//! collective schedules on the simulated machine.
//!
//! Usage: `cargo run -p cubemm-bench --bin table1 [-- --max-dim D]`

use cubemm_analyze::{run_collective, table1_sym};
use cubemm_bench::{fmt, write_result, Table};
use cubemm_collectives::CollKind;
use cubemm_simnet::{CostParams, PortModel};

const COST: CostParams = CostParams { ts: 1.0, tw: 1.0 };

/// The four Table 1 rows, with the bench's row labels.
const ROWS: [(CollKind, &str); 4] = [
    (CollKind::Bcast, "one-to-all broadcast"),
    (CollKind::Scatter, "one-to-all personalized"),
    (CollKind::Allgather, "all-to-all broadcast"),
    (CollKind::Alltoall, "all-to-all personalized"),
];

/// Runs one collective on an N = 2^d cube with M-word messages and
/// returns the measured elapsed virtual time.
fn measure(kind: CollKind, d: u32, m: usize, port: PortModel) -> f64 {
    #[allow(
        clippy::expect_used,
        reason = "fixed, valid bench machines; a failure is a bench bug"
    )]
    run_collective(kind, port, COST, d, m, 0, false)
        .expect("healthy bench run")
        .stats
        .elapsed
}

/// The paper's Table 1 prediction (t_s = t_w = 1).
fn predicted(kind: CollKind, d: u32, m: usize, port: PortModel) -> f64 {
    let row = table1_sym(kind, port);
    let (m, d) = (m as f64, f64::from(d));
    row.a.eval(m, d) + row.b.eval(m, d)
}

fn main() {
    cubemm_bench::die_quietly_on_closed_stdout();
    let max_dim: u32 = std::env::args()
        .skip_while(|a| a != "--max-dim")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    println!("=== Table 1: collective communication costs (measured vs paper) ===");
    println!("message cost model: t_s = 1, t_w = 1; M words per message\n");

    let mut table = Table::new(&["collective", "port", "N", "M", "measured", "paper", "ratio"]);
    let mut worst: f64 = 1.0;
    for (kind, label) in ROWS {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for d in [2u32, 3, max_dim.max(4)] {
                // M chosen ≥ log N so multi-port slicing has full effect
                // (the Table 1 condition M ≥ log N).
                for m in [16usize, 60] {
                    let measured = measure(kind, d, m, port);
                    let paper = predicted(kind, d, m, port);
                    let ratio = measured / paper;
                    worst = worst.max(ratio.max(1.0 / ratio));
                    table.row(vec![
                        label.to_string(),
                        port.to_string(),
                        (1usize << d).to_string(),
                        m.to_string(),
                        fmt(measured),
                        fmt(paper),
                        format!("{ratio:.3}"),
                    ]);
                }
            }
        }
    }
    println!("{}", table.render());
    println!("worst measured/paper ratio: {worst:.3}");
    if let Ok(path) = write_result("table1.csv", &table.to_csv()) {
        println!("csv written to {}", path.display());
    }
}
