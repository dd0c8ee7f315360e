//! Supplementary analysis in the style of the paper's reference \[5\]
//! (Gupta & Kumar): efficiency tables and isoefficiency curves derived
//! from the Table 2 overheads — how fast the problem must grow with the
//! machine for each algorithm to hold 50% efficiency.
//!
//! Usage: `cargo run -p cubemm-bench --bin scalability`

use cubemm_bench::{write_result, Table};
use cubemm_model::{efficiency, isoefficiency_n, ModelAlgo, PortModel, ScaleParams};

fn main() {
    cubemm_bench::die_quietly_on_closed_stdout();
    let params = ScaleParams::PAPER;
    let machines = [64usize, 512, 4096, 1 << 15, 1 << 18];

    println!("=== efficiency at n = 1024 (ts=150, tw=3, tc=1) ===\n");
    let mut eff = Table::new(&["algorithm", "port", "p=64", "p=512", "p=4096", "p=2^15"]);
    for algo in ModelAlgo::ALL {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            let cells: Vec<String> = [64usize, 512, 4096, 1 << 15]
                .iter()
                .map(|&p| {
                    efficiency(algo, port, 1024, p, params)
                        .map_or("-".into(), |e| format!("{e:.3}"))
                })
                .collect();
            if cells.iter().all(|c| c == "-") {
                continue;
            }
            let mut row = vec![algo.name().to_string(), port.to_string()];
            row.extend(cells);
            eff.row(row);
        }
    }
    println!("{}", eff.render());

    println!("=== isoefficiency: smallest power-of-two n reaching E = 0.5 ===\n");
    let mut iso = Table::new(&[
        "algorithm",
        "port",
        "p=64",
        "p=512",
        "p=4096",
        "p=2^15",
        "p=2^18",
    ]);
    for algo in ModelAlgo::ALL {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            let cells: Vec<String> = machines
                .iter()
                .map(|&p| {
                    isoefficiency_n(algo, port, p, params, 0.5)
                        .map_or("-".into(), |n| n.to_string())
                })
                .collect();
            if cells.iter().all(|c| c == "-") {
                continue;
            }
            let mut row = vec![algo.name().to_string(), port.to_string()];
            row.extend(cells);
            iso.row(row);
        }
    }
    println!("{}", iso.render());
    println!(
        "reading: smaller n = flatter isoefficiency curve = more scalable.\n\
         3-D All posts the smallest requirement wherever it applies; DNS pays\n\
         its volume-heavy broadcasts; Cannon pays √p start-ups."
    );
    if let Ok(path) = write_result("scalability.csv", &iso.to_csv()) {
        println!("csv written to {}", path.display());
    }
}
