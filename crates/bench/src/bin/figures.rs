//! Regenerates **Figure 13** (one-port) and **Figure 14** (multi-port):
//! the `(n, p)` parameter space marked with the algorithm that has the
//! least communication overhead, for several `(t_s, t_w)` settings.
//!
//! The paper generated these figures "by a computer program on the basis
//! of the expressions in Table 2" (§5); this binary is that program. The
//! paper states one parameter set explicitly (`t_s = 150, t_w = 3`) and
//! describes the others only as having "very small values of t_s"; the
//! four panels here therefore sweep the t_s/t_w ratio from 50 down to 0
//! (see EXPERIMENTS.md, E4/E5).
//!
//! Usage:
//!   cargo run -p cubemm-bench --bin figures            # both figures
//!   cargo run -p cubemm-bench --bin figures -- --figure 13

use cubemm_bench::{write_result, Table};
use cubemm_model::{render_ascii, PortModel, RegionMap, Sweep};

/// Panel parameter sets: (label, t_s, t_w).
const PANELS: [(&str, f64, f64); 4] = [
    ("a", 150.0, 3.0), // the paper's explicitly stated setting
    ("b", 35.0, 3.0),
    ("c", 5.0, 3.0),
    ("d", 0.5, 3.0), // "very small values of t_s"
];

fn emit(figure: u32, port: PortModel) {
    println!("=== Figure {figure}: best algorithm regions, {port} hypercube ===\n");
    let mut csv = Table::new(&["panel", "ts", "tw", "n", "p", "winner"]);
    for (label, ts, tw) in PANELS {
        let map = RegionMap::generate(Sweep::default(), port, ts, tw);
        println!("--- Figure {figure}({label}) ---");
        println!("{}", render_ascii(&map));
        for (n, p, algo) in map.rows() {
            csv.row(vec![
                label.to_string(),
                ts.to_string(),
                tw.to_string(),
                n.to_string(),
                p.to_string(),
                algo.name().to_string(),
            ]);
        }
    }
    let name = format!("figure{figure}.csv");
    if let Ok(path) = write_result(&name, &csv.to_csv()) {
        println!("csv written to {}\n", path.display());
    }
}

fn main() {
    cubemm_bench::die_quietly_on_closed_stdout();
    let figure: Option<u32> = std::env::args()
        .skip_while(|a| a != "--figure")
        .nth(1)
        .and_then(|v| v.parse().ok());
    match figure {
        Some(13) => emit(13, PortModel::OnePort),
        Some(14) => emit(14, PortModel::MultiPort),
        Some(other) => eprintln!("unknown figure {other}; use 13 or 14"),
        None => {
            emit(13, PortModel::OnePort);
            emit(14, PortModel::MultiPort);
        }
    }
}
