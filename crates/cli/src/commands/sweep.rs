//! `cubemm sweep`: every algorithm across a list of machine sizes.

use cubemm_core::Algorithm;
use cubemm_dense::gemm;
use cubemm_harness::job::{self, Job, Protection};

use super::machine::{machine_from, MACHINE_FLAGS};
use super::{jobs_from, order_from};
use crate::args::{Args, Flags};

pub(super) const SWEEP_FLAGS: Flags = Flags {
    command: "sweep",
    values: &[&["n", "p", "jobs"], MACHINE_FLAGS],
    switches: &[],
};

/// Every cell multiplies `A = random(1)` by `B = random(2)`.
const SEED: u64 = 1;

/// `cubemm sweep --n N [--p list] ...`.
pub fn sweep(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &SWEEP_FLAGS)?;
    let n = order_from(&args)?;
    let cfg = machine_from(&args)?;
    let ps: Vec<usize> = match args.raw("p") {
        None => vec![4, 8, 16, 64, 512],
        Some(list) => list
            .split(',')
            .map(|t| t.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("invalid --p list {list:?}"))?,
    };
    let jobs = jobs_from(&args)?;

    // One operand pair and one reference serve every cell.
    let (a, b) = job::operands(n, SEED)?;
    let reference = gemm::reference(&a, &b);

    // Every (algorithm, p) cell is an independent simulated run; compute
    // them through the parallel grid driver (results come back in task
    // order, so the table below is identical at any --jobs value), then
    // print. A cell is its elapsed time, `None` where the algorithm
    // cannot take the shape, or the error that stops the sweep.
    let algos: Vec<Algorithm> = Algorithm::ALL
        .into_iter()
        .chain(Algorithm::EXTENSIONS)
        .collect();
    let tasks: Vec<(Algorithm, usize)> = algos
        .iter()
        .flat_map(|&algo| ps.iter().map(move |&p| (algo, p)))
        .collect();
    let cells = cubemm_harness::run_grid(&tasks, jobs, |&(algo, p)| {
        let job = Job {
            algo,
            n,
            p,
            seed: SEED,
            protection: Protection::Plain,
        };
        if job.check().is_err() {
            return Ok(None);
        }
        let res = algo.multiply(&a, &b, p, &cfg).map_err(|e| e.to_string())?;
        if job::accept(res.c.max_abs_diff(&reference), n) {
            Ok(Some(res.stats.elapsed))
        } else {
            Err(format!("{algo} produced a wrong product at p={p}"))
        }
    });

    // A failed cell stops the sweep before anything is printed.
    if let Some(Err(e)) = cells.iter().find(|cell| cell.is_err()) {
        return Err(e.clone());
    }
    println!(
        "sweep: n = {n}, {}, ts = {}, tw = {}",
        cfg.port, cfg.cost.ts, cfg.cost.tw
    );
    print!("{:<14}", "p =");
    for p in &ps {
        print!("{p:>10}");
    }
    println!();
    for (algo, row) in algos.iter().zip(cells.chunks(ps.len())) {
        print!("{:<14}", algo.name());
        for cell in row {
            match cell {
                Ok(Some(t)) => print!("{t:>10.0}"),
                // A failed cell returned above.
                Ok(None) | Err(_) => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    println!("all runs verified; '-' marks inapplicable shapes");
    Ok(0)
}
