//! `cubemm-benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! cubemm-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! cubemm-benchmark --workload all --seed N [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! cubemm-benchmark --compare A.json B.json
//! ```
//!
//! One workload and one pass per process, so the memory high-water mark
//! belongs to that workload; `all` runs this program once per workload
//! and pass and merges the result files. The last line of standard
//! output of a single pass is its result as one JSON object.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cubemm_benchmark::endtoend::front_door_pass;
use cubemm_benchmark::frontdoor::{FrontDoor, SERVE_SETUP_REPS, SETUP_REPS};
use cubemm_benchmark::host;
use cubemm_benchmark::json::{self, Json};
use cubemm_benchmark::report;
use cubemm_benchmark::traced::traced_pass;
use cubemm_benchmark::workloads::Workload;

const USAGE: &str = "\
usage: cubemm-benchmark --workload <run_compute|run_comm|serve_mix|chaos_certify|all>
                        [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
       cubemm-benchmark --compare A.json B.json
  --seconds S   length of the timed phase (default 15; --quick: 2 and one set-up)
  --trace 0     front-door pass: end-to-end metrics, tracing off
  --trace 1     traced pass: in-process replay under spans, per-layer metrics
                (`all` without --trace runs both passes)
  --out FILE    where the result file goes (default benchmark/out/result-*.json)
run from the repository root, after `cargo build --release -p cubemm-cli`
(`bash benchmark/run.sh ...` does both builds first)";

struct Options {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn write_file(path: &PathBuf, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.encode_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn default_out(workload: &str, traced: bool) -> PathBuf {
    PathBuf::from(format!(
        "benchmark/out/result-{workload}-t{}.json",
        u8::from(traced)
    ))
}

/// One pass of one workload in this process.
fn run_one(workload: Workload, opts: &Options) -> Result<(), String> {
    let fd = FrontDoor::new()?;
    // The children get these through `FrontDoor`; this process needs
    // them too, so the in-process replay resolves the same blocking and
    // microkernel as the program it is compared with.
    std::env::set_var("CUBEMM_TUNE_FILE", fd.absent_tune_file());
    std::env::remove_var("CUBEMM_FORCE_SCALAR");

    let seconds = opts.seconds.unwrap_or(if opts.quick { 2.0 } else { 15.0 });
    let traced = opts.trace.unwrap_or(false);
    let mut result = if traced {
        let (result, tracer) = traced_pass(&fd, workload, opts.seed, seconds);
        let trace_path = PathBuf::from(format!("benchmark/out/trace-{}.json", workload.name()));
        write_file(&trace_path, &tracer.to_json(workload.name()))?;
        result
    } else {
        let setup_reps = match workload {
            _ if opts.quick => 1,
            Workload::ServeMix => SERVE_SETUP_REPS,
            _ => SETUP_REPS,
        };
        front_door_pass(&fd, workload, opts.seed, seconds, setup_reps)
    };
    drop(fd);
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(spec) => result.check_declared(&spec),
        Err(e) => {
            return Err(format!(
                "reading BENCHMARK.json (run from the repository root): {e}"
            ))
        }
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| default_out(workload.name(), traced));
    write_file(&out, &result.file_json(host::host_record()))?;
    result.print_table();
    println!("result file: {}", out.display());
    println!("{}", result.result_line());
    Ok(())
}

/// Every workload, each pass in a process of its own, merged into one
/// result file.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let passes: &[bool] = match opts.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut files = Vec::new();
    let mut all_correct = true;
    for &traced in passes {
        for workload in Workload::ALL {
            let part = default_out(workload.name(), traced);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if let Some(s) = opts.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if opts.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("running {}: {e}", workload.name()))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {}) exited with {status}",
                    workload.name(),
                    u8::from(traced)
                ));
            }
            let file = read_json(&part.to_string_lossy())?;
            let pass = if traced { "per_layer" } else { "end_to_end" };
            let failed = file
                .get("workloads")
                .and_then(|w| w.get(workload.name()))
                .and_then(|w| w.get(pass))
                .and_then(|p| p.get("failed"))
                .and_then(Json::as_f64);
            all_correct &= failed == Some(0.0);
            files.push(file);
        }
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out/result-all.json"));
    write_file(&out, &report::merge_files(&files))?;
    println!("merged result file: {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let verdict = read_json(a).and_then(|a| {
            let b = read_json(b)?;
            let spec = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
                format!("reading BENCHMARK.json (run from the repository root): {e}")
            })?;
            report::compare(&a, &b, &spec)
        });
        return match verdict {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(why) => {
                eprintln!("error: {why}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.workload == "all" {
        run_all(&opts).map(|correct| if correct { 0 } else { 1 })
    } else {
        match Workload::parse(&opts.workload) {
            Some(workload) => run_one(workload, &opts).map(|()| 0),
            None => Err(format!("unknown workload {:?}\n{USAGE}", opts.workload)),
        }
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
