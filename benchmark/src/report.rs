//! Result lines, result files, and `--compare`.
//!
//! A result file holds the host record, the seed, and for every workload
//! measured its end-to-end pass (`"end_to_end"`) and/or traced pass
//! (`"per_layer"`). `--compare A.json B.json` holds two such files
//! against each other with the bounds and directions of
//! `BENCHMARK.json`, the one place those are written down.

use crate::json::{self, Json};
use crate::layers::Metrics;

/// One finished pass of one workload.
pub struct PassResult {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub metrics: Metrics,
    /// Measurements that are not contract metrics (sample counts,
    /// per-kind medians, serve p99, ...), kept in the result file.
    pub extras: Vec<(String, Json)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl PassResult {
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })
                .collect(),
        )
    }

    /// Holds the metrics of this pass against the list `BENCHMARK.json`
    /// declares for it: a declared metric that was not measured, or a
    /// measured one that is not declared, is a failure of the run.
    pub fn check_declared(&mut self, spec_text: &str) {
        let declared = match declared_metrics(spec_text) {
            Ok((_, per_layer)) if self.traced => per_layer,
            Ok((end_to_end, _)) => end_to_end,
            Err(why) => return self.failures.push(why),
        };
        for d in &declared {
            match self.metrics.0.iter().find(|(n, _, _)| *n == d.name) {
                None => self.failures.push(format!(
                    "metric {} is declared but was not measured",
                    d.name
                )),
                Some((_, _, unit)) if *unit != d.unit => self.failures.push(format!(
                    "metric {} is measured in {unit} but declared in {}",
                    d.name, d.unit
                )),
                Some(_) => {}
            }
        }
        for (name, _, _) in &self.metrics.0 {
            if !declared.iter().any(|d| d.name == *name) {
                self.failures
                    .push(format!("metric {name} is measured but not declared"));
            }
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", self.metrics_json()),
        ])
        .encode()
    }

    /// Every metric by name with its unit, then what failed, op by op.
    pub fn print_table(&self) {
        println!(
            "{} — {} pass, seed {}, {} s",
            self.workload,
            if self.traced { "traced" } else { "front-door" },
            self.seed,
            self.seconds
        );
        for (name, value, unit) in &self.metrics.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        for (name, value) in &self.extras {
            if let Json::Num(x) = value {
                println!("  ({name:<32} {x:>16.6})");
            }
        }
        println!("  attempted {}, failed {}", self.attempted, self.failed());
        for failure in self.failures.iter().take(20) {
            println!("  FAILED {failure}");
        }
        if self.failures.len() > 20 {
            println!("  ... and {} more", self.failures.len() - 20);
        }
    }

    fn pass_json(&self) -> Json {
        Json::obj([
            ("seconds", Json::Num(self.seconds)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", self.metrics_json()),
            ("extras", Json::Obj(self.extras.clone())),
        ])
    }

    /// A whole result file holding just this pass.
    pub fn file_json(&self, host: Json) -> Json {
        let key = if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        Json::obj([
            ("benchmark", Json::str("cubemm")),
            ("host", host),
            ("seed", Json::Num(self.seed as f64)),
            (
                "workloads",
                Json::obj([(self.workload, Json::obj([(key, self.pass_json())]))]),
            ),
        ])
    }
}

/// Merges result files (as produced by [`PassResult::file_json`]) into
/// one: host and seed from the first, every workload's passes side by
/// side.
pub fn merge_files(files: &[Json]) -> Json {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for file in files {
        for (name, passes) in file.get("workloads").map_or(&[][..], Json::fields) {
            let at = match workloads.iter().position(|(n, _)| n == name) {
                Some(at) => at,
                None => {
                    workloads.push((name.clone(), Json::Obj(Vec::new())));
                    workloads.len() - 1
                }
            };
            if let Json::Obj(into) = &mut workloads[at].1 {
                into.extend(passes.fields().iter().cloned());
            }
        }
    }
    let first = files.first();
    let pick = |key: &str| {
        first
            .and_then(|f| f.get(key))
            .cloned()
            .unwrap_or(Json::Null)
    };
    Json::obj([
        ("benchmark", Json::str("cubemm")),
        ("host", pick("host")),
        ("seed", pick("seed")),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// A metric declared in `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

fn declared(spec: &Json, key: &str) -> Result<Vec<Declared>, String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// The end-to-end and per-layer metrics `BENCHMARK.json` declares.
pub fn declared_metrics(spec_text: &str) -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let spec = json::parse(spec_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok((
        declared(&spec, "end_to_end")?,
        declared(&spec, "per_layer")?,
    ))
}

/// Units whose values are exact: computed, or read from the simulator's
/// own statistics. Two runs of one commit and seed must agree on them to
/// the last digit, and so must any change that claims to be
/// behaviour-preserving.
pub fn is_exact_unit(unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "vtime")
}

fn metric_value(file: &Json, workload: &str, pass: &str, name: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn pass_failed(file: &Json, workload: &str, pass: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("failed")?
        .as_f64()
}

/// Compares result file `b` against baseline `a`. Prints one row per
/// (workload, end-to-end metric) with both values, the relative
/// difference and the bound, then every exact count that differs.
/// Returns whether `b` is acceptable: no end-to-end metric worse than
/// its bound, no more failed ops than `a` on any workload, every exact
/// count identical.
pub fn compare(a: &Json, b: &Json, spec_text: &str) -> Result<bool, String> {
    let (end_to_end, per_layer) = declared_metrics(spec_text)?;
    let mut ok = true;
    let mut rows = 0;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (workload, _) in a.get("workloads").map_or(&[][..], Json::fields) {
        for metric in &end_to_end {
            let (Some(va), Some(vb)) = (
                metric_value(a, workload, "end_to_end", &metric.name),
                metric_value(b, workload, "end_to_end", &metric.name),
            ) else {
                continue;
            };
            rows += 1;
            let diff = (vb - va) / va;
            let worse = if metric.higher_is_better { -diff } else { diff };
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = if worse > bound {
                ok = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{workload:<14} {:<14} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%  {verdict}",
                metric.name,
                diff * 100.0,
                bound * 100.0
            );
        }
        for pass in ["end_to_end", "per_layer"] {
            if let (Some(fa), Some(fb)) = (
                pass_failed(a, workload, pass),
                pass_failed(b, workload, pass),
            ) {
                rows += 1;
                if fb > fa {
                    ok = false;
                    println!(
                        "{workload:<14} failed ops ({pass}) rose from {fa} to {fb}  REGRESSED"
                    );
                }
            }
        }
        for metric in per_layer.iter().filter(|m| is_exact_unit(&m.unit)) {
            if let (Some(va), Some(vb)) = (
                metric_value(a, workload, "per_layer", &metric.name),
                metric_value(b, workload, "per_layer", &metric.name),
            ) {
                rows += 1;
                if va != vb {
                    ok = false;
                    println!(
                        "{workload:<14} exact count {} differs: {va} vs {vb}  MISMATCH",
                        metric.name
                    );
                }
            }
        }
    }
    if rows == 0 {
        return Err("the two files share no workload and pass to compare".into());
    }
    println!(
        "{}",
        if ok {
            "compare: B is within every bound of A and every exact count matches"
        } else {
            "compare: B is NOT acceptable against A"
        }
    );
    Ok(ok)
}
