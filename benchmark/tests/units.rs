//! Unit tests of the benchmark's own arithmetic and generators — the
//! parts a wrong answer from which would silently bend every number.
//! Nothing here runs the program under test.

use std::time::Instant;

use cubemm_benchmark::frontdoor::Inflight;
use cubemm_benchmark::json::{self, Json};
use cubemm_benchmark::report;
use cubemm_benchmark::span::{op_breakdowns, self_times_ns, Span, Tracer};
use cubemm_benchmark::stats::{median, percentile, samples_beyond};
use cubemm_benchmark::workloads::{
    canonical_cycle, job_index, shuffled_cycle, OpSpec, ServeDraw, Workload,
};

#[test]
fn percentile_interpolates_between_the_closest_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(percentile(&v, 0.0), Some(10.0));
    assert_eq!(percentile(&v, 1.0), Some(40.0));
    // Even count: the median is the midpoint of the two middle samples.
    assert_eq!(percentile(&v, 0.5), Some(25.0));
    // Position 0.9 · 3 = 2.7: seven tenths of the way from 30 to 40.
    assert!((percentile(&v, 0.9).unwrap() - 37.0).abs() < 1e-12);
    assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
    // Out-of-range quantiles clamp instead of indexing out of bounds.
    assert_eq!(percentile(&v, 1.5), Some(40.0));
    assert_eq!(percentile(&v, -1.0), Some(10.0));
}

#[test]
fn median_sorts_first_and_handles_odd_and_even_counts() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&mut []), None);
}

#[test]
fn samples_beyond_counts_what_lies_past_the_quantile() {
    // 101 samples: p90 sits on index 90, ten samples lie beyond it.
    assert_eq!(samples_beyond(101, 0.9), 10);
    // 100 000 serve jobs leave a thousand beyond p99.
    assert_eq!(samples_beyond(100_001, 0.99), 1000);
    assert_eq!(samples_beyond(1, 0.9), 0);
    assert_eq!(samples_beyond(0, 0.9), 0);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_is_duration_minus_covered_child_time() {
    let spans = [
        span("op", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 40, 90, Some(0)),
        span("b.inner", 50, 60, Some(2)),
    ];
    // op: 100 − (20 + 50); a: leaf; b: 50 − 10; inner: leaf.
    assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
}

#[test]
fn self_time_counts_overlapping_and_overhanging_children_once() {
    let spans = [
        span("op", 100, 200, None),
        // Overlapping children cover 110..160 together, not 30 + 40.
        span("a", 110, 140, Some(0)),
        span("b", 120, 160, Some(0)),
        // A child that overhangs its parent is clipped to it.
        span("c", 190, 250, Some(0)),
    ];
    assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
}

#[test]
fn tracer_records_nesting_and_op_ids_and_nothing_when_disabled() {
    let mut tr = Tracer::new(true);
    tr.set_op(7);
    let out = tr.span("op", |tr| tr.span("child", |_| 41) + 1);
    assert_eq!(out, 42);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(
        (spans[0].name, spans[0].parent, spans[0].op),
        ("op", None, 7)
    );
    assert_eq!(
        (spans[1].name, spans[1].parent, spans[1].op),
        ("child", Some(0), 7)
    );
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let breakdowns = op_breakdowns(spans);
    assert_eq!(breakdowns.len(), 1);
    assert_eq!(breakdowns[0].op, 7);
    assert_eq!(breakdowns[0].root_ns, spans[0].duration_ns());
    assert_eq!(
        breakdowns[0].children,
        vec![("child", spans[1].duration_ns())]
    );

    let mut off = Tracer::new(false);
    assert_eq!(off.span("op", |tr| tr.span("child", |_| 1)), 1);
    assert!(off.spans().is_empty());
}

#[test]
fn op_lists_depend_on_the_seed_and_on_nothing_else() {
    for workload in [
        Workload::RunCompute,
        Workload::RunComm,
        Workload::ChaosCertify,
    ] {
        for cycle in 0..4 {
            assert_eq!(
                shuffled_cycle(workload, 5, cycle),
                shuffled_cycle(workload, 5, cycle)
            );
            // A shuffled cycle is a permutation of the canonical one.
            let mut shuffled = shuffled_cycle(workload, 5, cycle);
            let mut canonical = canonical_cycle(workload, 5, cycle);
            shuffled.sort_by(|a, b| a.kind.cmp(&b.kind));
            canonical.sort_by(|a, b| a.kind.cmp(&b.kind));
            assert_eq!(shuffled, canonical);
        }
        assert_ne!(
            canonical_cycle(workload, 5, 0),
            canonical_cycle(workload, 6, 0),
            "{}: the seed must reach the program's inputs",
            workload.name()
        );
        // Some pair of cycles is issued in different orders.
        assert!((1..8).any(|c| {
            let kinds = |c| -> Vec<String> {
                shuffled_cycle(workload, 5, c)
                    .into_iter()
                    .map(|op| op.kind)
                    .collect()
            };
            kinds(0) != kinds(c)
        }));
    }
    assert_eq!(canonical_cycle(Workload::RunCompute, 1, 0).len(), 6);
    assert_eq!(canonical_cycle(Workload::RunComm, 1, 0).len(), 8);
    assert_eq!(canonical_cycle(Workload::ChaosCertify, 1, 0).len(), 15);
}

#[test]
fn run_ops_keep_their_operands_across_cycles_and_chaos_seeds_repeat() {
    // Operand seeds are fixed per kind, so every repeat of a `run` op
    // must print the same fingerprint.
    assert_eq!(
        canonical_cycle(Workload::RunComm, 9, 0),
        canonical_cycle(Workload::RunComm, 9, 3)
    );
    // Chaos seeds rotate through a pool of three: consecutive cycles
    // differ, and a seed comes back so its output can be compared.
    let chaos_seed = |cycle| match canonical_cycle(Workload::ChaosCertify, 9, cycle)[0].spec {
        OpSpec::Chaos { seed, .. } => seed,
        _ => panic!("first op of a chaos cycle is a campaign"),
    };
    assert_ne!(chaos_seed(0), chaos_seed(1));
    assert_eq!(chaos_seed(0), chaos_seed(3));
}

#[test]
fn cli_ops_use_documented_flags_only() {
    let op = &canonical_cycle(Workload::RunComm, 1, 0)[4];
    assert_eq!(op.kind, "3dd/multi");
    assert_eq!(
        op.args[..9],
        ["run", "--algo", "3dd", "--n", "256", "--p", "4096", "--port", "multi"].map(String::from)
    );
    assert_eq!(op.args[9], "--seed");
    let certify = canonical_cycle(Workload::ChaosCertify, 1, 0).pop().unwrap();
    assert_eq!(certify.args, ["analyze", "all", "--symbolic"]);
}

#[test]
fn serve_draw_is_seeded_and_every_line_is_a_valid_fault_free_request() {
    let lines = |seed| -> Vec<String> {
        let mut draw = ServeDraw::new(seed);
        (0..2000).map(|_| draw.next_line()).collect()
    };
    let a = lines(3);
    assert_eq!(a, lines(3));
    assert_ne!(a, lines(4));

    let mut unique_costs = std::collections::BTreeSet::new();
    let (mut unprotected, mut cache_missing) = (0, 0);
    for (i, line) in a.iter().enumerate() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(
            doc.get("id").and_then(Json::as_str).and_then(job_index),
            Some(i as u64)
        );
        let n = doc.get("n").and_then(Json::as_f64).unwrap();
        let p = doc.get("p").and_then(Json::as_f64).unwrap();
        assert!([16.0, 32.0, 48.0, 64.0].contains(&n) && [4.0, 16.0, 64.0].contains(&p));
        let algo = doc.get("algo").and_then(Json::as_str).unwrap();
        assert!(["auto", "cannon", "simple", "3dd"].contains(&algo));
        assert!(algo != "3dd" || p == 64.0, "3dd only on the 4×4×4 machine");
        assert!(doc.get("faults").is_none());
        unprotected += usize::from(doc.get("abft") == Some(&Json::Bool(false)));
        if let Some(ts) = doc.get("ts").and_then(Json::as_f64) {
            cache_missing += 1;
            assert!(unique_costs.insert(ts.to_bits()), "(ts, tw) pair repeated");
        }
    }
    // One in eight and one in sixteen, give or take sampling.
    assert!((150..350).contains(&unprotected), "{unprotected}");
    assert!((60..200).contains(&cache_missing), "{cache_missing}");
}

#[test]
fn responses_match_only_jobs_in_flight() {
    let mut inflight = Inflight::default();
    let t = Instant::now();
    inflight.sent(4, t);
    inflight.sent(5, t);
    assert_eq!(inflight.len(), 2);
    // Out-of-order completion is fine; the id picks the job.
    assert_eq!(inflight.answered(5), Some(t));
    // Answered twice, or never sent: matches nothing.
    assert_eq!(inflight.answered(5), None);
    assert_eq!(inflight.answered(99), None);
    assert_eq!(inflight.answered(4), Some(t));
    assert!(inflight.is_empty());

    assert_eq!(job_index("j17"), Some(17));
    assert_eq!(job_index("17"), None);
    assert_eq!(job_index("jx"), None);
    assert_eq!(job_index(""), None);
}

#[test]
fn json_round_trips_and_rejects_garbage() {
    let text = r#"{"id":"j1","ok":true,"x":-1.5e3,"s":"a\"b\\c\n","arr":[1,null,{"k":[]}]}"#;
    let doc = json::parse(text).unwrap();
    assert_eq!(doc.get("x").and_then(Json::as_f64), Some(-1500.0));
    assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\"b\\c\n"));
    assert_eq!(json::parse(&doc.encode()).unwrap(), doc);
    assert_eq!(json::parse(&doc.encode_pretty()).unwrap(), doc);
    // Numbers keep every digit.
    assert_eq!(Json::Num(0.1 + 0.2).encode(), "0.30000000000000004");
    assert_eq!(Json::Num(f64::NAN).encode(), "null");
    for bad in ["", "{", r#"{"a":}"#, "[1,]", r#""open"#, "1 2", "nul"] {
        assert!(json::parse(bad).is_err(), "{bad:?} must not parse");
    }
    let deep = "[".repeat(1000) + &"]".repeat(1000);
    assert!(json::parse(&deep).is_err(), "nesting is bounded");
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_the_program_knows() {
    let text = benchmark_json();
    let spec = json::parse(&text).unwrap();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);

    let (end_to_end, per_layer) = report::declared_metrics(&text).unwrap();
    let names: Vec<&str> = end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, cubemm_benchmark::endtoend::METRICS);
    let setup = end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(!setup.higher_is_better && setup.unit == "s");
    for m in &end_to_end {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        assert!(
            bound <= setup.bound.unwrap(),
            "setup_s has the largest bound"
        );
    }
    assert!(per_layer.iter().all(|m| m.bound.is_none()));
    assert!(per_layer.iter().any(|m| report::is_exact_unit(&m.unit)));
}

fn result_file(ops_per_s: f64, messages: f64, failed: f64) -> Json {
    let metric =
        |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
    let pass = |metrics: Json| Json::obj([("failed", Json::Num(failed)), ("metrics", metrics)]);
    Json::obj([(
        "workloads",
        Json::obj([(
            "run_comm",
            Json::obj([
                (
                    "end_to_end",
                    pass(Json::obj([("ops_per_s", metric(ops_per_s, "1/s"))])),
                ),
                (
                    "per_layer",
                    pass(Json::obj([("simnet.messages", metric(messages, "count"))])),
                ),
            ]),
        )]),
    )])
}

#[test]
fn compare_applies_bounds_directions_exact_counts_and_failures() {
    let spec = benchmark_json();
    let base = result_file(4.0, 1000.0, 0.0);
    // Identical files agree.
    assert_eq!(report::compare(&base, &base, &spec), Ok(true));
    // Throughput is better when higher: a large gain passes, a loss
    // beyond the bound does not.
    assert_eq!(
        report::compare(&base, &result_file(8.0, 1000.0, 0.0), &spec),
        Ok(true)
    );
    assert_eq!(
        report::compare(&base, &result_file(2.0, 1000.0, 0.0), &spec),
        Ok(false)
    );
    // An exact count that moves fails however small the move.
    assert_eq!(
        report::compare(&base, &result_file(4.0, 1001.0, 0.0), &spec),
        Ok(false)
    );
    // More failed ops than the baseline fails.
    assert_eq!(
        report::compare(&base, &result_file(4.0, 1000.0, 1.0), &spec),
        Ok(false)
    );
    // Nothing in common is an error, not a pass.
    assert!(report::compare(&base, &Json::obj([("workloads", Json::Obj(vec![]))]), &spec).is_err());
}
