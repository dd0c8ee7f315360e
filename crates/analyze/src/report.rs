//! Human-readable rendering of analysis results (the `cubemm analyze`
//! report format).

use cubemm_simnet::PortModel;

use crate::check::Analysis;
use crate::symbolic::AlgoAnalysis;

fn port_name(port: PortModel) -> &'static str {
    match port {
        PortModel::OnePort => "one-port",
        PortModel::MultiPort => "multi-port",
    }
}

/// Renders the per-phase body shared by all reports.
pub fn render_analysis(out: &mut String, analysis: &Analysis) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "  schedule: {} rounds, {} messages, {} words",
        analysis.rounds, analysis.messages, analysis.words
    );
    if analysis.is_certified() {
        let _ = writeln!(
            out,
            "  checks:   certified — deadlock-free, matched volumes, legal {} rounds",
            port_name(analysis.port)
        );
    } else if analysis.is_sound() {
        let _ = writeln!(
            out,
            "  checks:   sound (deadlock-free, matched volumes) — {} bandwidth finding(s): \
             contended links serialize",
            analysis.diagnostics.len()
        );
        for d in &analysis.diagnostics {
            let _ = writeln!(out, "    - {d}");
        }
    } else {
        let _ = writeln!(out, "  checks:   {} FINDINGS", analysis.diagnostics.len());
        for d in &analysis.diagnostics {
            let _ = writeln!(out, "    - {d}");
        }
    }
    match analysis.cost {
        Some(cost) => {
            let _ = writeln!(out, "  cost:     a = {}, b = {}", cost.a, cost.b);
        }
        None => {
            let _ = writeln!(out, "  cost:     unavailable (schedule cannot complete)");
        }
    }
    for ph in &analysis.phases {
        let _ = writeln!(
            out,
            "  phase {:>2}: {:>6} msgs, {:>9} words, rounds {:>3}..{}",
            ph.phase, ph.messages, ph.words, ph.first_round, ph.last_round
        );
    }
}

/// Renders one analyzed algorithm instance as the CLI report block.
pub fn render(r: &AlgoAnalysis) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{} n={} p={} {}", r.algo, r.n, r.p, port_name(r.port));
    render_analysis(&mut out, &r.analysis);
    let _ = match (r.predicted, &r.verdict) {
        (Some(o), Some(v)) => writeln!(out, "  predicted: a = {}, b = {}  =>  {v}", o.a, o.b),
        (Some(o), None) => writeln!(out, "  predicted: a = {}, b = {}", o.a, o.b),
        (None, _) => writeln!(out, "  predicted: none (no closed form at this point)"),
    };
    out
}
