//! The machine, kernel and fault flags `run` and `sweep` share.

use cubemm_core::MachineConfig;
use cubemm_simnet::{ChargePolicy, CorruptKind, Corruption, FaultEntry, FaultPlan, LinkQuality};

use crate::args::{parse_costs, parse_kernel, parse_port, Args};

/// Value flags [`machine_from`] reads: machine shape, costs, kernel and
/// the fault plan.
pub const MACHINE_FLAGS: &[&str] = &[
    "port",
    "ts",
    "tw",
    "charge",
    "kernel",
    "fault-plan",
    "fault-link",
    "fault-degrade",
    "fault-straggler",
    "fault-drop",
    "fault-corrupt",
    "fault-flip",
    "fault-crash",
    "fault-strict",
];

/// The machine the flags describe.
pub fn machine_from(args: &Args) -> Result<MachineConfig, String> {
    let charge = match args.raw("charge") {
        None | Some("sender") => ChargePolicy::SenderOnly,
        Some("symmetric") => ChargePolicy::Symmetric,
        Some(other) => {
            return Err(format!(
                "unknown charge policy {other:?} (sender|symmetric)"
            ))
        }
    };
    Ok(MachineConfig::builder()
        .port(parse_port(args.raw("port"))?)
        .costs(parse_costs(args)?)
        .kernel(parse_kernel(args.raw("kernel"))?)
        .charge(charge)
        .faults(faults_from(args)?)
        .build())
}

/// The colon-separated fields of one `--fault-*` spec, read in order.
struct SpecFields<'a>(std::str::Split<'a, char>);

impl SpecFields<'_> {
    fn next<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let f = self.0.next().unwrap_or_default();
        f.parse().map_err(|_| format!("invalid number {f:?}"))
    }
}

type SpecFn = fn(&mut SpecFields<'_>) -> Result<FaultEntry, String>;

/// The repeatable `--fault-*` flags (see `USAGE`) in the order they
/// apply: each one's field count and the [`FaultEntry`] its fields spell.
#[rustfmt::skip]
const FAULT_SPECS: [(&str, usize, SpecFn); 7] = [
    ("fault-link", 2, |f| Ok(FaultEntry::Dead { a: f.next()?, b: f.next()? })),
    ("fault-degrade", 4, |f| Ok(FaultEntry::Degraded { a: f.next()?, b: f.next()?,
        quality: LinkQuality { ts_factor: f.next()?, tw_factor: f.next()? }, window: None })),
    ("fault-straggler", 2, |f| Ok(FaultEntry::Straggler { node: f.next()?, slowdown: f.next()? })),
    ("fault-drop", 3, |f| Ok(FaultEntry::Drop { from: f.next()?, to: f.next()?, seq: f.next()? })),
    ("fault-corrupt", 5, |f| Ok(FaultEntry::Corrupt { from: f.next()?, to: f.next()?,
        seq: f.next()?, corruption: Corruption { word: f.next()?,
        kind: CorruptKind::Perturb { delta: f.next()? } } })),
    ("fault-flip", 5, |f| Ok(FaultEntry::Corrupt { from: f.next()?, to: f.next()?,
        seq: f.next()?, corruption: Corruption { word: f.next()?,
        kind: CorruptKind::BitFlip { bit: f.next()? } } })),
    ("fault-crash", 2, |f| Ok(FaultEntry::Crash { node: f.next()?, step: f.next()? })),
];

/// Builds the deterministic fault plan: `--fault-plan`'s entries, then
/// each `--fault-*` spec's, checked by the plan's own rules.
fn faults_from(args: &Args) -> Result<FaultPlan, String> {
    let file = match args.raw("fault-plan") {
        None => FaultPlan::new(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--fault-plan {path:?}: {e}"))?;
            FaultPlan::from_json(&text).map_err(|e| format!("--fault-plan {path:?}: {e}"))?
        }
    };
    let mut entries: Vec<FaultEntry> = file.entries().copied().collect();
    for (flag, fields, spell) in FAULT_SPECS {
        for spec in args.raw_all(flag) {
            let bad = |why: String| format!("--{flag} {spec:?}: {why}");
            if spec.split(':').count() != fields {
                return Err(bad(format!("expected {fields} colon-separated fields")));
            }
            let entry = spell(&mut SpecFields(spec.split(':'))).map_err(bad)?;
            entry.check().map_err(|e| bad(e.to_string()))?;
            entries.push(entry);
        }
    }
    let strict = args.raw("fault-strict").map_or(Ok(file.is_strict()), |v| {
        v.parse()
            .map_err(|_| format!("unknown --fault-strict value {v:?} (true|false)"))
    })?;
    FaultPlan::from_entries(&entries, strict).map_err(|e| e.to_string())
}
