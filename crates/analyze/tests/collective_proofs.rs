//! Static certification of the seven collectives, straight from their
//! schemas' expansion: deadlock-free, port-legal, and exactly on the
//! Table 1 closed forms — all without compiling a plan, materialising a
//! payload or executing a single message.

use cubemm_analyze::{analyze, expand_collective, table1, Schedule, Strictness};
use cubemm_collectives::{CollKind, CollSchema};
use cubemm_simnet::PortModel;

/// `m = 60` divides evenly by every `d ∈ 1..=6`, keeping the multi-port
/// slice arithmetic — and with it the Table 1 equality — exact.
const M: usize = 60;

fn expansion(kind: CollKind, port: PortModel, d: u32) -> Schedule {
    expand_collective(&CollSchema::reference(kind), port, d, M, 0, 0)
}

fn check(kind: CollKind, port: PortModel, d: u32) {
    let strict = match port {
        // One-port Johnsson–Ho schedules claim one transfer per round.
        PortModel::OnePort => Strictness::StrictOnePort,
        PortModel::MultiPort => Strictness::Serialized,
    };
    let a = analyze(&expansion(kind, port, d), port, strict);
    assert!(
        a.is_certified(),
        "{} {port:?} d={d}: {:?}",
        kind.name(),
        a.diagnostics
    );
    let Some(cost) = a.cost else {
        panic!("certified schedules complete");
    };
    let (ea, eb) = table1(kind, port, d, M);
    assert!(
        (cost.a - ea).abs() < 1e-9 && (cost.b - eb).abs() < 1e-9,
        "{} {port:?} d={d}: extracted (a={}, b={}), Table 1 says (a={ea}, b={eb})",
        kind.name(),
        cost.a,
        cost.b
    );
}

#[test]
fn all_collectives_certify_and_hit_table1_one_port() {
    for kind in CollKind::ALL {
        for d in 1..=6 {
            check(kind, PortModel::OnePort, d);
        }
    }
}

#[test]
fn all_collectives_certify_and_hit_table1_multi_port() {
    for kind in CollKind::ALL {
        for d in 1..=6 {
            check(kind, PortModel::MultiPort, d);
        }
    }
}

#[test]
fn multi_port_schedules_drive_all_links_concurrently() {
    // The multi-port all-gather's d rotated copies must finish in the
    // same wall-clock startups as one copy: a = d, not d².
    let d = 4;
    let s = expansion(CollKind::Allgather, PortModel::MultiPort, d);
    let a = analyze(&s, PortModel::MultiPort, Strictness::Serialized);
    assert!(a.is_certified(), "{:?}", a.diagnostics);
    assert_eq!(a.cost.unwrap().a, f64::from(d));
}
