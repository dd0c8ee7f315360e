//! The four workloads: what each one runs, generated from `--seed`.
//!
//! Why these four (the same reasons are in `BENCHMARK.json` and, at
//! length, in `benchmark/README.md`):
//!
//! * `run_compute` — 96×96 local blocks make the dense layer (packed
//!   kernel, host reference, fingerprint) nearly all of an op and the
//!   simulator a rounding error;
//! * `run_comm` — 4×4…16×16 blocks on 4096 nodes invert that: the
//!   simulator, the collectives and plan/payload handling are nearly
//!   all of an op, and half the ops run the multi-port schedules;
//! * `serve_mix` — sub-millisecond jobs through a live service, so
//!   parse/queue/cache/encode/flush and ABFT dominate and the kernel
//!   does little; a sixteenth of the jobs miss the machine cache;
//! * `chaos_certify` — the same layers used differently: a fault plan on
//!   every trial, traced probe runs, thousands of tiny machines, and the
//!   symbolic certifier.
//!
//! Every CLI op is spelled with documented flags only and every serve
//! job is written as JSON text, so the benchmark depends on the
//! program's front door and not on its internals.

use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RunCompute,
    RunComm,
    ServeMix,
    ChaosCertify,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RunCompute,
        Workload::RunComm,
        Workload::ServeMix,
        Workload::ChaosCertify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunCompute => "run_compute",
            Workload::RunComm => "run_comm",
            Workload::ServeMix => "serve_mix",
            Workload::ChaosCertify => "chaos_certify",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes the per-layer measurements are taken at: the
    /// workload's own `(n, p)`, and the `(n, p)` of the ABFT-protected
    /// multiplies it issues (`serve_mix` and `chaos_certify` issue
    /// them; the two `run_*` workloads do not, and borrow the service's
    /// typical job so the ABFT numbers exist everywhere).
    pub fn shape(self) -> Shape {
        match self {
            Workload::RunCompute => Shape {
                n: 768,
                p: 64,
                abft_n: 48,
                abft_p: 16,
            },
            Workload::RunComm => Shape {
                n: 256,
                p: 4096,
                abft_n: 48,
                abft_p: 16,
            },
            Workload::ServeMix => Shape {
                n: 48,
                p: 16,
                abft_n: 48,
                abft_p: 16,
            },
            Workload::ChaosCertify => Shape {
                n: 8,
                p: 64,
                abft_n: 6,
                abft_p: 64,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub n: usize,
    pub p: usize,
    pub abft_n: usize,
    pub abft_p: usize,
}

impl Shape {
    /// Side of the `√p × √p` grid.
    pub fn q(&self) -> usize {
        1 << (self.p.trailing_zeros() / 2)
    }

    /// Side of one node's square block on that grid.
    pub fn block(&self) -> usize {
        (self.n / self.q()).max(1)
    }
}

/// What one CLI op does, for the in-process replay of the same inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    Run {
        algo: &'static str,
        n: usize,
        p: usize,
        port: &'static str,
        seed: u64,
    },
    Chaos {
        algo: &'static str,
        seed: u64,
    },
    Certify,
}

/// One front-door operation: a `cubemm` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOp {
    /// Stable label of the op's kind within its workload
    /// (`cannon/one`, `chaos/hje`, `certify`).
    pub kind: String,
    /// Arguments after the program name.
    pub args: Vec<String>,
    pub spec: OpSpec,
}

const RUN_COMPUTE_ALGOS: [&str; 6] = ["cannon", "3dd", "3d-all", "dns", "berntsen", "hje"];

const RUN_COMM_OPS: [(&str, &str); 8] = [
    ("cannon", "one"),
    ("3d-all", "one"),
    ("simple", "one"),
    ("3d-all-trans", "one"),
    ("3dd", "multi"),
    ("dns", "multi"),
    ("berntsen", "multi"),
    ("diag2d", "multi"),
];

const CHAOS_ALGOS: [&str; 14] = [
    "simple",
    "cannon",
    "hje",
    "berntsen",
    "dns",
    "diag2d",
    "3dd",
    "3d-all-trans",
    "3d-all",
    "dns-cannon",
    "3d-all-cannon",
    "3d-all-flat",
    "cannon-torus",
    "fox",
];

/// Chaos seeds a run alternates between, cycle by cycle. More than one
/// so a run averages over campaigns of different cost; few enough that
/// every seed repeats within a run and its output can be compared byte
/// for byte.
const CHAOS_SEED_POOL: usize = 3;

const SALT_OPERANDS: u64 = 1;
const SALT_CHAOS: u64 = 2;
const SALT_ORDER: u64 = 3;
const SALT_SERVE: u64 = 4;

fn run_op(algo: &'static str, n: usize, p: usize, port: &'static str, seed: u64) -> CliOp {
    let args = [
        "run",
        "--algo",
        algo,
        "--n",
        &n.to_string(),
        "--p",
        &p.to_string(),
        "--port",
        port,
        "--seed",
        &seed.to_string(),
    ];
    CliOp {
        kind: format!("{algo}/{port}"),
        args: args.iter().map(|s| s.to_string()).collect(),
        spec: OpSpec::Run {
            algo,
            n,
            p,
            port,
            seed,
        },
    }
}

/// The ops of cycle `cycle` of a CLI workload, in canonical (unshuffled)
/// order. Operand seeds are fixed per op kind for the whole run, so
/// every repeat of a kind must print the same fingerprint and virtual
/// time; chaos seeds rotate through a small pool.
///
/// # Panics
/// Panics for `serve_mix`, whose operations are jobs, not CLI ops.
pub fn canonical_cycle(workload: Workload, seed: u64, cycle: usize) -> Vec<CliOp> {
    let operand_seed =
        |kind: usize| 1 + Rng::fork(seed, SALT_OPERANDS + 16 * kind as u64).below(1_000_000) as u64;
    match workload {
        Workload::RunCompute => RUN_COMPUTE_ALGOS
            .iter()
            .enumerate()
            .map(|(k, algo)| run_op(algo, 768, 64, "one", operand_seed(k)))
            .collect(),
        Workload::RunComm => RUN_COMM_OPS
            .iter()
            .enumerate()
            .map(|(k, (algo, port))| run_op(algo, 256, 4096, port, operand_seed(k)))
            .collect(),
        Workload::ChaosCertify => {
            let slot = (cycle % CHAOS_SEED_POOL) as u64;
            let chaos_seed = Rng::fork(seed, SALT_CHAOS + 16 * slot).below(1 << 31) as u64;
            let mut ops: Vec<CliOp> = CHAOS_ALGOS
                .iter()
                .map(|algo| CliOp {
                    kind: format!("chaos/{algo}"),
                    args: ["chaos", algo, "--seed", &chaos_seed.to_string()]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    spec: OpSpec::Chaos {
                        algo,
                        seed: chaos_seed,
                    },
                })
                .collect();
            ops.push(CliOp {
                kind: "certify".to_string(),
                args: ["analyze", "all", "--symbolic"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                spec: OpSpec::Certify,
            });
            ops
        }
        Workload::ServeMix => panic!("serve_mix has jobs, not CLI ops"),
    }
}

/// Cycle `cycle` in the order it is issued: the canonical cycle,
/// shuffled by the seed.
pub fn shuffled_cycle(workload: Workload, seed: u64, cycle: usize) -> Vec<CliOp> {
    let mut ops = canonical_cycle(workload, seed, cycle);
    Rng::fork(seed, SALT_ORDER + 16 * cycle as u64).shuffle(&mut ops);
    ops
}

/// The seeded stream of `serve_mix` jobs, one JSON request line each:
/// `n ∈ {16,32,48,64} × p ∈ {4,16,64} × algo ∈ {auto, cannon, simple,
/// 3dd (p = 64 only)} × port ∈ {one, multi}`, one job in eight without
/// ABFT (verified against the host reference instead), one in sixteen
/// with a `(ts, tw)` no earlier job used, which is a guaranteed miss in
/// the pool's machine cache. All jobs are fault-free and valid, so
/// every one must be answered `ok`.
pub struct ServeDraw {
    rng: Rng,
    issued: u64,
    unique_costs: u64,
}

impl ServeDraw {
    pub fn new(seed: u64) -> ServeDraw {
        ServeDraw {
            rng: Rng::fork(seed, SALT_SERVE),
            issued: 0,
            unique_costs: 0,
        }
    }

    /// The id the next job will carry.
    pub fn next_id(&self) -> u64 {
        self.issued
    }

    pub fn next_line(&mut self) -> String {
        let id = self.issued;
        self.issued += 1;
        let n = [16, 32, 48, 64][self.rng.below(4)];
        let p = [4, 16, 64][self.rng.below(3)];
        let algo = match self.rng.below(4) {
            0 => "auto",
            1 => "cannon",
            2 => "simple",
            _ if p == 64 => "3dd",
            _ => "auto",
        };
        let port = ["one", "multi"][self.rng.below(2)];
        let seed = 1 + self.rng.below(1000);
        let mut line = format!(
            r#"{{"id":"j{id}","n":{n},"p":{p},"algo":"{algo}","port":"{port}","seed":{seed}"#
        );
        if self.rng.below(8) == 0 {
            line.push_str(r#","abft":false"#);
        }
        if self.rng.below(16) == 0 {
            self.unique_costs += 1;
            // k/1024 is exact in binary, so the text round-trips and no
            // two jobs share a cost pair.
            let ts = 150.0 + self.unique_costs as f64 / 1024.0;
            line.push_str(&format!(r#","ts":{ts},"tw":3"#));
        }
        line.push('}');
        line
    }
}

/// Parses the numeric suffix of a job id (`"j17"` → 17).
pub fn job_index(id: &str) -> Option<u64> {
    id.strip_prefix('j')?.parse().ok()
}
