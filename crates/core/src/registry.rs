//! Uniform dispatch over all implemented algorithms.
//!
//! Every algorithm is described by one row of the const
//! [`DESCRIPTORS`] table — name, applicability check, multiply entry
//! point, grouping and the Table 2 row it implements — and everything
//! else (`name`/`check`/`multiply` dispatch, [`Algorithm::ALL`],
//! [`Algorithm::EXTENSIONS`], [`Algorithm::COMPARED`], `FromStr`)
//! derives from that table. Adding an algorithm means adding
//! one enum variant and one table row; a mismatch between the two is a
//! compile-time error (array lengths) or caught by the
//! `table_is_aligned_with_enum` test.

use cubemm_dense::Matrix;
use cubemm_model::ModelAlgo;

use crate::dns_cannon::mesh_split;
use crate::{AlgoError, MachineConfig, RunResult};

/// Every implemented distributed multiplication algorithm: the paper's
/// nine ([`Algorithm::ALL`]) plus the extension and baseline set
/// ([`Algorithm::EXTENSIONS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Row/column all-to-all broadcast (§3.1).
    Simple,
    /// Cannon's algorithm in hypercube XOR/Gray form (§3.2).
    Cannon,
    /// Ho–Johnsson–Edelman full-bandwidth Cannon (§3.3).
    Hje,
    /// Berntsen's subcube outer products (§3.4).
    Berntsen,
    /// Dekel–Nassimi–Sahni 3-D algorithm (§3.5).
    Dns,
    /// 2-D Diagonal stepping stone (§4.1.1).
    Diag2d,
    /// 3-D Diagonal — new in the paper (§4.1.2).
    Diag3d,
    /// 3-D All_Trans stepping stone (§4.2.1).
    AllTrans3d,
    /// 3-D All — the paper's headline algorithm (§4.2.2).
    All3d,
    /// Extension: DNS + Cannon supernode combination (§3.5 remark).
    DnsCannon,
    /// Extension: 3-D All + Cannon supernode combination (the §3.5
    /// closing claim, measured against DNS + Cannon).
    All3dCannon,
    /// Extension: flat-grid `p^{1/4}×p^{1/4}×√p` 3-D All (§4.2.2 remark).
    All3dFlat,
    /// Baseline: Cannon's original 2-D torus form on the Gray-ring
    /// embedding (unit-shift alignment instead of XOR skew).
    CannonTorus,
    /// Baseline: Fox–Otto–Hey broadcast-multiply-roll (reference \[4\]).
    Fox,
}

/// Which published set an algorithm belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoGroup {
    /// One of the paper's nine tabulated algorithms ([`Algorithm::ALL`]).
    Paper,
    /// Extension or literature baseline ([`Algorithm::EXTENSIONS`]).
    Extension,
}

/// One registry row: everything the rest of the workspace needs to know
/// about an algorithm, keyed by [`Algorithm`].
pub struct AlgoDescriptor {
    /// The enum value this row describes (pinned by a test to the row's
    /// table position).
    pub algo: Algorithm,
    /// Short stable name (CLI `--algo` value, reports, CSV output).
    pub name: &'static str,
    /// Grid-shape and divisibility requirements for `n × n` on `p` nodes.
    pub check: fn(usize, usize) -> Result<(), AlgoError>,
    /// The simulated SPMD driver.
    pub multiply: fn(&Matrix, &Matrix, usize, &MachineConfig) -> Result<RunResult, AlgoError>,
    /// Paper set or extension/baseline set.
    pub group: AlgoGroup,
    /// The Table 2 row this algorithm implements, if the paper prints
    /// one for it (the stepping stones, extensions and baselines have
    /// none).
    pub row: Option<ModelAlgo>,
    /// Constructor of the phase-level symbolic schema certified by
    /// `cubemm-analyze`'s parametric pass (every row must have one —
    /// enforced by the registry-coverage lint).
    pub schema: fn() -> crate::schema::AlgoSchema,
}

/// The single source of truth: one row per algorithm, paper order first,
/// then the extension set. `Algorithm::descriptor` indexes this table by
/// enum discriminant, so rows must stay aligned with the enum
/// declaration order (checked by `table_is_aligned_with_enum`).
pub const DESCRIPTORS: [AlgoDescriptor; 14] = [
    AlgoDescriptor {
        algo: Algorithm::Simple,
        name: "simple",
        check: crate::simple::check,
        multiply: crate::simple::multiply,
        group: AlgoGroup::Paper,
        row: Some(ModelAlgo::Simple),
        schema: || crate::schema::schema(Algorithm::Simple),
    },
    AlgoDescriptor {
        algo: Algorithm::Cannon,
        name: "cannon",
        check: crate::cannon::check,
        multiply: crate::cannon::multiply,
        group: AlgoGroup::Paper,
        row: Some(ModelAlgo::Cannon),
        schema: || crate::schema::schema(Algorithm::Cannon),
    },
    AlgoDescriptor {
        algo: Algorithm::Hje,
        name: "hje",
        check: crate::hje::check,
        multiply: crate::hje::multiply,
        group: AlgoGroup::Paper,
        row: Some(ModelAlgo::Hje),
        schema: || crate::schema::schema(Algorithm::Hje),
    },
    AlgoDescriptor {
        algo: Algorithm::Berntsen,
        name: "berntsen",
        check: crate::berntsen::check,
        multiply: crate::berntsen::multiply,
        group: AlgoGroup::Paper,
        row: Some(ModelAlgo::Berntsen),
        schema: || crate::schema::schema(Algorithm::Berntsen),
    },
    AlgoDescriptor {
        algo: Algorithm::Dns,
        name: "dns",
        check: crate::dns::check,
        multiply: crate::dns::multiply,
        group: AlgoGroup::Paper,
        row: Some(ModelAlgo::Dns),
        schema: || crate::schema::schema(Algorithm::Dns),
    },
    AlgoDescriptor {
        algo: Algorithm::Diag2d,
        name: "diag2d",
        check: crate::diag2d::check,
        multiply: crate::diag2d::multiply,
        group: AlgoGroup::Paper,
        row: None,
        schema: || crate::schema::schema(Algorithm::Diag2d),
    },
    AlgoDescriptor {
        algo: Algorithm::Diag3d,
        name: "3dd",
        check: crate::diag3d::check,
        multiply: crate::diag3d::multiply,
        group: AlgoGroup::Paper,
        row: Some(ModelAlgo::Diag3d),
        schema: || crate::schema::schema(Algorithm::Diag3d),
    },
    AlgoDescriptor {
        algo: Algorithm::AllTrans3d,
        name: "3d-all-trans",
        check: crate::all_trans3d::check,
        multiply: crate::all_trans3d::multiply,
        group: AlgoGroup::Paper,
        row: None,
        schema: || crate::schema::schema(Algorithm::AllTrans3d),
    },
    AlgoDescriptor {
        algo: Algorithm::All3d,
        name: "3d-all",
        check: crate::all3d::check,
        multiply: crate::all3d::multiply,
        group: AlgoGroup::Paper,
        row: Some(ModelAlgo::All3d),
        schema: || crate::schema::schema(Algorithm::All3d),
    },
    AlgoDescriptor {
        algo: Algorithm::DnsCannon,
        name: "dns-cannon",
        check: |n, p| mesh_split(n, p, crate::dns_cannon::check).map(drop),
        multiply: crate::dns_cannon::multiply,
        group: AlgoGroup::Extension,
        row: None,
        schema: || crate::schema::schema(Algorithm::DnsCannon),
    },
    AlgoDescriptor {
        algo: Algorithm::All3dCannon,
        name: "3d-all-cannon",
        check: |n, p| mesh_split(n, p, crate::all3d_cannon::check).map(drop),
        multiply: crate::all3d_cannon::multiply,
        group: AlgoGroup::Extension,
        row: None,
        schema: || crate::schema::schema(Algorithm::All3dCannon),
    },
    AlgoDescriptor {
        algo: Algorithm::All3dFlat,
        name: "3d-all-flat",
        check: crate::all3d_flat::check,
        multiply: crate::all3d_flat::multiply,
        group: AlgoGroup::Extension,
        row: None,
        schema: || crate::schema::schema(Algorithm::All3dFlat),
    },
    AlgoDescriptor {
        algo: Algorithm::CannonTorus,
        name: "cannon-torus",
        check: crate::cannon_torus::check,
        multiply: crate::cannon_torus::multiply,
        group: AlgoGroup::Extension,
        row: None,
        schema: || crate::schema::schema(Algorithm::CannonTorus),
    },
    AlgoDescriptor {
        algo: Algorithm::Fox,
        name: "fox",
        check: crate::fox::check,
        multiply: crate::fox::multiply,
        group: AlgoGroup::Extension,
        row: None,
        schema: || crate::schema::schema(Algorithm::Fox),
    },
];

/// Collects the `N` algorithms of `group` from the table, in table
/// order, at compile time.
const fn collect_group<const N: usize>(group: AlgoGroup) -> [Algorithm; N] {
    let mut out = [Algorithm::Simple; N];
    let mut filled = 0;
    let mut i = 0;
    while i < DESCRIPTORS.len() {
        if DESCRIPTORS[i].group as usize == group as usize {
            out[filled] = DESCRIPTORS[i].algo;
            filled += 1;
        }
        i += 1;
    }
    assert!(filled == N, "group size mismatch with the descriptor table");
    out
}

/// Collects the `N` algorithms whose row the paper's §5 analysis
/// compares ([`ModelAlgo::COMPARED`]), in table order.
const fn collect_compared<const N: usize>() -> [Algorithm; N] {
    let mut out = [Algorithm::Simple; N];
    let mut filled = 0;
    let mut i = 0;
    while i < DESCRIPTORS.len() {
        if let Some(row) = DESCRIPTORS[i].row {
            let mut j = 0;
            while j < ModelAlgo::COMPARED.len() {
                if ModelAlgo::COMPARED[j] as usize == row as usize {
                    out[filled] = DESCRIPTORS[i].algo;
                    filled += 1;
                }
                j += 1;
            }
        }
        i += 1;
    }
    assert!(
        filled == N,
        "compared size mismatch with the descriptor table"
    );
    out
}

impl Algorithm {
    /// Every algorithm, in paper order.
    pub const ALL: [Algorithm; 9] = collect_group(AlgoGroup::Paper);

    /// The paper-suggested extension algorithms implemented beyond the
    /// tabulated eight (see DESIGN.md E8).
    pub const EXTENSIONS: [Algorithm; 5] = collect_group(AlgoGroup::Extension);

    /// The algorithms compared in the paper's §5 analysis (Figures
    /// 13/14): those whose row is in [`ModelAlgo::COMPARED`]. Table
    /// order, which is also that list's order — serve's `auto` breaks
    /// ties by it.
    pub const COMPARED: [Algorithm; 5] = collect_compared();

    /// This algorithm's registry row.
    #[inline]
    pub fn descriptor(&self) -> &'static AlgoDescriptor {
        &DESCRIPTORS[*self as usize]
    }

    /// Short stable name (used in reports and CSV output).
    pub fn name(&self) -> &'static str {
        self.descriptor().name
    }

    /// Whether the algorithm can run `n × n` matrices on `p` processors
    /// (grid shape and divisibility requirements).
    pub fn check(&self, n: usize, p: usize) -> Result<(), AlgoError> {
        (self.descriptor().check)(n, p)
    }

    /// Runs the multiplication on the simulated machine.
    pub fn multiply(
        &self,
        a: &Matrix,
        b: &Matrix,
        p: usize,
        cfg: &MachineConfig,
    ) -> Result<RunResult, AlgoError> {
        (self.descriptor().multiply)(a, b, p, cfg)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DESCRIPTORS
            .iter()
            .find(|d| d.name == s)
            .map(|d| d.algo)
            .ok_or_else(|| format!("unknown algorithm {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_with_enum() {
        for (i, d) in DESCRIPTORS.iter().enumerate() {
            assert_eq!(
                d.algo as usize, i,
                "descriptor row {i} ({}) is out of enum order",
                d.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_roundtrip() {
        for a in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
            let parsed: Algorithm = a.name().parse().unwrap();
            assert_eq!(parsed, a);
        }
        assert!("nope".parse::<Algorithm>().is_err());
        let mut names: Vec<_> = DESCRIPTORS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DESCRIPTORS.len(), "duplicate algorithm name");
    }

    #[test]
    fn derived_sets_cover_the_table() {
        assert_eq!(
            Algorithm::ALL.len() + Algorithm::EXTENSIONS.len(),
            DESCRIPTORS.len()
        );
        // CLI-visible names pinned: the table refactor must not rename
        // anything.
        let all: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            all,
            [
                "simple",
                "cannon",
                "hje",
                "berntsen",
                "dns",
                "diag2d",
                "3dd",
                "3d-all-trans",
                "3d-all"
            ]
        );
        let ext: Vec<_> = Algorithm::EXTENSIONS.iter().map(|a| a.name()).collect();
        assert_eq!(
            ext,
            [
                "dns-cannon",
                "3d-all-cannon",
                "3d-all-flat",
                "cannon-torus",
                "fox"
            ]
        );
        let cmp: Vec<_> = Algorithm::COMPARED.iter().map(|a| a.name()).collect();
        assert_eq!(cmp, ["cannon", "hje", "berntsen", "3dd", "3d-all"]);
    }

    #[test]
    fn compared_rows_are_the_models_in_its_order() {
        // Serve's `auto` walks `Algorithm::COMPARED` and keeps the first
        // of equal times, so this order is its tie-break.
        let rows: Vec<_> = Algorithm::COMPARED
            .iter()
            .map(|a| a.descriptor().row)
            .collect();
        let model: Vec<_> = ModelAlgo::COMPARED.into_iter().map(Some).collect();
        assert_eq!(rows, model);
    }

    #[test]
    fn applicability_matrix() {
        // p = 64 is both a square and a cube of powers of two.
        for a in Algorithm::ALL {
            assert!(a.check(64, 64).is_ok(), "{a} should accept n=64 p=64");
        }
        // p = 16 is a square but not a cube.
        assert!(Algorithm::Cannon.check(16, 16).is_ok());
        assert!(Algorithm::Diag3d.check(16, 16).is_err());
        // p = 8 is a cube but not a square.
        assert!(Algorithm::Diag3d.check(16, 8).is_ok());
        assert!(Algorithm::Cannon.check(16, 8).is_err());
    }
}
