//! Blocking-parameter resolution and autotuning for the packed GEMM.
//!
//! The packed kernel's throughput hinges on three cache-blocking
//! parameters: `mc` (rows of `A` per packed block — should sit in L2),
//! `kc` (panel depth — one `kc × nr` B micro-panel plus one `kc × mr` A
//! micro-panel should sit in L1), and `nc` (columns of `B` per macro
//! panel — bounds the packed B working set). Good values are
//! host-specific, so this module provides the three rungs callers fall
//! through:
//!
//! 1. **Explicit** — a nonzero value in [`crate::gemm::Kernel::Packed`]
//!    wins, rounded up to the active microkernel's tile shape.
//! 2. **Tuned** — a tuning file written by `cubemm tune-kernel`
//!    ([`sweep`] + [`Tuning::save`]), looked up at
//!    `$CUBEMM_TUNE_FILE` (or `./cubemm-tune.json`), applied only when
//!    its recorded microkernel matches the active one.
//! 3. **Static defaults** — per-microkernel constants chosen for a
//!    generic ~32 KiB L1 / ≥1 MiB L2 part, so untuned hosts are still
//!    fast.
//!
//! # Determinism caveat
//!
//! `kc` decides where per-block accumulators fold into `C`, so two runs
//! with *different* `kc` produce different low-order bits (see
//! `gemm.rs`). The static defaults therefore share `kc = 256` across
//! every microkernel — untuned hosts agree bitwise whatever impl they
//! dispatch to. A tuned file may pick another `kc` and trade that
//! cross-host reproducibility for speed; deployments that need both pin
//! `kc` explicitly.

use crate::gemm::{gemm_acc_with_microkernel, Kernel, DEFAULT_KC, DEFAULT_MC, DEFAULT_NC};
use crate::microkernel::MicrokernelImpl;
use crate::Matrix;

/// Environment variable naming the tuning file consulted by untuned
/// [`crate::gemm::Kernel::Packed`] runs. Empty or unset falls back to
/// `./cubemm-tune.json`; a missing or mismatched file falls back to the
/// static defaults.
pub const TUNE_FILE_ENV: &str = "CUBEMM_TUNE_FILE";

/// Default tuning-file path when [`TUNE_FILE_ENV`] is unset.
pub const DEFAULT_TUNE_FILE: &str = "cubemm-tune.json";

/// Resolved cache-blocking parameters for one packed multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Rows of `A` per packed block (multiple of the tile's `mr`).
    pub mc: usize,
    /// Depth of each packed panel pair.
    pub kc: usize,
    /// Columns of `B` per macro panel (multiple of the tile's `nr`).
    pub nc: usize,
}

/// The compiled-in blocking defaults for one microkernel. `kc` is
/// shared across impls on purpose — see the module docs.
pub fn static_defaults(mk: MicrokernelImpl) -> Blocking {
    match mk {
        MicrokernelImpl::Scalar => Blocking {
            mc: DEFAULT_MC,
            kc: DEFAULT_KC,
            nc: DEFAULT_NC,
        },
        // The vector tiles retire 2 (6×8 ymm) or 1 (12×8 zmm) panel loads
        // per 12 FMAs, so they tolerate (and profit from) much wider B
        // macro panels. 96 rows is a whole number of either tile.
        MicrokernelImpl::Avx2 | MicrokernelImpl::Avx512 => Blocking {
            mc: 96,
            kc: DEFAULT_KC,
            nc: 2048,
        },
    }
}

/// Resolves the caller's (possibly zero) `mc`/`kc`/`nc` requests into
/// concrete blocking for microkernel `mk`: explicit nonzero values win,
/// then the ambient tuning file (if it matches `mk`), then
/// [`static_defaults`]. `mc`/`nc` are rounded up to the tile shape so
/// block boundaries always align with packed panel boundaries.
pub fn resolve(mc: usize, kc: usize, nc: usize, mk: MicrokernelImpl) -> Blocking {
    let d = ambient_tuned(mk).unwrap_or_else(|| static_defaults(mk));
    Blocking {
        mc: pick(mc, d.mc).next_multiple_of(mk.mr()),
        kc: pick(kc, d.kc),
        nc: pick(nc, d.nc).next_multiple_of(mk.nr()),
    }
}

#[inline]
fn pick(requested: usize, fallback: usize) -> usize {
    if requested == 0 {
        fallback.max(1)
    } else {
        requested
    }
}

/// The ambient tuning-file entry for `mk`, if one exists and matches.
/// The file is read once per process (results cached), so `cubemm
/// tune-kernel` writes take effect on the *next* run — fine, since
/// tuning is an offline step.
fn ambient_tuned(mk: MicrokernelImpl) -> Option<Blocking> {
    // Miri runs under strict isolation (no fs, no env-dependent paths
    // worth chasing); static defaults are what we want there anyway.
    #[cfg(miri)]
    {
        let _ = mk;
        None
    }
    #[cfg(not(miri))]
    {
        use std::sync::OnceLock;
        static AMBIENT: OnceLock<Option<Tuning>> = OnceLock::new();
        let tuned = AMBIENT.get_or_init(|| {
            let path = match std::env::var(TUNE_FILE_ENV) {
                Ok(p) if !p.is_empty() => p,
                _ => DEFAULT_TUNE_FILE.to_string(),
            };
            Tuning::load(std::path::Path::new(&path)).ok()
        });
        match tuned {
            Some(t) if t.microkernel == mk.name() => Some(Blocking {
                mc: t.mc,
                kc: t.kc,
                nc: t.nc,
            }),
            _ => None,
        }
    }
}

/// Detected per-core cache sizes, used to prune the sweep space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// L1 data cache in bytes.
    pub l1d: usize,
    /// Unified L2 in bytes.
    pub l2: usize,
}

impl CacheInfo {
    /// Conservative fallback when sysfs is unavailable (non-Linux,
    /// containers masking `/sys`): the smallest caches on anything
    /// we'd plausibly run on.
    pub const FALLBACK: CacheInfo = CacheInfo {
        l1d: 32 * 1024,
        l2: 512 * 1024,
    };
}

/// Reads cpu0's cache hierarchy from
/// `/sys/devices/system/cpu/cpu0/cache/index*`, falling back to
/// [`CacheInfo::FALLBACK`] for any level it cannot read.
pub fn detect_caches() -> CacheInfo {
    let mut info = CacheInfo::FALLBACK;
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
        let level = read("level");
        let ctype = read("type");
        let Some(size) = parse_cache_size(read("size").trim()) else {
            continue;
        };
        match (level.trim(), ctype.trim()) {
            ("1", "Data") | ("1", "Unified") => info.l1d = size,
            ("2", _) => info.l2 = size,
            _ => {}
        }
    }
    info
}

/// Parses sysfs cache-size strings: `"48K"`, `"2048K"`, `"1M"`, `"36864"`.
fn parse_cache_size(s: &str) -> Option<usize> {
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.as_bytes()[s.len() - 1] {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// The candidate blocking grid for one microkernel, pruned against the
/// cache hierarchy: `kc` so one A + one B micro-panel fit L1, `mc` so
/// the packed A block fits comfortably in L2. `full` widens the grid
/// ~4x for overnight tuning.
pub fn candidates(mk: MicrokernelImpl, cache: CacheInfo, full: bool) -> Vec<Blocking> {
    let (mr, nr) = (mk.mr(), mk.nr());
    let kcs: &[usize] = if full {
        &[64, 128, 192, 256, 320, 384, 512]
    } else {
        &[128, 256, 384]
    };
    let mcs: &[usize] = if full {
        &[24, 32, 48, 64, 96, 128, 192, 256]
    } else {
        &[48, 96, 192]
    };
    let ncs: &[usize] = if full {
        &[256, 512, 1024, 2048, 4096]
    } else {
        &[512, 2048]
    };
    let mut out = Vec::new();
    for &kc in kcs {
        // One kc×mr A micro-panel + one kc×nr B micro-panel in L1.
        if kc * (mr + nr) * 8 > cache.l1d {
            continue;
        }
        for &mc in mcs {
            let mc = mc.next_multiple_of(mr);
            // Packed A block in at most half of L2 (room for B stream).
            if mc * kc * 8 > cache.l2 / 2 {
                continue;
            }
            for &nc in ncs {
                let b = Blocking {
                    mc,
                    kc,
                    nc: nc.next_multiple_of(nr),
                };
                if !out.contains(&b) {
                    out.push(b);
                }
            }
        }
    }
    if out.is_empty() {
        // Pathologically small caches reported — still return something.
        out.push(static_defaults(mk));
    }
    out
}

/// One measured point from a [`sweep`].
#[derive(Debug, Clone, Copy)]
pub struct SweepEntry {
    /// The blocking that was timed.
    pub blocking: Blocking,
    /// Best-of-reps throughput at the sweep's problem size.
    pub gflops: f64,
}

/// A persisted tuning result — the winner of a [`sweep`], keyed by the
/// microkernel it was measured with so a file tuned on one host is
/// ignored (not misapplied) on a host that dispatches differently.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuning {
    /// [`MicrokernelImpl::name`] the sweep ran with.
    pub microkernel: String,
    /// Winning rows-of-A block height.
    pub mc: usize,
    /// Winning panel depth.
    pub kc: usize,
    /// Winning macro-panel width.
    pub nc: usize,
    /// Throughput the winner achieved.
    pub gflops: f64,
    /// Problem size (`n × n × n`) the sweep timed.
    pub n: usize,
    /// Thread count the sweep timed with.
    pub threads: usize,
}

impl Tuning {
    /// Serializes to the flat JSON object `cubemm tune-kernel` writes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"microkernel\": \"{}\",\n  \"mc\": {},\n  \"kc\": {},\n  \"nc\": {},\n  \"gflops\": {:.3},\n  \"n\": {},\n  \"threads\": {}\n}}\n",
            self.microkernel, self.mc, self.kc, self.nc, self.gflops, self.n, self.threads
        )
    }

    /// Parses the flat JSON written by [`Tuning::to_json`]. The dense
    /// crate is dependency-free by policy, so this is a deliberately
    /// minimal field scanner, not a general JSON parser.
    pub fn from_json(s: &str) -> Result<Tuning, String> {
        Ok(Tuning {
            microkernel: json_str(s, "microkernel")?,
            mc: json_usize(s, "mc")?,
            kc: json_usize(s, "kc")?,
            nc: json_usize(s, "nc")?,
            gflops: json_f64(s, "gflops")?,
            n: json_usize(s, "n")?,
            threads: json_usize(s, "threads")?,
        })
    }

    /// Writes the tuning file (pretty flat JSON) to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a tuning file.
    pub fn load(path: &std::path::Path) -> Result<Tuning, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Tuning::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn json_raw<'a>(s: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let at = s
        .find(&pat)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    let rest = &s[at + pat.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("malformed field {key:?}"))?
        .trim_start();
    let end = rest
        .find([',', '}', '\n'])
        .ok_or_else(|| format!("unterminated field {key:?}"))?;
    Ok(rest[..end].trim())
}

fn json_str(s: &str, key: &str) -> Result<String, String> {
    let raw = json_raw(s, key)?;
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn json_usize(s: &str, key: &str) -> Result<usize, String> {
    json_raw(s, key)?
        .parse()
        .map_err(|e| format!("field {key:?}: {e}"))
}

fn json_f64(s: &str, key: &str) -> Result<f64, String> {
    json_raw(s, key)?
        .parse()
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// Times every candidate blocking for `mk` on an `n × n × n` product
/// (`reps` timed runs each, best kept) and returns the measured grid,
/// best first. Ties break toward the earlier (smaller-footprint)
/// candidate so output is stable run to run.
pub fn sweep(
    mk: MicrokernelImpl,
    n: usize,
    reps: usize,
    threads: usize,
    full: bool,
) -> Vec<SweepEntry> {
    let cache = detect_caches();
    let grid = candidates(mk, cache, full);
    let a = Matrix::random(n, n, 0xC0FFEE);
    let b = Matrix::random(n, n, 0xBEEF);
    let flops = 2.0 * (n as f64).powi(3);
    let mut entries: Vec<SweepEntry> = Vec::with_capacity(grid.len());
    for bl in grid {
        let kernel = Kernel::Packed {
            mc: bl.mc,
            kc: bl.kc,
            nc: bl.nc,
            threads,
        };
        let mut c = Matrix::zeros(n, n);
        // Untimed warm-up: faults the buffers in, fills the scratch lists.
        gemm_acc_with_microkernel(&mut c, &a, &b, kernel, mk);
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = std::time::Instant::now();
            gemm_acc_with_microkernel(&mut c, &a, &b, kernel, mk);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        entries.push(SweepEntry {
            blocking: bl,
            gflops: flops / best / 1e9,
        });
    }
    // Stable sort: equal-throughput candidates keep grid (footprint)
    // order, so the reported winner is deterministic.
    entries.sort_by(|x, y| y.gflops.total_cmp(&x.gflops));
    entries
}

/// Runs a [`sweep`] and wraps the winner as a persistable [`Tuning`].
pub fn tune(
    mk: MicrokernelImpl,
    n: usize,
    reps: usize,
    threads: usize,
    full: bool,
) -> (Tuning, Vec<SweepEntry>) {
    let entries = sweep(mk, n, reps, threads, full);
    let best = entries[0];
    (
        Tuning {
            microkernel: mk.name().to_string(),
            mc: best.blocking.mc,
            kc: best.blocking.kc,
            nc: best.blocking.nc,
            gflops: best.gflops,
            n,
            threads,
        },
        entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_values_win_and_round_to_tile() {
        let bl = resolve(50, 33, 70, MicrokernelImpl::Scalar);
        assert_eq!(bl.kc, 33);
        assert_eq!(bl.mc % MicrokernelImpl::Scalar.mr(), 0);
        assert!(bl.mc >= 50);
        assert_eq!(bl.nc % MicrokernelImpl::Scalar.nr(), 0);
        assert!(bl.nc >= 70);
    }

    #[test]
    fn zeros_fall_back_to_defaults() {
        let bl = resolve(0, 0, 0, MicrokernelImpl::Scalar);
        let d = static_defaults(MicrokernelImpl::Scalar);
        // Ambient tuning may overlay, but never with zero/misaligned
        // values; with no tune file present this is exactly the default.
        assert!(bl.mc >= MicrokernelImpl::Scalar.mr());
        assert!(bl.kc >= 1);
        assert!(bl.nc >= MicrokernelImpl::Scalar.nr());
        assert_eq!(d.kc, DEFAULT_KC, "static kc shared across impls");
        for mk in [MicrokernelImpl::Avx2, MicrokernelImpl::Avx512] {
            assert_eq!(static_defaults(mk).kc, DEFAULT_KC, "{mk:?}");
        }
    }

    #[test]
    fn cache_size_strings_parse() {
        assert_eq!(parse_cache_size("48K"), Some(48 * 1024));
        assert_eq!(parse_cache_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_cache_size("36864"), Some(36864));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("big"), None);
    }

    #[test]
    fn candidate_grid_is_nonempty_aligned_and_pruned() {
        for mk in [
            MicrokernelImpl::Scalar,
            MicrokernelImpl::Avx2,
            MicrokernelImpl::Avx512,
        ] {
            for full in [false, true] {
                let grid = candidates(mk, CacheInfo::FALLBACK, full);
                assert!(!grid.is_empty());
                for bl in &grid {
                    assert_eq!(bl.mc % mk.mr(), 0, "{bl:?}");
                    assert_eq!(bl.nc % mk.nr(), 0, "{bl:?}");
                    assert!(
                        bl.kc * (mk.mr() + mk.nr()) * 8 <= CacheInfo::FALLBACK.l1d,
                        "{bl:?} blows L1"
                    );
                }
            }
            // Tiny caches still yield the static default.
            let tiny = CacheInfo { l1d: 64, l2: 256 };
            assert_eq!(candidates(mk, tiny, false), vec![static_defaults(mk)]);
        }
    }

    #[test]
    fn tuning_json_roundtrips() {
        let t = Tuning {
            microkernel: "avx2-6x8".to_string(),
            mc: 96,
            kc: 256,
            nc: 2048,
            gflops: 21.375,
            n: 512,
            threads: 1,
        };
        let back = Tuning::from_json(&t.to_json()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_json_is_rejected_with_field_name() {
        let t = Tuning::from_json("{\"microkernel\": \"x\", \"mc\": 4}");
        let err = match t {
            Err(e) => e,
            Ok(_) => panic!("parsed garbage"),
        };
        assert!(err.contains("kc"), "{err}");
    }

    #[cfg(not(miri))]
    #[test]
    fn tuning_file_roundtrips_on_disk() {
        let dir = std::env::temp_dir().join(format!("cubemm-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{e}"));
        let path = dir.join("tune.json");
        let t = Tuning {
            microkernel: "scalar-4x8".to_string(),
            mc: 64,
            kc: 128,
            nc: 512,
            gflops: 3.5,
            n: 256,
            threads: 2,
        };
        t.save(&path).unwrap_or_else(|e| panic!("{e}"));
        let back = Tuning::load(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back, t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn sweep_measures_every_candidate() {
        // Tiny n: this pins plumbing (grid coverage, ordering), not perf.
        let entries = sweep(MicrokernelImpl::Scalar, 48, 1, 1, false);
        let grid = candidates(MicrokernelImpl::Scalar, detect_caches(), false);
        assert_eq!(entries.len(), grid.len());
        for w in entries.windows(2) {
            assert!(w[0].gflops >= w[1].gflops, "not sorted best-first");
        }
    }
}
