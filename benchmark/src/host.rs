//! The host record written into every result file, and the process
//! memory high-water marks.

use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::tune;

use crate::json::Json;

/// Size in bytes of the largest cache `cpu0` reports in sysfs — the
/// last-level cache the bandwidth measurement has to defeat. Falls back
/// to the L2 size `cubemm_dense::tune` detected.
pub fn llc_bytes() -> usize {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = tune::detect_caches().l2;
    for idx in 0..8 {
        let Ok(text) = std::fs::read_to_string(base.join(format!("index{idx}/size"))) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            Some(b'G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        if let Ok(v) = digits.parse::<usize>() {
            best = best.max(v.saturating_mul(mult));
        }
    }
    best
}

fn cpuinfo_field(cpuinfo: &str, key: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Who measured: cores, CPU, ISA flags, caches, the microkernel and
/// blocking the packed GEMM resolved to, and the toolchain and commit
/// (the last two handed in by `run.sh`; `unknown` outside a git
/// checkout).
pub fn host_record() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo_field(&cpuinfo, "flags").unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let caches = tune::detect_caches();
    let mk = MicrokernelImpl::active();
    let blocking = tune::resolve(0, 0, 0, mk);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "cpu_model",
            Json::Str(cpuinfo_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        ),
        ("avx2", Json::Bool(has("avx2"))),
        ("fma", Json::Bool(has("fma"))),
        ("l1d_bytes", Json::Num(caches.l1d as f64)),
        ("l2_bytes", Json::Num(caches.l2 as f64)),
        ("llc_bytes", Json::Num(llc_bytes() as f64)),
        ("microkernel", Json::str(mk.name())),
        (
            "blocking",
            Json::obj([
                ("mc", Json::Num(blocking.mc as f64)),
                ("kc", Json::Num(blocking.kc as f64)),
                ("nc", Json::Num(blocking.nc as f64)),
            ]),
        ),
        ("rustc", Json::Str(env("CUBEMM_BENCH_RUSTC"))),
        ("git_commit", Json::Str(env("CUBEMM_BENCH_COMMIT"))),
    ])
}

/// Largest resident set, in KiB, of any child process this process has
/// waited for (`getrusage(RUSAGE_CHILDREN)`); 0 where unavailable.
pub fn children_peak_rss_kib() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        // `struct rusage` on 64-bit Linux: two `timeval`s (two longs
        // each) followed by fourteen longs, `ru_maxrss` first.
        #[repr(C)]
        struct Rusage {
            ru_utime: [i64; 2],
            ru_stime: [i64; 2],
            ru_maxrss: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_CHILDREN: i32 = -1;
        let mut usage = Rusage {
            ru_utime: [0; 2],
            ru_stime: [0; 2],
            ru_maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable, correctly laid out
        // `struct rusage` (layout above); getrusage writes only within
        // it and has no other requirement.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
        if rc == 0 {
            return usage.ru_maxrss.max(0) as u64;
        }
        0
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        0
    }
}

/// This process's own resident-set high-water mark in KiB (`VmHWM`).
///
/// A child's reported peak can never read lower than its parent's at
/// the moment of the spawn (the kernel folds the pre-exec image into the
/// child's figure), so the front-door pass keeps this process small and
/// does its in-process checking only after the last child has exited;
/// the result file records this number next to `peak_rss_mb` so the
/// claim can be checked.
pub fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
