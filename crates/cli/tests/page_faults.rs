//! `cubemm run` backs its heap with transparent huge pages (DESIGN.md
//! §11), so a run whose heap spans tens of megabytes takes a few hundred
//! minor page faults rather than one per 4 KB page it touches. Like
//! `alloc_budget.rs`, this guards a count, not a timer.

/// A shape whose heap is well over 32 MB and which a debug build runs in
/// a second or two: 46.9–47.5 MB peak over 20 debug-build runs, where
/// n = 256 peaked at 32.7–35.1 MB and so sometimes missed the 32 MB line.
const ARGS: [&str; 7] = ["run", "--algo", "simple", "--n", "320", "--p", "1024"];

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
#[test]
fn a_run_faults_per_huge_page_not_per_4k_page() {
    eprintln!("skipped: the huge-page heap is built only for linux-gnu targets");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn a_run_faults_per_huge_page_not_per_4k_page() {
    use std::ffi::{c_int, c_long};
    use std::io::Read;
    use std::process::{Command, Stdio};

    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// `struct rusage` from `<sys/resource.h>`.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss_kb: c_long,
        ixrss: c_long,
        idrss: c_long,
        isrss: c_long,
        minflt: c_long,
        majflt: c_long,
        rest: [c_long; 8],
    }

    extern "C" {
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    }

    const THP: &str = "/sys/kernel/mm/transparent_hugepage/enabled";
    match std::fs::read_to_string(THP) {
        Ok(mode) if !mode.contains("[never]") => {}
        Ok(mode) => {
            eprintln!(
                "skipped: transparent huge pages are off ({THP}: {})",
                mode.trim()
            );
            return;
        }
        Err(e) => {
            eprintln!("skipped: no transparent huge page support ({THP}: {e})");
            return;
        }
    }

    #[allow(
        clippy::zombie_processes,
        reason = "reaped by `wait4` below, which also reads its usage"
    )]
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemm"))
        .args(ARGS)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn cubemm");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read the report");
    let pid = c_int::try_from(child.id()).expect("pid fits a pid_t");
    let (mut status, mut usage) = (0, Rusage::default());
    // SAFETY: `status` and `usage` are valid for writes, and `pid` is
    // this process's own unreaped child, so only its usage is read.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    assert_eq!(reaped, pid, "wait4: {}", std::io::Error::last_os_error());
    assert_eq!(
        status, 0,
        "cubemm exited with wait status {status:#x}:\n{stdout}"
    );
    assert!(stdout.contains("verified"), "{stdout}");

    let pages = usage.maxrss_kb / 4;
    assert!(
        usage.maxrss_kb >= 32 << 10,
        "the shape no longer builds a large heap: peak RSS {} kB",
        usage.maxrss_kb
    );
    // On 4 KB pages a run faults about once per page it touches; on the
    // huge-page heap about once per fifty.
    assert!(
        usage.minflt <= pages / 4,
        "{} minor faults for a peak RSS of {} kB ({pages} 4 KB pages)",
        usage.minflt,
        usage.maxrss_kb
    );
    eprintln!(
        "{} minor faults, peak RSS {} kB ({pages} 4 KB pages)",
        usage.minflt, usage.maxrss_kb
    );
}
