//! Harness utilities shared by the workspace-level examples
//! (`examples/*.rs` at the repository root), the cross-crate integration
//! tests (`tests/*.rs`), and the CLI's experiment drivers.
//!
//! The main export is [`run_grid`]: a parallel driver for sweeps over
//! independent simulated-machine runs. Each grid point runs its whole
//! machine on the worker thread that claimed it, so `jobs` bounds the
//! host threads a sweep occupies whatever the machine sizes.
//!
//! Determinism: each run's virtual-time results depend only on its own
//! configuration (see the `cubemm-simnet` crate docs), and [`run_grid`]
//! returns results indexed exactly like its input slice, so a grid's
//! output is bitwise identical at any `jobs` value — property-tested by
//! the workspace determinism suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod chaos;
pub mod job;
pub mod recovery;

/// Runs every task of a grid, `jobs` at a time.
///
/// `run(task)` executes one grid point. Tasks are claimed in input
/// order; results are returned indexed exactly like `tasks`, so the
/// output (and anything printed from it afterwards) is independent of
/// `jobs` and of worker interleaving.
///
/// `jobs <= 1` (or a single task) degenerates to a plain serial loop on
/// the calling thread — the serial path stays exercised, and callers can
/// expose `--jobs 1` as the conservative default.
///
/// # Panics
///
/// A panicking task propagates out of `run_grid` after the remaining
/// workers drain: with its own message if it ran on the calling thread,
/// as the scope's generic "a scoped thread panicked" otherwise.
pub fn run_grid<T, R, F>(tasks: &[T], jobs: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(tasks.len().max(1));
    if jobs == 1 {
        return tasks.iter().map(run).collect();
    }

    // The caller is one of the workers; the `jobs - 1` it adds hold
    // cores that sharded machines then do not take.
    let _cores = cubemm_simnet::cores::lease(jobs - 1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks.len() {
            break;
        }
        let result = run(&tasks[i]);
        // Each slot is written once, by the worker that claimed it, so
        // the lock is never contended or poisoned.
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(work);
        }
        work();
    });

    slots
        .into_iter()
        .map(|slot| {
            #[allow(
                clippy::expect_used,
                reason = "a task that failed would have panicked the scope above; \
                          every surviving slot is filled"
            )]
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every grid slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn grid_results_keep_input_order_at_any_job_count() {
        let tasks: Vec<usize> = (0..37).collect();
        let serial = run_grid(&tasks, 1, |&t| t * t);
        for jobs in [2, 4, 8] {
            let parallel = run_grid(&tasks, jobs, |&t| t * t);
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    // Either thread may claim task 1: the payload is the task's own
    // message on the calling thread and the scope's "a scoped thread
    // panicked" on a spawned worker. The two tests below pin each.
    #[should_panic(expected = "panicked")]
    fn panicking_task_propagates() {
        let tasks = [0usize, 1, 2];
        let _ = run_grid(&tasks, 2, |&t| {
            if t == 1 {
                panic!("grid task panicked");
            }
            t
        });
    }

    /// The message a caught panic carried.
    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("")
    }

    #[test]
    fn a_spawned_workers_panic_propagates_after_the_caller_drains() {
        // The calling thread waits in its first task until a spawned
        // worker has claimed one and panicked, then runs every task left.
        let caller = std::thread::current().id();
        let failed = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..8).collect();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_grid(&tasks, 2, |&t| {
                if std::thread::current().id() != caller {
                    failed.store(true, Ordering::Release);
                    panic!("grid task panicked");
                }
                while !failed.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::Relaxed);
                t
            })
        }))
        .expect_err("a task that panicked on a spawned worker must propagate");
        assert_eq!(message(payload.as_ref()), "a scoped thread panicked");
        assert_eq!(finished.load(Ordering::Relaxed), tasks.len() - 1);
    }

    #[test]
    fn a_panic_on_the_calling_thread_keeps_its_message() {
        // Every task panics, so the one spawned worker stops at its first
        // task and the calling thread claims one of the three.
        let tasks = [0usize, 1, 2];
        let payload = std::panic::catch_unwind(|| {
            run_grid(&tasks, 2, |_| -> usize { panic!("grid task panicked") })
        })
        .expect_err("a task that panicked on the calling thread must propagate");
        assert_eq!(message(payload.as_ref()), "grid task panicked");
    }
}
