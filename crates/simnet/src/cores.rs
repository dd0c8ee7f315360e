//! The process-wide count of host cores that extra threads may take.
//!
//! A process starts with `available_parallelism − 1` spare cores: the
//! thread that asks is always running already, so only the threads it
//! adds need one. Whoever adds threads — grid workers, serve workers,
//! the host reference's thread, a sharded machine's shards, the
//! workers of a chaos campaign's post-coverage tail — leases them here
//! first and hands them back when its threads have joined, so the
//! parallel layers never oversubscribe the host between them.
//! A lease takes what is spare, possibly nothing; it never waits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's cores (`available_parallelism`), read once: the query
/// itself reads files and allocates.
pub fn host() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

fn spare() -> &'static AtomicUsize {
    static SPARE: OnceLock<AtomicUsize> = OnceLock::new();
    SPARE.get_or_init(|| AtomicUsize::new(host() - 1))
}

/// Cores taken from the process-wide count; dropping the lease returns
/// them.
#[derive(Debug)]
pub struct Lease {
    cores: usize,
}

/// Takes up to `want` spare cores (as many as are spare, possibly none).
pub fn lease(want: usize) -> Lease {
    let mut cores = 0;
    if want > 0 {
        let _ = spare().fetch_update(Ordering::AcqRel, Ordering::Acquire, |spare| {
            cores = spare.min(want);
            Some(spare - cores)
        });
    }
    Lease { cores }
}

impl Lease {
    /// How many cores the lease holds.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Returns every core past the first `keep` to the count.
    pub fn trim(&mut self, keep: usize) {
        let extra = self.cores.saturating_sub(keep);
        if extra > 0 {
            spare().fetch_add(extra, Ordering::AcqRel);
            self.cores -= extra;
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.trim(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lease_takes_at_most_what_it_asks_and_trims_down() {
        // Other tests in this process lease cores concurrently, so only
        // bounds that hold whatever they hold are asserted.
        assert_eq!(lease(0).cores(), 0);
        let mut all = lease(usize::MAX);
        assert!(all.cores() < host());
        let mut two = lease(2);
        assert!(two.cores() <= 2);
        two.trim(1);
        assert!(two.cores() <= 1);
        all.trim(0);
        assert_eq!(all.cores(), 0);
    }
}
