//! A minimal scoped-thread worker pool.
//!
//! [`run_cells`](crate::runner::run_cells) fans independent simulation
//! cells across cores; it is the pool's one caller. Each cell is
//! self-seeded (its RNG streams derive from its own master seed), so the
//! *work* is deterministic regardless of scheduling; all the pool has to
//! guarantee is that results come back **in input order**, which it does
//! by writing each result to its item's slot. Thread count therefore
//! affects wall-clock only, never output — the property the determinism
//! tests pin down.
//!
//! Built on `std::thread::scope` + an atomic work index: no external
//! crates, no unsafe, work-stealing-free (cells are coarse enough that a
//! shared counter is contention-free in practice).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (≥ 1).
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `jobs` worker threads (0 = one per core),
/// returning results in input order. A panic in `f` propagates to the
/// caller.
pub fn par_map<T: Sync, R: Send>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("no worker panics holding a slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            let slot = s.into_inner().expect("no worker panics holding a slot");
            slot.expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 7] {
            let out = par_map(jobs, &items, |&x| x * x);
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..57).collect();
        let out = par_map(4, &items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(calls.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map(8, &[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn jobs_zero_uses_every_core() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(0, &items, |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        par_map(4, &items, |&x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
