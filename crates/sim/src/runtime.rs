//! Dependency-free scoped work pool for embarrassingly parallel sweeps.
//!
//! A sweep is a list of independent jobs — for the
//! [`Experiment`](crate::experiment::Experiment) scheduler, one job per
//! layer of each grid cell; for Table I, one per (layer, group count). Jobs
//! are seeded independently and share no mutable state (the decomposition
//! cache they share is pure memoization), so the pool can be minimal: an
//! atomic cursor hands out job indices to the calling thread and a fixed
//! set of scoped worker threads. Results come back in **input order**
//! regardless of which thread computed them or in which order they
//! finished, so a parallel run is indistinguishable from a serial one.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The number of workers a sweep uses when none is requested explicitly: one
/// per available hardware thread (falling back to 1 when the parallelism
/// cannot be queried).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `jobs` invocations of `job` (one per index in `0..jobs`) on up to
/// `workers` threads — the calling thread and `workers - 1` scoped ones —
/// returning the results in index order.
///
/// With `workers <= 1` (or a single job) the jobs run inline on the calling
/// thread — the exact serial loop, with no thread machinery at all. Threads
/// claim indices from an atomic cursor, so scheduling is dynamic (long and
/// short jobs interleave without static partitioning imbalance). Each
/// thread keeps its `(index, result)` pairs to itself; they are put in
/// index order after the join, so finishing a job takes no lock.
///
/// # Panics
///
/// Panics if `job` panics on any index (the panic is propagated when the
/// scope joins).
pub fn run_indexed<T, F>(workers: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(jobs);
    if workers <= 1 {
        return (0..jobs).map(&job).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= jobs {
                return done;
            }
            done.push((index, job(index)));
        }
    };
    let mut results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut results = work();
        for helper in helpers {
            results.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    });
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Like [`run_indexed`], but delivers each result to `each` **in index
/// order as soon as it (and every earlier index) is available**, instead of
/// collecting everything first. This is what lets a sweep stream records to
/// disk while later cells are still computing: a run killed mid-sweep
/// leaves every already-delivered record safely written.
///
/// `each(index, result)` runs on the calling thread; returning `false`
/// stops the run early (workers finish their in-flight job and claim no
/// more indices). While the next result in order is not ready, the calling
/// thread computes jobs itself, and it sleeps only once every job is
/// claimed; a worker wakes it only by filling the slot it sleeps on.
///
/// With `workers <= 1` (or a single job) everything runs inline on the
/// calling thread — the exact serial loop.
///
/// # Panics
///
/// Panics if `job` panics on any index. A worker panic is flagged to the
/// in-order consumer (so it never waits for a slot that will not be
/// filled), and the panic is propagated when the scope joins.
pub fn run_indexed_each<T, F, C>(workers: usize, jobs: usize, job: F, mut each: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T) -> bool,
{
    let workers = workers.max(1).min(jobs);
    if workers <= 1 {
        for index in 0..jobs {
            if !each(index, job(index)) {
                return;
            }
        }
        return;
    }

    struct Slots<T> {
        results: Vec<Option<T>>,
        /// The index the consumer sleeps on, if it sleeps.
        awaited: Option<usize>,
        panicked: bool,
    }

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let state = Mutex::new(Slots {
        results: (0..jobs).map(|_| None).collect(),
        awaited: None,
        panicked: false,
    });
    let ready = Condvar::new();
    let claim = || {
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        (index < jobs).then_some(index)
    };
    let store = |index: usize, result: T| {
        let mut slots = state.lock().expect("result slots poisoned");
        slots.results[index] = Some(result);
        if slots.awaited == Some(index) {
            drop(slots);
            ready.notify_one();
        }
    };

    // Flags a panicking worker to the consumer, which would otherwise wait
    // forever on the slot that worker was going to fill.
    struct PanicFlag<'a, T> {
        state: &'a Mutex<Slots<T>>,
        ready: &'a Condvar,
    }
    impl<T> Drop for PanicFlag<'_, T> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Ok(mut slots) = self.state.lock() {
                    slots.panicked = true;
                }
                self.ready.notify_all();
            }
        }
    }

    // However the consumer leaves — done, stopped early, or unwinding from
    // a panic of its own job — the workers claim nothing more.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| {
                let _flag = PanicFlag {
                    state: &state,
                    ready: &ready,
                };
                while let Some(index) = claim() {
                    store(index, job(index));
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        for index in 0..jobs {
            let result = loop {
                let mut slots = state.lock().expect("result slots poisoned");
                if let Some(result) = slots.results[index].take() {
                    break result;
                }
                if slots.panicked {
                    // The scope join re-raises the worker's panic here.
                    return;
                }
                if let Some(claimed) = claim() {
                    drop(slots);
                    let result = job(claimed);
                    if claimed == index {
                        break result;
                    }
                    store(claimed, result);
                } else {
                    slots.awaited = Some(index);
                    slots = ready.wait(slots).expect("result slots poisoned");
                    slots.awaited = None;
                }
            };
            if !each(index, result) {
                return;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 8] {
            let out = run_indexed(workers, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_yield_empty_results() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_indexed(16, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_parallelism_is_at_least_one() {
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn each_sees_results_in_index_order() {
        for workers in [1, 2, 8] {
            let mut seen = Vec::new();
            run_indexed_each(
                workers,
                37,
                |i| i * 3,
                |index, result| {
                    seen.push((index, result));
                    true
                },
            );
            let expected: Vec<_> = (0..37).map(|i| (i, i * 3)).collect();
            assert_eq!(seen, expected, "workers={workers}");
        }
    }

    #[test]
    fn each_returning_false_stops_the_run_early() {
        for workers in [1, 4] {
            let mut seen = Vec::new();
            run_indexed_each(
                workers,
                1000,
                |i| i,
                |index, _| {
                    seen.push(index);
                    index < 4
                },
            );
            assert_eq!(seen, vec![0, 1, 2, 3, 4], "workers={workers}");
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            run_indexed_each(
                4,
                64,
                |i| {
                    if i == 7 {
                        panic!("cell 7 exploded");
                    }
                    i
                },
                |_, _| true,
            );
        });
        assert!(result.is_err(), "the worker panic must propagate");
    }
}
