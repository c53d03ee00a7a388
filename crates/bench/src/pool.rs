//! The one index-keyed fan-out: runs `job(0..n)` over scoped worker
//! threads and returns the results in index order.
//!
//! Workers take the next index off a shared atomic counter, so a long
//! job never strands the short ones queued behind it, and each result
//! lands in the slot of its index. Output order therefore never depends
//! on the schedule, and as long as `job(i)` depends only on `i` (every
//! sweep point and campaign job derives its seed from its identity), the
//! output is identical for any worker count.
//!
//! The sweep engine ([`crate::sweep::run_points_with`]) and the
//! orchestrator's executor (`tsocc_orch::execute`) both fan out through
//! here. The conformance engine keeps its own loop: its campaigns are
//! open-ended streams that stop on a time budget, so there is no job
//! count to size the slots with.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count a fan-out of `n` jobs uses when `requested`
/// workers are asked for: `0` means one per available CPU, and the
/// count is clamped to `1..=n` (at least one worker, even for `n = 0`).
pub fn worker_count(n: usize, requested: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |c| c.get());
    let workers = if requested == 0 { auto } else { requested };
    workers.clamp(1, n.max(1))
}

/// Runs `job(i)` for every `i` in `0..n` on [`worker_count`]`(n,
/// workers)` threads and returns the results in index order.
///
/// # Panics
///
/// Propagates a panic from any job once every worker has stopped.
pub fn run_indexed<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..worker_count(n, workers) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(i);
                *slots[i]
                    .lock()
                    .expect("only the worker that took index i locks slot i") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding a result slot")
                .expect("every slot filled once the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        let n = 37;
        for workers in [0, 1, 2, n + 3] {
            let out = run_indexed(n, workers, |i| i * i);
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>(), "{workers}");
        }
    }

    #[test]
    fn zero_jobs_return_an_empty_vec() {
        for workers in [0, 1, 4] {
            assert!(run_indexed(0, workers, |i| i).is_empty());
        }
        assert_eq!(worker_count(0, 4), 1);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let n = 200;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = run_indexed(n, 4, |i| runs[i].fetch_add(1, Ordering::Relaxed));
        assert!(out.iter().all(|&before| before == 0));
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_count_resolves_auto_and_clamps_to_the_job_count() {
        assert_eq!(worker_count(3, 8), 3);
        assert_eq!(worker_count(10, 2), 2);
        assert!(worker_count(1_000, 0) >= 1);
    }
}
