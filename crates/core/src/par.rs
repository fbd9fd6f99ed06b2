//! Job-grain parallelism: the workspace's one mechanism that fans a
//! batch of independent jobs out over the host's cores and hands the
//! results back in job order.
//!
//! The workspace's batches — Table 1's Monte-Carlo samples, the
//! figure runners' (workload, configuration) runs, the policy sweep's
//! cells, fleet instances, a threaded channel walk's window — are
//! independent and deterministic, so a scoped loop that lives for one
//! batch is enough: no persistent threads, no hand-off tuning. Results
//! are identical for every worker count because each job computes alone
//! and the caller folds the returned vector in job order.
//!
//! Two entry points share that loop: [`parallel_map`] runs a job
//! function over the host's cores, and [`Executor::run_batch`] runs a
//! vector of one-shot tasks over a fixed lane count.
//!
//! Call them at the outermost batch only; a job that fans out again
//! oversubscribes the host.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// The host's available hardware parallelism (1 if it cannot be
/// determined).
pub fn host_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs jobs `0..n` over [`host_parallelism`] workers (capped at `n`)
/// and returns their results in job order. With one worker the jobs run
/// inline on the calling thread; otherwise the calling thread works
/// alongside the spawned ones.
///
/// # Panics
///
/// If any job panics, re-raises the panic of the lowest-index failing
/// job once the batch has drained. Every job below that index runs, so
/// which failure is reported does not depend on scheduling.
pub fn parallel_map<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    map_with_workers(host_parallelism(), n, job)
}

/// A fixed number of lanes that batches of one-shot tasks run on, for
/// callers that choose the worker count themselves (the fleet, a
/// threaded channel walk). It holds no threads: each
/// [`Executor::run_batch`] runs on [`parallel_map`]'s scoped loop.
#[derive(Debug)]
pub struct Executor {
    lanes: usize,
}

impl Executor {
    /// Up to `lanes` tasks at once: the calling thread plus `lanes - 1`
    /// scoped threads per batch. `lanes` is clamped to ≥ 1; one lane
    /// runs every batch inline.
    pub fn new(lanes: usize) -> Self {
        Executor {
            lanes: lanes.max(1),
        }
    }

    /// Concurrent task lanes (spawned threads + the calling thread).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs every task and returns the results **in task order**,
    /// whatever order the lanes finished in.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-index failing task, as
    /// [`parallel_map`] does: every task below it runs, and tasks above
    /// it that had not started when it failed are skipped.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let slots: Vec<_> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        map_with_workers(self.lanes, slots.len(), |i| {
            // The guard drops at the end of this statement, before the
            // task runs.
            let task = slots[i]
                .lock()
                .expect("no task runs under its slot's lock")
                .take()
                .expect("the loop claims each index once");
            task()
        })
    }
}

/// A failed job: its index and its panic payload.
type Failure = (usize, Box<dyn Any + Send>);

/// The loop behind both entry points: the calling thread plus
/// `workers - 1` scoped threads (capped at `n`) claim the indices in
/// increasing order.
fn map_with_workers<T: Send>(workers: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    // Both atomics publish no other data (results and panic payloads
    // travel through the joins), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    // Lowest failed index so far: no job above it starts any more, every
    // job below it still runs.
    let first_failure = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut done: Vec<(usize, T)> = Vec::new();
        let mut failed: Option<Failure> = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || i > first_failure.load(Ordering::Relaxed) {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| job(i))) {
                Ok(out) => done.push((i, out)),
                Err(payload) => {
                    first_failure.fetch_min(i, Ordering::Relaxed);
                    // Indices are claimed in increasing order, so this
                    // worker fails at most once before it stops.
                    failed = Some((i, payload));
                }
            }
        }
        (done, failed)
    };
    let per_worker = thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut all = vec![work()];
        all.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
        );
        all
    });
    let mut results = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for (done, failed) in per_worker {
        results.extend(done);
        failures.extend(failed);
    }
    if let Some((_, payload)) = failures.into_iter().min_by_key(|&(i, _)| i) {
        resume_unwind(payload);
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::mpsc;

    fn panic_message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 3, 8] {
            let (last_done, wait) = mpsc::channel();
            let wait = Mutex::new(wait);
            let out = map_with_workers(workers, 23, |i| {
                if i == 0 && workers > 1 {
                    // Job 0 finishes last: the other workers run every
                    // later job first.
                    wait.lock()
                        .expect("one waiter")
                        .recv()
                        .expect("job 22 signals");
                }
                if i == 22 {
                    last_done.send(()).expect("the receiver lives");
                }
                i * i
            });
            assert_eq!(
                out,
                (0..23).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn zero_jobs_and_more_workers_than_jobs() {
        for workers in [1, 2, 8] {
            assert!(map_with_workers(workers, 0, |i| i).is_empty());
        }
        assert_eq!(map_with_workers(8, 3, |i| i + 10), vec![10, 11, 12]);
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(5, |i| 2 * i), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "job 3")]
    fn a_failing_job_reraises_its_own_panic() {
        parallel_map(6, |i| {
            if i == 3 {
                panic!("job {i}");
            }
            i
        });
    }

    #[test]
    fn the_lowest_failing_job_is_reported() {
        for workers in [1, 2, 3, 8] {
            let (failing, wait) = mpsc::channel();
            let wait = Mutex::new(wait);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                map_with_workers(workers, 8, |i| {
                    if i == 2 {
                        if workers > 1 {
                            // Job 5 fails first; job 2 is still reported.
                            wait.lock()
                                .expect("one waiter")
                                .recv()
                                .expect("job 5 signals");
                        }
                        panic!("job 2");
                    }
                    if i == 5 {
                        failing.send(()).expect("the receiver lives");
                        panic!("job 5");
                    }
                    i
                })
            }))
            .expect_err("two jobs fail");
            assert_eq!(panic_message(&*payload), "job 2", "{workers} workers");
        }
    }

    #[test]
    fn results_come_back_in_task_order() {
        let pool = Executor::new(4);
        for round in 0..3u64 {
            // Reverse workloads so late tasks finish first if execution
            // order leaked into result order.
            let tasks: Vec<_> = (0..16u64)
                .map(|i| {
                    move || {
                        let mut acc = round;
                        for k in 0..(16 - i) * 1000 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                        }
                        (i, acc)
                    }
                })
                .collect();
            let out = pool.run_batch(tasks);
            assert_eq!(out.len(), 16);
            for (idx, (i, _)) in out.iter().enumerate() {
                assert_eq!(*i, idx as u64);
            }
        }
    }

    #[test]
    fn one_lane_runs_inline_and_matches_pool() {
        let serial = Executor::new(1);
        let pool = Executor::new(3);
        let caller = thread::current().id();
        let mk = || {
            (0..8u64)
                .map(|i| move || (i * i, thread::current().id()))
                .collect::<Vec<_>>()
        };
        let inline = serial.run_batch(mk());
        assert!(inline.iter().all(|&(_, id)| id == caller));
        let squares = |out: Vec<(u64, thread::ThreadId)>| -> Vec<u64> {
            out.into_iter().map(|(sq, _)| sq).collect()
        };
        assert_eq!(squares(inline), squares(pool.run_batch(mk())));
    }

    #[test]
    #[should_panic(expected = "job panicked on purpose")]
    fn job_panics_propagate_to_the_submitter() {
        let pool = Executor::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job panicked on purpose")),
            Box::new(|| 3),
        ];
        pool.run_batch(tasks);
    }

    #[test]
    fn lanes_clamp_to_one() {
        let pool = Executor::new(0);
        assert_eq!(pool.lanes(), 1);
        assert_eq!(pool.run_batch(vec![|| 7u32]), vec![7]);
    }
}
