//! The unified job layer: one job pool behind every figure runner,
//! Monte-Carlo campaign and vulnerability sweep.
//!
//! [`Pool::run`] is the order-preserving scheduler: its workers share
//! one queue of indexed items. The
//! [`Pool`] carries its resolved worker count, and adds an observed
//! variant with per-job timing, a progress callback, and the row ×
//! column grid form every figure, vuln and audit matrix runs through.
//! Results are always written by item index, so the output of every
//! entry point is independent of the worker count and of which thread
//! executed which item — the invariant all determinism guarantees in
//! this workspace rest on.

use std::time::{Duration, Instant};

/// Progress snapshot handed to a [`Pool::run_observed`] observer after
/// each completed job, from the coordinating thread only.
#[derive(Debug, Clone, Copy)]
pub struct JobProgress {
    /// Index of the job that just finished (its position in the input).
    pub index: usize,
    /// Jobs finished so far, including this one.
    pub done: usize,
    /// Total jobs submitted.
    pub total: usize,
    /// Wall-clock time this job spent executing.
    pub elapsed: Duration,
}

/// A shared-queue worker pool with a resolved thread count.
///
/// `Pool` is deliberately stateless between calls — it records how many
/// workers to use and hands each batch to the same order-preserving
/// scheduler, so two pools with equal thread counts are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with `threads` workers; `0` resolves to all available
    /// cores.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        } else {
            threads
        };
        Pool { threads }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over `items`, preserving order.
    ///
    /// Workers take `(index, item)` pairs from one shared queue, in
    /// input order, and write each result at its index. A straggler item
    /// (e.g. one slow scheme × app cell) holds up only the worker running
    /// it: the others keep draining the queue. Because results land by
    /// index, the output — and everything built on top of it — is
    /// independent of the worker count and of which thread executed
    /// which item.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        use std::sync::Mutex;

        let n = items.len();
        let queue = Mutex::new(items.into_iter().enumerate());
        let results = Mutex::new(Vec::from_iter(std::iter::repeat_with(|| None).take(n)));
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| loop {
                    // The guard drops with this statement, before `f` runs.
                    let next = queue.lock().expect("not poisoned").next();
                    let Some((i, item)) = next else { break };
                    let r = f(item);
                    results.lock().expect("not poisoned")[i] = Some(r);
                });
            }
        });
        let results = results.into_inner().expect("not poisoned");
        results.into_iter().map(|r| r.expect("filled")).collect()
    }

    /// Runs `f` on every `(row, col)` pair of `rows × cols` as one batch,
    /// submitted row-major, and returns `grid[row][col]`.
    pub(crate) fn run_grid<R, C, T, F>(&self, rows: &[R], cols: &[C], f: F) -> Vec<Vec<T>>
    where
        R: Sync,
        C: Sync,
        T: Send,
        F: Fn(&R, &C) -> T + Sync,
    {
        let cells = rows
            .iter()
            .flat_map(|r| cols.iter().map(move |c| (r, c)))
            .collect();
        let mut results = self.run(cells, |(r, c)| f(r, c)).into_iter();
        rows.iter()
            .map(|_| results.by_ref().take(cols.len()).collect())
            .collect()
    }

    /// Runs `f` over `items`, preserving order and reporting each job's
    /// completion (with per-job wall-clock timing) to `observer` from the
    /// coordinating thread.
    pub fn run_observed<T, R, F>(
        &self,
        items: Vec<T>,
        f: F,
        mut observer: impl FnMut(&JobProgress),
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let total = items.len();
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Duration)>();
        let timed = |(i, item): (usize, T)| {
            let started = Instant::now();
            let r = f(item);
            // The pool owns the receiver for the whole scope, so the send
            // cannot fail while jobs are running.
            let _ = tx.send((i, started.elapsed()));
            r
        };
        let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();

        let results = std::thread::scope(|s| {
            let worker = s.spawn(|| self.run(indexed, timed));
            for done in 1..=total {
                let (index, elapsed) = rx.recv().expect("one event per job");
                observer(&JobProgress {
                    index,
                    done,
                    total,
                    elapsed,
                });
            }
            worker.join().expect("pool workers do not panic")
        });
        results
    }
}

impl Default for Pool {
    /// All available cores.
    fn default() -> Self {
        Pool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_resolves_zero_to_all_cores() {
        assert!(Pool::new(0).threads() >= 1);
        assert_eq!(Pool::new(3).threads(), 3);
    }

    #[test]
    fn pool_run_matches_parallel_map() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37) ^ 11).collect();
        for threads in [1, 2, 8] {
            let got = Pool::new(threads).run(items.clone(), |x| x.wrapping_mul(0x9E37) ^ 11);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn a_straggler_holds_up_only_its_own_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Item 0 spins until every other item has run, so the run ends
        // only if the second worker drains the queue meanwhile; a static
        // per-worker split would leave items queued behind item 0.
        let n = 64;
        let others_done = AtomicUsize::new(0);
        let out = Pool::new(2).run((0..n).collect(), |i: usize| {
            if i == 0 {
                let started = Instant::now();
                while others_done.load(Ordering::SeqCst) < n - 1 {
                    assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "items stayed queued behind the straggler"
                    );
                    std::thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
            }
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn run_grid_returns_each_row_in_column_order() {
        let (rows, cols) = ([10u64, 20, 30], [1u64, 2]);
        for threads in [1, 4] {
            let grid = Pool::new(threads).run_grid(&rows, &cols, |r, c| r + c);
            assert_eq!(grid, [[11, 12], [21, 22], [31, 32]], "threads={threads}");
        }
        let no_cols = Pool::new(2).run_grid(&rows, &[] as &[u64], |r, c| r + c);
        assert_eq!(no_cols, vec![Vec::<u64>::new(); 3]);
    }

    #[test]
    fn run_observed_reports_every_job_once() {
        let mut seen = [false; 64];
        let mut last_done = 0;
        let out = Pool::new(4).run_observed(
            (0..64u64).collect(),
            |x| x + 1,
            |p| {
                assert_eq!(p.total, 64);
                assert_eq!(p.done, last_done + 1, "done counts up");
                last_done = p.done;
                assert!(!seen[p.index], "job {} reported twice", p.index);
                seen[p.index] = true;
            },
        );
        assert!(seen.iter().all(|&s| s));
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = Pool::new(2).run(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
        let out: Vec<u64> = Pool::new(2).run_observed(Vec::new(), |x| x, |_| {});
        assert!(out.is_empty());
    }
}
