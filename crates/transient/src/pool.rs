//! A persistent worker pool for the engine's parallel sections.
//!
//! The sharded engine fans several kinds of embarrassingly-parallel work
//! out to worker threads: heapifying the per-shard event queues, applying
//! trace-utilisation batches and reading per-server usage at ticks.
//! Historically each section spawned fresh
//! `std::thread::scope` workers and joined them — a respawn per section,
//! thousands of times per run. [`WorkerPool`] keeps the threads alive for
//! the whole run instead: sections submit borrowed closures, the pool
//! round-robins them over its persistent workers, and
//! [`run`](WorkerPool::run) blocks until every task completed.
//!
//! The pool is purely an execution substrate — it imposes no ordering of
//! its own, so every determinism argument that held for scoped threads
//! (disjoint `&mut` slices, sequential folds in server order) carries
//! over unchanged. A task panic is re-raised on the submitting thread
//! after the section's remaining tasks finish, mirroring the join-then-
//! propagate behaviour of `std::thread::scope`.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;

/// A borrowed task: may capture references to the submitting stack frame,
/// which [`WorkerPool::run`] keeps alive until the task has completed.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Persistent worker threads the engine's parallel sections share.
///
/// See the [module docs](self) for the execution model. Dropping the
/// pool closes the job channels and joins every worker.
#[derive(Debug)]
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` persistent workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = mpsc::channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("deflate-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool { senders, handles }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Execute every task on the pool's workers (round-robin over threads,
    /// one queue per worker) and block until all of them finished. Tasks
    /// may borrow from the caller's stack: the borrow is sound because
    /// this method does not return until every task has run and been
    /// dropped. If any task panicked, the first payload is re-raised here
    /// after the whole batch completed.
    pub fn run<'scope>(&self, tasks: Vec<Task<'scope>>) {
        if tasks.is_empty() {
            return;
        }
        let (done_tx, done_rx) = mpsc::channel::<std::thread::Result<()>>();
        let submitted = tasks.len();
        for (i, task) in tasks.into_iter().enumerate() {
            // SAFETY: the task (and everything it borrows) outlives its
            // execution because the loop below blocks until `submitted`
            // completion messages arrived, and a worker sends its message
            // only after the task ran (or unwound) and was consumed.
            let task: Job = unsafe { std::mem::transmute::<Task<'scope>, Task<'static>>(task) };
            let done = done_tx.clone();
            let job: Job = Box::new(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(task));
                let _ = done.send(result.map(|_| ()));
            });
            self.senders[i % self.senders.len()]
                .send(job)
                .expect("pool worker alive");
        }
        drop(done_tx);
        let mut panic_payload = None;
        for _ in 0..submitted {
            match done_rx.recv().expect("pool task completion") {
                Ok(()) => {}
                Err(payload) => panic_payload = Some(payload),
            }
        }
        if let Some(payload) = panic_payload {
            panic::resume_unwind(payload);
        }
    }

    /// Fan `jobs` indexed computations out over the pool and collect their
    /// results **in index order** (task `k`'s result is element `k`, so
    /// downstream sequential folds see the same order a sequential loop
    /// would). Blocks until every computation finished.
    pub fn map<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        let f = &f;
        let tasks: Vec<Task<'_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(k, slot)| Box::new(move || *slot = Some(f(k))) as Task<'_>)
            .collect();
        self.run(tasks);
        slots
            .into_iter()
            .map(|slot| slot.expect("pool task completed"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Run a batch of borrowed tasks on `pool` when one is attached, or on a
/// throwaway pool of `threads` workers otherwise — the per-section spawn
/// the persistent pool replaces, kept as the fallback for callers driving
/// the parallel paths without a simulation-owned pool.
pub fn run_tasks<'scope>(pool: Option<&WorkerPool>, threads: usize, tasks: Vec<Task<'scope>>) {
    match pool {
        Some(pool) => pool.run(tasks),
        None => WorkerPool::new(threads).run(tasks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let mut values = vec![0usize; 8];
        let tasks: Vec<Task<'_>> = values
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i * i) as Task<'_>)
            .collect();
        pool.run(tasks);
        assert_eq!(values, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn pool_is_reusable_across_sections() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            let tasks: Vec<Task<'_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn map_returns_results_in_index_order() {
        let pool = WorkerPool::new(4);
        let base = 100usize;
        let out = pool.map(7, |k| base + k);
        assert_eq!(out, vec![100, 101, 102, 103, 104, 105, 106]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(3, |k| k), vec![0, 1, 2]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(Vec::new());
    }

    #[test]
    fn task_panic_propagates_after_the_batch() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Task<'_>> = (0..4)
                .map(|i| {
                    let finished = &finished;
                    Box::new(move || {
                        if i == 1 {
                            panic!("task failure");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 3);
        // The pool survives a panicked batch.
        assert_eq!(pool.map(2, |k| k), vec![0, 1]);
    }

    #[test]
    fn run_tasks_falls_back_to_a_throwaway_pool() {
        let mut hits = [false; 3];
        let tasks: Vec<Task<'_>> = hits
            .iter_mut()
            .map(|slot| Box::new(move || *slot = true) as Task<'_>)
            .collect();
        run_tasks(None, 2, tasks);
        assert!(hits.iter().all(|&h| h));
    }
}
