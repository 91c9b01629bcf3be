//! A small shared worker pool for request-level parallelism.
//!
//! The engine already parallelises *inside* one mining run (candidate
//! scoring fans out across a scoped pool, see [`engine`](crate::engine));
//! a long-running daemon additionally needs parallelism *across* runs:
//! many tenant sessions accepting mine requests concurrently, with the
//! total CPU footprint bounded no matter how many connections are open.
//! [`WorkerPool`] is that bound — a fixed set of threads draining one
//! queue of boxed jobs.
//!
//! Jobs are opaque `FnOnce()` closures handed to [`WorkerPool::submit`];
//! a job reports back over a channel it owns. A panicking job is
//! contained to that job: the unwind drops its sender, so the caller's
//! `recv` sees a disconnected channel instead of hanging, and the worker
//! keeps serving. The pool joins its workers on drop, so owning one is
//! enough to guarantee no thread outlives it.
//!
//! ```
//! use cspm_core::pool::WorkerPool;
//! use std::sync::mpsc::channel;
//!
//! let pool = WorkerPool::new(2);
//! let (tx, rx) = channel();
//! pool.submit(move || tx.send(21 * 2).unwrap());
//! assert_eq!(rx.recv(), Ok(42));
//! ```

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads draining a shared job queue in
/// submission order. See the [module docs](self).
#[derive(Debug)]
pub struct WorkerPool {
    /// `Some` while accepting jobs; dropped first on teardown so the
    /// workers' receiver disconnects and they drain out.
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (`0` is promoted to 1 — a pool that can
    /// never run anything is always a bug).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        // std's mpsc receiver is single-consumer; share it behind a
        // mutex so each worker pops exactly one job at a time.
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("cspm-pool-{i}"))
                    .spawn(move || loop {
                        // Holding the lock only while popping keeps the
                        // other workers runnable during the job itself.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            // A sibling panicked while holding the
                            // queue lock; there is no queue discipline
                            // left worth preserving.
                            Err(_) => break,
                        };
                        match job {
                            // Contain a panicking job to that job: the
                            // worker survives, the queue stays drained,
                            // and the waiting caller sees its channel
                            // disconnect (the job's sender died in the
                            // unwind) instead of a hung daemon.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // queue closed: pool dropped
                        }
                    })
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` and returns immediately. Jobs start in submission
    /// order (whenever a worker frees up).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the queue, then wait for in-flight jobs to finish.
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            // A job that panicked already disconnected its caller's
            // channel; swallowing the join error keeps drop from
            // double-panicking during unwinding.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let (tx, rx) = channel();
        for i in 0..32usize {
            let tx = tx.clone();
            pool.submit(move || tx.send((i, i * i)).unwrap());
        }
        drop(tx);
        let mut results: Vec<(usize, usize)> = rx.iter().collect();
        results.sort_unstable();
        assert_eq!(results, (0..32).map(|i| (i, i * i)).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_is_promoted_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = channel();
        pool.submit(move || tx.send(7).unwrap());
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn submitted_jobs_all_execute_before_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins: every queued job must have run by then.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    /// A panicking job disconnects its caller's channel (the error the
    /// caller reports) instead of leaving it to hang, and the worker
    /// that ran it keeps serving.
    #[test]
    fn panicked_job_reports_pool_error_not_hang() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel::<usize>();
        pool.submit(move || {
            // Own the sender like a reporting job, so the unwind drops it.
            let _tx = tx;
            panic!("job exploded");
        });
        assert!(rx.recv().is_err(), "the unwind must drop the sender");
        for want in [5, 6] {
            let (tx, rx) = channel();
            pool.submit(move || tx.send(want).unwrap());
            assert_eq!(rx.recv(), Ok(want));
        }
    }
}
