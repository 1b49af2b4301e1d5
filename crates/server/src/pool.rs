//! Worker pool with bounded-queue admission control.
//!
//! The event loop parses requests and *submits* them; a fixed set of
//! worker threads executes them. The queue between
//! the two is bounded: when it is full, submission fails immediately
//! and the client gets a `busy` response instead of the server
//! accumulating unbounded work — load shedding at admission, the only
//! place it is cheap.
//!
//! The pool is generic over the job type so `vamana-server` (engine
//! jobs) and `vamana-router` (backend fan-out jobs) share one
//! implementation. Control-plane work (`STATS`, `LAG`, health probes)
//! goes through [`WorkerPool::submit`], which bypasses the capacity
//! check — monitoring must stay answerable exactly when the server is
//! saturated enough to reject queries.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

struct Queue<J> {
    jobs: Mutex<QueueState<J>>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState<J> {
    jobs: VecDeque<J>,
    open: bool,
}

impl<J> Queue<J> {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<J>> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admission control: enqueues `job` unless the queue is full or the
    /// pool is shutting down, in which case the job is handed back.
    fn try_push(&self, job: J, enforce_capacity: bool) -> Result<(), J> {
        let mut state = self.lock();
        if !state.open || (enforce_capacity && state.jobs.len() >= self.capacity) {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the pool closes and the
    /// queue drains.
    fn pop(&self) -> Option<J> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        self.lock().open = false;
        self.ready.notify_all();
    }
}

/// Fixed worker threads over a bounded job queue.
pub struct WorkerPool<J: Send + 'static> {
    queue: Arc<Queue<J>>,
    workers: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads (named `<name>-N`) executing jobs with
    /// `run`.
    pub fn new<F>(workers: usize, queue_depth: usize, name: &str, run: F) -> Self
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            capacity: queue_depth.max(1),
        });
        let run = Arc::new(run);
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let run = Arc::clone(&run);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            run(job);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Submits a job, or returns it when the server is at capacity.
    pub fn try_submit(&self, job: J) -> Result<(), J> {
        self.queue.try_push(job, true)
    }

    /// Submits a control-plane job, bypassing the capacity check; fails
    /// only when the pool is shutting down.
    pub fn submit(&self, job: J) -> Result<(), J> {
        self.queue.try_push(job, false)
    }

    /// Closes the queue and joins the workers (queued jobs still run;
    /// their clients get replies before the pool exits).
    pub fn shutdown(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
