//! The work-stealing worker pool shard jobs run on.
//!
//! Built on the crossbeam shim's [`deque`](crossbeam::deque) primitives: a
//! global [`Injector`] that submissions land
//! in, one [`crossbeam::deque::Worker`] deque per thread, and a
//! [`crossbeam::deque::Stealer`] ring so an idle worker drains its
//! siblings before parking.  Jobs are opaque closures; a job that panics is
//! caught at the pool perimeter (the thread survives and keeps serving),
//! counted, and otherwise ignored — outcome bookkeeping is the job's own
//! responsibility, which is how the server turns a dead worker into
//! degraded tallies rather than a dead daemon.
//!
//! [`WorkerPool::drain`] blocks until every queued and running job has
//! finished — the graceful-shutdown barrier — and [`WorkerPool::join`]
//! additionally stops and joins the threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between the pool handle and its worker threads.
struct PoolState {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Jobs queued or currently executing.
    pending: AtomicUsize,
    /// Jobs whose closure panicked (absorbed at the perimeter).
    panics: AtomicU64,
    /// Set once: workers exit when this is up and no work remains.
    stop: AtomicBool,
    /// Parking lot for idle workers and for [`WorkerPool::drain`] waiters.
    lot: Mutex<()>,
    signal: Condvar,
}

impl PoolState {
    /// Take one job: own deque first, then the injector (batching), then
    /// sibling deques.
    fn find_job(&self, own: &Worker<Job>) -> Option<Job> {
        if let Some(job) = own.pop() {
            return Some(job);
        }
        loop {
            match self.injector.steal_batch_and_pop(own) {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }
}

/// A fixed-size pool of work-stealing worker threads.
pub struct WorkerPool {
    state: Arc<PoolState>,
    /// Guarded so [`WorkerPool::join`] can take `&self` (the server shares
    /// the pool behind an `Arc`); emptied by the first join.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Start `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let deques: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        let state = Arc::new(PoolState {
            injector: Injector::new(),
            stealers: deques.iter().map(Worker::stealer).collect(),
            pending: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            lot: Mutex::new(()),
            signal: Condvar::new(),
        });
        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(i, own)| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("ftkr-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state, &own))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            state,
            threads: Mutex::new(threads),
        }
    }

    /// Queue a job.  Jobs run in submission order per worker but race
    /// across workers; anything order-sensitive must synchronize itself.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        self.state.injector.push(Box::new(job));
        // Notify under the lot: a worker between its failed `find_job` and
        // its wait holds the lot, so it either sees the pushed job on its
        // re-check or is already waiting when this signal fires.
        let _lot = self.state.lot.lock().expect("pool lot poisoned");
        self.state.signal.notify_all();
    }

    /// Jobs queued or currently executing.
    pub fn pending(&self) -> usize {
        self.state.pending.load(Ordering::SeqCst)
    }

    /// Jobs whose closure panicked (each was absorbed; the worker thread
    /// survived).
    pub fn panics(&self) -> u64 {
        self.state.panics.load(Ordering::SeqCst)
    }

    /// Block until every queued and running job has finished.
    pub fn drain(&self) {
        let mut guard = self.state.lot.lock().expect("pool lot poisoned");
        while self.state.pending.load(Ordering::SeqCst) > 0 {
            let (g, _) = self
                .state
                .signal
                .wait_timeout(guard, Duration::from_millis(5))
                .expect("pool lot poisoned");
            guard = g;
        }
    }

    /// Drain, then stop and join the worker threads.  Idempotent: a second
    /// call finds no threads left to join.
    pub fn join(&self) {
        self.drain();
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.signal.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .threads
            .lock()
            .expect("pool threads poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One worker thread: run jobs until stopped and out of work.
fn worker_loop(state: &PoolState, own: &Worker<Job>) {
    loop {
        if let Some(job) = state.find_job(own) {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                state.panics.fetch_add(1, Ordering::SeqCst);
            }
            state.pending.fetch_sub(1, Ordering::SeqCst);
            state.signal.notify_all();
            continue;
        }
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        // Park.  Re-checking the injector under the lot closes the
        // push-after-miss race with `spawn`, which notifies under the lot;
        // the timeout only bounds how long a sibling's deque (refilled by a
        // batch steal) waits to be stolen from.
        let guard = state.lot.lock().expect("pool lot poisoned");
        if !state.injector.is_empty() {
            continue;
        }
        let _ = state
            .signal
            .wait_timeout(guard, Duration::from_millis(5))
            .expect("pool lot poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn jobs_run_exactly_once_across_workers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.pending(), 0);
        pool.join();
    }

    #[test]
    fn an_idle_worker_wakes_for_each_spawn_without_waiting_out_its_timeout() {
        // 200 spawn → finish round trips on an idle one-worker pool.  The
        // test thread spins on the job's flag, so the next spawn lands while
        // the worker is between finding no job and parking: the window in
        // which a lost wake-up parks it for its full 5 ms timeout.  A prompt
        // wake-up takes microseconds, so a trip of 4 ms or more is a lost
        // wake-up (or a rare scheduling stall).  Without the fix a fifth or
        // more of the trips are slow; with it, none.
        let pool = WorkerPool::new(1);
        let trips = 200;
        let mut slow = 0;
        for _ in 0..trips {
            let done = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&done);
            let start = std::time::Instant::now();
            pool.spawn(move || flag.store(true, Ordering::SeqCst));
            let mut spins = 0u32;
            while !done.load(Ordering::SeqCst) {
                // Spin first (the job is tiny), then yield so a one-CPU
                // host still runs the worker.
                if spins < 10_000 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            if start.elapsed() >= Duration::from_millis(4) {
                slow += 1;
            }
        }
        assert!(
            slow < trips / 20,
            "{slow} of {trips} round trips waited ≥ 4 ms"
        );
        pool.join();
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        pool.spawn(|| panic!("job dies"));
        let ran = Arc::new(AtomicU32::new(0));
        let flag = Arc::clone(&ran);
        pool.spawn(move || {
            flag.store(1, Ordering::SeqCst);
        });
        pool.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "the single worker survived");
        assert_eq!(pool.panics(), 1);
        pool.join();
    }
}
