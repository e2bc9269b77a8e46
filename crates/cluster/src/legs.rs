//! The leg pool: where the shard legs of a scatter phase run at once.
//!
//! One process-wide pool of `available_parallelism() − 1` named helper
//! threads, started lazily by the first batch of more than one leg (a
//! process that never scatters starts no thread). Its one entry point,
//! [`run`], hands out leg indices from one atomic counter to the
//! calling thread *and* the helpers it enlisted, and returns the
//! results in leg order, whoever ran each leg.
//!
//! * **Busy-core count.** The pool counts its idle helpers. A batch
//!   enlists at most `min(idle, n − 1)` of them — the caller is the
//!   n-th pair of hands — and with none idle the caller runs every leg
//!   itself, in order. A batch therefore never queues behind another
//!   query's batch, and the threads running legs never outnumber the
//!   cores. An enlisted helper whose job starts after the counter ran
//!   out returns at once; the caller does not wait for it. Nor does the
//!   count: once its own legs are done, the caller puts every enlisted
//!   helper whose job has not started yet back on it, so a helper busy
//!   elsewhere is never lost to the next batch.
//! * **Panics.** Every leg runs under `catch_unwind`. Once the batch is
//!   complete, the first panic in leg order is re-raised on the caller
//!   with its original payload — what a leg run on the caller would
//!   have done — and the helper that caught it lives on.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

pub(crate) type Job = Box<dyn FnOnce() + Send>;

pub(crate) struct Pool {
    /// Helpers not enlisted by any batch. A count only (jobs travel
    /// under the `jobs` lock), hence `Relaxed` throughout.
    pub(crate) idle: AtomicUsize,
    pub(crate) jobs: Mutex<VecDeque<Job>>,
    pub(crate) ready: Condvar,
}

/// Locks never guard a user callback (legs run outside them), so a
/// poisoned lock still holds consistent data.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn pool() -> &'static Pool {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = Arc::new(Pool {
            idle: AtomicUsize::new(0),
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let helpers = (1..cores)
            .filter(|i| {
                let pool = Arc::clone(&pool);
                thread::Builder::new()
                    .name(format!("symphony-leg-{i}"))
                    .spawn(move || pool.serve())
                    .is_ok()
            })
            .count();
        pool.idle.store(helpers, Ordering::Relaxed);
        pool
    })
}

impl Pool {
    fn serve(&self) {
        loop {
            let job = {
                let mut jobs = lock(&self.jobs);
                loop {
                    if let Some(job) = jobs.pop_front() {
                        break job;
                    }
                    jobs = self
                        .ready
                        .wait(jobs)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job();
        }
    }

    /// Take up to `want` idle helpers off the idle count.
    fn enlist(&self, want: usize) -> usize {
        self.idle
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |idle| {
                (idle > 0).then(|| idle - idle.min(want))
            })
            .map_or(0, |idle| idle.min(want))
    }
}

/// One batch of legs, shared by the caller and its helpers.
struct Batch<T, F> {
    leg: F,
    n: usize,
    next: AtomicUsize,
    /// Enlisted helpers whose job has not started: each either takes
    /// itself off (and goes back on the idle count when it is done) or
    /// is put back on the idle count by the caller, never both. A
    /// count only, like `idle`, hence `Relaxed`.
    unstarted: AtomicUsize,
    /// Each leg's outcome, and how many have landed.
    done: Mutex<(Vec<Option<thread::Result<T>>>, usize)>,
    complete: Condvar,
}

impl<T, F: Fn(usize) -> T> Batch<T, F> {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    fn run(&self, i: usize) -> thread::Result<T> {
        panic::catch_unwind(AssertUnwindSafe(|| (self.leg)(i)))
    }

    fn finish(&self, i: usize, out: thread::Result<T>) {
        let mut done = lock(&self.done);
        done.0[i] = Some(out);
        done.1 += 1;
        if done.1 == self.n {
            self.complete.notify_one();
        }
    }
}

/// Run legs `0..n`, concurrently where helpers are idle, and return
/// their results in leg order. A leg's panic is re-raised here, with
/// its payload, after every leg has finished.
pub(crate) fn run<T, F>(n: usize, leg: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    // One leg, or no helper idle: the caller runs every leg, in order.
    let enlisted = if n > 1 { pool().enlist(n - 1) } else { 0 };
    if enlisted == 0 {
        return (0..n).map(leg).collect();
    }
    let pool = pool();
    let batch = Arc::new(Batch {
        leg,
        n,
        next: AtomicUsize::new(0),
        unstarted: AtomicUsize::new(enlisted),
        done: Mutex::new(((0..n).map(|_| None).collect(), 0)),
        complete: Condvar::new(),
    });
    {
        let mut jobs = lock(&pool.jobs);
        for _ in 0..enlisted {
            let batch = Arc::clone(&batch);
            jobs.push_back(Box::new(move || {
                let started =
                    batch
                        .unstarted
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
                if started.is_err() {
                    // The caller already counted this helper idle.
                    return;
                }
                let mut last = None;
                while let Some(i) = batch.claim() {
                    if let Some((j, out)) = last.take() {
                        batch.finish(j, out);
                    }
                    last = Some((i, batch.run(i)));
                }
                // Back on the idle count before the last result lands:
                // a caller that sees its batch complete sees this
                // helper free again.
                pool.idle.fetch_add(1, Ordering::Relaxed);
                if let Some((j, out)) = last {
                    batch.finish(j, out);
                }
            }));
        }
    }
    for _ in 0..enlisted {
        pool.ready.notify_one();
    }
    while let Some(i) = batch.claim() {
        let out = batch.run(i);
        batch.finish(i, out);
    }
    let unstarted = batch.unstarted.swap(0, Ordering::Relaxed);
    pool.idle.fetch_add(unstarted, Ordering::Relaxed);
    let outs = {
        let mut done = lock(&batch.done);
        while done.1 < n {
            done = batch
                .complete
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut done.0)
    };
    outs.into_iter()
        .map(|out| match out.expect("every leg landed") {
            Ok(value) => value,
            Err(payload) => panic::resume_unwind(payload),
        })
        .collect()
}
