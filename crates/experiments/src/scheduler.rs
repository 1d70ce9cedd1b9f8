//! The campaign-global bounded cell scheduler.
//!
//! [`CellScheduler`] executes a campaign's cells on a fixed pool of
//! `jobs` worker threads, one drain at a time (a drain is one
//! [`CellScheduler::drain`] call):
//!
//! * **One drain at a time** — a drain holds the scheduler's queue
//!   from submission until its last cell settles, so a concurrent
//!   caller waits its turn.  The cells it shares with the earlier
//!   drain are then in the provider cache and come back as cheap
//!   `Hit`s, which keeps every cell executed exactly once under any
//!   number of callers without a table of in-flight cells.
//!   `CachedProvider` underneath is a plain memo.
//! * **Order** — each drain dedupes its cells by key and sorts them
//!   once: highest cost first (the provider's `cost_estimate`, so the
//!   tail of the execute phase is not one straggler), ties in
//!   canonical key order.  Ordering uses `f64::total_cmp`, so a NaN
//!   cost skews the schedule instead of panicking — and since cells
//!   are bit-identical under any schedule, a skewed schedule is
//!   merely slower, never wrong.
//! * **A panic is an error** — a cell whose execution panics settles
//!   with an error naming the key, so its drain returns, and the
//!   worker goes on serving the queue.
//! * **Bounded concurrency** — at most `jobs` cells execute at any
//!   instant, structurally: there are only `jobs` worker threads.
//!   A worker runs every rank of its cell itself, as futures on its
//!   own thread; the workers persist for the scheduler's lifetime.
//!
//! Each drain reports [`DrainStats`]: how its cells were satisfied
//! (executed / backend hit / cache hit) — the raw material for the
//! `SchedulerDrain` telemetry event and the `--metrics` saturation
//! report.

use kc_core::{Disposition, KcError, KcResult, MeasurementKey};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Recover the guard from a poisoned lock: the queue is a channel
/// end, valid at every instruction boundary, so one panicking thread
/// must not wedge every later drain.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// How one cell is executed: the scheduler calls this for every cell
/// it pops, and the closure reports how the cache satisfied it.
pub(crate) type ExecuteFn = dyn Fn(&MeasurementKey) -> KcResult<Disposition> + Send + Sync;

/// How one [`CellScheduler::drain`] call's distinct cells were
/// satisfied: each is counted exactly once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Cells that ran on a fresh cluster.
    pub executed: usize,
    /// Cells the persistent backend served.
    pub backend_hits: usize,
    /// Cells already in the in-memory cache by the time a worker
    /// popped them.
    pub hits: usize,
}

/// One queued cell: its position in the drain's schedule, its key,
/// and where its worker reports the result.
struct Job {
    index: usize,
    key: MeasurementKey,
    settled: Sender<(usize, KcResult<Disposition>)>,
}

/// The campaign-global bounded scheduler: drains run one at a time
/// through exactly `jobs` worker threads (see the module docs).
pub struct CellScheduler {
    /// The queue's sending end.  A drain holds this lock until its
    /// last cell settles, which is what serialises drains; `None`
    /// only while the scheduler shuts down.
    queue: Mutex<Option<Sender<Job>>>,
    jobs: usize,
    workers: Vec<JoinHandle<()>>,
}

impl CellScheduler {
    /// A scheduler whose `jobs` workers (at least one) execute cells
    /// through `execute`.
    pub fn new(jobs: usize, execute: Box<ExecuteFn>) -> Self {
        let jobs = jobs.max(1);
        let (queue, popped) = mpsc::channel();
        let popped = Arc::new(Mutex::new(popped));
        let execute: Arc<ExecuteFn> = Arc::from(execute);
        let workers = (0..jobs)
            .map(|i| {
                let (popped, execute) = (popped.clone(), execute.clone());
                std::thread::Builder::new()
                    .name(format!("kc-worker-{i}"))
                    .spawn(move || worker_loop(&popped, execute.as_ref()))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self {
            queue: Mutex::new(Some(queue)),
            jobs,
            workers,
        }
    }

    /// The fixed worker pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute `cells` (key, cost), waiting for any drain already
    /// running to finish first, and block until every one of them is
    /// done; then report how they were satisfied.  A key given twice
    /// runs once, at the position of its costliest copy.  The first
    /// failure in schedule order is propagated after all cells
    /// settle.
    pub fn drain(&self, mut cells: Vec<(MeasurementKey, f64)>) -> KcResult<DrainStats> {
        cells.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut seen = HashSet::new();
        cells.retain(|(key, _)| seen.insert(key.clone()));

        let queue = relock(self.queue.lock());
        let queue = queue.as_ref().expect("scheduler is running");
        let (settled, results) = mpsc::channel();
        for (index, (key, _)) in cells.into_iter().enumerate() {
            let job = Job {
                index,
                key,
                settled: settled.clone(),
            };
            queue.send(job).expect("scheduler workers are running");
        }
        // the iterator ends once every job has reported and dropped
        // its sender
        drop(settled);
        let mut results: Vec<_> = results.iter().collect();
        results.sort_by_key(|(index, _)| *index);

        let mut stats = DrainStats::default();
        let mut first_error = None;
        for (_, result) in results {
            match result {
                Ok(Disposition::Executed) => stats.executed += 1,
                Ok(Disposition::BackendHit) => stats.backend_hits += 1,
                Ok(Disposition::Hit) => stats.hits += 1,
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }
}

impl Drop for CellScheduler {
    fn drop(&mut self) {
        // closing the queue ends every worker's loop
        relock(self.queue.lock()).take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(popped: &Mutex<Receiver<Job>>, execute: &ExecuteFn) {
    loop {
        let Ok(job) = relock(popped.lock()).recv() else {
            return;
        };
        // A panicking cell fails its drain like an erroring one, and
        // the worker lives on to serve the rest of the queue.
        let result = catch_unwind(AssertUnwindSafe(|| execute(&job.key))).unwrap_or_else(|_| {
            Err(KcError::BadCell {
                key: job.key.to_string(),
                reason: "execution panicked".to_string(),
            })
        });
        let _ = job.settled.send((job.index, result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_core::{CellContext, CellKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(i: usize) -> MeasurementKey {
        CellContext {
            benchmark: "BT".into(),
            class: "S".into(),
            procs: 4,
            exec_digest: "w1t2".into(),
            machine_fingerprint: "fp".into(),
        }
        .key(CellKind::Chain(vec![kc_core::KernelId(i as u32)]), 5)
    }

    /// A scheduler whose execute closure records pop order.
    fn recording(jobs: usize) -> (CellScheduler, Arc<Mutex<Vec<MeasurementKey>>>) {
        let order = Arc::new(Mutex::new(Vec::new()));
        let seen = order.clone();
        let sched = CellScheduler::new(
            jobs,
            Box::new(move |k| {
                seen.lock().unwrap().push(k.clone());
                Ok(Disposition::Executed)
            }),
        );
        (sched, order)
    }

    #[test]
    fn jobs_one_pops_in_cost_order_with_key_tiebreak() {
        let (sched, order) = recording(1);
        // costs: 2.0, 5.0, 5.0, NaN — NaN orders above everything
        // under total_cmp; the 5.0 tie breaks by key order
        let cells = vec![
            (key(0), 2.0),
            (key(2), 5.0),
            (key(1), 5.0),
            (key(3), f64::NAN),
        ];
        let stats = sched.drain(cells).unwrap();
        assert_eq!(stats.executed, 4);
        let k12 = {
            let mut pair = [key(1), key(2)];
            pair.sort();
            pair
        };
        assert_eq!(
            *order.lock().unwrap(),
            vec![key(3), k12[0].clone(), k12[1].clone(), key(0)],
            "NaN first (total_cmp), then the 5.0 tie in key order, then 2.0"
        );
    }

    #[test]
    fn a_key_given_twice_in_one_drain_executes_once() {
        let (sched, order) = recording(2);
        let cells = vec![(key(0), 1.0), (key(1), 3.0), (key(0), 7.0)];
        let stats = sched.drain(cells).unwrap();
        assert_eq!(stats.executed, 2, "one queued cell per distinct key");
        let mut ran = order.lock().unwrap().clone();
        ran.sort();
        let mut want = vec![key(0), key(1)];
        want.sort();
        assert_eq!(ran, want, "each key executed exactly once");
    }

    #[test]
    fn never_runs_more_than_jobs_cells_at_once() {
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (a, p) = (active.clone(), peak.clone());
        let sched = CellScheduler::new(
            3,
            Box::new(move |_| {
                let now = a.fetch_add(1, Ordering::SeqCst) + 1;
                p.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                a.fetch_sub(1, Ordering::SeqCst);
                Ok(Disposition::Executed)
            }),
        );
        let cells: Vec<_> = (0..24).map(|i| (key(i), i as f64)).collect();
        let stats = sched.drain(cells).unwrap();
        assert_eq!(stats.executed, 24);
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "at most jobs=3 cells in flight, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn a_failed_cell_leaves_the_queue_so_the_next_drain_retries() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = attempts.clone();
        let sched = CellScheduler::new(
            1,
            Box::new(move |_| {
                if a.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(KcError::Io("injected failure".into()))
                } else {
                    Ok(Disposition::Executed)
                }
            }),
        );
        let err = sched.drain(vec![(key(0), 1.0)]).unwrap_err();
        assert!(format!("{err}").contains("injected failure"));
        let stats = sched.drain(vec![(key(0), 1.0)]).unwrap();
        assert_eq!(stats.executed, 1, "fresh drain retries the failed cell");
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_panicking_cell_fails_its_drain_and_the_worker_serves_on() {
        let sched = Arc::new(CellScheduler::new(
            1,
            Box::new(|k| {
                assert!(k != &key(0), "injected cell panic");
                Ok(Disposition::Executed)
            }),
        ));
        // each drain runs on its own thread, so a drain that hangs
        // fails the test at the timeout instead of stalling the suite
        let drain = |cells: Vec<(MeasurementKey, f64)>| {
            let (tx, rx) = std::sync::mpsc::channel();
            let sched = sched.clone();
            let handle = std::thread::spawn(move || {
                let _ = tx.send(sched.drain(cells));
            });
            let result = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("the drain must return, not hang");
            handle.join().expect("drain thread");
            result
        };
        let err = drain(vec![(key(0), 1.0)]).unwrap_err();
        assert!(format!("{err}").contains(&key(0).to_string()), "{err}");
        let stats = drain(vec![(key(1), 1.0)]).unwrap();
        assert_eq!(stats.executed, 1, "the one worker survived the panic");
    }

    #[test]
    fn empty_drain_is_a_noop() {
        let sched = CellScheduler::new(4, Box::new(|_| Ok(Disposition::Executed)));
        assert_eq!(sched.jobs(), 4);
        let stats = sched.drain(Vec::new()).unwrap();
        assert_eq!(stats, DrainStats::default());
    }
}
