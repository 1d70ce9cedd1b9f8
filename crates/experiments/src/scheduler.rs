//! The campaign-global bounded cell scheduler.
//!
//! PR 3's pipelined `paper_tables` gave every experiment its own
//! worker thread, and each worker's `prefetch` executed its whole cell
//! set in parallel on its own.  With sixteen experiments that is
//! sixteen free-running drains competing for the same cores — total
//! executor concurrency scaled with the number of
//! *experiments selected*, not with the machine (the ROADMAP's
//! oversubscription item).  Wichmann et al.'s overlapping-kernel model
//! makes the same point analytically: coupled kernel measurements want
//! a bounded, cost-aware schedule, not a free-for-all.
//!
//! [`CellScheduler`] replaces that with one global priority queue
//! drained by a fixed pool of `jobs` worker threads:
//!
//! * **Priority** — earliest deadline pops first (cells an urgent
//!   serve batch submits to [`CellScheduler::drain`] with a deadline
//!   jump every deadline-free cell), then highest cost (the
//!   provider's `cost_estimate`; longest first, so the tail of the
//!   execute phase is not one straggler), ties broken by canonical key
//!   order.  Deadline-free drains all carry the same infinite
//!   deadline, so their schedule is the original pure cost order.
//!   Ordering uses `f64::total_cmp`, so a NaN cost skews the schedule
//!   instead of panicking — and since cells are bit-identical under
//!   any schedule, a skewed schedule is merely slower, never wrong.
//! * **Dedup at the queue** — each distinct cell owns one completion
//!   slot; a drain that wants an already-queued cell shares
//!   the slot instead of enqueueing a duplicate, so cross-experiment
//!   duplicates collapse *before* execution.  This is the only
//!   in-flight dedup: `CachedProvider` underneath is a plain memo.
//! * **A panic is an error** — a cell whose execution panics fills its
//!   slot with an error naming the key, so every drain waiting on it
//!   returns, and the worker goes on serving the queue.
//! * **Bounded concurrency** — at most `jobs` cells execute at any
//!   instant, structurally: there are only `jobs` worker threads.
//! * **Overlap preserved** — [`CellScheduler::drain`] blocks only on
//!   the cells the *caller* submitted, so an experiment still starts
//!   assembling the moment its own cells are done while other
//!   experiments' cells keep flowing.
//!
//! Each drain reports [`DrainStats`]: how its cells were satisfied
//! (executed / backend hit / cache hit / shared with a concurrent
//! drain) plus the queue depth it observed — the raw material for the
//! `SchedulerDrain` telemetry event and the `--metrics` saturation
//! report.

use kc_core::{Disposition, KcError, KcResult, MeasurementKey};
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Recover the guard from a poisoned lock: scheduler state is a queue
/// plus completion slots, both valid at every instruction boundary,
/// so one panicking thread must not wedge every other drain.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// How one cell is executed: the scheduler calls this for every cell
/// it pops, and the closure reports how the cache satisfied it.
pub type ExecuteFn = dyn Fn(&MeasurementKey) -> KcResult<Disposition> + Send + Sync;

/// How one [`CellScheduler::drain`] call's cells were satisfied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Cells this drain enqueued that ran on a fresh cluster.
    pub executed: usize,
    /// Cells this drain enqueued that the persistent backend served.
    pub backend_hits: usize,
    /// Cells this drain enqueued that were already in the in-memory
    /// cache by the time a worker popped them.
    pub hits: usize,
    /// Cells already queued by a concurrent drain; this drain waited
    /// on the shared slot instead of enqueueing a duplicate.
    pub shared: usize,
    /// Cells this drain newly enqueued (`executed + backend_hits +
    /// hits`).
    pub enqueued: usize,
    /// Queue depth observed right after this drain submitted its
    /// cells (its own included).
    pub queue_depth: usize,
}

/// One in-queue (or in-flight) cell: every drain waiting on the cell
/// parks on `done` until a worker fills `result`.
struct CellSlot {
    result: Mutex<Option<Result<Disposition, KcError>>>,
    done: Condvar,
}

impl CellSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, result: Result<Disposition, KcError>) {
        *relock(self.result.lock()) = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Disposition, KcError> {
        let mut guard = relock(self.result.lock());
        while guard.is_none() {
            guard = relock(self.done.wait(guard));
        }
        guard.clone().expect("slot filled")
    }
}

/// A queued cell, ordered so the `BinaryHeap` pops the most urgent
/// deadline first, then the most expensive cell, then canonical key
/// order (smallest key first) — the schedule is deterministic for
/// given costs and deadlines.
struct Queued {
    /// Caller-supplied urgency, `f64::INFINITY` when the drain carries
    /// no deadline.  Smaller pops first; all-infinite (the
    /// deadline-free case) makes this field a no-op and the ordering
    /// collapses to the original pure cost order.
    deadline: f64,
    cost: f64,
    key: MeasurementKey,
    slot: Arc<CellSlot>,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.deadline.total_cmp(&other.deadline).is_eq()
            && self.cost.total_cmp(&other.cost).is_eq()
            && self.key == other.key
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // max-heap: greater = popped first.  Earliest deadline wins
        // (reversed comparison: smaller deadline = greater priority),
        // then highest cost, then the *smallest* key (reversed again).
        // Every stage is total_cmp or Ord, so NaN deadlines or costs
        // order deterministically instead of panicking — and since
        // cells are bit-identical under any schedule, a skewed
        // schedule is merely slower, never wrong.
        other
            .deadline
            .total_cmp(&self.deadline)
            .then_with(|| self.cost.total_cmp(&other.cost))
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Queue state guarded by one mutex: the priority heap plus the slot
/// table that dedups concurrent submissions of the same cell.
struct State {
    queue: BinaryHeap<Queued>,
    /// Every cell currently queued or executing, by key.  A slot
    /// leaves the table the moment its worker finishes — succeeded
    /// cells are in the provider cache (a re-submission is a cheap
    /// `Hit`), failed cells get a fresh attempt from the next drain.
    slots: HashMap<MeasurementKey, Arc<CellSlot>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    execute: Box<ExecuteFn>,
}

/// The campaign-global bounded scheduler: a cost-ordered queue drained
/// by exactly `jobs` worker threads (see the module docs).
pub struct CellScheduler {
    shared: Arc<Shared>,
    jobs: usize,
    workers: Vec<JoinHandle<()>>,
}

impl CellScheduler {
    /// A scheduler whose `jobs` workers (at least one) execute cells
    /// through `execute`.
    pub fn new(jobs: usize, execute: Box<ExecuteFn>) -> Self {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: BinaryHeap::new(),
                slots: HashMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            execute,
        });
        let workers = (0..jobs)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("kc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self {
            shared,
            jobs,
            workers,
        }
    }

    /// The fixed worker pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Submit `cells` (key, cost) and block until every one of them is
    /// done, then report how they were satisfied.  Cells already
    /// queued by a concurrent drain are shared, not duplicated, and
    /// keep their original priority.  The first failure among *this*
    /// drain's cells is propagated after all of them settle.
    ///
    /// Cells submitted with a deadline (milliseconds of client budget;
    /// smaller = more urgent) pop ahead of every deadline-free cell in
    /// the queue, regardless of cost.  `None` (and NaN, which is not a
    /// budget) is infinitely patient: the pure cost order.
    pub fn drain(
        &self,
        cells: Vec<(MeasurementKey, f64)>,
        deadline_ms: Option<f64>,
    ) -> KcResult<DrainStats> {
        let deadline = match deadline_ms {
            Some(d) if !d.is_nan() => d,
            _ => f64::INFINITY,
        };
        let mut stats = DrainStats::default();
        // Submit everything under one lock acquisition: a jobs=1
        // worker cannot start draining mid-submission, so the pop
        // order over this batch is exactly the deadline-then-cost
        // order.
        let tickets: Vec<(Arc<CellSlot>, bool)> = {
            let mut state = relock(self.shared.state.lock());
            let tickets = cells
                .into_iter()
                .map(|(key, cost)| {
                    if let Some(slot) = state.slots.get(&key) {
                        return (slot.clone(), false);
                    }
                    let slot = CellSlot::new();
                    state.slots.insert(key.clone(), slot.clone());
                    state.queue.push(Queued {
                        deadline,
                        cost,
                        key,
                        slot: slot.clone(),
                    });
                    (slot, true)
                })
                .collect();
            stats.queue_depth = state.queue.len();
            tickets
        };
        self.shared.work_ready.notify_all();

        let mut first_error = None;
        for (slot, mine) in tickets {
            match (slot.wait(), mine) {
                (Ok(disposition), true) => {
                    stats.enqueued += 1;
                    match disposition {
                        Disposition::Executed => stats.executed += 1,
                        Disposition::BackendHit => stats.backend_hits += 1,
                        Disposition::Hit => stats.hits += 1,
                    }
                }
                (Ok(_), false) => stats.shared += 1,
                (Err(e), _) => first_error = first_error.or(Some(e)),
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
        relock(self.shared.state.lock()).shutdown = true;
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let queued = {
            let mut state = relock(shared.state.lock());
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(q) = state.queue.pop() {
                    break q;
                }
                state = relock(shared.work_ready.wait(state));
            }
        };
        // A panicking cell fails its drains like an erroring one, and
        // the worker lives on to serve the rest of the queue.
        let result = catch_unwind(AssertUnwindSafe(|| (shared.execute)(&queued.key)))
            .unwrap_or_else(|_| {
                Err(KcError::BadCell {
                    key: queued.key.to_string(),
                    reason: "execution panicked".to_string(),
                })
            });
        // Retire the slot before publishing the result: by the time a
        // waiter wakes, a successful cell is in the provider cache and
        // a failed cell is eligible for a fresh attempt.
        relock(shared.state.lock()).slots.remove(&queued.key);
        queued.slot.fill(result);
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

    #[test]
    fn jobs_one_pops_in_cost_order_with_key_tiebreak() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let seen = order.clone();
        let sched = CellScheduler::new(
            1,
            Box::new(move |k| {
                seen.lock().unwrap().push(k.clone());
                Ok(Disposition::Executed)
            }),
        );
        // costs: 2.0, 5.0, 5.0, NaN — NaN orders above everything
        // under total_cmp; the 5.0 tie breaks by key order
        let cells = vec![
            (key(0), 2.0),
            (key(2), 5.0),
            (key(1), 5.0),
            (key(3), f64::NAN),
        ];
        let stats = sched.drain(cells, None).unwrap();
        assert_eq!(stats.executed, 4);
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.shared, 0);
        assert_eq!(stats.queue_depth, 4);
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
    fn deadlined_cells_jump_deadline_free_ones_regardless_of_cost() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (seen, g) = (order.clone(), gate.clone());
        // the decoy cell (key 99) holds the single worker at the gate
        // so later submissions pile up in the heap and pop in priority
        // order once the gate opens
        let sched = CellScheduler::new(
            1,
            Box::new(move |k| {
                if k == &key(99) {
                    let mut open = relock(g.0.lock());
                    while !*open {
                        open = relock(g.1.wait(open));
                    }
                }
                seen.lock().unwrap().push(k.clone());
                Ok(Disposition::Executed)
            }),
        );
        std::thread::scope(|s| {
            let decoy = s.spawn(|| sched.drain(vec![(key(99), 100.0)], None));
            std::thread::sleep(std::time::Duration::from_millis(30));
            let patient = s.spawn(|| sched.drain(vec![(key(0), 9.0), (key(1), 8.0)], None));
            std::thread::sleep(std::time::Duration::from_millis(30));
            let urgent = s.spawn(|| sched.drain(vec![(key(2), 0.5)], Some(250.0)));
            std::thread::sleep(std::time::Duration::from_millis(30));
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
            decoy.join().unwrap().unwrap();
            patient.join().unwrap().unwrap();
            urgent.join().unwrap().unwrap();
        });
        assert_eq!(
            order.lock().unwrap()[1..],
            [key(2), key(0), key(1)],
            "the cheap-but-urgent cell pops ahead of expensive patient cells"
        );
    }

    #[test]
    fn nan_deadline_is_treated_as_no_deadline() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let seen = order.clone();
        let sched = CellScheduler::new(
            1,
            Box::new(move |k| {
                seen.lock().unwrap().push(k.clone());
                Ok(Disposition::Executed)
            }),
        );
        let stats = sched
            .drain(vec![(key(0), 2.0), (key(1), 5.0)], Some(f64::NAN))
            .unwrap();
        assert_eq!(stats.executed, 2);
        assert_eq!(
            *order.lock().unwrap(),
            vec![key(1), key(0)],
            "NaN is not a budget: pure cost order, no panic"
        );
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
        let stats = sched.drain(cells, None).unwrap();
        assert_eq!(stats.executed, 24);
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "at most jobs=3 cells in flight, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn concurrent_drains_share_queued_cells_instead_of_duplicating() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = runs.clone();
        let sched = Arc::new(CellScheduler::new(
            2,
            Box::new(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(Disposition::Executed)
            }),
        ));
        let cells: Vec<_> = (0..8).map(|i| (key(i), 1.0)).collect();
        let (sa, sb) = (sched.clone(), sched.clone());
        let (ca, cb) = (cells.clone(), cells);
        let (ra, rb) = std::thread::scope(|s| {
            let ha = s.spawn(move || sa.drain(ca, None).unwrap());
            let hb = s.spawn(move || sb.drain(cb, None).unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        // every cell ran exactly once; each run is attributed to
        // exactly one drain, the other drain shared the slot (unless
        // one drain finished before the other submitted, in which
        // case the late drain re-enqueued already-popped cells — the
        // execute closure here never caches, so re-enqueues re-run;
        // with a real CachedProvider they'd be Hits)
        assert_eq!(ra.executed + rb.executed, runs.load(Ordering::SeqCst));
        assert_eq!(ra.shared + ra.enqueued, 8);
        assert_eq!(rb.shared + rb.enqueued, 8);
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
        let err = sched.drain(vec![(key(0), 1.0)], None).unwrap_err();
        assert!(format!("{err}").contains("injected failure"));
        let stats = sched.drain(vec![(key(0), 1.0)], None).unwrap();
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
                let _ = tx.send(sched.drain(cells, None));
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
        let stats = sched.drain(Vec::new(), None).unwrap();
        assert_eq!(stats, DrainStats::default());
    }
}
