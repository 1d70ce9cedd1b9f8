//! Persistent rank pools: keep `p` worker threads alive across cell
//! executions so the hot measurement loop pays thread spawn + join
//! once per scheduler worker, not once per cell.
//!
//! # Rig lifecycle
//!
//! A [`RankPool`] owns *rigs*, keyed by rank count.  A rig is one set
//! of `p` parked OS threads (`kc-rank-<r>`) plus the per-size state
//! that is reset rather than reallocated between runs:
//!
//! * the message channels — cloned `Sender`/`Receiver` halves are
//!   handed to each run's fresh `CommEndpoint`s; any frames a
//!   misbehaving program left behind are drained at the start of the
//!   next run so every run still begins from empty queues;
//! * the `CollectiveState` — its `exchange` deposits before it
//!   folds, so every slot is overwritten before it is read, and the
//!   barrier resets itself after each wait.
//!
//! Everything whose content is per-run (the perf clock, the comm
//! endpoint with its pending list, NIC serialization horizon, stats
//! and trace buffer) is rebuilt each run by the same
//! `cluster::execute_rank` a freshly spawned set of rank threads would
//! run (the test reference), so reuse never changes a virtual timeline
//! — only *where* the closures execute, and the timeline never
//! depended on that.
//!
//! `run_on` checks a rig *out* of the pool for the duration of one
//! run, so concurrent runs at the same rank count get distinct rigs
//! (and distinct channels/barriers) instead of colliding.
//!
//! # Poisoning
//!
//! If any rank's program panics, the rig is *not* checked back in:
//! its channels may hold partial frames and its barrier may be out of
//! step.  The rig is dropped — disconnecting the job channels lets
//! idle workers exit on their own — and the caller observes the same
//! `"rank thread panicked"` panic a scoped spawn would raise.  The next
//! run at that rank count builds a fresh rig; a poisoned pool is
//! rebuilt, never deadlocked.

use crate::cluster::{execute_rank, Cluster, CollectiveState, RankCtx, RankReport, RunOutcome};
use crate::comm::Message;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Type-erased body of one run, called once per rank on that rank's
/// parked worker.
type Task = dyn Fn(usize) + Sync;

/// One unit of work for a parked worker: a borrowed task whose
/// referent [`run_on`] keeps alive until every worker acknowledged.
struct Job {
    task: *const Task,
}

// SAFETY: the pointee is `Sync`, and `run_on` does not return (or
// unwind) before every worker has acknowledged completion, so the
// borrow outlives every dereference.
unsafe impl Send for Job {}

/// One set of `p` parked worker threads with their reusable message
/// channels and collective state.
struct Rig {
    job_txs: Vec<Sender<Job>>,
    done_rx: Receiver<bool>,
    coll: CollectiveState,
    msg_senders: Vec<Sender<Message>>,
    msg_receivers: Vec<Receiver<Message>>,
}

impl Rig {
    fn build(p: usize) -> Self {
        let mut msg_senders = Vec::with_capacity(p);
        let mut msg_receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (s, r) = unbounded::<Message>();
            msg_senders.push(s);
            msg_receivers.push(r);
        }
        let (done_tx, done_rx) = unbounded::<bool>();
        let mut job_txs = Vec::with_capacity(p);
        for rank in 0..p {
            let (tx, rx) = unbounded::<Job>();
            job_txs.push(tx);
            let done = done_tx.clone();
            std::thread::Builder::new()
                .name(format!("kc-rank-{rank}"))
                .spawn(move || worker_loop(rx, done))
                .expect("failed to spawn rank-pool worker");
        }
        Self {
            job_txs,
            done_rx,
            coll: CollectiveState::new(p),
            msg_senders,
            msg_receivers,
        }
    }
}

/// A parked worker: block on the job channel, run each task under
/// `catch_unwind`, acknowledge with a success flag.  Exits when its
/// rig is dropped (the job channel disconnects).
fn worker_loop(jobs: Receiver<Job>, done: Sender<bool>) {
    let rank = rank_of_current_thread();
    while let Ok(job) = jobs.recv() {
        // SAFETY: `run_on` keeps the task alive until our ack below.
        let task = unsafe { &*job.task };
        let ok = catch_unwind(AssertUnwindSafe(|| task(rank))).is_ok();
        if done.send(ok).is_err() {
            break;
        }
    }
}

/// Recover this worker's rank from its `kc-rank-<r>` thread name.
fn rank_of_current_thread() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("kc-rank-"))
        .and_then(|r| r.parse().ok())
        .expect("rank-pool worker thread must be named kc-rank-<r>")
}

/// A pool of parked rank-worker rigs, keyed by rank count.
///
/// Every thread gets one implicitly through [`Cluster::run`]; hold one
/// explicitly to control reuse with [`Cluster::run_on`].
#[derive(Default)]
pub struct RankPool {
    rigs: Mutex<HashMap<usize, Vec<Rig>>>,
}

impl RankPool {
    /// An empty pool; rigs are built on first use per rank count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take an idle rig for `p` ranks out of the pool, building one if
    /// none is parked.
    fn checkout(&self, p: usize) -> Rig {
        let parked = self
            .rigs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&p)
            .and_then(Vec::pop);
        parked.unwrap_or_else(|| Rig::build(p))
    }

    /// Park a healthy rig for reuse.
    fn checkin(&self, p: usize, rig: Rig) {
        self.rigs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(p)
            .or_default()
            .push(rig);
    }
}

/// Run `program` on `p` ranks drawn from `pool` (see module docs for
/// the rig lifecycle).  Implements [`Cluster::run_on`].
pub(crate) fn run_on<T, F>(
    cluster: &Cluster,
    pool: &RankPool,
    p: usize,
    program: &F,
) -> RunOutcome<T>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    assert!(p > 0, "need at least one rank");
    let rig = pool.checkout(p);
    // reset point: a previous run on this rig may have left frames
    // behind (a program that exited with unconsumed messages); drain
    // *before* dispatching any work — no rank is sending yet, so this
    // cannot race with the run's own traffic — and every run starts
    // from empty queues exactly like a freshly spawned one.
    for receiver in &rig.msg_receivers {
        while receiver.try_recv().is_ok() {}
    }
    let config = cluster.config();
    let outcomes: Vec<Mutex<Option<(RankReport, T)>>> = (0..p).map(|_| Mutex::new(None)).collect();
    {
        let rig = &rig;
        let outcomes = &outcomes;
        let task = move |rank: usize| {
            let receiver = rig.msg_receivers[rank].clone();
            let out = execute_rank(
                config,
                p,
                rank,
                rig.msg_senders.clone(),
                receiver,
                &rig.coll,
                program,
            );
            *outcomes[rank].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        };
        let erased: *const (dyn Fn(usize) + Sync + '_) = &task;
        // SAFETY: lifetime erasure only — the ack loop below does not
        // finish until every worker is done with the task, and it runs
        // before `task` is dropped even on the panic path.
        let job_ptr: *const Task = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Task>(erased)
        };
        for tx in &rig.job_txs {
            if tx.send(Job { task: job_ptr }).is_err() {
                unreachable!("rank-pool worker channel closed while the rig was checked out");
            }
        }
        let mut panicked = false;
        for _ in 0..p {
            panicked |= !rig.done_rx.recv().expect("rank-pool worker died");
        }
        if panicked {
            // poison: panicking past `checkin` drops the rig instead
            // of parking it; the next run at this rank count builds a
            // fresh one.
            panic!("rank thread panicked");
        }
    }
    pool.checkin(p, rig);

    let mut reports = Vec::with_capacity(p);
    let mut results = Vec::with_capacity(p);
    for slot in outcomes {
        let (rep, res) = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("rank produced no outcome");
        reports.push(rep);
        results.push(res);
    }
    RunOutcome { reports, results }
}

thread_local! {
    static LOCAL_POOL: RankPool = RankPool::new();
}

/// Run `f` with this thread's persistent pool (built on first use;
/// its parked workers exit when the thread does).
pub(crate) fn with_local_pool<R>(f: impl FnOnce(&RankPool) -> R) -> R {
    LOCAL_POOL.with(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use std::thread::ThreadId;

    fn cluster() -> Cluster {
        Cluster::new(MachineConfig::test_tiny())
    }

    fn ring(ctx: &mut RankCtx) -> (f64, ThreadId) {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.flops((ctx.rank() as u64 + 1) * 100_000);
        ctx.send(right, 0, vec![ctx.rank() as f64]);
        let m = ctx.recv(left, 0);
        ctx.barrier();
        (ctx.now() + m.data[0], std::thread::current().id())
    }

    #[test]
    fn pooled_run_matches_spawned_run() {
        let pool = RankPool::new();
        let pooled = cluster().run_on(&pool, 4, ring);
        let spawned = cluster().run_spawned(4, ring);
        let times = |out: &RunOutcome<(f64, ThreadId)>| {
            out.results.iter().map(|(t, _)| *t).collect::<Vec<_>>()
        };
        assert_eq!(times(&pooled), times(&spawned));
        assert_eq!(pooled.elapsed(), spawned.elapsed());
        assert_eq!(pooled.total_messages(), spawned.total_messages());
        assert_eq!(pooled.total_bytes(), spawned.total_bytes());
    }

    #[test]
    fn pool_reuses_the_same_worker_threads_across_runs() {
        let pool = RankPool::new();
        let first = cluster().run_on(&pool, 3, ring);
        let second = cluster().run_on(&pool, 3, ring);
        let ids = |out: &RunOutcome<(f64, ThreadId)>| {
            out.results.iter().map(|(_, id)| *id).collect::<Vec<_>>()
        };
        assert_eq!(
            ids(&first),
            ids(&second),
            "a parked rig must be reused, not respawned"
        );
        // a different rank count gets its own rig
        let other = cluster().run_on(&pool, 2, ring);
        assert!(ids(&other).iter().all(|id| !ids(&first).contains(id)));
    }

    #[test]
    fn poisoned_rig_is_rebuilt_not_deadlocked() {
        let pool = RankPool::new();
        let healthy = cluster().run_on(&pool, 4, ring);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cluster().run_on(&pool, 4, |ctx: &mut RankCtx| {
                // rank 2 dies before any collective, so every worker
                // still acknowledges and nothing blocks
                assert!(ctx.rank() != 2, "injected rank failure");
                std::thread::current().id()
            })
        }));
        assert!(panicked.is_err(), "rank panics must propagate");

        // the next run at the same rank count succeeds on a fresh rig
        let rebuilt = cluster().run_on(&pool, 4, ring);
        let times = |out: &RunOutcome<(f64, ThreadId)>| {
            out.results.iter().map(|(t, _)| *t).collect::<Vec<_>>()
        };
        assert_eq!(times(&rebuilt), times(&healthy));
        let healthy_ids: Vec<ThreadId> = healthy.results.iter().map(|(_, id)| *id).collect();
        let rebuilt_ids: Vec<ThreadId> = rebuilt.results.iter().map(|(_, id)| *id).collect();
        assert!(
            rebuilt_ids.iter().all(|id| !healthy_ids.contains(id)),
            "a poisoned rig must be dropped and rebuilt with fresh workers"
        );
    }
}
