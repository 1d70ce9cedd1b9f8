//! Parked rank workers: keep the OS threads that carry simulated ranks
//! alive across runs, so the hot measurement loop pays thread spawn +
//! join once per calling thread, not once per cell.
//!
//! Each calling thread owns one growable set of parked workers.
//! Worker *r* (`kc-rank-<r>`) runs rank *r* of every run from that
//! thread; a run at `p` ranks uses workers `0..p` and spawns only the
//! ones still missing.  A worker holds no simulator state: the message
//! mesh and the collective state are built fresh for every run by
//! `Cluster::run`, so nothing a run leaves behind — an unread message,
//! a rank that panicked — can reach the next one.  A panicking rank is
//! caught on its worker, the run still waits for every rank to finish,
//! and the caller then sees the panic; the workers stay healthy.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Type-erased body of one run, called once per rank on that rank's
/// parked worker.
pub(crate) type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// A borrowed task whose referent [`run_parked`] keeps alive until
/// every worker it was sent to has acknowledged.
struct Job(*const Task<'static>);

// SAFETY: the pointee is `Sync`, and `run_parked` does not return (or
// unwind) before every worker that received the job acknowledged it,
// so the borrow outlives every dereference.
unsafe impl Send for Job {}

/// One calling thread's workers: worker `r` is fed by `jobs[r]` and
/// acknowledges on the shared `done` channel with a success flag.
struct Workers {
    jobs: Vec<Sender<Job>>,
    done_tx: Sender<bool>,
    done_rx: Receiver<bool>,
}

impl Workers {
    fn new() -> Self {
        let (done_tx, done_rx) = unbounded();
        Self {
            jobs: Vec::new(),
            done_tx,
            done_rx,
        }
    }

    /// Spawn workers until there are at least `p`.
    fn grow_to(&mut self, p: usize) {
        while self.jobs.len() < p {
            let rank = self.jobs.len();
            let (tx, rx) = unbounded::<Job>();
            let done = self.done_tx.clone();
            std::thread::Builder::new()
                .name(format!("kc-rank-{rank}"))
                .spawn(move || worker_loop(rank, rx, done))
                .expect("failed to spawn rank worker");
            self.jobs.push(tx);
        }
    }
}

thread_local! {
    static WORKERS: RefCell<Workers> = RefCell::new(Workers::new());
}

/// A parked worker: block on the job channel, run each task under
/// `catch_unwind`, acknowledge with a success flag.  Exits when its
/// calling thread does (the job channel disconnects).
fn worker_loop(rank: usize, jobs: Receiver<Job>, done: Sender<bool>) {
    while let Ok(job) = jobs.recv() {
        // SAFETY: `run_parked` keeps the task alive until our ack below.
        let task = unsafe { &*job.0 };
        let ok = catch_unwind(AssertUnwindSafe(|| task(rank))).is_ok();
        if done.send(ok).is_err() {
            break;
        }
    }
}

/// Run `task(r)` for every rank `r < p` on this thread's parked
/// workers and wait for all of them.  Panics (after every rank has
/// finished) if any rank panicked.
pub(crate) fn run_parked(p: usize, task: &Task<'_>) {
    // SAFETY: lifetime erasure only — the ack loop below waits for
    // every worker the job reached before `task`'s borrow ends, and
    // nothing between the sends and the acks can unwind.
    let job = unsafe { std::mem::transmute::<*const Task<'_>, *const Task<'static>>(task) };
    WORKERS.with(|workers| {
        let mut workers = workers.borrow_mut();
        workers.grow_to(p);
        let sent = workers.jobs[..p]
            .iter()
            .filter(|tx| tx.send(Job(job)).is_ok())
            .count();
        let healthy = (0..sent).fold(sent == p, |ok, _| workers.done_rx.recv() == Ok(true) && ok);
        assert!(healthy, "rank thread panicked");
    });
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, RankCtx, RunOutcome};
    use crate::config::MachineConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
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

    fn times(out: &RunOutcome<(f64, ThreadId)>) -> Vec<f64> {
        out.results.iter().map(|(t, _)| *t).collect()
    }

    fn ids(out: &RunOutcome<(f64, ThreadId)>) -> Vec<ThreadId> {
        out.results.iter().map(|(_, id)| *id).collect()
    }

    #[test]
    fn pooled_run_matches_spawned_run() {
        let pooled = cluster().run(4, ring);
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
    fn rank_r_runs_on_the_same_worker_across_runs_and_rank_counts() {
        let first = cluster().run(3, ring);
        let second = cluster().run(3, ring);
        assert_eq!(ids(&first), ids(&second), "workers must be reused");
        let smaller = cluster().run(2, ring);
        assert_eq!(
            ids(&smaller),
            ids(&first)[..2],
            "a p = 2 run must use workers 0 and 1 of the p = 3 run"
        );
    }

    #[test]
    fn panicking_rank_propagates_and_leaves_the_workers_healthy() {
        let healthy = cluster().run(4, ring);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            cluster().run(4, |ctx: &mut RankCtx| {
                // rank 2 dies before any communication, so no other
                // rank waits on it
                assert!(ctx.rank() != 2, "injected rank failure");
            })
        }));
        assert!(panicked.is_err(), "rank panics must propagate");

        let next = cluster().run(4, ring);
        assert_eq!(times(&next), times(&healthy));
        assert_eq!(ids(&next), ids(&healthy), "the same workers carry on");
    }

    #[test]
    fn unread_message_does_not_reach_the_next_run() {
        let healthy = cluster().run(4, ring);
        // rank 0 sends what the ring's rank 1 would receive next, with a
        // different payload and arrival time, and nobody reads it
        cluster().run(4, |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                ctx.flops(1_000_000_000);
                ctx.send(1, 0, vec![99.0]);
            }
        });
        let next = cluster().run(4, ring);
        assert_eq!(times(&next), times(&healthy));
        assert_eq!(next.elapsed(), healthy.elapsed());
        assert_eq!(next.total_messages(), healthy.total_messages());
    }
}
