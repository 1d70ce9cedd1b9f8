//! The cooperative rank executor: every rank of a run is a future, and
//! the calling thread polls them all.
//!
//! [`Cluster::run_cooperative`](crate::Cluster::run_cooperative) builds
//! one `Mesh` per run: a mailbox per `(destination, source)` pair, a
//! collective gate and a ready queue.  A rank is polled only after
//! something it waits for happened — a send that matches its pending
//! receive, or the completion of the collective it joined — so a run
//! costs one poll per hand-off, with no OS thread, channel or lock.
//!
//! When the ready queue runs dry while ranks are still pending, no
//! event can ever wake them: the run panics and names what each stuck
//! rank awaits.  When every rank has returned, the messages still in
//! the mailboxes are the run's undelivered count.

use crate::comm::Message;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// One rank's program in progress.
pub type RankFuture<'c, T> = Pin<Box<dyn Future<Output = T> + 'c>>;

/// What every rank of a cooperative run executes.
///
/// A trait rather than a closure: the future borrows both the program
/// and the rank's context for `'c`, a bound a closure returning a boxed
/// future cannot express without forcing its captures to `'static`.
pub trait RankProgram {
    /// What one rank returns.
    type Output;

    /// Start this program on the rank `ctx` belongs to.
    fn start<'c>(&'c self, ctx: &'c mut crate::RankCtx<'_>) -> RankFuture<'c, Self::Output>;
}

/// Poll `future` once and return its output: how a blocking caller on
/// a threaded rank runs rank code written against the `*_async`
/// methods, which complete at their first poll there.
///
/// # Panics
/// If `future` is pending — on a cooperative rank, say, whose receives
/// and collectives wait for other ranks.
pub fn complete_now<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    match future
        .as_mut()
        .poll(&mut Context::from_waker(Waker::noop()))
    {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "rank code is pending at its first poll: a cooperative rank must be \
             awaited by Cluster::run_cooperative, not run to completion in place"
        ),
    }
}

/// What a pending rank waits for.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Wait {
    /// Queued or being polled.
    Running,
    /// A message from `src` with `tag`.
    Recv { src: usize, tag: u32 },
    /// The collective of this generation.
    Collective { generation: u64 },
}

/// Barrier and all-reduce state: each generation folds one `(clock,
/// value)` pair per rank.
struct Gate {
    generation: u64,
    arrived: usize,
    slots: Vec<(f64, f64)>,
    /// The last completed generation's fold.
    result: (f64, f64),
}

struct State {
    p: usize,
    /// `mailboxes[dst * p + src]`: messages from `src` to `dst` not yet
    /// received, in send order.
    mailboxes: Vec<VecDeque<Message>>,
    waits: Vec<Wait>,
    ready: VecDeque<usize>,
    gate: Gate,
}

impl State {
    fn wake(&mut self, rank: usize) {
        self.waits[rank] = Wait::Running;
        self.ready.push_back(rank);
    }
}

/// The shared state of one cooperative run.
pub(crate) struct Mesh {
    state: RefCell<State>,
}

impl Mesh {
    /// A mesh for `p` ranks, every rank ready to be polled.
    pub(crate) fn new(p: usize) -> Self {
        Self {
            state: RefCell::new(State {
                p,
                mailboxes: (0..p * p).map(|_| VecDeque::new()).collect(),
                waits: vec![Wait::Running; p],
                ready: (0..p).collect(),
                gate: Gate {
                    generation: 0,
                    arrived: 0,
                    slots: vec![(0.0, 0.0); p],
                    result: (0.0, 0.0),
                },
            }),
        }
    }

    /// Queue `msg` for `dest`, waking `dest` if it awaits exactly this
    /// `(src, tag)`.
    pub(crate) fn deliver(&self, dest: usize, msg: Message) {
        let mut s = self.state.borrow_mut();
        let awaited = Wait::Recv {
            src: msg.src,
            tag: msg.tag,
        };
        let p = s.p;
        s.mailboxes[dest * p + msg.src].push_back(msg);
        if s.waits[dest] == awaited {
            s.wake(dest);
        }
    }

    /// The first message from `src` with `tag` in `rank`'s mailbox,
    /// pending until one is delivered.
    pub(crate) async fn recv(&self, rank: usize, src: usize, tag: u32) -> Message {
        poll_fn(|_| {
            let mut s = self.state.borrow_mut();
            let p = s.p;
            let mailbox = &mut s.mailboxes[rank * p + src];
            match mailbox.iter().position(|m| m.tag == tag) {
                Some(pos) => Poll::Ready(mailbox.remove(pos).expect("position is in range")),
                None => {
                    s.waits[rank] = Wait::Recv { src, tag };
                    Poll::Pending
                }
            }
        })
        .await
    }

    /// Join the current collective with `rank`'s `(clock, value)`;
    /// resolves, once every rank has joined, to the maximum clock and
    /// the sum of the values, both folded in rank order (rank 0's slot,
    /// then ranks `1..p`), as the threaded exchange folds them.
    pub(crate) async fn exchange(&self, rank: usize, clock: f64, value: f64) -> (f64, f64) {
        let generation = {
            let mut guard = self.state.borrow_mut();
            let s = &mut *guard;
            let generation = s.gate.generation;
            s.gate.slots[rank] = (clock, value);
            s.gate.arrived += 1;
            if s.gate.arrived == s.p {
                let (first, rest) = s.gate.slots.split_first().expect("at least one rank");
                s.gate.result = rest
                    .iter()
                    .fold(*first, |(c, v), &(sc, sv)| (f64::max(c, sc), v + sv));
                s.gate.arrived = 0;
                s.gate.generation += 1;
                for r in 0..s.p {
                    if s.waits[r] == (Wait::Collective { generation }) {
                        s.wake(r);
                    }
                }
            }
            generation
        };
        poll_fn(|_| {
            let mut s = self.state.borrow_mut();
            if s.gate.generation == generation {
                s.waits[rank] = Wait::Collective { generation };
                Poll::Pending
            } else {
                Poll::Ready(s.gate.result)
            }
        })
        .await
    }

    /// Poll `ranks` until every one has returned, polling a rank only
    /// when it is on the ready queue.
    ///
    /// # Panics
    /// If some rank panics, or with a description of every stuck rank
    /// when the queue is empty while ranks are still pending.
    pub(crate) fn drive<T>(&self, ranks: Vec<RankFuture<'_, T>>) -> Vec<T> {
        let mut ranks: Vec<_> = ranks.into_iter().map(Some).collect();
        let mut results: Vec<Option<T>> = ranks.iter().map(|_| None).collect();
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            let Some(rank) = self.state.borrow_mut().ready.pop_front() else {
                break;
            };
            let future = ranks[rank]
                .as_mut()
                .expect("a returned rank is never woken");
            if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
                // drop the rank's state now, not at the end of the run
                ranks[rank] = None;
                results[rank] = Some(out);
            }
        }
        if results.iter().any(Option::is_none) {
            panic!("{}", self.deadlock(&results));
        }
        results.into_iter().flatten().collect()
    }

    /// Messages still queued in any mailbox.
    pub(crate) fn undelivered(&self) -> usize {
        self.state
            .borrow()
            .mailboxes
            .iter()
            .map(VecDeque::len)
            .sum()
    }

    fn deadlock<T>(&self, results: &[Option<T>]) -> String {
        let s = self.state.borrow();
        let mut msg = format!(
            "deadlock: {} of {} ranks are pending and nothing can wake them:",
            results.iter().filter(|r| r.is_none()).count(),
            s.p
        );
        for (rank, _) in results.iter().enumerate().filter(|(_, r)| r.is_none()) {
            let _ = match s.waits[rank] {
                Wait::Recv { src, tag } => {
                    write!(msg, " rank {rank} awaits (src {src}, tag {tag:#x});")
                }
                Wait::Collective { generation } => write!(
                    msg,
                    " rank {rank} awaits collective {generation} ({} of {} joined);",
                    s.gate.arrived, s.p
                ),
                Wait::Running => {
                    write!(
                        msg,
                        " rank {rank} awaits a future this executor cannot wake;"
                    )
                }
            };
        }
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, RunOutcome};
    use crate::comm::CommEvent;
    use crate::config::MachineConfig;
    use crate::RankCtx;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cluster() -> Cluster {
        Cluster::new(MachineConfig::test_tiny().with_comm_trace())
    }

    /// A ring pass, a barrier and an all-reduce whose sum depends on
    /// the order it is folded in: `1e16 + 1.0` rounds back to `1e16`.
    struct RingReduce;

    impl RankProgram for RingReduce {
        type Output = (f64, f64);
        fn start<'c>(&'c self, ctx: &'c mut RankCtx<'_>) -> RankFuture<'c, (f64, f64)> {
            Box::pin(async move {
                let (rank, p) = (ctx.rank(), ctx.size());
                ctx.flops((rank as u64 + 1) * 100_000);
                ctx.send((rank + 1) % p, 7, vec![rank as f64]);
                let m = ctx.recv_async((rank + p - 1) % p, 7).await;
                ctx.barrier_async().await;
                let sum = ctx
                    .allreduce_sum_async(if rank == 0 { 1e16 } else { 1.0 })
                    .await;
                (ctx.now() + m.data[0], sum)
            })
        }
    }

    /// `(src, tag)` pairs each rank waits on before it sends anything.
    struct RecvFirst(Vec<(usize, u32)>);

    impl RankProgram for RecvFirst {
        type Output = ();
        fn start<'c>(&'c self, ctx: &'c mut RankCtx<'_>) -> RankFuture<'c, ()> {
            Box::pin(async move {
                let (src, tag) = self.0[ctx.rank()];
                ctx.recv_async(src, tag).await;
                ctx.send(src, tag, vec![]);
            })
        }
    }

    fn bits<T>(out: &RunOutcome<T>) -> Vec<(u64, u64, Vec<CommEvent>)> {
        out.reports
            .iter()
            .map(|r| (r.time.to_bits(), r.flops, r.comm_trace.clone()))
            .collect()
    }

    fn panic_message(run: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(run)).expect_err("the run must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn cooperative_run_matches_the_threaded_run_bit_for_bit() {
        for p in [2, 5, 32] {
            let coop = cluster().run_cooperative(p, &RingReduce);
            let threaded = cluster().run(p, |ctx| complete_now(RingReduce.start(ctx)));
            assert_eq!(bits(&coop), bits(&threaded), "p = {p}");
            let sums = |out: &RunOutcome<(f64, f64)>| {
                out.results
                    .iter()
                    .map(|(t, s)| (t.to_bits(), s.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(sums(&coop), sums(&threaded), "p = {p}");
            // rank order: rank 0's 1e16 absorbs every later 1.0
            assert!(coop.results.iter().all(|&(_, sum)| sum == 1e16), "p = {p}");
            assert_eq!((coop.undelivered, threaded.undelivered), (0, 0));
        }
    }

    #[test]
    fn a_cross_wait_names_both_awaited_messages() {
        let msg = panic_message(|| {
            cluster().run_cooperative(2, &RecvFirst(vec![(1, 0x21), (0, 0x12)]));
        });
        assert!(msg.contains("deadlock: 2 of 2 ranks"), "{msg}");
        assert!(msg.contains("rank 0 awaits (src 1, tag 0x21)"), "{msg}");
        assert!(msg.contains("rank 1 awaits (src 0, tag 0x12)"), "{msg}");
    }

    #[test]
    fn a_collective_some_ranks_skip_is_named() {
        struct OddSkip;
        impl RankProgram for OddSkip {
            type Output = ();
            fn start<'c>(&'c self, ctx: &'c mut RankCtx<'_>) -> RankFuture<'c, ()> {
                Box::pin(async move {
                    if ctx.rank().is_multiple_of(2) {
                        ctx.barrier_async().await;
                    }
                })
            }
        }
        let msg = panic_message(|| {
            cluster().run_cooperative(4, &OddSkip);
        });
        assert!(msg.contains("2 of 4 ranks"), "{msg}");
        assert!(
            msg.contains("rank 2 awaits collective 0 (2 of 4 joined)"),
            "{msg}"
        );
    }

    #[test]
    fn unread_messages_are_counted_on_both_transports() {
        // rank 0 sends three messages; rank 1 reads the second only
        struct ReadOne;
        impl RankProgram for ReadOne {
            type Output = ();
            fn start<'c>(&'c self, ctx: &'c mut RankCtx<'_>) -> RankFuture<'c, ()> {
                Box::pin(async move {
                    if ctx.rank() == 0 {
                        for tag in 1..=3 {
                            ctx.send(1, tag, vec![]);
                        }
                    } else {
                        ctx.recv_async(0, 2).await;
                    }
                })
            }
        }
        let coop = cluster().run_cooperative(2, &ReadOne);
        let threaded = cluster().run(2, |ctx| {
            if ctx.rank() == 0 {
                complete_now(ReadOne.start(ctx));
            } else {
                // the threaded receive blocks until rank 0 has sent
                ctx.recv(0, 2);
            }
        });
        assert_eq!((coop.undelivered, threaded.undelivered), (2, 2));
    }

    #[test]
    fn blocking_calls_on_a_cooperative_rank_panic_with_a_pointer() {
        /// Every rank makes the one blocking call the index picks.
        struct Blocking(usize);
        impl RankProgram for Blocking {
            type Output = ();
            fn start<'c>(&'c self, ctx: &'c mut RankCtx<'_>) -> RankFuture<'c, ()> {
                Box::pin(async move {
                    match self.0 {
                        0 => drop(ctx.recv(1, 0)),
                        1 => ctx.barrier(),
                        2 => drop(ctx.allreduce_sum(1.0)),
                        _ => drop(complete_now(ctx.recv_async(1, 0))),
                    }
                })
            }
        }
        let expected = [
            "use recv_async",
            "use barrier_async",
            "use allreduce_sum_async",
            "pending at its first poll",
        ];
        for (call, expected) in expected.into_iter().enumerate() {
            let msg = panic_message(|| {
                cluster().run_cooperative(2, &Blocking(call));
            });
            assert!(msg.contains(expected), "call {call}: {msg}");
        }
    }

    #[test]
    fn a_panicking_rank_unwinds_out_of_the_run_and_the_next_run_is_clean() {
        struct Dies;
        impl RankProgram for Dies {
            type Output = ();
            fn start<'c>(&'c self, ctx: &'c mut RankCtx<'_>) -> RankFuture<'c, ()> {
                Box::pin(async move {
                    ctx.barrier_async().await;
                    assert!(ctx.rank() != 1, "injected rank failure");
                })
            }
        }
        let msg = panic_message(|| {
            cluster().run_cooperative(3, &Dies);
        });
        assert!(msg.contains("injected rank failure"), "{msg}");
        let healthy = cluster().run_cooperative(3, &RingReduce);
        let again = cluster().run_cooperative(3, &RingReduce);
        assert_eq!(bits(&healthy), bits(&again));
    }
}
