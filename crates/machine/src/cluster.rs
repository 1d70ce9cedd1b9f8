//! The cluster runners: each builds a fresh message transport and
//! collective state for one run, executes one program per simulated
//! rank and collects per-rank virtual times and results.
//!
//! [`Cluster::run_cooperative`] is the runner campaigns use: every rank
//! is a future polled on the calling thread ([`crate::coop`]), and the
//! ranks call [`RankCtx::recv_async`], [`RankCtx::barrier_async`] and
//! [`RankCtx::allreduce_sum_async`].  [`Cluster::run`] runs a blocking
//! closure per rank, each on its own scoped thread, over `std::sync::mpsc`
//! channels.  It is the independent reference the cooperative runner is
//! tested against, and the benchmark harness's machine and npb probes
//! link it with blocking closures.  The `*_async` methods work on both:
//! on a threaded rank they complete at their first poll.

use crate::comm::{CommEndpoint, CommEvent, CommStats, Message};
use crate::config::MachineConfig;
use crate::coop::{Mesh, RankProgram};
use crate::perf::PerfContext;
use kc_cachesim::{AccessCounts, RegionId};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Barrier};
use std::thread;

/// Shared state backing the collectives (barrier / allreduce) of one
/// threaded run; every run builds its own.
struct CollectiveState {
    /// One `f64` (as bits) per rank.  Each is written before a
    /// `gate.wait()` and read after it; the barrier's internal mutex
    /// makes every write before a wait happen before every read after
    /// it, so `Relaxed` accesses suffice.
    slots: Vec<AtomicU64>,
    gate: Barrier,
}

impl CollectiveState {
    fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            gate: Barrier::new(n),
        }
    }

    /// Two-phase exchange: deposit `value`, wait, fold everyone's
    /// values in rank order with `fold`, wait again so slots can be
    /// reused.
    fn exchange(&self, rank: usize, value: f64, fold: impl Fn(f64, f64) -> f64) -> f64 {
        let read = |slot: &AtomicU64| f64::from_bits(slot.load(Relaxed));
        self.slots[rank].store(value.to_bits(), Relaxed);
        self.gate.wait();
        let acc = self.slots[1..]
            .iter()
            .fold(read(&self.slots[0]), |acc, slot| fold(acc, read(slot)));
        self.gate.wait();
        acc
    }
}

/// Where a rank's collectives meet the other ranks'.
enum Collectives<'a> {
    /// A threaded run's blocking exchange.
    Threaded(&'a CollectiveState),
    /// A cooperative run's gate.
    Cooperative(&'a Mesh),
}

/// Everything one rank's code needs: identity, virtual clock,
/// performance model and communication.
pub struct RankCtx<'a> {
    perf: PerfContext,
    comm: CommEndpoint<'a>,
    coll: Collectives<'a>,
}

impl<'a> RankCtx<'a> {
    /// A rank of a run on `config` with `p` ranks.
    fn new(
        config: &MachineConfig,
        p: usize,
        comm: CommEndpoint<'a>,
        coll: Collectives<'a>,
    ) -> Self {
        // A rank of a multicore machine sees its *effective* share of the
        // node's shared cache (uniprocessor configs return themselves
        // unchanged).  Cell keys still fingerprint the declared config.
        let perf = PerfContext::new(config.effective_for_ranks(p));
        let mut ctx = RankCtx { perf, comm, coll };
        if config.trace_comm {
            ctx.comm.enable_trace();
        }
        ctx
    }

    /// This rank's final report.
    fn report(&mut self) -> RankReport {
        RankReport {
            time: self.perf.now(),
            comm: self.comm.stats(),
            cache: self.perf.cache_totals(),
            flops: self.perf.flops_total(),
            comm_trace: self.comm.take_trace(),
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of ranks in the job.
    #[inline]
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Current virtual time (seconds).
    #[inline]
    pub fn now(&self) -> f64 {
        self.perf.now()
    }

    /// Charge `n` floating-point operations.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.perf.flops(n);
    }

    /// Register a memory region for the cache model.
    pub fn register_region(&mut self, name: &str, size: usize) -> RegionId {
        self.perf.register_region(name, size)
    }

    /// Charge a contiguous memory touch.
    pub fn touch(&mut self, id: RegionId, offset: usize, bytes: usize) -> AccessCounts {
        self.perf.touch(id, offset, bytes)
    }

    /// Charge a strided memory touch.
    pub fn touch_strided(
        &mut self,
        id: RegionId,
        offset: usize,
        stride: usize,
        elem: usize,
        count: usize,
    ) -> AccessCounts {
        self.perf.touch_strided(id, offset, stride, elem, count)
    }

    /// Invalidate this rank's caches (cold-cache protocol support).
    pub fn flush_caches(&mut self) {
        self.perf.flush_caches();
    }

    /// Send `data` to `dest` with `tag`; the logical wire size is the
    /// payload size.
    pub fn send(&mut self, dest: usize, tag: u32, data: Vec<f64>) {
        let bytes = data.len() * std::mem::size_of::<f64>();
        self.comm.send_sized(&mut self.perf, dest, tag, bytes, data);
    }

    /// Send with an explicit logical wire size (profile mode sends
    /// empty payloads but real sizes).
    pub fn send_sized(&mut self, dest: usize, tag: u32, logical_bytes: usize, data: Vec<f64>) {
        self.comm
            .send_sized(&mut self.perf, dest, tag, logical_bytes, data);
    }

    /// Receive the next message from `src` with `tag`.
    ///
    /// # Panics
    /// On a cooperative rank, which must use [`RankCtx::recv_async`].
    pub fn recv(&mut self, src: usize, tag: u32) -> Message {
        self.comm.recv(&mut self.perf, src, tag)
    }

    /// [`RankCtx::recv`] on either transport.
    pub async fn recv_async(&mut self, src: usize, tag: u32) -> Message {
        self.comm.recv_async(&mut self.perf, src, tag).await
    }

    /// Synchronize all ranks; afterwards every clock reads the maximum
    /// clock plus a log-tree collective cost.
    ///
    /// # Panics
    /// On a cooperative rank, which must use [`RankCtx::barrier_async`].
    pub fn barrier(&mut self) {
        let t = self
            .threaded("barrier")
            .exchange(self.rank(), self.now(), f64::max);
        self.perf.advance_to(t);
        self.perf.advance(self.collective_cost());
    }

    /// [`RankCtx::barrier`] on either transport.
    pub async fn barrier_async(&mut self) {
        match self.coll {
            Collectives::Threaded(_) => self.barrier(),
            Collectives::Cooperative(mesh) => {
                let (t, _) = mesh.exchange(self.rank(), self.now(), 0.0).await;
                self.perf.advance_to(t);
                self.perf.advance(self.collective_cost());
            }
        }
    }

    /// All-reduce `value` with sum; synchronizes clocks like a barrier.
    ///
    /// # Panics
    /// On a cooperative rank, which must use
    /// [`RankCtx::allreduce_sum_async`].
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        let coll = self.threaded("allreduce_sum");
        let clock = coll.exchange(self.rank(), self.now(), f64::max);
        let v = coll.exchange(self.rank(), value, |a, b| a + b);
        self.perf.advance_to(clock);
        self.perf.advance(self.collective_cost());
        v
    }

    /// [`RankCtx::allreduce_sum`] on either transport.  A cooperative
    /// rank folds the clock and the value in one exchange; both folds
    /// run in rank order, so the sum is bit-identical to the threaded
    /// one.
    pub async fn allreduce_sum_async(&mut self, value: f64) -> f64 {
        match self.coll {
            Collectives::Threaded(_) => self.allreduce_sum(value),
            Collectives::Cooperative(mesh) => {
                let (clock, v) = mesh.exchange(self.rank(), self.now(), value).await;
                self.perf.advance_to(clock);
                self.perf.advance(self.collective_cost());
                v
            }
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        self.perf.config()
    }

    /// The threaded exchange a blocking collective named `op` needs.
    fn threaded(&self, op: &str) -> &'a CollectiveState {
        match self.coll {
            Collectives::Threaded(coll) => coll,
            Collectives::Cooperative(_) => {
                panic!("a cooperative rank cannot block its thread in {op}; use {op}_async")
            }
        }
    }

    fn collective_cost(&self) -> f64 {
        let p = self.size();
        if p <= 1 {
            return 0.0;
        }
        let net = &self.perf.config().net;
        let stages = (p as f64).log2().ceil();
        stages * (net.send_overhead + net.recv_overhead + net.effective_latency(p))
    }
}

/// Per-rank outcome of a cluster run.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// Final virtual time.
    pub time: f64,
    /// Communication statistics.
    pub comm: CommStats,
    /// Cache access totals.
    pub cache: AccessCounts,
    /// Total flops charged.
    pub flops: u64,
    /// Communication event trace (empty unless the machine config has
    /// `trace_comm` set).
    pub comm_trace: Vec<CommEvent>,
}

/// Result of running a program on the simulated cluster.
#[derive(Clone, Debug)]
pub struct RunOutcome<T> {
    /// Per-rank final reports, indexed by rank.
    pub reports: Vec<RankReport>,
    /// Per-rank return values of the program.
    pub results: Vec<T>,
    /// Messages sent during the run that no rank received: counted in
    /// the mailboxes by [`Cluster::run_cooperative`], sent minus
    /// received on [`Cluster::run`]'s channels.
    pub undelivered: usize,
}

impl<T> RunOutcome<T> {
    /// The job's virtual execution time: the maximum rank time.
    pub fn elapsed(&self) -> f64 {
        self.reports.iter().map(|r| r.time).fold(0.0, f64::max)
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.reports.iter().map(|r| r.comm.sent_messages).sum()
    }

    /// Total logical bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.comm.sent_bytes).sum()
    }
}

/// A simulated cluster of a given machine type.
#[derive(Clone, Debug)]
pub struct Cluster {
    config: MachineConfig,
}

impl Cluster {
    /// A cluster of the given machine.
    pub fn new(config: MachineConfig) -> Self {
        Self { config }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Run `program` on `p` ranks, every rank a future polled on the
    /// calling thread, and collect the per-rank outcomes.  A rank's
    /// panic unwinds out of this call; a run whose pending ranks can no
    /// longer be woken panics with what each of them awaits.
    ///
    /// The virtual timeline is the one [`Cluster::run`] produces for
    /// the same program: it is a pure function of the program and the
    /// machine config, not of which thread carries a rank or in which
    /// order the ranks are polled.
    pub fn run_cooperative<P: RankProgram>(&self, p: usize, program: &P) -> RunOutcome<P::Output> {
        assert!(p > 0, "need at least one rank");
        let mesh = Mesh::new(p);
        let mut ctxs: Vec<RankCtx> = (0..p)
            .map(|rank| {
                let comm = CommEndpoint::cooperative(rank, p, self.config.net, &mesh);
                RankCtx::new(&self.config, p, comm, Collectives::Cooperative(&mesh))
            })
            .collect();
        let results = mesh.drive(ctxs.iter_mut().map(|ctx| program.start(ctx)).collect());
        RunOutcome {
            reports: ctxs.iter_mut().map(RankCtx::report).collect(),
            results,
            undelivered: mesh.undelivered(),
        }
    }

    /// Run the blocking `program` on `p` ranks and collect the per-rank
    /// outcomes.
    ///
    /// Rank *r* runs on a scoped thread named `kc-rank-<r>`, over a
    /// fresh channel mesh and collective state, so nothing a run leaves
    /// behind reaches the next one.  Every rank is joined; if one
    /// panicked, the lowest such rank's panic is resumed here.
    /// Campaigns do not use this runner: NPB cells run on
    /// [`Cluster::run_cooperative`].  It stays, with its blocking
    /// `recv`/`barrier`/`allreduce_sum`, for the benchmark harness's
    /// machine and npb probes and as the reference the cooperative
    /// runner is tested against.
    pub fn run<T, F>(&self, p: usize, program: F) -> RunOutcome<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        assert!(p > 0, "need at least one rank");
        let coll = CollectiveState::new(p);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| mpsc::channel()).unzip();
        let joined: Vec<thread::Result<(RankReport, T)>> = thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, receiver)| {
                    let (senders, coll, program) = (&senders, &coll, &program);
                    thread::Builder::new()
                        .name(format!("kc-rank-{rank}"))
                        .spawn_scoped(scope, move || {
                            let comm =
                                CommEndpoint::new(rank, p, self.config.net, senders, &receiver);
                            let mut ctx =
                                RankCtx::new(&self.config, p, comm, Collectives::Threaded(coll));
                            let result = program(&mut ctx);
                            (ctx.report(), result)
                        })
                        .expect("failed to spawn a rank thread")
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let (reports, results): (Vec<RankReport>, Vec<T>) = joined
            .into_iter()
            .map(|outcome| outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .unzip();
        // what was sent and not received is still queued, or was sent
        // to a rank that had already returned
        let sent: u64 = reports.iter().map(|r| r.comm.sent_messages).sum();
        let received: u64 = reports.iter().map(|r| r.comm.recv_messages).sum();
        RunOutcome {
            reports,
            results,
            undelivered: (sent - received) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(MachineConfig::test_tiny())
    }

    #[test]
    fn single_rank_compute_only() {
        let out = cluster().run(1, |ctx| {
            ctx.flops(1_000_000_000);
            ctx.rank()
        });
        assert!((out.elapsed() - 1.0).abs() < 1e-9);
        assert_eq!(out.results, vec![0]);
    }

    #[test]
    fn ring_is_deterministic_across_runs() {
        let run = || {
            cluster().run(4, |ctx| {
                let right = (ctx.rank() + 1) % ctx.size();
                let left = (ctx.rank() + 3) % ctx.size();
                ctx.flops((ctx.rank() as u64 + 1) * 100_000);
                ctx.send(right, 0, vec![ctx.rank() as f64]);
                let m = ctx.recv(left, 0);
                ctx.now() + m.data[0]
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.elapsed(), b.elapsed());
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let out = cluster().run(4, |ctx| {
            ctx.flops(ctx.rank() as u64 * 1_000_000);
            ctx.barrier();
            ctx.now()
        });
        let times = out.results;
        for t in &times {
            assert!(
                (t - times[0]).abs() < 1e-12,
                "clocks differ after barrier: {times:?}"
            );
        }
        // everyone is at least as late as the slowest rank's compute
        assert!(times[0] >= 3_000_000.0 / 1.0e9);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = cluster().run(3, |ctx| ctx.allreduce_sum(ctx.rank() as f64 + 1.0));
        for s in out.results {
            assert_eq!(s, 6.0);
        }
    }

    #[test]
    fn receiver_waits_for_late_sender() {
        let out = cluster().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.flops(1_000_000_000); // 1 second of work before sending
                ctx.send(1, 0, vec![1.0]);
            } else {
                let _ = ctx.recv(0, 0);
            }
            ctx.now()
        });
        assert!(
            out.results[1] >= 1.0,
            "receiver finished at {} < sender's 1s",
            out.results[1]
        );
    }

    #[test]
    fn pipeline_slack_absorbs_waits() {
        // rank 1 has local work to do; the message from rank 0 arrives
        // while it computes, so the receive costs (almost) nothing.
        let out = cluster().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0.0; 8]);
            } else {
                ctx.flops(100_000_000); // 0.1 s local work
                let _ = ctx.recv(0, 0);
            }
            ctx.now()
        });
        let net = MachineConfig::test_tiny().net;
        assert!(out.results[1] < 0.1 + 2.0 * (net.recv_overhead + net.latency));
    }

    #[test]
    fn reports_capture_traffic() {
        let out = cluster().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0.0; 100]);
            } else {
                let _ = ctx.recv(0, 0);
            }
        });
        assert_eq!(out.total_messages(), 1);
        assert_eq!(out.total_bytes(), 800);
    }

    #[test]
    fn comm_trace_records_ordered_events_with_waits() {
        let cfg = MachineConfig::test_tiny().with_comm_trace();
        let out = Cluster::new(cfg).run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.flops(100_000_000); // 0.1 s before sending
                ctx.send(1, 7, vec![1.0]);
            } else {
                let _ = ctx.recv(0, 7);
            }
        });
        let t0 = &out.reports[0].comm_trace;
        let t1 = &out.reports[1].comm_trace;
        assert_eq!(t0.len(), 1);
        assert_eq!(t1.len(), 1);
        match t1[0] {
            CommEvent::Recv {
                src, tag, waited, ..
            } => {
                assert_eq!((src, tag), (0, 7));
                assert!(
                    waited >= 0.1,
                    "receiver should have idled ~0.1 s, waited {waited}"
                );
            }
            other => panic!("expected a Recv event, got {other:?}"),
        }
        // times are monotone within a rank
        let times: Vec<f64> = t0
            .iter()
            .map(|e| match e {
                CommEvent::Send { time, .. } | CommEvent::Recv { time, .. } => *time,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let out = Cluster::new(MachineConfig::test_tiny()).run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![1.0]);
            } else {
                let _ = ctx.recv(0, 0);
            }
        });
        assert!(out.reports.iter().all(|r| r.comm_trace.is_empty()));
    }

    #[test]
    fn cache_reports_flow_through() {
        let out = cluster().run(1, |ctx| {
            let r = ctx.register_region("a", 64 * 8);
            ctx.touch(r, 0, 64 * 8);
        });
        assert_eq!(out.reports[0].cache.total(), 8);
    }

    fn ring(ctx: &mut RankCtx) -> f64 {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.flops((ctx.rank() as u64 + 1) * 100_000);
        ctx.send(right, 0, vec![ctx.rank() as f64]);
        let m = ctx.recv(left, 0);
        ctx.barrier();
        ctx.now() + m.data[0]
    }

    #[test]
    fn panicking_rank_propagates_its_own_panic_and_the_next_run_is_healthy() {
        let healthy = cluster().run(4, ring);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster().run(4, |ctx: &mut RankCtx| {
                // rank 2 dies before any communication, so no other
                // rank waits on it
                assert!(ctx.rank() != 2, "injected rank failure");
            })
        }));
        let payload = panicked.expect_err("rank panics must propagate");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("injected rank failure"),
            "the run must resume the rank's own panic, got {message:?}"
        );

        let next = cluster().run(4, ring);
        assert_eq!(next.results, healthy.results);
    }

    #[test]
    fn unread_message_does_not_reach_the_next_run() {
        let healthy = cluster().run(4, ring);
        // rank 0 sends what the ring's rank 1 would receive next, with a
        // different payload and arrival time, and nobody reads it
        let unread = cluster().run(4, |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                ctx.flops(1_000_000_000);
                ctx.send(1, 0, vec![99.0]);
            }
        });
        assert_eq!(unread.undelivered, 1);
        let next = cluster().run(4, ring);
        assert_eq!(next.results, healthy.results);
        assert_eq!(next.elapsed(), healthy.elapsed());
        assert_eq!(next.total_messages(), healthy.total_messages());
    }
}
