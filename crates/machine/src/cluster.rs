//! The cluster runner: builds a fresh message mesh and collective
//! state for each run, executes one program closure per simulated rank
//! on the calling thread's parked rank workers and collects per-rank
//! virtual times and results.

use crate::comm::{CommEndpoint, CommEvent, CommStats, Message};
use crate::config::MachineConfig;
use crate::perf::PerfContext;
use crate::pool::{self, Task};
use crossbeam::channel::{unbounded, Receiver, Sender};
use kc_cachesim::{AccessCounts, RegionId};
use parking_lot::Mutex;
use std::sync::Barrier;

/// Shared state backing the collectives (barrier / allreduce) of one
/// run; every run builds its own.
struct CollectiveState {
    slots: Vec<Mutex<f64>>,
    gate: Barrier,
}

impl CollectiveState {
    fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| Mutex::new(0.0)).collect(),
            gate: Barrier::new(n),
        }
    }

    /// Two-phase exchange: deposit `value`, wait, fold everyone's
    /// values with `fold`, wait again so slots can be reused.
    fn exchange(&self, rank: usize, value: f64, fold: impl Fn(f64, f64) -> f64) -> f64 {
        *self.slots[rank].lock() = value;
        self.gate.wait();
        let mut acc = *self.slots[0].lock();
        for s in &self.slots[1..] {
            acc = fold(acc, *s.lock());
        }
        self.gate.wait();
        acc
    }
}

/// Everything one rank's code needs: identity, virtual clock,
/// performance model and communication.
pub struct RankCtx<'a> {
    perf: PerfContext,
    comm: CommEndpoint<'a>,
    coll: &'a CollectiveState,
}

impl<'a> RankCtx<'a> {
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

    /// Advance the clock by raw `seconds` (non-model costs).
    #[inline]
    pub fn advance(&mut self, seconds: f64) {
        self.perf.advance(seconds);
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
    pub fn recv(&mut self, src: usize, tag: u32) -> Message {
        self.comm.recv(&mut self.perf, src, tag)
    }

    /// Synchronize all ranks; afterwards every clock reads the maximum
    /// clock plus a log-tree collective cost.
    pub fn barrier(&mut self) {
        let t = self.coll.exchange(self.rank(), self.now(), f64::max);
        self.perf.advance_to(t);
        self.perf.advance(self.collective_cost());
    }

    /// All-reduce `value` with sum; synchronizes clocks like a barrier.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        let clock = self.coll.exchange(self.rank(), self.now(), f64::max);
        let v = self.coll.exchange(self.rank(), value, |a, b| a + b);
        self.perf.advance_to(clock);
        self.perf.advance(self.collective_cost());
        v
    }

    /// Direct access to the performance context.
    pub fn perf(&mut self) -> &mut PerfContext {
        &mut self.perf
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        self.perf.config()
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
    /// Per-rank return values of the program closure.
    pub results: Vec<T>,
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

    /// Run `program` on `p` ranks and collect the per-rank outcomes.
    /// Panics in any rank propagate.
    ///
    /// The ranks run on the calling thread's parked workers (worker
    /// *r* carries rank *r* of every run), so consecutive cells
    /// executed by the same scheduler worker reuse the same rank
    /// threads instead of paying spawn + join per cell.  The virtual
    /// timeline is a pure function of the program and machine config,
    /// not of which threads carry the ranks.
    pub fn run<T, F>(&self, p: usize, program: F) -> RunOutcome<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        self.run_with(p, &program, pool::run_parked)
    }

    /// Run `program` on `p` freshly spawned scoped threads: the
    /// reference `pooled_run_matches_spawned_run` compares the pooled
    /// path against.
    #[cfg(test)]
    pub(crate) fn run_spawned<T, F>(&self, p: usize, program: F) -> RunOutcome<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        self.run_with(p, &program, |p, task| {
            std::thread::scope(|scope| {
                for rank in 0..p {
                    scope.spawn(move || task(rank));
                }
            })
        })
    }

    /// Build a fresh message mesh and collective state for one run,
    /// let `dispatch` call the rank task once per rank, and collect the
    /// outcomes.  `run` and `run_spawned` differ only in `dispatch`.
    fn run_with<T, F>(&self, p: usize, program: &F, dispatch: fn(usize, &Task<'_>)) -> RunOutcome<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        assert!(p > 0, "need at least one rank");
        let coll = CollectiveState::new(p);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| unbounded::<Message>()).unzip();
        let outcomes: Vec<Mutex<Option<(RankReport, T)>>> =
            (0..p).map(|_| Mutex::new(None)).collect();
        dispatch(p, &|rank| {
            let out = execute_rank(
                &self.config,
                rank,
                &senders,
                &receivers[rank],
                &coll,
                program,
            );
            *outcomes[rank].lock() = Some(out);
        });
        let (reports, results) = outcomes
            .into_iter()
            .map(|slot| slot.into_inner().expect("rank produced no outcome"))
            .unzip();
        RunOutcome { reports, results }
    }
}

/// Execute one rank's program against fresh per-run contexts (perf
/// clock, comm endpoint) over the given channels and collective state.
fn execute_rank<T, F>(
    config: &MachineConfig,
    rank: usize,
    senders: &[Sender<Message>],
    receiver: &Receiver<Message>,
    coll: &CollectiveState,
    program: &F,
) -> (RankReport, T)
where
    F: Fn(&mut RankCtx) -> T,
{
    let p = senders.len();
    // A rank of a multicore machine sees its *effective* share of the
    // node's shared cache (uniprocessor configs return themselves
    // unchanged).  Cell keys still fingerprint the declared config.
    let perf = PerfContext::new(config.effective_for_ranks(p));
    let mut comm = CommEndpoint::new(rank, p, config.net, senders, receiver);
    if config.trace_comm {
        comm.enable_trace();
    }
    let mut ctx = RankCtx { perf, comm, coll };
    let result = program(&mut ctx);
    let report = RankReport {
        time: ctx.perf.now(),
        comm: ctx.comm.stats(),
        cache: ctx.perf.cache_totals(),
        flops: ctx.perf.flops_total(),
        comm_trace: ctx.comm.take_trace(),
    };
    (report, result)
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
}
