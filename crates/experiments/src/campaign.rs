//! The campaign engine: enumerate → dedupe → execute in parallel →
//! assemble from the shared cache.
//!
//! The old runner measured each table's cells inline, so two tables
//! needing the same cell (every chain-length study shares its isolated
//! kernels, overhead and ground truth; the reuse and transition
//! studies revisit whole configurations) paid for it twice.  The
//! campaign engine splits measurement from assembly:
//!
//! 1. every requested analysis ([`AnalysisSpec`]) is *enumerated* into
//!    its measurement cells (canonical `kc_core::MeasurementKey`s);
//! 2. the union is *deduplicated* — cell keys carry no chain length,
//!    so the sharing the `kc-prophesy` planner reasons about falls out
//!    of key equality;
//! 3. unique, not-yet-cached cells are submitted to the
//!    campaign-global [`crate::CellScheduler`] as one drain, executed
//!    longest first by a fixed pool of `jobs` workers.  Drains run
//!    one at a time, so a concurrent prefetch waits for the running
//!    one and finds the cells they share already cached.  Each cell
//!    runs on its own freshly built simulated cluster with a per-cell
//!    noise seed, so results are bit-identical regardless of `jobs`
//!    or schedule;
//! 4. analyses are *assembled* ([`Campaign::assemble`]) by reading the
//!    shared `kc_core::CachedProvider`'s memory only: a cell no
//!    prefetch brought in is an error naming its key, never a
//!    measurement, so each unique cell is measured exactly once and
//!    only in a prefetch's drain.
//!
//! [`CampaignStats`] reports the arithmetic (requested vs unique vs
//! cached vs backend-served vs executed, and the naive run count a
//! table-at-a-time campaign would have paid) plus wall-clock per
//! phase.  Counts are derived from per-cell dispositions, so cells
//! served by the persistent backend or executed by an earlier
//! prefetch are never misreported as this prefetch's executions:
//! across concurrent prefetches over one campaign, the
//! `cells_executed` sum equals `CacheStats::executed` exactly.

use crate::runner::Runner;
use crate::scheduler::CellScheduler;
use kc_core::telemetry::phases;
use kc_core::{
    analysis_cells, assemble_analysis, CacheStats, CachedProvider, CellContext, CouplingAnalysis,
    FanoutSink, KcError, KcResult, KernelSet, MeasurementBackend, MeasurementKey,
    MeasurementProvider, RunSummary, SummarySink, TelemetryEvent, TelemetrySink,
};
use kc_machine::MachineConfig;
use kc_npb::{Benchmark, Class, NpbApp, NpbProvider};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One requested coupling analysis: benchmark × class × processor
/// count × chain length, optionally at the fine decomposition or on a
/// machine other than the campaign default.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisSpec {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Which problem class.
    pub class: Class,
    /// How many processors.
    pub procs: usize,
    /// Window chain length `L`.
    pub chain_len: usize,
    /// Use the loop-level (fine) BT decomposition.
    pub fine: bool,
    /// Run on this machine instead of the campaign's default.
    pub machine: Option<MachineConfig>,
}

impl AnalysisSpec {
    /// A spec on the campaign's default machine, coarse decomposition.
    pub fn new(benchmark: Benchmark, class: Class, procs: usize, chain_len: usize) -> Self {
        Self {
            benchmark,
            class,
            procs,
            chain_len,
            fine: false,
            machine: None,
        }
    }

    /// Switch to the loop-level BT decomposition.
    pub fn fine(mut self) -> Self {
        self.fine = true;
        self
    }

    /// Run on `machine` instead of the campaign default.
    pub fn on(mut self, machine: MachineConfig) -> Self {
        self.machine = Some(machine);
        self
    }

    /// The loop kernel set this spec analyses.
    pub fn kernel_set(&self) -> KernelSet {
        if self.fine {
            kc_npb::bt::fine_spec().kernel_set()
        } else {
            self.benchmark.spec().kernel_set()
        }
    }
}

/// The measurement arithmetic of one [`Campaign::prefetch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CampaignStats {
    /// Cells the requested analyses need, counted with multiplicity.
    pub cells_requested: usize,
    /// Distinct cells after deduplication.
    pub cells_unique: usize,
    /// Unique cells served from the in-memory cache: already cached
    /// before this prefetch, or brought into the cache by a
    /// concurrent prefetch whose drain ran first.
    pub cache_hits: usize,
    /// Unique cells served by the persistent backend store (loaded,
    /// not executed).
    pub backend_hits: usize,
    /// Cells this prefetch actually executed on a fresh cluster.
    /// Derived from per-cell dispositions, never from the to-do list
    /// length: across concurrent prefetches the sum matches
    /// `CacheStats::executed` exactly.
    pub cells_executed: usize,
    /// Cluster runs a table-at-a-time campaign would have performed
    /// (one fresh campaign per analysis).
    pub naive_runs: usize,
    /// Wall-clock seconds spent enumerating and deduplicating.
    pub enumerate_secs: f64,
    /// Wall-clock seconds spent executing cells.
    pub execute_secs: f64,
}

/// Cluster runs of a *fresh* campaign over `kernels` loop kernels at
/// one chain length (the quantity the paper's §6 wants reduced).
fn campaign_runs(kernels: usize) -> usize {
    kernels // isolated
        + kernels // windows
        + 2 // overhead + ground truth
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells requested -> {} unique ({} cached, {} backend, {} executed; \
             naive plan: {} runs) [enumerate {:.2}s, execute {:.2}s]",
            self.cells_requested,
            self.cells_unique,
            self.cache_hits,
            self.backend_hits,
            self.cells_executed,
            self.naive_runs,
            self.enumerate_secs,
            self.execute_secs,
        )
    }
}

/// Options for [`Campaign::summary`]: how many slow cells to keep and
/// whether to append the aggregates to the event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryOpts {
    /// Slowest executed cells to keep, longest first.
    pub top_n: usize,
    /// Also append the computed `RunSummary` to the event stream, so
    /// attached sinks — and the trace — end with a summary line.
    pub record: bool,
}

impl Default for SummaryOpts {
    fn default() -> Self {
        Self {
            top_n: 10,
            record: false,
        }
    }
}

impl SummaryOpts {
    /// Keep the `top_n` slowest cells (not recorded to the stream).
    pub fn top(top_n: usize) -> Self {
        Self {
            top_n,
            ..Self::default()
        }
    }

    /// Also append the summary to the event stream.
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }
}

/// Configures and builds a [`Campaign`] — the one construction path.
///
/// ```
/// use kc_experiments::{Campaign, Runner};
///
/// let campaign = Campaign::builder(Runner::noise_free()).reps(2).build();
/// assert_eq!(campaign.reps(), 2);
/// ```
pub struct CampaignBuilder {
    runner: Runner,
    backend: Option<Box<dyn MeasurementBackend>>,
    sinks: Vec<Arc<dyn TelemetrySink>>,
    jobs: Option<usize>,
}

impl CampaignBuilder {
    fn new(runner: Runner) -> Self {
        Self {
            runner,
            backend: None,
            sinks: Vec::new(),
            jobs: None,
        }
    }

    /// Back the cache with persistent cell storage (e.g.
    /// `kc_prophesy::CellStore`): misses consult the backend before
    /// executing, executions are written back.
    pub fn backend(mut self, backend: Box<dyn MeasurementBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Timing repetitions per chain cell.
    pub fn reps(mut self, reps: u32) -> Self {
        self.runner.reps = reps;
        self
    }

    /// Disable the machine's timer noise (for shape-focused tests).
    pub fn noise_free(mut self) -> Self {
        self.runner.machine = self.runner.machine.without_noise();
        self
    }

    /// Attach an external telemetry sink from the first event on
    /// (e.g. a `kc_core::MemorySink` for a test that inspects the
    /// stream: the campaign itself keeps no events).
    pub fn sink(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Size of the campaign-global scheduler's worker pool (clamped
    /// to at least 1).  Defaults to the machine's available
    /// parallelism.  Tables are bit-identical under any value; `jobs`
    /// only bounds how many cells execute concurrently.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Build the campaign.
    pub fn build(self) -> Campaign {
        let summary = Arc::new(SummarySink::new());
        let fanout = Arc::new(FanoutSink::new());
        fanout.add(summary.clone());
        for sink in self.sinks {
            fanout.add(sink);
        }
        let inner = NpbProvider::new().with_telemetry(fanout.clone());
        let provider = Arc::new(
            match self.backend {
                Some(backend) => CachedProvider::with_backend(inner, backend),
                None => CachedProvider::new(inner),
            }
            .with_telemetry(fanout.clone()),
        );
        let jobs = self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let execute = {
            let provider = provider.clone();
            move |key: &MeasurementKey| provider.measure_classified(key).map(|(_, d)| d)
        };
        Campaign {
            runner: self.runner,
            scheduler: CellScheduler::new(jobs, Box::new(execute)),
            provider,
            summary,
            fanout,
        }
    }
}

/// The campaign engine: a [`Runner`] (machine + protocol + reps)
/// driving a cached [`NpbProvider`].
///
/// All experiment modules take `&Campaign`; analyses assembled through
/// one campaign share every measurement cell.
pub struct Campaign {
    runner: Runner,
    provider: Arc<CachedProvider<NpbProvider>>,
    /// The campaign-global bounded executor every prefetch drains
    /// through (see [`crate::scheduler`]).
    scheduler: CellScheduler,
    /// This campaign's aggregates, folded from its events as they
    /// arrive (`Campaign::summary` reads it).  It keeps no events, so
    /// it is bounded by the distinct cells touched, not by the
    /// requests served.
    summary: Arc<SummarySink>,
    /// Broadcast point every emitter records into; the fold is its
    /// first sink, and external sinks (e.g. a `JsonLinesSink` under
    /// `--trace`, a test's `MemorySink`) attach here at any time.
    fanout: Arc<FanoutSink>,
}

impl Default for Campaign {
    fn default() -> Self {
        Self::builder(Runner::default()).build()
    }
}

impl Campaign {
    /// Start configuring a campaign over `runner`'s machine and
    /// protocol.
    pub fn builder(runner: Runner) -> CampaignBuilder {
        CampaignBuilder::new(runner)
    }

    /// The runner (machine, protocol, reps) this campaign measures
    /// under.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Timing repetitions per chain cell.
    pub fn reps(&self) -> u32 {
        self.runner.reps
    }

    /// Worker-pool size of the campaign-global cell scheduler.
    pub fn jobs(&self) -> usize {
        self.scheduler.jobs()
    }

    /// Traffic counters of the underlying measurement cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.provider.stats()
    }

    /// Attach an external telemetry sink (e.g. a
    /// `kc_core::JsonLinesSink`); it receives every event emitted from
    /// now on.
    pub fn attach_sink(&self, sink: Arc<dyn TelemetrySink>) {
        self.fanout.add(sink);
    }

    /// The campaign's own fanout as a sink handle, so components
    /// *outside* the campaign (e.g. the persistent store's read-error
    /// reporting) can emit into the same event stream the campaign
    /// aggregates and traces.
    pub fn sink(&self) -> Arc<dyn TelemetrySink> {
        self.fanout.clone()
    }

    /// Drain every attached sink (see `TelemetrySink::flush`).  The
    /// explicit lifecycle point for buffered sinks: call after the
    /// end-of-run summary (or on SIGTERM) so trace files on disk are
    /// complete before the process exits.
    pub(crate) fn flush_sinks(&self) -> std::io::Result<()> {
        self.fanout.flush()
    }

    /// End-of-run aggregates over the events so far, read from the
    /// campaign's running fold.  With
    /// [`SummaryOpts::recorded`], the computed `RunSummary` is also
    /// appended to the event stream (so attached sinks — and the
    /// trace — end with a summary line).  This is the one summary
    /// type: the `--metrics` printer and the trace both show exactly
    /// what this returns.
    pub fn summary(&self, opts: SummaryOpts) -> RunSummary {
        let s = self.summary.summary(opts.top_n);
        if opts.record {
            self.fanout.record(TelemetryEvent::RunSummary(s.clone()));
        }
        s
    }

    /// What the campaign's telemetry retains: the fold's entries and
    /// the number of sinks its fanout feeds.
    #[cfg(test)]
    pub(crate) fn retained_telemetry(&self) -> (usize, usize) {
        (self.summary.retained(), self.fanout.len())
    }

    /// Run `f` bracketed by phase started/finished telemetry events.
    fn phase<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.fanout.record(TelemetryEvent::PhaseStarted {
            phase: name.to_string(),
        });
        let started = Instant::now();
        let out = f();
        self.fanout.record(TelemetryEvent::PhaseFinished {
            phase: name.to_string(),
            duration_secs: started.elapsed().as_secs_f64(),
        });
        out
    }

    /// The cell context (machine fingerprint + protocol digest) of one
    /// spec, registering its machine with the provider.
    fn context(&self, spec: &AnalysisSpec) -> CellContext {
        let machine = spec
            .machine
            .clone()
            .unwrap_or_else(|| self.runner.machine.clone());
        let app = NpbApp::new(spec.benchmark, spec.class, spec.procs);
        self.provider
            .inner()
            .context(&app, spec.fine, &machine, self.runner.exec)
    }

    /// The measurement cells one spec needs.
    pub fn cells(&self, spec: &AnalysisSpec) -> KcResult<Vec<MeasurementKey>> {
        let ctx = self.context(spec);
        let set = spec.kernel_set();
        Ok(analysis_cells(
            &ctx,
            &set,
            spec.chain_len,
            self.runner.reps,
        )?)
    }

    /// Enumerate, dedupe and execute every cell the given analyses
    /// need.  Unique uncached cells are submitted to the
    /// campaign-global bounded scheduler as one drain (most expensive
    /// first, at most `jobs` executing at once); results land in the
    /// shared cache, where [`Campaign::assemble`] reads them.  A
    /// concurrent prefetch's drain waits for this one to finish (see
    /// [`crate::scheduler`]).
    pub fn prefetch(&self, specs: &[AnalysisSpec]) -> KcResult<CampaignStats> {
        let enumerate_started = Instant::now();
        let mut stats = CampaignStats::default();
        let mut unique: BTreeSet<MeasurementKey> = BTreeSet::new();
        self.phase(phases::ENUMERATE, || -> KcResult<()> {
            for spec in specs {
                let cells = self.cells(spec)?;
                stats.cells_requested += cells.len();
                stats.naive_runs += campaign_runs(spec.kernel_set().len());
                unique.extend(cells);
            }
            Ok(())
        })?;
        let todo = self.phase(phases::DEDUPE, || {
            stats.cells_unique = unique.len();
            // the scheduler orders by cost internally (longest first,
            // `total_cmp`, key-order tie-break); here we only pair
            // each uncached cell with its cost
            let todo: Vec<(MeasurementKey, f64)> = unique
                .iter()
                .filter(|k| !self.provider.contains(k))
                .map(|k| (k.clone(), self.provider.cost_estimate(k)))
                .collect();
            stats.cache_hits = stats.cells_unique - todo.len();
            todo
        });
        stats.enumerate_secs = enumerate_started.elapsed().as_secs_f64();

        let execute_started = Instant::now();
        let drained = self.phase(phases::EXECUTE, || {
            let drained = self.scheduler.drain(todo)?;
            // one drain event per prefetch, emitted after every cell
            // event of this drain has reached the sinks — the stream
            // stays canonical under any jobs value (the fields are
            // schedule-dependent and redact away)
            self.fanout.record(TelemetryEvent::SchedulerDrain {
                enqueued: (drained.executed + drained.backend_hits + drained.hits) as u64,
                jobs: self.scheduler.jobs() as u64,
            });
            Ok::<_, KcError>(drained)
        })?;
        // attribution: cells a concurrent prefetch's drain completed
        // between our dedupe scan and our own drain come back as
        // in-cache `Hit`s, so they count as cache hits here
        stats.cells_executed = drained.executed;
        stats.backend_hits = drained.backend_hits;
        stats.cache_hits += drained.hits;
        stats.execute_secs = execute_started.elapsed().as_secs_f64();
        Ok(stats)
    }

    /// The coupling analysis for one spec: [`Campaign::prefetch`] of
    /// it alone, then [`Campaign::assemble`].  For one-off callers; a
    /// caller with several specs prefetches them together.
    pub fn analysis(&self, spec: &AnalysisSpec) -> KcResult<CouplingAnalysis> {
        self.prefetch(std::slice::from_ref(spec))?;
        self.assemble(spec)
    }

    /// The coupling analysis for one spec, read from the in-memory
    /// cache only.  Every cell must be there already — a successful
    /// [`Campaign::prefetch`] of any spec set holding this one puts it
    /// there.  A missing cell is a [`KcError::NotPrefetched`] naming
    /// it; assembly never loads, executes or drains.
    pub fn assemble(&self, spec: &AnalysisSpec) -> KcResult<CouplingAnalysis> {
        let ctx = self.context(spec);
        let set = spec.kernel_set();
        let iters = spec.benchmark.problem(spec.class).iterations;
        let read = |key: &MeasurementKey| {
            if !self.provider.contains(key) {
                return Err(KcError::NotPrefetched {
                    key: key.to_string(),
                    reader: format!(
                        "analysis {} {}/{} L={}",
                        spec.benchmark, spec.class, spec.procs, spec.chain_len
                    ),
                });
            }
            self.provider.measure(key)
        };
        self.phase(phases::ASSEMBLE, || {
            assemble_analysis(read, &ctx, &set, spec.chain_len, iters, self.runner.reps)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_dedupes_across_chain_lengths() {
        let campaign = Campaign::builder(Runner::noise_free()).build();
        // BT has 5 loop kernels: length-2 and length-3 studies share
        // the 5 isolated cells, the overhead and the ground truth
        let specs = [
            AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2),
            AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 3),
        ];
        let stats = campaign.prefetch(&specs).unwrap();
        assert_eq!(stats.cells_requested, 2 * (5 + 5 + 2));
        assert_eq!(stats.cells_unique, 5 + 5 + 5 + 2, "shared cells dedupe");
        assert_eq!(stats.cells_executed, stats.cells_unique);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.backend_hits, 0, "no persistent backend attached");
        assert_eq!(stats.naive_runs, 2 * (5 + 5 + 2));

        // a second prefetch finds everything cached
        let again = campaign.prefetch(&specs).unwrap();
        assert_eq!(again.cells_executed, 0);
        assert_eq!(again.cache_hits, again.cells_unique);
        assert_eq!(again.backend_hits, 0);
    }

    /// After a warm persistent store fills the cache, a fresh
    /// campaign's prefetch executes nothing — and reports the
    /// backend-served cells as backend hits, not executions
    /// (the ISSUE 4 accounting fix).
    #[test]
    fn warm_store_prefetch_reports_backend_hits_not_executions() {
        use kc_prophesy::CellStore;

        let specs = [AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2)];
        let store = Arc::new(CellStore::new());

        let cold = Campaign::builder(Runner::noise_free())
            .backend(Box::new(Arc::clone(&store)))
            .build();
        let first = cold.prefetch(&specs).unwrap();
        assert_eq!(first.cells_executed, first.cells_unique);
        assert_eq!(first.backend_hits, 0, "empty store serves nothing");

        let warm = Campaign::builder(Runner::noise_free())
            .backend(Box::new(Arc::clone(&store)))
            .build();
        let again = warm.prefetch(&specs).unwrap();
        assert_eq!(again.cells_executed, 0, "warm store must execute nothing");
        assert_eq!(
            again.backend_hits, again.cells_unique,
            "store-served cells are backend hits, not executions"
        );
        assert_eq!(again.cache_hits, 0);
        assert_eq!(warm.cache_stats().executed, 0);
    }

    #[test]
    fn analysis_matches_the_legacy_collect_path() {
        use kc_core::{ChainExecutor, CouplingAnalysis};

        let campaign = Campaign::builder(Runner::noise_free()).build();
        let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
        let via_campaign = campaign.analysis(&spec).unwrap();

        let runner = Runner::noise_free();
        let mut exec = runner.executor(Benchmark::Bt, Class::S, 4);
        let direct = CouplingAnalysis::collect(&mut exec, 2, runner.reps).unwrap();

        assert_eq!(
            via_campaign.couplings().unwrap(),
            direct.couplings().unwrap()
        );
        assert_eq!(via_campaign.actual(), direct.actual());
        assert_eq!(
            via_campaign.loop_iterations(),
            exec.loop_iterations(),
            "campaign must use the benchmark's real iteration count"
        );
    }

    #[test]
    fn machine_overrides_are_distinct_cells() {
        let campaign = Campaign::builder(Runner::noise_free()).build();
        let base = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
        let other = base
            .clone()
            .on(MachineConfig::ethernet_cluster().without_noise());
        let stats = campaign.prefetch(&[base, other]).unwrap();
        assert_eq!(
            stats.cells_unique, stats.cells_requested,
            "different machines must share nothing"
        );
    }

    #[test]
    fn bad_chain_length_is_an_error() {
        let campaign = Campaign::builder(Runner::noise_free()).build();
        let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 99);
        assert!(campaign.analysis(&spec).is_err());
        assert!(campaign.cells(&spec).is_err());
    }
}
