//! Campaign telemetry: structured spans from the measurement layers.
//!
//! PR 1 made every paper table flow through one deduplicating parallel
//! campaign, but the engine was a black box: `CacheStats` counted hits
//! while nothing recorded *which* cells ran, how long they took, or on
//! which worker.  This module is the observability layer:
//!
//! * [`TelemetryEvent`] — the schema-stable event vocabulary: cell
//!   request started/finished (with canonical key, wall-clock duration,
//!   worker thread and hit/backend-hit/executed disposition), raw
//!   provider executions, campaign phases (enumerate, dedupe, execute,
//!   assemble) and an end-of-run [`RunSummary`].
//! * [`TelemetrySink`] — anything that accepts events; emitters
//!   (`CachedProvider`, `NpbProvider`, `Campaign`) hold an
//!   `Arc<dyn TelemetrySink>` and record into it from any thread.
//! * Collectors: [`SummarySink`] (folds events into [`RunSummary`]
//!   aggregates as they arrive and keeps no events — the one sink every
//!   campaign carries), [`MemorySink`] (an unbounded in-memory log, for
//!   tests that inspect the stream), [`JsonLinesSink`] (buffers, then
//!   writes a canonical JSON-lines trace; only under `--trace`) and
//!   [`FanoutSink`] (broadcast, with runtime attachment).
//!
//! ## Determinism contract
//!
//! A campaign's event stream is **deterministic in content** across
//! thread counts: the same cells, dispositions and phases appear no
//! matter how execution was scheduled — only durations and worker
//! labels vary.  Two functions make that testable:
//!
//! * [`canonicalize`] reorders concurrent runs of cell events into a
//!   stable order (phase markers are serial and keep their positions);
//! * [`TelemetryEvent::redacted`] zeroes the fields that legitimately
//!   vary (durations, workers, summary timings).
//!
//! `canonicalize(a).map(redacted) == canonicalize(b).map(redacted)`
//! therefore holds for any two runs of the same campaign, and the
//! golden/regression tests assert exactly that.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How the cache satisfied one cell request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Disposition {
    /// Answered from the in-memory cache.
    Hit,
    /// Answered from the persistent backend.
    BackendHit,
    /// Executed by the inner provider.
    Executed,
}

/// One structured telemetry event.
///
/// The variants and their fields are the trace **schema**: tests and
/// external tooling parse them back, so changes must stay
/// backward-readable (add variants or fields, do not repurpose).
/// Cell keys are the canonical `MeasurementKey` text (its `Display`
/// form), which is itself part of the cache-identity contract.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A campaign phase began (`enumerate`, `dedupe`, `execute`,
    /// `assemble`).
    PhaseStarted {
        /// Phase name.
        phase: String,
    },
    /// A campaign phase completed.
    PhaseFinished {
        /// Phase name.
        phase: String,
        /// Wall-clock seconds the phase took.
        duration_secs: f64,
    },
    /// A cell request entered the caching measurement layer.
    CellStarted {
        /// Canonical cell key.
        key: String,
        /// Label of the requesting worker thread.
        worker: String,
    },
    /// A cell request completed.
    CellFinished {
        /// Canonical cell key.
        key: String,
        /// How the request was satisfied.
        disposition: Disposition,
        /// Wall-clock seconds from request to answer.
        duration_secs: f64,
        /// Label of the requesting worker thread.
        worker: String,
    },
    /// The provider ran one cell on a fresh simulated cluster (the
    /// raw execution inside a [`Disposition::Executed`] request).
    CellExecuted {
        /// Canonical cell key.
        key: String,
        /// Wall-clock seconds of the simulation itself.
        duration_secs: f64,
        /// Label of the executing worker thread.
        worker: String,
    },
    /// One prefetch's drain through the campaign's bounded cell
    /// scheduler: how many cells it queued and the worker-pool size.
    /// Emitted exactly once per prefetch (even when nothing was
    /// scheduled), so trace content stays deterministic; both fields
    /// depend on the schedule (what a concurrent prefetch cached
    /// first, the `--jobs` value) and are zeroed by
    /// [`TelemetryEvent::redacted`].
    SchedulerDrain {
        /// Distinct uncached cells this drain queued.  Drains run one
        /// at a time, so this is the queue depth the drain started
        /// with.
        enqueued: u64,
        /// Fixed worker-pool size (`--jobs`) the queue drains into.
        jobs: u64,
    },
    /// One prediction request answered by the serving layer
    /// (`kc_serve`): which request it was, how it resolved, how many
    /// requests shared its batch and how long it waited end-to-end.
    /// Not a cell event — cell work the request triggered is reported
    /// separately through the usual cell events.  `batch_size`,
    /// `duration_secs` and `deadline_slack_secs` are
    /// schedule-dependent and zeroed by [`TelemetryEvent::redacted`].
    RequestServed {
        /// Compact request descriptor (e.g. `bt/W/p9/len3`).
        request: String,
        /// Terminal status: `ok`, `error`, `overloaded` or `deadline`.
        status: String,
        /// Number of requests resolved in the same engine batch.
        batch_size: u64,
        /// Wall-clock seconds from admission to response.
        duration_secs: f64,
        /// Seconds of deadline budget left when the response landed
        /// (negative: the deadline was missed).  0 for requests
        /// without a deadline.
        #[serde(default)]
        deadline_slack_secs: f64,
    },
    /// A persistent-store read failed with an I/O error and the
    /// lookup was answered as a miss (the campaign will re-execute the
    /// cell).  The error text is environment-dependent and blanked by
    /// [`TelemetryEvent::redacted`]; the count also lands in
    /// [`RunSummary::store_read_errors`].
    StoreReadError {
        /// Canonical cell key whose read failed.
        key: String,
        /// The I/O error's display text.
        error: String,
    },
    /// End-of-run aggregates (normally the last trace line).
    RunSummary(RunSummary),
}

impl TelemetryEvent {
    /// Whether this is a per-cell event (as opposed to a phase marker
    /// or summary).
    pub fn is_cell_event(&self) -> bool {
        matches!(
            self,
            TelemetryEvent::CellStarted { .. }
                | TelemetryEvent::CellFinished { .. }
                | TelemetryEvent::CellExecuted { .. }
        )
    }

    /// The canonical cell key, for cell events.
    pub fn cell_key(&self) -> Option<&str> {
        match self {
            TelemetryEvent::CellStarted { key, .. }
            | TelemetryEvent::CellFinished { key, .. }
            | TelemetryEvent::CellExecuted { key, .. } => Some(key),
            _ => None,
        }
    }

    /// A copy with every legitimately schedule-dependent field zeroed:
    /// durations become `0.0`, worker labels become `""`, and the
    /// summary drops its timing block.  Two runs of the same campaign
    /// compare equal after [`canonicalize`] + `redacted`.
    pub fn redacted(&self) -> TelemetryEvent {
        match self {
            TelemetryEvent::PhaseStarted { phase } => TelemetryEvent::PhaseStarted {
                phase: phase.clone(),
            },
            TelemetryEvent::PhaseFinished { phase, .. } => TelemetryEvent::PhaseFinished {
                phase: phase.clone(),
                duration_secs: 0.0,
            },
            TelemetryEvent::CellStarted { key, .. } => TelemetryEvent::CellStarted {
                key: key.clone(),
                worker: String::new(),
            },
            TelemetryEvent::CellFinished {
                key, disposition, ..
            } => TelemetryEvent::CellFinished {
                key: key.clone(),
                disposition: *disposition,
                duration_secs: 0.0,
                worker: String::new(),
            },
            TelemetryEvent::CellExecuted { key, .. } => TelemetryEvent::CellExecuted {
                key: key.clone(),
                duration_secs: 0.0,
                worker: String::new(),
            },
            TelemetryEvent::SchedulerDrain { .. } => TelemetryEvent::SchedulerDrain {
                enqueued: 0,
                jobs: 0,
            },
            TelemetryEvent::RequestServed {
                request, status, ..
            } => TelemetryEvent::RequestServed {
                request: request.clone(),
                status: status.clone(),
                batch_size: 0,
                duration_secs: 0.0,
                deadline_slack_secs: 0.0,
            },
            TelemetryEvent::StoreReadError { key, .. } => TelemetryEvent::StoreReadError {
                key: key.clone(),
                error: String::new(),
            },
            TelemetryEvent::RunSummary(s) => TelemetryEvent::RunSummary(s.redacted()),
        }
    }

    /// Stable ordering rank among cell events sharing a key: started,
    /// then executed, then finished.
    fn variant_rank(&self) -> u8 {
        match self {
            TelemetryEvent::CellStarted { .. } => 0,
            TelemetryEvent::CellExecuted { .. } => 1,
            TelemetryEvent::CellFinished { .. } => 2,
            _ => 3,
        }
    }
}

/// One slow cell in the end-of-run aggregates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlowCell {
    /// Canonical cell key.
    pub key: String,
    /// Wall-clock seconds the execution took.
    pub duration_secs: f64,
}

/// End-of-run aggregates over one campaign's event stream.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Total cell requests (must equal `CacheStats::requests`).
    pub requests: u64,
    /// Requests answered from the in-memory cache.
    pub hits: u64,
    /// Requests answered from the persistent backend.
    pub backend_hits: u64,
    /// Requests that executed a fresh measurement.
    pub executed: u64,
    /// Distinct cells touched.
    pub unique_cells: u64,
    /// `(hits + backend_hits) / requests`, `0` with no requests.
    pub cache_hit_rate: f64,
    /// Distinct cells per benchmark (first segment of the key).
    pub per_benchmark: BTreeMap<String, u64>,
    /// Distinct worker threads that executed cells.
    pub workers: u64,
    /// Sum of executed-cell durations (the serial cost of the run).
    pub serial_cell_secs: f64,
    /// Wall-clock seconds spent in `execute` phases.
    pub execute_wall_secs: f64,
    /// `serial_cell_secs / execute_wall_secs` — how much the parallel
    /// execute phase beat a serial one.
    pub parallel_speedup: f64,
    /// Speedup divided by the worker count.
    pub parallel_efficiency: f64,
    /// The slowest executed cells, longest first.
    pub slowest: Vec<SlowCell>,
    /// Bounded-scheduler worker-pool size (`--jobs`; the max across
    /// drains, `0` when no scheduler ran).
    #[serde(default)]
    pub scheduler_jobs: u64,
    /// Cells pushed through the shared scheduler queue, summed over
    /// drains.
    #[serde(default)]
    pub scheduler_enqueued: u64,
    /// Cells in the largest single drain — the peak queue depth, since
    /// drains never overlap.
    #[serde(default)]
    pub scheduler_peak_queue_depth: u64,
    /// Persistent-store reads that failed with an I/O error and were
    /// answered as misses (each one forced a re-execution).
    #[serde(default)]
    pub store_read_errors: u64,
}

impl RunSummary {
    /// A copy without the schedule-dependent timing block (see
    /// [`TelemetryEvent::redacted`]).
    pub fn redacted(&self) -> RunSummary {
        RunSummary {
            workers: 0,
            serial_cell_secs: 0.0,
            execute_wall_secs: 0.0,
            parallel_speedup: 0.0,
            parallel_efficiency: 0.0,
            slowest: Vec::new(),
            scheduler_jobs: 0,
            scheduler_enqueued: 0,
            scheduler_peak_queue_depth: 0,
            ..self.clone()
        }
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cells      {} requests -> {} unique ({} hits, {} backend, {} executed; hit rate {:.1}%)",
            self.requests,
            self.unique_cells,
            self.hits,
            self.backend_hits,
            self.executed,
            100.0 * self.cache_hit_rate,
        )?;
        write!(f, "benchmarks ")?;
        for (i, (b, n)) in self.per_benchmark.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}: {n}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "execute    {:.2}s wall, {:.2}s serial cell sum -> {:.2}x speedup on {} worker(s) ({:.0}% efficiency)",
            self.execute_wall_secs,
            self.serial_cell_secs,
            self.parallel_speedup,
            self.workers,
            100.0 * self.parallel_efficiency,
        )?;
        if self.scheduler_jobs > 0 {
            writeln!(
                f,
                "scheduler  {} cells queued, peak queue depth {}, {} job slot(s)",
                self.scheduler_enqueued, self.scheduler_peak_queue_depth, self.scheduler_jobs,
            )?;
        }
        if self.store_read_errors > 0 {
            writeln!(
                f,
                "store      {} read error(s) answered as misses",
                self.store_read_errors,
            )?;
        }
        writeln!(f, "slowest cells")?;
        for s in &self.slowest {
            writeln!(f, "  {:>9.4}s  {}", s.duration_secs, s.key)?;
        }
        Ok(())
    }
}

/// Build the end-of-run aggregates from an event stream, keeping the
/// `top_n` slowest executed cells: the stream fed through a fresh
/// [`SummarySink`] fold, so a replayed trace and a live campaign
/// aggregate through one code path.
pub fn summarize(events: &[TelemetryEvent], top_n: usize) -> RunSummary {
    let mut fold = SummaryFold::default();
    for e in events {
        fold.add(e);
    }
    fold.summary(top_n)
}

/// The running state behind [`SummarySink`] and [`summarize`]:
/// counters, the distinct cell keys, the labels of the workers that
/// executed cells and one `(key, secs)` entry per execution.  Hits,
/// phases and drains add to counters only, so the state grows with
/// new cells and executions (once per cell in a campaign), never with
/// repeated requests.
#[derive(Debug, Default)]
struct SummaryFold {
    /// Counters accumulated in place (`requests`, dispositions,
    /// `per_benchmark`, scheduler and store fields, the two second
    /// sums); the derived fields are filled in by [`Self::summary`].
    counts: RunSummary,
    cells: HashSet<String>,
    workers: HashSet<String>,
    executed: Vec<(String, f64)>,
}

impl SummaryFold {
    fn add(&mut self, e: &TelemetryEvent) {
        let s = &mut self.counts;
        match e {
            TelemetryEvent::CellFinished {
                key,
                disposition,
                duration_secs,
                worker,
            } => {
                s.requests += 1;
                if !self.cells.contains(key.as_str()) {
                    let benchmark = key.split('|').next().unwrap_or("?").to_string();
                    *s.per_benchmark.entry(benchmark).or_insert(0) += 1;
                    self.cells.insert(key.clone());
                }
                match disposition {
                    Disposition::Hit => s.hits += 1,
                    Disposition::BackendHit => s.backend_hits += 1,
                    Disposition::Executed => {
                        s.executed += 1;
                        s.serial_cell_secs += duration_secs;
                        if !self.workers.contains(worker.as_str()) {
                            self.workers.insert(worker.clone());
                        }
                        self.executed.push((key.clone(), *duration_secs));
                    }
                }
            }
            TelemetryEvent::PhaseFinished {
                phase,
                duration_secs,
            } if phase == phases::EXECUTE => {
                s.execute_wall_secs += duration_secs;
            }
            TelemetryEvent::SchedulerDrain { enqueued, jobs } => {
                s.scheduler_enqueued += enqueued;
                s.scheduler_peak_queue_depth = s.scheduler_peak_queue_depth.max(*enqueued);
                s.scheduler_jobs = s.scheduler_jobs.max(*jobs);
            }
            TelemetryEvent::StoreReadError { .. } => {
                s.store_read_errors += 1;
            }
            _ => {}
        }
    }

    fn summary(&self, top_n: usize) -> RunSummary {
        let mut s = self.counts.clone();
        s.unique_cells = self.cells.len() as u64;
        if s.requests > 0 {
            s.cache_hit_rate = (s.hits + s.backend_hits) as f64 / s.requests as f64;
        }
        s.workers = self.workers.len() as u64;
        if s.execute_wall_secs > 0.0 {
            s.parallel_speedup = s.serial_cell_secs / s.execute_wall_secs;
            if s.workers > 0 {
                s.parallel_efficiency = s.parallel_speedup / s.workers as f64;
            }
        }
        // longest first; ties broken by key so the list is deterministic
        let mut executed: Vec<&(String, f64)> = self.executed.iter().collect();
        executed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        s.slowest = executed
            .into_iter()
            .take(top_n)
            .map(|(key, duration_secs)| SlowCell {
                key: key.clone(),
                duration_secs: *duration_secs,
            })
            .collect();
        s
    }

    fn retained(&self) -> usize {
        self.cells.len() + self.workers.len() + self.executed.len()
    }
}

/// Linear-interpolation quantile over an ascending-sorted slice
/// (`q` in `[0, 1]`; `q = 0.5` is the median).  Returns `0.0` for an
/// empty slice so metric reports degrade gracefully.  The serving
/// layer uses this for request-latency percentiles.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Canonical event order: phase markers and summaries are emitted
/// serially and keep their positions; each contiguous run of cell
/// events (which parallel workers interleave arbitrarily) is sorted
/// by `(key, started < executed < finished, disposition)`.
///
/// Two runs of the same campaign produce the same canonical sequence
/// up to [`TelemetryEvent::redacted`] fields, regardless of thread
/// count or schedule.
pub fn canonicalize(events: Vec<TelemetryEvent>) -> Vec<TelemetryEvent> {
    let mut out = Vec::with_capacity(events.len());
    let mut run: Vec<TelemetryEvent> = Vec::new();
    let flush = |run: &mut Vec<TelemetryEvent>, out: &mut Vec<TelemetryEvent>| {
        run.sort_by(|a, b| {
            a.cell_key()
                .cmp(&b.cell_key())
                .then_with(|| a.variant_rank().cmp(&b.variant_rank()))
        });
        out.append(run);
    };
    for e in events {
        if e.is_cell_event() {
            run.push(e);
        } else {
            flush(&mut run, &mut out);
            out.push(e);
        }
    }
    flush(&mut run, &mut out);
    out
}

/// The phase names the campaign engine emits.
pub mod phases {
    /// Enumerating requested analyses into cells.
    pub const ENUMERATE: &str = "enumerate";
    /// Deduplicating cells and filtering against the cache.
    pub const DEDUPE: &str = "dedupe";
    /// Executing unique uncached cells (in parallel).
    pub const EXECUTE: &str = "execute";
    /// Assembling an analysis from the warm cache.
    pub const ASSEMBLE: &str = "assemble";
}

/// A label for the current worker thread (name if set, otherwise the
/// OS thread id).
pub fn worker_label() -> String {
    let t = std::thread::current();
    match t.name() {
        Some(name) if !name.is_empty() => name.to_string(),
        _ => format!("{:?}", t.id()),
    }
}

/// Accepts telemetry events from any thread.
pub trait TelemetrySink: Send + Sync {
    /// Record one event.
    fn record(&self, event: TelemetryEvent);

    /// Drain any buffered events to their destination.
    ///
    /// Purely in-memory sinks have nothing to drain, so the default is
    /// a no-op; buffered sinks like [`JsonLinesSink`] override this to
    /// write their trace out.  Callers with an explicit lifecycle point
    /// (scheduler drain, SIGTERM, end-of-run summary) call this instead
    /// of downcasting to a concrete sink type.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects events in memory, in emission order.  It keeps every
/// event until cleared, so it is for tests and for [`JsonLinesSink`]'s
/// buffer, not for a long-lived process's default path.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the recorded events, in emission order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().clone()
    }

    /// The recorded events in canonical order (see [`canonicalize`]).
    pub fn canonical_events(&self) -> Vec<TelemetryEvent> {
        canonicalize(self.events())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        self.events.lock().clear();
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: TelemetryEvent) {
        self.events.lock().push(event);
    }
}

/// Folds events into [`RunSummary`] aggregates as they arrive and
/// keeps no events: it holds the distinct cell keys, the workers that
/// executed them and one duration per execution, so a long-lived
/// process that keeps answering from known cells does not grow.
/// Every `Campaign` attaches one; `summary` over its events equals
/// [`summarize`] over the same stream.
#[derive(Debug, Default)]
pub struct SummarySink {
    fold: Mutex<SummaryFold>,
}

impl SummarySink {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregates over every event recorded so far, keeping the
    /// `top_n` slowest executed cells.
    pub fn summary(&self, top_n: usize) -> RunSummary {
        self.fold.lock().summary(top_n)
    }

    /// Entries the fold holds: distinct cell keys, executing worker
    /// labels and executed cells.  Grows with new cells, never with
    /// repeated requests for known ones.
    pub fn retained(&self) -> usize {
        self.fold.lock().retained()
    }
}

impl TelemetrySink for SummarySink {
    fn record(&self, event: TelemetryEvent) {
        self.fold.lock().add(&event);
    }
}

/// Buffers events and writes them as a canonical JSON-lines trace on
/// [`JsonLinesSink::flush`] — one JSON object per line, in
/// [`canonicalize`] order, so traces of the same campaign are
/// line-for-line comparable (modulo durations) across thread counts.
#[derive(Debug)]
pub struct JsonLinesSink {
    path: PathBuf,
    buffer: MemorySink,
}

impl JsonLinesSink {
    /// A sink that will write to `path` on flush.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            buffer: MemorySink::new(),
        }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Write the canonical trace to the destination path.
    pub fn flush(&self) -> std::io::Result<()> {
        write_jsonl(&self.path, &self.buffer.canonical_events())
    }
}

impl TelemetrySink for JsonLinesSink {
    fn record(&self, event: TelemetryEvent) {
        self.buffer.record(event);
    }

    fn flush(&self) -> std::io::Result<()> {
        JsonLinesSink::flush(self)
    }
}

/// Broadcasts every event to a set of sinks; sinks can attach at any
/// time (events recorded before attachment are not replayed).
#[derive(Default)]
pub struct FanoutSink {
    /// Copy-on-write: `add` swaps in a new slice, so `record` only
    /// bumps a reference count under the lock.
    sinks: Mutex<Arc<[Arc<dyn TelemetrySink>]>>,
}

impl FanoutSink {
    /// An empty broadcast set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach another sink.
    pub fn add(&self, sink: Arc<dyn TelemetrySink>) {
        let mut sinks = self.sinks.lock();
        *sinks = sinks.iter().cloned().chain([sink]).collect();
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.lock().len()
    }

    /// Whether no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.lock().is_empty()
    }
}

impl TelemetrySink for FanoutSink {
    fn record(&self, event: TelemetryEvent) {
        let sinks = Arc::clone(&self.sinks.lock());
        if let Some((last, rest)) = sinks.split_last() {
            for s in rest {
                s.record(event.clone());
            }
            last.record(event);
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        let sinks = Arc::clone(&self.sinks.lock());
        let mut first_err = None;
        for s in sinks.iter() {
            // keep draining the rest even if one sink fails, so a bad
            // disk path can't strand another sink's buffered events
            if let Err(e) = s.flush() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Write events as JSON lines (one event per line).
pub fn write_jsonl(path: &Path, events: &[TelemetryEvent]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for e in events {
        let line = serde_json::to_string(e).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("trace event: {e}"))
        })?;
        writeln!(f, "{line}")?;
    }
    f.flush()
}

/// Read a JSON-lines trace written by [`write_jsonl`] /
/// [`JsonLinesSink::flush`].
pub fn read_jsonl(path: &Path) -> std::io::Result<Vec<TelemetryEvent>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let data = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e: TelemetryEvent =
            serde_json::from_str(line).map_err(|e| bad(format!("trace line {}: {e}", i + 1)))?;
        events.push(e);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(key: &str, worker: &str) -> TelemetryEvent {
        TelemetryEvent::CellStarted {
            key: key.into(),
            worker: worker.into(),
        }
    }

    fn finished(key: &str, d: Disposition, secs: f64, worker: &str) -> TelemetryEvent {
        TelemetryEvent::CellFinished {
            key: key.into(),
            disposition: d,
            duration_secs: secs,
            worker: worker.into(),
        }
    }

    fn phase_pair(name: &str, secs: f64) -> [TelemetryEvent; 2] {
        [
            TelemetryEvent::PhaseStarted { phase: name.into() },
            TelemetryEvent::PhaseFinished {
                phase: name.into(),
                duration_secs: secs,
            },
        ]
    }

    #[test]
    fn canonicalize_sorts_cell_runs_but_keeps_phase_markers() {
        let mut events = vec![TelemetryEvent::PhaseStarted {
            phase: phases::EXECUTE.into(),
        }];
        // two workers interleaving b before a
        events.push(started("b", "w2"));
        events.push(started("a", "w1"));
        events.push(finished("b", Disposition::Executed, 0.2, "w2"));
        events.push(finished("a", Disposition::Executed, 0.1, "w1"));
        events.push(TelemetryEvent::PhaseFinished {
            phase: phases::EXECUTE.into(),
            duration_secs: 0.3,
        });
        let canon = canonicalize(events);
        assert!(matches!(&canon[0], TelemetryEvent::PhaseStarted { .. }));
        assert_eq!(canon[1].cell_key(), Some("a"));
        assert_eq!(canon[2].cell_key(), Some("a"));
        assert_eq!(canon[3].cell_key(), Some("b"));
        assert_eq!(canon[4].cell_key(), Some("b"));
        assert!(matches!(&canon[5], TelemetryEvent::PhaseFinished { .. }));
        // started sorts before finished for the same key
        assert!(matches!(&canon[1], TelemetryEvent::CellStarted { .. }));
        assert!(matches!(&canon[2], TelemetryEvent::CellFinished { .. }));
    }

    #[test]
    fn two_schedules_redact_to_the_same_canonical_stream() {
        let a = vec![
            started("x", "w1"),
            started("y", "w2"),
            finished("y", Disposition::Executed, 0.5, "w2"),
            finished("x", Disposition::Executed, 0.9, "w1"),
        ];
        let b = vec![
            started("y", "main"),
            finished("y", Disposition::Executed, 0.41, "main"),
            started("x", "main"),
            finished("x", Disposition::Executed, 0.88, "main"),
        ];
        let redact = |v: Vec<TelemetryEvent>| -> Vec<TelemetryEvent> {
            canonicalize(v)
                .iter()
                .map(TelemetryEvent::redacted)
                .collect()
        };
        assert_eq!(redact(a), redact(b));
    }

    #[test]
    fn summary_counts_dispositions_and_ranks_slowest() {
        let mut events = Vec::new();
        events.extend(phase_pair(phases::ENUMERATE, 0.01));
        events.extend(phase_pair(phases::EXECUTE, 2.0));
        events.push(finished(
            "BT|S|p4|chain:0|r5|e|m",
            Disposition::Executed,
            1.5,
            "w1",
        ));
        events.push(finished(
            "BT|S|p4|chain:1|r5|e|m",
            Disposition::Executed,
            0.5,
            "w2",
        ));
        events.push(finished(
            "BT|S|p4|chain:0|r5|e|m",
            Disposition::Hit,
            0.0,
            "w1",
        ));
        events.push(finished(
            "SP|W|p4|overhead|r1|e|m",
            Disposition::BackendHit,
            0.0,
            "w1",
        ));
        let s = summarize(&events, 1);
        assert_eq!(s.requests, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.backend_hits, 1);
        assert_eq!(s.executed, 2);
        assert_eq!(s.unique_cells, 3);
        assert_eq!(s.per_benchmark.get("BT"), Some(&2));
        assert_eq!(s.per_benchmark.get("SP"), Some(&1));
        assert_eq!(s.workers, 2);
        assert!((s.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!((s.serial_cell_secs - 2.0).abs() < 1e-12);
        assert!((s.execute_wall_secs - 2.0).abs() < 1e-12);
        assert!((s.parallel_speedup - 1.0).abs() < 1e-12);
        assert!((s.parallel_efficiency - 0.5).abs() < 1e-12);
        assert_eq!(s.slowest.len(), 1);
        assert_eq!(s.slowest[0].key, "BT|S|p4|chain:0|r5|e|m");
        let text = s.to_string();
        assert!(text.contains("4 requests"));
        assert!(text.contains("BT: 2"));
    }

    #[test]
    fn redacted_summary_drops_timing_but_keeps_counts() {
        let events = vec![
            finished("a", Disposition::Executed, 1.0, "w1"),
            finished("a", Disposition::Hit, 0.0, "w2"),
        ];
        let s = summarize(&events, 5);
        let r = s.redacted();
        assert_eq!(r.requests, 2);
        assert_eq!(r.executed, 1);
        assert_eq!(r.workers, 0);
        assert_eq!(r.serial_cell_secs, 0.0);
        assert!(r.slowest.is_empty());
    }

    #[test]
    fn jsonl_roundtrips_every_variant() {
        let mut events = Vec::new();
        events.extend(phase_pair(phases::EXECUTE, 0.25));
        events.push(started("k1", "w1"));
        events.push(TelemetryEvent::CellExecuted {
            key: "k1".into(),
            duration_secs: 0.2,
            worker: "w1".into(),
        });
        events.push(finished("k1", Disposition::Executed, 0.25, "w1"));
        events.push(TelemetryEvent::SchedulerDrain {
            enqueued: 3,
            jobs: 4,
        });
        events.push(TelemetryEvent::RunSummary(summarize(&events, 3)));
        let path = std::env::temp_dir().join(format!(
            "kc_telemetry_test_{}/trace.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        write_jsonl(&path, &events).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, events);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn read_jsonl_rejects_garbage_lines() {
        let path =
            std::env::temp_dir().join(format!("kc_telemetry_garbage_{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"PhaseStarted\":{\"phase\":\"x\"}}\nnot json\n").unwrap();
        assert!(read_jsonl(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sinks_collect_and_fan_out() {
        let memory = Arc::new(MemorySink::new());
        let jsonl = Arc::new(JsonLinesSink::new(std::env::temp_dir().join(format!(
            "kc_telemetry_fanout_{}/trace.jsonl",
            std::process::id()
        ))));
        let fanout = FanoutSink::new();
        assert!(fanout.is_empty());
        fanout.add(memory.clone());
        fanout.add(jsonl.clone());
        assert_eq!(fanout.len(), 2);
        fanout.record(started("cell", "w"));
        assert_eq!(memory.len(), 1);
        assert_eq!(jsonl.len(), 1);
        assert!(!jsonl.is_empty());
        jsonl.flush().unwrap();
        assert_eq!(read_jsonl(jsonl.path()).unwrap().len(), 1);
        memory.clear();
        assert!(memory.is_empty());
        let _ = std::fs::remove_dir_all(jsonl.path().parent().unwrap());
    }

    #[test]
    fn trait_flush_drains_buffered_sinks_through_a_fanout() {
        let jsonl = Arc::new(JsonLinesSink::new(std::env::temp_dir().join(format!(
            "kc_telemetry_trait_flush_{}/trace.jsonl",
            std::process::id()
        ))));
        let fanout = FanoutSink::new();
        fanout.add(Arc::new(MemorySink::new())); // default no-op flush
        fanout.add(jsonl.clone());
        fanout.record(started("cell", "w"));
        TelemetrySink::flush(&fanout).unwrap();
        assert_eq!(read_jsonl(jsonl.path()).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(jsonl.path().parent().unwrap());
    }

    #[test]
    fn crashed_buffered_sink_loses_only_the_unflushed_tail() {
        let path = std::env::temp_dir().join(format!(
            "kc_telemetry_crash_{}/trace.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        let jsonl = JsonLinesSink::new(&path);
        jsonl.record(started("flushed", "w"));
        jsonl.flush().unwrap();
        jsonl.record(started("buffered-tail", "w"));
        // simulate the process dying before the next flush point
        drop(jsonl);
        // the on-disk trace still parses and holds exactly the events
        // flushed before the crash — the tail was never half-written
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].cell_key(), Some("flushed"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn worker_label_is_nonempty() {
        assert!(!worker_label().is_empty());
    }

    #[test]
    fn scheduler_drains_aggregate_into_the_summary_and_redact_away() {
        let drain = |enqueued, jobs| TelemetryEvent::SchedulerDrain { enqueued, jobs };
        let events = vec![
            drain(5, 4),
            finished("a", Disposition::Executed, 0.5, "kc-worker-0"),
            drain(2, 4),
        ];
        let s = summarize(&events, 3);
        assert_eq!(s.scheduler_enqueued, 7, "enqueued sums across drains");
        assert_eq!(
            s.scheduler_peak_queue_depth, 5,
            "depth is the largest single drain"
        );
        assert_eq!(s.scheduler_jobs, 4);
        assert!(s.to_string().contains("7 cells queued"));
        assert!(s.to_string().contains("4 job slot(s)"));

        // every field is schedule-dependent: redaction zeroes them on
        // both the event and the summary, and is not a cell event
        assert!(!events[0].is_cell_event());
        assert_eq!(events[0].cell_key(), None);
        assert_eq!(
            events[2].redacted(),
            drain(0, 0),
            "drain payloads vary with the schedule"
        );
        let r = s.redacted();
        assert_eq!(r.scheduler_jobs, 0);
        assert_eq!(r.scheduler_enqueued, 0);
        assert_eq!(r.scheduler_peak_queue_depth, 0);
        assert!(!r.to_string().contains("job slot"));
    }

    #[test]
    fn request_served_redacts_schedule_dependent_fields() {
        let e = TelemetryEvent::RequestServed {
            request: "bt/W/p9/len3".into(),
            status: "ok".into(),
            batch_size: 7,
            duration_secs: 0.42,
            deadline_slack_secs: 0.08,
        };
        assert!(!e.is_cell_event(), "requests are not cell events");
        assert_eq!(e.cell_key(), None);
        assert_eq!(
            e.redacted(),
            TelemetryEvent::RequestServed {
                request: "bt/W/p9/len3".into(),
                status: "ok".into(),
                batch_size: 0,
                duration_secs: 0.0,
                deadline_slack_secs: 0.0,
            },
            "batch size, latency and slack vary with the schedule"
        );
        // schema round-trip, like every other variant
        let line = serde_json::to_string(&e).unwrap();
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        assert_eq!(quantile(&[], 0.5), 0.0, "empty slice degrades to 0");
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(
            (quantile(&v, 0.5) - 2.5).abs() < 1e-12,
            "median interpolates"
        );
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        // out-of-range q clamps instead of panicking
        assert_eq!(quantile(&v, -1.0), 1.0);
        assert_eq!(quantile(&v, 2.0), 4.0);
    }

    mod fold_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;
        use std::sync::Barrier;

        /// Keys over three benchmarks; few enough that streams repeat
        /// them.
        fn key(i: usize) -> String {
            format!("{}|S|p4|cell:{i}|r5|e|m", ["BT", "SP", "LU"][i % 3])
        }

        /// Durations are multiples of 1/8 s, so every sum is exact and
        /// the fold's arrival order cannot change a bit of it.
        fn secs(eighths: u32) -> f64 {
            eighths as f64 / 8.0
        }

        fn event() -> impl Strategy<Value = TelemetryEvent> {
            let disposition = |d: usize| {
                [
                    Disposition::Hit,
                    Disposition::BackendHit,
                    Disposition::Executed,
                ][d]
            };
            prop_oneof![
                6 => (0usize..7, 0usize..3, 0u32..64, 0usize..3).prop_map(
                    move |(k, d, n, w)| TelemetryEvent::CellFinished {
                        key: key(k),
                        disposition: disposition(d),
                        duration_secs: secs(n),
                        worker: format!("kc-worker-{w}"),
                    }
                ),
                2 => (0usize..7, 0usize..3).prop_map(|(k, w)| TelemetryEvent::CellStarted {
                    key: key(k),
                    worker: format!("kc-worker-{w}"),
                }),
                2 => (0usize..7, 0u32..64).prop_map(|(k, n)| TelemetryEvent::CellExecuted {
                    key: key(k),
                    duration_secs: secs(n),
                    worker: "kc-worker-0".into(),
                }),
                2 => (0usize..4, 0u32..64).prop_map(|(p, n)| TelemetryEvent::PhaseFinished {
                    phase: [phases::ENUMERATE, phases::DEDUPE, phases::EXECUTE, phases::ASSEMBLE]
                        [p]
                        .into(),
                    duration_secs: secs(n),
                }),
                1 => (0u64..9, 1u64..5).prop_map(|(enqueued, jobs)| {
                    TelemetryEvent::SchedulerDrain { enqueued, jobs }
                }),
                1 => (0usize..7).prop_map(|k| TelemetryEvent::StoreReadError {
                    key: key(k),
                    error: "torn frame".into(),
                }),
                1 => (0u64..50).prop_map(|requests| TelemetryEvent::RunSummary(RunSummary {
                    requests,
                    executed: requests,
                    ..RunSummary::default()
                })),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Recording a stream from two threads, split any way,
            /// folds to the summary `summarize` gives for the whole
            /// stream.
            #[test]
            fn a_split_stream_folds_to_the_summary_of_the_whole(
                stream in prop::collection::vec((event(), 0u8..2), 0..80),
                top_n in 0usize..12,
            ) {
                let events: Vec<TelemetryEvent> = stream.iter().map(|(e, _)| e.clone()).collect();
                let whole = summarize(&events, top_n);

                let sink = SummarySink::new();
                let start = Barrier::new(2);
                std::thread::scope(|scope| {
                    for side in 0..2u8 {
                        let (sink, start, stream) = (&sink, &start, &stream);
                        scope.spawn(move || {
                            start.wait();
                            for (e, _) in stream.iter().filter(|(_, t)| *t == side) {
                                sink.record(e.clone());
                            }
                        });
                    }
                });
                let folded = sink.summary(top_n);

                prop_assert_eq!(folded.redacted(), whole.redacted());
                prop_assert_eq!(
                    (folded.scheduler_enqueued, folded.scheduler_peak_queue_depth),
                    (whole.scheduler_enqueued, whole.scheduler_peak_queue_depth)
                );
                prop_assert_eq!(folded.scheduler_jobs, whole.scheduler_jobs);
                prop_assert_eq!(folded.workers, whole.workers);
                prop_assert_eq!(&folded.slowest, &whole.slowest);
                prop_assert_eq!(&folded, &whole, "dyadic durations sum exactly in any order");
                prop_assert_eq!(
                    folded.requests,
                    folded.hits + folded.backend_hits + folded.executed
                );
                prop_assert!(folded.slowest.len() <= top_n);

                // the counts against a direct tally of the stream
                let mut tally = (0u64, 0u64, 0u64, 0u64, 0u64);
                let mut keys = BTreeSet::new();
                for e in &events {
                    match e {
                        TelemetryEvent::CellFinished { key, disposition, .. } => {
                            tally.0 += 1;
                            keys.insert(key.as_str());
                            match disposition {
                                Disposition::Hit => tally.1 += 1,
                                Disposition::BackendHit => tally.2 += 1,
                                Disposition::Executed => tally.3 += 1,
                            }
                        }
                        TelemetryEvent::StoreReadError { .. } => tally.4 += 1,
                        _ => {}
                    }
                }
                prop_assert_eq!(
                    (folded.requests, folded.hits, folded.backend_hits, folded.executed),
                    (tally.0, tally.1, tally.2, tally.3)
                );
                prop_assert_eq!(folded.store_read_errors, tally.4);
                prop_assert_eq!(folded.unique_cells, keys.len() as u64);
                let mut per_benchmark = BTreeMap::new();
                for k in &keys {
                    *per_benchmark.entry(k[..2].to_string()).or_insert(0u64) += 1;
                }
                prop_assert_eq!(&folded.per_benchmark, &per_benchmark);
                // hits, phases, drains and stray summaries retain nothing
                prop_assert_eq!(
                    sink.retained() as u64,
                    folded.unique_cells + folded.workers + folded.executed
                );
            }
        }
    }

    #[test]
    fn summary_without_scheduler_fields_still_decodes() {
        // a PR-3-era trace line: RunSummary without the scheduler
        // block (round-trip a current summary, strip the new fields)
        let modern = TelemetryEvent::RunSummary(RunSummary {
            requests: 2,
            scheduler_jobs: 8,
            ..RunSummary::default()
        });
        let line = serde_json::to_string(&modern).unwrap();
        let mut value: serde::Value = serde_json::from_str(&line).unwrap();
        if let serde::Value::Object(event) = &mut value {
            for (_, payload) in event.iter_mut() {
                if let serde::Value::Object(fields) = payload {
                    fields.retain(|(k, _)| !k.starts_with("scheduler_"));
                }
            }
        }
        let legacy = serde_json::to_string(&value).unwrap();
        assert!(!legacy.contains("scheduler_"), "fields really stripped");
        let e: TelemetryEvent = serde_json::from_str(&legacy).unwrap();
        let TelemetryEvent::RunSummary(s) = e else {
            panic!("expected a RunSummary");
        };
        assert_eq!(s.requests, 2);
        assert_eq!(s.scheduler_jobs, 0, "missing fields default to zero");
    }
}
