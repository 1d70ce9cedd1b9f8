//! The measurement-provider layer: canonical cell identities, a
//! provider abstraction and a thread-safe memoizing cache.
//!
//! A coupling study consumes *measurement cells* — one timed cluster
//! run each: an isolated kernel, a chain window, the serial overhead
//! or the ground-truth application.  Different tables of the paper ask
//! for overlapping cell sets (isolated kernels and the ground truth
//! are shared across chain lengths; the transition study re-measures
//! pairwise chains the main tables already have).  This module gives
//! every cell a canonical identity ([`MeasurementKey`]) so a campaign
//! can deduplicate cells across tables, execute each unique cell
//! exactly once (in parallel, since cells are independent), and
//! assemble every analysis from the shared cache.
//!
//! * [`MeasurementProvider`] — anything that can produce the
//!   [`Measurement`] for a key.  `kc-npb` implements it by building a
//!   fresh executor per cell, which makes providers safe to call from
//!   any thread in any order.
//! * [`CachedProvider`] — memoizes a provider behind a
//!   `parking_lot`-guarded map, with an optional persistent
//!   [`MeasurementBackend`] (the `kc-prophesy` cell store).  It is a
//!   plain memo: the campaign scheduler, not the cache, makes sure two
//!   threads never execute the same cell at once.
//! * [`assemble_analysis`] — rebuilds a [`CouplingAnalysis`] from
//!   provider-fetched cells; [`analysis_cells`] enumerates the cells
//!   it will ask for, so campaigns can prefetch.

use crate::analysis::CouplingAnalysis;
use crate::error::{CouplingError, KcResult};
use crate::kernel::{KernelId, KernelSet};
use crate::measurement::Measurement;
use crate::telemetry::{worker_label, Disposition, TelemetryEvent, TelemetrySink};
use crate::windows::cyclic_windows;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// What one measurement cell times.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellKind {
    /// A loop whose body is this kernel chain (isolated kernels are
    /// length-1 chains).
    Chain(Vec<KernelId>),
    /// The one-off init + final kernels.
    SerialOverhead,
    /// The full application (ground truth).
    Application,
}

impl CellKind {
    /// Chain length, if this is a chain cell.
    pub fn chain_len(&self) -> Option<usize> {
        match self {
            CellKind::Chain(ks) => Some(ks.len()),
            _ => None,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellKind::Chain(ks) => {
                write!(f, "chain:")?;
                for (i, k) in ks.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{}", k.index())?;
                }
                Ok(())
            }
            CellKind::SerialOverhead => write!(f, "overhead"),
            CellKind::Application => write!(f, "application"),
        }
    }
}

/// Canonical identity of one measurement cell.
///
/// Two keys compare equal exactly when re-measuring would be wasted
/// work: same benchmark instance, same cell, same repetition count,
/// same measurement protocol (`exec_digest`) and the same machine
/// (`machine_fingerprint` — a content hash of the full
/// `MachineConfig`, so *any* change to the simulated hardware or its
/// noise model yields a distinct cell).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MeasurementKey {
    /// Benchmark name (provider-defined, e.g. `BT` or `BT#fine`).
    pub benchmark: String,
    /// Problem-class label (e.g. `W`).
    pub class: String,
    /// Processor count.
    pub procs: usize,
    /// What the cell times.
    pub cell: CellKind,
    /// Timing repetitions (samples) requested; one-shot cells
    /// (overhead, application) use 1.
    pub reps: u32,
    /// Digest of the execution config (warm-up/timed iterations,
    /// mode, bracketing, cold-start policy).
    pub exec_digest: String,
    /// Content fingerprint of the machine configuration.
    pub machine_fingerprint: String,
}

impl fmt::Display for MeasurementKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}|{}|p{}|{}|r{}|{}|{}",
            self.benchmark,
            self.class,
            self.procs,
            self.cell,
            self.reps,
            self.exec_digest,
            self.machine_fingerprint
        )
    }
}

impl MeasurementKey {
    /// Content digest of the canonical key text (FNV-1a, 64 bit).
    /// Two keys have equal digests exactly when they are equal (up to
    /// hash collisions, which the canonicalization property tests
    /// treat as equality-breaking bugs).
    pub fn digest_u64(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_string().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// [`MeasurementKey::digest_u64`] as fixed-width hex, for logs and
    /// stores.
    pub fn digest(&self) -> String {
        format!("{:016x}", self.digest_u64())
    }
}

/// The key fields shared by every cell of one benchmark instance on
/// one machine under one protocol; stamps out full keys per cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellContext {
    /// Benchmark name.
    pub benchmark: String,
    /// Problem-class label.
    pub class: String,
    /// Processor count.
    pub procs: usize,
    /// Execution-config digest.
    pub exec_digest: String,
    /// Machine fingerprint.
    pub machine_fingerprint: String,
}

impl CellContext {
    /// The full key of one cell in this context.
    pub fn key(&self, cell: CellKind, reps: u32) -> MeasurementKey {
        MeasurementKey {
            benchmark: self.benchmark.clone(),
            class: self.class.clone(),
            procs: self.procs,
            cell,
            reps,
            exec_digest: self.exec_digest.clone(),
            machine_fingerprint: self.machine_fingerprint.clone(),
        }
    }
}

/// Produces the measurement for a canonical cell key.
///
/// Implementations must be deterministic per key (same key, same
/// `Measurement`, regardless of call order or thread) — that is what
/// lets a campaign execute cells in parallel and still produce
/// bit-identical tables.
pub trait MeasurementProvider: Sync {
    /// Measure one cell.
    fn measure(&self, key: &MeasurementKey) -> KcResult<Measurement>;

    /// Rough relative cost of measuring this cell, for largest-first
    /// scheduling.  Only the ordering matters.
    fn cost_estimate(&self, _key: &MeasurementKey) -> f64 {
        1.0
    }
}

/// Persistent storage for measured cells (e.g. the `kc-prophesy` cell
/// store): consulted on cache misses, written after executions.
pub trait MeasurementBackend: Send + Sync {
    /// A previously stored measurement for this key, if any.
    fn load(&self, key: &MeasurementKey) -> Option<Measurement>;
    /// Store a freshly executed measurement.
    fn store(&self, key: &MeasurementKey, m: &Measurement);
}

/// Sharing a backend: the cache takes ownership of a boxed backend,
/// so callers that also need to keep a handle (e.g. to save a cell
/// store to disk at the end of a campaign) can hand the cache an
/// `Arc` of it instead.
impl<B: MeasurementBackend + ?Sized> MeasurementBackend for std::sync::Arc<B> {
    fn load(&self, key: &MeasurementKey) -> Option<Measurement> {
        (**self).load(key)
    }

    fn store(&self, key: &MeasurementKey, m: &Measurement) {
        (**self).store(key, m)
    }
}

/// Counters of a [`CachedProvider`]'s traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total `measure` calls.
    pub requests: u64,
    /// Requests answered from the in-memory cache.
    pub hits: u64,
    /// Requests answered from the persistent backend.
    pub backend_hits: u64,
    /// Cells actually executed by the inner provider.
    pub executed: u64,
}

/// A thread-safe memoizing wrapper around a [`MeasurementProvider`].
///
/// A request is a cache hit, else a backend load, else an execution
/// whose result is written back and cached.  The inner provider is
/// *not* called under the cache lock, so misses for different keys
/// execute concurrently.  Concurrent misses for the *same* key are not
/// deduplicated here: each one executes.  Exactly-once execution is
/// the campaign scheduler's job (`kc_experiments::CellScheduler` runs
/// one drain at a time, so a later drain finds a shared cell cached).
pub struct CachedProvider<P> {
    inner: P,
    cache: Mutex<HashMap<MeasurementKey, Measurement>>,
    backend: Option<Box<dyn MeasurementBackend>>,
    stats: Mutex<CacheStats>,
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl<P: MeasurementProvider> CachedProvider<P> {
    /// Wrap a provider with an in-memory cache only.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            cache: Mutex::new(HashMap::new()),
            backend: None,
            stats: Mutex::new(CacheStats::default()),
            sink: None,
        }
    }

    /// Wrap a provider with an in-memory cache and a persistent
    /// backend.
    pub fn with_backend(inner: P, backend: Box<dyn MeasurementBackend>) -> Self {
        Self {
            backend: Some(backend),
            ..Self::new(inner)
        }
    }

    /// Emit a cell-started / cell-finished telemetry span (with the
    /// request's disposition and duration) for every `measure` call.
    pub fn with_telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Measure through the cache.
    pub fn measure(&self, key: &MeasurementKey) -> KcResult<Measurement> {
        self.measure_classified(key).map(|(m, _)| m)
    }

    /// Measure through the cache, also reporting how the request was
    /// served.  This is what a campaign scheduler uses to attribute a
    /// cell to exactly one disposition counter (executed vs backend
    /// hit vs cache hit) instead of assuming every scheduled cell was
    /// an execution.
    pub fn measure_classified(&self, key: &MeasurementKey) -> KcResult<(Measurement, Disposition)> {
        let Some(sink) = &self.sink else {
            return self.measure_inner(key);
        };
        let worker = worker_label();
        sink.record(TelemetryEvent::CellStarted {
            key: key.to_string(),
            worker: worker.clone(),
        });
        // only an execution can fail or unwind, so a failed or
        // panicking request finishes as `Executed`: the span stream
        // counts what `CacheStats` counts
        let mut span = FinishSpan {
            sink: &**sink,
            key,
            worker,
            started: Instant::now(),
            disposition: Disposition::Executed,
        };
        let outcome = self.measure_inner(key);
        if let Ok((_, disposition)) = &outcome {
            span.disposition = *disposition;
        }
        outcome
    }

    /// The cache lookup chain, reporting how the request was served:
    /// memory hit, else backend load, else execute and write back.
    fn measure_inner(&self, key: &MeasurementKey) -> KcResult<(Measurement, Disposition)> {
        self.stats.lock().requests += 1;
        if let Some(m) = self.cache.lock().get(key) {
            self.stats.lock().hits += 1;
            return Ok((m.clone(), Disposition::Hit));
        }
        if let Some(backend) = &self.backend {
            if let Some(m) = backend.load(key) {
                self.stats.lock().backend_hits += 1;
                self.cache.lock().insert(key.clone(), m.clone());
                return Ok((m, Disposition::BackendHit));
            }
        }
        self.stats.lock().executed += 1;
        let m = self.inner.measure(key)?;
        if let Some(backend) = &self.backend {
            backend.store(key, &m);
        }
        self.cache.lock().insert(key.clone(), m.clone());
        Ok((m, Disposition::Executed))
    }

    /// Whether a cell is already cached in memory.
    pub fn contains(&self, key: &MeasurementKey) -> bool {
        self.cache.lock().contains_key(key)
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }
}

/// The open half of a cell span: records its `CellFinished` when
/// dropped, so a request that unwinds out of the inner provider still
/// closes its span (the panic itself propagates untouched).
struct FinishSpan<'a> {
    sink: &'a dyn TelemetrySink,
    key: &'a MeasurementKey,
    worker: String,
    started: Instant,
    disposition: Disposition,
}

impl Drop for FinishSpan<'_> {
    fn drop(&mut self) {
        self.sink.record(TelemetryEvent::CellFinished {
            key: self.key.to_string(),
            disposition: self.disposition,
            duration_secs: self.started.elapsed().as_secs_f64(),
            worker: std::mem::take(&mut self.worker),
        });
    }
}

impl<P: MeasurementProvider> MeasurementProvider for CachedProvider<P> {
    fn measure(&self, key: &MeasurementKey) -> KcResult<Measurement> {
        CachedProvider::measure(self, key)
    }

    fn cost_estimate(&self, key: &MeasurementKey) -> f64 {
        self.inner.cost_estimate(key)
    }
}

/// Every cell [`assemble_analysis`] will request for one analysis, in
/// assembly order: `N` isolated kernels, `N` chain windows, the serial
/// overhead, the application.
pub fn analysis_cells(
    ctx: &CellContext,
    set: &KernelSet,
    chain_len: usize,
    reps: u32,
) -> Result<Vec<MeasurementKey>, CouplingError> {
    let n = set.len();
    if chain_len < 1 || chain_len > n {
        return Err(CouplingError::BadChainLength {
            requested: chain_len,
            kernels: n,
        });
    }
    let mut keys = Vec::with_capacity(2 * n + 2);
    for k in set.ids() {
        keys.push(ctx.key(CellKind::Chain(vec![k]), reps));
    }
    for w in cyclic_windows(set, chain_len) {
        keys.push(ctx.key(CellKind::Chain(w.kernels().to_vec()), reps));
    }
    keys.push(ctx.key(CellKind::SerialOverhead, 1));
    keys.push(ctx.key(CellKind::Application, 1));
    Ok(keys)
}

/// Rebuild a [`CouplingAnalysis`] from provider-fetched cells — the
/// provider-backed equivalent of [`CouplingAnalysis::collect`].
///
/// With a [`CachedProvider`] this is the assembly phase of a campaign:
/// after a prefetch it touches no executor at all.
pub fn assemble_analysis(
    provider: &dyn MeasurementProvider,
    ctx: &CellContext,
    set: &KernelSet,
    chain_len: usize,
    loop_iterations: u32,
    reps: u32,
) -> KcResult<CouplingAnalysis> {
    let n = set.len();
    if chain_len < 1 || chain_len > n {
        return Err(CouplingError::BadChainLength {
            requested: chain_len,
            kernels: n,
        }
        .into());
    }
    let isolated: Vec<Measurement> = set
        .ids()
        .map(|k| provider.measure(&ctx.key(CellKind::Chain(vec![k]), reps)))
        .collect::<KcResult<_>>()?;
    let window_perf: Vec<Measurement> = cyclic_windows(set, chain_len)
        .into_iter()
        .map(|w| provider.measure(&ctx.key(CellKind::Chain(w.kernels().to_vec()), reps)))
        .collect::<KcResult<_>>()?;
    let overhead = provider.measure(&ctx.key(CellKind::SerialOverhead, 1))?;
    let actual = provider.measure(&ctx.key(CellKind::Application, 1))?;
    CouplingAnalysis::from_measurements(
        set.clone(),
        chain_len,
        loop_iterations,
        isolated,
        window_perf,
        overhead,
        actual,
    )
    .map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KcError;
    use crate::executor::ChainExecutor;
    use crate::synthetic::SyntheticExecutor;
    use crate::telemetry::{summarize, MemorySink};

    /// A provider over a noise-free synthetic app: exact times from
    /// the executor's closed forms, call count per key for the tests.
    struct SyntheticProvider {
        exec: Mutex<SyntheticExecutor>,
        calls: Mutex<HashMap<MeasurementKey, u32>>,
    }

    fn synthetic() -> SyntheticExecutor {
        SyntheticExecutor::builder()
            .kernel("a", 1.0)
            .kernel("b", 2.0)
            .kernel("c", 1.5)
            .interaction("a", "b", -0.3)
            .interaction("b", "c", 0.2)
            .overheads(0.5, 0.25)
            .loop_iterations(40)
            .build()
    }

    impl SyntheticProvider {
        fn new() -> Self {
            Self {
                exec: Mutex::new(synthetic()),
                calls: Mutex::new(HashMap::new()),
            }
        }

        fn calls_for(&self, key: &MeasurementKey) -> u32 {
            self.calls.lock().get(key).copied().unwrap_or(0)
        }

        fn total_calls(&self) -> u32 {
            self.calls.lock().values().sum()
        }
    }

    impl MeasurementProvider for SyntheticProvider {
        fn measure(&self, key: &MeasurementKey) -> KcResult<Measurement> {
            *self.calls.lock().entry(key.clone()).or_insert(0) += 1;
            let mut exec = self.exec.lock();
            Ok(match &key.cell {
                CellKind::Chain(ks) => exec.measure_chain(ks, key.reps),
                CellKind::SerialOverhead => exec.measure_serial_overhead(),
                CellKind::Application => exec.measure_application(),
            })
        }
    }

    fn ctx() -> CellContext {
        CellContext {
            benchmark: "synthetic".into(),
            class: "S".into(),
            procs: 1,
            exec_digest: "w1t2".into(),
            machine_fingerprint: "fp0".into(),
        }
    }

    #[test]
    fn keys_are_canonical_and_ordered() {
        let c = ctx();
        let k1 = c.key(CellKind::Chain(vec![KernelId(0), KernelId(1)]), 5);
        let k2 = c.key(CellKind::Chain(vec![KernelId(0), KernelId(1)]), 5);
        assert_eq!(k1, k2);
        assert_eq!(k1.to_string(), "synthetic|S|p1|chain:0+1|r5|w1t2|fp0");
        let k3 = c.key(CellKind::Chain(vec![KernelId(1), KernelId(0)]), 5);
        assert_ne!(k1, k3, "chain order is part of the identity");
        assert_ne!(
            k1,
            c.key(CellKind::Chain(vec![KernelId(0), KernelId(1)]), 6)
        );
        assert_eq!(k1.cell.chain_len(), Some(2));
        assert_eq!(CellKind::Application.chain_len(), None);
        assert!(CellKind::SerialOverhead.to_string().contains("overhead"));
    }

    #[test]
    fn cache_executes_each_cell_once() {
        let p = CachedProvider::new(SyntheticProvider::new());
        let c = ctx();
        let key = c.key(CellKind::Chain(vec![KernelId(0)]), 3);
        let m1 = p.measure(&key).unwrap();
        let m2 = p.measure(&key).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(p.inner().calls_for(&key), 1, "second request must hit");
        let s = p.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.executed, 1);
        assert!(p.contains(&key));
    }

    #[test]
    fn a_failed_execution_is_traced_and_counted_alike() {
        /// Fails the first execution, succeeds afterwards.
        struct FailsFirst {
            attempts: Mutex<u32>,
        }
        impl MeasurementProvider for FailsFirst {
            fn measure(&self, key: &MeasurementKey) -> KcResult<Measurement> {
                let mut attempts = self.attempts.lock();
                *attempts += 1;
                if *attempts == 1 {
                    return Err(KcError::Io("injected failure".into()));
                }
                Ok(Measurement::exact(key.procs as f64))
            }
        }

        let sink = Arc::new(MemorySink::new());
        let p = CachedProvider::new(FailsFirst {
            attempts: Mutex::new(0),
        })
        .with_telemetry(sink.clone());
        let key = ctx().key(CellKind::Application, 1);
        assert!(p.measure(&key).is_err());
        assert!(!p.contains(&key), "a failure caches nothing");
        assert_eq!(p.measure(&key).unwrap().mean(), 1.0);
        assert_eq!(p.measure(&key).unwrap().mean(), 1.0);

        let stats = p.stats();
        assert_eq!((stats.requests, stats.executed, stats.hits), (3, 2, 1));
        let summary = summarize(&sink.events(), 5);
        assert_eq!(
            summary.requests, stats.requests,
            "the failed execution finishes its span like any other"
        );
        assert_eq!(summary.executed, stats.executed);
        assert_eq!(summary.hits, stats.hits);
    }

    #[test]
    fn a_panicking_execution_still_finishes_its_span() {
        /// Panics on the application cell, measures everything else.
        struct PanicsOnApplication;
        impl MeasurementProvider for PanicsOnApplication {
            fn measure(&self, key: &MeasurementKey) -> KcResult<Measurement> {
                if key.cell == CellKind::Application {
                    panic!("injected panic");
                }
                Ok(Measurement::exact(1.0))
            }
        }

        let sink = Arc::new(MemorySink::new());
        let p = CachedProvider::new(PanicsOnApplication).with_telemetry(sink.clone());
        let overhead = ctx().key(CellKind::SerialOverhead, 1);
        p.measure(&overhead).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.measure(&ctx().key(CellKind::Application, 1))
        }));
        assert!(unwound.is_err(), "the panic propagates to the caller");
        p.measure(&overhead).unwrap();

        let events = sink.events();
        let count = |started: bool| {
            events
                .iter()
                .filter(|e| match e {
                    TelemetryEvent::CellStarted { .. } => started,
                    TelemetryEvent::CellFinished { .. } => !started,
                    _ => false,
                })
                .count()
        };
        assert_eq!((count(true), count(false)), (3, 3));
        let stats = p.stats();
        let summary = summarize(&events, 5);
        assert_eq!(
            (summary.requests, summary.hits, summary.executed),
            (stats.requests, stats.hits, stats.executed),
            "the unwound execution is counted by both"
        );
        assert_eq!(stats.executed, 2);
    }

    #[test]
    fn distinct_fingerprints_are_distinct_cells() {
        let p = CachedProvider::new(SyntheticProvider::new());
        let mut other = ctx();
        other.machine_fingerprint = "fp1".into();
        let k0 = ctx().key(CellKind::Application, 1);
        let k1 = other.key(CellKind::Application, 1);
        assert_ne!(k0, k1);
        p.measure(&k0).unwrap();
        p.measure(&k1).unwrap();
        assert_eq!(p.stats().executed, 2, "no cross-machine cache hits");
        assert!(p.contains(&k0) && p.contains(&k1));
    }

    #[test]
    fn assembled_analysis_matches_direct_collection() {
        let mut exec = synthetic();
        let direct = CouplingAnalysis::collect(&mut exec, 2, 4).unwrap();

        let p = CachedProvider::new(SyntheticProvider::new());
        let c = ctx();
        let set = exec.kernel_set().clone();
        let assembled = assemble_analysis(&p, &c, &set, 2, exec.loop_iterations(), 4).unwrap();

        assert_eq!(assembled.couplings().unwrap(), direct.couplings().unwrap());
        assert_eq!(assembled.actual(), direct.actual());
        assert_eq!(assembled.overhead(), direct.overhead());
        for k in set.ids() {
            assert_eq!(assembled.isolated(k), direct.isolated(k));
        }
    }

    #[test]
    fn analysis_cells_enumerates_what_assembly_requests() {
        let exec = synthetic();
        let set = exec.kernel_set().clone();
        let c = ctx();
        let keys = analysis_cells(&c, &set, 2, 4).unwrap();
        assert_eq!(keys.len(), 2 * set.len() + 2);

        let p = CachedProvider::new(SyntheticProvider::new());
        for k in &keys {
            p.measure(k).unwrap();
        }
        let executed_after_prefetch = p.inner().total_calls();
        assemble_analysis(&p, &c, &set, 2, exec.loop_iterations(), 4).unwrap();
        assert_eq!(
            p.inner().total_calls(),
            executed_after_prefetch,
            "assembly after a full prefetch must be pure cache hits"
        );
    }

    #[test]
    fn bad_chain_length_is_reported_not_panicked() {
        let exec = synthetic();
        let set = exec.kernel_set().clone();
        let c = ctx();
        assert!(matches!(
            analysis_cells(&c, &set, 9, 1),
            Err(CouplingError::BadChainLength { .. })
        ));
        let p = CachedProvider::new(SyntheticProvider::new());
        assert!(matches!(
            assemble_analysis(&p, &c, &set, 0, 10, 1),
            Err(KcError::Coupling(CouplingError::BadChainLength { .. }))
        ));
    }

    #[test]
    fn backend_feeds_misses_and_receives_executions() {
        #[derive(Default)]
        struct MapBackend {
            cells: Mutex<HashMap<String, Measurement>>,
        }
        impl MeasurementBackend for MapBackend {
            fn load(&self, key: &MeasurementKey) -> Option<Measurement> {
                self.cells.lock().get(&key.to_string()).cloned()
            }
            fn store(&self, key: &MeasurementKey, m: &Measurement) {
                self.cells.lock().insert(key.to_string(), m.clone());
            }
        }

        let backend = Box::<MapBackend>::default();
        let seeded = ctx().key(CellKind::Application, 1);
        backend.store(&seeded, &Measurement::exact(3.25));

        let p = CachedProvider::with_backend(SyntheticProvider::new(), backend);
        // a miss satisfied by the backend executes nothing
        assert_eq!(p.measure(&seeded).unwrap().mean(), 3.25);
        assert_eq!(p.inner().calls_for(&seeded), 0);
        assert_eq!(p.stats().backend_hits, 1);
        // a true miss executes and is written back
        let fresh = ctx().key(CellKind::SerialOverhead, 1);
        let m = p.measure(&fresh).unwrap();
        assert_eq!(p.stats().executed, 1);
        // fresh cache, same backend contents: now a backend hit
        let p2 = CachedProvider::with_backend(
            SyntheticProvider::new(),
            Box::new(MapBackend {
                cells: Mutex::new([(fresh.to_string(), m.clone())].into_iter().collect()),
            }),
        );
        assert_eq!(p2.measure(&fresh).unwrap(), m);
        assert_eq!(p2.inner().calls_for(&fresh), 0);
    }
}
