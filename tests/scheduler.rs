//! Integration: the campaign-global bounded cell scheduler.
//!
//! Five properties:
//!
//! 1. **Ordering** — a cold `Campaign::prefetch` executes cells by
//!    descending `cost_estimate`, ties in key order (with `jobs = 1`
//!    the single worker drains the priority queue in order, so the
//!    emitted `CellExecuted` sequence *is* the schedule).
//! 2. **Bounded concurrency** — under `jobs = N` at most N cells are
//!    ever in flight, no matter how many cells a prefetch submits.
//! 3. **Value identity** — costs and the `jobs` value only shape the
//!    schedule.  Cells run on independent per-cell clusters with
//!    per-cell noise seeds, so the assembled tables are bit-identical
//!    under any schedule (`tests/campaign_threads.rs` compares pool
//!    sizes with noise on; property 5 feeds the scheduler arbitrary
//!    costs).
//! 4. **Exact accounting** — concurrent `prefetch` calls over one
//!    shared cache attribute every cell to exactly one disposition:
//!    their `cells_executed` / `backend_hits` sums equal the
//!    `CacheStats` counters exactly (the ISSUE 4 accounting fix).
//! 5. **Exactly once under any costs** (property-based) — concurrent
//!    drains over overlapping, duplicated keys with arbitrary costs,
//!    NaN and infinities included, all settle, and each drain accounts
//!    for each distinct key exactly once; a single drain pops in
//!    *exactly* the pure cost order.

use kernel_couplings::coupling::{
    CacheStats, CellContext, CellKind, Disposition, KernelId, MeasurementKey, MeasurementProvider,
    MemorySink, TelemetryEvent, TelemetrySink,
};
use kernel_couplings::experiments::{catalog, AnalysisSpec, Campaign, CellScheduler, Runner};
use kernel_couplings::npb::{Benchmark, Class, NpbProvider};
use kernel_couplings::prophesy::CellStore;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// `CellExecuted` keys in emission order — the execution schedule when
/// the scheduler drains on one worker.
fn executed_keys(events: &[TelemetryEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::CellExecuted { key, .. } => Some(key.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn cold_prefetch_executes_in_descending_cost_estimate_order() {
    let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
    let sink = Arc::new(MemorySink::new());
    let campaign = Campaign::builder(Runner::noise_free())
        .sink(sink.clone())
        .jobs(1)
        .build();
    assert_eq!(campaign.jobs(), 1);

    // the estimate depends on the key alone, so a second provider
    // gives the campaign's numbers: the application above the pairs
    // and the overhead, those above the isolated kernels
    let estimator = NpbProvider::new();
    let cost = |k: &MeasurementKey| estimator.cost_estimate(k);
    let mut cells = campaign.cells(&spec).unwrap();
    cells.sort_by(|a, b| cost(b).total_cmp(&cost(a)).then_with(|| a.cmp(b)));
    let costs: Vec<f64> = cells.iter().map(cost).collect();
    assert!(
        costs.windows(2).any(|w| w[0] > w[1]) && costs.windows(2).any(|w| w[0] == w[1]),
        "the probe needs both distinct and tied estimates: {costs:?}"
    );

    campaign.prefetch(std::slice::from_ref(&spec)).unwrap();

    let expected: Vec<String> = cells.iter().map(|k| k.to_string()).collect();
    assert_eq!(
        executed_keys(&sink.events()),
        expected,
        "execution must follow cost_estimate, longest first, ties in key order"
    );
}

/// Watches `CellStarted` / `CellFinished` spans and keeps the peak
/// number that were ever open at once.  During a cold `prefetch` the
/// only threads measuring are the scheduler's workers, so the peak is
/// the executor concurrency.
#[derive(Default)]
struct ConcurrencyProbe {
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl TelemetrySink for ConcurrencyProbe {
    fn record(&self, event: TelemetryEvent) {
        match event {
            TelemetryEvent::CellStarted { .. } => {
                let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(now, Ordering::SeqCst);
            }
            TelemetryEvent::CellFinished { .. } => {
                self.active.fetch_sub(1, Ordering::SeqCst);
            }
            _ => {}
        }
    }
}

#[test]
fn jobs_bounds_the_number_of_concurrently_executing_cells() {
    let probe = Arc::new(ConcurrencyProbe::default());
    let campaign = Campaign::builder(Runner::noise_free())
        .sink(probe.clone())
        .jobs(3)
        .build();
    // plenty of cells across two experiments' worth of specs, all
    // cold, prefetched concurrently from two threads
    let machine = &campaign.runner().machine;
    let [a, b] = ["bt-s", "bt-w"].map(|id| catalog::get(id).unwrap().requests(machine));
    std::thread::scope(|s| {
        let campaign = &campaign;
        let ha = s.spawn(move || campaign.prefetch(&a).unwrap());
        let hb = s.spawn(move || campaign.prefetch(&b).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    let peak = probe.peak.load(Ordering::SeqCst);
    assert!(peak >= 1, "the probe saw the execute phase");
    assert!(
        peak <= 3,
        "at most jobs=3 cells may execute concurrently, saw {peak}"
    );
    assert!(
        campaign.cache_stats().executed > 3,
        "the bound was actually exercised by more cells than slots"
    );
}

/// Concurrent prefetches over one shared cache: every unique cell is
/// attributed to exactly one prefetch's disposition counters, so the
/// sums match the cache's own counters exactly — backend hits are
/// backend hits and nothing is double-reported as an execution.
#[test]
fn concurrent_prefetch_disposition_sums_match_cache_stats_exactly() {
    // warm a persistent store with the BT-S cells so the second
    // campaign sees real backend hits
    let store = Arc::new(CellStore::new());
    let warm = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
    Campaign::builder(Runner::noise_free())
        .backend(Box::new(Arc::clone(&store)))
        .build()
        .prefetch(std::slice::from_ref(&warm))
        .unwrap();

    let campaign = Campaign::builder(Runner::noise_free())
        .backend(Box::new(Arc::clone(&store)))
        .jobs(4)
        .build();
    // overlapping cell sets: both prefetches want the warm BT-S cells,
    // one adds the cold chain-3 study on top
    let a = vec![
        warm.clone(),
        AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 3),
    ];
    let b = vec![warm];
    let (sa, sb) = std::thread::scope(|s| {
        let campaign = &campaign;
        let ha = s.spawn(move || campaign.prefetch(&a).unwrap());
        let hb = s.spawn(move || campaign.prefetch(&b).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    let cache: CacheStats = campaign.cache_stats();

    assert_eq!(
        (sa.cells_executed + sb.cells_executed) as u64,
        cache.executed,
        "execution counts must sum to the cache's executed counter: {sa} / {sb}"
    );
    assert_eq!(
        (sa.backend_hits + sb.backend_hits) as u64,
        cache.backend_hits,
        "backend hits must be reported as backend hits: {sa} / {sb}"
    );
    assert!(cache.backend_hits > 0, "the warm store really served cells");
    assert!(cache.executed > 0, "the cold chain-3 cells really executed");
    for s in [&sa, &sb] {
        assert_eq!(
            s.cells_unique,
            s.cache_hits + s.backend_hits + s.cells_executed,
            "every unique cell lands in exactly one disposition: {s}"
        );
    }
}

/// A distinct, deterministic cell key per index.
fn cell_key(i: usize) -> MeasurementKey {
    CellContext {
        benchmark: "BT".into(),
        class: "S".into(),
        procs: 4,
        exec_digest: "w1t2".into(),
        machine_fingerprint: "fp".into(),
    }
    .key(CellKind::Chain(vec![KernelId(i as u32)]), 5)
}

/// A scheduler whose execute closure records pop order.
fn recording_scheduler(jobs: usize) -> (CellScheduler, Arc<Mutex<Vec<MeasurementKey>>>) {
    let order = Arc::new(Mutex::new(Vec::new()));
    let seen = order.clone();
    let scheduler = CellScheduler::new(
        jobs,
        Box::new(move |k| {
            seen.lock().unwrap().push(k.clone());
            Ok(Disposition::Executed)
        }),
    );
    (scheduler, order)
}

/// Any f64 a cost estimate (or a poisoned one) could produce.
fn any_cost() -> impl Strategy<Value = f64> {
    prop_oneof![
        5 => -1e9f64..1e9,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(0.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 5a: exactly-once without a table of in-flight cells.
    /// Concurrent drains over overlapping, duplicated key sets with
    /// arbitrary costs — NaN and infinities included — all settle: no
    /// panic, no deadlock, and every drain accounts for each distinct
    /// key it submitted exactly once (one queued cell per key, in
    /// exactly one disposition).
    #[test]
    fn arbitrary_deadline_mixes_never_panic_or_lose_cells(
        costs in prop::collection::vec(any_cost(), 1..10),
        drains in 1usize..4,
    ) {
        let (scheduler, order) = recording_scheduler(2);
        // overlapping keys across drains (i % 5) plus in-drain
        // duplicates, each drain with its own rotation of the costs
        let distinct = costs.len().min(5);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..drains)
                .map(|d| {
                    let cells: Vec<_> = (0..costs.len())
                        .map(|i| (cell_key(i % 5), costs[(i + d) % costs.len()]))
                        .collect();
                    let scheduler = &scheduler;
                    s.spawn(move || scheduler.drain(cells))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for stats in results {
            let stats = stats.expect("a drain never fails on healthy cells");
            prop_assert_eq!(
                stats.executed + stats.backend_hits + stats.hits,
                distinct
            );
        }
        // the recording closure never caches, so every drain runs
        // each of its distinct keys once
        prop_assert_eq!(order.lock().unwrap().len(), drains * distinct);
    }

    /// Property 5b: one drain pops in exactly the pure cost order
    /// (highest cost first under `total_cmp`, ties by canonical key
    /// order) for any cost vector.
    #[test]
    fn deadline_free_drains_pop_in_the_original_pure_cost_order(
        costs in prop::collection::vec(any_cost(), 1..12),
    ) {
        let cells: Vec<(MeasurementKey, f64)> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| (cell_key(i), c))
            .collect();
        let mut expected = cells.clone();
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let expected: Vec<MeasurementKey> =
            expected.into_iter().map(|(k, _)| k).collect();

        let (scheduler, order) = recording_scheduler(1);
        let stats = scheduler.drain(cells.clone()).expect("drain succeeds");
        prop_assert_eq!(stats.executed, cells.len());
        prop_assert_eq!(&*order.lock().unwrap(), &expected);
    }
}
