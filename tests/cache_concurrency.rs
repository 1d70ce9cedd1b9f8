//! Integration: `CacheStats` bookkeeping survives concurrent
//! hammering.  Every request increments exactly one disposition
//! counter, so `requests == hits + backend_hits + executed` must hold
//! no matter how threads interleave — and the telemetry stream must
//! tell the same story event for event.
//!
//! Exactly-once execution is the campaign scheduler's guarantee, not
//! the cache's: the second test hammers one campaign with overlapping
//! prefetches and counts executions per cell.

use kernel_couplings::coupling::{
    summarize, CachedProvider, CellKind, KcResult, Measurement, MeasurementKey,
    MeasurementProvider, MemorySink, TelemetryEvent,
};
use kernel_couplings::experiments::{catalog, AnalysisSpec, Campaign, Runner};
use kernel_couplings::loadgen::exactly_once_violations;
use kernel_couplings::npb::{Benchmark, Class};
use kernel_couplings::prophesy::CellStore;
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

/// A provider slow enough to widen race windows: first-touch requests
/// for the same key overlap across threads.
struct SlowProvider;

impl MeasurementProvider for SlowProvider {
    fn measure(&self, key: &MeasurementKey) -> KcResult<Measurement> {
        std::thread::sleep(std::time::Duration::from_micros(200));
        Ok(Measurement::from_samples(vec![key.procs as f64]))
    }
}

fn key(i: usize) -> MeasurementKey {
    MeasurementKey {
        benchmark: "BT".to_string(),
        class: "S".to_string(),
        procs: i + 1, // distinct keys, deterministic payloads
        cell: CellKind::SerialOverhead,
        reps: 1,
        exec_digest: "w1t2mpb1ci".to_string(),
        machine_fingerprint: "00ff00ff00ff00ff".to_string(),
    }
}

#[test]
fn stats_invariant_holds_under_concurrent_hammering() {
    const THREADS: usize = 8;
    const KEYS: usize = 24;
    const PRELOADED: usize = 8;

    let sink = Arc::new(MemorySink::new());
    let store = CellStore::new();
    for i in 0..PRELOADED {
        store.insert(&key(i), vec![(i + 1) as f64]);
    }
    let provider = Arc::new(
        CachedProvider::with_backend(SlowProvider, Box::new(store)).with_telemetry(sink.clone()),
    );

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let provider = Arc::clone(&provider);
            scope.spawn(move || {
                for i in 0..KEYS {
                    // each thread walks the keys at a different phase
                    // so first touches collide across threads
                    let k = key((i + t * 3) % KEYS);
                    let m = provider.measure(&k).unwrap();
                    assert_eq!(m.samples(), &[(k.procs) as f64]);
                }
            });
        }
    });

    let stats = provider.stats();
    assert_eq!(stats.requests, (THREADS * KEYS) as u64);
    assert_eq!(
        stats.requests,
        stats.hits + stats.backend_hits + stats.executed,
        "every request must land in exactly one disposition"
    );

    // the telemetry stream agrees with the counters exactly
    let events = sink.events();
    let summary = summarize(&events, 5);
    assert_eq!(summary.requests, stats.requests);
    assert_eq!(summary.hits, stats.hits);
    assert_eq!(summary.backend_hits, stats.backend_hits);
    assert_eq!(summary.executed, stats.executed);
    assert_eq!(summary.unique_cells, KEYS as u64);
    let started = events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::CellStarted { .. }))
        .count() as u64;
    assert_eq!(started, stats.requests, "every request opens a span");
}

#[test]
fn overlapping_cold_prefetches_execute_each_cell_once() {
    const THREADS: usize = 8;

    let events = Arc::new(MemorySink::new());
    let campaign = Campaign::builder(Runner::noise_free())
        .jobs(4)
        .sink(events.clone())
        .build();
    let tables = catalog::get("bt-s")
        .unwrap()
        .requests(&campaign.runner().machine);
    let chain3 = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 3);
    // every thread wants the table cells, in a different order; half
    // also want the chain-3 windows
    let per_thread: Vec<Vec<AnalysisSpec>> = (0..THREADS)
        .map(|t| {
            let mut specs = tables.clone();
            specs.rotate_left(t % tables.len());
            if t % 2 == 0 {
                specs.push(chain3.clone());
            }
            specs
        })
        .collect();
    let unique: BTreeSet<MeasurementKey> = tables
        .iter()
        .chain([&chain3])
        .flat_map(|spec| campaign.cells(spec).unwrap())
        .collect();

    // released together, so every thread submits while the first
    // cells are still executing
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for specs in &per_thread {
            let (campaign, start) = (&campaign, &start);
            s.spawn(move || {
                start.wait();
                campaign.prefetch(specs).unwrap()
            });
        }
    });

    assert_eq!(campaign.cache_stats().executed, unique.len() as u64);
    assert_eq!(exactly_once_violations(&events.canonical_events()), 0);
}
