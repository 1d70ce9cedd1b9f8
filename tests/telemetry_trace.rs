//! Integration: the campaign telemetry stream is deterministic in
//! content across scheduler worker counts (`jobs`), its aggregates
//! agree with `CacheStats` exactly, and the JSON-lines trace
//! round-trips.

use kernel_couplings::coupling::{
    read_jsonl, summarize, Disposition, JsonLinesSink, MemorySink, TelemetryEvent,
};
use kernel_couplings::experiments::{AnalysisSpec, Campaign, Runner, SummaryOpts};
use kernel_couplings::npb::{Benchmark, Class};
use std::sync::Arc;

fn specs() -> Vec<AnalysisSpec> {
    vec![
        AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2),
        AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 3),
        AnalysisSpec::new(Benchmark::Bt, Class::S, 9, 2),
    ]
}

/// Run the campaign under a `jobs`-sized worker pool and return its
/// canonical event stream plus the cache counters.
fn run_with_jobs(jobs: usize) -> (Vec<TelemetryEvent>, kernel_couplings::coupling::CacheStats) {
    let events = Arc::new(MemorySink::new());
    let campaign = Campaign::builder(Runner::default())
        .jobs(jobs)
        .sink(events.clone())
        .build();
    for spec in specs() {
        campaign.analysis(&spec).unwrap();
    }
    campaign.summary(SummaryOpts::top(5).recorded());
    (events.canonical_events(), campaign.cache_stats())
}

#[test]
fn traces_are_content_identical_across_worker_counts() {
    let (serial, serial_cache) = run_with_jobs(1);
    let (parallel, parallel_cache) = run_with_jobs(8);

    let redact = |events: &[TelemetryEvent]| -> Vec<TelemetryEvent> {
        events.iter().map(TelemetryEvent::redacted).collect()
    };
    assert_eq!(
        redact(&serial),
        redact(&parallel),
        "canonical event streams must match modulo durations/workers/queue depths"
    );
    assert_eq!(serial_cache, parallel_cache);

    // the scheduler leaves its mark: one drain event per prefetch,
    // and the summary reports the pool size it ran under
    let drains = |events: &[TelemetryEvent]| {
        events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::SchedulerDrain { .. }))
            .count()
    };
    assert_eq!(drains(&serial), specs().len(), "one drain per prefetch");
    assert_eq!(drains(&serial), drains(&parallel));
    let jobs_of = |events: &[TelemetryEvent]| {
        events.iter().rev().find_map(|e| match e {
            TelemetryEvent::RunSummary(s) => Some(s.scheduler_jobs),
            _ => None,
        })
    };
    assert_eq!(jobs_of(&serial), Some(1));
    assert_eq!(jobs_of(&parallel), Some(8));
}

#[test]
fn aggregates_match_cache_stats_exactly() {
    let memory = Arc::new(MemorySink::new());
    let campaign = Campaign::builder(Runner::noise_free())
        .jobs(4)
        .sink(memory.clone())
        .build();
    for spec in specs() {
        campaign.analysis(&spec).unwrap();
    }

    let summary = campaign.summary(SummaryOpts::top(3));
    let cache = campaign.cache_stats();
    assert_eq!(summary.requests, cache.requests);
    assert_eq!(summary.hits, cache.hits);
    assert_eq!(summary.backend_hits, cache.backend_hits);
    assert_eq!(summary.executed, cache.executed);
    assert_eq!(
        summary.requests,
        summary.hits + summary.backend_hits + summary.executed
    );
    assert!(summary.unique_cells > 0);
    assert_eq!(summary.per_benchmark.get("BT"), Some(&summary.unique_cells));
    assert_eq!(
        summary.scheduler_jobs, 4,
        "the pool size lands in the summary"
    );

    // every CellStarted has a matching CellFinished, and every
    // Executed disposition has exactly one raw CellExecuted span
    let events = memory.canonical_events();
    let count = |f: &dyn Fn(&TelemetryEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    assert_eq!(
        count(&|e| matches!(e, TelemetryEvent::CellStarted { .. })),
        cache.requests
    );
    assert_eq!(
        count(&|e| matches!(e, TelemetryEvent::CellFinished { .. })),
        cache.requests
    );
    assert_eq!(
        count(&|e| matches!(e, TelemetryEvent::CellExecuted { .. })),
        cache.executed
    );
    assert_eq!(
        count(&|e| matches!(
            e,
            TelemetryEvent::CellFinished {
                disposition: Disposition::Executed,
                ..
            }
        )),
        cache.executed
    );
    // the scheduler enqueued every executed cell exactly once across
    // the run's drains
    let enqueued: u64 = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::SchedulerDrain { enqueued, .. } => Some(*enqueued),
            _ => None,
        })
        .sum();
    assert_eq!(enqueued, cache.executed, "serial prefetches share nothing");
}

#[test]
fn jsonl_trace_roundtrips_through_an_attached_sink() {
    let path = std::env::temp_dir().join(format!(
        "kc_telemetry_trace_test_{}/trace.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let memory = Arc::new(MemorySink::new());
    let campaign = Campaign::builder(Runner::noise_free())
        .sink(memory.clone())
        .build();
    let sink = Arc::new(JsonLinesSink::new(path.clone()));
    campaign.attach_sink(sink.clone());
    campaign
        .analysis(&AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2))
        .unwrap();
    let recorded = campaign.summary(SummaryOpts::top(5).recorded());
    sink.flush().unwrap();

    let replayed = read_jsonl(&path).unwrap();
    assert_eq!(replayed.len(), memory.canonical_events().len());
    // the trace ends with the recorded summary, and summarizing the
    // replayed stream reproduces the aggregate counts
    let Some(TelemetryEvent::RunSummary(last)) = replayed.last() else {
        panic!("trace must end with a RunSummary line");
    };
    assert_eq!(last, &recorded);
    let recomputed = summarize(&replayed, 5);
    assert_eq!(recomputed.requests, recorded.requests);
    assert_eq!(recomputed.executed, recorded.executed);
    assert_eq!(recomputed.scheduler_jobs, recorded.scheduler_jobs);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
