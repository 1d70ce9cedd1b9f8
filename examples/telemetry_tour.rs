//! Tour of the campaign telemetry layer: run a small coupling
//! campaign, watch the structured spans it emits, print the
//! end-of-run aggregates, and write (then read back) a JSON-lines
//! trace.
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! ```

use kernel_couplings::coupling::{
    read_jsonl, Disposition, JsonLinesSink, MemorySink, TelemetryEvent,
};
use kernel_couplings::experiments::{AnalysisSpec, Campaign, Runner, SummaryOpts};
use kernel_couplings::npb::{Benchmark, Class};
use std::sync::Arc;

fn main() {
    // the campaign folds its events into running aggregates and keeps
    // none of them; to watch the stream, attach a sink that records it
    let events = Arc::new(MemorySink::new());
    let campaign = Campaign::builder(Runner::noise_free())
        .sink(events.clone())
        .build();

    // external sinks attach at any time; this one buffers everything
    // and writes a canonical JSON-lines trace on flush
    let trace_path = std::env::temp_dir().join("kc_telemetry_tour.jsonl");
    let trace = Arc::new(JsonLinesSink::new(trace_path.clone()));
    campaign.attach_sink(trace.clone());

    // two chain lengths of the same study share their isolated
    // kernels, overhead and ground truth — watch the dispositions
    for len in [2, 3] {
        let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, len);
        campaign.analysis(&spec).unwrap();
    }

    // the recorded stream, in canonical order
    let events = events.canonical_events();
    println!("campaign emitted {} events; the first few:", events.len());
    for e in events.iter().take(6) {
        println!("  {e:?}");
    }

    let executed = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TelemetryEvent::CellFinished {
                    disposition: Disposition::Executed,
                    ..
                }
            )
        })
        .count();
    println!("\n{executed} cells were actually simulated; the rest were cache hits.");

    // end-of-run aggregates, appended to the stream so the trace ends
    // with a RunSummary line
    let summary = campaign.summary(SummaryOpts::top(5).recorded());
    println!("\n{summary}");

    trace.flush().unwrap();
    let replayed = read_jsonl(&trace_path).unwrap();
    println!(
        "trace: {} events written to {} and parsed back",
        replayed.len(),
        trace_path.display()
    );
    let _ = std::fs::remove_file(&trace_path);
}
