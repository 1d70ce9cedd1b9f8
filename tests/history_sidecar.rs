//! Integration: the run-history sidecar end to end.
//!
//! The `paper_tables` loop this mirrors: each campaign run over a
//! persistent cell store appends one `HistoryRecord` (summary +
//! backend counters + measured cell durations) to the store's
//! `.history.jsonl` sidecar.  Across repeated runs the store warms up,
//! so the recorded hit rates must trend upward; the recorded durations
//! must read back; and a truncated trailing line (a run that died
//! mid-append) must cost one record, not the file.

use kernel_couplings::coupling::{HistoryRecord, RunHistory};
use kernel_couplings::experiments::{AnalysisSpec, Campaign, Runner, SummaryOpts};
use kernel_couplings::npb::{Benchmark, Class};
use kernel_couplings::prophesy::{history_sidecar, CellStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kc_history_sidecar_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One store-backed campaign run, exactly as the binary does it:
/// prefetch + assemble, summarize, append the record to the sidecar.
fn run_once(store: &Arc<CellStore>, sidecar: &Path) -> HistoryRecord {
    let campaign = Campaign::builder(Runner::noise_free())
        .backend(Box::new(Arc::clone(store)))
        .build();
    let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
    campaign.analysis(&spec).unwrap();
    let summary = campaign.summary(SummaryOpts::top(3));
    let record = HistoryRecord::from_events(summary, &campaign.telemetry_events())
        .with_backend(store.stats().into());
    RunHistory::append(sidecar, &record).unwrap();
    record
}

#[test]
fn repeated_runs_accumulate_records_and_hit_rates_trend_upward() {
    let dir = temp_dir("trend");
    let store_path = dir.join("cells.json");
    let sidecar = history_sidecar(&store_path);
    let store = Arc::new(CellStore::new());

    let first = run_once(&store, &sidecar);
    let second = run_once(&store, &sidecar);
    let third = run_once(&store, &sidecar);

    // the cold run executed its cells and recorded their durations;
    // the warm runs were served by the store and executed nothing
    assert!(!first.cell_durations.is_empty());
    assert!(second.cell_durations.is_empty());
    assert_eq!(second.summary.executed, 0);
    assert!(third.cell_durations.is_empty());
    assert!(first.backend.unwrap().stores > 0);

    let h = RunHistory::load(&sidecar).unwrap();
    assert_eq!(h.len(), 3, "one record per run");
    assert_eq!(h.skipped_lines(), 0);
    let rates = h.hit_rates();
    assert!(
        rates.windows(2).all(|w| w[1] >= w[0]),
        "hit rate must not regress as the store warms: {rates:?}"
    );
    assert!(
        rates[1] > rates[0],
        "the first warm run must beat the cold run: {rates:?}"
    );

    // the cold run's durations are the file's durable timing record
    assert_eq!(h.records()[0].cell_durations, first.cell_durations);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_trailing_line_costs_one_record_not_the_file() {
    let dir = temp_dir("truncated");
    let store_path = dir.join("cells.json");
    let sidecar = history_sidecar(&store_path);
    let store = Arc::new(CellStore::new());

    run_once(&store, &sidecar);
    run_once(&store, &sidecar);
    // a third run dies mid-append
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&sidecar)
            .unwrap();
        write!(f, "{{\"summary\":{{\"requests\":12,").unwrap();
    }

    let h = RunHistory::load(&sidecar).unwrap();
    assert_eq!(h.len(), 2, "intact records survive the torn append");
    assert_eq!(h.skipped_lines(), 1);

    // recovery: the next run appends on a fresh line
    run_once(&store, &sidecar);
    let h = RunHistory::load(&sidecar).unwrap();
    assert_eq!(h.len(), 3);
    assert_eq!(h.skipped_lines(), 1);

    // and the cold run's durations are still readable
    assert!(!h.records()[0].cell_durations.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}
