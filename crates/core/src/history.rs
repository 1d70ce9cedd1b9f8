//! The run-history sidecar: persistent per-run aggregates next to a
//! cell store.
//!
//! A campaign's observability dies with its process: `RunSummary`
//! aggregates and the cell store's backend counters are computed,
//! printed and forgotten.  This module gives them a durable home — a
//! JSON-lines sidecar file (by convention `STORE.history.jsonl`, see
//! `kc_prophesy::history_sidecar`) holding one [`HistoryRecord`] per
//! campaign run:
//!
//! * the end-of-run [`RunSummary`] (cache hit rate, per-benchmark cell
//!   counts, parallel efficiency, slowest cells),
//! * the persistent backend's traffic counters ([`BackendCounters`],
//!   the serializable mirror of `kc_prophesy::BackendStats`),
//! * every measured `CellExecuted` duration, keyed by canonical cell
//!   key — the durable per-cell timing record of the run.
//!
//! Appends are a single `O_APPEND` write of one line, so repeated
//! campaigns accumulate records without rewriting the file.  Loading
//! is **corrupt-line tolerant**: a truncated trailing line (the
//! process died mid-append) or a damaged middle line is skipped and
//! counted, never fatal — history is advisory data, and losing one
//! run's record must not take the other runs down with it.

use crate::telemetry::{RunSummary, TelemetryEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Serializable backend traffic counters (one campaign run's worth),
/// mirroring `kc_prophesy::BackendStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendCounters {
    /// `load` calls (cache misses that consulted the store).
    pub loads: u64,
    /// `load` calls answered from stored samples.
    pub load_hits: u64,
    /// `store` calls (fresh executions written back).
    pub stores: u64,
    /// `load` calls that failed with an I/O error and were answered
    /// as misses; absent (0) on records from before the counter
    /// existed.
    #[serde(default)]
    pub read_errors: u64,
}

/// One campaign run's durable record: the end-of-run aggregates plus
/// the measured per-cell execution durations.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// End-of-run aggregates (the same `RunSummary` the `--metrics`
    /// printer shows).
    pub summary: RunSummary,
    /// Persistent-backend counters, when the run had a backend.
    pub backend: Option<BackendCounters>,
    /// Measured `CellExecuted` wall-clock seconds per canonical cell
    /// key.
    pub cell_durations: BTreeMap<String, f64>,
    /// Bounded-scheduler worker-pool size the run executed under
    /// (`--jobs`), so recorded durations compare like-for-like across
    /// runs; `0` for records written before the bounded scheduler
    /// existed.
    #[serde(default)]
    pub jobs: u64,
}

impl HistoryRecord {
    /// Build a record from a run's summary and its raw event stream,
    /// harvesting every `CellExecuted` duration.
    pub fn from_events(summary: RunSummary, events: &[TelemetryEvent]) -> Self {
        let jobs = summary.scheduler_jobs;
        Self {
            summary,
            backend: None,
            cell_durations: executed_durations(events),
            jobs,
        }
    }

    /// Attach the persistent backend's counters.
    pub fn with_backend(mut self, counters: BackendCounters) -> Self {
        self.backend = Some(counters);
        self
    }

    /// Record the scheduler worker-pool size the run executed under.
    pub fn with_jobs(mut self, jobs: u64) -> Self {
        self.jobs = jobs;
        self
    }
}

/// The measured execution duration of every `CellExecuted` event,
/// keyed by canonical cell key (later executions of the same cell —
/// which deduplicating campaigns do not produce — overwrite earlier
/// ones).
fn executed_durations(events: &[TelemetryEvent]) -> BTreeMap<String, f64> {
    let mut durations = BTreeMap::new();
    for e in events {
        if let TelemetryEvent::CellExecuted {
            key, duration_secs, ..
        } = e
        {
            durations.insert(key.clone(), *duration_secs);
        }
    }
    durations
}

/// The loaded contents of one run-history sidecar file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunHistory {
    records: Vec<HistoryRecord>,
    skipped: usize,
}

impl RunHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a sidecar file.  A missing file is an empty history;
    /// undecodable lines (truncated trailing appends, damaged middle
    /// lines) are skipped and counted, never fatal.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let data = match std::fs::read_to_string(path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::new()),
            Err(e) => return Err(e),
        };
        let mut history = Self::new();
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<HistoryRecord>(line) {
                Ok(record) => history.records.push(record),
                Err(_) => history.skipped += 1,
            }
        }
        Ok(history)
    }

    /// Append one record as a single JSON line (creating the file and
    /// its parent directories on first use).  If the existing file
    /// does not end in a newline — a previous writer died mid-append —
    /// the record starts on a fresh line, so only the truncated stub
    /// is lost, never the new record.
    pub fn append(path: &Path, record: &HistoryRecord) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let unterminated = std::fs::File::open(path)
            .and_then(|mut f| {
                use std::io::{Read, Seek, SeekFrom};
                if f.seek(SeekFrom::End(0))? == 0 {
                    return Ok(false);
                }
                f.seek(SeekFrom::End(-1))?;
                let mut last = [0u8; 1];
                f.read_exact(&mut last)?;
                Ok(last[0] != b'\n')
            })
            .unwrap_or(false);
        // serialize before touching the file so an unencodable record
        // cannot leave a partial line behind
        let line = serde_json::to_string(record).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("history record: {e}"),
            )
        })?;
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut w = std::io::BufWriter::new(f);
        if unterminated {
            writeln!(w)?;
        }
        writeln!(w, "{line}")?;
        // the record is durable only past this point; a writer that
        // dies before the flush loses at most this buffered line
        w.flush()
    }

    /// The loaded records, in append (run) order.
    pub fn records(&self) -> &[HistoryRecord] {
        &self.records
    }

    /// Iterate over the loaded records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &HistoryRecord> {
        self.records.iter()
    }

    /// Number of loaded records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no record was loaded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of lines that failed to decode and were skipped.
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// The cache hit rate of each run, oldest first — a warming store
    /// makes this trend upward.
    pub fn hit_rates(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.summary.cache_hit_rate)
            .collect()
    }
}

impl<'a> IntoIterator for &'a RunHistory {
    type Item = &'a HistoryRecord;
    type IntoIter = std::slice::Iter<'a, HistoryRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(hit_rate: f64, cells: &[(&str, f64)]) -> HistoryRecord {
        HistoryRecord {
            summary: RunSummary {
                requests: 10,
                cache_hit_rate: hit_rate,
                ..RunSummary::default()
            },
            backend: Some(BackendCounters {
                loads: 4,
                load_hits: 2,
                stores: 2,
                read_errors: 0,
            }),
            cell_durations: cells.iter().map(|(k, d)| (k.to_string(), *d)).collect(),
            jobs: 4,
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kc_history_{name}/h.history.jsonl"))
    }

    #[test]
    fn append_accumulates_records_across_runs() {
        let path = temp("append");
        let _ = std::fs::remove_file(&path);
        RunHistory::append(&path, &record(0.0, &[("a", 1.0)])).unwrap();
        RunHistory::append(&path, &record(0.8, &[("b", 2.0)])).unwrap();
        let h = RunHistory::load(&path).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.skipped_lines(), 0);
        assert_eq!(h.hit_rates(), vec![0.0, 0.8]);
        assert_eq!(h.records()[1].backend.unwrap().load_hits, 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_file_is_an_empty_history() {
        let h = RunHistory::load(Path::new("/nonexistent/kc/history.jsonl")).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn truncated_trailing_line_is_skipped_not_fatal() {
        let path = temp("truncated");
        let _ = std::fs::remove_file(&path);
        RunHistory::append(&path, &record(0.5, &[("a", 1.0)])).unwrap();
        // simulate a run that died mid-append
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"summary\":{{\"requests\":").unwrap();
        }
        let h = RunHistory::load(&path).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.skipped_lines(), 1);
        // the next append starts a fresh line: the new record decodes,
        // only the truncated stub stays skipped
        RunHistory::append(&path, &record(0.9, &[("c", 3.0)])).unwrap();
        let h = RunHistory::load(&path).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.skipped_lines(), 1);
        assert_eq!(h.hit_rates(), vec![0.5, 0.9]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn damaged_middle_line_keeps_surrounding_records() {
        let path = temp("middle");
        let _ = std::fs::remove_file(&path);
        let a = record(0.1, &[("a", 1.0)]);
        let b = record(0.9, &[("b", 2.0)]);
        let text = format!(
            "{}\nnot json at all\n\n{}\n",
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
        );
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        let h = RunHistory::load(&path).unwrap();
        assert_eq!(h.records(), &[a, b]);
        assert_eq!(h.skipped_lines(), 1, "blank lines are not counted");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn from_events_harvests_executed_durations() {
        let events = vec![
            TelemetryEvent::CellExecuted {
                key: "k1".into(),
                duration_secs: 0.25,
                worker: "w".into(),
            },
            TelemetryEvent::CellStarted {
                key: "k2".into(),
                worker: "w".into(),
            },
            TelemetryEvent::CellExecuted {
                key: "k2".into(),
                duration_secs: 1.5,
                worker: "w".into(),
            },
        ];
        let r = HistoryRecord::from_events(RunSummary::default(), &events)
            .with_backend(BackendCounters::default());
        assert_eq!(r.cell_durations.len(), 2);
        assert_eq!(r.cell_durations.get("k2"), Some(&1.5));
        assert!(r.backend.is_some());
    }

    #[test]
    fn jobs_round_trip_and_default_for_old_records() {
        let path = temp("jobs");
        let _ = std::fs::remove_file(&path);
        // a pre-scheduler record: no "jobs" field on the line at all
        let line = serde_json::to_string(&record(0.5, &[("a", 1.0)])).unwrap();
        let mut value: serde::Value = serde_json::from_str(&line).unwrap();
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(k, _)| k != "jobs");
        }
        let legacy = serde_json::to_string(&value).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        RunHistory::append(&path, &record(0.5, &[("a", 1.0)]).with_jobs(8)).unwrap();
        let h = RunHistory::load(&path).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.records()[0].jobs, 0, "legacy records default to 0");
        assert_eq!(h.records()[1].jobs, 8);
        // from_events lifts the summary's scheduler_jobs into the record
        let summary = RunSummary {
            scheduler_jobs: 6,
            ..RunSummary::default()
        };
        assert_eq!(HistoryRecord::from_events(summary, &[]).jobs, 6);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
