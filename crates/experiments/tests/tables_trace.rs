//! The `paper_tables --trace` promise, on the real executable: for a
//! multi-experiment selection, every phase the trace records is closed
//! before the next one opens, the run drains the scheduler exactly
//! once, and the traces written at `--jobs 1` and `--jobs 2` are
//! identical after `canonicalize` + `redacted`.

use kc_core::telemetry::{canonicalize, phases, read_jsonl, TelemetryEvent};
use std::path::Path;
use std::process::Command;

/// Run `paper_tables bt-s lu-w --noise-free` at `jobs`, tracing into
/// `trace`, and read the trace back.
fn traced_run(jobs: usize, trace: &Path) -> Vec<TelemetryEvent> {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["bt-s", "lu-w", "--noise-free", "--jobs", &jobs.to_string()])
        .arg("--trace")
        .arg(trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "paper_tables --jobs {jobs} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    read_jsonl(trace).unwrap()
}

/// The phase markers in stream order must nest as a flat sequence of
/// started/finished pairs: each `PhaseStarted` is followed by its own
/// `PhaseFinished` before any other phase starts.
fn assert_phases_never_interleave(events: &[TelemetryEvent], jobs: usize) {
    let mut open: Option<&str> = None;
    for (i, e) in events.iter().enumerate() {
        match e {
            TelemetryEvent::PhaseStarted { phase } => {
                assert_eq!(
                    open, None,
                    "--jobs {jobs}: event {i} starts `{phase}` inside an open phase"
                );
                open = Some(phase);
            }
            TelemetryEvent::PhaseFinished { phase, .. } => {
                assert_eq!(
                    open,
                    Some(phase.as_str()),
                    "--jobs {jobs}: event {i} finishes a phase that is not the open one"
                );
                open = None;
            }
            _ => {}
        }
    }
    assert_eq!(open, None, "--jobs {jobs}: a phase was left open");
}

/// One prefetch per run, and assembly never drains: the stream holds
/// one `SchedulerDrain` and one each of the prefetch's `enumerate`,
/// `dedupe` and `execute` phases.
fn assert_one_drain(events: &[TelemetryEvent], jobs: usize) {
    let drains = events
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::SchedulerDrain { .. }))
        .count();
    assert_eq!(drains, 1, "--jobs {jobs}: scheduler drains");
    for name in [phases::ENUMERATE, phases::DEDUPE, phases::EXECUTE] {
        let started = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::PhaseStarted { phase } if phase == name))
            .count();
        assert_eq!(started, 1, "--jobs {jobs}: `{name}` phases");
    }
}

#[test]
fn multi_experiment_traces_keep_phases_whole_and_match_across_jobs() {
    let dir = std::env::temp_dir().join(format!("kc_tables_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let serial = traced_run(1, &dir.join("jobs1.jsonl"));
    let parallel = traced_run(2, &dir.join("jobs2.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);

    assert_phases_never_interleave(&serial, 1);
    assert_phases_never_interleave(&parallel, 2);
    assert_one_drain(&serial, 1);
    assert_one_drain(&parallel, 2);
    let comparable = |events: Vec<TelemetryEvent>| -> Vec<TelemetryEvent> {
        canonicalize(events)
            .iter()
            .map(TelemetryEvent::redacted)
            .collect()
    };
    let (serial, parallel) = (comparable(serial), comparable(parallel));
    assert!(
        serial
            .iter()
            .any(|e| matches!(e, TelemetryEvent::RunSummary(_))),
        "the trace ends with a summary"
    );
    assert_eq!(
        serial, parallel,
        "traces differ beyond durations, workers and scheduler payloads"
    );
}
