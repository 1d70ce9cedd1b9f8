//! The served bytes, pinned: `kc_served` in pipe mode answers the
//! scripted request batch `scripts/serve_smoke_requests.jsonl` with
//! exactly `artifacts/golden/serve_smoke.jsonl`, once from an empty
//! store and again from the store that first run filled (with zero
//! executions), and `kc_trace` renders the first run's trace.
//!
//! Regenerate the transcript after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p kc-experiments --test serve_transcript
//! ```

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v != "0" && !v.is_empty())
}

/// One pipe-mode `kc_served` run over the scripted requests: its
/// stdout and stderr.
fn serve(store: &Path, trace: Option<&Path>) -> (String, String) {
    let requests = File::open(repo_file("scripts/serve_smoke_requests.jsonl")).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kc_served"));
    cmd.arg("--noise-free").arg("--store").arg(store);
    if let Some(trace) = trace {
        cmd.arg("--trace").arg(trace);
    }
    let Output {
        status,
        stdout,
        stderr,
    } = cmd.stdin(requests).output().unwrap();
    let stderr = String::from_utf8(stderr).unwrap();
    assert!(status.success(), "kc_served failed: {status}\n{stderr}");
    assert!(
        stderr.contains("exiting 0"),
        "no graceful shutdown:\n{stderr}"
    );
    (String::from_utf8(stdout).unwrap(), stderr)
}

#[test]
fn served_transcript_matches_the_golden_cold_and_warm() {
    let dir = std::env::temp_dir().join(format!("kc_serve_transcript_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (store, trace) = (dir.join("cells.json"), dir.join("t.jsonl"));
    let golden_path = repo_file("artifacts/golden/serve_smoke.jsonl");

    let (cold, _) = serve(&store, Some(&trace));
    if updating() {
        std::fs::write(&golden_path, &cold).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(cold, golden, "serve responses drifted from the golden");

    let (warm, log) = serve(&store, None);
    assert!(log.contains(", 0 executed"), "warm run executed:\n{log}");
    assert_eq!(warm, golden, "the warm store answered differently");

    let svg = dir.join("t.svg");
    let rendered = Command::new(env!("CARGO_BIN_EXE_kc_trace"))
        .arg("render")
        .arg(&trace)
        .arg("-o")
        .arg(&svg)
        .output()
        .unwrap();
    assert!(rendered.status.success(), "kc_trace render failed");
    let svg = std::fs::read_to_string(&svg).unwrap();
    for needle in ["<svg", "</svg>", "<rect", ">serve<"] {
        assert!(svg.contains(needle), "the trace SVG has no {needle}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
