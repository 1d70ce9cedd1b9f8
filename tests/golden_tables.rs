//! Golden-table regression harness: every experiment of the
//! catalogue, compared value-by-value against committed snapshots.
//!
//! `artifacts/golden/` holds one JSON snapshot per table (the
//! noise-free IBM SP configuration) plus three `kc-prophesy` cell
//! stores with the raw samples of every measurement cell the tables
//! need ([`GOLDEN_STORES`]).  The store-backed tests run each
//! experiment exactly as `paper_tables` does —
//! `catalog::Experiment::run` — with a committed store as backend and
//! assert `executed == 0`, so a drift in the `MeasurementKey` schema
//! (which would silently re-simulate instead of reusing committed
//! cells) fails loudly, and every numeric value must match its
//! snapshot within a relative tolerance of 1e-6.  Each store is read
//! twice: as the committed JSON file, and as a sharded store the test
//! copies it into and reopens from disk, so the tables cannot depend on
//! the backend format.  One test re-simulates
//! the two cheapest tables from scratch, catching drift in the
//! simulation itself; two more hold the catalogue to itself (an
//! experiment reads exactly the cells it requests) and to the
//! snapshot directory.
//!
//! Regenerate the snapshots after an intentional model change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden_tables
//! ```

use kernel_couplings::coupling::{MeasurementBackend, MemorySink, TelemetryEvent};
use kernel_couplings::experiments::catalog::{self, Experiment};
use kernel_couplings::experiments::render::Artifact;
use kernel_couplings::experiments::{Campaign, Runner};
use kernel_couplings::prophesy::{CellBackend, CellStore, ShardedStore, StoreFormat};
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-value relative tolerance for table comparisons.
const REL_TOL: f64 = 1e-6;

/// A committed cell store and the experiments whose cells it holds.
type GoldenStore = (&'static str, &'static [&'static str]);

/// The paper's tables share one store; the analytic and cross-machine
/// studies need cells those don't (machine-override fingerprints, SP
/// 5-kernel windows), and so do the sweeps (machine variants,
/// fine-grained kernels) — each group carries its own.
const GOLDEN_STORES: [GoldenStore; 3] = [
    (
        "cells.json",
        &[
            "classes",
            "bt-s",
            "bt-w",
            "bt-a",
            "sp-w",
            "sp-a",
            "sp-b",
            "lu-w",
            "lu-a",
            "lu-b",
            "transitions",
        ],
    ),
    ("cells_extended.json", &["analytic", "machines"]),
    ("cells_studies.json", &["ablations", "reuse", "granularity"]),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("artifacts/golden")
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v != "0" && !v.is_empty())
}

fn experiment(id: &str) -> &'static Experiment {
    catalog::get(id).unwrap_or_else(|| panic!("no experiment '{id}' in the catalogue"))
}

fn load_store(cells_file: &str) -> Arc<CellStore> {
    let path = golden_dir().join(cells_file);
    Arc::new(
        CellStore::load(&path)
            .unwrap_or_else(|e| panic!("missing golden cell store {}: {e}", path.display())),
    )
}

/// The directory a store-backed test of `cells_file` read in `format`
/// may use.  Each format has its own: the JSON and sharded tests of one
/// store run concurrently, and neither may remove the other's files.
fn scratch_dir(cells_file: &str, format: StoreFormat) -> PathBuf {
    std::env::temp_dir().join(format!(
        "kc_golden_{}_{cells_file}_{format}.kcs",
        std::process::id()
    ))
}

/// A fresh sharded store holding every cell of `store`: appended,
/// flushed, dropped and reopened from `dir`, so reads go through the
/// index that open rebuilds from the segments.
fn sharded_copy(store: &CellStore, dir: &Path) -> Arc<dyn CellBackend> {
    let _ = std::fs::remove_dir_all(dir);
    let sharded = ShardedStore::create(dir, ShardedStore::DEFAULT_SHARDS).unwrap();
    for (key, samples) in store.entries() {
        sharded.append_raw(&key, &samples).unwrap();
    }
    sharded.flush().unwrap();
    drop(sharded);
    Arc::new(ShardedStore::open(dir).unwrap())
}

/// Walk two JSON values in lockstep, recording every mismatch.
/// Numbers compare with relative tolerance `tol` (absolute 1e-12 near
/// zero); everything else must match exactly.
fn diff_values(golden: &Value, fresh: &Value, path: &str, tol: f64, diffs: &mut Vec<String>) {
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    };
    match (num(golden), num(fresh)) {
        (Some(g), Some(f)) => {
            let scale = g.abs().max(f.abs());
            if (g - f).abs() > tol * scale + 1e-12 {
                diffs.push(format!("{path}: golden {g} vs fresh {f}"));
            }
            return;
        }
        (None, None) => {}
        _ => {
            diffs.push(format!("{path}: type mismatch ({golden:?} vs {fresh:?})"));
            return;
        }
    }
    match (golden, fresh) {
        (Value::Object(g), Value::Object(f)) => {
            if g.len() != f.len() {
                diffs.push(format!("{path}: {} fields vs {}", g.len(), f.len()));
                return;
            }
            for ((gk, gv), (fk, fv)) in g.iter().zip(f) {
                if gk != fk {
                    diffs.push(format!("{path}: field '{gk}' vs '{fk}'"));
                    return;
                }
                diff_values(gv, fv, &format!("{path}.{gk}"), tol, diffs);
            }
        }
        (Value::Array(g), Value::Array(f)) => {
            if g.len() != f.len() {
                diffs.push(format!("{path}: {} items vs {}", g.len(), f.len()));
                return;
            }
            for (i, (gv, fv)) in g.iter().zip(f).enumerate() {
                diff_values(gv, fv, &format!("{path}[{i}]"), tol, diffs);
            }
        }
        _ => {
            if golden != fresh {
                diffs.push(format!("{path}: golden {golden:?} vs fresh {fresh:?}"));
            }
        }
    }
}

/// Compare one artifact against its committed snapshot.
fn check_artifact(artifact: &Artifact, diffs: &mut Vec<String>) {
    let path = golden_dir().join(format!("{}.json", artifact.id));
    let golden: Value = serde_json::from_str(
        &std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display())),
    )
    .expect("golden snapshot parses");
    let fresh: Value =
        serde_json::from_str(&artifact.render_json()).expect("fresh artifact parses");
    diff_values(&golden, &fresh, &artifact.id, REL_TOL, diffs);
}

/// Run one store's experiments through the catalogue over the
/// committed cells, read in `format`, and compare every table with its
/// snapshot — or, under `UPDATE_GOLDEN`, simulate them from scratch and
/// commit the snapshots with the raw cells they were built from.
fn check_store_backed((cells_file, ids): GoldenStore, format: StoreFormat) {
    let dir = golden_dir();
    let regenerate = updating();
    let store = if regenerate {
        if format == StoreFormat::Sharded {
            return; // the JSON run rewrites the snapshots
        }
        Arc::new(CellStore::new())
    } else {
        load_store(cells_file)
    };
    let scratch = scratch_dir(cells_file, format);
    let backend: Box<dyn MeasurementBackend> = match format {
        StoreFormat::Json => Box::new(Arc::clone(&store)),
        StoreFormat::Sharded => Box::new(sharded_copy(&store, &scratch)),
    };
    let campaign = Campaign::builder(Runner::noise_free())
        .backend(backend)
        .build();
    let artifacts: Vec<Artifact> = ids
        .iter()
        .filter_map(|id| {
            let (output, _) = experiment(id).run(&campaign).unwrap();
            output.artifact
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);

    if regenerate {
        std::fs::create_dir_all(&dir).unwrap();
        for artifact in &artifacts {
            let path = dir.join(format!("{}.json", artifact.id));
            std::fs::write(path, artifact.render_json()).unwrap();
        }
        store.save(&dir.join(cells_file)).unwrap();
        eprintln!("regenerated {} golden cells into {cells_file}", store.len());
        return;
    }

    // every cell must come from the committed store: an execution
    // here means the key schema (or enumeration) drifted and the
    // tables were silently re-simulated
    let cache = campaign.cache_stats();
    assert_eq!(
        cache.executed, 0,
        "cells missing from {cells_file} ({format}) were re-simulated"
    );
    assert!(cache.backend_hits > 0);

    let mut diffs = Vec::new();
    for artifact in &artifacts {
        check_artifact(artifact, &mut diffs);
        // the headline claim the machines tables encode must keep
        // holding: predicted machine ratio within 10 % of the actual
        if artifact.id == "machines" {
            for table in &artifact.couplings {
                let ratio = |label: &str| {
                    let row = table.rows.iter().find(|r| r.label == label).unwrap();
                    row.values[0] / row.values[1]
                };
                let predicted = ratio("coupling prediction (s)");
                let actual = ratio("actual time (s)");
                assert!(
                    (predicted - actual).abs() / actual < 0.10,
                    "cross-machine ratio drifted: predicted {predicted:.3}, actual {actual:.3}"
                );
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{} value(s) drifted from the golden tables of {cells_file} ({format}):\n  {}",
        diffs.len(),
        diffs.join("\n  ")
    );
}

#[test]
fn golden_tables_match_store_backed_assembly() {
    check_store_backed(GOLDEN_STORES[0], StoreFormat::Json);
}

#[test]
fn extended_golden_tables_match_store_backed_assembly() {
    check_store_backed(GOLDEN_STORES[1], StoreFormat::Json);
}

#[test]
fn studies_golden_tables_match_store_backed_assembly() {
    check_store_backed(GOLDEN_STORES[2], StoreFormat::Json);
}

#[test]
fn store_formats_use_distinct_scratch_dirs() {
    for (cells_file, _) in GOLDEN_STORES {
        assert_ne!(
            scratch_dir(cells_file, StoreFormat::Json),
            scratch_dir(cells_file, StoreFormat::Sharded),
            "{cells_file}: the JSON test would remove the sharded test's live store"
        );
    }
}

#[test]
fn golden_tables_match_through_a_sharded_store() {
    check_store_backed(GOLDEN_STORES[0], StoreFormat::Sharded);
}

#[test]
fn extended_golden_tables_match_through_a_sharded_store() {
    check_store_backed(GOLDEN_STORES[1], StoreFormat::Sharded);
}

#[test]
fn studies_golden_tables_match_through_a_sharded_store() {
    check_store_backed(GOLDEN_STORES[2], StoreFormat::Sharded);
}

/// The catalogue cannot drift from itself: what an experiment
/// enumerates ([`Experiment::requests`]) is exactly what its assembly
/// reads.  A cell assembly reads but the requests do not name would be
/// measured outside the experiment's one batch; a cell the requests
/// name but assembly never reads would be measured for nothing.
#[test]
fn every_experiment_reads_exactly_the_cells_it_requests() {
    for (cells_file, ids) in GOLDEN_STORES {
        let store = load_store(cells_file);
        for id in ids {
            let exp = experiment(id);
            let sink = Arc::new(MemorySink::new());
            let campaign = Campaign::builder(Runner::noise_free())
                .backend(Box::new(Arc::clone(&store)))
                .sink(sink.clone())
                .build();
            let requested: BTreeSet<String> = exp
                .requests(&campaign.runner().machine)
                .iter()
                .flat_map(|spec| campaign.cells(spec).unwrap())
                .map(|key| key.to_string())
                .collect();

            // `run` loads exactly the requested cells, each once
            exp.run(&campaign).unwrap();
            let after_run = campaign.cache_stats();
            assert_eq!(
                after_run.executed, 0,
                "{id}: cells missing from {cells_file}"
            );
            assert_eq!(
                after_run.backend_hits as usize,
                requested.len(),
                "{id}: run loaded a different number of cells than its requests name"
            );

            // assembly alone reads those cells and nothing else, all
            // from memory
            sink.clear();
            exp.assemble(&campaign).unwrap();
            let read: BTreeSet<String> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    TelemetryEvent::CellFinished { key, .. } => Some(key),
                    _ => None,
                })
                .collect();
            assert_eq!(read, requested, "{id}: assembly reads != requests");
            let after = campaign.cache_stats();
            assert_eq!(
                (after.backend_hits, after.executed),
                (after_run.backend_hits, 0),
                "{id}: assembly after run's prefetch went past the memory cache"
            );
        }
    }
}

/// Ids are unique and in the `paper_tables all` order users know,
/// every experiment is covered by a golden store, and the artifact
/// names are exactly the table snapshots under `artifacts/golden/`.
#[test]
fn catalogue_ids_and_artifacts_match_the_golden_directory() {
    let ids: Vec<&str> = catalog::all().iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        [
            "classes",
            "bt-s",
            "bt-w",
            "bt-a",
            "sp-w",
            "sp-a",
            "sp-b",
            "lu-w",
            "lu-a",
            "lu-b",
            "transitions",
            "ablations",
            "analytic",
            "reuse",
            "machines",
            "granularity",
        ]
    );
    let covered: BTreeSet<&str> = GOLDEN_STORES
        .iter()
        .flat_map(|(_, ids)| ids.iter().copied())
        .collect();
    assert_eq!(covered, ids.iter().copied().collect::<BTreeSet<_>>());

    let artifacts: BTreeSet<String> = catalog::all()
        .iter()
        .filter_map(|e| e.artifact)
        .map(|name| format!("{name}.json"))
        .collect();
    // besides the tables the directory holds the cell stores and
    // kc_regime's map
    let snapshots: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.ends_with(".json") && !f.starts_with("cells") && f != "regime_map.json")
        .collect();
    assert_eq!(artifacts, snapshots);
    assert_eq!(artifacts.len(), 15);
}

/// The simulation itself (not just the assembly arithmetic) still
/// reproduces the snapshots: re-measure the cheapest tables with no
/// backend at all.
#[test]
fn fresh_simulation_matches_golden_for_cheap_tables() {
    if updating() {
        return; // snapshots are being rewritten by the store-backed tests
    }
    let campaign = Campaign::builder(Runner::noise_free()).build();
    let mut diffs = Vec::new();
    for id in ["bt-s", "lu-w"] {
        let (output, _) = experiment(id).run(&campaign).unwrap();
        check_artifact(&output.artifact.unwrap(), &mut diffs);
    }
    assert!(campaign.cache_stats().executed > 0, "nothing was simulated");
    assert!(
        diffs.is_empty(),
        "fresh simulation drifted from the golden tables:\n  {}",
        diffs.join("\n  ")
    );
}

/// The comparator actually detects drift (guards against a vacuous
/// harness).
#[test]
fn comparator_flags_value_drift_beyond_tolerance() {
    let golden: Value =
        serde_json::from_str(r#"{"t":[{"v":[1.0,2.0]},{"v":[3.0]}],"s":"x"}"#).unwrap();

    // within tolerance: no diffs
    let close: Value =
        serde_json::from_str(r#"{"t":[{"v":[1.0000000001,2.0]},{"v":[3.0]}],"s":"x"}"#).unwrap();
    let mut diffs = Vec::new();
    diff_values(&golden, &close, "root", REL_TOL, &mut diffs);
    assert!(diffs.is_empty(), "spurious diffs: {diffs:?}");

    // a 1e-3 relative drift must be flagged, with its path
    let drifted: Value =
        serde_json::from_str(r#"{"t":[{"v":[1.0,2.002]},{"v":[3.0]}],"s":"x"}"#).unwrap();
    let mut diffs = Vec::new();
    diff_values(&golden, &drifted, "root", REL_TOL, &mut diffs);
    assert_eq!(diffs.len(), 1);
    assert!(diffs[0].starts_with("root.t[0].v[1]:"), "{}", diffs[0]);

    // structural drift (missing value) is also flagged
    let truncated: Value =
        serde_json::from_str(r#"{"t":[{"v":[1.0]},{"v":[3.0]}],"s":"x"}"#).unwrap();
    let mut diffs = Vec::new();
    diff_values(&golden, &truncated, "root", REL_TOL, &mut diffs);
    assert!(!diffs.is_empty());

    // string drift is exact-match
    let renamed: Value =
        serde_json::from_str(r#"{"t":[{"v":[1.0,2.0]},{"v":[3.0]}],"s":"y"}"#).unwrap();
    let mut diffs = Vec::new();
    diff_values(&golden, &renamed, "root", REL_TOL, &mut diffs);
    assert_eq!(diffs.len(), 1);
}
