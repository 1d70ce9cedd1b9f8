//! The JSON cell store: persistent raw-measurement storage at *cell*
//! granularity, pluggable under `kc_core::CachedProvider`.
//!
//! A cell store keeps the raw samples of individual measurement
//! cells, keyed by the canonical text of `kc_core::MeasurementKey`.
//! Because cell keys carry no chain length, one saved cell serves
//! every campaign that needs it — isolated kernels, the serial
//! overhead and the ground truth are chain-length-independent, so
//! extending a campaign to a new chain length costs only its window
//! runs, and that sharing falls out of key equality instead of
//! bespoke bookkeeping.
//!
//! Persistence is a single JSON object mapping canonical keys to
//! sample arrays, replaced atomically on every save.  The workspace's
//! JSON writer prints floats in shortest-roundtrip form, so samples
//! survive a save/load cycle bit-exactly and a store-backed campaign
//! reproduces an in-memory one to the last bit.

use crate::backend::{CellBackend, StoreFormat};
use kc_core::{Measurement, MeasurementBackend, MeasurementKey};
use parking_lot::Mutex;
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Traffic counters of one [`CellStore`]'s backend interface: how
/// often the campaign consulted it and how often it answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// `load` calls (cache misses that consulted the store).
    pub loads: u64,
    /// `load` calls answered from stored samples.
    pub load_hits: u64,
    /// `store` calls (fresh executions written back).
    pub stores: u64,
    /// `load` calls that failed with an I/O error and were answered
    /// as misses (always 0 for the in-memory JSON store).
    pub read_errors: u64,
}

/// The store path with `.history.jsonl` appended (`cells.json` →
/// `cells.json.history.jsonl`): where binaries once appended a
/// run-history record at exit.  No binary writes this file any more;
/// the function stays only because the benchmark harness imports it
/// to delete the file between warm re-runs, and ROADMAP item 3(a)
/// removes both.
pub fn history_sidecar(store_path: &Path) -> std::path::PathBuf {
    let mut os = store_path.as_os_str().to_os_string();
    os.push(".history.jsonl");
    std::path::PathBuf::from(os)
}

/// A thread-safe map from canonical cell keys to raw samples, with
/// JSON-file persistence.
#[derive(Debug, Default)]
pub struct CellStore {
    cells: Mutex<BTreeMap<String, Vec<f64>>>,
    stats: Mutex<BackendStats>,
    /// Where `CellBackend::flush` persists to, when the store was
    /// opened against a path.
    path: Mutex<Option<PathBuf>>,
}

impl CellStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store bound to `path`: loaded from it if the file exists,
    /// empty otherwise.  `CellBackend::flush` saves back to the same
    /// path.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let store = if path.exists() {
            Self::load(path)?
        } else {
            Self::new()
        };
        *store.path.lock() = Some(path.to_path_buf());
        Ok(store)
    }

    /// The path `CellBackend::flush` saves to, if one is bound.
    fn bound_path(&self) -> Option<PathBuf> {
        self.path.lock().clone()
    }

    /// Backend traffic counters since construction (or load).
    pub fn stats(&self) -> BackendStats {
        *self.stats.lock()
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.cells.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.lock().is_empty()
    }

    /// Insert (or replace) one cell's samples.
    pub fn insert(&self, key: &MeasurementKey, samples: Vec<f64>) {
        self.cells.lock().insert(key.to_string(), samples);
    }

    /// The stored samples for a cell, if any.
    pub fn get(&self, key: &MeasurementKey) -> Option<Vec<f64>> {
        self.cells.lock().get(&key.to_string()).cloned()
    }

    /// All stored canonical keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.cells.lock().keys().cloned().collect()
    }

    /// Save as a single JSON object `{canonical key: [samples...]}`.
    /// The file is replaced atomically (`PATH.tmp`, fsync, rename): a
    /// crash or a failed write leaves the previous file as it was.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let fields: Vec<(String, Value)> = self
            .cells
            .lock()
            .iter()
            .map(|(k, samples)| {
                let arr = samples.iter().copied().map(Value::Float).collect();
                (k.clone(), Value::Array(arr))
            })
            .collect();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json =
            serde_json::to_string_pretty(&Value::Object(fields)).expect("cell store serializes");
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(json.as_bytes())?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Load a store written by [`CellStore::save`].
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let data = std::fs::read_to_string(path)?;
        let value: Value = serde_json::from_str(&data).map_err(|e| bad(e.to_string()))?;
        let Value::Object(fields) = value else {
            return Err(bad("cell store file must be a JSON object".into()));
        };
        let mut cells = BTreeMap::new();
        for (key, v) in fields {
            let Value::Array(items) = v else {
                return Err(bad(format!("cell '{key}' must hold a sample array")));
            };
            let mut samples = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::Float(f) => samples.push(f),
                    Value::Int(i) => samples.push(i as f64),
                    Value::UInt(u) => samples.push(u as f64),
                    _ => return Err(bad(format!("cell '{key}' has a non-numeric sample"))),
                }
            }
            cells.insert(key, samples);
        }
        Ok(Self {
            cells: Mutex::new(cells),
            stats: Mutex::new(BackendStats::default()),
            path: Mutex::new(None),
        })
    }
}

/// The trait view of the JSON store.  Counters live here (and in the
/// direct [`MeasurementBackend`] impl below) such that each route
/// into the store counts its traffic exactly once: the `dyn
/// CellBackend` adapter calls `get_raw`/`append_raw`, never the
/// concrete impl.
impl CellBackend for CellStore {
    fn get_raw(&self, key: &str) -> Option<Vec<f64>> {
        let found = self.cells.lock().get(key).cloned();
        let mut stats = self.stats.lock();
        stats.loads += 1;
        if found.is_some() {
            // any stored cell is a hit — including a legal empty
            // sample set; "empty means measured nothing" is the
            // measurement layer's call, not the store's
            stats.load_hits += 1;
        }
        drop(stats);
        found
    }

    fn append_raw(&self, key: &str, samples: &[f64]) -> std::io::Result<()> {
        self.cells.lock().insert(key.to_string(), samples.to_vec());
        self.stats.lock().stores += 1;
        Ok(())
    }

    fn entries(&self) -> Vec<(String, Vec<f64>)> {
        self.cells
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn len(&self) -> usize {
        CellStore::len(self)
    }

    fn stats(&self) -> BackendStats {
        CellStore::stats(self)
    }

    fn flush(&self) -> std::io::Result<()> {
        match self.bound_path() {
            Some(path) => self.save(&path),
            None => Ok(()),
        }
    }

    fn format(&self) -> StoreFormat {
        StoreFormat::Json
    }
}

impl MeasurementBackend for CellStore {
    fn load(&self, key: &MeasurementKey) -> Option<Measurement> {
        let found = self.get(key);
        let mut stats = self.stats.lock();
        stats.loads += 1;
        if found.is_some() {
            // hit accounting matches get_raw: a stored empty sample
            // set is a hit even though it loads as None below
            stats.load_hits += 1;
        }
        drop(stats);
        found
            .filter(|s| !s.is_empty())
            .map(Measurement::from_samples)
    }

    fn store(&self, key: &MeasurementKey, m: &Measurement) {
        self.insert(key, m.samples().to_vec());
        self.stats.lock().stores += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_core::CellKind;

    #[test]
    fn history_sidecar_travels_next_to_the_store() {
        assert_eq!(
            history_sidecar(Path::new("/tmp/cells.json")),
            Path::new("/tmp/cells.json.history.jsonl")
        );
        assert_eq!(
            history_sidecar(Path::new("s.json")),
            Path::new("s.json.history.jsonl")
        );
    }

    fn key(cell: CellKind, reps: u32) -> MeasurementKey {
        MeasurementKey {
            benchmark: "BT".to_string(),
            class: "S".to_string(),
            procs: 4,
            cell,
            reps,
            exec_digest: "w1t2mpb1ci".to_string(),
            machine_fingerprint: "00ff00ff00ff00ff".to_string(),
        }
    }

    #[test]
    fn backend_roundtrips_measurements() {
        let store = CellStore::new();
        let k = key(CellKind::SerialOverhead, 1);
        assert!(MeasurementBackend::load(&store, &k).is_none());
        let m = Measurement::from_samples(vec![0.25, 0.3, 0.28]);
        store.store(&k, &m);
        assert_eq!(MeasurementBackend::load(&store, &k), Some(m));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn save_load_is_bit_exact() {
        let store = CellStore::new();
        // awkward floats: shortest-roundtrip printing must preserve them
        store.insert(
            &key(CellKind::Chain(vec![kc_core::KernelId(0)]), 5),
            vec![0.1, 1.0 / 3.0, 6.02e-23],
        );
        store.insert(&key(CellKind::Application, 1), vec![42.0]);
        let path = std::env::temp_dir().join(format!(
            "kc_prophesy_cells_{}/cells.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        store.save(&path).unwrap();
        let loaded = CellStore::load(&path).unwrap();
        assert_eq!(loaded.keys(), store.keys());
        for k in store.keys() {
            let a = store.cells.lock().get(&k).cloned().unwrap();
            let b = loaded.cells.lock().get(&k).cloned().unwrap();
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "samples of {k} drifted");
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn backend_stats_count_loads_hits_and_stores() {
        let store = CellStore::new();
        let k = key(CellKind::SerialOverhead, 1);
        assert_eq!(store.stats(), BackendStats::default());
        assert!(MeasurementBackend::load(&store, &k).is_none());
        store.store(&k, &Measurement::from_samples(vec![0.5]));
        assert!(MeasurementBackend::load(&store, &k).is_some());
        let s = store.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.load_hits, 1);
        assert_eq!(s.stores, 1);
    }

    #[test]
    fn load_rejects_malformed_files() {
        let dir =
            std::env::temp_dir().join(format!("kc_prophesy_cells_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in [
            ("notjson.json", "not json"),
            ("notobject.json", "[1,2]"),
            ("notarray.json", "{\"k\": 3}"),
            ("notnumeric.json", "{\"k\": [\"x\"]}"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            assert!(CellStore::load(&path).is_err(), "{name} should be rejected");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
