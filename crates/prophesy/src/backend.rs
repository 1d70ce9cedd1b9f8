//! The storage abstraction over cell backends: one trait, two
//! on-disk formats.
//!
//! [`CellBackend`] is the seam between campaigns and persistence.  A
//! backend maps *canonical key text* (`kc_core::MeasurementKey`'s
//! `Display` form) to raw sample vectors; everything above it — the
//! `CachedProvider`, campaigns, the serve loop — speaks
//! `MeasurementBackend`, which this module implements once for `dyn
//! CellBackend` so any backend slots into the existing machinery
//! unchanged.
//!
//! Two implementations ship:
//!
//! * [`crate::CellStore`] — the original single-file pretty-JSON
//!   store.  Human-readable, diffs well, loads everything up front.
//! * [`crate::ShardedStore`] — a directory of compact binary
//!   segments sharded by key digest, fronted by a lossy hot cache.
//!   Append-only writes and torn-tail-tolerant loads.  One process at
//!   a time: another process sees the appends only once it reopens.
//!
//! [`StoreSpec::open`] is the one entry point binaries use: it
//! auto-detects which format lives at a path (file ⇒ JSON, directory
//! with a manifest ⇒ sharded) and creates missing stores in the
//! requested format.  The formats hold bit-identical samples — JSON
//! through shortest-roundtrip float printing, binary through raw
//! `f64` bits — which is what keeps the golden tables byte-identical
//! whichever backend produced them.

use crate::cells::BackendStats;
use crate::sharded::ShardedStore;
use crate::CellStore;
use kc_core::{Measurement, MeasurementBackend, MeasurementKey, TelemetrySink};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The on-disk representation of a cell store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFormat {
    /// One pretty-printed JSON object file.
    Json,
    /// A directory of binary segment files sharded by key digest.
    Sharded,
}

/// The spelling used in `--store` specs and reports.
impl std::fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreFormat::Json => "json",
            StoreFormat::Sharded => "sharded",
        })
    }
}

/// Persistent cell storage, keyed by canonical key text.
///
/// The raw-string methods are the primitive interface — conversion
/// tools iterate stores without ever parsing key text back into a
/// `MeasurementKey`.  The keyed wrappers are what measurement-path
/// callers use.  Implementations count their own traffic
/// ([`CellBackend::stats`]) inside `get_raw`/`append_raw`, so every
/// route into the backend lands in exactly one counter.
pub trait CellBackend: Send + Sync {
    /// The stored samples under this canonical key text, if any.
    fn get_raw(&self, key: &str) -> Option<Vec<f64>>;

    /// Store (or replace) the samples under this canonical key text.
    fn append_raw(&self, key: &str, samples: &[f64]) -> io::Result<()>;

    /// The stored samples for a cell, if any.
    fn get(&self, key: &MeasurementKey) -> Option<Vec<f64>> {
        self.get_raw(&key.to_string())
    }

    /// Store (or replace) one cell's samples.
    fn append(&self, key: &MeasurementKey, samples: &[f64]) -> io::Result<()> {
        self.append_raw(&key.to_string(), samples)
    }

    /// Every stored `(canonical key, samples)` pair, sorted by key.
    /// Replaced entries appear once, with their latest samples.
    fn entries(&self) -> Vec<(String, Vec<f64>)>;

    /// Number of distinct stored cells.
    fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the store holds no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backend traffic counters since open.
    fn stats(&self) -> BackendStats;

    /// Persist any buffered state and surface deferred write errors.
    fn flush(&self) -> io::Result<()>;

    /// Which on-disk format this backend is.
    fn format(&self) -> StoreFormat;

    /// Route the backend's own diagnostics (e.g. read errors answered
    /// as misses) into a telemetry sink instead of stderr.  Backends
    /// with nothing to report ignore the sink.
    fn attach_sink(&self, sink: Arc<dyn TelemetrySink>) {
        let _ = sink;
    }
}

/// Every cell backend is a measurement backend: load filters out
/// empty sample sets (an empty cell is "measured nothing", not a
/// measurement), store appends.  Append errors are reported to stderr
/// and re-surfaced by the backend's next [`CellBackend::flush`], so a
/// campaign cannot silently finish over a store that lost writes.
impl MeasurementBackend for dyn CellBackend {
    fn load(&self, key: &MeasurementKey) -> Option<Measurement> {
        self.get(key)
            .filter(|s| !s.is_empty())
            .map(Measurement::from_samples)
    }

    fn store(&self, key: &MeasurementKey, m: &Measurement) {
        if let Err(e) = self.append(key, m.samples()) {
            eprintln!("[store] append of cell '{key}' failed: {e}");
        }
    }
}

/// A parsed `--store` argument: where the cell store lives, plus an
/// optional forced format.
///
/// The one store spec every binary shares.  Spelling:
///
/// * `PATH` — auto-detect the format on disk (a fresh store is
///   created as JSON, the pre-sharding default);
/// * `sharded:PATH` — force the sharded binary format;
/// * `json:PATH` — force the single-file JSON format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSpec {
    /// Store location.
    pub path: std::path::PathBuf,
    /// Forced format; `None` auto-detects (see [`StoreSpec::open`]).
    pub format: Option<StoreFormat>,
}

impl StoreSpec {
    /// A spec that auto-detects the format at `path`.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        Self {
            path: path.into(),
            format: None,
        }
    }

    /// Open the store this spec names, creating it if absent.
    ///
    /// * existing store → auto-detect its format; if the spec forces a
    ///   format that disagrees with what is on disk, fail loudly
    ///   rather than shadowing or clobbering data;
    /// * missing path → create a fresh store in the forced format
    ///   (default [`StoreFormat::Json`], matching the pre-sharding
    ///   behaviour of the binaries).
    pub fn open(&self) -> io::Result<Arc<dyn CellBackend>> {
        open_store(&self.path, self.format)
    }
}

impl std::fmt::Display for StoreSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.format {
            Some(fmt) => write!(f, "{fmt}:{}", self.path.display()),
            None => write!(f, "{}", self.path.display()),
        }
    }
}

impl std::str::FromStr for StoreSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err("empty store spec (expected PATH or FORMAT:PATH)".to_string());
        }
        for format in [StoreFormat::Json, StoreFormat::Sharded] {
            if let Some(path) = s.strip_prefix(&format!("{format}:")) {
                if path.is_empty() {
                    return Err(format!("store spec '{s}' names no path"));
                }
                return Ok(Self {
                    path: path.into(),
                    format: Some(format),
                });
            }
        }
        Ok(Self::new(s))
    }
}

/// The format stored at `path`, if a store exists there.
///
/// A directory holding a [`ShardedStore`] manifest is sharded; a
/// regular file is JSON (the JSON reader validates contents on load).
/// A directory without a manifest is no store at all.
pub fn detect_format(path: &Path) -> Option<StoreFormat> {
    if path.is_dir() {
        if ShardedStore::manifest_path(path).is_file() {
            Some(StoreFormat::Sharded)
        } else {
            None
        }
    } else if path.is_file() {
        Some(StoreFormat::Json)
    } else {
        None
    }
}

/// The body of [`StoreSpec::open`].
fn open_store(path: &Path, requested: Option<StoreFormat>) -> io::Result<Arc<dyn CellBackend>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    match detect_format(path) {
        Some(found) => {
            if let Some(req) = requested {
                if req != found {
                    return Err(invalid(format!(
                        "store at {} is {found}, but the spec forces {req}",
                        path.display()
                    )));
                }
            }
            match found {
                StoreFormat::Json => Ok(Arc::new(CellStore::open(path)?)),
                StoreFormat::Sharded => Ok(Arc::new(ShardedStore::open(path)?)),
            }
        }
        None if path.is_dir() => Err(invalid(format!(
            "{} is a directory but holds no sharded-store manifest",
            path.display()
        ))),
        None => match requested.unwrap_or(StoreFormat::Json) {
            StoreFormat::Json => Ok(Arc::new(CellStore::open(path)?)),
            StoreFormat::Sharded => Ok(Arc::new(ShardedStore::create(
                path,
                ShardedStore::DEFAULT_SHARDS,
            )?)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_core::CellKind;

    fn key(i: u32) -> MeasurementKey {
        MeasurementKey {
            benchmark: "BT".to_string(),
            class: "S".to_string(),
            procs: 4,
            cell: CellKind::Chain(vec![kc_core::KernelId(i)]),
            reps: 3,
            exec_digest: "w1t2".to_string(),
            machine_fingerprint: "fp0".to_string(),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("kc_backend_{name}"));
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn store_spec_parses_prefixes_and_bare_paths() {
        use std::str::FromStr;
        let bare = StoreSpec::from_str("out/cells.json").unwrap();
        assert_eq!(bare, StoreSpec::new("out/cells.json"));
        assert_eq!(bare.to_string(), "out/cells.json");

        let sharded = StoreSpec::from_str("sharded:out/cells.kcs").unwrap();
        assert_eq!(sharded.path, std::path::PathBuf::from("out/cells.kcs"));
        assert_eq!(sharded.format, Some(StoreFormat::Sharded));
        assert_eq!(sharded.to_string(), "sharded:out/cells.kcs");

        let json = StoreSpec::from_str("json:cells").unwrap();
        assert_eq!(json.format, Some(StoreFormat::Json));

        assert!(StoreSpec::from_str("").is_err());
        assert!(StoreSpec::from_str("sharded:").is_err());
        // an unknown prefix is just a path with a colon in it
        let odd = StoreSpec::from_str("weird:path").unwrap();
        assert_eq!(odd.path, std::path::PathBuf::from("weird:path"));
    }

    #[test]
    fn store_spec_open_round_trips() {
        use std::str::FromStr;
        let root = tmp("spec_open");
        std::fs::create_dir_all(&root).unwrap();
        let spec =
            StoreSpec::from_str(&format!("sharded:{}", root.join("cells.kcs").display())).unwrap();
        let store = spec.open().unwrap();
        assert_eq!(store.format(), StoreFormat::Sharded);
        store.append(&key(9), &[4.5]).unwrap();
        store.flush().unwrap();
        // bare-path spec auto-detects the sharded store
        let again = StoreSpec::new(root.join("cells.kcs")).open().unwrap();
        assert_eq!(again.get(&key(9)), Some(vec![4.5]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_store_creates_the_requested_format_and_redetects_it() {
        let root = tmp("create");
        std::fs::create_dir_all(&root).unwrap();
        let json_path = root.join("cells.json");
        let sharded_path = root.join("cells.kcs");

        let json = open_store(&json_path, None).unwrap();
        assert_eq!(json.format(), StoreFormat::Json);
        json.append(&key(0), &[1.0, 2.0]).unwrap();
        json.flush().unwrap();
        assert_eq!(detect_format(&json_path), Some(StoreFormat::Json));

        let sharded = open_store(&sharded_path, Some(StoreFormat::Sharded)).unwrap();
        assert_eq!(sharded.format(), StoreFormat::Sharded);
        sharded.append(&key(1), &[3.0]).unwrap();
        sharded.flush().unwrap();
        assert_eq!(detect_format(&sharded_path), Some(StoreFormat::Sharded));

        // reopen without a requested format: auto-detection routes to
        // the right reader and the data is still there
        let json2 = open_store(&json_path, None).unwrap();
        assert_eq!(json2.get(&key(0)), Some(vec![1.0, 2.0]));
        let sharded2 = open_store(&sharded_path, None).unwrap();
        assert_eq!(sharded2.get(&key(1)), Some(vec![3.0]));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_store_rejects_a_format_mismatch() {
        let root = tmp("mismatch");
        std::fs::create_dir_all(&root).unwrap();
        let json_path = root.join("cells.json");
        open_store(&json_path, Some(StoreFormat::Json))
            .unwrap()
            .flush()
            .unwrap();
        match open_store(&json_path, Some(StoreFormat::Sharded)) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("format mismatch must be rejected"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_store_rejects_a_bare_directory() {
        let root = tmp("baredir");
        std::fs::create_dir_all(&root).unwrap();
        assert!(open_store(&root, None).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dyn_backend_is_a_measurement_backend() {
        let root = tmp("dynbackend");
        let store: Arc<dyn CellBackend> = open_store(&root, Some(StoreFormat::Sharded)).unwrap();
        let backend: &dyn CellBackend = &*store;
        let k = key(2);
        assert!(backend.load(&k).is_none());
        backend.store(&k, &Measurement::from_samples(vec![0.5, 0.75]));
        assert_eq!(
            backend.load(&k),
            Some(Measurement::from_samples(vec![0.5, 0.75]))
        );
        // empty sample sets load as None, mirroring CellStore
        backend.append(&key(3), &[]).unwrap();
        assert!(backend.load(&key(3)).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }
}
