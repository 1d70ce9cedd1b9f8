//! # kc-prophesy
//!
//! The cell store: the shared base of kernel and kernel-chain
//! measurements every campaign reads and writes.
//!
//! The kernel-coupling paper grew out of the authors' **Prophesy**
//! project ("Prophesy: Automating the Modeling Process", cited as
//! \[TG01\]): an infrastructure that records performance measurements in
//! a database and builds models from them automatically.  This crate
//! is that database for the coupling methodology, at *cell*
//! granularity — the raw samples of one measurement, keyed by the
//! canonical text of `kc_core::MeasurementKey`:
//!
//! * [`backend`] — the [`CellBackend`] trait over cell stores, plus
//!   [`StoreSpec`], the parsed `--store` argument whose
//!   [`StoreSpec::open`] auto-detects the on-disk format and is the
//!   one way binaries open (or create) a store;
//! * [`cells`] — [`CellStore`], the single-file pretty-JSON format,
//!   also a `kc_core::MeasurementBackend`, so a `CachedProvider` can
//!   persist individual measurements across processes and campaigns;
//! * [`sharded`] — the binary [`ShardedStore`]: digest-sharded
//!   append-only segments with checksummed frames, torn-tail
//!   recovery, per-shard frame indexes and compaction at flush,
//!   fronted by a lossy hot cache.
//!
//! ```
//! use kc_prophesy::{CellBackend, CellStore, StoreFormat, StoreSpec};
//!
//! let dir = std::env::temp_dir().join(format!("kc_prophesy_doc_{}", std::process::id()));
//! let spec: StoreSpec = format!("sharded:{}", dir.display()).parse().unwrap();
//! let store = spec.open().unwrap(); // created on first use
//! store.append_raw("BT|S|p4|application", &[1.5, 1.25]).unwrap();
//! store.flush().unwrap();
//!
//! // later (or in another process): a bare path auto-detects the format
//! let again = StoreSpec::new(&dir).open().unwrap();
//! assert_eq!(again.format(), StoreFormat::Sharded);
//! // both formats hold the same cells
//! let json = CellStore::new();
//! for (key, samples) in again.entries() {
//!     json.append_raw(&key, &samples).unwrap();
//! }
//! assert_eq!(json.get_raw("BT|S|p4|application"), Some(vec![1.5, 1.25]));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod cells;
mod hot;
pub mod sharded;

pub use backend::{detect_format, CellBackend, StoreFormat, StoreSpec};
pub use cells::{history_sidecar, BackendStats, CellStore};
pub use hot::HotTierStats;
pub use sharded::{CompactionReport, ReadPathStats, SegmentStat, ShardedStore};
