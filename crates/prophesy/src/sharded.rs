//! The sharded binary cell store: append-only segment files sharded
//! by key digest, fronted by a lossy hot tier and indexed by an
//! in-memory per-shard frame map.
//!
//! # Layout
//!
//! A sharded store is a directory:
//!
//! ```text
//! cells.kcs/
//!   kcstore.json     manifest: {"format":"kc-cell-store/sharded","version":1,"shards":N}
//!   LOCK             empty; the open handle holds an exclusive lock on it
//!   shard-000.seg    segment of shard 0
//!   ...
//!   shard-N-1.seg
//! ```
//!
//! # One writer
//!
//! A handle takes an exclusive advisory lock on `LOCK`
//! (`File::try_lock`) before it reads or repairs any segment, and holds
//! it until it is dropped; the OS releases it when the process dies,
//! so a crash leaves no stale lock behind.  A second open of the same
//! store — from another process or from this one — fails with an
//! error naming the store.  Without it, a second writer's compaction
//! would rename a new segment over the one the first handle appends
//! to, and every later append of the first handle would be lost.
//!
//! A cell lives in shard `fnv1a(key) % N`, where `fnv1a` is the exact
//! digest `kc_core::MeasurementKey::digest_u64` computes over the
//! canonical key text — so a store and the scheduler agree on a
//! cell's identity without ever re-parsing keys.
//!
//! # Record framing
//!
//! Each segment starts with a 12-byte header (`KCSHARD1` magic plus
//! the shard index, little-endian u32) and then holds length-prefixed
//! frames:
//!
//! ```text
//! u32 LE payload_len | u64 LE fnv1a(payload) | payload
//! payload = u32 LE key_len | key (utf-8) | u32 LE n_samples | n × f64 LE bits
//! ```
//!
//! Appends are a single `write_all` of one frame, and re-appending a
//! key supersedes earlier frames (last-wins on scan) — so writers
//! never rewrite old bytes and a reader can always trust the frames
//! it has already validated.  Samples travel as raw `f64` bits, so
//! the binary format is bit-exact by construction.
//!
//! # The read path: index, existence filter, positioned reads
//!
//! Each shard keeps an in-memory map from key digest to the offset
//! and length of the key's **latest** frame.  A lookup probes the hot
//! tier, then the index: an absent digest answers "no such cell" with
//! zero segment I/O (the map doubles as the existence filter), a
//! present one costs a single positioned read of exactly that frame.
//! The frame re-validates on read (length, checksum, key text), so a
//! wrong index entry — a digest collision, or segment bytes changed
//! under the handle — degrades to a full segment scan that also
//! rebuilds the shard's index, never to a wrong answer.
//!
//! The index lives only in memory: open builds it by scanning each
//! segment, the same scan that repairs torn tails.
//!
//! # Torn tails
//!
//! A crash (or a reader racing an in-flight append) can leave a
//! partial frame at the end of a segment.  Scans validate each frame
//! (length sanity, checksum) and simply stop at the first frame that
//! does not check out: the intact prefix is the store.  [`ShardedStore::open`]
//! additionally *truncates* such tails before accepting new appends —
//! otherwise fresh frames would land behind the garbage and be
//! invisible to every future scan.
//!
//! # Compaction
//!
//! Re-appends leave superseded frames behind; [`ShardedStore::compact`]
//! rewrites each segment with one frame per live cell (tmp + fsync +
//! rename).  Appends never rewrite anything: all write-side upkeep
//! happens in [`CellBackend::flush`], on the caller's thread, one shard
//! at a time under its lock.  A shard with more than
//! [`ShardedStore::AUTO_COMPACT_RATIO`] of its (at least
//! [`ShardedStore::AUTO_COMPACT_MIN_FRAMES`]) frames superseded is
//! compacted there; every other shard is fsynced.  Only a handle that
//! re-appends keys it already holds ever pays for a compaction; a
//! campaign appends each cell once.  A failed
//! append, fsync or compaction poisons the store: every later `flush`
//! reports it until [`ShardedStore::clear_write_error`].

use crate::backend::{CellBackend, StoreFormat};
use crate::cells::BackendStats;
use crate::hot::{HotTier, HotTierStats};
use kc_core::{TelemetryEvent, TelemetrySink};
use parking_lot::Mutex;
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic prefix of every segment file (the trailing `1` is the format
/// version).
const SEGMENT_MAGIC: &[u8; 8] = b"KCSHARD1";

/// Segment header: magic + u32 LE shard index.
const SEGMENT_HEADER_LEN: usize = SEGMENT_MAGIC.len() + 4;

/// Frame header: u32 LE payload length + u64 LE payload checksum.
const FRAME_HEADER_LEN: usize = 4 + 8;

/// Upper bound on a single frame payload; anything larger is treated
/// as garbage (a real cell is a key of a few hundred bytes plus a few
/// dozen samples).
const MAX_PAYLOAD_LEN: usize = 1 << 28;

/// Manifest `format` field value.
const MANIFEST_FORMAT: &str = "kc-cell-store/sharded";

/// Manifest schema version.
const MANIFEST_VERSION: u64 = 1;

/// FNV-1a over arbitrary bytes — the same constants as
/// `kc_core::MeasurementKey::digest_u64`, so `fnv1a(key.to_string())
/// == key.digest_u64()` and shard placement matches key identity.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What one [`ShardedStore::compact`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Frames on disk before compaction (including superseded ones).
    pub records_before: u64,
    /// Frames after compaction (one per live cell).
    pub records_after: u64,
    /// Total segment bytes before.
    pub bytes_before: u64,
    /// Total segment bytes after.
    pub bytes_after: u64,
}

impl CompactionReport {
    fn absorb(&mut self, other: CompactionReport) {
        self.records_before += other.records_before;
        self.records_after += other.records_after;
        self.bytes_before += other.bytes_before;
        self.bytes_after += other.bytes_after;
    }
}

/// Where one live frame sits inside its segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FrameLoc {
    /// Byte offset of the frame header from the start of the file.
    offset: u64,
    /// Whole frame length: header plus payload.
    len: u32,
}

/// A point-in-time view of one shard, as reported by
/// [`ShardedStore::segment_stats`] (and `kc_store stat`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentStat {
    /// Shard index.
    pub shard: u32,
    /// Validated segment bytes.
    pub bytes: u64,
    /// Frames on disk, including superseded ones.
    pub frames: u64,
    /// Live cells (distinct indexed digests).
    pub live: u64,
}

impl SegmentStat {
    /// Frames a compaction would drop.
    pub fn superseded(&self) -> u64 {
        self.frames.saturating_sub(self.live)
    }

    /// `superseded / frames`, `0` for an empty shard.
    pub fn superseded_ratio(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.superseded() as f64 / self.frames as f64
        }
    }
}

/// Read-path traffic counters of a [`ShardedStore`], all monotonic
/// since open.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadPathStats {
    /// Lookups answered "absent" by the in-memory existence filter,
    /// with zero segment I/O.
    pub filtered_absent: u64,
    /// Lookups answered by a single positioned frame read.
    pub positioned_reads: u64,
    /// Lookups that fell back to a full segment scan (digest
    /// collision or an index entry that no longer validates); each
    /// fallback also rebuilds that shard's index.
    pub fallback_scans: u64,
    /// Shards whose index was rebuilt by scanning the segment (at
    /// open, or by a fallback scan).
    pub index_rebuilds: u64,
    /// Shard compactions triggered by the superseded-frame ratio.
    pub auto_compactions: u64,
}

#[derive(Default)]
struct ReadPathCounters {
    filtered_absent: AtomicU64,
    positioned_reads: AtomicU64,
    fallback_scans: AtomicU64,
    index_rebuilds: AtomicU64,
    auto_compactions: AtomicU64,
}

impl ReadPathCounters {
    fn snapshot(&self) -> ReadPathStats {
        ReadPathStats {
            filtered_absent: self.filtered_absent.load(Ordering::Relaxed),
            positioned_reads: self.positioned_reads.load(Ordering::Relaxed),
            fallback_scans: self.fallback_scans.load(Ordering::Relaxed),
            index_rebuilds: self.index_rebuilds.load(Ordering::Relaxed),
            auto_compactions: self.auto_compactions.load(Ordering::Relaxed),
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One shard's mutable state.  Everything that must stay mutually
/// consistent — the append handle and its write offset, the read
/// handle, the frame index — lives under one mutex, so appends,
/// positioned reads and compactions of the same shard serialize while
/// different shards proceed in parallel.
struct Shard {
    /// Append handle; also used for truncation repairs.
    appender: File,
    /// Positioned-read handle (its cursor is only touched under the
    /// shard lock).
    reader: File,
    /// digest → latest frame.  Doubles as the existence filter: a
    /// digest missing here is a key the shard does not hold.
    index: HashMap<u64, FrameLoc>,
    /// Frames on disk, including superseded ones.
    frames: u64,
    /// Validated segment length in bytes (the append offset).
    len: u64,
}

impl Shard {
    /// Re-derive this shard's state from its segment bytes — the
    /// correctness path; the in-memory index is a pure accelerator
    /// over it.  A torn or corrupt tail is truncated, so future
    /// appends stay visible instead of landing behind garbage.
    /// Returns the scanned frames and the number of bytes truncated.
    fn rescan(
        &mut self,
        path: &Path,
        shard: u32,
        counters: &ReadPathCounters,
    ) -> io::Result<(Vec<ScannedFrame>, u64)> {
        let segment = read_segment(path, shard)?;
        let torn = segment.file_len - segment.valid_len;
        if torn > 0 {
            self.appender.set_len(segment.valid_len)?;
        }
        self.index = index_of(&segment.frames);
        self.frames = segment.frames.len() as u64;
        self.len = segment.valid_len;
        ReadPathCounters::bump(&counters.index_rebuilds);
        Ok((segment.frames, torn))
    }

    /// Whether ratio-triggered compaction is due (checked by `flush`
    /// under the shard lock).
    fn compaction_due(&self) -> bool {
        let superseded = self.frames.saturating_sub(self.index.len() as u64);
        self.frames >= ShardedStore::AUTO_COMPACT_MIN_FRAMES
            && (superseded as f64) > ShardedStore::AUTO_COMPACT_RATIO * (self.frames as f64)
    }

    /// Rewrite this shard's segment in `dir` with one frame per live
    /// cell and swap it in by rename, refreshing the handles and the
    /// index.  A segment with nothing superseded is left as it is.
    fn compact(&mut self, dir: &Path, shard: u32) -> io::Result<CompactionReport> {
        if self.frames == self.index.len() as u64 {
            // nothing superseded: the segment already is its compaction
            return Ok(CompactionReport {
                records_before: self.frames,
                records_after: self.frames,
                bytes_before: self.len,
                bytes_after: self.len,
            });
        }
        let path = ShardedStore::segment_path(dir, shard);
        let segment = read_segment(&path, shard)?;
        let mut report = CompactionReport {
            records_before: segment.frames.len() as u64,
            bytes_before: segment.file_len,
            ..Default::default()
        };
        let mut live = BTreeMap::new();
        for f in segment.frames {
            live.insert(f.key, f.samples);
        }
        report.records_after = live.len() as u64;

        let tmp = path.with_extension("seg.tmp");
        let mut index = HashMap::with_capacity(live.len());
        {
            let mut f = create_segment(&tmp, shard)?;
            let mut offset = SEGMENT_HEADER_LEN as u64;
            for (key, samples) in &live {
                let frame = encode_frame(key, samples);
                f.write_all(&frame)?;
                index.insert(
                    fnv1a(key.as_bytes()),
                    FrameLoc {
                        offset,
                        len: frame.len() as u32,
                    },
                );
                offset += frame.len() as u64;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        report.bytes_after = std::fs::metadata(&path)?.len();
        self.appender = OpenOptions::new().append(true).open(&path)?;
        self.reader = File::open(&path)?;
        self.index = index;
        self.frames = report.records_after;
        self.len = report.bytes_after;
        Ok(report)
    }
}

/// A sharded, append-only binary cell store with a lossy in-memory
/// hot tier and per-shard frame indexes.
///
/// Reads probe the hot tier first; a miss consults the shard's index
/// — absent keys answer without touching disk, present ones cost one
/// positioned frame read (plus hot promotion).  Appends write one
/// frame under the shard's lock, update the index and refresh the hot
/// tier; `flush` does the rest (fsync, compaction).  Because
/// the tier overwrites on slot collision, residency is best-effort —
/// but a miss only costs an indexed read, never a wrong answer.
pub struct ShardedStore {
    dir: PathBuf,
    shards: u32,
    /// Per-shard state; the mutex also serializes appends so frames
    /// from concurrent writers never interleave.
    state: Vec<Mutex<Shard>>,
    /// First failed append, fsync or compaction, surfaced by **every**
    /// `flush` until [`ShardedStore::clear_write_error`] acknowledges it.
    write_error: Mutex<Option<(io::ErrorKind, String)>>,
    read_path: ReadPathCounters,
    hot: HotTier,
    stats: Mutex<BackendStats>,
    /// Sink for store-emitted telemetry (read errors).
    sink: Mutex<Option<Arc<dyn TelemetrySink>>>,
    /// Bytes of torn tail truncated at open, across all segments.
    repaired_bytes: u64,
    /// The `LOCK` file, locked for as long as this handle lives.
    _lock: File,
}

impl ShardedStore {
    /// Shard count used when creating a store without an explicit
    /// choice.
    pub const DEFAULT_SHARDS: u32 = 16;

    /// Hot-tier slots per store.
    pub const DEFAULT_HOT_SLOTS: usize = 2048;

    /// Frames a shard must hold before the superseded ratio can
    /// trigger an automatic compaction (rewriting a near-empty
    /// segment for its first superseded frame would thrash).
    pub const AUTO_COMPACT_MIN_FRAMES: u64 = 16;

    /// Share of a shard's frames that must be superseded before
    /// `flush` compacts the shard.  Only re-appending keys a shard
    /// already holds produces superseded frames, so a store that is
    /// appended to once per cell never compacts itself.
    pub const AUTO_COMPACT_RATIO: f64 = 0.5;

    /// The manifest path inside a store directory (also the format
    /// marker auto-detection looks for).
    pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("kcstore.json")
    }

    /// Lock `dir`'s `LOCK` file, creating it if needed; the lock lasts
    /// as long as the returned file.  Fails, naming the store, if
    /// another handle holds it.
    fn lock(dir: &Path) -> io::Result<File> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join("LOCK"))?;
        match file.try_lock() {
            Ok(()) => Ok(file),
            Err(TryLockError::WouldBlock) => Err(io::Error::new(
                io::ErrorKind::ResourceBusy,
                format!(
                    "the sharded store at {} is already open (another handle holds its LOCK)",
                    dir.display()
                ),
            )),
            Err(TryLockError::Error(e)) => Err(e),
        }
    }

    /// The segment path of one shard.
    fn segment_path(dir: &Path, shard: u32) -> PathBuf {
        dir.join(format!("shard-{shard:03}.seg"))
    }

    /// Create a fresh empty store at `dir` with `shards` segments.
    /// Fails if a store already lives there.
    pub fn create(dir: &Path, shards: u32) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if shards == 0 {
            return Err(bad("a sharded store needs at least one shard".into()));
        }
        if Self::manifest_path(dir).exists() {
            return Err(bad(format!(
                "a sharded store already exists at {}",
                dir.display()
            )));
        }
        std::fs::create_dir_all(dir)?;
        let manifest = Value::Object(vec![
            (
                "format".to_string(),
                Value::Str(MANIFEST_FORMAT.to_string()),
            ),
            ("version".to_string(), Value::UInt(MANIFEST_VERSION)),
            ("shards".to_string(), Value::UInt(shards as u64)),
        ]);
        std::fs::write(
            Self::manifest_path(dir),
            serde_json::to_string_pretty(&manifest).expect("manifest serializes"),
        )?;
        // open creates the (missing) segments
        Self::open(dir)
    }

    /// Open an existing store, validating the manifest and segment
    /// headers and truncating any torn tail left by a crashed writer
    /// (append-after-torn-tail would otherwise hide the new frames
    /// behind the garbage).
    pub fn open(dir: &Path) -> io::Result<Self> {
        Self::open_with(dir, Self::DEFAULT_HOT_SLOTS)
    }

    /// [`ShardedStore::open`] with `hot_slots` hot-tier slots.  A tiny
    /// tier maximizes lossy collisions, which is how tests force the
    /// segment read path; a size of 1 makes every distinct key evict
    /// the previous one.
    ///
    /// Each shard's index is built by scanning its segment, which is
    /// also when torn tails are repaired.
    pub fn open_with(dir: &Path, hot_slots: usize) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let manifest_text = std::fs::read_to_string(Self::manifest_path(dir))?;
        let manifest: Value =
            serde_json::from_str(&manifest_text).map_err(|e| bad(format!("bad manifest: {e}")))?;
        if manifest.get("format").and_then(Value::as_str) != Some(MANIFEST_FORMAT) {
            return Err(bad(format!(
                "{} is not a {MANIFEST_FORMAT} manifest",
                Self::manifest_path(dir).display()
            )));
        }
        let version = manifest
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("manifest lacks a version".into()))?;
        if version != MANIFEST_VERSION {
            return Err(bad(format!(
                "unsupported store version {version} (this build reads {MANIFEST_VERSION})"
            )));
        }
        let shards = manifest
            .get("shards")
            .and_then(Value::as_u64)
            .filter(|n| (1..=4096).contains(n))
            .ok_or_else(|| bad("manifest lacks a sane shard count".into()))?
            as u32;
        let lock = Self::lock(dir)?;

        let mut repaired_bytes = 0u64;
        let read_path = ReadPathCounters::default();
        let mut state = Vec::with_capacity(shards as usize);
        for shard in 0..shards {
            let path = Self::segment_path(dir, shard);
            if !path.exists() {
                // a missing segment is an empty shard; (re)create it
                // so appends have somewhere to land
                create_segment(&path, shard)?;
            }
            let mut s = Shard {
                appender: OpenOptions::new().append(true).open(&path)?,
                reader: File::open(&path)?,
                index: HashMap::new(),
                frames: 0,
                len: 0,
            };
            repaired_bytes += s.rescan(&path, shard, &read_path)?.1;
            state.push(Mutex::new(s));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            shards,
            state,
            write_error: Mutex::new(None),
            read_path,
            hot: HotTier::new(hot_slots),
            stats: Mutex::new(BackendStats::default()),
            sink: Mutex::new(None),
            repaired_bytes,
            _lock: lock,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Bytes of torn tail truncated when this store was opened.
    pub fn repaired_bytes(&self) -> u64 {
        self.repaired_bytes
    }

    /// Hot-tier traffic counters.
    pub fn hot_stats(&self) -> HotTierStats {
        self.hot.stats()
    }

    /// Read-path traffic counters.
    pub fn read_stats(&self) -> ReadPathStats {
        self.read_path.snapshot()
    }

    /// Per-shard frame and byte statistics (the `kc_store stat`
    /// view).
    pub fn segment_stats(&self) -> Vec<SegmentStat> {
        (0..self.shards)
            .map(|shard| {
                let s = self.state[shard as usize].lock();
                SegmentStat {
                    shard,
                    bytes: s.len,
                    frames: s.frames,
                    live: s.index.len() as u64,
                }
            })
            .collect()
    }

    /// Drop a sticky failure recorded by an earlier append, fsync or
    /// compaction, returning it.  Until this is called, every
    /// [`CellBackend::flush`] re-reports the failure — a store that
    /// lost a write must not quietly report success once the first
    /// flush was seen.
    pub fn clear_write_error(&self) -> Option<io::Error> {
        self.write_error
            .lock()
            .take()
            .map(|(kind, msg)| io::Error::new(kind, msg))
    }

    /// Record a write-side failure for `flush` to keep reporting.
    fn poison(&self, e: &io::Error) {
        let mut slot = self.write_error.lock();
        if slot.is_none() {
            *slot = Some((e.kind(), e.to_string()));
        }
    }

    /// Count a shard read error and surface it: through the attached
    /// telemetry sink as a [`TelemetryEvent::StoreReadError`] when one
    /// is attached, to stderr otherwise.
    fn report_read_error(&self, key: &str, e: &io::Error) {
        self.stats.lock().read_errors += 1;
        let sink = self.sink.lock().clone();
        match sink {
            Some(sink) => sink.record(TelemetryEvent::StoreReadError {
                key: key.to_string(),
                error: e.to_string(),
            }),
            None => eprintln!("[store] shard read for '{key}' failed: {e}"),
        }
    }

    /// The samples stored under a canonical key, if any: hot-tier
    /// probe first, indexed segment read (plus hot promotion) on a
    /// miss.
    fn lookup(&self, key: &str) -> Option<Vec<f64>> {
        let digest = fnv1a(key.as_bytes());
        if let Some(samples) = self.hot.get(digest, key) {
            return Some(samples);
        }
        let shard = (digest % self.shards as u64) as u32;
        let found = {
            let mut s = self.state[shard as usize].lock();
            self.read_locked(shard, &mut s, digest, key)
        };
        match found {
            Ok(Some(samples)) => {
                self.hot.insert(digest, key, &samples);
                Some(samples)
            }
            Ok(None) => None,
            Err(e) => {
                // a read error is not "absent", but the backend
                // interface has no error channel; count + report it
                // and miss, the campaign will re-execute the cell
                self.report_read_error(key, &e);
                None
            }
        }
    }

    /// The indexed read: existence filter, then one positioned frame
    /// read, falling back to a full scan (which rebuilds the index)
    /// if the indexed frame does not validate or holds a
    /// digest-colliding key.
    fn read_locked(
        &self,
        shard: u32,
        s: &mut Shard,
        digest: u64,
        key: &str,
    ) -> io::Result<Option<Vec<f64>>> {
        let Some(loc) = s.index.get(&digest).copied() else {
            ReadPathCounters::bump(&self.read_path.filtered_absent);
            return Ok(None);
        };
        if let Some((frame_key, samples)) = read_frame_at(&s.reader, loc)? {
            if frame_key == key {
                ReadPathCounters::bump(&self.read_path.positioned_reads);
                return Ok(Some(samples));
            }
            // digest collision: the indexed frame belongs to another
            // key with the same digest; the scan below still finds
            // ours if the shard holds it
        }
        ReadPathCounters::bump(&self.read_path.fallback_scans);
        let path = Self::segment_path(&self.dir, shard);
        let (scanned, _) = s.rescan(&path, shard, &self.read_path)?;
        Ok(scanned
            .into_iter()
            .rev()
            .find(|f| f.key == key)
            .map(|f| f.samples))
    }

    /// Append one frame for `key`, update the shard index and refresh
    /// the hot tier.  Nothing else: fsync and compaction wait for
    /// `flush`.
    fn write(&self, key: &str, samples: &[f64]) -> io::Result<()> {
        let digest = fnv1a(key.as_bytes());
        let frame = encode_frame(key, samples);
        let shard = (digest % self.shards as u64) as u32;
        {
            let mut s = self.state[shard as usize].lock();
            let offset = s.len;
            if let Err(e) = s
                .appender
                .write_all(&frame)
                .and_then(|()| s.appender.flush())
            {
                // drop any partially-written frame so the segment
                // stays a clean validated prefix, then poison the
                // store for flush()
                let _ = s.appender.set_len(offset);
                self.poison(&e);
                return Err(e);
            }
            s.len += frame.len() as u64;
            s.frames += 1;
            s.index.insert(
                digest,
                FrameLoc {
                    offset,
                    len: frame.len() as u32,
                },
            );
        }
        self.hot.insert(digest, key, samples);
        Ok(())
    }

    /// Scan every shard and return the live cells, sorted by key
    /// (last frame per key wins).
    fn scan_all(&self) -> io::Result<BTreeMap<String, Vec<f64>>> {
        let mut cells = BTreeMap::new();
        for shard in 0..self.shards {
            for f in read_segment(&Self::segment_path(&self.dir, shard), shard)?.frames {
                cells.insert(f.key, f.samples);
            }
        }
        Ok(cells)
    }

    /// Rewrite every segment with one frame per live cell, dropping
    /// superseded frames.  Readers racing a compaction keep their old
    /// file handle (the new segment lands by rename), writers are
    /// held out by the shard locks.
    pub fn compact(&self) -> io::Result<CompactionReport> {
        let mut report = CompactionReport::default();
        for shard in 0..self.shards {
            let mut s = self.state[shard as usize].lock();
            report.absorb(self.compact_shard_locked(shard, &mut s)?);
        }
        Ok(report)
    }

    /// Compact one shard whose lock the caller holds — the one
    /// compaction routine, for [`ShardedStore::compact`] and `flush`
    /// alike.  A failure poisons the store: the segment itself is
    /// intact until the rename, but after it the shard's handles may
    /// still point at the unlinked file.
    fn compact_shard_locked(&self, shard: u32, s: &mut Shard) -> io::Result<CompactionReport> {
        s.compact(&self.dir, shard).inspect_err(|e| self.poison(e))
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("dir", &self.dir)
            .field("shards", &self.shards)
            .field("repaired_bytes", &self.repaired_bytes)
            .finish_non_exhaustive()
    }
}

impl CellBackend for ShardedStore {
    fn get_raw(&self, key: &str) -> Option<Vec<f64>> {
        let found = self.lookup(key);
        let mut stats = self.stats.lock();
        stats.loads += 1;
        if found.is_some() {
            // any stored frame is a hit — including a legal empty
            // sample set (the measurement layer above separately
            // treats empty as "measured nothing")
            stats.load_hits += 1;
        }
        drop(stats);
        found
    }

    fn append_raw(&self, key: &str, samples: &[f64]) -> io::Result<()> {
        self.write(key, samples)?;
        self.stats.lock().stores += 1;
        Ok(())
    }

    fn entries(&self) -> Vec<(String, Vec<f64>)> {
        match self.scan_all() {
            Ok(cells) => cells.into_iter().collect(),
            Err(e) => {
                eprintln!("[store] scan of {} failed: {e}", self.dir.display());
                Vec::new()
            }
        }
    }

    /// The per-shard index sizes summed (the `live` count of
    /// [`ShardedStore::segment_stats`]): no segment is read.
    fn len(&self) -> usize {
        self.state.iter().map(|s| s.lock().index.len()).sum()
    }

    fn stats(&self) -> BackendStats {
        *self.stats.lock()
    }

    /// The store's one upkeep point, shard by shard under each lock:
    /// a shard past the superseded ratio is compacted (the rewrite
    /// syncs the new segment); any other is fsynced.
    fn flush(&self) -> io::Result<()> {
        if let Some((kind, msg)) = &*self.write_error.lock() {
            // sticky: a store that lost a write keeps failing until
            // clear_write_error acknowledges the loss
            return Err(io::Error::new(*kind, msg.clone()));
        }
        for (shard, state) in (0..self.shards).zip(&self.state) {
            let mut s = state.lock();
            if s.compaction_due() {
                self.compact_shard_locked(shard, &mut s)?;
                ReadPathCounters::bump(&self.read_path.auto_compactions);
            } else {
                s.appender.sync_all().inspect_err(|e| self.poison(e))?;
            }
        }
        Ok(())
    }

    fn format(&self) -> StoreFormat {
        StoreFormat::Sharded
    }

    /// Subsequent read errors are recorded as
    /// [`TelemetryEvent::StoreReadError`] instead of logged to stderr.
    fn attach_sink(&self, sink: Arc<dyn TelemetrySink>) {
        *self.sink.lock() = Some(sink);
    }
}

/// One encoded frame for `key` / `samples`.
fn encode_frame(key: &str, samples: &[f64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + key.len() + samples.len() * 8);
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    for s in samples {
        payload.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Create (or truncate) a segment file holding only the 12-byte
/// header: magic plus the shard index.
fn create_segment(path: &Path, shard: u32) -> io::Result<File> {
    let mut f = File::create(path)?;
    f.write_all(SEGMENT_MAGIC)?;
    f.write_all(&shard.to_le_bytes())?;
    Ok(f)
}

/// One validated frame, as located by a segment scan.
struct ScannedFrame {
    key: String,
    samples: Vec<f64>,
    /// Byte offset of the frame header from the start of the file.
    offset: u64,
    /// Whole frame length: header plus payload.
    len: u32,
}

/// One segment file as read and validated by [`read_segment`].
struct ScannedSegment {
    /// The intact frames in file order (callers apply last-wins).
    frames: Vec<ScannedFrame>,
    /// Byte length of the validated prefix.
    valid_len: u64,
    /// Byte length of the file; anything past `valid_len` is a torn
    /// or corrupt tail.
    file_len: u64,
}

/// Read one shard's whole segment and decode its intact frames — the
/// only place segment bytes are scanned.  `InvalidData` (naming the
/// file) means it is not this shard's segment at all.
fn read_segment(path: &Path, shard: u32) -> io::Result<ScannedSegment> {
    let bytes = std::fs::read(path)?;
    let (frames, valid_len) = scan_segment(&bytes, shard).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    Ok(ScannedSegment {
        frames,
        valid_len: valid_len as u64,
        file_len: bytes.len() as u64,
    })
}

/// The last-wins index over a scan's frames.
fn index_of(scanned: &[ScannedFrame]) -> HashMap<u64, FrameLoc> {
    let mut index = HashMap::with_capacity(scanned.len());
    for f in scanned {
        index.insert(
            fnv1a(f.key.as_bytes()),
            FrameLoc {
                offset: f.offset,
                len: f.len,
            },
        );
    }
    index
}

/// Decode all intact frames of one segment.
///
/// Returns the frames **in file order** (callers apply last-wins) and
/// the byte length of the validated prefix.  A torn or corrupt tail —
/// short frame, implausible length, checksum mismatch, malformed
/// payload — ends the scan rather than failing it; only a bad
/// *header* makes the whole file invalid (it is not a segment at
/// all).
fn scan_segment(bytes: &[u8], shard: u32) -> Result<(Vec<ScannedFrame>, usize), String> {
    if bytes.len() < SEGMENT_HEADER_LEN
        || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC
        || bytes[SEGMENT_MAGIC.len()..SEGMENT_HEADER_LEN] != shard.to_le_bytes()
    {
        return Err(format!("not a shard-{shard} segment (bad header)"));
    }
    let mut frames = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    while bytes.len() - pos >= FRAME_HEADER_LEN {
        let payload_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let start = pos + FRAME_HEADER_LEN;
        if payload_len > MAX_PAYLOAD_LEN || bytes.len() - start < payload_len {
            break; // torn or garbage tail: keep the validated prefix
        }
        let payload = &bytes[start..start + payload_len];
        if fnv1a(payload) != checksum {
            break;
        }
        let Some((key, samples)) = decode_payload(payload) else {
            break;
        };
        frames.push(ScannedFrame {
            key,
            samples,
            offset: pos as u64,
            len: (FRAME_HEADER_LEN + payload_len) as u32,
        });
        pos = start + payload_len;
    }
    Ok((frames, pos))
}

/// Read and re-validate one frame at a known location.  `Ok(None)`
/// means the bytes there no longer decode as a well-formed frame (a
/// stale or digest-colliding index entry) — callers fall back to a
/// full scan; `Err` is a real I/O failure.
fn read_frame_at(reader: &File, loc: FrameLoc) -> io::Result<Option<(String, Vec<f64>)>> {
    if (loc.len as usize) < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let mut r = reader;
    r.seek(SeekFrom::Start(loc.offset))?;
    let mut buf = vec![0u8; loc.len as usize];
    match r.read_exact(&mut buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let payload_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if payload_len != loc.len as usize - FRAME_HEADER_LEN {
        return Ok(None);
    }
    let checksum = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
    let payload = &buf[FRAME_HEADER_LEN..];
    if fnv1a(payload) != checksum {
        return Ok(None);
    }
    Ok(decode_payload(payload))
}

/// Decode one checksum-validated payload; `None` means the payload is
/// internally inconsistent (which a checksum match makes vanishingly
/// unlikely, but scans must not panic on hostile bytes).
fn decode_payload(payload: &[u8]) -> Option<(String, Vec<f64>)> {
    let key_len = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let key_end = 4usize.checked_add(key_len)?;
    let key = std::str::from_utf8(payload.get(4..key_end)?).ok()?;
    let n = u32::from_le_bytes(payload.get(key_end..key_end + 4)?.try_into().ok()?) as usize;
    let data = payload.get(key_end + 4..)?;
    if data.len() != n.checked_mul(8)? {
        return None;
    }
    let samples = data
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect();
    Some((key.to_string(), samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("kc_sharded_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn digest_matches_measurement_key_digest() {
        let key = kc_core::MeasurementKey {
            benchmark: "BT".to_string(),
            class: "W".to_string(),
            procs: 9,
            cell: kc_core::CellKind::Application,
            reps: 1,
            exec_digest: "w1t2".to_string(),
            machine_fingerprint: "fp0".to_string(),
        };
        assert_eq!(fnv1a(key.to_string().as_bytes()), key.digest_u64());
    }

    #[test]
    fn append_get_roundtrips_bit_exactly() {
        let dir = tmp("roundtrip");
        let store = ShardedStore::create(&dir, 4).unwrap();
        let awkward = [0.1, 1.0 / 3.0, 6.02e-23, f64::MIN_POSITIVE, -0.0];
        store.append_raw("k|1", &awkward).unwrap();
        store.append_raw("k|2", &[]).unwrap();
        let got = store.get_raw("k|1").unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&awkward));
        assert_eq!(store.get_raw("k|2"), Some(vec![]));
        assert_eq!(store.get_raw("missing"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reappend_supersedes_and_reopen_sees_the_latest() {
        let dir = tmp("lastwins");
        {
            let store = ShardedStore::create(&dir, 2).unwrap();
            store.append_raw("cell", &[1.0]).unwrap();
            store.append_raw("cell", &[2.0, 3.0]).unwrap();
            assert_eq!(store.get_raw("cell"), Some(vec![2.0, 3.0]));
            assert_eq!(store.len(), 1);
            store.flush().unwrap();
        }
        let reopened = ShardedStore::open(&dir).unwrap();
        assert_eq!(reopened.get_raw("cell"), Some(vec![2.0, 3.0]));
        assert_eq!(
            reopened.entries(),
            vec![("cell".to_string(), vec![2.0, 3.0])]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cold_get_misses_the_hot_tier_then_promotes() {
        let dir = tmp("promote");
        {
            let store = ShardedStore::create(&dir, 2).unwrap();
            store.append_raw("a", &[1.5]).unwrap();
            store.flush().unwrap();
        }
        let store = ShardedStore::open(&dir).unwrap();
        assert_eq!(store.hot_stats().hits, 0);
        assert_eq!(store.get_raw("a"), Some(vec![1.5]));
        let after_first = store.hot_stats();
        assert_eq!(after_first.misses, 1, "cold read misses the tier");
        assert_eq!(after_first.inserts, 1, "and promotes the cell");
        assert_eq!(store.get_raw("a"), Some(vec![1.5]));
        assert_eq!(store.hot_stats().hits, 1, "warm read is a tier hit");
        let reads = store.read_stats();
        assert_eq!(reads.positioned_reads, 1, "the cold read was indexed");
        assert_eq!(reads.fallback_scans, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_sample_set_counts_as_a_load_hit() {
        let dir = tmp("emptyhit");
        let store = ShardedStore::create(&dir, 2).unwrap();
        store.append_raw("empty", &[]).unwrap();
        assert_eq!(store.get_raw("empty"), Some(vec![]));
        assert_eq!(store.get_raw("absent"), None);
        let s = CellBackend::stats(&store);
        assert_eq!(s.loads, 2);
        assert_eq!(s.load_hits, 1, "a stored empty frame is a hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_and_repaired_on_open() {
        let dir = tmp("torn");
        {
            let store = ShardedStore::create(&dir, 1).unwrap();
            store.append_raw("alpha", &[1.0, 2.0]).unwrap();
            store.append_raw("beta", &[3.0]).unwrap();
            store.flush().unwrap();
        }
        // tear the segment mid-frame: drop the last 5 bytes
        let seg = ShardedStore::segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let store = ShardedStore::open(&dir).unwrap();
        assert!(store.repaired_bytes() > 0, "the torn tail was truncated");
        assert_eq!(store.get_raw("alpha"), Some(vec![1.0, 2.0]));
        assert_eq!(store.get_raw("beta"), None, "the torn frame is gone");
        // appends after repair are visible (not hidden behind garbage)
        store.append_raw("gamma", &[4.0]).unwrap();
        store.flush().unwrap();
        drop(store);
        let reopened = ShardedStore::open(&dir).unwrap();
        assert_eq!(reopened.repaired_bytes(), 0);
        assert_eq!(reopened.get_raw("gamma"), Some(vec![4.0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_ends_the_scan_at_the_clean_prefix() {
        let dir = tmp("checksum");
        {
            let store = ShardedStore::create(&dir, 1).unwrap();
            store.append_raw("first", &[1.0]).unwrap();
            store.append_raw("second", &[2.0]).unwrap();
            store.flush().unwrap();
        }
        let seg = ShardedStore::segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip a bit inside the second payload
        std::fs::write(&seg, &bytes).unwrap();
        let store = ShardedStore::open(&dir).unwrap();
        assert_eq!(store.get_raw("first"), Some(vec![1.0]));
        assert_eq!(store.get_raw("second"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_segment_file_is_rejected_not_misread() {
        let dir = tmp("badheader");
        ShardedStore::create(&dir, 1).unwrap();
        std::fs::write(ShardedStore::segment_path(&dir, 0), b"not a segment").unwrap();
        assert!(ShardedStore::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_to_clobber_and_open_refuses_garbage_manifests() {
        let dir = tmp("guard");
        ShardedStore::create(&dir, 2).unwrap();
        assert!(ShardedStore::create(&dir, 2).is_err());
        std::fs::write(ShardedStore::manifest_path(&dir), "{\"format\":\"other\"}").unwrap();
        assert!(ShardedStore::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_frames_and_keeps_the_data() {
        let dir = tmp("compact");
        let store = ShardedStore::create(&dir, 3).unwrap();
        for round in 0..4 {
            for i in 0..6 {
                store
                    .append_raw(&format!("cell-{i}"), &[round as f64, i as f64])
                    .unwrap();
            }
        }
        let before = store.entries();
        let report = store.compact().unwrap();
        assert_eq!(report.records_before, 24);
        assert_eq!(report.records_after, 6);
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(store.entries(), before, "compaction preserves live cells");
        // the store still accepts appends after its handles were reset
        store.append_raw("cell-0", &[9.0]).unwrap();
        assert_eq!(store.get_raw("cell-0"), Some(vec![9.0]));
        drop(store);
        let reopened = ShardedStore::open(&dir).unwrap();
        assert_eq!(reopened.get_raw("cell-0"), Some(vec![9.0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn compaction_leaves_a_shard_with_nothing_superseded_untouched() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp("compact-clean");
        let store = ShardedStore::create(&dir, 1).unwrap();
        store.append_raw("a", &[1.0]).unwrap();
        store.append_raw("b", &[2.0]).unwrap();
        let inode = || {
            std::fs::metadata(ShardedStore::segment_path(&dir, 0))
                .unwrap()
                .ino()
        };
        let before = inode();
        let report = store.compact().unwrap();
        assert_eq!((report.records_before, report.records_after), (2, 2));
        assert_eq!(report.bytes_before, report.bytes_after);
        assert_eq!(inode(), before, "a clean segment is not rewritten");

        store.append_raw("a", &[3.0]).unwrap();
        let report = store.compact().unwrap();
        assert_eq!((report.records_before, report.records_after), (3, 2));
        assert_ne!(inode(), before, "a superseded frame is compacted away");
        assert_eq!(store.get_raw("a"), Some(vec![3.0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_open_of_a_live_store_fails_naming_the_store() {
        let dir = tmp("locked");
        let store = ShardedStore::create(&dir, 2).unwrap();
        store.append_raw("k", &[1.0]).unwrap();
        let err = ShardedStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ResourceBusy);
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "{err}"
        );
        drop(store);
        let reopened = ShardedStore::open(&dir).unwrap();
        assert_eq!(reopened.get_raw("k"), Some(vec![1.0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backend_stats_count_loads_hits_and_stores() {
        let dir = tmp("stats");
        let store = ShardedStore::create(&dir, 2).unwrap();
        assert_eq!(store.stats(), BackendStats::default());
        assert_eq!(store.get_raw("k"), None);
        store.append_raw("k", &[0.5]).unwrap();
        assert!(store.get_raw("k").is_some());
        let s = CellBackend::stats(&store);
        assert_eq!(s.loads, 2);
        assert_eq!(s.load_hits, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.read_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_keys_answer_from_the_existence_filter() {
        let dir = tmp("absent");
        let store = ShardedStore::create(&dir, 2).unwrap();
        store.append_raw("present", &[1.0]).unwrap();
        for i in 0..10 {
            assert_eq!(store.get_raw(&format!("absent-{i}")), None);
        }
        let reads = store.read_stats();
        assert_eq!(reads.filtered_absent, 10, "absent keys never touch disk");
        assert_eq!(reads.positioned_reads, 0);
        assert_eq!(reads.fallback_scans, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_store_is_its_manifest_and_segments_and_old_index_files_are_inert() {
        let dir = tmp("layout");
        let listing = |dir: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let cells: Vec<(String, Vec<f64>)> = (0..24)
            .map(|i| (format!("cell-{i}"), vec![i as f64, 0.5]))
            .collect();
        {
            let store = ShardedStore::create(&dir, 3).unwrap();
            for (key, samples) in &cells {
                store.append_raw(key, samples).unwrap();
            }
            store.flush().unwrap();
        }
        assert_eq!(
            listing(&dir),
            [
                "LOCK",
                "kcstore.json",
                "shard-000.seg",
                "shard-001.seg",
                "shard-002.seg"
            ]
        );

        // the per-shard index file earlier builds wrote next to each
        // segment (name spelled in pieces so a search for the retired
        // format finds only history): never read, never rewritten
        let junk = dir.join(concat!("shard-000.", "i", "dx"));
        let junk_bytes = b"KCS junk an earlier build left behind".to_vec();
        std::fs::write(&junk, &junk_bytes).unwrap();
        let exact = |store: &ShardedStore| {
            assert_eq!(store.get_raw("cell-0"), Some(vec![-1.0]));
            assert_eq!(store.get_raw("late"), Some(vec![99.0]));
            for (key, samples) in &cells[1..] {
                assert_eq!(store.get_raw(key).as_ref(), Some(samples), "{key}");
            }
            assert_eq!(store.len(), cells.len() + 1);
            assert_eq!(store.read_stats().fallback_scans, 0);
        };
        let store = ShardedStore::open(&dir).unwrap();
        store.append_raw("cell-0", &[-1.0]).unwrap();
        store.append_raw("late", &[99.0]).unwrap();
        store.flush().unwrap();
        store.compact().unwrap();
        exact(&store);
        drop(store);
        exact(&ShardedStore::open(&dir).unwrap());
        assert_eq!(std::fs::read(&junk).unwrap(), junk_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_index_entry_falls_back_to_the_scan() {
        let dir = tmp("badindex");
        let store = ShardedStore::create(&dir, 1).unwrap();
        store.append_raw("victim", &[7.0]).unwrap();
        store.append_raw("other", &[8.0]).unwrap();
        // sabotage the in-memory index: point the victim's entry at a
        // nonsense location — the read must self-heal, not mis-answer
        {
            let mut s = store.state[0].lock();
            let digest = fnv1a(b"victim");
            s.index.insert(
                digest,
                FrameLoc {
                    offset: 99_999,
                    len: 40,
                },
            );
        }
        store.hot.clear();
        assert_eq!(store.get_raw("victim"), Some(vec![7.0]));
        let reads = store.read_stats();
        assert_eq!(reads.fallback_scans, 1, "the bad entry forced a scan");
        store.hot.clear();
        assert_eq!(
            store.get_raw("victim"),
            Some(vec![7.0]),
            "the scan rebuilt the index"
        );
        assert_eq!(store.read_stats().fallback_scans, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ratio_triggered_compaction_bounds_segment_growth() {
        let dir = tmp("autocompact");
        let store = ShardedStore::create(&dir, 1).unwrap();
        store.append_raw("stable", &[0.5]).unwrap();
        store.flush().unwrap();
        for round in 0..50 {
            store.append_raw("churner", &[round as f64]).unwrap();
        }
        // appends never rewrite the segment, however far past the
        // ratio they push it: every frame is still there
        let stat = store.segment_stats()[0];
        assert_eq!(stat.frames, 51);
        assert_eq!(store.read_stats().auto_compactions, 0);
        store.flush().unwrap();
        let stat = store.segment_stats()[0];
        assert_eq!(stat.frames, 2, "flush compacted the shard");
        assert_eq!(store.read_stats().auto_compactions, 1);
        assert_eq!(store.get_raw("churner"), Some(vec![49.0]));
        assert_eq!(store.get_raw("stable"), Some(vec![0.5]));
        drop(store);
        let reopened = ShardedStore::open(&dir).unwrap();
        assert_eq!(reopened.get_raw("churner"), Some(vec![49.0]));
        assert_eq!(reopened.get_raw("stable"), Some(vec![0.5]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_stays_poisoned_after_a_failed_write_until_cleared() {
        let dir = tmp("poison");
        let store = ShardedStore::create(&dir, 1).unwrap();
        store.append_raw("ok", &[1.0]).unwrap();
        // swap the appender for a handle that cannot take bytes
        let Ok(full) = OpenOptions::new().write(true).open("/dev/full") else {
            eprintln!("skipping: /dev/full unavailable on this platform");
            return;
        };
        {
            let mut s = store.state[0].lock();
            s.appender = full;
        }
        assert!(store.append_raw("doomed", &[2.0]).is_err());
        assert!(store.flush().is_err(), "first flush reports the loss");
        assert!(
            store.flush().is_err(),
            "the store stays poisoned: every flush keeps reporting"
        );
        let err = store.clear_write_error().expect("the error is returned");
        assert!(!err.to_string().is_empty());
        // after explicit repair (and restoring a real handle) the
        // store flushes again
        {
            let mut s = store.state[0].lock();
            s.appender = OpenOptions::new()
                .append(true)
                .open(ShardedStore::segment_path(&dir, 0))
                .unwrap();
        }
        store.flush().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_syncs_and_compactions_poison_flush_until_cleared() {
        let dir = tmp("poison-upkeep");
        let store = ShardedStore::create(&dir, 1).unwrap();
        store.append_raw("ok", &[1.0]).unwrap();
        let segment = ShardedStore::segment_path(&dir, 0);

        // a failed fsync: swap in a handle that refuses sync_all
        let null = OpenOptions::new().write(true).open("/dev/null");
        let Some(null) = null.ok().filter(|f| f.sync_all().is_err()) else {
            eprintln!("skipping: no handle that fails fsync on this platform");
            return;
        };
        let real = std::mem::replace(&mut store.state[0].lock().appender, null);
        assert!(store.flush().is_err(), "the failed fsync is reported");
        store.state[0].lock().appender = real;
        assert!(
            store.flush().is_err(),
            "and stays reported after the handle is restored"
        );
        assert!(store.clear_write_error().is_some());
        store.flush().unwrap();

        // a failed compaction: a directory squats on the rewrite's tmp
        // (the re-append gives the compaction a superseded frame to drop)
        store.append_raw("ok", &[1.0]).unwrap();
        let squatter = segment.with_extension("seg.tmp");
        std::fs::create_dir(&squatter).unwrap();
        assert!(store.compact().is_err());
        std::fs::remove_dir(&squatter).unwrap();
        assert!(store.flush().is_err(), "the failed compaction is reported");
        assert!(store.clear_write_error().is_some());
        store.flush().unwrap();
        assert_eq!(store.get_raw("ok"), Some(vec![1.0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_errors_are_counted_and_reported_to_the_sink() {
        let dir = tmp("readerr");
        drop(ShardedStore::create(&dir, 1).unwrap());
        let store = ShardedStore::open_with(&dir, 1).unwrap();
        let sink = Arc::new(kc_core::MemorySink::new());
        store.attach_sink(sink.clone());
        store.append_raw("key", &[1.0]).unwrap();
        store.hot.clear();
        // break the read path: replace the segment with a directory
        // so the fallback scan's fs::read errors
        {
            let mut s = store.state[0].lock();
            s.index.insert(
                fnv1a(b"key"),
                FrameLoc {
                    offset: 50_000,
                    len: 40,
                },
            );
        }
        let seg = ShardedStore::segment_path(&dir, 0);
        std::fs::remove_file(&seg).unwrap();
        std::fs::create_dir(&seg).unwrap();
        assert_eq!(store.get_raw("key"), None, "a read error degrades to miss");
        assert_eq!(CellBackend::stats(&store).read_errors, 1);
        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::StoreReadError { key, .. } if key == "key")),
            "the error surfaced as telemetry, got {events:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
