//! Contracts of the cell-store backends: the JSON and sharded
//! formats hold bit-identical samples (property-tested over random
//! keys and awkward floats), concurrent readers and appenders over
//! one sharded store still execute each unique cell exactly once, a
//! torn segment tail recovers to its intact prefix, the lossy hot
//! tier may evict whatever it wants without ever changing an answer,
//! the indexed read path always agrees with the scan path and a
//! last-wins model, and `flush` compacts a shard exactly when a
//! handle has re-appended more than half of it.

use kernel_couplings::coupling::{CellKind, KernelId, MeasurementKey};
use kernel_couplings::experiments::{Campaign, CampaignEngine, Runner};
use kernel_couplings::prophesy::{CellBackend, CellStore, ShardedStore, StoreFormat, StoreSpec};
use kernel_couplings::serve::{PredictRequest, Server, ServerConfig, Status};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Unique scratch directory per call (proptest reuses the process, so
/// a fixed name would bleed state between cases).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("kc_store_backend_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// The spec that forces (and on first use creates) a sharded store.
fn sharded_spec(path: &Path) -> StoreSpec {
    StoreSpec {
        path: path.to_path_buf(),
        format: Some(StoreFormat::Sharded),
    }
}

/// Open with a one-slot hot tier: every distinct key evicts the
/// previous one, which pins nearly every read to the segment path.
fn open_cold_tier(dir: &Path) -> ShardedStore {
    ShardedStore::open_with(dir, 1).unwrap()
}

fn build_key(
    benchmark: &str,
    class: &str,
    procs: usize,
    chain: &[usize],
    reps: u32,
) -> MeasurementKey {
    let cell = match chain.len() {
        0 => CellKind::Application,
        1 if chain[0] == 7 => CellKind::SerialOverhead,
        _ => CellKind::Chain(chain.iter().map(|&i| KernelId(i as u32)).collect()),
    };
    MeasurementKey {
        benchmark: benchmark.to_string(),
        class: class.to_string(),
        procs,
        cell,
        reps,
        exec_digest: "w1t2mpb1ci".to_string(),
        machine_fingerprint: "00ff00ff00ff00ff".to_string(),
    }
}

const BENCHMARKS: [&str; 4] = ["BT", "SP", "LU", "BT#fine"];
const CLASSES: [&str; 4] = ["S", "W", "A", "B"];

/// Sample values that stress float fidelity: subnormals, negative
/// zero, huge magnitudes, non-terminating decimals.
#[derive(Clone, Debug)]
struct AwkwardFloat;

impl Strategy for AwkwardFloat {
    type Value = f64;
    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> f64 {
        const FIXED: [f64; 6] = [
            0.1,
            1.0 / 3.0,
            6.02e-23,
            f64::MIN_POSITIVE,
            -0.0,
            1.7976931348623157e308,
        ];
        match rng.below(FIXED.len() * 2) {
            i if i < FIXED.len() => FIXED[i],
            _ => -1.0e6 + rng.next_f64() * 2.0e6,
        }
    }
}

fn sample_strategy() -> impl Strategy<Value = f64> {
    AwkwardFloat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random cell populations land bit-identically in both formats:
    /// write through a JSON store and a sharded store, persist both,
    /// reload, and compare every sample's bits — plus a json→sharded
    /// convert-style copy through `entries()`.
    #[test]
    fn json_and_sharded_stores_roundtrip_identically(
        cells in prop::collection::vec(
            (
                (
                    0usize..4,  // benchmark
                    0usize..4,  // class
                    1usize..64, // procs
                    1u32..10,   // reps
                ),
                (
                    prop::collection::vec(0usize..8, 0..4), // chain
                    prop::collection::vec(sample_strategy(), 0..12),
                ),
            ),
            1..24,
        ),
    ) {
        let dir = scratch("prop");
        let json_path = dir.join("cells.json");
        let sharded_dir = dir.join("cells.kcs");
        let json = CellStore::open(&json_path).unwrap();
        let sharded = ShardedStore::create(&sharded_dir, 4).unwrap();

        for ((b, c, procs, reps), (chain, samples)) in &cells {
            let key = build_key(BENCHMARKS[*b], CLASSES[*c], *procs, chain, *reps);
            CellBackend::append(&json, &key, samples).unwrap();
            CellBackend::append(&sharded, &key, samples).unwrap();
        }
        CellBackend::flush(&json).unwrap();
        CellBackend::flush(&sharded).unwrap();

        // reload both from disk and compare entry-by-entry, bit-exact
        let json2 = CellStore::open(&json_path).unwrap();
        let sharded2 = ShardedStore::open(&sharded_dir).unwrap();
        let bits = |entries: Vec<(String, Vec<f64>)>| -> Vec<(String, Vec<u64>)> {
            entries
                .into_iter()
                .map(|(k, s)| (k, s.iter().map(|f| f.to_bits()).collect()))
                .collect()
        };
        let json_entries = bits(CellBackend::entries(&json2));
        let sharded_entries = bits(CellBackend::entries(&sharded2));
        prop_assert_eq!(&json_entries, &sharded_entries);

        // a convert-style copy (sharded → fresh json) reproduces the
        // original file byte for byte
        let copy_path = dir.join("copy.json");
        let copy = CellStore::open(&copy_path).unwrap();
        for (k, s) in CellBackend::entries(&sharded2) {
            copy.append_raw(&k, &s).unwrap();
        }
        CellBackend::flush(&copy).unwrap();
        prop_assert_eq!(
            std::fs::read(&json_path).unwrap(),
            std::fs::read(&copy_path).unwrap(),
            "sharded→json copy must reproduce the JSON file exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The indexed read path against a last-wins model map and the
    /// scan path: over a random append / supersede / compact / reopen
    /// sequence on a store whose one-slot hot tier pushes reads to the
    /// segments, `get_raw` answers every key exactly as the model
    /// does, `entries()` (which rescans the segments) lists exactly
    /// the model, and `len()` (which reads only the indexes) counts
    /// it.  Long sequences also cross the automatic-compaction ratio.
    #[test]
    fn indexed_reads_match_the_scan_path_and_a_last_wins_model(
        ops in prop::collection::vec(
            (
                0usize..12, // 0: compact, 1: reopen, else append
                0usize..10, // key
                prop::collection::vec(sample_strategy(), 0..4),
            ),
            1..80,
        ),
    ) {
        let dir = scratch("model");
        let store_dir = dir.join("cells.kcs");
        drop(ShardedStore::create(&store_dir, 2).unwrap());
        let mut store = open_cold_tier(&store_dir);
        let mut model: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let bits = |s: &[f64]| s.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (op, key, samples) in &ops {
            match op {
                0 => {
                    store.compact().unwrap();
                }
                1 => {
                    // with and without a flush before the drop
                    if key % 2 == 0 {
                        store.flush().unwrap();
                    }
                    drop(store);
                    store = open_cold_tier(&store_dir);
                }
                _ => {
                    let key = format!("cell{key}");
                    store.append_raw(&key, samples).unwrap();
                    model.insert(key, samples.clone());
                }
            }
            for key in 0..10 {
                let key = format!("cell{key}");
                prop_assert_eq!(
                    store.get_raw(&key).map(|s| bits(&s)),
                    model.get(&key).map(|s| bits(s)),
                    "indexed read of {} after {:?}", key, (op, samples)
                );
            }
            let scanned: Vec<(String, Vec<u64>)> = store
                .entries()
                .into_iter()
                .map(|(k, s)| (k, bits(&s)))
                .collect();
            let expected: Vec<(String, Vec<u64>)> =
                model.iter().map(|(k, s)| (k.clone(), bits(s))).collect();
            prop_assert_eq!(&scanned, &expected, "the scan path lists the model");
            prop_assert_eq!(CellBackend::len(&store), model.len());
        }
        prop_assert_eq!(store.read_stats().fallback_scans, 0, "no index entry went bad");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn quick_runner() -> Runner {
    let mut runner = Runner::noise_free();
    runner.reps = 2;
    runner
}

fn request(id: u64, benchmark: &str, procs: usize) -> PredictRequest {
    PredictRequest {
        id,
        benchmark: benchmark.to_string(),
        class: "S".to_string(),
        procs,
        chain_len: 2,
        fine: false,
        deadline_ms: None,
    }
}

/// The serve-concurrency warm-store contract, over the sharded
/// backend: a cold server fills the store through concurrent
/// requests, then a fresh server over the warm directory answers a
/// 100-request burst with zero executions — each unique cell executed
/// exactly once, ever.
#[test]
fn sharded_warm_store_answers_concurrent_requests_with_zero_executions() {
    let dir = scratch("serve");
    let store_dir = dir.join("cells.kcs");
    let store = sharded_spec(&store_dir).open().unwrap();

    // phase 1: concurrent clients fill the store
    {
        let campaign = Arc::new(
            Campaign::builder(quick_runner())
                .backend(Box::new(Arc::clone(&store)))
                .jobs(4)
                .build(),
        );
        let engine = Arc::new(CampaignEngine::new(Arc::clone(&campaign)));
        let server = Server::new(engine, ServerConfig::default());
        std::thread::scope(|scope| {
            for client in 0..8u64 {
                let server = &server;
                scope.spawn(move || {
                    let (benchmark, procs) = if client % 2 == 0 {
                        ("bt", 4)
                    } else {
                        ("lu", 8)
                    };
                    let response = server.submit(request(client, benchmark, procs)).wait();
                    assert_eq!(response.status, Status::Ok, "{:?}", response.error);
                });
            }
        });
        server.shutdown();
        assert!(campaign.cache_stats().executed > 0);
        store.flush().unwrap();
    }
    assert!(!store.is_empty());

    // phase 2: a fresh process image (new store handle, cold hot
    // tier) over the same directory serves everything from disk
    let store2 = StoreSpec::new(&store_dir).open().unwrap();
    assert_eq!(store2.format(), StoreFormat::Sharded);
    let campaign = Arc::new(
        Campaign::builder(quick_runner())
            .backend(Box::new(Arc::clone(&store2)))
            .jobs(4)
            .build(),
    );
    let engine = Arc::new(CampaignEngine::new(Arc::clone(&campaign)));
    let server = Server::new(engine, ServerConfig::default());
    let tickets: Vec<_> = (0..100u64)
        .map(|i| {
            let (benchmark, procs) = if i % 2 == 0 { ("bt", 4) } else { ("lu", 8) };
            server.submit(request(i, benchmark, procs))
        })
        .collect();
    for ticket in tickets {
        let response = ticket.wait();
        assert_eq!(response.status, Status::Ok, "{:?}", response.error);
    }
    server.shutdown();

    let stats = campaign.cache_stats();
    assert_eq!(stats.executed, 0, "warm sharded store must execute nothing");
    assert!(stats.backend_hits > 0, "cells should come from the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw concurrent appenders and readers on one sharded store: every
/// appended cell is readable afterwards, and appends from different
/// threads never corrupt each other's frames (the per-shard lock
/// keeps frames atomic).
#[test]
fn concurrent_appenders_and_readers_lose_nothing() {
    let dir = scratch("raw");
    let store = Arc::new(ShardedStore::create(&dir.join("cells.kcs"), 4).unwrap());
    let writers = 8usize;
    let per_writer = 25usize;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..per_writer {
                    let key = format!("writer{w}|cell{i}");
                    store.append_raw(&key, &[w as f64, i as f64]).unwrap();
                    // read-your-writes while others are appending
                    assert_eq!(
                        store.get_raw(&key),
                        Some(vec![w as f64, i as f64]),
                        "{key} must be readable immediately"
                    );
                }
            });
        }
    });
    assert_eq!(CellBackend::len(&*store), writers * per_writer);
    assert_eq!(
        store.read_stats().auto_compactions,
        0,
        "appending each cell once (what campaigns do) never compacts"
    );
    // a fresh open (no hot tier, pure disk) sees every frame intact
    let reopened = ShardedStore::open(&dir.join("cells.kcs")).unwrap();
    assert_eq!(reopened.repaired_bytes(), 0, "no torn frames were written");
    for w in 0..writers {
        for i in 0..per_writer {
            assert_eq!(
                reopened.get_raw(&format!("writer{w}|cell{i}")),
                Some(vec![w as f64, i as f64])
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-write recovery end to end: truncate a segment mid-record and
/// assert the intact prefix survives, the torn cell is gone, and the
/// store accepts (and persists) appends after the repair.
#[test]
fn truncated_segment_recovers_the_intact_prefix() {
    let dir = scratch("torn");
    let store_dir = dir.join("cells.kcs");
    {
        let store = ShardedStore::create(&store_dir, 1).unwrap();
        for i in 0..10 {
            store.append_raw(&format!("cell{i}"), &[i as f64]).unwrap();
        }
        store.flush().unwrap();
    }
    let segment = std::fs::read_dir(&store_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("one segment file");
    // cut into the middle of the last record
    let len = std::fs::metadata(&segment).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let store = ShardedStore::open(&store_dir).unwrap();
    assert!(store.repaired_bytes() > 0);
    for i in 0..9 {
        assert_eq!(
            store.get_raw(&format!("cell{i}")),
            Some(vec![i as f64]),
            "intact prefix cell{i} must survive"
        );
    }
    assert_eq!(store.get_raw("cell9"), None, "the torn record is dropped");
    store.append_raw("cell9", &[99.0]).unwrap();
    store.flush().unwrap();
    let reopened = ShardedStore::open(&store_dir).unwrap();
    assert_eq!(reopened.get_raw("cell9"), Some(vec![99.0]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty sample set is a real cell, not a miss: it round-trips
/// through both formats, and both backends count loading it as a hit,
/// so the hit/miss accounting of the JSON and sharded stores stays in
/// lockstep over the same request sequence.
#[test]
fn empty_frames_roundtrip_and_count_as_hits_in_both_backends() {
    let dir = scratch("empty");
    let json = CellStore::open(&dir.join("cells.json")).unwrap();
    let sharded = ShardedStore::create(&dir.join("cells.kcs"), 2).unwrap();
    for store in [&json as &dyn CellBackend, &sharded as &dyn CellBackend] {
        store.append_raw("BT|empty", &[]).unwrap();
        store.append_raw("BT|full", &[1.5, 2.5]).unwrap();
        store.flush().unwrap();
    }

    // reload from disk: the empty frame survives as Some(vec![])
    let json = CellStore::open(&dir.join("cells.json")).unwrap();
    let sharded = ShardedStore::open(&dir.join("cells.kcs")).unwrap();
    for store in [&json as &dyn CellBackend, &sharded as &dyn CellBackend] {
        assert_eq!(store.get_raw("BT|empty"), Some(vec![]));
        assert_eq!(store.get_raw("BT|full"), Some(vec![1.5, 2.5]));
        assert_eq!(store.get_raw("BT|absent"), None);
        let stats = store.stats();
        assert_eq!(stats.loads, 3, "{}: three loads issued", store.format());
        assert_eq!(
            stats.load_hits,
            2,
            "{}: the empty cell is a hit, only the absent key misses",
            store.format()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers racing repeated compactions on one handle: compaction
/// rewrites segments and swaps indexes under the shard lock, so a
/// positioned read must never observe a half-rewritten segment.  The
/// compacting thread re-appends identical samples between rounds to
/// keep creating superseded frames without ever changing an answer.
#[test]
fn readers_racing_compaction_always_see_consistent_answers() {
    let dir = scratch("race");
    let store_dir = dir.join("cells.kcs");
    let keys = 60usize;
    {
        let store = ShardedStore::create(&store_dir, 4).unwrap();
        for i in 0..keys {
            store.append_raw(&format!("cell{i}"), &[0.0]).unwrap();
            store
                .append_raw(&format!("cell{i}"), &[i as f64, 0.5])
                .unwrap();
        }
        store.flush().unwrap();
    }
    let store = Arc::new(open_cold_tier(&store_dir));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _round in 0..6 {
                    for i in 0..keys {
                        assert_eq!(
                            store.get_raw(&format!("cell{i}")),
                            Some(vec![i as f64, 0.5]),
                            "cell{i} must be stable across compactions"
                        );
                    }
                }
            });
        }
        let store = Arc::clone(&store);
        scope.spawn(move || {
            for round in 0..8 {
                // identical re-appends: superseded frames pile up,
                // answers stay fixed
                for i in (round % 4..keys).step_by(4) {
                    store
                        .append_raw(&format!("cell{i}"), &[i as f64, 0.5])
                        .unwrap();
                }
                let report = store.compact().unwrap();
                assert!(report.records_after <= report.records_before);
            }
        });
    });
    assert!(
        store.read_stats().positioned_reads > 0,
        "the racing reads must have exercised the positioned-read path"
    );
    let reopened = ShardedStore::open(&store_dir).unwrap();
    for i in 0..keys {
        assert_eq!(
            reopened.get_raw(&format!("cell{i}")),
            Some(vec![i as f64, 0.5])
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Absent keys are answered by the per-segment existence filter with
/// zero segment I/O: the filtered-absent counter moves, the
/// positioned-read and fallback-scan counters do not.
#[test]
fn absent_keys_answer_without_touching_segments() {
    let dir = scratch("absent");
    let store_dir = dir.join("cells.kcs");
    {
        let store = ShardedStore::create(&store_dir, 4).unwrap();
        for i in 0..20 {
            store.append_raw(&format!("cell{i}"), &[i as f64]).unwrap();
        }
        store.flush().unwrap();
    }
    let store = open_cold_tier(&store_dir);
    // prime a baseline of real segment reads
    for i in 0..20 {
        assert!(store.get_raw(&format!("cell{i}")).is_some());
    }
    let before = store.read_stats();
    assert!(before.positioned_reads > 0);

    for i in 0..30 {
        assert_eq!(store.get_raw(&format!("nope{i}")), None);
    }
    let after = store.read_stats();
    assert!(
        after.filtered_absent >= before.filtered_absent + 30,
        "every absent key is filtered ({} -> {})",
        before.filtered_absent,
        after.filtered_absent
    );
    assert_eq!(
        after.positioned_reads, before.positioned_reads,
        "absent keys must not read segments"
    );
    assert_eq!(
        after.fallback_scans, before.fallback_scans,
        "absent keys must not trigger fallback scans"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lossy-tier correctness contract: with a single hot slot every
/// distinct key evicts the previous one, so almost every read is a
/// tier miss — and every answer must still be exactly right (served
/// from the shard files).
#[test]
fn single_slot_hot_tier_still_answers_every_key_correctly() {
    let dir = scratch("lossy");
    let store_dir = dir.join("cells.kcs");
    {
        let store = ShardedStore::create(&store_dir, 4).unwrap();
        for i in 0..50 {
            store
                .append_raw(&format!("cell{i}"), &[i as f64, 0.5])
                .unwrap();
        }
        store.flush().unwrap();
    }
    let store = open_cold_tier(&store_dir);
    // interleaved repeats: every get collides with its predecessor
    for round in 0..3 {
        for i in 0..50 {
            assert_eq!(
                store.get_raw(&format!("cell{i}")),
                Some(vec![i as f64, 0.5]),
                "round {round}: eviction must never change an answer"
            );
        }
    }
    let hot = store.hot_stats();
    assert!(
        hot.evictions >= 100,
        "a single slot under 50 keys must evict constantly (saw {})",
        hot.evictions
    );
    assert!(hot.misses >= hot.hits, "most probes collide away");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Automatic compaction is always on, at one constant ratio: a handle
/// opened through plain `StoreSpec::open()` that re-appends more than
/// half of a shard of at least `AUTO_COMPACT_MIN_FRAMES` frames has
/// that shard rewritten by the time `flush()` returns, and every cell
/// still reads back as its latest samples.
#[test]
fn reappending_more_than_half_a_shard_compacts_it_by_the_next_flush() {
    let dir = scratch("autocompact");
    let store_dir = dir.join("cells.kcs");
    // 20 cells that all live in shard 0 of a default-sharded store
    let keys: Vec<String> = (1..)
        .map(|procs| build_key("BT", "S", procs, &[0, 1], 2))
        .filter(|k| k.digest_u64() % ShardedStore::DEFAULT_SHARDS as u64 == 0)
        .map(|k| k.to_string())
        .take(20)
        .collect();
    assert!(keys.len() as u64 >= ShardedStore::AUTO_COMPACT_MIN_FRAMES);
    let store = sharded_spec(&store_dir).open().unwrap();
    for round in 0..2 {
        for (i, key) in keys.iter().enumerate() {
            store.append_raw(key, &[round as f64, i as f64]).unwrap();
        }
    }
    // 20 of 40 frames superseded is not *more* than half; one further
    // re-append crosses the ratio, and the flush compacts the shard
    store.append_raw(&keys[0], &[2.0, 0.0]).unwrap();
    store.flush().unwrap();
    let expected = |i: usize| vec![if i == 0 { 2.0 } else { 1.0 }, i as f64];
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(store.get_raw(key), Some(expected(i)));
    }
    assert_eq!(store.len(), keys.len());
    drop(store);

    let reopened = ShardedStore::open(&store_dir).unwrap();
    let shard0 = reopened.segment_stats()[0];
    assert_eq!(shard0.live, 20);
    assert_eq!(shard0.superseded(), 0, "the flush compacted the shard");
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(reopened.get_raw(key), Some(expected(i)));
    }
    assert_eq!(CellBackend::len(&reopened), reopened.entries().len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `CellStore::save` replaces the file atomically, through `PATH.tmp`
/// and a rename: a save that cannot land leaves the previous file as
/// it was, and no `.tmp` file is left behind either way.
#[test]
fn a_failed_json_save_keeps_the_previous_file() {
    let dir = scratch("json_save");
    let path = dir.join("cells.json");
    let tmp = dir.join("cells.json.tmp");
    let store = CellStore::new();
    store.append_raw("BT|first", &[1.0]).unwrap();
    store.save(&path).unwrap();
    assert!(!tmp.exists());
    let saved = std::fs::read(&path).unwrap();
    store.append_raw("BT|second", &[2.0]).unwrap();

    // the tmp name is taken: the save cannot start, the old file stands
    std::fs::create_dir(&tmp).unwrap();
    assert!(store.save(&path).is_err());
    assert_eq!(std::fs::read(&path).unwrap(), saved);
    assert_eq!(CellStore::load(&path).unwrap().len(), 1);
    std::fs::remove_dir(&tmp).unwrap();

    // the target turned into a directory: the rename cannot land
    let taken = dir.join("taken.json");
    std::fs::create_dir(&taken).unwrap();
    assert!(store.save(&taken).is_err());
    assert!(
        !dir.join("taken.json.tmp").exists(),
        "a failed save cleans up"
    );

    store.save(&path).unwrap();
    assert_eq!(CellStore::load(&path).unwrap().len(), 2);
    assert!(!tmp.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
