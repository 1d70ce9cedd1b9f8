//! `kc-prophesy`: opening, reading and writing cell stores — on a
//! copy of the 800-cell tables store (what a warm `paper_tables all`
//! reads) and on a seeded 50 000-cell store, 24 times the 2048-slot
//! hot tier, where reads go to the segments.

use super::{timed, Bench};
use crate::workloads::tables::fill_from_goldens;
use kc_prophesy::{CellBackend, CellStore, ShardedStore};
use rand::SmallRng;
use std::hint::black_box;
use std::io;
use std::path::Path;

/// Cells of the big store.
const BIG_CELLS: u64 = 50_000;
/// Keys read, looked up absent, appended and superseded per
/// repetition on the big store.
const BATCH: u64 = 5_000;

fn big_key(seed: u64, n: u64) -> String {
    format!("SYN|S|p{n}|application|r5|w1t2mpb1ci|{seed:016x}")
}

fn samples(n: u64) -> [f64; 5] {
    [1.0, 2.0, 3.0, 4.0, n as f64]
}

/// Build the seeded big store; its cells are `big_key(seed, 0..BIG_CELLS)`.
fn build_big(dir: &Path, seed: u64) -> io::Result<()> {
    let store = ShardedStore::create(dir, ShardedStore::DEFAULT_SHARDS)?;
    for n in 0..BIG_CELLS {
        store.append_raw(&big_key(seed, n), &samples(n))?;
    }
    store.flush()
}

fn segment_bytes(dir: &Path) -> io::Result<u64> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "seg") {
            bytes += path.metadata()?.len();
        }
    }
    Ok(bytes)
}

fn remove_sidecars(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "idx") {
            std::fs::remove_file(path)?;
        }
    }
    Ok(())
}

pub fn run(b: &mut Bench) -> io::Result<()> {
    let tables = b.env.fresh_path("probe-tables-store")?;
    fill_from_goldens(b.env, &tables)?;

    // open: indexes from fresh sidecars, rebuilt by scan, and the
    // JSON format
    let (secs, cells) = b.repeat("prophesy.open_sidecar", || {
        let (secs, store) = timed(|| ShardedStore::open(&tables));
        Ok((secs, store?.len()))
    })?;
    b.layers.set("prophesy.open_ms.sidecar", 1e3 * secs);
    b.layers.set(
        "prophesy.bytes_per_cell",
        segment_bytes(&tables)? as f64 / cells as f64,
    );
    let (secs, _) = b.repeat("prophesy.open_scan", || {
        remove_sidecars(&tables)?; // open never writes them back
        let (secs, store) = timed(|| ShardedStore::open(&tables));
        Ok((secs, store?.read_stats().index_rebuilds))
    })?;
    b.layers.set("prophesy.open_ms.scan", 1e3 * secs);

    let store = ShardedStore::open(&tables)?;
    let entries = store.entries();
    let json_path = b.env.work.join("probe-cells.json");
    let json = CellStore::new();
    for (key, samples) in &entries {
        json.append_raw(key, samples)?;
    }
    let (secs, ()) = b.repeat("prophesy.json_save", || {
        let (secs, saved) = timed(|| json.save(&json_path));
        saved?;
        Ok((secs, ()))
    })?;
    b.layers.set("prophesy.json_save_ms", 1e3 * secs);
    let (secs, _) = b.repeat("prophesy.open_json", || {
        let (secs, loaded) = timed(|| CellStore::load(&json_path));
        Ok((secs, loaded?.len()))
    })?;
    b.layers.set("prophesy.open_ms.json", 1e3 * secs);

    // hot reads: every tables cell, after one pass has filled the tier
    for (key, _) in &entries {
        store.get_raw(key);
    }
    // (a few cells share a slot of the lossy tier and are re-read from
    // their segment each pass; the hit count repeats exactly)
    let (secs, _hits) = b.repeat("prophesy.get_hot", || {
        let before = store.hot_stats().hits;
        let (secs, ()) = timed(|| {
            for (key, _) in &entries {
                black_box(store.get_raw(key));
            }
        });
        Ok((secs, store.hot_stats().hits - before))
    })?;
    b.layers
        .set("prophesy.get_us.hot", 1e6 * secs / entries.len() as f64);
    drop(store);

    let big = b.env.fresh_path("probe-big-store")?;
    b.tracer
        .span("prophesy.build_big", |_| build_big(&big, b.seed))?;
    let seed = b.seed;

    // reads that miss the hot tier: a fresh open, then seeded uniform
    // keys (a 2048-slot tier over 50 000 cells hits almost never)
    let (secs, (positioned, hot_hits)) = b.repeat("prophesy.get_indexed_miss", || {
        let store = ShardedStore::open(&big)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        let keys: Vec<String> = (0..BATCH)
            .map(|_| big_key(seed, rng.gen_range(0..BIG_CELLS)))
            .collect();
        let (secs, ()) = timed(|| {
            for key in &keys {
                black_box(store.get_raw(key));
            }
        });
        Ok((
            secs,
            (store.read_stats().positioned_reads, store.hot_stats().hits),
        ))
    })?;
    b.layers.set(
        "prophesy.get_us.indexed_miss",
        1e6 * secs / positioned as f64,
    );
    b.layers
        .set("prophesy.hot_hit_share.big", hot_hits as f64 / BATCH as f64);

    let store = ShardedStore::open(&big)?;
    let (secs, absent) = b.repeat("prophesy.get_absent", || {
        let before = store.read_stats().filtered_absent;
        let (secs, ()) = timed(|| {
            for n in BIG_CELLS..BIG_CELLS + BATCH {
                black_box(store.get_raw(&big_key(seed, n)));
            }
        });
        Ok((secs, store.read_stats().filtered_absent - before))
    })?;
    b.layers
        .set("prophesy.get_us.absent", 1e6 * secs / absent as f64);

    // writes: re-append a batch of existing cells (superseding their
    // frames), flush, then compact the superseded frames away
    let mut flush_secs = Vec::new();
    let mut compact_secs = Vec::new();
    let (secs, _) = b.repeat("prophesy.append_flush_compact", || {
        let (append, appended) = timed(|| -> io::Result<()> {
            for n in 0..BATCH {
                store.append_raw(&big_key(seed, n), &samples(n))?;
            }
            Ok(())
        });
        appended?;
        let (flush, flushed) = timed(|| store.flush());
        flushed?;
        let (compact, report) = timed(|| store.compact());
        let report = report?;
        flush_secs.push(flush);
        compact_secs.push(compact);
        Ok((append, (report.records_before, report.records_after)))
    })?;
    b.layers
        .set("prophesy.append_us", 1e6 * secs / BATCH as f64);
    b.layers
        .set("prophesy.flush_ms", 1e3 * crate::stats::median(&flush_secs));
    b.layers.set(
        "prophesy.compact_ms",
        1e3 * crate::stats::median(&compact_secs),
    );
    Ok(())
}
