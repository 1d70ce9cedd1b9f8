//! Benches the sharded store's warm read path — the hot loop behind
//! `--store sharded:PATH` once a campaign directory is populated.
//!
//! Four shapes matter: a cold open followed by a first sweep (every
//! `get` falls through the hot tier to the shard's frame index), a
//! warm sweep over a populated hot tier (every `get` is a
//! single-probe cache hit), a pinned-cold sweep over the indexed miss
//! path (one positioned read per `get`), and an absent-key sweep
//! (answered by the existence filter with zero segment I/O).  With
//! `KC_BENCH_TRAJECTORY=<dir>` the bench also leaves a
//! `BENCH_store_read.json` breakdown behind with each key's measured
//! read latency plus `miss|indexed|sweep` / `absent|indexed|sweep`
//! summary cells, so `kc-bench diff` covers the store read path cell
//! by cell.

use criterion::{criterion_group, criterion_main, Criterion};
use kc_bench::{trajectory_dir, BenchTrajectory};
use kc_core::SlowCell;
use kc_prophesy::{CellBackend, ShardOpenOptions, ShardedStore};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cells written into the scratch store; enough to spread over every
/// shard and overflow nothing.
const CELLS: usize = 256;

/// Canonical-looking keys across a few benchmarks, so the trajectory's
/// per-benchmark breakdown has shape.
fn key(i: usize) -> String {
    let benchmark = ["BT", "SP", "LU"][i % 3];
    format!("{benchmark}|S|p4|c{i}|r2|w1t2mpb1ci|00ff00ff00ff00ff")
}

/// Open with a one-slot hot tier, which makes every distinct key a
/// tier miss: each `get` is one indexed positioned read.
fn open_cold_tier(dir: &Path) -> ShardedStore {
    let options = ShardOpenOptions {
        hot_slots: 1,
        ..Default::default()
    };
    ShardedStore::open_with(dir, options).expect("open")
}

/// Create and fill a scratch sharded store, returning its directory.
fn populate() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kc_bench_store_read_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ShardedStore::create(&dir, 8).expect("scratch store");
    for i in 0..CELLS {
        let samples = [i as f64, 0.5 * i as f64, 1.0 / (i + 1) as f64];
        store.append_raw(&key(i), &samples).expect("append");
    }
    store.flush().expect("flush");
    dir
}

fn bench_store_read(c: &mut Criterion) {
    let dir = populate();
    let mut g = c.benchmark_group("store_read");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(3));

    // cold path: fresh handle each iteration, so every get misses the
    // hot tier and scans its shard
    g.bench_function("sharded_cold_sweep", |bench| {
        bench.iter(|| {
            let store = ShardedStore::open(&dir).expect("open");
            for i in 0..CELLS {
                black_box(store.get_raw(&key(i)));
            }
        })
    });

    // warm path: one handle, hot tier saturated by the first sweep
    let warm = ShardedStore::open(&dir).expect("open");
    for i in 0..CELLS {
        warm.get_raw(&key(i));
    }
    g.bench_function("sharded_hot_sweep", |bench| {
        bench.iter(|| {
            for i in 0..CELLS {
                black_box(warm.get_raw(&key(i)));
            }
        })
    });

    // pinned cold-miss path
    let cold = open_cold_tier(&dir);
    g.bench_function("sharded_miss_indexed_sweep", |bench| {
        bench.iter(|| {
            for i in 0..CELLS {
                black_box(cold.get_raw(&key(i)));
            }
        })
    });

    // absent keys: the existence filter answers without touching disk
    g.bench_function("sharded_absent_sweep", |bench| {
        bench.iter(|| {
            for i in 0..CELLS {
                black_box(cold.get_raw(&format!("QQ|absent|{i}")));
            }
        })
    });
    g.finish();

    emit_trajectory(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `KC_BENCH_TRAJECTORY=<dir>`, record each key's cold-handle
/// read latency (best of a few rounds, to shave scheduler noise) as a
/// trajectory, mirroring what the campaign benches do for executed
/// cells.
fn emit_trajectory(store_dir: &Path) {
    let Some(out) = trajectory_dir() else {
        return;
    };
    const ROUNDS: usize = 5;
    let store = ShardedStore::open(store_dir).expect("open");
    let mut cells = Vec::with_capacity(CELLS);
    for i in 0..CELLS {
        let k = key(i);
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let start = Instant::now();
            black_box(store.get_raw(&k));
            best = best.min(start.elapsed().as_secs_f64());
        }
        cells.push(SlowCell {
            key: k,
            duration_secs: best,
        });
    }
    // Miss-path summary cells: one cold-tier sweep per read path,
    // best of a few rounds.  `miss|indexed` times the positioned-read
    // path; `absent|indexed` sweeps keys the store does not hold
    // (answered by the existence filter with no segment I/O).
    let cold = open_cold_tier(store_dir);
    let mut indexed = f64::INFINITY;
    let mut absent = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for i in 0..CELLS {
            black_box(cold.get_raw(&key(i)));
        }
        indexed = indexed.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for i in 0..CELLS {
            black_box(cold.get_raw(&format!("QQ|absent|{i}")));
        }
        absent = absent.min(start.elapsed().as_secs_f64());
    }
    for (k, duration_secs) in [
        ("miss|indexed|sweep", indexed),
        ("absent|indexed|sweep", absent),
    ] {
        cells.push(SlowCell {
            key: k.to_string(),
            duration_secs,
        });
    }
    let path = BenchTrajectory::from_cells("store_read", cells)
        .write_to(&out)
        .expect("failed to write bench trajectory");
    eprintln!("[trajectory] {}", path.display());
}

criterion_group!(benches, bench_store_read);
criterion_main!(benches);
