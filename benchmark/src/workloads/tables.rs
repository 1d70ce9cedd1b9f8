//! `tables_cold` and `tables_warm`: the `paper_tables` binary on an
//! empty store and on a store that already holds every cell.

use super::{sequential_ops, set_rerun_layers, setups, TRACE_RERUNS};
use crate::campaign_trace::{coupling_err_pct, set_experiments_layers, TraceDigest, TracedChild};
use crate::harness::{
    check_against_golden, parse_cache_line, run_child, CacheLine, Env, Finished, CHILD_FLAGS,
};
use crate::report::{Gate, Layers, Outcome};
use crate::spans::Tracer;
use crate::stats;
use crate::sys::waited_children;
use kc_prophesy::{history_sidecar, CellBackend, CellStore, StoreFormat, StoreSpec};
use std::io;
use std::path::{Path, PathBuf};

/// A selection of `paper_tables` experiments with the cells they
/// measure and the table JSONs `--out` writes for them.
struct TableSet {
    experiments: &'static [&'static str],
    cells: u64,
    tables: usize,
}

/// The cold operation: BT class W with SP and LU class A.
/// `paper_tables all` cold takes 30 s here — it would not fit a run
/// once, let alone the three times a median needs — and over 90 % of
/// that is big-class cells whose host time is cache-simulation line
/// accesses.  This set keeps that profile (all three benchmarks'
/// kernels, working sets from L2-resident to memory-bound, 168 cells)
/// at a seventh of the cost.
const COLD_SET: TableSet = TableSet {
    experiments: &["bt-w", "sp-a", "lu-a"],
    cells: 168,
    tables: 3,
};

/// Every experiment: what a warm re-run reads back.
const ALL: TableSet = TableSet {
    experiments: &["all"],
    cells: 800,
    tables: 15,
};

/// The set-up's warm-up run: the cheapest table.
const WARM_UP: TableSet = TableSet {
    experiments: &["bt-s"],
    cells: 36,
    tables: 1,
};

/// The golden cell stores that together hold the cells of [`ALL`].
const GOLDEN_CELLS: [&str; 3] = ["cells.json", "cells_extended.json", "cells_studies.json"];

fn spawn(
    env: &Env,
    set: &TableSet,
    out: &Path,
    store: &Path,
    trace: Option<&Path>,
) -> io::Result<Finished> {
    let mut cmd = env.bin("paper_tables");
    cmd.args(set.experiments)
        .args(CHILD_FLAGS)
        .arg("--out")
        .arg(out)
        .arg("--store")
        .arg(format!("sharded:{}", store.display()));
    if let Some(file) = trace {
        cmd.arg("--trace").arg(file).arg("--metrics");
    }
    run_child(&mut cmd)
}

/// Check one finished run: exit status, the `[cache]` disposition
/// counts, and the `--out` tables against the goldens.
fn check(
    run: &Finished,
    env: &Env,
    set: &TableSet,
    out: &Path,
    executed: u64,
) -> Result<CacheLine, String> {
    if !run.status.success() {
        return Err(format!("paper_tables exited with {}", run.status));
    }
    let cache = parse_cache_line(&run.stderr).ok_or("paper_tables printed no [cache] line")?;
    let backend_hits = set.cells - executed;
    if cache.executed != executed || cache.backend_hits != backend_hits {
        return Err(format!(
            "paper_tables executed {} cells and read {} from the store, expected {executed} and {backend_hits}",
            cache.executed, cache.backend_hits
        ));
    }
    check_against_golden(out, &env.golden, set.tables)?;
    Ok(cache)
}

/// Set up a cold run: one small checked campaign, so the binary's
/// pages, the rank pools' code paths and the scratch directory are
/// warm before the first timed spawn.
fn warm_up(env: &Env, gate: &mut Gate) -> io::Result<()> {
    let (out, store) = fresh_paths(env)?;
    let run = spawn(env, &WARM_UP, &out, &store, None)?;
    gate.check(check(&run, env, &WARM_UP, &out, WARM_UP.cells).map(drop));
    Ok(())
}

/// An empty output directory and the path of a store that does not
/// exist yet.
fn fresh_paths(env: &Env) -> io::Result<(PathBuf, PathBuf)> {
    Ok((
        env.fresh_dir("tables-out")?,
        env.fresh_path("tables-store")?,
    ))
}

pub fn run_cold(env: &Env, seconds: f64) -> io::Result<Outcome> {
    let mut gate = Gate::default();
    let (setup_secs, ()) = setups(|| warm_up(env, &mut gate))?;
    sequential_ops(seconds, setup_secs, gate, |gate| {
        let (out, store) = fresh_paths(env)?;
        let run = spawn(env, &COLD_SET, &out, &store, None)?;
        gate.check(check(&run, env, &COLD_SET, &out, COLD_SET.cells).map(drop));
        Ok(run.wall_secs)
    })
}

/// Build a sharded store holding every golden cell, the state a cold
/// `paper_tables all` leaves behind (which would take 30 s to make).
pub fn fill_from_goldens(env: &Env, store: &Path) -> io::Result<()> {
    let spec = StoreSpec {
        path: store.to_path_buf(),
        format: Some(StoreFormat::Sharded),
    };
    let dest = spec.open()?;
    for name in GOLDEN_CELLS {
        let source = CellStore::load(&env.golden.join(name))?;
        for (key, samples) in CellBackend::entries(&source) {
            dest.append_raw(&key, &samples)?;
        }
    }
    dest.flush()
}

/// One warm re-run: drop the history sidecar (so spawn *k* does not
/// pay for reading the records of spawns 1..*k*-1), spawn, check.
/// Returns the spawn's wall seconds and, if it passed, its counts.
fn warm_rerun(
    env: &Env,
    set: &TableSet,
    out: &Path,
    store: &Path,
    trace: Option<&Path>,
    gate: &mut Gate,
) -> io::Result<(f64, Option<CacheLine>)> {
    match std::fs::remove_file(history_sidecar(store)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let run = spawn(env, set, out, store, trace)?;
    let checked = check(&run, env, set, out, 0);
    let cache = checked.as_ref().ok().copied();
    gate.check(checked.map(drop));
    Ok((run.wall_secs, cache))
}

/// Set up `tables_warm`: a filled store, proven warm by one re-run.
fn warm_setup(env: &Env, gate: &mut Gate) -> io::Result<(PathBuf, PathBuf)> {
    let (out, store) = fresh_paths(env)?;
    fill_from_goldens(env, &store)?;
    warm_rerun(env, &ALL, &out, &store, None, gate)?;
    Ok((out, store))
}

pub fn run_warm(env: &Env, seconds: f64) -> io::Result<Outcome> {
    let mut gate = Gate::default();
    let (setup_secs, (out, store)) = setups(|| warm_setup(env, &mut gate))?;
    sequential_ops(seconds, setup_secs, gate, |gate| {
        Ok(warm_rerun(env, &ALL, &out, &store, None, gate)?.0)
    })
}

/// Time `TRACE_RERUNS` untraced warm re-runs of `set` on `store`;
/// returns their median, seconds.
fn rerun_layers(
    env: &Env,
    set: &TableSet,
    out: &Path,
    store: &Path,
    layers: &mut Layers,
    gate: &mut Gate,
) -> io::Result<f64> {
    let mut secs = Vec::new();
    for _ in 0..TRACE_RERUNS {
        secs.push(warm_rerun(env, set, out, store, None, gate)?.0);
    }
    Ok(set_rerun_layers(layers, &secs))
}

/// Traced `tables_cold`: the cold operation with `--trace --metrics`
/// between two untraced ones, then warm re-runs on a store it filled.
pub fn trace_cold(env: &Env, tracer: &mut Tracer, layers: &mut Layers) -> io::Result<Gate> {
    let mut gate = Gate::default();
    let set = &COLD_SET;
    warm_up(env, &mut gate)?;
    let untraced_cold = |tracer: &mut Tracer, gate: &mut Gate| -> io::Result<f64> {
        let (out, store) = fresh_paths(env)?;
        let run = tracer.span("paper_tables cold", |_| spawn(env, set, &out, &store, None))?;
        gate.check(check(&run, env, set, &out, set.cells).map(drop));
        Ok(run.wall_secs)
    };

    // untraced, traced, untraced: the first cold run after set-up is a
    // few per cent slower than later ones, and the mean of the runs
    // either side of the traced one cancels that drift
    let before = untraced_cold(tracer, &mut gate)?;
    let (out, store) = fresh_paths(env)?;
    let trace_file = env.work.join("tables-trace.jsonl");
    let cpu_before = waited_children().cpu_secs;
    let traced = tracer.span("paper_tables cold --trace", |_| {
        spawn(env, set, &out, &store, Some(&trace_file))
    })?;
    let cpu_secs = waited_children().cpu_secs - cpu_before;
    let checked = check(&traced, env, set, &out, set.cells);
    let facts = match &checked {
        Ok(cache) => Some((
            *cache,
            TraceDigest::of(&kc_core::telemetry::read_jsonl(&trace_file)?),
            coupling_err_pct(&out).map_err(io::Error::other)?,
        )),
        Err(_) => None,
    };
    gate.check(checked.map(drop));
    let after = untraced_cold(tracer, &mut gate)?;
    if let Some((cache, digest, coupling_err)) = facts {
        let child = TracedChild {
            digest: &digest,
            cache,
            wall_secs: traced.wall_secs,
            cpu_secs,
            untraced_wall_secs: Some((before + after) / 2.0),
        };
        set_experiments_layers(layers, &child);
        layers.set("experiments.coupling_err_pct", coupling_err);
    }

    // (the scratch names are reused: `out` and `store` now hold the
    // last cold run's tables and cells)
    tracer.span("paper_tables warm re-runs", |_| {
        rerun_layers(env, set, &out, &store, layers, &mut gate)
    })?;
    Ok(gate)
}

/// Traced `tables_warm`: untraced warm re-runs for the latency, then
/// as many with `--trace --metrics` for the counters and the overhead.
pub fn trace_warm(env: &Env, tracer: &mut Tracer, layers: &mut Layers) -> io::Result<Gate> {
    let mut gate = Gate::default();
    let (out, store) = tracer.span("fill store from goldens", |_| warm_setup(env, &mut gate))?;
    let untraced = tracer.span("paper_tables warm re-runs", |_| {
        rerun_layers(env, &ALL, &out, &store, layers, &mut gate)
    })?;

    let trace_file = env.work.join("tables-trace.jsonl");
    let mut secs = Vec::new();
    let mut last_cache = None;
    let cpu_before = waited_children().cpu_secs;
    tracer.span("paper_tables warm re-runs --trace", |_| {
        for _ in 0..TRACE_RERUNS {
            let (wall, cache) = warm_rerun(env, &ALL, &out, &store, Some(&trace_file), &mut gate)?;
            secs.push(wall);
            last_cache = cache;
        }
        io::Result::Ok(())
    })?;
    let cpu_secs = (waited_children().cpu_secs - cpu_before) / TRACE_RERUNS as f64;
    if let Some(cache) = last_cache {
        let digest = TraceDigest::of(&kc_core::telemetry::read_jsonl(&trace_file)?);
        let child = TracedChild {
            digest: &digest,
            cache,
            wall_secs: stats::median(&secs),
            cpu_secs,
            untraced_wall_secs: Some(untraced),
        };
        set_experiments_layers(layers, &child);
        let coupling_err = coupling_err_pct(&out).map_err(io::Error::other)?;
        layers.set("experiments.coupling_err_pct", coupling_err);
    }
    Ok(gate)
}
