//! `regime_sweep`: the `kc_regime sweep` binary over the committed
//! small spec — the same simulator as the tables, but through the
//! `multicore-smp` cache geometry and length-2 chains only.

use super::{sequential_ops, set_rerun_layers, setups, TRACE_RERUNS};
use crate::harness::{parse_sweep_line, run_child, same_bytes, Env, Finished, SweepLine};
use crate::report::{Gate, Layers, Outcome};
use crate::spans::Tracer;
use crate::sys::waited_children;
use std::io;
use std::path::{Path, PathBuf};

/// Cells `scripts/regime_small.json` expands to.
const CELLS: u64 = 288;

/// The set-up's warm-up sweep (BT class S on 4 and 9 ranks) and the
/// cells it expands to.
const WARM_UP_SPEC: &str = "benchmark/regime_warmup.json";
const WARM_UP_CELLS: u64 = 48;

fn spawn(env: &Env, spec: &Path, json: &Path, store: &Path) -> io::Result<Finished> {
    run_child(
        env.bin("kc_regime")
            .arg("sweep")
            .arg("--spec")
            .arg(spec)
            .arg("--json")
            .arg(json)
            .arg("--store")
            .arg(format!("sharded:{}", store.display()))
            .args(["--jobs", "2"]),
    )
}

/// Check one finished sweep: exit status, executed-cell count, and the
/// regime map against the golden.
fn check(run: &Finished, env: &Env, json: &Path, executed: u64) -> Result<SweepLine, String> {
    if !run.status.success() {
        return Err(format!("kc_regime exited with {}", run.status));
    }
    let sweep = parse_sweep_line(&run.stderr).ok_or("kc_regime printed no [sweep] line")?;
    if sweep.executed != executed || sweep.backend_hits != CELLS - executed {
        return Err(format!(
            "kc_regime executed {} cells and read {} from the store, expected {executed} and {}",
            sweep.executed,
            sweep.backend_hits,
            CELLS - executed
        ));
    }
    same_bytes(json, &env.golden.join("regime_map.json"))?;
    Ok(sweep)
}

/// The map file to write and the path of a store that does not exist
/// yet.
fn fresh_paths(env: &Env) -> io::Result<(PathBuf, PathBuf)> {
    let dir = env.fresh_dir("regime")?;
    Ok((dir.join("regime_map.json"), dir.join("store")))
}

/// Set up a cold sweep: one small checked sweep, so the binary's
/// pages, the rank pools' code paths and the scratch directory are
/// warm before the first timed one.
fn warm_up(env: &Env, gate: &mut Gate) -> io::Result<()> {
    let (json, store) = fresh_paths(env)?;
    let run = spawn(env, Path::new(WARM_UP_SPEC), &json, &store)?;
    gate.check(match parse_sweep_line(&run.stderr) {
        Some(sweep) if run.status.success() && sweep.executed == WARM_UP_CELLS => Ok(()),
        _ => Err(format!("warm-up sweep failed: {}", run.stderr.trim_end())),
    });
    Ok(())
}

/// The committed small sweep, cold or warm depending on `store`.
fn sweep(env: &Env, json: &Path, store: &Path) -> io::Result<Finished> {
    spawn(env, &env.scripts.join("regime_small.json"), json, store)
}

pub fn run(env: &Env, seconds: f64) -> io::Result<Outcome> {
    let mut gate = Gate::default();
    let (setup_secs, ()) = setups(|| warm_up(env, &mut gate))?;
    sequential_ops(seconds, setup_secs, gate, |gate| {
        let (json, store) = fresh_paths(env)?;
        let run = sweep(env, &json, &store)?;
        gate.check(check(&run, env, &json, CELLS).map(drop));
        Ok(run.wall_secs)
    })
}

/// Traced `regime_sweep`: one cold sweep, then warm re-runs on the
/// store it filled.  `kc_regime` has no `--trace` flag, so the
/// campaign counters come from its `[sweep]` line and the per-cell
/// busy times stay 0.
pub fn trace(env: &Env, tracer: &mut Tracer, layers: &mut Layers) -> io::Result<Gate> {
    let mut gate = Gate::default();
    warm_up(env, &mut gate)?;
    let (json, store) = fresh_paths(env)?;
    let cpu_before = waited_children().cpu_secs;
    let cold = tracer.span("kc_regime sweep cold", |_| sweep(env, &json, &store))?;
    let cpu_secs = waited_children().cpu_secs - cpu_before;
    let checked = check(&cold, env, &json, CELLS);
    if let Ok(sweep) = &checked {
        layers.set("experiments.cells_executed", sweep.executed as f64);
        layers.set("experiments.cache_hits", sweep.memory_hits as f64);
        layers.set("experiments.backend_hits", sweep.backend_hits as f64);
        layers.set("experiments.cpu_s", cpu_secs);
    }
    gate.check(checked.map(drop));

    let mut secs = Vec::new();
    tracer.span("kc_regime sweep warm re-runs", |_| {
        for _ in 0..TRACE_RERUNS {
            let run = sweep(env, &json, &store)?;
            gate.check(check(&run, env, &json, 0).map(drop));
            secs.push(run.wall_secs);
        }
        io::Result::Ok(())
    })?;
    set_rerun_layers(layers, &secs);
    Ok(gate)
}
