//! `kc-core`: the coupling algebra, a memory-cache hit and a trace
//! event — what a warm re-run or a served hit spends outside stores.

use super::{timed, Bench};
use kc_core::telemetry::{JsonLinesSink, TelemetryEvent, TelemetrySink};
use kc_core::{
    CachedProvider, CellContext, CellKind, CouplingAnalysis, KcResult, Measurement, MeasurementKey,
    MeasurementProvider, Prediction, Predictor, SyntheticExecutor,
};
use std::hint::black_box;
use std::io;

/// Assemblies per repetition of the analysis probe.
const ANALYSES: u32 = 20_000;
/// Distinct cells in the cache probe, each hit [`HIT_ROUNDS`] times.
const CACHED_CELLS: u32 = 1_000;
const HIT_ROUNDS: u32 = 200;
/// Events per repetition of the trace probe.
const TRACE_EVENTS: u32 = 100_000;

/// A provider whose cells cost nothing: only the cache is timed.
struct Constant;

impl MeasurementProvider for Constant {
    fn measure(&self, _key: &MeasurementKey) -> KcResult<Measurement> {
        Ok(Measurement::exact(1.0))
    }
}

pub fn run(b: &mut Bench) -> io::Result<()> {
    // a five-kernel application with pairwise interactions, measured
    // once; the probe re-assembles and re-solves it from the samples
    let mut app = SyntheticExecutor::builder()
        .kernel("a", 1.0)
        .kernel("b", 2.0)
        .kernel("c", 0.5)
        .kernel("d", 1.5)
        .kernel("e", 3.0)
        .interaction("a", "b", -0.2)
        .interaction("c", "d", 0.1)
        .interaction("e", "a", -0.3)
        .loop_iterations(100)
        .build();
    let measured = CouplingAnalysis::collect(&mut app, 3, 5).map_err(io::Error::other)?;
    let isolated: Vec<Measurement> = measured
        .kernel_set()
        .ids()
        .map(|k| measured.isolated(k).clone())
        .collect();
    let windows: Vec<Measurement> = (0..measured.windows().len())
        .map(|w| measured.window_perf(w).clone())
        .collect();
    let analyse = || -> Result<(f64, f64), kc_core::CouplingError> {
        let analysis = CouplingAnalysis::from_measurements(
            measured.kernel_set().clone(),
            3,
            measured.loop_iterations(),
            isolated.clone(),
            windows.clone(),
            measured.overhead().clone(),
            measured.actual().clone(),
        )?;
        black_box(analysis.coefficients()?);
        Ok((
            analysis.predict(Predictor::Summation)?,
            analysis.predict(Predictor::coupling(3))?,
        ))
    };
    let (secs, summation_bits) = b.repeat("core.analysis", || {
        let mut last = analyse();
        let (secs, ()) = timed(|| {
            for _ in 0..ANALYSES {
                last = analyse();
            }
        });
        let (summation, _coupled) = last.map_err(io::Error::other)?;
        Ok((secs, summation.to_bits()))
    })?;
    b.layers
        .set("core.us_per_analysis", 1e6 * secs / f64::from(ANALYSES));
    let summation = Prediction {
        predicted: f64::from_bits(summation_bits),
        actual: measured.actual().mean(),
    };
    b.layers
        .set("core.summation_err_pct", summation.rel_err_pct());

    let context = CellContext {
        benchmark: "SYN".into(),
        class: "S".into(),
        procs: 4,
        exec_digest: "w1t2mpb1ci".into(),
        machine_fingerprint: "0".repeat(16),
    };
    let keys: Vec<MeasurementKey> = (0..CACHED_CELLS)
        .map(|reps| context.key(CellKind::Application, reps))
        .collect();
    let cache = CachedProvider::new(Constant);
    for key in &keys {
        cache.measure(key).map_err(io::Error::other)?;
    }
    let (secs, hits) = b.repeat("core.cache_hit", || {
        let before = cache.stats().hits;
        let (secs, ()) = timed(|| {
            for _ in 0..HIT_ROUNDS {
                for key in &keys {
                    black_box(cache.measure(key).expect("a cached cell cannot fail"));
                }
            }
        });
        Ok((secs, cache.stats().hits - before))
    })?;
    b.layers
        .set("core.ns_per_cache_hit", 1e9 * secs / hits as f64);

    let trace_file = b.env.work.join("probe-trace.jsonl");
    let (secs, ()) = b.repeat("core.trace_sink", || {
        let sink = JsonLinesSink::new(&trace_file);
        let (secs, flushed) = timed(|| {
            for i in 0..TRACE_EVENTS {
                sink.record(TelemetryEvent::CellExecuted {
                    key: keys[(i % CACHED_CELLS) as usize].to_string(),
                    duration_secs: 1e-3,
                    worker: "kc-worker-0".into(),
                });
            }
            sink.flush()
        });
        flushed?;
        Ok((secs, ()))
    })?;
    b.layers.set(
        "core.ns_per_trace_event",
        1e9 * secs / f64::from(TRACE_EVENTS),
    );
    Ok(())
}
