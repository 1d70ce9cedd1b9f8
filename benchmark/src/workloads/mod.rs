//! The four workloads.  Each drives release binaries as child
//! processes, times them from outside and checks what they produce.

pub mod regime;
pub mod serve;
pub mod tables;

use crate::report::{Gate, Layers, Outcome};
use crate::stats::{self, Latency};
use crate::sys::waited_children;
use std::io;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Run `setup` [`SETUP_REPEATS`] times; returns the seconds each took
/// and what the last one built.  What the previous one built is
/// dropped before the next is timed.
pub fn setups<T>(mut setup: impl FnMut() -> io::Result<T>) -> io::Result<(Vec<f64>, T)> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let start = Instant::now();
        built = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((secs, built.expect("SETUP_REPEATS is at least one")))
}

/// The timed region of a workload whose operations are child
/// processes run one after another: repeat `op` (which returns the
/// operation's wall seconds) while the budget allows.  Throughput is
/// operations per second of operation time; CPU is what the waited-for
/// children used.
pub fn sequential_ops(
    seconds: f64,
    setup_secs: Vec<f64>,
    mut gate: Gate,
    mut op: impl FnMut(&mut Gate) -> io::Result<f64>,
) -> io::Result<Outcome> {
    let mut op_secs = Vec::new();
    let cpu_before = waited_children().cpu_secs;
    let budget = Budget::start(seconds);
    while budget.allows_another(&op_secs) {
        op_secs.push(op(&mut gate)?);
    }
    let cpu_secs = waited_children().cpu_secs - cpu_before;
    let ops = op_secs.len() as f64;
    Ok(Outcome {
        ops_per_s: ops / op_secs.iter().sum::<f64>(),
        cpu_secs_per_op: cpu_secs / ops,
        setup_secs,
        op_secs,
        gate,
    })
}

/// The timed region's budget (`--seconds`): operations repeat while
/// one more of typical length still fits.
struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    fn start(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another operation fits, given the ones timed so far
    /// (the first always runs).
    fn allows_another(&self, op_secs: &[f64]) -> bool {
        op_secs.is_empty()
            || self.start.elapsed().as_secs_f64() + stats::median(op_secs) <= self.seconds
    }
}

/// Warm re-runs timed in a traced run: ten samples beyond the p95.
pub const TRACE_RERUNS: usize = 200;

/// Record the `rerun_*` metrics of a traced run's warm re-runs (wall
/// seconds each); returns their median.
pub fn set_rerun_layers(layers: &mut Layers, secs: &[f64]) -> f64 {
    let latency = Latency::of(secs);
    layers.set("rerun_ms_p50", 1e3 * latency.p50());
    layers.set_if("rerun_ms_p95", latency.tail(950).map(|s| 1e3 * s));
    layers.set("rerun_samples", latency.samples() as f64);
    latency.p50()
}
