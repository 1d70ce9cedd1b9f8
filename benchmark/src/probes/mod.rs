//! In-process probes: timed calls into each crate's public functions,
//! every call wrapped in a harness-side span, normalised by the work
//! the layer did (ns per cache-line access, ns per message, ...).
//!
//! A probe repeats its measurement [`REPS`] times.  Its timing is the
//! median; its exact results — counts and simulated statistics — must
//! agree between repetitions, or the run fails.

mod cachesim;
mod coupling;
mod machine;
mod npb;
mod prophesy;
mod regime;
mod serve;

use crate::harness::Env;
use crate::report::{Gate, Layers};
use crate::spans::Tracer;
use crate::stats;
use std::fmt::Debug;
use std::io;
use std::time::Instant;

/// Repetitions of each probe.
const REPS: usize = 3;

/// What the probes write to and report through.
pub struct Bench<'a> {
    pub env: &'a Env,
    pub seed: u64,
    pub tracer: &'a mut Tracer,
    pub layers: &'a mut Layers,
    pub gate: Gate,
}

impl Bench<'_> {
    /// Run `measurement` [`REPS`] times inside a span `name`.  Each
    /// repetition returns the seconds it timed and its exact results;
    /// returns the median seconds and the exact results, after
    /// checking that every repetition produced the same ones.
    pub fn repeat<X: PartialEq + Debug>(
        &mut self,
        name: &str,
        mut measurement: impl FnMut() -> io::Result<(f64, X)>,
    ) -> io::Result<(f64, X)> {
        let mut secs = Vec::with_capacity(REPS);
        let mut exact: Option<X> = None;
        let mut agreed = Ok(());
        self.tracer.span(name, |tracer| {
            for _ in 0..REPS {
                let (s, x) = tracer.span("call", |_| measurement())?;
                secs.push(s);
                match &exact {
                    Some(first) if *first != x => {
                        agreed = Err(format!(
                            "{name}: exact results differ between repetitions: {first:?} vs {x:?}"
                        ));
                    }
                    Some(_) => {}
                    None => exact = Some(x),
                }
            }
            io::Result::Ok(())
        })?;
        self.gate.check(agreed);
        Ok((stats::median(&secs), exact.expect("REPS is at least one")))
    }
}

/// Seconds `f` takes, and what it returns.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Run every layer's probes.
pub fn run_all(env: &Env, seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> io::Result<Gate> {
    tracer.span("probes", |tracer| {
        let mut bench = Bench {
            env,
            seed,
            tracer,
            layers,
            gate: Gate::default(),
        };
        cachesim::run(&mut bench)?;
        machine::run(&mut bench)?;
        npb::run(&mut bench)?;
        coupling::run(&mut bench)?;
        prophesy::run(&mut bench)?;
        serve::run(&mut bench)?;
        regime::run(&mut bench)?;
        Ok(bench.gate)
    })
}
