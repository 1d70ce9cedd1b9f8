//! `kc-benchmark`: end-to-end and per-layer measurements of the
//! kernel-couplings binaries and crates.
//!
//! ```text
//! kc-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! kc-benchmark run    [--seed N] [--seconds S] [--rounds R]    every workload, round-robin
//! kc-benchmark repeat [--seed N] [--seconds S] [--rounds R]    two sets of `run`, compared
//! kc-benchmark trace  [--seed N]                               the traced run of every workload
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

mod campaign_trace;
mod harness;
mod probes;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use harness::{Env, OUT_DIR};
use report::{Gate, Layers, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use spans::Tracer;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: kc-benchmark --workload NAME --seed N --seconds S --trace 0|1
       kc-benchmark run    [--seed N] [--seconds S] [--rounds R]
       kc-benchmark repeat [--seed N] [--seconds S] [--rounds R]
       kc-benchmark trace  [--seed N]
workloads: tables_cold tables_warm regime_sweep serve_session";

/// Command-line options; which apply depends on the mode.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    rounds: usize,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 20.0,
        rounds: 3,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                o.workload = Some(value.clone());
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--rounds" => {
                o.rounds = value.parse().map_err(|_| bad())?;
                if o.rounds == 0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "repeat" | "trace")) => (m, &args[1..]),
        _ => ("one", &args[..]),
    };
    let options = match parse_options(rest) {
        Ok(o) if mode != "one" || o.workload.is_some() => o,
        Ok(_) => {
            eprintln!("error: --workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = Env::locate().and_then(|env| match mode {
        "one" => one_run(&env, &options),
        "run" => run_set(&options).map(|set| set.correct),
        "repeat" => repeat(&options),
        _ => trace_all(&env, &options),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // the driver's single run reports wrong outputs in its result
        // line; the other modes fail
        Ok(false) if mode == "one" => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One end-to-end run of `workload`.
fn measure(env: &Env, workload: &str, seed: u64, seconds: f64) -> io::Result<Outcome> {
    match workload {
        "tables_cold" => workloads::tables::run_cold(env, seconds),
        "tables_warm" => workloads::tables::run_warm(env, seconds),
        "regime_sweep" => workloads::regime::run(env, seconds),
        "serve_session" => workloads::serve::run(env, seed, seconds),
        other => unreachable!("`{other}` passed option parsing"),
    }
}

/// The traced variant of `workload`: its children re-run with their
/// own `--trace` / `--metrics` flags where they have them.
fn measure_traced(
    env: &Env,
    workload: &str,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> io::Result<Gate> {
    tracer.span(workload, |tracer| match workload {
        "tables_cold" => workloads::tables::trace_cold(env, tracer, layers),
        "tables_warm" => workloads::tables::trace_warm(env, tracer, layers),
        "regime_sweep" => workloads::regime::trace(env, tracer, layers),
        "serve_session" => workloads::serve::trace(env, seed, tracer, layers),
        other => unreachable!("`{other}` passed option parsing"),
    })
}

/// `serve.wire_ms_p50`: what the wire adds to a request — the TCP
/// closed-loop median of a traced `serve_session` minus the probes'
/// in-process one — when the run measured both.
fn derive_wire_time(session: &mut Layers, inproc_us: Option<f64>) {
    if let (Some(sync_ms), Some(inproc_us)) = (session.get("serve.sync_ms_p50"), inproc_us) {
        session.set("serve.wire_ms_p50", sync_ms - inproc_us / 1e3);
    }
}

fn report_failures(workload: &str, gate: &Gate) {
    for why in &gate.failures {
        eprintln!("{workload}: FAILED: {why}");
    }
}

fn print_metrics(vocabulary: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) {
    for (name, unit) in vocabulary {
        eprintln!("  {name:<42} {:>16.6} {unit}", values[name]);
    }
}

fn write_out(name: &str, json: &Value) -> io::Result<()> {
    let text = serde_json::to_string_pretty(json).map_err(io::Error::other)?;
    std::fs::write(Path::new(OUT_DIR).join(name), text)
}

/// The driver's mode: one workload, one result line on stdout.
fn one_run(env: &Env, o: &Options) -> io::Result<bool> {
    let workload = o.workload.as_deref().expect("checked by main");
    let (gate, vocabulary, values): (Gate, &[(&str, &str)], _) = if o.trace {
        let mut tracer = Tracer::new(true);
        let mut layers = Layers::default();
        let mut gate = measure_traced(env, workload, o.seed, &mut tracer, &mut layers)?;
        gate.absorb(probes::run_all(env, o.seed, &mut tracer, &mut layers)?);
        let inproc_us = layers.get("serve.inproc_hit_us_p50");
        derive_wire_time(&mut layers, inproc_us);
        write_out("trace.json", &tracer.to_json())?;
        (gate, &PER_LAYER, layers.values())
    } else {
        let outcome = measure(env, workload, o.seed, o.seconds)?;
        let shown: Vec<String> = outcome
            .op_secs
            .iter()
            .take(8)
            .map(|s| format!("{:.1}", 1e3 * s))
            .collect();
        eprintln!(
            "{workload}: {} operations timed, in order (ms): {} ...",
            outcome.op_secs.len(),
            shown.join(" ")
        );
        let values = outcome.metrics(sys::waited_children().peak_rss_mb);
        (outcome.gate, &END_TO_END, values)
    };
    eprintln!("{workload} (seed {}, trace {}):", o.seed, u8::from(o.trace));
    print_metrics(vocabulary, &values);
    report_failures(workload, &gate);
    let line = serde_json::to_string(&report::result_json(&gate, vocabulary, &values))
        .map_err(io::Error::other)?;
    println!("{line}");
    Ok(gate.failures.is_empty())
}

/// Medians over rounds of every end-to-end metric of every workload.
struct Set {
    medians: BTreeMap<&'static str, BTreeMap<&'static str, f64>>,
    correct: bool,
}

/// `run`: the four workloads round-robin for `--rounds` rounds, so
/// machine drift lands on all of them alike.  Each run is this
/// program started again in the driver's mode: the numbers are taken
/// exactly as the driver takes them, and a run's peak RSS covers its
/// own children only.
fn run_set(o: &Options) -> io::Result<Set> {
    let exe = std::env::current_exe()?;
    let mut samples: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut attempted = 0;
    let mut failed = 0;
    for round in 1..=o.rounds {
        for workload in WORKLOADS {
            eprintln!("round {round}/{}:", o.rounds);
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result: Value = match (out.status.success(), stdout.lines().last()) {
                (true, Some(line)) => serde_json::from_str(line).map_err(io::Error::other)?,
                _ => return Err(io::Error::other(format!("the {workload} run failed"))),
            };
            let number = |v: &Value| {
                v.as_f64()
                    .ok_or_else(|| io::Error::other("result line without a number"))
            };
            attempted += number(&result["attempted"])? as u64;
            failed += number(&result["failed"])? as u64;
            for (name, _) in END_TO_END {
                let value = number(&result["metrics"][name]["value"])?;
                samples
                    .entry(workload)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
        }
    }
    let medians: BTreeMap<_, BTreeMap<_, _>> = samples
        .into_iter()
        .map(|(w, metrics)| {
            let medians = metrics
                .into_iter()
                .map(|(m, values)| (m, stats::median(&values)))
                .collect();
            (w, medians)
        })
        .collect();

    eprintln!(
        "median of {} round(s), {} s each, seed {}; {attempted} operations, {failed} failed",
        o.rounds, o.seconds, o.seed
    );
    eprint!("{:<20}", "metric");
    for w in WORKLOADS {
        eprint!(" {w:>15}");
    }
    eprintln!();
    for (name, unit) in END_TO_END {
        eprint!("{:<20}", format!("{name} [{unit}]"));
        for w in WORKLOADS {
            eprint!(" {:>15.4}", medians[w][name]);
        }
        eprintln!();
    }
    let json = Value::Object(
        medians
            .iter()
            .map(|(w, metrics)| {
                let fields = metrics
                    .iter()
                    .map(|(m, v)| (m.to_string(), Value::Float(*v)))
                    .collect();
                (w.to_string(), Value::Object(fields))
            })
            .collect(),
    );
    write_out("result.json", &json)?;
    Ok(Set {
        medians,
        correct: failed == 0,
    })
}

/// `(better, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn read_bounds() -> io::Result<BTreeMap<String, (String, f64)>> {
    let bad = |what: &str| io::Error::other(format!("BENCHMARK.json: {what}"));
    let text = std::fs::read_to_string("BENCHMARK.json")?;
    let spec: Value = serde_json::from_str(&text).map_err(io::Error::other)?;
    let Value::Array(metrics) = &spec["end_to_end"] else {
        return Err(bad("no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or(bad("metric without a name"))?;
            let better = m["better"].as_str().ok_or(bad("metric without `better`"))?;
            let bound = m["bound"].as_f64().ok_or(bad("metric without a bound"))?;
            Ok((name.to_string(), (better.to_string(), bound)))
        })
        .collect()
}

/// `repeat`: two sets of the same build must agree within the bounds
/// `BENCHMARK.json` fixes, or the benchmark cannot tell a regression
/// from noise.
fn repeat(o: &Options) -> io::Result<bool> {
    let bounds = read_bounds()?;
    let first = run_set(o)?;
    let second = run_set(o)?;
    let mut agree = first.correct && second.correct;
    eprintln!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for w in WORKLOADS {
        for (name, _) in END_TO_END {
            let (a, b) = (first.medians[w][name], second.medians[w][name]);
            let (better, bound) = &bounds[name];
            // how much worse the second set reads, as a share of the first
            let worse = if better == "lower" {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let verdict = if worse > *bound { "DISAGREE" } else { "" };
            agree &= worse <= *bound;
            eprintln!(
                "{w:<14} {name:<14} {a:>12.4} {b:>12.4} {:>7.1}% {:>5.0}% {verdict}",
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    Ok(agree)
}

/// `trace`: the traced run of every workload plus the layer probes,
/// with one span file for all of it.
fn trace_all(env: &Env, o: &Options) -> io::Result<bool> {
    let mut tracer = Tracer::new(true);
    let mut probe_layers = Layers::default();
    let mut gate = probes::run_all(env, o.seed, &mut tracer, &mut probe_layers)?;
    report_failures("probes", &gate);
    let mut per_workload = Vec::new();
    for workload in WORKLOADS {
        let mut layers = Layers::default();
        let traced = measure_traced(env, workload, o.seed, &mut tracer, &mut layers)?;
        report_failures(workload, &traced);
        gate.absorb(traced);
        derive_wire_time(&mut layers, probe_layers.get("serve.inproc_hit_us_p50"));
        per_workload.push(layers);
    }
    write_out("trace.json", &tracer.to_json())?;

    eprintln!("layer probes (the same for every workload):");
    for (name, unit) in PER_LAYER {
        if let Some(v) = probe_layers.get(name) {
            eprintln!("  {name:<42} {v:>16.6} {unit}");
        }
    }
    eprintln!("from each workload's traced run (0 = the workload does not reach the layer):");
    eprint!("  {:<42}", "metric");
    for w in WORKLOADS {
        eprint!(" {w:>15}");
    }
    eprintln!();
    for (name, unit) in PER_LAYER {
        if probe_layers.get(name).is_some() {
            continue;
        }
        eprint!("  {:<42}", format!("{name} [{unit}]"));
        for layers in &per_workload {
            eprint!(" {:>15.4}", layers.get(name).unwrap_or(0.0));
        }
        eprintln!();
    }
    eprintln!(
        "{} operations, {} failed; spans in {OUT_DIR}/trace.json",
        gate.attempted,
        gate.failures.len()
    );
    Ok(gate.failures.is_empty())
}
