//! Reading what the programs' own `--trace` / `--out` outputs say
//! about the campaign layer (`kc-experiments`), for the traced run.

use crate::harness::CacheLine;
use crate::report::Layers;
use kc_core::telemetry::TelemetryEvent;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Executed-cell work found in a `--trace` event stream.
#[derive(Debug, Default, PartialEq)]
pub struct TraceDigest {
    /// `CellExecuted` events.
    pub executed: u64,
    /// Their summed host durations, by benchmark (`bt`, `sp`, `lu`;
    /// `BT#fine` counts as `bt`).
    pub busy_secs: BTreeMap<String, f64>,
}

impl TraceDigest {
    pub fn of(events: &[TelemetryEvent]) -> Self {
        let mut digest = Self::default();
        for event in events {
            if let TelemetryEvent::CellExecuted {
                key, duration_secs, ..
            } = event
            {
                digest.executed += 1;
                *digest.busy_secs.entry(benchmark_of(key)).or_default() += duration_secs;
            }
        }
        digest
    }

    pub fn busy_total(&self) -> f64 {
        // (an empty float sum is -0.0)
        self.busy_secs.values().sum::<f64>() + 0.0
    }
}

/// The benchmark a canonical cell key (`BT#fine|A|p4|...`) belongs to.
fn benchmark_of(key: &str) -> String {
    let name = key.split('|').next().unwrap_or(key);
    name.split('#').next().unwrap_or(name).to_lowercase()
}

/// Mean relative error (%) of the coupling predictor over every
/// `Coupling: ...` row of the table JSONs in `dir` — the paper's
/// headline number.  A simulated statistic: it repeats exactly.
pub fn coupling_err_pct(dir: &Path) -> Result<f64, String> {
    let mut errors = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let table: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        collect_coupling_errors(&table, &mut errors);
    }
    if errors.is_empty() {
        return Err(format!("{}: no coupling predictions", dir.display()));
    }
    Ok(errors.iter().sum::<f64>() / errors.len() as f64)
}

fn collect_coupling_errors(table: &Value, errors: &mut Vec<f64>) {
    let Value::Array(predictions) = &table["predictions"] else {
        return;
    };
    for prediction in predictions {
        let Value::Array(rows) = &prediction["rows"] else {
            continue;
        };
        for row in rows {
            let is_coupling = row["label"]
                .as_str()
                .is_some_and(|l| l.starts_with("Coupling"));
            if let (true, Value::Array(cells)) = (is_coupling, &row["cells"]) {
                errors.extend(cells.iter().filter_map(|c| c["rel_err_pct"].as_f64()));
            }
        }
    }
}

/// One traced child process, as the campaign layer saw it.
pub struct TracedChild<'a> {
    pub digest: &'a TraceDigest,
    pub cache: CacheLine,
    pub wall_secs: f64,
    pub cpu_secs: f64,
    /// Wall of the same operation without `--trace --metrics`, when
    /// the run measured one.
    pub untraced_wall_secs: Option<f64>,
}

/// Record the `experiments.*` layer metrics of a traced child (two
/// scheduler workers, as every child runs with `--jobs 2`).
pub fn set_experiments_layers(layers: &mut Layers, child: &TracedChild) {
    layers.set("experiments.cells_executed", child.digest.executed as f64);
    layers.set("experiments.cache_hits", child.cache.memory_hits as f64);
    layers.set("experiments.backend_hits", child.cache.backend_hits as f64);
    for bench in ["bt", "sp", "lu"] {
        let busy = child.digest.busy_secs.get(bench).copied().unwrap_or(0.0);
        layers.set(&format!("experiments.cell_busy_s.{bench}"), busy);
    }
    layers.set(
        "experiments.worker_busy_share",
        child.digest.busy_total() / (2.0 * child.wall_secs),
    );
    layers.set("experiments.cpu_s", child.cpu_secs);
    if let Some(untraced) = child.untraced_wall_secs {
        layers.set(
            "experiments.trace_overhead_share",
            child.wall_secs / untraced - 1.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_lines_sum_into_per_benchmark_busy_time() {
        let trace = r#"{"PhaseStarted":{"phase":"execute"}}
{"CellStarted":{"key":"BT|A|p4|chain:0|r5|w1t2mpb1ci|abc","worker":"w0"}}
{"CellExecuted":{"key":"BT|A|p4|chain:0|r5|w1t2mpb1ci|abc","duration_secs":0.25,"worker":"w0"}}
{"CellFinished":{"key":"BT|A|p4|chain:0|r5|w1t2mpb1ci|abc","disposition":"Executed","duration_secs":0.26,"worker":"w0"}}
{"CellExecuted":{"key":"BT#fine|S|p4|overhead|r1|w1t2mpb1ci|abc","duration_secs":0.5,"worker":"w1"}}
{"CellExecuted":{"key":"LU|B|p32|application|r1|w1t2mpb1ci|abc","duration_secs":2.0,"worker":"w1"}}
"#;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-trace-{}.jsonl", std::process::id()));
        std::fs::write(&path, trace).unwrap();
        let events = kc_core::telemetry::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let digest = TraceDigest::of(&events);
        assert_eq!(digest.executed, 3);
        assert_eq!(
            digest.busy_secs,
            BTreeMap::from([("bt".to_string(), 0.75), ("lu".to_string(), 2.0)])
        );
        assert_eq!(digest.busy_total(), 2.75);
    }

    #[test]
    fn coupling_rows_average_into_the_headline_error() {
        let table: Value = serde_json::from_str(
            r#"{"id":"t","couplings":[],"predictions":[{"title":"x","columns":["4","9"],"rows":[
                {"label":"Actual","cells":[{"time":1.0,"rel_err_pct":null},{"time":2.0,"rel_err_pct":null}]},
                {"label":"Summation","cells":[{"time":1.0,"rel_err_pct":20.0},{"time":2.0,"rel_err_pct":30.0}]},
                {"label":"Coupling: 2 kernels","cells":[{"time":1.0,"rel_err_pct":1.0},{"time":2.0,"rel_err_pct":3.0}]}
            ]}]}"#,
        )
        .unwrap();
        let mut errors = Vec::new();
        collect_coupling_errors(&table, &mut errors);
        assert_eq!(errors, vec![1.0, 3.0]);
    }
}
