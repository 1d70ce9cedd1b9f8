//! The metric vocabulary (names and units, in the order
//! `BENCHMARK.json` lists them), the correctness gate, and the
//! result a run prints.

use crate::stats;
use serde::Value;
use std::collections::BTreeMap;

/// The workloads, in round-robin order.
pub const WORKLOADS: [&str; 4] = [
    "tables_cold",
    "tables_warm",
    "regime_sweep",
    "serve_session",
];

/// End-to-end metrics `(name, unit)`: every workload reports each of
/// them for its own unit operation (see the README's workload table).
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`; prefix = the crate measured.  A
/// traced run reports all of them; one whose layer the workload does
/// not reach reads 0.
pub const PER_LAYER: [(&str, &str); 92] = [
    ("cachesim.ns_per_line.l1_fit", "ns"),
    ("cachesim.ns_per_line.l2_fit", "ns"),
    ("cachesim.ns_per_line.mem_stream", "ns"),
    ("cachesim.ns_per_line.strided", "ns"),
    ("cachesim.ns_per_line.smp_shared_llc", "ns"),
    ("cachesim.mem_miss_share.l1_fit", "share"),
    ("cachesim.mem_miss_share.l2_fit", "share"),
    ("cachesim.mem_miss_share.mem_stream", "share"),
    ("cachesim.mem_miss_share.strided", "share"),
    ("cachesim.mem_miss_share.smp_shared_llc", "share"),
    ("machine.ns_per_msg.ring_p4", "ns"),
    ("machine.ns_per_msg.ring_p32", "ns"),
    ("machine.ns_per_msg.halo_p16_8k", "ns"),
    ("machine.us_per_barrier.p32", "us"),
    ("machine.us_per_allreduce.p32", "us"),
    ("machine.us_per_dispatch.p8", "us"),
    ("machine.us_per_dispatch.p32", "us"),
    ("machine.virt_s.ring_p32", "s"),
    ("npb.cell_ms.sp_b_p9", "ms"),
    ("npb.ns_per_line.sp_b_p9", "ns"),
    ("npb.us_per_msg.sp_b_p9", "us"),
    ("npb.lines.sp_b_p9", "count"),
    ("npb.msgs.sp_b_p9", "count"),
    ("npb.cell_ms.lu_b_p32", "ms"),
    ("npb.ns_per_line.lu_b_p32", "ns"),
    ("npb.us_per_msg.lu_b_p32", "us"),
    ("npb.lines.lu_b_p32", "count"),
    ("npb.msgs.lu_b_p32", "count"),
    ("npb.cell_ms.bt_a_p16", "ms"),
    ("npb.ns_per_line.bt_a_p16", "ns"),
    ("npb.us_per_msg.bt_a_p16", "us"),
    ("npb.lines.bt_a_p16", "count"),
    ("npb.msgs.bt_a_p16", "count"),
    ("npb.cell_ms.lu_w_p32", "ms"),
    ("npb.ns_per_line.lu_w_p32", "ns"),
    ("npb.us_per_msg.lu_w_p32", "us"),
    ("npb.lines.lu_w_p32", "count"),
    ("npb.msgs.lu_w_p32", "count"),
    ("npb.cell_ms.bt_s_p16", "ms"),
    ("npb.ns_per_line.bt_s_p16", "ns"),
    ("npb.us_per_msg.bt_s_p16", "us"),
    ("npb.lines.bt_s_p16", "count"),
    ("npb.msgs.bt_s_p16", "count"),
    ("npb.numeric_ms.bt_s_p4", "ms"),
    ("experiments.cells_executed", "count"),
    ("experiments.cache_hits", "count"),
    ("experiments.backend_hits", "count"),
    ("experiments.cell_busy_s.bt", "s"),
    ("experiments.cell_busy_s.sp", "s"),
    ("experiments.cell_busy_s.lu", "s"),
    ("experiments.worker_busy_share", "share"),
    ("experiments.cpu_s", "s"),
    ("experiments.trace_overhead_share", "share"),
    ("experiments.coupling_err_pct", "%"),
    ("core.us_per_analysis", "us"),
    ("core.ns_per_cache_hit", "ns"),
    ("core.ns_per_trace_event", "ns"),
    ("core.summation_err_pct", "%"),
    ("prophesy.open_ms.sidecar", "ms"),
    ("prophesy.open_ms.scan", "ms"),
    ("prophesy.open_ms.json", "ms"),
    ("prophesy.get_us.hot", "us"),
    ("prophesy.get_us.indexed_miss", "us"),
    ("prophesy.get_us.absent", "us"),
    ("prophesy.append_us", "us"),
    ("prophesy.flush_ms", "ms"),
    ("prophesy.compact_ms", "ms"),
    ("prophesy.json_save_ms", "ms"),
    ("prophesy.bytes_per_cell", "B"),
    ("prophesy.hot_hit_share.big", "share"),
    ("serve.inproc_hit_us_p50", "us"),
    ("serve.codec_ns_per_frame", "ns"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.sync_ms_p50", "ms"),
    ("serve.hit_ms_p50_r500", "ms"),
    ("serve.hit_ms_p90_r500", "ms"),
    ("serve.hit_ms_p99_r500", "ms"),
    ("serve.hit_ms_p50_r2000", "ms"),
    ("serve.hit_ms_p90_r2000", "ms"),
    ("serve.hit_ms_p99_r2000", "ms"),
    ("serve.max_rate_in_limit_rps", "1/s"),
    ("serve.sat_rps_w32", "1/s"),
    ("serve.batch_mean", "count"),
    ("serve.miss_cells_executed", "count"),
    ("serve.gen_late_ms_p99", "ms"),
    ("regime.us_per_detect.n12", "us"),
    ("regime.us_per_detect.n200", "us"),
    ("regime.sweep_warm_inproc_ms", "ms"),
    ("rerun_ms_p50", "ms"),
    ("rerun_ms_p95", "ms"),
    ("rerun_samples", "count"),
];

/// Counts operations and collects what went wrong with them.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Count one operation; `outcome` says whether its outputs were
    /// what they must be.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// What one end-to-end run of a workload measured.
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Wall seconds of each unit operation.
    pub op_secs: Vec<f64>,
    /// Operations completed per second at the workload's maximum
    /// offered concurrency.
    pub ops_per_s: f64,
    /// CPU seconds the children used in the timed region, per
    /// operation completed in it.
    pub cpu_secs_per_op: f64,
    pub gate: Gate,
}

impl Outcome {
    /// The end-to-end metric values, keyed by name.
    pub fn metrics(&self, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
        let ops = stats::sorted(&self.op_secs);
        BTreeMap::from([
            ("op_ms_p50", 1e3 * kc_core::quantile(&ops, 0.5)),
            ("op_ms_p95", 1e3 * kc_core::quantile(&ops, 0.95)),
            ("ops_per_s", self.ops_per_s),
            ("cpu_ms_per_op", 1e3 * self.cpu_secs_per_op),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", stats::median(&self.setup_secs)),
        ])
    }
}

/// Per-layer values collected during a traced run, keyed by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `name`; it must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let known = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.0.insert(known.0, value);
    }

    /// Record `name` when the measurement supports a value for it;
    /// otherwise say so and leave it unreported (it reads 0).
    pub fn set_if(&mut self, name: &str, value: Option<f64>) {
        match value {
            Some(v) => self.set(name, v),
            None => eprintln!("{name}: unresolved in this run"),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every per-layer metric in listed order, 0 for layers the
    /// workload did not reach.
    pub fn values(&self) -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .map(|(n, _)| (*n, self.0.get(n).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// The one-line JSON result the driver reads: `vocabulary` fixes the
/// metrics and their order.
pub fn result_json(
    gate: &Gate,
    vocabulary: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Value {
    let metrics = vocabulary
        .iter()
        .map(|(name, unit)| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(values[name])),
                ("unit".into(), Value::Str((*unit).into())),
            ]);
            ((*name).to_string(), entry)
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(gate.failures.is_empty())),
        ("attempted".into(), Value::UInt(gate.attempted)),
        ("failed".into(), Value::UInt(gate.failures.len() as u64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this module must name the same workloads
    /// and metrics with the same units, in the same order.
    #[test]
    fn vocabulary_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |section: &str, second: &str| -> Vec<(String, String)> {
            let Value::Array(items) = &spec[section] else {
                panic!("{section} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m[second].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(listed("per_layer", "unit"), own(&PER_LAYER));
        let names: Vec<String> = listed("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn gate_counts_operations_and_failures() {
        let mut g = Gate::default();
        g.check(Ok(()));
        g.check(Err("tables differ".into()));
        let mut other = Gate::default();
        other.check(Ok(()));
        g.absorb(other);
        assert_eq!(g.attempted, 3);
        assert_eq!(g.failures, vec!["tables differ".to_string()]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut gate = Gate::default();
        gate.check(Ok(()));
        let outcome = Outcome {
            setup_secs: vec![0.5, 0.25, 0.75],
            op_secs: vec![0.002, 0.004, 0.003],
            ops_per_s: 300.0,
            cpu_secs_per_op: 0.001,
            gate: Gate::default(),
        };
        let json = result_json(&gate, &END_TO_END, &outcome.metrics(40.0));
        let text = serde_json::to_string(&json).unwrap();
        assert!(!text.contains('\n'));
        let Value::Object(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json["correct"], true);
        assert_eq!(json["metrics"]["op_ms_p50"]["value"], 3.0);
        let p95 = json["metrics"]["op_ms_p95"]["value"].as_f64().unwrap();
        assert!((p95 - 3.9).abs() < 1e-9, "interpolated towards the slowest");
        assert_eq!(json["metrics"]["setup_s"]["value"], 0.5);
        assert_eq!(json["metrics"]["setup_s"]["unit"], "s");
    }

    #[test]
    fn unreached_layers_read_zero() {
        let mut layers = Layers::default();
        layers.set("serve.batch_mean", 3.5);
        let values = layers.values();
        assert_eq!(values.len(), PER_LAYER.len());
        assert_eq!(values["serve.batch_mean"], 3.5);
        assert_eq!(values["regime.us_per_detect.n12"], 0.0);
    }
}
