//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a benchmark, the problem classes and
//! processor counts to sweep, the chain length to analyze, and the
//! machines to run on — everything `kc_regime sweep` needs to build a
//! campaign.  Specs are plain JSON so they can be committed next to
//! the goldens they generate:
//!
//! ```json
//! {
//!   "name": "regime-small",
//!   "benchmark": "BT",
//!   "classes": ["S", "W", "A"],
//!   "procs": [4, 9, 16, 25],
//!   "chain_len": 2,
//!   "machines": ["ibm-sp-p2sc", "multicore-smp"],
//!   "noise_free": true
//! }
//! ```

use kc_machine::MachineConfig;
use kc_npb::{Benchmark, Class};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// A declarative sweep over `problem size x p x machine`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Spec name (appears in the regime map header).
    pub name: String,
    /// Benchmark to sweep: `BT`, `SP` or `LU` (case-insensitive).
    pub benchmark: String,
    /// Problem classes, by letter (`S`, `W`, `A`, `B`).
    pub classes: Vec<String>,
    /// Processor counts; each must be admissible for the benchmark
    /// (BT/SP: perfect squares, LU: powers of two).
    pub procs: Vec<usize>,
    /// Coupling chain length `L` to analyze.
    pub chain_len: usize,
    /// Machine preset names (see [`machine_by_name`]).
    pub machines: Vec<String>,
    /// Strip timer noise from every machine (exact, reproducible
    /// coupling values).
    #[serde(default)]
    pub noise_free: bool,
}

/// Errors loading or validating a sweep spec.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Resolve a machine preset by the name its config reports.
pub fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "ibm-sp-p2sc" => Some(MachineConfig::ibm_sp_p2sc()),
        "ethernet-cluster" => Some(MachineConfig::ethernet_cluster()),
        "multicore-smp" => Some(MachineConfig::multicore_smp()),
        "test-tiny" => Some(MachineConfig::test_tiny()),
        _ => None,
    }
}

/// All preset names [`machine_by_name`] accepts.
pub const MACHINE_NAMES: [&str; 4] = [
    "ibm-sp-p2sc",
    "ethernet-cluster",
    "multicore-smp",
    "test-tiny",
];

impl SweepSpec {
    /// Parse a spec from JSON and validate it.
    pub fn parse(json: &str) -> Result<Self, SpecError> {
        let spec: SweepSpec = serde_json::from_str(json)
            .map_err(|e| SpecError(format!("invalid sweep spec: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Load a spec from a JSON file.
    pub fn load(path: &Path) -> Result<Self, SpecError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&json)
    }

    /// Check every field resolves; the sweep functions rely on this.
    pub fn validate(&self) -> Result<(), SpecError> {
        let bench = self.benchmark()?;
        if self.classes.is_empty() {
            return Err(SpecError("spec has no classes".into()));
        }
        if self.procs.is_empty() {
            return Err(SpecError("spec has no processor counts".into()));
        }
        if self.machines.is_empty() {
            return Err(SpecError("spec has no machines".into()));
        }
        if self.chain_len == 0 {
            return Err(SpecError("chain_len must be at least 1".into()));
        }
        self.class_list()?;
        for &p in &self.procs {
            if !bench.valid_procs(p) {
                return Err(SpecError(format!(
                    "p={p} is not admissible for {bench} \
                     (BT/SP need perfect squares, LU powers of two)"
                )));
            }
        }
        for m in &self.machines {
            if machine_by_name(m).is_none() {
                return Err(SpecError(format!(
                    "unknown machine '{m}' (known: {})",
                    MACHINE_NAMES.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// The benchmark this spec sweeps.
    pub fn benchmark(&self) -> Result<Benchmark, SpecError> {
        Benchmark::from_name(&self.benchmark).ok_or_else(|| {
            SpecError(format!(
                "unknown benchmark '{}' (expected BT, SP or LU)",
                self.benchmark.to_ascii_lowercase()
            ))
        })
    }

    /// The classes, in spec order.
    pub fn class_list(&self) -> Result<Vec<Class>, SpecError> {
        self.classes
            .iter()
            .map(|c| {
                Class::from_name(c).ok_or_else(|| {
                    SpecError(format!(
                        "unknown class '{}' (expected S, W, A or B)",
                        c.to_ascii_uppercase()
                    ))
                })
            })
            .collect()
    }

    /// The machine configs, in spec order, with the spec's noise
    /// policy applied.
    pub fn machine_configs(&self) -> Result<Vec<MachineConfig>, SpecError> {
        self.machines
            .iter()
            .map(|m| {
                let cfg = machine_by_name(m)
                    .ok_or_else(|| SpecError(format!("unknown machine '{m}'")))?;
                Ok(if self.noise_free {
                    cfg.without_noise()
                } else {
                    cfg
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> &'static str {
        r#"{
            "name": "t",
            "benchmark": "BT",
            "classes": ["S", "W"],
            "procs": [4, 9],
            "chain_len": 2,
            "machines": ["ibm-sp-p2sc", "multicore-smp"],
            "noise_free": true
        }"#
    }

    #[test]
    fn parses_and_resolves() {
        let spec = SweepSpec::parse(small()).unwrap();
        assert_eq!(spec.benchmark().unwrap(), Benchmark::Bt);
        assert_eq!(spec.class_list().unwrap(), vec![Class::S, Class::W]);
        let machines = spec.machine_configs().unwrap();
        assert_eq!(machines.len(), 2);
        assert_eq!(machines[0].timer.noise_floor, 0.0, "noise_free applies");
        assert!(machines[1].node.is_some());
    }

    #[test]
    fn noise_free_defaults_to_false() {
        let json = small().replace(",\n            \"noise_free\": true", "");
        let spec = SweepSpec::parse(&json).unwrap();
        assert!(!spec.noise_free);
        assert_ne!(spec.machine_configs().unwrap()[0].timer.noise_floor, 0.0);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for (needle, replacement, msg) in [
            ("\"BT\"", "\"XX\"", "unknown benchmark"),
            ("[\"S\", \"W\"]", "[]", "no classes"),
            ("[4, 9]", "[4, 10]", "not admissible"),
            ("[4, 9]", "[]", "no processor counts"),
            ("\"ibm-sp-p2sc\"", "\"cray-t3e\"", "unknown machine"),
            ("2,", "0,", "chain_len"),
        ] {
            let json = small().replace(needle, replacement);
            let err = SweepSpec::parse(&json).unwrap_err();
            assert!(err.0.contains(msg), "{needle} -> {err}");
        }
    }
}
