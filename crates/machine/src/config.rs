//! Machine model configuration and presets.

use kc_cachesim::counts::MAX_LEVELS;
use kc_cachesim::{derate_shared_llc, CacheConfig};
use serde::{DeError, Deserialize, Serialize, Value};

/// Processor compute model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Sustained floating-point rate (flop/s) for cache-resident work.
    pub flops_per_sec: f64,
}

impl CpuModel {
    /// Seconds for `n` floating-point operations.
    #[inline]
    pub fn flop_time(&self, n: u64) -> f64 {
        n as f64 / self.flops_per_sec
    }
}

/// Per-line service latencies of the memory hierarchy.
///
/// Lines served by L1 are considered covered by the sustained flop
/// rate (latency 0 by convention in the presets); deeper levels add
/// stall time per line.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemTiming {
    /// Seconds per line served at cache level i (0-based).
    pub hit_time: [f64; MAX_LEVELS],
    /// Seconds per line served by main memory.
    pub memory_time: f64,
}

/// LogGP-style network model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetModel {
    /// Sender CPU overhead per message (seconds).
    pub send_overhead: f64,
    /// Receiver CPU overhead per message (seconds).
    pub recv_overhead: f64,
    /// Wire latency (seconds).
    pub latency: f64,
    /// Wire bandwidth (bytes/second).
    pub bandwidth: f64,
    /// NIC injection bandwidth (bytes/second): consecutive sends from
    /// one rank serialize at this rate, so bursts of messages queue.
    pub injection_bandwidth: f64,
    /// Switch contention: effective latency is
    /// `latency * (1 + contention * (p - 1))` for a `p`-rank job,
    /// modelling the shared SP switch fabric.
    pub contention: f64,
}

impl NetModel {
    /// Effective wire latency for a job of `p` ranks.
    #[inline]
    pub fn effective_latency(&self, p: usize) -> f64 {
        self.latency * (1.0 + self.contention * (p.saturating_sub(1)) as f64)
    }

    /// Wire transfer time for a message of `bytes`.
    #[inline]
    pub(crate) fn transfer_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth
    }
}

/// Measurement-noise model for the simulated timers.
///
/// The paper's class-S predictions are poor because "the predicted
/// execution time is so small, that measuring errors get magnified
/// quickly"; this model reproduces that: a sampled time is the true
/// time plus a fixed noise floor plus a proportional term, both drawn
/// from a seeded deterministic generator.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimerModel {
    /// Standard deviation of the absolute noise floor (seconds) —
    /// timer granularity, interrupt jitter, daemon activity.
    pub noise_floor: f64,
    /// Standard deviation of the proportional noise (fraction of the
    /// true time).
    pub noise_frac: f64,
    /// Seed for the deterministic noise stream.
    pub seed: u64,
}

/// Node-level topology: how many ranks share a node (and therefore
/// its last-level cache).
///
/// The uniprocessor-per-rank machines of the paper's era have no node
/// model; multicore configs set one and the runtime derates the
/// shared LLC via [`MachineConfig::effective_for_ranks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeModel {
    /// Cores per node; ranks are packed densely, so up to this many
    /// ranks contend for the node's last cache level.
    pub cores_per_node: usize,
}

/// Full machine description.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name (appears in reports).
    pub name: String,
    /// Compute model.
    pub cpu: CpuModel,
    /// Cache levels, L1 first.
    pub caches: Vec<CacheConfig>,
    /// Memory timing.
    pub mem: MemTiming,
    /// Network model.
    pub net: NetModel,
    /// Timer noise model.
    pub timer: TimerModel,
    /// Record a per-rank communication event trace during runs
    /// (sends, receives and their wait times).  Off by default; useful
    /// for debugging pipeline schedules and for the trace-based
    /// examples.
    pub trace_comm: bool,
    /// Node topology for multicore machines (`None` = one rank per
    /// node, the paper-era default).
    pub node: Option<NodeModel>,
}

// Hand-written (de)serialization: the `node` field is emitted only
// when set.  `fingerprint()` hashes the canonical JSON form, and
// every cell in every persisted store embeds that fingerprint — so
// the legacy single-core configs must keep producing byte-identical
// JSON (a derive would emit `"node":null` and silently invalidate
// every golden cell store).
impl Serialize for MachineConfig {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("cpu".to_string(), self.cpu.to_value()),
            ("caches".to_string(), self.caches.to_value()),
            ("mem".to_string(), self.mem.to_value()),
            ("net".to_string(), self.net.to_value()),
            ("timer".to_string(), self.timer.to_value()),
            ("trace_comm".to_string(), self.trace_comm.to_value()),
        ];
        if let Some(node) = &self.node {
            fields.push(("node".to_string(), node.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for MachineConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = serde::__private::expect_object(v, "MachineConfig")?;
        Ok(MachineConfig {
            name: serde::__private::field(obj, "name")?,
            cpu: serde::__private::field(obj, "cpu")?,
            caches: serde::__private::field(obj, "caches")?,
            mem: serde::__private::field(obj, "mem")?,
            net: serde::__private::field(obj, "net")?,
            timer: serde::__private::field(obj, "timer")?,
            trace_comm: serde::__private::field_or_default(obj, "trace_comm")?,
            node: serde::__private::field_or_default(obj, "node")?,
        })
    }
}

impl MachineConfig {
    /// The calibrated stand-in for the paper's IBM SP: 120 MHz P2SC
    /// nodes (sustained ~120 Mflop/s here), 128 KiB L1, a 4 MiB
    /// second-level cache, and an SP-switch-like network (~30 us
    /// latency, ~90 MB/s).
    ///
    /// Capacities are chosen so the per-processor working sets of the
    /// paper's benchmark classes land in the same cache regimes the
    /// paper reports: BT class S fits in L1, class W spills L1 but fits
    /// L2, class A at small processor counts exceeds L2.
    pub fn ibm_sp_p2sc() -> Self {
        MachineConfig {
            name: "ibm-sp-p2sc".to_string(),
            cpu: CpuModel {
                flops_per_sec: 120.0e6,
            },
            caches: vec![
                CacheConfig {
                    capacity: 128 * 1024,
                    line: 128,
                    ways: 4,
                },
                CacheConfig {
                    capacity: 4 * 1024 * 1024,
                    line: 128,
                    ways: 8,
                },
            ],
            mem: MemTiming {
                hit_time: [0.0, 100.0e-9, 0.0, 0.0],
                memory_time: 600.0e-9,
            },
            net: NetModel {
                send_overhead: 12.0e-6,
                recv_overhead: 12.0e-6,
                latency: 30.0e-6,
                bandwidth: 90.0e6,
                injection_bandwidth: 120.0e6,
                contention: 0.02,
            },
            timer: TimerModel {
                noise_floor: 0.3e-3,
                noise_frac: 0.004,
                seed: 0x5eed_c0de,
            },
            trace_comm: false,
            node: None,
        }
    }

    /// A commodity Beowulf-style cluster of the same era: faster
    /// commodity CPUs, a smaller L2, and Fast-Ethernet-class
    /// networking (two orders of magnitude worse latency and an order
    /// less bandwidth than the SP switch).  Used by the cross-machine
    /// experiments: the coupling methodology predicts *relative*
    /// performance of different systems (paper §1), and the regimes
    /// move because the memory subsystem differs.
    pub fn ethernet_cluster() -> Self {
        MachineConfig {
            name: "ethernet-cluster".to_string(),
            cpu: CpuModel {
                flops_per_sec: 250.0e6,
            },
            caches: vec![
                CacheConfig {
                    capacity: 32 * 1024,
                    line: 128,
                    ways: 4,
                },
                CacheConfig {
                    capacity: 512 * 1024,
                    line: 128,
                    ways: 8,
                },
            ],
            mem: MemTiming {
                hit_time: [0.0, 80.0e-9, 0.0, 0.0],
                memory_time: 400.0e-9,
            },
            net: NetModel {
                send_overhead: 50.0e-6,
                recv_overhead: 50.0e-6,
                latency: 120.0e-6,
                bandwidth: 12.0e6,
                injection_bandwidth: 12.0e6,
                contention: 0.05,
            },
            timer: TimerModel {
                noise_floor: 0.3e-3,
                noise_frac: 0.004,
                seed: 0x5eed_c0de,
            },
            trace_comm: false,
            node: None,
        }
    }

    /// A tiny, fast machine for unit tests: single small cache level,
    /// cheap network, no timer noise.
    pub fn test_tiny() -> Self {
        MachineConfig {
            name: "test-tiny".to_string(),
            cpu: CpuModel {
                flops_per_sec: 1.0e9,
            },
            caches: vec![CacheConfig {
                capacity: 8 * 1024,
                line: 64,
                ways: 4,
            }],
            mem: MemTiming {
                hit_time: [0.0; MAX_LEVELS],
                memory_time: 100.0e-9,
            },
            net: NetModel {
                send_overhead: 1.0e-6,
                recv_overhead: 1.0e-6,
                latency: 5.0e-6,
                bandwidth: 100.0e6,
                injection_bandwidth: 200.0e6,
                contention: 0.0,
            },
            timer: TimerModel {
                noise_floor: 0.0,
                noise_frac: 0.0,
                seed: 1,
            },
            trace_comm: false,
            node: None,
        }
    }

    /// A 4-way multicore SMP node built from the same P2SC-class
    /// memory subsystem: private 128 KiB L1s, a **shared** 4 MiB LLC,
    /// and a slightly better interconnect (intra-node traffic rides
    /// shared memory).  With four ranks packed per node each rank's
    /// effective LLC share is 1 MiB (see
    /// [`MachineConfig::effective_for_ranks`]), which moves the
    /// working-set cache crossings — and therefore the coupling
    /// regimes — relative to the uniprocessor SP at the same problem
    /// sizes.
    pub fn multicore_smp() -> Self {
        MachineConfig {
            name: "multicore-smp".to_string(),
            cpu: CpuModel {
                flops_per_sec: 120.0e6,
            },
            caches: vec![
                CacheConfig {
                    capacity: 128 * 1024,
                    line: 128,
                    ways: 4,
                },
                CacheConfig {
                    capacity: 4 * 1024 * 1024,
                    line: 128,
                    ways: 8,
                },
            ],
            mem: MemTiming {
                hit_time: [0.0, 100.0e-9, 0.0, 0.0],
                memory_time: 600.0e-9,
            },
            net: NetModel {
                send_overhead: 8.0e-6,
                recv_overhead: 8.0e-6,
                latency: 20.0e-6,
                bandwidth: 150.0e6,
                injection_bandwidth: 200.0e6,
                contention: 0.015,
            },
            timer: TimerModel {
                noise_floor: 0.3e-3,
                noise_frac: 0.004,
                seed: 0x5eed_c0de,
            },
            trace_comm: false,
            node: Some(NodeModel { cores_per_node: 4 }),
        }
    }

    /// How many ranks of a `p`-rank job contend for one node's shared
    /// cache: ranks pack densely, so a node holds
    /// `min(p, cores_per_node)` of them (1 for machines without a node
    /// model).
    fn co_resident_ranks(&self, p: usize) -> usize {
        match &self.node {
            Some(node) => p.clamp(1, node.cores_per_node.max(1)),
            None => 1,
        }
    }

    /// The machine one rank of a `p`-rank job *effectively* runs on:
    /// identical to `self` except that the last cache level's capacity
    /// is split across the ranks co-resident on a node
    /// ([`kc_cachesim::derate_shared_llc`]).  Machines without a node
    /// model (or jobs with a single rank) are returned unchanged.
    ///
    /// Note this derates only the *performance model*; fingerprints
    /// and cell keys are always computed from the declared config, so
    /// the same cell never aliases across different `p` (the key
    /// already includes `p`).
    pub fn effective_for_ranks(&self, p: usize) -> Self {
        let sharers = self.co_resident_ranks(p);
        let mut eff = self.clone();
        if sharers > 1 {
            eff.caches = derate_shared_llc(&eff.caches, sharers);
        }
        eff
    }

    /// A copy with a node model (`cores_per_node` ranks share the
    /// last cache level).
    pub fn with_node(mut self, cores_per_node: usize) -> Self {
        self.node = Some(NodeModel { cores_per_node });
        self
    }

    /// A copy of this machine with all timer noise disabled; useful for
    /// tests that need exact times.
    pub fn without_noise(mut self) -> Self {
        self.timer.noise_floor = 0.0;
        self.timer.noise_frac = 0.0;
        self
    }

    /// A copy with a different noise seed (for repeated-measurement
    /// experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.timer.seed = seed;
        self
    }

    /// A copy with communication-event tracing enabled.
    pub fn with_comm_trace(mut self) -> Self {
        self.trace_comm = true;
        self
    }

    /// A content fingerprint of the full configuration: an FNV-1a hash
    /// of its canonical JSON form, as 16 hex digits.
    ///
    /// Any change anywhere in the config — a cache capacity, the
    /// network contention coefficient, the timer noise model or its
    /// seed — yields a different fingerprint, which is what lets
    /// measurement caches key cells on the machine they ran on and
    /// never serve a cell measured under different hardware.
    pub fn fingerprint(&self) -> String {
        let json = serde_json::to_string(self).expect("machine config serializes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_geometry_is_valid() {
        // constructing the hierarchy validates capacities/lines
        let cfg = MachineConfig::ibm_sp_p2sc();
        let h = kc_cachesim::CacheHierarchy::new(cfg.caches.clone());
        assert_eq!(h.depth(), 2);
        assert_eq!(h.capacity(0), 128 * 1024);
    }

    #[test]
    fn flop_time_scales() {
        let cpu = CpuModel {
            flops_per_sec: 100.0e6,
        };
        assert!((cpu.flop_time(100_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contention_grows_with_ranks() {
        let net = MachineConfig::ibm_sp_p2sc().net;
        assert!(net.effective_latency(25) > net.effective_latency(4));
        assert_eq!(net.effective_latency(1), net.latency);
    }

    #[test]
    fn without_noise_zeroes_timer() {
        let cfg = MachineConfig::ibm_sp_p2sc().without_noise();
        assert_eq!(cfg.timer.noise_floor, 0.0);
        assert_eq!(cfg.timer.noise_frac, 0.0);
    }

    #[test]
    fn fingerprint_tracks_configuration_content() {
        let base = MachineConfig::ibm_sp_p2sc();
        assert_eq!(base.fingerprint(), base.clone().fingerprint(), "stable");
        assert_eq!(base.fingerprint().len(), 16);
        assert_ne!(
            base.fingerprint(),
            MachineConfig::ethernet_cluster().fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.clone().without_noise().fingerprint()
        );
        assert_ne!(base.fingerprint(), base.clone().with_seed(99).fingerprint());
        let mut bigger_l2 = base.clone();
        bigger_l2.caches[1].capacity *= 2;
        assert_ne!(base.fingerprint(), bigger_l2.fingerprint());
    }

    #[test]
    fn single_core_configs_serialize_without_a_node_key() {
        // Fingerprints hash the JSON form; legacy configs must keep
        // producing the exact bytes they did before `node` existed.
        for cfg in [
            MachineConfig::ibm_sp_p2sc(),
            MachineConfig::ethernet_cluster(),
            MachineConfig::test_tiny(),
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            assert!(!json.contains("node"), "unexpected node key in {json}");
        }
        let multi = MachineConfig::multicore_smp();
        let json = serde_json::to_string(&multi).unwrap();
        assert!(json.contains("\"node\""));
        assert!(json.contains("\"cores_per_node\""));
    }

    #[test]
    fn machine_config_roundtrips_with_and_without_node() {
        for cfg in [MachineConfig::ibm_sp_p2sc(), MachineConfig::multicore_smp()] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: MachineConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn legacy_json_without_node_deserializes() {
        let json = serde_json::to_string(&MachineConfig::ibm_sp_p2sc()).unwrap();
        assert!(!json.contains("node"));
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node, None);
    }

    #[test]
    fn node_model_changes_the_fingerprint() {
        let base = MachineConfig::ibm_sp_p2sc();
        assert_ne!(base.fingerprint(), base.clone().with_node(4).fingerprint());
        assert_ne!(
            base.clone().with_node(2).fingerprint(),
            base.with_node(4).fingerprint()
        );
    }

    #[test]
    fn effective_for_ranks_derates_only_the_shared_llc() {
        let smp = MachineConfig::multicore_smp();
        // one rank: uncontended
        assert_eq!(smp.effective_for_ranks(1), smp);
        // two ranks: LLC halves
        let eff2 = smp.effective_for_ranks(2);
        assert_eq!(eff2.caches[1].capacity, 2 * 1024 * 1024);
        // four or more ranks: a node is full at 4 sharers
        for p in [4, 9, 16, 25] {
            let eff = smp.effective_for_ranks(p);
            assert_eq!(eff.caches[0], smp.caches[0], "L1 is private");
            assert_eq!(eff.caches[1].capacity, 1024 * 1024, "p={p}");
            assert_eq!(eff.net, smp.net, "network model untouched");
        }
        // machines without a node model never derate
        let sp = MachineConfig::ibm_sp_p2sc();
        assert_eq!(sp.effective_for_ranks(25), sp);
    }
}
