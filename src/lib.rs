//! # kernel-couplings
//!
//! A full reproduction of *"Using Kernel Couplings to Predict Parallel
//! Application Performance"* (Taylor, Wu, Geisler, Stevens — HPDC
//! 2002) as a Rust workspace, from the coupling algebra down to the
//! NAS Parallel Benchmarks it was evaluated on and the (simulated)
//! IBM SP they ran on.
//!
//! This crate is the facade: it re-exports the workspace's public
//! surface so downstream users can depend on one crate.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`coupling`] | `kc-core` | coupling values, composition coefficients, predictors |
//! | [`npb`] | `kc-npb` | BT / SP / LU benchmarks, kernel-decomposed |
//! | [`machine`] | `kc-machine` | the deterministic simulated cluster |
//! | [`cachesim`] | `kc-cachesim` | multi-level set-associative cache simulator |
//! | [`grid`] | `kc-grid` | arrays, decompositions, process topologies |
//! | [`experiments`] | `kc-experiments` | regenerators for every paper table |
//! | [`prophesy`] | `kc-prophesy` | the cell store: `CellBackend`, `StoreSpec`, JSON and sharded formats |
//! | [`regime`] | `kc-regime` | sweep campaigns, change-point detection, regime maps |
//! | [`serve`] | `kc-serve` | online batched prediction service (wire protocol, server, metrics) |
//! | [`loadgen`] | `kc-loadgen` | open-loop load generator and fault-injecting SLO harness |
//!
//! ## Quickstart
//!
//! Measure couplings of a benchmark on the simulated SP and predict
//! its execution time two ways:
//!
//! ```
//! use kernel_couplings::coupling::{ChainExecutor, CouplingAnalysis, Predictor};
//! use kernel_couplings::machine::MachineConfig;
//! use kernel_couplings::npb::{Benchmark, Class, ExecConfig, NpbApp, NpbExecutor};
//!
//! let app = NpbApp::new(Benchmark::Bt, Class::S, 4);
//! let machine = MachineConfig::ibm_sp_p2sc().without_noise();
//! let mut exec = NpbExecutor::new(app, machine, ExecConfig::default());
//!
//! let analysis = CouplingAnalysis::collect(&mut exec, 2, 5).unwrap();
//! let actual = analysis.actual().mean();
//! let coupled = analysis.predict(Predictor::coupling(2)).unwrap();
//! let summed = analysis.predict(Predictor::Summation).unwrap();
//!
//! // the paper's headline: coupling-aware composition beats naive summation
//! assert!((coupled - actual).abs() < (summed - actual).abs());
//! ```

/// The coupling model (re-export of `kc-core`).
pub mod coupling {
    pub use kc_core::*;
}

/// The NAS Parallel Benchmarks BT/SP/LU (re-export of `kc-npb`).
pub mod npb {
    pub use kc_npb::*;
}

/// The simulated cluster (re-export of `kc-machine`).
pub mod machine {
    pub use kc_machine::*;
}

/// The cache simulator (re-export of `kc-cachesim`).
pub mod cachesim {
    pub use kc_cachesim::*;
}

/// Structured-grid substrate (re-export of `kc-grid`).
pub mod grid {
    pub use kc_grid::*;
}

/// Paper-table regenerators (re-export of `kc-experiments`).
pub mod experiments {
    pub use kc_experiments::*;
}

/// The cell store of raw measurements (re-export of `kc-prophesy`).
pub mod prophesy {
    pub use kc_prophesy::*;
}

/// The coupling-regime explorer (re-export of `kc-regime`).
pub mod regime {
    pub use kc_regime::*;
}

/// The online prediction service (re-export of `kc-serve`).
pub mod serve {
    pub use kc_serve::*;
}

/// Load generation and SLO checking (re-export of `kc-loadgen`).
pub mod loadgen {
    pub use kc_loadgen::*;
}
