//! # kc-core
//!
//! The kernel-coupling performance model of Taylor, Wu, Geisler and
//! Stevens, *"Using Kernel Couplings to Predict Parallel Application
//! Performance"* (HPDC 2002).
//!
//! ## The model
//!
//! An application is decomposed into **kernels** — loops, procedures or
//! files, whatever granularity the analyst wants.  The application's
//! main loop executes some subsequence of them in a fixed control-flow
//! order.  Three kinds of measurements are taken, each with the
//! *loop protocol*: place the kernel (or chain of kernels) in a loop
//! that dominates execution time, subtract everything else, and divide
//! by the iteration count:
//!
//! * `P_k` — each kernel in isolation,
//! * `P_S` — each **chain** `S` of `L` consecutive kernels (cyclic
//!   windows over the loop body),
//! * the full application, as ground truth.
//!
//! The **coupling value** of a chain (paper Eq. 2) is
//!
//! ```text
//! C_S = P_S / Σ_{k ∈ S} P_k
//! ```
//!
//! `C_S = 1` means the kernels do not interact; `C_S < 1` is
//! *constructive* coupling (shared resources — e.g. one kernel's data
//! still resident in cache when the next runs); `C_S > 1` is
//! *destructive* coupling (interference — evictions, message
//! contention, compounded load imbalance).
//!
//! The **composition coefficients** turn coupling values into a
//! predictor: for each kernel `k`, `α_k` is the average of the coupling
//! values of every window containing `k`, weighted by the window's
//! measured time (paper Section 3):
//!
//! ```text
//! α_k = Σ_{W ∋ k} C_W · P_W / Σ_{W ∋ k} P_W
//! ```
//!
//! and the predicted loop time per iteration is `Σ_k α_k · E_k`, where
//! `E_k` is a per-kernel model — the measured `P_k` by default, or an
//! analytic model supplied by the caller.  The traditional baseline is
//! the **summation** predictor `Σ_k P_k` (all `α_k = 1`).
//!
//! ## Using the crate
//!
//! Implement [`ChainExecutor`] for your platform (the `kc-npb` crate
//! does this for the NAS benchmarks on the simulated cluster), then:
//!
//! ```
//! use kc_core::{ChainExecutor, CouplingAnalysis, Predictor, SyntheticExecutor};
//!
//! // a toy application whose kernels interact pairwise
//! let mut exec = SyntheticExecutor::builder()
//!     .kernel("a", 1.0)
//!     .kernel("b", 2.0)
//!     .kernel("c", 1.5)
//!     .interaction("a", "b", -0.3)   // constructive: b reuses a's data
//!     .interaction("b", "c", 0.2)    // destructive
//!     .loop_iterations(100)
//!     .build();
//!
//! let analysis = CouplingAnalysis::collect(&mut exec, 2, 50).unwrap();
//! let actual = exec.measure_application().mean();
//! let coupled = analysis.predict(Predictor::coupling(2)).unwrap();
//! let summed = analysis.predict(Predictor::Summation).unwrap();
//! assert!((coupled - actual).abs() < (summed - actual).abs());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cli;
pub mod coefficients;
pub mod error;
pub mod executor;
pub mod kernel;
pub mod measurement;
pub mod predict;
pub mod provider;
pub mod report;
pub mod reuse;
pub mod synthetic;
pub mod telemetry;
pub mod windows;

pub use analysis::CouplingAnalysis;
pub use coefficients::Coefficients;
pub use error::{CouplingError, KcError, KcResult};
pub use executor::ChainExecutor;
pub use kernel::{KernelId, KernelSet};
pub use measurement::Measurement;
pub use predict::{Prediction, Predictor};
pub use provider::{
    analysis_cells, assemble_analysis, CacheStats, CachedProvider, CellContext, CellKind,
    MeasurementBackend, MeasurementKey, MeasurementProvider,
};
pub use report::{CouplingRow, CouplingTable, PredictionRow, PredictionTable};
pub use reuse::{predict_with_reused_coefficients, ReuseCell, ReuseStudy};
pub use synthetic::SyntheticExecutor;
pub use telemetry::{
    canonicalize, quantile, read_jsonl, summarize, worker_label, write_jsonl, Disposition,
    FanoutSink, JsonLinesSink, MemorySink, RunSummary, SlowCell, SummarySink, TelemetryEvent,
    TelemetrySink,
};
pub use windows::ChainWindow;
