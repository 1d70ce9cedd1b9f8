//! # kc-experiments
//!
//! Regenerates every table of the HPDC 2002 kernel-coupling paper on
//! the simulated IBM SP, plus the scaling/transition study and a set
//! of ablations the paper motivates.
//!
//! One module per paper table group:
//!
//! * [`bt`] — Tables 2a/2b (class S, pairs), 3a/3b (class W, triples),
//!   4a/4b (class A, quadruples).
//! * [`sp`] — Tables 6a/6b/6c (classes W/A/B, 4- and 5-kernel chains).
//! * [`lu`] — Tables 8a/8b/8c (classes W/A/B, 3-kernel chains).
//! * [`transitions`] — the paper's §4.1.4 finding: coupling values move
//!   through a finite number of regimes as problem size and processor
//!   count scale.
//! * [`ablations`] — our additions: chain-length sweep, cache-capacity
//!   sweep, network-contention sweep, timer-noise sweep.
//!
//! Everything funnels through [`runner::Runner`], which owns the
//! machine model and measurement protocol, and produces the typed
//! tables of `kc_core::report` (renderable as text, markdown and
//! JSON via [`render`]).
//!
//! The `paper_tables` binary drives it all:
//!
//! ```text
//! cargo run --release -p kc-experiments --bin paper_tables -- all --out artifacts/
//! ```

pub mod ablations;
pub mod analytic;
pub mod bt;
pub mod campaign;
pub mod cost;
pub mod granularity;
pub mod lu;
pub mod machines;
pub mod render;
pub mod reuse;
pub mod runner;
pub mod scheduler;
pub mod serve;
pub mod session;
pub mod sp;
pub mod transitions;

pub use campaign::{AnalysisSpec, Campaign, CampaignBuilder, CampaignStats, SummaryOpts};
pub use cost::{CostModel, MeasuredCost, StaticCost};
pub use runner::{Runner, TablePair};
pub use scheduler::{CellScheduler, DrainStats};
pub use serve::CampaignEngine;
pub use session::{CampaignArgs, ServeArgs, Session};
