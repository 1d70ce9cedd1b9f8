//! # kc-experiments
//!
//! Regenerates every table of the HPDC 2002 kernel-coupling paper on
//! the simulated IBM SP, plus the scaling/transition study and a set
//! of ablations the paper motivates.
//!
//! [`catalog`] is the list of experiments: each entry names its id,
//! its artifact and its studies at the shape the evaluation uses —
//! Tables 2–4 (BT classes S/W/A at 2-, 3- and 4-kernel chains), 6a–6c
//! (SP W/A/B, 4- and 5-kernel chains) and 8a–8c (LU W/A/B, 3-kernel
//! chains) are nine rows over [`runner::build_tables`].  The studies
//! beyond the paper's tables each have a module of builders:
//!
//! * [`transitions`] — the paper's §4.1.4 finding: coupling values move
//!   through a finite number of regimes as problem size and processor
//!   count scale.
//! * [`ablations`] — chain-length, cache-capacity, network-contention
//!   and timer-noise sweeps.
//! * [`analytic`] — paper Eq. 3 with closed-form kernel models.
//! * [`reuse`] — which coupling values transfer across configurations.
//! * [`machines`] — relative performance of two machines.
//! * [`granularity`] — procedure-level against loop-level kernels.
//!
//! A builder reads its analyses from a [`Campaign`] and measures
//! nothing itself: [`catalog::Experiment::run`] prefetches an
//! experiment's analyses as one batch, `paper_tables` prefetches the
//! union over every selected experiment once and then calls
//! [`catalog::Experiment::assemble`] for each, and a caller that uses
//! a builder directly prefetches the matching `*_requests` first.
//! Everything funnels through [`runner::Runner`], which owns the
//! machine model and measurement protocol, and produces the typed
//! tables of `kc_core::report` (renderable as text, markdown and
//! JSON via [`render`]).
//!
//! The `paper_tables` binary drives it all:
//!
//! ```text
//! cargo run --release -p kc-experiments --bin paper_tables -- all --out out/
//! ```

#![forbid(unsafe_code)]

pub mod ablations;
pub mod analytic;
pub mod campaign;
pub mod catalog;
pub mod granularity;
pub mod machines;
pub mod render;
pub mod reuse;
pub mod runner;
pub mod scheduler;
pub mod serve;
pub mod session;
pub mod transitions;

pub use campaign::{AnalysisSpec, Campaign, CampaignBuilder, CampaignStats, SummaryOpts};
pub use runner::{Runner, TablePair};
pub use scheduler::{CellScheduler, DrainStats};
pub use serve::CampaignEngine;
pub use session::{CampaignArgs, ServeArgs, Session};
