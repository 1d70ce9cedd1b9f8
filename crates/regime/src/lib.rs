//! # kc-regime
//!
//! The automatic coupling-regime explorer.
//!
//! The paper reports coupling values `C_S` at a handful of
//! `(class, p)` points and *argues* that the values move through a
//! finite set of regimes — constructive, neutral, destructive — as
//! the per-rank working set crosses cache levels.  This crate turns
//! that argument into a measurement: it
//!
//! 1. **sweeps** problem size × processor count × machine from a
//!    declarative [`SweepSpec`], executing every point through the
//!    existing [`Campaign`] scheduler/store stack (cells are
//!    canonical `MeasurementKey` cells, shared with `paper_tables`);
//! 2. **detects** regime boundaries on each chain's
//!    coupling-vs-working-set curve with deterministic penalized
//!    segmentation ([`detect_changepoints`], the PELT objective — no
//!    RNG anywhere);
//! 3. **classifies** each segment with the paper's regime vocabulary
//!    plus the cache level the working set straddles, using the
//!    machine's *effective* hierarchy — multicore configs with a
//!    [`NodeModel`](kc_machine::NodeModel) split their shared LLC
//!    across co-resident ranks, which moves the crossings relative to
//!    the uniprocessor machines; and
//! 4. **emits** the regime map as a text table and as canonical JSON
//!    ([`RegimeMap::render`] / [`RegimeMap::to_json_pretty`]) for
//!    golden snapshotting.
//!
//! The `kc_regime` binary drives the pipeline from the command line:
//!
//! ```text
//! kc_regime sweep --spec scripts/regime_small.json \
//!     --store sharded:out/cells.kcs --jobs 8 --json out/regime_map.json
//! ```
//!
//! [`Campaign`]: kc_experiments::Campaign

#![forbid(unsafe_code)]

pub mod detect;
pub mod map;
pub mod spec;
pub mod sweep;

pub use detect::{detect_changepoints, segments, segments_at, DetectParams, Segment};
pub use map::{build_map, classify, detect_chain, RegimeChain, RegimeMap, RegimeSegment};
pub use spec::{machine_by_name, SpecError, SweepSpec, MACHINE_NAMES};
pub use sweep::{cache_level_at, run_sweep, sort_points, sweep_requests, ChainCurve, CurvePoint};
