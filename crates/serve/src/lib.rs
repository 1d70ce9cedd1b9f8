//! The serving layer: an online, batched prediction service over the
//! shared cell substrate.
//!
//! The paper's end product is a *predictor* — given a kernel chain and
//! its coupling values, estimate application time as
//! `T = overhead + Σ_k α_k·E_k·iterations` — yet PR 1–4 only ran it as
//! one-shot batch binaries.  This crate packages the predictor behind
//! a long-running request/response service:
//!
//! * [`protocol`] — the line-delimited JSON wire protocol: one
//!   [`PredictRequest`] per input line, one [`PredictResponse`] per
//!   output line, same order.
//! * [`server`] — [`Server`]: bounded admission (`max_inflight`,
//!   overload responses instead of unbounded queues), a batcher thread
//!   that resolves up to `max_batch` concurrent requests through one
//!   [`PredictionEngine`] call (so duplicate cells across in-flight
//!   requests dedupe in the engine's shared cache), ordered response
//!   delivery, and graceful drain on EOF/shutdown.
//! * [`metrics`] — [`ServeMetrics`]: request latency percentiles,
//!   batch sizes, queue depth and status counts for `--metrics`.
//!
//! The crate is engine-generic and depends only on `kc-core`: the
//! campaign-backed engine (cells resolved through `CachedProvider` +
//! the bounded `CellScheduler`) lives in `kc-experiments`, which wires
//! everything into the `kc_serve` binary.
//!
//! ## Determinism contract
//!
//! Responses carry no timing or schedule-dependent fields, so the
//! response stream for a given request stream is byte-identical across
//! `--jobs` values and batch splits; latency and batch shape are
//! reported only through [`ServeMetrics`] and redacted
//! `RequestServed` telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod protocol;
pub mod server;

pub use metrics::{MetricsReport, ServeMetrics};
pub use protocol::{
    status, KernelContribution, PredictRequest, PredictResponse, PredictionReport, Status,
};
pub use server::{PredictionEngine, Server, ServerConfig, Ticket};
