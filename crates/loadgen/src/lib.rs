//! `kc-loadgen`: an open-loop load generator and fault-injecting SLO
//! harness for the `kc-serve` protocol.
//!
//! The serving layer promises three things under load: bounded
//! admission (overload responses, not unbounded queues), an
//! exactly-once execution contract for cache-miss cells, and — since
//! deadlines ride the wire protocol — earliest-deadline-first batch
//! formation with expired requests shed before they burn an engine
//! call.  This crate *measures* those promises instead of trusting
//! them:
//!
//! * [`workload`] — deterministic open-loop schedules: a seeded
//!   hot/cold request mix paced at a target RPS, with optional
//!   bursts, per-request deadlines, and malformed fault frames.  The
//!   whole schedule is generated up front so send times never depend
//!   on response times.
//! * [`run`] — drivers that pace a schedule into an in-process
//!   [`Server`](kc_serve::Server) or over TCP, stamping client-side
//!   latency per frame; plus transport fault clients (mid-request
//!   disconnects, slow-client stalls) and the exactly-once audit over
//!   campaign telemetry ([`ExecutionAudit`], folded as events arrive).
//! * [`report`] — [`LoadReport`]: latency quantiles, throughput,
//!   overload/error/deadline-miss rates, executions and exactly-once
//!   violations for one run.
//! * [`slo`] — [`SloSpec`]: parsed `metric<=value,...` bounds checked
//!   against a report; the `kc-loadgen` binary exits non-zero when
//!   any bound is violated, which is what makes a load run a *gate*
//!   rather than a dashboard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod run;
pub mod slo;
pub mod workload;

pub use report::{LoadReport, Outcome};
pub use run::{
    drive_server, drive_tcp, exactly_once_violations, spawn_faults, DriveResult, ExecutionAudit,
    FaultConfig,
};
pub use slo::{Direction, SloBound, SloSpec};
pub use workload::{schedule, unique_requests, Frame, Slot, WorkloadConfig};
