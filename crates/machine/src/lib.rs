//! # kc-machine
//!
//! A deterministic simulated message-passing cluster.
//!
//! The HPDC 2002 kernel-coupling study ran the NAS Parallel Benchmarks
//! on an 80-processor IBM SP (120 MHz P2SC nodes).  This crate is the
//! stand-in for that machine: every simulated rank runs as a real OS
//! thread executing real (or profiled) kernel code, but *time* is
//! virtual — each rank carries its own clock that advances according to
//! a calibrated performance model:
//!
//! * **Compute** — a flop-rate model ([`config::CpuModel`]).
//! * **Memory** — a per-rank two-level cache simulator
//!   (`kc-cachesim`); kernels describe their traffic as region touches
//!   and pay per-line service latencies depending on which level
//!   supplies the line ([`perf::PerfContext`]).
//! * **Communication** — a LogGP-style model with sender/receiver
//!   overheads, wire latency, bandwidth and NIC serialization
//!   ([`comm`]); message *causality* is exact: a receive completes no
//!   earlier than the matching send's arrival timestamp, so pipeline
//!   fill/drain and wait times compose exactly as they would on a real
//!   machine.
//! * **Measurement noise** — a seeded timer model ([`timer`])
//!   reproducing the paper's observation that tiny class-S timings are
//!   dominated by measurement error.
//!
//! Determinism: receives are always matched by `(source, tag)`, never
//! by wildcard, and collectives reduce over all ranks, so the virtual
//! clocks are a pure function of the program and the machine config —
//! independent of OS scheduling.
//!
//! ```
//! use kc_machine::{Cluster, MachineConfig};
//!
//! let cfg = MachineConfig::test_tiny();
//! let out = Cluster::new(cfg).run(4, |ctx| {
//!     // a toy ring: everyone passes a token to the right
//!     let right = (ctx.rank() + 1) % ctx.size();
//!     let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
//!     ctx.send(right, 7, vec![ctx.rank() as f64]);
//!     let msg = ctx.recv(left, 7);
//!     ctx.flops(1000);
//!     msg.data[0]
//! });
//! assert_eq!(out.results[2], 1.0);
//! assert!(out.elapsed() > 0.0);
//! ```

#![deny(unsafe_code)]

pub mod cluster;
pub mod comm;
pub mod config;
pub mod perf;
#[allow(unsafe_code)]
mod pool;
pub mod timer;

pub use cluster::{Cluster, RankCtx, RunOutcome};
pub use comm::{CommEvent, Message};
pub use config::{CpuModel, MachineConfig, MemTiming, NetModel, NodeModel, TimerModel};
pub use perf::PerfContext;
pub use timer::NoisyTimer;
