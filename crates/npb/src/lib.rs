//! # kc-npb
//!
//! From-scratch Rust reimplementations of the three NAS Parallel
//! *application* benchmarks the kernel-coupling paper evaluates — BT
//! (Block Tridiagonal), SP (Scalar Pentadiagonal) and LU (SSOR) —
//! decomposed into exactly the kernels the paper names, and running on
//! the simulated cluster of `kc-machine`.
//!
//! ## What is faithful, what is substituted
//!
//! Each benchmark keeps the original's *structure*: the same kernel
//! decomposition (BT: INITIALIZATION, COPY FACES, X/Y/Z SOLVE, ADD,
//! FINAL; SP adds TXINVR; LU: the ten kernels of paper §4.3), the same
//! class sizes and loop iteration counts, the same solver families
//! (5×5 block-tridiagonal lines for BT, scalar pentadiagonal lines for
//! SP, SSOR wavefront sweeps with small boundary messages for LU), and
//! the same processor-count rules (squares for BT/SP, powers of two
//! for LU).
//!
//! The *physics* is a simplified but genuine 5-component linear
//! convection–diffusion system solved by the same numerical machinery
//! (approximate-factorization ADI for BT/SP, SSOR for LU).  The
//! decomposition is a 2-D pencil scheme (x and y split over the
//! process grid, z local) with pipelined line solves, instead of
//! NPB's 3-D multipartition — the coupling methodology is agnostic to
//! this, and the communication character (face exchanges, solver
//! sweeps, LU's many small wavefront messages) is preserved.  See
//! DESIGN.md §2 for the substitution table.
//!
//! ## Modes
//!
//! Every kernel runs in one of two [`Mode`]s sharing one code path:
//!
//! * [`Mode::Numeric`] — does the real arithmetic (used by the
//!   correctness tests: serial-vs-parallel equivalence, fixed-point
//!   preservation, convergence).
//! * [`Mode::Profile`] — skips element arithmetic but emits the same
//!   performance events (flops, region touches, messages), so
//!   class-B-sized measurement campaigns run in milliseconds.
//!
//! Each rank's [`RankState`] is allocated when its cell starts and
//! freed when the cell ends; profile mode skips the numeric arrays.
//! Nothing here depends on which OS thread runs a rank.
//!
//! ## Entry points
//!
//! [`app::NpbApp`] describes a benchmark instance (benchmark × class ×
//! processor count); [`executor::NpbExecutor`] implements
//! `kc_core::ChainExecutor` on top of it, which is everything the
//! coupling framework needs.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // indexed loops mirror the Fortran stencils

pub mod app;
pub mod blocks;
pub mod bt;
pub mod classes;
pub mod common;
pub mod executor;
pub mod kernel;
pub mod lu;
pub mod models;
pub mod penta;
pub mod physics;
pub mod provider;
pub mod sp;
pub mod state;
pub mod verification;

pub use app::{AppSpec, Benchmark, NpbApp};
pub use classes::Class;
pub use executor::{ColdStart, ExecConfig, NpbExecutor};
pub use kernel::{KernelSpec, Mode};
pub use provider::NpbProvider;
pub use state::RankState;
