//! # kc-grid
//!
//! Structured-grid substrate for the kernel-couplings workspace.
//!
//! The NAS Parallel Benchmarks BT, SP and LU all operate on dense 3-D
//! grids carrying five solution components per cell.  This crate provides
//! the array types, block domain decompositions and process-grid
//! topologies those benchmarks are built on:
//!
//! * [`Field3`] — a contiguous 3-D array of multi-component cells,
//!   with Fortran-like `(i, j, k)` indexing.
//! * [`Decomp1d`] — balanced block partition of one dimension over a
//!   number of parts, including the remainder handling NPB uses.
//! * [`ProcGrid`] — a 2-D logical process grid with neighbour lookup,
//!   used by the pencil decompositions of BT/SP (square grids) and LU
//!   (power-of-two grids built by repeated halving).
//! * [`Subdomain`] — the box of cells a rank owns plus its halo
//!   bookkeeping and face extraction/injection helpers.
//!
//! Everything here is deterministic and allocation-conscious; the hot
//! paths (`Field3` indexing, face copies) are `#[inline]` and used from
//! the numeric kernels in `kc-npb`.

#![forbid(unsafe_code)]

pub mod array;
pub mod decomp;
pub mod face;
pub mod subdomain;
pub mod topology;

pub use array::Field3;
pub use decomp::{Decomp1d, OwnedRange};
pub use face::{Face, FaceBuffer};
pub use subdomain::Subdomain;
pub use topology::{ProcCoords, ProcGrid};
