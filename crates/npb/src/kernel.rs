//! Kernel specifications and execution modes.

use crate::state::RankState;
use kc_machine::RankCtx;
use std::future::Future;
use std::pin::Pin;

/// How a kernel executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Perform the real arithmetic *and* charge the performance model.
    Numeric,
    /// Charge the performance model only (same loop structure, same
    /// flop counts, same messages — empty payloads, declared sizes).
    Profile,
}

impl Mode {
    /// Whether the numeric path should run.
    #[inline]
    pub fn numeric(self) -> bool {
        matches!(self, Mode::Numeric)
    }
}

/// One kernel invocation in progress on one rank.
pub type KernelFuture<'c> = Pin<Box<dyn Future<Output = ()> + 'c>>;

/// A kernel: a name (as the paper's tables spell it) plus the body that
/// executes one invocation on one rank, in two forms built from one
/// `async fn` by the crate's `kernel_spec!` macro.
#[derive(Clone, Copy)]
pub struct KernelSpec {
    /// Kernel name, lower-snake-case (`copy_faces`, `x_solve`, …).
    pub name: &'static str,
    /// The body run to completion in place, for a blocking program on
    /// `Cluster::run`'s threaded ranks.
    ///
    /// # Panics
    /// On a cooperative rank, where the body waits for other ranks.
    pub run: fn(&mut RankState, &mut RankCtx, Mode),
    /// The body as a future, for rank programs on
    /// `Cluster::run_cooperative` (every campaign cell).
    pub run_async: for<'c> fn(&'c mut RankState, &'c mut RankCtx<'_>, Mode) -> KernelFuture<'c>,
}

/// A [`KernelSpec`] named `$name` whose two forms both run the
/// `async fn` `$body`.
macro_rules! kernel_spec {
    ($name:literal, $body:path) => {{
        fn run(st: &mut crate::RankState, ctx: &mut kc_machine::RankCtx, mode: crate::Mode) {
            kc_machine::coop::complete_now($body(st, ctx, mode))
        }
        fn run_async<'c>(
            st: &'c mut crate::RankState,
            ctx: &'c mut kc_machine::RankCtx<'_>,
            mode: crate::Mode,
        ) -> crate::kernel::KernelFuture<'c> {
            Box::pin($body(st, ctx, mode))
        }
        crate::KernelSpec {
            name: $name,
            run,
            run_async,
        }
    }};
}
pub(crate) use kernel_spec;

impl std::fmt::Debug for KernelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSpec")
            .field("name", &self.name)
            .finish()
    }
}

/// Message-tag allocation, one tag per (kernel, phase, direction).
/// Matching is by `(source, tag)`, so distinct phases never steal each
/// other's messages even when they overlap in the pipeline.
pub mod tags {
    /// `copy_faces` / `ssor_iter` halo: buffer becomes receiver's WEST halo.
    pub const FACE_W: u32 = 0x0100;
    /// Buffer becomes receiver's EAST halo.
    pub const FACE_E: u32 = 0x0101;
    /// Buffer becomes receiver's SOUTH halo.
    pub const FACE_S: u32 = 0x0102;
    /// Buffer becomes receiver's NORTH halo.
    pub const FACE_N: u32 = 0x0103;
    /// Line-solve forward-elimination carry (x direction).
    pub const SOLVE_X_FWD: u32 = 0x0200;
    /// Line-solve back-substitution carry (x direction).
    pub const SOLVE_X_BWD: u32 = 0x0201;
    /// Line-solve forward carry (y direction).
    pub const SOLVE_Y_FWD: u32 = 0x0202;
    /// Line-solve backward carry (y direction).
    pub const SOLVE_Y_BWD: u32 = 0x0203;
    /// LU lower-sweep ghost column (west → east).
    pub const LT_X: u32 = 0x0300;
    /// LU lower-sweep ghost row (south → north).
    pub const LT_Y: u32 = 0x0301;
    /// LU upper-sweep ghost column (east → west).
    pub const UT_X: u32 = 0x0302;
    /// LU upper-sweep ghost row (north → south).
    pub const UT_Y: u32 = 0x0303;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_numeric_flag() {
        assert!(Mode::Numeric.numeric());
        assert!(!Mode::Profile.numeric());
    }

    #[test]
    fn tags_are_unique() {
        let all = [
            tags::FACE_W,
            tags::FACE_E,
            tags::FACE_S,
            tags::FACE_N,
            tags::SOLVE_X_FWD,
            tags::SOLVE_X_BWD,
            tags::SOLVE_Y_FWD,
            tags::SOLVE_Y_BWD,
            tags::LT_X,
            tags::LT_Y,
            tags::UT_X,
            tags::UT_Y,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(!all[..i].contains(a), "duplicate tag {a:#x}");
        }
    }
}
