//! The BT (Block Tridiagonal) application benchmark.
//!
//! Paper §4.1: seven kernels — INITIALIZATION, COPY_FACES, X_SOLVE,
//! Y_SOLVE, Z_SOLVE, ADD, FINAL — with steps 2–6 forming the main
//! loop.  Each solve kernel solves, for every grid line along its
//! dimension, a block-tridiagonal system with 5×5 blocks:
//!
//! ```text
//! A_i x_{i-1} + D_i x_i + C_i x_{i+1} = rhs_i
//! ```
//!
//! with `A = C = −σM` and `D = I + 2σM + φ(u)I` from the
//! approximate-factorization step (see [`crate::physics`]).  Lines
//! along x and y span several ranks; the Thomas elimination is
//! *pipelined*: each rank eliminates its segment of a k-plane's worth
//! of lines, then forwards a per-line carry (the eliminated `Ctil`
//! block and normalized right-hand side, 30 doubles) to the next rank,
//! while it proceeds to the next plane.  Back-substitution flows the
//! opposite way with 5-double carries.  The distributed solve performs
//! bit-identical arithmetic to a serial solve of the same lines
//! (tested).

use crate::app::AppSpec;
use crate::blocks::{self, Block, Vec5};
use crate::common;
use crate::kernel::{kernel_spec, tags, Mode};
use crate::state::RankState;
use kc_machine::RankCtx;

/// Flops per cell of the forward elimination (block assembly, one
/// block multiply-subtract, one matvec-subtract, LU factor, block
/// solve, vector solve).
pub const BT_FWD_CELL_FLOPS: u64 = 815;
/// Flops per cell of the back substitution.
pub const BT_BWD_CELL_FLOPS: u64 = 55;

/// Which dimension a solve kernel works along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Lines along x: pipelined across process-grid columns.
    X,
    /// Lines along y: pipelined across process-grid rows.
    Y,
    /// Lines along z: rank-local.
    Z,
}

impl Dir {
    /// The rank upstream of `st` in this direction's forward sweep.
    pub fn upstream(self, st: &RankState) -> Option<usize> {
        match self {
            Dir::X => st.grid.west(st.sub.rank),
            Dir::Y => st.grid.south(st.sub.rank),
            Dir::Z => None,
        }
    }

    /// The rank downstream of `st` in this direction's forward sweep.
    pub fn downstream(self, st: &RankState) -> Option<usize> {
        match self {
            Dir::X => st.grid.east(st.sub.rank),
            Dir::Y => st.grid.north(st.sub.rank),
            Dir::Z => None,
        }
    }

    /// Whether this rank holds the first cell of every line.
    pub fn at_start(self, st: &RankState) -> bool {
        match self {
            Dir::X => st.sub.at_west_boundary(),
            Dir::Y => st.sub.at_south_boundary(),
            Dir::Z => true,
        }
    }

    /// Whether this rank holds the last cell of every line.
    pub fn at_end(self, st: &RankState) -> bool {
        match self {
            Dir::X => st.sub.at_east_boundary(),
            Dir::Y => st.sub.at_north_boundary(),
            Dir::Z => true,
        }
    }

    /// `(batches, lines_per_batch, line_len)` for this direction on
    /// `st`'s box: X/Y batch by k-plane, Z batches by j.
    pub fn shape(self, st: &RankState) -> (usize, usize, usize) {
        let (nx, ny, nz) = st.dims();
        match self {
            Dir::X => (nz, ny, nx),
            Dir::Y => (nz, nx, ny),
            Dir::Z => (ny, nx, nz),
        }
    }

    /// Local cell coordinates of `pos` along line `ln` of batch `b`.
    #[inline]
    pub fn cell(self, b: usize, ln: usize, pos: usize) -> (usize, usize, usize) {
        match self {
            Dir::X => (pos, ln, b),
            Dir::Y => (ln, pos, b),
            Dir::Z => (ln, b, pos),
        }
    }

    /// Forward / backward carry tags (Z never communicates).
    pub fn tags(self) -> (u32, u32) {
        match self {
            Dir::X => (tags::SOLVE_X_FWD, tags::SOLVE_X_BWD),
            Dir::Y => (tags::SOLVE_Y_FWD, tags::SOLVE_Y_BWD),
            Dir::Z => (0, 0),
        }
    }
}

/// Charge the memory traffic of one solve pass over one batch: the
/// pass streams `u` (for the Jacobian-like assembly, forward only),
/// `rhs` and the `lhs` scratch.
fn charge_batch(st: &RankState, ctx: &mut RankCtx, dir: Dir, b: usize, forward: bool) {
    let (_, lines, len) = dir.shape(st);
    let cells = lines * len;
    let (nx, ny, _) = st.dims();
    // every pass streams the whole batch's cells once per array; rows
    // of the batch are contiguous for X/Y (a k-plane) and strided for Z
    let (rows, row_cells) = match dir {
        Dir::X | Dir::Y => (ny, nx),
        Dir::Z => (lines * len / nx, nx),
    };
    debug_assert_eq!(rows * row_cells, cells);
    for r in 0..rows {
        let (j, k) = match dir {
            Dir::X | Dir::Y => (r, b),
            // Z batch b covers rows (·, b, k) for every k
            Dir::Z => (b, r),
        };
        if forward {
            st.charge_row(ctx, st.reg.u, j, k);
        }
        st.charge_row(ctx, st.reg.rhs, j, k);
        st.charge_lhs_row(ctx, j, k);
    }
    let flops = if forward {
        BT_FWD_CELL_FLOPS
    } else {
        BT_BWD_CELL_FLOPS
    };
    ctx.flops(flops * cells as u64);
}

/// Forward-eliminate one line segment (numeric mode).
#[allow(clippy::too_many_arguments)]
fn forward_line(
    st: &mut RankState,
    dir: Dir,
    b: usize,
    ln: usize,
    carry: (Block, Vec5),
    at_start: bool,
    at_end: bool,
) -> (Block, Vec5) {
    let (_, _, len) = dir.shape(st);
    let sigma = st.phys.sigma;
    let m = st.phys.m;
    let off = blocks::scale(&m, -sigma);
    let (mut prev_ctil, mut prev_rtil) = carry;
    for pos in 0..len {
        let (i, j, k) = dir.cell(b, ln, pos);
        let a_blk = if pos == 0 && at_start {
            blocks::zero_block()
        } else {
            off
        };
        let c_blk = if pos + 1 == len && at_end {
            blocks::zero_block()
        } else {
            off
        };
        // D = I + 2σM + φ(u)I
        let phi = st.phys.phi(st.u.at(i, j, k)[0]);
        let mut d = blocks::add(&blocks::identity(), &blocks::scale(&m, 2.0 * sigma));
        for c in 0..5 {
            d[c][c] += phi;
        }
        let mut r = *st.rhs.at(i, j, k);
        // eliminate the sub-diagonal with the previous eliminated row
        blocks::mat_mul_sub(&mut d, &a_blk, &prev_ctil);
        blocks::mat_vec_sub(&mut r, &a_blk, &prev_rtil);
        blocks::lu_factor(&mut d);
        let mut ctil = c_blk;
        blocks::lu_solve_mat(&d, &mut ctil);
        blocks::lu_solve_vec(&d, &mut r);
        let ci = st.cell_index(i, j, k);
        st.ctil[ci] = ctil;
        *st.rhs.at_mut(i, j, k) = r;
        prev_ctil = ctil;
        prev_rtil = r;
    }
    (prev_ctil, prev_rtil)
}

/// Back-substitute one line segment (numeric mode); returns this
/// segment's first solution cell (carry for the upstream rank).
fn backward_line(st: &mut RankState, dir: Dir, b: usize, ln: usize, carry: Vec5) -> Vec5 {
    let (_, _, len) = dir.shape(st);
    let mut x_next = carry;
    for pos in (0..len).rev() {
        let (i, j, k) = dir.cell(b, ln, pos);
        let ci = st.cell_index(i, j, k);
        let ctil = st.ctil[ci];
        let mut x = *st.rhs.at(i, j, k);
        blocks::mat_vec_sub(&mut x, &ctil, &x_next);
        *st.rhs.at_mut(i, j, k) = x;
        x_next = x;
    }
    x_next
}

/// The shared body of X_SOLVE / Y_SOLVE / Z_SOLVE.
pub async fn solve(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode, dir: Dir) {
    solve_forward(st, ctx, mode, dir).await;
    solve_backward(st, ctx, mode, dir).await;
}

/// The forward-elimination half of a solve, exposed as its own kernel
/// for the fine-grained decomposition study (the paper: a kernel "may
/// be a loop, procedure, or file depending on the level of granularity
/// of detail that is desired").
pub async fn solve_forward(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode, dir: Dir) {
    let (batches, lines, _) = dir.shape(st);
    let (fwd_tag, _) = dir.tags();
    let at_start = dir.at_start(st);
    let at_end = dir.at_end(st);
    let fwd_carry_doubles = lines * 30; // Ctil (25) + rtil (5) per line

    // ---- forward sweep, pipelined over batches ----
    for b in 0..batches {
        let mut carries: Vec<(Block, Vec5)> = Vec::new();
        if let Some(up) = dir.upstream(st) {
            let msg = ctx.recv_async(up, fwd_tag).await;
            if mode.numeric() {
                carries = msg
                    .data
                    .chunks_exact(30)
                    .map(|ch| {
                        let mut blk = blocks::zero_block();
                        for (r, row) in blk.iter_mut().enumerate() {
                            row.copy_from_slice(&ch[r * 5..r * 5 + 5]);
                        }
                        let rtil: Vec5 = ch[25..30].try_into().unwrap();
                        (blk, rtil)
                    })
                    .collect();
                debug_assert_eq!(carries.len(), lines);
            }
        }
        charge_batch(st, ctx, dir, b, true);
        let mut out: Vec<f64> = Vec::new();
        if mode.numeric() {
            out.reserve(fwd_carry_doubles);
            for ln in 0..lines {
                let carry = carries
                    .get(ln)
                    .copied()
                    .unwrap_or((blocks::zero_block(), [0.0; 5]));
                let (ctil, rtil) = forward_line(st, dir, b, ln, carry, at_start, at_end);
                for row in &ctil {
                    out.extend_from_slice(row);
                }
                out.extend_from_slice(&rtil);
            }
        }
        if let Some(down) = dir.downstream(st) {
            ctx.send_sized(down, fwd_tag, fwd_carry_doubles * 8, out);
        }
    }
}

/// The back-substitution half of a solve (see [`solve_forward`]).
/// Requires the eliminated coefficients left in the state by the
/// matching forward sweep.
pub async fn solve_backward(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode, dir: Dir) {
    let (batches, lines, _) = dir.shape(st);
    let (_, bwd_tag) = dir.tags();
    let bwd_carry_doubles = lines * 5;

    // ---- backward sweep, pipelined the opposite way ----
    for b in 0..batches {
        let mut carries: Vec<Vec5> = Vec::new();
        if let Some(down) = dir.downstream(st) {
            let msg = ctx.recv_async(down, bwd_tag).await;
            if mode.numeric() {
                carries = msg
                    .data
                    .chunks_exact(5)
                    .map(|c| c.try_into().unwrap())
                    .collect();
                debug_assert_eq!(carries.len(), lines);
            }
        }
        charge_batch(st, ctx, dir, b, false);
        let mut out: Vec<f64> = Vec::new();
        if mode.numeric() {
            out.reserve(bwd_carry_doubles);
            for ln in 0..lines {
                let carry = carries.get(ln).copied().unwrap_or([0.0; 5]);
                let x_first = backward_line(st, dir, b, ln, carry);
                out.extend_from_slice(&x_first);
            }
        }
        if let Some(up) = dir.upstream(st) {
            ctx.send_sized(up, bwd_tag, bwd_carry_doubles * 8, out);
        }
    }
}

async fn x_solve(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve(st, ctx, mode, Dir::X).await;
}

async fn y_solve(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve(st, ctx, mode, Dir::Y).await;
}

async fn z_solve(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve(st, ctx, mode, Dir::Z).await;
}

async fn x_elim(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve_forward(st, ctx, mode, Dir::X).await;
}

async fn x_subst(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve_backward(st, ctx, mode, Dir::X).await;
}

async fn y_elim(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve_forward(st, ctx, mode, Dir::Y).await;
}

async fn y_subst(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve_backward(st, ctx, mode, Dir::Y).await;
}

async fn z_elim(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve_forward(st, ctx, mode, Dir::Z).await;
}

async fn z_subst(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    solve_backward(st, ctx, mode, Dir::Z).await;
}

/// A finer-grained BT decomposition: each solve split into its
/// elimination and substitution halves (8 loop kernels instead of 5).
/// Used by the granularity study — substitution immediately reuses
/// the coefficients its elimination just wrote, so these pairs couple
/// far more strongly than the paper's procedure-level kernels.
pub fn fine_spec() -> AppSpec {
    AppSpec {
        init: vec![kernel_spec!(
            "initialization",
            common::kernel_initialization
        )],
        loop_kernels: vec![
            kernel_spec!("copy_faces", common::kernel_copy_faces),
            kernel_spec!("x_elim", x_elim),
            kernel_spec!("x_subst", x_subst),
            kernel_spec!("y_elim", y_elim),
            kernel_spec!("y_subst", y_subst),
            kernel_spec!("z_elim", z_elim),
            kernel_spec!("z_subst", z_subst),
            kernel_spec!("add", common::kernel_add),
        ],
        final_kernels: vec![kernel_spec!("final", common::kernel_final)],
    }
}

/// The BT kernel decomposition (paper §4.1).
pub fn spec() -> AppSpec {
    AppSpec {
        init: vec![kernel_spec!(
            "initialization",
            common::kernel_initialization
        )],
        loop_kernels: vec![
            kernel_spec!("copy_faces", common::kernel_copy_faces),
            kernel_spec!("x_solve", x_solve),
            kernel_spec!("y_solve", y_solve),
            kernel_spec!("z_solve", z_solve),
            kernel_spec!("add", common::kernel_add),
        ],
        final_kernels: vec![kernel_spec!("final", common::kernel_final)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Benchmark;
    use crate::physics::Physics;
    use kc_grid::ProcGrid;
    use kc_machine::{Cluster, MachineConfig};
    use parking_lot::Mutex;
    use std::collections::HashMap;

    type FieldMap = HashMap<(usize, usize, usize), Vec5>;

    /// Run `iters` full BT loop iterations on `p` ranks with a
    /// perturbed start and gather the global `u` field.
    fn run_bt(p: usize, n: usize, iters: u32, perturb: f64) -> (FieldMap, f64, f64) {
        let grid = if p == 1 {
            ProcGrid::new(1, 1)
        } else {
            ProcGrid::square(p)
        };
        let spec = spec();
        let map = Mutex::new(HashMap::new());
        let norms = Mutex::new((0.0, 0.0));
        Cluster::new(MachineConfig::test_tiny()).run(p, |ctx| {
            let mut st = RankState::new(
                Benchmark::Bt,
                Physics::new(n, 0.4),
                (n, n, n),
                grid,
                ctx,
                true,
            );
            st.perturb_amp = perturb;
            for kern in &spec.init {
                (kern.run)(&mut st, ctx, Mode::Numeric);
            }
            for _ in 0..iters {
                for kern in &spec.loop_kernels {
                    (kern.run)(&mut st, ctx, Mode::Numeric);
                }
            }
            for kern in &spec.final_kernels {
                (kern.run)(&mut st, ctx, Mode::Numeric);
            }
            let (nx, ny, nz) = st.dims();
            let mut m = map.lock();
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        m.insert(st.sub.to_global(i, j, k), *st.u.at(i, j, k));
                    }
                }
            }
            let v = st.verify.unwrap();
            *norms.lock() = (v.resid_norm, v.dev_norm);
        });
        let n = norms.into_inner();
        (map.into_inner(), n.0, n.1)
    }

    #[test]
    fn steady_state_is_a_fixed_point() {
        // u = u0 -> rhs = 0 -> all three solves produce 0 -> add keeps u
        let (_, resid, dev) = run_bt(4, 8, 3, 0.0);
        assert!(resid < 1e-22, "residual {resid}");
        assert!(dev < 1e-22, "deviation {dev}");
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let (serial, _, _) = run_bt(1, 8, 2, 0.1);
        let (par, _, _) = run_bt(4, 8, 2, 0.1);
        assert_eq!(serial.len(), par.len());
        for (g, v) in &serial {
            let pv = par[g];
            for c in 0..5 {
                assert!(
                    (v[c] - pv[c]).abs() < 1e-13,
                    "u at {g:?} comp {c}: serial {} vs parallel {}",
                    v[c],
                    pv[c]
                );
            }
        }
    }

    #[test]
    fn nine_rank_run_matches_serial() {
        let (serial, _, _) = run_bt(1, 9, 2, 0.05);
        let (par, _, _) = run_bt(9, 9, 2, 0.05);
        for (g, v) in &serial {
            let pv = par[g];
            for c in 0..5 {
                assert!((v[c] - pv[c]).abs() < 1e-13, "u at {g:?} comp {c}");
            }
        }
    }

    #[test]
    fn perturbed_run_converges_toward_steady_state() {
        let (_, _, dev1) = run_bt(4, 8, 1, 0.1);
        let (_, _, dev10) = run_bt(4, 8, 12, 0.1);
        assert!(
            dev10 < 0.5 * dev1,
            "SSOR-free ADI should contract the perturbation: {dev1} -> {dev10}"
        );
    }

    #[test]
    fn profile_and_numeric_modes_agree_on_time() {
        let time = |mode: Mode| {
            let out = Cluster::new(MachineConfig::test_tiny()).run(4, |ctx| {
                let mut st = RankState::new(
                    Benchmark::Bt,
                    Physics::new(8, 0.4),
                    (8, 8, 8),
                    ProcGrid::square(4),
                    ctx,
                    mode.numeric(),
                );
                let spec = spec();
                for kern in &spec.init {
                    (kern.run)(&mut st, ctx, mode);
                }
                for kern in &spec.loop_kernels {
                    (kern.run)(&mut st, ctx, mode);
                }
                ctx.barrier();
                ctx.now()
            });
            (out.elapsed(), out.total_messages(), out.total_bytes())
        };
        let (tn, mn, bn) = time(Mode::Numeric);
        let (tp, mp, bp) = time(Mode::Profile);
        assert_eq!(mn, mp);
        assert_eq!(bn, bp);
        assert!((tn - tp).abs() < 1e-12, "{tn} vs {tp}");
    }

    #[test]
    fn dir_shapes_cover_all_cells() {
        Cluster::new(MachineConfig::test_tiny()).run(4, |ctx| {
            let st = RankState::new(
                Benchmark::Bt,
                Physics::new(8, 0.4),
                (8, 8, 8),
                ProcGrid::square(4),
                ctx,
                false,
            );
            for dir in [Dir::X, Dir::Y, Dir::Z] {
                let (b, l, n) = dir.shape(&st);
                assert_eq!(b * l * n, st.sub.cells(), "{dir:?}");
            }
        });
    }
}
