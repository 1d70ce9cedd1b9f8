//! The SP (Scalar Pentadiagonal) application benchmark.
//!
//! Paper §4.2: eight kernels — INITIALIZATION, COPY_FACES, TXINVR,
//! X_SOLVE, Y_SOLVE, Z_SOLVE, ADD, FINAL — with steps 2–7 forming the
//! main loop.  TXINVR applies the inverse component transform `T⁻¹`
//! to the right-hand side, decoupling the five components; each solve
//! kernel then solves *scalar* pentadiagonal systems along its
//! dimension (the five components share the matrix):
//!
//! ```text
//! a x_{i-2} + b x_{i-1} + c x_i + d x_{i+1} + e x_{i+2} = rhs
//! ```
//!
//! with `a = e = θ`, `b = d = −σ − 4θ`, `c = 1 + 2σ + 6θ + φ(u)`
//! (second difference plus a fourth-order dissipation term, the
//! pentadiagonal structure of the real SP).  Lines along x and y are
//! pipelined across ranks exactly like BT's, with two-row carries.

use crate::app::AppSpec;
use crate::blocks::{self, Vec5};
use crate::bt::Dir;
use crate::common;
use crate::kernel::{kernel_spec, Mode};
use crate::penta::{self, PentaCoeffs, PentaRow};
use crate::state::RankState;
use kc_machine::RankCtx;

/// Flops per cell of TXINVR (one 5×5 matvec plus moves).
pub const TXINVR_CELL_FLOPS: u64 = 70;
/// Flops per cell of the pentadiagonal forward elimination (incl.
/// coefficient assembly).
pub const SP_FWD_CELL_FLOPS: u64 = 160;
/// Flops per cell of the pentadiagonal back substitution.
pub const SP_BWD_CELL_FLOPS: u64 = 70;

/// Fourth-order dissipation strength relative to `σ`.
const THETA_FRAC: f64 = 0.05;

/// TXINVR: `rhs ← T⁻¹ · rhs` at every cell.
async fn txinvr(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.rhs, j, k);
            ctx.flops(TXINVR_CELL_FLOPS * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let r = *st.rhs.at(i, j, k);
                    *st.rhs.at_mut(i, j, k) = blocks::mat_vec(&st.phys.t_inv, &r);
                }
            }
        }
    }
}

/// The pentadiagonal coefficients of global row `g` (0-based) of an
/// `n`-point line.
fn row_coeffs(st: &RankState, g: usize, n: usize, u_first: f64) -> PentaCoeffs {
    let sigma = st.phys.sigma;
    let theta = THETA_FRAC * sigma;
    PentaCoeffs {
        a: if g >= 2 { theta } else { 0.0 },
        b: if g >= 1 { -sigma - 4.0 * theta } else { 0.0 },
        c: 1.0 + 2.0 * sigma + 6.0 * theta + st.phys.phi(u_first),
        d: if g + 1 < n { -sigma - 4.0 * theta } else { 0.0 },
        e: if g + 2 < n { theta } else { 0.0 },
    }
}

/// Global index along `dir` of local position `pos`.
fn global_pos(st: &RankState, dir: Dir, pos: usize) -> usize {
    match dir {
        Dir::X => st.sub.xr.lo + pos,
        Dir::Y => st.sub.yr.lo + pos,
        Dir::Z => pos,
    }
}

/// Charge the memory traffic and flops of one pass over one batch.
fn charge_batch(st: &RankState, ctx: &mut RankCtx, dir: Dir, b: usize, forward: bool) {
    let (_, lines, len) = dir.shape(st);
    let cells = lines * len;
    let (nx, ny, _) = st.dims();
    let rows = cells / nx;
    for r in 0..rows {
        let (j, k) = match dir {
            Dir::X | Dir::Y => (r % ny, b),
            Dir::Z => (b, r),
        };
        if forward {
            st.charge_row(ctx, st.reg.u, j, k);
        }
        st.charge_row(ctx, st.reg.rhs, j, k);
        st.charge_lhs_row(ctx, j, k);
    }
    let flops = if forward {
        SP_FWD_CELL_FLOPS
    } else {
        SP_BWD_CELL_FLOPS
    };
    ctx.flops(flops * cells as u64);
}

/// One pipelined pentadiagonal solve along `dir`.
async fn solve(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode, dir: Dir) {
    let (batches, lines, len) = dir.shape(st);
    let (fwd_tag, bwd_tag) = dir.tags();
    let n_global = st.phys.n;
    let fwd_doubles = lines * 14; // 2 rows x (dtil, etil, rtil[5])
    let bwd_doubles = lines * 10; // 2 cells x 5 components

    // scratch per line
    let mut coeffs: Vec<PentaCoeffs> = vec![PentaCoeffs::default(); len];
    let mut line_rhs: Vec<Vec5> = vec![[0.0; 5]; len];
    let mut line_dt = vec![0.0; len];
    let mut line_et = vec![0.0; len];

    // ---- forward ----
    for b in 0..batches {
        let mut carries: Vec<[PentaRow; 2]> = Vec::new();
        if let Some(up) = dir.upstream(st) {
            let msg = ctx.recv_async(up, fwd_tag).await;
            if mode.numeric() {
                carries = msg
                    .data
                    .chunks_exact(14)
                    .map(|ch| {
                        let parse = |s: &[f64]| PentaRow {
                            dtil: s[0],
                            etil: s[1],
                            rtil: s[2..7].try_into().unwrap(),
                        };
                        [parse(&ch[0..7]), parse(&ch[7..14])]
                    })
                    .collect();
            }
        }
        charge_batch(st, ctx, dir, b, true);
        let mut out: Vec<f64> = Vec::new();
        if mode.numeric() {
            out.reserve(fwd_doubles);
            for ln in 0..lines {
                for pos in 0..len {
                    let (i, j, k) = dir.cell(b, ln, pos);
                    let g = global_pos(st, dir, pos);
                    coeffs[pos] = row_coeffs(st, g, n_global, st.u.at(i, j, k)[0]);
                    line_rhs[pos] = *st.rhs.at(i, j, k);
                }
                let carry = carries.get(ln).copied().unwrap_or([PentaRow::default(); 2]);
                let out_rows =
                    penta::forward(&coeffs, &mut line_rhs, &mut line_dt, &mut line_et, carry);
                for pos in 0..len {
                    let (i, j, k) = dir.cell(b, ln, pos);
                    let ci = st.cell_index(i, j, k);
                    st.dtil[ci] = line_dt[pos];
                    st.etil[ci] = line_et[pos];
                    *st.rhs.at_mut(i, j, k) = line_rhs[pos];
                }
                for row in &out_rows {
                    out.push(row.dtil);
                    out.push(row.etil);
                    out.extend_from_slice(&row.rtil);
                }
            }
        }
        if let Some(down) = dir.downstream(st) {
            ctx.send_sized(down, fwd_tag, fwd_doubles * 8, out);
        }
    }

    // ---- backward ----
    for b in 0..batches {
        let mut carries: Vec<[Vec5; 2]> = Vec::new();
        if let Some(down) = dir.downstream(st) {
            let msg = ctx.recv_async(down, bwd_tag).await;
            if mode.numeric() {
                carries = msg
                    .data
                    .chunks_exact(10)
                    .map(|ch| [ch[0..5].try_into().unwrap(), ch[5..10].try_into().unwrap()])
                    .collect();
            }
        }
        charge_batch(st, ctx, dir, b, false);
        let mut out: Vec<f64> = Vec::new();
        if mode.numeric() {
            out.reserve(bwd_doubles);
            for ln in 0..lines {
                for pos in 0..len {
                    let (i, j, k) = dir.cell(b, ln, pos);
                    let ci = st.cell_index(i, j, k);
                    line_dt[pos] = st.dtil[ci];
                    line_et[pos] = st.etil[ci];
                    line_rhs[pos] = *st.rhs.at(i, j, k);
                }
                let carry = carries.get(ln).copied().unwrap_or([[0.0; 5]; 2]);
                let first_two = penta::backward(&line_dt, &line_et, &mut line_rhs, carry);
                for pos in 0..len {
                    let (i, j, k) = dir.cell(b, ln, pos);
                    *st.rhs.at_mut(i, j, k) = line_rhs[pos];
                }
                for cell in &first_two {
                    out.extend_from_slice(cell);
                }
            }
        }
        if let Some(up) = dir.upstream(st) {
            ctx.send_sized(up, bwd_tag, bwd_doubles * 8, out);
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

/// The SP kernel decomposition (paper §4.2).
pub fn spec() -> AppSpec {
    AppSpec {
        init: vec![kernel_spec!(
            "initialization",
            common::kernel_initialization
        )],
        loop_kernels: vec![
            kernel_spec!("copy_faces", common::kernel_copy_faces),
            kernel_spec!("txinvr", txinvr),
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

    fn run_sp(p: usize, n: usize, iters: u32, perturb: f64) -> (FieldMap, f64, f64) {
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
                Benchmark::Sp,
                Physics::new(n, Benchmark::Sp.sigma()),
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
        let (_, resid, dev) = run_sp(4, 8, 3, 0.0);
        assert!(resid < 1e-22, "residual {resid}");
        assert!(dev < 1e-22, "deviation {dev}");
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let (serial, _, _) = run_sp(1, 8, 2, 0.1);
        let (par, _, _) = run_sp(4, 8, 2, 0.1);
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
    fn perturbed_run_converges_toward_steady_state() {
        let (_, _, dev1) = run_sp(4, 8, 1, 0.1);
        let (_, _, dev12) = run_sp(4, 8, 12, 0.1);
        assert!(dev12 < 0.5 * dev1, "{dev1} -> {dev12}");
    }

    #[test]
    fn txinvr_applies_inverse_transform() {
        Cluster::new(MachineConfig::test_tiny()).run(1, |ctx| {
            let mut st = RankState::new(
                Benchmark::Sp,
                Physics::new(8, 0.3),
                (8, 8, 8),
                ProcGrid::new(1, 1),
                ctx,
                true,
            );
            let r0 = [1.0, 2.0, 3.0, 4.0, 5.0];
            *st.rhs.at_mut(2, 3, 4) = r0;
            kc_machine::coop::complete_now(txinvr(&mut st, ctx, Mode::Numeric));
            // applying T should give the original back
            let tr = blocks::mat_vec(&st.phys.t_mat, st.rhs.at(2, 3, 4));
            for c in 0..5 {
                assert!((tr[c] - r0[c]).abs() < 1e-12);
            }
        });
    }

    #[test]
    fn profile_and_numeric_modes_agree_on_time() {
        let time = |mode: Mode| {
            let out = Cluster::new(MachineConfig::test_tiny()).run(4, |ctx| {
                let mut st = RankState::new(
                    Benchmark::Sp,
                    Physics::new(8, 0.3),
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
            (out.elapsed(), out.total_messages())
        };
        let (tn, mn) = time(Mode::Numeric);
        let (tp, mp) = time(Mode::Profile);
        assert_eq!(mn, mp);
        assert!((tn - tp).abs() < 1e-12, "{tn} vs {tp}");
    }
}
