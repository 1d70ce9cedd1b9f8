//! The LU application benchmark (SSOR solver).
//!
//! Paper §4.3: ten kernels — INITIALIZATION, ERHS, SSOR_INIT,
//! SSOR_ITER, SSOR_LT, SSOR_UT, SSOR_RS, ERROR, PINTGR, FINAL — with
//! steps 4–7 forming the main loop.  Each SSOR iteration computes the
//! residual right-hand side (SSOR_ITER), performs a lower-triangular
//! wavefront sweep (SSOR_LT), an upper-triangular sweep back
//! (SSOR_UT), and applies the correction (SSOR_RS).
//!
//! The sweeps are *diagonally pipelined* across the 2-D process grid,
//! exactly as the paper describes: processing proceeds z-plane by
//! z-plane; before a rank can sweep plane `k` it needs the sweep
//! values of its west boundary column and south boundary row for that
//! plane, which arrive as small messages (five words per boundary
//! cell) from the neighbours — LU is therefore very sensitive to
//! small-message performance, the paper's observation.  (We batch the
//! five-word cells of one plane edge into a single message; the
//! logical byte count is identical.)

use crate::app::AppSpec;
use crate::blocks::{self, Vec5};
use crate::common;
use crate::kernel::{kernel_spec, tags, Mode};
use crate::physics::RHS_CELL_FLOPS;
use crate::state::{HaloSet, RankState, CELL_BYTES};
use kc_machine::RankCtx;

/// Flops per cell for ERHS (forcing evaluation).
pub const ERHS_CELL_FLOPS: u64 = 300;
/// Flops per cell for the lower sweep (block assembly + factor +
/// neighbour matvec + solve).
pub const LU_LT_CELL_FLOPS: u64 = 440;
/// Flops per cell for the upper sweep (adds one extra matvec).
pub const LU_UT_CELL_FLOPS: u64 = 500;
/// Flops per cell for SSOR_RS (apply correction).
pub const LU_RS_CELL_FLOPS: u64 = 15;
/// Flops per cell for PINTGR (surface sums).
pub const PINTGR_CELL_FLOPS: u64 = 4;

/// INITIALIZATION (LU variant): set `u = u₀ (+ perturbation)` only;
/// the forcing is ERHS's job.
async fn lu_init(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.u, j, k);
            ctx.flops(100 * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let (gi, gj, gk) = st.global_of(i, j, k);
                    let mut u = st.phys.u0(gi, gj, gk);
                    if st.perturb_amp != 0.0 {
                        use std::f64::consts::PI;
                        let x = (gi + 1) as f64 * st.phys.h;
                        let y = (gj + 1) as f64 * st.phys.h;
                        let z = (gk + 1) as f64 * st.phys.h;
                        let b = (2.0 * PI * x).sin()
                            * (2.0 * PI * y).sin()
                            * (2.0 * PI * z).sin()
                            * st.perturb_amp;
                        for v in &mut u {
                            *v += b;
                        }
                    }
                    *st.u.at_mut(i, j, k) = u;
                    *st.rhs.at_mut(i, j, k) = [0.0; 5];
                }
            }
        }
    }
}

/// ERHS: compute the forcing (right-hand side of the steady system).
async fn erhs(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.forcing, j, k);
            ctx.flops(ERHS_CELL_FLOPS * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let (gi, gj, gk) = st.global_of(i, j, k);
                    *st.forcing.at_mut(i, j, k) = st.phys.forcing(gi, gj, gk);
                }
            }
        }
    }
}

/// SSOR_ITER: the residual right-hand side `rhs = dτ (L u + f)`,
/// including the halo exchange it needs (identical structure to
/// BT/SP's COPY_FACES).
async fn ssor_iter(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    common::exchange_u_faces(st, ctx, mode).await;
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.u, j, k);
            if j + 1 < ny {
                st.charge_row(ctx, st.reg.u, j + 1, k);
            }
            if k + 1 < nz {
                st.charge_row(ctx, st.reg.u, j, k + 1);
            }
            st.charge_row(ctx, st.reg.forcing, j, k);
            st.charge_row(ctx, st.reg.rhs, j, k);
            ctx.flops(RHS_CELL_FLOPS * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let nb = st.stencil_neighbours(i, j, k);
                    let u = st.u.at(i, j, k);
                    let f = st.forcing.at(i, j, k);
                    *st.rhs.at_mut(i, j, k) = st.phys.rhs_cell(u, &nb, f);
                }
            }
        }
    }
}

/// SSOR_INIT: one residual evaluation plus the global residual norm
/// (the "initialize various values for SSOR" kernel).
async fn ssor_init(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    ssor_iter(st, ctx, mode).await;
    let (nx, ny, nz) = st.dims();
    let mut norm = 0.0;
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.rhs, j, k);
            ctx.flops(10 * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    for v in st.rhs.at(i, j, k) {
                        norm += v * v;
                    }
                }
            }
        }
    }
    let _ = ctx.allreduce_sum_async(norm).await;
}

/// The diagonal block `D = I + 6σM + φ(u)I`, factored in place.
fn diag_block(st: &RankState, u_first: f64) -> blocks::Block {
    let mut d = blocks::add(
        &blocks::identity(),
        &blocks::scale(&st.phys.m, 6.0 * st.phys.sigma),
    );
    let phi = st.phys.phi(u_first);
    for c in 0..5 {
        d[c][c] += phi;
    }
    blocks::lu_factor(&mut d);
    d
}

/// Charge the memory traffic of one sweep over one z-plane.  Unlike
/// BT/SP, the sweeps keep no cross-phase solver state: the per-cell
/// Jacobian blocks are assembled, factored and consumed in registers,
/// so only the fields themselves are streamed.
fn charge_plane(st: &RankState, ctx: &mut RankCtx, k: usize) {
    let (_, ny, _) = st.dims();
    for j in 0..ny {
        st.charge_row(ctx, st.reg.u, j, k);
        st.charge_row(ctx, st.reg.rhs, j, k);
    }
}

/// SSOR_LT: the lower-triangular sweep, `(D + L) y = rhs`, forward
/// wavefront with west/south ghost values per plane.
async fn ssor_lt(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    let sigma = st.phys.sigma;
    let m = st.phys.m;
    let west = st.grid.west(st.sub.rank);
    let east = st.grid.east(st.sub.rank);
    let south = st.grid.south(st.sub.rank);
    let north = st.grid.north(st.sub.rank);
    for k in 0..nz {
        // ghost sweep values for this plane
        let mut gw: Vec<f64> = Vec::new();
        let mut gs: Vec<f64> = Vec::new();
        if let Some(w) = west {
            let msg = ctx.recv_async(w, tags::LT_X).await;
            gw = msg.data;
        }
        if let Some(s) = south {
            let msg = ctx.recv_async(s, tags::LT_Y).await;
            gs = msg.data;
        }
        charge_plane(st, ctx, k);
        ctx.flops(LU_LT_CELL_FLOPS * (nx * ny) as u64);
        if mode.numeric() {
            for j in 0..ny {
                for i in 0..nx {
                    let yw: Vec5 = if i > 0 {
                        *st.rhs.at(i - 1, j, k)
                    } else if gw.is_empty() {
                        [0.0; 5]
                    } else {
                        HaloSet::cell(&gw, ny, j, 0)
                    };
                    let ys: Vec5 = if j > 0 {
                        *st.rhs.at(i, j - 1, k)
                    } else if gs.is_empty() {
                        [0.0; 5]
                    } else {
                        HaloSet::cell(&gs, nx, i, 0)
                    };
                    let yd: Vec5 = if k > 0 {
                        *st.rhs.at(i, j, k - 1)
                    } else {
                        [0.0; 5]
                    };
                    let mut s = [0.0; 5];
                    for c in 0..5 {
                        s[c] = yw[c] + ys[c] + yd[c];
                    }
                    let ms = blocks::mat_vec(&m, &s);
                    let mut r = *st.rhs.at(i, j, k);
                    for c in 0..5 {
                        r[c] += sigma * ms[c];
                    }
                    let d = diag_block(st, st.u.at(i, j, k)[0]);
                    blocks::lu_solve_vec(&d, &mut r);
                    *st.rhs.at_mut(i, j, k) = r;
                }
            }
        }
        // forward this plane's boundary values
        if let Some(e) = east {
            let data = if mode.numeric() {
                let mut v = Vec::with_capacity(ny * 5);
                for j in 0..ny {
                    v.extend_from_slice(st.rhs.at(nx - 1, j, k));
                }
                v
            } else {
                Vec::new()
            };
            ctx.send_sized(e, tags::LT_X, ny * CELL_BYTES, data);
        }
        if let Some(n) = north {
            let data = if mode.numeric() {
                let mut v = Vec::with_capacity(nx * 5);
                for i in 0..nx {
                    v.extend_from_slice(st.rhs.at(i, ny - 1, k));
                }
                v
            } else {
                Vec::new()
            };
            ctx.send_sized(n, tags::LT_Y, nx * CELL_BYTES, data);
        }
    }
}

/// SSOR_UT: the upper-triangular sweep, `(D + U) z = D y`, reverse
/// wavefront with east/north ghost values per plane.
async fn ssor_ut(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    let sigma = st.phys.sigma;
    let m = st.phys.m;
    let west = st.grid.west(st.sub.rank);
    let east = st.grid.east(st.sub.rank);
    let south = st.grid.south(st.sub.rank);
    let north = st.grid.north(st.sub.rank);
    for k in (0..nz).rev() {
        let mut ge: Vec<f64> = Vec::new();
        let mut gn: Vec<f64> = Vec::new();
        if let Some(e) = east {
            ge = ctx.recv_async(e, tags::UT_X).await.data;
        }
        if let Some(n) = north {
            gn = ctx.recv_async(n, tags::UT_Y).await.data;
        }
        charge_plane(st, ctx, k);
        ctx.flops(LU_UT_CELL_FLOPS * (nx * ny) as u64);
        if mode.numeric() {
            for j in (0..ny).rev() {
                for i in (0..nx).rev() {
                    let ze: Vec5 = if i + 1 < nx {
                        *st.rhs.at(i + 1, j, k)
                    } else if ge.is_empty() {
                        [0.0; 5]
                    } else {
                        HaloSet::cell(&ge, ny, j, 0)
                    };
                    let zn: Vec5 = if j + 1 < ny {
                        *st.rhs.at(i, j + 1, k)
                    } else if gn.is_empty() {
                        [0.0; 5]
                    } else {
                        HaloSet::cell(&gn, nx, i, 0)
                    };
                    let zu: Vec5 = if k + 1 < nz {
                        *st.rhs.at(i, j, k + 1)
                    } else {
                        [0.0; 5]
                    };
                    let mut s = [0.0; 5];
                    for c in 0..5 {
                        s[c] = ze[c] + zn[c] + zu[c];
                    }
                    let ms = blocks::mat_vec(&m, &s);
                    // t = D·y + σ M Σ z_upper
                    let d_unf = {
                        let mut d =
                            blocks::add(&blocks::identity(), &blocks::scale(&m, 6.0 * sigma));
                        let phi = st.phys.phi(st.u.at(i, j, k)[0]);
                        for c in 0..5 {
                            d[c][c] += phi;
                        }
                        d
                    };
                    let y = *st.rhs.at(i, j, k);
                    let mut t = blocks::mat_vec(&d_unf, &y);
                    for c in 0..5 {
                        t[c] += sigma * ms[c];
                    }
                    let d = diag_block(st, st.u.at(i, j, k)[0]);
                    blocks::lu_solve_vec(&d, &mut t);
                    *st.rhs.at_mut(i, j, k) = t;
                }
            }
        }
        if let Some(w) = west {
            let data = if mode.numeric() {
                let mut v = Vec::with_capacity(ny * 5);
                for j in 0..ny {
                    v.extend_from_slice(st.rhs.at(0, j, k));
                }
                v
            } else {
                Vec::new()
            };
            ctx.send_sized(w, tags::UT_X, ny * CELL_BYTES, data);
        }
        if let Some(s) = south {
            let data = if mode.numeric() {
                let mut v = Vec::with_capacity(nx * 5);
                for i in 0..nx {
                    v.extend_from_slice(st.rhs.at(i, 0, k));
                }
                v
            } else {
                Vec::new()
            };
            ctx.send_sized(s, tags::UT_Y, nx * CELL_BYTES, data);
        }
    }
}

/// SSOR_RS: apply the correction, `u += z`.
async fn ssor_rs(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.rhs, j, k);
            st.charge_row(ctx, st.reg.u, j, k);
            ctx.flops(LU_RS_CELL_FLOPS * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let r = *st.rhs.at(i, j, k);
                    let u = st.u.at_mut(i, j, k);
                    for c in 0..5 {
                        u[c] += r[c];
                    }
                }
            }
        }
    }
    st.iters_run += 1;
}

/// ERROR: global deviation norm `‖u − u₀‖²`.
async fn error(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    let mut dev = 0.0;
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.u, j, k);
            ctx.flops(20 * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let (gi, gj, gk) = st.global_of(i, j, k);
                    let u0 = st.phys.u0(gi, gj, gk);
                    let u = st.u.at(i, j, k);
                    for c in 0..5 {
                        let d = u[c] - u0[c];
                        dev += d * d;
                    }
                }
            }
        }
    }
    st.error_norm = Some(ctx.allreduce_sum_async(dev).await);
}

/// PINTGR: surface integral of the first component over the global
/// top z-plane.
async fn pintgr(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    let k = nz - 1;
    let mut acc = 0.0;
    for j in 0..ny {
        st.charge_row(ctx, st.reg.u, j, k);
        ctx.flops(PINTGR_CELL_FLOPS * nx as u64);
        if mode.numeric() {
            for i in 0..nx {
                acc += st.u.at(i, j, k)[0];
            }
        }
    }
    let total = ctx.allreduce_sum_async(acc * st.phys.h * st.phys.h).await;
    st.pintgr = Some(total);
}

/// The LU kernel decomposition (paper §4.3).
pub fn spec() -> AppSpec {
    AppSpec {
        init: vec![
            kernel_spec!("initialization", lu_init),
            kernel_spec!("erhs", erhs),
            kernel_spec!("ssor_init", ssor_init),
        ],
        loop_kernels: vec![
            kernel_spec!("ssor_iter", ssor_iter),
            kernel_spec!("ssor_lt", ssor_lt),
            kernel_spec!("ssor_ut", ssor_ut),
            kernel_spec!("ssor_rs", ssor_rs),
        ],
        final_kernels: vec![
            kernel_spec!("error", error),
            kernel_spec!("pintgr", pintgr),
            kernel_spec!("final", common::kernel_final),
        ],
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

    fn run_lu(p: usize, n: usize, iters: u32, perturb: f64) -> (FieldMap, f64, f64) {
        let grid = if p == 1 {
            ProcGrid::new(1, 1)
        } else {
            ProcGrid::power_of_two(p)
        };
        let spec = spec();
        let map = Mutex::new(HashMap::new());
        let norms = Mutex::new((0.0, 0.0));
        Cluster::new(MachineConfig::test_tiny()).run(p, |ctx| {
            let mut st = RankState::new(
                Benchmark::Lu,
                Physics::new(n, Benchmark::Lu.sigma()),
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
            *norms.lock() = (st.error_norm.unwrap(), st.verify.unwrap().resid_norm);
        });
        let n = norms.into_inner();
        (map.into_inner(), n.0, n.1)
    }

    #[test]
    fn steady_state_is_a_fixed_point() {
        let (_, dev, resid) = run_lu(4, 8, 3, 0.0);
        assert!(dev < 1e-22, "deviation {dev}");
        assert!(resid < 1e-22, "residual {resid}");
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let (serial, _, _) = run_lu(1, 8, 2, 0.1);
        let (par, _, _) = run_lu(4, 8, 2, 0.1);
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
    fn eight_rank_rectangular_grid_matches_serial() {
        // LU's power-of-two rule gives a 4x2 grid at p=8
        let (serial, _, _) = run_lu(1, 8, 2, 0.05);
        let (par, _, _) = run_lu(8, 8, 2, 0.05);
        for (g, v) in &serial {
            let pv = par[g];
            for c in 0..5 {
                assert!((v[c] - pv[c]).abs() < 1e-13, "u at {g:?} comp {c}");
            }
        }
    }

    #[test]
    fn ssor_converges_toward_steady_state() {
        let (_, dev1, _) = run_lu(4, 8, 1, 0.1);
        let (_, dev12, _) = run_lu(4, 8, 12, 0.1);
        assert!(
            dev12 < 0.5 * dev1,
            "SSOR should contract: {dev1} -> {dev12}"
        );
    }

    #[test]
    fn pintgr_matches_analytic_surface_sum() {
        let spec = spec();
        let vals = Mutex::new(Vec::new());
        Cluster::new(MachineConfig::test_tiny()).run(4, |ctx| {
            let mut st = RankState::new(
                Benchmark::Lu,
                Physics::new(8, 0.4),
                (8, 8, 8),
                ProcGrid::power_of_two(4),
                ctx,
                true,
            );
            for kern in &spec.init {
                (kern.run)(&mut st, ctx, Mode::Numeric);
            }
            kc_machine::coop::complete_now(pintgr(&mut st, ctx, Mode::Numeric));
            vals.lock().push(st.pintgr.unwrap());
        });
        let vals = vals.into_inner();
        // analytic: sum over top plane of u0[0] * h^2
        let phys = Physics::new(8, 0.4);
        let mut expect = 0.0;
        for j in 0..8 {
            for i in 0..8 {
                expect += phys.u0(i, j, 7)[0];
            }
        }
        expect *= phys.h * phys.h;
        for v in vals {
            assert!((v - expect).abs() < 1e-12, "{v} vs {expect}");
        }
    }

    #[test]
    fn profile_and_numeric_modes_agree_on_time() {
        let time = |mode: Mode| {
            let out = Cluster::new(MachineConfig::test_tiny()).run(4, |ctx| {
                let mut st = RankState::new(
                    Benchmark::Lu,
                    Physics::new(8, 0.4),
                    (8, 8, 8),
                    ProcGrid::power_of_two(4),
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
}
