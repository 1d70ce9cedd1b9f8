//! Kernels shared between benchmarks: INITIALIZATION, COPY_FACES, ADD
//! and the FINAL verification, plus the halo-exchange helper they are
//! built on.

use crate::kernel::{tags, Mode};
use crate::physics::RHS_CELL_FLOPS;
use crate::state::{RankState, CELL_BYTES};
use kc_grid::{Face, FaceBuffer};
use kc_machine::RankCtx;

/// Flops per cell for INITIALIZATION (analytic `u₀` + forcing
/// evaluation, dominated by the transcendental calls).
pub const INIT_CELL_FLOPS: u64 = 400;
/// Flops per cell for ADD.
pub const ADD_CELL_FLOPS: u64 = 10;
/// Flops per cell for the verification norms.
pub const VERIFY_CELL_FLOPS: u64 = 30;

/// Verification output deposited in [`RankState::verify`] by the FINAL
/// kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerifyResult {
    /// Global L2² norm of the current right-hand side.
    pub resid_norm: f64,
    /// Global L2² norm of `u − u₀` (deviation from the manufactured
    /// steady state).
    pub dev_norm: f64,
}

/// INITIALIZATION: set `u = u₀ (+ perturbation)` and the manufactured
/// forcing over the owned box.
pub async fn kernel_initialization(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.u, j, k);
            st.charge_row(ctx, st.reg.forcing, j, k);
            ctx.flops(INIT_CELL_FLOPS * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let (gi, gj, gk) = st.global_of(i, j, k);
                    let mut u = st.phys.u0(gi, gj, gk);
                    if st.perturb_amp != 0.0 {
                        let b = bump(&st.phys, gi, gj, gk) * st.perturb_amp;
                        for v in &mut u {
                            *v += b;
                        }
                    }
                    *st.u.at_mut(i, j, k) = u;
                    *st.forcing.at_mut(i, j, k) = st.phys.forcing(gi, gj, gk);
                    *st.rhs.at_mut(i, j, k) = [0.0; 5];
                }
            }
        }
    }
}

/// A smooth perturbation that vanishes on the global boundary.
fn bump(phys: &crate::physics::Physics, gi: isize, gj: isize, gk: isize) -> f64 {
    use std::f64::consts::PI;
    let x = (gi + 1) as f64 * phys.h;
    let y = (gj + 1) as f64 * phys.h;
    let z = (gk + 1) as f64 * phys.h;
    (2.0 * PI * x).sin() * (2.0 * PI * y).sin() * (2.0 * PI * z).sin()
}

/// Exchange the four `u` faces with the grid neighbours, filling
/// [`RankState::halo`].  Non-blocking-style: all sends are posted
/// before any receive.
pub async fn exchange_u_faces(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    let we_bytes = ny * nz * CELL_BYTES;
    let sn_bytes = nx * nz * CELL_BYTES;

    // sends: my EAST face becomes the east neighbour's WEST halo, etc.
    let sends = [
        (
            st.grid.east(st.sub.rank),
            Face::East,
            tags::FACE_W,
            we_bytes,
        ),
        (
            st.grid.west(st.sub.rank),
            Face::West,
            tags::FACE_E,
            we_bytes,
        ),
        (
            st.grid.north(st.sub.rank),
            Face::North,
            tags::FACE_S,
            sn_bytes,
        ),
        (
            st.grid.south(st.sub.rank),
            Face::South,
            tags::FACE_N,
            sn_bytes,
        ),
    ];
    for (dest, face, tag, bytes) in sends {
        let Some(dest) = dest else { continue };
        // reading the face strides through u
        match face {
            Face::West => {
                ctx.touch_strided(st.reg.u, 0, nx * CELL_BYTES, CELL_BYTES, ny * nz);
            }
            Face::East => {
                ctx.touch_strided(
                    st.reg.u,
                    (nx - 1) * CELL_BYTES,
                    nx * CELL_BYTES,
                    CELL_BYTES,
                    ny * nz,
                );
            }
            Face::South => {
                ctx.touch_strided(st.reg.u, 0, nx * ny * CELL_BYTES, nx * CELL_BYTES, nz);
            }
            Face::North => {
                ctx.touch_strided(
                    st.reg.u,
                    (ny - 1) * nx * CELL_BYTES,
                    nx * ny * CELL_BYTES,
                    nx * CELL_BYTES,
                    nz,
                );
            }
        }
        let payload = if mode.numeric() {
            FaceBuffer::<5>::pack(&st.u, face).into_vec()
        } else {
            Vec::new()
        };
        ctx.send_sized(dest, tag, bytes, payload);
    }

    // receives, in a fixed order
    let recvs = [
        (st.grid.west(st.sub.rank), tags::FACE_W, we_bytes, 0usize),
        (st.grid.east(st.sub.rank), tags::FACE_E, we_bytes, 1),
        (st.grid.south(st.sub.rank), tags::FACE_S, sn_bytes, 2),
        (st.grid.north(st.sub.rank), tags::FACE_N, sn_bytes, 3),
    ];
    for (src, tag, bytes, which) in recvs {
        let Some(src) = src else { continue };
        let msg = ctx.recv_async(src, tag).await;
        // halo region offsets: west, east, south, north packed in order
        let off = match which {
            0 => 0,
            1 => we_bytes,
            2 => 2 * we_bytes,
            _ => 2 * we_bytes + sn_bytes,
        };
        ctx.touch(st.reg.halo, off, bytes);
        if mode.numeric() {
            debug_assert_eq!(msg.data.len() * 8, bytes);
            let buf = match which {
                0 => &mut st.halo.west,
                1 => &mut st.halo.east,
                2 => &mut st.halo.south,
                _ => &mut st.halo.north,
            };
            buf.copy_from_slice(&msg.data);
        }
    }
}

/// COPY_FACES: halo exchange plus the right-hand-side computation
/// (phase-one RHS, as in the paper's kernel description).
pub async fn kernel_copy_faces(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    exchange_u_faces(st, ctx, mode).await;
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            // stencil reads stream u (current row + forward neighbours)
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

/// ADD: `u += rhs` (the solved correction).
pub async fn kernel_add(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.rhs, j, k);
            st.charge_row(ctx, st.reg.u, j, k);
            ctx.flops(ADD_CELL_FLOPS * nx as u64);
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

/// FINAL: verify solution integrity — global residual and
/// deviation-from-steady-state norms via all-reduce.
pub async fn kernel_final(st: &mut RankState, ctx: &mut RankCtx<'_>, mode: Mode) {
    let (nx, ny, nz) = st.dims();
    let mut resid = 0.0;
    let mut dev = 0.0;
    for k in 0..nz {
        for j in 0..ny {
            st.charge_row(ctx, st.reg.u, j, k);
            st.charge_row(ctx, st.reg.rhs, j, k);
            ctx.flops(VERIFY_CELL_FLOPS * nx as u64);
            if mode.numeric() {
                for i in 0..nx {
                    let r = st.rhs.at(i, j, k);
                    let u = st.u.at(i, j, k);
                    let (gi, gj, gk) = st.global_of(i, j, k);
                    let u0 = st.phys.u0(gi, gj, gk);
                    for c in 0..5 {
                        resid += r[c] * r[c];
                        let d = u[c] - u0[c];
                        dev += d * d;
                    }
                }
            }
        }
    }
    let resid_norm = ctx.allreduce_sum_async(resid).await;
    let dev_norm = ctx.allreduce_sum_async(dev).await;
    st.verify = Some(VerifyResult {
        resid_norm,
        dev_norm,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Benchmark;
    use crate::physics::Physics;
    use kc_grid::ProcGrid;
    use kc_machine::coop::complete_now;
    use kc_machine::{Cluster, MachineConfig};

    fn run_on(p: usize, n: usize, f: impl Fn(&mut RankState, &mut RankCtx) + Sync) {
        let grid = if p == 1 {
            ProcGrid::new(1, 1)
        } else {
            ProcGrid::square(p)
        };
        Cluster::new(MachineConfig::test_tiny()).run(p, |ctx| {
            let mut st = RankState::new(
                Benchmark::Bt,
                Physics::new(n, 0.4),
                (n, n, n),
                grid,
                ctx,
                true,
            );
            f(&mut st, ctx);
        });
    }

    #[test]
    fn initialization_sets_steady_state() {
        run_on(4, 8, |st, ctx| {
            complete_now(kernel_initialization(st, ctx, Mode::Numeric));
            let (gi, gj, gk) = st.global_of(1, 1, 2);
            assert_eq!(*st.u.at(1, 1, 2), st.phys.u0(gi, gj, gk));
        });
    }

    #[test]
    fn copy_faces_rhs_vanishes_at_steady_state() {
        // u = u0 everywhere -> rhs must be identically ~0, which
        // exercises the stencil, the halos and the forcing together
        run_on(4, 8, |st, ctx| {
            complete_now(kernel_initialization(st, ctx, Mode::Numeric));
            complete_now(kernel_copy_faces(st, ctx, Mode::Numeric));
            let (nx, ny, nz) = st.dims();
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        for c in 0..5 {
                            let v = st.rhs.at(i, j, k)[c];
                            assert!(
                                v.abs() < 1e-13,
                                "rhs({i},{j},{k})[{c}] = {v} on rank {}",
                                st.sub.rank
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn copy_faces_rhs_matches_serial_run() {
        use parking_lot::Mutex;
        use std::collections::HashMap;
        // perturbed field: parallel rhs must equal serial rhs exactly
        let gather = |p: usize| {
            let map = Mutex::new(HashMap::new());
            let grid = if p == 1 {
                ProcGrid::new(1, 1)
            } else {
                ProcGrid::square(p)
            };
            Cluster::new(MachineConfig::test_tiny()).run(p, |ctx| {
                let mut st = RankState::new(
                    Benchmark::Bt,
                    Physics::new(8, 0.4),
                    (8, 8, 8),
                    grid,
                    ctx,
                    true,
                );
                st.perturb_amp = 0.1;
                complete_now(kernel_initialization(&mut st, ctx, Mode::Numeric));
                complete_now(kernel_copy_faces(&mut st, ctx, Mode::Numeric));
                let (nx, ny, nz) = st.dims();
                let mut m = map.lock();
                for k in 0..nz {
                    for j in 0..ny {
                        for i in 0..nx {
                            let g = st.sub.to_global(i, j, k);
                            m.insert(g, *st.rhs.at(i, j, k));
                        }
                    }
                }
            });
            map.into_inner()
        };
        let serial = gather(1);
        let par = gather(4);
        assert_eq!(serial.len(), par.len());
        for (g, v) in &serial {
            let pv = par.get(g).unwrap();
            for c in 0..5 {
                assert!(
                    (v[c] - pv[c]).abs() < 1e-14,
                    "rhs at {g:?} comp {c}: serial {} vs parallel {}",
                    v[c],
                    pv[c]
                );
            }
        }
    }

    #[test]
    fn add_applies_correction_and_counts_iters() {
        run_on(1, 8, |st, ctx| {
            complete_now(kernel_initialization(st, ctx, Mode::Numeric));
            let before = st.u.at(2, 2, 2)[0];
            *st.rhs.at_mut(2, 2, 2) = [1.0; 5];
            complete_now(kernel_add(st, ctx, Mode::Numeric));
            assert_eq!(st.u.at(2, 2, 2)[0], before + 1.0);
            assert_eq!(st.iters_run, 1);
        });
    }

    #[test]
    fn final_norms_are_global_and_zero_at_steady_state() {
        run_on(4, 8, |st, ctx| {
            complete_now(kernel_initialization(st, ctx, Mode::Numeric));
            complete_now(kernel_copy_faces(st, ctx, Mode::Numeric));
            complete_now(kernel_final(st, ctx, Mode::Numeric));
            let v = st.verify.unwrap();
            assert!(v.resid_norm < 1e-20, "resid {}", v.resid_norm);
            assert!(v.dev_norm < 1e-20, "dev {}", v.dev_norm);
        });
    }

    #[test]
    fn profile_mode_sends_the_same_traffic() {
        let count = |mode: Mode| {
            let out = Cluster::new(MachineConfig::test_tiny()).run(4, |ctx| {
                let mut st = RankState::new(
                    Benchmark::Bt,
                    Physics::new(8, 0.4),
                    (8, 8, 8),
                    ProcGrid::square(4),
                    ctx,
                    mode.numeric(),
                );
                complete_now(kernel_initialization(&mut st, ctx, mode));
                complete_now(kernel_copy_faces(&mut st, ctx, mode));
            });
            (out.total_messages(), out.total_bytes(), out.elapsed())
        };
        let (mn, bn, tn) = count(Mode::Numeric);
        let (mp, bp, tp) = count(Mode::Profile);
        assert_eq!(mn, mp, "message counts must match across modes");
        assert_eq!(bn, bp, "logical bytes must match across modes");
        assert!(
            (tn - tp).abs() < 1e-12,
            "virtual time must match: {tn} vs {tp}"
        );
    }
}
