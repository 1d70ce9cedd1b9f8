//! Per-rank benchmark state: fields, halos, solver scratch and the
//! memory regions the performance model charges against.

use crate::app::Benchmark;
use crate::blocks::{Block, Vec5};
use crate::physics::Physics;
use kc_cachesim::RegionId;
use kc_grid::{Field3, ProcGrid, Subdomain};
use kc_machine::RankCtx;

/// Bytes of one grid cell's five components.
pub const CELL_BYTES: usize = 5 * 8;

/// Received halo planes of the solution field.
///
/// Layout of each buffer: `[k][t][component]`, where `t` runs along
/// the in-face horizontal axis (y for west/east halos, x for
/// south/north).
#[derive(Clone, Debug, Default)]
pub struct HaloSet {
    /// Cells just west of the subdomain (empty at the global west
    /// boundary — the boundary value is `u₀ ≡ 0` there).
    pub west: Vec<f64>,
    /// Cells just east of the subdomain.
    pub east: Vec<f64>,
    /// Cells just south of the subdomain.
    pub south: Vec<f64>,
    /// Cells just north of the subdomain.
    pub north: Vec<f64>,
}

impl HaloSet {
    fn sized(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            west: vec![0.0; ny * nz * 5],
            east: vec![0.0; ny * nz * 5],
            south: vec![0.0; nx * nz * 5],
            north: vec![0.0; nx * nz * 5],
        }
    }

    /// Read one halo cell as a `Vec5`.
    #[inline]
    pub fn cell(buf: &[f64], n1: usize, t: usize, k: usize) -> Vec5 {
        let b = (k * n1 + t) * 5;
        buf[b..b + 5].try_into().unwrap()
    }
}

/// Region ids of the rank's arrays in the cache model.
#[derive(Clone, Copy, Debug)]
pub struct Regions {
    /// Solution field `u`.
    pub u: RegionId,
    /// Right-hand side / solver workspace `rhs`.
    pub rhs: RegionId,
    /// Manufactured forcing `f`.
    pub forcing: RegionId,
    /// Halo receive buffers.
    pub halo: RegionId,
    /// Solver left-hand-side scratch (eliminated coefficients).
    pub lhs: RegionId,
}

/// Per-cell bytes of solver scratch a benchmark keeps across the
/// forward/backward phases of its solves.
pub fn lhs_bytes_per_cell(benchmark: Benchmark) -> usize {
    match benchmark {
        // BT stores the eliminated 5x5 block Ctil per cell
        Benchmark::Bt => 25 * 8,
        // SP stores the two normalized upper coefficients per cell
        Benchmark::Sp => 2 * 8,
        // LU's sweeps are single-pass; per-cell block assembly only
        Benchmark::Lu => 25 * 8,
    }
}

/// Everything one rank holds while executing a benchmark.
#[derive(Debug)]
pub struct RankState {
    /// Which benchmark this state belongs to.
    pub benchmark: Benchmark,
    /// Problem physics (grid spacing, matrices, time step).
    pub phys: Physics,
    /// This rank's box.
    pub sub: Subdomain,
    /// The process grid.
    pub grid: ProcGrid,
    /// Solution field over the owned box.
    pub u: Field3<5>,
    /// Right-hand side / correction field.
    pub rhs: Field3<5>,
    /// Forcing field.
    pub forcing: Field3<5>,
    /// Received `u` halos.
    pub halo: HaloSet,
    /// Cache-model regions.
    pub reg: Regions,
    /// BT: eliminated `Ctil` blocks, one per cell (linear cell order).
    pub ctil: Vec<Block>,
    /// SP: normalized `dtil` per cell.
    pub dtil: Vec<f64>,
    /// SP: normalized `etil` per cell.
    pub etil: Vec<f64>,
    /// Number of main-loop iterations executed so far (diagnostic).
    pub iters_run: u32,
    /// Amplitude of the initial perturbation away from the steady
    /// state (0 for measurement runs; tests use it to obtain
    /// non-trivial solves).
    pub perturb_amp: f64,
    /// Verification output, filled by the FINAL kernel.
    pub verify: Option<crate::common::VerifyResult>,
    /// LU: surface-integral output, filled by PINTGR.
    pub pintgr: Option<f64>,
    /// LU: global deviation norm, filled by the ERROR kernel.
    pub error_norm: Option<f64>,
}

impl RankState {
    /// Allocate the state for `rank` of a `benchmark` on `global`
    /// cells over `grid`, registering the cache regions with `ctx`.
    ///
    /// `numeric` controls whether the big numeric scratch arrays are
    /// allocated (profile-only runs skip them to keep memory flat).
    pub fn new(
        benchmark: Benchmark,
        phys: Physics,
        global: (usize, usize, usize),
        grid: ProcGrid,
        ctx: &mut RankCtx,
        numeric: bool,
    ) -> Self {
        let sub = Subdomain::pencil(global, grid, ctx.rank());
        let (nx, ny, nz) = sub.local_dims();
        let cells = sub.cells();
        let field_bytes = cells * CELL_BYTES;
        let halo_bytes = 2 * (ny * nz + nx * nz) * CELL_BYTES;
        let reg = Regions {
            u: ctx.register_region("u", field_bytes),
            rhs: ctx.register_region("rhs", field_bytes),
            forcing: ctx.register_region("forcing", field_bytes),
            halo: ctx.register_region("halo", halo_bytes),
            lhs: ctx.register_region("lhs", cells * lhs_bytes_per_cell(benchmark)),
        };
        // profile runs keep one-cell fields and empty halos and scratch
        let (fx, fy, fz) = if numeric { (nx, ny, nz) } else { (1, 1, 1) };
        let scratch = |used: bool| if numeric && used { cells } else { 0 };
        Self {
            benchmark,
            phys,
            sub,
            grid,
            u: Field3::zeros(fx, fy, fz),
            rhs: Field3::zeros(fx, fy, fz),
            forcing: Field3::zeros(fx, fy, fz),
            halo: if numeric {
                HaloSet::sized(nx, ny, nz)
            } else {
                HaloSet::default()
            },
            reg,
            ctil: vec![[[0.0; 5]; 5]; scratch(benchmark == Benchmark::Bt)],
            dtil: vec![0.0; scratch(benchmark == Benchmark::Sp)],
            etil: vec![0.0; scratch(benchmark == Benchmark::Sp)],
            iters_run: 0,
            perturb_amp: 0.0,
            verify: None,
            pintgr: None,
            error_norm: None,
        }
    }

    /// Does nothing: the state's buffers are ordinary allocations,
    /// freed when it drops.  The method stays only because the
    /// benchmark harness (`benchmark/src/probes/npb.rs`) calls it, and
    /// ROADMAP item 3(a) removes both.
    pub fn recycle(self) {}

    /// Local extents.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.sub.local_dims()
    }

    /// Linear cell index of local `(i, j, k)` (i fastest — matches the
    /// field layout).
    #[inline]
    pub fn cell_index(&self, i: usize, j: usize, k: usize) -> usize {
        let (nx, ny, _) = self.dims();
        (k * ny + j) * nx + i
    }

    /// Byte offset of the row `(·, j, k)` in a field region.
    #[inline]
    pub fn row_offset(&self, j: usize, k: usize) -> usize {
        self.cell_index(0, j, k) * CELL_BYTES
    }

    /// Charge a contiguous row `(0..nx, j, k)` of a field region.
    #[inline]
    pub fn charge_row(&self, ctx: &mut RankCtx, region: RegionId, j: usize, k: usize) {
        let (nx, _, _) = self.dims();
        ctx.touch(region, self.row_offset(j, k), nx * CELL_BYTES);
    }

    /// Charge a contiguous row of the solver scratch region.
    #[inline]
    pub fn charge_lhs_row(&self, ctx: &mut RankCtx, j: usize, k: usize) {
        let (nx, _, _) = self.dims();
        let per = lhs_bytes_per_cell(self.benchmark);
        ctx.touch(self.reg.lhs, self.cell_index(0, j, k) * per, nx * per);
    }

    /// The six stencil neighbours of owned cell `(i, j, k)`: values
    /// come from the field, the received halos, or the homogeneous
    /// Dirichlet boundary (zeros).  Order: `x−, x+, y−, y+, z−, z+`.
    pub fn stencil_neighbours(&self, i: usize, j: usize, k: usize) -> [Vec5; 6] {
        let (nx, ny, nz) = self.dims();
        let xm = if i > 0 {
            *self.u.at(i - 1, j, k)
        } else if self.sub.at_west_boundary() {
            [0.0; 5]
        } else {
            HaloSet::cell(&self.halo.west, ny, j, k)
        };
        let xp = if i + 1 < nx {
            *self.u.at(i + 1, j, k)
        } else if self.sub.at_east_boundary() {
            [0.0; 5]
        } else {
            HaloSet::cell(&self.halo.east, ny, j, k)
        };
        let ym = if j > 0 {
            *self.u.at(i, j - 1, k)
        } else if self.sub.at_south_boundary() {
            [0.0; 5]
        } else {
            HaloSet::cell(&self.halo.south, nx, i, k)
        };
        let yp = if j + 1 < ny {
            *self.u.at(i, j + 1, k)
        } else if self.sub.at_north_boundary() {
            [0.0; 5]
        } else {
            HaloSet::cell(&self.halo.north, nx, i, k)
        };
        let zm = if k > 0 {
            *self.u.at(i, j, k - 1)
        } else {
            [0.0; 5]
        };
        let zp = if k + 1 < nz {
            *self.u.at(i, j, k + 1)
        } else {
            [0.0; 5]
        };
        [xm, xp, ym, yp, zm, zp]
    }

    /// Global coordinates of a local cell as signed ints (for the
    /// analytic `u₀`/forcing evaluations).
    #[inline]
    pub fn global_of(&self, i: usize, j: usize, k: usize) -> (isize, isize, isize) {
        let (gi, gj, gk) = self.sub.to_global(i, j, k);
        (gi as isize, gj as isize, gk as isize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_machine::{Cluster, MachineConfig};

    fn with_state<T: Send>(f: impl Fn(&mut RankState, &mut RankCtx) -> T + Sync) -> Vec<T> {
        let cluster = Cluster::new(MachineConfig::test_tiny());
        let out = cluster.run(4, |ctx| {
            let phys = Physics::new(8, 0.4);
            let mut st = RankState::new(
                Benchmark::Bt,
                phys,
                (8, 8, 8),
                ProcGrid::square(4),
                ctx,
                true,
            );
            f(&mut st, ctx)
        });
        out.results
    }

    #[test]
    fn state_allocates_partitioned_fields() {
        let dims = with_state(|st, _| st.dims());
        for d in dims {
            assert_eq!(d, (4, 4, 8));
        }
    }

    #[test]
    fn cell_index_matches_field_layout() {
        with_state(|st, _| {
            st.u.set(1, 2, 3, 0, 42.0);
            let idx = st.cell_index(1, 2, 3);
            assert_eq!(st.u.as_slice()[idx * 5], 42.0);
        });
    }

    #[test]
    fn boundary_stencil_neighbours_are_zero() {
        let oks = with_state(|st, _| {
            if st.sub.at_west_boundary() {
                let nb = st.stencil_neighbours(0, 1, 1);
                nb[0] == [0.0; 5]
            } else {
                true
            }
        });
        assert!(oks.into_iter().all(|b| b));
    }

    #[test]
    fn halo_cells_are_read_back() {
        with_state(|st, _| {
            if !st.sub.at_west_boundary() {
                let (_, ny, _) = st.dims();
                // fill the west halo cell (j=1, k=2) with a marker
                let b = (2 * ny + 1) * 5;
                for c in 0..5 {
                    st.halo.west[b + c] = (c + 1) as f64;
                }
                let nb = st.stencil_neighbours(0, 1, 2);
                assert_eq!(nb[0], [1.0, 2.0, 3.0, 4.0, 5.0]);
            }
        });
    }

    #[test]
    fn profile_state_is_lightweight() {
        let cluster = Cluster::new(MachineConfig::test_tiny());
        cluster.run(1, |ctx| {
            let phys = Physics::new(64, 0.4);
            let st = RankState::new(
                Benchmark::Bt,
                phys,
                (64, 64, 64),
                ProcGrid::square(1),
                ctx,
                false,
            );
            assert_eq!(st.u.cells(), 1);
            assert!(st.ctil.is_empty());
            // regions still registered at full size for the cache model
            assert_eq!(st.dims(), (64, 64, 64));
        });
    }
}
