//! Dense 3-D multi-component arrays ([`Field3`]).
//!
//! Layout follows the NPB Fortran convention translated to row-major
//! Rust: the component index is fastest, then `i`, `j`, `k`
//! (`u(1:5, i, j, k)` in the Fortran source becomes
//! `field.at(i, j, k)[0..5]` here), so one grid cell's components are
//! always contiguous — exactly the access unit the 5x5 block solvers
//! consume.

/// A dense 3-D array of `NC`-component cells (component-fastest layout).
///
/// `NC` is a const generic so the component loop unrolls in the block
/// solvers; the NPB fields all use `NC = 5`.
#[derive(Clone, Debug, PartialEq)]
pub struct Field3<const NC: usize> {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f64>,
}

impl<const NC: usize> Field3<NC> {
    /// Create a zero-filled field of the given cell extents.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            data: vec![0.0; nx * ny * nz * NC],
        }
    }

    /// Cell extents as `(nx, ny, nz)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Number of cells (not scalar elements).
    #[inline]
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Total bytes of the backing storage; used by the performance model
    /// to size region touches.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    #[inline]
    fn base(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(
            i < self.nx && j < self.ny && k < self.nz,
            "index ({i},{j},{k}) out of bounds ({},{},{})",
            self.nx,
            self.ny,
            self.nz
        );
        ((k * self.ny + j) * self.nx + i) * NC
    }

    /// The `NC` components of cell `(i, j, k)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> &[f64; NC] {
        let b = self.base(i, j, k);
        self.data[b..b + NC].try_into().unwrap()
    }

    /// The `NC` components of cell `(i, j, k)`, mutably.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize) -> &mut [f64; NC] {
        let b = self.base(i, j, k);
        (&mut self.data[b..b + NC]).try_into().unwrap()
    }

    /// A single component of a cell.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, c: usize) -> f64 {
        debug_assert!(c < NC);
        self.data[self.base(i, j, k) + c]
    }

    /// Write a single component of a cell.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, c: usize, v: f64) {
        debug_assert!(c < NC);
        let b = self.base(i, j, k) + c;
        self.data[b] = v;
    }

    /// The raw backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Fill every scalar element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Sum over all cells of the squared component values,
    /// reported per component.  This is the residual-norm shape the NPB
    /// verification routines use.
    pub fn norms_sq(&self) -> [f64; NC] {
        let mut acc = [0.0; NC];
        for cell in self.data.chunks_exact(NC) {
            for (a, v) in acc.iter_mut().zip(cell) {
                *a += v * v;
            }
        }
        acc
    }

    /// `self += other`, element-wise.  Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.dims(), other.dims(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Maximum absolute difference to another field of the same shape.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.dims(), other.dims(), "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field3_components_contiguous() {
        let mut f = Field3::<5>::zeros(2, 2, 2);
        for c in 0..5 {
            f.set(1, 0, 0, c, c as f64);
        }
        // cell (1,0,0) starts at scalar offset 5
        assert_eq!(&f.as_slice()[5..10], &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn field3_at_mut_roundtrip() {
        let mut f = Field3::<3>::zeros(2, 3, 4);
        f.at_mut(1, 2, 3).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(f.at(1, 2, 3), &[1.0, 2.0, 3.0]);
        assert_eq!(f.get(1, 2, 3, 1), 2.0);
    }

    #[test]
    fn field3_norms_sq_per_component() {
        let mut f = Field3::<2>::zeros(2, 1, 1);
        f.set(0, 0, 0, 0, 3.0);
        f.set(1, 0, 0, 0, 4.0);
        f.set(0, 0, 0, 1, 1.0);
        let n = f.norms_sq();
        assert_eq!(n[0], 25.0);
        assert_eq!(n[1], 1.0);
    }

    #[test]
    fn field3_add_assign_and_diff() {
        let mut a = Field3::<2>::zeros(2, 2, 1);
        let mut b = Field3::<2>::zeros(2, 2, 1);
        a.set(0, 0, 0, 0, 1.0);
        b.set(0, 0, 0, 0, 2.0);
        a.add_assign(&b);
        assert_eq!(a.get(0, 0, 0, 0), 3.0);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn field3_bytes() {
        let f = Field3::<5>::zeros(2, 2, 2);
        assert_eq!(f.bytes(), 2 * 2 * 2 * 5 * 8);
    }

    #[test]
    #[should_panic]
    fn field3_shape_mismatch_panics() {
        let mut a = Field3::<2>::zeros(2, 2, 1);
        let b = Field3::<2>::zeros(2, 1, 1);
        a.add_assign(&b);
    }
}
