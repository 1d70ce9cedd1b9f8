//! Per-rank performance context: converts kernel-reported work into
//! virtual time.

use crate::config::MachineConfig;
use kc_cachesim::{AccessCounts, CacheHierarchy, RegionId, RegionMap};

/// The per-rank performance model: a virtual clock, a private cache
/// hierarchy and a region map.
///
/// Kernels report their work through three channels:
///
/// * [`PerfContext::flops`] — floating-point operations, charged at the
///   machine's sustained rate;
/// * [`PerfContext::touch`] / [`PerfContext::touch_strided`] — memory
///   traffic against registered regions, charged per line according to
///   which cache level serves it;
/// * a raw clock advance — anything else (used by the communication
///   layer for overheads).
#[derive(Debug)]
pub struct PerfContext {
    clock: f64,
    hierarchy: CacheHierarchy,
    regions: RegionMap,
    cfg: MachineConfig,
    flops_total: u64,
}

impl PerfContext {
    /// Build the context for one rank of a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            clock: 0.0,
            hierarchy: CacheHierarchy::new(cfg.caches.clone()),
            regions: RegionMap::new(),
            cfg,
            flops_total: 0,
        }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advance the clock by `seconds` (must be non-negative).
    #[inline]
    pub(crate) fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance clock backwards");
        self.clock += seconds;
    }

    /// Jump the clock forward to `t` if `t` is later (used when a
    /// receive waits on a message that has not arrived yet).
    #[inline]
    pub(crate) fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Charge `n` floating-point operations.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.flops_total += n;
        self.clock += self.cfg.cpu.flop_time(n);
    }

    /// Total flops charged so far.
    #[inline]
    pub(crate) fn flops_total(&self) -> u64 {
        self.flops_total
    }

    /// Register a memory region of `size` bytes under `name`.
    pub fn register_region(&mut self, name: &str, size: usize) -> RegionId {
        self.regions.register(name, size)
    }

    /// Charge a contiguous touch of `bytes` bytes at `offset` into
    /// region `id`.
    pub fn touch(&mut self, id: RegionId, offset: usize, bytes: usize) -> AccessCounts {
        let span = self.regions.span(id, offset, bytes);
        let counts = self.hierarchy.touch(span);
        self.clock += self.stall_time(&counts);
        counts
    }

    /// Charge a strided touch: `count` elements of `elem` bytes,
    /// `stride` bytes apart, starting at `offset` into region `id`.
    ///
    /// # Panics
    /// If the last element overruns the registered region size.
    pub fn touch_strided(
        &mut self,
        id: RegionId,
        offset: usize,
        stride: usize,
        elem: usize,
        count: usize,
    ) -> AccessCounts {
        // the whole pencil, not just its first element, must lie in
        // the region (a length that saturates lies in none)
        let extent = count
            .saturating_sub(1)
            .saturating_mul(stride)
            .saturating_add(elem);
        let base = self.regions.span(id, offset, extent).addr;
        let counts = self
            .hierarchy
            .touch_strided(base, stride as u64, elem as u64, count as u64);
        self.clock += self.stall_time(&counts);
        counts
    }

    /// Stall seconds implied by a set of access counts.
    ///
    /// Only the levels this machine has are summed: a level it lacks
    /// serves no line, and `0 × hit_time` added to a non-negative sum
    /// changes no bit of it.
    pub fn stall_time(&self, counts: &AccessCounts) -> f64 {
        let mut t = counts.memory as f64 * self.cfg.mem.memory_time;
        let levels = counts.hits.iter().zip(&self.cfg.mem.hit_time);
        for (&hits, &hit_time) in levels.take(self.hierarchy.depth()) {
            t += hits as f64 * hit_time;
        }
        t
    }

    /// Running cache totals for this rank.
    pub(crate) fn cache_totals(&self) -> AccessCounts {
        self.hierarchy.totals()
    }

    /// Invalidate the caches (cold restart) without resetting the
    /// clock; used between measurement repetitions when a cold-cache
    /// protocol is wanted.
    pub fn flush_caches(&mut self) {
        self.hierarchy.flush();
    }

    /// The machine configuration this context was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn ctx() -> PerfContext {
        PerfContext::new(MachineConfig::test_tiny())
    }

    #[test]
    fn flops_advance_clock() {
        let mut c = ctx();
        c.flops(1_000_000); // 1e6 flops at 1e9 flop/s = 1 ms
        assert!((c.now() - 1.0e-3).abs() < 1e-12);
        assert_eq!(c.flops_total(), 1_000_000);
    }

    #[test]
    fn cold_touch_costs_memory_time() {
        let mut c = ctx();
        let r = c.register_region("a", 64 * 10);
        let counts = c.touch(r, 0, 64 * 10);
        assert_eq!(counts.misses_to_memory(), 10);
        assert!((c.now() - 10.0 * 100.0e-9).abs() < 1e-15);
    }

    #[test]
    fn warm_touch_is_free_on_tiny_machine() {
        // test_tiny charges nothing for L1 hits
        let mut c = ctx();
        let r = c.register_region("a", 64 * 4);
        c.touch(r, 0, 64 * 4);
        let t = c.now();
        c.touch(r, 0, 64 * 4);
        assert_eq!(c.now(), t);
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let mut c = ctx();
        c.advance(1.0);
        c.advance_to(0.5);
        assert_eq!(c.now(), 1.0);
        c.advance_to(2.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn flush_caches_forces_cold_misses_again() {
        let mut c = ctx();
        let r = c.register_region("a", 64 * 4);
        c.touch(r, 0, 64 * 4);
        c.flush_caches();
        let counts = c.touch(r, 0, 64 * 4);
        assert_eq!(counts.misses_to_memory(), 4);
    }

    #[test]
    fn strided_touch_charges_distinct_lines() {
        let mut c = ctx();
        let r = c.register_region("a", 4096);
        let counts = c.touch_strided(r, 0, 256, 8, 4);
        assert_eq!(counts.total(), 4);
        // no elements: nothing charged, however long the stride
        let t = c.now();
        assert_eq!(c.touch_strided(r, 0, 1 << 40, 8, 0).total(), 0);
        assert_eq!(c.now(), t);
    }

    #[test]
    #[should_panic(expected = "overruns region 'a'")]
    fn strided_touch_past_the_region_end_panics() {
        let mut c = ctx();
        let r = c.register_region("a", 4096);
        let _b = c.register_region("b", 4096);
        // the first 16 elements fit; the 17th starts at byte 4096
        c.touch_strided(r, 0, 256, 8, 17);
    }

    #[test]
    #[should_panic(expected = "overruns region 'a'")]
    fn strided_touch_whose_length_wraps_panics() {
        let mut c = ctx();
        let r = c.register_region("a", 4096);
        // 2^63 x 2 wraps to 0: unchecked, the pencil would look 8 bytes
        // long
        c.touch_strided(r, 0, 2, 8, (1 << 63) + 1);
    }
}
