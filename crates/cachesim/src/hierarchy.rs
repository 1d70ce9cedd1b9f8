//! Multi-level cache hierarchies.

use crate::counts::{AccessCounts, MAX_LEVELS};
use crate::region::Span;
use crate::setassoc::SetAssocCache;
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub capacity: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Build the cache level this config describes.
    pub fn build(&self) -> SetAssocCache {
        SetAssocCache::new(self.capacity, self.line, self.ways)
    }
}

/// A stack of cache levels in front of main memory.
///
/// Requests walk the levels in order; a miss at level *i* is forwarded
/// to level *i + 1* (and installed at every level on the way back —
/// an inclusive hierarchy, like the paper-era P2SC/SP nodes).
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    levels: Vec<SetAssocCache>,
    /// Line size used to chop spans into line requests (the L1 line).
    line: u64,
    line_shift: u32,
    totals: AccessCounts,
}

impl CacheHierarchy {
    /// Build a hierarchy from level configs, ordered L1 first.
    ///
    /// # Panics
    /// If there are no levels, more than [`MAX_LEVELS`], capacities are
    /// not strictly increasing, or line sizes differ between levels
    /// (mixed line sizes complicate inclusion and the P2SC-era machines
    /// we model don't need them).
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        assert!(!configs.is_empty(), "hierarchy needs at least one level");
        assert!(
            configs.len() <= MAX_LEVELS,
            "at most {MAX_LEVELS} levels supported"
        );
        for w in configs.windows(2) {
            assert!(
                w[0].capacity < w[1].capacity,
                "cache capacities must strictly increase"
            );
            assert_eq!(w[0].line, w[1].line, "all levels must share one line size");
        }
        let line = configs[0].line as u64;
        Self {
            levels: configs.iter().map(CacheConfig::build).collect(),
            line,
            line_shift: line.trailing_zeros(),
            totals: AccessCounts::zero(),
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.line as usize
    }

    /// Capacity of level `i` in bytes.
    pub fn capacity(&self, level: usize) -> usize {
        self.levels[level].capacity()
    }

    /// Running totals over every touch since construction/reset.
    pub fn totals(&self) -> AccessCounts {
        self.totals
    }

    /// Whether the line containing `addr` is resident at `level`
    /// (changes no replacement state and no counter).
    pub fn is_resident(&self, level: usize, addr: u64) -> bool {
        self.levels[level].probe(addr)
    }

    /// Touch every line of `span`, returning where the lines were
    /// served.
    ///
    /// # Panics
    /// If the span runs past the end of the 64-bit address space.
    pub fn touch(&mut self, span: Span) -> AccessCounts {
        if span.bytes == 0 {
            return AccessCounts::zero();
        }
        let end = last_byte(span.addr, 0, 1, span.bytes);
        let first = span.addr >> self.line_shift;
        self.walk(first, (end >> self.line_shift) - first + 1)
    }

    /// Touch a strided sequence: `count` elements of `elem` bytes
    /// separated by `stride` bytes starting at `start`.  Used for
    /// pencil accesses along non-contiguous dimensions.
    ///
    /// # Panics
    /// If the sequence runs past the end of the 64-bit address space.
    pub fn touch_strided(
        &mut self,
        start: u64,
        stride: u64,
        elem: u64,
        count: u64,
    ) -> AccessCounts {
        if elem == 0 || count == 0 {
            return AccessCounts::zero();
        }
        last_byte(start, stride, count, elem);
        let mut counts = AccessCounts::zero();
        for n in 0..count {
            counts += self.touch(Span {
                addr: start + n * stride,
                bytes: elem,
            });
        }
        counts
    }

    /// Access `count` consecutive lines starting at line number
    /// `first`; a line that misses one level goes on to the next.
    ///
    /// The span is walked in runs of up to 64 lines, one level at a
    /// time: the first level takes the whole run
    /// ([`SetAssocCache::access_run`]) and hands the mask of its
    /// misses to the level below, and so on.  A level sees exactly the
    /// lines, in exactly the order, that a line-at-a-time loop through
    /// the levels would show it — what one level does never depends on
    /// what another holds — so every replacement decision is that
    /// loop's.  The returned counts and the running totals are added
    /// once, after the walk.
    fn walk(&mut self, first: u64, count: u64) -> AccessCounts {
        let mut counts = AccessCounts::zero();
        let (mut first, mut left) = (first, count);
        while left > 0 {
            let lines = left.min(64);
            let mut wanted = u64::MAX >> (64 - lines);
            let mut reached = lines;
            for (level, level_hits) in self.levels.iter_mut().zip(&mut counts.hits) {
                let (missed, hits) = level.access_run(first, wanted);
                *level_hits += hits;
                reached -= hits;
                wanted = missed;
                if wanted == 0 {
                    break;
                }
            }
            counts.memory += reached;
            left -= lines;
            // (only the step past the last line can leave the address
            // space)
            first = first.wrapping_add(lines);
        }
        self.totals += counts;
        counts
    }

    /// Invalidate every level (cold caches) without clearing totals.
    pub fn flush(&mut self) {
        for l in &mut self.levels {
            l.flush();
        }
    }

    /// Invalidate every level and clear totals.
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.reset();
        }
        self.totals = AccessCounts::zero();
    }
}

/// Address of the last byte of `count` elements of `bytes` bytes,
/// `stride` apart, the first at `start` (`count` and `bytes` non-zero).
///
/// # Panics
/// If that address does not fit 64 bits — in release builds too, where
/// a wrapped end address would make the walk empty and the touch
/// silently free.
fn last_byte(start: u64, stride: u64, count: u64, bytes: u64) -> u64 {
    (count - 1)
        .checked_mul(stride)
        .and_then(|offset| start.checked_add(offset))
        .and_then(|addr| addr.checked_add(bytes - 1))
        .unwrap_or_else(|| {
            panic!(
                "touch of {count} x {bytes} bytes, {stride} apart, from address {start:#x} \
                 runs past the end of the address space"
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionMap;

    fn two_level() -> CacheHierarchy {
        CacheHierarchy::new(vec![
            CacheConfig {
                capacity: 8 * 128,
                line: 128,
                ways: 8,
            },
            CacheConfig {
                capacity: 64 * 128,
                line: 128,
                ways: 8,
            },
        ])
    }

    #[test]
    fn l1_then_l2_service() {
        let mut h = two_level();
        let mut m = RegionMap::new();
        // 16 lines: fits L2 (64 lines) but not L1 (8 lines)
        let a = m.register("a", 16 * 128);
        let c0 = h.touch(m.whole(a));
        assert_eq!(c0.misses_to_memory(), 16);
        let c1 = h.touch(m.whole(a));
        assert_eq!(c1.misses_to_memory(), 0);
        // streaming 16 lines through an 8-line L1 leaves no reusable L1
        // residue, so the second pass is served by L2
        assert_eq!(c1.hits_at(1), 16);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let mut h = two_level();
        let mut m = RegionMap::new();
        let a = m.register("a", 4 * 128);
        h.touch(m.whole(a));
        let c = h.touch(m.whole(a));
        assert_eq!(c.hits_at(0), 4);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn spill_to_memory_beyond_l2() {
        let mut h = two_level();
        let mut m = RegionMap::new();
        let a = m.register("a", 128 * 128); // 128 lines > 64-line L2
        h.touch(m.whole(a));
        let c = h.touch(m.whole(a));
        assert!(
            c.misses_to_memory() > 0,
            "working set exceeds L2, must stream from memory"
        );
    }

    #[test]
    fn strided_touch_counts_distinct_lines() {
        let mut h = two_level();
        // 4 elements of 8 bytes, 256 bytes apart: 4 distinct lines
        let c = h.touch_strided(0, 256, 8, 4);
        assert_eq!(c.total(), 4);
        assert_eq!(c.misses_to_memory(), 4);
    }

    #[test]
    fn empty_span_is_free() {
        let mut h = two_level();
        let c = h.touch(Span { addr: 0, bytes: 0 });
        assert_eq!(c.total(), 0);
        // wherever it is, and as a strided element too
        let top = Span {
            addr: u64::MAX,
            bytes: 0,
        };
        assert_eq!(h.touch(top).total(), 0);
        assert_eq!(h.touch_strided(u64::MAX, u64::MAX, 0, 9).total(), 0);
        assert_eq!(h.totals().total(), 0);
    }

    #[test]
    fn span_ending_on_the_last_byte_of_the_address_space_is_counted() {
        let mut h = two_level();
        let c = h.touch(Span {
            addr: u64::MAX - 200,
            bytes: 201,
        });
        assert_eq!(c.misses_to_memory(), 2);
        assert!(h.is_resident(0, u64::MAX));
    }

    #[test]
    #[should_panic(expected = "runs past the end of the address space")]
    fn span_past_the_end_of_the_address_space_panics() {
        // the end address wraps to a small number: without the check a
        // release build walks nothing and charges nothing
        two_level().touch(Span {
            addr: u64::MAX - 200,
            bytes: 202,
        });
    }

    #[test]
    #[should_panic(expected = "runs past the end of the address space")]
    fn strided_touch_past_the_end_of_the_address_space_panics() {
        two_level().touch_strided(u64::MAX - 1024, 512, 8, 4);
    }

    #[test]
    fn span_straddling_line_boundary_touches_both() {
        let mut h = two_level();
        let c = h.touch(Span {
            addr: 120,
            bytes: 16,
        });
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn flush_forces_cold_misses() {
        let mut h = two_level();
        let mut m = RegionMap::new();
        let a = m.register("a", 4 * 128);
        h.touch(m.whole(a));
        h.flush();
        let c = h.touch(m.whole(a));
        assert_eq!(c.misses_to_memory(), 4);
    }

    #[test]
    fn totals_accumulate() {
        let mut h = two_level();
        let mut m = RegionMap::new();
        let a = m.register("a", 2 * 128);
        h.touch(m.whole(a));
        h.touch(m.whole(a));
        assert_eq!(h.totals().total(), 4);
    }

    #[test]
    #[should_panic]
    fn non_increasing_capacities_panic() {
        CacheHierarchy::new(vec![
            CacheConfig {
                capacity: 1024,
                line: 128,
                ways: 8,
            },
            CacheConfig {
                capacity: 1024,
                line: 128,
                ways: 8,
            },
        ]);
    }
}
