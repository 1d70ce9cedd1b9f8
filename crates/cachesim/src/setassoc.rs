//! A single set-associative cache level with true-LRU replacement.

/// One set-associative cache with LRU replacement.
///
/// Addresses are plain byte addresses in a flat 64-bit space; the
/// [`crate::region::RegionMap`] hands out non-overlapping region base
/// addresses so different arrays never alias.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    line: u64,
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `sets * ways` tag slots; within a set, index 0 is most recently
    /// used.  `u64::MAX` marks an empty slot.
    slots: Vec<u64>,
    accesses: u64,
    misses: u64,
}

const EMPTY: u64 = u64::MAX;

impl SetAssocCache {
    /// Create a cache of `capacity` bytes with the given line size and
    /// associativity.
    ///
    /// # Panics
    /// If `line` is not a power of two, or if `capacity` is not an
    /// exact multiple of `line * ways`.
    pub fn new(capacity: usize, line: usize, ways: usize) -> Self {
        assert!(
            line.is_power_of_two(),
            "cache line size must be a power of two"
        );
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity / line;
        assert!(
            lines > 0 && lines.is_multiple_of(ways) && lines * line == capacity,
            "capacity {capacity} not a multiple of line {line} x ways {ways}"
        );
        let sets = lines / ways;
        Self {
            line: line as u64,
            line_shift: line.trailing_zeros(),
            sets,
            ways,
            slots: vec![EMPTY; lines],
            accesses: 0,
            misses: 0,
        }
    }

    /// A fully-associative cache of `capacity` bytes.
    pub fn fully_associative(capacity: usize, line: usize) -> Self {
        let ways = capacity / line;
        Self::new(capacity, line, ways)
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_size(&self) -> usize {
        self.line as usize
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * self.line as usize
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total accesses so far.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Access the line containing byte address `addr`; returns `true`
    /// on a hit.  On a miss the line is installed, evicting the set's
    /// LRU line.
    pub fn access(&mut self, addr: u64) -> bool {
        let (missed, _) = self.access_run(addr >> self.line_shift, 1);
        missed == 0
    }

    /// The set line number `tag` maps to: a mask when the set count is
    /// a power of two, a divide otherwise (the 1365-set LLC a
    /// three-way shared node yields).
    fn set_of(&self, tag: u64) -> usize {
        let sets = self.sets as u64;
        if sets.is_power_of_two() {
            (tag & (sets - 1)) as usize
        } else {
            (tag % sets) as usize
        }
    }

    /// Access, in order, the lines numbered `first + i` for every bit
    /// `i` set in `wanted` — a run of up to 64 lines of a span, less
    /// those a level above already served.  Returns the mask of the
    /// lines that missed and the number that hit.
    ///
    /// This is the only path to the replacement routine: the set index
    /// is derived once, for `first`, and carried from line to line by
    /// increment-and-wrap; the statistics are added once per run.
    pub(crate) fn access_run(&mut self, first: u64, wanted: u64) -> (u64, u64) {
        // every built-in machine's levels are 4- or 8-way: those get a
        // lookup of constant length, which unrolls
        match self.ways {
            4 => self.access_run_with(lru_access_fixed::<4>, first, wanted),
            8 => self.access_run_with(lru_access_fixed::<8>, first, wanted),
            _ => self.access_run_with(lru_access, first, wanted),
        }
    }

    fn access_run_with(
        &mut self,
        lookup: impl Fn(&mut [u64], u64) -> bool,
        first: u64,
        wanted: u64,
    ) -> (u64, u64) {
        let (sets, ways) = (self.sets, self.ways);
        let mut set = self.set_of(first);
        let mut tag = first;
        let (mut missed, mut hits, mut misses) = (0u64, 0u64, 0u64);
        let (mut rest, mut bit) = (wanted, 1u64);
        while rest != 0 {
            if rest & 1 != 0 {
                let base = set * ways;
                if lookup(&mut self.slots[base..base + ways], tag) {
                    hits += 1;
                } else {
                    misses += 1;
                    missed |= bit;
                }
            }
            rest >>= 1;
            bit <<= 1;
            set += 1;
            if set == sets {
                set = 0;
            }
            // (only the step past the last line can leave the address
            // space)
            tag = tag.wrapping_add(1);
        }
        self.accesses += hits + misses;
        self.misses += misses;
        (missed, hits)
    }

    /// Whether the line containing `addr` is currently resident
    /// (does not update LRU state or counters).
    pub fn probe(&self, addr: u64) -> bool {
        let tag = addr >> self.line_shift;
        let base = self.set_of(tag) * self.ways;
        self.slots[base..base + self.ways].contains(&tag)
    }

    /// Invalidate all contents and reset statistics.
    pub fn reset(&mut self) {
        self.slots.fill(EMPTY);
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidate contents but keep statistics (a "cache flush").
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY);
    }

    /// Number of distinct lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|&&t| t != EMPTY).count()
    }
}

/// True-LRU lookup of `tag` in one set's slots (index 0 = most
/// recently used), in one pass: `tag` goes in at the front and each
/// displaced tag moves one slot back, until the slot that held `tag`
/// absorbs the shift (a hit — at once if it was the most recent) or
/// the last tag falls off the end (a miss).
#[inline(always)]
fn lru_access(set: &mut [u64], tag: u64) -> bool {
    let mut incoming = tag;
    for slot in set {
        let displaced = std::mem::replace(slot, incoming);
        if displaced == tag {
            return true;
        }
        incoming = displaced;
    }
    false
}

/// [`lru_access`] for a set of exactly `WAYS` slots, so the pass
/// unrolls.
#[inline(always)]
fn lru_access_fixed<const WAYS: usize>(set: &mut [u64], tag: u64) -> bool {
    let set: &mut [u64; WAYS] = set.try_into().expect("set has WAYS slots");
    lru_access(set, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(1024, 64, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways, 64-byte lines
        let mut c = SetAssocCache::new(128, 64, 2);
        c.access(0); // A
        c.access(64); // B  (LRU: A)
        c.access(0); // A hit (LRU: B)
        c.access(128); // C evicts B
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn set_mapping_avoids_cross_set_eviction() {
        // 2 sets, 1 way: lines 0 and 1 map to different sets
        let mut c = SetAssocCache::new(128, 64, 1);
        c.access(0);
        c.access(64);
        assert!(c.probe(0));
        assert!(c.probe(64));
        // line 2 maps to set 0, evicting line 0
        c.access(128);
        assert!(!c.probe(0));
        assert!(c.probe(64));
    }

    #[test]
    fn fully_associative_capacity_behaviour() {
        let mut c = SetAssocCache::fully_associative(4 * 64, 64);
        for i in 0..4u64 {
            c.access(i * 64);
        }
        // all resident
        for i in 0..4u64 {
            assert!(c.probe(i * 64));
        }
        // fifth line evicts the LRU (line 0)
        c.access(4 * 64);
        assert!(!c.probe(0));
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn flush_keeps_stats_reset_clears_them() {
        let mut c = SetAssocCache::new(1024, 64, 4);
        c.access(0);
        c.flush();
        assert_eq!(c.misses(), 1);
        assert!(!c.probe(0));
        c.reset();
        assert_eq!(c.accesses(), 0);
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        let mut c = SetAssocCache::fully_associative(64 * 64, 64);
        for pass in 0..3 {
            let miss_before = c.misses();
            for i in 0..64u64 {
                c.access(i * 64);
            }
            if pass > 0 {
                assert_eq!(c.misses(), miss_before, "pass {pass} should be all hits");
            }
        }
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        SetAssocCache::new(1000, 64, 4);
    }
}
