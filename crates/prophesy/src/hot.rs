//! The lossy hot tier: a fixed-size open-addressing cache over cell
//! samples where a colliding insert simply **overwrites** the slot.
//!
//! The idiom comes from leaky task caches in BDD libraries: a
//! bounded, single-probe table beats an unbounded hash map on the hot
//! path because it never rehashes, never allocates after
//! construction, and touches exactly one cache line's worth of
//! metadata per probe.  The price is that two keys whose digests land
//! in the same slot evict each other — which is *safe* here, because
//! [`crate::ShardedStore`] treats the tier as a cache only: a miss
//! falls back to the shard's frame index (one positioned read of the
//! key's latest frame, or a filtered "absent" with no I/O at all), so
//! correctness never depends on residency.
//!
//! Probing is deliberately single-slot (no chains, no Robin Hood):
//! the whole point of the lossy design is that a lookup costs one
//! digest, one mask, one lock, one compare.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One resident cell: the full key text guards against digest
/// collisions (equal digests with different keys read as a miss, not
/// as wrong samples).
#[derive(Debug)]
struct HotEntry {
    digest: u64,
    key: String,
    samples: Vec<f64>,
}

/// Traffic counters of a [`crate::ShardedStore`]'s hot tier, all
/// monotonic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotTierStats {
    /// Probes answered from a resident entry.
    pub hits: u64,
    /// Probes that found an empty or foreign slot.
    pub misses: u64,
    /// Inserts into an empty slot or over the same key.
    pub inserts: u64,
    /// Inserts that overwrote a *different* resident key (the lossy
    /// collision case).
    pub evictions: u64,
}

/// A fixed-size, overwrite-on-collision cache from cell-key digests
/// to sample vectors.
///
/// Thread safety is per-slot: concurrent probes of different slots
/// never contend, and a probe of a slot being overwritten sees either
/// the old or the new entry, both of which are valid cells.
#[derive(Debug)]
pub(crate) struct HotTier {
    slots: Vec<Mutex<Option<HotEntry>>>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl HotTier {
    /// A tier with at least `capacity` slots (rounded up to a power
    /// of two, minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            mask: cap - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of resident entries (counts locked slots one by one; a
    /// diagnostic, not a hot-path call).
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.lock().is_some()).count()
    }

    /// The resident samples for `key`, if its slot holds exactly this
    /// key.
    pub(crate) fn get(&self, digest: u64, key: &str) -> Option<Vec<f64>> {
        let slot = self.slots[digest as usize & self.mask].lock();
        match slot.as_ref() {
            Some(e) if e.digest == digest && e.key == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.samples.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Make `key` resident, overwriting whatever held its slot.
    pub(crate) fn insert(&self, digest: u64, key: &str, samples: &[f64]) {
        let mut slot = self.slots[digest as usize & self.mask].lock();
        if matches!(slot.as_ref(), Some(e) if e.key != key) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        *slot = Some(HotEntry {
            digest,
            key: key.to_string(),
            samples: samples.to_vec(),
        });
    }

    /// Drop every resident entry (counters are kept).
    #[cfg(test)]
    pub(crate) fn clear(&self) {
        for slot in &self.slots {
            *slot.lock() = None;
        }
    }

    /// A snapshot of the traffic counters.
    pub(crate) fn stats(&self) -> HotTierStats {
        HotTierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(HotTier::new(0).capacity(), 1);
        assert_eq!(HotTier::new(5).capacity(), 8);
        assert_eq!(HotTier::new(8).capacity(), 8);
    }

    #[test]
    fn hit_miss_and_overwrite_semantics() {
        let tier = HotTier::new(4);
        assert_eq!(tier.get(1, "a"), None);
        tier.insert(1, "a", &[1.0, 2.0]);
        assert_eq!(tier.get(1, "a"), Some(vec![1.0, 2.0]));
        assert_eq!(tier.resident(), 1);

        // same slot (digest 1 and 5 collide mod 4), different key:
        // the newcomer overwrites, the old key becomes a miss
        tier.insert(5, "b", &[3.0]);
        assert_eq!(tier.get(5, "b"), Some(vec![3.0]));
        assert_eq!(tier.get(1, "a"), None, "lossy eviction on collision");
        assert_eq!(tier.resident(), 1);

        let s = tier.stats();
        assert_eq!(s.inserts, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn equal_digest_different_key_is_a_miss_not_a_wrong_answer() {
        let tier = HotTier::new(2);
        tier.insert(7, "left", &[1.5]);
        // a digest collision with a different key text must never
        // serve the other key's samples
        assert_eq!(tier.get(7, "right"), None);
        assert_eq!(tier.get(7, "left"), Some(vec![1.5]));
    }

    #[test]
    fn clear_empties_the_tier() {
        let tier = HotTier::new(4);
        tier.insert(0, "x", &[1.0]);
        tier.insert(1, "y", &[2.0]);
        tier.clear();
        assert_eq!(tier.resident(), 0);
        assert_eq!(tier.get(0, "x"), None);
    }
}
