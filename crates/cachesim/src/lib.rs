//! # kc-cachesim
//!
//! A small, deterministic, multi-level set-associative cache simulator.
//!
//! The kernel-coupling paper attributes the *regimes* its coupling
//! values move through to the memory subsystem of the IBM SP's P2SC
//! processors: per-processor working sets that fit in L1 behave
//! differently from ones that fit only in L2 or spill to memory, and
//! the coupling between adjacent kernels changes accordingly (data one
//! kernel loads may still be resident when the next kernel runs —
//! constructive coupling — or kernels may evict each other's data —
//! destructive coupling).
//!
//! `kc-machine` gives every simulated rank its own [`CacheHierarchy`];
//! the NPB kernels in `kc-npb` describe their memory traffic as *region
//! touches* (array slices identified by a [`RegionId`] plus a byte
//! range), and the hierarchy reports at which level each cache line was
//! served.  The machine model then converts those counts into stall
//! time.
//!
//! The simulator is timing-free by design: it only counts.  That keeps
//! it reusable and easy to property-test (e.g. the LRU inclusion
//! property: growing a cache's associativity at fixed set count never
//! increases misses).
//!
//! A touch is simulated exactly, line by line, but not *charged* line
//! by line: [`CacheHierarchy`] walks a span in runs of up to 64 lines,
//! one level at a time (each level passes the mask of its misses
//! down), and every counter is added once per run.  The one
//! replacement routine behind `touch`, `touch_strided` (one `touch`
//! per element) and [`SetAssocCache::access`] is a single pass over a
//! set's slots.
//!
//! ```
//! use kc_cachesim::{CacheConfig, CacheHierarchy, RegionMap};
//!
//! let mut map = RegionMap::new();
//! let a = map.register("a", 64 * 1024);
//! let _b = map.register("b", 64 * 1024);
//! let mut h = CacheHierarchy::new(vec![
//!     CacheConfig { capacity: 32 * 1024, line: 128, ways: 4 },
//!     CacheConfig { capacity: 1024 * 1024, line: 128, ways: 8 },
//! ]);
//! // stream region `a` twice: the second pass is served by L2
//! // (the region is 64 KiB, L1 only 32 KiB)
//! h.touch(map.span(a, 0, 64 * 1024));
//! let c = h.touch(map.span(a, 0, 64 * 1024));
//! assert_eq!(c.misses_to_memory(), 0);
//! assert!(c.hits_at(1) > 0);
//! ```

#![forbid(unsafe_code)]

pub mod contention;
pub mod counts;
pub mod hierarchy;
pub mod region;
pub mod reuse_distance;
pub mod setassoc;

pub use contention::derate_shared_llc;
pub use counts::AccessCounts;
pub use hierarchy::{CacheConfig, CacheHierarchy};
pub use region::{RegionId, RegionMap, Span};
pub use reuse_distance::ReuseDistance;
pub use setassoc::SetAssocCache;
