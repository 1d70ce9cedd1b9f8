//! Named memory regions and byte spans.
//!
//! Kernels do not hand raw pointers to the simulator; they register
//! each logical array (the solution field `u`, the right-hand side
//! `rhs`, solver coefficient planes, …) as a *region* and then touch
//! byte spans of it.  The [`RegionMap`] assigns non-overlapping base
//! addresses, page-aligned so regions never share a cache line.

use serde::{Deserialize, Serialize};

/// Identifier of a registered region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// A byte span inside the flat simulated address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Absolute start address.
    pub addr: u64,
    /// Length in bytes.
    pub bytes: u64,
}

/// Alignment for region base addresses (a 4 KiB "page").
const REGION_ALIGN: u64 = 4096;

#[derive(Clone, Debug, Default)]
struct RegionInfo {
    name: String,
    base: u64,
    size: u64,
}

/// Allocator of non-overlapping simulated address ranges.
#[derive(Clone, Debug, Default)]
pub struct RegionMap {
    regions: Vec<RegionInfo>,
    next: u64,
}

impl RegionMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a region of `size` bytes under `name`; returns its id.
    pub fn register(&mut self, name: &str, size: usize) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        let base = self.next;
        let padded = (size as u64).div_ceil(REGION_ALIGN) * REGION_ALIGN;
        self.regions.push(RegionInfo {
            name: name.to_string(),
            base,
            size: size as u64,
        });
        self.next = base + padded.max(REGION_ALIGN);
        id
    }

    /// Name of a region.
    pub fn name(&self, id: RegionId) -> &str {
        &self.regions[id.0 as usize].name
    }

    /// Registered size of a region in bytes.
    pub fn size(&self, id: RegionId) -> usize {
        self.regions[id.0 as usize].size as usize
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// A byte span covering `[offset, offset + bytes)` of region `id`.
    ///
    /// # Panics
    /// If the span overruns the registered region size.
    pub fn span(&self, id: RegionId, offset: usize, bytes: usize) -> Span {
        let info = &self.regions[id.0 as usize];
        // (an end that does not fit a `usize` overruns any region)
        assert!(
            offset
                .checked_add(bytes)
                .is_some_and(|end| end as u64 <= info.size),
            "span of {bytes} bytes at offset {offset} overruns region '{}' of {} bytes",
            info.name,
            info.size
        );
        Span {
            addr: info.base + offset as u64,
            bytes: bytes as u64,
        }
    }

    /// The whole region as one span.
    pub fn whole(&self, id: RegionId) -> Span {
        let info = &self.regions[id.0 as usize];
        Span {
            addr: info.base,
            bytes: info.size,
        }
    }

    /// Total footprint (sum of registered sizes, without padding).
    pub fn total_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.size as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut m = RegionMap::new();
        let a = m.register("a", 1000);
        let b = m.register("b", 5000);
        let sa = m.whole(a);
        let sb = m.whole(b);
        assert!(sa.addr + sa.bytes <= sb.addr);
    }

    #[test]
    fn bases_are_page_aligned() {
        let mut m = RegionMap::new();
        let _ = m.register("a", 1);
        let b = m.register("b", 10);
        assert_eq!(m.whole(b).addr % REGION_ALIGN, 0);
    }

    #[test]
    fn span_offsets() {
        let mut m = RegionMap::new();
        let a = m.register("a", 4096);
        let s = m.span(a, 128, 256);
        assert_eq!(s.addr, m.whole(a).addr + 128);
        assert_eq!(s.bytes, 256);
    }

    #[test]
    #[should_panic(expected = "overruns region 'a'")]
    fn overrun_panics() {
        let mut m = RegionMap::new();
        let a = m.register("a", 100);
        m.span(a, 50, 51);
    }

    #[test]
    #[should_panic(expected = "overruns region 'a'")]
    fn overrun_whose_end_wraps_panics() {
        let mut m = RegionMap::new();
        let a = m.register("a", 100);
        m.span(a, 50, usize::MAX);
    }

    #[test]
    fn metadata() {
        let mut m = RegionMap::new();
        let a = m.register("u", 123);
        assert_eq!(m.name(a), "u");
        assert_eq!(m.size(a), 123);
        assert_eq!(m.len(), 1);
        assert_eq!(m.total_bytes(), 123);
    }
}
