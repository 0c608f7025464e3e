//! Page-walk caches (MMU caches).
//!
//! Intel cores cache upper-level page-table entries in small dedicated
//! structures so that a TLB miss rarely needs all four memory references
//! (paper §II-B). Three caches are modelled, one per non-leaf level:
//! hitting the PDE cache leaves only the leaf reference; hitting only the
//! PML4E cache skips just the root reference.

use vmcore::{PageSize, VirtAddr};

use crate::{CacheGeometry, PwcGeometry, SetAssocCache};

/// Which page-walk cache a prefix lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PwcLevel {
    /// Caches PML4 entries (skips 1 reference).
    Pml4e,
    /// Caches PDPT entries (skips 2 references).
    Pdpte,
    /// Caches PD entries (skips 3 references).
    Pde,
}

/// The trio of page-walk caches. A cache configured with zero entries is
/// disabled (always misses) — used by the `ablation_pwc` study.
#[derive(Clone, Debug)]
pub struct WalkCaches {
    pml4e: Option<SetAssocCache>,
    pdpte: Option<SetAssocCache>,
    pde: Option<SetAssocCache>,
}

fn maybe_cache(entries: u32) -> Option<SetAssocCache> {
    (entries > 0).then(|| SetAssocCache::new(CacheGeometry::full(entries)))
}

impl WalkCaches {
    /// Creates the caches with the given entry counts (fully associative,
    /// as the structures are tiny). Zero entries disable a cache.
    pub fn new(geometry: PwcGeometry) -> Self {
        WalkCaches {
            pml4e: maybe_cache(geometry.pml4e),
            pdpte: maybe_cache(geometry.pdpte),
            pde: maybe_cache(geometry.pde),
        }
    }

    /// Returns how many page-table references the walker must issue for a
    /// translation of `va` mapped at `size`, after consulting the caches,
    /// and records the walk in the caches.
    ///
    /// Without any cache hit the walker issues
    /// [`PageSize::walk_levels`] references; each cached level shaves the
    /// references above it. The leaf entry itself is never served from a
    /// walk cache (leaf translations belong to the TLBs).
    pub fn lookup_and_fill(&mut self, va: VirtAddr, size: PageSize) -> u32 {
        let total = size.walk_levels();
        // Longest-prefix match: try the deepest applicable cache first.
        // For a 4KB walk the PDE cache leaves 1 reference; for a 2MB walk
        // the deepest useful cache is the PDPTE cache (the PDE *is* the
        // leaf); for 1GB only the PML4E cache applies.
        //
        // Every lookup inserts on a miss, so a walk leaves each cache it
        // consulted holding its prefix as the most recent entry.
        let skipped = match size {
            PageSize::Base4K => {
                if access(&mut self.pde, Self::tag(va, 21)) {
                    3
                } else if access(&mut self.pdpte, Self::tag(va, 30)) {
                    2
                } else if access(&mut self.pml4e, Self::tag(va, 39)) {
                    1
                } else {
                    0
                }
            }
            PageSize::Huge2M => {
                if access(&mut self.pdpte, Self::tag(va, 30)) {
                    2
                } else if access(&mut self.pml4e, Self::tag(va, 39)) {
                    1
                } else {
                    0
                }
            }
            PageSize::Huge1G => {
                if access(&mut self.pml4e, Self::tag(va, 39)) {
                    1
                } else {
                    0
                }
            }
        };
        total - skipped
    }

    /// Hit counters per cache, for diagnostics: `(pml4e, pdpte, pde)`.
    pub fn hits(&self) -> (u64, u64, u64) {
        let h = |c: &Option<SetAssocCache>| c.as_ref().map_or(0, SetAssocCache::hits);
        (h(&self.pml4e), h(&self.pdpte), h(&self.pde))
    }

    fn tag(va: VirtAddr, shift: u32) -> u64 {
        va.raw() >> shift
    }
}

/// Looks up a possibly-disabled cache, inserting `tag` on a miss.
fn access(cache: &mut Option<SetAssocCache>, tag: u64) -> bool {
    cache.as_mut().is_some_and(|c| c.access(tag))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caches() -> WalkCaches {
        WalkCaches::new(PwcGeometry {
            pml4e: 4,
            pdpte: 4,
            pde: 32,
        })
    }

    #[test]
    fn cold_walk_issues_all_references() {
        let mut pwc = caches();
        assert_eq!(
            pwc.lookup_and_fill(VirtAddr::new(0x1234_5000), PageSize::Base4K),
            4
        );
        assert_eq!(
            pwc.lookup_and_fill(VirtAddr::new(0x8000_0000_0000 - 4096), PageSize::Base4K),
            4
        );
    }

    #[test]
    fn warm_walk_needs_only_leaf() {
        let mut pwc = caches();
        let va = VirtAddr::new(0x1234_5000);
        pwc.lookup_and_fill(va, PageSize::Base4K);
        // Second walk within the same 2MB region: PDE cache hit → 1 ref.
        assert_eq!(pwc.lookup_and_fill(va + 4096, PageSize::Base4K), 1);
    }

    #[test]
    fn pdpte_hit_leaves_two_references() {
        let mut pwc = caches();
        let va = VirtAddr::new(0x4000_0000); // 1GB-aligned
        pwc.lookup_and_fill(va, PageSize::Base4K);
        // Different 2MB region, same 1GB region: PDE misses, PDPTE hits.
        let other = va + (4 << 21);
        assert_eq!(pwc.lookup_and_fill(other, PageSize::Base4K), 2);
    }

    #[test]
    fn huge_pages_cap_at_their_walk_depth() {
        let mut pwc = caches();
        let va = VirtAddr::new(0x8000_0000);
        assert_eq!(pwc.lookup_and_fill(va, PageSize::Huge2M), 3);
        assert_eq!(
            pwc.lookup_and_fill(va + (2 << 20), PageSize::Huge2M),
            1,
            "PDPTE cached"
        );
        // The 2MB walks warmed the PML4E cache for this VA region, so a 1GB
        // walk needs only its leaf reference; in a distant region it needs 2.
        assert_eq!(pwc.lookup_and_fill(va, PageSize::Huge1G), 1, "PML4E cached");
        let far = VirtAddr::new(0x7000_0000_0000);
        assert_eq!(pwc.lookup_and_fill(far, PageSize::Huge1G), 2);
        assert_eq!(
            pwc.lookup_and_fill(far, PageSize::Huge1G),
            1,
            "PML4E now cached"
        );
    }

    #[test]
    fn disabled_caches_always_walk_fully() {
        let mut pwc = WalkCaches::new(PwcGeometry {
            pml4e: 0,
            pdpte: 0,
            pde: 0,
        });
        let va = VirtAddr::new(0x1234_5000);
        assert_eq!(pwc.lookup_and_fill(va, PageSize::Base4K), 4);
        assert_eq!(pwc.lookup_and_fill(va, PageSize::Base4K), 4, "never warms");
        assert_eq!(pwc.lookup_and_fill(va, PageSize::Huge2M), 3);
        assert_eq!(pwc.hits(), (0, 0, 0));
    }

    #[test]
    fn pde_cache_thrashes_beyond_capacity() {
        let mut pwc = caches();
        // Touch 64 distinct 2MB regions (PDE cache holds 32); then re-touch
        // them in order — every PDE lookup must miss (LRU cycling).
        for i in 0..64u64 {
            pwc.lookup_and_fill(VirtAddr::new(i << 21), PageSize::Base4K);
        }
        for i in 0..64u64 {
            let refs = pwc.lookup_and_fill(VirtAddr::new(i << 21), PageSize::Base4K);
            assert!(refs >= 2, "PDE must not hit while cycling 64 > 32 regions");
        }
    }
}
