//! A stateless 4-level x86-64 radix page table.
//!
//! Rather than materializing page-table nodes, the table computes their
//! physical locations with a pure hash ([`crate::splitmix64`]): every
//! `(level, VA-prefix)` pair maps to a fixed 4KB node somewhere in a
//! dedicated physical range, and every virtual page maps to a fixed
//! physical frame. This keeps multi-gigabyte footprints simulable with
//! zero per-page memory while preserving the properties that matter to the
//! study:
//!
//! * page-table entry addresses are stable, so the page-walk caches and
//!   data caches see consistent, re-referencable lines;
//! * entries of neighbouring virtual pages share page-table nodes (the
//!   512-entry fan-out), so sequential workloads enjoy walker locality;
//! * walker references land in the same physical cache sets as program
//!   data, producing the cache pollution of paper Table 7.

use std::ops::Deref;

use vmcore::{PageSize, PhysAddr, VirtAddr};

use crate::hash::splitmix64;

/// Radix levels of the x86-64 page table, leaf-most last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Page-map level 4 (bits 47:39).
    Pml4,
    /// Page-directory-pointer table (bits 38:30).
    Pdpt,
    /// Page directory (bits 29:21).
    Pd,
    /// Page table (bits 20:12).
    Pt,
}

impl Level {
    /// All levels, root first.
    pub const ALL: [Level; 4] = [Level::Pml4, Level::Pdpt, Level::Pd, Level::Pt];

    /// The VA bit at which this level's index begins.
    pub const fn shift(self) -> u32 {
        match self {
            Level::Pml4 => 39,
            Level::Pdpt => 30,
            Level::Pd => 21,
            Level::Pt => 12,
        }
    }
}

/// The simulated page table for one address space.
#[derive(Clone, Debug)]
pub struct PageTable {
    /// Salt mixed into all placements, so different address spaces (or
    /// repetitions) use different physical layouts.
    salt: u64,
    /// Number of physical frames available for 4KB data pages.
    frame_mask: u64,
}

/// Base of the physical range holding page-table nodes (top of a 128GB
/// simulated physical space, far from data frames).
const TABLE_PHYS_BASE: u64 = 96 << 30;
/// Number of 4KB node slots in the table range (8M nodes = 32GB).
const TABLE_SLOT_MASK: u64 = (8 << 20) - 1;
/// Physical bytes available to data pages.
const DATA_PHYS_BYTES: u64 = 96 << 30;

impl PageTable {
    /// Creates a page table with a placement salt.
    pub fn new(salt: u64) -> Self {
        PageTable {
            salt,
            frame_mask: (DATA_PHYS_BYTES >> 12) - 1,
        }
    }

    /// Physical address of the page-table *entry* consulted at `level`
    /// while translating `va`.
    ///
    /// The entry lies at `node_base + index * 8` where the node's location
    /// depends only on the VA prefix above this level — so the 512 pages
    /// sharing a PT node share its cache lines, as on real hardware.
    pub fn entry_addr(&self, va: VirtAddr, level: Level) -> PhysAddr {
        let shift = level.shift();
        let prefix = va.raw() >> (shift + 9); // identifies the node
        let index = (va.raw() >> shift) & 0x1ff; // entry within the node
        let node_key = splitmix64(prefix ^ self.salt ^ ((shift as u64) << 56));
        let node_base = TABLE_PHYS_BASE + (node_key & TABLE_SLOT_MASK) * 4096;
        PhysAddr::new(node_base + index * 8)
    }

    /// Translates `va`, mapped with a `size` page, to its physical address.
    ///
    /// Frames are scattered pseudo-randomly; bytes within a page stay
    /// contiguous, so spatial locality inside a page survives translation.
    pub fn translate(&self, va: VirtAddr, size: PageSize) -> PhysAddr {
        let vpn = va.page_number(size);
        let frame = splitmix64(vpn ^ self.salt.rotate_left(17) ^ ((size.shift() as u64) << 48));
        // Mask to the data range at 4KB granularity, then re-align to the
        // page size so in-page offsets remain contiguous.
        let frame_4k = frame & self.frame_mask;
        let page_base = (frame_4k << 12) & !(size.bytes() - 1);
        PhysAddr::new(page_base | va.offset_in(size))
    }

    /// The physical addresses the walker dereferences, root-most first,
    /// when translating a `size`-mapped `va`: 4 entries for 4KB pages, 3
    /// for 2MB, 2 for 1GB.
    pub fn walk_path(&self, va: VirtAddr, size: PageSize) -> WalkPath {
        self.walk_tail(va, size, size.walk_levels())
    }

    /// The last `refs` entries of [`PageTable::walk_path`]: the references
    /// a walker still issues after the walk caches resolved the levels
    /// above them. Only those entries are hashed.
    pub(crate) fn walk_tail(&self, va: VirtAddr, size: PageSize, refs: u32) -> WalkPath {
        let depth = size.walk_levels() as usize;
        let levels = &Level::ALL[depth - refs as usize..depth];
        let mut addrs = [PhysAddr::new(0); 4];
        for (slot, &level) in addrs.iter_mut().zip(levels) {
            *slot = self.entry_addr(va, level);
        }
        WalkPath {
            addrs,
            len: levels.len() as u8,
        }
    }
}

/// The walker's dereference path, stored inline. A walk happens on every
/// STLB miss, so the path must not heap-allocate; at most 4 levels exist
/// on x86-64. Dereferences to a slice, so it indexes and iterates like
/// the `Vec<PhysAddr>` it replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkPath {
    addrs: [PhysAddr; 4],
    len: u8,
}

impl Deref for WalkPath {
    type Target = [PhysAddr];

    #[inline]
    fn deref(&self) -> &[PhysAddr] {
        &self.addrs[..self.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_path_lengths_match_page_sizes() {
        let pt = PageTable::new(7);
        let va = VirtAddr::new(0x7fff_1234_5678);
        assert_eq!(pt.walk_path(va, PageSize::Base4K).len(), 4);
        assert_eq!(pt.walk_path(va, PageSize::Huge2M).len(), 3);
        assert_eq!(pt.walk_path(va, PageSize::Huge1G).len(), 2);
    }

    #[test]
    fn walk_tail_is_the_suffix_of_the_walk_path() {
        let pt = PageTable::new(7);
        let va = VirtAddr::new(0x7fff_1234_5678);
        for size in PageSize::ALL {
            let path = pt.walk_path(va, size);
            for refs in 0..=size.walk_levels() {
                let tail = pt.walk_tail(va, size, refs);
                assert_eq!(&tail[..], &path[path.len() - refs as usize..]);
            }
        }
    }

    #[test]
    fn neighbouring_pages_share_pt_node() {
        let pt = PageTable::new(7);
        let a = pt.entry_addr(VirtAddr::new(0x100_0000), Level::Pt);
        let b = pt.entry_addr(VirtAddr::new(0x100_1000), Level::Pt);
        // Consecutive 4KB pages: same node, adjacent 8-byte entries.
        assert_eq!(a.raw() & !0xfff, b.raw() & !0xfff);
        assert_eq!(b.raw() - a.raw(), 8);
    }

    #[test]
    fn pages_512_apart_use_different_nodes() {
        let pt = PageTable::new(7);
        let a = pt.entry_addr(VirtAddr::new(0), Level::Pt);
        let b = pt.entry_addr(VirtAddr::new(512 * 4096), Level::Pt);
        assert_ne!(a.raw() & !0xfff, b.raw() & !0xfff);
    }

    #[test]
    fn entries_live_in_table_range() {
        let pt = PageTable::new(99);
        for shift in 0..20 {
            let va = VirtAddr::new(0xdead << shift);
            for level in Level::ALL {
                let e = pt.entry_addr(va, level);
                assert!(e.raw() >= TABLE_PHYS_BASE);
                assert!(e.raw() < TABLE_PHYS_BASE + (TABLE_SLOT_MASK + 1) * 4096);
            }
        }
    }

    #[test]
    fn translation_preserves_in_page_offsets() {
        let pt = PageTable::new(3);
        let base = VirtAddr::new(0x4000_0000);
        for size in PageSize::ALL {
            let p0 = pt.translate(base, size);
            let p1 = pt.translate(base + 100, size);
            assert_eq!(p1.raw() - p0.raw(), 100, "{size}");
            assert!(
                p0.raw() < DATA_PHYS_BYTES,
                "data frames stay below table range"
            );
        }
    }

    #[test]
    fn translation_is_page_aligned_and_stable() {
        let pt = PageTable::new(3);
        let va = VirtAddr::new(5 << 21);
        let p = pt.translate(va, PageSize::Huge2M);
        assert_eq!(
            p.raw() & (PageSize::Huge2M.bytes() - 1),
            0,
            "frame aligned to page size"
        );
        assert_eq!(p, pt.translate(va, PageSize::Huge2M), "pure function");
    }

    #[test]
    fn different_salts_change_placement() {
        let a = PageTable::new(1);
        let b = PageTable::new(2);
        let va = VirtAddr::new(0x1234_5000);
        assert_ne!(
            a.translate(va, PageSize::Base4K),
            b.translate(va, PageSize::Base4K)
        );
    }

    #[test]
    fn same_va_different_sizes_walk_shared_upper_levels() {
        // The PML4 entry for a VA is the same whether the leaf is 4KB or 2MB:
        // upper levels do not depend on the leaf size.
        let pt = PageTable::new(11);
        let va = VirtAddr::new(0x12_3456_7000);
        let p4k = pt.walk_path(va, PageSize::Base4K);
        let p2m = pt.walk_path(va, PageSize::Huge2M);
        assert_eq!(p4k[0], p2m[0]);
        assert_eq!(p4k[1], p2m[1]);
        assert_eq!(p4k[2], p2m[2]);
    }
}
