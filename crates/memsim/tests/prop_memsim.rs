//! Property tests for the memory-subsystem simulator.

use std::collections::HashMap;

use memsim::{CacheGeometry, MemorySubsystem, Platform, SetAssocCache, Translation};
use proptest::prelude::*;
use vmcore::{PageSize, VirtAddr};

/// A reference (obviously correct) model of a set-associative LRU cache.
struct RefCacheModel {
    sets: u64,
    ways: usize,
    /// Per set: tags in LRU order (most recent last).
    state: HashMap<u64, Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl RefCacheModel {
    fn new(geometry: CacheGeometry) -> Self {
        RefCacheModel {
            sets: geometry.sets() as u64,
            ways: geometry.ways as usize,
            state: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, tag: u64) -> (bool, Option<u64>) {
        let (hit, evicted) = self.touch(tag);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        (hit, evicted)
    }

    /// A lookup that inserts on miss without counting: returns whether
    /// `tag` was resident and the tag it evicted, if any.
    fn touch(&mut self, tag: u64) -> (bool, Option<u64>) {
        let set = self.state.entry(tag % self.sets).or_default();
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.push(tag);
            (true, None)
        } else {
            let evicted = (set.len() == self.ways).then(|| set.remove(0));
            set.push(tag);
            (false, evicted)
        }
    }

    fn probe(&self, tag: u64) -> bool {
        self.state
            .get(&(tag % self.sets))
            .is_some_and(|set| set.contains(&tag))
    }

    fn occupancy(&self) -> usize {
        self.state.values().map(Vec::len).sum()
    }
}

/// One cache operation of a generated sequence.
#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Access(u64),
    Insert(u64),
    Probe(u64),
    /// `hit_at` through the slot `access_locating` last returned for the
    /// tag, or through an arbitrary slot when there is none.
    HitAt(u64, u32),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    (0u8..8, 0u64..1024, any::<u32>()).prop_map(|(kind, tag, slot)| match kind {
        0..=3 => CacheOp::Access(tag),
        4 => CacheOp::Insert(tag),
        5 => CacheOp::Probe(tag),
        _ => CacheOp::HitAt(tag, slot),
    })
}

proptest! {
    /// The production cache agrees with the reference LRU model on every
    /// operation of arbitrary interleavings of `access`, `insert`,
    /// `probe` and `hit_at`, across geometries: power-of-two set counts
    /// (masked indexing) and the 3·2^k set counts every paper L3 has
    /// (SandyBridge 12,288, Haswell 24,576, Broadwell 49,152 sets, on the
    /// modulo path), with 1 to 20 ways or full associativity.
    #[test]
    fn cache_matches_reference_lru(
        sets_log in 0u32..6,
        times_three in any::<bool>(),
        ways_sel in 1u32..22,
        ops in prop::collection::vec(cache_op(), 1..400),
    ) {
        let sets = (1u32 << sets_log) * if times_three { 3 } else { 1 };
        // 21 selects a single fully associative set of 24 ways.
        let geometry = if ways_sel == 21 {
            CacheGeometry::full(24)
        } else {
            CacheGeometry::new(sets * ways_sel, ways_sel)
        };
        // Fold tags into about three times the capacity so sets fill,
        // evict and re-reference.
        let span = u64::from(geometry.entries) * 3;
        let mut real = SetAssocCache::new(geometry);
        let mut reference = RefCacheModel::new(geometry);
        // Slots `access_locating` returned for tags still resident since.
        let mut slots: HashMap<u64, u32> = HashMap::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                CacheOp::Access(tag) => {
                    let tag = tag % span;
                    let (hit, slot) = real.access_locating(tag);
                    let (want, evicted) = reference.access(tag);
                    prop_assert_eq!(hit, want, "access {} (tag {}) diverged", i, tag);
                    prop_assert!(slot < geometry.entries, "slot {} out of range", slot);
                    if let Some(old) = evicted {
                        slots.remove(&old);
                    }
                    slots.insert(tag, slot);
                }
                CacheOp::Insert(tag) => {
                    let tag = tag % span;
                    real.insert(tag);
                    let (was_resident, evicted) = reference.touch(tag);
                    if let Some(old) = evicted {
                        slots.remove(&old);
                    }
                    if !was_resident {
                        slots.remove(&tag);
                    }
                }
                CacheOp::Probe(tag) => {
                    let tag = tag % span;
                    prop_assert_eq!(real.probe(tag), reference.probe(tag), "probe {} (tag {})", i, tag);
                }
                CacheOp::HitAt(tag, arbitrary) => {
                    let tag = tag % span;
                    let known = slots.get(&tag).copied();
                    let slot = known.unwrap_or(arbitrary % (geometry.entries * 2));
                    let hit = real.hit_at(slot, tag);
                    if known.is_some() {
                        prop_assert!(hit, "hit_at {} missed a resident tag {} at its slot", i, tag);
                    }
                    if hit {
                        let (was_resident, _) = reference.access(tag);
                        prop_assert!(was_resident, "hit_at {} faked a hit on tag {}", i, tag);
                    }
                }
            }
            prop_assert_eq!(real.hits(), reference.hits, "hit count after op {}", i);
            prop_assert_eq!(real.misses(), reference.misses, "miss count after op {}", i);
        }
        prop_assert_eq!(real.occupancy(), reference.occupancy());
        for tag in 0..span {
            prop_assert_eq!(real.probe(tag), reference.probe(tag), "final residency of tag {}", tag);
        }
    }

    /// Translation outcomes are deterministic and warm correctly: after
    /// translating an address, an immediate re-translation is an L1 hit.
    #[test]
    fn translate_then_hit(
        addrs in prop::collection::vec(0u64..(1 << 30), 1..100),
        size_sel in 0usize..3,
    ) {
        let size = PageSize::ALL[size_sel];
        let mut vm = MemorySubsystem::new(&Platform::HASWELL);
        for &raw in &addrs {
            let va = VirtAddr::new(raw);
            vm.translate(va, size);
            let again = vm.translate(va, size);
            prop_assert!(
                matches!(again.translation, Translation::L1Hit),
                "address {raw:#x} not warm after touch"
            );
        }
    }

    /// Walk reference counts are always within [1, levels(size)] and the
    /// walk latency is consistent with them.
    #[test]
    fn walk_refs_bounded(
        addrs in prop::collection::vec(0u64..(1u64 << 40), 1..200),
        size_sel in 0usize..3,
    ) {
        let size = PageSize::ALL[size_sel];
        let platform = &Platform::SANDY_BRIDGE;
        let mut vm = MemorySubsystem::new(platform);
        for &raw in &addrs {
            let va = VirtAddr::new(raw);
            if let Translation::Walk { info } = vm.translate(va, size).translation {
                prop_assert!(info.refs >= 1 && info.refs <= size.walk_levels());
                let served = info.refs_l1d + info.refs_l2 + info.refs_l3 + info.refs_dram;
                prop_assert_eq!(served, info.refs);
                let min = info.refs * platform.lat.l1d;
                let max = info.refs * platform.lat.dram;
                prop_assert!(info.cycles >= min && info.cycles <= max);
            }
        }
    }

    /// The page table is a function: the same VA always maps to the same
    /// physical address, and distinct pages never share a frame start.
    #[test]
    fn page_table_is_functional(pages in prop::collection::vec(0u64..(1 << 20), 2..64)) {
        let vm = MemorySubsystem::new(&Platform::BROADWELL);
        let pt = vm.page_table();
        for &p in &pages {
            let va = VirtAddr::new(p << 12);
            let a = pt.translate(va, PageSize::Base4K);
            let b = pt.translate(va, PageSize::Base4K);
            prop_assert_eq!(a, b);
            // In-page offsets preserved.
            let c = pt.translate(VirtAddr::new((p << 12) | 0x123), PageSize::Base4K);
            prop_assert_eq!(c.raw() - a.raw(), 0x123);
        }
    }

    /// Two subsystems fed the same access sequence stay in lockstep
    /// (full determinism, including cache contents).
    #[test]
    fn subsystem_determinism(
        ops in prop::collection::vec((0u64..(1 << 32), 0usize..3), 1..150),
    ) {
        let mut a = MemorySubsystem::new(&Platform::BROADWELL);
        let mut b = MemorySubsystem::new(&Platform::BROADWELL);
        for &(raw, size_sel) in &ops {
            let va = VirtAddr::new(raw);
            let size = PageSize::ALL[size_sel];
            prop_assert_eq!(a.access(va, size), b.access(va, size));
        }
    }
}
