//! Generic set-associative LRU cache of 64-bit tags.
//!
//! One implementation serves every lookup structure in the simulator:
//! data caches (tag = physical line address), TLBs (tag = virtual page
//! number) and page-walk caches (tag = VA prefix).

use serde::{Deserialize, Serialize};

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total entries (must be `sets * ways`).
    pub entries: u32,
    /// Associativity. `ways == entries` makes the cache fully associative.
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry, validating divisibility.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or `entries` is not a multiple of `ways`.
    /// The number of sets need not be a power of two; indexing is modulo
    /// (Intel L3 slices are likewise not power-of-two sized).
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!(ways > 0, "zero ways");
        assert!(
            entries.is_multiple_of(ways),
            "entries {entries} not a multiple of ways {ways}"
        );
        CacheGeometry { entries, ways }
    }

    /// Fully associative geometry with `entries` entries.
    pub fn full(entries: u32) -> Self {
        CacheGeometry::new(entries, entries)
    }

    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Stores only tags; payloads are reconstructed by callers (the simulator
/// never needs cached *data*, only hit/miss behaviour).
///
/// # Example
///
/// ```
/// use memsim::{CacheGeometry, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheGeometry::new(4, 2));
/// assert!(!cache.access(7)); // cold miss (inserted)
/// assert!(cache.access(7));  // hit
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// `sets × ways` ways, each set's ways contiguous: slot
    /// `set * ways + way`. A lookup reads one run of `ways * 16` bytes,
    /// each way's tag next to its stamp.
    slots: Vec<Way>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Number of sets, precomputed (the division `entries / ways` must
    /// stay out of the per-access path).
    sets: u64,
    /// `sets - 1` when the set count is a power of two — every TLB, PWC,
    /// L1d and L2 in the paper — letting set selection use a mask instead
    /// of a u64 modulo. `tag & mask` and `tag % sets` pick the same set,
    /// so behaviour is bit-identical. The paper platforms' L3s have
    /// 3·2^k sets (SandyBridge 12,288, Haswell 24,576, Broadwell 49,152)
    /// and take the modulo on every lookup that reaches them.
    pow2_mask: Option<u64>,
    /// Associativity, precomputed as usize for indexing.
    ways: usize,
}

/// One way of a set: its tag and its LRU stamp (higher = more recent).
///
/// An invalid way holds tag [`INVALID`] and stamp 0. Every valid way's
/// stamp is at least 1 (the clock advances before each stamp), so the
/// first way with the lowest stamp is the first invalid way if the set
/// has one and the least recently used way otherwise.
#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    stamp: u64,
}

const INVALID: u64 = u64::MAX;

const EMPTY: Way = Way {
    tag: INVALID,
    stamp: 0,
};

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(geometry: CacheGeometry) -> Self {
        let n = geometry.entries as usize;
        let sets = u64::from(geometry.sets());
        SetAssocCache {
            geometry,
            slots: vec![EMPTY; n],
            clock: 0,
            hits: 0,
            misses: 0,
            sets,
            pow2_mask: sets.is_power_of_two().then(|| sets - 1),
            ways: geometry.ways as usize,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Looks up `tag`; on miss, inserts it (evicting the set's LRU way).
    /// Returns whether the lookup hit.
    #[inline]
    pub fn access(&mut self, tag: u64) -> bool {
        self.access_locating(tag).0
    }

    /// Like [`SetAssocCache::access`], but also returns the global slot
    /// index (`set * ways + way`) where `tag` resides after the call —
    /// its hit position, or the way it was just inserted into. The slot
    /// stays valid until another tag evicts it, which callers detect by
    /// re-checking with [`SetAssocCache::hit_at`].
    #[inline]
    pub fn access_locating(&mut self, tag: u64) -> (bool, u32) {
        let (hit, slot) = self.touch_locating(tag);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        (hit, slot)
    }

    /// O(1) re-lookup through a slot previously returned by
    /// [`SetAssocCache::access_locating`]. If `slot` still holds `tag`,
    /// this performs exactly the state transition of a hitting
    /// [`SetAssocCache::access`] (clock advance, LRU re-stamp, hit
    /// count) and returns `true`. Otherwise the cache is untouched and
    /// the caller must fall back to the full lookup.
    #[inline]
    pub fn hit_at(&mut self, slot: u32, tag: u64) -> bool {
        match self.slots.get_mut(slot as usize) {
            Some(way) if way.tag == tag => {
                self.clock += 1;
                way.stamp = self.clock;
                self.hits += 1;
                true
            }
            _ => false,
        }
    }

    /// Looks up `tag` without inserting on miss. Does not update stats.
    #[inline]
    pub fn probe(&self, tag: u64) -> bool {
        debug_assert_ne!(tag, INVALID, "tag collides with the invalid marker");
        let (start, ways) = self.set_bounds(tag);
        self.slots[start..start + ways]
            .iter()
            .any(|way| way.tag == tag)
    }

    /// Inserts `tag` unconditionally (used for fills from outer levels).
    #[inline]
    pub fn insert(&mut self, tag: u64) {
        self.touch_locating(tag);
    }

    /// Invalidates every entry but keeps statistics.
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY);
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|way| way.tag != INVALID).count()
    }

    #[inline]
    fn set_bounds(&self, tag: u64) -> (usize, usize) {
        let set = match self.pow2_mask {
            Some(mask) => (tag & mask) as usize,
            None => (tag % self.sets) as usize,
        };
        (set * self.ways, self.ways)
    }

    /// Core lookup: re-stamps `tag` on a hit, inserts it on a miss.
    /// Returns hit status and the global slot now holding `tag`.
    ///
    /// One pass over the set finds the hit way and, failing that, the
    /// victim: the first way with the lowest stamp, which is the first
    /// invalid way if any, else the LRU way (see [`Way`]).
    #[inline]
    fn touch_locating(&mut self, tag: u64) -> (bool, u32) {
        debug_assert_ne!(tag, INVALID, "tag collides with the invalid marker");
        self.clock += 1;
        let (start, ways) = self.set_bounds(tag);
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, way) in self.slots[start..start + ways].iter_mut().enumerate() {
            if way.tag == tag {
                way.stamp = self.clock;
                return (true, (start + i) as u32);
            }
            if way.stamp < oldest {
                oldest = way.stamp;
                victim = i;
            }
        }
        self.slots[start + victim] = Way {
            tag,
            stamp: self.clock,
        };
        (false, (start + victim) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validation() {
        let g = CacheGeometry::new(64, 4);
        assert_eq!(g.sets(), 16);
        let f = CacheGeometry::full(5);
        assert_eq!(f.sets(), 1);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn geometry_rejects_bad_ways() {
        CacheGeometry::new(64, 5);
    }

    #[test]
    fn geometry_allows_non_pow2_sets() {
        let g = CacheGeometry::new(12, 2);
        assert_eq!(g.sets(), 6);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = SetAssocCache::new(CacheGeometry::new(8, 2));
        assert!(!c.access(100));
        assert!(c.access(100));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Fully associative, 2 entries.
        let mut c = SetAssocCache::new(CacheGeometry::full(2));
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU
        c.access(3); // evicts 2
        assert!(c.probe(1));
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn sets_isolate_conflicts() {
        // 2 sets x 1 way: even and odd tags do not evict each other.
        let mut c = SetAssocCache::new(CacheGeometry::new(2, 1));
        c.access(2);
        c.access(3);
        assert!(c.probe(2));
        assert!(c.probe(3));
        c.access(4); // same set as 2
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn probe_does_not_insert() {
        let c = SetAssocCache::new(CacheGeometry::new(4, 4));
        assert!(!c.probe(9));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn flush_clears_entries_keeps_stats() {
        let mut c = SetAssocCache::new(CacheGeometry::new(4, 4));
        c.access(1);
        c.access(1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.hits(), 1);
        assert!(!c.probe(1));
    }

    #[test]
    fn hit_at_is_equivalent_to_a_hitting_access() {
        // Drive two identical caches through the same sequence, one via
        // plain access, one via the slot fast path, and require the full
        // observable state (probe results, stats, later evictions) to
        // match exactly.
        let geometry = CacheGeometry::new(8, 2);
        let mut plain = SetAssocCache::new(geometry);
        let mut fast = SetAssocCache::new(geometry);
        let tags = [3u64, 7, 3, 11, 3, 15, 19, 3, 7, 23, 3];
        let mut last_slot: Option<(u64, u32)> = None;
        for &tag in &tags {
            let want = plain.access(tag);
            let got = match last_slot {
                Some((memo_tag, slot)) if memo_tag == tag && fast.hit_at(slot, tag) => {
                    // The fast path only fires on a re-hit; remember the
                    // slot unchanged.
                    true
                }
                _ => {
                    let (hit, slot) = fast.access_locating(tag);
                    last_slot = Some((tag, slot));
                    hit
                }
            };
            assert_eq!(got, want, "divergence at tag {tag}");
        }
        assert_eq!(plain.hits(), fast.hits());
        assert_eq!(plain.misses(), fast.misses());
        for tag in [3u64, 7, 11, 15, 19, 23] {
            assert_eq!(plain.probe(tag), fast.probe(tag), "residency of {tag}");
        }
    }

    #[test]
    fn hit_at_rejects_stale_slot() {
        let mut c = SetAssocCache::new(CacheGeometry::full(2));
        let (_, slot) = c.access_locating(1);
        c.access(2);
        c.access(3); // evicts 1 (the LRU)
        assert!(!c.probe(1));
        let hits_before = c.hits();
        assert!(!c.hit_at(slot, 1), "stale slot must not fake a hit");
        assert_eq!(c.hits(), hits_before, "stale hit_at must not touch stats");
    }

    #[test]
    fn pow2_and_modulo_indexing_agree() {
        // 8 sets is a power of two: the masked path must land tags in the
        // same sets the modulo path would.
        let mut c = SetAssocCache::new(CacheGeometry::new(8, 1));
        for tag in 0..8u64 {
            c.access(tag);
        }
        for tag in 0..8u64 {
            assert!(c.probe(tag), "tag {tag} displaced under mask indexing");
        }
        c.access(8); // 8 % 8 == 0: must evict tag 0 only
        assert!(!c.probe(0));
        for tag in 1..8u64 {
            assert!(c.probe(tag));
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits_once_warm() {
        let mut c = SetAssocCache::new(CacheGeometry::new(64, 4));
        for round in 0..3 {
            for tag in 0..64u64 {
                let hit = c.access(tag);
                if round > 0 {
                    assert!(hit, "warm round {round} tag {tag} missed");
                }
            }
        }
    }
}
