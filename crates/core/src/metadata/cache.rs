//! The dedicated on-chip metadata cache (Table I: 128 KB, 8-way, 64 B
//! lines, shared by encryption and integrity-tree counters).
//!
//! The cache sits on the hottest path of the simulator — every data
//! access probes it once per tree level walked — so the layout is tuned
//! for the probe loop:
//!
//! - tags live in one contiguous `u64` slab, so a set's tags span a
//!   single hardware cacheline (8 ways × 8 bytes) and the 8-way lookup is
//!   a branchless, vectorizable compare instead of an early-exit scan;
//! - recency is a per-entry timestamp, not position in an LRU-ordered
//!   vector, so a hit updates one word instead of shuffling the set with
//!   `remove` + `push` as the seed implementation did;
//! - LRU victim selection reduces the packed keys `(tick << 3) | way`
//!   with a branchless minimum, avoiding the data-dependent branch
//!   mispredicts of a position scan;
//! - the set index is a mask when the set count is a power of two (the
//!   practical case), not a hardware-division modulo.
//!
//! Empty ways carry a sentinel tag (`u64::MAX`, never a real line
//! address) and tick 0, so a fill and an eviction share one victim scan:
//! tick 0 always wins, and a sentinel victim simply means the set had a
//! free way.
//!
//! Victim selection is semantically identical to the seed's
//! ordered-vector formulation: plain LRU evicts the minimum timestamp,
//! and the level-aware policy evicts the minimum `(priority, timestamp)`
//! — the same line the seed's "first of equal minima in LRU order"
//! picked. The golden-equivalence suite pins this against the frozen
//! seed cache of the dev-only `morphtree-oracle` crate.

use crate::CACHELINE_BYTES;

/// Tag of an empty way. Line addresses are cacheline-aligned, so a real
/// tag can never collide with it.
const SENTINEL: u64 = u64::MAX;

/// Number of per-level statistic bins. Tree heights in every evaluated
/// configuration stay below 10; deeper levels fold into the last bin.
pub const STAT_LEVELS: usize = 16;

/// Clamps a metadata level / priority into the statistics bins.
#[inline]
fn stat_level(level: u8) -> usize {
    (level as usize).min(STAT_LEVELS - 1)
}

/// Snapshot of the cache's hit/miss/eviction statistics, overall and per
/// metadata level (level 0 = encryption counters, the paper's Fig 15
/// per-level breakdown).
///
/// Derives `Eq` so sweep determinism tests can compare results exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits across all levels.
    pub hits: u64,
    /// Demand misses across all levels.
    pub misses: u64,
    /// Hits attributed to each metadata level.
    pub level_hits: [u64; STAT_LEVELS],
    /// Misses attributed to each metadata level.
    pub level_misses: [u64; STAT_LEVELS],
    /// Evictions attributed to each victim's level.
    pub level_evicts: [u64; STAT_LEVELS],
}

impl CacheStats {
    /// Overall hit rate, or `None` when the cache saw no probes.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Total evictions across levels.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.level_evicts.iter().sum()
    }
}

/// The 8 entries of one set as a fixed-size array (for the fixed-width
/// 8-way scans).
///
/// # Panics
///
/// Panics if `slab` is shorter than `base + 8`; all callers guard on
/// `ways == 8`, which guarantees every set spans 8 slots.
#[inline]
fn set8(slab: &[u64], base: usize) -> &[u64; 8] {
    match slab[base..base + 8].first_chunk::<8>() {
        Some(array) => array,
        None => unreachable!("slice of length 8"),
    }
}

/// Victim-selection policy.
///
/// `LevelAware` implements the metadata type-aware replacement idea of
/// Lee et al. (§VIII-B2 related work): higher-priority lines (higher tree
/// levels, which cover exponentially more memory) are preferred for
/// retention; among the lowest-priority resident lines the LRU one is
/// evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Pure least-recently-used (the paper's model, and ours by default).
    #[default]
    Lru,
    /// Evict the least-recently-used line of the lowest priority class.
    LevelAware,
}

/// A line evicted from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Address of the evicted line.
    pub addr: u64,
    /// Whether it was dirty (and therefore needs a write-back, which in a
    /// secure memory also bumps the parent counter).
    pub dirty: bool,
    /// Retention priority the line carried — the engine tags lines with
    /// their tree level, so a dirty eviction can be written back without a
    /// reverse address lookup.
    pub priority: u8,
}

/// A set-associative, write-back, LRU cache keyed by line address.
///
/// Only tags and dirty bits are modeled — the line *contents* live in the
/// engine's counter store, which represents the union of memory and cache
/// state.
///
/// # Example
///
/// ```
/// use morphtree_core::metadata::MetadataCache;
///
/// let mut cache = MetadataCache::new(8 * 1024, 8);
/// assert!(!cache.probe(0x1000));
/// cache.insert(0x1000, false);
/// assert!(cache.probe(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct MetadataCache {
    /// Line tags, `ways` consecutive slots per set; [`SENTINEL`] marks an
    /// empty way.
    tags: Box<[u64]>,
    /// Last-touch timestamps, parallel to `tags`; strictly increasing (and
    /// nonzero for occupied ways), so the minimum over a set is its
    /// least-recently-used line — or an empty way, which holds 0.
    ticks: Box<[u64]>,
    /// Dirty bits, parallel to `tags`.
    dirty: Box<[bool]>,
    /// Retention priorities, parallel to `tags`.
    priority: Box<[u8]>,
    ways: usize,
    policy: ReplacementPolicy,
    /// `Some(num_sets - 1)` when the set count is a power of two, so
    /// [`MetadataCache::set_index`] is a mask instead of a modulo.
    set_mask: Option<u64>,
    num_sets: usize,
    /// Global touch counter feeding `ticks`.
    tick: u64,
    stats: CacheStats,
}

impl MetadataCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * CACHELINE_BYTES`.
    #[must_use]
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        Self::with_policy(capacity_bytes, ways, ReplacementPolicy::Lru)
    }

    /// Creates a cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * CACHELINE_BYTES`.
    #[must_use]
    pub fn with_policy(capacity_bytes: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(ways >= 1);
        let lines = capacity_bytes / CACHELINE_BYTES;
        assert!(
            lines >= ways && capacity_bytes.is_multiple_of(ways * CACHELINE_BYTES),
            "capacity {capacity_bytes} incompatible with {ways} ways"
        );
        let num_sets = lines / ways;
        MetadataCache {
            tags: vec![SENTINEL; lines].into_boxed_slice(),
            ticks: vec![0; lines].into_boxed_slice(),
            dirty: vec![false; lines].into_boxed_slice(),
            priority: vec![0; lines].into_boxed_slice(),
            ways,
            policy,
            set_mask: num_sets
                .is_power_of_two()
                .then_some(num_sets as u64 - 1),
            num_sets,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.tags.len() * CACHELINE_BYTES
    }

    /// Demand hits recorded by [`MetadataCache::probe`].
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.stats.hits
    }

    /// Demand misses recorded by [`MetadataCache::probe`].
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Snapshot of the full (per-level) statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes all statistics, keeping the cache contents (used at the
    /// warm-up/measure boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        let line = addr / CACHELINE_BYTES as u64;
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets as u64) as usize,
        }
    }

    /// Slot index of `addr` within its set, if resident. The 8-way case —
    /// every configuration in the paper — is a fixed-width branchless cmov
    /// chain; other associativities take the generic scan.
    #[inline]
    fn find(&self, base: usize, addr: u64) -> Option<usize> {
        if self.ways == 8 {
            let tags = set8(&self.tags, base);
            let mut found = usize::MAX;
            for (j, &tag) in tags.iter().enumerate() {
                if tag == addr {
                    found = j;
                }
            }
            (found != usize::MAX).then(|| base + found)
        } else {
            self.tags[base..base + self.ways]
                .iter()
                .position(|&tag| tag == addr)
                .map(|j| base + j)
        }
    }

    /// The way to (re)fill on an insertion miss: an empty way if the set
    /// has one (tick 0 loses every comparison), else the policy's victim.
    #[inline]
    fn victim_slot(&self, base: usize) -> usize {
        match self.policy {
            ReplacementPolicy::Lru => {
                if self.ways == 8 {
                    // Branchless min over keys packing the way index into
                    // the tick's low bits; ticks are unique so ordering by
                    // key is ordering by tick.
                    debug_assert!(self.tick < 1 << 61, "tick overflow");
                    let ticks = set8(&self.ticks, base);
                    let mut best = ticks[0] << 3;
                    for (j, &tick) in ticks.iter().enumerate().skip(1) {
                        let key = (tick << 3) | j as u64;
                        best = best.min(key);
                    }
                    base + (best & 7) as usize
                } else {
                    let mut best = base;
                    for j in base + 1..base + self.ways {
                        if self.ticks[j] < self.ticks[best] {
                            best = j;
                        }
                    }
                    best
                }
            }
            ReplacementPolicy::LevelAware => {
                let mut best = base;
                for j in base + 1..base + self.ways {
                    if (self.priority[j], self.ticks[j]) < (self.priority[best], self.ticks[best])
                    {
                        best = j;
                    }
                }
                best
            }
        }
    }

    /// Looks up `addr`, updating recency and hit/miss statistics. The
    /// per-level breakdown attributes this probe to level 0; callers that
    /// know the metadata level should use [`MetadataCache::probe_level`].
    #[inline]
    pub fn probe(&mut self, addr: u64) -> bool {
        self.probe_level(addr, 0)
    }

    /// Looks up `addr`, attributing the hit or miss to metadata `level`
    /// in the per-level statistics.
    #[inline]
    pub fn probe_level(&mut self, addr: u64, level: u8) -> bool {
        let base = self.set_index(addr) * self.ways;
        self.tick += 1;
        if let Some(slot) = self.find(base, addr) {
            self.ticks[slot] = self.tick;
            self.stats.hits += 1;
            self.stats.level_hits[stat_level(level)] += 1;
            true
        } else {
            self.stats.misses += 1;
            self.stats.level_misses[stat_level(level)] += 1;
            false
        }
    }

    /// Non-destructive lookup: no recency or statistics update.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let base = self.set_index(addr) * self.ways;
        self.find(base, addr).is_some()
    }

    /// Inserts `addr` as most-recently-used, returning the victim if the
    /// set was full. Re-inserting a resident line refreshes recency and
    /// ORs the dirty bit.
    pub fn insert(&mut self, addr: u64, dirty: bool) -> Option<EvictedLine> {
        self.insert_with_priority(addr, dirty, 0)
    }

    /// Like [`MetadataCache::insert`], tagging the line with a retention
    /// priority (the metadata level). Under [`ReplacementPolicy::Lru`] the
    /// priority is recorded but ignored for victim selection.
    #[inline]
    pub fn insert_with_priority(
        &mut self,
        addr: u64,
        dirty: bool,
        priority: u8,
    ) -> Option<EvictedLine> {
        debug_assert!(addr != SENTINEL, "u64::MAX is reserved as the empty-way tag");
        let base = self.set_index(addr) * self.ways;
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.find(base, addr) {
            self.ticks[slot] = tick;
            self.dirty[slot] |= dirty;
            self.priority[slot] = self.priority[slot].max(priority);
            return None;
        }
        let slot = self.victim_slot(base);
        let old_tag = self.tags[slot];
        let victim = (old_tag != SENTINEL).then(|| EvictedLine {
            addr: old_tag,
            dirty: self.dirty[slot],
            priority: self.priority[slot],
        });
        if let Some(v) = &victim {
            self.stats.level_evicts[stat_level(v.priority)] += 1;
        }
        self.tags[slot] = addr;
        self.ticks[slot] = tick;
        self.dirty[slot] = dirty;
        self.priority[slot] = priority;
        victim
    }

    /// Fused probe + dirty re-insert for the write hit path: one lookup
    /// does the work of [`MetadataCache::probe`] followed by a dirty
    /// [`MetadataCache::insert_with_priority`] of the same resident line.
    /// Returns whether the line was resident; on a miss only the miss
    /// statistic is charged (the caller then fetches and inserts as
    /// usual).
    ///
    /// Equivalent to the probe/insert pair: both schemes touch only this
    /// address's recency, so every relative LRU order — and therefore
    /// every future eviction — is identical.
    #[inline]
    pub fn touch_dirty(&mut self, addr: u64, priority: u8) -> bool {
        let base = self.set_index(addr) * self.ways;
        self.tick += 1;
        if let Some(slot) = self.find(base, addr) {
            self.ticks[slot] = self.tick;
            self.dirty[slot] = true;
            self.priority[slot] = self.priority[slot].max(priority);
            self.stats.hits += 1;
            self.stats.level_hits[stat_level(priority)] += 1;
            true
        } else {
            self.stats.misses += 1;
            self.stats.level_misses[stat_level(priority)] += 1;
            false
        }
    }

    /// Drops all contents and statistics.
    pub fn clear(&mut self) {
        self.tags.fill(SENTINEL);
        self.ticks.fill(0);
        self.dirty.fill(false);
        self.priority.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Number of resident lines.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != SENTINEL).count()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MetadataCache {
        // 2 sets x 2 ways.
        MetadataCache::new(4 * CACHELINE_BYTES, 2)
    }

    fn addr_in_set(cache: &MetadataCache, set: usize, k: u64) -> u64 {
        (set as u64 + k * cache.num_sets() as u64) * CACHELINE_BYTES as u64
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = addr_in_set(&c, 0, 0);
        assert!(!c.probe(a));
        c.insert(a, false);
        assert!(c.probe(a));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        let a = addr_in_set(&c, 0, 0);
        let b = addr_in_set(&c, 0, 1);
        let d = addr_in_set(&c, 0, 2);
        c.insert(a, false);
        c.insert(b, false);
        // Touch `a` so `b` becomes LRU.
        assert!(c.probe(a));
        let victim = c.insert(d, false).expect("set full");
        assert_eq!(victim.addr, b);
        assert!(c.contains(a));
        assert!(c.contains(d));
    }

    #[test]
    fn eight_way_set_evicts_true_lru() {
        let mut c = MetadataCache::new(8 * CACHELINE_BYTES, 8);
        assert_eq!(c.num_sets(), 1);
        for k in 0..8 {
            c.insert(k * CACHELINE_BYTES as u64, false);
        }
        // Touch every line except addr 3*64, making it the LRU.
        for k in [0u64, 1, 2, 4, 5, 6, 7] {
            assert!(c.probe(k * CACHELINE_BYTES as u64));
        }
        let victim = c.insert(8 * CACHELINE_BYTES as u64, false).expect("full");
        assert_eq!(victim.addr, 3 * CACHELINE_BYTES as u64);
    }

    #[test]
    fn eviction_reports_dirty_bit() {
        let mut c = tiny();
        let a = addr_in_set(&c, 1, 0);
        let b = addr_in_set(&c, 1, 1);
        let d = addr_in_set(&c, 1, 2);
        c.insert(a, true);
        c.insert(b, false);
        let victim = c.insert(d, false).unwrap();
        assert_eq!(victim, EvictedLine { addr: a, dirty: true, priority: 0 });
    }

    #[test]
    fn reinsert_refreshes_and_ors_dirty() {
        let mut c = tiny();
        let a = addr_in_set(&c, 0, 0);
        let b = addr_in_set(&c, 0, 1);
        let d = addr_in_set(&c, 0, 2);
        c.insert(a, false);
        c.insert(b, false);
        assert!(c.insert(a, true).is_none());
        let victim = c.insert(d, false).unwrap();
        assert_eq!(victim.addr, b, "a was refreshed to MRU");
        // `a`'s dirty bit was ORed in.
        let victim = c.insert(addr_in_set(&c, 0, 3), false).unwrap();
        assert_eq!(victim, EvictedLine { addr: a, dirty: true, priority: 0 });
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        for k in 0..2 {
            c.insert(addr_in_set(&c, 0, k), false);
            c.insert(addr_in_set(&c, 1, k), false);
        }
        assert_eq!(c.occupancy(), 4);
        // Filling set 0 further does not evict set 1.
        c.insert(addr_in_set(&c, 0, 9), false);
        assert!(c.contains(addr_in_set(&c, 1, 0)));
        assert!(c.contains(addr_in_set(&c, 1, 1)));
    }

    #[test]
    fn table1_configuration() {
        let c = MetadataCache::new(128 * 1024, 8);
        assert_eq!(c.capacity_bytes(), 128 * 1024);
        assert_eq!(c.num_sets(), 256);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn rejects_bad_capacity() {
        let _ = MetadataCache::new(100, 8);
    }

    #[test]
    fn non_power_of_two_set_count_still_maps_correctly() {
        // 3 sets x 2 ways: exercises the modulo fallback path.
        let mut c = MetadataCache::new(6 * CACHELINE_BYTES, 2);
        assert_eq!(c.num_sets(), 3);
        for k in 0..2 {
            for set in 0..3 {
                c.insert(addr_in_set(&c, set, k), false);
            }
        }
        assert_eq!(c.occupancy(), 6);
        for set in 0..3 {
            assert!(c.contains(addr_in_set(&c, set, 0)));
            assert!(c.contains(addr_in_set(&c, set, 1)));
        }
    }

    #[test]
    fn level_aware_policy_protects_high_levels() {
        let mut c = MetadataCache::with_policy(
            2 * CACHELINE_BYTES,
            2,
            ReplacementPolicy::LevelAware,
        );
        // One set, two ways; sets = 1.
        assert_eq!(c.num_sets(), 1);
        let low = 0;
        let high = 64;
        let newcomer = 128;
        c.insert_with_priority(high, false, 3); // a tree-level-3 line, older
        c.insert_with_priority(low, false, 0); // an enc-counter line, newer
        // LRU would evict `high` (older); level-aware evicts `low`.
        let victim = c.insert_with_priority(newcomer, false, 0).expect("full");
        assert_eq!(victim.addr, low);
        assert!(c.contains(high));
    }

    #[test]
    fn level_aware_falls_back_to_lru_within_a_class() {
        let mut c = MetadataCache::with_policy(
            2 * CACHELINE_BYTES,
            2,
            ReplacementPolicy::LevelAware,
        );
        c.insert_with_priority(0, false, 1);
        c.insert_with_priority(64, false, 1);
        // Equal priorities: the older line (addr 0) is the victim.
        let victim = c.insert_with_priority(128, false, 1).expect("full");
        assert_eq!(victim.addr, 0);
    }

    #[test]
    fn lru_policy_ignores_priorities() {
        let mut c = tiny();
        let a = addr_in_set(&c, 0, 0);
        let b = addr_in_set(&c, 0, 1);
        let d = addr_in_set(&c, 0, 2);
        c.insert_with_priority(a, false, 9);
        c.insert_with_priority(b, false, 0);
        let victim = c.insert_with_priority(d, false, 0).expect("full");
        assert_eq!(victim.addr, a, "plain LRU evicts the oldest regardless");
    }

    #[test]
    fn reinsert_keeps_the_highest_priority() {
        let mut c = MetadataCache::with_policy(
            2 * CACHELINE_BYTES,
            2,
            ReplacementPolicy::LevelAware,
        );
        c.insert_with_priority(0, false, 2);
        c.insert_with_priority(0, false, 0); // refresh with lower priority
        c.insert_with_priority(64, false, 1);
        // Addr 0 retained priority 2, so addr 64 is the victim.
        let victim = c.insert_with_priority(128, false, 1).expect("full");
        assert_eq!(victim.addr, 64);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = tiny();
        c.insert(64, true);
        c.probe(64);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.hits(), 0);
        assert!(!c.contains(64));
    }

    #[test]
    fn per_level_attribution_tracks_probes_and_evictions() {
        let mut c = tiny();
        let a = addr_in_set(&c, 0, 0);
        let b = addr_in_set(&c, 0, 1);
        let d = addr_in_set(&c, 0, 2);
        assert!(!c.probe_level(a, 2)); // miss at level 2
        c.insert_with_priority(a, false, 2);
        assert!(c.probe_level(a, 2)); // hit at level 2
        c.insert_with_priority(b, false, 0);
        // Evicting fills level_evicts by the victim's level.
        let victim = c.insert_with_priority(d, false, 1).expect("set full");
        let s = *c.stats();
        assert_eq!(s.level_misses[2], 1);
        assert_eq!(s.level_hits[2], 1);
        assert_eq!(s.level_evicts[usize::from(victim.priority)], 1);
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.hits + s.misses, c.hits() + c.misses());
        // Deep levels clamp into the last bin instead of indexing out.
        assert!(!c.probe_level(addr_in_set(&c, 1, 7), 200));
        assert_eq!(c.stats().level_misses[STAT_LEVELS - 1], 1);
    }

    #[test]
    fn touch_dirty_attributes_by_priority() {
        let mut c = tiny();
        let a = addr_in_set(&c, 0, 0);
        c.insert_with_priority(a, false, 1);
        assert!(c.touch_dirty(a, 1));
        assert!(!c.touch_dirty(addr_in_set(&c, 0, 5), 3));
        let s = c.stats();
        assert_eq!(s.level_hits[1], 1);
        assert_eq!(s.level_misses[3], 1);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        let a = addr_in_set(&c, 0, 0);
        c.insert(a, true);
        c.probe(a);
        c.reset_stats();
        assert_eq!(*c.stats(), CacheStats::default());
        assert!(c.contains(a), "contents survive a stats reset");
        assert_eq!(c.stats().hit_rate(), None, "no probes since the reset");
    }

    #[test]
    fn cache_stats_hit_rate_and_evictions() {
        let mut a = CacheStats { hits: 4, misses: 4, ..CacheStats::default() };
        a.level_evicts[2] = 5;
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 4);
        assert_eq!(a.hit_rate(), Some(0.5));
        assert_eq!(a.evictions(), 5);
    }
}
