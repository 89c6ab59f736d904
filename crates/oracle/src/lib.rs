//! The *frozen* pre-optimization metadata engine, kept as a behavioral
//! oracle.
//!
//! [`ReferenceEngine`] is the seed implementation of
//! [`MetadataEngine`](morphtree_core::metadata::MetadataEngine) verbatim:
//! `HashMap<u64, Line>` level stores keyed by physical address, a
//! heap-allocated fetch list per tree walk, and reverse address lookups
//! (`TreeGeometry::locate`) to recover levels. It is the equivalence
//! proof: the lockstep suites replay identical access streams through
//! both engines and assert byte-identical [`EngineStats`] and
//! [`MemAccess`] sequences, so every optimization in the flat-store
//! engine is proven behavior-preserving.
//!
//! This crate is a dev-dependency of the test suites only; no production
//! crate links it.
//!
//! Do not optimize this crate. Any change to the modeled behavior must be
//! made in both engines, keeping them bit-identical.

use std::collections::HashMap;

use morphtree_core::counters::{CounterLine, IncrementOutcome, Line};
use morphtree_core::metadata::{
    AccessCategory, EngineOptions, EngineStats, MacMode, MemAccess, ReplacementPolicy,
    VerificationMode,
};
use morphtree_core::tree::{TreeConfig, TreeGeometry};
use morphtree_core::CACHELINE_BYTES;

/// Recursion backstop, identical to the optimized engine's.
const MAX_CHAIN_DEPTH: usize = 64;

/// The seed (hash-map) metadata engine, frozen for equivalence testing.
/// See the crate docs; use
/// [`MetadataEngine`](morphtree_core::metadata::MetadataEngine) for
/// everything else.
#[derive(Debug)]
pub struct ReferenceEngine {
    config: TreeConfig,
    geometry: TreeGeometry,
    cache: SeedCache,
    /// Counter lines per level, keyed by *physical address*, created lazily
    /// (all-zero) — the seed representation.
    levels: Vec<HashMap<u64, Line>>,
    stats: EngineStats,
    mac_mode: MacMode,
    verification: VerificationMode,
    mac_base: u64,
}

impl ReferenceEngine {
    /// Creates a reference engine; same contract as
    /// [`MetadataEngine::new`](morphtree_core::metadata::MetadataEngine::new).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry or cache parameters.
    #[must_use]
    pub fn new(
        config: TreeConfig,
        memory_bytes: u64,
        cache_bytes: usize,
        mac_mode: MacMode,
    ) -> Self {
        Self::with_options(
            config,
            memory_bytes,
            cache_bytes,
            EngineOptions { mac_mode, ..EngineOptions::default() },
        )
    }

    /// Creates a reference engine with the full set of secondary knobs;
    /// same contract as [`MetadataEngine::with_options`](morphtree_core::metadata::MetadataEngine::with_options).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry or cache parameters.
    #[must_use]
    pub fn with_options(
        config: TreeConfig,
        memory_bytes: u64,
        cache_bytes: usize,
        options: EngineOptions,
    ) -> Self {
        let geometry = TreeGeometry::new(&config, memory_bytes);
        let num_levels = geometry.levels().len();
        let mac_base = geometry.levels().last().map_or(0, |last| last.base_addr + last.bytes());
        ReferenceEngine {
            config,
            cache: SeedCache::with_policy(cache_bytes, 8, options.replacement),
            levels: vec![HashMap::new(); num_levels],
            stats: EngineStats::new(num_levels),
            mac_mode: options.mac_mode,
            verification: options.verification,
            geometry,
            mac_base,
        }
    }

    /// The tree configuration.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// The tree geometry.
    #[must_use]
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Clears statistics while keeping counter and cache state.
    pub fn reset_stats(&mut self) {
        let levels = self.levels.len();
        self.stats = EngineStats::new(levels);
    }

    /// Effective counter value covering `child_idx` at `level`.
    #[must_use]
    pub fn counter_value(&self, level: usize, child_idx: u64) -> u64 {
        let (line_idx, slot) = self.geometry.parent_of(level, child_idx);
        let addr = self.geometry.line_addr(level, line_idx);
        self.levels[level]
            .get(&addr)
            .map_or(0, |line| line.get(slot))
    }

    /// A data read arriving at the memory controller (an LLC miss).
    pub fn read(&mut self, data_line: u64, out: &mut Vec<MemAccess>) {
        assert!(data_line < self.geometry.data_lines(), "data line out of range");
        self.stats.data_reads += 1;
        self.emit(out, data_line * CACHELINE_BYTES as u64, false, AccessCategory::Data, true);
        if self.mac_mode == MacMode::Separate {
            let mac_addr = self.mac_base + (data_line / 8) * CACHELINE_BYTES as u64;
            self.emit(out, mac_addr, false, AccessCategory::Mac, true);
        }
        let (enc_line, _) = self.geometry.parent_of(0, data_line);
        self.ensure_cached(0, enc_line, out, 0);
    }

    /// A data write arriving at the memory controller (a dirty LLC
    /// eviction).
    pub fn write(&mut self, data_line: u64, out: &mut Vec<MemAccess>) {
        assert!(data_line < self.geometry.data_lines(), "data line out of range");
        self.stats.data_writes += 1;
        self.emit(out, data_line * CACHELINE_BYTES as u64, true, AccessCategory::Data, false);
        if self.mac_mode == MacMode::Separate {
            let mac_addr = self.mac_base + (data_line / 8) * CACHELINE_BYTES as u64;
            self.emit(out, mac_addr, true, AccessCategory::Mac, false);
        }
        self.bump_counter(0, data_line, out, 0);
    }

    fn emit(
        &mut self,
        out: &mut Vec<MemAccess>,
        addr: u64,
        is_write: bool,
        category: AccessCategory,
        critical: bool,
    ) {
        let access = MemAccess { addr, is_write, category, critical };
        self.stats.record(&access);
        out.push(access);
    }

    fn children_count(&self, level: usize, line_idx: u64) -> usize {
        let total = if level == 0 {
            self.geometry.data_lines()
        } else {
            self.geometry.levels()[level - 1].lines
        };
        let arity = self.geometry.levels()[level].arity as u64;
        (total - line_idx * arity).min(arity) as usize
    }

    fn line_mut(&mut self, level: usize, line_idx: u64) -> &mut Line {
        let addr = self.geometry.line_addr(level, line_idx);
        let org = self.config.org(level);
        self.levels[level]
            .entry(addr)
            .or_insert_with(|| org.new_line())
    }

    /// The seed tree walk: collects fetched addresses in a heap `Vec` and
    /// re-derives each one's level via `TreeGeometry::locate`.
    fn ensure_cached(&mut self, level: usize, line_idx: u64, out: &mut Vec<MemAccess>, depth: usize) {
        let top = self.geometry.top_level();
        let mut fetched = Vec::new();
        let mut l = level;
        let mut idx = line_idx;
        while l < top {
            let addr = self.geometry.line_addr(l, idx);
            if self.cache.probe(addr) {
                break;
            }
            let gates = self.verification == VerificationMode::Strict;
            self.emit(out, addr, false, AccessCategory::for_level(l), gates);
            fetched.push(addr);
            let (parent_idx, _) = self.geometry.parent_of(l + 1, idx);
            l += 1;
            idx = parent_idx;
        }
        // Chain-depth accounting, mirrored from the optimized engine: it
        // records once per *miss* walk, and this seed formulation also
        // reaches here on hits (with nothing fetched), so only record when
        // the walk actually fetched — the equivalence suite compares stats.
        if !fetched.is_empty() {
            self.stats.fetch_depths.record(fetched.len() as u64);
            // One batched MAC-verification group per miss walk, mirrored
            // from the optimized engine for the same reason.
            self.stats.mac_batches += 1;
        }
        // Insert top-down so the requested line ends most-recently-used.
        for addr in fetched.into_iter().rev() {
            // Every fetched address came from this geometry's own layout.
            #[allow(clippy::expect_used)]
            let (lvl, _) = self.geometry.locate(addr).expect("metadata address");
            if let Some(evicted) = self.cache.insert_with_priority(addr, false, lvl as u8) {
                if evicted.dirty {
                    self.writeback(evicted.addr, out, depth);
                }
            }
        }
    }

    fn writeback(&mut self, addr: u64, out: &mut Vec<MemAccess>, depth: usize) {
        // The cache is only ever fed metadata addresses.
        #[allow(clippy::expect_used)]
        let (level, idx) = self
            .geometry
            .locate(addr)
            .expect("cache holds only metadata lines");
        self.emit(out, addr, true, AccessCategory::for_level(level), false);
        self.bump_counter(level + 1, idx, out, depth + 1);
    }

    fn bump_counter(&mut self, level: usize, child_idx: u64, out: &mut Vec<MemAccess>, depth: usize) {
        let top = self.geometry.top_level();
        debug_assert!(level <= top, "bump beyond the root");
        let (line_idx, slot) = self.geometry.parent_of(level, child_idx);

        if level < top {
            if depth < MAX_CHAIN_DEPTH {
                self.ensure_cached(level, line_idx, out, depth);
                let addr = self.geometry.line_addr(level, line_idx);
                if let Some(evicted) = self.cache.insert_with_priority(addr, true, level as u8) {
                    if evicted.dirty {
                        self.writeback(evicted.addr, out, depth);
                    }
                }
            } else {
                // Backstop for pathological cache shapes: uncached RMW.
                let addr = self.geometry.line_addr(level, line_idx);
                self.emit(out, addr, false, AccessCategory::for_level(level), false);
                self.emit(out, addr, true, AccessCategory::for_level(level), false);
            }
        }
        // The root (level == top) is pinned on-chip: no traffic to update it.

        let arity = self.geometry.levels()[level].arity;
        let outcome = self.line_mut(level, line_idx).increment(slot);
        match outcome {
            IncrementOutcome::Ok => {}
            IncrementOutcome::Rebased => self.stats.record_rebase(level),
            IncrementOutcome::Overflow(event) => {
                self.stats
                    .record_overflow_kind(level, event.used_counters, arity, event.kind);
                self.handle_overflow(level, line_idx, event.span, out);
            }
        }
        if level < top && depth >= MAX_CHAIN_DEPTH {
            // The uncached RMW path above already wrote the line back, but
            // its parent still observed a write.
            self.bump_counter(level + 1, line_idx, out, depth + 1);
        }
    }

    fn handle_overflow(
        &mut self,
        level: usize,
        line_idx: u64,
        span: morphtree_core::counters::ReencryptSpan,
        out: &mut Vec<MemAccess>,
    ) {
        let arity = self.geometry.levels()[level].arity as u64;
        let children = self.children_count(level, line_idx) as u64;
        for slot in span.slots(arity as usize) {
            let child = line_idx * arity + slot as u64;
            if slot as u64 >= children {
                break;
            }
            let child_addr = if level == 0 {
                child * CACHELINE_BYTES as u64
            } else {
                self.geometry.line_addr(level - 1, child)
            };
            self.emit(out, child_addr, false, AccessCategory::Overflow, false);
            self.emit(out, child_addr, true, AccessCategory::Overflow, false);
        }
    }
}

/// A line evicted from the [`SeedCache`].
#[derive(Debug, Clone, Copy)]
struct SeedEvicted {
    addr: u64,
    dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct SeedEntry {
    addr: u64,
    dirty: bool,
    priority: u8,
}

/// The seed metadata cache, frozen alongside the seed engine: per-set
/// vectors ordered LRU → MRU (every touch is a `remove` + `push`
/// shuffle) and a set index computed with a hardware-division modulo.
/// [`MetadataCache`](morphtree_core::metadata::MetadataCache) replaced
/// both; this copy keeps the oracle independent of it. Victim selection is semantically identical.
#[derive(Debug, Clone)]
struct SeedCache {
    /// `sets[i]` is ordered LRU → MRU.
    sets: Vec<Vec<SeedEntry>>,
    ways: usize,
    policy: ReplacementPolicy,
}

impl SeedCache {
    fn with_policy(capacity_bytes: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(ways >= 1);
        let lines = capacity_bytes / CACHELINE_BYTES;
        assert!(
            lines >= ways && capacity_bytes.is_multiple_of(ways * CACHELINE_BYTES),
            "capacity {capacity_bytes} incompatible with {ways} ways"
        );
        let num_sets = lines / ways;
        SeedCache { sets: vec![Vec::with_capacity(ways); num_sets], ways, policy }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / CACHELINE_BYTES as u64) % self.sets.len() as u64) as usize
    }

    fn probe(&mut self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|e| e.addr == addr) {
            let entry = entries.remove(pos);
            entries.push(entry);
            true
        } else {
            false
        }
    }

    fn insert_with_priority(&mut self, addr: u64, dirty: bool, priority: u8) -> Option<SeedEvicted> {
        let set = self.set_index(addr);
        let ways = self.ways;
        let policy = self.policy;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|e| e.addr == addr) {
            let mut entry = entries.remove(pos);
            entry.dirty |= dirty;
            entry.priority = entry.priority.max(priority);
            entries.push(entry);
            return None;
        }
        let victim = if entries.len() == ways {
            let pos = match policy {
                ReplacementPolicy::Lru => 0,
                ReplacementPolicy::LevelAware => entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.priority)
                    .map_or(0, |(pos, _)| pos),
            };
            let v = entries.remove(pos);
            Some(SeedEvicted { addr: v.addr, dirty: v.dirty })
        } else {
            None
        };
        entries.push(SeedEntry { addr, dirty, priority });
        victim
    }
}
