//! The metadata engine: tree walks, counter increments, overflow handling
//! and write propagation (§II-B, §VII-B).

use super::cache::{MetadataCache, ReplacementPolicy};
use super::stats::{AccessCategory, EngineStats, MemAccess};
use crate::counters::tree::CounterTree;
use crate::counters::{CounterLine, IncrementOutcome};
use crate::tree::{TreeConfig, TreeGeometry};
use crate::CACHELINE_BYTES;

/// How MACs of data lines are stored (§VII-I, Fig 20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MacMode {
    /// Synergy-style in-line MACs in the ECC chip: no extra traffic (the
    /// configuration used for all main results).
    #[default]
    Inline,
    /// MACs stored separately: one extra access per data access.
    Separate,
}

/// When is a data read allowed to return (§VIII-B2 discusses the design
/// space)?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerificationMode {
    /// SGX-style: the read completes only after its counter-fetch chain —
    /// counter fetches gate the data return (the paper's model, and ours
    /// by default).
    #[default]
    Strict,
    /// PoisonIvy/ASE-style safe speculation: data returns immediately and
    /// verification proceeds in the background. Metadata fetches still
    /// consume bandwidth — the overhead the paper says speculation cannot
    /// remove — but no longer gate the critical path.
    Speculative,
}

/// Bundle of secondary engine knobs (each defaults to the paper's model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOptions {
    /// MAC organization (Fig 20).
    pub mac_mode: MacMode,
    /// Whether counter fetches gate data returns (§VIII-B2 ablation).
    pub verification: VerificationMode,
    /// Metadata-cache victim selection (§VIII-B2 ablation).
    pub replacement: ReplacementPolicy,
}

/// Recursion backstop: a writeback chain ascends a level each step, so any
/// depth beyond this indicates a pathological cache configuration; the
/// engine then falls back to an uncached read-modify-write for the parent.
const MAX_CHAIN_DEPTH: usize = 64;

/// The secure-memory metadata controller.
///
/// Owns the counter tree (the union of DRAM and cache state), the
/// dedicated metadata cache, and the traffic statistics. A parent counter
/// advances when a dirty child line is written back. Each
/// [`MetadataEngine::read`] / [`MetadataEngine::write`] call appends the
/// memory accesses the event generates to the caller's buffer.
///
/// # Example
///
/// ```
/// use morphtree_core::metadata::{MetadataEngine, MacMode};
/// use morphtree_core::tree::TreeConfig;
///
/// let mut engine = MetadataEngine::new(
///     TreeConfig::sc64(),
///     1 << 30,     // 1 GiB protected
///     128 * 1024,  // 128 KB metadata cache
///     MacMode::Inline,
/// );
/// let mut accesses = Vec::new();
/// engine.read(0, &mut accesses);
/// // A cold read fetches the data line plus a counter chain.
/// assert!(accesses.len() > 1);
/// ```
#[derive(Debug)]
pub struct MetadataEngine {
    config: TreeConfig,
    cache: MetadataCache,
    tree: CounterTree,
    stats: EngineStats,
    mac_mode: MacMode,
    verification: VerificationMode,
    mac_base: u64,
    /// Hot-path copies of [`TreeGeometry::top_level`] and
    /// [`TreeGeometry::data_lines`].
    top_level: usize,
    data_lines: u64,
    /// Reusable `(address, level)` buffer for the upward tree walk. The
    /// seed engine heap-allocated a `Vec<u64>` per cache miss and then
    /// *re-derived* each address's level with a linear
    /// `TreeGeometry::locate` scan; the walk already knows the level, so
    /// carrying it alongside the address in a persistent buffer removes
    /// both the allocation and the reverse lookup from the hottest loop in
    /// the simulator.
    fetch_scratch: Vec<(u64, u8)>,
}

impl MetadataEngine {
    /// Creates an engine for `config` protecting `memory_bytes` of data,
    /// with a `cache_bytes` 8-way metadata cache.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry or cache parameters (see
    /// [`TreeGeometry::new`] and [`MetadataCache::new`]).
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

    /// Like [`MetadataEngine::new`] with the full set of secondary knobs.
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
        let mac_base = geometry.levels().last().map_or(0, |last| last.base_addr + last.bytes());
        MetadataEngine {
            stats: EngineStats::new(geometry.levels().len()),
            top_level: geometry.top_level(),
            data_lines: geometry.data_lines(),
            tree: CounterTree::new(&config, geometry),
            config,
            cache: MetadataCache::with_policy(cache_bytes, 8, options.replacement),
            mac_mode: options.mac_mode,
            verification: options.verification,
            mac_base,
            fetch_scratch: Vec::new(),
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
        self.tree.geometry()
    }

    /// The metadata cache (for occupancy inspection in tests/tools).
    #[must_use]
    pub fn cache(&self) -> &MetadataCache {
        &self.cache
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Clears statistics while keeping counter and cache state — used to
    /// measure after warm-up, as the paper does (§VI).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::new(self.geometry().levels().len());
        self.cache.reset_stats();
    }

    /// Effective counter value covering `child_idx` at `level` (a data-line
    /// index when `level == 0`). Zero if the line was never touched.
    #[must_use]
    pub fn counter_value(&self, level: usize, child_idx: u64) -> u64 {
        self.tree.counter(level, child_idx)
    }

    /// A data read arriving at the memory controller (an LLC miss).
    ///
    /// Emits the data access, any separate-MAC access, and the counter
    /// fetch chain if the encryption counter misses in the metadata cache.
    pub fn read(&mut self, data_line: u64, out: &mut Vec<MemAccess>) {
        assert!(data_line < self.data_lines, "data line out of range");
        self.stats.data_reads += 1;
        self.emit(out, data_line * CACHELINE_BYTES as u64, false, AccessCategory::Data, true);
        if self.mac_mode == MacMode::Separate {
            let mac_addr = self.mac_base + (data_line / 8) * CACHELINE_BYTES as u64;
            self.emit(out, mac_addr, false, AccessCategory::Mac, true);
        }
        let (enc_line, _) = self.geometry().parent_of(0, data_line);
        self.ensure_cached(0, enc_line, out, 0);
    }

    /// A data write arriving at the memory controller (a dirty LLC
    /// eviction): increments the encryption counter, which may overflow.
    pub fn write(&mut self, data_line: u64, out: &mut Vec<MemAccess>) {
        assert!(data_line < self.data_lines, "data line out of range");
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

    /// Brings the counter line at (`level`, `line_idx`) into the metadata
    /// cache, fetching the tree chain above it as needed. Tree-node
    /// addresses are address-computable, so the whole chain issues in
    /// parallel; every fetch is marked critical. The common case — the
    /// line is already cached — is a single probe.
    fn ensure_cached(&mut self, level: usize, line_idx: u64, out: &mut Vec<MemAccess>, depth: usize) {
        if level >= self.top_level {
            // The root is pinned on-chip and never fetched.
            return;
        }
        let addr = self.geometry().line_addr(level, line_idx);
        if !self.cache.probe_level(addr, level as u8) {
            self.fetch_chain(level, line_idx, addr, out, depth);
        }
    }

    /// Continuation of [`MetadataEngine::ensure_cached`] after `addr` (the
    /// line at `level`/`line_idx`) missed: emits its fetch, walks the
    /// ancestor chain until a cached level, and inserts the fetched lines
    /// top-down so the requested line ends most-recently-used.
    fn fetch_chain(
        &mut self,
        level: usize,
        line_idx: u64,
        addr: u64,
        out: &mut Vec<MemAccess>,
        depth: usize,
    ) {
        let top = self.top_level;
        let gates = self.verification == VerificationMode::Strict;
        // Take the scratch buffer so the insertion loop below can call back
        // into `self`; a recursive walk (dirty eviction during the fill)
        // simply starts from an empty buffer of its own.
        let mut fetched = std::mem::take(&mut self.fetch_scratch);
        fetched.clear();
        self.emit(out, addr, false, AccessCategory::for_level(level), gates);
        fetched.push((addr, level as u8));
        let (mut idx, _) = self.geometry().parent_of(level + 1, line_idx);
        let mut l = level + 1;
        while l < top {
            let addr = self.geometry().line_addr(l, idx);
            if self.cache.probe_level(addr, l as u8) {
                break;
            }
            self.emit(out, addr, false, AccessCategory::for_level(l), gates);
            fetched.push((addr, l as u8));
            let (parent_idx, _) = self.geometry().parent_of(l + 1, idx);
            l += 1;
            idx = parent_idx;
        }
        // Chain-depth distribution: how far this miss had to walk before
        // hitting a cached ancestor (or the pinned root).
        self.stats.fetch_depths.record(fetched.len() as u64);
        // The fetched chain is verified as one batched MAC group (the
        // functional plane's `mac_lines`): count the group so
        // `mac_ops / mac_batches` exposes the batch depth.
        if !fetched.is_empty() {
            self.stats.mac_batches += 1;
        }
        // The walk recorded each line's level, so no reverse lookup is
        // needed to insert.
        for &(addr, lvl) in fetched.iter().rev() {
            if let Some(evicted) = self.cache.insert_with_priority(addr, false, lvl) {
                if evicted.dirty {
                    self.writeback(evicted.addr, evicted.priority, out, depth);
                }
            }
        }
        self.fetch_scratch = fetched;
    }

    /// Writes a dirty metadata line back to memory and propagates the write
    /// to its parent counter — the §II-C mechanism. `level` is the evicted
    /// line's cache priority, which the engine always sets to its tree
    /// level, so the line index follows from the level's base address.
    fn writeback(&mut self, addr: u64, level: u8, out: &mut Vec<MemAccess>, depth: usize) {
        let level = level as usize;
        let idx = (addr - self.geometry().levels()[level].base_addr) / CACHELINE_BYTES as u64;
        self.emit(out, addr, true, AccessCategory::for_level(level), false);
        self.bump_counter(level + 1, idx, out, depth + 1);
    }

    /// Increments the counter at `level` covering `child_idx`, handling
    /// caching, dirtiness and overflows.
    fn bump_counter(&mut self, level: usize, child_idx: u64, out: &mut Vec<MemAccess>, depth: usize) {
        let top = self.top_level;
        debug_assert!(level <= top, "bump beyond the root");
        let (line_idx, slot) = self.geometry().parent_of(level, child_idx);

        if level < top {
            if depth < MAX_CHAIN_DEPTH {
                let addr = self.geometry().line_addr(level, line_idx);
                // Fused probe + dirty refresh: the hit path (the common
                // case) is one cache lookup instead of two.
                if !self.cache.touch_dirty(addr, level as u8) {
                    self.fetch_chain(level, line_idx, addr, out, depth);
                    if let Some(evicted) =
                        self.cache.insert_with_priority(addr, true, level as u8)
                    {
                        if evicted.dirty {
                            self.writeback(evicted.addr, evicted.priority, out, depth);
                        }
                    }
                }
            } else {
                // Backstop for pathological cache shapes: uncached RMW.
                let addr = self.geometry().line_addr(level, line_idx);
                self.emit(out, addr, false, AccessCategory::for_level(level), false);
                self.emit(out, addr, true, AccessCategory::for_level(level), false);
            }
        }
        // The root (level == top) is pinned on-chip: no traffic to update it.

        match self.tree.line_or_new(level, line_idx).increment(slot) {
            IncrementOutcome::Ok => {}
            IncrementOutcome::Rebased => self.stats.record_rebase(level),
            IncrementOutcome::Overflow(event) => {
                let arity = self.geometry().levels()[level].arity;
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

    /// Charges the re-encryption (level 0) or re-hash (level > 0) traffic
    /// of an overflow: one read and one write per affected child.
    fn handle_overflow(
        &mut self,
        level: usize,
        line_idx: u64,
        span: crate::counters::ReencryptSpan,
        out: &mut Vec<MemAccess>,
    ) {
        for child in self.tree.span_children(level, line_idx, span) {
            let child_addr = if level == 0 {
                child * CACHELINE_BYTES as u64
            } else {
                self.geometry().line_addr(level - 1, child)
            };
            self.emit(out, child_addr, false, AccessCategory::Overflow, false);
            self.emit(out, child_addr, true, AccessCategory::Overflow, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    fn engine(config: TreeConfig) -> MetadataEngine {
        MetadataEngine::new(config, 64 * MIB, 8 * 1024, MacMode::Inline)
    }

    fn categories(accesses: &[MemAccess]) -> Vec<AccessCategory> {
        accesses.iter().map(|a| a.category).collect()
    }

    #[test]
    fn cold_read_walks_the_whole_tree() {
        let mut e = engine(TreeConfig::sc64());
        let mut out = Vec::new();
        e.read(0, &mut out);
        // 64 MiB / SC-64: enc + L1 + L2 levels below a single-line root.
        let cats = categories(&out);
        assert_eq!(
            cats,
            vec![
                AccessCategory::Data,
                AccessCategory::CtrEncr,
                AccessCategory::Ctr1,
                AccessCategory::Ctr2,
            ]
        );
        assert!(out.iter().all(|a| !a.is_write));
        assert!(out.iter().all(|a| a.critical));
    }

    #[test]
    fn warm_read_touches_only_data() {
        let mut e = engine(TreeConfig::sc64());
        let mut out = Vec::new();
        e.read(0, &mut out);
        out.clear();
        e.read(1, &mut out); // same counter line covers lines 0..64
        assert_eq!(categories(&out), vec![AccessCategory::Data]);
    }

    #[test]
    fn partially_warm_read_stops_at_cached_level() {
        let mut e = engine(TreeConfig::sc64());
        let mut out = Vec::new();
        e.read(0, &mut out);
        out.clear();
        // Data line 64 uses encryption-counter line 1, which shares the
        // already-cached L1 line 0.
        e.read(64, &mut out);
        assert_eq!(
            categories(&out),
            vec![AccessCategory::Data, AccessCategory::CtrEncr]
        );
    }

    #[test]
    fn write_increments_the_encryption_counter() {
        let mut e = engine(TreeConfig::sc64());
        let mut out = Vec::new();
        e.write(5, &mut out);
        assert_eq!(e.counter_value(0, 5), 1);
        assert_eq!(e.counter_value(0, 6), 0);
        assert_eq!(out[0].category, AccessCategory::Data);
        assert!(out[0].is_write);
        // The enc line had to be fetched (chain reads), but no writes yet:
        // the dirty counter line sits in the cache.
        assert!(out[1..].iter().all(|a| !a.is_write));
    }

    #[test]
    fn sc64_overflow_costs_64_reads_and_64_writes() {
        let mut e = engine(TreeConfig::sc64());
        let mut out = Vec::new();
        for _ in 0..63 {
            e.write(0, &mut out);
        }
        out.clear();
        e.write(0, &mut out);
        let overflow: Vec<&MemAccess> = out
            .iter()
            .filter(|a| a.category == AccessCategory::Overflow)
            .collect();
        assert_eq!(overflow.len(), 128, "64 reads + 64 writes");
        assert_eq!(overflow.iter().filter(|a| a.is_write).count(), 64);
        assert_eq!(e.stats().overflows_by_level[0], 1);
        // The re-encrypted children are the 64 data lines under the counter.
        assert!(overflow.iter().all(|a| a.addr < 64 * 64));
    }

    #[test]
    fn overflow_span_clamped_to_real_children() {
        // 96 data lines under SC-64: line 1 covers only 32 children.
        let mut e = MetadataEngine::new(
            TreeConfig::sc64(),
            96 * CACHELINE_BYTES as u64,
            4096,
            MacMode::Inline,
        );
        let mut out = Vec::new();
        for _ in 0..64 {
            e.write(64, &mut out);
        }
        let overflow = out
            .iter()
            .filter(|a| a.category == AccessCategory::Overflow)
            .count();
        assert_eq!(overflow, 64, "32 children -> 32 reads + 32 writes");
    }

    #[test]
    fn dirty_eviction_propagates_to_parent_counter() {
        // A cache with 8 sets x 8 ways; walk enough distinct counter lines
        // to force dirty evictions.
        let mut e = MetadataEngine::new(TreeConfig::sc64(), 64 * MIB, 4096, MacMode::Inline);
        let mut out = Vec::new();
        // Dirty many distinct enc lines: data lines 64 apart map to
        // different counter lines.
        for i in 0..200 {
            e.write(i * 64, &mut out);
        }
        // Some enc line must have been evicted dirty, writing back and
        // bumping its L1 parent.
        let ctr_writes = e.stats().writes[2]; // CtrEncr index
        assert!(ctr_writes > 0, "expected dirty counter writebacks");
        let l1_value: u64 = (0..e.geometry().levels()[1].lines)
            .map(|i| e.counter_value(1, i))
            .sum();
        assert!(l1_value > 0, "L1 counters should have advanced");
    }

    #[test]
    fn root_is_pinned_and_generates_no_traffic() {
        // Tiny memory: enc level has 2 lines, root is level 1.
        let mut e = MetadataEngine::new(
            TreeConfig::sc64(),
            128 * CACHELINE_BYTES as u64,
            4096,
            MacMode::Inline,
        );
        assert_eq!(e.geometry().top_level(), 1);
        let mut out = Vec::new();
        e.read(0, &mut out);
        // Chain: data + enc line fetch; root never fetched.
        assert_eq!(
            categories(&out),
            vec![AccessCategory::Data, AccessCategory::CtrEncr]
        );
    }

    #[test]
    fn separate_macs_add_one_access_per_data_access() {
        let mut e = MetadataEngine::new(TreeConfig::sc64(), 64 * MIB, 8192, MacMode::Separate);
        let mut out = Vec::new();
        e.read(0, &mut out);
        assert_eq!(out[1].category, AccessCategory::Mac);
        out.clear();
        e.write(0, &mut out);
        assert_eq!(out[1].category, AccessCategory::Mac);
        assert!(out[1].is_write);
    }

    #[test]
    fn morphtree_rebases_instead_of_overflowing_on_dense_writes() {
        let mut e = engine(TreeConfig::morphtree());
        let mut out = Vec::new();
        // Round-robin writes over one counter line's 128 children.
        for round in 0..20 {
            for child in 0..128u64 {
                e.write(child, &mut out);
            }
            let _ = round;
        }
        let stats = e.stats();
        assert_eq!(stats.overflows_by_level[0], 0, "rebasing should absorb");
        assert!(stats.rebases_by_level[0] > 0);
    }

    #[test]
    fn sc128_overflows_far_more_than_sc64_under_hot_writes() {
        let mut hot64 = engine(TreeConfig::sc64());
        let mut hot128 = engine(TreeConfig::sc128());
        let mut out = Vec::new();
        for _ in 0..1024 {
            hot64.write(0, &mut out);
            hot128.write(0, &mut out);
        }
        let o64 = hot64.stats().overflows_by_level[0];
        let o128 = hot128.stats().overflows_by_level[0];
        // After an overflow the hot slot restarts at 1, so the steady-state
        // period is 2^b - 1 writes: 63 for SC-64, 7 for SC-128.
        assert_eq!(o64, 1 + (1024 - 64) / 63);
        assert_eq!(o128, 1 + (1024 - 8) / 7);
        assert!(o128 > 8 * o64, "paper's ~8x gap: {o128} vs {o64}");
    }

    #[test]
    fn stats_reset_keeps_counter_state() {
        let mut e = engine(TreeConfig::sc64());
        let mut out = Vec::new();
        e.write(0, &mut out);
        e.reset_stats();
        assert_eq!(e.stats().data_accesses(), 0);
        assert_eq!(e.counter_value(0, 0), 1, "counter state preserved");
    }

    #[test]
    fn traffic_metric_counts_all_categories() {
        let mut e = engine(TreeConfig::sc64());
        let mut out = Vec::new();
        e.read(0, &mut out);
        let s = e.stats();
        assert!(s.traffic_per_data_access() >= 1.0);
        assert_eq!(s.total_accesses() as usize, out.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_rejects_out_of_range_lines() {
        let mut e = MetadataEngine::new(
            TreeConfig::sc64(),
            128 * CACHELINE_BYTES as u64,
            4096,
            MacMode::Inline,
        );
        let mut out = Vec::new();
        e.read(128, &mut out);
    }
}
