//! Size, height and address layout of an integrity tree over a given memory
//! (Fig 1, Fig 17, Table III).

use super::config::TreeConfig;
use crate::CACHELINE_BYTES;

/// Geometry of one metadata level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelGeometry {
    /// Level number (0 = encryption counters, 1.. = integrity-tree levels).
    pub level: usize,
    /// Number of 64-byte lines at this level.
    pub lines: u64,
    /// Arity of the counter lines at this level.
    pub arity: usize,
    /// Base address of this level's storage in the metadata region.
    pub base_addr: u64,
}

impl LevelGeometry {
    /// Bytes of storage this level occupies.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.lines * CACHELINE_BYTES as u64
    }
}

/// Complete geometry of a secure-memory configuration over `memory_bytes`
/// of protected data.
///
/// Metadata is laid out at addresses starting at `memory_bytes`: first the
/// encryption counters, then tree level 1, and so on — giving every
/// metadata line a unique physical address for the metadata cache and the
/// DRAM model.
///
/// # Example
///
/// ```
/// use morphtree_core::tree::{TreeConfig, TreeGeometry};
///
/// // The paper's headline numbers for 16 GB (Fig 1 / Table III):
/// let gib = 1u64 << 30;
/// let sc64 = TreeGeometry::new(&TreeConfig::sc64(), 16 * gib);
/// assert_eq!(sc64.height(), 4);
/// assert_eq!(sc64.enc_bytes(), 256 * (1 << 20)); // 256 MB of counters
///
/// let morph = TreeGeometry::new(&TreeConfig::morphtree(), 16 * gib);
/// assert_eq!(morph.height(), 3);
/// assert_eq!(morph.enc_bytes(), 128 * (1 << 20)); // 2x smaller base
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGeometry {
    memory_bytes: u64,
    data_lines: u64,
    levels: Vec<LevelGeometry>,
}

impl TreeGeometry {
    /// Computes the geometry of `config` protecting `memory_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is zero or not a multiple of the cacheline
    /// size, or if a level's arity is not a power of two.
    #[must_use]
    pub fn new(config: &TreeConfig, memory_bytes: u64) -> Self {
        assert!(memory_bytes > 0, "memory size must be non-zero");
        assert_eq!(
            memory_bytes % CACHELINE_BYTES as u64,
            0,
            "memory size must be cacheline-aligned"
        );
        let data_lines = memory_bytes / CACHELINE_BYTES as u64;
        let mut levels = Vec::new();
        let mut next_base = memory_bytes;
        let mut children = data_lines;
        let mut level = 0;
        loop {
            let arity = config.arity(level);
            assert!(arity.is_power_of_two(), "arity {arity} at level {level}");
            let lines = children.div_ceil(arity as u64);
            levels.push(LevelGeometry { level, lines, arity, base_addr: next_base });
            next_base += lines * CACHELINE_BYTES as u64;
            if lines == 1 {
                break;
            }
            children = lines;
            level += 1;
        }
        TreeGeometry { memory_bytes, data_lines, levels }
    }

    /// Bytes of protected data.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Number of protected data cachelines.
    #[must_use]
    pub fn data_lines(&self) -> u64 {
        self.data_lines
    }

    /// Per-level geometry, index 0 = encryption counters.
    #[must_use]
    pub fn levels(&self) -> &[LevelGeometry] {
        &self.levels
    }

    /// Number of integrity-tree levels (excluding the encryption-counter
    /// level), counted as the paper counts them: the 64-byte root line is a
    /// level (Fig 17 shows SC-64 with 4, MorphCtr-128 with 3).
    #[must_use]
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// Index of the topmost level (the single-line root, pinned on-chip).
    #[must_use]
    pub fn top_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Storage of the encryption counters (level 0).
    #[must_use]
    pub fn enc_bytes(&self) -> u64 {
        self.levels[0].bytes()
    }

    /// Total storage of the integrity tree (levels 1 and above).
    #[must_use]
    pub fn tree_bytes(&self) -> u64 {
        self.levels[1..].iter().map(LevelGeometry::bytes).sum()
    }

    /// Encryption-counter storage overhead as a fraction of data.
    #[must_use]
    pub fn enc_overhead(&self) -> f64 {
        self.enc_bytes() as f64 / self.memory_bytes as f64
    }

    /// Integrity-tree storage overhead as a fraction of data.
    #[must_use]
    pub fn tree_overhead(&self) -> f64 {
        self.tree_bytes() as f64 / self.memory_bytes as f64
    }

    /// Physical address of metadata line `idx` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn line_addr(&self, level: usize, idx: u64) -> u64 {
        let geom = &self.levels[level];
        assert!(idx < geom.lines, "line {idx} out of range at level {level}");
        geom.base_addr + idx * CACHELINE_BYTES as u64
    }

    /// Maps a metadata address back to `(level, line index)`; `None` for
    /// data addresses.
    #[must_use]
    pub fn locate(&self, addr: u64) -> Option<(usize, u64)> {
        if addr < self.memory_bytes {
            return None;
        }
        for geom in &self.levels {
            let end = geom.base_addr + geom.bytes();
            if addr >= geom.base_addr && addr < end {
                return Some((geom.level, (addr - geom.base_addr) / CACHELINE_BYTES as u64));
            }
        }
        None
    }

    /// The `(line index, slot)` of the counter at `level` that covers child
    /// index `child_idx` (a data-line index when `level == 0`, a
    /// level-`level - 1` line index otherwise). Every arity is a power of
    /// two, so this is a shift and a mask, cheap enough for the timing
    /// plane's hot path.
    #[inline]
    #[must_use]
    pub fn parent_of(&self, level: usize, child_idx: u64) -> (u64, usize) {
        let shift = self.levels[level].arity.trailing_zeros();
        (child_idx >> shift, (child_idx & ((1 << shift) - 1)) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;
    const MIB: u64 = 1 << 20;
    const KIB: u64 = 1 << 10;

    fn geom(config: &TreeConfig) -> TreeGeometry {
        TreeGeometry::new(config, 16 * GIB)
    }

    /// Table III, row by row, for 16 GB.
    #[test]
    fn table3_sgx() {
        let g = geom(&TreeConfig::sgx());
        assert_eq!(g.enc_bytes(), 2 * GIB);
        // Paper rounds to "292 MB".
        let tree_mb = g.tree_bytes() as f64 / MIB as f64;
        assert!((292.0..293.0).contains(&tree_mb), "tree = {tree_mb} MB");
        assert!((g.enc_overhead() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn table3_vault() {
        let g = geom(&TreeConfig::vault());
        assert_eq!(g.enc_bytes(), 256 * MIB);
        let tree_mb = g.tree_bytes() as f64 / MIB as f64;
        assert!((8.5..8.6).contains(&tree_mb), "tree = {tree_mb} MB");
        assert_eq!(g.height(), 6);
    }

    #[test]
    fn table3_sc64() {
        let g = geom(&TreeConfig::sc64());
        assert_eq!(g.enc_bytes(), 256 * MIB);
        let tree_mb = g.tree_bytes() as f64 / MIB as f64;
        assert!((4.0..4.1).contains(&tree_mb), "tree = {tree_mb} MB");
        assert_eq!(g.height(), 4);
    }

    #[test]
    fn table3_morphctr() {
        let g = geom(&TreeConfig::morphtree());
        assert_eq!(g.enc_bytes(), 128 * MIB);
        let tree_mb = g.tree_bytes() as f64 / MIB as f64;
        assert!((1.0..1.1).contains(&tree_mb), "tree = {tree_mb} MB");
        assert_eq!(g.height(), 3);
    }

    /// Fig 17's per-level footprints.
    #[test]
    fn fig17_level_sizes() {
        let vault = geom(&TreeConfig::vault());
        let sizes: Vec<u64> = vault.levels()[1..].iter().map(LevelGeometry::bytes).collect();
        assert_eq!(sizes, vec![8 * MIB, 512 * KIB, 32 * KIB, 2 * KIB, 128, 64]);

        let sc64 = geom(&TreeConfig::sc64());
        let sizes: Vec<u64> = sc64.levels()[1..].iter().map(LevelGeometry::bytes).collect();
        assert_eq!(sizes, vec![4 * MIB, 64 * KIB, KIB, 64]);

        let morph = geom(&TreeConfig::morphtree());
        let sizes: Vec<u64> = morph.levels()[1..].iter().map(LevelGeometry::bytes).collect();
        assert_eq!(sizes, vec![MIB, 8 * KIB, 64]);
    }

    #[test]
    fn morphtree_is_4x_smaller_than_sc64_and_8_5x_smaller_than_vault() {
        let sc64 = geom(&TreeConfig::sc64()).tree_bytes() as f64;
        let vault = geom(&TreeConfig::vault()).tree_bytes() as f64;
        let morph = geom(&TreeConfig::morphtree()).tree_bytes() as f64;
        assert!((sc64 / morph - 4.0).abs() < 0.1, "SC-64/Morph = {}", sc64 / morph);
        assert!((vault / morph - 8.5).abs() < 0.2, "VAULT/Morph = {}", vault / morph);
    }

    #[test]
    fn address_map_is_disjoint_and_invertible() {
        let g = geom(&TreeConfig::morphtree());
        // Data addresses are not metadata.
        assert_eq!(g.locate(0), None);
        assert_eq!(g.locate(16 * GIB - 64), None);
        for level in 0..=g.top_level() {
            let lines = g.levels()[level].lines;
            for idx in [0, lines / 2, lines - 1] {
                let addr = g.line_addr(level, idx);
                assert_eq!(g.locate(addr), Some((level, idx)), "level {level} idx {idx}");
            }
        }
    }

    #[test]
    fn parent_of_maps_children_to_slots() {
        let g = geom(&TreeConfig::vault());
        // Level 0 (enc counters) is 64-ary over data lines.
        assert_eq!(g.parent_of(0, 0), (0, 0));
        assert_eq!(g.parent_of(0, 65), (1, 1));
        // Level 1 is 32-ary over level-0 lines.
        assert_eq!(g.parent_of(1, 33), (1, 1));
        // Level 2 is 16-ary.
        assert_eq!(g.parent_of(2, 15), (0, 15));
        assert_eq!(g.parent_of(2, 16), (1, 0));
    }

    #[test]
    fn small_memories_collapse_to_short_trees() {
        // 1 MB of data with SC-64: 256 counter lines -> 4 L1 lines -> 1 root.
        let g = TreeGeometry::new(&TreeConfig::sc64(), MIB);
        assert_eq!(g.levels()[0].lines, 256);
        assert_eq!(g.height(), 2);
        assert_eq!(g.levels().last().unwrap().lines, 1);
    }

    #[test]
    fn tiny_memory_has_single_root_level() {
        // 64 lines of data fit one SC-64 counter line: that line is the root.
        let g = TreeGeometry::new(&TreeConfig::sc64(), 64 * 64);
        assert_eq!(g.levels().len(), 1);
        assert_eq!(g.height(), 0);
    }

    #[test]
    #[should_panic(expected = "cacheline-aligned")]
    fn rejects_unaligned_memory() {
        let _ = TreeGeometry::new(&TreeConfig::sc64(), 100);
    }

    #[test]
    fn geometry_scales_with_memory_size() {
        // DESIGN.md extension: 8-64 GB sweep keeps the 4x ratio.
        for size_gb in [8u64, 32, 64] {
            let sc64 = TreeGeometry::new(&TreeConfig::sc64(), size_gb * GIB);
            let morph = TreeGeometry::new(&TreeConfig::morphtree(), size_gb * GIB);
            let ratio = sc64.tree_bytes() as f64 / morph.tree_bytes() as f64;
            assert!((3.5..4.5).contains(&ratio), "{size_gb} GB ratio {ratio}");
        }
    }
}
