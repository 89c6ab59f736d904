//! Address-range shard partitioning.

use crate::error::ShardError;
use crate::store::PagedStore;
use crate::CACHELINE_BYTES;

/// A partition of a protected address space into contiguous, equal-width
/// shard ranges.
///
/// Every data line maps to exactly one shard (`shard_of`), every
/// `(shard, local line)` pair maps back to its unique global line
/// (`global_line`), and the per-shard widths sum to the full space — the
/// partition laws the `shard_partition` property suite pins.
///
/// The last shard absorbs the remainder when the line count does not
/// divide evenly, so all other shards have identical width (which keeps
/// shard routing a single divide).
///
/// # Example
///
/// ```
/// use morphtree_core::concurrent::ShardPlan;
///
/// let plan = ShardPlan::new(1 << 20, 4).unwrap();
/// assert_eq!(plan.shards(), 4);
/// assert_eq!(plan.data_lines(), 16_384);
/// let line = 10_000;
/// let shard = plan.shard_of(line);
/// assert_eq!(plan.global_line(shard, plan.local_line(line)), line);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    memory_bytes: u64,
    data_lines: u64,
    shards: usize,
    /// Width of every shard except possibly the last.
    lines_per_shard: u64,
}

impl ShardPlan {
    /// Plans `shards` contiguous ranges over `memory_bytes` of protected
    /// data.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] when `shards` is zero, `memory_bytes` is
    /// zero or not cacheline-aligned, or there are fewer data lines than
    /// shards (an empty shard would own no subtree).
    pub fn new(memory_bytes: u64, shards: usize) -> Result<ShardPlan, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        if memory_bytes == 0 || !memory_bytes.is_multiple_of(CACHELINE_BYTES as u64) {
            return Err(ShardError::UnalignedMemory { memory_bytes });
        }
        let data_lines = memory_bytes / CACHELINE_BYTES as u64;
        if (shards as u64) > data_lines {
            return Err(ShardError::TooManyShards { shards, data_lines });
        }
        Ok(ShardPlan {
            memory_bytes,
            data_lines,
            shards,
            lines_per_shard: data_lines / shards as u64,
        })
    }

    /// Bytes of protected data across all shards.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Total protected data lines across all shards.
    #[must_use]
    pub fn data_lines(&self) -> u64 {
        self.data_lines
    }

    /// Number of shards in the partition.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// First global line owned by `shard`.
    #[must_use]
    pub fn shard_base(&self, shard: usize) -> u64 {
        debug_assert!(shard < self.shards);
        self.lines_per_shard * shard as u64
    }

    /// Number of lines `shard` owns (the last shard absorbs any
    /// remainder).
    #[must_use]
    pub fn shard_lines(&self, shard: usize) -> u64 {
        debug_assert!(shard < self.shards);
        if shard + 1 == self.shards {
            self.data_lines - self.shard_base(shard)
        } else {
            self.lines_per_shard
        }
    }

    /// Bytes of protected data `shard` owns.
    #[must_use]
    pub fn shard_memory_bytes(&self, shard: usize) -> u64 {
        self.shard_lines(shard) * CACHELINE_BYTES as u64
    }

    /// The shard owning global `data_line`.
    ///
    /// # Panics
    ///
    /// Panics if `data_line` is outside the planned address space —
    /// routing an unplanned address is a front-end bug that must stay
    /// loud.
    #[must_use]
    pub fn shard_of(&self, data_line: u64) -> usize {
        assert!(
            data_line < self.data_lines,
            "data line {data_line} outside the planned space ({} lines)",
            self.data_lines
        );
        ((data_line / self.lines_per_shard) as usize).min(self.shards - 1)
    }

    /// `data_line`'s index within its owning shard.
    #[must_use]
    pub fn local_line(&self, data_line: u64) -> u64 {
        data_line - self.shard_base(self.shard_of(data_line))
    }

    /// The global line for `(shard, local)`.
    #[must_use]
    pub fn global_line(&self, shard: usize, local: u64) -> u64 {
        debug_assert!(local < self.shard_lines(shard));
        self.shard_base(shard) + local
    }

    /// Routes global `lines` to their owning shards: each shard's local
    /// lines, in input order (panics like [`ShardPlan::shard_of`]).
    pub(crate) fn bucket(&self, lines: &[u64]) -> Vec<Vec<u64>> {
        let mut buckets = vec![Vec::new(); self.shards];
        for &line in lines {
            buckets[self.shard_of(line)].push(self.local_line(line));
        }
        buckets
    }

    /// Splits a global [`PagedStore`] into per-shard stores keyed by local
    /// line index. Entries land in the shard that owns their index; the
    /// inverse of [`ShardPlan::merge_stores`].
    #[must_use]
    pub fn split_store<T: Clone>(&self, store: &PagedStore<T>) -> Vec<PagedStore<T>> {
        let mut parts: Vec<PagedStore<T>> =
            (0..self.shards).map(|s| PagedStore::new(self.shard_lines(s))).collect();
        for (line, value) in store.iter() {
            if line >= self.data_lines {
                continue; // entries beyond the plan belong to no shard
            }
            let shard = self.shard_of(line);
            parts[shard].insert(self.local_line(line), value.clone());
        }
        parts
    }

    /// Merges per-shard stores back into one global store — the exact
    /// serial contents, as the partition property suite proves.
    ///
    /// # Panics
    ///
    /// Panics if `parts` does not have one store per shard.
    #[must_use]
    pub fn merge_stores<T: Clone>(&self, parts: &[PagedStore<T>]) -> PagedStore<T> {
        assert_eq!(parts.len(), self.shards, "one store per shard required");
        let mut merged = PagedStore::new(self.data_lines);
        for (shard, part) in parts.iter().enumerate() {
            for (local, value) in part.iter() {
                merged.insert(self.global_line(shard, local), value.clone());
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ShardError;

    #[test]
    fn plan_rejects_degenerate_inputs() {
        assert_eq!(ShardPlan::new(1 << 20, 0).unwrap_err(), ShardError::ZeroShards);
        assert_eq!(
            ShardPlan::new(100, 2).unwrap_err(),
            ShardError::UnalignedMemory { memory_bytes: 100 }
        );
        assert_eq!(ShardPlan::new(0, 2).unwrap_err(), ShardError::UnalignedMemory { memory_bytes: 0 });
        assert_eq!(
            ShardPlan::new(128, 3).unwrap_err(),
            ShardError::TooManyShards { shards: 3, data_lines: 2 }
        );
    }

    #[test]
    fn widths_sum_to_the_full_space() {
        for (memory, shards) in [(1u64 << 20, 1usize), (1 << 20, 7), (192, 3), (256, 4)] {
            let plan = ShardPlan::new(memory, shards).unwrap();
            let total: u64 = (0..shards).map(|s| plan.shard_lines(s)).sum();
            assert_eq!(total, plan.data_lines(), "memory {memory} shards {shards}");
        }
    }

    #[test]
    fn uneven_split_gives_the_remainder_to_the_last_shard() {
        // 10 lines over 3 shards: 3 + 3 + 4.
        let plan = ShardPlan::new(10 * 64, 3).unwrap();
        assert_eq!(plan.shard_lines(0), 3);
        assert_eq!(plan.shard_lines(1), 3);
        assert_eq!(plan.shard_lines(2), 4);
        assert_eq!(plan.shard_of(8), 2);
        assert_eq!(plan.shard_of(9), 2);
        assert_eq!(plan.local_line(9), 3);
        assert_eq!(plan.global_line(2, 3), 9);
    }

    #[test]
    #[should_panic(expected = "outside the planned space")]
    fn routing_an_unplanned_address_is_loud() {
        let plan = ShardPlan::new(1 << 10, 2).unwrap();
        let _ = plan.shard_of(16);
    }

    #[test]
    fn split_then_merge_is_identity() {
        let plan = ShardPlan::new(1000 * 64, 7).unwrap();
        let mut store: PagedStore<u64> = PagedStore::new(1000);
        for line in (0..1000).step_by(13) {
            store.insert(line, line * 3 + 1);
        }
        let parts = plan.split_store(&store);
        let merged = plan.merge_stores(&parts);
        let a: Vec<(u64, u64)> = store.iter().map(|(i, v)| (i, *v)).collect();
        let b: Vec<(u64, u64)> = merged.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(a, b);
    }
}
