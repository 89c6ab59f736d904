//! The concurrent multi-tenant secure-memory engine: per-shard subtrees
//! under a shared top root, with per-shard request queues drained by
//! worker threads.
//!
//! # Architecture
//!
//! The single-threaded [`crate::functional::SecureMemory`] protects one
//! address space with one integrity tree. This module scales it out the
//! way a multi-channel memory controller would:
//!
//! - a [`ShardPlan`] partitions the protected address space into
//!   contiguous, equal-width ranges — every data line belongs to exactly
//!   one shard (a true partition, proven by property tests);
//! - each shard owns an independent [`SecureMemory`] subtree over its
//!   range (its `PagedStore` flat maps, counter levels and on-chip
//!   subtree root are private to the shard, so shards never contend);
//! - a small shared *top* recombines the per-shard subtree roots into one
//!   keyed root MAC. Recombination is *coalesced*, in the spirit of
//!   Freij et al.'s streamed integrity-tree updates: a batch only
//!   recomputes the digests of the shards it dirtied, and the top MAC is
//!   refolded from the cached digests;
//! - the batched front-end routes each request to its shard's FIFO queue
//!   (mirroring the per-bank FR-FCFS queues of the DRAM controller in
//!   `morphtree-sim`) and `N` workers drain disjoint shard sets in
//!   parallel — program order is preserved *per shard*, which is exactly
//!   the order that matters, because cross-shard requests touch disjoint
//!   state.
//!
//! # Determinism
//!
//! The final state of a batch is a pure function of the request sequence:
//! per-shard queues serialize same-shard requests in program order, and
//! requests on different shards commute. The lockstep-oracle suite
//! (`tests/engine_concurrent_equivalence.rs`) pins this: any thread
//! count, and any seeded interleaving of queue service
//! ([`ShardedMemory::run_interleaved`]), produces byte-identical data,
//! identical tamper verdicts, and an identical combined root.
//!
//! [`SecureMemory`]: crate::functional::SecureMemory

mod engine;
mod plan;
mod queue;

pub use engine::{Op, OpOutcome, ShardedMemory};
pub(crate) use engine::fold_digests;
pub use plan::ShardPlan;
pub use queue::{InterleaveSchedule, ShardQueues};

/// SplitMix64: the tiny, seedable PRNG the concurrent harnesses use for
/// schedule permutations and op-mix generation. Public so test suites and
/// the CLI serve mode share one deterministic stream implementation (the
/// attack module uses the same generator).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (`n > 0`); modulo bias is irrelevant at
    /// the scales these harnesses run at.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), 16);
        assert!(a.below(10) < 10);
    }
}
