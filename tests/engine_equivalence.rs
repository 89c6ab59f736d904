//! Golden equivalence suite (engine layer): the optimized
//! [`MetadataEngine`] — paged flat stores, flat-array metadata cache,
//! fused probe/insert, precomputed level geometry — must be
//! *bit-identical* in observable behaviour to [`ReferenceEngine`], the
//! frozen seed implementation (`HashMap` stores, ordered-vector LRU,
//! per-miss allocation).
//!
//! Identical here means: for any interleaving of reads and writes, both
//! engines emit the same [`MemAccess`] sequence (same addresses, kinds,
//! categories, criticality, in the same order), accumulate the same
//! [`EngineStats`], and agree on every counter value.

use morphtree_core::metadata::{
    EngineOptions, MacMode, MemAccess, MetadataEngine, ReplacementPolicy, VerificationMode,
};
use morphtree_core::tree::TreeConfig;
use morphtree_oracle::ReferenceEngine;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const MIB: u64 = 1 << 20;

/// Drives both engines with the same `(line, is_write)` stream, asserting
/// the emitted access vectors match event by event; returns both engines
/// for end-state checks.
fn lockstep(
    config: TreeConfig,
    memory: u64,
    cache: usize,
    options: EngineOptions,
    stream: impl Iterator<Item = (u64, bool)>,
) -> (MetadataEngine, ReferenceEngine) {
    let mut fast = MetadataEngine::with_options(config.clone(), memory, cache, options);
    let mut slow = ReferenceEngine::with_options(config, memory, cache, options);
    let mut fast_out: Vec<MemAccess> = Vec::new();
    let mut slow_out: Vec<MemAccess> = Vec::new();
    for (i, (line, is_write)) in stream.enumerate() {
        fast_out.clear();
        slow_out.clear();
        if is_write {
            fast.write(line, &mut fast_out);
            slow.write(line, &mut slow_out);
        } else {
            fast.read(line, &mut fast_out);
            slow.read(line, &mut slow_out);
        }
        assert_eq!(fast_out, slow_out, "access stream diverged at event {i} (line {line})");
    }
    assert_eq!(fast.stats(), slow.stats(), "aggregate statistics diverged");
    (fast, slow)
}

/// A mixed random stream: hot set plus uniform background, 40% writes —
/// enough churn to exercise fills, dirty evictions, write-back chains and
/// overflows.
fn random_stream(seed: u64, events: usize, lines: u64) -> impl Iterator<Item = (u64, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..events).map(move |_| {
        let line = if rng.gen_bool(0.5) {
            rng.gen_range(0..64.min(lines))
        } else {
            rng.gen_range(0..lines)
        };
        (line, rng.gen_bool(0.4))
    })
}

fn data_lines(config: &TreeConfig, memory: u64) -> u64 {
    MetadataEngine::new(config.clone(), memory, 4096, MacMode::Inline).geometry().data_lines()
}

#[test]
fn streams_match_for_every_tree_config() {
    for config in [
        TreeConfig::sgx(),
        TreeConfig::vault(),
        TreeConfig::sc64(),
        TreeConfig::sc128(),
        TreeConfig::morphtree(),
        TreeConfig::morphtree_zcc_only(),
        TreeConfig::morphtree_single_base(),
    ] {
        let memory = 16 * MIB;
        let lines = data_lines(&config, memory);
        let options = EngineOptions::default();
        let (fast, slow) = lockstep(
            config.clone(),
            memory,
            8 * 1024,
            options,
            random_stream(7, 30_000, lines),
        );
        // Every counter of every level: each level's children are the
        // data lines (level 0) or the lines of the level below.
        for level in 0..fast.geometry().levels().len() {
            let children = if level == 0 {
                fast.geometry().data_lines()
            } else {
                fast.geometry().levels()[level - 1].lines
            };
            for child in 0..children {
                assert_eq!(
                    fast.counter_value(level, child),
                    slow.counter_value(level, child),
                    "counter diverged at level {level} child {child} ({})",
                    config.name()
                );
            }
        }
    }
}

#[test]
fn streams_match_under_every_engine_option() {
    let memory = 8 * MIB;
    let lines = data_lines(&TreeConfig::morphtree(), memory);
    for (mac, verification, replacement) in [
        (MacMode::Separate, VerificationMode::Strict, ReplacementPolicy::Lru),
        (MacMode::Inline, VerificationMode::Speculative, ReplacementPolicy::Lru),
        (MacMode::Inline, VerificationMode::Strict, ReplacementPolicy::LevelAware),
    ] {
        let options = EngineOptions { mac_mode: mac, verification, replacement };
        lockstep(
            TreeConfig::morphtree(),
            memory,
            8 * 1024,
            options,
            random_stream(11, 20_000, lines),
        );
    }
}

#[test]
fn streams_match_with_tiny_thrashing_cache() {
    // A minimal cache maximizes evictions, write-backs and recursive
    // chains — the paths where LRU-order divergence would surface first.
    let memory = 4 * MIB;
    let lines = data_lines(&TreeConfig::sc64(), memory);
    lockstep(
        TreeConfig::sc64(),
        memory,
        1024,
        EngineOptions::default(),
        random_stream(13, 30_000, lines),
    );
}

#[test]
fn streams_match_on_write_storms_with_overflows() {
    // Dense writes to a small hot set drive counters through overflow and
    // re-encryption storms (SC-64 minors overflow every 63 bumps).
    let memory = 4 * MIB;
    let mut rng = SmallRng::seed_from_u64(17);
    let stream = (0..40_000).map(move |_| (rng.gen_range(0..256u64), true));
    lockstep(TreeConfig::sc64(), memory, 4096, EngineOptions::default(), stream);
}

#[test]
fn non_power_of_two_cache_set_count_matches() {
    // 24 lines / 8 ways = 3 sets: exercises the modulo set-index fallback
    // against the reference's hardware-modulo formulation.
    let memory = 4 * MIB;
    let lines = data_lines(&TreeConfig::morphtree(), memory);
    lockstep(
        TreeConfig::morphtree(),
        memory,
        24 * 64,
        EngineOptions::default(),
        random_stream(19, 20_000, lines),
    );
}
