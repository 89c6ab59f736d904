//! Regression pin for read-path write attribution: dirty metadata lines
//! evicted while a *read* pulls in its counter-fetch chain must be charged
//! as memory writes — in [`EngineStats`], in the emitted [`MemAccess`]
//! stream, and identically in both engines.
//!
//! The failure mode this guards against: the fetch-chain insertion loop
//! swallowing `EvictedLine::dirty` (or attributing the writeback to the
//! read side), which would make a read-only measured phase report zero
//! DRAM writes even though dirty counter lines are streaming back to
//! memory. Under the paper's after-warm-up measurement methodology (§VI)
//! that would silently understate write traffic for every workload with a
//! read-heavy measured phase.

use morphtree_core::metadata::{AccessCategory, EngineStats, MacMode, MemAccess, MetadataEngine};
use morphtree_core::tree::TreeConfig;
use morphtree_oracle::ReferenceEngine;

const MIB: u64 = 1 << 20;
/// 4 KiB / 8 ways = 8 sets x 8 ways = 64 cache lines: small enough that a
/// couple hundred distinct counter lines guarantee evictions.
const CACHE_BYTES: usize = 4096;

/// Warm-up: dirty ~200 distinct encryption-counter lines (data lines 64
/// apart map to distinct SC-64 counter lines), then clear the stats so the
/// measured phase starts clean with a cache full of dirty lines.
fn warmed_pair() -> (MetadataEngine, ReferenceEngine) {
    let mut engine = MetadataEngine::new(TreeConfig::sc64(), 64 * MIB, CACHE_BYTES, MacMode::Inline);
    let mut reference =
        ReferenceEngine::new(TreeConfig::sc64(), 64 * MIB, CACHE_BYTES, MacMode::Inline);
    let mut sink = Vec::new();
    for i in 0..200 {
        engine.write(i * 64, &mut sink);
        sink.clear();
        reference.write(i * 64, &mut sink);
        sink.clear();
    }
    engine.reset_stats();
    reference.reset_stats();
    (engine, reference)
}

/// Sum of memory writes across every category.
fn total_writes(stats: &EngineStats) -> u64 {
    stats.writes.iter().sum()
}

#[test]
fn read_only_phase_charges_dirty_evictions_as_writes() {
    let (mut engine, mut reference) = warmed_pair();
    let mut engine_stream = Vec::new();
    let mut reference_stream = Vec::new();
    // Read-only measured phase over *fresh* counter lines: each chain fetch
    // inserts clean lines, evicting warm-up-dirty residents.
    for i in 200..400 {
        engine.read(i * 64, &mut engine_stream);
        reference.read(i * 64, &mut reference_stream);
    }

    // The workload issued no data writes...
    assert_eq!(engine.stats().data_writes, 0);
    assert_eq!(engine.stats().writes[0], 0, "no Data-category writes");
    // ...yet dirty counter writebacks must surface as memory writes.
    let writes = total_writes(engine.stats());
    assert!(writes > 0, "read-only phase must report the dirty writebacks");

    // The writebacks appear in the emitted access stream, attributed to
    // metadata categories (never Data) and never marked critical — a
    // writeback does not gate the data return.
    let emitted_writes: Vec<&MemAccess> =
        engine_stream.iter().filter(|a| a.is_write).collect();
    assert_eq!(emitted_writes.len() as u64, writes, "stats must match the stream");
    assert!(emitted_writes.iter().all(|a| {
        matches!(
            a.category,
            AccessCategory::CtrEncr
                | AccessCategory::Ctr1
                | AccessCategory::Ctr2
                | AccessCategory::Ctr3Up
                | AccessCategory::Overflow
        ) && !a.critical
    }));

    // And the optimized engine agrees with the frozen seed oracle, access
    // by access and counter by counter.
    assert_eq!(engine_stream, reference_stream);
    assert_eq!(engine.stats(), reference.stats());
}

#[test]
fn mixed_phase_write_attribution_matches_reference_exactly() {
    // Same pin under an interleaved read/write measured phase, so the
    // read-path and write-path eviction sites are both exercised against
    // the oracle in one stream.
    let (mut engine, mut reference) = warmed_pair();
    let mut engine_stream = Vec::new();
    let mut reference_stream = Vec::new();
    for i in 0..400u64 {
        let line = (i * 67 + 13) % 1000 * 64;
        if i % 3 == 0 {
            engine.write(line, &mut engine_stream);
            reference.write(line, &mut reference_stream);
        } else {
            engine.read(line, &mut engine_stream);
            reference.read(line, &mut reference_stream);
        }
    }
    assert_eq!(engine_stream, reference_stream);
    assert_eq!(engine.stats(), reference.stats());
    assert!(total_writes(engine.stats()) > engine.stats().data_writes);
}
