//! Snapshot format for the metadata (timing) engine: counter lines, exact
//! cache residency — tags, dirty bits, LRU ticks — and statistics.
//!
//! The acceptance bar is *lockstep continuation*: an engine restored from
//! a snapshot must emit the same access stream, access for access, as the
//! original engine continuing uninterrupted. That requires more than the
//! architectural state — LRU victim selection depends on the per-way tick
//! values and the global tick counter, so both are serialized verbatim.
//!
//! Layout mirrors the memory snapshot (`b"MTEN"` magic + version +
//! checksummed sections); see [`crate::persist`] for the framing.

use crate::metadata::stats::USED_FRACTION_BINS;
use crate::metadata::{
    CacheStats, EngineOptions, EngineStats, MacMode, MetadataEngine, ReplacementPolicy,
    VerificationMode,
};
use crate::obs::{Histogram, NUM_BUCKETS};

use super::codec::{ByteReader, ByteWriter};
use super::{
    read_config, read_section, write_config, write_section, RecoveryError, SEC_CONFIG,
};

/// Engine snapshot magic (`MTEN` = MorphTree ENgine).
pub const ENGINE_MAGIC: [u8; 4] = *b"MTEN";

const SEC_OPTIONS: u32 = 2;
const SEC_CACHE: u32 = 6;
const SEC_STATS: u32 = 7;

/// Serializes a [`Histogram`] field-exactly (buckets, count, 128-bit sum,
/// min/max sentinels), for embedding inside a larger snapshot payload.
pub fn write_histogram(w: &mut ByteWriter, histogram: &Histogram) {
    let (buckets, count, sum, min, max) = histogram.export_parts();
    for &v in &buckets {
        w.u64(v);
    }
    w.u64(count);
    w.u64(sum as u64);
    w.u64((sum >> 64) as u64);
    w.u64(min);
    w.u64(max);
}

/// Reads back a [`write_histogram`] payload.
///
/// # Errors
///
/// Returns [`RecoveryError::Truncated`] if the reader runs out of bytes.
pub fn read_histogram(r: &mut ByteReader<'_>) -> Result<Histogram, RecoveryError> {
    let buckets = read_u64_array::<NUM_BUCKETS>(r)?;
    let count = r.u64()?;
    let sum = u128::from(r.u64()?) | (u128::from(r.u64()?) << 64);
    let min = r.u64()?;
    let max = r.u64()?;
    Ok(Histogram::from_parts(buckets, count, sum, min, max))
}

/// Serializes an [`EngineStats`] field-exactly, for embedding inside a
/// larger snapshot payload (the engine snapshot's STATS section, and the
/// simulator's result checkpoints).
pub fn write_stats(w: &mut ByteWriter, stats: &EngineStats) {
    w.u64(stats.data_reads);
    w.u64(stats.data_writes);
    for &v in &stats.reads {
        w.u64(v);
    }
    for &v in &stats.writes {
        w.u64(v);
    }
    w.u32(stats.overflows_by_level.len() as u32);
    for &v in &stats.overflows_by_level {
        w.u64(v);
    }
    w.u32(stats.rebases_by_level.len() as u32);
    for &v in &stats.rebases_by_level {
        w.u64(v);
    }
    for &v in &stats.overflow_used_histogram {
        w.u64(v);
    }
    for &v in &stats.overflow_used_histogram_enc {
        w.u64(v);
    }
    for &v in &stats.overflow_kinds {
        w.u64(v);
    }
    write_histogram(w, &stats.fetch_depths);
    w.u64(stats.otp_ops);
    w.u64(stats.mac_ops);
    w.u64(stats.mac_batches);
}

fn read_u64_array<const N: usize>(r: &mut ByteReader<'_>) -> Result<[u64; N], RecoveryError> {
    let mut out = [0u64; N];
    for v in &mut out {
        *v = r.u64()?;
    }
    Ok(out)
}

fn read_u64_vec(r: &mut ByteReader<'_>) -> Result<Vec<u64>, RecoveryError> {
    let offset = r.offset();
    let n = r.u32()? as usize;
    // Per-level vectors: a tree deeper than 64 levels cannot exist.
    if n > 64 {
        return Err(RecoveryError::CorruptSnapshot { offset });
    }
    (0..n).map(|_| r.u64().map_err(RecoveryError::from)).collect()
}

/// Reads back a [`write_stats`] payload.
///
/// # Errors
///
/// Returns a [`RecoveryError`] on truncation or an implausible per-level
/// vector length.
pub fn read_stats(r: &mut ByteReader<'_>) -> Result<EngineStats, RecoveryError> {
    let data_reads = r.u64()?;
    let data_writes = r.u64()?;
    let reads = read_u64_array::<7>(r)?;
    let writes = read_u64_array::<7>(r)?;
    let overflows_by_level = read_u64_vec(r)?;
    let rebases_by_level = read_u64_vec(r)?;
    let overflow_used_histogram = read_u64_array::<USED_FRACTION_BINS>(r)?;
    let overflow_used_histogram_enc = read_u64_array::<USED_FRACTION_BINS>(r)?;
    let overflow_kinds = read_u64_array::<5>(r)?;
    let fetch_depths = read_histogram(r)?;
    let otp_ops = r.u64()?;
    let mac_ops = r.u64()?;
    let mac_batches = r.u64()?;
    Ok(EngineStats {
        data_reads,
        data_writes,
        reads,
        writes,
        overflows_by_level,
        rebases_by_level,
        overflow_used_histogram,
        overflow_used_histogram_enc,
        overflow_kinds,
        fetch_depths,
        otp_ops,
        mac_ops,
        mac_batches,
    })
}

/// Serializes a [`CacheStats`] field-exactly, for embedding inside a
/// larger snapshot payload.
pub fn write_cache_stats(w: &mut ByteWriter, stats: &CacheStats) {
    w.u64(stats.hits);
    w.u64(stats.misses);
    for &v in &stats.level_hits {
        w.u64(v);
    }
    for &v in &stats.level_misses {
        w.u64(v);
    }
    for &v in &stats.level_evicts {
        w.u64(v);
    }
}

/// Reads back a [`write_cache_stats`] payload.
///
/// # Errors
///
/// Returns [`RecoveryError::Truncated`] if the reader runs out of bytes.
pub fn read_cache_stats(r: &mut ByteReader<'_>) -> Result<CacheStats, RecoveryError> {
    let mut stats = CacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        ..CacheStats::default()
    };
    for v in &mut stats.level_hits {
        *v = r.u64()?;
    }
    for v in &mut stats.level_misses {
        *v = r.u64()?;
    }
    for v in &mut stats.level_evicts {
        *v = r.u64()?;
    }
    Ok(stats)
}

/// Serializes the complete state of a [`MetadataEngine`].
#[must_use]
pub fn save_engine(engine: &MetadataEngine) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&ENGINE_MAGIC);
    out.extend_from_slice(&super::VERSION.to_le_bytes());

    let mut w = ByteWriter::new();
    write_config(&mut w, engine.config());
    write_section(&mut out, SEC_CONFIG, &w.into_bytes());

    let cache = engine.cache();
    let mut w = ByteWriter::new();
    w.u64(engine.geometry().memory_bytes());
    w.u64(cache.capacity_bytes() as u64);
    w.u8(match engine.mac_mode() {
        MacMode::Inline => 0,
        MacMode::Separate => 1,
    });
    w.u8(match engine.verification() {
        VerificationMode::Strict => 0,
        VerificationMode::Speculative => 1,
    });
    w.u8(match cache.policy() {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::LevelAware => 1,
    });
    write_section(&mut out, SEC_OPTIONS, &w.into_bytes());

    engine.tree().write_levels(&mut out);

    let mut w = ByteWriter::new();
    let (tick, entries) = cache.export_entries();
    w.u64(tick);
    w.u64(entries.len() as u64);
    for (tag, way_tick, dirty, priority) in entries {
        w.u64(tag);
        w.u64(way_tick);
        w.bool(dirty);
        w.u8(priority);
    }
    write_cache_stats(&mut w, cache.stats());
    write_section(&mut out, SEC_CACHE, &w.into_bytes());

    let mut w = ByteWriter::new();
    write_stats(&mut w, engine.stats());
    write_section(&mut out, SEC_STATS, &w.into_bytes());

    out
}

/// Deserializes a [`save_engine`] snapshot into an engine that continues
/// access-for-access identically to the one that was saved.
///
/// # Errors
///
/// Returns a [`RecoveryError`] on bad magic/version, truncation, checksum
/// mismatch, structural corruption (including line indices that do not
/// strictly ascend within a level), out-of-range line indices, or counter
/// images that fail to decode.
pub fn load_engine(bytes: &[u8]) -> Result<MetadataEngine, RecoveryError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(4).map_err(|_| RecoveryError::BadMagic)? != ENGINE_MAGIC {
        return Err(RecoveryError::BadMagic);
    }
    let version = r.u32()?;
    if version != super::VERSION {
        return Err(RecoveryError::UnsupportedVersion { version });
    }

    let mut sec = read_section(&mut r, SEC_CONFIG)?;
    let config = read_config(&mut sec)?;
    super::expect_exhausted(&sec)?;

    let mut sec = read_section(&mut r, SEC_OPTIONS)?;
    let offset = sec.offset();
    let memory_bytes = sec.u64()?;
    let cache_bytes = sec.u64()?;
    let mac_mode = match sec.u8()? {
        0 => MacMode::Inline,
        1 => MacMode::Separate,
        _ => return Err(RecoveryError::CorruptSnapshot { offset }),
    };
    let verification = match sec.u8()? {
        0 => VerificationMode::Strict,
        1 => VerificationMode::Speculative,
        _ => return Err(RecoveryError::CorruptSnapshot { offset }),
    };
    let replacement = match sec.u8()? {
        0 => ReplacementPolicy::Lru,
        1 => ReplacementPolicy::LevelAware,
        _ => return Err(RecoveryError::CorruptSnapshot { offset }),
    };
    super::expect_exhausted(&sec)?;
    if memory_bytes == 0
        || memory_bytes % crate::CACHELINE_BYTES as u64 != 0
        || memory_bytes > super::MAX_MEMORY_BYTES
    {
        return Err(RecoveryError::CorruptSnapshot { offset });
    }
    let cache_bytes = usize::try_from(cache_bytes)
        .map_err(|_| RecoveryError::CorruptSnapshot { offset })?;
    // The engine constructs an 8-way cache; reject shapes its constructor
    // would panic on, and bound the allocation.
    let line = crate::CACHELINE_BYTES;
    if cache_bytes == 0 || cache_bytes % (8 * line) != 0 || cache_bytes > (1 << 30) {
        return Err(RecoveryError::CorruptSnapshot { offset });
    }

    let mut engine = MetadataEngine::with_options(
        config,
        memory_bytes,
        cache_bytes,
        EngineOptions { mac_mode, verification, replacement },
    );

    engine.tree_mut().read_levels(&mut r)?;

    let mut sec = read_section(&mut r, SEC_CACHE)?;
    let cache_offset = sec.offset();
    let tick = sec.u64()?;
    let n_entries = sec.u64()?;
    let expected = cache_bytes / line;
    if n_entries != expected as u64 {
        return Err(RecoveryError::CorruptSnapshot { offset: cache_offset });
    }
    let mut entries = Vec::with_capacity(expected);
    for _ in 0..expected {
        let tag = sec.u64()?;
        let way_tick = sec.u64()?;
        let dirty = sec.bool()?;
        let priority = sec.u8()?;
        entries.push((tag, way_tick, dirty, priority));
    }
    if !engine.cache_mut().import_entries(tick, &entries) {
        return Err(RecoveryError::CorruptSnapshot { offset: cache_offset });
    }
    engine.cache_mut().set_stats(read_cache_stats(&mut sec)?);
    super::expect_exhausted(&sec)?;

    let mut sec = read_section(&mut r, SEC_STATS)?;
    let stats = read_stats(&mut sec)?;
    super::expect_exhausted(&sec)?;
    engine.set_stats(stats);

    super::expect_exhausted(&r)?;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;

    const MIB: u64 = 1 << 20;

    fn drive(engine: &mut MetadataEngine, rounds: std::ops::Range<u64>) -> Vec<crate::metadata::MemAccess> {
        let mut out = Vec::new();
        for i in rounds {
            let addr = (i * 67 + 13) % 2000 * 64;
            if i % 3 == 0 {
                engine.write(addr, &mut out);
            } else {
                engine.read(addr, &mut out);
            }
        }
        out
    }

    #[test]
    fn restored_engine_continues_in_lockstep() {
        let mut original = MetadataEngine::with_options(
            TreeConfig::morphtree(),
            64 * MIB,
            4096,
            EngineOptions::default(),
        );
        let _ = drive(&mut original, 0..500);
        let snap = save_engine(&original);
        let mut restored = load_engine(&snap).unwrap();

        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.cache().stats(), original.cache().stats());
        assert_eq!(restored.cache().occupancy(), original.cache().occupancy());

        // The continuation is access-for-access identical, so the restored
        // engine is indistinguishable from one that never stopped.
        let stream_a = drive(&mut original, 500..1000);
        let stream_b = drive(&mut restored, 500..1000);
        assert_eq!(stream_a, stream_b);
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn engine_snapshot_is_deterministic_and_errors_are_typed() {
        let mut engine = MetadataEngine::with_options(
            TreeConfig::sc64(),
            16 * MIB,
            4096,
            EngineOptions {
                mac_mode: MacMode::Separate,
                verification: VerificationMode::Speculative,
                replacement: ReplacementPolicy::LevelAware,
            },
        );
        let _ = drive(&mut engine, 0..200);
        let snap = save_engine(&engine);
        let restored = load_engine(&snap).unwrap();
        assert_eq!(save_engine(&restored), snap);

        assert_eq!(load_engine(b"MTSN").unwrap_err(), RecoveryError::BadMagic);
        for cut in 0..snap.len() {
            let err = load_engine(&snap[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    RecoveryError::BadMagic
                        | RecoveryError::Truncated { .. }
                        | RecoveryError::CorruptSnapshot { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }
}
