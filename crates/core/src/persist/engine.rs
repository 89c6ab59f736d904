//! Field-exact codecs of the timing engine's statistics: [`EngineStats`],
//! [`CacheStats`] and [`Histogram`]. They frame nothing themselves; the
//! simulator's result checkpoints (`MTSR`, `morphtree_sim::persist`) and
//! the sweep checkpoints (`MTLC`, `morphtree_experiments::checkpoint`)
//! embed them in their payloads.

use crate::metadata::stats::USED_FRACTION_BINS;
use crate::metadata::{CacheStats, EngineStats, STAT_LEVELS};
use crate::obs::{Histogram, NUM_BUCKETS};

use super::codec::{ByteReader, ByteWriter};
use super::RecoveryError;

/// Encoded size of a [`write_histogram`] payload.
pub const HISTOGRAM_BYTES: usize = (NUM_BUCKETS + 5) * 8;

/// Smallest encoded [`write_stats`] payload (both per-level vectors
/// empty), for bounding entry counts before allocating.
pub const STATS_MIN_BYTES: usize =
    (2 + 7 + 7 + 2 * USED_FRACTION_BINS + 5 + 3) * 8 + 2 * 4 + HISTOGRAM_BYTES;

/// Encoded size of a [`write_cache_stats`] payload.
pub const CACHE_STATS_BYTES: usize = (2 + 3 * STAT_LEVELS) * 8;

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
/// larger checkpoint payload.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_sizes_match_the_encoders() {
        let mut w = ByteWriter::new();
        write_histogram(&mut w, &Histogram::default());
        assert_eq!(w.len(), HISTOGRAM_BYTES);
        let mut w = ByteWriter::new();
        write_stats(&mut w, &EngineStats::default());
        assert_eq!(w.len(), STATS_MIN_BYTES);
        let mut w = ByteWriter::new();
        write_cache_stats(&mut w, &CacheStats::default());
        assert_eq!(w.len(), CACHE_STATS_BYTES);
    }
}
