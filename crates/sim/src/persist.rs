//! Checkpoint format for simulation results: a versioned, checksummed
//! binary encoding of [`SimResult`] batches, so interrupted sweeps can
//! resume without re-simulating and render byte-identical figures.
//!
//! Layout: `b"MTSR"` magic, `u32` version, payload, trailing FNV-1a-64
//! checksum of the payload. The payload is a fingerprint string (the
//! caller's encoding of the operating point — resuming under different
//! flags must be refused, not silently blended) followed by the result
//! records. Individual results are serialized field-exactly with
//! [`write_result`]/[`read_result`], reusing the core persistence codec
//! and its typed [`RecoveryError`] taxonomy: every malformed input maps
//! to an error, never a panic.

use morphtree_core::persist::codec::{expect_exhausted, ByteReader, ByteWriter, Header};
use morphtree_core::persist::engine::{
    read_cache_stats, read_histogram, read_stats, write_cache_stats, write_histogram,
    write_stats, CACHE_STATS_BYTES, HISTOGRAM_BYTES, STATS_MIN_BYTES,
};
use morphtree_core::persist::RecoveryError;

use crate::dram::DramStats;
use crate::energy::EnergyBreakdown;
use crate::system::SimResult;

/// Result-checkpoint header (`MTSR` = MorphTree Sim Results).
pub const RESULT_HEADER: Header = Header::new(*b"MTSR", 1);

/// Smallest encoded [`write_result`] payload (empty names), for bounding
/// the result count before allocating.
pub const RESULT_MIN_BYTES: usize =
    2 * 4 + 2 * 8 + STATS_MIN_BYTES + CACHE_STATS_BYTES + 5 * 8 + 3 * HISTOGRAM_BYTES + 4 * 8;

/// Serializes one [`SimResult`] field-exactly into `w` (embeddable inside
/// a larger checkpoint payload).
pub fn write_result(w: &mut ByteWriter, result: &SimResult) {
    w.str(&result.workload);
    w.str(&result.config);
    w.u64(result.instructions);
    w.u64(result.cycles);
    write_stats(w, &result.engine);
    write_cache_stats(w, &result.cache);
    w.u64(result.dram.reads);
    w.u64(result.dram.writes);
    w.u64(result.dram.activates);
    w.u64(result.dram.row_hits);
    w.u64(result.dram.refresh_conflicts);
    write_histogram(w, &result.dram.read_latency);
    write_histogram(w, &result.dram.write_latency);
    write_histogram(w, &result.dram.queue_delay);
    w.f64(result.energy.time_s);
    w.f64(result.energy.dram_energy_j);
    w.f64(result.energy.core_energy_j);
    w.f64(result.energy.static_energy_j);
}

/// Reads back a [`write_result`] payload.
///
/// # Errors
///
/// Returns a [`RecoveryError`] on truncation or malformed embedded
/// statistics.
pub fn read_result(r: &mut ByteReader<'_>) -> Result<SimResult, RecoveryError> {
    let workload = r.str()?.to_owned();
    let config = r.str()?.to_owned();
    let instructions = r.u64()?;
    let cycles = r.u64()?;
    let engine = read_stats(r)?;
    let cache = read_cache_stats(r)?;
    let dram = DramStats {
        reads: r.u64()?,
        writes: r.u64()?,
        activates: r.u64()?,
        row_hits: r.u64()?,
        refresh_conflicts: r.u64()?,
        read_latency: read_histogram(r)?,
        write_latency: read_histogram(r)?,
        queue_delay: read_histogram(r)?,
    };
    let energy = EnergyBreakdown {
        time_s: r.f64()?,
        dram_energy_j: r.f64()?,
        core_energy_j: r.f64()?,
        static_energy_j: r.f64()?,
    };
    Ok(SimResult { workload, config, instructions, cycles, engine, cache, dram, energy })
}

/// Serializes a batch of results under an operating-point fingerprint.
#[must_use]
pub fn save_results(fingerprint: &str, results: &[SimResult]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(fingerprint);
    w.u32(results.len() as u32);
    for result in results {
        write_result(&mut w, result);
    }
    RESULT_HEADER.seal(&w.into_bytes())
}

/// Loads a [`save_results`] checkpoint, returning the fingerprint and the
/// result batch.
///
/// # Errors
///
/// Returns a [`RecoveryError`] on bad magic/version, truncation, checksum
/// mismatch, a corrupt count, or trailing garbage.
pub fn load_results(bytes: &[u8]) -> Result<(String, Vec<SimResult>), RecoveryError> {
    let mut p = RESULT_HEADER.open(bytes)?;
    let fingerprint = p.str()?.to_owned();
    let count = p.count_u32(RESULT_MIN_BYTES)?;
    let mut results = Vec::with_capacity(count);
    for _ in 0..count {
        results.push(read_result(&mut p)?);
    }
    expect_exhausted(&p)?;
    Ok((fingerprint, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{simulate, simulate_nonsecure, SimConfig};
    use morphtree_core::tree::TreeConfig;
    use morphtree_trace::catalog::Benchmark;
    use morphtree_trace::workload::SystemWorkload;

    fn quick_results() -> Vec<SimResult> {
        let cfg = SimConfig {
            cores: 2,
            memory_bytes: 1 << 28,
            metadata_cache_bytes: 8 * 1024,
            warmup_instructions: 30_000,
            measure_instructions: 30_000,
            ..SimConfig::default()
        };
        let bench = Benchmark::by_name("libquantum").unwrap();
        let mut w = SystemWorkload::rate(bench, cfg.cores, cfg.memory_bytes, 5);
        let base = simulate_nonsecure(&mut w, &cfg);
        let mut w = SystemWorkload::rate(bench, cfg.cores, cfg.memory_bytes, 5);
        let secure = simulate(&mut w, TreeConfig::morphtree(), &cfg);
        vec![base, secure]
    }

    #[test]
    fn results_round_trip_byte_exactly() {
        let results = quick_results();
        let bytes = save_results("scale=64 seed=5", &results);
        let (fingerprint, restored) = load_results(&bytes).unwrap();
        assert_eq!(fingerprint, "scale=64 seed=5");
        assert_eq!(restored, results);
        // Serialization is a pure function of the results: re-saving the
        // restored batch reproduces the checkpoint bit for bit.
        assert_eq!(save_results(&fingerprint, &restored), bytes);
    }

    #[test]
    fn result_min_bytes_is_the_smallest_encoding() {
        let empty = SimResult {
            workload: String::new(),
            config: String::new(),
            instructions: 0,
            cycles: 0,
            engine: Default::default(),
            cache: Default::default(),
            dram: Default::default(),
            energy: Default::default(),
        };
        let mut w = ByteWriter::new();
        write_result(&mut w, &empty);
        assert_eq!(w.len(), RESULT_MIN_BYTES);
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_refused_before_reserving() {
        // 26 bytes declaring 65,536 results: refused at the count's offset
        // (after the fingerprint), not reserved and then truncated.
        let mut w = ByteWriter::new();
        w.str("fp");
        w.u32(1 << 16);
        let forged = RESULT_HEADER.seal(&w.into_bytes());
        assert_eq!(forged.len(), 26);
        assert_eq!(
            load_results(&forged).unwrap_err(),
            RecoveryError::CorruptSnapshot { offset: 6 }
        );
        // The writer's own counts pass the same bound.
        let one = save_results("", &quick_results()[..1]);
        assert_eq!(load_results(&one).unwrap().1.len(), 1);
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors_never_panics() {
        let results = quick_results();
        let bytes = save_results("fp", &results);

        assert_eq!(load_results(b"MTEN").unwrap_err(), RecoveryError::BadMagic);
        let mut wrong = bytes.clone();
        wrong[4] = 99;
        assert_eq!(
            load_results(&wrong).unwrap_err(),
            RecoveryError::UnsupportedVersion { version: 99 }
        );
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(
            matches!(
                load_results(&flipped).unwrap_err(),
                RecoveryError::ChecksumMismatch { .. }
            ),
            "payload corruption must fail the checksum"
        );
        for cut in 0..bytes.len().min(64) {
            let err = load_results(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    RecoveryError::BadMagic
                        | RecoveryError::Truncated { .. }
                        | RecoveryError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }
}
