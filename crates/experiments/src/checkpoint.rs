//! Sweep checkpointing: serializes a [`Lab`]'s memoized runs to a
//! versioned, checksummed file so an interrupted sweep can resume without
//! re-simulating — and, because figure renderers are pure functions of
//! the memo, a resumed sweep renders byte-identical reports.
//!
//! Layout: `b"MTLC"` magic, `u32` version, payload, trailing FNV-1a-64
//! checksum. The payload opens with the operating-point fingerprint
//! (scale, warm-up, measure window, seed): a checkpoint taken at one
//! operating point must never seed a sweep at another, so a mismatch is
//! the typed [`CheckpointError::SetupMismatch`], not a silent blend.
//! Entries are sorted by key, making the checkpoint a pure function of
//! the lab's memo contents regardless of sweep thread count or insertion
//! order. Files are written atomically (temp file + rename) so a crash
//! mid-checkpoint leaves either the old checkpoint or the new one, never
//! a torn hybrid.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use morphtree_core::metadata::{MacMode, ReplacementPolicy, VerificationMode};
use morphtree_core::persist::codec::{expect_exhausted, ByteWriter, Header};
use morphtree_core::persist::engine::{read_stats, write_stats, STATS_MIN_BYTES};
use morphtree_core::persist::RecoveryError;
use morphtree_sim::persist::{read_result, write_result, RESULT_MIN_BYTES};

use crate::runner::{EngineKey, Lab, RunKey, Setup};

/// Lab-checkpoint header (`MTLC` = MorphTree Lab Checkpoint).
pub const CHECKPOINT_HEADER: Header = Header::new(*b"MTLC", 1);

/// Smallest encoded simulation entry: empty names, cache size, three mode
/// bytes, and the smallest result.
const SIM_ENTRY_MIN_BYTES: usize = 2 * 4 + 8 + 3 + RESULT_MIN_BYTES;

/// Smallest encoded engine-study entry: empty names, instruction count,
/// and the smallest statistics.
const ENGINE_ENTRY_MIN_BYTES: usize = 2 * 4 + 8 + STATS_MIN_BYTES;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file is structurally invalid (bad magic/version, truncation,
    /// checksum mismatch, malformed entries).
    Corrupt(RecoveryError),
    /// The checkpoint was taken at a different operating point than the
    /// lab resuming from it.
    SetupMismatch {
        /// Fingerprint stored in the checkpoint.
        stored: String,
        /// Fingerprint of the resuming lab.
        current: String,
    },
    /// The file could not be read or written.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::SetupMismatch { stored, current } => write!(
                f,
                "checkpoint operating point `{stored}` does not match the \
                 current sweep `{current}` — refusing to blend results"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RecoveryError> for CheckpointError {
    fn from(e: RecoveryError) -> Self {
        CheckpointError::Corrupt(e)
    }
}

/// The operating-point fingerprint: every [`Setup`] field that affects
/// run results. Two labs may share checkpoints iff these match.
#[must_use]
pub fn fingerprint(setup: &Setup) -> String {
    format!(
        "scale={} warmup={} measure={} seed={}",
        setup.scale, setup.warmup_instructions, setup.measure_instructions, setup.seed
    )
}

fn mac_tag(mac: MacMode) -> u8 {
    match mac {
        MacMode::Inline => 0,
        MacMode::Separate => 1,
    }
}

fn verification_tag(v: VerificationMode) -> u8 {
    match v {
        VerificationMode::Strict => 0,
        VerificationMode::Speculative => 1,
    }
}

fn replacement_tag(r: ReplacementPolicy) -> u8 {
    match r {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::LevelAware => 1,
    }
}

/// Serializes every memoized run of `lab` into a checkpoint image.
#[must_use]
pub fn checkpoint_bytes(lab: &Lab) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(&fingerprint(lab.setup()));

    let mut sims: Vec<&RunKey> = lab.sim_results().keys().collect();
    sims.sort_by_key(|k| {
        (
            k.workload.clone(),
            k.config.clone(),
            k.cache_bytes,
            mac_tag(k.mac),
            verification_tag(k.verification),
            replacement_tag(k.replacement),
        )
    });
    w.u32(sims.len() as u32);
    for key in sims {
        w.str(&key.workload);
        w.str(&key.config);
        w.u64(key.cache_bytes as u64);
        w.u8(mac_tag(key.mac));
        w.u8(verification_tag(key.verification));
        w.u8(replacement_tag(key.replacement));
        write_result(&mut w, &lab.sim_results()[key]);
    }

    let mut engines: Vec<&EngineKey> = lab.engine_results().keys().collect();
    engines.sort_by_key(|k| (k.workload.clone(), k.config.clone(), k.instructions));
    w.u32(engines.len() as u32);
    for key in engines {
        w.str(&key.workload);
        w.str(&key.config);
        w.u64(key.instructions);
        write_stats(&mut w, &lab.engine_results()[key]);
    }

    CHECKPOINT_HEADER.seal(&w.into_bytes())
}

/// Restores a [`checkpoint_bytes`] image into `lab`'s memo. Returns the
/// `(simulations, engine studies)` counts imported.
///
/// # Errors
///
/// Returns [`CheckpointError`] on structural corruption or an
/// operating-point mismatch; the lab is only modified when the whole
/// image parses.
pub fn restore_into(lab: &mut Lab, bytes: &[u8]) -> Result<(usize, usize), CheckpointError> {
    let mut p = CHECKPOINT_HEADER.open(bytes)?;
    let file_fingerprint = p.str().map_err(RecoveryError::from)?.to_owned();
    let current = fingerprint(lab.setup());
    if file_fingerprint != current {
        return Err(CheckpointError::SetupMismatch { stored: file_fingerprint, current });
    }

    let mut sims = Vec::new();
    for _ in 0..p.count_u32(SIM_ENTRY_MIN_BYTES)? {
        let workload = p.str().map_err(RecoveryError::from)?.to_owned();
        let config = p.str().map_err(RecoveryError::from)?.to_owned();
        let offset = p.offset();
        let cache_bytes = usize::try_from(p.u64().map_err(RecoveryError::from)?)
            .map_err(|_| RecoveryError::CorruptSnapshot { offset })?;
        let mac = match p.u8().map_err(RecoveryError::from)? {
            0 => MacMode::Inline,
            1 => MacMode::Separate,
            _ => return Err(RecoveryError::CorruptSnapshot { offset }.into()),
        };
        let verification = match p.u8().map_err(RecoveryError::from)? {
            0 => VerificationMode::Strict,
            1 => VerificationMode::Speculative,
            _ => return Err(RecoveryError::CorruptSnapshot { offset }.into()),
        };
        let replacement = match p.u8().map_err(RecoveryError::from)? {
            0 => ReplacementPolicy::Lru,
            1 => ReplacementPolicy::LevelAware,
            _ => return Err(RecoveryError::CorruptSnapshot { offset }.into()),
        };
        let result = read_result(&mut p)?;
        let key = RunKey { workload, config, cache_bytes, mac, verification, replacement };
        sims.push((key, result));
    }

    let mut engines = Vec::new();
    for _ in 0..p.count_u32(ENGINE_ENTRY_MIN_BYTES)? {
        let workload = p.str().map_err(RecoveryError::from)?.to_owned();
        let config = p.str().map_err(RecoveryError::from)?.to_owned();
        let instructions = p.u64().map_err(RecoveryError::from)?;
        let stats = read_stats(&mut p)?;
        engines.push((EngineKey { workload, config, instructions }, stats));
    }
    expect_exhausted(&p)?;

    let counts = (sims.len(), engines.len());
    for (key, result) in sims {
        lab.import_sim(key, result);
    }
    for (key, stats) in engines {
        lab.import_engine(key, stats);
    }
    Ok(counts)
}

/// Writes `lab`'s checkpoint to `path` atomically (temp file + rename in
/// the destination directory, so a crash never leaves a torn file).
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] if the file cannot be written.
pub fn save_checkpoint(lab: &Lab, path: &Path) -> Result<(), CheckpointError> {
    let bytes = checkpoint_bytes(lab);
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
    let mut file = fs::File::create(&tmp).map_err(io)?;
    file.write_all(&bytes).map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    fs::rename(&tmp, path).map_err(io)
}

/// Loads the checkpoint at `path` into `lab`. Returns the imported
/// `(simulations, engine studies)` counts.
///
/// # Errors
///
/// Returns [`CheckpointError`] on io failure, corruption, or an
/// operating-point mismatch.
pub fn load_checkpoint(lab: &mut Lab, path: &Path) -> Result<(usize, usize), CheckpointError> {
    let bytes = fs::read(path)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    restore_into(lab, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Sweep;
    use morphtree_core::tree::TreeConfig;

    fn quick_setup() -> Setup {
        Setup {
            scale: 256,
            warmup_instructions: 20_000,
            measure_instructions: 20_000,
            seed: 7,
        }
    }

    fn populated_lab() -> Lab {
        let setup = quick_setup();
        let mut sweep = Sweep::new();
        sweep.sim(&setup, "libquantum", Some(TreeConfig::sc64()));
        sweep.sim(&setup, "libquantum", None);
        sweep.engine("libquantum", TreeConfig::sc64(), 20_000);
        let mut lab = Lab::new(setup);
        lab.verbose = false;
        lab.set_threads(2);
        lab.prefetch(&sweep);
        lab
    }

    #[test]
    fn checkpoints_round_trip_and_are_deterministic() {
        let lab = populated_lab();
        let bytes = checkpoint_bytes(&lab);
        assert_eq!(bytes, checkpoint_bytes(&lab), "pure function of the memo");

        let mut resumed = Lab::new(quick_setup());
        resumed.verbose = false;
        let (sims, engines) = restore_into(&mut resumed, &bytes).unwrap();
        assert_eq!((sims, engines), (2, 1));
        assert_eq!(resumed.sim_results(), lab.sim_results());
        assert_eq!(resumed.engine_results(), lab.engine_results());
        // The restored memo re-serializes identically: resuming twice (or
        // checkpointing a resumed lab) never drifts.
        assert_eq!(checkpoint_bytes(&resumed), bytes);
    }

    #[test]
    fn restored_runs_are_served_from_the_memo() {
        let lab = populated_lab();
        let bytes = checkpoint_bytes(&lab);
        let mut resumed = Lab::new(quick_setup());
        resumed.verbose = false;
        restore_into(&mut resumed, &bytes).unwrap();
        // A prefetch of the same plan finds everything cached: no new runs.
        let setup = quick_setup();
        let mut sweep = Sweep::new();
        sweep.sim(&setup, "libquantum", Some(TreeConfig::sc64()));
        sweep.sim(&setup, "libquantum", None);
        sweep.engine("libquantum", TreeConfig::sc64(), 20_000);
        resumed.prefetch(&sweep);
        assert_eq!(resumed.sim_results().len(), 2);
        assert_eq!(resumed.engine_results().len(), 1);
        let cached = resumed.result("libquantum", Some(TreeConfig::sc64())).cycles;
        let original = &lab.sim_results()
            [&RunKey::new(
                "libquantum",
                Some(&TreeConfig::sc64()),
                setup.metadata_cache_bytes(),
                MacMode::Inline,
                VerificationMode::default(),
                ReplacementPolicy::default(),
            )];
        assert_eq!(cached, original.cycles);
    }

    #[test]
    fn mismatched_operating_points_are_refused() {
        let lab = populated_lab();
        let bytes = checkpoint_bytes(&lab);
        let mut other = Lab::new(Setup { seed: 8, ..quick_setup() });
        other.verbose = false;
        let err = restore_into(&mut other, &bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::SetupMismatch { .. }),
            "expected a setup mismatch, got {err}"
        );
        assert!(other.sim_results().is_empty(), "a refused restore must not import");
        assert!(err.to_string().contains("seed=7"), "{err}");
        assert!(err.to_string().contains("seed=8"), "{err}");
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors() {
        let lab = populated_lab();
        let bytes = checkpoint_bytes(&lab);
        let mut fresh = Lab::new(quick_setup());
        fresh.verbose = false;

        assert_eq!(
            restore_into(&mut fresh, b"MTSR").unwrap_err(),
            CheckpointError::Corrupt(RecoveryError::BadMagic)
        );
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        assert!(matches!(
            restore_into(&mut fresh, &flipped).unwrap_err(),
            CheckpointError::Corrupt(RecoveryError::ChecksumMismatch { .. })
        ));
        for cut in 0..bytes.len() {
            let err = restore_into(&mut fresh, &bytes[..cut]).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "cut {cut}: {err}");
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            let err = restore_into(&mut fresh, &flipped).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "flip at {at}: {err}");
        }
        assert!(fresh.sim_results().is_empty(), "failed restores must not import");
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let lab = populated_lab();
        let path = std::env::temp_dir().join("morphtree-checkpoint-test.mtlc");
        save_checkpoint(&lab, &path).unwrap();
        let mut resumed = Lab::new(quick_setup());
        resumed.verbose = false;
        let counts = load_checkpoint(&mut resumed, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(counts, (2, 1));
        assert_eq!(resumed.sim_results(), lab.sim_results());
        let missing = load_checkpoint(&mut resumed, Path::new("/nonexistent/ck.mtlc"));
        assert!(matches!(missing.unwrap_err(), CheckpointError::Io(_)));
    }
}
