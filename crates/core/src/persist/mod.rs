//! Crash-consistent persistence for the secure-memory state: versioned,
//! checksummed snapshots plus a write-ahead log, with a recovery path that
//! re-verifies the restored tree through the functional verification
//! machinery.
//!
//! # Why a secure memory needs this
//!
//! A real secure-memory controller keeps counters and tree nodes in
//! volatile caches backed by DRAM; persisting that state (hibernate,
//! checkpoint, NVM deployments à la Triad-NVM / Anubis) must tolerate
//! power loss at *any* instant. This module reproduces that problem shape
//! for the simulator: the full [`SecureMemory`] state serializes to a
//! [`save_memory`] snapshot, an [`EpochMemory`] appends every write to a
//! [`WalWriter`] log as a committed transaction, and [`recover_bounded`]
//! rebuilds the state from `snapshot + any WAL prefix` — then proves the
//! result before handing it back. A sharded image has the same pair per
//! shard: [`EpochShardedMemory`] writes it and [`recover_sharded_bounded`]
//! reads it. A single memory is the one-shard case: its image is its
//! `MTSN` snapshot, which [`recover_sharded_bounded`] and
//! [`verify_shards`] read as a one-shard container, so production code
//! reads every image through them. [`recover`] is the full-replay
//! reference the crash tests hold bounded recovery to; production code
//! does not call it.
//!
//! # Format overview
//!
//! A snapshot is `b"MTSN"` + version + a fixed sequence of sections, each
//! framed as `[tag: u32][len: u64][payload][fnv1a64(payload): u64]` by
//! [`codec`], the one place that knows container framing:
//!
//! | tag | section  | payload |
//! |-----|----------|---------|
//! | 1   | `CONFIG` | tree name + counter organizations |
//! | 2   | `STATE`  | memory size, key, re-encryption total |
//! | 3   | `DATA`   | `(line, ciphertext)` pairs, index order |
//! | 4   | `MACS`   | `(line, mac)` pairs, index order |
//! | 5   | `LEVELS` | per level: `(line_idx, encoded image)` pairs |
//!
//! Serialization iterates [`crate::store::PagedStore`] in index order, so
//! equal states produce byte-identical snapshots regardless of history —
//! the property the resumed-sweep determinism tests pin.
//!
//! The WAL format and its torn-write rules live in [`wal`]; the field
//! codecs of the timing engine's statistics, which the simulator's result
//! checkpoints embed, live in [`engine`].
//!
//! # Failure taxonomy
//!
//! Recovery never panics and never silently accepts divergence: every
//! failure is a typed [`RecoveryError`]. Truncation mid-WAL-record is
//! *expected* (a torn write) and recovers to the last committed
//! transaction; anything else — bad magic, checksum mismatch, malformed
//! counter images, out-of-range indices, a restored tree that fails MAC
//! verification — is reported, not repaired.

use std::error::Error;
use std::fmt;

use crate::concurrent::{ShardPlan, ShardedMemory};
use crate::counters::morph::MorphMode;
use crate::counters::CounterOrg;
use crate::error::{CodecError, IntegrityError, ShardError};
use crate::functional::SecureMemory;
use crate::tree::TreeConfig;
use crate::CACHELINE_BYTES;

pub mod codec;
pub mod engine;
pub mod epoch;
pub mod wal;

use codec::{
    ascending, expect_exhausted, read_checksum, read_section, write_checksum, write_section,
    ByteReader, ByteWriter, Header, Truncated,
};
pub use epoch::{
    recover_bounded, recover_sharded_bounded, DegradedShardedMemory, EpochMemory,
    EpochSeal, EpochShardedMemory, RecoveryMode, RecoveryStats, SealPhase, ShardRecovery,
    ShardedRecovery, VerifyStrategy,
};
pub use wal::{replay, replay_epochs, SealPoint, WalEpochs, WalRecord, WalTransaction, WalWriter};

/// Snapshot file magic (`MTSN` = MorphTree SNapshot).
pub const MAGIC: [u8; 4] = *b"MTSN";
/// Sharded-snapshot container magic (`MTSH` = MorphTree SHards): a header
/// plus one embedded [`MAGIC`] snapshot per shard, for two or more shards.
pub const MAGIC_SHARDED: [u8; 4] = *b"MTSH";
/// Published-root file magic (`MTRT` = MorphTree RooT): the tiny
/// checksummed artifact [`save_root`] writes alongside a snapshot so a
/// verifier can check proofs with nothing but this file.
pub const MAGIC_ROOT: [u8; 4] = *b"MTRT";
/// Current snapshot format version.
pub const VERSION: u32 = 1;

const SNAPSHOT: Header = Header::new(MAGIC, VERSION);
/// The `MTSH` container's header: the image of two or more shards (one
/// shard's image is its `MTSN`).
pub const SHARDED: Header = Header::new(MAGIC_SHARDED, VERSION);
const ROOT: Header = Header::new(MAGIC_ROOT, VERSION);

/// Upper bound on the protected-memory size a snapshot may declare
/// (1 TiB). A corrupt size field must fail typed, not exhaust the host
/// allocating stores for a fictitious geometry.
pub const MAX_MEMORY_BYTES: u64 = 1 << 40;

pub(crate) const SEC_ROOT: u32 = 32;
pub(crate) const SEC_CONFIG: u32 = 1;
pub(crate) const SEC_STATE: u32 = 2;
pub(crate) const SEC_DATA: u32 = 3;
pub(crate) const SEC_MACS: u32 = 4;
pub(crate) const SEC_LEVELS: u32 = 5;
pub(crate) const SEC_SHARD_HEADER: u32 = 16;
pub(crate) const SEC_SHARD: u32 = 17;

/// Why a snapshot or WAL could not be restored.
///
/// Every variant is a *diagnosis*: recovery refuses to guess, so callers
/// (the CLI `--resume` path, the crash-fault attack campaign) can assert
/// that a damaged input is reported rather than silently absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// The version the file declares.
        version: u32,
    },
    /// The input ended before a field did (offset within the buffer being
    /// parsed at that point).
    Truncated {
        /// Byte offset of the missing field.
        offset: usize,
    },
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// Tag of the failing section.
        section: u32,
    },
    /// The snapshot is structurally invalid (wrong section order, trailing
    /// bytes, inconsistent counts, out-of-bounds declared sizes).
    CorruptSnapshot {
        /// Byte offset where the violation was detected.
        offset: usize,
    },
    /// A *complete* WAL record is checksum-invalid, malformed, or violates
    /// transaction structure (see [`wal`] for the torn-write rules that
    /// distinguish this from benign truncation).
    CorruptWal {
        /// Byte offset of the offending record.
        offset: usize,
    },
    /// A restored record names a data line outside the snapshot's
    /// geometry.
    DataLineOutOfRange {
        /// The offending line index.
        line: u64,
    },
    /// A restored record names a counter line outside the snapshot's
    /// geometry.
    CounterLineOutOfRange {
        /// Tree level of the offending record.
        level: usize,
        /// The offending line index.
        line_idx: u64,
    },
    /// A counter-line image failed to decode under the level's configured
    /// counter organization.
    MalformedLine(CodecError),
    /// The restored state failed bottom-up MAC verification — the snapshot
    /// and WAL were individually well-formed but do not describe a state
    /// the write path could have produced.
    Integrity(IntegrityError),
    /// A sharded container's header declares an impossible partition.
    ShardPlan(ShardError),
    /// A per-shard snapshot inside a sharded container disagrees with the
    /// header's partition: wrong geometry for its range, or a key that is
    /// not the one derived from the header's tenant key. Recovery refuses
    /// to blend shards from different tenants or layouts.
    ShardMismatch {
        /// Index of the offending shard.
        shard: usize,
    },
    /// An epoch-seal record is structurally invalid: bad phase code,
    /// checksum mismatch, or trailing bytes. (A seal whose *MAC* fails is
    /// not an error — bounded recovery degrades to full verification or
    /// quarantine instead; see [`epoch`].)
    CorruptSeal {
        /// Byte offset of the offending field within the seal image.
        offset: usize,
    },
    /// A sharded bounded recovery was handed the wrong number of per-shard
    /// WALs for the container's declared partition.
    ShardWalCount {
        /// Shards the container declares.
        expected: usize,
        /// WALs the caller supplied.
        got: usize,
    },
    /// The addressed shard failed recovery and is quarantined: reads and
    /// writes on it refuse while the remaining shards keep serving.
    ShardQuarantined {
        /// Index of the quarantined shard.
        shard: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            RecoveryError::UnsupportedVersion { version } => {
                write!(f, "unsupported snapshot version {version} (expected {VERSION})")
            }
            RecoveryError::Truncated { offset } => {
                write!(f, "input truncated at byte {offset}")
            }
            RecoveryError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            RecoveryError::CorruptSnapshot { offset } => {
                write!(f, "corrupt snapshot structure at byte {offset}")
            }
            RecoveryError::CorruptWal { offset } => {
                write!(f, "corrupt WAL record at byte {offset}")
            }
            RecoveryError::DataLineOutOfRange { line } => {
                write!(f, "data line {line} outside the snapshot geometry")
            }
            RecoveryError::CounterLineOutOfRange { level, line_idx } => {
                write!(f, "counter line {line_idx} at level {level} outside the snapshot geometry")
            }
            RecoveryError::MalformedLine(err) => {
                write!(f, "counter-line image failed to decode: {err}")
            }
            RecoveryError::Integrity(err) => {
                write!(f, "restored state failed verification: {err}")
            }
            RecoveryError::ShardPlan(err) => {
                write!(f, "sharded snapshot header is unusable: {err}")
            }
            RecoveryError::ShardMismatch { shard } => {
                write!(f, "shard {shard} snapshot disagrees with the sharded header")
            }
            RecoveryError::CorruptSeal { offset } => {
                write!(f, "corrupt epoch seal at byte {offset}")
            }
            RecoveryError::ShardWalCount { expected, got } => {
                write!(f, "sharded recovery needs {expected} per-shard WALs, got {got}")
            }
            RecoveryError::ShardQuarantined { shard } => {
                write!(f, "shard {shard} is quarantined after failed recovery")
            }
        }
    }
}

impl Error for RecoveryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecoveryError::MalformedLine(err) => Some(err),
            RecoveryError::Integrity(err) => Some(err),
            RecoveryError::ShardPlan(err) => Some(err),
            _ => None,
        }
    }
}

impl From<Truncated> for RecoveryError {
    fn from(t: Truncated) -> Self {
        RecoveryError::Truncated { offset: t.offset }
    }
}

/// Encodes a published root for the proof-verification boundary: magic,
/// version, the 64-bit root, and an FNV checksum over the preceding
/// bytes. 24 bytes — the only state a [`crate::proof`] verifier needs.
#[must_use]
pub fn save_root(root: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    ROOT.write(&mut out);
    out.extend_from_slice(&root.to_le_bytes());
    write_checksum(&mut out, 0);
    out
}

/// Decodes a [`save_root`] artifact.
///
/// # Errors
///
/// Returns a typed [`RecoveryError`] on bad magic, version, truncation,
/// checksum mismatch, or trailing bytes.
pub fn load_root(bytes: &[u8]) -> Result<u64, RecoveryError> {
    let mut r = ByteReader::new(bytes);
    ROOT.read(&mut r)?;
    let root = r.u64()?;
    read_checksum(&mut r, 0, SEC_ROOT)?;
    expect_exhausted(&r)?;
    Ok(root)
}

pub(crate) fn write_org(w: &mut ByteWriter, org: CounterOrg) {
    match org {
        CounterOrg::Split { arity } => {
            w.u8(0);
            w.u32(arity as u32);
        }
        CounterOrg::Morph(mode) => {
            w.u8(1);
            w.u8(match mode {
                MorphMode::ZccOnly => 0,
                MorphMode::ZccRebase => 1,
                MorphMode::SingleBase => 2,
            });
        }
    }
}

pub(crate) fn read_org(r: &mut ByteReader<'_>) -> Result<CounterOrg, RecoveryError> {
    let offset = r.offset();
    match r.u8()? {
        0 => {
            let arity = r.u32()? as usize;
            // SplitConfig supports minor widths down to arity 8 per line;
            // 0 or a non-divisor would panic inside the constructor.
            if arity == 0 || arity > 1024 || !arity.is_power_of_two() {
                return Err(RecoveryError::CorruptSnapshot { offset });
            }
            Ok(CounterOrg::Split { arity })
        }
        1 => {
            let mode = match r.u8()? {
                0 => MorphMode::ZccOnly,
                1 => MorphMode::ZccRebase,
                2 => MorphMode::SingleBase,
                _ => return Err(RecoveryError::CorruptSnapshot { offset }),
            };
            Ok(CounterOrg::Morph(mode))
        }
        _ => Err(RecoveryError::CorruptSnapshot { offset }),
    }
}

pub(crate) fn write_config(w: &mut ByteWriter, config: &TreeConfig) {
    w.str(config.name());
    write_org(w, config.org(0));
    let orgs = config.tree_orgs();
    w.u32(orgs.len() as u32);
    for &org in orgs {
        write_org(w, org);
    }
}

pub(crate) fn read_config(r: &mut ByteReader<'_>) -> Result<TreeConfig, RecoveryError> {
    let name = r.str()?.to_string();
    let enc_org = read_org(r)?;
    let offset = r.offset();
    let count = r.u32()? as usize;
    // At least one tree org (the constructor's invariant) and a sane bound
    // so a corrupt count cannot drive a giant allocation.
    if count == 0 || count > 64 {
        return Err(RecoveryError::CorruptSnapshot { offset });
    }
    let mut tree_orgs = Vec::with_capacity(count);
    for _ in 0..count {
        tree_orgs.push(read_org(r)?);
    }
    Ok(TreeConfig::new(name, enc_org, tree_orgs))
}

/// Serializes the complete state of `mem` into a snapshot.
///
/// The output is deterministic: equal memory states serialize
/// byte-identically regardless of the write history that produced them.
#[must_use]
pub fn save_memory(mem: &SecureMemory) -> Vec<u8> {
    let mut out = Vec::new();
    SNAPSHOT.write(&mut out);

    let mut w = ByteWriter::new();
    write_config(&mut w, mem.config());
    write_section(&mut out, SEC_CONFIG, &w.into_bytes());

    let mut w = ByteWriter::new();
    w.u64(mem.geometry().memory_bytes());
    w.bytes(&mem.key());
    w.u64(mem.reencryptions());
    write_section(&mut out, SEC_STATE, &w.into_bytes());

    let mut w = ByteWriter::new();
    let data = mem.data_store();
    w.u64(data.len());
    for (line, ciphertext) in data.iter() {
        w.u64(line);
        w.bytes(ciphertext);
    }
    write_section(&mut out, SEC_DATA, &w.into_bytes());

    let mut w = ByteWriter::new();
    let macs = mem.mac_store();
    w.u64(macs.len());
    for (line, &mac) in macs.iter() {
        w.u64(line);
        w.u64(mac);
    }
    write_section(&mut out, SEC_MACS, &w.into_bytes());

    mem.tree().write_levels(&mut out);
    out
}

/// The `CONFIG` and `STATE` sections that open an `MTSN` snapshot.
struct SnapshotHead {
    config: TreeConfig,
    memory_bytes: u64,
    key: [u8; 16],
    reencryptions: u64,
}

/// Reads an `MTSN` header and its `CONFIG` and `STATE` sections,
/// refusing a declared size no geometry can have.
fn read_head(r: &mut ByteReader<'_>) -> Result<SnapshotHead, RecoveryError> {
    SNAPSHOT.read(r)?;

    let mut sec = read_section(r, SEC_CONFIG)?;
    let config = read_config(&mut sec)?;
    expect_exhausted(&sec)?;

    let mut sec = read_section(r, SEC_STATE)?;
    let size_offset = sec.offset();
    let memory_bytes = sec.u64()?;
    let key: [u8; 16] = sec
        .bytes(16)?
        .try_into()
        .map_err(|_| RecoveryError::CorruptSnapshot { offset: size_offset })?;
    let reencryptions = sec.u64()?;
    expect_exhausted(&sec)?;
    if memory_bytes == 0
        || memory_bytes % CACHELINE_BYTES as u64 != 0
        || memory_bytes > MAX_MEMORY_BYTES
    {
        return Err(RecoveryError::CorruptSnapshot { offset: size_offset });
    }
    Ok(SnapshotHead { config, memory_bytes, key, reencryptions })
}

/// Deserializes a [`save_memory`] snapshot.
///
/// Restores state verbatim *without* verifying it; [`recover_bounded`]
/// layers WAL replay and verification on top.
///
/// # Errors
///
/// Returns a [`RecoveryError`] describing the first problem found: bad
/// magic or version, truncation, checksum mismatch, structural corruption
/// (including indices that do not strictly ascend within a section),
/// out-of-range indices, or undecodable counter images.
pub fn load_memory(bytes: &[u8]) -> Result<SecureMemory, RecoveryError> {
    let mut r = ByteReader::new(bytes);
    let head = read_head(&mut r)?;
    let mut mem = SecureMemory::new(head.config, head.memory_bytes, head.key);
    mem.set_reencryptions(head.reencryptions);

    let mut sec = read_section(&mut r, SEC_DATA)?;
    let count = sec.count_u64(8 + CACHELINE_BYTES)?;
    let mut next = 0;
    for _ in 0..count {
        let offset = sec.offset();
        let line = sec.u64()?;
        let ciphertext = sec.line()?;
        if line >= mem.geometry().data_lines() {
            return Err(RecoveryError::DataLineOutOfRange { line });
        }
        ascending(&mut next, line, offset)?;
        mem.restore_ciphertext(line, ciphertext);
    }
    expect_exhausted(&sec)?;

    let mut sec = read_section(&mut r, SEC_MACS)?;
    let count = sec.count_u64(8 + 8)?;
    let mut next = 0;
    for _ in 0..count {
        let offset = sec.offset();
        let line = sec.u64()?;
        let mac = sec.u64()?;
        if line >= mem.geometry().data_lines() {
            return Err(RecoveryError::DataLineOutOfRange { line });
        }
        ascending(&mut next, line, offset)?;
        mem.restore_mac(line, mac);
    }
    expect_exhausted(&sec)?;

    mem.tree_mut().read_levels(&mut r)?;
    expect_exhausted(&r)?;
    Ok(mem)
}

/// Rebuilds a memory from a snapshot plus any prefix of its WAL, then
/// proves the result: replays every committed transaction and runs
/// [`SecureMemory::verify_all`] bottom-up before returning.
///
/// This is the full-replay reference: it ignores seals, so its cost grows
/// with the log and the memory. The crash tests and the crash campaign
/// hold [`recover_bounded`] to it byte for byte; production code recovers
/// through [`recover_bounded`] instead, which takes this same path when
/// the log holds no usable seal.
///
/// # Errors
///
/// Returns a [`RecoveryError`]: snapshot problems from [`load_memory`],
/// [`RecoveryError::CorruptWal`] for damaged (not merely torn) log
/// records, range errors for records outside the geometry, and
/// [`RecoveryError::Integrity`] when the restored tree fails MAC
/// verification.
pub fn recover(snapshot: &[u8], wal_bytes: &[u8]) -> Result<SecureMemory, RecoveryError> {
    let mut mem = load_memory(snapshot)?;
    for txn in wal::replay(wal_bytes)? {
        apply_wal_txn(&mut mem, &txn)?;
    }
    mem.verify_all().map_err(RecoveryError::Integrity)?;
    Ok(mem)
}

/// Applies one committed WAL transaction's post-images to `mem`.
///
/// # Errors
///
/// Range errors for records outside the geometry and
/// [`RecoveryError::MalformedLine`] for undecodable counter images.
pub(crate) fn apply_wal_txn(
    mem: &mut SecureMemory,
    txn: &WalTransaction,
) -> Result<(), RecoveryError> {
    for record in &txn.records {
        match record {
            WalRecord::DataLine { line, ciphertext, mac } => {
                let line = *line;
                if line >= mem.geometry().data_lines() {
                    return Err(RecoveryError::DataLineOutOfRange { line });
                }
                mem.restore_data_line(line, *ciphertext, *mac);
            }
            WalRecord::CounterLine { level, line_idx, image } => {
                mem.tree_mut().restore(*level as usize, *line_idx, image)?;
            }
            WalRecord::Stats { reencryptions } => {
                mem.set_reencryptions(*reencryptions);
            }
            // `wal::replay` consumes transaction boundaries and hoists seals
            // out of the transaction stream; committed transactions carry
            // only mutation records.
            WalRecord::Begin { .. } | WalRecord::Commit { .. } | WalRecord::Seal(_) => {
                unreachable!("replay strips transaction boundaries")
            }
        }
    }
    Ok(())
}

/// Serializes a sharded memory: a one-shard memory as its shard's
/// [`save_memory`] snapshot, any other as an `MTSH` container, a
/// checksummed header (partition geometry + tenant key) followed by one
/// full [`save_memory`] snapshot per shard.
///
/// Like [`save_memory`], the output is a pure function of state: equal
/// sharded memories serialize byte-identically.
#[must_use]
pub fn save_sharded(memory: &ShardedMemory) -> Vec<u8> {
    let shards = (0..memory.plan().shards()).map(|shard| memory.shard(shard));
    write_sharded(memory.plan(), memory.tenant_key(), shards)
}

/// The one sharded-image writer: a lone shard's `MTSN`, or the `MTSH`
/// header section (partition geometry and tenant key) followed by one
/// [`save_memory`] section per shard, in order.
pub(crate) fn write_sharded<'a>(
    plan: &ShardPlan,
    tenant_key: [u8; 16],
    shards: impl IntoIterator<Item = &'a SecureMemory>,
) -> Vec<u8> {
    let shards: Vec<&SecureMemory> = shards.into_iter().collect();
    if let [only] = shards[..] {
        return save_memory(only);
    }
    let mut out = Vec::new();
    SHARDED.write(&mut out);
    let mut w = ByteWriter::new();
    w.u64(plan.memory_bytes());
    w.u32(plan.shards() as u32);
    w.bytes(&tenant_key);
    write_section(&mut out, SEC_SHARD_HEADER, &w.into_bytes());
    for shard in shards {
        write_section(&mut out, SEC_SHARD, &save_memory(shard));
    }
    out
}

/// Parsed sharded-image framing: partition plan, tenant key, and the raw
/// per-shard snapshot payloads (not yet decoded).
pub(crate) type ParsedShards<'a> = (ShardPlan, [u8; 16], Vec<&'a [u8]>);

/// Parses a sharded image's framing and returns the partition plan,
/// tenant key, and the raw per-shard snapshot payloads (not yet decoded).
/// An `MTSN` snapshot is the one-shard image: its own geometry and key
/// are the plan's and the tenant's. An `MTSH` container has its header
/// and section checksums validated, and must hold two or more shards (one
/// shard has one encoding, its `MTSN`).
pub(crate) fn parse_sharded(bytes: &[u8]) -> Result<ParsedShards<'_>, RecoveryError> {
    let mut r = ByteReader::new(bytes);
    if SNAPSHOT.matches(bytes) {
        let head = read_head(&mut r)?;
        let plan = ShardPlan::new(head.memory_bytes, 1).map_err(RecoveryError::ShardPlan)?;
        return Ok((plan, head.key, vec![bytes]));
    }
    SHARDED.read(&mut r)?;

    let mut sec = read_section(&mut r, SEC_SHARD_HEADER)?;
    let header_offset = sec.offset();
    let memory_bytes = sec.u64()?;
    let count_offset = sec.offset();
    let shard_count = sec.u32()?;
    let key: [u8; 16] = sec
        .bytes(16)?
        .try_into()
        .map_err(|_| RecoveryError::CorruptSnapshot { offset: header_offset })?;
    expect_exhausted(&sec)?;
    if memory_bytes > MAX_MEMORY_BYTES {
        return Err(RecoveryError::CorruptSnapshot { offset: header_offset });
    }
    // Each shard is a section of at least its 20 framing bytes.
    let shard_count =
        codec::bound_count(u64::from(shard_count), 4 + 8 + 8, r.remaining(), count_offset)?;
    if shard_count == 1 {
        return Err(RecoveryError::CorruptSnapshot { offset: count_offset });
    }
    let plan = ShardPlan::new(memory_bytes, shard_count).map_err(RecoveryError::ShardPlan)?;

    let mut sections = Vec::with_capacity(plan.shards());
    for _ in 0..plan.shards() {
        let mut sec = read_section(&mut r, SEC_SHARD)?;
        let len = sec.remaining();
        sections.push(sec.bytes(len)?);
    }
    expect_exhausted(&r)?;
    Ok((plan, key, sections))
}

/// Per-shard outcome of [`verify_shards`]: what the shard claims to be and
/// whether its restored subtree proved out.
#[derive(Debug, Clone)]
pub struct ShardVerifyReport {
    /// Shard index within the container.
    pub shard: usize,
    /// Protected bytes the header's partition assigns the shard.
    pub memory_bytes: u64,
    /// Tree levels in the shard's geometry (0 when the shard failed).
    pub levels: usize,
    /// The shard's tree configuration name (empty when the shard failed).
    pub config: String,
    /// The restored subtree's root digest when the shard loaded, passed
    /// full bottom-up verification and matched the header's partition;
    /// the typed failure otherwise.
    pub status: Result<u64, RecoveryError>,
}

/// Verifies every shard of a sharded image (an `MTSH` container, or an
/// `MTSN` snapshot as its one shard) independently, reporting
/// per-shard results instead of stopping at the first failure. Each shard
/// takes the same step as in [`recover_sharded_bounded`] with an empty
/// log; unlike it, a container whose every shard fails still yields the
/// full table.
///
/// # Errors
///
/// Container-level framing problems (bad magic, truncation, checksums, an
/// impossible header) are fatal and returned as `Err`; per-shard failures
/// are captured in each report's `status`.
pub fn verify_shards(bytes: &[u8]) -> Result<Vec<ShardVerifyReport>, RecoveryError> {
    let (plan, _, outcomes) = epoch::recover_shards::<&[u8]>(bytes, &[])?;
    let reports = outcomes
        .enumerate()
        .map(|(shard, outcome)| ShardVerifyReport {
            shard,
            memory_bytes: plan.shard_memory_bytes(shard),
            levels: outcome.as_ref().map_or(0, |(mem, _)| mem.geometry().levels().len()),
            config: outcome
                .as_ref()
                .map_or_else(|_| String::new(), |(mem, _)| mem.config().name().to_owned()),
            status: outcome.map(|(mem, _)| mem.root_digest()),
        })
        .collect();
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::codec::fnv1a;
    use crate::counters::CounterLine;
    use super::*;

    const MIB: u64 = 1 << 20;
    const KEY: [u8; 16] = [3u8; 16];

    fn populated(config: TreeConfig) -> SecureMemory {
        let mut mem = SecureMemory::new(config, MIB, KEY);
        for i in 0..40u64 {
            mem.write(i * 7 % 128, &[i as u8; CACHELINE_BYTES]);
        }
        mem
    }

    #[test]
    fn snapshot_roundtrips_and_is_deterministic() {
        for config in [TreeConfig::sc64(), TreeConfig::vault(), TreeConfig::morphtree()] {
            let mem = populated(config.clone());
            let snap = save_memory(&mem);
            let restored = load_memory(&snap).unwrap();
            assert_eq!(restored.config().name(), config.name());
            assert_eq!(restored.reencryptions(), mem.reencryptions());
            restored.verify_all().unwrap();
            for i in 0..128u64 {
                assert_eq!(restored.read(i).unwrap(), mem.read(i).unwrap(), "line {i}");
            }
            // Serialization is a pure function of state.
            assert_eq!(save_memory(&restored), snap, "{}", config.name());
        }
    }

    #[test]
    fn recover_with_empty_wal_verifies_the_snapshot() {
        let mem = populated(TreeConfig::morphtree());
        let snap = save_memory(&mem);
        let recovered = recover(&snap, &[]).unwrap();
        assert_eq!(save_memory(&recovered), snap);
    }

    #[test]
    fn every_wal_prefix_recovers_to_the_committed_write_count() {
        let base = populated(TreeConfig::morphtree());
        let snapshot = save_memory(&base);

        // Journaled writer on one clone; a tracking clone captures the
        // expected state after each committed write.
        let mut writer = EpochMemory::from_memory(base.clone(), 0);
        let mut tracker = base;
        let mut states = vec![save_memory(writer.memory())];
        for i in 0..12u64 {
            let body = [0x80 | i as u8; CACHELINE_BYTES];
            writer.write(i * 11 % 128, &body);
            tracker.write(i * 11 % 128, &body);
            states.push(save_memory(&tracker));
        }
        assert_eq!(states.last().unwrap(), &save_memory(writer.memory()));

        let wal = writer.wal_bytes();
        for cut in 0..=wal.len() {
            let prefix = &wal[..cut];
            let committed = replay(prefix).unwrap().len();
            let recovered = recover(&snapshot, prefix)
                .unwrap_or_else(|e| panic!("cut {cut} must recover: {e}"));
            assert_eq!(
                save_memory(&recovered),
                states[committed],
                "cut {cut}: recovered state is not the {committed}-write state"
            );
            let (bounded, _) = recover_bounded(&snapshot, prefix)
                .unwrap_or_else(|e| panic!("cut {cut} must recover bounded: {e}"));
            assert_eq!(save_memory(&bounded), states[committed], "cut {cut}: bounded");
        }
    }

    #[test]
    fn checkpoint_folds_the_wal() {
        let mut writer = EpochMemory::new(TreeConfig::sc64(), MIB, KEY, 0);
        writer.write(5, &[1; CACHELINE_BYTES]);
        assert_eq!(replay(writer.wal_bytes()).unwrap().len(), 1);
        writer.cut();
        assert!(replay(writer.wal_bytes()).unwrap().is_empty());
        let (recovered, stats) =
            recover_bounded(&writer.sealed_snapshot(), writer.wal_bytes()).unwrap();
        assert_eq!(stats.mode, RecoveryMode::CleanShutdown);
        assert_eq!(recovered.read(5).unwrap(), [1; CACHELINE_BYTES]);
    }

    #[test]
    fn snapshot_header_errors_are_typed() {
        let mem = populated(TreeConfig::sc64());
        let snap = save_memory(&mem);

        assert_eq!(load_memory(b"nope").unwrap_err(), RecoveryError::BadMagic);
        assert_eq!(load_memory(&[]).unwrap_err(), RecoveryError::BadMagic);

        let mut wrong_version = snap.clone();
        wrong_version[4] = 9;
        assert_eq!(
            load_memory(&wrong_version).unwrap_err(),
            RecoveryError::UnsupportedVersion { version: 9 }
        );

        // Flip a byte inside the CONFIG payload: its checksum catches it.
        let mut corrupt = snap.clone();
        corrupt[8 + 12 + 2] ^= 0xff;
        assert_eq!(
            load_memory(&corrupt).unwrap_err(),
            RecoveryError::ChecksumMismatch { section: SEC_CONFIG }
        );

        // Truncation anywhere is typed, never a panic.
        for cut in 0..snap.len() {
            let err = load_memory(&snap[..cut]).unwrap_err();
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

    #[test]
    fn tampered_snapshot_state_fails_verification() {
        // Re-point a ciphertext inside the DATA section while fixing up the
        // section checksum: structurally valid, semantically inconsistent.
        let mut mem = populated(TreeConfig::sc64());
        mem.tamper_raw(0, 0, 0xff).unwrap();
        let snap = save_memory(&mem);
        // load_memory restores it verbatim...
        load_memory(&snap).unwrap();
        // ...but recovery with no seal to anchor on refuses to hand it over.
        assert!(matches!(
            recover_bounded(&snap, &[]).unwrap_err(),
            RecoveryError::Integrity(IntegrityError::DataMac { .. })
        ));
    }

    #[test]
    fn flipped_zcc_padding_bit_in_a_snapshot_is_refused() {
        // A one-counter ZCC image packs 16 value bits at 192..208; the rest
        // of the value field up to the MAC is padding. A decoder that did
        // not check it rebuilt the same line from the flipped image, and
        // `verify_all` then MACed the canonical re-encoding, so the flip
        // went unnoticed.
        let mut mem = SecureMemory::new(TreeConfig::morphtree(), MIB, KEY);
        mem.write(3, &[7; CACHELINE_BYTES]);
        let image = mem.tree().line(0, 0).unwrap().encode();
        let snap = save_memory(&mem);

        // Flip bit 300 of the image inside the LEVELS payload and re-seal
        // the section checksum.
        let (_, levels) = sections(&snap)[4];
        let mut levels = levels.to_vec();
        let line = levels.windows(64).position(|w| w == image).unwrap();
        levels[line + 300 / 8] ^= 1 << (300 % 8);
        let snap = with_section(&snap, SEC_LEVELS, &levels);
        assert_eq!(
            recover(&snap, &[]).unwrap_err(),
            RecoveryError::MalformedLine(CodecError::NonCanonical { bit: 300 })
        );
    }

    /// The `(tag, payload)` sections of an `MTSN` file, read through the
    /// codec.
    fn sections(image: &[u8]) -> Vec<(u32, &[u8])> {
        let mut r = ByteReader::new(image);
        SNAPSHOT.read(&mut r).unwrap();
        let mut sections = Vec::new();
        while !r.is_exhausted() {
            sections.push(codec::read_any_section(&mut r).unwrap());
        }
        sections
    }

    /// `image` (an `MTSN` file) with the payload of section `tag` replaced
    /// by `payload` and the section's checksum re-sealed.
    fn with_section(image: &[u8], tag: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        SNAPSHOT.write(&mut out);
        for (this, body) in sections(image) {
            write_section(&mut out, this, if this == tag { payload } else { body });
        }
        out
    }

    /// One indexed run as the writers frame it: count, then each index
    /// followed by its bytes.
    fn indexed(w: &mut ByteWriter, entries: &[(u64, Vec<u8>)]) {
        w.u64(entries.len() as u64);
        for (index, bytes) in entries {
            w.u64(*index);
            w.bytes(bytes);
        }
    }

    fn levels_payload(levels: &[Vec<(u64, Vec<u8>)>]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(levels.len() as u32);
        for entries in levels {
            indexed(&mut w, entries);
        }
        w.into_bytes()
    }

    fn level_entries(stores: &[crate::store::PagedStore<crate::counters::Line>]) -> Vec<Vec<(u64, Vec<u8>)>> {
        stores
            .iter()
            .map(|store| store.iter().map(|(i, line)| (i, line.encode().to_vec())).collect())
            .collect()
    }

    #[test]
    fn out_of_order_and_duplicate_indices_are_refused() {
        // Each forged section differs from the writer's only in entry
        // order: the ascending rebuild reproduces the file byte for byte,
        // and both forgeries trip at the second entry.
        let mut mem = SecureMemory::new(TreeConfig::morphtree(), MIB, KEY);
        for i in 0..40u64 {
            mem.write(i * 300, &[i as u8; CACHELINE_BYTES]);
        }
        let snap = save_memory(&mem);
        let data: Vec<(u64, Vec<u8>)> =
            mem.data_store().iter().map(|(i, c)| (i, c.to_vec())).collect();
        let macs: Vec<(u64, Vec<u8>)> =
            mem.mac_store().iter().map(|(i, m)| (i, m.to_le_bytes().to_vec())).collect();
        let levels = level_entries(mem.tree().stores());
        assert!(data.len() > 1 && macs.len() > 1 && levels[0].len() > 1);

        let descending = |mut entries: Vec<(u64, Vec<u8>)>| {
            entries.reverse();
            entries
        };
        let duplicated = |mut entries: Vec<(u64, Vec<u8>)>| {
            entries.insert(1, entries[0].clone());
            entries
        };
        let flat = |entries: &[(u64, Vec<u8>)]| {
            let mut w = ByteWriter::new();
            indexed(&mut w, entries);
            w.into_bytes()
        };
        let with_level0 = |levels: &[Vec<(u64, Vec<u8>)>], entries| {
            let mut levels = levels.to_vec();
            levels[0] = entries;
            levels_payload(&levels)
        };
        // The offending index sits after the count (and level count) and
        // one whole entry.
        let cases = [
            (SEC_DATA, flat(&data), flat(&descending(data.clone())), 8 + 72),
            (SEC_DATA, flat(&data), flat(&duplicated(data.clone())), 8 + 72),
            (SEC_MACS, flat(&macs), flat(&descending(macs.clone())), 8 + 16),
            (SEC_MACS, flat(&macs), flat(&duplicated(macs.clone())), 8 + 16),
            (
                SEC_LEVELS,
                levels_payload(&levels),
                with_level0(&levels, descending(levels[0].clone())),
                4 + 8 + 72,
            ),
            (
                SEC_LEVELS,
                levels_payload(&levels),
                with_level0(&levels, duplicated(levels[0].clone())),
                4 + 8 + 72,
            ),
        ];
        for (tag, canonical, forged, offset) in cases {
            assert_eq!(with_section(&snap, tag, &canonical), snap);
            let forged = with_section(&snap, tag, &forged);
            assert_eq!(
                load_memory(&forged).unwrap_err(),
                RecoveryError::CorruptSnapshot { offset },
                "section {tag}",
            );
            assert!(recover(&forged, &[]).is_err(), "section {tag}");
        }
    }

    /// The strict sharded recovery `morphtree prove` runs: no WALs, and
    /// every shard must recover.
    fn recover_container(bytes: &[u8]) -> Result<ShardedMemory, RecoveryError> {
        recover_sharded_bounded::<&[u8]>(bytes, &[]).and_then(ShardedRecovery::into_memory)
    }

    fn populated_sharded(shards: usize) -> ShardedMemory {
        let mut memory =
            ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, shards).unwrap();
        for i in 0..60u64 {
            memory.write(i * 251 % memory.plan().data_lines(), &[i as u8; CACHELINE_BYTES]);
        }
        memory
    }

    #[test]
    fn sharded_snapshot_roundtrips_and_is_deterministic() {
        for shards in [1usize, 3, 8] {
            let mut memory = populated_sharded(shards);
            let root = memory.combined_root();
            let snap = save_sharded(&memory);
            let mut restored = recover_container(&snap).unwrap();
            assert_eq!(restored.plan(), memory.plan(), "{shards} shards");
            assert_eq!(restored.combined_root(), root, "{shards} shards");
            for i in 0..60u64 {
                let line = i * 251 % memory.plan().data_lines();
                assert_eq!(restored.read(line).unwrap(), memory.read(line).unwrap());
            }
            restored.verify_all().unwrap();
            assert_eq!(save_sharded(&restored), snap, "{shards} shards: not deterministic");
        }
    }

    #[test]
    fn sharded_container_errors_are_typed() {
        let memory = populated_sharded(4);
        let snap = save_sharded(&memory);

        assert_eq!(recover_container(b"nope").unwrap_err(), RecoveryError::BadMagic);
        // A plain MTSN snapshot is the one-shard image.
        let plain = save_memory(memory.shard(0));
        let one = recover_container(&plain).unwrap();
        assert_eq!(one.plan().shards(), 1);
        assert_eq!(save_sharded(&one), plain);

        // Truncation anywhere is typed, never a panic.
        for cut in (0..snap.len()).step_by(7) {
            assert!(recover_container(&snap[..cut]).is_err(), "cut {cut} must not recover");
        }

        // An impossible header partition is a ShardPlan error: set the
        // declared shard count to zero and fix the header checksum.
        let mut zero_shards = snap.clone();
        let header_payload = 8 + 4 + 8; // after magic+version and tag+len
        zero_shards[header_payload + 8..header_payload + 12].copy_from_slice(&0u32.to_le_bytes());
        let header_len = 8 + 4 + 16;
        let crc = fnv1a(&zero_shards[header_payload..header_payload + header_len]);
        zero_shards[header_payload + header_len..header_payload + header_len + 8]
            .copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            recover_container(&zero_shards).unwrap_err(),
            RecoveryError::ShardPlan(ShardError::ZeroShards)
        );
    }

    #[test]
    fn forged_shard_counts_are_refused_before_reserving() {
        // A 56-byte container whose checksummed header declares 1 TiB in
        // `shards` shards and carries none of them. The count is refused
        // at its offset in the header before a slot per shard is reserved
        // (u32::MAX slots once aborted the process).
        for shards in [100_000_000u32, u32::MAX] {
            let mut forged = Vec::new();
            SHARDED.write(&mut forged);
            let mut w = ByteWriter::new();
            w.u64(MAX_MEMORY_BYTES);
            w.u32(shards);
            w.bytes(&KEY);
            write_section(&mut forged, SEC_SHARD_HEADER, &w.into_bytes());
            assert_eq!(forged.len(), 56);
            let refused = Some(RecoveryError::CorruptSnapshot { offset: 8 });
            assert_eq!(verify_shards(&forged).err(), refused, "{shards} shards");
            let no_wals: [&[u8]; 0] = [];
            let bounded = recover_sharded_bounded(&forged, &no_wals).err();
            assert_eq!(bounded, refused, "{shards} shards");
        }
    }

    #[test]
    fn sharded_recovery_refuses_blended_tenants() {
        // Splice shard sections from a different tenant key into a valid
        // container: every framing checksum still passes, but the derived
        // keys cannot match the header's tenant key.
        let ours = populated_sharded(2);
        let mut theirs = ShardedMemory::new(TreeConfig::morphtree(), MIB, [9u8; 16], 2).unwrap();
        theirs.write(0, &[1; CACHELINE_BYTES]);

        let mut blended = Vec::new();
        blended.extend_from_slice(&MAGIC_SHARDED);
        blended.extend_from_slice(&VERSION.to_le_bytes());
        let mut w = ByteWriter::new();
        w.u64(ours.plan().memory_bytes());
        w.u32(ours.plan().shards() as u32);
        w.bytes(&ours.tenant_key());
        write_section(&mut blended, SEC_SHARD_HEADER, &w.into_bytes());
        write_section(&mut blended, SEC_SHARD, &save_memory(theirs.shard(0)));
        write_section(&mut blended, SEC_SHARD, &save_memory(theirs.shard(1)));

        assert_eq!(
            recover_container(&blended).unwrap_err(),
            RecoveryError::ShardMismatch { shard: 0 }
        );
        let reports = verify_shards(&blended).unwrap();
        for (shard, report) in reports.iter().enumerate() {
            assert_eq!(report.status, Err(RecoveryError::ShardMismatch { shard }));
        }
    }

    #[test]
    fn sharded_recovery_refuses_wrong_geometry() {
        // Header claims 2 shards over MIB, but the embedded shards were cut
        // for a different partition width.
        let donor = populated_sharded(4);
        let mut wrong = Vec::new();
        wrong.extend_from_slice(&MAGIC_SHARDED);
        wrong.extend_from_slice(&VERSION.to_le_bytes());
        let mut w = ByteWriter::new();
        w.u64(donor.plan().memory_bytes());
        w.u32(2);
        w.bytes(&donor.tenant_key());
        write_section(&mut wrong, SEC_SHARD_HEADER, &w.into_bytes());
        write_section(&mut wrong, SEC_SHARD, &save_memory(donor.shard(0)));
        write_section(&mut wrong, SEC_SHARD, &save_memory(donor.shard(1)));
        assert_eq!(
            recover_container(&wrong).unwrap_err(),
            RecoveryError::ShardMismatch { shard: 0 }
        );
    }

    #[test]
    fn sharded_recovery_verifies_every_shard() {
        let mut memory = populated_sharded(2);
        let victim = memory.plan().shard_base(1);
        memory.write(victim, &[7; CACHELINE_BYTES]);
        memory.tamper_raw(victim, 3, 0xff).unwrap();
        let snap = save_sharded(&memory);
        let rec = recover_sharded_bounded::<&[u8]>(&snap, &[]).unwrap();
        assert!(rec.shards[0].outcome.is_ok());
        // Shard-local coordinates: the victim is shard 1's first line.
        let tampered = RecoveryError::Integrity(IntegrityError::DataMac { line_addr: 0 });
        assert_eq!(rec.shards[1].outcome.as_ref().unwrap_err(), &tampered);
        assert_eq!(rec.into_memory().unwrap_err(), tampered);
    }

    #[test]
    fn oversized_declared_memory_is_corruption_not_oom() {
        let mem = SecureMemory::new(TreeConfig::sc64(), MIB, KEY);
        let snap = save_memory(&mem);
        // STATE is the second section; its payload starts after the CONFIG
        // section. Find it by parsing the real layout.
        let mut r = ByteReader::new(&snap);
        r.bytes(8).unwrap(); // magic + version
        let _ = read_section(&mut r, SEC_CONFIG).unwrap();
        let state_payload_at = r.offset() + 4 + 8;
        let mut huge = snap.clone();
        huge[state_payload_at..state_payload_at + 8]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        // Fix the section checksum so only the size check can reject it.
        let state_len = 8 + 16 + 8;
        let crc = fnv1a(&huge[state_payload_at..state_payload_at + state_len]);
        huge[state_payload_at + state_len..state_payload_at + state_len + 8]
            .copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            load_memory(&huge).unwrap_err(),
            RecoveryError::CorruptSnapshot { .. }
        ));
    }

    #[test]
    fn root_artifact_round_trips() {
        for root in [0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX] {
            let bytes = save_root(root);
            assert_eq!(bytes.len(), 24);
            assert_eq!(load_root(&bytes).unwrap(), root);
        }
    }

    #[test]
    fn root_artifact_rejects_every_single_byte_flip() {
        let bytes = save_root(0x1234_5678_9abc_def0);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(load_root(&bad).is_err(), "flip at byte {i} accepted");
        }
        // Truncation and trailing garbage are typed errors too.
        assert!(matches!(
            load_root(&bytes[..bytes.len() - 1]).unwrap_err(),
            RecoveryError::Truncated { .. }
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            load_root(&long).unwrap_err(),
            RecoveryError::CorruptSnapshot { .. }
        ));
        assert!(matches!(load_root(b"MTSN....").unwrap_err(), RecoveryError::BadMagic));
    }
}
