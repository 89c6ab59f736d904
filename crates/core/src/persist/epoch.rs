//! Epoch-bounded persistence: seal records, bounded recovery, and the
//! degraded (quarantine) serving mode for sharded memories.
//!
//! # Why epochs
//!
//! The base [`recover`](super::recover) path replays *every* committed WAL
//! transaction and then re-verifies the *entire* tree bottom-up, so its
//! cost grows with history length and memory size. Epoch-based lazy
//! persistence (Phoenix; Freij et al.'s coalesced integrity-tree updates)
//! bounds both: mutations accumulate in a bounded epoch as a coalesced
//! dirty-line delta, and an [`EpochSeal`] record durably pins the tree
//! root at each epoch boundary. Recovery then anchors on the last seal —
//! it replays only the open epoch's WAL suffix and re-verifies only the
//! data lines that suffix touched, falling back to the full bottom-up
//! path only when the seal itself fails its keyed MAC check.
//!
//! # The epoch cut
//!
//! [`EpochMemory`] (one tree) and [`EpochShardedMemory`] (a
//! [`ShardedMemory`] with one WAL per shard) both journal every mutation
//! eagerly — post-images land in the WAL as committed transactions the
//! instant they happen — while a separate *sealed base* copy of the state
//! trails behind by at most one epoch. An epoch cut:
//!
//! 1. folds the open epoch's coalesced dirty set into the sealed base
//!    (cost proportional to the delta, not the memory),
//! 2. atomically replaces the durable `(snapshot, WAL)` pair with the
//!    folded snapshot and an empty log (modeled in memory; a file-backed
//!    deployment gets the same atomicity from tmp+rename, exactly as the
//!    CLI checkpoint path already does), and
//! 3. appends seal records pinning the post-cut roots.
//!
//! The sharded cut is two-phase so a crash *between* per-shard seals is
//! always detected: phase one folds and appends a [`SealPhase::Prepare`]
//! seal on every shard, then the engine recombines the cross-shard top
//! root **once** (this is the only recombination the epoch performs —
//! batches between cuts leave the top stale on purpose), and phase two
//! appends a [`SealPhase::Commit`] seal carrying that combined root to
//! every shard. Recovery resolves a torn cut to the last epoch every
//! healthy shard agrees on and flags it ([`ShardedRecovery::mid_cut`]).
//!
//! # Degraded mode
//!
//! [`recover_sharded_bounded`] never lets one bad shard take down the
//! tenant: a shard whose snapshot, WAL, or verification fails is
//! *quarantined* — its slot is filled with an empty placeholder, reads
//! and writes on it refuse with [`RecoveryError::ShardQuarantined`], and
//! the remaining shards keep serving through
//! [`DegradedShardedMemory`]. Only when *every* shard fails does recovery
//! return a hard error.
//!
//! # What a forged seal can and cannot do
//!
//! Seals are MAC'd with a domain-separated key derived from the tree's
//! construction key, so an adversary who controls the persisted bytes but
//! not the key cannot mint a seal that verifies. Flipping bits in a seal
//! merely downgrades recovery to the full bottom-up path (or quarantines
//! the shard) — it never makes a recovered memory *serve* corrupted state,
//! because the bounded path re-verifies every touched line against the
//! keyed counter-tree chain and the untouched remainder is pinned by the
//! sealed root digest the MAC covers: an untouched line loads unverified
//! and is checked on its first read, as it would be in DRAM.

use std::collections::BTreeSet;

use morphtree_crypto::MacKey;

use crate::concurrent::{fold_digests, Op, OpOutcome, ShardPlan, ShardedMemory};
use crate::counters::CounterLine;
use crate::error::IntegrityError;
use crate::error::ShardError;
use crate::functional::{MutationJournal, SecureMemory, VerifyPlan};
use crate::tree::TreeConfig;
use crate::CACHELINE_BYTES;

use super::codec::{read_checksum, write_checksum, ByteReader, ByteWriter};
use super::wal::{replay_epochs, WalRecord, WalWriter};
use super::{
    apply_wal_txn, load_memory, parse_sharded, save_memory, write_sharded, RecoveryError,
};

/// Which half of the two-phase epoch cut a seal records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SealPhase {
    /// The shard folded its open epoch and pinned its own subtree root;
    /// the cross-shard combined root is not yet known (the seal's
    /// `combined_root` mirrors `root_digest`).
    Prepare = 0,
    /// Every shard prepared; this seal pins the recombined cross-shard
    /// top root alongside the shard's own.
    Commit = 1,
}

/// A durable epoch-boundary record: pins a subtree root (and, at
/// [`SealPhase::Commit`], the cross-shard combined root) under a keyed
/// MAC so bounded recovery can trust the sealed base without re-verifying
/// it.
///
/// Wire layout (fixed [`EpochSeal::ENCODED_LEN`] bytes, little-endian):
/// `epoch u64 | phase u8 | root_digest u64 | combined_root u64 | mac u64
/// | fnv1a64(all preceding) u64`. The trailing checksum catches
/// accidental damage with a typed error; the MAC defends against
/// deliberate forgery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSeal {
    /// The epoch this seal closes (strictly monotonic per shard WAL).
    pub epoch: u64,
    /// Which half of the two-phase cut this is.
    pub phase: SealPhase,
    /// The shard's subtree root digest after the cut's fold.
    pub root_digest: u64,
    /// The cross-shard combined root MAC (mirrors `root_digest` for
    /// [`SealPhase::Prepare`] and single-tree seals).
    pub combined_root: u64,
    /// Keyed MAC over the fields above (see [`EpochSeal::verify`]).
    pub mac: u64,
}

/// Domain-separated seal MAC: a distinct key (so seal MACs can never be
/// confused with counter-line or top-fold MACs) over a canonical 64-byte
/// block holding the seal's identity and pinned roots.
fn seal_mac(key: [u8; 16], epoch: u64, phase: SealPhase, root: u64, combined: u64) -> u64 {
    let mut seed = key;
    seed[1] ^= 0xe7;
    let mut block = [0u8; CACHELINE_BYTES];
    block[0..4].copy_from_slice(b"MTEP");
    block[4] = phase as u8;
    block[8..16].copy_from_slice(&epoch.to_le_bytes());
    block[16..24].copy_from_slice(&root.to_le_bytes());
    block[24..32].copy_from_slice(&combined.to_le_bytes());
    MacKey::new(seed)
        .mac_line(epoch.wrapping_mul(CACHELINE_BYTES as u64), phase as u64, &block)
        .0
}

impl EpochSeal {
    /// Encoded size on the wire (the WAL frames seals at this fixed
    /// length).
    pub const ENCODED_LEN: usize = 8 + 1 + 8 + 8 + 8 + 8;

    /// Builds a seal for `epoch`/`phase` pinning `root_digest` and
    /// `combined_root`, MAC'd under (a domain separation of) `key`.
    #[must_use]
    pub fn new(
        key: [u8; 16],
        epoch: u64,
        phase: SealPhase,
        root_digest: u64,
        combined_root: u64,
    ) -> Self {
        EpochSeal {
            epoch,
            phase,
            root_digest,
            combined_root,
            mac: seal_mac(key, epoch, phase, root_digest, combined_root),
        }
    }

    /// Whether the seal's MAC proves it was minted under `key`. A `false`
    /// here is not an error — recovery degrades to the full path.
    #[must_use]
    pub fn verify(&self, key: [u8; 16]) -> bool {
        self.mac == seal_mac(key, self.epoch, self.phase, self.root_digest, self.combined_root)
    }

    /// Serializes the seal (see the type docs for the layout).
    #[must_use]
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut w = ByteWriter::new();
        w.u64(self.epoch);
        w.u8(self.phase as u8);
        w.u64(self.root_digest);
        w.u64(self.combined_root);
        w.u64(self.mac);
        let mut out = w.into_bytes();
        write_checksum(&mut out, 0);
        let mut image = [0u8; Self::ENCODED_LEN];
        image.copy_from_slice(&out);
        image
    }

    /// Deserializes a seal image.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Truncated`] when `bytes` is shorter than
    /// [`EpochSeal::ENCODED_LEN`]; [`RecoveryError::CorruptSeal`] for a
    /// bad phase code, checksum mismatch, or trailing bytes. (An intact
    /// seal whose *MAC* is wrong decodes fine — forgery is detected by
    /// [`EpochSeal::verify`], not here.)
    pub fn decode(bytes: &[u8]) -> Result<Self, RecoveryError> {
        let mut r = ByteReader::new(bytes);
        let epoch = r.u64()?;
        let phase_offset = r.offset();
        let phase = match r.u8()? {
            0 => SealPhase::Prepare,
            1 => SealPhase::Commit,
            _ => return Err(RecoveryError::CorruptSeal { offset: phase_offset }),
        };
        let root_digest = r.u64()?;
        let combined_root = r.u64()?;
        let mac = r.u64()?;
        let crc_offset = r.offset();
        read_checksum(&mut r, 0, 0).map_err(|err| match err {
            RecoveryError::ChecksumMismatch { .. } => {
                RecoveryError::CorruptSeal { offset: crc_offset }
            }
            other => other,
        })?;
        if !r.is_exhausted() {
            return Err(RecoveryError::CorruptSeal { offset: r.offset() });
        }
        Ok(EpochSeal { epoch, phase, root_digest, combined_root, mac })
    }
}

/// How much work a bounded recovery actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// The WAL held a valid seal and nothing after it: recovery restored
    /// the snapshot and checked one root digest. Constant work.
    CleanShutdown,
    /// The WAL held a valid seal plus an open-epoch suffix: recovery
    /// replayed the suffix and re-verified only the lines it touched.
    Bounded,
    /// No usable seal (absent, forged, or disagreeing with the restored
    /// root): full replay plus full bottom-up verification, the same work
    /// as the full-replay reference [`recover`](super::recover).
    Full,
}

impl std::fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryMode::CleanShutdown => "clean-shutdown",
            RecoveryMode::Bounded => "bounded",
            RecoveryMode::Full => "full",
        })
    }
}

/// Which re-verification pass a seal-anchored recovery ran after replay.
///
/// Bounded recovery normally proves only the suffix's touched lines, but
/// when nearly every stored line was touched (short history, dense
/// suffix) the touched-line pass plus its deduplicated ancestor chains
/// can exceed a plain bottom-up sweep. [`recover_bounded`] compares the
/// two verification plans' exact MAC counts (the touched lines' plan vs
/// the whole-memory plan's — cheap integer work) and runs the cheaper
/// one, so bounded recovery is never slower than full verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyStrategy {
    /// Clean shutdown: the sealed root pins everything, nothing re-proved.
    None,
    /// Touched data lines + deduplicated ancestor counter lines.
    TouchedLines,
    /// Whole-store bottom-up sweep (cheaper when the suffix touched
    /// almost everything).
    FullSweep,
}

impl std::fmt::Display for VerifyStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerifyStrategy::None => "none",
            VerifyStrategy::TouchedLines => "touched-lines",
            VerifyStrategy::FullSweep => "full-sweep",
        })
    }
}

/// Accounting from one [`recover_bounded`] run — the quantities the
/// acceptance tests pin (clean shutdown does constant work; a crash
/// replays and verifies only the open epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Which path recovery took.
    pub mode: RecoveryMode,
    /// Epoch of the anchor seal (0 when recovery ran the full path).
    pub sealed_epoch: u64,
    /// Highest epoch with a MAC-valid [`SealPhase::Commit`] seal in the
    /// WAL (0 if none).
    pub committed_epoch: u64,
    /// Highest epoch with any MAC-valid seal in the WAL (0 if none). A
    /// `prepared_epoch > committed_epoch` means the log ends mid-cut.
    pub prepared_epoch: u64,
    /// Committed WAL transactions replayed.
    pub replayed_txns: usize,
    /// Individual post-image records replayed.
    pub replayed_records: usize,
    /// Data lines re-verified after replay. On the full path this is the
    /// whole data store; on the bounded path, only the suffix's touched
    /// lines; on clean shutdown, zero.
    pub verified_lines: usize,
    /// Whether a seal was present but unusable (MAC forged or root
    /// disagreement), forcing the full-path downgrade.
    pub seal_fallback: bool,
    /// Which re-verification pass ran (crossover-selected on the
    /// seal-anchored path; always [`VerifyStrategy::FullSweep`] on the
    /// full path).
    pub verify_strategy: VerifyStrategy,
}

/// Rebuilds a memory from `(snapshot, WAL)` doing work bounded by the
/// open epoch, not the history.
///
/// Anchors on the last seal in the WAL: if its MAC verifies and the
/// restored root matches its pinned digest, only the post-seal suffix is
/// replayed and only the data lines that suffix touched are re-verified
/// (each [`SecureMemory::read`] proves the line's MAC and its whole
/// counter chain up to the root). A missing, forged, or disagreeing seal
/// downgrades to the full [`recover`](super::recover)-equivalent path —
/// never to silent acceptance.
///
/// # Errors
///
/// Snapshot problems from [`load_memory`], [`RecoveryError::CorruptWal`]
/// for damaged log records, range errors for records outside the
/// geometry, and [`RecoveryError::Integrity`] when the restored state
/// fails (bounded or full) verification.
pub fn recover_bounded(
    snapshot: &[u8],
    wal_bytes: &[u8],
) -> Result<(SecureMemory, RecoveryStats), RecoveryError> {
    let mut mem = load_memory(snapshot)?;
    let key = mem.key();
    let epochs = replay_epochs(wal_bytes)?;

    let mut committed_epoch = 0u64;
    let mut prepared_epoch = 0u64;
    for point in &epochs.seals {
        if point.seal.verify(key) {
            prepared_epoch = prepared_epoch.max(point.seal.epoch);
            if point.seal.phase == SealPhase::Commit {
                committed_epoch = committed_epoch.max(point.seal.epoch);
            }
        }
    }

    let mut replayed_txns = 0usize;
    let mut replayed_records = 0usize;
    let mut seal_fallback = false;
    let mut next_txn = 0usize;

    // Anchor on the last seal, if it proves out.
    let mut anchor = None;
    match epochs.seals.last() {
        None => {}
        Some(point) if point.seal.verify(key) => {
            // Replay anything logged before the seal (an epoch cut clears
            // the log, so this is empty in every state the writers here
            // produce — but a generic log is handled, not assumed).
            for txn in &epochs.txns[..point.txns_before] {
                apply_wal_txn(&mut mem, txn)?;
                replayed_txns += 1;
                replayed_records += txn.records.len();
            }
            next_txn = point.txns_before;
            if mem.root_digest() == point.seal.root_digest {
                anchor = Some(point.seal);
            } else {
                // The seal was minted under our key but the restored state
                // is not the state it pinned: downgrade and prove
                // everything.
                seal_fallback = true;
            }
        }
        Some(_) => seal_fallback = true,
    }

    match anchor {
        Some(seal) => {
            let mut touched = BTreeSet::new();
            for txn in &epochs.txns[next_txn..] {
                apply_wal_txn(&mut mem, txn)?;
                replayed_txns += 1;
                replayed_records += txn.records.len();
                for record in &txn.records {
                    if let WalRecord::DataLine { line, .. } = record {
                        touched.insert(*line);
                    }
                }
            }
            // Re-prove what the suffix could have corrupted: the batched
            // touched-line pass (data MACs + deduplicated ancestor
            // chains) by default, or a full bottom-up sweep when the
            // exact MAC-count comparison says the sweep is cheaper —
            // untouched lines stay pinned by the sealed root either way.
            let touched_lines: Vec<u64> = touched.iter().copied().collect();
            let verify_strategy = if touched_lines.is_empty() {
                VerifyStrategy::None
            } else {
                let lines_plan = VerifyPlan::lines(&mem, &touched_lines);
                let all_plan = VerifyPlan::All(&mem);
                let (plan, strategy) = if lines_plan.cost() <= all_plan.cost() {
                    (lines_plan, VerifyStrategy::TouchedLines)
                } else {
                    (all_plan, VerifyStrategy::FullSweep)
                };
                plan.run().map_err(RecoveryError::Integrity)?;
                strategy
            };
            let verified_lines = match verify_strategy {
                VerifyStrategy::None => 0,
                VerifyStrategy::TouchedLines => touched.len(),
                VerifyStrategy::FullSweep => mem.data_store().len() as usize,
            };
            let mode = if replayed_txns == 0 {
                RecoveryMode::CleanShutdown
            } else {
                RecoveryMode::Bounded
            };
            Ok((
                mem,
                RecoveryStats {
                    mode,
                    sealed_epoch: seal.epoch,
                    committed_epoch,
                    prepared_epoch,
                    replayed_txns,
                    replayed_records,
                    verified_lines,
                    seal_fallback,
                    verify_strategy,
                },
            ))
        }
        None => {
            for txn in &epochs.txns[next_txn..] {
                apply_wal_txn(&mut mem, txn)?;
                replayed_txns += 1;
                replayed_records += txn.records.len();
            }
            mem.verify_all().map_err(RecoveryError::Integrity)?;
            let verified_lines = mem.data_store().len() as usize;
            Ok((
                mem,
                RecoveryStats {
                    mode: RecoveryMode::Full,
                    sealed_epoch: 0,
                    committed_epoch,
                    prepared_epoch,
                    replayed_txns,
                    replayed_records,
                    verified_lines,
                    seal_fallback,
                    verify_strategy: VerifyStrategy::FullSweep,
                },
            ))
        }
    }
}

/// One shard's persistence state: the durable sealed base trailing the
/// live tree by at most one epoch, the open epoch's WAL, and the
/// coalesced dirty sets that turn a cut into delta-sized work.
#[derive(Debug, Clone)]
struct ShardLog {
    /// State as of the last epoch cut — what the durable snapshot holds.
    sealed: SecureMemory,
    /// The open epoch's log (cleared at each cut; seals live here too).
    wal: WalWriter,
    next_seq: u64,
    /// Data lines written since the last cut (coalesced: a line written
    /// ten times folds once).
    pending_data: BTreeSet<u64>,
    /// Counter lines `(level, line_idx)` touched since the last cut.
    pending_counters: BTreeSet<(usize, u64)>,
    /// Reencryption count as of the last logged [`WalRecord::Stats`] (or
    /// the sealed base) — replaying line post-images alone cannot
    /// reconstruct this monotonic counter, so changes are journaled.
    logged_reencryptions: u64,
}

impl ShardLog {
    fn new(sealed: SecureMemory) -> Self {
        let logged_reencryptions = sealed.reencryptions();
        ShardLog {
            sealed,
            wal: WalWriter::new(),
            next_seq: 1,
            pending_data: BTreeSet::new(),
            pending_counters: BTreeSet::new(),
            logged_reencryptions,
        }
    }

    /// Logs one committed transaction holding `journal`'s post-images
    /// (read from `live`) and merges the journal into the pending sets.
    fn log_journal(&mut self, live: &SecureMemory, journal: &MutationJournal) {
        if journal.data_lines.is_empty() && journal.counter_lines.is_empty() {
            return;
        }
        let seq = self.next_seq;
        self.wal.append(&WalRecord::Begin { seq });
        for &line in &journal.data_lines {
            if let Some((ciphertext, mac)) = live.data_line_state(line) {
                self.wal.append(&WalRecord::DataLine { line, ciphertext, mac });
            }
        }
        for &(level, line_idx) in &journal.counter_lines {
            if let Some(line) = live.tree().line(level, line_idx) {
                self.wal.append(&WalRecord::CounterLine {
                    level: level as u32,
                    line_idx,
                    image: line.encode(),
                });
            }
        }
        if live.reencryptions() != self.logged_reencryptions {
            self.wal.append(&WalRecord::Stats { reencryptions: live.reencryptions() });
            self.logged_reencryptions = live.reencryptions();
        }
        self.wal.append(&WalRecord::Commit { seq });
        self.next_seq += 1;
        self.pending_data.extend(journal.data_lines.iter().copied());
        self.pending_counters.extend(journal.counter_lines.iter().copied());
    }

    /// Folds the open epoch's coalesced post-images into the sealed base
    /// in place — cost proportional to the delta, not the memory.
    fn fold(&mut self, live: &SecureMemory) {
        for &line in &self.pending_data {
            if let Some((ciphertext, mac)) = live.data_line_state(line) {
                self.sealed.restore_data_line(line, ciphertext, mac);
            }
        }
        for &(level, line_idx) in &self.pending_counters {
            if let Some(line) = live.tree().line(level, line_idx) {
                self.sealed.tree_mut().insert(level, line_idx, *line);
            }
        }
        self.sealed.set_reencryptions(live.reencryptions());
        self.logged_reencryptions = live.reencryptions();
        self.pending_data.clear();
        self.pending_counters.clear();
    }

    /// The state the next cut would make durable, without disturbing this
    /// log — the crash campaign uses it to stage mid-cut snapshots.
    fn folded(&self, live: &SecureMemory) -> SecureMemory {
        let mut copy = self.clone();
        copy.fold(live);
        copy.sealed
    }

    /// Appends a seal pinning the sealed base's current root. `combined`
    /// defaults to the shard's own root for Prepare and single-tree seals.
    fn seal(&mut self, epoch: u64, phase: SealPhase, combined: Option<u64>) {
        let root = self.sealed.root_digest();
        let seal =
            EpochSeal::new(self.sealed.key(), epoch, phase, root, combined.unwrap_or(root));
        self.wal.append(&WalRecord::Seal(seal));
    }

    /// The cut step: fold the open epoch, swap in an empty log, and pin
    /// the folded root with a `phase` seal (Commit for a single tree,
    /// Prepare for phase one of the sharded cut). The durable
    /// `(snapshot, WAL)` replacement is modeled as atomic (tmp+rename in
    /// a file-backed deployment).
    fn cut(&mut self, live: &SecureMemory, epoch: u64, phase: SealPhase) {
        self.fold(live);
        self.wal.clear();
        self.next_seq = 1;
        self.seal(epoch, phase, None);
    }
}

/// A single [`SecureMemory`] with epoch-bounded persistence: the
/// single-tree counterpart of [`EpochShardedMemory`] (no cross-shard
/// coordination, so cuts use a lone [`SealPhase::Commit`] seal).
#[derive(Debug, Clone)]
pub struct EpochMemory {
    live: SecureMemory,
    log: ShardLog,
    epoch: u64,
    epoch_ops: u64,
    ops_in_epoch: u64,
}

impl EpochMemory {
    /// Creates a fresh epoch-journaled memory sealing epoch 0 (the empty
    /// initial state is durable by construction). `epoch_ops` is the
    /// auto-cut threshold; 0 means cuts are manual ([`EpochMemory::cut`]).
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is zero or not cacheline-aligned.
    #[must_use]
    pub fn new(config: TreeConfig, memory_bytes: u64, key: [u8; 16], epoch_ops: u64) -> Self {
        EpochMemory::from_memory(SecureMemory::new(config, memory_bytes, key), epoch_ops)
    }

    /// Journals an existing memory (one just populated or recovered),
    /// sealing it as epoch 0. The WAL starts with that seal: the caller
    /// pairs it with a [`save_memory`] of `memory` taken at this point,
    /// which is what [`EpochMemory::sealed_snapshot`] returns until the
    /// first cut.
    #[must_use]
    pub fn from_memory(mut memory: SecureMemory, epoch_ops: u64) -> Self {
        memory.begin_journal();
        let mut log = ShardLog::new(memory.clone());
        log.seal(0, SealPhase::Commit, None);
        EpochMemory { live: memory, log, epoch: 0, epoch_ops, ops_in_epoch: 0 }
    }

    /// Writes a line: the mutation is logged eagerly as one committed WAL
    /// transaction, and the epoch auto-cuts at the configured threshold.
    pub fn write(&mut self, data_line: u64, plaintext: &[u8; CACHELINE_BYTES]) {
        self.live.write(data_line, plaintext);
        let journal = self.live.take_journal();
        self.log.log_journal(&self.live, &journal);
        self.ops_in_epoch += 1;
        if self.epoch_ops > 0 && self.ops_in_epoch >= self.epoch_ops {
            self.cut();
        }
    }

    /// Reads and verifies a line (see [`SecureMemory::read`]).
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] when tampering or replay is detected.
    pub fn read(&self, data_line: u64) -> Result<[u8; CACHELINE_BYTES], IntegrityError> {
        self.live.read(data_line)
    }

    /// Cuts the epoch now: folds the open delta into the sealed base,
    /// clears the log, and seals the new epoch. Returns the new epoch.
    pub fn cut(&mut self) -> u64 {
        self.epoch += 1;
        self.log.cut(&self.live, self.epoch, SealPhase::Commit);
        self.ops_in_epoch = 0;
        self.epoch
    }

    /// The last sealed epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live (unsealed) memory.
    #[must_use]
    pub fn memory(&self) -> &SecureMemory {
        &self.live
    }

    /// The durable snapshot: the sealed base serialized. Pair it with
    /// [`EpochMemory::wal_bytes`] for [`recover_bounded`].
    #[must_use]
    pub fn sealed_snapshot(&self) -> Vec<u8> {
        save_memory(&self.log.sealed)
    }

    /// The open epoch's WAL (starts with the current epoch's seal).
    #[must_use]
    pub fn wal_bytes(&self) -> &[u8] {
        self.log.wal.bytes()
    }
}

/// A [`ShardedMemory`] with per-shard WALs and two-phase epoch cuts: the
/// tentpole writer this module exists for. Batches run with the
/// cross-shard top recombination *deferred* — the combined root is
/// refreshed once per epoch (at the cut), not once per batch.
#[derive(Debug)]
pub struct EpochShardedMemory {
    live: ShardedMemory,
    logs: Vec<ShardLog>,
    epoch: u64,
    epoch_ops: u64,
    ops_in_epoch: u64,
}

impl EpochShardedMemory {
    /// Creates a sharded epoch-journaled memory sealing epoch 0 on every
    /// shard. `epoch_ops` is the auto-cut threshold in applied ops; 0
    /// means cuts are manual.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError`] when the partition is impossible (see
    /// [`ShardedMemory::new`]).
    pub fn new(
        config: TreeConfig,
        memory_bytes: u64,
        key: [u8; 16],
        shards: usize,
        epoch_ops: u64,
    ) -> Result<Self, ShardError> {
        let mut live = ShardedMemory::new(config, memory_bytes, key, shards)?;
        live.begin_journals();
        let combined = live.combined_root();
        let logs: Vec<ShardLog> = (0..live.plan().shards())
            .map(|s| ShardLog::new(live.shard(s).clone()))
            .collect();
        let mut this = EpochShardedMemory { live, logs, epoch: 0, epoch_ops, ops_in_epoch: 0 };
        for log in &mut this.logs {
            log.seal(0, SealPhase::Prepare, None);
        }
        for log in &mut this.logs {
            log.seal(0, SealPhase::Commit, Some(combined));
        }
        Ok(this)
    }

    /// Runs a batch across `threads` worker threads (see
    /// [`ShardedMemory::run_batch`]), journaling every shard's mutations
    /// as one committed WAL transaction per dirtied shard — but *without*
    /// recombining the cross-shard top root: that happens once per epoch,
    /// at the cut. The batch is split at epoch boundaries, so a cut
    /// falls every `epoch_ops` ops however long the batch is, and no
    /// epoch leaves more than `epoch_ops` ops per shard to replay.
    pub fn run_batch(&mut self, ops: &[Op], threads: usize) -> Vec<OpOutcome> {
        let mut outcomes = Vec::with_capacity(ops.len());
        let mut rest = ops;
        loop {
            let room = match self.epoch_ops {
                0 => rest.len(),
                epoch_ops => usize::try_from(epoch_ops.saturating_sub(self.ops_in_epoch))
                    .unwrap_or(usize::MAX),
            };
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            outcomes.extend(self.run_chunk(chunk, threads));
            rest = tail;
            if rest.is_empty() {
                return outcomes;
            }
        }
    }

    /// Runs and journals one chunk of a batch that stays within the open
    /// epoch, cutting when the chunk fills it.
    fn run_chunk(&mut self, ops: &[Op], threads: usize) -> Vec<OpOutcome> {
        let outcomes = self.live.run_batch_deferred(ops, threads);
        let mut journals = Vec::with_capacity(self.logs.len());
        for s in 0..self.logs.len() {
            journals.push(self.live.shard_mut(s).take_journal());
        }
        for (s, journal) in journals.iter().enumerate() {
            self.logs[s].log_journal(self.live.shard(s), journal);
        }
        self.ops_in_epoch += ops.len() as u64;
        if self.epoch_ops > 0 && self.ops_in_epoch >= self.epoch_ops {
            self.cut();
        }
        outcomes
    }

    /// Serial convenience write (routes to the owning shard and journals
    /// it). Auto-cuts at the epoch threshold.
    pub fn write(&mut self, line: u64, data: &[u8; CACHELINE_BYTES]) {
        let shard = self.live.plan().shard_of(line);
        self.live.write(line, data);
        let journal = self.live.shard_mut(shard).take_journal();
        self.logs[shard].log_journal(self.live.shard(shard), &journal);
        self.ops_in_epoch += 1;
        if self.epoch_ops > 0 && self.ops_in_epoch >= self.epoch_ops {
            self.cut();
        }
    }

    /// Reads and verifies a line (global coordinates).
    ///
    /// # Errors
    ///
    /// Returns the detection verdict, in global coordinates.
    pub fn read(&self, line: u64) -> Result<[u8; CACHELINE_BYTES], IntegrityError> {
        self.live.read(line)
    }

    /// Cuts the epoch with the two-phase protocol: every shard folds its
    /// open delta and appends a Prepare seal, the cross-shard top root is
    /// recombined **once**, then every shard appends a Commit seal
    /// carrying the combined root. Returns the combined root.
    pub fn cut(&mut self) -> u64 {
        self.epoch += 1;
        for (s, log) in self.logs.iter_mut().enumerate() {
            log.cut(self.live.shard(s), self.epoch, SealPhase::Prepare);
        }
        // The one recombination this epoch performs.
        let combined = self.live.combined_root();
        for log in &mut self.logs {
            log.seal(self.epoch, SealPhase::Commit, Some(combined));
        }
        self.ops_in_epoch = 0;
        combined
    }

    /// The last sealed epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ops applied since the last cut.
    #[must_use]
    pub fn ops_in_epoch(&self) -> u64 {
        self.ops_in_epoch
    }

    /// The partition in use.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        self.live.plan()
    }

    /// The live sharded memory (audits, oracles).
    #[must_use]
    pub fn memory(&self) -> &ShardedMemory {
        &self.live
    }

    /// Cross-shard top recombinations performed so far (the epoch tests
    /// pin this at one per cut, not one per batch).
    #[must_use]
    pub fn recombines(&self) -> u64 {
        self.live.recombines()
    }

    /// The combined root, recombining if needed. Note: calling this
    /// between cuts performs the recombination the epoch machinery was
    /// deferring — reserve it for end-of-run audits.
    pub fn combined_root(&mut self) -> u64 {
        self.live.combined_root()
    }

    /// The durable sharded snapshot: an `MTSH` container of the sealed
    /// bases. Pair it with [`EpochShardedMemory::wal_bytes`] per shard
    /// for [`recover_sharded_bounded`].
    #[must_use]
    pub fn sealed_container(&self) -> Vec<u8> {
        let sealed = self.logs.iter().map(|log| &log.sealed);
        write_sharded(self.live.plan(), self.live.tenant_key(), sealed)
    }

    /// One shard's open-epoch WAL.
    #[must_use]
    pub fn wal_bytes(&self, shard: usize) -> &[u8] {
        self.logs[shard].wal.bytes()
    }

    /// Every shard's open-epoch WAL, cloned (convenience for recovery
    /// drills).
    #[must_use]
    pub fn wals(&self) -> Vec<Vec<u8>> {
        self.logs.iter().map(|log| log.wal.bytes().to_vec()).collect()
    }

    /// Stages the durable `(container, per-shard WALs)` pair as a crash
    /// *inside* the next cut would leave it: the first `prepared` shards
    /// have completed phase one (folded snapshot, fresh log with a
    /// Prepare seal) and the first `committed` shards also carry the
    /// phase-two Commit seal. The live state is untouched — this is a
    /// pure preview for fault injection.
    ///
    /// # Panics
    ///
    /// Panics when `committed > prepared`, either exceeds the shard
    /// count, or `committed > 0` without every shard prepared (phase two
    /// only starts after phase one finishes everywhere).
    #[must_use]
    pub fn interrupted_cut_state(
        &self,
        prepared: usize,
        committed: usize,
    ) -> (Vec<u8>, Vec<Vec<u8>>) {
        let shards = self.logs.len();
        assert!(prepared <= shards && committed <= prepared, "invalid cut interruption");
        assert!(
            committed == 0 || prepared == shards,
            "phase two starts only after every shard prepared"
        );
        let next = self.epoch + 1;
        let folded: Vec<SecureMemory> = (0..prepared)
            .map(|s| self.logs[s].folded(self.live.shard(s)))
            .collect();
        // The combined root phase two pins: every shard folded (committed
        // > 0 implies prepared == shards, so `folded` covers them all).
        let combined = if committed > 0 {
            let digests: Vec<u64> = folded.iter().map(SecureMemory::root_digest).collect();
            fold_digests(self.live.tenant_key(), &digests)
        } else {
            0
        };

        let bases =
            self.logs.iter().enumerate().map(|(s, log)| folded.get(s).unwrap_or(&log.sealed));
        let container = write_sharded(self.live.plan(), self.live.tenant_key(), bases);

        let mut wals = Vec::with_capacity(shards);
        for (s, log) in self.logs.iter().enumerate() {
            match folded.get(s) {
                Some(state) => {
                    let mut wal = WalWriter::new();
                    let root = state.root_digest();
                    wal.append(&WalRecord::Seal(EpochSeal::new(
                        state.key(),
                        next,
                        SealPhase::Prepare,
                        root,
                        root,
                    )));
                    if s < committed {
                        wal.append(&WalRecord::Seal(EpochSeal::new(
                            state.key(),
                            next,
                            SealPhase::Commit,
                            root,
                            combined,
                        )));
                    }
                    wals.push(wal.bytes().to_vec());
                }
                None => wals.push(log.wal.bytes().to_vec()),
            }
        }
        (container, wals)
    }
}

/// A recovered sharded memory that keeps serving around quarantined
/// shards: reads and writes on a quarantined shard refuse with
/// [`RecoveryError::ShardQuarantined`]; the rest behave normally.
#[derive(Debug)]
pub struct DegradedShardedMemory {
    inner: ShardedMemory,
    quarantined: BTreeSet<usize>,
}

impl DegradedShardedMemory {
    fn new(inner: ShardedMemory, quarantined: BTreeSet<usize>) -> Self {
        DegradedShardedMemory { inner, quarantined }
    }

    /// The partition in use.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        self.inner.plan()
    }

    /// Whether `shard` refused recovery and is quarantined.
    #[must_use]
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.quarantined.contains(&shard)
    }

    /// The quarantined shard indices, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = usize> + '_ {
        self.quarantined.iter().copied()
    }

    /// How many shards are serving.
    #[must_use]
    pub fn healthy_shards(&self) -> usize {
        self.inner.plan().shards() - self.quarantined.len()
    }

    /// Reads and verifies a line (global coordinates), refusing on a
    /// quarantined shard.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::ShardQuarantined`] when the owning shard is
    /// quarantined; [`RecoveryError::Integrity`] when the healthy shard
    /// detects tampering.
    pub fn read(&self, line: u64) -> Result<[u8; CACHELINE_BYTES], RecoveryError> {
        let shard = self.inner.plan().shard_of(line);
        if self.quarantined.contains(&shard) {
            return Err(RecoveryError::ShardQuarantined { shard });
        }
        self.inner.read(line).map_err(RecoveryError::Integrity)
    }

    /// Writes a line (global coordinates), refusing on a quarantined
    /// shard.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::ShardQuarantined`] when the owning shard is
    /// quarantined.
    pub fn write(&mut self, line: u64, data: &[u8; CACHELINE_BYTES]) -> Result<(), RecoveryError> {
        let shard = self.inner.plan().shard_of(line);
        if self.quarantined.contains(&shard) {
            return Err(RecoveryError::ShardQuarantined { shard });
        }
        self.inner.write(line, data);
        Ok(())
    }

    /// One shard's subtree (read-only; quarantined slots hold an empty
    /// placeholder, not recovered state).
    #[must_use]
    pub fn shard(&self, shard: usize) -> &SecureMemory {
        self.inner.shard(shard)
    }

    /// Audits every *healthy* shard bottom-up.
    ///
    /// # Errors
    ///
    /// The first [`IntegrityError`] across healthy shards, in shard order
    /// (data coordinates globalized, as in [`ShardedMemory::verify_all`]).
    pub fn verify_healthy(&self) -> Result<(), IntegrityError> {
        self.inner
            .per_shard(|s, shard| {
                if self.quarantined.contains(&s) {
                    return Ok(());
                }
                shard.verify_all()
            })
            .map(|_| ())
    }

    /// The wrapped sharded memory. Note the combined root over a degraded
    /// memory folds placeholder digests for quarantined slots — meaningful
    /// only relative to other degraded views, never to a sealed root.
    #[must_use]
    pub fn memory(&self) -> &ShardedMemory {
        &self.inner
    }
}

/// One shard's recovery outcome inside a [`ShardedRecovery`].
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// Shard index within the container.
    pub shard: usize,
    /// Bounded-recovery accounting, or the typed failure that quarantined
    /// the shard.
    pub outcome: Result<RecoveryStats, RecoveryError>,
}

/// The result of [`recover_sharded_bounded`]: a (possibly degraded)
/// serving memory plus per-shard diagnostics.
#[derive(Debug)]
pub struct ShardedRecovery {
    /// The recovered memory; quarantined shards refuse, others serve.
    pub memory: DegradedShardedMemory,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardRecovery>,
    /// The epoch every healthy shard is at or beyond — the last epoch the
    /// whole tenant consistently reached (0 when no healthy shard holds a
    /// usable seal).
    pub resolved_epoch: u64,
    /// Whether the crash landed inside a two-phase cut: healthy shards
    /// disagree on their sealed epoch, or some shard prepared an epoch it
    /// never saw committed.
    pub mid_cut: bool,
}

impl ShardedRecovery {
    /// The recovered memory, provided no shard is quarantined: the strict
    /// form for callers that cannot serve a degraded tenant.
    ///
    /// # Errors
    ///
    /// The first quarantined shard's typed failure, in shard order.
    pub fn into_memory(self) -> Result<ShardedMemory, RecoveryError> {
        match self.shards.into_iter().find_map(|r| r.outcome.err()) {
            Some(err) => Err(err),
            None => Ok(self.memory.inner),
        }
    }
}

/// One shard's recovery, or the typed failure that quarantines it.
pub(crate) type ShardOutcome = Result<(SecureMemory, RecoveryStats), RecoveryError>;

/// Parses a sharded image (an `MTSH` container, or an `MTSN` snapshot as
/// its one shard) and recovers its shards one by one, in order, as the
/// returned iterator is driven: [`recover_bounded`] on the shard's section
/// and WAL, then the check that the shard's geometry and key are the ones
/// the header's partition and tenant key derive
/// ([`RecoveryError::ShardMismatch`] otherwise). An empty `wals` slice
/// stands for an empty log on every shard.
///
/// # Errors
///
/// Container framing problems and [`RecoveryError::ShardWalCount`];
/// per-shard failures are the iterator's items.
pub(crate) fn recover_shards<'a, W: AsRef<[u8]>>(
    container: &'a [u8],
    wals: &'a [W],
) -> Result<(ShardPlan, [u8; 16], impl Iterator<Item = ShardOutcome> + 'a), RecoveryError> {
    let (plan, key, sections) = parse_sharded(container)?;
    if !wals.is_empty() && wals.len() != plan.shards() {
        return Err(RecoveryError::ShardWalCount { expected: plan.shards(), got: wals.len() });
    }
    let outcomes = sections.into_iter().enumerate().map(move |(shard, section)| {
        let wal = wals.get(shard).map_or(&[][..], AsRef::as_ref);
        let (mem, stats) = recover_bounded(section, wal)?;
        if mem.geometry().memory_bytes() != plan.shard_memory_bytes(shard)
            || mem.key() != ShardedMemory::derived_key(&plan, key, shard)
        {
            return Err(RecoveryError::ShardMismatch { shard });
        }
        Ok((mem, stats))
    });
    Ok((plan, key, outcomes))
}

/// Rebuilds a sharded memory from its image plus one WAL per shard (or
/// none: an empty `wals` slice is an empty log on every shard). The image
/// is an `MTSH` container, or an `MTSN` snapshot, which recovers as a
/// one-shard memory: `recover_sharded_bounded(snapshot, &[wal])` does the
/// work of [`recover_bounded`]`(snapshot, wal)`. Per-shard work is
/// bounded by each shard's open epoch, and recovery degrades rather than
/// dies when a shard fails: the bad shard is quarantined (empty
/// placeholder, reads/writes refuse) while the rest serve.
/// [`ShardedRecovery::into_memory`] is the strict form.
///
/// # Errors
///
/// Container-level framing problems are fatal ([`RecoveryError::BadMagic`],
/// truncation, checksums, [`RecoveryError::ShardPlan`]);
/// [`RecoveryError::ShardWalCount`] when a nonempty WAL list disagrees
/// with the partition; and when *every* shard fails, the first shard's
/// error (there is nothing left to serve). Per-shard failures otherwise
/// land in [`ShardRecovery::outcome`], not here.
pub fn recover_sharded_bounded<W: AsRef<[u8]>>(
    container: &[u8],
    wals: &[W],
) -> Result<ShardedRecovery, RecoveryError> {
    let (plan, key, outcomes) = recover_shards(container, wals)?;
    let mut recovered: Vec<Option<SecureMemory>> = Vec::with_capacity(plan.shards());
    let mut reports = Vec::with_capacity(plan.shards());
    let mut quarantined = BTreeSet::new();
    for (shard, outcome) in outcomes.enumerate() {
        let (mem, outcome) = match outcome {
            Ok((mem, stats)) => (Some(mem), Ok(stats)),
            Err(err) => {
                quarantined.insert(shard);
                (None, Err(err))
            }
        };
        recovered.push(mem);
        reports.push(ShardRecovery { shard, outcome });
    }

    // Placeholders need a tree configuration; borrow it from any healthy
    // shard. No healthy shard means nothing can serve: hard-fail with the
    // first diagnosis.
    let config = match recovered.iter().flatten().next() {
        Some(mem) => mem.config().clone(),
        None => {
            let first = reports
                .iter()
                .find_map(|r| r.outcome.as_ref().err().cloned())
                .unwrap_or(RecoveryError::ShardPlan(ShardError::ZeroShards));
            return Err(first);
        }
    };
    let shards: Vec<SecureMemory> = recovered
        .into_iter()
        .enumerate()
        .map(|(s, mem)| {
            mem.unwrap_or_else(|| {
                SecureMemory::new(
                    config.clone(),
                    plan.shard_memory_bytes(s),
                    ShardedMemory::derived_key(&plan, key, s),
                )
            })
        })
        .collect();

    let healthy: Vec<&RecoveryStats> =
        reports.iter().filter_map(|r| r.outcome.as_ref().ok()).collect();
    let resolved_epoch = healthy.iter().map(|s| s.sealed_epoch).min().unwrap_or(0);
    let sealed_epochs: BTreeSet<u64> = healthy.iter().map(|s| s.sealed_epoch).collect();
    let mid_cut = sealed_epochs.len() > 1
        || healthy.iter().any(|s| s.prepared_epoch > s.committed_epoch);

    Ok(ShardedRecovery {
        memory: DegradedShardedMemory::new(
            ShardedMemory::from_parts(plan, key, shards),
            quarantined,
        ),
        shards: reports,
        resolved_epoch,
        mid_cut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;
    const KEY: [u8; 16] = [7u8; 16];

    #[test]
    fn seal_roundtrips_and_macs_are_keyed() {
        let seal = EpochSeal::new(KEY, 42, SealPhase::Commit, 0xdead, 0xbeef);
        let decoded = EpochSeal::decode(&seal.encode()).unwrap();
        assert_eq!(decoded, seal);
        assert!(seal.verify(KEY));
        assert!(!seal.verify([8u8; 16]));
        // Prepare and Commit seals over the same roots never share a MAC.
        let prep = EpochSeal::new(KEY, 42, SealPhase::Prepare, 0xdead, 0xbeef);
        assert_ne!(prep.mac, seal.mac);
    }

    #[test]
    fn seal_decode_errors_are_typed() {
        let seal = EpochSeal::new(KEY, 3, SealPhase::Prepare, 1, 2);
        let bytes = seal.encode();
        for cut in 0..bytes.len() {
            assert!(EpochSeal::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                EpochSeal::decode(&flipped).is_err()
                    || !EpochSeal::decode(&flipped).unwrap().verify(KEY),
                "bit {bit}: flip must be a decode error or a MAC failure"
            );
        }
    }

    #[test]
    fn clean_shutdown_recovers_with_constant_work() {
        let mut mem = EpochMemory::new(TreeConfig::morphtree(), MIB, KEY, 0);
        for i in 0..50u64 {
            mem.write(i % 96, &[i as u8; CACHELINE_BYTES]);
        }
        mem.cut();
        let snapshot = mem.sealed_snapshot();
        let (recovered, stats) = recover_bounded(&snapshot, mem.wal_bytes()).unwrap();
        assert_eq!(stats.mode, RecoveryMode::CleanShutdown);
        assert_eq!(stats.replayed_txns, 0);
        assert_eq!(stats.verified_lines, 0);
        assert!(!stats.seal_fallback);
        assert_eq!(stats.sealed_epoch, 1);
        // Constant work means constant crypto: zero MAC computations.
        assert_eq!(recovered.crypto_ops().total(), 0);
        assert_eq!(save_memory(&recovered), save_memory(mem.memory()));
    }

    #[test]
    fn crash_recovery_is_bounded_by_the_open_epoch() {
        let mut mem = EpochMemory::new(TreeConfig::morphtree(), MIB, KEY, 0);
        for i in 0..60u64 {
            mem.write(i % 96, &[i as u8; CACHELINE_BYTES]);
        }
        mem.cut();
        // Open epoch: 5 writes to 3 distinct lines.
        for i in 0..5u64 {
            mem.write(10 + i % 3, &[0xa0 | i as u8; CACHELINE_BYTES]);
        }
        let (recovered, stats) = recover_bounded(&mem.sealed_snapshot(), mem.wal_bytes()).unwrap();
        assert_eq!(stats.mode, RecoveryMode::Bounded);
        assert_eq!(stats.replayed_txns, 5);
        assert_eq!(stats.verified_lines, 3, "verifies touched lines, not the memory");
        assert_eq!(save_memory(&recovered), save_memory(mem.memory()));
    }

    /// Satellite regression for the recovery-grid crossover: across grid
    /// points spanning sparse-to-dense open-epoch suffixes over small and
    /// large sealed histories, the seal-anchored path must never do more
    /// MAC work than the full path (same snapshot + seal-stripped WAL),
    /// and both must recover byte-identical state. With the batched
    /// [`SecureMemory::verify_lines`] pass this holds structurally —
    /// touched lines are a subset of the stored data and their ancestors
    /// a subset of the stored counters — and the [`VerifyStrategy`]
    /// crossover guards the bound besides.
    #[test]
    fn bounded_recovery_never_does_more_crypto_than_full() {
        for (base_writes, suffix_writes) in
            [(8u64, 4u64), (8, 64), (8, 600), (64, 8), (64, 256), (512, 8), (512, 600)]
        {
            let mut mem = EpochMemory::new(TreeConfig::morphtree(), MIB, KEY, 0);
            for i in 0..base_writes {
                mem.write(i * 7 % 16384, &[i as u8; CACHELINE_BYTES]);
            }
            mem.cut();
            for i in 0..suffix_writes {
                mem.write(i * 11 % 16384, &[0x80 | i as u8; CACHELINE_BYTES]);
            }
            let snapshot = mem.sealed_snapshot();
            let wal = mem.wal_bytes().to_vec();

            let (bounded, stats) = recover_bounded(&snapshot, &wal).unwrap();
            assert_ne!(stats.mode, RecoveryMode::Full, "{base_writes}/{suffix_writes}");

            // The full-path oracle: same WAL with the anchor seal
            // stripped, forcing replay + whole-store verification.
            let epochs = replay_epochs(&wal).unwrap();
            let mut stripped = WalWriter::new();
            for txn in &epochs.txns {
                stripped.append(&WalRecord::Begin { seq: txn.seq });
                for record in &txn.records {
                    stripped.append(record);
                }
                stripped.append(&WalRecord::Commit { seq: txn.seq });
            }
            let (full, full_stats) = recover_bounded(&snapshot, stripped.bytes()).unwrap();
            assert_eq!(full_stats.mode, RecoveryMode::Full);
            assert_eq!(full_stats.verify_strategy, VerifyStrategy::FullSweep);

            assert!(
                bounded.crypto_ops().total() <= full.crypto_ops().total(),
                "grid point {base_writes}/{suffix_writes}: bounded used {} crypto ops, full {}",
                bounded.crypto_ops().total(),
                full.crypto_ops().total()
            );
            assert_eq!(save_memory(&bounded), save_memory(&full));
            assert_eq!(save_memory(&bounded), save_memory(mem.memory()));
        }
    }

    /// A counter overflow in the *open* epoch reencrypts a whole line
    /// group and bumps the monotonic reencryption counter the snapshot
    /// serializes — state no line post-image carries. Replay must restore
    /// it (via [`WalRecord::Stats`]) or recovery silently diverges from
    /// the live engine.
    #[test]
    fn open_epoch_reencryption_survives_bounded_recovery() {
        let mut mem = EpochMemory::new(TreeConfig::morphtree(), MIB, KEY, 0);
        mem.write(0, &[0x11; CACHELINE_BYTES]);
        mem.cut();
        let sealed_reencryptions = mem.memory().reencryptions();
        // Hammer one line until its minor counter overflows.
        let mut i = 0u64;
        while mem.memory().reencryptions() == sealed_reencryptions {
            mem.write(0, &[i as u8; CACHELINE_BYTES]);
            i += 1;
            assert!(i < 100_000, "no overflow after {i} writes");
        }
        let (recovered, stats) = recover_bounded(&mem.sealed_snapshot(), mem.wal_bytes()).unwrap();
        assert_eq!(stats.mode, RecoveryMode::Bounded);
        assert_eq!(recovered.reencryptions(), mem.memory().reencryptions());
        assert_eq!(save_memory(&recovered), save_memory(mem.memory()));
    }

    /// The trust statement a seal makes: it vouches for the root, not for
    /// every stored line. A snapshot whose data ciphertext was tampered
    /// under a valid seal recovers without re-proving that line, and the
    /// tamper surfaces on its first verified read, as it would in DRAM.
    /// With the WAL cut inside the seal record there is no anchor, so
    /// recovery verifies everything and refuses.
    #[test]
    fn a_sealed_tamper_loads_and_fails_its_first_read() {
        let mut memory = SecureMemory::new(TreeConfig::morphtree(), MIB, KEY);
        for i in 0..16u64 {
            memory.write(i, &[i as u8; CACHELINE_BYTES]);
        }
        memory.tamper_raw(5, 9, 0x10).unwrap();
        let journaled = EpochMemory::from_memory(memory, 0);
        let snapshot = journaled.sealed_snapshot();
        let wal = journaled.wal_bytes();
        let tampered = IntegrityError::DataMac { line_addr: 5 * CACHELINE_BYTES as u64 };

        let (recovered, stats) = recover_bounded(&snapshot, wal).unwrap();
        assert_eq!(stats.mode, RecoveryMode::CleanShutdown);
        assert_eq!(recovered.read(5), Err(tampered.clone()));
        assert_eq!(recovered.read(4).unwrap(), [4; CACHELINE_BYTES]);

        for cut in 0..wal.len() {
            assert_eq!(
                recover_bounded(&snapshot, &wal[..cut]).unwrap_err(),
                RecoveryError::Integrity(tampered.clone()),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn forged_seal_downgrades_to_full_verification() {
        let mut mem = EpochMemory::new(TreeConfig::morphtree(), MIB, KEY, 0);
        for i in 0..30u64 {
            mem.write(i % 64, &[i as u8; CACHELINE_BYTES]);
        }
        mem.cut();
        mem.write(3, &[0xcc; CACHELINE_BYTES]);
        let snapshot = mem.sealed_snapshot();

        // Forge the seal: flip a MAC bit but keep the record CRC valid by
        // rebuilding the WAL with the tampered seal.
        let epochs = replay_epochs(mem.wal_bytes()).unwrap();
        let mut forged = epochs.seals[0].seal;
        forged.mac ^= 1;
        let mut wal = WalWriter::new();
        wal.append(&WalRecord::Seal(forged));
        for txn in &epochs.txns {
            wal.append(&WalRecord::Begin { seq: txn.seq });
            for record in &txn.records {
                wal.append(record);
            }
            wal.append(&WalRecord::Commit { seq: txn.seq });
        }

        let (recovered, stats) = recover_bounded(&snapshot, wal.bytes()).unwrap();
        assert_eq!(stats.mode, RecoveryMode::Full);
        assert!(stats.seal_fallback);
        assert_eq!(stats.committed_epoch, 0, "a forged seal pins nothing");
        assert_eq!(save_memory(&recovered), save_memory(mem.memory()));
    }

    #[test]
    fn sharded_epoch_recombines_once_per_cut() {
        let mut mem =
            EpochShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 4, 0).unwrap();
        let lines = mem.plan().data_lines();
        let base = mem.recombines();
        for batch in 0..3u64 {
            let ops: Vec<Op> = (0..32)
                .map(|i| Op::Write {
                    line: (batch * 32 + i) * 13 % lines,
                    data: [i as u8; CACHELINE_BYTES],
                })
                .collect();
            mem.run_batch(&ops, 2);
        }
        assert_eq!(mem.recombines(), base, "batches must not recombine");
        mem.cut();
        assert_eq!(mem.recombines(), base + 1, "a cut recombines exactly once");
    }

    #[test]
    fn sharded_bounded_recovery_matches_live_state() {
        let mut mem =
            EpochShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 3, 0).unwrap();
        let lines = mem.plan().data_lines();
        for i in 0..64u64 {
            mem.write(i * 37 % lines, &[i as u8; CACHELINE_BYTES]);
        }
        mem.cut();
        for i in 0..9u64 {
            mem.write(i * 61 % lines, &[0x80 | i as u8; CACHELINE_BYTES]);
        }

        let container = mem.sealed_container();
        let wals = mem.wals();
        let rec = recover_sharded_bounded(&container, &wals).unwrap();
        assert_eq!(rec.resolved_epoch, 1);
        assert!(!rec.mid_cut);
        assert_eq!(rec.memory.healthy_shards(), 3);
        for report in &rec.shards {
            let stats = report.outcome.as_ref().unwrap();
            assert_ne!(stats.mode, RecoveryMode::Full, "shard {}", report.shard);
        }
        for s in 0..3 {
            assert_eq!(
                save_memory(rec.memory.shard(s)),
                save_memory(mem.memory().shard(s)),
                "shard {s} diverged"
            );
        }
    }

    #[test]
    fn crash_between_shard_seals_is_detected_and_resolved() {
        let mut mem =
            EpochShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 4, 0).unwrap();
        let lines = mem.plan().data_lines();
        for i in 0..48u64 {
            mem.write(i * 29 % lines, &[i as u8; CACHELINE_BYTES]);
        }
        mem.cut(); // epoch 1, everywhere
        for i in 0..16u64 {
            mem.write(i * 53 % lines, &[0xd0 | i as u8; CACHELINE_BYTES]);
        }

        // Crash after two shards prepared epoch 2 and none committed.
        let (container, wals) = mem.interrupted_cut_state(2, 0);
        let rec = recover_sharded_bounded(&container, &wals).unwrap();
        assert!(rec.mid_cut, "a torn cut must be flagged");
        assert_eq!(rec.resolved_epoch, 1, "resolves to the last consistent epoch");
        assert_eq!(rec.memory.healthy_shards(), 4, "a torn cut quarantines nothing");
        rec.memory.verify_healthy().unwrap();

        // Crash mid phase two: all prepared, one committed.
        let (container, wals) = mem.interrupted_cut_state(4, 1);
        let rec = recover_sharded_bounded(&container, &wals).unwrap();
        assert!(rec.mid_cut);
        assert_eq!(rec.resolved_epoch, 2, "every shard reached the epoch-2 state");
    }

    /// Regression: `verify_healthy` used to report shard-local data
    /// addresses, while `ShardedMemory::verify_all` globalizes them.
    #[test]
    fn verify_healthy_names_global_line_addresses() {
        let tampered = |quarantined: BTreeSet<usize>| {
            let mut inner = ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 2).unwrap();
            let line = inner.plan().shard_base(1) + 5;
            for l in [3, line] {
                inner.write(l, &[0x4d; CACHELINE_BYTES]);
            }
            inner.tamper_raw(line, 0, 0x01).unwrap();
            (line, DegradedShardedMemory::new(inner, quarantined))
        };
        let (line, degraded) = tampered(BTreeSet::new());
        let expect = IntegrityError::DataMac { line_addr: line * CACHELINE_BYTES as u64 };
        assert_eq!(degraded.memory().verify_all(), Err(expect.clone()));
        assert_eq!(degraded.verify_healthy(), Err(expect));
        // A quarantined shard is not audited.
        let (_, degraded) = tampered(BTreeSet::from([1]));
        assert_eq!(degraded.verify_healthy(), Ok(()));
    }

    #[test]
    fn bad_shard_is_quarantined_and_the_rest_serve() {
        let mut mem =
            EpochShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 3, 0).unwrap();
        let lines = mem.plan().data_lines();
        for i in 0..40u64 {
            mem.write(i * 17 % lines, &[i as u8; CACHELINE_BYTES]);
        }
        mem.cut();

        let container = mem.sealed_container();
        let mut wals = mem.wals();
        // Corrupt shard 1's WAL: flip a byte inside a complete record so
        // its frame CRC fails. (All-0xff garbage would read as a torn
        // tail and be benignly discarded — corruption must be *complete*
        // to be diagnosed, per the WAL's torn-write rules.)
        wals[1][6] ^= 0xff;

        let rec = recover_sharded_bounded(&container, &wals).unwrap();
        assert!(rec.memory.is_quarantined(1));
        assert_eq!(rec.memory.healthy_shards(), 2);
        assert!(matches!(
            rec.shards[1].outcome,
            Err(RecoveryError::CorruptWal { .. })
        ));

        // Reads on the quarantined shard refuse; the rest serve.
        let bad_line = mem.plan().shard_base(1);
        assert_eq!(
            rec.memory.read(bad_line).unwrap_err(),
            RecoveryError::ShardQuarantined { shard: 1 }
        );
        let good_line = mem.plan().shard_base(0);
        assert_eq!(
            rec.memory.read(good_line).unwrap(),
            mem.read(good_line).unwrap()
        );

        // All shards failing is a hard error, not an empty tenant.
        let mut all_bad = mem.wals();
        for wal in &mut all_bad {
            wal[6] ^= 0xff;
        }
        assert_eq!(
            recover_sharded_bounded(&container, &all_bad).unwrap_err(),
            RecoveryError::CorruptWal { offset: 0 }
        );
        // A torn container is fatal at the framing layer.
        let mut torn_container = container.clone();
        let len = torn_container.len();
        torn_container.truncate(len - 1);
        assert!(recover_sharded_bounded(&torn_container, &wals).is_err());
    }

    #[test]
    fn wal_count_mismatch_is_typed() {
        let mem = EpochShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 3, 0).unwrap();
        let container = mem.sealed_container();
        let wals = vec![Vec::<u8>::new(); 2];
        assert_eq!(
            recover_sharded_bounded(&container, &wals).unwrap_err(),
            RecoveryError::ShardWalCount { expected: 3, got: 2 }
        );
    }

    #[test]
    fn epoch_auto_cut_fires_at_the_threshold() {
        let mut mem =
            EpochShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 2, 8).unwrap();
        let lines = mem.plan().data_lines();
        for i in 0..24u64 {
            mem.write(i % lines, &[i as u8; CACHELINE_BYTES]);
        }
        assert_eq!(mem.epoch(), 3, "24 ops at 8 per epoch is 3 cuts");
        assert_eq!(mem.ops_in_epoch(), 0);
    }

    #[test]
    fn one_long_batch_is_cut_at_every_epoch_boundary() {
        let mut mem =
            EpochShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, 2, 500).unwrap();
        let lines = mem.plan().data_lines();
        let ops: Vec<Op> = (0..5_000u64)
            .map(|i| Op::Write { line: (i * 7) % lines, data: [i as u8; CACHELINE_BYTES] })
            .collect();
        let outcomes = mem.run_batch(&ops, 2);
        assert_eq!(outcomes.len(), ops.len());
        assert!(outcomes.iter().all(|outcome| *outcome == OpOutcome::Written));
        assert_eq!(mem.epoch(), 10, "5,000 ops at 500 per epoch is 10 cuts");
        assert_eq!(mem.ops_in_epoch(), 0);
        // A batch that ends mid-epoch leaves the rest open.
        mem.run_batch(&ops[..750], 2);
        assert_eq!((mem.epoch(), mem.ops_in_epoch()), (11, 250));
    }
}
