//! A *functional* secure memory: real bytes, real encryption, real MACs,
//! real replay protection.
//!
//! The timing model ([`crate::metadata`]) counts accesses; this module
//! proves the security architecture actually works, reproducing §II-A and
//! the §V security analysis end-to-end:
//!
//! - data lines are encrypted with counter-mode AES over
//!   `(address, effective counter)` pads;
//! - every data line carries a MAC bound to its address and counter;
//! - every counter line carries a MAC keyed by its *parent* counter, up to
//!   an on-chip root, so replaying any stale `{data, MAC, counter}` tuple is
//!   detected;
//! - counter overflows re-encrypt exactly the children whose effective
//!   counters changed, and rebasing re-encrypts nothing.
//!
//! The [`SecureMemory::tamper_raw`] and [`SecureMemory::snapshot`] /
//! [`SecureMemory::replay`] hooks play the adversary with physical access.
//!
//! # Example
//!
//! ```
//! use morphtree_core::functional::SecureMemory;
//! use morphtree_core::tree::TreeConfig;
//!
//! let mut mem = SecureMemory::new(TreeConfig::morphtree(), 1 << 20, [7u8; 16]);
//! mem.write(3, &[0xab; 64]);
//! assert_eq!(mem.read(3).unwrap(), [0xab; 64]);
//!
//! // An adversary flips a bit in DRAM: the next read detects it.
//! mem.tamper_raw(3, 0, 0x01).unwrap();
//! assert!(mem.read(3).is_err());
//! ```

use std::cell::Cell;

use morphtree_crypto::{CtrModeCipher, MacKey};

mod verify;

pub(crate) use verify::{ancestors, canonical_lines, mac_checks, VerifyPlan};

use crate::counters::tree::CounterTree;
use crate::counters::{CounterLine, IncrementOutcome, Line};
use crate::error::{IntegrityError, TamperError};
use crate::store::PagedStore;
use crate::tree::{TreeConfig, TreeGeometry};
use crate::CACHELINE_BYTES;

/// A snapshot of one data line's off-chip state (ciphertext + MAC +
/// the covering encryption-counter line image), used to mount replay
/// attacks in tests.
#[derive(Debug, Clone)]
pub struct LineSnapshot {
    data_line: u64,
    ciphertext: [u8; CACHELINE_BYTES],
    mac: u64,
    counter_line: Line,
}

/// The set of lines a sequence of writes touched, recorded while
/// journaling is enabled (see [`SecureMemory::begin_journal`]).
///
/// `BTreeSet`s keep the iteration order deterministic, so the WAL records
/// the persistence layer derives from a journal are byte-stable across
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationJournal {
    /// Data lines whose ciphertext or MAC changed.
    pub data_lines: std::collections::BTreeSet<u64>,
    /// Counter lines `(level, line_idx)` whose content changed.
    pub counter_lines: std::collections::BTreeSet<(usize, u64)>,
}

impl MutationJournal {
    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data_lines.is_empty() && self.counter_lines.is_empty()
    }
}

/// Running totals of cryptographic primitive invocations inside a
/// [`SecureMemory`].
///
/// These are *observability* counters for the metrics layer: every
/// counter-mode pad generation (OTP) and every MAC computation is counted
/// at its call site, whether triggered by a demand access, an overflow
/// re-encryption, or chain verification. They have no effect on the
/// memory's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CryptoOps {
    /// Counter-mode encryptions (pad generation + XOR) of a 64-byte line.
    pub otp_encrypts: u64,
    /// Counter-mode decryptions of a 64-byte line.
    pub otp_decrypts: u64,
    /// MAC computations over a 64-byte line (data MACs, counter-line MACs,
    /// and verification re-computations alike).
    pub mac_computes: u64,
}

impl CryptoOps {
    /// Total primitive invocations of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.otp_encrypts + self.otp_decrypts + self.mac_computes
    }
}

/// A byte-level secure memory with encryption, integrity and replay
/// protection over a configurable integrity tree.
///
/// `Clone` is cheap enough for testing: the attack campaign runner clones a
/// prepared victim state once per attack so attacks never contaminate each
/// other.
#[derive(Debug, Clone)]
pub struct SecureMemory {
    config: TreeConfig,
    cipher: CtrModeCipher,
    mac_key: MacKey,
    /// The construction key, retained so the persistence layer can rebuild
    /// an identical memory from a snapshot. A *model* concession: real
    /// hardware never externalizes its key; here the snapshot stands in for
    /// the SoC's sealed state.
    key: [u8; 16],
    /// Ciphertext per data line (absent = never written; reads return
    /// zeroes without touching the tree). Paged flat store keyed by line
    /// index (see [`crate::store`]).
    data: PagedStore<[u8; CACHELINE_BYTES]>,
    /// MAC per data line.
    data_macs: PagedStore<u64>,
    /// The counter tree; each line's `mac()` field holds its stored MAC
    /// (keyed by its parent counter). The root level is on-chip and needs
    /// no MAC. A parent counter advances on every write below it.
    tree: CounterTree,
    /// Count of child re-encryptions performed due to counter overflows
    /// (observable cost, for tests and examples).
    reencryptions: u64,
    /// Crypto-primitive invocation totals. In a `Cell` because the read /
    /// verification path is `&self` but still performs (and must count)
    /// MAC and decryption work.
    crypto: Cell<CryptoOps>,
    /// Mutation journal, populated while enabled (see
    /// [`SecureMemory::begin_journal`]). `None` costs nothing on the write
    /// path.
    journal: Option<MutationJournal>,
}

/// The MAC key of a memory built from `key`: the same 16 bytes seed both
/// the encryption and the MAC key, domain separated here. Proofs derive
/// their verification key through this too.
pub(crate) fn derive_mac_key(key: [u8; 16]) -> MacKey {
    let mut seed = key;
    seed[0] ^= 0x5a; // domain separation from the encryption key
    MacKey::new(seed)
}

/// The root digest of a top line with MAC-input image `body` and stored
/// `mac` (see [`SecureMemory::root_digest`]); proofs bind their top node
/// with it too.
pub(crate) fn top_digest(body: &[u8; CACHELINE_BYTES], mac: u64) -> u64 {
    let mut image = [0u8; CACHELINE_BYTES + 8];
    image[..CACHELINE_BYTES].copy_from_slice(body);
    image[CACHELINE_BYTES..].copy_from_slice(&mac.to_le_bytes());
    crate::persist::codec::fnv1a(&image)
}

impl SecureMemory {
    /// Creates a secure memory over `memory_bytes` of protected data.
    ///
    /// The single `key` seeds both the encryption and MAC keys (domain
    /// separated).
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is zero or not cacheline-aligned.
    #[must_use]
    pub fn new(config: TreeConfig, memory_bytes: u64, key: [u8; 16]) -> Self {
        let geometry = TreeGeometry::new(&config, memory_bytes);
        SecureMemory {
            data: PagedStore::new(geometry.data_lines()),
            data_macs: PagedStore::new(geometry.data_lines()),
            tree: CounterTree::new(&config, geometry),
            config,
            cipher: CtrModeCipher::new(key),
            mac_key: derive_mac_key(key),
            key,
            reencryptions: 0,
            crypto: Cell::new(CryptoOps::default()),
            journal: None,
        }
    }

    /// The tree configuration in use.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Crypto-primitive invocation totals accumulated so far.
    #[must_use]
    pub fn crypto_ops(&self) -> CryptoOps {
        self.crypto.get()
    }

    /// Applies `f` to the crypto counters (interior mutability: the read
    /// path is `&self` but still counts work).
    fn charge(&self, f: impl FnOnce(&mut CryptoOps)) {
        let mut ops = self.crypto.get();
        f(&mut ops);
        self.crypto.set(ops);
    }

    /// The AES backend the counter-mode cipher dispatches to (selected
    /// at construction; see [`morphtree_crypto::aes::selected_backend`]).
    #[must_use]
    pub fn cipher_backend(&self) -> morphtree_crypto::AesBackend {
        self.cipher.backend()
    }

    /// The tree geometry in use.
    #[must_use]
    pub fn geometry(&self) -> &TreeGeometry {
        self.tree.geometry()
    }

    /// Total child re-encryptions caused by counter overflows so far.
    #[must_use]
    pub fn reencryptions(&self) -> u64 {
        self.reencryptions
    }

    /// A 64-bit digest of the tree's root state: the encoded top-level
    /// counter line plus its MAC, hashed with FNV-1a. Two memories with the
    /// same history have the same digest; any write changes it (the bump
    /// chain always reaches the top level). The sharded engine
    /// ([`crate::concurrent::ShardedMemory`]) folds these per-shard digests
    /// into its combined root MAC.
    #[must_use]
    pub fn root_digest(&self) -> u64 {
        let top = self.geometry().top_level();
        match self.tree.line(top, 0) {
            None => crate::persist::codec::fnv1a(&[]),
            Some(line) => top_digest(&line.encode_for_mac(), line.mac()),
        }
    }

    /// Effective encryption counter for `data_line`.
    #[must_use]
    pub fn counter_of(&self, data_line: u64) -> u64 {
        self.tree.counter(0, data_line)
    }

    fn data_addr(&self, data_line: u64) -> u64 {
        data_line * CACHELINE_BYTES as u64
    }

    /// The counter a metadata line's MAC is keyed by: the line's slot in
    /// its parent, or 0 for the top line, which lives in on-chip trusted
    /// storage.
    fn key_counter(&self, level: usize, line_idx: u64) -> u64 {
        if level == self.geometry().top_level() {
            return 0;
        }
        self.tree.counter(level + 1, line_idx)
    }

    /// MACs `body`, the image of the stored metadata line `line_idx` at
    /// `level`, under `key` and stores the result beside the line.
    ///
    /// Every counter-line mutation a write performs ends here (increments
    /// in [`SecureMemory::bump`], overflow child repairs), so this is the
    /// single choke point where counter mutations reach the journal.
    fn store_line_mac(&mut self, level: usize, line_idx: u64, key: u64, body: &[u8; CACHELINE_BYTES]) {
        let addr = self.geometry().line_addr(level, line_idx);
        self.charge(|ops| ops.mac_computes += 1);
        let mac = self.mac_key.mac_line(addr, key, body).0;
        let Some(line) = self.tree.line_mut(level, line_idx) else {
            unreachable!("a counter line is stored before its MAC")
        };
        line.set_mac(mac);
        if let Some(journal) = self.journal.as_mut() {
            journal.counter_lines.insert((level, line_idx));
        }
    }

    /// Re-encrypts a data child after its effective counter changed from
    /// `old_counter` to the current value.
    fn reencrypt_data_child(&mut self, data_line: u64, old_counter: u64) {
        let addr = self.data_addr(data_line);
        if let Some(ciphertext) = self.data.get(data_line).copied() {
            self.charge(|ops| {
                ops.otp_decrypts += 1;
                ops.otp_encrypts += 1;
                ops.mac_computes += 1;
            });
            let plaintext = self.cipher.decrypt_line(addr, old_counter, &ciphertext);
            let new_counter = self.counter_of(data_line);
            let fresh = self.cipher.encrypt_line(addr, new_counter, &plaintext);
            let mac = self.mac_key.mac_line(addr, new_counter, &fresh).0;
            self.data.insert(data_line, fresh);
            self.data_macs.insert(data_line, mac);
            self.reencryptions += 1;
            if let Some(journal) = self.journal.as_mut() {
                journal.data_lines.insert(data_line);
            }
        }
    }

    /// Increments the counter at `level` covering `child_idx`, propagating
    /// to the parent and repairing all affected MACs / ciphertexts.
    /// Returns the incremented counter's new value: the key the child's
    /// MAC is now computed under.
    fn bump(&mut self, level: usize, child_idx: u64) -> u64 {
        let (line_idx, slot) = self.geometry().parent_of(level, child_idx);
        // An overflow at level 0 re-encrypts data children under their old
        // counters, so keep the pre-increment line there. It is read only
        // when the increment overflows; upper levels re-MAC their children
        // from the new counters and need no copy.
        let line = self.tree.line_or_new(level, line_idx);
        let before = (level == 0).then_some(*line);
        let outcome = line.increment(slot);
        // Nothing below changes this line's body: overflow repairs touch
        // its children, the bump above touches its parent, and a parent
        // overflow only re-MACs it.
        let counter = line.get(slot);
        let body = line.encode_for_mac();

        if let IncrementOutcome::Overflow(event) = outcome {
            for child in self.tree.span_children(level, line_idx, event.span) {
                if let Some(before) = &before {
                    let (_, slot) = self.geometry().parent_of(0, child);
                    self.reencrypt_data_child(child, before.get(slot));
                } else if let Some(child_line) = self.tree.line(level - 1, child) {
                    // Child counter line's MAC is keyed by its (changed)
                    // parent counter: recompute it.
                    let body = child_line.encode_for_mac();
                    let key = self.key_counter(level - 1, child);
                    self.store_line_mac(level - 1, child, key, &body);
                    self.reencryptions += 1;
                }
            }
        }

        // Propagate the write upward (replay protection: the parent counter
        // must advance whenever this line changes), then re-MAC this line
        // under the new parent value; the on-chip top line is keyed by 0.
        let key = if level < self.geometry().top_level() {
            self.bump(level + 1, line_idx)
        } else {
            0
        };
        self.store_line_mac(level, line_idx, key, &body);
        counter
    }

    /// Writes a plaintext line.
    pub fn write(&mut self, data_line: u64, plaintext: &[u8; CACHELINE_BYTES]) {
        assert!(data_line < self.geometry().data_lines(), "data line out of range");
        let counter = self.bump(0, data_line);
        let addr = self.data_addr(data_line);
        self.charge(|ops| {
            ops.otp_encrypts += 1;
            ops.mac_computes += 1;
        });
        let mut ciphertext = [0u8; CACHELINE_BYTES];
        self.cipher
            .encrypt_line_into(addr, counter, plaintext, &mut ciphertext);
        let mac = self.mac_key.mac_line(addr, counter, &ciphertext).0;
        self.data.insert(data_line, ciphertext);
        self.data_macs.insert(data_line, mac);
        if let Some(journal) = self.journal.as_mut() {
            journal.data_lines.insert(data_line);
        }
    }

    /// Reads and verifies a line: checks the data MAC and every counter-line
    /// MAC up to the on-chip root, data line first.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] when any MAC fails — i.e. when tampering
    /// or replay is detected.
    pub fn read(&self, data_line: u64) -> Result<[u8; CACHELINE_BYTES], IntegrityError> {
        assert!(data_line < self.geometry().data_lines(), "data line out of range");
        let Some(ciphertext) = self.data.get(data_line) else {
            // Never written: defined to read as zeroes.
            return Ok([0u8; CACHELINE_BYTES]);
        };
        let mut counter = 0;
        VerifyPlan::Line(self, data_line).run_with(|_, key| counter = key)?;
        Ok(self.open(data_line, counter, ciphertext))
    }

    /// Decrypts a verified data line under its effective counter.
    fn open(
        &self,
        data_line: u64,
        counter: u64,
        ciphertext: &[u8; CACHELINE_BYTES],
    ) -> [u8; CACHELINE_BYTES] {
        self.charge(|ops| ops.otp_decrypts += 1);
        let mut plaintext = [0u8; CACHELINE_BYTES];
        self.cipher
            .decrypt_line_into(self.data_addr(data_line), counter, ciphertext, &mut plaintext);
        plaintext
    }

    /// Batch-verifies the data MACs of `lines` and the MACs of their
    /// (deduplicated) ancestor counter lines — the bulk form of calling
    /// [`SecureMemory::read`] per line, minus the useless OTP decrypts:
    /// the MAC covers the *ciphertext*, so decryption verifies nothing.
    ///
    /// Duplicate or unsorted input lines are canonicalized (sorted,
    /// deduplicated) first and shared ancestors are verified once, so
    /// every line is checked exactly once; never-written lines are
    /// skipped (they read as zeroes, with nothing stored off chip to
    /// verify). Bounded recovery runs the same plan over its touched
    /// lines.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] found, identifying the
    /// failing line.
    pub fn verify_lines(&self, lines: &[u64]) -> Result<(), IntegrityError> {
        VerifyPlan::lines(self, lines).run()
    }

    /// Batch-verifies `lines` and returns their plaintexts in **input
    /// order** — the bulk form of calling [`SecureMemory::read`] per
    /// line, with shared ancestors verified once.
    ///
    /// Verification canonicalizes exactly like
    /// [`SecureMemory::verify_lines`]: duplicates are verified and
    /// decrypted once, then fanned back out to their input positions.
    /// Never-written lines read as zeroes, as in [`SecureMemory::read`].
    /// The crypto work charged is the plan's cost in MACs plus one
    /// decryption per unique present line.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] found; no plaintext is
    /// released for any line of a failing batch.
    pub fn verify_and_read(
        &self,
        lines: &[u64],
    ) -> Result<Vec<[u8; CACHELINE_BYTES]>, IntegrityError> {
        // (line, key counter) of each unique present line, ascending.
        let mut keyed = Vec::new();
        VerifyPlan::lines(self, lines).run_with(|line, counter| keyed.push((line, counter)))?;
        let plaintexts: Vec<(u64, [u8; CACHELINE_BYTES])> = keyed
            .into_iter()
            .filter_map(|(line, counter)| {
                Some((line, self.open(line, counter, self.data.get(line)?)))
            })
            .collect();
        Ok(lines
            .iter()
            .map(|line| {
                plaintexts
                    .binary_search_by_key(line, |&(l, _)| l)
                    .map_or([0u8; CACHELINE_BYTES], |i| plaintexts[i].1)
            })
            .collect())
    }

    // ------------------------------------------------------------------
    // Persistence interface (journaling, full-state export/restore).
    //
    // Used by `crate::persist` to snapshot a memory, derive WAL records
    // from writes, and rebuild a memory during recovery. The restore hooks
    // are `pub(crate)`: only the recovery path, which validates indices
    // against the geometry first, may bypass the write path.
    // ------------------------------------------------------------------

    /// Starts recording which lines future writes touch; any previous
    /// journal is discarded.
    pub fn begin_journal(&mut self) {
        self.journal = Some(MutationJournal::default());
    }

    /// Takes the mutations recorded since [`SecureMemory::begin_journal`]
    /// (or the previous take), leaving journaling enabled with an empty
    /// journal. Returns an empty journal when journaling was never enabled.
    pub fn take_journal(&mut self) -> MutationJournal {
        match self.journal.as_mut() {
            Some(journal) => std::mem::take(journal),
            None => MutationJournal::default(),
        }
    }

    /// The construction key (see the field note: a model stand-in for the
    /// SoC's sealed state).
    pub(crate) fn key(&self) -> [u8; 16] {
        self.key
    }

    /// The stored per-data-line state, for snapshot export.
    pub(crate) fn data_store(&self) -> &PagedStore<[u8; CACHELINE_BYTES]> {
        &self.data
    }

    /// The stored per-data-line MACs, for snapshot export.
    pub(crate) fn mac_store(&self) -> &PagedStore<u64> {
        &self.data_macs
    }

    /// The counter tree, for snapshot export and proofs.
    pub(crate) fn tree(&self) -> &CounterTree {
        &self.tree
    }

    /// Mutable counter tree, for snapshot restore, WAL replay and epoch
    /// folds.
    pub(crate) fn tree_mut(&mut self) -> &mut CounterTree {
        &mut self.tree
    }

    /// Ciphertext and MAC of a written data line (`None` unless both are
    /// present), for WAL record derivation.
    pub(crate) fn data_line_state(&self, line: u64) -> Option<([u8; CACHELINE_BYTES], u64)> {
        Some((*self.data.get(line)?, *self.data_macs.get(line)?))
    }

    /// Restores a data line's off-chip tuple verbatim. The caller must have
    /// validated `line` against the geometry.
    pub(crate) fn restore_data_line(
        &mut self,
        line: u64,
        ciphertext: [u8; CACHELINE_BYTES],
        mac: u64,
    ) {
        self.restore_ciphertext(line, ciphertext);
        self.restore_mac(line, mac);
    }

    /// Restores a stored ciphertext alone (the snapshot format keeps
    /// ciphertexts and MACs in separate sections, and the two stores can
    /// legitimately diverge under adversary hooks).
    pub(crate) fn restore_ciphertext(&mut self, line: u64, ciphertext: [u8; CACHELINE_BYTES]) {
        self.data.insert(line, ciphertext);
    }

    /// Restores a stored data MAC alone.
    pub(crate) fn restore_mac(&mut self, line: u64, mac: u64) {
        self.data_macs.insert(line, mac);
    }

    /// Overwrites the re-encryption total (restored alongside the rest of
    /// the snapshot so observable costs survive a resume).
    pub(crate) fn set_reencryptions(&mut self, reencryptions: u64) {
        self.reencryptions = reencryptions;
    }

    /// Verifies the *entire* stored state bottom-up: every off-chip
    /// counter line's MAC under its parent counter, then every data line's
    /// MAC under its effective counter.
    ///
    /// This is the recovery acceptance check — a restored memory passes iff
    /// its state is one the write path could have produced — but it is
    /// callable anytime as a whole-memory audit.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] found, identifying the failing
    /// line.
    pub fn verify_all(&self) -> Result<(), IntegrityError> {
        VerifyPlan::All(self).run()
    }

    // ------------------------------------------------------------------
    // Adversary interface (what physical access to DRAM permits).
    //
    // Every hook returns a typed error instead of panicking, so campaign
    // runners (`crate::attack`) can fire thousands of randomized attacks
    // without ever bringing the harness down.
    // ------------------------------------------------------------------

    /// Flips bits in the stored ciphertext of `data_line` by XORing `mask`
    /// into byte `offset` — a physical tampering attack.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if the line has never been written (nothing
    /// is stored off-chip) or `offset >= 64`.
    pub fn tamper_raw(
        &mut self,
        data_line: u64,
        offset: usize,
        mask: u8,
    ) -> Result<(), TamperError> {
        if offset >= CACHELINE_BYTES {
            return Err(TamperError::OffsetOutOfRange { offset });
        }
        let line = self
            .data
            .get_mut(data_line)
            .ok_or(TamperError::NeverWritten { data_line })?;
        line[offset] ^= mask;
        Ok(())
    }

    /// Corrupts the stored MAC of a data line by XORing `mask` into it.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError::NeverWritten`] if the line has no stored MAC.
    pub fn tamper_mac(&mut self, data_line: u64, mask: u64) -> Result<(), TamperError> {
        let mac = self
            .data_macs
            .get_mut(data_line)
            .ok_or(TamperError::NeverWritten { data_line })?;
        *mac ^= mask;
        Ok(())
    }

    /// Tampers a stored counter line at `level` by advancing its first
    /// counter without authorization (shorthand for
    /// [`SecureMemory::tamper_counter_slot`] on slot 0).
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if the level or line does not exist.
    pub fn tamper_counter(&mut self, level: usize, line_idx: u64) -> Result<(), TamperError> {
        self.tamper_counter_slot(level, line_idx, 0)
    }

    /// Changes the effective value of counter `slot` in a stored counter
    /// line — the semantic effect of a bit flip landing in that counter's
    /// value field. (A decode-free bit attack is equivalent to replacing
    /// the line; emulate by incrementing, which provably changes the slot's
    /// effective value.)
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if the level, line, or slot does not exist.
    pub fn tamper_counter_slot(
        &mut self,
        level: usize,
        line_idx: u64,
        slot: usize,
    ) -> Result<(), TamperError> {
        let line = self.stored_counter_line(level, line_idx)?;
        if slot >= line.arity() {
            return Err(TamperError::SlotOutOfRange { slot, arity: line.arity() });
        }
        let _ = line.increment(slot);
        Ok(())
    }

    /// Flips bits in the stored MAC field of a counter line at `level` — a
    /// literal bit flip in the final eight bytes of the line's 64-byte
    /// off-chip image.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if the level or line does not exist.
    pub fn tamper_counter_mac(
        &mut self,
        level: usize,
        line_idx: u64,
        mask: u64,
    ) -> Result<(), TamperError> {
        let line = self.stored_counter_line(level, line_idx)?;
        let mac = line.mac();
        line.set_mac(mac ^ mask);
        Ok(())
    }

    /// The stored counter line an adversary hook targets.
    fn stored_counter_line(
        &mut self,
        level: usize,
        line_idx: u64,
    ) -> Result<&mut Line, TamperError> {
        let levels = self.tree.stores().len();
        if level >= levels {
            return Err(TamperError::NoSuchLevel { level, levels });
        }
        self.tree
            .line_mut(level, line_idx)
            .ok_or(TamperError::NoCounterLine { level, line_idx })
    }

    /// Swaps the stored `{ciphertext, MAC}` of two data lines — a cross-line
    /// splice attack: both tuples are individually authentic, but each is
    /// now bound to the wrong address.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError::NeverWritten`] if either line has never been
    /// written.
    pub fn splice(&mut self, line_a: u64, line_b: u64) -> Result<(), TamperError> {
        let Some(ct_a) = self.data.get(line_a).copied() else {
            return Err(TamperError::NeverWritten { data_line: line_a });
        };
        let Some(ct_b) = self.data.get(line_b).copied() else {
            return Err(TamperError::NeverWritten { data_line: line_b });
        };
        if line_a == line_b {
            return Ok(());
        }
        self.data.insert(line_a, ct_b);
        self.data.insert(line_b, ct_a);
        // A written line always has a MAC; tolerate asymmetry anyway so the
        // splice hook itself can never corrupt harness state.
        let mac_a = self.data_macs.take(line_a);
        let mac_b = self.data_macs.take(line_b);
        if let Some(b) = mac_b {
            self.data_macs.insert(line_a, b);
        }
        if let Some(a) = mac_a {
            self.data_macs.insert(line_b, a);
        }
        Ok(())
    }

    /// Captures the full off-chip state associated with a data line:
    /// ciphertext, MAC and the covering encryption-counter line.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError::NeverWritten`] if the line has never been
    /// written (there is no off-chip tuple to capture).
    pub fn snapshot(&self, data_line: u64) -> Result<LineSnapshot, TamperError> {
        let (line_idx, _) = self.geometry().parent_of(0, data_line);
        let ciphertext = *self
            .data
            .get(data_line)
            .ok_or(TamperError::NeverWritten { data_line })?;
        let mac = self
            .data_macs
            .get(data_line)
            .copied()
            .ok_or(TamperError::NeverWritten { data_line })?;
        let counter_line = self
            .tree
            .line(0, line_idx)
            .cloned()
            .ok_or(TamperError::NoCounterLine { level: 0, line_idx })?;
        Ok(LineSnapshot { data_line, ciphertext, mac, counter_line })
    }

    /// Replays a previously captured snapshot — the classic replay attack:
    /// the adversary restores a stale but *self-consistent*
    /// `{data, MAC, counter}` tuple in DRAM.
    ///
    /// Consumes the snapshot so its counter line moves back into the store
    /// instead of being cloned; re-`clone()` the snapshot first to replay
    /// it more than once.
    pub fn replay(&mut self, snapshot: LineSnapshot) {
        let (line_idx, _) = self.geometry().parent_of(0, snapshot.data_line);
        self.data.insert(snapshot.data_line, snapshot.ciphertext);
        self.data_macs.insert(snapshot.data_line, snapshot.mac);
        self.tree.insert(0, line_idx, snapshot.counter_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    fn mem(config: TreeConfig) -> SecureMemory {
        SecureMemory::new(config, MIB, [9u8; 16])
    }

    fn all_configs() -> Vec<TreeConfig> {
        vec![
            TreeConfig::sgx(),
            TreeConfig::vault(),
            TreeConfig::sc64(),
            TreeConfig::sc128(),
            TreeConfig::morphtree(),
            TreeConfig::morphtree_zcc_only(),
        ]
    }

    #[test]
    fn write_read_roundtrip_every_config() {
        for config in all_configs() {
            let mut m = mem(config.clone());
            let payload: [u8; 64] = core::array::from_fn(|i| i as u8);
            m.write(11, &payload);
            assert_eq!(m.read(11).unwrap(), payload, "{}", config.name());
        }
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let m = mem(TreeConfig::morphtree());
        assert_eq!(m.read(0).unwrap(), [0u8; 64]);
    }

    #[test]
    fn crypto_ops_count_primitive_invocations() {
        let mut m = mem(TreeConfig::sc64());
        assert_eq!(m.crypto_ops(), CryptoOps::default());

        // A write performs one data encryption + one data MAC, plus one
        // counter-line MAC refresh per tree level touched by the bump.
        m.write(9, &[0x42; 64]);
        let after_write = m.crypto_ops();
        assert_eq!(after_write.otp_encrypts, 1);
        assert_eq!(after_write.otp_decrypts, 0);
        let levels = m.geometry().levels().len() as u64;
        assert!(
            after_write.mac_computes >= levels,
            "write must MAC the data line and re-MAC the counter chain: {after_write:?}"
        );

        // A verified read decrypts once and re-computes the data MAC plus
        // one MAC per off-chip counter level in the chain.
        m.read(9).unwrap();
        let after_read = m.crypto_ops();
        assert_eq!(after_read.otp_decrypts, 1);
        assert_eq!(after_read.otp_encrypts, after_write.otp_encrypts);
        assert!(after_read.mac_computes > after_write.mac_computes);

        // Reads of never-written lines touch no crypto at all.
        m.read(100).unwrap();
        assert_eq!(m.crypto_ops(), after_read);

        assert_eq!(
            after_read.total(),
            after_read.otp_encrypts + after_read.otp_decrypts + after_read.mac_computes
        );
    }

    #[test]
    fn overwrites_bump_the_counter() {
        let mut m = mem(TreeConfig::sc64());
        m.write(4, &[1; 64]);
        let c1 = m.counter_of(4);
        m.write(4, &[2; 64]);
        let c2 = m.counter_of(4);
        assert!(c2 > c1);
        assert_eq!(m.read(4).unwrap(), [2; 64]);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_varies_with_counter() {
        let mut m = mem(TreeConfig::sc64());
        m.write(0, &[0x77; 64]);
        let ct1 = *m.data.get(0).unwrap();
        assert_ne!(ct1, [0x77; 64]);
        m.write(0, &[0x77; 64]);
        let ct2 = *m.data.get(0).unwrap();
        assert_ne!(ct1, ct2, "temporal variation from the counter");
    }

    #[test]
    fn data_tampering_is_detected() {
        for config in all_configs() {
            let mut m = mem(config.clone());
            m.write(7, &[5; 64]);
            m.tamper_raw(7, 63, 0x80).unwrap();
            let err = m.read(7).unwrap_err();
            assert!(
                matches!(err, IntegrityError::DataMac { .. }),
                "{}: {err}",
                config.name()
            );
        }
    }

    #[test]
    fn mac_tampering_is_detected() {
        let mut m = mem(TreeConfig::morphtree());
        m.write(7, &[5; 64]);
        m.tamper_mac(7, 1).unwrap();
        assert!(m.read(7).is_err());
    }

    #[test]
    fn counter_tampering_is_detected() {
        let mut m = mem(TreeConfig::morphtree());
        m.write(7, &[5; 64]);
        m.tamper_counter(0, 0).unwrap();
        let err = m.read(7).unwrap_err();
        assert!(matches!(err, IntegrityError::CounterMac { level: 0, .. }), "{err}");
    }

    #[test]
    fn counter_mac_tampering_is_detected_at_the_tampered_level() {
        let mut m = mem(TreeConfig::sc64());
        m.write(7, &[5; 64]);
        m.tamper_counter_mac(0, 0, 0x8000).unwrap();
        let err = m.read(7).unwrap_err();
        assert_eq!(err, IntegrityError::CounterMac { level: 0, line_idx: 0 });
    }

    #[test]
    fn tamper_hooks_return_typed_errors_instead_of_panicking() {
        let mut m = mem(TreeConfig::sc64());
        assert_eq!(
            m.tamper_raw(3, 0, 1),
            Err(TamperError::NeverWritten { data_line: 3 })
        );
        m.write(3, &[1; 64]);
        assert_eq!(
            m.tamper_raw(3, 64, 1),
            Err(TamperError::OffsetOutOfRange { offset: 64 })
        );
        assert_eq!(
            m.tamper_mac(4, 1),
            Err(TamperError::NeverWritten { data_line: 4 })
        );
        assert_eq!(
            m.tamper_counter(0, 999),
            Err(TamperError::NoCounterLine { level: 0, line_idx: 999 })
        );
        assert_eq!(
            m.tamper_counter_slot(99, 0, 0),
            Err(TamperError::NoSuchLevel { level: 99, levels: m.geometry().levels().len() })
        );
        assert_eq!(
            m.tamper_counter_slot(0, 0, 64),
            Err(TamperError::SlotOutOfRange { slot: 64, arity: 64 })
        );
        assert_eq!(
            m.snapshot(9).unwrap_err(),
            TamperError::NeverWritten { data_line: 9 }
        );
        assert_eq!(
            m.splice(3, 10),
            Err(TamperError::NeverWritten { data_line: 10 })
        );
        // None of the failed attacks perturbed the healthy state.
        assert_eq!(m.read(3).unwrap(), [1; 64]);
    }

    #[test]
    fn missing_mac_is_a_verification_failure_not_a_zero_sentinel() {
        // Regression: a stored ciphertext without a stored MAC used to
        // verify against "MAC = 0" — a forgeable sentinel. It must surface
        // as a typed MissingMac error.
        let mut m = mem(TreeConfig::morphtree());
        m.write(2, &[7; 64]);
        m.data_macs.take(2);
        let err = m.read(2).unwrap_err();
        assert_eq!(err, IntegrityError::MissingMac { line_addr: 2 * 64 });
        // And an adversary forging the old sentinel value fails the MAC
        // check like any other wrong MAC.
        m.data_macs.insert(2, 0);
        let err = m.read(2).unwrap_err();
        assert_eq!(err, IntegrityError::DataMac { line_addr: 2 * 64 });
    }

    #[test]
    fn cross_line_splice_is_detected_on_both_lines() {
        for config in all_configs() {
            let mut m = mem(config.clone());
            m.write(5, &[0x55; 64]);
            m.write(9, &[0x99; 64]);
            m.splice(5, 9).unwrap();
            // Each tuple is self-consistent but bound to the wrong address.
            assert_eq!(
                m.read(5).unwrap_err(),
                IntegrityError::DataMac { line_addr: 5 * 64 },
                "{}",
                config.name()
            );
            assert_eq!(
                m.read(9).unwrap_err(),
                IntegrityError::DataMac { line_addr: 9 * 64 },
                "{}",
                config.name()
            );
        }
    }

    #[test]
    fn splice_of_a_line_with_itself_is_a_noop() {
        let mut m = mem(TreeConfig::sc64());
        m.write(5, &[0x55; 64]);
        m.splice(5, 5).unwrap();
        assert_eq!(m.read(5).unwrap(), [0x55; 64]);
    }

    #[test]
    fn replay_attack_is_detected() {
        for config in all_configs() {
            let mut m = mem(config.clone());
            m.write(3, &[0xaa; 64]);
            let stale = m.snapshot(3).unwrap();
            // Victim updates the line; adversary replays the stale tuple.
            m.write(3, &[0xbb; 64]);
            m.replay(stale);
            let err = m.read(3).unwrap_err();
            // The stale counter line fails its MAC (its parent advanced).
            assert!(
                matches!(err, IntegrityError::CounterMac { .. }),
                "{}: {err}",
                config.name()
            );
        }
    }

    #[test]
    fn replay_of_current_state_is_a_noop() {
        let mut m = mem(TreeConfig::sc64());
        m.write(3, &[0xaa; 64]);
        let snap = m.snapshot(3).unwrap();
        m.replay(snap); // replaying the *current* state changes nothing
        assert_eq!(m.read(3).unwrap(), [0xaa; 64]);
    }

    #[test]
    fn overflow_reencrypts_children_and_preserves_their_contents() {
        let mut m = mem(TreeConfig::sc64());
        // Populate several children of counter line 0.
        for line in 0..8 {
            m.write(line, &[line as u8; 64]);
        }
        // Drive line 0's counter to overflow (6-bit minors).
        for _ in 0..200 {
            m.write(0, &[0xcc; 64]);
        }
        assert!(m.reencryptions() > 0);
        for line in 1..8 {
            assert_eq!(m.read(line).unwrap(), [line as u8; 64], "line {line}");
        }
    }

    #[test]
    fn morph_rebasing_avoids_reencryptions_under_uniform_writes() {
        let mut morph = mem(TreeConfig::morphtree());
        let mut sc128 = mem(TreeConfig::sc128());
        for round in 0..16 {
            for line in 0..128u64 {
                let body = [round as u8; 64];
                morph.write(line, &body);
                sc128.write(line, &body);
            }
        }
        assert!(
            morph.reencryptions() < sc128.reencryptions(),
            "morph {} !< sc128 {}",
            morph.reencryptions(),
            sc128.reencryptions()
        );
        // And everything still reads back correctly.
        assert_eq!(morph.read(100).unwrap(), [15u8; 64]);
    }

    #[test]
    fn distinct_lines_are_independent() {
        let mut m = mem(TreeConfig::morphtree());
        m.write(0, &[1; 64]);
        m.write(1, &[2; 64]);
        m.write(0, &[3; 64]);
        assert_eq!(m.read(1).unwrap(), [2; 64]);
        assert_eq!(m.read(0).unwrap(), [3; 64]);
    }

    /// The largest memory a snapshot header may declare allocates no
    /// store until a line is written, and then only that line's pages
    /// and the spine up to them: `load_memory` builds it straight after
    /// a header check.
    #[test]
    fn the_largest_memory_allocates_only_the_lines_written() {
        let bytes = crate::persist::MAX_MEMORY_BYTES;
        let mut m = SecureMemory::new(TreeConfig::morphtree(), bytes, [9u8; 16]);
        let stores = |m: &SecureMemory| {
            let levels = m.tree.stores().iter().map(PagedStore::allocated_pages).sum::<usize>();
            levels + m.data.allocated_pages() + m.data_macs.allocated_pages()
        };
        assert_eq!(stores(&m), 0);
        m.write(5, &[7; 64]);
        let copy = m.clone();
        assert_eq!(copy.read(5).unwrap(), [7; 64]);
        // One page per store: the data, its MACs and every level's line.
        assert_eq!(stores(&copy), 2 + m.geometry().levels().len());
        m.verify_all().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_rejects_out_of_range() {
        let mut m = mem(TreeConfig::sc64());
        m.write(u64::MAX, &[0; 64]);
    }

    #[test]
    fn verify_lines_cost_matches_macs_for_duplicate_and_unsorted_input() {
        // Regression: duplicate or unsorted line IDs must not make the
        // plan's cost disagree with the MACs verify_lines actually
        // computes — both canonicalize, each line is checked exactly once.
        for config in all_configs() {
            let name = config.name().to_string();
            let mut m = mem(config);
            for line in [3u64, 9, 40, 41, 1000] {
                m.write(line, &[0x2c; 64]);
            }
            let messy = [9u64, 3, 9, 40, 3, 1000, 41, 9];
            let clean = [3u64, 9, 40, 41, 1000];
            let cost = VerifyPlan::lines(&m, &messy).cost();
            assert_eq!(cost, VerifyPlan::lines(&m, &clean).cost(), "{name}");
            let before = m.crypto_ops().mac_computes;
            m.verify_lines(&messy).unwrap();
            let observed = m.crypto_ops().mac_computes - before;
            assert_eq!(cost, observed, "{name}: plan cost vs observed MACs");
        }
    }

    #[test]
    fn verify_and_read_matches_per_line_reads() {
        for config in all_configs() {
            let name = config.name().to_string();
            let mut m = mem(config);
            for line in [3u64, 9, 40, 41, 1000] {
                m.write(line, &[line as u8; 64]);
            }
            // Duplicates, unsorted order, and a never-written line (17).
            let messy = [9u64, 3, 17, 9, 40, 3, 1000, 41, 9];
            let bulk = m.verify_and_read(&messy).unwrap();
            assert_eq!(bulk.len(), messy.len(), "{name}");
            for (i, &line) in messy.iter().enumerate() {
                assert_eq!(bulk[i], m.read(line).unwrap(), "{name}: line {line}");
            }
            assert_eq!(bulk[2], [0u8; 64], "{name}: never-written reads as zeroes");
            // The empty batch is a no-op success.
            assert_eq!(m.verify_and_read(&[]).unwrap(), Vec::<[u8; 64]>::new());
        }
    }

    #[test]
    fn verify_and_read_refuses_to_release_tampered_plaintext() {
        let mut m = mem(TreeConfig::morphtree());
        m.write(5, &[0x55; 64]);
        m.write(9, &[0x99; 64]);
        m.tamper_raw(9, 0, 0x01).unwrap();
        let err = m.verify_and_read(&[5, 9]).unwrap_err();
        assert_eq!(err, IntegrityError::DataMac { line_addr: 9 * 64 });
    }

    /// The bulk read path charges exactly its plan's cost in MACs plus
    /// one decryption per unique present line, regardless of duplicates,
    /// order, or absent lines.
    #[test]
    fn verify_and_read_charges_exactly_its_cost_model() {
        for config in all_configs() {
            let name = config.name().to_string();
            let mut m = mem(config);
            for line in [3u64, 9, 40, 41, 1000] {
                m.write(line, &[0x2c; 64]);
            }
            let messy = [9u64, 3, 17, 9, 40, 3, 1000, 41, 9];
            let macs = VerifyPlan::lines(&m, &messy).cost();
            let decrypts = canonical_lines(&messy)
                .iter()
                .filter(|&&line| m.data.contains(line))
                .count() as u64;
            assert_eq!(decrypts, 5, "{name}: one decrypt per unique present line");
            let before = m.crypto_ops();
            m.verify_lines(&messy).unwrap();
            let verify_lines_macs = m.crypto_ops().mac_computes - before.mac_computes;
            assert_eq!(macs, verify_lines_macs, "{name}");
            let before = m.crypto_ops();
            m.verify_and_read(&messy).unwrap();
            let after = m.crypto_ops();
            assert_eq!(after.mac_computes - before.mac_computes, macs, "{name}");
            assert_eq!(after.otp_decrypts - before.otp_decrypts, decrypts, "{name}");
            assert_eq!(after.otp_encrypts, before.otp_encrypts, "{name}: reads never encrypt");
        }
    }

    /// The crypto work between two [`CryptoOps`] readings.
    fn delta(before: CryptoOps, after: CryptoOps) -> CryptoOps {
        CryptoOps {
            otp_encrypts: after.otp_encrypts - before.otp_encrypts,
            otp_decrypts: after.otp_decrypts - before.otp_decrypts,
            mac_computes: after.mac_computes - before.mac_computes,
        }
    }

    /// On a clean memory every entry point charges exactly its plan's
    /// cost, and each cost is pinned to a count taken from the stores
    /// directly: a read MACs its data line plus each present off-chip
    /// ancestor and decrypts once; `verify_all` MACs every stored
    /// off-chip counter line and data line (bounded recovery's crossover
    /// relies on that count).
    #[test]
    fn success_path_charges_exactly_the_plan_cost() {
        for config in all_configs() {
            let name = config.name().to_string();
            let mut m = mem(config);
            let written = [3u64, 9, 40, 41, 1000, 9000];
            for line in written {
                m.write(line, &[0x5e; 64]);
            }
            let top = m.geometry().top_level();
            let present_ancestors = |m: &SecureMemory, line: u64| -> u64 {
                let mut child = line;
                let mut present = 0;
                for level in 0..top {
                    let (line_idx, _) = m.geometry().parent_of(level, child);
                    present += u64::from(m.tree.stores()[level].contains(line_idx));
                    child = line_idx;
                }
                present
            };

            for line in written {
                let cost = VerifyPlan::Line(&m, line).cost();
                assert_eq!(cost, 1 + present_ancestors(&m, line), "{name}: line {line}");
                let before = m.crypto_ops();
                m.read(line).unwrap();
                let spent = delta(before, m.crypto_ops());
                assert_eq!(
                    spent,
                    CryptoOps { otp_encrypts: 0, otp_decrypts: 1, mac_computes: cost },
                    "{name}: read {line}"
                );
            }
            // A never-written line reads as zeroes and touches no crypto.
            let before = m.crypto_ops();
            m.read(17).unwrap();
            assert_eq!(m.crypto_ops(), before, "{name}: never-written read");

            let lines = [9000u64, 3, 17, 40, 3];
            let cost = VerifyPlan::lines(&m, &lines).cost();
            let before = m.crypto_ops();
            m.verify_lines(&lines).unwrap();
            let spent = delta(before, m.crypto_ops());
            assert_eq!(spent, CryptoOps { mac_computes: cost, ..CryptoOps::default() }, "{name}");

            let stored = (0..top)
                .map(|level| m.tree.stores()[level].iter().count() as u64)
                .sum::<u64>()
                + m.data.iter().count() as u64;
            assert_eq!(VerifyPlan::All(&m).cost(), stored, "{name}");
            let before = m.crypto_ops();
            m.verify_all().unwrap();
            let spent = delta(before, m.crypto_ops());
            assert_eq!(spent, CryptoOps { mac_computes: stored, ..CryptoOps::default() }, "{name}");
        }
    }

    /// The MACs a verification charges, which must fail.
    fn failing_macs<T>(
        m: &SecureMemory,
        verify: impl FnOnce(&SecureMemory) -> Result<T, IntegrityError>,
    ) -> u64 {
        let before = m.crypto_ops().mac_computes;
        assert!(verify(m).is_err(), "the tamper must be detected");
        m.crypto_ops().mac_computes - before
    }

    /// A failing run charges the present checks up to and including the
    /// one that failed, in plan order: a read of a tampered data line one
    /// MAC, a read under a flipped level-k ancestor MAC k + 2, and
    /// `verify_lines` the present checks of its canonical order up to the
    /// failure.
    #[test]
    fn failure_path_charges_the_checks_up_to_the_failure() {
        for (name, config) in crate::attack::campaign_configs() {
            // 1 GiB gives every config several off-chip levels.
            let mut clean = SecureMemory::new(config, 1 << 30, [9u8; 16]);
            let written = [3u64, 9, 40, 9000, 77_777];
            for line in written {
                clean.write(line, &[0x5e; 64]);
            }
            let top = clean.geometry().top_level();
            assert!(top >= 3, "{name}: too shallow to test the chain");

            for line in written {
                let mut m = clean.clone();
                m.tamper_raw(line, 0, 1).unwrap();
                assert_eq!(failing_macs(&m, |m| m.read(line)), 1, "{name}: read {line}");
            }
            let line = 77_777;
            let mut child = line;
            for level in 0..top {
                child = clean.geometry().parent_of(level, child).0;
                let mut m = clean.clone();
                m.tamper_counter_mac(level, child, 1).unwrap();
                let spent = failing_macs(&m, |m| m.read(line));
                assert_eq!(spent, level as u64 + 2, "{name}: level {level}");
            }

            // Canonical order 3, 9, 17 (never written: no check), 40,
            // 9000, 77_777, then the level-0 ancestors ascending.
            let lines = [9000u64, 3, 17, 40, 3, 77_777, 9];
            for (position, line) in written.into_iter().enumerate() {
                let mut m = clean.clone();
                m.tamper_raw(line, 0, 1).unwrap();
                let spent = failing_macs(&m, |m| m.verify_lines(&lines));
                assert_eq!(spent, position as u64 + 1, "{name}: verify_lines data {line}");
            }
            // The largest line's level-0 parent is the last level-0
            // ancestor checked.
            let parents: std::collections::BTreeSet<u64> =
                written.iter().map(|&l| clean.geometry().parent_of(0, l).0).collect();
            let mut m = clean.clone();
            m.tamper_counter_mac(0, clean.geometry().parent_of(0, line).0, 1).unwrap();
            let spent = failing_macs(&m, |m| m.verify_lines(&lines));
            let expect = written.len() as u64 + parents.len() as u64;
            assert_eq!(spent, expect, "{name}: verify_lines level-0 ancestor");
        }
    }

    /// A single tamper.
    #[derive(Debug, Clone, Copy)]
    enum Tamper {
        Raw,
        Mac,
        CounterSlot,
        CounterMac,
        Splice,
        Replay,
    }

    impl Tamper {
        const ALL: [Tamper; 6] = [
            Tamper::Raw,
            Tamper::Mac,
            Tamper::CounterSlot,
            Tamper::CounterMac,
            Tamper::Splice,
            Tamper::Replay,
        ];

        /// Applies the tamper to `line` of `m`, whose neighbours `line + 1`
        /// (written) and `line + 2` (never written) share its level-0
        /// counter line. Returns the error every entry point must report.
        fn apply(self, m: &mut SecureMemory, line: u64) -> IntegrityError {
            let (line_idx, slot) = m.geometry().parent_of(0, line);
            let counter_mac = IntegrityError::CounterMac { level: 0, line_idx };
            let data_mac = IntegrityError::DataMac { line_addr: line * 64 };
            match self {
                Tamper::Raw => m.tamper_raw(line, 5, 0x10).map(|()| data_mac),
                Tamper::Mac => m.tamper_mac(line, 1 << 7).map(|()| data_mac),
                // A slot no written line uses: only the counter line's
                // own MAC can fail.
                Tamper::CounterSlot => {
                    m.tamper_counter_slot(0, line_idx, slot + 2).map(|()| counter_mac)
                }
                Tamper::CounterMac => {
                    m.tamper_counter_mac(0, line_idx, 0x8000).map(|()| counter_mac)
                }
                // Both lines fail; `line` is the lower, so every order
                // meets it first.
                Tamper::Splice => m.splice(line, line + 1).map(|()| data_mac),
                Tamper::Replay => m.snapshot(line).map(|stale| {
                    m.write(line, &[0xee; 64]);
                    m.replay(stale);
                    counter_mac
                }),
            }
            .unwrap()
        }
    }

    /// Every verification entry point of `m` reports `expect` for `line`.
    fn assert_every_entry_point(m: &SecureMemory, line: u64, expect: &IntegrityError, what: &str) {
        assert_eq!(&m.read(line).unwrap_err(), expect, "{what}: read");
        assert_eq!(&m.verify_lines(&[line]).unwrap_err(), expect, "{what}: verify_lines");
        assert_eq!(&m.verify_and_read(&[line]).unwrap_err(), expect, "{what}: verify_and_read");
        assert_eq!(&m.verify_all().unwrap_err(), expect, "{what}: verify_all");
    }

    /// One tamper, every entry point: `read`, `verify_lines`,
    /// `verify_and_read` and `verify_all`, serial and on a 2-shard
    /// `ShardedMemory` (data addresses globalized), all report the same
    /// error for the tampered line, and an untampered line under another
    /// level-0 counter line still verifies.
    #[test]
    fn one_tamper_every_entry_point_reports_the_same_error() {
        use crate::concurrent::ShardedMemory;
        // In shard 1 of 2, at local line 128: a multiple of every
        // level-0 arity, so lines `line + 1` and `line + 2` share its
        // level-0 counter line and `line + 256` does not.
        let line = MIB / 64 / 2 + 128;
        let neighbour = line + 256;
        for config in all_configs() {
            for tamper in Tamper::ALL {
                let what = format!("{} {tamper:?}", config.name());
                let mut serial = mem(config.clone());
                let mut sharded = ShardedMemory::new(config.clone(), MIB, [9u8; 16], 2).unwrap();
                for l in [line, line + 1, neighbour] {
                    serial.write(l, &[l as u8; 64]);
                    sharded.write(l, &[l as u8; 64]);
                }
                let expect = tamper.apply(&mut serial, line);
                assert_every_entry_point(&serial, line, &expect, &what);

                let local = sharded.plan().local_line(line);
                let expect_local = tamper.apply(sharded.shard_mut(1), local);
                assert_every_entry_point(sharded.shard(1), local, &expect_local, &what);
                let expect_global = match expect_local {
                    IntegrityError::DataMac { .. } => expect,
                    other => other,
                };
                assert_eq!(sharded.read(line).unwrap_err(), expect_global, "{what}: sharded read");
                assert_eq!(sharded.verify_lines(&[line]).unwrap_err(), expect_global, "{what}");
                assert_eq!(sharded.verify_and_read(&[line]).unwrap_err(), expect_global, "{what}");
                assert_eq!(sharded.verify_all().unwrap_err(), expect_global, "{what}");

                let clean = [neighbour as u8; 64];
                assert_eq!(serial.read(neighbour).unwrap(), clean, "{what}: neighbour");
                serial.verify_lines(&[neighbour]).unwrap();
                assert_eq!(serial.verify_and_read(&[neighbour]).unwrap(), vec![clean], "{what}");
                assert_eq!(sharded.read(neighbour).unwrap(), clean, "{what}: sharded neighbour");
                sharded.verify_lines(&[neighbour]).unwrap();
                assert_eq!(sharded.verify_and_read(&[neighbour]).unwrap(), vec![clean], "{what}");
            }
        }
    }
}
