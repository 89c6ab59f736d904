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

use morphtree_crypto::{CtrModeCipher, MacKey, MacTag};

/// Upper bound on integrity-chain depth (levels from data to root). The
/// deepest evaluated geometry (arity-8 SGX-style counters over a 16 GiB
/// memory) is under 12 levels; 24 leaves generous headroom and keeps
/// per-read chain verification allocation-free.
const MAX_CHAIN: usize = 24;

/// Lines per batched MAC pass in the bulk verifiers — enough to amortize
/// loop overhead and keep the interleaved SipHash states hot without
/// oversizing the stack buffers.
const VERIFY_BATCH: usize = 16;

use crate::counters::morph::MorphLine;
use crate::counters::split::{SplitConfig, SplitLine};
use crate::counters::{CounterLine, CounterOrg, IncrementOutcome, Line};
use crate::error::{CodecError, IntegrityError, TamperError};
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
    geometry: TreeGeometry,
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
    /// Counter lines per level; each line's `mac()` field holds its stored
    /// MAC (keyed by its parent counter). The root level is on-chip and
    /// needs no MAC.
    levels: Vec<PagedStore<Line>>,
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
        let mut mac_seed = key;
        mac_seed[0] ^= 0x5a; // domain separation from the encryption key
        SecureMemory {
            config,
            cipher: CtrModeCipher::new(key),
            mac_key: MacKey::new(mac_seed),
            key,
            data: PagedStore::new(geometry.data_lines()),
            data_macs: PagedStore::new(geometry.data_lines()),
            levels: geometry
                .levels()
                .iter()
                .map(|level| PagedStore::new(level.lines))
                .collect(),
            reencryptions: 0,
            crypto: Cell::new(CryptoOps::default()),
            journal: None,
            geometry,
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
        &self.geometry
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
        let top = self.geometry.top_level();
        match self.levels[top].get(0) {
            None => crate::persist::codec::fnv1a(&[]),
            Some(line) => {
                let mut image = [0u8; CACHELINE_BYTES + 8];
                image[..CACHELINE_BYTES].copy_from_slice(&line.encode_for_mac());
                image[CACHELINE_BYTES..].copy_from_slice(&line.mac().to_le_bytes());
                crate::persist::codec::fnv1a(&image)
            }
        }
    }

    /// Effective encryption counter for `data_line`.
    #[must_use]
    pub fn counter_of(&self, data_line: u64) -> u64 {
        let (line_idx, slot) = self.geometry.parent_of(0, data_line);
        self.levels[0]
            .get(line_idx)
            .map_or(0, |line| line.get(slot))
    }

    fn data_addr(&self, data_line: u64) -> u64 {
        data_line * CACHELINE_BYTES as u64
    }

    fn line_or_new(&mut self, level: usize, line_idx: u64) -> &mut Line {
        let org = self.config.org(level);
        self.levels[level].get_or_insert_with(line_idx, || org.new_line())
    }

    /// MAC of a metadata line at `level`, keyed by its parent counter.
    fn counter_line_mac(&self, level: usize, line_idx: u64, body: &[u8; 64]) -> u64 {
        let parent_value = if level == self.geometry.top_level() {
            // The root line lives in on-chip trusted storage; give it a
            // fixed key component.
            0
        } else {
            let (parent_idx, slot) = self.geometry.parent_of(level + 1, line_idx);
            self.levels[level + 1]
                .get(parent_idx)
                .map_or(0, |line| line.get(slot))
        };
        let addr = self.geometry.line_addr(level, line_idx);
        self.charge(|ops| ops.mac_computes += 1);
        self.mac_key.mac_line(addr, parent_value, body).0
    }

    /// Recomputes and stores the MAC of a metadata line.
    ///
    /// Every counter-line mutation a write performs ends with a MAC refresh
    /// of the touched line (increments in [`SecureMemory::bump`], overflow
    /// child repairs), so this is the single choke point where counter
    /// mutations reach the journal.
    fn refresh_line_mac(&mut self, level: usize, line_idx: u64) {
        let body = {
            let line = self.line_or_new(level, line_idx);
            line.encode_for_mac()
        };
        let mac = self.counter_line_mac(level, line_idx, &body);
        self.line_or_new(level, line_idx).set_mac(mac);
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
    fn bump(&mut self, level: usize, child_idx: u64) {
        let (line_idx, slot) = self.geometry.parent_of(level, child_idx);
        let arity = self.geometry.levels()[level].arity;

        // An overflow at level 0 re-encrypts data children under their old
        // counters, so keep the pre-increment line there. It is read only
        // when the increment overflows; upper levels re-MAC their children
        // from the new counters and need no copy.
        let line = self.line_or_new(level, line_idx);
        let before = (level == 0).then(|| line.clone());
        let outcome = line.increment(slot);

        if let IncrementOutcome::Overflow(event) = outcome {
            let children_total: u64 = if level == 0 {
                self.geometry.data_lines()
            } else {
                self.geometry.levels()[level - 1].lines
            };
            for s in event.span.slots(arity) {
                let child = line_idx * arity as u64 + s as u64;
                if child >= children_total {
                    break;
                }
                if let Some(before) = &before {
                    self.reencrypt_data_child(child, before.get(s));
                } else {
                    // Child counter line's MAC is keyed by its (changed)
                    // parent counter: recompute it.
                    if self.levels[level - 1].contains(child) {
                        self.refresh_line_mac(level - 1, child);
                        self.reencryptions += 1;
                    }
                }
            }
        }

        // Propagate the write upward (replay protection: the parent counter
        // must advance whenever this line changes), then re-MAC this line
        // under the new parent value.
        if level < self.geometry.top_level() {
            self.bump(level + 1, line_idx);
        }
        self.refresh_line_mac(level, line_idx);
    }

    /// Writes a plaintext line.
    pub fn write(&mut self, data_line: u64, plaintext: &[u8; CACHELINE_BYTES]) {
        assert!(data_line < self.geometry.data_lines(), "data line out of range");
        self.bump(0, data_line);
        let counter = self.counter_of(data_line);
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
    /// MAC up to the on-chip root.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] when any MAC fails — i.e. when tampering
    /// or replay is detected.
    pub fn read(&self, data_line: u64) -> Result<[u8; CACHELINE_BYTES], IntegrityError> {
        assert!(data_line < self.geometry.data_lines(), "data line out of range");
        let Some(ciphertext) = self.data.get(data_line) else {
            // Never written: defined to read as zeroes.
            return Ok([0u8; CACHELINE_BYTES]);
        };
        let addr = self.data_addr(data_line);
        let counter = self.counter_of(data_line);
        self.charge(|ops| ops.mac_computes += 1);
        let expect = self.mac_key.mac_line(addr, counter, ciphertext).0;
        // A written line must have a stored MAC. Treating a missing MAC as
        // "0" would hand an adversary a trivially forgeable sentinel value;
        // make the inconsistency a verification failure instead.
        let Some(&stored) = self.data_macs.get(data_line) else {
            return Err(IntegrityError::MissingMac { line_addr: addr });
        };
        if stored != expect {
            return Err(IntegrityError::DataMac { line_addr: addr });
        }
        self.verify_chain(data_line)?;
        self.charge(|ops| ops.otp_decrypts += 1);
        let mut plaintext = [0u8; CACHELINE_BYTES];
        self.cipher
            .decrypt_line_into(addr, counter, ciphertext, &mut plaintext);
        Ok(plaintext)
    }

    /// Verifies the counter-line MAC chain covering `data_line`.
    ///
    /// The chain's lines are collected first and their MACs computed in
    /// one batched [`MacKey::mac_lines_into`] pass (interleaved SipHash
    /// states), allocation-free via fixed stack buffers — the chain depth
    /// is bounded by [`MAX_CHAIN`].
    fn verify_chain(&self, data_line: u64) -> Result<(), IntegrityError> {
        let mut bodies = [[0u8; 64]; MAX_CHAIN];
        // (level, line_idx, line addr, parent-counter key, stored MAC).
        let mut meta = [(0usize, 0u64, 0u64, 0u64, 0u64); MAX_CHAIN];
        let mut count = 0;
        let mut child = data_line;
        for level in 0..=self.geometry.top_level() {
            let (line_idx, _) = self.geometry.parent_of(level, child);
            if let Some(line) = self.levels[level].get(line_idx) {
                // The root line (level == top) is on-chip: trusted.
                if level < self.geometry.top_level() {
                    let (parent_idx, slot) = self.geometry.parent_of(level + 1, line_idx);
                    let parent_value = self.levels[level + 1]
                        .get(parent_idx)
                        .map_or(0, |parent| parent.get(slot));
                    bodies[count] = line.encode_for_mac();
                    meta[count] = (
                        level,
                        line_idx,
                        self.geometry.line_addr(level, line_idx),
                        parent_value,
                        line.mac(),
                    );
                    count += 1;
                }
            }
            child = line_idx;
        }
        self.charge(|ops| ops.mac_computes += count as u64);
        let inputs: [(u64, u64, &[u8; 64]); MAX_CHAIN] =
            core::array::from_fn(|i| (meta[i].2, meta[i].3, &bodies[i]));
        let mut tags = [MacTag(0); MAX_CHAIN];
        self.mac_key
            .mac_lines_into(&inputs[..count], &mut tags[..count]);
        for (tag, &(level, line_idx, _, _, stored)) in tags.iter().zip(&meta).take(count) {
            if stored != tag.0 {
                return Err(IntegrityError::CounterMac { level, line_idx });
            }
        }
        Ok(())
    }

    /// Batch-verifies the data MACs of `lines` and the MACs of their
    /// (deduplicated) ancestor counter lines — the bulk form of calling
    /// [`SecureMemory::read`] per line, minus the useless OTP decrypts:
    /// the MAC covers the *ciphertext*, so decryption verifies nothing.
    ///
    /// Shared ancestors are verified once, not once per descendant, and
    /// all MACs go through the batched SipHash pass. Bounded recovery's
    /// touched-line re-verification is the primary caller.
    ///
    /// Never-written lines are skipped (they read as zeroes by
    /// definition, with nothing stored off-chip to verify).
    ///
    /// Duplicate or unsorted input lines are canonicalized (sorted,
    /// deduplicated) first, so each line is checked exactly once and the
    /// MAC count always equals [`SecureMemory::verify_lines_cost`] — the
    /// invariant bounded recovery's crossover heuristic relies on.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] found, identifying the
    /// failing line.
    pub fn verify_lines(&self, lines: &[u64]) -> Result<(), IntegrityError> {
        let lines = crate::proof::canonical_lines(lines);
        // Data MACs first (cheapest to gather: ciphertexts are borrowed
        // straight from the store), in batches.
        let mut batch: Vec<(u64, u64, &[u8; CACHELINE_BYTES])> =
            Vec::with_capacity(VERIFY_BATCH);
        let mut addrs: Vec<u64> = Vec::with_capacity(VERIFY_BATCH);
        let mut tags = [MacTag(0); VERIFY_BATCH];
        for chunk in lines.chunks(VERIFY_BATCH) {
            batch.clear();
            addrs.clear();
            for &line in chunk {
                assert!(line < self.geometry.data_lines(), "data line out of range");
                if let Some(ciphertext) = self.data.get(line) {
                    let addr = self.data_addr(line);
                    batch.push((addr, self.counter_of(line), ciphertext));
                    addrs.push(line);
                }
            }
            self.charge(|ops| ops.mac_computes += batch.len() as u64);
            self.mac_key.mac_lines_into(&batch, &mut tags[..batch.len()]);
            for ((tag, &line), &(addr, _, _)) in
                tags.iter().zip(&addrs).zip(&batch)
            {
                let Some(&stored) = self.data_macs.get(line) else {
                    return Err(IntegrityError::MissingMac { line_addr: addr });
                };
                if stored != tag.0 {
                    return Err(IntegrityError::DataMac { line_addr: addr });
                }
            }
        }
        // Ancestor counter lines, deduplicated across the whole batch.
        let chain: Vec<(usize, u64)> = self.chain_lines_of(&lines).into_iter().collect();
        self.verify_counter_batch(&chain)
    }

    /// Batch-verifies `lines` and returns their plaintexts in **input
    /// order** — the bulk form of calling [`SecureMemory::read`] per
    /// line, with every MAC going through the batched SipHash pass.
    ///
    /// Verification canonicalizes exactly like
    /// [`SecureMemory::verify_lines`]: duplicates are verified and
    /// decrypted once, then fanned back out to their input positions.
    /// Never-written lines read as zeroes, as in [`SecureMemory::read`].
    /// The crypto work charged is exactly
    /// [`SecureMemory::verify_and_read_cost`].
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] found; no plaintext is
    /// released for any line of a failing batch.
    pub fn verify_and_read(
        &self,
        lines: &[u64],
    ) -> Result<Vec<[u8; CACHELINE_BYTES]>, IntegrityError> {
        let canonical = crate::proof::canonical_lines(lines);
        self.verify_lines(&canonical)?;
        // Decrypt each unique present line once.
        let mut plaintexts: std::collections::BTreeMap<u64, [u8; CACHELINE_BYTES]> =
            std::collections::BTreeMap::new();
        for &line in &canonical {
            if let Some(ciphertext) = self.data.get(line) {
                let mut plaintext = [0u8; CACHELINE_BYTES];
                self.cipher.decrypt_line_into(
                    self.data_addr(line),
                    self.counter_of(line),
                    ciphertext,
                    &mut plaintext,
                );
                plaintexts.insert(line, plaintext);
            }
        }
        self.charge(|ops| ops.otp_decrypts += plaintexts.len() as u64);
        Ok(lines
            .iter()
            .map(|line| {
                plaintexts
                    .get(line)
                    .copied()
                    .unwrap_or([0u8; CACHELINE_BYTES])
            })
            .collect())
    }

    /// The exact crypto work [`SecureMemory::verify_and_read`] charges
    /// for `lines`: [`SecureMemory::verify_lines_cost`] MAC checks plus
    /// one counter-mode decryption per unique *present* line — cheap
    /// integer work, pinned equal to the observed [`CryptoOps`] delta by
    /// the accounting tests.
    #[must_use]
    pub fn verify_and_read_cost(&self, lines: &[u64]) -> CryptoOps {
        let canonical = crate::proof::canonical_lines(lines);
        CryptoOps {
            otp_encrypts: 0,
            otp_decrypts: canonical.iter().filter(|&&l| self.data.contains(l)).count() as u64,
            mac_computes: self.verify_lines_cost(&canonical),
        }
    }

    /// Batch-verifies the MACs of the given off-chip counter lines
    /// (absent lines are skipped), in chunks of [`VERIFY_BATCH`] through
    /// the interleaved SipHash pass.
    fn verify_counter_batch(&self, entries: &[(usize, u64)]) -> Result<(), IntegrityError> {
        let mut bodies = [[0u8; 64]; VERIFY_BATCH];
        // (level, line_idx, line addr, parent-counter key, stored MAC).
        let mut meta = [(0usize, 0u64, 0u64, 0u64, 0u64); VERIFY_BATCH];
        let mut tags = [MacTag(0); VERIFY_BATCH];
        for chunk in entries.chunks(VERIFY_BATCH) {
            let mut count = 0;
            for &(level, line_idx) in chunk {
                let Some(line) = self.levels[level].get(line_idx) else {
                    continue;
                };
                let parent_value = if level == self.geometry.top_level() {
                    0
                } else {
                    let (parent_idx, slot) = self.geometry.parent_of(level + 1, line_idx);
                    self.levels[level + 1]
                        .get(parent_idx)
                        .map_or(0, |parent| parent.get(slot))
                };
                bodies[count] = line.encode_for_mac();
                meta[count] = (
                    level,
                    line_idx,
                    self.geometry.line_addr(level, line_idx),
                    parent_value,
                    line.mac(),
                );
                count += 1;
            }
            self.charge(|ops| ops.mac_computes += count as u64);
            let inputs: [(u64, u64, &[u8; 64]); VERIFY_BATCH] =
                core::array::from_fn(|i| (meta[i].2, meta[i].3, &bodies[i]));
            self.mac_key
                .mac_lines_into(&inputs[..count], &mut tags[..count]);
            for (tag, &(level, line_idx, _, _, stored)) in tags.iter().zip(&meta).take(count) {
                if stored != tag.0 {
                    return Err(IntegrityError::CounterMac { level, line_idx });
                }
            }
        }
        Ok(())
    }

    /// The deduplicated off-chip ancestor counter lines covering `lines`
    /// (sorted `(level, line_idx)` pairs, top-level root excluded). The
    /// proof subsystem uses the same `(level, line_idx)` keying for its
    /// node deduplication.
    pub(crate) fn chain_lines_of(&self, lines: &[u64]) -> std::collections::BTreeSet<(usize, u64)> {
        let mut chain = std::collections::BTreeSet::new();
        for &line in lines {
            let mut child = line;
            for level in 0..self.geometry.top_level() {
                let (line_idx, _) = self.geometry.parent_of(level, child);
                chain.insert((level, line_idx));
                child = line_idx;
            }
        }
        chain
    }

    /// Number of MAC checks [`SecureMemory::verify_lines`] would perform
    /// for `lines` — cheap integer work, used by bounded recovery's
    /// crossover heuristic to decide between the touched-line path and
    /// [`SecureMemory::verify_all`].
    ///
    /// Canonicalizes (sorts, deduplicates) the input exactly like
    /// [`SecureMemory::verify_lines`], so duplicate or unsorted line IDs
    /// cannot make the integer cost disagree with the MACs actually
    /// computed (the regression the cost-model tests pin).
    pub fn verify_lines_cost(&self, lines: &[u64]) -> u64 {
        let lines = crate::proof::canonical_lines(lines);
        let data: u64 = lines.iter().filter(|&&l| self.data.contains(l)).count() as u64;
        let chain = self
            .chain_lines_of(&lines)
            .iter()
            .filter(|&&(level, line_idx)| self.levels[level].contains(line_idx))
            .count() as u64;
        data + chain
    }

    /// Number of MAC checks [`SecureMemory::verify_all`] performs (every
    /// stored off-chip counter line plus every stored data line).
    pub fn verify_all_cost(&self) -> u64 {
        let counters: u64 = (0..self.geometry.top_level())
            .map(|level| self.levels[level].len())
            .sum();
        counters + self.data.len()
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

    /// The counter-line stores per level, for snapshot export.
    pub(crate) fn level_stores(&self) -> &[PagedStore<Line>] {
        &self.levels
    }

    /// Ciphertext and MAC of a written data line (`None` unless both are
    /// present), for WAL record derivation.
    pub(crate) fn data_line_state(&self, line: u64) -> Option<([u8; CACHELINE_BYTES], u64)> {
        Some((*self.data.get(line)?, *self.data_macs.get(line)?))
    }

    /// Encoded 64-byte image of a stored counter line, for WAL record
    /// derivation.
    pub(crate) fn counter_line_image(
        &self,
        level: usize,
        line_idx: u64,
    ) -> Option<[u8; CACHELINE_BYTES]> {
        self.levels.get(level)?.get(line_idx).map(|line| line.encode())
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

    /// Restores a counter line from its encoded image, decoding it under
    /// the level's configured organization. The caller must have validated
    /// `level` and `line_idx` against the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the image is not a valid encoding for
    /// the level's counter organization.
    pub(crate) fn restore_counter_line(
        &mut self,
        level: usize,
        line_idx: u64,
        image: &[u8; CACHELINE_BYTES],
    ) -> Result<(), CodecError> {
        let line = match self.config.org(level) {
            CounterOrg::Split { arity } => {
                Line::from(SplitLine::decode(SplitConfig::with_arity(arity), image))
            }
            CounterOrg::Morph(mode) => Line::from(MorphLine::decode(mode, image)?),
        };
        self.levels[level].insert(line_idx, line);
        Ok(())
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
        // Counter levels bottom-up, through the batched MAC pass.
        for level in 0..self.geometry.top_level() {
            let entries: Vec<(usize, u64)> = self.levels[level]
                .iter()
                .map(|(line_idx, _)| (level, line_idx))
                .collect();
            self.verify_counter_batch(&entries)?;
        }
        // Data lines, batched; ciphertexts are borrowed straight from the
        // store so each batch is gather + one interleaved SipHash pass.
        let mut batch: Vec<(u64, u64, &[u8; CACHELINE_BYTES])> =
            Vec::with_capacity(VERIFY_BATCH);
        let mut lines: Vec<u64> = Vec::with_capacity(VERIFY_BATCH);
        let mut tags = [MacTag(0); VERIFY_BATCH];
        let mut iter = self.data.iter().peekable();
        while iter.peek().is_some() {
            batch.clear();
            lines.clear();
            for (data_line, ciphertext) in iter.by_ref().take(VERIFY_BATCH) {
                batch.push((self.data_addr(data_line), self.counter_of(data_line), ciphertext));
                lines.push(data_line);
            }
            self.charge(|ops| ops.mac_computes += batch.len() as u64);
            self.mac_key.mac_lines_into(&batch, &mut tags[..batch.len()]);
            for ((tag, &data_line), &(addr, _, _)) in tags.iter().zip(&lines).zip(&batch) {
                match self.data_macs.get(data_line) {
                    None => return Err(IntegrityError::MissingMac { line_addr: addr }),
                    Some(&stored) if stored != tag.0 => {
                        return Err(IntegrityError::DataMac { line_addr: addr });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
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
        let levels = self.levels.len();
        let line = self
            .levels
            .get_mut(level)
            .ok_or(TamperError::NoSuchLevel { level, levels })?
            .get_mut(line_idx)
            .ok_or(TamperError::NoCounterLine { level, line_idx })?;
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
        let levels = self.levels.len();
        let line = self
            .levels
            .get_mut(level)
            .ok_or(TamperError::NoSuchLevel { level, levels })?
            .get_mut(line_idx)
            .ok_or(TamperError::NoCounterLine { level, line_idx })?;
        let mac = line.mac();
        line.set_mac(mac ^ mask);
        Ok(())
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
        let (line_idx, _) = self.geometry.parent_of(0, data_line);
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
            .levels
            .first()
            .and_then(|level| level.get(line_idx))
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
        let (line_idx, _) = self.geometry.parent_of(0, snapshot.data_line);
        self.data.insert(snapshot.data_line, snapshot.ciphertext);
        self.data_macs.insert(snapshot.data_line, snapshot.mac);
        self.levels[0].insert(line_idx, snapshot.counter_line);
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_rejects_out_of_range() {
        let mut m = mem(TreeConfig::sc64());
        m.write(u64::MAX, &[0; 64]);
    }

    #[test]
    fn verify_lines_cost_matches_macs_for_duplicate_and_unsorted_input() {
        // Regression: duplicate or unsorted line IDs must not make the
        // integer cost model disagree with the MACs verify_lines actually
        // computes — both canonicalize, each line is checked exactly once.
        for config in all_configs() {
            let name = config.name().to_string();
            let mut m = mem(config);
            for line in [3u64, 9, 40, 41, 1000] {
                m.write(line, &[0x2c; 64]);
            }
            let messy = [9u64, 3, 9, 40, 3, 1000, 41, 9];
            let clean = [3u64, 9, 40, 41, 1000];
            let cost = m.verify_lines_cost(&messy);
            assert_eq!(cost, m.verify_lines_cost(&clean), "{name}");
            let before = m.crypto_ops().mac_computes;
            m.verify_lines(&messy).unwrap();
            let observed = m.crypto_ops().mac_computes - before;
            assert_eq!(cost, observed, "{name}: cost model vs observed MACs");
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

    /// Satellite: the bulk read path charges exactly the integer cost
    /// model — `verify_lines_cost` MACs plus one decryption per unique
    /// present line, regardless of duplicates, order, or absent lines.
    #[test]
    fn verify_and_read_charges_exactly_its_cost_model() {
        for config in all_configs() {
            let name = config.name().to_string();
            let mut m = mem(config);
            for line in [3u64, 9, 40, 41, 1000] {
                m.write(line, &[0x2c; 64]);
            }
            let messy = [9u64, 3, 17, 9, 40, 3, 1000, 41, 9];
            let cost = m.verify_and_read_cost(&messy);
            assert_eq!(cost.otp_decrypts, 5, "{name}: one decrypt per unique present line");
            assert_eq!(cost.mac_computes, m.verify_lines_cost(&messy), "{name}");
            let before = m.crypto_ops();
            m.verify_and_read(&messy).unwrap();
            let after = m.crypto_ops();
            assert_eq!(after.mac_computes - before.mac_computes, cost.mac_computes, "{name}");
            assert_eq!(after.otp_decrypts - before.otp_decrypts, cost.otp_decrypts, "{name}");
            assert_eq!(after.otp_encrypts, before.otp_encrypts, "{name}: reads never encrypt");
        }
    }
}
