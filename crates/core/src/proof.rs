//! Verifiable integrity proofs: the authenticated read API (ISSUE 9).
//!
//! The functional tree detects tampering *internally* — [`SecureMemory::read`]
//! walks the counter chain it holds. This module turns that walk into an
//! artifact: [`SecureMemory::prove`] emits a compact, versioned,
//! varint-framed [`Proof`] carrying, for each requested data line, the
//! ciphertext + data MAC plus the deduplicated counter-line chain up to the
//! on-chip root, and a standalone [`verify_proof`] checks it against a
//! *published root* with no access to the memory image at all — the same
//! boundary-checkable framing SecDDR uses, and the varint-framed proof
//! encoding grovedb's Merk proofs use.
//!
//! # Proof contents and trust chain
//!
//! A serial proof contains:
//!
//! - a header: format version, the tree configuration, the protected memory
//!   size, and the construction key (a *model* concession — the snapshot
//!   formats already externalize the key as the stand-in for the SoC's
//!   sealed state; see [`crate::persist`]);
//! - one entry per proven data line (sorted, deduplicated): line index,
//!   64-byte ciphertext, stored 64-bit data MAC;
//! - one entry per covering counter line (sorted, deduplicated by
//!   `(level, line_idx)` — exactly the keying of the functional plane's
//!   `chain_lines_of`, plus the top line): the 64-byte MAC-input image
//!   (`encode_for_mac`) and the stored 64-bit MAC.
//!
//! Verification rebuilds the geometry from the header, requires the node
//! set to be *exactly* the chain the data lines need (nothing missing,
//! nothing extra), decodes every counter body under the level's configured
//! organization, recomputes every counter-line MAC keyed by its parent's
//! decoded counter (top keyed 0) in one batched
//! [`MacKey::mac_lines_into`] pass, recomputes every data MAC under the
//! level-0 decoded counters, and finally checks that the top entry hashes
//! to the published root (the same FNV digest as
//! [`SecureMemory::root_digest`]). The chain is closed: the root binds the
//! top body, each body keys its children's MACs, and the level-0 bodies
//! key the data MACs.
//!
//! Multi-line proofs share upper-tree nodes — one copy per `(level, line)`
//! — so proof size grows sub-linearly in the line count, and *shrinks*
//! with tree arity: a 128-ary MorphTree needs fewer levels than the SC-64
//! baseline for the same memory, the paper-unevaluated result the
//! `morphtree perf` proof sweep records.
//!
//! [`ShardedMemory::prove`] composes per-shard sub-proofs under the
//! coalesced top: a [`ShardedProof`] carries the full per-shard digest
//! vector (bound to the published combined root by
//! [`crate::concurrent`]'s `fold_digests` chain) plus one embedded
//! [`Proof`] per shard that owns a proven line, each verified against its
//! own digest-vector entry.
//!
//! # Framing
//!
//! All counts and indices are canonical LEB128 varints (minimal length
//! enforced on decode); MACs, digests and key bytes are fixed-width
//! little-endian. The encoding ends with an FNV-1a checksum of everything
//! before it, and decode demands exact consumption, canonical varints and
//! strictly ascending entry order — so decode(bytes) re-encodes
//! byte-identically and **no byte of a proof is slack**: flipping any
//! single byte makes [`decode_proof`] or [`verify_proof`] fail with a
//! typed [`ProofError`] (the property the proof codec tests sweep).

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use morphtree_crypto::{CtrModeCipher, MacKey, MacTag};

use crate::concurrent::{fold_digests, ShardedMemory};
use crate::concurrent::ShardPlan;
use crate::counters::morph::MorphLine;
use crate::counters::split::{SplitConfig, SplitLine};
use crate::counters::{CounterLine, CounterOrg, Line};
use crate::error::CodecError;
use crate::functional::SecureMemory;
use crate::persist::codec::{fnv1a, ByteReader, ByteWriter};
use crate::persist::{read_config, write_config, MAX_MEMORY_BYTES};
use crate::tree::{TreeConfig, TreeGeometry};
use crate::CACHELINE_BYTES;

/// Proof file magic (`MTPR` = MorphTree PRoof).
pub const MAGIC: [u8; 4] = *b"MTPR";
/// Current proof format version.
pub const VERSION: u8 = 1;

/// Header kind byte: a serial (single-subtree) proof.
const KIND_SERIAL: u8 = 1;
/// Header kind byte: a sharded (composed) proof.
const KIND_SHARDED: u8 = 2;

/// Why a proof could not be produced, decoded, or verified.
///
/// Every variant is a *diagnosis*, mirroring the persistence layer's
/// [`crate::persist::RecoveryError`] convention: verification refuses to
/// guess, and the CLI maps any of these to the integrity exit code —
/// distinguishable from I/O or usage failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// The input does not start with the proof magic.
    BadMagic,
    /// The proof was written by an incompatible format version.
    UnsupportedVersion {
        /// The version the file declares.
        version: u8,
    },
    /// The header kind byte is neither serial nor sharded.
    UnknownKind {
        /// The kind byte the file declares.
        kind: u8,
    },
    /// The input ended before a field did.
    Truncated {
        /// Byte offset at which the missing field started.
        offset: usize,
    },
    /// The trailing FNV checksum does not match the encoded body.
    ChecksumMismatch,
    /// Bytes remain after the checksum — a proof is exactly self-framing.
    TrailingBytes {
        /// Number of unconsumed bytes.
        len: usize,
    },
    /// A varint is non-canonical (overlong or overflowing 64 bits).
    NonCanonicalVarint {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// The embedded tree configuration is malformed.
    BadConfig {
        /// Byte offset where the violation was detected.
        offset: usize,
    },
    /// The declared protected-memory size is zero, unaligned, or absurd,
    /// or the configuration's counter organizations are outside the
    /// supported arity range.
    BadGeometry {
        /// The rejected byte count.
        memory_bytes: u64,
    },
    /// A proof must cover at least one data line.
    EmptyLineSet,
    /// Data-line or node entries are not strictly ascending — the
    /// canonical order decode demands.
    UnsortedEntries {
        /// Byte offset of the out-of-order entry.
        offset: usize,
    },
    /// A proven data line lies outside the declared geometry.
    LineOutOfRange {
        /// The offending data line index.
        line: u64,
    },
    /// A requested data line was never written, so there is no off-chip
    /// ciphertext/MAC to prove (never-written lines read as zeroes by
    /// definition and carry no tree state).
    NeverWritten {
        /// The offending data line index.
        line: u64,
    },
    /// A counter node names a level or line outside the geometry.
    NodeOutOfRange {
        /// Tree level of the offending node.
        level: usize,
        /// Line index of the offending node.
        line_idx: u64,
    },
    /// The proof is missing a counter node its data lines need.
    MissingNode {
        /// Tree level of the missing node.
        level: usize,
        /// Line index of the missing node.
        line_idx: u64,
    },
    /// The proof carries a counter node its data lines do not need —
    /// rejected so no node entry is slack.
    UnexpectedNode {
        /// Tree level of the surplus node.
        level: usize,
        /// Line index of the surplus node.
        line_idx: u64,
    },
    /// A counter-node body is not a valid encoding for its level's
    /// organization.
    BadNodeImage {
        /// Tree level of the offending node.
        level: usize,
        /// Line index of the offending node.
        line_idx: u64,
        /// The codec diagnosis.
        source: CodecError,
    },
    /// A counter node's stored MAC does not match the recomputation.
    NodeMacMismatch {
        /// Tree level of the failing node.
        level: usize,
        /// Line index of the failing node.
        line_idx: u64,
    },
    /// A data line's stored MAC does not match the recomputation.
    DataMacMismatch {
        /// The failing data line index.
        line: u64,
    },
    /// The proof's top entry does not hash to the published root.
    RootMismatch {
        /// The root the verifier trusts.
        published: u64,
        /// The root the proof derives.
        computed: u64,
    },
    /// The sharded header's partition is impossible (zero shards, more
    /// shards than lines).
    BadShardPlan {
        /// The declared shard count.
        shards: u64,
    },
    /// A sub-proof names a shard outside the declared partition.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
    },
    /// A sub-proof's key is not the tenant key's derivation for its shard.
    ShardKeyMismatch {
        /// The offending shard index.
        shard: usize,
    },
    /// A sub-proof's declared memory size is not its shard's partition
    /// range.
    ShardMemoryMismatch {
        /// The offending shard index.
        shard: usize,
    },
    /// A sub-proof failed, verified against its digest-vector entry.
    Shard {
        /// The failing shard index.
        shard: usize,
        /// The sub-proof's diagnosis (a `RootMismatch` here means the
        /// sub-proof does not derive its shard's digest-vector entry).
        source: Box<ProofError>,
    },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::BadMagic => write!(f, "not a morphtree proof (bad magic)"),
            ProofError::UnsupportedVersion { version } => {
                write!(f, "unsupported proof format version {version}")
            }
            ProofError::UnknownKind { kind } => write!(f, "unknown proof kind byte {kind}"),
            ProofError::Truncated { offset } => {
                write!(f, "proof truncated at byte offset {offset}")
            }
            ProofError::ChecksumMismatch => write!(f, "proof checksum mismatch"),
            ProofError::TrailingBytes { len } => {
                write!(f, "{len} trailing byte(s) after the proof checksum")
            }
            ProofError::NonCanonicalVarint { offset } => {
                write!(f, "non-canonical varint at byte offset {offset}")
            }
            ProofError::BadConfig { offset } => {
                write!(f, "malformed tree configuration at byte offset {offset}")
            }
            ProofError::BadGeometry { memory_bytes } => {
                write!(f, "proof declares an invalid geometry ({memory_bytes} bytes)")
            }
            ProofError::EmptyLineSet => write!(f, "proof covers no data lines"),
            ProofError::UnsortedEntries { offset } => {
                write!(f, "proof entries out of canonical order at byte offset {offset}")
            }
            ProofError::LineOutOfRange { line } => {
                write!(f, "proven data line {line} outside the declared geometry")
            }
            ProofError::NeverWritten { line } => {
                write!(f, "cannot prove never-written data line {line}")
            }
            ProofError::NodeOutOfRange { level, line_idx } => {
                write!(f, "counter node (level {level}, line {line_idx}) outside the geometry")
            }
            ProofError::MissingNode { level, line_idx } => {
                write!(f, "proof is missing counter node (level {level}, line {line_idx})")
            }
            ProofError::UnexpectedNode { level, line_idx } => {
                write!(f, "proof carries unneeded counter node (level {level}, line {line_idx})")
            }
            ProofError::BadNodeImage { level, line_idx, source } => {
                write!(
                    f,
                    "counter node (level {level}, line {line_idx}) body is undecodable: {source}"
                )
            }
            ProofError::NodeMacMismatch { level, line_idx } => {
                write!(f, "counter MAC mismatch at (level {level}, line {line_idx})")
            }
            ProofError::DataMacMismatch { line } => {
                write!(f, "data MAC mismatch for line {line}")
            }
            ProofError::RootMismatch { published, computed } => {
                write!(
                    f,
                    "root mismatch: proof derives {computed:#018x}, published {published:#018x}"
                )
            }
            ProofError::BadShardPlan { shards } => {
                write!(f, "proof declares an impossible {shards}-shard partition")
            }
            ProofError::ShardOutOfRange { shard } => {
                write!(f, "sub-proof names shard {shard} outside the partition")
            }
            ProofError::ShardKeyMismatch { shard } => {
                write!(f, "sub-proof for shard {shard} carries the wrong derived key")
            }
            ProofError::ShardMemoryMismatch { shard } => {
                write!(f, "sub-proof for shard {shard} declares the wrong memory size")
            }
            ProofError::Shard { shard, source } => {
                write!(f, "sub-proof for shard {shard} failed: {source}")
            }
        }
    }
}

impl Error for ProofError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProofError::BadNodeImage { source, .. } => Some(source),
            ProofError::Shard { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// One proven data line: its off-chip ciphertext and stored MAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofData {
    /// Data line index within the proof's geometry.
    pub line: u64,
    /// The stored 64-byte ciphertext.
    pub ciphertext: [u8; CACHELINE_BYTES],
    /// The stored data MAC.
    pub mac: u64,
}

/// One covering counter node: its MAC-input image and stored MAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofNode {
    /// Tree level (0 = encryption counters, `top_level` = on-chip root).
    pub level: usize,
    /// Line index within the level.
    pub line_idx: u64,
    /// The 64-byte `encode_for_mac` image (MAC field zeroed).
    pub body: [u8; CACHELINE_BYTES],
    /// The stored counter-line MAC (0-keyed for the top line).
    pub mac: u64,
}

/// A self-contained integrity proof for a set of data lines of one
/// [`SecureMemory`] subtree, checkable against a published root with no
/// memory image (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof {
    config: TreeConfig,
    memory_bytes: u64,
    key: [u8; 16],
    /// Strictly ascending by line.
    data: Vec<ProofData>,
    /// Strictly ascending by `(level, line_idx)`; always contains the top.
    nodes: Vec<ProofNode>,
}

/// A composed proof over a [`ShardedMemory`]: the full per-shard digest
/// vector (bound to the published combined root by the `fold_digests`
/// chain) plus one embedded [`Proof`] per shard owning a proven line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedProof {
    key: [u8; 16],
    memory_bytes: u64,
    /// Per-shard root digests, one per shard of the partition.
    digests: Vec<u64>,
    /// `(shard index, sub-proof)`, strictly ascending by shard.
    subs: Vec<(usize, Proof)>,
}

/// A decoded proof of either kind (the CLI auto-detects from the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyProof {
    /// A serial single-subtree proof.
    Serial(Proof),
    /// A sharded composed proof.
    Sharded(ShardedProof),
}

/// Deterministic size/coverage facts about a verified proof, for the
/// metrics plane (no wall-clock here — timing belongs to `morphtree perf`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Data lines the proof covers.
    pub data_lines: u64,
    /// Counter nodes the proof carries (across all sub-proofs).
    pub nodes: u64,
    /// MAC recomputations verification performed.
    pub mac_computes: u64,
    /// Sub-proofs in a sharded proof (0 for a serial proof).
    pub shards: u64,
}

// ---------------------------------------------------------------------
// Varint framing (canonical LEB128).
// ---------------------------------------------------------------------

fn write_varint(w: &mut ByteWriter, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.u8(byte);
            return;
        }
        w.u8(byte | 0x80);
    }
}

fn read_varint(r: &mut ByteReader<'_>) -> Result<u64, ProofError> {
    let start = r.offset();
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.u8().map_err(|t| ProofError::Truncated { offset: t.offset })?;
        let payload = u64::from(byte & 0x7f);
        // The 10th byte may only contribute the final bit; anything more
        // overflows 64 bits.
        if shift == 63 && payload > 1 {
            return Err(ProofError::NonCanonicalVarint { offset: start });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            // Minimal-length rule: a zero final byte after a continuation
            // encodes nothing and would make the framing ambiguous.
            if byte == 0 && shift != 0 {
                return Err(ProofError::NonCanonicalVarint { offset: start });
            }
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(ProofError::NonCanonicalVarint { offset: start });
        }
    }
}

// ---------------------------------------------------------------------
// Helpers shared by prove and verify.
// ---------------------------------------------------------------------

/// Sorted, deduplicated copy of a requested line set.
pub(crate) fn canonical_lines(lines: &[u64]) -> Vec<u64> {
    let mut uniq = lines.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    uniq
}

/// The exact node set a proof for `lines` must carry: the deduplicated
/// ancestor chain of every line (levels `0..top`) plus the top line —
/// the same `(level, line_idx)` keying as the functional plane's
/// `chain_lines_of`.
fn required_nodes(geometry: &TreeGeometry, lines: &[u64]) -> BTreeSet<(usize, u64)> {
    let mut keys = BTreeSet::new();
    for &line in lines {
        let mut child = line;
        for level in 0..geometry.top_level() {
            let (line_idx, _) = geometry.parent_of(level, child);
            keys.insert((level, line_idx));
            child = line_idx;
        }
    }
    keys.insert((geometry.top_level(), 0));
    keys
}

/// Domain-separated MAC key, mirroring [`SecureMemory::new`].
fn mac_key_of(key: [u8; 16]) -> MacKey {
    let mut seed = key;
    seed[0] ^= 0x5a;
    MacKey::new(seed)
}

/// The supported split-counter arity range (power-of-two line layouts the
/// codec can instantiate without panicking).
fn org_supported(org: CounterOrg) -> bool {
    match org {
        CounterOrg::Split { arity } => {
            arity.is_power_of_two() && (8..=128).contains(&arity)
        }
        CounterOrg::Morph(_) => true,
    }
}

/// Validates a decoded header's geometry and rebuilds it.
fn geometry_of(config: &TreeConfig, memory_bytes: u64) -> Result<TreeGeometry, ProofError> {
    let bad = ProofError::BadGeometry { memory_bytes };
    if memory_bytes == 0
        || !memory_bytes.is_multiple_of(CACHELINE_BYTES as u64)
        || memory_bytes > MAX_MEMORY_BYTES
    {
        return Err(bad);
    }
    if !org_supported(config.org(0)) || !config.tree_orgs().iter().all(|&o| org_supported(o)) {
        return Err(bad);
    }
    Ok(TreeGeometry::new(config, memory_bytes))
}

fn decode_node_line(
    config: &TreeConfig,
    node: &ProofNode,
) -> Result<Line, ProofError> {
    match config.org(node.level) {
        CounterOrg::Split { arity } => Ok(Line::from(SplitLine::decode(
            SplitConfig::with_arity(arity),
            &node.body,
        ))),
        CounterOrg::Morph(mode) => MorphLine::decode(mode, &node.body)
            .map(Line::from)
            .map_err(|source| ProofError::BadNodeImage {
                level: node.level,
                line_idx: node.line_idx,
                source,
            }),
    }
}

// ---------------------------------------------------------------------
// Prove.
// ---------------------------------------------------------------------

impl SecureMemory {
    /// Emits a verifiable integrity proof for `lines` (deduplicated and
    /// sorted): per-line ciphertext + data MAC, plus the shared counter
    /// chain up to the on-chip root. Check it with [`verify_proof`]
    /// against [`SecureMemory::root_digest`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProofError`] when `lines` is empty, names a line
    /// outside the geometry, or names a line that was never written
    /// (never-written lines carry no off-chip state to prove).
    pub fn prove(&self, lines: &[u64]) -> Result<Proof, ProofError> {
        let uniq = canonical_lines(lines);
        if uniq.is_empty() {
            return Err(ProofError::EmptyLineSet);
        }
        let geometry = self.geometry();
        let mut data = Vec::with_capacity(uniq.len());
        for &line in &uniq {
            if line >= geometry.data_lines() {
                return Err(ProofError::LineOutOfRange { line });
            }
            let (ciphertext, mac) = self
                .data_line_state(line)
                .ok_or(ProofError::NeverWritten { line })?;
            data.push(ProofData { line, ciphertext, mac });
        }
        let mut nodes = Vec::new();
        for (level, line_idx) in required_nodes(geometry, &uniq) {
            // Every written line's full ancestor chain is materialized by
            // the write path; an absent node means the store was mutated
            // outside it, which a proof must not paper over.
            let node = self.level_stores()[level]
                .get(line_idx)
                .ok_or(ProofError::MissingNode { level, line_idx })?;
            nodes.push(ProofNode {
                level,
                line_idx,
                body: node.encode_for_mac(),
                mac: node.mac(),
            });
        }
        Ok(Proof {
            config: self.config().clone(),
            memory_bytes: geometry.memory_bytes(),
            key: self.key(),
            data,
            nodes,
        })
    }
}

impl ShardedMemory {
    /// Emits a composed proof for `lines` (global indices): one sub-proof
    /// per owning shard under the full digest vector. Recombines first so
    /// the digests match [`ShardedMemory::combined_root`], which is the
    /// published root [`verify_proof`] checks an [`AnyProof::Sharded`]
    /// against.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProofError`] (line coordinates globalized) under
    /// the same conditions as [`SecureMemory::prove`].
    pub fn prove(&mut self, lines: &[u64]) -> Result<ShardedProof, ProofError> {
        self.recombine();
        let plan = *self.plan();
        let uniq = canonical_lines(lines);
        if uniq.is_empty() {
            return Err(ProofError::EmptyLineSet);
        }
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); plan.shards()];
        for &line in &uniq {
            if line >= plan.data_lines() {
                return Err(ProofError::LineOutOfRange { line });
            }
            let shard = plan.shard_of(line);
            by_shard[shard].push(plan.local_line(line));
        }
        let mut subs = Vec::new();
        for (shard, local) in by_shard.iter().enumerate() {
            if local.is_empty() {
                continue;
            }
            let sub = self.shard(shard).prove(local).map_err(|e| match e {
                ProofError::LineOutOfRange { line } => ProofError::LineOutOfRange {
                    line: plan.global_line(shard, line),
                },
                ProofError::NeverWritten { line } => ProofError::NeverWritten {
                    line: plan.global_line(shard, line),
                },
                other => ProofError::Shard { shard, source: Box::new(other) },
            })?;
            subs.push((shard, sub));
        }
        Ok(ShardedProof {
            key: self.tenant_key(),
            memory_bytes: plan.memory_bytes(),
            digests: self.shard_digests().to_vec(),
            subs,
        })
    }
}

// ---------------------------------------------------------------------
// Verify.
// ---------------------------------------------------------------------

/// Checks a serial [`Proof`] against a published root (the prover's
/// [`SecureMemory::root_digest`]) with no access to the memory image.
///
/// # Errors
///
/// Returns the first [`ProofError`] found: structural violations (wrong
/// node set, undecodable bodies), MAC mismatches, or a root mismatch.
pub fn verify_proof(proof: &Proof, published_root: u64) -> Result<ProofStats, ProofError> {
    let geometry = geometry_of(&proof.config, proof.memory_bytes)?;
    if proof.data.is_empty() {
        return Err(ProofError::EmptyLineSet);
    }
    for entry in &proof.data {
        if entry.line >= geometry.data_lines() {
            return Err(ProofError::LineOutOfRange { line: entry.line });
        }
    }
    for node in &proof.nodes {
        if node.level > geometry.top_level()
            || node.line_idx >= geometry.levels()[node.level].lines
        {
            return Err(ProofError::NodeOutOfRange {
                level: node.level,
                line_idx: node.line_idx,
            });
        }
    }

    // The node set must be *exactly* the chain the data lines need.
    let lines: Vec<u64> = proof.data.iter().map(|d| d.line).collect();
    let required = required_nodes(&geometry, &lines);
    let carried: BTreeSet<(usize, u64)> =
        proof.nodes.iter().map(|n| (n.level, n.line_idx)).collect();
    if let Some(&(level, line_idx)) = required.difference(&carried).next() {
        return Err(ProofError::MissingNode { level, line_idx });
    }
    if let Some(&(level, line_idx)) = carried.difference(&required).next() {
        return Err(ProofError::UnexpectedNode { level, line_idx });
    }

    // Decode every node body under its level's organization; the decoded
    // counters key the child MACs below.
    let mut decoded = Vec::with_capacity(proof.nodes.len());
    for node in &proof.nodes {
        decoded.push(decode_node_line(&proof.config, node)?);
    }
    let node_at = |level: usize, line_idx: u64| -> usize {
        // The node list is sorted by (level, line_idx) and the set check
        // above guarantees presence.
        proof
            .nodes
            .binary_search_by_key(&(level, line_idx), |n| (n.level, n.line_idx))
            .unwrap_or(usize::MAX)
    };

    // The root binds the top entry (same digest as `root_digest`).
    let top_idx = node_at(geometry.top_level(), 0);
    let top = &proof.nodes[top_idx];
    let mut image = [0u8; CACHELINE_BYTES + 8];
    image[..CACHELINE_BYTES].copy_from_slice(&top.body);
    image[CACHELINE_BYTES..].copy_from_slice(&top.mac.to_le_bytes());
    let computed = fnv1a(&image);
    if computed != published_root {
        return Err(ProofError::RootMismatch { published: published_root, computed });
    }

    // Counter-line MACs, keyed by the parent's decoded counter (top keyed
    // 0), recomputed in one batched SipHash pass.
    let mac_key = mac_key_of(proof.key);
    let mut inputs: Vec<(u64, u64, &[u8; CACHELINE_BYTES])> =
        Vec::with_capacity(proof.nodes.len());
    for node in &proof.nodes {
        let parent_value = if node.level == geometry.top_level() {
            0
        } else {
            let (parent_idx, slot) = geometry.parent_of(node.level + 1, node.line_idx);
            decoded[node_at(node.level + 1, parent_idx)].get(slot)
        };
        let addr = geometry.line_addr(node.level, node.line_idx);
        inputs.push((addr, parent_value, &node.body));
    }
    let mut tags = vec![MacTag(0); inputs.len()];
    mac_key.mac_lines_into(&inputs, &mut tags);
    for (tag, node) in tags.iter().zip(&proof.nodes) {
        if tag.0 != node.mac {
            return Err(ProofError::NodeMacMismatch {
                level: node.level,
                line_idx: node.line_idx,
            });
        }
    }

    // Data MACs, keyed by the level-0 decoded counters.
    let mut inputs: Vec<(u64, u64, &[u8; CACHELINE_BYTES])> =
        Vec::with_capacity(proof.data.len());
    for entry in &proof.data {
        let (line_idx, slot) = geometry.parent_of(0, entry.line);
        let counter = decoded[node_at(0, line_idx)].get(slot);
        inputs.push((entry.line * CACHELINE_BYTES as u64, counter, &entry.ciphertext));
    }
    let mut tags = vec![MacTag(0); inputs.len()];
    mac_key.mac_lines_into(&inputs, &mut tags);
    for (tag, entry) in tags.iter().zip(&proof.data) {
        if tag.0 != entry.mac {
            return Err(ProofError::DataMacMismatch { line: entry.line });
        }
    }

    Ok(ProofStats {
        data_lines: proof.data.len() as u64,
        nodes: proof.nodes.len() as u64,
        mac_computes: (proof.nodes.len() + proof.data.len()) as u64,
        shards: 0,
    })
}

/// Checks a [`ShardedProof`] against a published combined root (the
/// prover's [`ShardedMemory::combined_root`]): the digest vector must fold
/// to the root, and every sub-proof must verify against its own
/// digest-vector entry under its shard's derived key.
///
/// # Errors
///
/// Returns the first [`ProofError`] found; sub-proof failures are wrapped
/// as [`ProofError::Shard`].
pub fn verify_sharded_proof(
    proof: &ShardedProof,
    published_root: u64,
) -> Result<ProofStats, ProofError> {
    let shards = proof.digests.len();
    let plan = ShardPlan::new(proof.memory_bytes, shards)
        .map_err(|_| ProofError::BadShardPlan { shards: shards as u64 })?;
    if proof.subs.is_empty() {
        return Err(ProofError::EmptyLineSet);
    }
    let computed = fold_digests(proof.key, &proof.digests);
    if computed != published_root {
        return Err(ProofError::RootMismatch { published: published_root, computed });
    }
    let mut stats = ProofStats::default();
    for &(shard, ref sub) in &proof.subs {
        if shard >= shards {
            return Err(ProofError::ShardOutOfRange { shard });
        }
        if sub.key != ShardedMemory::derived_key(proof.key, shard) {
            return Err(ProofError::ShardKeyMismatch { shard });
        }
        if sub.memory_bytes != plan.shard_memory_bytes(shard) {
            return Err(ProofError::ShardMemoryMismatch { shard });
        }
        let sub_stats = verify_proof(sub, proof.digests[shard])
            .map_err(|e| ProofError::Shard { shard, source: Box::new(e) })?;
        stats.data_lines += sub_stats.data_lines;
        stats.nodes += sub_stats.nodes;
        stats.mac_computes += sub_stats.mac_computes;
        stats.shards += 1;
    }
    // Folding the digest chain costs one MAC per 8 digests.
    stats.mac_computes += proof.digests.len().div_ceil(8) as u64;
    Ok(stats)
}

/// Verifies a proof of either kind against its published root.
///
/// # Errors
///
/// See [`verify_proof`] and [`verify_sharded_proof`].
pub fn verify_any_proof(proof: &AnyProof, published_root: u64) -> Result<ProofStats, ProofError> {
    match proof {
        AnyProof::Serial(p) => verify_proof(p, published_root),
        AnyProof::Sharded(p) => verify_sharded_proof(p, published_root),
    }
}

// ---------------------------------------------------------------------
// Authenticated reads.
// ---------------------------------------------------------------------

impl Proof {
    /// The proven data line indices (ascending).
    #[must_use]
    pub fn lines(&self) -> Vec<u64> {
        self.data.iter().map(|d| d.line).collect()
    }

    /// Number of counter nodes carried.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The declared tree configuration.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Verifies against `published_root` and, on success, decrypts the
    /// proven lines — the authenticated read: `(line, plaintext)` pairs in
    /// ascending line order. (The proof embeds the construction key by the
    /// model concession the snapshot formats share, so a verifier entitled
    /// to the proof can also read it.)
    ///
    /// # Errors
    ///
    /// Any [`verify_proof`] failure; no plaintext is released on failure.
    pub fn verify_and_read(
        &self,
        published_root: u64,
    ) -> Result<Vec<(u64, [u8; CACHELINE_BYTES])>, ProofError> {
        verify_proof(self, published_root)?;
        let geometry = geometry_of(&self.config, self.memory_bytes)?;
        let cipher = CtrModeCipher::new(self.key);
        self.data
            .iter()
            .map(|entry| {
                let (line_idx, slot) = geometry.parent_of(0, entry.line);
                let node = self
                    .nodes
                    .iter()
                    .find(|n| n.level == 0 && n.line_idx == line_idx)
                    .ok_or(ProofError::MissingNode { level: 0, line_idx })?;
                let counter = decode_node_line(&self.config, node)?.get(slot);
                let mut plaintext = [0u8; CACHELINE_BYTES];
                cipher.decrypt_line_into(
                    entry.line * CACHELINE_BYTES as u64,
                    counter,
                    &entry.ciphertext,
                    &mut plaintext,
                );
                Ok((entry.line, plaintext))
            })
            .collect()
    }
}

impl ShardedProof {
    /// The proven data line indices, in global coordinates (ascending).
    #[must_use]
    pub fn lines(&self) -> Vec<u64> {
        let Ok(plan) = ShardPlan::new(self.memory_bytes, self.digests.len().max(1)) else {
            return Vec::new();
        };
        let mut lines: Vec<u64> = self
            .subs
            .iter()
            .flat_map(|(shard, sub)| {
                let shard = *shard;
                sub.lines().into_iter().map(move |l| plan.global_line(shard, l))
            })
            .collect();
        lines.sort_unstable();
        lines
    }

    /// Total counter nodes carried across sub-proofs.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.subs.iter().map(|(_, sub)| sub.node_count()).sum()
    }

    /// Shards in the declared partition.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.digests.len()
    }

    /// Verifies against the published combined root and decrypts the
    /// proven lines in global coordinates (see [`Proof::verify_and_read`]).
    ///
    /// # Errors
    ///
    /// Any [`verify_sharded_proof`] failure.
    pub fn verify_and_read(
        &self,
        published_root: u64,
    ) -> Result<Vec<(u64, [u8; CACHELINE_BYTES])>, ProofError> {
        verify_sharded_proof(self, published_root)?;
        let plan = ShardPlan::new(self.memory_bytes, self.digests.len())
            .map_err(|_| ProofError::BadShardPlan { shards: self.digests.len() as u64 })?;
        let mut out = Vec::new();
        for &(shard, ref sub) in &self.subs {
            for (local, plaintext) in sub.verify_and_read(self.digests[shard])? {
                out.push((plan.global_line(shard, local), plaintext));
            }
        }
        out.sort_unstable_by_key(|&(line, _)| line);
        Ok(out)
    }
}

impl AnyProof {
    /// The proven data line indices (global coordinates, ascending).
    #[must_use]
    pub fn lines(&self) -> Vec<u64> {
        match self {
            AnyProof::Serial(p) => p.lines(),
            AnyProof::Sharded(p) => p.lines(),
        }
    }

    /// Total counter nodes carried.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            AnyProof::Serial(p) => p.node_count(),
            AnyProof::Sharded(p) => p.node_count(),
        }
    }

    /// Verifies and decrypts the proven lines (see
    /// [`Proof::verify_and_read`]).
    ///
    /// # Errors
    ///
    /// Any verification failure for the underlying kind.
    pub fn verify_and_read(
        &self,
        published_root: u64,
    ) -> Result<Vec<(u64, [u8; CACHELINE_BYTES])>, ProofError> {
        match self {
            AnyProof::Serial(p) => p.verify_and_read(published_root),
            AnyProof::Sharded(p) => p.verify_and_read(published_root),
        }
    }
}

// ---------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------

fn encode_serial_body(proof: &Proof, w: &mut ByteWriter) {
    write_config(w, &proof.config);
    write_varint(w, proof.memory_bytes);
    w.bytes(&proof.key);
    write_varint(w, proof.data.len() as u64);
    let mut prev = 0u64;
    for (i, entry) in proof.data.iter().enumerate() {
        // Delta coding over the strictly ascending line indices.
        let delta = if i == 0 { entry.line } else { entry.line - prev };
        write_varint(w, delta);
        w.bytes(&entry.ciphertext);
        w.u64(entry.mac);
        prev = entry.line;
    }
    write_varint(w, proof.nodes.len() as u64);
    for node in &proof.nodes {
        write_varint(w, node.level as u64);
        write_varint(w, node.line_idx);
        w.bytes(&node.body);
        w.u64(node.mac);
    }
}

impl Proof {
    /// Encodes the proof to its canonical byte form (magic, version, body,
    /// trailing FNV checksum).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u8(VERSION);
        w.u8(KIND_SERIAL);
        encode_serial_body(self, &mut w);
        let mut out = w.into_bytes();
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a serial proof (strict: checksum, canonical varints, exact
    /// consumption, strictly ascending entries).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProofError`] on any framing violation.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProofError> {
        match decode_proof(bytes)? {
            AnyProof::Serial(p) => Ok(p),
            AnyProof::Sharded(_) => Err(ProofError::UnknownKind { kind: KIND_SHARDED }),
        }
    }
}

impl ShardedProof {
    /// Encodes the composed proof (each sub-proof embedded in its own
    /// full framing, length-prefixed).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&MAGIC);
        w.u8(VERSION);
        w.u8(KIND_SHARDED);
        w.bytes(&self.key);
        write_varint(&mut w, self.memory_bytes);
        write_varint(&mut w, self.digests.len() as u64);
        for &digest in &self.digests {
            w.u64(digest);
        }
        write_varint(&mut w, self.subs.len() as u64);
        for &(shard, ref sub) in &self.subs {
            write_varint(&mut w, shard as u64);
            let encoded = sub.encode();
            write_varint(&mut w, encoded.len() as u64);
            w.bytes(&encoded);
        }
        let mut out = w.into_bytes();
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a sharded proof (strict; see [`Proof::decode`]).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProofError`] on any framing violation.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProofError> {
        match decode_proof(bytes)? {
            AnyProof::Sharded(p) => Ok(p),
            AnyProof::Serial(_) => Err(ProofError::UnknownKind { kind: KIND_SERIAL }),
        }
    }
}

impl AnyProof {
    /// Encodes the proof in its kind's canonical byte form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            AnyProof::Serial(p) => p.encode(),
            AnyProof::Sharded(p) => p.encode(),
        }
    }
}

/// Splits off and validates the trailing checksum, returning the body.
fn checked_body(bytes: &[u8]) -> Result<&[u8], ProofError> {
    if bytes.len() < MAGIC.len() + 2 + 8 {
        return Err(ProofError::Truncated { offset: bytes.len() });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().map_err(|_| ProofError::ChecksumMismatch)?);
    if fnv1a(body) != stored {
        return Err(ProofError::ChecksumMismatch);
    }
    Ok(body)
}

fn truncated(t: crate::persist::codec::Truncated) -> ProofError {
    ProofError::Truncated { offset: t.offset }
}

fn decode_serial_body(r: &mut ByteReader<'_>) -> Result<Proof, ProofError> {
    let config_offset = r.offset();
    let config = read_config(r).map_err(|_| ProofError::BadConfig { offset: config_offset })?;
    let memory_bytes = read_varint(r)?;
    // Geometry is validated here so entry bounds below are meaningful.
    let geometry = geometry_of(&config, memory_bytes)?;
    let key: [u8; 16] = r
        .bytes(16)
        .map_err(truncated)?
        .try_into()
        .map_err(|_| ProofError::Truncated { offset: r.offset() })?;

    let data_count = read_varint(r)?;
    if data_count > geometry.data_lines() {
        return Err(ProofError::LineOutOfRange { line: data_count });
    }
    let mut data = Vec::new();
    let mut prev = 0u64;
    for i in 0..data_count {
        let entry_offset = r.offset();
        let delta = read_varint(r)?;
        let line = if i == 0 {
            delta
        } else {
            if delta == 0 {
                return Err(ProofError::UnsortedEntries { offset: entry_offset });
            }
            prev.checked_add(delta)
                .ok_or(ProofError::UnsortedEntries { offset: entry_offset })?
        };
        let ciphertext = r.line().map_err(truncated)?;
        let mac = r.u64().map_err(truncated)?;
        data.push(ProofData { line, ciphertext, mac });
        prev = line;
    }

    let node_count = read_varint(r)?;
    let mut nodes = Vec::new();
    let mut prev_key: Option<(usize, u64)> = None;
    for _ in 0..node_count {
        let entry_offset = r.offset();
        let level = read_varint(r)?;
        if level > geometry.top_level() as u64 {
            return Err(ProofError::NodeOutOfRange { level: level as usize, line_idx: 0 });
        }
        let level = level as usize;
        let line_idx = read_varint(r)?;
        if prev_key.is_some_and(|prev| prev >= (level, line_idx)) {
            return Err(ProofError::UnsortedEntries { offset: entry_offset });
        }
        prev_key = Some((level, line_idx));
        let body = r.line().map_err(truncated)?;
        let mac = r.u64().map_err(truncated)?;
        nodes.push(ProofNode { level, line_idx, body, mac });
    }
    Ok(Proof { config, memory_bytes, key, data, nodes })
}

/// Decodes a proof of either kind, strictly: the trailing checksum must
/// match, every varint must be canonical, entries must be strictly
/// ascending, and every byte must be consumed — the no-slack-byte
/// property the codec tests sweep.
///
/// # Errors
///
/// Returns a typed [`ProofError`] on any framing violation.
pub fn decode_proof(bytes: &[u8]) -> Result<AnyProof, ProofError> {
    let body = checked_body(bytes)?;
    let mut r = ByteReader::new(body);
    let magic = r.bytes(4).map_err(truncated)?;
    if magic != MAGIC {
        return Err(ProofError::BadMagic);
    }
    let version = r.u8().map_err(truncated)?;
    if version != VERSION {
        return Err(ProofError::UnsupportedVersion { version });
    }
    let kind = r.u8().map_err(truncated)?;
    let proof = match kind {
        KIND_SERIAL => AnyProof::Serial(decode_serial_body(&mut r)?),
        KIND_SHARDED => {
            let key: [u8; 16] = r
                .bytes(16)
                .map_err(truncated)?
                .try_into()
                .map_err(|_| ProofError::Truncated { offset: r.offset() })?;
            let memory_bytes = read_varint(&mut r)?;
            let shard_count = read_varint(&mut r)?;
            // Pre-validate the partition so the digest read below is
            // bounded by a plausible shard count.
            ShardPlan::new(memory_bytes, shard_count.min(usize::MAX as u64) as usize)
                .map_err(|_| ProofError::BadShardPlan { shards: shard_count })?;
            let mut digests = Vec::new();
            for _ in 0..shard_count {
                digests.push(r.u64().map_err(truncated)?);
            }
            let sub_count = read_varint(&mut r)?;
            if sub_count > shard_count {
                return Err(ProofError::BadShardPlan { shards: shard_count });
            }
            let mut subs = Vec::new();
            let mut prev_shard: Option<u64> = None;
            for _ in 0..sub_count {
                let entry_offset = r.offset();
                let shard = read_varint(&mut r)?;
                if shard >= shard_count {
                    return Err(ProofError::ShardOutOfRange { shard: shard as usize });
                }
                if prev_shard.is_some_and(|prev| prev >= shard) {
                    return Err(ProofError::UnsortedEntries { offset: entry_offset });
                }
                prev_shard = Some(shard);
                let len = read_varint(&mut r)? as usize;
                let embedded = r.bytes(len).map_err(truncated)?;
                let sub = Proof::decode(embedded)?;
                subs.push((shard as usize, sub));
            }
            AnyProof::Sharded(ShardedProof { key, memory_bytes, digests, subs })
        }
        other => return Err(ProofError::UnknownKind { kind: other }),
    };
    if !r.is_exhausted() {
        return Err(ProofError::TrailingBytes { len: r.remaining() });
    }
    Ok(proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;

    fn written_memory(config: TreeConfig, memory_kib: u64, lines: u64) -> SecureMemory {
        let mut mem = SecureMemory::new(config, memory_kib * 1024, [7u8; 16]);
        for line in 0..lines {
            mem.write(line * 3 % mem.geometry().data_lines(), &[line as u8; 64]);
        }
        mem
    }

    #[test]
    fn prove_then_verify_round_trip() {
        for config in [TreeConfig::sc64(), TreeConfig::morphtree(), TreeConfig::vault()] {
            let mem = written_memory(config, 256, 64);
            let lines = [0u64, 3, 9, 30];
            let proof = mem.prove(&lines).unwrap();
            let stats = verify_proof(&proof, mem.root_digest()).unwrap();
            assert_eq!(stats.data_lines, 4);
            assert!(stats.nodes >= 1);
            let decoded = decode_proof(&proof.encode()).unwrap();
            assert_eq!(decoded, AnyProof::Serial(proof));
        }
    }

    #[test]
    fn encode_decode_is_byte_identical() {
        let mem = written_memory(TreeConfig::morphtree(), 256, 32);
        let proof = mem.prove(&[3, 15, 51]).unwrap();
        let bytes = proof.encode();
        let decoded = Proof::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn duplicate_and_unsorted_requests_canonicalize() {
        let mem = written_memory(TreeConfig::sc64(), 256, 32);
        let a = mem.prove(&[9, 3, 9, 6, 3]).unwrap();
        let b = mem.prove(&[3, 6, 9]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.lines(), vec![3, 6, 9]);
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        let mem = written_memory(TreeConfig::sc64(), 256, 8);
        assert_eq!(mem.prove(&[]), Err(ProofError::EmptyLineSet));
        let oob = mem.geometry().data_lines();
        assert_eq!(mem.prove(&[oob]), Err(ProofError::LineOutOfRange { line: oob }));
        // Line 1000 < data_lines for 256 KiB (4096 lines) but never written
        // by the pattern above (writes hit multiples of 3 below 24).
        let never = 1001;
        assert_eq!(mem.prove(&[never]), Err(ProofError::NeverWritten { line: never }));
    }

    #[test]
    fn verify_rejects_wrong_root() {
        let mem = written_memory(TreeConfig::morphtree(), 256, 16);
        let proof = mem.prove(&[6]).unwrap();
        let root = mem.root_digest();
        let err = verify_proof(&proof, root ^ 1).unwrap_err();
        assert!(matches!(err, ProofError::RootMismatch { .. }), "{err}");
    }

    #[test]
    fn verify_rejects_stale_proof_after_write() {
        let mut mem = written_memory(TreeConfig::sc64(), 256, 16);
        let proof = mem.prove(&[12]).unwrap();
        mem.write(12, &[0xff; 64]);
        // Replay: the old proof no longer matches the advanced root.
        let err = verify_proof(&proof, mem.root_digest()).unwrap_err();
        assert!(matches!(err, ProofError::RootMismatch { .. }), "{err}");
    }

    #[test]
    fn verify_rejects_surplus_and_missing_nodes() {
        let mem = written_memory(TreeConfig::sc64(), 256, 64);
        let mut proof = mem.prove(&[0]).unwrap();
        let extra = mem.prove(&[189]).unwrap();
        // Graft a node the line set does not need.
        let surplus = extra
            .nodes
            .iter()
            .find(|n| !proof.nodes.iter().any(|m| (m.level, m.line_idx) == (n.level, n.line_idx)))
            .cloned()
            .unwrap();
        proof.nodes.push(surplus.clone());
        proof.nodes.sort_by_key(|n| (n.level, n.line_idx));
        assert_eq!(
            verify_proof(&proof, mem.root_digest()),
            Err(ProofError::UnexpectedNode { level: surplus.level, line_idx: surplus.line_idx })
        );
        let mut proof = mem.prove(&[0]).unwrap();
        let dropped = proof.nodes.remove(0);
        assert_eq!(
            verify_proof(&proof, mem.root_digest()),
            Err(ProofError::MissingNode { level: dropped.level, line_idx: dropped.line_idx })
        );
    }

    #[test]
    fn authenticated_read_returns_plaintext() {
        let mut mem = SecureMemory::new(TreeConfig::morphtree(), 1 << 20, [9u8; 16]);
        mem.write(5, &[0xab; 64]);
        mem.write(77, &[0xcd; 64]);
        let proof = mem.prove(&[77, 5]).unwrap();
        let reads = proof.verify_and_read(mem.root_digest()).unwrap();
        assert_eq!(reads, vec![(5, [0xab; 64]), (77, [0xcd; 64])]);
    }

    #[test]
    fn sharded_prove_composes_and_verifies() {
        let mut mem =
            ShardedMemory::new(TreeConfig::morphtree(), 256 * 1024, [3u8; 16], 4).unwrap();
        let last = mem.plan().data_lines() - 1;
        for line in [0, 7, 1000, last] {
            mem.write(line, &[line as u8; 64]);
        }
        let root = mem.combined_root();
        let proof = mem.prove(&[0, 7, 1000, last]).unwrap();
        let stats = verify_sharded_proof(&proof, root).unwrap();
        assert_eq!(stats.data_lines, 4);
        assert!(stats.shards >= 2, "lines span shards");
        assert_eq!(proof.lines(), vec![0, 7, 1000, last]);
        let reads = proof.verify_and_read(root).unwrap();
        assert_eq!(reads[0], (0, [0u8; 64]));
        assert_eq!(reads[3], (last, [last as u8; 64]));
        let decoded = decode_proof(&proof.encode()).unwrap();
        assert_eq!(decoded, AnyProof::Sharded(proof));
    }

    #[test]
    fn sharded_proof_rejects_forged_digest_vector() {
        let mut mem = ShardedMemory::new(TreeConfig::sc64(), 64 * 1024, [3u8; 16], 2).unwrap();
        mem.write(0, &[1; 64]);
        let root = mem.combined_root();
        let mut proof = mem.prove(&[0]).unwrap();
        // Tamper the digest of the *unproven* shard: the fold must catch it.
        proof.digests[1] ^= 1;
        let err = verify_sharded_proof(&proof, root).unwrap_err();
        assert!(matches!(err, ProofError::RootMismatch { .. }), "{err}");
    }

    #[test]
    fn higher_arity_yields_smaller_proofs() {
        // The paper-unevaluated headline: 128-ary morphable trees need
        // fewer levels than the SC-64 baseline, so proofs are shorter.
        let lines = [0u64, 12, 222, 378];
        let sc64 = written_memory(TreeConfig::sc64(), 1024, 128);
        let morph = written_memory(TreeConfig::morphtree(), 1024, 128);
        let sc64_bytes = sc64.prove(&lines).unwrap().encode().len();
        let morph_bytes = morph.prove(&lines).unwrap().encode().len();
        assert!(
            morph_bytes < sc64_bytes,
            "morph proof {morph_bytes} B should be smaller than sc64 {sc64_bytes} B"
        );
    }

    #[test]
    fn varints_are_canonical() {
        let mut w = ByteWriter::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            write_varint(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(read_varint(&mut r).unwrap(), v);
        }
        assert!(r.is_exhausted());
        // Overlong encoding of 1 must be rejected.
        let overlong = [0x81, 0x00];
        let mut r = ByteReader::new(&overlong);
        assert_eq!(
            read_varint(&mut r),
            Err(ProofError::NonCanonicalVarint { offset: 0 })
        );
        // An 11-byte varint overflows 64 bits.
        let wide = [0xff; 11];
        let mut r = ByteReader::new(&wide);
        assert_eq!(
            read_varint(&mut r),
            Err(ProofError::NonCanonicalVarint { offset: 0 })
        );
    }

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProofError>();
        let e = ProofError::RootMismatch { published: 1, computed: 2 };
        assert!(e.to_string().contains("root mismatch"), "{e}");
        let e = ProofError::Shard {
            shard: 3,
            source: Box::new(ProofError::ChecksumMismatch),
        };
        assert!(e.to_string().contains("shard 3"), "{e}");
        assert!(Error::source(&e).is_some());
    }
}
