//! Core library of the `morphtree` reproduction: the primary contribution of
//! *Morphable Counters: Enabling Compact Integrity Trees For Low-Overhead
//! Secure Memories* (MICRO 2018).
//!
//! # What lives here
//!
//! - [`counters`] — the counter-cacheline representations: classic split
//!   counters (SC-8 … SC-128, the SGX MEE organization, the VAULT entries)
//!   and the paper's Morphable Counters with Zero Counter Compression (ZCC)
//!   and Minor Counter Rebasing (MCR). Every organization is a bit-exact
//!   64-byte codec. The crate-private counter tree (`counters::tree`)
//!   holds the per-level counter lines both the timing and the functional
//!   plane use.
//! - [`tree`] — integrity-tree configurations (SGX, SC-64 baseline, SC-128,
//!   VAULT, MorphTree) and their geometry: per-level arity, size, height and
//!   address layout for an arbitrary memory size (Fig 1/17, Table III).
//! - [`metadata`] — the secure-memory metadata engine: a metadata cache
//!   over the counter tree, tree-walk on misses, write propagation on
//!   dirty evictions and overflow handling, with the exact traffic
//!   categories of Fig 16.
//! - [`functional`] — a byte-level *functional* secure memory that actually
//!   encrypts, MACs, and replay-protects data, with attacker hooks used by
//!   the integration tests to demonstrate detection (§V).
//! - [`attack`] — the adversary engine: a taxonomy of tamper/replay attack
//!   classes and a seeded, deterministic campaign runner that fires
//!   randomized attacks against the functional memory and checks each is
//!   detected at the predicted tree location.
//! - [`store`] — the lazily-allocated paged flat stores backing the
//!   counter tree's per-level line maps and the functional memory's data
//!   and MAC maps (O(1) unhashed access over geometry-bounded index
//!   spaces).
//! - [`concurrent`] — the sharded multi-tenant functional memory:
//!   contiguous address ranges each owning an independent subtree under a
//!   small shared top root, with per-shard request queues drained by
//!   worker threads and a deterministic seeded-interleaving harness.
//! - [`obs`] — the observability plane: a deterministic metrics registry
//!   (counters/gauges + log2-bucket latency histograms) and a span
//!   timeline tracer, exported as sorted-key JSON by `--metrics`.
//! - [`proof`] — verifiable integrity proofs: compact varint-framed
//!   per-line proofs (counter chain + sibling MACs up to the root) that a
//!   standalone verifier checks against a published root with no memory
//!   image, plus the authenticated-read decryption path.
//!
//! # Quick example
//!
//! ```
//! use morphtree_core::counters::{CounterLine, Line};
//! use morphtree_core::counters::morph::{MorphLine, MorphMode};
//!
//! // A 128-ary morphable counter line (ZCC + rebasing).
//! let mut line = Line::from(MorphLine::new(MorphMode::ZccRebase));
//! assert_eq!(line.arity(), 128);
//! line.increment(5);
//! line.increment(5);
//! assert_eq!(line.get(5), 2);
//! assert_eq!(line.get(6), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod attack;
pub mod concurrent;
pub mod counters;
pub mod error;
pub mod functional;
pub mod metadata;
pub mod obs;
pub mod persist;
pub mod proof;
pub mod store;
pub mod tree;

pub use error::{CodecError, IntegrityError, TamperError};
pub use proof::ProofError;

/// Size of a cacheline (and of every counter-line entry) in bytes.
pub const CACHELINE_BYTES: usize = 64;

/// Size of a cacheline in bits; every counter organization must fit in this.
pub const CACHELINE_BITS: usize = CACHELINE_BYTES * 8;

/// Bits reserved for the per-line MAC inside a counter cacheline (Fig 8/13).
pub const LINE_MAC_BITS: usize = 64;
