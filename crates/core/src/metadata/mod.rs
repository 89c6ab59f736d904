//! The secure-memory metadata engine.
//!
//! This module models what the memory controller of a secure processor does
//! on every data access (§II-B):
//!
//! - on a **read**, the encryption counter line must be on-chip; a miss
//!   fetches it and walks the integrity tree upward until a cached level
//!   (or the pinned root) is found;
//! - on a **write**, the encryption counter is incremented, possibly
//!   overflowing (re-encryption traffic proportional to arity);
//! - a **dirty eviction** of a metadata line writes it back and increments
//!   its parent counter — the mechanism by which writes propagate up the
//!   tree, and stop at whatever level stays resident in the cache.
//!
//! The engine is *timing-free*: each event yields a list of
//! [`stats::MemAccess`]es tagged with the exact traffic categories of the
//! paper's Fig 16 (`Data`, `Ctr_Encr`, `Ctr_1`, `Ctr_2`, `Ctr_3&Up`,
//! `Overflow`, plus `Mac` for the separate-MAC ablation of Fig 20). The
//! timing simulator replays those accesses into the DRAM model; analyses
//! like Fig 7/11/14 read the engine's statistics directly.

pub mod cache;
pub mod engine;
pub mod stats;

pub use cache::{CacheStats, MetadataCache, ReplacementPolicy, STAT_LEVELS};
pub use engine::{EngineOptions, MacMode, MetadataEngine, VerificationMode};
pub use stats::{AccessCategory, EngineStats, MemAccess};
