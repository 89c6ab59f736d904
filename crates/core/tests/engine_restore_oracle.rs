//! A metadata engine restored from its `MTEN` snapshot stays in lockstep
//! with the frozen seed engine of `morphtree-oracle`: save after 500
//! accesses, load, continue for 500 more, and the restored engine's
//! statistics equal those of an oracle driven through all 1,000 without a
//! stop.
//!
//! This lives outside `persist::engine`'s unit tests because the oracle
//! links the library build of `morphtree-core`, and `EngineStats` from
//! that build is a different type from the unit-test build's.

use morphtree_core::metadata::{EngineOptions, MacMode, MemAccess, MetadataEngine};
use morphtree_core::persist::engine::{load_engine, save_engine};
use morphtree_core::tree::TreeConfig;
use morphtree_oracle::ReferenceEngine;

const MIB: u64 = 1 << 20;

/// The `(address, is_write)` of access `i`: every third one writes.
fn access(i: u64) -> (u64, bool) {
    ((i * 67 + 13) % 2000 * 64, i.is_multiple_of(3))
}

fn drive(engine: &mut MetadataEngine, rounds: std::ops::Range<u64>) -> Vec<MemAccess> {
    let mut out = Vec::new();
    for (addr, is_write) in rounds.map(access) {
        if is_write {
            engine.write(addr, &mut out);
        } else {
            engine.read(addr, &mut out);
        }
    }
    out
}

#[test]
fn restored_engine_continues_in_lockstep_with_the_oracle() {
    let mut original = MetadataEngine::with_options(
        TreeConfig::morphtree(),
        64 * MIB,
        4096,
        EngineOptions::default(),
    );
    let _ = drive(&mut original, 0..500);
    let mut restored = load_engine(&save_engine(&original)).unwrap();
    let _ = drive(&mut restored, 500..1000);

    let mut oracle = ReferenceEngine::new(TreeConfig::morphtree(), 64 * MIB, 4096, MacMode::Inline);
    let mut oracle_stream = Vec::new();
    for (addr, is_write) in (0..1000).map(access) {
        if is_write {
            oracle.write(addr, &mut oracle_stream);
        } else {
            oracle.read(addr, &mut oracle_stream);
        }
    }
    assert_eq!(restored.stats(), oracle.stats());
}
