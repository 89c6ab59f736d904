//! One corruption campaign across the persisted formats: a small image
//! each of `MTSN`, `MTSH` (two shards), `MTRT`, `MTPR` (serial and
//! sharded), `MTSR` and an epoch seal. Every truncated prefix and every
//! single-byte flip of each image must decode to an error: never to a
//! value, and never to a panic. (`MTLC` runs the same sweep in
//! `morphtree_experiments::checkpoint`'s unit tests.)

use morphtree_core::concurrent::ShardedMemory;
use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::{
    load_memory, load_root, recover_sharded_bounded, save_memory, save_root, save_sharded,
    EpochSeal, SealPhase, ShardedRecovery,
};
use morphtree_core::proof::decode_proof;
use morphtree_core::tree::TreeConfig;
use morphtree_sim::persist::{load_results, save_results};
use morphtree_sim::SimResult;

const MEMORY: u64 = 64 << 10;
const KEY: [u8; 16] = [0x3c; 16];
const LINES: [u64; 6] = [0, 1, 9, 200, 511, 1023];

/// Asserts `decode` accepts `image` and refuses every truncated prefix
/// and every single-byte flip of it.
fn refuses_every_corruption<T, E: std::fmt::Debug>(
    format: &str,
    image: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    assert!(decode(image).is_ok(), "{format}: the pristine image must decode");
    for cut in 0..image.len() {
        assert!(decode(&image[..cut]).is_err(), "{format}: prefix of {cut} bytes decoded");
    }
    let mut flipped = image.to_vec();
    for at in 0..image.len() {
        flipped[at] ^= 0xa5;
        assert!(decode(&flipped).is_err(), "{format}: flip at byte {at} decoded");
        flipped[at] ^= 0xa5;
    }
}

fn memory() -> SecureMemory {
    let mut memory = SecureMemory::new(TreeConfig::morphtree(), MEMORY, KEY);
    for line in LINES {
        memory.write(line, &[line as u8 ^ 0x5a; 64]);
    }
    memory
}

fn sharded() -> ShardedMemory {
    let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MEMORY, KEY, 2).unwrap();
    for line in LINES {
        memory.write(line, &[line as u8 ^ 0x33; 64]);
    }
    memory
}

#[test]
fn snapshots_refuse_every_corruption() {
    refuses_every_corruption("MTSN", &save_memory(&memory()), load_memory);
    // Strict: a container with any failing shard is refused, not served
    // degraded.
    refuses_every_corruption("MTSH", &save_sharded(&sharded()), |bytes| {
        recover_sharded_bounded::<&[u8]>(bytes, &[]).and_then(ShardedRecovery::into_memory)
    });
}

#[test]
fn roots_and_seals_refuse_every_corruption() {
    refuses_every_corruption("MTRT", &save_root(memory().root_digest()), load_root);
    let seal = EpochSeal::new(KEY, 7, SealPhase::Commit, 0x1234, 0x5678);
    refuses_every_corruption("MTEP seal", &seal.encode(), EpochSeal::decode);
}

#[test]
fn proofs_refuse_every_corruption() {
    let serial = memory().prove(&LINES[..3]).unwrap().encode();
    refuses_every_corruption("MTPR serial", &serial, decode_proof);
    let composed = sharded().prove(&[0, 1023]).unwrap().encode();
    refuses_every_corruption("MTPR sharded", &composed, decode_proof);
}

#[test]
fn result_checkpoints_refuse_every_corruption() {
    let mut result = SimResult {
        workload: "mcf".to_owned(),
        config: "MorphCtr-128".to_owned(),
        instructions: 40_000,
        cycles: 91_000,
        engine: Default::default(),
        cache: Default::default(),
        dram: Default::default(),
        energy: Default::default(),
    };
    result.engine.overflows_by_level = vec![3, 1];
    result.engine.rebases_by_level = vec![0, 2];
    result.dram.read_latency.record(120);
    let image = save_results("scale=64 seed=1", &[result]);
    refuses_every_corruption("MTSR", &image, load_results);
}
