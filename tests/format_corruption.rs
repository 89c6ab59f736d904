//! One corruption campaign across the persisted formats: a small image
//! each of `MTSN`, `MTSH` (two shards), `MTRT`, `MTPR` (one shard and
//! two), `MTSR` and an epoch seal. Every truncated prefix and every
//! single-byte flip of each image must decode to an error: never to a
//! value, and never to a panic. (`MTLC` runs the same sweep in
//! `morphtree_experiments::checkpoint`'s unit tests.)

use morphtree_core::concurrent::ShardedMemory;
use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::codec::{fnv1a, read_any_section, write_section, ByteReader};
use morphtree_core::persist::{
    load_memory, load_root, recover_sharded_bounded, save_memory, save_root, save_sharded,
    verify_shards, EpochSeal, RecoveryError, SealPhase, ShardedRecovery, SHARDED,
};
use morphtree_core::proof::{decode_proof, ProofError};
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

/// Canonical LEB128, the proof format's varint.
fn leb128(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// One shard has one encoding, its `MTSN` snapshot and its one-shard
/// `MTPR` kind: a well-framed `MTSH` or sharded-kind `MTPR` that declares
/// one shard is refused with a typed error.
#[test]
fn one_shard_has_one_encoding() {
    // Rebuild the two-shard container from its sections, then again with
    // the header declaring shard 0 alone over shard 0's range.
    let two = sharded();
    let image = save_sharded(&two);
    let mut r = ByteReader::new(&image);
    SHARDED.read(&mut r).unwrap();
    let (header_tag, header) = read_any_section(&mut r).unwrap();
    let (shard_tag, shard0) = read_any_section(&mut r).unwrap();
    let (_, shard1) = read_any_section(&mut r).unwrap();
    let container = |memory_bytes: u64, shards: &[&[u8]]| {
        let mut header = header.to_vec();
        header[..8].copy_from_slice(&memory_bytes.to_le_bytes());
        header[8..12].copy_from_slice(&(shards.len() as u32).to_le_bytes());
        let mut out = Vec::new();
        SHARDED.write(&mut out);
        write_section(&mut out, header_tag, &header);
        for shard in shards {
            write_section(&mut out, shard_tag, shard);
        }
        out
    };
    assert_eq!(container(MEMORY, &[shard0, shard1]), image);
    let one = container(two.plan().shard_memory_bytes(0), &[shard0]);
    let refused = RecoveryError::CorruptSnapshot { offset: 8 };
    assert_eq!(recover_sharded_bounded::<&[u8]>(&one, &[]).err(), Some(refused.clone()));
    assert_eq!(verify_shards(&one).err(), Some(refused));

    // A sharded-kind proof declaring one shard whose one subtree proof is
    // a single memory's, under a correct checksum.
    let single = memory();
    let root = single.root_digest();
    let sub = single.prove(&LINES[..3]).unwrap().encode();
    let mut proof = sub[..5].to_vec(); // `MTPR` and its version
    proof.push(2); // the sharded kind
    proof.extend_from_slice(&KEY);
    proof.extend(leb128(MEMORY));
    proof.extend(leb128(1)); // shards
    proof.extend_from_slice(&root.to_le_bytes());
    proof.extend(leb128(1)); // subtree proofs
    proof.extend(leb128(0)); // shard 0
    proof.extend(leb128(sub.len() as u64));
    proof.extend_from_slice(&sub);
    let checksum = fnv1a(&proof);
    proof.extend_from_slice(&checksum.to_le_bytes());
    assert_eq!(decode_proof(&proof).err(), Some(ProofError::BadShardPlan { shards: 1 }));
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
