//! End-to-end coverage for the `core::proof` subsystem: the no-slack-byte
//! guarantee (an exhaustive single-byte-flip campaign over encoded
//! proofs), property-driven round-trips over random line sets, and
//! sharded-vs-serial equivalence against the serial memory as a lockstep
//! oracle.

use proptest::prelude::*;

use morphtree_core::concurrent::ShardedMemory;
use morphtree_core::functional::SecureMemory;
use morphtree_core::proof::{decode_proof, verify_any_proof, verify_proof, AnyProof};
use morphtree_core::tree::TreeConfig;

const KEY: [u8; 16] = [0x33; 16];
const MEM: u64 = 256 << 10;

fn payload(line: u64) -> [u8; 64] {
    [(line as u8).wrapping_mul(73) ^ 0xa5; 64]
}

/// A serial memory with `written` lines populated.
fn serial_memory(config: TreeConfig, written: u64) -> SecureMemory {
    let mut m = SecureMemory::new(config, MEM, KEY);
    for line in 0..written {
        m.write(line, &payload(line));
    }
    m
}

#[test]
fn every_single_byte_flip_of_a_serial_proof_is_rejected() {
    let memory = serial_memory(TreeConfig::sc64(), 128);
    let proof = memory.prove(&[0, 17, 63, 127]).unwrap();
    let encoded = proof.encode();
    // The trailing checksum binds every byte, so a tampered proof must
    // already fail to *decode* — no byte is slack, none can be flipped
    // into a different valid proof.
    for i in 0..encoded.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = encoded.clone();
            bad[i] ^= bit;
            assert!(decode_proof(&bad).is_err(), "flip {bit:#04x} at byte {i} accepted");
        }
    }
    // Truncations at every length fail too.
    for len in 0..encoded.len() {
        assert!(decode_proof(&encoded[..len]).is_err(), "truncation to {len} accepted");
    }
    // And the untampered bytes still round-trip and verify.
    let decoded = decode_proof(&encoded).unwrap();
    verify_any_proof(&decoded, memory.root_digest()).unwrap();
}

#[test]
fn every_single_byte_flip_of_a_sharded_proof_is_rejected() {
    let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MEM, KEY, 4).unwrap();
    let last = memory.plan().data_lines() - 1;
    for line in [0, 9, 1000, 2000, last] {
        memory.write(line, &payload(line));
    }
    let root = memory.combined_root();
    let proof = memory.prove(&[0, 9, 1000, 2000, last]).unwrap();
    let encoded = proof.encode();
    for i in 0..encoded.len() {
        let mut bad = encoded.clone();
        bad[i] ^= 1;
        assert!(decode_proof(&bad).is_err(), "flip at byte {i} accepted");
    }
    let decoded = decode_proof(&encoded).unwrap();
    verify_any_proof(&decoded, root).unwrap();
}

#[test]
fn sharded_and_serial_proofs_agree_with_the_lockstep_oracle() {
    // The same write history drives a serial memory (the oracle) and a
    // sharded one; proofs from both must verify against their own roots
    // and authenticated reads must return identical plaintexts.
    let config = TreeConfig::morphtree();
    let mut serial = SecureMemory::new(config.clone(), MEM, KEY);
    let mut sharded = ShardedMemory::new(config, MEM, KEY, 4).unwrap();
    let lines: Vec<u64> = (0..96).map(|i| i * 41 % sharded.plan().data_lines()).collect();
    for &line in &lines {
        serial.write(line, &payload(line));
        sharded.write(line, &payload(line));
    }
    let proved: Vec<u64> = lines.iter().copied().step_by(7).collect();

    let serial_proof = serial.prove(&proved).unwrap();
    let sharded_root = sharded.combined_root();
    let sharded_proof = sharded.prove(&proved).unwrap();

    let from_serial = serial_proof.verify_and_read(serial.root_digest()).unwrap();
    let from_sharded = sharded_proof.verify_and_read(sharded_root).unwrap();
    assert_eq!(from_serial, from_sharded, "authenticated reads disagree");
    for &(line, plaintext) in &from_serial {
        assert_eq!(plaintext, payload(line), "line {line}");
        assert_eq!(serial.read(line).unwrap(), plaintext, "oracle read, line {line}");
    }

    // Both encodings survive a decode round-trip byte-identically.
    for encoded in [serial_proof.encode(), sharded_proof.encode()] {
        assert_eq!(decode_proof(&encoded).unwrap().encode(), encoded);
    }
}

#[test]
fn proof_sizes_are_pinned_and_morphable_trees_beat_sc64() {
    // Proof size is structural: for a fixed image and line set, the
    // encoded bytes, carried nodes and verifier MACs depend only on the
    // tree config. Eight lines over a 1 MiB image with 512 lines written,
    // under each evaluated config. The 128-ary morphable trees cover
    // them with fewer, shorter chains than 64-ary SC-64.
    const PROVED: [u64; 8] = [0, 3, 60, 177, 300, 333, 409, 511];
    let expected: [(&str, usize, u64, u64); 5] = [
        ("sc64", 1234, 8, 16),
        ("vault", 1239, 8, 16),
        ("zcc", 1024, 5, 13),
        ("mcr", 1027, 5, 13),
        ("morphtree", 1013, 5, 13),
    ];
    let configs = morphtree_core::attack::campaign_configs();
    assert_eq!(configs.len(), expected.len(), "one pin per evaluated config");
    let mut sizes = Vec::new();
    for ((name, config), (want_name, want_bytes, want_nodes, want_macs)) in
        configs.into_iter().zip(expected)
    {
        assert_eq!(name, want_name);
        let mut memory = SecureMemory::new(config, 1 << 20, [0x61; 16]);
        let mut line_payload = [0u8; 64];
        for line in 0..512u64 {
            line_payload[..8].copy_from_slice(&line.wrapping_mul(0x9e37).to_le_bytes());
            memory.write(line, &line_payload);
        }
        let proof = memory.prove(&PROVED).unwrap();
        let stats = verify_proof(&proof, memory.root_digest()).unwrap();
        let bytes = proof.encode().len();
        assert_eq!(
            (bytes, stats.nodes, stats.mac_computes),
            (want_bytes, want_nodes, want_macs),
            "{name}: (proof bytes, nodes, MAC computes)",
        );
        sizes.push((name, bytes));
    }
    let size_of = |key: &str| sizes.iter().find(|(name, _)| *name == key).unwrap().1;
    for key in ["zcc", "mcr", "morphtree"] {
        assert!(size_of(key) < size_of("sc64"), "{key} proof not smaller than sc64's");
    }
}

fn any_config() -> impl Strategy<Value = TreeConfig> {
    prop_oneof![
        Just(TreeConfig::sc64()),
        Just(TreeConfig::vault()),
        Just(TreeConfig::morphtree()),
        Just(TreeConfig::morphtree_zcc_only()),
        Just(TreeConfig::morphtree_single_base()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any proof over any written-line subset round-trips byte-identically
    /// through its codec and verifies against the live root.
    #[test]
    fn proofs_round_trip_and_verify_over_random_line_sets(
        config in any_config(),
        mut picks in proptest::collection::vec(0u64..96, 1..12),
    ) {
        let memory = serial_memory(config, 96);
        let proof = memory.prove(&picks).unwrap();
        let encoded = proof.encode();
        let decoded = decode_proof(&encoded).unwrap();
        prop_assert_eq!(decoded.encode(), encoded.clone(), "re-encode must be stable");
        let stats = verify_any_proof(&decoded, memory.root_digest()).unwrap();
        picks.sort_unstable();
        picks.dedup();
        prop_assert_eq!(stats.data_lines, picks.len() as u64);
        prop_assert_eq!(decoded.lines(), picks);
        // Verification really is standalone: the AnyProof value plus the
        // root are all that is consulted (no captures of `memory` here).
        if let AnyProof::Serial(p) = &decoded {
            let reads = p.verify_and_read(memory.root_digest()).unwrap();
            for (line, plaintext) in reads {
                prop_assert_eq!(plaintext, payload(line));
            }
        }
    }

    /// A randomly placed byte flip is always rejected, whatever the
    /// config, line set, or flipped bit.
    #[test]
    fn random_tampers_never_verify(
        config in any_config(),
        picks in proptest::collection::vec(0u64..96, 1..8),
        offset in any::<usize>(),
        bit in 0u8..8,
    ) {
        let memory = serial_memory(config, 96);
        let mut encoded = memory.prove(&picks).unwrap().encode();
        let at = offset % encoded.len();
        encoded[at] ^= 1 << bit;
        match decode_proof(&encoded) {
            Err(_) => {}
            Ok(p) => prop_assert!(
                verify_any_proof(&p, memory.root_digest()).is_err(),
                "tampered byte {at} bit {bit} verified",
            ),
        }
    }
}
