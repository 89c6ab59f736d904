//! Property tests pinning the optimized crypto paths to their references:
//! every available AES backend must agree with the table-free scalar
//! formulation on arbitrary keys and blocks, and the batched counter-mode
//! one-time pad must agree with the per-block reference path.
//!
//! (The FIPS-197 known-answer vectors live in the `aes` unit tests; these
//! properties extend that agreement to random inputs.)

use proptest::prelude::*;

use morphtree_crypto::aes::{Aes128, AesBackend};
use morphtree_crypto::otp::CtrModeCipher;
use morphtree_crypto::MacKey;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The batched 64-byte OTP equals the four per-block reference pads.
    #[test]
    fn batched_otp_matches_reference(
        key in any::<[u8; 16]>(),
        line_addr in any::<u64>(),
        counter in any::<u64>(),
    ) {
        // Line addresses are cacheline-aligned; counters carry 56 bits.
        let line_addr = line_addr & !63;
        let counter = counter & ((1 << 56) - 1);
        let cipher = CtrModeCipher::new(key);
        prop_assert_eq!(
            cipher.one_time_pad(line_addr, counter),
            cipher.one_time_pad_reference(line_addr, counter)
        );
    }

    /// Every backend the host can run (scalar, AES-NI when detected) is
    /// the same AES permutation — through the single-block and the
    /// pipelined four-block entry points.
    #[test]
    fn all_backends_agree_on_random_inputs(
        key in any::<[u8; 16]>(),
        blocks in (any::<[u8; 16]>(), any::<[u8; 16]>(), any::<[u8; 16]>(), any::<[u8; 16]>()),
    ) {
        let blocks = [blocks.0, blocks.1, blocks.2, blocks.3];
        let reference = Aes128::with_backend(&key, AesBackend::Scalar);
        let expect4 = reference.encrypt_blocks4(&blocks);
        for backend in AesBackend::all_available() {
            let cipher = Aes128::with_backend(&key, backend);
            prop_assert_eq!(
                cipher.encrypt_block(&blocks[0]),
                reference.encrypt_block(&blocks[0]),
                "{} single block", backend
            );
            prop_assert_eq!(
                cipher.encrypt_blocks4(&blocks),
                expect4,
                "{} pipelined blocks", backend
            );
        }
    }

    /// Counter-mode pads and line ciphertexts are backend-independent,
    /// including the in-place variants.
    #[test]
    fn otp_and_line_encryption_agree_across_backends(
        key in any::<[u8; 16]>(),
        line_addr in any::<u64>(),
        counter in any::<u64>(),
        plaintext in any::<[u8; 64]>(),
    ) {
        let line_addr = line_addr & !63;
        let counter = counter & ((1 << 56) - 1);
        let reference = CtrModeCipher::with_backend(key, AesBackend::Scalar);
        let expect_pad = reference.one_time_pad(line_addr, counter);
        let expect_ct = reference.encrypt_line(line_addr, counter, &plaintext);
        for backend in AesBackend::all_available() {
            let cipher = CtrModeCipher::with_backend(key, backend);
            prop_assert_eq!(
                cipher.one_time_pad(line_addr, counter), expect_pad,
                "{} pad", backend
            );
            prop_assert_eq!(
                cipher.encrypt_line(line_addr, counter, &plaintext), expect_ct,
                "{} ciphertext", backend
            );
            let mut buf = [0u8; 64];
            cipher.encrypt_line_into(line_addr, counter, &plaintext, &mut buf);
            prop_assert_eq!(buf, expect_ct, "{} in-place ciphertext", backend);
            cipher.decrypt_line_into(line_addr, counter, &expect_ct, &mut buf);
            prop_assert_eq!(buf, plaintext, "{} in-place roundtrip", backend);
        }
    }

    /// Batched MAC verification equals the per-line MAC for arbitrary
    /// batches (the AES backend is irrelevant to SipHash, but the batch
    /// interleaving must not change a single tag bit).
    #[test]
    fn batched_macs_match_per_line_on_random_batches(
        key in any::<[u8; 16]>(),
        lines in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<[u8; 64]>()), 0..9),
    ) {
        let mac = MacKey::new(key);
        let inputs: Vec<(u64, u64, &[u8; 64])> =
            lines.iter().map(|(a, c, d)| (*a, *c, d)).collect();
        let batch = mac.mac_lines(&inputs);
        for (i, (addr, ctr, data)) in lines.iter().enumerate() {
            prop_assert_eq!(batch[i], mac.mac_line(*addr, *ctr, data), "line {}", i);
        }
    }
}
