//! Counter-mode encryption of 64-byte cachelines (the paper's Fig 2–3).
//!
//! A one-time pad is derived from `(line address, effective counter)` by
//! running AES-128 over four seed blocks (one per 16-byte sub-block of the
//! cacheline). Encryption and decryption are both a single XOR with the pad,
//! so the pad can be precomputed while the data access is in flight — the
//! latency-hiding property counter-mode is chosen for.
//!
//! Counter *uniqueness* is what makes the pad one-time: the counter crates
//! guarantee (and property-test) that effective counter values never repeat
//! for a given line.

use crate::aes::{Aes128, AesBackend};
use crate::{CachelineBytes, CACHELINE_BYTES};

/// Counter-mode cipher over 64-byte cachelines.
#[derive(Debug, Clone)]
pub struct CtrModeCipher {
    aes: Aes128,
}

impl CtrModeCipher {
    /// Creates a cipher with the given 128-bit key, using the backend
    /// selected by [`crate::aes::selected_backend`].
    pub fn new(key: [u8; 16]) -> Self {
        Self { aes: Aes128::new(&key) }
    }

    /// Creates a cipher pinned to an explicit AES backend (the per-backend
    /// perf curve and cross-backend equivalence tests).
    pub fn with_backend(key: [u8; 16], backend: AesBackend) -> Self {
        Self { aes: Aes128::with_backend(&key, backend) }
    }

    /// The AES backend this cipher dispatches to.
    pub fn backend(&self) -> AesBackend {
        self.aes.backend()
    }

    /// Generates the 64-byte one-time pad for `(line_addr, counter)`.
    ///
    /// Each 16-byte block's seed is `line_addr ‖ counter ‖ block-index`,
    /// so pads for different lines, counters, or sub-blocks never collide.
    ///
    /// The seed is built once; between blocks only its final byte changes
    /// (the block index lives in the top byte of the little-endian counter
    /// half — effective counters are at most 56 bits wide per §V, so that
    /// byte is always free). Identical output to
    /// [`CtrModeCipher::one_time_pad_reference`], without the per-block
    /// seed rebuild.
    pub fn one_time_pad(&self, line_addr: u64, counter: u64) -> CachelineBytes {
        let blocks = self.pad_blocks(line_addr, counter);
        let mut pad = [0u8; CACHELINE_BYTES];
        for (chunk, block) in pad.chunks_exact_mut(16).zip(&blocks) {
            chunk.copy_from_slice(block);
        }
        pad
    }

    /// The four 16-byte pad blocks of a line, generated in one pipelined
    /// [`crate::aes::Aes128::encrypt_blocks4`] call. The four seeds are
    /// independent, so the hardware backend overlaps their round chains
    /// instead of running four serial encryptions.
    fn pad_blocks(&self, line_addr: u64, counter: u64) -> [[u8; 16]; 4] {
        let mut seed = [0u8; 16];
        seed[0..8].copy_from_slice(&line_addr.to_le_bytes());
        seed[8..16].copy_from_slice(&counter.to_le_bytes());
        let counter_top = (counter >> 56) as u8;
        let mut seeds = [seed; 4];
        for (block, seed) in seeds.iter_mut().enumerate() {
            seed[15] = counter_top | block as u8;
        }
        self.aes.encrypt_blocks4(&seeds)
    }

    /// The seed formulation of [`CtrModeCipher::one_time_pad`]: per-block
    /// seed construction over the scalar AES path. Kept as the equivalence
    /// reference and the `morphtree perf` baseline.
    pub fn one_time_pad_reference(&self, line_addr: u64, counter: u64) -> CachelineBytes {
        let mut pad = [0u8; CACHELINE_BYTES];
        for block in 0..CACHELINE_BYTES / 16 {
            let mut seed = [0u8; 16];
            seed[0..8].copy_from_slice(&line_addr.to_le_bytes());
            let tweaked = counter | ((block as u64) << 56);
            seed[8..16].copy_from_slice(&tweaked.to_le_bytes());
            let ct = self.aes.encrypt_block_scalar(&seed);
            pad[block * 16..block * 16 + 16].copy_from_slice(&ct);
        }
        pad
    }

    /// Encrypts a plaintext line: `ciphertext = plaintext XOR OTP`.
    pub fn encrypt_line(
        &self,
        line_addr: u64,
        counter: u64,
        plaintext: &CachelineBytes,
    ) -> CachelineBytes {
        self.xor_line(line_addr, counter, plaintext)
    }

    /// Decrypts a ciphertext line (identical to encryption in counter mode).
    pub fn decrypt_line(
        &self,
        line_addr: u64,
        counter: u64,
        ciphertext: &CachelineBytes,
    ) -> CachelineBytes {
        self.xor_line(line_addr, counter, ciphertext)
    }

    /// [`CtrModeCipher::encrypt_line`] writing into a caller-provided
    /// buffer: the pad blocks are XORed straight into `out` as they come
    /// off the AES pipeline, so no intermediate 64-byte pad is
    /// materialized. Hot paths that reuse one line buffer per chain use
    /// this form.
    pub fn encrypt_line_into(
        &self,
        line_addr: u64,
        counter: u64,
        plaintext: &CachelineBytes,
        out: &mut CachelineBytes,
    ) {
        self.xor_line_into(line_addr, counter, plaintext, out);
    }

    /// [`CtrModeCipher::decrypt_line`] writing into a caller-provided
    /// buffer (identical to [`CtrModeCipher::encrypt_line_into`] in
    /// counter mode).
    pub fn decrypt_line_into(
        &self,
        line_addr: u64,
        counter: u64,
        ciphertext: &CachelineBytes,
        out: &mut CachelineBytes,
    ) {
        self.xor_line_into(line_addr, counter, ciphertext, out);
    }

    fn xor_line(&self, line_addr: u64, counter: u64, input: &CachelineBytes) -> CachelineBytes {
        let mut out = [0u8; CACHELINE_BYTES];
        self.xor_line_into(line_addr, counter, input, &mut out);
        out
    }

    fn xor_line_into(
        &self,
        line_addr: u64,
        counter: u64,
        input: &CachelineBytes,
        out: &mut CachelineBytes,
    ) {
        let blocks = self.pad_blocks(line_addr, counter);
        for (block_idx, block) in blocks.iter().enumerate() {
            let base = block_idx * 16;
            for (offset, pad_byte) in block.iter().enumerate() {
                out[base + offset] = input[base + offset] ^ pad_byte;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> CtrModeCipher {
        CtrModeCipher::new([0x42u8; 16])
    }

    #[test]
    fn roundtrip() {
        let c = cipher();
        let pt: CachelineBytes = core::array::from_fn(|i| i as u8);
        let ct = c.encrypt_line(0x8000, 99, &pt);
        assert_ne!(ct, pt);
        assert_eq!(c.decrypt_line(0x8000, 99, &ct), pt);
    }

    #[test]
    fn pads_differ_by_address_and_counter() {
        let c = cipher();
        let a = c.one_time_pad(0x40, 1);
        assert_ne!(a, c.one_time_pad(0x80, 1), "address must vary the pad");
        assert_ne!(a, c.one_time_pad(0x40, 2), "counter must vary the pad");
    }

    #[test]
    fn sub_blocks_of_pad_differ() {
        let pad = cipher().one_time_pad(0, 0);
        assert_ne!(pad[0..16], pad[16..32]);
        assert_ne!(pad[16..32], pad[32..48]);
        assert_ne!(pad[32..48], pad[48..64]);
    }

    #[test]
    fn batched_pad_matches_the_reference_formulation() {
        let c = cipher();
        for (addr, ctr) in [
            (0u64, 0u64),
            (0x40, 1),
            (!0x3f, (1 << 56) - 1), // top-aligned address, widest legal counter
            (0x1234_5678_9abc_def0, 0x00aa_bb00_11ff_7701),
        ] {
            assert_eq!(
                c.one_time_pad(addr, ctr),
                c.one_time_pad_reference(addr, ctr),
                "addr={addr:#x} ctr={ctr:#x}"
            );
        }
    }

    #[test]
    fn in_place_variants_match_the_allocating_ones() {
        let c = cipher();
        let pt: CachelineBytes = core::array::from_fn(|i| (i as u8).wrapping_mul(3));
        let ct = c.encrypt_line(0x2040, 17, &pt);
        let mut buf = [0u8; CACHELINE_BYTES];
        c.encrypt_line_into(0x2040, 17, &pt, &mut buf);
        assert_eq!(buf, ct);
        c.decrypt_line_into(0x2040, 17, &ct, &mut buf);
        assert_eq!(buf, pt);
    }

    #[test]
    fn every_backend_produces_the_same_pad_and_ciphertext() {
        let key = [0x42u8; 16];
        let reference = CtrModeCipher::with_backend(key, crate::aes::AesBackend::Scalar);
        let pt: CachelineBytes = core::array::from_fn(|i| i as u8 ^ 0x5c);
        for backend in crate::aes::AesBackend::all_available() {
            let c = CtrModeCipher::with_backend(key, backend);
            assert_eq!(c.backend(), backend);
            assert_eq!(
                c.one_time_pad(0x40, 9),
                reference.one_time_pad(0x40, 9),
                "{backend} pad"
            );
            assert_eq!(
                c.encrypt_line(0x40, 9, &pt),
                reference.encrypt_line(0x40, 9, &pt),
                "{backend} ciphertext"
            );
        }
    }

    #[test]
    fn counter_reuse_leaks_xor_of_plaintexts() {
        // This is the vulnerability the paper's footnote 1 warns about; the
        // test documents *why* counters must never repeat.
        let c = cipher();
        let p1: CachelineBytes = [0x11; 64];
        let p2: CachelineBytes = [0x2e; 64];
        let c1 = c.encrypt_line(0x100, 7, &p1);
        let c2 = c.encrypt_line(0x100, 7, &p2);
        for i in 0..64 {
            assert_eq!(c1[i] ^ c2[i], p1[i] ^ p2[i]);
        }
    }

    #[test]
    fn decrypt_with_wrong_counter_garbles() {
        let c = cipher();
        let pt = [0xaau8; 64];
        let ct = c.encrypt_line(0x40, 3, &pt);
        assert_ne!(c.decrypt_line(0x40, 4, &ct), pt);
    }
}
