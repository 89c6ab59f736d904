//! Keyed message-authentication codes for secure memory.
//!
//! The paper's designs store a 64-bit MAC per 64-byte line (and a 54–56-bit
//! truncated MAC when the code shares an ECC chip with a SEC code — §II-A3).
//! Commercial SGX uses a Carter–Wegman construction; any keyed PRF with the
//! same output size preserves the storage and traffic behaviour, so we use a
//! from-scratch SipHash-2-4, validated against the reference vectors from the
//! SipHash paper (Aumasson & Bernstein, 2012).
//!
//! [`MacKey::mac_line`] binds a MAC to the *(address, counter, payload)*
//! triple, which is exactly the binding integrity trees rely on: replaying an
//! old `{data, MAC}` pair fails because the live counter differs.

/// Output of a MAC computation: a 64-bit tag.
///
/// `MacTag::truncated` produces the 54-bit variant used when the tag is
/// co-located with a SEC code in the ECC chip (§II-A3, footnote 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MacTag(pub u64);

impl MacTag {
    /// Returns the tag truncated to `bits` bits (e.g. 54 for the
    /// SEC+MAC-in-ECC-chip layout).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 64.
    #[must_use]
    pub fn truncated(self, bits: u32) -> MacTag {
        assert!((1..=64).contains(&bits), "tag width must be in 1..=64");
        if bits == 64 {
            self
        } else {
            MacTag(self.0 & ((1u64 << bits) - 1))
        }
    }
}

impl core::fmt::LowerHex for MacTag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A 128-bit MAC key.
///
/// # Example
///
/// ```
/// use morphtree_crypto::MacKey;
///
/// let key = MacKey::new([3u8; 16]);
/// let data = [0u8; 64];
/// let tag = key.mac_line(0x40, 7, &data);
/// // Same inputs, same tag; changing the counter changes the tag.
/// assert_eq!(tag, key.mac_line(0x40, 7, &data));
/// assert_ne!(tag, key.mac_line(0x40, 8, &data));
/// ```
#[derive(Clone)]
pub struct MacKey {
    k0: u64,
    k1: u64,
}

impl core::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MacKey").finish_non_exhaustive()
    }
}

impl MacKey {
    /// Creates a key from 16 bytes (little-endian word order, as in the
    /// SipHash reference implementation).
    pub fn new(key: [u8; 16]) -> Self {
        let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
        Self { k0, k1 }
    }

    /// SipHash-2-4 over an arbitrary message.
    pub fn mac_bytes(&self, message: &[u8]) -> MacTag {
        MacTag(siphash24(self.k0, self.k1, message))
    }

    /// MAC of a 64-byte line bound to its address and encryption counter.
    ///
    /// This is the per-line MAC of §II-A3: `MAC = H_K(addr ‖ counter ‖ data)`.
    ///
    /// The message is always exactly 80 bytes (ten SipHash words), so this
    /// path absorbs the words directly instead of materializing the buffer
    /// and re-chunking it; [`MacKey::mac_bytes`] over the concatenation is
    /// the pinned reference.
    pub fn mac_line(&self, line_addr: u64, counter: u64, data: &[u8; 64]) -> MacTag {
        let words = line_words(line_addr, counter, data);
        let mut v = sip_init(self.k0, self.k1);
        for &word in &words {
            sip_absorb(&mut v, word);
        }
        sip_absorb(&mut v, LINE_LEN_BLOCK);
        MacTag(sip_finalize(v))
    }

    /// MACs a batch of lines into a caller-provided slice: one
    /// [`MacKey::mac_line`] per entry. Its one caller is the shadow tree
    /// of the `morphtree-benchmark` package; it goes with that shadow
    /// (ROADMAP item 10).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != inputs.len()`.
    pub fn mac_lines_into(&self, inputs: &[(u64, u64, &[u8; 64])], out: &mut [MacTag]) {
        assert_eq!(
            inputs.len(),
            out.len(),
            "tag buffer must match the batch length"
        );
        for (&(addr, ctr, data), tag) in inputs.iter().zip(out) {
            *tag = self.mac_line(addr, ctr, data);
        }
    }
}

/// Length block of the fixed 80-byte `mac_line` message:
/// `(len & 0xff) << 56` with no remainder bytes.
const LINE_LEN_BLOCK: u64 = 80 << 56;

/// The ten message words of `addr ‖ counter ‖ data` in little-endian order.
fn line_words(line_addr: u64, counter: u64, data: &[u8; 64]) -> [u64; 10] {
    let mut words = [0u64; 10];
    words[0] = line_addr;
    words[1] = counter;
    for (word, chunk) in words[2..].iter_mut().zip(data.chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
    }
    words
}

#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// The SipHash initial state for a key.
#[inline]
fn sip_init(k0: u64, k1: u64) -> [u64; 4] {
    [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ]
}

/// Absorbs one message word (two compression rounds).
#[inline]
fn sip_absorb(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sip_round(v);
    sip_round(v);
    v[0] ^= m;
}

/// Finalization: 4 rounds over the xored state.
#[inline]
fn sip_finalize(mut v: [u64; 4]) -> u64 {
    v[2] ^= 0xff;
    for _ in 0..4 {
        sip_round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// SipHash-2-4 (2 compression rounds, 4 finalization rounds).
fn siphash24(k0: u64, k1: u64, message: &[u8]) -> u64 {
    let mut v = sip_init(k0, k1);

    let mut chunks = message.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        sip_absorb(&mut v, m);
    }

    // Final block: remaining bytes plus the message length in the top byte.
    let remainder = chunks.remainder();
    let mut last = (message.len() as u64 & 0xff) << 56;
    for (i, &byte) in remainder.iter().enumerate() {
        last |= (byte as u64) << (8 * i);
    }
    sip_absorb(&mut v, last);

    sip_finalize(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper: key = 00..0f, message =
    /// 00..len-1, expected tags for len 0..64 (we spot-check several).
    #[test]
    fn siphash_reference_vectors() {
        const VECTORS: [(usize, u64); 9] = [
            (0, 0x726f_db47_dd0e_0e31),
            (1, 0x74f8_39c5_93dc_67fd),
            (2, 0x0d6c_8009_d9a9_4f5a),
            (3, 0x8567_6696_d7fb_7e2d),
            (4, 0xcf27_94e0_2771_87b7),
            (5, 0x1876_5564_cd99_a68d),
            (6, 0xcbc9_466e_58fe_e3ce),
            (7, 0xab02_00f5_8b01_d137),
            (8, 0x93f5_f579_9a93_2462),
        ];
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mac = MacKey::new(key);
        for (len, expect) in VECTORS {
            let message: Vec<u8> = (0..len as u8).collect();
            assert_eq!(mac.mac_bytes(&message).0, expect, "length {len}");
        }
    }

    #[test]
    fn mac_binds_address_counter_and_data() {
        let key = MacKey::new([1u8; 16]);
        let data = [0x77u8; 64];
        let base = key.mac_line(0x1000, 5, &data);
        assert_ne!(base, key.mac_line(0x1040, 5, &data), "address must matter");
        assert_ne!(base, key.mac_line(0x1000, 6, &data), "counter must matter");
        let mut tampered = data;
        tampered[63] ^= 1;
        assert_ne!(base, key.mac_line(0x1000, 5, &tampered), "data must matter");
    }

    #[test]
    fn mac_line_fast_path_matches_the_general_hash() {
        let key = MacKey::new(core::array::from_fn(|i| (31 * i) as u8));
        for (addr, ctr) in [(0u64, 0u64), (0x40, 1), (u64::MAX, (1 << 56) - 1)] {
            let data: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(7) ^ addr as u8);
            let mut message = [0u8; 80];
            message[0..8].copy_from_slice(&addr.to_le_bytes());
            message[8..16].copy_from_slice(&ctr.to_le_bytes());
            message[16..80].copy_from_slice(&data);
            assert_eq!(
                key.mac_line(addr, ctr, &data),
                key.mac_bytes(&message),
                "addr={addr:#x} ctr={ctr:#x}"
            );
        }
    }

    #[test]
    fn batched_macs_match_per_line_macs() {
        let key = MacKey::new([0x5au8; 16]);
        let lines: Vec<(u64, u64, [u8; 64])> = (0..7)
            .map(|i| {
                (
                    0x40 * i,
                    1000 + i,
                    core::array::from_fn(|j| (i as u8).wrapping_mul(13).wrapping_add(j as u8)),
                )
            })
            .collect();
        for len in [0usize, 1, 2, 3, 6, 7] {
            let inputs: Vec<(u64, u64, &[u8; 64])> =
                lines[..len].iter().map(|(a, c, d)| (*a, *c, d)).collect();
            let mut batch = vec![MacTag(0); len];
            key.mac_lines_into(&inputs, &mut batch);
            let individual: Vec<MacTag> = lines[..len]
                .iter()
                .map(|(a, c, d)| key.mac_line(*a, *c, d))
                .collect();
            assert_eq!(batch, individual, "batch length {len}");
        }
    }

    #[test]
    #[should_panic(expected = "tag buffer")]
    fn mac_lines_into_rejects_mismatched_buffer() {
        let key = MacKey::new([0u8; 16]);
        let data = [0u8; 64];
        let mut out = [MacTag(0); 1];
        key.mac_lines_into(&[(0, 0, &data), (0x40, 1, &data)], &mut out);
    }

    #[test]
    fn different_keys_disagree() {
        let data = [0u8; 64];
        let a = MacKey::new([0u8; 16]).mac_line(0, 0, &data);
        let b = MacKey::new([1u8; 16]).mac_line(0, 0, &data);
        assert_ne!(a, b);
    }

    #[test]
    fn truncation_masks_high_bits() {
        let tag = MacTag(u64::MAX);
        assert_eq!(tag.truncated(54).0, (1u64 << 54) - 1);
        assert_eq!(tag.truncated(64), tag);
        assert_eq!(tag.truncated(1).0, 1);
    }

    #[test]
    #[should_panic(expected = "tag width")]
    fn truncation_rejects_zero_width() {
        let _ = MacTag(0).truncated(0);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = MacKey::new([0xaau8; 16]);
        let s = format!("{key:?}");
        assert!(!s.contains("aa") && !s.contains("170"));
    }
}
