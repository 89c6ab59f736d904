//! Bit-exact 64-byte layouts of morphable counter lines.
//!
//! The layouts realize Fig 8 and Fig 13 of the paper. The paper draws the
//! 7-bit format field between the major counter and the minors; we place
//! the family bit first so that a decoder can always find it at bit 0 —
//! an equivalent-size representation choice (documented in DESIGN.md):
//!
//! ```text
//! ZCC     [family=0:1][ctr-sz:6][major:57][bit-vector:128][non-zero ctrs:256][MAC:64]
//! Uniform [family=0:1][ctr-sz=3:6][major:57][128 x 3-bit ctrs:384][MAC:64]
//! MCR     [family=1:1][major:49][base-1:7][base-2:7][64 x 3-bit:192][64 x 3-bit:192][MAC:64]
//! ```
//!
//! Every layout is exactly 512 bits. A [`MorphLine`](super::MorphLine) is
//! kept as its image, so this module holds the field offsets it reads,
//! the canonical-image check a decode makes, and the [`unpack`] / [`pack`]
//! pair that the increments rewriting a whole line go through.

use super::super::bits::{BitReader, BitWriter};
use super::{
    zcc_width, MorphFormat, MorphMode, Unpacked, MCR_BASE_BITS, MCR_MAJOR_BITS, MORPH_ARITY,
    ZCC_MAJOR_BITS,
};
use crate::error::CodecError;
use crate::{CACHELINE_BITS, CACHELINE_BYTES, LINE_MAC_BITS};

/// First bit of the MAC field.
pub(super) const MAC_OFFSET: usize = CACHELINE_BITS - LINE_MAC_BITS;

/// First byte of the MAC field.
pub(super) const MAC_BYTE: usize = MAC_OFFSET / 8;

/// Bit offset of `ctr-sz` (ZCC and Uniform).
pub(super) const CTR_SZ_BIT: usize = 1;

/// Width of `ctr-sz`.
pub(super) const CTR_SZ_BITS: u32 = 6;

/// Bit offset of the 57-bit major (ZCC and Uniform).
pub(super) const ZCC_MAJOR_BIT: usize = 7;

/// Bit offset of the 49-bit major (MCR).
pub(super) const MCR_MAJOR_BIT: usize = 1;

/// Bit offsets of the two 7-bit bases (MCR).
pub(super) const MCR_BASE_BIT: [usize; 2] = [50, 57];

/// Byte range of the ZCC bit-vector (bits 64..192).
pub(super) const BITVEC_BYTES: std::ops::Range<usize> = 8..24;

/// First bit of the ZCC value field (256 bits, up to the MAC).
pub(super) const VALUES_BIT: usize = 192;

/// First bit of the Uniform / MCR minors.
const MINORS_BIT: usize = 64;

/// The `ctr-sz` value that marks the uniform 128 × 3-bit format
/// (`zcc_width` never yields 3, so the encoding is unambiguous).
pub(super) const UNIFORM_CTR_SZ: u64 = 3;

/// Width of the Uniform / MCR minors.
pub(super) const MINOR_BITS: u32 = 3;

/// Bit offset of Uniform / MCR minor `slot`.
#[inline]
pub(super) fn minor_bit(slot: usize) -> usize {
    MINORS_BIT + MINOR_BITS as usize * slot
}

/// Most counters a ZCC image packs (`zcc_width` refuses more).
const ZCC_MAX_PACKED: usize = 64;

/// The ZCC bit-vector: bit `s % 64` of word `s / 64` is set iff slot `s`
/// is non-zero.
fn nonzero_bitvec(values: &[u16; MORPH_ARITY]) -> [u64; 2] {
    // One 0/1 byte per slot (a compare the compiler vectorizes), then each
    // run of eight bytes gathered into one bit-vector byte by a multiply:
    // byte `i` of the run lands on bit `56 + i`, with no carries between
    // the partial products.
    let flags: [u8; MORPH_ARITY] = std::array::from_fn(|slot| u8::from(values[slot] != 0));
    let mut bitvec = [0u64; 2];
    for (word, half) in bitvec.iter_mut().zip(flags.chunks_exact(64)) {
        for (k, run) in half.as_chunks::<8>().0.iter().enumerate() {
            let bytes = u64::from_le_bytes(*run);
            *word |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
    }
    bitvec
}

/// The slots marked in a ZCC bit-vector, in ascending order.
struct MarkedSlots([u64; 2]);

impl Iterator for MarkedSlots {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let half = usize::from(self.0[0] == 0);
        let word = self.0.get_mut(half).filter(|word| **word != 0)?;
        let slot = half * 64 + word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(slot)
    }
}

/// Packs `line` into its 64-byte image with the MAC field zero.
pub(super) fn pack(line: &Unpacked) -> [u8; CACHELINE_BYTES] {
    let mut w = BitWriter::new();
    match line.format {
        MorphFormat::Zcc => {
            let bitvec = nonzero_bitvec(&line.values);
            let nonzero = (bitvec[0].count_ones() + bitvec[1].count_ones()) as usize;
            let Some(width) = zcc_width(nonzero) else {
                // The ZCC format invariant (at most 64 non-zero minors) is
                // maintained by every increment path; packing a violating
                // line must fail loudly, not emit a corrupt image.
                panic!("ZCC line with {nonzero} non-zero minors cannot be encoded");
            };
            assert!(line.major < 1 << ZCC_MAJOR_BITS, "ZCC major exceeds 57 bits");
            w.write(1, 0);
            w.write(CTR_SZ_BITS, u64::from(width));
            w.write(ZCC_MAJOR_BITS, line.major);
            w.write(64, bitvec[0]);
            w.write(64, bitvec[1]);
            // Non-zero counters packed in slot order.
            let mut packed = [0u16; ZCC_MAX_PACKED];
            for (dst, slot) in packed.iter_mut().zip(MarkedSlots(bitvec)) {
                *dst = line.values[slot];
            }
            w.write_all(width, &packed[..nonzero]);
            debug_assert!(w.position() <= MAC_OFFSET, "value field overran: {}", w.position());
        }
        MorphFormat::Uniform => {
            assert!(line.major < 1 << ZCC_MAJOR_BITS, "uniform major exceeds 57 bits");
            w.write(1, 0);
            w.write(CTR_SZ_BITS, UNIFORM_CTR_SZ);
            w.write(ZCC_MAJOR_BITS, line.major);
            w.write_all(MINOR_BITS, &line.values[..]);
        }
        MorphFormat::Mcr => {
            assert!(line.major < 1 << MCR_MAJOR_BITS, "MCR major exceeds 49 bits");
            w.write(1, 1);
            w.write(MCR_MAJOR_BITS, line.major);
            w.write(MCR_BASE_BITS, line.bases[0]);
            w.write(MCR_BASE_BITS, line.bases[1]);
            w.write_all(MINOR_BITS, &line.values[..]);
        }
    }
    w.finish()
}

/// Unpacks a canonical image (one [`check`] accepts) into its fields.
pub(super) fn unpack(mode: MorphMode, image: &[u8; CACHELINE_BYTES]) -> Unpacked {
    let mut line = Unpacked::new(mode);
    let mut r = BitReader::new(image);
    if r.read(1) == 1 {
        line.format = MorphFormat::Mcr;
        line.major = r.read(MCR_MAJOR_BITS);
        line.bases = [r.read(MCR_BASE_BITS), r.read(MCR_BASE_BITS)];
        read_minors(&mut r, &mut line);
        return line;
    }
    let ctr_sz = r.read(CTR_SZ_BITS);
    line.major = r.read(ZCC_MAJOR_BITS);
    if ctr_sz == UNIFORM_CTR_SZ {
        line.format = MorphFormat::Uniform;
        read_minors(&mut r, &mut line);
        return line;
    }
    let bitvec = [r.read(64), r.read(64)];
    let nonzero = (bitvec[0].count_ones() + bitvec[1].count_ones()) as usize;
    let mut packed = [0u64; ZCC_MAX_PACKED];
    r.read_all(ctr_sz as u32, &mut packed[..nonzero]);
    for (slot, &value) in MarkedSlots(bitvec).zip(&packed[..nonzero]) {
        line.values[slot] = value as u16;
    }
    line
}

/// Checks that `image` is a canonical morphable line: one that packing
/// its fields gives back byte for byte.
///
/// Uniform and MCR use every body bit, so only ZCC needs checks beyond
/// its `ctr-sz`: each slot marked in the bit-vector must hold a non-zero
/// value, and the value bits past the last packed counter must be zero.
///
/// # Errors
///
/// Returns [`CodecError`] if the image is not a well-formed morphable line
/// (e.g. the stored `ctr-sz` disagrees with the bit-vector population
/// count). Images only ever come from [`pack`] and the in-place
/// increments, so a failure means the stored bytes were corrupted in
/// flight — a torn snapshot write, bit rot, or tampering below the MAC
/// layer.
pub(super) fn check(image: &[u8; CACHELINE_BYTES]) -> Result<(), CodecError> {
    let mut r = BitReader::new(image);
    if r.read(1) == 1 {
        return Ok(());
    }
    let ctr_sz = r.read(CTR_SZ_BITS);
    if ctr_sz == UNIFORM_CTR_SZ {
        return Ok(());
    }
    r.seek(BITVEC_BYTES.start * 8);
    let bitvec = [r.read(64), r.read(64)];
    let nonzero = (bitvec[0].count_ones() + bitvec[1].count_ones()) as usize;
    let width = zcc_width(nonzero).ok_or(CodecError::TooManyNonZero { nonzero })?;
    if u64::from(width) != ctr_sz {
        return Err(CodecError::CtrSizeMismatch { stored: ctr_sz, derived: u64::from(width) });
    }
    let mut packed = [0u64; ZCC_MAX_PACKED];
    r.read_all(width, &mut packed[..nonzero]);
    if let Some(i) = packed[..nonzero].iter().position(|&value| value == 0) {
        return Err(CodecError::NonCanonical { bit: VALUES_BIT + i * width as usize });
    }
    match r.first_one_before(MAC_OFFSET) {
        Some(bit) => Err(CodecError::NonCanonical { bit }),
        None => Ok(()),
    }
}

/// Reads the 128 × 3-bit minors of the Uniform and MCR formats.
fn read_minors(r: &mut BitReader, line: &mut Unpacked) {
    let mut fields = [0u64; MORPH_ARITY];
    r.read_all(MINOR_BITS, &mut fields);
    for (v, field) in line.values.iter_mut().zip(fields) {
        *v = field as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::super::MorphLine;
    use super::*;
    use crate::counters::{CounterLine, IncrementOutcome};

    fn decode(mode: MorphMode, image: &[u8; CACHELINE_BYTES]) -> Result<MorphLine, CodecError> {
        MorphLine::decode(mode, image)
    }

    fn roundtrip(line: &MorphLine) {
        let decoded = decode(line.mode(), &line.encode()).unwrap();
        assert_eq!(&decoded, line);
        let unpacked = unpack(line.mode(), &line.encode());
        assert_eq!(pack(&unpacked)[..MAC_BYTE], line.encode()[..MAC_BYTE]);
    }

    #[test]
    fn roundtrip_fresh_line() {
        roundtrip(&MorphLine::new(MorphMode::ZccRebase));
    }

    #[test]
    fn roundtrip_sparse_zcc() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in [0usize, 17, 45, 99, 127] {
            for _ in 0..(slot + 1) {
                line.increment(slot);
            }
        }
        line.set_mac(0xfeed_face_cafe_beef);
        roundtrip(&line);
    }

    #[test]
    fn roundtrip_every_zcc_width() {
        // Exercise each width bucket boundary.
        for n in [1usize, 16, 17, 32, 33, 36, 37, 42, 43, 51, 52, 64] {
            let mut line = MorphLine::new(MorphMode::ZccRebase);
            for slot in 0..n {
                line.increment(slot);
            }
            assert_eq!(line.used_counters(), n);
            roundtrip(&line);
        }
    }

    #[test]
    fn roundtrip_uniform() {
        let mut line = MorphLine::new(MorphMode::ZccOnly);
        for slot in 0..128 {
            line.increment(slot);
        }
        assert_eq!(line.format(), MorphFormat::Uniform);
        line.set_mac(7);
        roundtrip(&line);
    }

    #[test]
    fn roundtrip_mcr_with_rebased_bases() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..128 {
            line.increment(slot);
        }
        assert_eq!(line.format(), MorphFormat::Mcr);
        // Force a rebase so the bases are non-trivial.
        for _ in 0..7 {
            line.increment(3);
        }
        assert!(line.bases()[0] > 0);
        roundtrip(&line);
    }

    #[test]
    fn all_formats_fit_512_bits() {
        // pack() would panic in the bit writer if any field overran the
        // line; drive a line through all three formats to prove the
        // layouts fit.
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        let _ = line.encode();
        for slot in 0..128 {
            for _ in 0..5 {
                line.increment(slot);
            }
            let _ = line.encode();
        }
        assert_eq!(line.format(), MorphFormat::Mcr);
    }

    #[test]
    fn mac_field_occupies_final_eight_bytes() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        line.increment(0);
        line.set_mac(u64::MAX);
        let image = line.encode();
        assert_eq!(image[56..64], [0xff; 8]);
        let body = line.encode_for_mac();
        assert_eq!(body[56..64], [0u8; 8]);
        assert_eq!(image[..56], body[..56]);
    }

    #[test]
    fn decode_rejects_inconsistent_ctr_sz() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        line.increment(0);
        let mut image = line.encode();
        // Corrupt the ctr-sz field (bits 1..7) to 5.
        crate::counters::bits::set_bits(&mut image, 1, 6, 5);
        assert_eq!(
            decode(MorphMode::ZccRebase, &image),
            Err(CodecError::CtrSizeMismatch { stored: 5, derived: 16 })
        );
    }

    #[test]
    fn decode_rejects_overfull_bit_vectors_with_a_typed_error() {
        let mut image = MorphLine::new(MorphMode::ZccRebase).encode();
        // Mark 65 counters non-zero: no ZCC width schedule covers that.
        for slot in 0..65 {
            crate::counters::bits::set_bits(&mut image, 64 + slot, 1, 1);
        }
        assert_eq!(
            decode(MorphMode::ZccRebase, &image),
            Err(CodecError::TooManyNonZero { nonzero: 65 })
        );
    }

    #[test]
    fn decode_rejects_set_padding_bits() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        line.increment(0);
        let mut image = line.encode();
        // One 16-bit counter fills bits 192..208; bit 300 is padding.
        crate::counters::bits::set_bits(&mut image, 300, 1, 1);
        assert_eq!(
            decode(MorphMode::ZccRebase, &image),
            Err(CodecError::NonCanonical { bit: 300 })
        );
        // The last padding bit, just below the MAC field, counts too.
        let mut image = line.encode();
        crate::counters::bits::set_bits(&mut image, MAC_OFFSET - 1, 1, 1);
        assert_eq!(
            decode(MorphMode::ZccRebase, &image),
            Err(CodecError::NonCanonical { bit: MAC_OFFSET - 1 })
        );
    }

    #[test]
    fn decode_rejects_marked_slots_that_pack_zero() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        line.increment(3);
        line.increment(9);
        let mut image = line.encode();
        // Slot 9's 16-bit value field is the second one, at bit 208.
        crate::counters::bits::set_bits(&mut image, 208, 16, 0);
        assert_eq!(
            decode(MorphMode::ZccRebase, &image),
            Err(CodecError::NonCanonical { bit: 208 })
        );
    }

    #[test]
    fn encoded_formats_are_distinguishable() {
        let zcc = MorphLine::new(MorphMode::ZccRebase).encode();
        let mut dense = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..128 {
            dense.increment(slot);
        }
        let mcr = dense.encode();
        assert_eq!(zcc[0] & 1, 0);
        assert_eq!(mcr[0] & 1, 1);
        let mut uniform_line = MorphLine::new(MorphMode::ZccOnly);
        for slot in 0..128 {
            uniform_line.increment(slot);
        }
        let uniform = uniform_line.encode();
        assert_eq!(uniform[0] & 1, 0);
        assert_eq!((uniform[0] >> 1) & 0x3f, 3);
    }

    #[test]
    fn increments_after_roundtrip_behave_identically() {
        let mut a = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..70 {
            a.increment(slot % 128);
        }
        let mut b = decode(MorphMode::ZccRebase, &a.encode()).unwrap();
        for slot in [0usize, 64, 127, 5] {
            let oa = a.increment(slot);
            let ob = b.increment(slot);
            assert_eq!(oa, ob);
            assert_eq!(a, b);
            let _ = matches!(oa, IncrementOutcome::Ok);
        }
    }
}
