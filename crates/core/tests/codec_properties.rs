//! Property coverage for the counter-line codecs (the Fig 8/13 layouts in
//! `counters/morph/codec.rs` and the split layouts in `counters/split.rs`):
//! encode→decode identity for randomly-driven ZCC, Uniform, and MCR lines,
//! re-encode stability, rejection of malformed bit patterns, and
//! equivalence with a per-bit reference codec.

use std::collections::HashSet;

use proptest::prelude::*;

use morphtree_core::counters::bits::set_bits;
use morphtree_core::counters::morph::{zcc_width, MorphFormat, MorphLine, MorphMode};
use morphtree_core::counters::split::{SplitConfig, SplitLine};
use morphtree_core::counters::{CounterLine, LineImage};
use morphtree_core::CodecError;

fn any_mode() -> impl Strategy<Value = MorphMode> {
    prop_oneof![
        Just(MorphMode::ZccOnly),
        Just(MorphMode::ZccRebase),
        Just(MorphMode::SingleBase),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any line state reachable by increments round-trips bit-exactly, in
    /// every mode, and the decoded line re-encodes to the same image.
    #[test]
    fn encode_decode_identity_over_random_histories(
        mode in any_mode(),
        ops in proptest::collection::vec((0usize..128, 1usize..6), 0..60),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(mode);
        for (slot, times) in ops {
            for _ in 0..times {
                let _ = line.increment(slot);
            }
        }
        line.set_mac(mac);
        let image = line.encode();
        let decoded = MorphLine::decode(line.mode(), &image).unwrap();
        prop_assert_eq!(&decoded, &line);
        prop_assert_eq!(decoded.encode(), image, "re-encode must be stable");
    }

    /// Sparse lines (≤ 64 distinct non-zero slots) stay in the ZCC format
    /// and round-trip, MAC included.
    #[test]
    fn zcc_lines_round_trip(
        slots in proptest::collection::vec(0usize..128, 1..64),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        let mut distinct = HashSet::new();
        for slot in slots {
            if distinct.len() >= 64 && !distinct.contains(&slot) {
                continue;
            }
            distinct.insert(slot);
            let _ = line.increment(slot);
        }
        prop_assume!(line.format() == MorphFormat::Zcc);
        line.set_mac(mac);
        let decoded = MorphLine::decode(line.mode(), &line.encode()).unwrap();
        prop_assert_eq!(decoded, line);
    }

    /// Dense rebasing lines (all 128 slots written) morph to MCR and
    /// round-trip with non-trivial bases.
    #[test]
    fn mcr_lines_round_trip(
        extra in proptest::collection::vec((0usize..128, 1usize..4), 0..40),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..128 {
            let _ = line.increment(slot);
        }
        for (slot, times) in extra {
            for _ in 0..times {
                let _ = line.increment(slot);
            }
        }
        prop_assume!(line.format() == MorphFormat::Mcr);
        line.set_mac(mac);
        let decoded = MorphLine::decode(line.mode(), &line.encode()).unwrap();
        prop_assert_eq!(decoded, line);
    }

    /// ZCC-only lines saturate into the uniform 128 × 3-bit format and
    /// round-trip.
    #[test]
    fn uniform_lines_round_trip(
        extra in proptest::collection::vec(0usize..128, 0..64),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccOnly);
        for slot in 0..128 {
            let _ = line.increment(slot);
        }
        for slot in extra {
            let _ = line.increment(slot);
        }
        prop_assume!(line.format() == MorphFormat::Uniform);
        line.set_mac(mac);
        let decoded = MorphLine::decode(line.mode(), &line.encode()).unwrap();
        prop_assert_eq!(decoded, line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A ZCC image whose stored ctr-sz disagrees with its bit-vector
    /// population is rejected with a typed error, whatever bogus value is
    /// stored.
    #[test]
    fn decode_rejects_corrupted_ctr_sz(
        wrong in 0u64..64,
        slots in proptest::collection::vec(0usize..128, 1..40),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in slots {
            let _ = line.increment(slot);
        }
        prop_assume!(line.format() == MorphFormat::Zcc);
        let mut image = line.encode();
        let actual = u64::from((image[0] >> 1) & 0x3f);
        // 3 marks the uniform format: a valid (different) decode path,
        // not a malformed one.
        prop_assume!(wrong != actual && wrong != 3);
        set_bits(&mut image, 1, 6, wrong);
        prop_assert_eq!(
            MorphLine::decode(MorphMode::ZccRebase, &image),
            Err(CodecError::CtrSizeMismatch { stored: wrong, derived: actual }),
            "ctr-sz {} accepted against population {}", wrong, actual
        );
    }

    /// A ZCC image claiming more than 64 non-zero counters (impossible —
    /// the format would have morphed) is rejected.
    #[test]
    fn decode_rejects_overfull_bit_vectors(population in 65usize..=128) {
        let mut image = [0u8; 64];
        set_bits(&mut image, 0, 1, 0);
        set_bits(&mut image, 1, 6, 4);
        for slot in 0..population {
            set_bits(&mut image, 64 + slot, 1, 1);
        }
        prop_assert_eq!(
            MorphLine::decode(MorphMode::ZccRebase, &image),
            Err(CodecError::TooManyNonZero { nonzero: population }),
            "bit-vector population {} accepted", population
        );
    }
}

// ---------------------------------------------------------------------
// The per-bit reference codec.
//
// The word-level codecs must produce the very bytes of the original
// codecs, which moved every field one bit at a time. Those loops live on
// here as the oracle, together with the layouts written field by field.
// ---------------------------------------------------------------------

fn ref_get_bits(buf: &LineImage, bit: usize, width: usize) -> u64 {
    assert!(width <= 64 && bit + width <= 512, "field out of range");
    let mut value = 0u64;
    for i in 0..width {
        let pos = bit + i;
        if (buf[pos / 8] >> (pos % 8)) & 1 == 1 {
            value |= 1 << i;
        }
    }
    value
}

fn ref_set_bits(buf: &mut LineImage, bit: usize, width: usize, value: u64) {
    assert!(width <= 64 && bit + width <= 512, "field out of range");
    assert!(width == 64 || value < (1u64 << width), "value does not fit");
    for i in 0..width {
        let pos = bit + i;
        let mask = 1u8 << (pos % 8);
        if (value >> i) & 1 == 1 {
            buf[pos / 8] |= mask;
        } else {
            buf[pos / 8] &= !mask;
        }
    }
}

/// A morphable line's stored fields, as the reference codec sees them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MorphFields {
    format: MorphFormat,
    major: u64,
    bases: [u64; 2],
    minors: Vec<u64>,
    mac: u64,
}

/// The stored fields of `line`, recovered from its public accessors.
fn morph_fields(line: &MorphLine) -> MorphFields {
    let minors = (0..128)
        .map(|slot| match line.format() {
            MorphFormat::Zcc | MorphFormat::Uniform => line.get(slot) - line.major(),
            MorphFormat::Mcr => line.get(slot) - (line.major() << 7) - line.bases()[slot / 64],
        })
        .collect();
    MorphFields {
        format: line.format(),
        major: line.major(),
        bases: line.bases(),
        minors,
        mac: line.mac(),
    }
}

fn ref_morph_encode(f: &MorphFields, with_mac: bool) -> LineImage {
    let mut image = [0u8; 64];
    match f.format {
        MorphFormat::Zcc => {
            let nonzero = f.minors.iter().filter(|&&v| v != 0).count();
            let width = zcc_width(nonzero).expect("ZCC population") as usize;
            ref_set_bits(&mut image, 0, 1, 0);
            ref_set_bits(&mut image, 1, 6, width as u64);
            ref_set_bits(&mut image, 7, 57, f.major);
            for (slot, &v) in f.minors.iter().enumerate() {
                if v != 0 {
                    ref_set_bits(&mut image, 64 + slot, 1, 1);
                }
            }
            let mut bit = 192;
            for &v in f.minors.iter().filter(|&&v| v != 0) {
                ref_set_bits(&mut image, bit, width, v);
                bit += width;
            }
        }
        MorphFormat::Uniform => {
            ref_set_bits(&mut image, 0, 1, 0);
            ref_set_bits(&mut image, 1, 6, 3);
            ref_set_bits(&mut image, 7, 57, f.major);
            for (slot, &v) in f.minors.iter().enumerate() {
                ref_set_bits(&mut image, 64 + 3 * slot, 3, v);
            }
        }
        MorphFormat::Mcr => {
            ref_set_bits(&mut image, 0, 1, 1);
            ref_set_bits(&mut image, 1, 49, f.major);
            ref_set_bits(&mut image, 50, 7, f.bases[0]);
            ref_set_bits(&mut image, 57, 7, f.bases[1]);
            for (slot, &v) in f.minors.iter().enumerate() {
                ref_set_bits(&mut image, 64 + 3 * slot, 3, v);
            }
        }
    }
    if with_mac {
        ref_set_bits(&mut image, 448, 64, f.mac);
    }
    image
}

/// The original decoder: it checks the ZCC population against `ctr-sz`
/// but not that the image is canonical.
fn ref_morph_decode(image: &LineImage) -> Result<MorphFields, CodecError> {
    let mut f = MorphFields {
        format: MorphFormat::Zcc,
        major: 0,
        bases: [0; 2],
        minors: vec![0; 128],
        mac: ref_get_bits(image, 448, 64),
    };
    if ref_get_bits(image, 0, 1) == 1 {
        f.format = MorphFormat::Mcr;
        f.major = ref_get_bits(image, 1, 49);
        f.bases = [ref_get_bits(image, 50, 7), ref_get_bits(image, 57, 7)];
        for slot in 0..128 {
            f.minors[slot] = ref_get_bits(image, 64 + 3 * slot, 3);
        }
        return Ok(f);
    }
    let ctr_sz = ref_get_bits(image, 1, 6);
    f.major = ref_get_bits(image, 7, 57);
    if ctr_sz == 3 {
        f.format = MorphFormat::Uniform;
        for slot in 0..128 {
            f.minors[slot] = ref_get_bits(image, 64 + 3 * slot, 3);
        }
        return Ok(f);
    }
    let marked: Vec<usize> = (0..128)
        .filter(|&slot| ref_get_bits(image, 64 + slot, 1) == 1)
        .collect();
    let width = zcc_width(marked.len()).ok_or(CodecError::TooManyNonZero {
        nonzero: marked.len(),
    })? as usize;
    if width as u64 != ctr_sz {
        return Err(CodecError::CtrSizeMismatch {
            stored: ctr_sz,
            derived: width as u64,
        });
    }
    let mut bit = 192;
    for slot in marked {
        f.minors[slot] = ref_get_bits(image, bit, width);
        bit += width;
    }
    Ok(f)
}

/// A split line's stored fields: `(major, minors, mac)`.
type SplitFields = (u64, Vec<u64>, u64);

fn split_fields(line: &SplitLine) -> SplitFields {
    let bits = line.config().minor_bits;
    let minors = (0..line.arity())
        .map(|slot| line.get(slot) & ((1u64 << bits) - 1))
        .collect();
    (line.major(), minors, line.mac())
}

fn ref_split_encode(config: SplitConfig, f: &SplitFields, with_mac: bool) -> LineImage {
    let mut image = [0u8; 64];
    let mut bit = 0;
    if config.major_bits > 0 {
        ref_set_bits(&mut image, bit, config.major_bits as usize, f.0);
        bit += config.major_bits as usize;
    }
    for &minor in &f.1 {
        ref_set_bits(&mut image, bit, config.minor_bits as usize, minor);
        bit += config.minor_bits as usize;
    }
    if with_mac {
        ref_set_bits(&mut image, 448, 64, f.2);
    }
    image
}

fn ref_split_decode(config: SplitConfig, image: &LineImage) -> SplitFields {
    let mut bit = 0;
    let mut major = 0;
    if config.major_bits > 0 {
        major = ref_get_bits(image, bit, config.major_bits as usize);
        bit += config.major_bits as usize;
    }
    let minors = (0..config.arity)
        .map(|_| {
            let minor = ref_get_bits(image, bit, config.minor_bits as usize);
            bit += config.minor_bits as usize;
            minor
        })
        .collect();
    (major, minors, ref_get_bits(image, 448, 64))
}

/// Asserts both encodings of a morphable line equal the reference bytes.
fn assert_morph_matches_reference(line: &MorphLine) {
    let fields = morph_fields(line);
    assert_eq!(line.encode(), ref_morph_encode(&fields, true), "{line:?}");
    assert_eq!(
        line.encode_for_mac(),
        ref_morph_encode(&fields, false),
        "{line:?}"
    );
}

/// A morphable line with slots `0..prefill` written once, then `ops`.
fn driven_morph_line(
    mode: MorphMode,
    prefill: usize,
    ops: &[(usize, usize)],
    mac: u64,
) -> MorphLine {
    let mut line = MorphLine::new(mode);
    for slot in 0..prefill {
        let _ = line.increment(slot);
    }
    for &(slot, times) in ops {
        for _ in 0..times {
            let _ = line.increment(slot);
        }
    }
    line.set_mac(mac);
    line
}

/// Every ZCC width bucket at both of its edges, and both dense formats,
/// in every mode.
#[test]
fn every_width_bucket_and_format_matches_the_reference() {
    let mut formats = HashSet::new();
    let mut widths = HashSet::new();
    for mode in [
        MorphMode::ZccOnly,
        MorphMode::ZccRebase,
        MorphMode::SingleBase,
    ] {
        for n in [
            0usize, 1, 16, 17, 32, 33, 36, 37, 42, 43, 51, 52, 64, 65, 128,
        ] {
            // Every counter of the line gets a different value where its
            // width allows, so misplaced fields cannot cancel out.
            let ops: Vec<(usize, usize)> = (0..n).map(|slot| (slot, slot % 3)).collect();
            let line = driven_morph_line(mode, n, &ops, 0x0123_4567_89ab_cdef ^ n as u64);
            formats.insert(line.format());
            widths.extend(line.zcc_counter_size());
            assert_morph_matches_reference(&line);
        }
    }
    assert_eq!(formats.len(), 3, "ZCC, Uniform and MCR all covered");
    assert_eq!(widths.len(), 6, "every ZCC width covered: {widths:?}");
}

/// Every split organization, with a major advanced by an overflow and
/// minors of distinct values.
#[test]
fn every_split_layout_matches_the_reference() {
    for arity in [8usize, 16, 32, 64, 128] {
        let config = SplitConfig::with_arity(arity);
        let mut line = SplitLine::new(config);
        while line.increment(0).overflow().is_none() && line.get(0) < 5_000 {}
        for slot in 0..arity {
            for _ in 0..slot % 7 {
                let _ = line.increment(slot);
            }
        }
        line.set_mac(0xfeed_face_cafe_beef);
        let fields = split_fields(&line);
        assert_eq!(
            line.encode(),
            ref_split_encode(config, &fields, true),
            "SC-{arity}"
        );
        assert_eq!(
            line.encode_for_mac(),
            ref_split_encode(config, &fields, false),
            "SC-{arity}"
        );
    }
}

fn any_split_arity() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(16), Just(32), Just(64), Just(128)]
}

/// Builds a ZCC-shaped image from random bytes: `population` slots marked
/// in the bit-vector, and per `shape`: 0 the bytes as they are, 1 the
/// matching `ctr-sz`, 2 additionally non-zero values and zero padding
/// (a canonical image), 3 one stray padding bit on top of 2.
fn zcc_shaped_image(bytes: [u8; 64], population: usize, shape: u8) -> LineImage {
    let mut image = bytes;
    if shape == 0 {
        return image;
    }
    ref_set_bits(&mut image, 0, 1, 0);
    // Mark `population` distinct slots, picked by a stride walk.
    let stride = 2 * (bytes[0] as usize % 64) + 1;
    ref_set_bits(&mut image, 64, 64, 0);
    ref_set_bits(&mut image, 128, 64, 0);
    for i in 0..population.min(128) {
        ref_set_bits(
            &mut image,
            64 + (i * stride + bytes[1] as usize) % 128,
            1,
            1,
        );
    }
    let Some(width) = zcc_width(population) else {
        return image;
    };
    let width = width as usize;
    ref_set_bits(&mut image, 1, 6, width as u64);
    if shape >= 2 {
        for i in 0..population {
            let value = ref_get_bits(&image, 192 + i * width, width) | 1;
            ref_set_bits(&mut image, 192 + i * width, width, value);
        }
        let end = 192 + population * width;
        for bit in end..448 {
            ref_set_bits(&mut image, bit, 1, 0);
        }
        if shape == 3 && end < 448 {
            let stray = end + bytes[2] as usize % (448 - end);
            ref_set_bits(&mut image, stray, 1, 1);
        }
    }
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lines driven through random histories, from empty to fully dense,
    /// encode to the reference bytes in every mode, MAC field included.
    #[test]
    fn morph_encode_matches_the_reference_codec(
        mode in any_mode(),
        prefill in 0usize..=128,
        ops in proptest::collection::vec((0usize..128, 1usize..12), 0..80),
        mac in any::<u64>(),
    ) {
        let line = driven_morph_line(mode, prefill, &ops, mac);
        let fields = morph_fields(&line);
        prop_assert_eq!(line.encode(), ref_morph_encode(&fields, true));
        prop_assert_eq!(line.encode_for_mac(), ref_morph_encode(&fields, false));
    }

    /// Split lines of every organization encode to the reference bytes.
    #[test]
    fn split_encode_matches_the_reference_codec(
        arity in any_split_arity(),
        ops in proptest::collection::vec((0usize..128, 1usize..40), 0..80),
        mac in any::<u64>(),
    ) {
        let config = SplitConfig::with_arity(arity);
        let mut line = SplitLine::new(config);
        for (slot, times) in ops {
            for _ in 0..times {
                let _ = line.increment(slot % arity);
            }
        }
        line.set_mac(mac);
        let fields = split_fields(&line);
        prop_assert_eq!(line.encode(), ref_split_encode(config, &fields, true));
        prop_assert_eq!(line.encode_for_mac(), ref_split_encode(config, &fields, false));
    }

    /// On arbitrary and ZCC-shaped images, decode returns what the
    /// reference decoder returns: the same line, or the same error, except
    /// that an image the reference accepts but would not re-encode to the
    /// same bytes is now refused as non-canonical.
    #[test]
    fn morph_decode_matches_the_reference_codec(
        bytes in any::<[u8; 64]>(),
        population in 0usize..=70,
        shape in 0u8..4,
        mode in any_mode(),
    ) {
        let image = zcc_shaped_image(bytes, population, shape);
        let decoded = MorphLine::decode(mode, &image);
        match ref_morph_decode(&image) {
            Err(error) => prop_assert_eq!(decoded, Err(error)),
            Ok(fields) => {
                let canonical = ref_morph_encode(&fields, true) == image;
                match decoded {
                    Ok(line) => {
                        prop_assert!(canonical, "non-canonical image accepted");
                        prop_assert_eq!(morph_fields(&line), fields);
                    }
                    Err(CodecError::NonCanonical { .. }) => {
                        prop_assert!(!canonical, "canonical image refused");
                    }
                    Err(other) => prop_assert!(false, "unexpected {:?}", other),
                }
            }
        }
    }

    /// Every bit of a split layout is a field: any image decodes to the
    /// reference fields and re-encodes to itself.
    #[test]
    fn split_decode_matches_the_reference_codec(
        arity in any_split_arity(),
        image in any::<[u8; 64]>(),
    ) {
        let config = SplitConfig::with_arity(arity);
        let line = SplitLine::decode(config, &image);
        prop_assert_eq!(split_fields(&line), ref_split_decode(config, &image));
        prop_assert_eq!(line.encode(), image);
    }
}
