//! Property coverage for the counter-line codecs (the Fig 8/13 layouts in
//! `counters/morph/codec.rs` and the split layouts in `counters/split.rs`):
//! encode→decode identity for randomly-driven ZCC, Uniform, and MCR lines,
//! re-encode stability, rejection of malformed bit patterns,
//! equivalence with a per-bit reference codec, and lockstep equivalence
//! of every increment with the increment rules applied to plain fields.

use std::collections::HashSet;

use proptest::prelude::*;

use morphtree_core::counters::bits::set_bits;
use morphtree_core::counters::morph::{zcc_width, MorphFormat, MorphLine, MorphMode};
use morphtree_core::counters::split::{SplitConfig, SplitLine};
use morphtree_core::counters::{
    CounterLine, IncrementOutcome, LineImage, OverflowEvent, OverflowKind, ReencryptSpan,
};
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

// ---------------------------------------------------------------------
// The increment rules over plain fields.
//
// `RefMorph` and `RefSplit` keep a line as its fields (format, major,
// bases, one integer per minor) and apply the increment rules of §III-B,
// §IV and §II-A2 to them directly, as the counter code first did. They
// are the lockstep oracle for `MorphLine` and `SplitLine`: after every
// increment the line must report the same outcome, the same counter on
// every slot, the same population and the reference codec's bytes for
// the model's fields.
// ---------------------------------------------------------------------

const REF_MINOR3_MAX: u64 = 7;
const REF_BASE_MAX: u64 = 127;
const REF_MCR_SET: usize = 64;
const REF_SPARSE_SET_THRESHOLD: usize = 32;

fn overflow(span: ReencryptSpan, used_counters: usize, kind: OverflowKind) -> IncrementOutcome {
    IncrementOutcome::Overflow(OverflowEvent {
        span,
        used_counters,
        kind,
    })
}

/// A morphable line as plain fields, with the increment rules applied to
/// them one by one.
#[derive(Debug, Clone)]
struct RefMorph {
    mode: MorphMode,
    format: MorphFormat,
    major: u64,
    bases: [u64; 2],
    values: [u16; 128],
}

impl RefMorph {
    fn new(mode: MorphMode) -> Self {
        RefMorph {
            mode,
            format: MorphFormat::Zcc,
            major: 0,
            bases: [0; 2],
            values: [0; 128],
        }
    }

    fn nonzero(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0).count()
    }

    fn max_value(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0) as u64
    }

    fn get(&self, slot: usize) -> u64 {
        let minor = self.values[slot] as u64;
        match self.format {
            MorphFormat::Zcc | MorphFormat::Uniform => self.major + minor,
            MorphFormat::Mcr => (self.major << 7) + self.bases[slot / REF_MCR_SET] + minor,
        }
    }

    fn fields(&self, mac: u64) -> MorphFields {
        MorphFields {
            format: self.format,
            major: self.major,
            bases: self.bases,
            minors: self.values.iter().map(|&v| u64::from(v)).collect(),
            mac,
        }
    }

    fn full_reset(&mut self, slot: usize, kind: OverflowKind) -> IncrementOutcome {
        let used = self.nonzero();
        self.major += self.max_value() + 1;
        self.values.fill(0);
        self.values[slot] = 1;
        self.format = MorphFormat::Zcc;
        overflow(ReencryptSpan::All, used, kind)
    }

    fn full_reset_from_mcr(&mut self, slot: usize, kind: OverflowKind) -> IncrementOutcome {
        let used = self.nonzero();
        self.major = (self.major + 2) << 7;
        self.bases = [0; 2];
        self.values.fill(0);
        self.values[slot] = 1;
        self.format = MorphFormat::Zcc;
        overflow(ReencryptSpan::All, used, kind)
    }

    fn increment(&mut self, slot: usize) -> IncrementOutcome {
        match self.format {
            MorphFormat::Zcc => self.increment_zcc(slot),
            MorphFormat::Uniform => self.increment_uniform(slot),
            MorphFormat::Mcr => self.increment_mcr(slot),
        }
    }

    fn increment_zcc(&mut self, slot: usize) -> IncrementOutcome {
        let was_zero = self.values[slot] == 0;
        let nonzero_after = self.nonzero() + usize::from(was_zero);
        if let Some(width) = zcc_width(nonzero_after) {
            let limit = 1u64 << width;
            let new_val = self.values[slot] as u64 + 1;
            if self.max_value() >= limit {
                return self.full_reset(slot, OverflowKind::ZccRewidthFailure);
            }
            if new_val >= limit {
                return self.full_reset(slot, OverflowKind::FullReset);
            }
            self.values[slot] = new_val as u16;
            return IncrementOutcome::Ok;
        }
        match self.mode {
            MorphMode::ZccOnly | MorphMode::SingleBase => {
                if self.max_value() > REF_MINOR3_MAX {
                    return self.full_reset(slot, OverflowKind::ZccRewidthFailure);
                }
                self.format = MorphFormat::Uniform;
                self.values[slot] += 1;
                IncrementOutcome::Ok
            }
            MorphMode::ZccRebase => self.switch_to_mcr(slot),
        }
    }

    fn switch_to_mcr(&mut self, slot: usize) -> IncrementOutcome {
        let used = self.nonzero();
        let base_init = self.major & REF_BASE_MAX;
        let major49 = self.major >> 7;
        let mut reset_sets = [false; 2];
        let mut new_bases = [base_init; 2];
        for set in 0..2 {
            let range = set * REF_MCR_SET..(set + 1) * REF_MCR_SET;
            let max_set = self.values[range].iter().copied().max().unwrap_or(0) as u64;
            if max_set > REF_MINOR3_MAX {
                let bumped = base_init + max_set + 1;
                if bumped > REF_BASE_MAX {
                    return self.full_reset(slot, OverflowKind::FormatSwitchReset);
                }
                reset_sets[set] = true;
                new_bases[set] = bumped;
            }
        }
        self.format = MorphFormat::Mcr;
        self.major = major49;
        self.bases = new_bases;
        for (set, &reset) in reset_sets.iter().enumerate() {
            if reset {
                self.values[set * REF_MCR_SET..(set + 1) * REF_MCR_SET].fill(0);
            }
        }
        self.values[slot] += 1;
        match reset_sets {
            [false, false] => IncrementOutcome::Ok,
            [true, true] => overflow(ReencryptSpan::All, used, OverflowKind::FormatSwitchReset),
            [first, _] => {
                let set = usize::from(!first);
                let span = ReencryptSpan::Set {
                    start: set * REF_MCR_SET,
                    len: REF_MCR_SET,
                };
                overflow(span, used, OverflowKind::FormatSwitchReset)
            }
        }
    }

    fn increment_uniform(&mut self, slot: usize) -> IncrementOutcome {
        if (self.values[slot] as u64) < REF_MINOR3_MAX {
            self.values[slot] += 1;
            return IncrementOutcome::Ok;
        }
        if self.mode == MorphMode::SingleBase {
            let min = self.values.iter().copied().min().unwrap_or(0) as u64;
            if min > 0 {
                self.major += min;
                for v in self.values.iter_mut() {
                    *v -= min as u16;
                }
                self.values[slot] += 1;
                return IncrementOutcome::Rebased;
            }
        }
        self.full_reset(slot, OverflowKind::FullReset)
    }

    fn increment_mcr(&mut self, slot: usize) -> IncrementOutcome {
        if (self.values[slot] as u64) < REF_MINOR3_MAX {
            self.values[slot] += 1;
            return IncrementOutcome::Ok;
        }
        let set = slot / REF_MCR_SET;
        let range = set * REF_MCR_SET..(set + 1) * REF_MCR_SET;
        let min_set = self.values[range.clone()].iter().copied().min().unwrap_or(0) as u64;
        if min_set > 0 {
            let new_base = self.bases[set] + min_set;
            if new_base > REF_BASE_MAX {
                return self.full_reset_from_mcr(slot, OverflowKind::BaseOverflow);
            }
            self.bases[set] = new_base;
            for v in &mut self.values[range] {
                *v -= min_set as u16;
            }
            self.values[slot] += 1;
            return IncrementOutcome::Rebased;
        }
        let range_nonzero = self.values[range.clone()].iter().filter(|&&v| v != 0).count();
        if range_nonzero <= REF_SPARSE_SET_THRESHOLD {
            return self.full_reset_from_mcr(slot, OverflowKind::FullReset);
        }
        let used = self.nonzero();
        let max_set = self.values[range.clone()].iter().copied().max().unwrap_or(0) as u64;
        let new_base = self.bases[set] + max_set + 1;
        if new_base > REF_BASE_MAX {
            return self.full_reset_from_mcr(slot, OverflowKind::BaseOverflow);
        }
        self.bases[set] = new_base;
        self.values[range].fill(0);
        self.values[slot] = 1;
        let span = ReencryptSpan::Set {
            start: set * REF_MCR_SET,
            len: REF_MCR_SET,
        };
        overflow(span, used, OverflowKind::SetReset)
    }
}

/// A split line as plain fields, with the split-counter increment rule.
#[derive(Debug, Clone)]
struct RefSplit {
    config: SplitConfig,
    major: u64,
    minors: Vec<u64>,
}

impl RefSplit {
    fn new(config: SplitConfig) -> Self {
        RefSplit {
            config,
            major: 0,
            minors: vec![0; config.arity],
        }
    }

    fn get(&self, slot: usize) -> u64 {
        (self.major << self.config.minor_bits) | self.minors[slot]
    }

    fn used(&self) -> usize {
        self.minors.iter().filter(|&&m| m != 0).count()
    }

    fn increment(&mut self, slot: usize) -> IncrementOutcome {
        if self.minors[slot] < (1u64 << self.config.minor_bits) - 1 {
            self.minors[slot] += 1;
            return IncrementOutcome::Ok;
        }
        let used = self.used();
        self.major += 1;
        self.minors.fill(0);
        self.minors[slot] = 1;
        overflow(ReencryptSpan::All, used, OverflowKind::FullReset)
    }
}

/// A transition a lockstep run went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Reached {
    Outcome(Option<OverflowKind>, bool),
    Morph(MorphFormat, MorphFormat),
    Width(u32, u32),
}

/// Increments `slot` on `line` and on `model`, then checks that the two
/// agree on everything the line reports.
fn morph_step(
    line: &mut MorphLine,
    model: &mut RefMorph,
    slot: usize,
    mac: u64,
    reached: &mut HashSet<Reached>,
) -> Result<IncrementOutcome, TestCaseError> {
    let (format, width) = (model.format, zcc_width(model.nonzero()));
    let expected = model.increment(slot);
    let outcome = line.increment(slot);
    prop_assert_eq!(outcome, expected, "increment of slot {} in {:?}", slot, format);
    for s in 0..128 {
        prop_assert_eq!(line.get(s), model.get(s), "slot {} after incrementing {}", s, slot);
    }
    prop_assert_eq!(line.used_counters(), model.nonzero());
    prop_assert_eq!(line.format(), model.format);
    prop_assert_eq!(line.mac(), mac);
    let fields = model.fields(mac);
    prop_assert_eq!(line.encode(), ref_morph_encode(&fields, true), "slot {}", slot);
    prop_assert_eq!(line.encode_for_mac(), ref_morph_encode(&fields, false));

    let kind = outcome.overflow().map(|event| event.kind);
    reached.insert(Reached::Outcome(kind, outcome == IncrementOutcome::Rebased));
    if model.format != format {
        reached.insert(Reached::Morph(format, model.format));
    }
    if let (MorphFormat::Zcc, MorphFormat::Zcc, Some(from), Some(to)) =
        (format, model.format, width, line.zcc_counter_size())
    {
        if from != to && kind.is_none() {
            reached.insert(Reached::Width(from, to));
        }
    }
    Ok(outcome)
}

/// Runs `slots` through a fresh line of `mode` and the reference model in
/// lockstep.
fn morph_lockstep(
    mode: MorphMode,
    slots: &[usize],
    mac: u64,
    reached: &mut HashSet<Reached>,
) -> Result<(), TestCaseError> {
    let mut line = MorphLine::new(mode);
    let mut model = RefMorph::new(mode);
    line.set_mac(mac);
    for &slot in slots {
        morph_step(&mut line, &mut model, slot, mac, reached)?;
    }
    Ok(())
}

/// Runs `slots` through a fresh split line of `arity` and the reference
/// model in lockstep.
fn split_lockstep(arity: usize, slots: &[usize], mac: u64) -> Result<usize, TestCaseError> {
    let config = SplitConfig::with_arity(arity);
    let mut line = SplitLine::new(config);
    let mut model = RefSplit::new(config);
    line.set_mac(mac);
    let mut overflows = 0;
    for &slot in slots {
        let expected = model.increment(slot);
        let outcome = line.increment(slot);
        prop_assert_eq!(outcome, expected, "SC-{} slot {}", arity, slot);
        overflows += usize::from(outcome.overflow().is_some());
        for s in 0..arity {
            prop_assert_eq!(line.get(s), model.get(s), "SC-{} slot {}", arity, s);
        }
        prop_assert_eq!(line.used_counters(), model.used());
        prop_assert_eq!(line.major(), model.major);
        let fields = (model.major, model.minors.clone(), mac);
        prop_assert_eq!(line.encode(), ref_split_encode(config, &fields, true));
        prop_assert_eq!(line.encode_for_mac(), ref_split_encode(config, &fields, false));
    }
    Ok(overflows)
}

/// A deterministic skewed slot stream over `0..arity`: `hot` distinct
/// slots, scattered by an odd stride, where each write picks the lowest
/// of `1 + skew` uniform ranks, so a few slots take most of the writes.
fn skewed_slots(seed: u64, arity: usize, hot: usize, skew: u32, len: usize) -> Vec<usize> {
    let hot = hot.clamp(1, arity);
    let stride = 2 * (seed >> 40) as usize % arity + 1;
    let offset = (seed >> 20) as usize % arity;
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    (0..len)
        .map(|_| {
            let rank = (0..=skew).map(|_| next() % hot).min().unwrap_or(0);
            (rank * stride + offset) % arity
        })
        .collect()
}

/// Slots `0..n` once each, in order.
fn fill(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// `slot` written `times` times.
fn hammer(slot: usize, times: usize) -> Vec<usize> {
    vec![slot; times]
}

/// Scripted histories that between them reach every transition of the
/// rules in every mode.
fn scripted_histories() -> Vec<Vec<usize>> {
    let round_robin: Vec<usize> = (0..150).flat_map(|_| 0..128).collect();
    vec![
        // Every ZCC width crossing with small values, then the switch out
        // of ZCC and long uniform sweeps: rebases until a base overflows
        // (MCR), single-base rebases, and uniform overflows (ZCC-only).
        [fill(128), round_robin].concat(),
        // Sixteen wide counters, then a seventeenth: the rewidth fails.
        [(0..16).flat_map(|slot| hammer(slot, 300)).collect::<Vec<_>>(), vec![16]].concat(),
        // §V's pathological 67 writes: 52 counters, then 15 to one.
        [fill(52), hammer(0, 15)].concat(),
        // Wide minors in set 0 when the 65th counter arrives: the switch
        // to MCR resets set 0 (and ZCC-only refuses the uniform format).
        [(0..32).flat_map(|slot| hammer(slot, 12)).collect::<Vec<_>>(), fill(65)[32..].to_vec()].concat(),
        // A dense set with zero minors after a rebase: a set reset.
        [fill(128), fill(40), hammer(5, 7)].concat(),
        // One hot counter in a dense MCR line: the adaptive escape.
        [fill(128), hammer(5, 16)].concat(),
    ]
}

#[test]
fn scripted_histories_match_the_reference_rules_and_reach_every_transition() {
    for mode in [
        MorphMode::ZccOnly,
        MorphMode::ZccRebase,
        MorphMode::SingleBase,
    ] {
        let mut reached = HashSet::new();
        for (i, slots) in scripted_histories().iter().enumerate() {
            let mac = 0x5eed_0000 + i as u64;
            morph_lockstep(mode, slots, mac, &mut reached).unwrap();
        }
        let mut expected = vec![
            Reached::Width(16, 8),
            Reached::Width(8, 7),
            Reached::Width(7, 6),
            Reached::Width(6, 5),
            Reached::Width(5, 4),
            Reached::Outcome(None, false),
            Reached::Outcome(Some(OverflowKind::FullReset), false),
            Reached::Outcome(Some(OverflowKind::ZccRewidthFailure), false),
        ];
        match mode {
            MorphMode::ZccRebase => expected.extend([
                Reached::Morph(MorphFormat::Zcc, MorphFormat::Mcr),
                Reached::Morph(MorphFormat::Mcr, MorphFormat::Zcc),
                Reached::Outcome(None, true),
                Reached::Outcome(Some(OverflowKind::SetReset), false),
                Reached::Outcome(Some(OverflowKind::BaseOverflow), false),
                Reached::Outcome(Some(OverflowKind::FormatSwitchReset), false),
            ]),
            MorphMode::SingleBase => expected.extend([
                Reached::Morph(MorphFormat::Zcc, MorphFormat::Uniform),
                Reached::Outcome(None, true),
            ]),
            MorphMode::ZccOnly => expected.extend([
                Reached::Morph(MorphFormat::Zcc, MorphFormat::Uniform),
                Reached::Morph(MorphFormat::Uniform, MorphFormat::Zcc),
            ]),
        }
        for event in expected {
            assert!(reached.contains(&event), "{mode:?} never reached {event:?}");
        }
    }
}

#[test]
fn the_pathological_pattern_overflows_on_write_67_in_lockstep() {
    let mut line = MorphLine::new(MorphMode::ZccRebase);
    let mut model = RefMorph::new(MorphMode::ZccRebase);
    let mut reached = HashSet::new();
    let slots = [fill(52), hammer(0, 15)].concat();
    for (write, &slot) in slots.iter().enumerate() {
        let outcome = morph_step(&mut line, &mut model, slot, 0, &mut reached).unwrap();
        assert_eq!(outcome.overflow().is_some(), write + 1 == 67, "write {}", write + 1);
    }
}

#[test]
fn split_lines_overflow_in_lockstep_at_every_arity() {
    for arity in [8usize, 16, 32, 64, 128] {
        // One counter past its minor's range where that takes few
        // writes, then a sweep of every slot.
        let minor_bits = SplitConfig::with_arity(arity).minor_bits;
        let hot = if minor_bits <= 12 { 1 << minor_bits } else { 500 };
        let slots = [hammer(arity - 1, hot), fill(arity), hammer(0, 9)].concat();
        let overflows = split_lockstep(arity, &slots, 0xabcd).unwrap();
        assert_eq!(overflows > 0, minor_bits <= 12, "SC-{arity}: {overflows} overflows");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Skewed random histories in every mode: the line and the reference
    /// rules agree after every increment.
    #[test]
    fn morph_increments_match_the_reference_rules(
        mode in any_mode(),
        seed in any::<u64>(),
        hot in 1usize..=128,
        skew in 0u32..4,
        len in 1usize..1500,
        mac in any::<u64>(),
    ) {
        let slots = skewed_slots(seed, 128, hot, skew, len);
        morph_lockstep(mode, &slots, mac, &mut HashSet::new())?;
    }

    /// Skewed random histories at every split arity.
    #[test]
    fn split_increments_match_the_reference_rules(
        arity in any_split_arity(),
        seed in any::<u64>(),
        hot in 1usize..=128,
        skew in 0u32..4,
        len in 1usize..1500,
        mac in any::<u64>(),
    ) {
        let slots = skewed_slots(seed, arity, hot, skew, len);
        split_lockstep(arity, &slots, mac)?;
    }
}
