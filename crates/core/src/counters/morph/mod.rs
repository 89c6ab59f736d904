//! Morphable Counters (MorphCtr-128): the paper's primary contribution
//! (§III–§IV).
//!
//! A morphable line packs **128** counters into one 64-byte cacheline —
//! twice the density of the best split-counter design — by *morphing*
//! between representations based on how the counters are used:
//!
//! - **ZCC** (*Zero Counter Compression*, §III-B): when ≤ 64 of the 128
//!   counters are non-zero, a 128-bit bit-vector tracks which are non-zero
//!   and the remaining 256 bits are distributed among only those counters.
//!   Few used counters ⇒ wide, overflow-tolerant counters
//!   (≤16 → 16 b, ≤32 → 8 b, ≤36 → 7 b, ≤42 → 6 b, ≤51 → 5 b, ≤64 → 4 b).
//! - **Uniform** (§III-B1): 128 × 3-bit minors, used by the ZCC-only
//!   configuration when more than 64 counters are non-zero.
//! - **MCR** (*Minor Counter Rebasing*, §IV): in the full configuration,
//!   dense usage switches to a double-base format (two 7-bit bases, two sets
//!   of 64 × 3-bit minors). A saturated minor triggers a *rebase* — the base
//!   absorbs the smallest minor of the set — which avoids the overflow and
//!   its re-encryption cost entirely when usage is uniform.
//!
//! Effective counter values are `major + minor` (ZCC/Uniform) or
//! `(major ‖ base) + minor` (MCR) and are **never reused**: every overflow
//! advances the major/base beyond every previously issued value (§V). The
//! property tests in this module machine-check that claim.

mod codec;

use super::bits::{load_field, low_mask, store_field};
use super::{
    CounterLine, IncrementOutcome, LineImage, OverflowEvent, OverflowKind, ReencryptSpan,
};
use crate::LINE_MAC_BITS;

/// Counters per morphable line.
pub const MORPH_ARITY: usize = 128;

/// Counters per MCR set (one base per set, Fig 13b).
pub const MCR_SET: usize = 64;

/// Width of the ZCC major counter in bits (Fig 8).
pub const ZCC_MAJOR_BITS: u32 = 57;

/// Width of the MCR major counter in bits (Fig 13b).
pub const MCR_MAJOR_BITS: u32 = 49;

/// Width of each MCR base in bits.
pub const MCR_BASE_BITS: u32 = 7;

/// Maximum value of a 3-bit minor (Uniform / MCR formats).
const MINOR3_MAX: u64 = 7;

/// Maximum value of an MCR base.
const BASE_MAX: u64 = (1 << MCR_BASE_BITS) - 1;

/// When a set-reset finds at most this many non-zero minors in the set,
/// usage has re-sparsified and the line morphs back to ZCC instead (see
/// `increment_mcr`).
const MCR_SPARSE_SET_THRESHOLD: usize = 32;

/// Which overflow-avoidance features are enabled.
///
/// The paper evaluates both: `ZccOnly` is "MorphCtr-128 (ZCC-only)" in
/// Fig 11, `ZccRebase` is the full "MorphCtr-128 (ZCC+Rebasing)" design of
/// Fig 14 onwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MorphMode {
    /// ZCC with a uniform 3-bit fallback; no rebasing.
    ZccOnly,
    /// ZCC plus the MCR double-base rebasing format (the full design).
    ZccRebase,
    /// ZCC plus *single-base* rebasing: the 57-bit major itself acts as
    /// the base for all 128 uniform 3-bit minors (footnote 5 of the paper:
    /// adequate for page sizes larger than 4 KB, where both halves of the
    /// line belong to one page and advance in phase).
    SingleBase,
}

/// The representation a line is currently stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MorphFormat {
    /// Zero Counter Compression (sparse usage).
    Zcc,
    /// Uniform 128 × 3-bit minors (dense usage, ZCC-only mode).
    Uniform,
    /// Minor Counter Rebasing with two bases (dense usage, full mode).
    Mcr,
}

/// Returns the ZCC minor width for `n` non-zero counters, or `None` when
/// the line must leave the ZCC format (> 64 non-zero counters).
///
/// This is the utility-based allotment schedule of §III-B1: the 256-bit
/// value field is divided among only the non-zero counters.
#[must_use]
pub fn zcc_width(nonzero: usize) -> Option<u32> {
    match nonzero {
        0..=16 => Some(16),
        17..=32 => Some(8),
        33..=36 => Some(7),
        37..=42 => Some(6),
        43..=51 => Some(5),
        52..=64 => Some(4),
        _ => None,
    }
}

/// A morphable counter cacheline, kept as its 64-byte image.
///
/// The image is the line's only state: the counters, the format and the
/// MAC are fields of it, read by field extracts, and
/// [`CounterLine::encode`] is a copy. The common increments change the
/// packed fields in place; the rest unpack the line into a stack-only
/// form, apply the rules there and pack it again (DESIGN §3.1 lists
/// which are which).
///
/// # Example
///
/// ```
/// use morphtree_core::counters::morph::{MorphLine, MorphMode, MorphFormat};
/// use morphtree_core::counters::CounterLine;
///
/// let mut line = MorphLine::new(MorphMode::ZccRebase);
/// assert_eq!(line.format(), MorphFormat::Zcc);
/// // With 10 non-zero counters each gets 16 bits: plenty of headroom.
/// for slot in 0..10 {
///     for _ in 0..100 {
///         line.increment(slot);
///     }
/// }
/// assert_eq!(line.get(3), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorphLine {
    mode: MorphMode,
    image: LineImage,
}

impl MorphLine {
    /// Creates a fresh all-zero line in ZCC format.
    #[must_use]
    pub fn new(mode: MorphMode) -> Self {
        MorphLine { mode, image: codec::pack(&Unpacked::new(mode)) }
    }

    /// Decodes a line from its 64-byte image (the inverse of
    /// [`CounterLine::encode`]; the `mode` is configuration, not stored):
    /// the image is checked to be canonical, then copied.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::CodecError`] if the image is not a
    /// well-formed morphable line — images only ever come from the codec,
    /// so a failure means the stored bytes were corrupted.
    pub fn decode(mode: MorphMode, image: &LineImage) -> Result<Self, crate::error::CodecError> {
        codec::check(image)?;
        Ok(MorphLine { mode, image: *image })
    }

    /// The configured mode (ZCC-only or ZCC+Rebasing).
    #[must_use]
    pub fn mode(&self) -> MorphMode {
        self.mode
    }

    /// The first word of the image: the family bit, `ctr-sz` and the
    /// major (ZCC / Uniform), or the major and bases (MCR).
    #[inline]
    fn head(&self) -> u64 {
        load_field(&self.image, 0, 64)
    }

    /// The current storage format.
    #[must_use]
    pub fn format(&self) -> MorphFormat {
        format_of(self.head())
    }

    /// The major counter value (57-bit in ZCC/Uniform, 49-bit in MCR).
    #[must_use]
    pub fn major(&self) -> u64 {
        let head = self.head();
        match format_of(head) {
            MorphFormat::Mcr => (head >> codec::MCR_MAJOR_BIT) & low_mask(MCR_MAJOR_BITS),
            _ => head >> codec::ZCC_MAJOR_BIT,
        }
    }

    /// The per-set bases (meaningful only in MCR format; zero otherwise).
    #[must_use]
    pub fn bases(&self) -> [u64; 2] {
        let head = self.head();
        match format_of(head) {
            MorphFormat::Mcr => codec::MCR_BASE_BIT.map(|bit| (head >> bit) & BASE_MAX),
            _ => [0; 2],
        }
    }

    /// The current ZCC minor width in bits, if in ZCC format.
    #[must_use]
    pub fn zcc_counter_size(&self) -> Option<u32> {
        let head = self.head();
        (format_of(head) == MorphFormat::Zcc).then(|| ctr_sz(head) as u32)
    }

    /// The ZCC bit-vector: bit `s` is set iff slot `s` is non-zero.
    #[inline]
    fn bitvec(&self) -> u128 {
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&self.image[codec::BITVEC_BYTES]);
        u128::from_le_bytes(bytes)
    }

    /// Whether ZCC slot `slot` is marked non-zero, and its rank: the
    /// number of marked slots below it, which is its place in the value
    /// field.
    #[inline]
    fn zcc_rank(bitvec: u128, slot: usize) -> (bool, usize) {
        let below = bitvec & ((1u128 << slot) - 1);
        ((bitvec >> slot) & 1 == 1, below.count_ones() as usize)
    }

    /// The increments that change the packed fields in place; `None` for
    /// every other case, which [`MorphLine::increment`] hands to the
    /// unpacked rules. The in-place cases are the ones whose outcome is
    /// `Ok` with only the written counter changing:
    /// - a 3-bit Uniform or MCR minor below 7;
    /// - a marked ZCC slot whose value stays below `2^width`;
    /// - a newly marked ZCC slot whose population keeps its width: its
    ///   bit is set, the values above its rank move up one field, and it
    ///   gets a value of 1.
    #[inline]
    fn increment_in_place(&mut self, slot: usize) -> Option<IncrementOutcome> {
        let head = self.head();
        if format_of(head) != MorphFormat::Zcc {
            let bit = codec::minor_bit(slot);
            let minor = load_field(&self.image, bit, codec::MINOR_BITS);
            if minor >= MINOR3_MAX {
                return None;
            }
            store_field(&mut self.image, bit, codec::MINOR_BITS, minor + 1);
            return Some(IncrementOutcome::Ok);
        }
        let width = ctr_sz(head) as u32;
        let bitvec = self.bitvec();
        let (marked, rank) = Self::zcc_rank(bitvec, slot);
        let bit = codec::VALUES_BIT + rank * width as usize;
        if marked {
            let value = load_field(&self.image, bit, width) + 1;
            if value >= 1 << width {
                return None;
            }
            store_field(&mut self.image, bit, width, value);
        } else {
            if zcc_width(bitvec.count_ones() as usize + 1) != Some(width) {
                return None;
            }
            let bitvec = bitvec | (1 << slot);
            self.image[codec::BITVEC_BYTES].copy_from_slice(&bitvec.to_le_bytes());
            self.open_value_field(rank * width as usize, width);
            store_field(&mut self.image, bit, width, 1);
        }
        Some(IncrementOutcome::Ok)
    }

    /// Moves the ZCC value-field bits from bit `at` (relative to the
    /// field) up by `width`, opening a field there. The field holds at
    /// most `256 / width - 1` values before the move, so no value bit
    /// leaves it.
    fn open_value_field(&mut self, at: usize, width: u32) {
        let range = codec::VALUES_BIT / 8..codec::MAC_BYTE;
        let mut halves = [0u128; 2];
        for (half, bytes) in halves.iter_mut().zip(self.image[range.clone()].chunks_exact(16)) {
            let mut le = [0u8; 16];
            le.copy_from_slice(bytes);
            *half = u128::from_le_bytes(le);
        }
        let [lo, hi] = halves;
        let shifted = [lo << width, (hi << width) | (lo >> (128 - width))];
        let keep = if at < 128 {
            [low_mask128(at), 0]
        } else {
            [u128::MAX, low_mask128(at - 128)]
        };
        for ((bytes, old), (new, keep)) in
            self.image[range].chunks_exact_mut(16).zip(halves).zip(shifted.into_iter().zip(keep))
        {
            bytes.copy_from_slice(&((old & keep) | (new & !keep)).to_le_bytes());
        }
    }

    /// Applies the increment rules to the unpacked line and packs the
    /// result back, keeping the MAC field.
    #[cold]
    fn increment_unpacked(&mut self, slot: usize) -> IncrementOutcome {
        let mut line = codec::unpack(self.mode, &self.image);
        let outcome = line.increment(slot);
        let body = codec::pack(&line);
        self.image[..codec::MAC_BYTE].copy_from_slice(&body[..codec::MAC_BYTE]);
        outcome
    }
}

/// The storage format named by an image's first word.
#[inline]
fn format_of(head: u64) -> MorphFormat {
    if head & 1 == 1 {
        MorphFormat::Mcr
    } else if ctr_sz(head) == codec::UNIFORM_CTR_SZ {
        MorphFormat::Uniform
    } else {
        MorphFormat::Zcc
    }
}

/// The `ctr-sz` field of an image's first word (ZCC and Uniform).
#[inline]
fn ctr_sz(head: u64) -> u64 {
    (head >> codec::CTR_SZ_BIT) & low_mask(codec::CTR_SZ_BITS)
}

/// The low `bits` bits of a `u128` set (`bits < 128`).
fn low_mask128(bits: usize) -> u128 {
    (1u128 << bits) - 1
}

impl CounterLine for MorphLine {
    fn arity(&self) -> usize {
        MORPH_ARITY
    }

    fn get(&self, slot: usize) -> u64 {
        assert!(slot < MORPH_ARITY, "slot {slot} out of range");
        let head = self.head();
        match format_of(head) {
            MorphFormat::Zcc => {
                let major = head >> codec::ZCC_MAJOR_BIT;
                let (marked, rank) = Self::zcc_rank(self.bitvec(), slot);
                if !marked {
                    return major;
                }
                let width = ctr_sz(head) as u32;
                major + load_field(&self.image, codec::VALUES_BIT + rank * width as usize, width)
            }
            format => {
                let minor = load_field(&self.image, codec::minor_bit(slot), codec::MINOR_BITS);
                if format == MorphFormat::Uniform {
                    return (head >> codec::ZCC_MAJOR_BIT) + minor;
                }
                // `(major ‖ base) + minor`; bases are 7 bits so the
                // concatenation equals addition.
                let major = (head >> codec::MCR_MAJOR_BIT) & low_mask(MCR_MAJOR_BITS);
                let base = (head >> codec::MCR_BASE_BIT[slot / MCR_SET]) & BASE_MAX;
                (major << MCR_BASE_BITS) + base + minor
            }
        }
    }

    fn increment(&mut self, slot: usize) -> IncrementOutcome {
        assert!(slot < MORPH_ARITY, "slot {slot} out of range");
        match self.increment_in_place(slot) {
            Some(outcome) => outcome,
            None => self.increment_unpacked(slot),
        }
    }

    fn used_counters(&self) -> usize {
        if self.format() == MorphFormat::Zcc {
            return self.bitvec().count_ones() as usize;
        }
        (0..MORPH_ARITY)
            .filter(|&slot| load_field(&self.image, codec::minor_bit(slot), codec::MINOR_BITS) != 0)
            .count()
    }

    fn mac(&self) -> u64 {
        load_field(&self.image, codec::MAC_OFFSET, LINE_MAC_BITS as u32)
    }

    fn set_mac(&mut self, mac: u64) {
        store_field(&mut self.image, codec::MAC_OFFSET, LINE_MAC_BITS as u32, mac);
    }

    fn encode(&self) -> LineImage {
        self.image
    }

    fn encode_for_mac(&self) -> LineImage {
        let mut body = self.image;
        body[codec::MAC_BYTE..].fill(0);
        body
    }
}

/// A morphable line unpacked into its fields, on the stack: the form the
/// increment rules of §III-B and §IV are written in. Increments that
/// rewidth, morph, rebase, reset or overflow a line run here, between a
/// [`codec::unpack`] and a [`codec::pack`].
#[derive(Debug)]
pub(super) struct Unpacked {
    mode: MorphMode,
    format: MorphFormat,
    /// 57-bit quantity in ZCC/Uniform; 49-bit in MCR.
    major: u64,
    /// Per-set bases, only meaningful in MCR format.
    bases: [u64; 2],
    /// The 128 minor counters (≤ 16 bits each).
    values: [u16; MORPH_ARITY],
}

impl Unpacked {
    /// A fresh all-zero line in ZCC format.
    fn new(mode: MorphMode) -> Self {
        Unpacked {
            mode,
            format: MorphFormat::Zcc,
            major: 0,
            bases: [0; 2],
            values: [0; MORPH_ARITY],
        }
    }

    fn nonzero(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0).count()
    }

    fn max_value(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0) as u64
    }

    /// Full reset from ZCC/Uniform: advance the major past every issued
    /// value, zero the minors, give the written slot a fresh count of 1.
    fn full_reset(&mut self, slot: usize, kind: OverflowKind) -> IncrementOutcome {
        let used = self.nonzero();
        self.major += self.max_value() + 1;
        self.values.fill(0);
        self.values[slot] = 1;
        self.format = MorphFormat::Zcc;
        IncrementOutcome::Overflow(OverflowEvent {
            span: ReencryptSpan::All,
            used_counters: used,
            kind,
        })
    }

    /// Full reset out of MCR: per §IV-2 the major advances by two and the
    /// format returns to ZCC. In ZCC the major is the full 57-bit quantity,
    /// i.e. `(major49 + 2) << 7`, which exceeds the largest value issued in
    /// MCR (`(major49 ‖ 127) + 7`).
    fn full_reset_from_mcr(&mut self, slot: usize, kind: OverflowKind) -> IncrementOutcome {
        let used = self.nonzero();
        self.major = (self.major + 2) << MCR_BASE_BITS;
        self.bases = [0; 2];
        self.values.fill(0);
        self.values[slot] = 1;
        self.format = MorphFormat::Zcc;
        IncrementOutcome::Overflow(OverflowEvent {
            span: ReencryptSpan::All,
            used_counters: used,
            kind,
        })
    }

    fn increment_zcc(&mut self, slot: usize) -> IncrementOutcome {
        let was_zero = self.values[slot] == 0;
        let nonzero_after = self.nonzero() + usize::from(was_zero);

        if let Some(width) = zcc_width(nonzero_after) {
            let limit = 1u64 << width;
            let new_val = self.values[slot] as u64 + 1;
            let max_other = self.max_value();
            if max_other >= limit {
                // A narrower width cannot hold an existing counter: the
                // line cannot re-encode (this is what the pathological
                // 67-write pattern of §V exploits).
                return self.full_reset(slot, OverflowKind::ZccRewidthFailure);
            }
            if new_val >= limit {
                return self.full_reset(slot, OverflowKind::FullReset);
            }
            self.values[slot] = new_val as u16;
            return IncrementOutcome::Ok;
        }

        // The 65th counter just became non-zero: leave ZCC.
        match self.mode {
            MorphMode::ZccOnly | MorphMode::SingleBase => self.switch_to_uniform(slot),
            MorphMode::ZccRebase => self.switch_to_mcr(slot),
        }
    }

    /// ZCC → Uniform (ZCC-only mode): possible without any re-encryption
    /// iff every minor fits in 3 bits.
    fn switch_to_uniform(&mut self, slot: usize) -> IncrementOutcome {
        if self.max_value() > MINOR3_MAX {
            return self.full_reset(slot, OverflowKind::ZccRewidthFailure);
        }
        self.format = MorphFormat::Uniform;
        self.values[slot] += 1;
        IncrementOutcome::Ok
    }

    /// ZCC → MCR (full mode). Effective values are preserved where the
    /// minors fit in 3 bits (base := low 7 bits of the major); a set whose
    /// largest minor is ≥ 8 takes a set-reset so no value is ever reused.
    fn switch_to_mcr(&mut self, slot: usize) -> IncrementOutcome {
        let used = self.nonzero();
        let base_init = self.major & BASE_MAX;
        let major49 = self.major >> MCR_BASE_BITS;

        let mut reset_sets = [false; 2];
        let mut new_bases = [base_init; 2];
        for set in 0..2 {
            let range = set * MCR_SET..(set + 1) * MCR_SET;
            let max_set = self.values[range].iter().copied().max().unwrap_or(0) as u64;
            if max_set > MINOR3_MAX {
                let bumped = base_init + max_set + 1;
                if bumped > BASE_MAX {
                    // Cannot even express the reset base: give up on the
                    // switch and take a plain full reset (stays ZCC).
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
                self.values[set * MCR_SET..(set + 1) * MCR_SET].fill(0);
            }
        }
        self.values[slot] += 1;

        match reset_sets {
            [false, false] => IncrementOutcome::Ok,
            [true, true] => IncrementOutcome::Overflow(OverflowEvent {
                span: ReencryptSpan::All,
                used_counters: used,
                kind: OverflowKind::FormatSwitchReset,
            }),
            [first, _] => {
                let set = usize::from(!first);
                IncrementOutcome::Overflow(OverflowEvent {
                    span: ReencryptSpan::Set { start: set * MCR_SET, len: MCR_SET },
                    used_counters: used,
                    kind: OverflowKind::FormatSwitchReset,
                })
            }
        }
    }

    fn increment_uniform(&mut self, slot: usize) -> IncrementOutcome {
        if (self.values[slot] as u64) < MINOR3_MAX {
            self.values[slot] += 1;
            return IncrementOutcome::Ok;
        }
        if self.mode == MorphMode::SingleBase {
            // Footnote 5: the major doubles as the (unbounded 57-bit) base;
            // rebase the whole line when every minor is non-zero.
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
        if (self.values[slot] as u64) < MINOR3_MAX {
            self.values[slot] += 1;
            return IncrementOutcome::Ok;
        }

        let set = slot / MCR_SET;
        let range = set * MCR_SET..(set + 1) * MCR_SET;
        let min_set = self.values[range.clone()].iter().copied().min().unwrap_or(0) as u64;

        if min_set > 0 {
            // Rebase (Fig 12): slide the base forward by the smallest minor;
            // no effective value other than the incremented one changes.
            let new_base = self.bases[set] + min_set;
            if new_base > BASE_MAX {
                return self.full_reset_from_mcr(slot, OverflowKind::BaseOverflow);
            }
            self.bases[set] = new_base;
            for v in &mut self.values[range] {
                *v -= min_set as u16;
            }
            self.values[slot] += 1;
            return IncrementOutcome::Rebased;
        }

        // Some minor in the set is zero: rebasing is impossible. If the set
        // is still densely used, reset it against its base (64
        // re-encryptions, §IV-2). If usage has *re-sparsified* — most
        // minors are zero — MCR is the wrong representation entirely, so
        // morph back to ZCC with a full reset (the incremented counter gets
        // a wide ZCC field again). This adaptive escape is an extension in
        // the spirit of §III ("dynamically changing the representation
        // based on the usage pattern"); see DESIGN.md.
        let range_nonzero = self.values[range.clone()].iter().filter(|&&v| v != 0).count();
        if range_nonzero <= MCR_SPARSE_SET_THRESHOLD {
            return self.full_reset_from_mcr(slot, OverflowKind::FullReset);
        }
        let used = self.nonzero();
        let max_set = self.values[range.clone()].iter().copied().max().unwrap_or(0) as u64;
        let new_base = self.bases[set] + max_set + 1;
        if new_base > BASE_MAX {
            return self.full_reset_from_mcr(slot, OverflowKind::BaseOverflow);
        }
        self.bases[set] = new_base;
        self.values[range].fill(0);
        self.values[slot] = 1;
        IncrementOutcome::Overflow(OverflowEvent {
            span: ReencryptSpan::Set { start: set * MCR_SET, len: MCR_SET },
            used_counters: used,
            kind: OverflowKind::SetReset,
        })
    }

    fn increment(&mut self, slot: usize) -> IncrementOutcome {
        match self.format {
            MorphFormat::Zcc => self.increment_zcc(slot),
            MorphFormat::Uniform => self.increment_uniform(slot),
            MorphFormat::Mcr => self.increment_mcr(slot),
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index parallel snapshots by slot
mod tests {
    use super::*;

    fn line(mode: MorphMode) -> MorphLine {
        MorphLine::new(mode)
    }

    #[test]
    fn width_schedule_matches_paper() {
        // §III-B1: "up to 16 non-zero counters each counter gets 16-bits, up
        // to 32 each gets 8-bits ... 7-bits up to 36, 6-bits up to 42,
        // 5-bits up to 51 and 4-bits up to 64".
        assert_eq!(zcc_width(1), Some(16));
        assert_eq!(zcc_width(16), Some(16));
        assert_eq!(zcc_width(17), Some(8));
        assert_eq!(zcc_width(32), Some(8));
        assert_eq!(zcc_width(36), Some(7));
        assert_eq!(zcc_width(42), Some(6));
        assert_eq!(zcc_width(51), Some(5));
        assert_eq!(zcc_width(64), Some(4));
        assert_eq!(zcc_width(65), None);
    }

    #[test]
    fn width_schedule_fits_value_field() {
        // n non-zero counters at width w must fit the 256-bit value field.
        for n in 1..=64 {
            let w = zcc_width(n).unwrap();
            assert!(n as u32 * w <= 256, "n={n} w={w}");
        }
    }

    #[test]
    fn sparse_counters_get_sixteen_bits() {
        let mut l = line(MorphMode::ZccRebase);
        // One counter can take 2^16 - 1 increments before overflow.
        for i in 0..65_535 {
            assert_eq!(l.increment(0), IncrementOutcome::Ok, "write {i}");
        }
        assert!(l.increment(0).overflow().is_some());
    }

    #[test]
    fn zcc_rewidth_failure_on_threshold_crossing() {
        let mut l = line(MorphMode::ZccRebase);
        // 16 counters driven to 300 (> 2^8): fine at width 16.
        for slot in 0..16 {
            for _ in 0..300 {
                assert!(l.increment(slot).overflow().is_none());
            }
        }
        // The 17th non-zero counter forces width 8; 300 no longer fits.
        let out = l.increment(16);
        let event = out.overflow().expect("rewidth failure");
        assert_eq!(event.kind, OverflowKind::ZccRewidthFailure);
        assert_eq!(event.span, ReencryptSpan::All);
        // `used_counters` counts the non-zero counters at overflow time
        // (the incoming 17th counter is still zero when the reset fires).
        assert_eq!(event.used_counters, 16);
    }

    #[test]
    fn pathological_dos_pattern_overflows_in_67_writes() {
        // §V: write once to 52 counters (width drops to 4 bits), then 15
        // writes to a single counter — overflow on write 67.
        let mut l = line(MorphMode::ZccRebase);
        let mut writes = 0;
        for slot in 0..52 {
            assert!(l.increment(slot).overflow().is_none());
            writes += 1;
        }
        assert_eq!(l.zcc_counter_size(), Some(4));
        for _ in 0..14 {
            assert!(l.increment(0).overflow().is_none());
            writes += 1;
        }
        assert!(l.increment(0).overflow().is_some());
        writes += 1;
        assert_eq!(writes, 67);
    }

    #[test]
    fn uniform_usage_tolerates_over_500_writes() {
        // §V: "Morphable counters can tolerate 500+ writes before an
        // overflow, when counters are written uniformly".
        for mode in [MorphMode::ZccOnly, MorphMode::ZccRebase] {
            let mut l = line(mode);
            let mut writes = 0u64;
            'outer: loop {
                for slot in 0..MORPH_ARITY {
                    writes += 1;
                    if l.increment(slot).overflow().is_some() {
                        break 'outer;
                    }
                }
                if writes > 2_000_000 {
                    // Rebasing mode sustains round-robin writes almost
                    // indefinitely; stop counting.
                    break;
                }
            }
            assert!(writes > 500, "{mode:?} tolerated only {writes}");
        }
    }

    #[test]
    fn zcc_only_switches_to_uniform_at_65_counters() {
        let mut l = line(MorphMode::ZccOnly);
        for slot in 0..64 {
            l.increment(slot);
        }
        assert_eq!(l.format(), MorphFormat::Zcc);
        assert_eq!(l.increment(64), IncrementOutcome::Ok);
        assert_eq!(l.format(), MorphFormat::Uniform);
        // Values preserved across the switch.
        assert_eq!(l.get(0), 1);
        assert_eq!(l.get(64), 1);
        assert_eq!(l.get(127), 0);
    }

    #[test]
    fn zcc_rebase_switches_to_mcr_at_65_counters() {
        let mut l = line(MorphMode::ZccRebase);
        for slot in 0..64 {
            l.increment(slot);
        }
        let before: Vec<u64> = (0..128).map(|s| l.get(s)).collect();
        assert_eq!(l.increment(64), IncrementOutcome::Ok);
        assert_eq!(l.format(), MorphFormat::Mcr);
        for slot in 0..128 {
            let expect = before[slot] + u64::from(slot == 64);
            assert_eq!(l.get(slot), expect, "slot {slot}");
        }
    }

    #[test]
    fn mcr_switch_resets_sets_with_wide_minors() {
        let mut l = line(MorphMode::ZccRebase);
        // Drive set-0 counters above 7 while staying in ZCC.
        for slot in 0..32 {
            for _ in 0..12 {
                l.increment(slot);
            }
        }
        for slot in 32..64 {
            l.increment(slot);
        }
        let before: Vec<u64> = (0..128).map(|s| l.get(s)).collect();
        // 65th non-zero counter (in set 1) triggers the switch; set 0 holds
        // values of 12 > 7, so it must set-reset.
        let out = l.increment(64);
        let event = out.overflow().expect("set 0 cannot re-encode");
        assert_eq!(event.kind, OverflowKind::FormatSwitchReset);
        assert_eq!(event.span, ReencryptSpan::Set { start: 0, len: 64 });
        // Monotonicity: every reset counter advanced.
        for slot in 0..64 {
            assert!(l.get(slot) > before[slot], "slot {slot}");
        }
        // Untouched set preserved exactly.
        for slot in 65..128 {
            assert_eq!(l.get(slot), before[slot], "slot {slot}");
        }
    }

    #[test]
    fn rebase_changes_only_the_incremented_counter() {
        let mut l = line(MorphMode::ZccRebase);
        // Enter MCR with all 128 counters at 1.
        for slot in 0..128 {
            l.increment(slot);
        }
        assert_eq!(l.format(), MorphFormat::Mcr);
        // Saturate slot 5 (3-bit minor: 1 → 7 takes 6 more increments).
        for _ in 0..6 {
            assert_eq!(l.increment(5), IncrementOutcome::Ok);
        }
        let before: Vec<u64> = (0..128).map(|s| l.get(s)).collect();
        // Next increment must rebase (min of set is 1 > 0).
        assert_eq!(l.increment(5), IncrementOutcome::Rebased);
        for slot in 0..128 {
            let expect = before[slot] + u64::from(slot == 5);
            assert_eq!(l.get(slot), expect, "slot {slot}");
        }
    }

    #[test]
    fn mcr_set_reset_when_rebase_impossible_and_set_is_dense() {
        let mut l = line(MorphMode::ZccRebase);
        for slot in 0..128 {
            l.increment(slot);
        }
        // Give 40 slots of set 0 a second increment, then saturate slot 5.
        for slot in 0..40 {
            l.increment(slot);
        }
        for _ in 0..5 {
            assert_eq!(l.increment(5), IncrementOutcome::Ok);
        }
        // First saturation rebases by the set minimum (1); slots 40..63 of
        // set 0 become zero while 41 slots stay non-zero.
        assert_eq!(l.increment(5), IncrementOutcome::Rebased);
        // The next saturation cannot rebase (min = 0), and the set is still
        // densely used (41 > threshold): paper-style set reset.
        let before: Vec<u64> = (0..128).map(|s| l.get(s)).collect();
        let out = l.increment(5);
        let event = out.overflow().expect("set reset");
        assert_eq!(event.kind, OverflowKind::SetReset);
        assert_eq!(event.span, ReencryptSpan::Set { start: 0, len: 64 });
        // Set 0 counters all advanced; set 1 untouched.
        for slot in 0..64 {
            assert!(l.get(slot) > before[slot], "slot {slot}");
        }
        for slot in 64..128 {
            assert_eq!(l.get(slot), before[slot], "slot {slot}");
        }
    }

    #[test]
    fn mcr_escapes_to_zcc_when_usage_resparsifies() {
        let mut l = line(MorphMode::ZccRebase);
        for slot in 0..128 {
            l.increment(slot);
        }
        assert_eq!(l.format(), MorphFormat::Mcr);
        // Hammer one slot: the first saturation rebases by 1, zeroing the
        // rest of the set; the next cannot rebase and finds a nearly-empty
        // set — the line morphs back to ZCC (adaptive escape).
        let before: Vec<u64> = (0..128).map(|s| l.get(s)).collect();
        let mut escaped = false;
        for _ in 0..16 {
            if let IncrementOutcome::Overflow(e) = l.increment(5) {
                assert_eq!(e.kind, OverflowKind::FullReset);
                assert_eq!(e.span, ReencryptSpan::All);
                escaped = true;
                break;
            }
        }
        assert!(escaped, "expected the adaptive escape to fire");
        assert_eq!(l.format(), MorphFormat::Zcc);
        // Monotonicity across the escape.
        for slot in 0..128 {
            assert!(l.get(slot) > before[slot], "slot {slot}");
        }
        // And the hot counter now enjoys a wide ZCC field.
        assert_eq!(l.zcc_counter_size(), Some(16));
    }

    #[test]
    fn base_overflow_returns_to_zcc_with_major_plus_two() {
        let mut l = line(MorphMode::ZccRebase);
        for slot in 0..128 {
            l.increment(slot);
        }
        assert_eq!(l.format(), MorphFormat::Mcr);
        let major49 = l.major();
        // Round-robin writes: every saturation rebases by 7 (all minors
        // move together), walking the base to exhaustion, at which point
        // the line takes a BaseOverflow full reset back to ZCC.
        let mut rebases = 0;
        'outer: loop {
            for slot in 0..128 {
                match l.increment(slot) {
                    IncrementOutcome::Rebased => rebases += 1,
                    IncrementOutcome::Overflow(e) => {
                        assert_eq!(e.kind, OverflowKind::BaseOverflow);
                        break 'outer;
                    }
                    IncrementOutcome::Ok => {}
                }
            }
        }
        assert!(rebases > 10, "expected many rebases, saw {rebases}");
        assert_eq!(l.format(), MorphFormat::Zcc);
        assert_eq!(l.major(), (major49 + 2) << 7);
    }

    #[test]
    fn effective_values_strictly_increase_per_slot() {
        // Mixed torture: cycle through slots with skewed frequencies.
        for mode in [MorphMode::ZccOnly, MorphMode::ZccRebase] {
            let mut l = line(mode);
            let mut last: Vec<u64> = (0..128).map(|s| l.get(s)).collect();
            let mut state = 0x9e37_79b9_u64;
            for _ in 0..50_000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let slot = ((state >> 33) % 128) as usize;
                let before_others: Option<Vec<u64>> = None;
                let _ = before_others;
                let out = l.increment(slot);
                let now = l.get(slot);
                assert!(now > last[slot], "{mode:?} slot {slot}: {now} <= {}", last[slot]);
                last[slot] = now;
                if let IncrementOutcome::Overflow(e) = out {
                    // All spanned slots advanced (or stayed) — refresh cache.
                    for s in e.span.slots(128) {
                        let v = l.get(s);
                        assert!(v >= last[s], "{mode:?} span slot {s}");
                        last[s] = v;
                    }
                }
            }
        }
    }

    #[test]
    fn non_overflow_increments_never_disturb_other_slots() {
        let mut l = line(MorphMode::ZccRebase);
        let mut shadow = vec![0u64; 128];
        let mut state = 12345u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            let slot = ((state >> 30) % 128) as usize;
            let out = l.increment(slot);
            match out {
                IncrementOutcome::Ok | IncrementOutcome::Rebased => {
                    shadow[slot] += 1;
                }
                IncrementOutcome::Overflow(e) => {
                    // Spanned slots may change arbitrarily (upwards); refresh.
                    for s in e.span.slots(128) {
                        shadow[s] = l.get(s);
                    }
                    shadow[slot] = l.get(slot);
                }
            }
            for s in 0..128 {
                assert_eq!(l.get(s), shadow[s], "slot {s} diverged");
            }
        }
    }

    #[test]
    fn single_base_rebases_over_all_128_counters() {
        let mut l = line(MorphMode::SingleBase);
        for slot in 0..128 {
            l.increment(slot);
        }
        assert_eq!(l.format(), MorphFormat::Uniform);
        // Round-robin writes rebase via the major indefinitely.
        let mut rebases = 0;
        let mut overflows = 0;
        for round in 0..64 {
            for slot in 0..128 {
                match l.increment(slot) {
                    IncrementOutcome::Rebased => rebases += 1,
                    IncrementOutcome::Overflow(_) => overflows += 1,
                    IncrementOutcome::Ok => {}
                }
            }
            let _ = round;
        }
        assert!(rebases > 0, "single-base rebasing engaged");
        assert_eq!(overflows, 0, "uniform sweeps never overflow");
        // And there is no 7-bit base to exhaust: values keep growing.
        assert!(l.get(0) > 64);
    }

    #[test]
    fn single_base_loses_to_double_base_on_out_of_phase_halves() {
        // Footnote 5's rationale inverted: with 4 KB pages the two
        // 64-counter halves advance out of phase; a single base is pinned
        // by the idle half while double bases rebase per set.
        let run = |mode: MorphMode| {
            let mut l = line(mode);
            for slot in 0..128 {
                l.increment(slot);
            }
            // Only the first half (one page) keeps getting written.
            let mut overflow_cost = 0u64;
            for round in 0..200 {
                for slot in 0..64 {
                    if let IncrementOutcome::Overflow(e) = l.increment(slot) {
                        overflow_cost += e.span.len(128) as u64;
                    }
                }
                let _ = round;
            }
            overflow_cost
        };
        let single = run(MorphMode::SingleBase);
        let double = run(MorphMode::ZccRebase);
        assert!(
            double < single,
            "double-base must win on out-of-phase halves: {double} !< {single}"
        );
    }

    #[test]
    fn single_base_rebase_preserves_effective_values() {
        let mut l = line(MorphMode::SingleBase);
        for slot in 0..128 {
            l.increment(slot);
        }
        for _ in 0..6 {
            l.increment(9);
        }
        let before: Vec<u64> = (0..128).map(|s| l.get(s)).collect();
        assert_eq!(l.increment(9), IncrementOutcome::Rebased);
        for slot in 0..128 {
            let expect = before[slot] + u64::from(slot == 9);
            assert_eq!(l.get(slot), expect, "slot {slot}");
        }
    }

    #[test]
    fn get_panics_out_of_range() {
        let l = line(MorphMode::ZccRebase);
        let result = std::panic::catch_unwind(|| l.get(128));
        assert!(result.is_err());
    }
}
