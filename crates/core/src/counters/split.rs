//! Classic split counters (Yan et al., ISCA 2006) and the SGX MEE counter
//! organization — the baselines the paper compares against (Fig 3/4).
//!
//! A split-counter line shares one large *major* counter among `n` small
//! *minor* counters; the effective counter for child `i` is the
//! concatenation `major ‖ minor_i`. When any minor wraps, the major is
//! incremented and **all** minors reset, changing every child's effective
//! value — which costs `n` re-encryptions (§II-A2).

use super::bits::{load_field, store_field};
use super::{
    CounterLine, IncrementOutcome, LineImage, OverflowEvent, OverflowKind, ReencryptSpan,
};
use crate::{CACHELINE_BITS, CACHELINE_BYTES, LINE_MAC_BITS};

const MAC_OFFSET: usize = CACHELINE_BITS - LINE_MAC_BITS;

/// First byte of the MAC field.
const MAC_BYTE: usize = MAC_OFFSET / 8;

/// Static shape of a split-counter line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitConfig {
    /// Counters per line.
    pub arity: usize,
    /// Width of each minor counter in bits.
    pub minor_bits: u32,
    /// Width of the shared major counter in bits (0 for the SGX MEE layout,
    /// which stores eight full-width counters and no major).
    pub major_bits: u32,
}

impl SplitConfig {
    /// The canonical organization for a given arity:
    ///
    /// - arity 8 → the SGX MEE layout (eight 56-bit counters, no major),
    /// - otherwise a 64-bit major with `384 / arity`-bit minors
    ///   (SC-16: 24 b, SC-32: 12 b, SC-64: 6 b, SC-128: 3 b — Fig 4).
    ///
    /// # Panics
    ///
    /// Panics if the arity is not one of 8, 16, 32, 64, 128.
    #[inline]
    #[must_use]
    pub fn with_arity(arity: usize) -> Self {
        let minor_bits = match arity {
            8 => return SplitConfig { arity: 8, minor_bits: 56, major_bits: 0 },
            16 => 24,
            32 => 12,
            64 => 6,
            128 => 3,
            _ => panic!("unsupported split-counter arity {arity}"),
        };
        SplitConfig { arity, minor_bits, major_bits: 64 }
    }

    /// Bit offset of minor `slot`.
    #[inline]
    fn minor_bit(&self, slot: usize) -> usize {
        self.major_bits as usize + slot * self.minor_bits as usize
    }
}

/// A split-counter cacheline, kept as its 64-byte image: the major, the
/// minors and the MAC are fields of it, and the layout follows from the
/// arity ([`SplitConfig::with_arity`]).
///
/// # Example
///
/// ```
/// use morphtree_core::counters::split::{SplitConfig, SplitLine};
/// use morphtree_core::counters::{CounterLine, IncrementOutcome};
///
/// let mut line = SplitLine::new(SplitConfig::with_arity(64));
/// // A 6-bit minor overflows on its 64th increment, resetting the line.
/// for _ in 0..63 {
///     assert_eq!(line.increment(0), IncrementOutcome::Ok);
/// }
/// assert!(matches!(line.increment(0), IncrementOutcome::Overflow(_)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitLine {
    /// Counters per line; at most 128, so it fits a byte.
    arity: u8,
    image: LineImage,
}

impl SplitLine {
    /// Creates a fresh line with all counters zero.
    ///
    /// # Panics
    ///
    /// Panics unless `config` is the canonical organization of its arity
    /// ([`SplitConfig::with_arity`]).
    #[must_use]
    pub fn new(config: SplitConfig) -> Self {
        assert_eq!(
            config,
            SplitConfig::with_arity(config.arity),
            "split layout {config:?} is not the canonical one for its arity"
        );
        SplitLine { arity: config.arity as u8, image: [0; CACHELINE_BYTES] }
    }

    /// The line's configuration.
    #[inline]
    #[must_use]
    pub fn config(&self) -> SplitConfig {
        SplitConfig::with_arity(usize::from(self.arity))
    }

    /// The shared major counter value.
    #[must_use]
    pub fn major(&self) -> u64 {
        load_field(&self.image, 0, self.config().major_bits)
    }

    /// Decodes a line from its 64-byte image: a copy, since every bit of
    /// a split layout is a field and so any image decodes.
    #[must_use]
    pub fn decode(config: SplitConfig, image: &LineImage) -> Self {
        SplitLine { image: *image, ..SplitLine::new(config) }
    }

    /// Minor `slot`.
    fn minor(&self, config: SplitConfig, slot: usize) -> u64 {
        load_field(&self.image, config.minor_bit(slot), config.minor_bits)
    }
}

impl CounterLine for SplitLine {
    fn arity(&self) -> usize {
        usize::from(self.arity)
    }

    fn get(&self, slot: usize) -> u64 {
        let config = self.config();
        assert!(slot < config.arity, "slot {slot} out of range");
        // Effective counter = major ‖ minor (concatenation, Fig 3).
        (self.major() << config.minor_bits) | self.minor(config, slot)
    }

    fn increment(&mut self, slot: usize) -> IncrementOutcome {
        let config = self.config();
        assert!(slot < config.arity, "slot {slot} out of range");
        let minor = self.minor(config, slot);
        if minor < (1 << config.minor_bits) - 1 {
            store_field(&mut self.image, config.minor_bit(slot), config.minor_bits, minor + 1);
            return IncrementOutcome::Ok;
        }
        // Minor wrap: bump the major, reset all minors (§II-A2). The slot
        // being written restarts at 1 (its new data is encrypted under
        // `major+1 ‖ 1`, strictly greater than anything issued before).
        // The SGX layout has no major: its 56-bit counters do not wrap in
        // practice, and one that did could not advance.
        assert!(config.major_bits > 0, "a {}-bit counter wrapped", config.minor_bits);
        let used = self.used_counters();
        let major = self.major() + 1;
        self.image[..MAC_BYTE].fill(0);
        store_field(&mut self.image, 0, config.major_bits, major);
        store_field(&mut self.image, config.minor_bit(slot), config.minor_bits, 1);
        IncrementOutcome::Overflow(OverflowEvent {
            span: ReencryptSpan::All,
            used_counters: used,
            kind: OverflowKind::FullReset,
        })
    }

    fn used_counters(&self) -> usize {
        let config = self.config();
        (0..config.arity).filter(|&slot| self.minor(config, slot) != 0).count()
    }

    fn mac(&self) -> u64 {
        load_field(&self.image, MAC_OFFSET, LINE_MAC_BITS as u32)
    }

    fn set_mac(&mut self, mac: u64) {
        store_field(&mut self.image, MAC_OFFSET, LINE_MAC_BITS as u32, mac);
    }

    fn encode(&self) -> LineImage {
        self.image
    }

    fn encode_for_mac(&self) -> LineImage {
        let mut body = self.image;
        body[MAC_BYTE..].fill(0);
        body
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index parallel snapshots by slot
mod tests {
    use super::*;

    #[test]
    fn canonical_shapes_fit_a_cacheline() {
        for arity in [8usize, 16, 32, 64, 128] {
            let cfg = SplitConfig::with_arity(arity);
            let bits = cfg.major_bits as usize + arity * cfg.minor_bits as usize + LINE_MAC_BITS;
            assert!(bits <= CACHELINE_BITS, "arity {arity}");
        }
        assert_eq!(SplitConfig::with_arity(64).minor_bits, 6);
        assert_eq!(SplitConfig::with_arity(128).minor_bits, 3);
        assert_eq!(SplitConfig::with_arity(32).minor_bits, 12);
        assert_eq!(SplitConfig::with_arity(16).minor_bits, 24);
        assert_eq!(SplitConfig::with_arity(8).minor_bits, 56);
        assert_eq!(SplitConfig::with_arity(8).major_bits, 0);
    }

    #[test]
    #[should_panic(expected = "unsupported split-counter arity")]
    fn rejects_odd_arities() {
        let _ = SplitConfig::with_arity(48);
    }

    #[test]
    fn sc64_overflows_on_the_64th_write_to_one_counter() {
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        for i in 0..63 {
            assert_eq!(line.increment(7), IncrementOutcome::Ok, "write {i}");
        }
        let outcome = line.increment(7);
        let event = outcome.overflow().expect("64th write overflows");
        assert_eq!(event.span, ReencryptSpan::All);
        assert_eq!(event.used_counters, 1);
        assert_eq!(event.kind, OverflowKind::FullReset);
    }

    #[test]
    fn sc128_overflows_in_8_writes() {
        // The paper's §I example: 3-bit minors overflow in just 8 writes.
        let mut line = SplitLine::new(SplitConfig::with_arity(128));
        for _ in 0..7 {
            assert_eq!(line.increment(0), IncrementOutcome::Ok);
        }
        assert!(line.increment(0).overflow().is_some());
    }

    #[test]
    fn effective_values_strictly_increase_across_overflow() {
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        let mut last = line.get(9);
        for _ in 0..300 {
            line.increment(9);
            let now = line.get(9);
            assert!(now > last, "{now} !> {last}");
            last = now;
        }
    }

    #[test]
    fn overflow_advances_all_children_monotonically() {
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        for slot in 0..64 {
            for _ in 0..slot {
                line.increment(slot);
            }
        }
        let before: Vec<u64> = (0..64).map(|s| line.get(s)).collect();
        // Drive slot 63 to overflow.
        while line.increment(63).overflow().is_none() {}
        for slot in 0..64 {
            assert!(line.get(slot) > before[slot] || slot == 63, "slot {slot}");
            // After a reset every untouched child sits at major‖0, which must
            // exceed its previous value.
            assert!(line.get(slot) >= before[slot], "slot {slot}");
        }
    }

    #[test]
    fn used_counters_counts_distinct_nonzero_minors() {
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        assert_eq!(line.used_counters(), 0);
        line.increment(1);
        line.increment(1);
        line.increment(40);
        assert_eq!(line.used_counters(), 2);
    }

    #[test]
    fn codec_roundtrip() {
        let cfg = SplitConfig::with_arity(64);
        let mut line = SplitLine::new(cfg);
        for slot in [0usize, 5, 63] {
            for _ in 0..(slot % 7 + 1) {
                line.increment(slot);
            }
        }
        line.set_mac(0x0123_4567_89ab_cdef);
        let decoded = SplitLine::decode(cfg, &line.encode());
        assert_eq!(decoded, line);
    }

    #[test]
    fn codec_roundtrip_sgx_layout() {
        let cfg = SplitConfig::with_arity(8);
        let mut line = SplitLine::new(cfg);
        for _ in 0..1000 {
            line.increment(3);
        }
        line.set_mac(42);
        assert_eq!(SplitLine::decode(cfg, &line.encode()), line);
        assert_eq!(line.get(3), 1000);
    }

    #[test]
    fn sgx_counters_do_not_overflow_in_practice() {
        let mut line = SplitLine::new(SplitConfig::with_arity(8));
        for _ in 0..1_000_000 {
            assert_eq!(line.increment(0), IncrementOutcome::Ok);
        }
        assert_eq!(line.get(0), 1_000_000);
    }

    #[test]
    fn encode_for_mac_zeroes_only_the_mac_field() {
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        line.increment(0);
        line.set_mac(u64::MAX);
        let full = line.encode();
        let masked = line.encode_for_mac();
        assert_eq!(full[..56], masked[..56]);
        assert_eq!(masked[56..64], [0u8; 8]);
        assert_eq!(full[56..64], [0xffu8; 8]);
    }
}
