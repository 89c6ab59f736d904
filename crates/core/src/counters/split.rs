//! Classic split counters (Yan et al., ISCA 2006) and the SGX MEE counter
//! organization — the baselines the paper compares against (Fig 3/4).
//!
//! A split-counter line shares one large *major* counter among `n` small
//! *minor* counters; the effective counter for child `i` is the
//! concatenation `major ‖ minor_i`. When any minor wraps, the major is
//! incremented and **all** minors reset, changing every child's effective
//! value — which costs `n` re-encryptions (§II-A2).

use super::bits::{BitReader, BitWriter};
use super::{
    CounterLine, IncrementOutcome, LineImage, OverflowEvent, OverflowKind, ReencryptSpan,
};
use crate::{CACHELINE_BITS, LINE_MAC_BITS};

const MAC_OFFSET: usize = CACHELINE_BITS - LINE_MAC_BITS;

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
    #[must_use]
    pub fn with_arity(arity: usize) -> Self {
        match arity {
            8 => SplitConfig { arity: 8, minor_bits: 56, major_bits: 0 },
            16 | 32 | 64 | 128 => SplitConfig {
                arity,
                minor_bits: (384 / arity) as u32,
                major_bits: 64,
            },
            _ => panic!("unsupported split-counter arity {arity}"),
        }
    }

    /// Total bits used by the layout; must fit a 512-bit line.
    fn layout_bits(&self) -> usize {
        self.major_bits as usize + self.arity * self.minor_bits as usize + LINE_MAC_BITS
    }
}

/// A split-counter cacheline.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitLine {
    config: SplitConfig,
    major: u64,
    minors: Vec<u64>,
    mac: u64,
}

impl SplitLine {
    /// Creates a fresh line with all counters zero.
    ///
    /// # Panics
    ///
    /// Panics if the configured layout does not fit in a 512-bit line.
    #[must_use]
    pub fn new(config: SplitConfig) -> Self {
        assert!(
            config.layout_bits() <= CACHELINE_BITS,
            "split layout {:?} needs {} bits > {}",
            config,
            config.layout_bits(),
            CACHELINE_BITS
        );
        assert!(config.arity >= 1);
        assert!(config.minor_bits >= 1 && config.minor_bits <= 56);
        SplitLine {
            config,
            major: 0,
            minors: vec![0; config.arity],
            mac: 0,
        }
    }

    /// The line's configuration.
    #[must_use]
    pub fn config(&self) -> SplitConfig {
        self.config
    }

    /// The shared major counter value.
    #[must_use]
    pub fn major(&self) -> u64 {
        self.major
    }

    fn minor_max(&self) -> u64 {
        (1u64 << self.config.minor_bits) - 1
    }

    /// Decodes a line from its 64-byte image. Every bit of a split layout
    /// is a field, so any image decodes.
    #[must_use]
    pub fn decode(config: SplitConfig, image: &LineImage) -> Self {
        let mut line = SplitLine::new(config);
        let mut r = BitReader::new(image);
        line.major = r.read(config.major_bits);
        r.read_all(config.minor_bits, &mut line.minors);
        r.seek(MAC_OFFSET);
        line.mac = r.read(LINE_MAC_BITS as u32);
        line
    }

    /// The major and minors written in layout order (no MAC).
    fn encode_body(&self) -> BitWriter {
        let mut w = BitWriter::new();
        w.write(self.config.major_bits, self.major);
        w.write_all(self.config.minor_bits, &self.minors);
        w
    }
}

impl CounterLine for SplitLine {
    fn arity(&self) -> usize {
        self.config.arity
    }

    fn get(&self, slot: usize) -> u64 {
        // Effective counter = major ‖ minor (concatenation, Fig 3).
        (self.major << self.config.minor_bits) | self.minors[slot]
    }

    fn increment(&mut self, slot: usize) -> IncrementOutcome {
        if self.minors[slot] < self.minor_max() {
            self.minors[slot] += 1;
            return IncrementOutcome::Ok;
        }
        // Minor wrap: bump the major, reset all minors (§II-A2). The slot
        // being written restarts at 1 (its new data is encrypted under
        // `major+1 ‖ 1`, strictly greater than anything issued before).
        let used = self.used_counters();
        self.major += 1;
        self.minors.fill(0);
        self.minors[slot] = 1;
        IncrementOutcome::Overflow(OverflowEvent {
            span: ReencryptSpan::All,
            used_counters: used,
            kind: OverflowKind::FullReset,
        })
    }

    fn used_counters(&self) -> usize {
        self.minors.iter().filter(|&&m| m != 0).count()
    }

    fn mac(&self) -> u64 {
        self.mac
    }

    fn set_mac(&mut self, mac: u64) {
        self.mac = mac;
    }

    fn encode(&self) -> LineImage {
        let mut w = self.encode_body();
        w.skip_to(MAC_OFFSET);
        w.write(LINE_MAC_BITS as u32, self.mac);
        w.finish()
    }

    fn encode_for_mac(&self) -> LineImage {
        self.encode_body().finish()
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
            assert!(cfg.layout_bits() <= CACHELINE_BITS, "arity {arity}");
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
