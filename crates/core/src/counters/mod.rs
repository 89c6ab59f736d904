//! Counter-cacheline organizations for encryption and integrity-tree
//! counters.
//!
//! A *counter line* is one 64-byte metadata cacheline holding many counters
//! plus a 64-bit MAC (Fig 3/4/8/13 of the paper). The organizations differ
//! in how many counters fit per line (the *arity*) and what happens when a
//! small per-counter field is exhausted (*overflow*):
//!
//! - [`split::SplitLine`] — classic split counters: one shared major counter,
//!   `n` equal-width minors; overflow resets the whole line and forces a
//!   re-encryption of all `n` children.
//! - [`morph::MorphLine`] — the paper's contribution: 128 counters per line
//!   that *morph* between Zero Counter Compression (few large counters) and
//!   a uniform/rebasing format (many small counters), overflowing far less
//!   often.
//!
//! All organizations implement [`CounterLine`] and are kept as their
//! bit-exact 64-byte image, so storage claims hold by construction: a
//! counter read is a field extract, `encode` is a copy, and a line needs
//! no heap.

pub mod analytic;
pub mod bits;
pub mod morph;
pub mod split;
pub(crate) mod tree;

use std::fmt;

/// Identifies which children of a counter line must be re-encrypted (data
/// children) or re-hashed (tree children) after an overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReencryptSpan {
    /// Every child of the line changed effective counter value.
    All,
    /// Only the children in `[start, start + len)` changed (an MCR
    /// set-reset touches one 64-counter set).
    Set {
        /// First affected child slot.
        start: usize,
        /// Number of affected children.
        len: usize,
    },
}

impl ReencryptSpan {
    /// Number of children covered, given the line's arity.
    #[must_use]
    pub fn len(&self, arity: usize) -> usize {
        match *self {
            ReencryptSpan::All => arity,
            ReencryptSpan::Set { len, .. } => len,
        }
    }

    /// Iterates over the affected child slots.
    pub fn slots(&self, arity: usize) -> std::ops::Range<usize> {
        match *self {
            ReencryptSpan::All => 0..arity,
            ReencryptSpan::Set { start, len } => start..start + len,
        }
    }
}

/// What kind of overflow occurred (for ablation studies and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverflowKind {
    /// Minor counters reset and the major advanced (classic split-counter
    /// overflow, or a morphable full reset).
    FullReset,
    /// One MCR 64-counter set was reset against its base.
    SetReset,
    /// An MCR base overflowed: everything reset, format returns to ZCC.
    BaseOverflow,
    /// A ZCC line could not re-encode at a narrower width when a new counter
    /// became non-zero.
    ZccRewidthFailure,
    /// A set had to be reset while switching from ZCC to MCR because its
    /// minors did not fit in 3 bits.
    FormatSwitchReset,
}

/// Details of an overflow event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowEvent {
    /// Which children changed effective counter value and must be
    /// re-encrypted / re-hashed.
    pub span: ReencryptSpan,
    /// Number of non-zero counters in the line when the overflow hit,
    /// *before* the reset — the x-axis of the paper's Fig 7.
    pub used_counters: usize,
    /// Classification of the overflow.
    pub kind: OverflowKind,
}

/// Result of incrementing one counter in a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The counter advanced; nothing else changed.
    Ok,
    /// Minor counters were re-based (MCR): no effective value other than the
    /// incremented counter changed, so no re-encryption is needed — but the
    /// stored line image changed (§IV, Fig 12).
    Rebased,
    /// The line overflowed; the children in the event's span changed
    /// effective values.
    Overflow(OverflowEvent),
}

impl IncrementOutcome {
    /// Returns the overflow event, if any.
    #[must_use]
    pub fn overflow(&self) -> Option<&OverflowEvent> {
        match self {
            IncrementOutcome::Overflow(e) => Some(e),
            _ => None,
        }
    }
}

/// A 64-byte cacheline image of a counter line.
pub type LineImage = [u8; crate::CACHELINE_BYTES];

/// Common interface of every counter-line organization.
///
/// Implementations guarantee (and the property tests verify):
///
/// 1. **No reuse**: for each slot, the sequence of effective values returned
///    by [`CounterLine::get`] after successive increments is strictly
///    increasing, across overflows and format morphs.
/// 2. **Span soundness**: an increment changes the effective value of a slot
///    other than the incremented one *only if* the outcome reports an
///    overflow whose span covers that slot.
/// 3. **Codec fidelity**: `encode` produces a 64-byte image from which the
///    organization's `decode` reconstructs an equivalent line.
pub trait CounterLine: fmt::Debug {
    /// Number of counters in the line (the tree arity this line provides).
    fn arity(&self) -> usize;

    /// Effective value of counter `slot` (major ⊕ minor composition).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= arity()`.
    fn get(&self, slot: usize) -> u64;

    /// Increments counter `slot`, reporting any overflow.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= arity()`.
    fn increment(&mut self, slot: usize) -> IncrementOutcome;

    /// Number of non-zero minor counters (the "fraction of counter-cacheline
    /// used" numerator of Fig 6/7/10).
    fn used_counters(&self) -> usize;

    /// The stored 64-bit MAC field.
    fn mac(&self) -> u64;

    /// Replaces the stored MAC field.
    fn set_mac(&mut self, mac: u64);

    /// Encodes the line to its 64-byte image (including the MAC field).
    fn encode(&self) -> LineImage;

    /// Encodes the line with the MAC field zeroed — the byte string that the
    /// MAC itself is computed over.
    fn encode_for_mac(&self) -> LineImage;
}

/// A counter line of any supported organization.
///
/// This enum (rather than `Box<dyn CounterLine>`) keeps per-line storage
/// compact and increment dispatch branch-predictable — counter lines are the
/// hottest objects in the simulator. Both variants are a 64-byte image and
/// a byte of configuration, so a line is `Copy` and owns no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line {
    /// A split-counter line (SC-n, SGX MEE, VAULT entries).
    Split(split::SplitLine),
    /// A morphable counter line (ZCC / uniform / MCR).
    Morph(morph::MorphLine),
}

// A line is its image plus a tag: a boxed or `Vec` field brought back
// into either variant breaks one of these two.
const _: () = assert!(std::mem::size_of::<Line>() <= 72, "a counter line outgrew its image");
const _: fn() = || {
    fn assert_copy<T: Copy>() {}
    assert_copy::<Line>();
};

impl From<split::SplitLine> for Line {
    fn from(line: split::SplitLine) -> Self {
        Line::Split(line)
    }
}

impl From<morph::MorphLine> for Line {
    fn from(line: morph::MorphLine) -> Self {
        Line::Morph(line)
    }
}

macro_rules! delegate {
    ($self:ident, $line:ident => $body:expr) => {
        match $self {
            Line::Split($line) => $body,
            Line::Morph($line) => $body,
        }
    };
}

impl CounterLine for Line {
    fn arity(&self) -> usize {
        delegate!(self, l => l.arity())
    }
    fn get(&self, slot: usize) -> u64 {
        delegate!(self, l => l.get(slot))
    }
    fn increment(&mut self, slot: usize) -> IncrementOutcome {
        delegate!(self, l => l.increment(slot))
    }
    fn used_counters(&self) -> usize {
        delegate!(self, l => l.used_counters())
    }
    fn mac(&self) -> u64 {
        delegate!(self, l => l.mac())
    }
    fn set_mac(&mut self, mac: u64) {
        delegate!(self, l => l.set_mac(mac))
    }
    fn encode(&self) -> LineImage {
        delegate!(self, l => l.encode())
    }
    fn encode_for_mac(&self) -> LineImage {
        delegate!(self, l => l.encode_for_mac())
    }
}

/// Describes a counter organization abstractly: used by tree configurations
/// to instantiate fresh (all-zero) lines per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterOrg {
    /// Split counters with the given arity (minor width is `384 / arity`;
    /// the SGX MEE 8-ary organization uses 56-bit counters and no major).
    Split {
        /// Counters per line.
        arity: usize,
    },
    /// Morphable counters, 128 per line, in the given mode.
    Morph(morph::MorphMode),
}

impl CounterOrg {
    /// Arity (counters per cacheline) of this organization.
    #[must_use]
    pub fn arity(&self) -> usize {
        match *self {
            CounterOrg::Split { arity } => arity,
            CounterOrg::Morph(_) => morph::MORPH_ARITY,
        }
    }

    /// Creates a fresh all-zero line of this organization.
    #[must_use]
    pub fn new_line(&self) -> Line {
        match *self {
            CounterOrg::Split { arity } => Line::Split(split::SplitLine::new(
                split::SplitConfig::with_arity(arity),
            )),
            CounterOrg::Morph(mode) => Line::Morph(morph::MorphLine::new(mode)),
        }
    }

    /// Decodes a 64-byte line image of this organization: a checked
    /// copy. Every split image decodes; a non-canonical morphable image is
    /// a `CodecError`.
    pub(crate) fn decode_line(&self, image: &[u8; 64]) -> Result<Line, crate::error::CodecError> {
        Ok(match *self {
            CounterOrg::Split { arity } => {
                Line::Split(split::SplitLine::decode(split::SplitConfig::with_arity(arity), image))
            }
            CounterOrg::Morph(mode) => Line::Morph(morph::MorphLine::decode(mode, image)?),
        })
    }

    /// Short human-readable name (e.g. `SC-64`, `MorphCtr-128`).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            CounterOrg::Split { arity } => format!("SC-{arity}"),
            CounterOrg::Morph(morph::MorphMode::ZccOnly) => "MorphCtr-128 (ZCC-only)".to_owned(),
            CounterOrg::Morph(morph::MorphMode::ZccRebase) => "MorphCtr-128".to_owned(),
            CounterOrg::Morph(morph::MorphMode::SingleBase) => {
                "MorphCtr-128 (single-base)".to_owned()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_arity_and_labels() {
        assert_eq!(CounterOrg::Split { arity: 64 }.arity(), 64);
        assert_eq!(CounterOrg::Morph(morph::MorphMode::ZccRebase).arity(), 128);
        assert_eq!(CounterOrg::Split { arity: 64 }.label(), "SC-64");
        assert_eq!(
            CounterOrg::Morph(morph::MorphMode::ZccRebase).label(),
            "MorphCtr-128"
        );
    }

    #[test]
    fn new_line_starts_all_zero() {
        for org in [
            CounterOrg::Split { arity: 64 },
            CounterOrg::Split { arity: 128 },
            CounterOrg::Morph(morph::MorphMode::ZccOnly),
            CounterOrg::Morph(morph::MorphMode::ZccRebase),
        ] {
            let line = org.new_line();
            assert_eq!(line.used_counters(), 0, "{org:?}");
            for slot in 0..line.arity() {
                assert_eq!(line.get(slot), 0, "{org:?} slot {slot}");
            }
        }
    }

    #[test]
    fn span_len_and_slots() {
        assert_eq!(ReencryptSpan::All.len(128), 128);
        let set = ReencryptSpan::Set { start: 64, len: 64 };
        assert_eq!(set.len(128), 64);
        assert_eq!(set.slots(128), 64..128);
        assert_eq!(ReencryptSpan::All.slots(64), 0..64);
    }

    #[test]
    fn line_enum_delegates() {
        let mut line = CounterOrg::Split { arity: 64 }.new_line();
        assert_eq!(line.increment(3), IncrementOutcome::Ok);
        assert_eq!(line.get(3), 1);
        assert_eq!(line.used_counters(), 1);
        line.set_mac(0xdead_beef);
        assert_eq!(line.mac(), 0xdead_beef);
        let image = line.encode();
        let masked = line.encode_for_mac();
        assert_ne!(image, masked);
    }
}
