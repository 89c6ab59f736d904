//! Error types for the core crate.

use std::error::Error;
use std::fmt;

/// Raised by the functional secure memory when verification fails — i.e.
/// when an integrity violation (tampering or replay) is *detected*.
///
/// Carrying the location lets tests assert that the violation was caught at
/// the right place in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The MAC of a data cacheline did not verify.
    DataMac {
        /// Line address of the offending data cacheline.
        line_addr: u64,
    },
    /// The MAC of a counter line at some tree level did not verify.
    CounterMac {
        /// Tree level (0 = encryption counters).
        level: usize,
        /// Index of the counter line within its level.
        line_idx: u64,
    },
    /// A data cacheline has stored ciphertext but no stored MAC. A missing
    /// MAC is a verification failure in its own right — it must never be
    /// treated as "MAC = 0", which an adversary could trivially forge.
    MissingMac {
        /// Line address of the offending data cacheline.
        line_addr: u64,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::DataMac { line_addr } => {
                write!(f, "data MAC verification failed for line {line_addr:#x}")
            }
            IntegrityError::CounterMac { level, line_idx } => {
                write!(
                    f,
                    "counter MAC verification failed at tree level {level}, line {line_idx}"
                )
            }
            IntegrityError::MissingMac { line_addr } => {
                write!(f, "no stored MAC for written data line {line_addr:#x}")
            }
        }
    }
}

impl Error for IntegrityError {}

/// Raised when a 64-byte counter-line image cannot be decoded back into a
/// line — i.e. the image violates the bit-exact layout rules of
/// [`crate::counters::morph`]'s codec. Off-chip images only ever come from
/// this codec, so a decode failure means the stored image was corrupted
/// (torn snapshot write, bit rot, tampering below the MAC layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The ZCC bit-vector marks more than 64 counters as non-zero, which no
    /// ZCC width schedule can represent.
    TooManyNonZero {
        /// Population count of the bit-vector.
        nonzero: usize,
    },
    /// The stored `ctr-sz` field disagrees with the width derived from the
    /// bit-vector population count.
    CtrSizeMismatch {
        /// The `ctr-sz` value stored in the image.
        stored: u64,
        /// The width the bit-vector population implies.
        derived: u64,
    },
    /// A ZCC image that decodes to a line whose encoding differs from it:
    /// a slot marked non-zero in the bit-vector packs the value 0, or a
    /// value bit past the last packed counter is set. Accepting it would
    /// let two stored images stand for one line.
    NonCanonical {
        /// Bit offset of the zero value field or of the first set padding
        /// bit.
        bit: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TooManyNonZero { nonzero } => {
                write!(f, "ZCC image marks {nonzero} non-zero counters (at most 64 encodable)")
            }
            CodecError::CtrSizeMismatch { stored, derived } => {
                write!(
                    f,
                    "stored ctr-sz {stored} disagrees with bit-vector-derived width {derived}"
                )
            }
            CodecError::NonCanonical { bit } => {
                write!(f, "ZCC image is not in canonical form at bit {bit}")
            }
        }
    }
}

impl Error for CodecError {}

/// Raised by the [`crate::functional::SecureMemory`] adversary hooks when an
/// attack cannot be mounted because the targeted off-chip state does not
/// exist (e.g. tampering a line that was never written).
///
/// These are harness errors, not security events: a returned `TamperError`
/// means the attack was a no-op, not that it went undetected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TamperError {
    /// The targeted data line has never been written, so there is no
    /// off-chip ciphertext or MAC to corrupt.
    NeverWritten {
        /// Index of the targeted data line.
        data_line: u64,
    },
    /// The targeted counter line has never been materialized off-chip.
    NoCounterLine {
        /// Tree level (0 = encryption counters).
        level: usize,
        /// Index of the counter line within its level.
        line_idx: u64,
    },
    /// The targeted tree level does not exist in this geometry.
    NoSuchLevel {
        /// The requested level.
        level: usize,
        /// Number of levels in the tree.
        levels: usize,
    },
    /// The byte offset is outside the 64-byte cacheline.
    OffsetOutOfRange {
        /// The requested byte offset.
        offset: usize,
    },
    /// The counter slot is outside the line's arity.
    SlotOutOfRange {
        /// The requested slot.
        slot: usize,
        /// The line's arity.
        arity: usize,
    },
}

impl fmt::Display for TamperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperError::NeverWritten { data_line } => {
                write!(f, "cannot tamper never-written data line {data_line}")
            }
            TamperError::NoCounterLine { level, line_idx } => {
                write!(f, "no counter line {line_idx} at tree level {level}")
            }
            TamperError::NoSuchLevel { level, levels } => {
                write!(f, "tree level {level} does not exist ({levels} levels)")
            }
            TamperError::OffsetOutOfRange { offset } => {
                write!(f, "byte offset {offset} outside the 64-byte line")
            }
            TamperError::SlotOutOfRange { slot, arity } => {
                write!(f, "counter slot {slot} outside arity {arity}")
            }
        }
    }
}

impl Error for TamperError {}

/// Raised by [`crate::concurrent::ShardPlan`] when a requested shard
/// partition is impossible. Planning failures are configuration errors the
/// caller must handle (a CLI flag, a recovered snapshot header), so they are
/// typed rather than panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards requested — a partition must have at least one part.
    ZeroShards,
    /// The protected space is empty or not a whole number of cachelines.
    UnalignedMemory {
        /// The rejected byte count.
        memory_bytes: u64,
    },
    /// More shards than data lines: some shard would own no address range
    /// (and therefore no subtree).
    TooManyShards {
        /// The requested shard count.
        shards: usize,
        /// Data lines available to partition.
        data_lines: u64,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "shard plan requires at least one shard"),
            ShardError::UnalignedMemory { memory_bytes } => {
                write!(f, "protected size {memory_bytes} is not a whole number of cachelines")
            }
            ShardError::TooManyShards { shards, data_lines } => {
                write!(f, "{shards} shards over {data_lines} data lines leaves a shard empty")
            }
        }
    }
}

impl Error for ShardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = IntegrityError::DataMac { line_addr: 0x40 };
        assert_eq!(e.to_string(), "data MAC verification failed for line 0x40");
        let e = IntegrityError::CounterMac { level: 2, line_idx: 9 };
        assert!(e.to_string().contains("level 2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IntegrityError>();
        assert_send_sync::<TamperError>();
    }

    #[test]
    fn missing_mac_and_tamper_errors_display() {
        let e = IntegrityError::MissingMac { line_addr: 0x80 };
        assert!(e.to_string().contains("no stored MAC"), "{e}");
        let e = TamperError::NeverWritten { data_line: 7 };
        assert_eq!(e.to_string(), "cannot tamper never-written data line 7");
        let e = TamperError::NoCounterLine { level: 1, line_idx: 3 };
        assert!(e.to_string().contains("level 1"), "{e}");
        let e = TamperError::NoSuchLevel { level: 9, levels: 3 };
        assert!(e.to_string().contains("9"), "{e}");
        let e = TamperError::OffsetOutOfRange { offset: 64 };
        assert!(e.to_string().contains("64"), "{e}");
        let e = TamperError::SlotOutOfRange { slot: 130, arity: 128 };
        assert!(e.to_string().contains("130"), "{e}");
    }

    #[test]
    fn shard_errors_display() {
        assert_eq!(ShardError::ZeroShards.to_string(), "shard plan requires at least one shard");
        let e = ShardError::UnalignedMemory { memory_bytes: 100 };
        assert!(e.to_string().contains("100"), "{e}");
        let e = ShardError::TooManyShards { shards: 9, data_lines: 4 };
        assert!(e.to_string().contains("9 shards"), "{e}");
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardError>();
    }
}
