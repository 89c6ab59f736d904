//! Property-based tests of the counter-line invariants (the §V security
//! argument, machine-checked over arbitrary write sequences).
#![allow(clippy::needless_range_loop)] // shadows are indexed in lockstep with lines

use proptest::prelude::*;

use morphtree_core::counters::morph::{MorphLine, MorphMode};
use morphtree_core::counters::split::{SplitConfig, SplitLine};
use morphtree_core::counters::{CounterLine, IncrementOutcome, Line};

fn arbitrary_line() -> impl Strategy<Value = Line> {
    prop_oneof![
        Just(Line::from(SplitLine::new(SplitConfig::with_arity(16)))),
        Just(Line::from(SplitLine::new(SplitConfig::with_arity(32)))),
        Just(Line::from(SplitLine::new(SplitConfig::with_arity(64)))),
        Just(Line::from(SplitLine::new(SplitConfig::with_arity(128)))),
        Just(Line::from(MorphLine::new(MorphMode::ZccOnly))),
        Just(Line::from(MorphLine::new(MorphMode::ZccRebase))),
        Just(Line::from(MorphLine::new(MorphMode::SingleBase))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1 (§V, "ensuring no counter reuse"): per slot, effective
    /// values strictly increase across any write sequence.
    #[test]
    fn effective_values_strictly_increase(
        mut line in arbitrary_line(),
        slots in proptest::collection::vec(0usize..128, 1..2_000),
    ) {
        let arity = line.arity();
        let mut last: Vec<u64> = (0..arity).map(|s| line.get(s)).collect();
        for raw in slots {
            let slot = raw % arity;
            let outcome = line.increment(slot);
            let now = line.get(slot);
            prop_assert!(now > last[slot], "slot {slot}: {now} <= {}", last[slot]);
            last[slot] = now;
            if let IncrementOutcome::Overflow(event) = outcome {
                for s in event.span.slots(arity) {
                    let v = line.get(s);
                    prop_assert!(v >= last[s], "span slot {s} went backwards");
                    last[s] = v;
                }
            }
        }
    }

    /// Invariant 2: an increment never disturbs the effective value of a
    /// slot outside the reported re-encryption span.
    #[test]
    fn non_span_slots_are_undisturbed(
        mut line in arbitrary_line(),
        slots in proptest::collection::vec(0usize..128, 1..1_000),
    ) {
        let arity = line.arity();
        let mut shadow: Vec<u64> = (0..arity).map(|s| line.get(s)).collect();
        for raw in slots {
            let slot = raw % arity;
            match line.increment(slot) {
                IncrementOutcome::Ok | IncrementOutcome::Rebased => {
                    shadow[slot] += 1;
                }
                IncrementOutcome::Overflow(event) => {
                    for s in event.span.slots(arity) {
                        shadow[s] = line.get(s);
                    }
                    shadow[slot] = line.get(slot);
                }
            }
            for s in 0..arity {
                prop_assert_eq!(line.get(s), shadow[s], "slot {} diverged", s);
            }
        }
    }

    /// Invariant 3: the 64-byte codec round-trips every reachable morphable
    /// state (formats, widths, bases, MAC field).
    #[test]
    fn morph_codec_roundtrips_reachable_states(
        mode in prop_oneof![
            Just(MorphMode::ZccOnly),
            Just(MorphMode::ZccRebase),
            Just(MorphMode::SingleBase),
        ],
        slots in proptest::collection::vec(0usize..128, 0..1_500),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(mode);
        for slot in slots {
            line.increment(slot);
        }
        line.set_mac(mac);
        let decoded = MorphLine::decode(mode, &line.encode()).unwrap();
        prop_assert_eq!(&decoded, &line);
        // And the decoded line behaves identically.
        let mut a = line;
        let mut b = decoded;
        for slot in [0usize, 64, 127] {
            prop_assert_eq!(a.increment(slot), b.increment(slot));
        }
        prop_assert_eq!(a, b);
    }

    /// Invariant 4: split-counter codec round-trips for every canonical
    /// arity.
    #[test]
    fn split_codec_roundtrips(
        arity in prop_oneof![Just(8usize), Just(16), Just(32), Just(64), Just(128)],
        slots in proptest::collection::vec(0usize..128, 0..500),
        mac in any::<u64>(),
    ) {
        let config = SplitConfig::with_arity(arity);
        let mut line = SplitLine::new(config);
        for raw in slots {
            line.increment(raw % arity);
        }
        line.set_mac(mac);
        prop_assert_eq!(SplitLine::decode(config, &line.encode()), line);
    }

    /// Invariant 5: `used_counters` never exceeds the arity and tracks
    /// zero/non-zero transitions sensibly.
    #[test]
    fn used_counters_is_bounded(
        mut line in arbitrary_line(),
        slots in proptest::collection::vec(0usize..128, 1..500),
    ) {
        let arity = line.arity();
        for raw in slots {
            line.increment(raw % arity);
            let used = line.used_counters();
            prop_assert!(used <= arity);
        }
    }

    /// Invariant 6: overflow events report spans covering the incremented
    /// slot, and used-counter counts within bounds.
    #[test]
    fn overflow_events_are_well_formed(
        mut line in arbitrary_line(),
        slots in proptest::collection::vec(0usize..128, 1..3_000),
    ) {
        let arity = line.arity();
        for raw in slots {
            let slot = raw % arity;
            if let IncrementOutcome::Overflow(event) = line.increment(slot) {
                prop_assert!(event.used_counters <= arity);
                prop_assert!(
                    event.span.slots(arity).contains(&slot),
                    "span must cover the overflowing slot"
                );
            }
        }
    }
}
