//! Lockstep oracle for the sharded concurrent engine: every seeded op mix
//! replays through [`ShardedMemory`] *and* a serial [`SecureMemory`]
//! reference, asserting byte-identical data, identical tamper-detection
//! verdicts (translated to global coordinates), and schedule-invariant
//! root state.
//!
//! Two independent equivalences are pinned:
//!
//! 1. **Sharded vs serial** — outcome-by-outcome against the serial
//!    oracle, for every worker count. The sharded engine must never read
//!    different bytes, miss a detection the serial memory makes, or
//!    detect something the serial memory does not.
//! 2. **Schedule invariance** — for a fixed shard count, the final
//!    combined root (and every outcome) is identical across 1/2/4/8
//!    worker threads and across seeded SplitMix64 interleavings of the
//!    per-shard queues. Concurrency must be unobservable in final state.
//!
//! A third pins the one-shard case: a one-shard engine *is* the serial
//! memory, with the same root, snapshot bytes, proof bytes and recovery.

use proptest::prelude::*;

use morphtree_core::attack::campaign_configs;
use morphtree_core::concurrent::{Op, OpOutcome, ShardedMemory, SplitMix64};
use morphtree_core::error::IntegrityError;
use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::{recover_sharded_bounded, save_memory, save_sharded, ShardedRecovery};
use morphtree_core::tree::TreeConfig;
use morphtree_core::CACHELINE_BYTES;

const MIB: u64 = 1 << 20;
const KEY: [u8; 16] = [0x2b; 16];
const SHARDS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn payload(tag: u64) -> [u8; CACHELINE_BYTES] {
    let mut data = [0u8; CACHELINE_BYTES];
    for (i, chunk) in data.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&tag.wrapping_mul(i as u64 + 1).to_le_bytes());
    }
    data
}

/// A seeded op mix: hot-set-skewed reads and writes with occasional
/// ciphertext and MAC tampers, the full vocabulary both engines share.
fn mix(seed: u64, count: usize, lines: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let line = if rng.below(2) == 0 {
                rng.below(64.min(lines))
            } else {
                rng.below(lines)
            };
            match rng.below(100) {
                0..=44 => Op::Write { line, data: payload(rng.next_u64()) },
                45..=84 => Op::Read { line },
                85..=92 => Op::TamperData {
                    line,
                    offset: rng.below(CACHELINE_BYTES as u64) as usize,
                    mask: (rng.next_u64() as u8) | 1,
                },
                _ => Op::TamperMac { line, mask: rng.next_u64() | 1 },
            }
        })
        .collect()
}

/// Replays `ops` through a serial full-tree [`SecureMemory`] — the oracle
/// the sharded engine must agree with, outcome by outcome.
fn serial_outcomes(ops: &[Op], memory_bytes: u64) -> (Vec<OpOutcome>, SecureMemory) {
    let mut memory = SecureMemory::new(TreeConfig::morphtree(), memory_bytes, KEY);
    let outcomes = ops
        .iter()
        .map(|op| match *op {
            Op::Read { line } => match memory.read(line) {
                Ok(data) => OpOutcome::Data(data),
                Err(err) => OpOutcome::Detected(err),
            },
            Op::Write { line, ref data } => {
                memory.write(line, data);
                OpOutcome::Written
            }
            Op::TamperData { line, offset, mask } => match memory.tamper_raw(line, offset, mask)
            {
                Ok(()) => OpOutcome::Tampered,
                Err(err) => OpOutcome::TamperRejected(err),
            },
            Op::TamperMac { line, mask } => match memory.tamper_mac(line, mask) {
                Ok(()) => OpOutcome::Tampered,
                Err(err) => OpOutcome::TamperRejected(err),
            },
        })
        .collect();
    (outcomes, memory)
}

/// Compares one outcome pair, tolerating the one representation
/// difference the sharding architecture allows: a data-plane tamper can
/// surface as `DataMac` in both engines with the same global address, but
/// the *ciphertext* differs (per-shard keys), so `Data` payloads are only
/// comparable as decrypted plaintext — which both variants already carry.
fn assert_outcomes_match(index: usize, sharded: &OpOutcome, serial: &OpOutcome) {
    assert_eq!(sharded, serial, "op {index}: sharded and serial engines disagree");
}

#[test]
fn lockstep_matches_serial_oracle_at_every_thread_count() {
    for mix_seed in [3u64, 17, 99] {
        let memory_bytes = MIB;
        let lines = memory_bytes / CACHELINE_BYTES as u64;
        let ops = mix(mix_seed, 600, lines);
        let (serial, serial_memory) = serial_outcomes(&ops, memory_bytes);

        let mut roots = Vec::new();
        for threads in THREAD_COUNTS {
            let mut sharded =
                ShardedMemory::new(TreeConfig::morphtree(), memory_bytes, KEY, SHARDS).unwrap();
            let outcomes = sharded.run_batch(&ops, threads);
            assert_eq!(outcomes.len(), serial.len());
            for (i, (got, want)) in outcomes.iter().zip(&serial).enumerate() {
                assert_outcomes_match(i, got, want);
            }
            // Full readback sweep: every line of the address space reads
            // back identically (bytes or verdict) after the mix.
            for line in 0..lines {
                assert_eq!(
                    sharded.read(line),
                    serial_memory.read(line),
                    "mix {mix_seed}, {threads} threads: readback diverged at line {line}"
                );
            }
            roots.push(sharded.combined_root());
        }
        // Identical final root across every worker count.
        assert!(
            roots.windows(2).all(|w| w[0] == w[1]),
            "mix {mix_seed}: combined root varies with thread count: {roots:?}"
        );
    }
}

/// Satellite: the lockstep equivalence re-run with the crypto backend
/// forced to the scalar reference, keeping the oracle honest on AES-NI
/// hosts — if the hardware path ever diverged from the specification,
/// auto-selection would make both sides of the other lockstep tests use
/// it and the divergence could cancel out. Forcing scalar on one side of
/// the fleet breaks that symmetry. (The override is process-global but
/// behavior-neutral by construction: every backend is the same
/// permutation, pinned by the crypto crate's KATs and proptests, so
/// concurrently running tests only change speed.)
#[test]
fn lockstep_holds_with_backend_forced_to_scalar() {
    morphtree_crypto::aes::force_backend(Some(morphtree_crypto::AesBackend::Scalar));
    let lines = MIB / CACHELINE_BYTES as u64;
    let ops = mix(7, 400, lines);
    let (serial, serial_memory) = serial_outcomes(&ops, MIB);
    assert_eq!(
        serial_memory.cipher_backend(),
        morphtree_crypto::AesBackend::Scalar,
        "the forced backend must reach the functional memory"
    );
    let mut sharded = ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, SHARDS).unwrap();
    let outcomes = sharded.run_batch(&ops, 4);
    for (i, (got, want)) in outcomes.iter().zip(&serial).enumerate() {
        assert_outcomes_match(i, got, want);
    }
    for line in 0..lines {
        assert_eq!(sharded.read(line), serial_memory.read(line), "line {line}");
    }
    // Bulk verification agrees too: the mix leaves tampered lines
    // behind, and both planes' batched passes must converge on the same
    // verdict (same first corrupted line, global coordinates).
    let all_lines: Vec<u64> = (0..lines).collect();
    assert_eq!(
        sharded.verify_lines(&all_lines),
        serial_memory.verify_lines(&all_lines),
        "bulk verification verdicts diverged"
    );
    morphtree_crypto::aes::force_backend(None);
}

/// Satellite: the cross-line read batch loop in lockstep. A read-heavy
/// mix produces long same-shard read runs, which `run_batch` serves
/// through bulk multi-line verify+decrypt — the outcomes (including
/// detections against lines tampered earlier in the same batch) must
/// still match the per-op serial oracle at every worker count, and the
/// sharded bulk `verify_and_read` must return exactly the bytes the
/// per-line reads do.
#[test]
fn read_batch_loop_stays_in_lockstep_with_the_serial_oracle() {
    let lines = MIB / CACHELINE_BYTES as u64;
    // Seed writes, one tamper, then a long all-read tail: the tail forms
    // maximal read runs per shard, and the tampered line forces the bulk
    // path through its per-line fallback in exactly one of them.
    let mut ops: Vec<Op> =
        (0..96).map(|i| Op::Write { line: (i * 53) % lines, data: payload(i) }).collect();
    ops.push(Op::TamperData { line: 53 % lines, offset: 9, mask: 0x10 });
    ops.extend((0..300).map(|i| Op::Read { line: (i * 29) % lines }));
    let (serial, serial_memory) = serial_outcomes(&ops, MIB);

    for threads in THREAD_COUNTS {
        let mut sharded = ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, SHARDS).unwrap();
        let outcomes = sharded.run_batch(&ops, threads);
        for (i, (got, want)) in outcomes.iter().zip(&serial).enumerate() {
            assert_outcomes_match(i, got, want);
        }
        // Bulk authenticated read across shards: same verdict as the
        // serial per-line sweep (the tampered line fails both), and on
        // an untampered line set, byte-identical plaintexts in input
        // order with duplicates preserved.
        let all_lines: Vec<u64> = (0..lines).collect();
        assert_eq!(
            sharded.verify_and_read(&all_lines).err().map(|e| format!("{e}")),
            serial_memory.verify_and_read(&all_lines).err().map(|e| format!("{e}")),
            "{threads} threads: bulk verdicts diverged"
        );
        let clean: Vec<u64> = vec![1, 7, 1, 106, 7, 212];
        let bulk = sharded.verify_and_read(&clean).unwrap();
        for (i, &line) in clean.iter().enumerate() {
            assert_eq!(
                bulk[i],
                sharded.read(line).unwrap(),
                "{threads} threads: bulk read diverged at line {line}"
            );
        }
    }
}

#[test]
fn seeded_interleavings_are_schedule_invariant() {
    let lines = MIB / CACHELINE_BYTES as u64;
    let ops = mix(42, 500, lines);
    let (serial, _) = serial_outcomes(&ops, MIB);

    let mut reference_root = None;
    for schedule_seed in 0..12u64 {
        let mut sharded = ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, SHARDS).unwrap();
        let outcomes = sharded.run_interleaved(&ops, schedule_seed);
        for (i, (got, want)) in outcomes.iter().zip(&serial).enumerate() {
            assert_outcomes_match(i, got, want);
        }
        let root = sharded.combined_root();
        match reference_root {
            None => reference_root = Some(root),
            Some(expected) => {
                assert_eq!(root, expected, "schedule seed {schedule_seed} moved the root")
            }
        }
    }
}

/// The mid-run byte-flip guarantee: a tamper injected between two batch
/// halves surfaces as a detection on *every* schedule and thread count —
/// no interleaving can lose a corruption.
#[test]
fn mid_run_byte_flip_is_detected_on_every_schedule() {
    let lines = MIB / CACHELINE_BYTES as u64;
    let victim = lines / 2 + 3;
    let first: Vec<Op> =
        (0..120).map(|i| Op::Write { line: (i * 37) % lines, data: payload(i) }).collect();
    // The victim is written by the first half.
    let first = {
        let mut v = first;
        v.push(Op::Write { line: victim, data: payload(0xdead) });
        v
    };
    let second: Vec<Op> = std::iter::once(Op::Read { line: victim })
        .chain((0..60).map(|i| Op::Read { line: (i * 37) % lines }))
        .collect();

    for threads in THREAD_COUNTS {
        for schedule_seed in 0..6u64 {
            let mut sharded =
                ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, SHARDS).unwrap();
            sharded.run_batch(&first, threads);
            // The mid-run flip, between batches.
            sharded.tamper_raw(victim, 7, 0x80).unwrap();
            let outcomes = sharded.run_interleaved(&second, schedule_seed);
            assert_eq!(
                outcomes[0],
                OpOutcome::Detected(IntegrityError::DataMac {
                    line_addr: victim * CACHELINE_BYTES as u64
                }),
                "threads {threads}, schedule {schedule_seed}: flip went undetected"
            );
        }
    }
}

/// The n = 1 rule: one shard keeps the tenant key and folds its top as
/// the identity, so the same write history through a one-shard engine and
/// through a serial memory leaves the same root, the same snapshot bytes
/// and the same proof bytes, and either image recovers to that root.
#[test]
fn one_shard_is_the_serial_memory_byte_for_byte() {
    const MEMORY: u64 = 256 << 10;
    for (name, config) in campaign_configs() {
        let mut serial = SecureMemory::new(config.clone(), MEMORY, KEY);
        let mut sharded = ShardedMemory::new(config, MEMORY, KEY, 1).unwrap();
        let mut rng = SplitMix64::new(0x51_6e1e);
        let mut written = Vec::new();
        for _ in 0..600 {
            // A quarter of the writes hammer two lines, overflowing the
            // split counters' level 0.
            let line = if rng.below(4) == 0 { rng.below(2) } else { rng.below(MEMORY / 64) };
            let data = payload(rng.next_u64());
            serial.write(line, &data);
            sharded.write(line, &data);
            written.push(line);
        }
        assert_eq!(sharded.combined_root(), serial.root_digest(), "{name}: root");
        let image = save_sharded(&sharded);
        assert_eq!(image, save_memory(&serial), "{name}: snapshot bytes");
        let proved: Vec<u64> = written.iter().copied().step_by(37).collect();
        assert_eq!(
            sharded.prove(&proved).unwrap().encode(),
            serial.prove(&proved).unwrap().encode(),
            "{name}: proof bytes"
        );
        for bytes in [image, save_memory(&serial)] {
            let mut recovered = recover_sharded_bounded::<&[u8]>(&bytes, &[])
                .and_then(ShardedRecovery::into_memory)
                .unwrap();
            assert_eq!(recovered.combined_root(), serial.root_digest(), "{name}: recovered root");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of the lockstep oracle: any seeded mix, any worker
    /// count, any schedule seed — outcomes match the serial oracle and
    /// the root is schedule- and thread-count-invariant.
    #[test]
    fn any_seeded_mix_is_equivalent_and_invariant(
        mix_seed in any::<u64>(),
        schedule_seed in any::<u64>(),
        thread_sel in any::<u64>(),
    ) {
        let lines = MIB / CACHELINE_BYTES as u64;
        let ops = mix(mix_seed, 200, lines);
        let (serial, _) = serial_outcomes(&ops, MIB);
        let threads = THREAD_COUNTS[(thread_sel % 4) as usize];

        let mut batched =
            ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, SHARDS).unwrap();
        let batch_out = batched.run_batch(&ops, threads);
        for (i, (got, want)) in batch_out.iter().zip(&serial).enumerate() {
            prop_assert_eq!(got, want, "mix {}: op {} diverged from serial", mix_seed, i);
        }

        let mut interleaved =
            ShardedMemory::new(TreeConfig::morphtree(), MIB, KEY, SHARDS).unwrap();
        let inter_out = interleaved.run_interleaved(&ops, schedule_seed);
        prop_assert_eq!(&inter_out, &batch_out, "interleaved outcomes diverged");
        prop_assert_eq!(
            interleaved.combined_root(),
            batched.combined_root(),
            "root depends on the schedule"
        );
    }
}
