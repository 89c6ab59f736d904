//! Crash-fault injection over the persistence WAL (the recovery contract
//! of `core::persist`): a writer that dies at *any* byte offset of the
//! log — and an adversary that additionally corrupts the surviving
//! bytes — must leave the system recoverable to a verifying
//! committed-transaction prefix or produce a typed [`RecoveryError`].
//! Never a panic, never silent divergence from the committed history.

use proptest::prelude::*;

use morphtree_core::concurrent::{Op, ShardedMemory};
use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::{
    recover, recover_bounded, recover_sharded_bounded, replay, save_memory, save_sharded,
    EpochMemory, EpochShardedMemory, RecoveryError, ShardedRecovery,
};
use morphtree_core::tree::TreeConfig;

const MEM: u64 = 1 << 20;
const WORKING_LINES: u64 = 48;
const JOURNALED_WRITES: usize = 6;

/// A scripted crash scenario: a populated memory is snapshotted, then
/// journals a fixed burst of writes into a WAL that opens with the
/// snapshot's epoch-0 seal. Returns the snapshot, the byte-exact state
/// after each committed prefix of the burst (`states[k]` = snapshot after
/// `k` writes), and the full WAL.
fn scripted(config: TreeConfig) -> (Vec<u8>, Vec<Vec<u8>>, Vec<u8>) {
    let mut base = SecureMemory::new(config, MEM, [0x77; 16]);
    for line in 0..WORKING_LINES {
        base.write(line, &[line as u8 ^ 0x5a; 64]);
    }
    let snapshot = save_memory(&base);
    // The tracker replays the same writes outside the journal, giving an
    // independent oracle for every committed prefix.
    let mut tracker = base.clone();
    let mut states = vec![save_memory(&tracker)];
    let mut journaled = EpochMemory::from_memory(base, 0);
    for i in 0..JOURNALED_WRITES {
        let line = (i as u64 * 13 + 5) % WORKING_LINES;
        let payload = [(i as u8).wrapping_mul(31) ^ 0x42; 64];
        journaled.write(line, &payload);
        tracker.write(line, &payload);
        states.push(save_memory(&tracker));
    }
    (snapshot, states, journaled.wal_bytes().to_vec())
}

/// Exhaustive kill-point sweep: an honest torn log (every byte prefix of
/// a valid WAL) always recovers, and the recovered state is byte-exact
/// the committed-transaction prefix — through bounded recovery and the
/// full-replay reference alike, on both a split-counter and a
/// morphable-counter tree.
#[test]
fn every_kill_point_recovers_the_committed_prefix() {
    for config in [TreeConfig::sc64(), TreeConfig::morphtree()] {
        let name = config.name().to_owned();
        let (snapshot, states, wal) = scripted(config);
        assert!(!wal.is_empty(), "{name}: scenario produced no WAL traffic");
        for cut in 0..=wal.len() {
            let prefix = &wal[..cut];
            let committed = replay(prefix)
                .unwrap_or_else(|e| panic!("{name}: honest prefix rejected at cut {cut}: {e}"))
                .len();
            let recovered = recover(&snapshot, prefix)
                .unwrap_or_else(|e| panic!("{name}: recovery failed at cut {cut}: {e}"));
            assert_eq!(
                save_memory(&recovered),
                states[committed],
                "{name}: cut {cut} diverged from the {committed}-write prefix"
            );
            let (bounded, _) = recover_bounded(&snapshot, prefix)
                .unwrap_or_else(|e| panic!("{name}: bounded recovery failed at cut {cut}: {e}"));
            assert_eq!(
                save_memory(&bounded),
                states[committed],
                "{name}: cut {cut}: bounded recovery diverged from the {committed}-write prefix"
            );
        }
    }
}

/// The strict sharded recovery: no WALs, and every shard must recover.
fn recover_container(bytes: &[u8]) -> Result<ShardedMemory, RecoveryError> {
    recover_sharded_bounded::<&[u8]>(bytes, &[]).and_then(ShardedRecovery::into_memory)
}

/// A populated sharded memory for the sharded-snapshot guards.
fn sharded_scenario(shards: usize) -> ShardedMemory {
    let mut memory =
        ShardedMemory::new(TreeConfig::morphtree(), MEM, [0x77; 16], shards).unwrap();
    let lines = memory.plan().data_lines();
    for i in 0..WORKING_LINES {
        memory.write(i * 257 % lines, &[i as u8 ^ 0x5a; 64]);
    }
    memory
}

/// Sharded snapshots obey the same contract as serial ones: a clean
/// container recovers to a byte-identical state (same combined root, same
/// data), and serialization is a pure function of state.
#[test]
fn sharded_snapshot_recovers_byte_identical_state() {
    for shards in [1usize, 4] {
        let mut memory = sharded_scenario(shards);
        let root = memory.combined_root();
        let snap = save_sharded(&memory);
        let mut restored = recover_container(&snap).unwrap();
        assert_eq!(restored.combined_root(), root, "{shards} shards");
        assert_eq!(save_sharded(&restored), snap, "{shards} shards");
        restored.verify_all().unwrap();
    }
}

/// Every truncation of a sharded container is a typed refusal — recovery
/// never panics and never hands back a partial blend of shards.
#[test]
fn every_sharded_truncation_refuses_typed() {
    let memory = sharded_scenario(4);
    let snap = save_sharded(&memory);
    for cut in 0..snap.len() {
        match recover_container(&snap[..cut]) {
            Ok(_) => panic!("cut {cut}: truncated container must not recover"),
            Err(err) => {
                // Rendering the diagnosis must not panic either.
                let _ = err.to_string();
            }
        }
    }
}

/// Shared durable state for the epoch proptest sweep: the sealed MTSH
/// container, the per-shard WALs, and per-shard MTSN snapshots for the
/// serial oracle.
type EpochScenarioState = (Vec<u8>, Vec<Vec<u8>>, Vec<Vec<u8>>);

/// A scripted epoch-sharded crash scenario: two shards driven through a
/// cut (so the WALs hold real seals) plus an open epoch of writes.
/// Returns the live memory; its `sealed_container()`/`wals()` are the
/// durable state every kill point truncates.
fn epoch_scenario() -> EpochShardedMemory {
    // 256 KiB keeps the full-replay oracle (which verifies every line)
    // fast enough for an exhaustive byte sweep.
    let mut memory =
        EpochShardedMemory::new(TreeConfig::morphtree(), 1 << 18, [0x77; 16], 2, 0).unwrap();
    let lines = memory.plan().data_lines();
    // Strided lines land in both shards.
    let write = |i: u64| Op::Write { line: (i * 521 + 7) % lines, data: [i as u8 ^ 0x42; 64] };
    // Epoch 1's history: folded into the sealed container at the cut.
    let ops: Vec<Op> = (0..4).map(write).collect();
    memory.run_batch(&ops, 2);
    memory.cut();
    // The open epoch: present only in the per-shard WALs.
    let ops: Vec<Op> = (4..8).map(write).collect();
    memory.run_batch(&ops, 2);
    memory
}

/// Exhaustive kill-offset sweep over the sharded epoch state: a crash at
/// *any* byte offset of the per-shard WALs (every shard truncated at the
/// same log time, modeling ordered appends) recovers every shard to the
/// exact state the full-replay oracle derives from the same bytes —
/// consistent epoch, no quarantine, no panic, no silent divergence.
#[test]
fn every_sharded_kill_point_recovers_consistently() {
    let memory = epoch_scenario();
    let container = memory.sealed_container();
    let wals = memory.wals();
    let live_epoch = memory.epoch();
    let longest = wals.iter().map(Vec::len).max().unwrap();
    assert!(longest > 0, "scenario produced no WAL traffic");

    // The sealed container, re-expressed as one plain MTSN snapshot per
    // shard: `recover(snapshot, wal)` on these is the pre-epoch
    // full-replay oracle for each shard.
    let sealed = recover_container(&container).unwrap();
    let shard_snapshots: Vec<Vec<u8>> =
        (0..wals.len()).map(|s| save_memory(sealed.shard(s))).collect();

    for cut in 0..=longest {
        let torn: Vec<Vec<u8>> =
            wals.iter().map(|w| w[..cut.min(w.len())].to_vec()).collect();
        let rec = recover_sharded_bounded(&container, &torn)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery refused a torn log: {e}"));
        assert_eq!(
            rec.memory.healthy_shards(),
            wals.len(),
            "cut {cut}: a torn tail must never quarantine"
        );
        assert!(
            rec.resolved_epoch <= live_epoch,
            "cut {cut}: resolved epoch {} beyond the live {live_epoch}",
            rec.resolved_epoch
        );
        for (shard, wal) in torn.iter().enumerate() {
            let oracle = recover(&shard_snapshots[shard], wal)
                .unwrap_or_else(|e| panic!("cut {cut}: oracle refused shard {shard}: {e}"));
            assert_eq!(
                save_memory(rec.memory.shard(shard)),
                save_memory(&oracle),
                "cut {cut}: shard {shard} diverged from the full-replay oracle"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-byte corruption anywhere in a sharded container either
    /// leaves a state byte-identical to the honest one (the flip landed in
    /// dead framing bytes — which the checksummed format makes impossible
    /// — or was self-cancelling) or is refused with a typed error. The
    /// forbidden outcome is a recovered state that differs from the
    /// original: a silent blend.
    #[test]
    fn corrupted_sharded_containers_never_blend_silently(
        flip_sel in any::<u64>(),
        bit in 0u32..8,
    ) {
        let memory = sharded_scenario(4);
        let honest = save_sharded(&memory);
        let mut corrupt = honest.clone();
        let flip = (flip_sel as usize) % corrupt.len();
        corrupt[flip] ^= 1u8 << bit;
        match recover_container(&corrupt) {
            Ok(recovered) => {
                prop_assert_eq!(
                    save_sharded(&recovered),
                    honest,
                    "flip at {} (bit {}): recovered a divergent state",
                    flip,
                    bit
                );
            }
            Err(err) => {
                let _ = err.to_string(); // diagnosis must render, not panic
            }
        }
    }

    /// Sharded epoch crashes with *independent* per-shard kill offsets
    /// plus one flipped bit: every healthy shard must match the
    /// full-replay oracle on the same bytes, and a shard that refuses
    /// must refuse identically on both paths — quarantine is typed,
    /// divergence is forbidden, panics are forbidden.
    #[test]
    fn sharded_epoch_crashes_never_diverge_silently(
        cut0 in any::<u64>(),
        cut1 in any::<u64>(),
        flip_sel in any::<u64>(),
        bit in 0u32..8,
        flip_shard in 0usize..2,
    ) {
        use std::sync::OnceLock;
        // The scenario is deterministic; build it once for the whole sweep.
        static STATE: OnceLock<EpochScenarioState> = OnceLock::new();
        let (container, wals, snapshots) = STATE.get_or_init(|| {
            let memory = epoch_scenario();
            let container = memory.sealed_container();
            let wals = memory.wals();
            let sealed = recover_container(&container).unwrap();
            let snapshots =
                (0..wals.len()).map(|s| save_memory(sealed.shard(s))).collect();
            (container, wals, snapshots)
        });

        let cuts = [cut0 as usize % (wals[0].len() + 1), cut1 as usize % (wals[1].len() + 1)];
        let mut torn: Vec<Vec<u8>> =
            wals.iter().zip(cuts).map(|(w, c)| w[..c].to_vec()).collect();
        if !torn[flip_shard].is_empty() {
            let flip = flip_sel as usize % torn[flip_shard].len();
            torn[flip_shard][flip] ^= 1u8 << bit;
        }

        let rec = recover_sharded_bounded(container, &torn).unwrap();
        for shard_rec in &rec.shards {
            let shard = shard_rec.shard;
            let oracle = recover(&snapshots[shard], &torn[shard]);
            match (&shard_rec.outcome, oracle) {
                (Ok(_), Ok(oracle)) => prop_assert_eq!(
                    save_memory(rec.memory.shard(shard)),
                    save_memory(&oracle),
                    "shard {} (cuts {:?}): bounded and full recovery disagree",
                    shard, cuts
                ),
                (Err(bounded), Err(full)) => {
                    // Both paths refuse; both diagnoses must render.
                    let _ = (bounded.to_string(), full.to_string());
                    prop_assert!(rec.memory.read(0).is_err() || shard != 0);
                }
                (Ok(_), Err(full)) => prop_assert!(
                    false,
                    "shard {} accepted what the oracle refused: {}",
                    shard, full
                ),
                (Err(bounded), Ok(_)) => prop_assert!(
                    false,
                    "shard {} refused what the oracle accepted: {}",
                    shard, bounded
                ),
            }
        }
    }

    /// Crash plus corruption: flip one bit anywhere in the log, then kill
    /// the writer at a random offset. Recovery must either restore a
    /// state byte-identical to *some* committed prefix of the honest
    /// history (the flip landed in a discarded tail) or reject the log
    /// with the typed corruption error — silently absorbing the flip
    /// into a divergent state is the one forbidden outcome. Bounded
    /// recovery must reach the same verdict as the full-replay reference.
    #[test]
    fn corrupted_torn_logs_never_diverge_silently(
        cut_sel in any::<u64>(),
        flip_sel in any::<u64>(),
        bit in 0u32..8,
    ) {
        let (snapshot, states, wal) = scripted(TreeConfig::morphtree());
        let mut torn = wal.clone();
        let flip = (flip_sel as usize) % torn.len();
        torn[flip] ^= 1u8 << bit;
        let cut = (cut_sel as usize) % (torn.len() + 1);
        let bounded = recover_bounded(&snapshot, &torn[..cut]).map(|(mem, _)| save_memory(&mem));
        let full = recover(&snapshot, &torn[..cut]).map(|mem| save_memory(&mem));
        prop_assert_eq!(
            &bounded, &full,
            "flip at {} (bit {}), cut {}: bounded and full recovery disagree",
            flip, bit, cut
        );
        match full {
            Ok(bytes) => {
                prop_assert!(
                    states.contains(&bytes),
                    "flip at {} (bit {}), cut {}: recovered state matches no committed prefix",
                    flip, bit, cut
                );
            }
            Err(err) => {
                // The flip survived into a complete record: the only
                // legal rejection is the typed corruption error, and its
                // rendering must not panic either.
                prop_assert!(
                    matches!(err, RecoveryError::CorruptWal { .. }),
                    "flip at {} (bit {}), cut {}: unexpected error {}",
                    flip, bit, cut, err
                );
            }
        }
    }
}
