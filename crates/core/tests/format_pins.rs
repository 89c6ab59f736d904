//! Byte pins for every persisted format: `MTSN` (`save_memory`), an
//! epoch memory's sealed `MTSN` base and its WAL, `MTSH` (`save_sharded`)
//! and one `MTPR` proof, for every attack campaign configuration after a
//! seeded history that overflows level 0.
//!
//! The determinism tests elsewhere show equal states serialize equally;
//! these pins show the bytes themselves do not move when the code that
//! produces them is restructured. A changed pin means a format changed.

use morphtree_core::attack::campaign_configs;
use morphtree_core::concurrent::ShardedMemory;
use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::codec::fnv1a;
use morphtree_core::persist::{save_memory, save_sharded, EpochMemory};
use morphtree_core::tree::TreeConfig;

/// 4,096 data lines.
const MEMORY: u64 = 256 << 10;
const KEY: [u8; 16] = [0x5c; 16];

/// `fnv1a` of `[MTSN, sealed MTSN, WAL, MTSH, MTPR]` per config, in
/// `campaign_configs()` order.
const PINS: [(&str, [u64; 5]); 5] = [
    ("sc64", [0x1b39719e3870fb19, 0x76066e252a3ec405, 0x198928c1496e8d9a, 0xddc5ffce9d20eb36, 0x57d720e563033649]),
    ("vault", [0xe29781e9fb1fee4c, 0x7214d75effad61df, 0xe39fbf98649b6ba8, 0xb18fe85578d1e3b4, 0x28c8988b7f44df2e]),
    ("zcc", [0x656f7a05ada12374, 0x734e4c7ff2cdde1e, 0x7375db914e66980e, 0x9d98c1c1f80486fd, 0x23ab7e2cf1c71a6e]),
    ("mcr", [0x7da0ba70bb1f7c01, 0x6272ec77ea4ef14d, 0x173e9e9cb40553d1, 0x0363f2cd516d353a, 0xfef41cc145540bc0]),
    ("morphtree", [0x07ab3e5344415a93, 0x6419489d1d89695e, 0x7b496befd7035c46, 0x1ebd649f0dcc3a7d, 0x8a2b53c88a2a3e7e]),
];

/// The seeded write history: scattered lines, then rounds of the §V
/// pattern (52 distinct counters under line 0's level-0 counter line,
/// then a burst on one of them), which overflows level 0 under every
/// configuration, then uniform rounds.
fn history() -> Vec<(u64, [u8; 64])> {
    let mut state = 0x0dd_ba11u64;
    let mut ops = Vec::new();
    for i in 0..600u64 {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ops.push(((state >> 33) % (MEMORY / 64), [(state >> 24) as u8 ^ i as u8; 64]));
    }
    for round in 0..3u8 {
        for line in 0..52u64 {
            ops.push((line, [round ^ line as u8; 64]));
        }
        for burst in 0..80u8 {
            ops.push((0, [round.wrapping_add(burst); 64]));
        }
    }
    // Uniform rounds over the 128 children of one 128-ary line, where
    // rebasing and zero-counter compression part ways.
    for round in 0..12u8 {
        for line in 128..256u64 {
            ops.push((line, [round ^ (line as u8).rotate_left(3); 64]));
        }
    }
    ops
}

/// The five pinned byte strings for `config`.
fn outputs(config: &TreeConfig) -> [Vec<u8>; 5] {
    let ops = history();

    let mut memory = SecureMemory::new(config.clone(), MEMORY, KEY);
    for (line, body) in &ops {
        memory.write(*line, body);
    }
    assert!(memory.reencryptions() > 0, "{}: the history must overflow level 0", config.name());
    // Line 1 was written three times; an overflow of its level-0 counter
    // line moves its counter past that.
    assert!(memory.counter_of(1) > 3, "{}: level 0 never overflowed", config.name());

    let mut epochs = EpochMemory::new(config.clone(), MEMORY, KEY, 97);
    for (line, body) in &ops {
        epochs.write(*line, body);
    }

    let mut sharded = ShardedMemory::new(config.clone(), MEMORY, KEY, 2).unwrap();
    for (line, body) in &ops {
        sharded.write(*line, body);
    }

    let proof = memory.prove(&[0, 1, 51, ops[0].0, ops[599].0]).unwrap();

    [
        save_memory(&memory),
        epochs.sealed_snapshot(),
        epochs.wal_bytes().to_vec(),
        save_sharded(&sharded),
        proof.encode(),
    ]
}

#[test]
fn every_format_is_byte_pinned_for_every_campaign_config() {
    let configs = campaign_configs();
    assert_eq!(configs.len(), PINS.len());
    let mut mismatches = Vec::new();
    for ((name, config), (pin_name, pins)) in configs.iter().zip(PINS) {
        assert_eq!(*name, pin_name);
        let got = outputs(config).map(|bytes| fnv1a(&bytes));
        if got != pins {
            let got: Vec<String> = got.iter().map(|pin| format!("{pin:#018x}")).collect();
            mismatches.push(format!("(\"{name}\", [{}]),", got.join(", ")));
        }
    }
    assert!(mismatches.is_empty(), "pins moved:\n{}", mismatches.join("\n"));
}
