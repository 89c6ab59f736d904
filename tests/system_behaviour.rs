//! End-to-end behavioural tests of the full system: the paper's headline
//! orderings must hold on small, fast simulation points, and the timing
//! and functional models must agree where they overlap.

use morphtree_core::metadata::{MacMode, MetadataEngine};
use morphtree_core::tree::{TreeConfig, TreeGeometry};
use morphtree_sim::system::{simulate, simulate_nonsecure, SimConfig};
use morphtree_trace::catalog::Benchmark;
use morphtree_trace::workload::SystemWorkload;

/// A small but density-consistent operating point (scale 64).
fn config() -> SimConfig {
    SimConfig {
        memory_bytes: (16 << 30) / 64,
        metadata_cache_bytes: 4096,
        warmup_instructions: 400_000,
        measure_instructions: 200_000,
        ..SimConfig::default()
    }
}

fn workload(name: &str, cfg: &SimConfig) -> SystemWorkload {
    SystemWorkload::rate_scaled(
        Benchmark::by_name(name).expect("catalog name"),
        cfg.cores,
        cfg.memory_bytes,
        42,
        64,
    )
}

#[test]
fn headline_ordering_on_a_random_access_workload() {
    let cfg = config();
    let base = simulate_nonsecure(&mut workload("omnetpp", &cfg), &cfg);
    let vault = simulate(&mut workload("omnetpp", &cfg), TreeConfig::vault(), &cfg);
    let sc64 = simulate(&mut workload("omnetpp", &cfg), TreeConfig::sc64(), &cfg);
    let morph = simulate(&mut workload("omnetpp", &cfg), TreeConfig::morphtree(), &cfg);

    // Fig 5/15: Non-Secure > MorphCtr > SC-64 > VAULT.
    assert!(base.ipc() > morph.ipc(), "security is not free");
    assert!(morph.ipc() > sc64.ipc(), "morph {} !> sc64 {}", morph.ipc(), sc64.ipc());
    assert!(sc64.ipc() > vault.ipc(), "sc64 {} !> vault {}", sc64.ipc(), vault.ipc());

    // Fig 16: traffic ordering mirrors performance.
    assert!(morph.traffic_per_data_access() < sc64.traffic_per_data_access());
    assert!(sc64.traffic_per_data_access() < vault.traffic_per_data_access());
}

#[test]
fn streaming_workloads_are_insensitive_to_the_tree() {
    // Fig 15: libquantum-like workloads see little difference — counters
    // enjoy high spatial reuse in the metadata cache.
    let cfg = config();
    let sc64 = simulate(&mut workload("libquantum", &cfg), TreeConfig::sc64(), &cfg);
    let morph = simulate(&mut workload("libquantum", &cfg), TreeConfig::morphtree(), &cfg);
    let ratio = morph.ipc() / sc64.ipc();
    assert!((0.95..1.10).contains(&ratio), "streaming ratio {ratio}");
}

#[test]
fn traffic_decomposition_is_complete() {
    use morphtree_core::metadata::AccessCategory;
    let cfg = config();
    let r = simulate(&mut workload("mcf", &cfg), TreeConfig::sc64(), &cfg);
    let total: f64 = AccessCategory::ALL
        .iter()
        .map(|&c| r.engine.category_per_data_access(c))
        .sum();
    assert!(
        (total - r.traffic_per_data_access()).abs() < 1e-9,
        "categories must partition the traffic"
    );
}

#[test]
fn timing_engine_and_functional_memory_agree_on_encryption_counters() {
    // The metadata engine (timing) and SecureMemory (functional) share one
    // level-0 rule: a data write bumps its encryption counter, and an
    // overflow moves every counter of its span. For an identical write
    // sequence every encryption counter must match exactly, overflows
    // included. Upper levels differ by design (the functional plane bumps
    // a parent on every write, the timing plane on a dirty writeback);
    // each plane's own oracle pins those.
    let memory_bytes = 1 << 22;
    for config in [
        TreeConfig::sgx(),
        TreeConfig::vault(),
        TreeConfig::sc64(),
        TreeConfig::sc128(),
        TreeConfig::morphtree(),
        TreeConfig::morphtree_zcc_only(),
        TreeConfig::morphtree_single_base(),
    ] {
        let name = config.name().to_string();
        let mut engine =
            MetadataEngine::new(config.clone(), memory_bytes, 8192, MacMode::Inline);
        let mut functional =
            morphtree_core::functional::SecureMemory::new(config, memory_bytes, [5; 16]);
        let arity = engine.geometry().levels()[0].arity as u64;
        let data_lines = engine.geometry().data_lines();

        // 20,000 uniform writes over 4,096 lines (about five per child,
        // enough to move morphtree's lines off ZCC and overflow them with
        // varied spans), then a hot-set storm under one level-0 line: the
        // §V pattern (52 distinct counters, then a burst on one), repeated.
        let mut stream = Vec::new();
        let mut state = 777u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            stream.push(((state >> 30) % 4096, state as u8));
        }
        let hot = 37 * arity;
        for round in 0..4u8 {
            stream.extend((0..arity.min(52)).map(|child| (hot + child, round)));
            stream.extend((0..200u8).map(|burst| (hot, burst)));
        }
        let mut accesses = Vec::new();
        let mut touched = std::collections::BTreeSet::new();
        for (line, tag) in stream {
            accesses.clear();
            engine.write(line, &mut accesses);
            functional.write(line, &[tag; 64]);
            touched.insert(line / arity);
        }
        // SGX's 8-ary lines hold 56-bit counters, which a storm this short
        // cannot overflow.
        if name != TreeConfig::sgx().name() {
            assert!(engine.stats().overflows_by_level[0] > 0, "{name}: no level-0 overflow");
            assert!(functional.reencryptions() > 0, "{name}: no re-encryption");
        }
        for &line_idx in &touched {
            for child in line_idx * arity..((line_idx + 1) * arity).min(data_lines) {
                assert_eq!(
                    engine.counter_value(0, child),
                    functional.counter_of(child),
                    "{name}: data line {child}"
                );
            }
        }
    }
}

#[test]
fn geometry_invariants_hold_across_sizes_and_configs() {
    for gib in [1u64, 4, 16, 64] {
        let memory = gib << 30;
        for config in [
            TreeConfig::sgx(),
            TreeConfig::vault(),
            TreeConfig::sc64(),
            TreeConfig::sc128(),
            TreeConfig::morphtree(),
        ] {
            let g = TreeGeometry::new(&config, memory);
            // Levels shrink strictly and end in a single root line.
            for pair in g.levels().windows(2) {
                assert!(pair[1].lines < pair[0].lines, "{} {gib}GiB", config.name());
            }
            assert_eq!(g.levels().last().unwrap().lines, 1);
            // Every level's span covers all of memory.
            let l0 = &g.levels()[0];
            assert!(l0.lines * l0.arity as u64 * 64 >= memory);
        }
    }
}

#[test]
fn higher_arity_always_means_smaller_trees() {
    let memory = 16u64 << 30;
    let sgx = TreeGeometry::new(&TreeConfig::sgx(), memory);
    let vault = TreeGeometry::new(&TreeConfig::vault(), memory);
    let sc64 = TreeGeometry::new(&TreeConfig::sc64(), memory);
    let morph = TreeGeometry::new(&TreeConfig::morphtree(), memory);
    assert!(sgx.tree_bytes() > vault.tree_bytes());
    assert!(vault.tree_bytes() > sc64.tree_bytes());
    assert!(sc64.tree_bytes() > morph.tree_bytes());
    assert!(sgx.height() > vault.height());
    assert!(vault.height() > sc64.height());
    assert!(sc64.height() > morph.height());
}

#[test]
fn separate_macs_cost_traffic_in_both_designs() {
    let cfg = config();
    let mut sep_cfg = config();
    sep_cfg.mac_mode = MacMode::Separate;
    for tree in [TreeConfig::sc64(), TreeConfig::morphtree()] {
        let inline = simulate(&mut workload("milc", &cfg), tree.clone(), &cfg);
        let separate = simulate(&mut workload("milc", &sep_cfg), tree, &sep_cfg);
        assert!(
            separate.traffic_per_data_access() > inline.traffic_per_data_access() + 0.5,
            "separate MACs must add ~1 access per data access"
        );
        assert!(separate.ipc() < inline.ipc());
    }
}

#[test]
fn morph_keeps_its_advantage_across_cache_sizes() {
    // The full Fig 19 sweep (regenerated by `experiments fig19` at the
    // standard scale) shows the advantage *growing* as the cache shrinks;
    // at this tiny test scale we assert the robust half: MorphCtr never
    // loses to SC-64 at either cache size, and both designs benefit from a
    // larger cache.
    let mut small = config();
    small.metadata_cache_bytes = 4096;
    let mut large = config();
    large.metadata_cache_bytes = 16 * 1024;

    let sc64_small = simulate(&mut workload("omnetpp", &small), TreeConfig::sc64(), &small);
    let sc64_large = simulate(&mut workload("omnetpp", &large), TreeConfig::sc64(), &large);
    let morph_small =
        simulate(&mut workload("omnetpp", &small), TreeConfig::morphtree(), &small);
    let morph_large =
        simulate(&mut workload("omnetpp", &large), TreeConfig::morphtree(), &large);

    assert!(morph_small.ipc() >= sc64_small.ipc(), "small-cache advantage");
    assert!(morph_large.ipc() >= sc64_large.ipc(), "large-cache advantage");
    assert!(sc64_large.ipc() > sc64_small.ipc(), "more cache helps SC-64");
    assert!(morph_large.ipc() > morph_small.ipc(), "more cache helps MorphCtr");
}
