//! The `morphtree perf` subcommand: a pinned performance suite for the
//! hot paths of the reproduction, written to `BENCH.json`.
//!
//! The suite covers, in order:
//!
//! 1. counter-line increments (morph random-format and sc64 hot-slot);
//! 2. 64-byte one-time-pad generation — the selected backend (AES-NI
//!    where the CPU has it) versus the scalar per-block reference, plus
//!    the same benchmark pinned to *every* backend the CPU can run (the
//!    `crypto` JSON record), and an end-to-end functional-plane read
//!    (`secure_read`) through full chain-MAC verification;
//! 3. metadata-engine reads and writes — the paged-flat-store engine
//!    versus the frozen [`ReferenceEngine`] (the pre-optimization
//!    `HashMap`-backed implementation, kept verbatim as the baseline);
//! 4. a crash-recovery grid (memory size × open-epoch WAL length):
//!    epoch-bounded recovery versus the full-replay baseline it
//!    supersedes, on identical `(snapshot, WAL)` inputs;
//! 5. a proof-size-vs-arity grid: the five evaluated tree configs prove
//!    the same 8-line set over the same 1 MiB image; encoded proof bytes
//!    (structural, deterministic) and standalone verification time land
//!    in the JSON `proofs` section — the higher-arity morphable configs
//!    must produce smaller proofs than 64-ary SC-64;
//! 6. one full figure sweep (`fig07`) as an end-to-end wall-clock number.
//!
//! Each benchmark reports mean ns/op and ops/sec over a fixed time
//! window; the optimized/reference pairs additionally report a speedup
//! ratio in the JSON `speedups` section, which is what CI inspects. The
//! baselines run in-process so the comparison is same-machine,
//! same-build, same-workload. The recovery grid lands in the JSON
//! `recovery` section; its headline `bounded_vs_full_largest` ratio is
//! the bounded path's speedup at the largest grid point.
//!
//! `--gate BASELINE.json` compares the selected backend's `otp_64b`
//! against the committed baseline for that same backend and fails the
//! command on a >20% regression — other backends' comparisons are
//! reported but informational.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use morphtree_core::concurrent::{Op, ShardedMemory, SplitMix64};
use morphtree_core::functional::SecureMemory;
use morphtree_core::persist::{recover, recover_bounded, EpochMemory};
use morphtree_core::counters::morph::{MorphLine, MorphMode};
use morphtree_core::counters::split::{SplitConfig, SplitLine};
use morphtree_core::counters::CounterLine;
use morphtree_core::metadata::{MacMode, MetadataEngine, ReferenceEngine};
use morphtree_core::tree::TreeConfig;
use morphtree_core::CACHELINE_BYTES;
use morphtree_crypto::otp::CtrModeCipher;
use morphtree_crypto::{aes, AesBackend};

use crate::{err, CliError, Flags};

/// Memory size the engine benchmarks model (matches `benches/engine.rs`).
const MEMORY: u64 = 256 << 20;
/// Metadata-cache size for the gated engine benchmarks: the paper's
/// Table I configuration (128 KB). With a resident footprint this is the
/// cache-hit regime real workloads run in (Fig 16's hit rates are high),
/// so the gated numbers measure the engine itself rather than a miss
/// storm whose emit traffic both implementations share.
const CACHE: usize = 128 * 1024;
/// Small cache for the informational cold-miss variants.
const COLD_CACHE: usize = 8 * 1024;
/// Read footprint for the gated benchmark: 8 MiB of data, whose metadata
/// fits in the 128 KB cache after warm-up.
const HOT_READ_LINES: u64 = (8 << 20) / 64;
/// Random-read footprint for the cold variant (64 MiB of data).
const FOOTPRINT_LINES: u64 = (64 << 20) / 64;
/// Hot-set size for the write benchmarks.
const HOT_LINES: u64 = 4096;

/// Memory size for the end-to-end functional-plane read benchmark.
const SECURE_MEMORY: u64 = 1 << 20;
/// Populated (and read) lines in the functional-plane benchmark.
const SECURE_HOT: u64 = 2048;

/// Gate slack: the selected backend's `otp_64b` may be up to 20% slower
/// than its committed baseline before `--gate` fails the command.
const GATE_SLACK: f64 = 1.2;

/// Worker counts for the serve-mode scaling curve (shards = threads).
const SERVE_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Requests per `run_batch` call in the serve scaling benchmark — large
/// enough to amortize per-batch queue routing and thread-scope setup.
const SERVE_BATCH: usize = 8192;
/// Total hot lines across all shards (matches the `serve` default).
const SERVE_HOT_LINES: u64 = 8192;

/// One benchmark's result.
struct Bench {
    name: &'static str,
    ns_per_op: f64,
    ops_per_sec: f64,
}

/// Sub-windows per benchmark; the reported figure is the *fastest*
/// sub-window. Interference noise on a shared host is one-sided (it only
/// ever slows a window down), so the minimum is the stable estimator —
/// means swing by 1.5x between otherwise identical runs.
const PASSES: u32 = 4;

/// Runs `op` in batches for `PASSES` sub-windows (after a warm-up of a
/// quarter window) and reports the best per-call cost observed.
fn measure<F: FnMut()>(name: &'static str, window: Duration, mut op: F) -> Bench {
    let warm_up_end = Instant::now() + window / 4;
    while Instant::now() < warm_up_end {
        op();
    }
    let sub_window = window / PASSES;
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let mut ops = 0u64;
        let started = Instant::now();
        loop {
            for _ in 0..64 {
                op();
            }
            ops += 64;
            if started.elapsed() >= sub_window {
                break;
            }
        }
        let ns_per_op = started.elapsed().as_nanos() as f64 / ops as f64;
        best = best.min(ns_per_op);
    }
    Bench { name, ns_per_op: best, ops_per_sec: 1e9 / best }
}

/// Formats a float with enough precision for the JSON report without
/// dragging in a float-formatting dependency.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_owned()
    }
}

/// Runs the pinned suite and writes the JSON report.
///
/// # Errors
///
/// Propagates figure-sweep and file-write failures.
pub fn cmd_perf(flags: &Flags) -> Result<String, CliError> {
    let out_path = flags.get_or("out", "BENCH.json");
    let quick = flags.get_or("quick", "0") != "0";
    let backend = aes::selected_backend();
    // Full mode uses a 300 ms window per benchmark (~4 s total); quick
    // mode trades precision for a fast smoke signal in CI.
    let window = if quick { Duration::from_millis(40) } else { Duration::from_millis(300) };

    let mut benches: Vec<Bench> = Vec::new();
    let mut progress = String::new();

    // 1. Counter increments: the innermost loop of the simulator.
    {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        let mut rng = SplitMix64::new(2);
        benches.push(measure("counter_increment_morph", window, || {
            let slot = (rng.next_u64() % 128) as usize;
            std::hint::black_box(line.increment(slot));
        }));
        let mut line = SplitLine::new(SplitConfig::with_arity(64));
        benches.push(measure("counter_increment_sc64", window, || {
            std::hint::black_box(line.increment(std::hint::black_box(7)));
        }));
    }

    // 2. One-time-pad generation: the runtime-selected backend (AES-NI
    //    where available) vs the scalar per-block reference.
    {
        let cipher = CtrModeCipher::new([0x42u8; 16]);
        let mut counter = 0u64;
        benches.push(measure("otp_64b", window, || {
            counter = counter.wrapping_add(1) & ((1 << 56) - 1);
            std::hint::black_box(cipher.one_time_pad(0x8000, counter));
        }));
        let mut counter = 0u64;
        benches.push(measure("otp_64b_reference", window, || {
            counter = counter.wrapping_add(1) & ((1 << 56) - 1);
            std::hint::black_box(cipher.one_time_pad_reference(0x8000, counter));
        }));
    }

    // 2b. The same OTP benchmark pinned to every backend this CPU can
    //     run: the per-backend curve in the JSON `crypto` record. It
    //     shows what backend selection bought on this host, and it is the
    //     baseline `--gate` compares like against like — a host without
    //     AES-NI gates against the committed *scalar* number, not the
    //     AES-NI one.
    let otp_by_backend: Vec<(AesBackend, f64, f64)> = AesBackend::all_available()
        .into_iter()
        .map(|b| {
            let cipher = CtrModeCipher::with_backend([0x42u8; 16], b);
            let mut counter = 0u64;
            let bench = measure("otp_64b_backend", window, || {
                counter = counter.wrapping_add(1) & ((1 << 56) - 1);
                std::hint::black_box(cipher.one_time_pad(0x8000, counter));
            });
            (b, bench.ns_per_op, bench.ops_per_sec)
        })
        .collect();

    // 2c. End-to-end functional-plane reads: every read pays an OTP
    //     decrypt plus the batched chain-MAC verification, so this is
    //     where the AES-NI pipeline and interleaved SipHash must show up
    //     *together*.
    {
        let mut m = SecureMemory::new(TreeConfig::morphtree(), SECURE_MEMORY, [0x42u8; 16]);
        let mut rng = SplitMix64::new(9);
        let mut payload = [0u8; CACHELINE_BYTES];
        for line in 0..SECURE_HOT {
            payload[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            m.write(line, &payload);
        }
        let mut rng = SplitMix64::new(10);
        benches.push(measure("secure_read", window, || {
            let line = rng.next_u64() % SECURE_HOT;
            std::hint::black_box(m.read(std::hint::black_box(line)).expect("intact memory"));
        }));
    }

    // 3. Engine reads/writes: the flat-store engine vs the frozen HashMap
    //    reference, identical configuration and access stream. The gated
    //    pair runs the paper's cache configuration with cache-resident
    //    metadata (the representative regime); the `_cold` pair is an
    //    informational miss-storm stress.
    {
        let config = TreeConfig::morphtree();
        let mut out = Vec::with_capacity(512);

        // Pre-touch every line once so the steady-state measurement starts
        // from a warm cache in both engines.
        let mut e = MetadataEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        for line in 0..HOT_READ_LINES {
            out.clear();
            e.read(line, &mut out);
        }
        let mut rng = SplitMix64::new(3);
        benches.push(measure("engine_read", window, || {
            let line = rng.next_u64() % HOT_READ_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = ReferenceEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        for line in 0..HOT_READ_LINES {
            out.clear();
            e.read(line, &mut out);
        }
        let mut rng = SplitMix64::new(3);
        benches.push(measure("engine_read_reference", window, || {
            let line = rng.next_u64() % HOT_READ_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = MetadataEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(4);
        benches.push(measure("engine_write", window, || {
            let line = rng.next_u64() % HOT_LINES;
            out.clear();
            e.write(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = ReferenceEngine::new(config.clone(), MEMORY, CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(4);
        benches.push(measure("engine_write_reference", window, || {
            let line = rng.next_u64() % HOT_LINES;
            out.clear();
            e.write(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = MetadataEngine::new(config.clone(), MEMORY, COLD_CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(5);
        benches.push(measure("engine_read_cold", window, || {
            let line = rng.next_u64() % FOOTPRINT_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));

        let mut e = ReferenceEngine::new(config, MEMORY, COLD_CACHE, MacMode::Inline);
        let mut rng = SplitMix64::new(5);
        benches.push(measure("engine_read_cold_reference", window, || {
            let line = rng.next_u64() % FOOTPRINT_LINES;
            out.clear();
            e.read(std::hint::black_box(line), &mut out);
            std::hint::black_box(out.len());
        }));
    }

    for b in &benches {
        writeln!(
            progress,
            "{:<28} {:>10} ns/op {:>14.0} ops/s",
            b.name, number(b.ns_per_op), b.ops_per_sec
        )
        .expect("write to string");
    }
    for (b, ns, ops) in &otp_by_backend {
        writeln!(
            progress,
            "{:<28} {:>10} ns/op {ops:>14.0} ops/s",
            format!("otp_64b[{b}]"),
            number(*ns),
        )
        .expect("write to string");
    }

    // 4. Serve-mode scaling: the sharded concurrent engine at 1/2/4/8
    //    worker threads (one subtree shard per worker) over the full
    //    256 MiB functional plane. On a single-core host the curve still
    //    rises because sharding shallows each subtree — fewer MAC/OTP
    //    levels per write — independent of hardware parallelism.
    let serve_points = run_serve_scaling(window);
    // The host's parallelism, recorded beside the scaling ratio: with
    // fewer CPUs than threads the curve measures subtree shallowing, not
    // parallel speed-up.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for (threads, ops_per_sec) in &serve_points {
        writeln!(
            progress,
            "{:<28} {:>10} ns/op {ops_per_sec:>14.0} ops/s",
            format!("serve_{threads}t"),
            number(1e9 / ops_per_sec),
        )
        .expect("write to string");
    }

    // 5. Crash-recovery grid: bounded (epoch-anchored) recovery vs the
    //    full-replay baseline on identical (snapshot, WAL) inputs.
    let recovery_points = if flags.get_or("recovery", "1") != "0" {
        run_recovery_grid(quick)
    } else {
        Vec::new()
    };
    for p in &recovery_points {
        writeln!(
            progress,
            "{:<28} {:>10} ms bounded {:>10} ms full ({:>5}x)",
            format!("recover_{}mib_{}txn", p.memory_mib, p.wal_txns),
            number(p.bounded_ms),
            number(p.full_ms),
            number(p.speedup()),
        )
        .expect("write to string");
    }

    // 5b. Proof-size-vs-arity sweep: the five evaluated configs prove
    //     the same line set; size is structural, verify time is wall.
    let proof_points = run_proof_grid(quick);
    for p in &proof_points {
        writeln!(
            progress,
            "{:<28} {:>10} bytes {:>6} node(s) {:>10} ns/verify",
            format!("proof_{}", p.name),
            p.proof_bytes,
            p.nodes,
            number(p.verify_ns),
        )
        .expect("write to string");
    }

    // 6. One full figure sweep, end to end.
    let sweep_ms = run_sweep(quick)?;
    writeln!(progress, "{:<28} {sweep_ms:>10} ms wall-clock", "sweep_fig07").expect("write");

    let ratio = |fast: &str, slow: &str| -> f64 {
        let get = |name: &str| benches.iter().find(|b| b.name == name).map_or(0.0, |b| b.ns_per_op);
        let (f, s) = (get(fast), get(slow));
        if f > 0.0 {
            s / f
        } else {
            0.0
        }
    };
    let speedups = [
        ("engine_read", ratio("engine_read", "engine_read_reference")),
        ("engine_write", ratio("engine_write", "engine_write_reference")),
        ("engine_read_cold", ratio("engine_read_cold", "engine_read_cold_reference")),
        ("otp_64b", ratio("otp_64b", "otp_64b_reference")),
    ];

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"morphtree-perf-v1\",\n");
    writeln!(json, "  \"mode\": \"{}\",", if quick { "quick" } else { "full" }).expect("write");
    json.push_str("  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        let comma = if i + 1 == benches.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_op\": {}, \"ops_per_sec\": {}}}{comma}",
            b.name,
            number(b.ns_per_op),
            number(b.ops_per_sec),
        )
        .expect("write to string");
    }
    json.push_str("  ],\n");
    json.push_str("  \"crypto\": {\n");
    writeln!(json, "    \"backend\": \"{backend}\",").expect("write");
    writeln!(json, "    \"cpu_features\": \"{}\",", aes::cpu_features()).expect("write");
    json.push_str("    \"otp_64b_by_backend\": [\n");
    for (i, (b, ns, ops)) in otp_by_backend.iter().enumerate() {
        let comma = if i + 1 == otp_by_backend.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"backend\": \"{b}\", \"ns_per_op\": {}, \"ops_per_sec\": {}}}{comma}",
            number(*ns),
            number(*ops),
        )
        .expect("write to string");
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"speedups\": {\n");
    for (i, (name, value)) in speedups.iter().enumerate() {
        let comma = if i + 1 == speedups.len() { "" } else { "," };
        writeln!(json, "    \"{name}\": {}{comma}", number(*value)).expect("write to string");
    }
    json.push_str("  },\n");
    json.push_str("  \"serve\": {\n");
    json.push_str("    \"config\": \"morphtree\",\n");
    writeln!(json, "    \"memory_mib\": {},", MEMORY >> 20).expect("write");
    json.push_str("    \"shards\": \"one per thread\",\n");
    json.push_str("    \"points\": [\n");
    for (i, (threads, ops_per_sec)) in serve_points.iter().enumerate() {
        let comma = if i + 1 == serve_points.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"threads\": {threads}, \"ops_per_sec\": {}}}{comma}",
            number(*ops_per_sec),
        )
        .expect("write to string");
    }
    json.push_str("    ],\n");
    writeln!(json, "    \"scaling_8v1\": {},", number(serve_scaling_8v1(&serve_points)))
        .expect("write");
    writeln!(json, "    \"nproc\": {nproc}").expect("write");
    json.push_str("  },\n");
    if !recovery_points.is_empty() {
        json.push_str("  \"recovery\": {\n");
        json.push_str("    \"config\": \"morphtree\",\n");
        json.push_str("    \"baseline\": \"full replay + full bottom-up verification\",\n");
        json.push_str("    \"grid\": [\n");
        for (i, p) in recovery_points.iter().enumerate() {
            let comma = if i + 1 == recovery_points.len() { "" } else { "," };
            writeln!(
                json,
                "      {{\"memory_mib\": {}, \"wal_txns\": {}, \"wal_bytes\": {}, \
                 \"bounded_ms\": {}, \"full_ms\": {}, \"speedup\": {}}}{comma}",
                p.memory_mib,
                p.wal_txns,
                p.wal_bytes,
                number(p.bounded_ms),
                number(p.full_ms),
                number(p.speedup()),
            )
            .expect("write to string");
        }
        json.push_str("    ],\n");
        writeln!(
            json,
            "    \"bounded_vs_full_largest\": {}",
            number(recovery_points.last().map_or(0.0, RecoveryPoint::speedup)),
        )
        .expect("write");
        json.push_str("  },\n");
    }
    json.push_str("  \"proofs\": {\n");
    json.push_str("    \"memory_mib\": 1,\n");
    json.push_str("    \"proved_lines\": 8,\n");
    json.push_str("    \"grid\": [\n");
    for (i, p) in proof_points.iter().enumerate() {
        let comma = if i + 1 == proof_points.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"config\": \"{}\", \"proof_bytes\": {}, \"nodes\": {}, \
             \"mac_computes\": {}, \"verify_ns\": {}}}{comma}",
            p.name,
            p.proof_bytes,
            p.nodes,
            p.mac_computes,
            number(p.verify_ns),
        )
        .expect("write to string");
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    writeln!(json, "  \"sweep\": {{\"figure\": \"fig07\", \"wall_ms\": {sweep_ms}}}").expect("write");
    json.push_str("}\n");

    std::fs::write(out_path, &json)
        .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;

    let mut summary = progress;
    if let Some(path) = flags.get("metrics") {
        // The perf suite is inherently wall-clock, so unlike sweep metrics
        // this file is machine- and run-dependent by design.
        let mut registry = morphtree_core::obs::MetricsRegistry::new();
        for b in &benches {
            registry.gauge_set(&format!("perf.{}.ns_per_op", b.name), Some(b.ns_per_op));
            registry.gauge_set(&format!("perf.{}.ops_per_sec", b.name), Some(b.ops_per_sec));
        }
        for (name, value) in &speedups {
            registry.gauge_set(&format!("perf.speedup.{name}"), Some(*value));
        }
        for (b, ns, ops) in &otp_by_backend {
            registry.gauge_set(&format!("perf.otp_64b.{b}.ns_per_op"), Some(*ns));
            registry.gauge_set(&format!("perf.otp_64b.{b}.ops_per_sec"), Some(*ops));
        }
        for (threads, ops_per_sec) in &serve_points {
            registry.gauge_set(&format!("perf.serve_{threads}t.ops_per_sec"), Some(*ops_per_sec));
        }
        registry.gauge_set("perf.serve.scaling_8v1", Some(serve_scaling_8v1(&serve_points)));
        for p in &recovery_points {
            let prefix = format!("perf.recover_{}mib_{}txn", p.memory_mib, p.wal_txns);
            registry.gauge_set(&format!("{prefix}.bounded_ms"), Some(p.bounded_ms));
            registry.gauge_set(&format!("{prefix}.full_ms"), Some(p.full_ms));
        }
        for p in &proof_points {
            let prefix = format!("perf.proof_{}", p.name);
            registry.counter_set(&format!("{prefix}.bytes"), p.proof_bytes as u64);
            registry.counter_set(&format!("{prefix}.nodes"), p.nodes);
            registry.gauge_set(&format!("{prefix}.verify_ns"), Some(p.verify_ns));
        }
        registry.counter_set("perf.sweep_fig07.wall_ms", sweep_ms);
        crate::metrics::write_metrics(path, &registry)?;
        writeln!(summary, "metrics written to {path}").expect("write to string");
    }
    writeln!(
        summary,
        "\ncrypto backend {backend} (cpu features: {})",
        aes::cpu_features()
    )
    .expect("write to string");
    writeln!(summary, "\nspeedups vs in-process pre-optimization baselines:").expect("write");
    for (name, value) in speedups {
        writeln!(summary, "  {name:<14} {:>6}x", number(value)).expect("write to string");
    }
    writeln!(
        summary,
        "\nserve scaling (8 threads vs 1): {}x on {nproc} CPU(s)",
        number(serve_scaling_8v1(&serve_points))
    )
    .expect("write to string");
    {
        let size_of = |key: &str| {
            proof_points.iter().find(|p| p.name == key).map_or(0, |p| p.proof_bytes)
        };
        writeln!(
            summary,
            "proof size for 8 lines over 1 MiB: morphtree {} bytes vs sc64 {} bytes",
            size_of("morphtree"),
            size_of("sc64"),
        )
        .expect("write to string");
    }
    if let Some(largest) = recovery_points.last() {
        writeln!(
            summary,
            "bounded recovery vs full replay at {} MiB / {} txn(s): {}x",
            largest.memory_mib,
            largest.wal_txns,
            number(largest.speedup()),
        )
        .expect("write to string");
    }
    writeln!(summary, "\nreport written to {out_path}").expect("write to string");
    if let Some(path) = flags.get("gate") {
        gate_against(path, backend, &otp_by_backend, &mut summary)?;
    }
    Ok(summary)
}

/// Enforces the perf gate against a committed baseline: the *selected*
/// backend's `otp_64b` must stay within [`GATE_SLACK`] of the committed
/// number for that same backend; every other available backend's
/// comparison is rendered but informational. A backend with no committed
/// baseline (e.g. AES-NI measured on a host whose baseline was taken
/// without it) is reported and skipped rather than failed — the fallback
/// path must keep passing on machines the baseline never saw. When the
/// *selected* backend is the one missing, the skip is loud: the report
/// names the baseline file and what baseline would make the gate
/// enforceable, so an informational pass can't be mistaken for a clean
/// enforced one.
fn gate_against(
    path: &str,
    selected: AesBackend,
    measured: &[(AesBackend, f64, f64)],
    out: &mut String,
) -> Result<(), CliError> {
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read gate baseline {path}: {e}")))?;
    writeln!(out, "\nperf gate vs {path} (enforcing for selected backend `{selected}`):")
        .expect("write to string");
    let mut failure = None;
    for (b, ns, _) in measured {
        let enforced = *b == selected;
        let Some(base) = baseline_otp_ns(&baseline, b.as_str()) else {
            // Like-vs-like or nothing: a backend with no same-backend
            // committed number is never compared against another
            // backend's. When that backend is the *selected* one the
            // whole gate downgrades to an explicit informational skip —
            // silently passing would look like enforcement.
            if enforced {
                writeln!(
                    out,
                    "  otp_64b[{b}] {:>10} ns/op — gate SKIPPED: {path} has no committed \
                     baseline for selected backend `{b}` (informational run; commit a \
                     baseline measured on a host that selects `{b}` to enforce)",
                    number(*ns),
                )
                .expect("write to string");
            } else {
                writeln!(
                    out,
                    "  otp_64b[{b}] {:>10} ns/op — no committed baseline (informational)",
                    number(*ns),
                )
                .expect("write to string");
            }
            continue;
        };
        let over = *ns > base * GATE_SLACK;
        let verdict = match (over, enforced) {
            (false, _) => "ok",
            (true, true) => "REGRESSION",
            (true, false) => "regressed (informational)",
        };
        writeln!(
            out,
            "  otp_64b[{b}] {:>10} ns/op vs {:>10} ns/op committed — {verdict}",
            number(*ns),
            number(base),
        )
        .expect("write to string");
        if over && enforced {
            failure = Some(format!(
                "otp_64b[{b}] measured {} ns/op vs {} ns/op committed \
                 (more than {:.0}% over)",
                number(*ns),
                number(base),
                (GATE_SLACK - 1.0) * 100.0,
            ));
        }
    }
    match failure {
        None => Ok(()),
        Some(msg) => Err(err(format!("{out}perf gate FAILED: {msg}"))),
    }
}

/// Pulls one backend's committed `otp_64b` ns/op out of a BENCH.json
/// baseline, matching the exact shape [`cmd_perf`] emits for the
/// `otp_64b_by_backend` array. A hand-rolled scan, like the emitter —
/// the schema is ours on both sides, so a JSON parser dependency buys
/// nothing.
fn baseline_otp_ns(json: &str, backend: &str) -> Option<f64> {
    let needle = format!("{{\"backend\": \"{backend}\", \"ns_per_op\": ");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find(|c: char| c != '.' && !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Builds the serve benchmark's request batch: 80% writes over per-shard
/// hot ranges (equal share per shard, [`SERVE_HOT_LINES`] total), the
/// same shape `morphtree serve` drives by default.
fn serve_batch(rng: &mut SplitMix64, memory: &ShardedMemory) -> Vec<Op> {
    let plan = memory.plan();
    let shards = plan.shards() as u64;
    let per_shard_hot = (SERVE_HOT_LINES / shards).max(1);
    (0..SERVE_BATCH)
        .map(|_| {
            let shard = (rng.next_u64() % shards) as usize;
            let line = plan.shard_base(shard) + rng.next_u64() % per_shard_hot;
            if rng.next_u64() % 100 < 80 {
                let mut data = [0u8; CACHELINE_BYTES];
                data[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                Op::Write { line, data }
            } else {
                Op::Read { line }
            }
        })
        .collect()
}

/// Measures serve-mode throughput for each worker count in
/// [`SERVE_THREADS`] (shards = threads) and returns `(threads, ops/sec)`
/// points, best-of-[`PASSES`] sub-windows like every other benchmark.
fn run_serve_scaling(window: Duration) -> Vec<(usize, f64)> {
    SERVE_THREADS
        .iter()
        .map(|&threads| {
            let mut memory =
                ShardedMemory::new(TreeConfig::morphtree(), MEMORY, [0x42u8; 16], threads)
                    .expect("256 MiB shards cleanly at any benchmarked thread count");
            let mut rng = SplitMix64::new(7);
            let ops = serve_batch(&mut rng, &memory);
            let warm_up_end = Instant::now() + window / 4;
            while Instant::now() < warm_up_end {
                memory.run_batch(&ops, threads);
            }
            let sub_window = window / PASSES;
            let mut best = 0.0f64;
            for _ in 0..PASSES {
                let mut count = 0u64;
                let started = Instant::now();
                loop {
                    memory.run_batch(&ops, threads);
                    count += ops.len() as u64;
                    if started.elapsed() >= sub_window {
                        break;
                    }
                }
                best = best.max(count as f64 / started.elapsed().as_secs_f64());
            }
            (threads, best)
        })
        .collect()
}

/// One point of the crash-recovery grid: bounded vs full recovery of the
/// same durable state.
struct RecoveryPoint {
    memory_mib: u64,
    wal_txns: usize,
    wal_bytes: usize,
    bounded_ms: f64,
    full_ms: f64,
}

impl RecoveryPoint {
    fn speedup(&self) -> f64 {
        if self.bounded_ms > 0.0 {
            self.full_ms / self.bounded_ms
        } else {
            0.0
        }
    }
}

/// Best-of-3 wall-clock milliseconds for `op` (the minimum is the stable
/// estimator under one-sided interference noise, as with [`measure`]).
fn time_ms<F: FnMut()>(mut op: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        op();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs the recovery grid: memory size × open-epoch WAL length. For each
/// point the victim is an [`EpochMemory`] whose sealed history has
/// populated a slice of the data store proportional to its size (1 base
/// write per 64 lines, floored at 256 — full verification must re-prove
/// every populated line, so its cost tracks state size the way a served
/// memory's would), plus an open epoch of `wal_txns` writes; both
/// recovery paths get the identical `(sealed snapshot, WAL)` pair. The
/// grid is ordered smallest→largest, so `.last()` is the largest point —
/// where bounded recovery's advantage over full replay is most
/// pronounced.
fn run_recovery_grid(quick: bool) -> Vec<RecoveryPoint> {
    let memories: &[u64] = if quick { &[1, 4] } else { &[1, 8, 32] };
    let txns: &[usize] = if quick { &[8, 32] } else { &[8, 64, 256] };
    let mut points = Vec::new();
    for &memory_mib in memories {
        for &wal_txns in txns {
            let mut mem =
                EpochMemory::new(TreeConfig::morphtree(), memory_mib << 20, [0x42; 16], 0);
            let lines = (memory_mib << 20) / 64;
            let base_writes = (lines / 64).max(256);
            let mut rng = SplitMix64::new(11);
            let mut payload = [0u8; CACHELINE_BYTES];
            // One sealed epoch of base history...
            for _ in 0..base_writes {
                payload[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                mem.write(rng.next_u64() % lines, &payload);
            }
            mem.cut();
            // ...then the open epoch a crash would interrupt.
            for _ in 0..wal_txns {
                payload[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                mem.write(rng.next_u64() % lines, &payload);
            }
            let snapshot = mem.sealed_snapshot();
            let wal = mem.wal_bytes();
            let bounded_ms = time_ms(|| {
                let (m, stats) = recover_bounded(&snapshot, wal).expect("bounded recovery");
                std::hint::black_box((m.root_digest(), stats.replayed_txns));
            });
            let full_ms = time_ms(|| {
                let m = recover(&snapshot, wal).expect("full recovery");
                std::hint::black_box(m.root_digest());
            });
            points.push(RecoveryPoint {
                memory_mib,
                wal_txns,
                wal_bytes: wal.len(),
                bounded_ms,
                full_ms,
            });
        }
    }
    points
}

/// One configuration's point in the proof-size-vs-arity sweep.
struct ProofPoint {
    /// Short config key (`sc64`, `vault`, `zcc`, `mcr`, `morphtree`).
    name: &'static str,
    /// Encoded proof size in bytes — deterministic for a fixed image and
    /// line set, so this is a *structural* number, not a timing.
    proof_bytes: usize,
    /// Counter nodes the proof carries (chain + top, deduplicated).
    nodes: u64,
    /// MACs the standalone verifier recomputes.
    mac_computes: u64,
    /// Mean wall-clock per standalone verification.
    verify_ns: f64,
}

/// Proves the same 8-line set over the same 1 MiB image under each of the
/// five evaluated tree configurations (the attack-campaign set) and
/// measures encoded proof size plus standalone verification time. Higher
/// arity means shorter chains and fewer deduplicated upper nodes, so the
/// 128-ary morphable configs must beat 64-ary SC-64 on proof bytes — the
/// same geometry argument as the paper's metadata-overhead claim, and a
/// unit test pins it.
fn run_proof_grid(quick: bool) -> Vec<ProofPoint> {
    use morphtree_core::proof::verify_proof;

    const PROOF_MEM: u64 = 1 << 20;
    const WRITTEN: u64 = 512;
    let proved: [u64; 8] = [0, 3, 60, 177, 300, 333, 409, 511];
    let iters = if quick { 16 } else { 256 };
    morphtree_core::attack::campaign_configs()
        .into_iter()
        .map(|(name, config)| {
            let mut memory = SecureMemory::new(config, PROOF_MEM, [0x61; 16]);
            let mut payload = [0u8; CACHELINE_BYTES];
            for line in 0..WRITTEN {
                payload[..8].copy_from_slice(&(line.wrapping_mul(0x9e37)).to_le_bytes());
                memory.write(line, &payload);
            }
            let proof = memory.prove(&proved).expect("prove written lines");
            let encoded = proof.encode();
            let root = memory.root_digest();
            let stats = verify_proof(&proof, root).expect("fresh proof verifies");
            let started = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(verify_proof(&proof, root).expect("fresh proof verifies"));
            }
            let verify_ns = started.elapsed().as_nanos() as f64 / f64::from(iters);
            ProofPoint {
                name,
                proof_bytes: encoded.len(),
                nodes: stats.nodes,
                mac_computes: stats.mac_computes,
                verify_ns,
            }
        })
        .collect()
}

/// The headline scaling ratio: 8-thread throughput over 1-thread.
fn serve_scaling_8v1(points: &[(usize, f64)]) -> f64 {
    let at = |threads: usize| {
        points.iter().find(|(t, _)| *t == threads).map_or(0.0, |(_, ops)| *ops)
    };
    let one = at(1);
    if one > 0.0 {
        at(8) / one
    } else {
        0.0
    }
}

/// Runs the `fig07` sweep once and returns its wall-clock milliseconds.
fn run_sweep(quick: bool) -> Result<u64, CliError> {
    use morphtree_experiments::{driver, Lab, Setup};

    // Quick mode shrinks the model so CI stays fast; full mode matches
    // the `sweep` command's defaults.
    let setup = if quick {
        Setup { scale: 64, warmup_instructions: 200_000, measure_instructions: 100_000, seed: 42 }
    } else {
        Setup {
            scale: 16,
            warmup_instructions: 4_000_000,
            measure_instructions: 2_000_000,
            seed: 42,
        }
    };
    let mut lab = Lab::new(setup);
    // Timing only: don't overwrite `results/` from a perf run.
    lab.emit_reports = false;
    let started = Instant::now();
    let outcome = driver::run_figures(&mut lab, &["fig07"]).map_err(err)?;
    let wall_ms = started.elapsed().as_millis() as u64;
    if let Some(summary) = outcome.failure_summary() {
        return Err(err(summary));
    }
    Ok(wall_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_throughput() {
        let mut x = 0u64;
        let b = measure("noop", Duration::from_millis(5), || x = x.wrapping_add(1));
        assert!(b.ns_per_op > 0.0);
        assert!(b.ops_per_sec > 0.0);
        assert!(x > 0);
    }

    #[test]
    fn number_formats_finite_and_guards_nonfinite() {
        assert_eq!(number(1.5), "1.500");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn serve_scaling_covers_every_thread_count() {
        let points = run_serve_scaling(Duration::from_millis(8));
        assert_eq!(points.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1, 2, 4, 8]);
        assert!(points.iter().all(|(_, ops)| *ops > 0.0), "{points:?}");
    }

    #[test]
    fn recovery_grid_prefers_bounded_at_the_largest_point() {
        let points = run_recovery_grid(true);
        assert_eq!(points.len(), 4, "quick grid is 2 memories x 2 WAL lengths");
        assert!(points.iter().all(|p| p.bounded_ms > 0.0 && p.full_ms > 0.0));
        assert!(points.iter().all(|p| p.wal_bytes > 0 && p.wal_txns > 0));
        // With batched touched-line verification the bounded path does a
        // strict subset of the full path's crypto at *every* grid point
        // (the crossover guard in `recover_bounded` makes more-work
        // impossible; `persist::epoch`'s grid test pins the crypto-op
        // inequality deterministically). Wall clock on a shared host is
        // noise-dominated at small points — both paths share the same
        // snapshot decode + replay — so this only guards against a
        // pathological regression (e.g. an accidentally quadratic
        // bounded path), not jitter.
        for p in &points {
            assert!(
                p.speedup() > 0.3,
                "bounded pathologically slower than full at {} MiB / {} txn: {}ms vs {}ms",
                p.memory_mib,
                p.wal_txns,
                p.bounded_ms,
                p.full_ms,
            );
        }
        let largest = points.last().unwrap();
        assert!(
            largest.speedup() > 1.0,
            "bounded {}ms vs full {}ms at {} MiB",
            largest.bounded_ms,
            largest.full_ms,
            largest.memory_mib,
        );
    }

    #[test]
    fn proof_grid_morphable_configs_beat_sc64_on_size() {
        // The acceptance claim behind the BENCH.json `proofs` section:
        // proof size is structural (no timing), so this is deterministic.
        // 128-ary morphable trees cover the same 8 lines with fewer,
        // shorter chains than 64-ary SC-64.
        let points = run_proof_grid(true);
        assert_eq!(points.len(), 5, "all five evaluated configs");
        let size_of = |key: &str| {
            points.iter().find(|p| p.name == key).map(|p| p.proof_bytes).unwrap()
        };
        for key in ["zcc", "mcr", "morphtree"] {
            assert!(
                size_of(key) < size_of("sc64"),
                "{key} proof ({} B) should be smaller than sc64 ({} B)",
                size_of(key),
                size_of("sc64"),
            );
        }
        for p in &points {
            assert!(p.nodes > 0 && p.mac_computes > p.nodes, "{}", p.name);
            assert!(p.verify_ns > 0.0, "{}", p.name);
        }
    }

    #[test]
    fn gate_parses_committed_backend_baselines() {
        let json = "\"otp_64b_by_backend\": [\n\
            {\"backend\": \"scalar\", \"ns_per_op\": 640.545, \"ops_per_sec\": 1.0},\n\
            {\"backend\": \"aesni\", \"ns_per_op\": 24.057, \"ops_per_sec\": 2.0}\n]";
        assert_eq!(baseline_otp_ns(json, "scalar"), Some(640.545));
        assert_eq!(baseline_otp_ns(json, "aesni"), Some(24.057));
        let scalar_only =
            "{\"backend\": \"scalar\", \"ns_per_op\": 640.545, \"ops_per_sec\": 1.0}";
        assert_eq!(baseline_otp_ns(scalar_only, "aesni"), None);
        assert_eq!(baseline_otp_ns("not json at all", "scalar"), None);
    }

    #[test]
    fn gate_enforces_only_the_selected_backend() {
        let dir = std::env::temp_dir();
        let both = dir.join("morphtree-perf-gate-baseline.json");
        let scalar_only = dir.join("morphtree-perf-gate-baseline-scalar.json");
        std::fs::write(
            &both,
            "{\"backend\": \"scalar\", \"ns_per_op\": 100.000, \"ops_per_sec\": 1.0},\n\
             {\"backend\": \"aesni\", \"ns_per_op\": 100.000, \"ops_per_sec\": 1.0}",
        )
        .unwrap();
        std::fs::write(
            &scalar_only,
            "{\"backend\": \"scalar\", \"ns_per_op\": 100.000, \"ops_per_sec\": 1.0}",
        )
        .unwrap();
        let both_str = both.to_str().unwrap().to_owned();
        let scalar_only_str = scalar_only.to_str().unwrap().to_owned();
        let measured = vec![
            (AesBackend::Scalar, 500.0, 2e6), // 5x over its baseline
            (AesBackend::AesNi, 110.0, 9e6),  // within slack
        ];

        // Selected backend within slack: the scalar blowout is reported
        // but informational, and the command succeeds.
        let mut report = String::new();
        gate_against(&both_str, AesBackend::AesNi, &measured, &mut report).unwrap();
        assert!(report.contains("regressed (informational)"), "{report}");
        assert!(report.contains("otp_64b[aesni]") && report.contains("ok"), "{report}");

        // Selected backend over slack: hard failure naming the backend.
        let mut report = String::new();
        let e = gate_against(&both_str, AesBackend::Scalar, &measured, &mut report).unwrap_err();
        assert!(e.0.contains("perf gate FAILED: otp_64b[scalar]"), "{}", e.0);

        // The *selected* backend absent from the baseline: the gate
        // skips loudly — it names the skip, the baseline file, and the
        // baseline that would make it enforceable — instead of failing
        // or silently passing.
        let unseen = vec![(AesBackend::AesNi, 25.0, 4e7)];
        let mut report = String::new();
        gate_against(&scalar_only_str, AesBackend::AesNi, &unseen, &mut report).unwrap();
        assert!(report.contains("gate SKIPPED"), "{report}");
        assert!(report.contains("selected backend `aesni`"), "{report}");
        assert!(report.contains("on a host that selects `aesni`"), "{report}");

        // A *non-selected* backend absent from the baseline stays a
        // quiet informational line.
        let mixed = vec![(AesBackend::Scalar, 110.0, 9e6), (AesBackend::AesNi, 25.0, 4e7)];
        let mut report = String::new();
        gate_against(&scalar_only_str, AesBackend::Scalar, &mixed, &mut report).unwrap();
        assert!(report.contains("no committed baseline (informational)"), "{report}");
        assert!(!report.contains("gate SKIPPED"), "{report}");
        std::fs::remove_file(&both).ok();
        std::fs::remove_file(&scalar_only).ok();
    }

    #[test]
    fn serve_scaling_ratio_is_8_over_1() {
        let points = vec![(1, 100.0), (2, 110.0), (4, 115.0), (8, 120.0)];
        assert!((serve_scaling_8v1(&points) - 1.2).abs() < 1e-9);
        assert_eq!(serve_scaling_8v1(&[]), 0.0);
    }
}
