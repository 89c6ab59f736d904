//! The command-line contract, end to end through the built binary: every
//! workload at smoke scale ends its output with one result line that names
//! exactly the metrics — and units — `BENCHMARK.json` declares for its
//! pass, and its traced pass measures every layer it reaches; `run` and
//! `compare` work on each other's files; bad arguments print no result and
//! exit non-zero.

use std::path::PathBuf;
use std::process::{Command, Output};

use morphtree_core::obs::{parse_json, JsonValue};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_morphtree-benchmark"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `spec` lists under `key`, sorted.
fn declared(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = spec
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect();
    metrics.sort();
    metrics
}

/// The per-layer metrics each workload's traced pass must measure (read
/// non-zero) at smoke scale. Together they cover every declared per-layer
/// metric but the `*.unattributed_*` remainders, which may be any sign.
const REACHED: [(&str, &[&str]); 5] = [
    (
        "read_wide",
        &[
            "read.mean_ns",
            "read.p99_ns",
            "store.lookup_ns",
            "counters.encode_ns",
            "mac.chain_ns",
            "mac.data_ns",
            "otp.decrypt_ns",
            "functional.macs_per_read",
            "trace.clock_overhead_ns",
            "trace.spans",
        ],
    ),
    (
        "rw_hot",
        &[
            "read.mean_ns",
            "read.p99_ns",
            "write.mean_ns",
            "write.p99_ns",
            "store.lookup_ns",
            "store.write_ns",
            "counters.encode_ns",
            "counters.increment_ns",
            "counters.encode_write_ns",
            "mac.chain_ns",
            "mac.data_ns",
            "mac.refresh_ns",
            "mac.data_write_ns",
            "otp.decrypt_ns",
            "otp.encrypt_ns",
            "otp.reencrypt_ns",
            "functional.macs_per_read",
            "functional.macs_per_write",
            "functional.otp_per_write",
            "functional.reencryptions_per_write",
        ],
    ),
    (
        "serve_batch",
        &[
            "serve.batch_mean_ms",
            "serve.batch_p90_ms",
            "concurrent.route_ns_per_op",
            "concurrent.deferred_ms",
            "concurrent.drain_ms_max",
            "concurrent.drain_ms_sum",
            "concurrent.drain_imbalance",
            "concurrent.recombine_us",
            "concurrent.queue_depth_max",
        ],
    ),
    (
        "recover_bounded",
        &[
            "recover.mean_ms",
            "persist.decode_ms",
            "persist.wal_parse_ms",
            "persist.replay_ms",
            "persist.verify_ms",
            "persist.snapshot_bytes",
            "persist.wal_bytes",
            "persist.replayed_txns",
            "persist.verified_lines",
        ],
    ),
    (
        "sim_sweep",
        &[
            "sim.ns_per_record",
            "trace.gen_ns_per_record",
            "metadata.engine_ns_per_record",
            "sim.dram_ns_per_request",
            "sim.dram_requests_per_record",
            "metadata.traffic_per_data_access",
            "metadata.cache_hit_rate",
            "sim.dram_row_hit_rate",
            "sim.speedup_vs_sc64",
        ],
    ),
];

fn last_line(output: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_json(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let spec = spec();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(
        workloads,
        [
            "read_wide",
            "rw_hot",
            "serve_batch",
            "recover_bounded",
            "sim_sweep"
        ]
    );
    for workload in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = benchmark(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0",
                "--scale",
                "smoke",
                "--trace",
                trace,
            ]);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {output:?}"
            );
            let result = last_line(&output);
            let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(
                result.get("attempted").and_then(JsonValue::as_u64) >= Some(1),
                "{workload}"
            );
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics");
            let mut emitted: Vec<(String, String)> = Vec::new();
            for (name, entry) in metrics {
                let keys: Vec<&String> = entry.as_object().expect("metric object").keys().collect();
                assert_eq!(keys, ["unit", "value"], "{workload} {name}");
                let value = entry
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .expect("a number");
                assert!(value.is_finite(), "{workload} {name}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload} {name} must never read 0");
                }
                let unit = entry
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("a unit");
                emitted.push((name.clone(), unit.to_owned()));
            }
            assert_eq!(emitted, declared(&spec, key), "{workload} trace {trace}");
            if key == "per_layer" {
                let reached = REACHED
                    .iter()
                    .find(|(w, _)| *w == workload)
                    .map_or(&[][..], |(_, names)| names);
                for name in reached {
                    let value = metrics
                        .get(*name)
                        .and_then(|m| m.get("value"))
                        .and_then(JsonValue::as_f64);
                    assert!(
                        value.is_some_and(|v| v != 0.0),
                        "{workload} must measure {name}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_reached_layers_cover_every_per_layer_metric() {
    for (name, _) in declared(&spec(), "per_layer") {
        assert!(
            name.contains(".unattributed_")
                || REACHED
                    .iter()
                    .any(|(_, names)| names.contains(&name.as_str())),
            "no workload is required to measure {name}"
        );
    }
}

#[test]
fn run_writes_results_that_compare_reads() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let results = dir.join("contract-results.json");
    let spans = dir.join("contract-spans.jsonl");
    let output = benchmark(&[
        "run",
        "--seed",
        "4",
        "--seconds",
        "0",
        "--scale",
        "smoke",
        "--workload",
        "recover_bounded",
        "--out",
        results.to_str().expect("utf-8 path"),
        "--trace-out",
        spans.to_str().expect("utf-8 path"),
    ]);
    assert!(output.status.success(), "{output:?}");
    let record = parse_json(&std::fs::read_to_string(&results).expect("results written"))
        .expect("results parse");
    let host = record.get("host").expect("host record");
    for field in [
        "nproc",
        "threads",
        "cpu_features",
        "aes_backend",
        "git_rev",
        "seed",
        "profile",
    ] {
        assert!(host.get(field).is_some(), "host record lacks {field}");
    }
    let workload = record
        .get("workloads")
        .and_then(|w| w.get("recover_bounded"))
        .expect("workload");
    for pass in ["end_to_end", "traced"] {
        let result = workload.get(pass).expect("both passes");
        assert_eq!(
            result.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{pass}"
        );
        assert!(result.get("details").is_some(), "{pass} keeps its details");
    }
    let spans = std::fs::read_to_string(&spans).expect("spans written");
    assert!(
        spans
            .lines()
            .any(|line| line.contains("\"name\":\"persist.decode\"")),
        "{spans}"
    );

    let path = results.to_str().expect("utf-8 path");
    let compared = benchmark(&["compare", "--base", path, "--change", path]);
    assert!(compared.status.success(), "{compared:?}");
    let table = String::from_utf8_lossy(&compared.stdout);
    for row in [
        ["p50_us", "within bound"],
        ["fail_frac", "within bound"],
        ["persist.verified_lines", "exact"],
    ] {
        assert!(
            table.lines().any(|line| line.starts_with("recover_bounded")
                && line.contains(row[0])
                && line.contains(row[1])),
            "{row:?} in {table}"
        );
    }
}

#[test]
fn bad_arguments_print_no_result_and_fail() {
    for args in [
        &[][..],
        &["--workload", "nope", "--seed", "1"],
        &["--workload", "read_wide"],
        &["--workload", "read_wide", "--seed", "x"],
        &["--workload", "read_wide", "--seed", "1", "--trace", "2"],
        &["--workload", "read_wide", "--seed", "1", "--bogus", "1"],
    ] {
        let output = benchmark(args);
        assert!(!output.status.success(), "{args:?}");
        assert!(
            output.stdout.is_empty(),
            "{args:?} printed {:?}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}
