//! `recover_bounded`: epoch-bounded crash recovery of a 256 MiB
//! `EpochMemory` — a sealed history of 65,536 writes plus an open epoch of
//! 4,096 — through `recover_bounded(snapshot, wal)`. Each recovery decodes
//! the snapshot, parses the WAL, replays the open epoch and re-verifies
//! the lines it touched.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use morphtree_core::obs::JsonValue;
use morphtree_core::persist::{
    load_memory, recover_bounded, replay_epochs, EpochMemory, RecoveryMode, WalRecord,
};
use morphtree_core::tree::TreeConfig;

use crate::timing::{cpu_ns, lap_overhead_ns, ns, SpanLog};
use crate::workload::{end_to_end, measure, set_up, Checks, Outcome, Params, Rng, Scale, P90};

struct Shape {
    memory_bytes: u64,
    /// Writes sealed into the snapshot.
    history: u64,
    /// Writes of the open epoch, in the WAL.
    open: u64,
    /// Recoveries per measured round.
    round: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            memory_bytes: 256 << 20,
            history: 65_536,
            open: 4_096,
            round: 1,
        },
        Scale::Smoke => Shape {
            memory_bytes: 1 << 20,
            history: 512,
            open: 64,
            round: 1,
        },
    }
}

/// The durable state a crash leaves, and the root the recovered memory
/// must reproduce.
struct Image {
    snapshot: Vec<u8>,
    wal: Vec<u8>,
    root: u64,
}

impl Image {
    fn build(shape: &Shape, seed: u64) -> Image {
        let mut rng = Rng::new(seed);
        let key = rng.key();
        let lines = shape.memory_bytes / 64;
        let mut mem = EpochMemory::new(TreeConfig::morphtree(), shape.memory_bytes, key, 0);
        for _ in 0..shape.history {
            mem.write(rng.below(lines), &rng.line());
        }
        mem.cut();
        for _ in 0..shape.open {
            mem.write(rng.below(lines), &rng.line());
        }
        Image {
            snapshot: mem.sealed_snapshot(),
            wal: mem.wal_bytes().to_vec(),
            root: mem.memory().root_digest(),
        }
    }
}

/// Runs `recover_bounded`.
pub fn run(params: &Params, trace: bool) -> Outcome {
    let shape = shape(params.scale);
    if trace {
        return traced(params, &shape);
    }
    let (image, setups) = set_up(|| Image::build(&shape, params.seed));
    let run = measure(params, P90, |round| {
        for _ in 0..shape.round {
            let start = cpu_ns();
            let recovered = recover_bounded(&image.snapshot, &image.wal);
            round.latencies_ns.push(cpu_ns() - start);
            round.ops += 1;
            round.checks.check(matches!(
                &recovered,
                Ok((mem, stats)) if stats.mode == RecoveryMode::Bounded && mem.root_digest() == image.root
            ));
        }
    });
    end_to_end(&setups, run, P90)
}

/// The traced pass: each real recovery is followed by the phases it is
/// made of, timed alone — `load_memory` (decode), `replay_epochs` (WAL
/// parse) and `verify_lines` over the touched lines on the recovered
/// memory (verify). Replay is the remainder: applying WAL records has no
/// public entry point of its own.
fn traced(params: &Params, shape: &Shape) -> Outcome {
    let image = Image::build(shape, params.seed);
    let overhead = lap_overhead_ns();
    let mut checks = Checks::default();
    let mut spans = SpanLog::new();
    let (mut total, mut decode, mut parse, mut verify) = (0.0, 0.0, 0.0, 0.0);
    let (mut replayed_txns, mut verified_lines) = (0usize, 0usize);
    let mut recoveries = 0u64;
    let start = Instant::now();
    while recoveries < 3 || start.elapsed().as_secs_f64() < params.seconds {
        let t0 = Instant::now();
        let recovered = recover_bounded(&image.snapshot, &image.wal);
        let t1 = Instant::now();
        let Ok((mem, stats)) = recovered else {
            checks.check(false);
            break;
        };
        checks.check(stats.mode == RecoveryMode::Bounded && mem.root_digest() == image.root);

        let d0 = Instant::now();
        let decoded = load_memory(&image.snapshot);
        let d1 = Instant::now();
        checks.check(decoded.is_ok());
        drop(decoded);

        let p0 = Instant::now();
        let epochs = replay_epochs(&image.wal);
        let p1 = Instant::now();
        let touched: Vec<u64> = match &epochs {
            Ok(epochs) => {
                let sealed = epochs.seals.last().map_or(0, |point| point.txns_before);
                let lines: BTreeSet<u64> = epochs.txns[sealed..]
                    .iter()
                    .flat_map(|txn| &txn.records)
                    .filter_map(|record| match record {
                        WalRecord::DataLine { line, .. } => Some(*line),
                        _ => None,
                    })
                    .collect();
                lines.into_iter().collect()
            }
            Err(_) => Vec::new(),
        };
        checks.check(epochs.is_ok() && touched.len() == stats.verified_lines);

        let v0 = Instant::now();
        let verified = mem.verify_lines(&touched);
        let v1 = Instant::now();
        checks.check(verified.is_ok());

        if SpanLog::sampled(recoveries) {
            let root = spans.push("recover", (t0, t1), None, recoveries);
            spans.push("persist.decode", (d0, d1), Some(root), recoveries);
            spans.push("persist.wal_parse", (p0, p1), Some(root), recoveries);
            spans.push("persist.verify", (v0, v1), Some(root), recoveries);
        }
        total += ns(t1 - t0) - overhead;
        decode += ns(d1 - d0) - overhead;
        parse += ns(p1 - p0) - overhead;
        verify += ns(v1 - v0) - overhead;
        replayed_txns = stats.replayed_txns;
        verified_lines = stats.verified_lines;
        recoveries += 1;
    }

    let per_ms = |total: f64| total / recoveries.max(1) as f64 / 1e6;
    let metrics = vec![
        ("recover.mean_ms", per_ms(total)),
        ("persist.decode_ms", per_ms(decode)),
        ("persist.wal_parse_ms", per_ms(parse)),
        ("persist.verify_ms", per_ms(verify)),
        ("persist.replay_ms", per_ms(total - decode - parse - verify)),
        ("persist.snapshot_bytes", image.snapshot.len() as f64),
        ("persist.wal_bytes", image.wal.len() as f64),
        ("persist.replayed_txns", replayed_txns as f64),
        ("persist.verified_lines", verified_lines as f64),
        ("trace.clock_overhead_ns", overhead),
    ];
    let mut details = BTreeMap::new();
    details.insert("recoveries".to_owned(), JsonValue::UInt(recoveries));
    Outcome {
        checks,
        metrics,
        details,
        spans,
    }
}
