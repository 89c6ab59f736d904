//! `sim_sweep`: the timing plane (trace generation → metadata engine →
//! DRAM), which does no crypto. One request is a round of four
//! `sim::simulate` points — {`mcf` (random, misses the metadata cache),
//! `libquantum` (streaming)} × {`sc64`, `morphtree`} — each exactly the
//! run a figure sweep makes at the experiment runner's default operating
//! point (`Setup::default()`: Table I scaled by 16, 4M warm-up plus 2M
//! measured instructions per core). Simulated results are deterministic:
//! every round must reproduce the set-up round's cycle counts exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use morphtree_core::metadata::{EngineOptions, MemAccess, MetadataEngine};
use morphtree_core::obs::JsonValue;
use morphtree_core::tree::TreeConfig;
use morphtree_experiments::Setup;
use morphtree_sim::cpu::CoreModel;
use morphtree_sim::dram::{DramGeometry, DramModel, DramTiming};
use morphtree_sim::{simulate, SimResult};
use morphtree_trace::{RecordSource, SystemWorkload, TraceRecord};

use crate::timing::{cpu_ns, lap_overhead_ns, ns, SpanLog};
use crate::workload::{
    end_to_end, measure, object, set_up, Checks, Outcome, Params, Rng, Scale, NO_TAIL_FLOOR,
};

/// The sweep's points: benchmark × tree configuration.
const BENCHMARKS: [&str; 2] = ["mcf", "libquantum"];

fn trees() -> [TreeConfig; 2] {
    [TreeConfig::sc64(), TreeConfig::morphtree()]
}

/// The operating point: the figure sweeps' own at full scale, and at smoke
/// scale the smallest memory and cache the runner allows with a few
/// thousand instructions.
fn operating_point(scale: Scale, seed: u64) -> Setup {
    match scale {
        Scale::Full => Setup {
            seed,
            ..Setup::default()
        },
        Scale::Smoke => Setup {
            scale: 256,
            warmup_instructions: 2_000,
            measure_instructions: 2_000,
            seed,
        },
    }
}

fn workload(setup: &Setup, bench: &str) -> SystemWorkload {
    setup
        .workload(bench)
        .expect("the sweep names catalog benchmarks")
}

/// One round: every point, in order.
fn round(setup: &Setup) -> Vec<SimResult> {
    let cfg = setup.sim_config();
    BENCHMARKS
        .iter()
        .flat_map(|bench| trees().map(|tree| simulate(&mut workload(setup, bench), tree, &cfg)))
        .collect()
}

fn cycles(results: &[SimResult]) -> Vec<u64> {
    results.iter().map(|r| r.cycles).collect()
}

/// Each point's simulated outcome, for the details line: what the points
/// are meant to contrast (mcf missing the metadata cache, libquantum
/// streaming through it) as measured.
fn points(results: &[SimResult]) -> JsonValue {
    let names = BENCHMARKS
        .iter()
        .flat_map(|bench| trees().map(|tree| format!("{bench}/{}", tree.name())));
    JsonValue::Array(
        names
            .zip(results)
            .map(|(name, r)| {
                object(vec![
                    ("point", JsonValue::Str(name)),
                    ("cycles", JsonValue::UInt(r.cycles)),
                    (
                        "metadata_cache_hit_rate",
                        r.cache.hit_rate().map_or(JsonValue::Null, JsonValue::Float),
                    ),
                    (
                        "traffic_per_data_access",
                        JsonValue::Float(r.traffic_per_data_access()),
                    ),
                ])
            })
            .collect(),
    )
}

/// Runs `sim_sweep`.
pub fn run(params: &Params, trace: bool) -> Outcome {
    let setup = operating_point(params.scale, Rng::new(params.seed).next_u64());
    if trace {
        return traced(params, &setup);
    }
    // The simulator keeps no state between calls, so its set-up is the
    // reference round every measured round must reproduce.
    let mut setup_checks = Checks::default();
    let mut first: Option<Vec<u64>> = None;
    let (reference, setups) = set_up(|| {
        let results = round(&setup);
        let now = cycles(&results);
        setup_checks.check(first.get_or_insert_with(|| now.clone()) == &now);
        results
    });
    let expected = cycles(&reference);
    let mut run = measure(params, NO_TAIL_FLOOR, |r| {
        let start = cpu_ns();
        let results = round(&setup);
        r.latencies_ns.push(cpu_ns() - start);
        r.ops += results
            .iter()
            .map(|result| result.instructions)
            .sum::<u64>();
        r.checks.check(cycles(&results) == expected);
    });
    run.checks.merge(setup_checks);
    let mut outcome = end_to_end(&setups, run, NO_TAIL_FLOOR);
    outcome
        .details
        .insert("points".to_owned(), points(&reference));
    outcome
}

/// A record source that logs every record it hands out, with its core.
struct Recording {
    inner: SystemWorkload,
    log: Vec<(usize, TraceRecord)>,
}

impl RecordSource for Recording {
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_record(&mut self, core: usize) -> TraceRecord {
        let record = self.inner.next_record(core);
        self.log.push((core, record));
        record
    }
}

/// Host time of one point, whole and by layer, in nanoseconds.
#[derive(Default)]
struct PointTimes {
    simulate: f64,
    records: u64,
    generate: f64,
    engine: f64,
    dram: f64,
    dram_requests: u64,
}

/// Times one point end to end, then replays its record stream through
/// each layer alone: the generator (a fresh workload asked for the same
/// per-core sequence), the metadata engine, and the DRAM model (fed the
/// requests the core model issued). Every replay must reproduce the
/// simulator's own statistics.
fn trace_point(
    bench: &str,
    tree: &TreeConfig,
    setup: &Setup,
    overhead: f64,
    checks: &mut Checks,
) -> (PointTimes, SimResult) {
    let cfg = &setup.sim_config();
    let mut times = PointTimes::default();
    let mut fresh = workload(setup, bench);
    let start = Instant::now();
    let result = simulate(&mut fresh, tree.clone(), cfg);
    times.simulate = ns(start.elapsed()) - overhead;

    let mut recording = Recording {
        inner: workload(setup, bench),
        log: Vec::new(),
    };
    checks.check(simulate(&mut recording, tree.clone(), cfg) == result);
    let log = recording.log;
    times.records = log.len() as u64;

    let mut generator = workload(setup, bench);
    let start = Instant::now();
    let mut same = true;
    for &(core, record) in &log {
        same &= generator.next_record(core) == record;
    }
    times.generate = ns(start.elapsed()) - overhead;
    checks.check(same);

    // `simulate` warms each core in turn before measuring.
    let mut warm = 0;
    for core in 0..cfg.cores {
        let mut instructions = 0;
        while instructions < cfg.warmup_instructions && warm < log.len() {
            instructions += u64::from(log[warm].1.gap) + 1;
            warm += 1;
        }
        checks.check(log[..warm].last().is_some_and(|&(c, _)| c == core));
    }
    let options = EngineOptions {
        mac_mode: cfg.mac_mode,
        verification: cfg.verification,
        replacement: cfg.replacement,
    };
    let mut engine = MetadataEngine::with_options(
        tree.clone(),
        cfg.memory_bytes,
        cfg.metadata_cache_bytes,
        options,
    );
    let mut scratch: Vec<MemAccess> = Vec::with_capacity(512);
    let mut accesses: Vec<MemAccess> = Vec::with_capacity(log.len() * 4);
    let mut ends: Vec<usize> = Vec::with_capacity(log.len());
    let start = Instant::now();
    for (i, &(_, record)) in log.iter().enumerate() {
        if i == warm {
            engine.reset_stats();
        }
        scratch.clear();
        if record.is_write {
            engine.write(record.line, &mut scratch);
        } else {
            engine.read(record.line, &mut scratch);
        }
        if i >= warm {
            accesses.extend_from_slice(&scratch);
            ends.push(accesses.len());
        }
    }
    times.engine = ns(start.elapsed()) - overhead;
    checks.check(*engine.stats() == result.engine && *engine.cache().stats() == result.cache);

    let mut cores: Vec<CoreModel> = (0..cfg.cores)
        .map(|_| CoreModel::new(cfg.fetch_width, cfg.rob_size))
        .collect();
    let mut dram = DramModel::new(DramGeometry::default(), DramTiming::default());
    let mut requests: Vec<(u64, u64, bool)> = Vec::with_capacity(accesses.len());
    let mut begin = 0;
    for (&(core, record), &end) in log[warm..].iter().zip(&ends) {
        let issue = cores[core].advance_to_mem_op(record.gap);
        let mut completion = issue;
        for access in &accesses[begin..end] {
            let finished = dram.request(issue, access.addr, access.is_write);
            requests.push((issue, access.addr, access.is_write));
            if access.critical && !access.is_write {
                completion = completion.max(finished);
            }
        }
        if !record.is_write {
            cores[core].record_load(completion);
        }
        begin = end;
    }
    let finish = cores.iter().map(CoreModel::finish_cycle).max().unwrap_or(0);
    checks.check(finish == result.cycles && *dram.stats() == result.dram);

    let mut timed = DramModel::new(DramGeometry::default(), DramTiming::default());
    let start = Instant::now();
    for &(at, addr, is_write) in &requests {
        std::hint::black_box(timed.request(at, addr, is_write));
    }
    times.dram = ns(start.elapsed()) - overhead;
    times.dram_requests = requests.len() as u64;
    checks.check(*timed.stats() == result.dram);
    (times, result)
}

/// The traced pass: rounds of [`trace_point`] over the four points, at
/// least one. A round holds millions of records, so one is enough for
/// per-record means.
fn traced(params: &Params, setup: &Setup) -> Outcome {
    let overhead = lap_overhead_ns();
    let mut checks = Checks::default();
    let mut spans = SpanLog::new();
    let mut total = PointTimes::default();
    let mut reference: Option<Vec<u64>> = None;
    let mut results: Vec<SimResult> = Vec::new();
    let mut rounds = 0u64;
    let start = Instant::now();
    while rounds < 1 || start.elapsed().as_secs_f64() < params.seconds {
        results.clear();
        let round_start = Instant::now();
        for bench in BENCHMARKS {
            for tree in trees() {
                let (times, result) = trace_point(bench, &tree, setup, overhead, &mut checks);
                total.simulate += times.simulate;
                total.records += times.records;
                total.generate += times.generate;
                total.engine += times.engine;
                total.dram += times.dram;
                total.dram_requests += times.dram_requests;
                results.push(result);
            }
        }
        if SpanLog::sampled(rounds) {
            spans.push("round", (round_start, Instant::now()), None, rounds);
        }
        let now = cycles(&results);
        checks.check(reference.get_or_insert_with(|| now.clone()) == &now);
        rounds += 1;
    }

    let records = total.records as f64;
    let per_record = total.simulate / records;
    let dram_per_request = total.dram / total.dram_requests.max(1) as f64;
    let requests_per_record = total.dram_requests as f64 / records;
    let hits: u64 = results.iter().map(|r| r.cache.hits).sum();
    let probes: u64 = results.iter().map(|r| r.cache.hits + r.cache.misses).sum();
    let row_hits: u64 = results.iter().map(|r| r.dram.row_hits).sum();
    let dram_accesses: u64 = results.iter().map(|r| r.dram.accesses()).sum();
    // Morphtree over sc64 per benchmark (results alternate sc64, morphtree),
    // combined by geometric mean.
    let speedup = results
        .chunks(2)
        .map(|pair| pair[1].speedup_vs(&pair[0]).ln())
        .sum::<f64>()
        / BENCHMARKS.len() as f64;
    let metrics = vec![
        ("sim.ns_per_record", per_record),
        ("trace.gen_ns_per_record", total.generate / records),
        ("metadata.engine_ns_per_record", total.engine / records),
        ("sim.dram_ns_per_request", dram_per_request),
        ("sim.dram_requests_per_record", requests_per_record),
        (
            "sim.unattributed_ns_per_record",
            per_record
                - (total.generate + total.engine) / records
                - dram_per_request * requests_per_record,
        ),
        (
            "metadata.traffic_per_data_access",
            results
                .iter()
                .map(SimResult::traffic_per_data_access)
                .sum::<f64>()
                / results.len() as f64,
        ),
        (
            "metadata.cache_hit_rate",
            hits as f64 / probes.max(1) as f64,
        ),
        (
            "sim.dram_row_hit_rate",
            row_hits as f64 / dram_accesses.max(1) as f64,
        ),
        ("sim.speedup_vs_sc64", speedup.exp()),
        ("trace.clock_overhead_ns", overhead),
    ];
    let mut details = BTreeMap::new();
    details.insert("rounds".to_owned(), JsonValue::UInt(rounds));
    details.insert("records".to_owned(), JsonValue::UInt(total.records));
    details.insert("points".to_owned(), points(&results));
    Outcome {
        checks,
        metrics,
        details,
        spans,
    }
}
