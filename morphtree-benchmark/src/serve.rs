//! `serve_batch`: the `morphtree serve` shape through
//! `ShardedMemory::run_batch`, one batch in flight. Batches of 8,192 ops,
//! 80% writes, over 4,096 hot lines per shard, on top of the functional
//! workloads' base image, two shards served by one worker thread. It
//! exercises what the single-memory workloads bypass: queue routing,
//! per-shard drains, and the shared top's recombination.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use morphtree_core::concurrent::{Op, OpOutcome, ShardPlan, ShardQueues, ShardedMemory};
use morphtree_core::functional::SecureMemory;
use morphtree_core::obs::JsonValue;
use morphtree_core::tree::TreeConfig;

use crate::stats::percentile;
use crate::timing::{cpu_ns, lap_overhead_ns, ns, SpanLog};
use crate::workload::{end_to_end, measure, set_up, Checks, Outcome, Params, Rng, Scale, P90};

struct Shape {
    memory_bytes: u64,
    shards: usize,
    base_lines: u64,
    stride: u64,
    hot_per_shard: u64,
    batch: usize,
    round_batches: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            memory_bytes: 256 << 20,
            shards: 2,
            base_lines: 131_072,
            stride: 32,
            hot_per_shard: 4_096,
            batch: 8_192,
            round_batches: 8,
        },
        Scale::Smoke => Shape {
            memory_bytes: 1 << 20,
            shards: 2,
            base_lines: 512,
            stride: 32,
            hot_per_shard: 128,
            batch: 256,
            round_batches: 4,
        },
    }
}

/// Percentage of writes in a batch.
const WRITE_PCT: u64 = 80;

/// Seed offset of the request stream (see `functional`).
const REQUEST_STREAM: u64 = 0x5e7e_ba7c;

/// Worker threads per batch: one, the serve 1-thread point. With two
/// workers on a shared 2-vCPU host the batch latency followed the host's
/// spare parallelism, not the code: 16–25 ms across the seeds of one
/// 10-run set, an interquartile range of 0.33 of the median. With one
/// worker `run_batch` drains the shards on the calling thread, so a
/// batch's CPU time is its latency on an idle core.
pub const WORKERS: usize = 1;

struct Image {
    mem: ShardedMemory,
    /// Oracle of the hot lines, per shard.
    hot: Vec<Vec<[u8; 64]>>,
}

impl Image {
    fn build(shape: &Shape, seed: u64) -> Image {
        let mut rng = Rng::new(seed);
        let key = rng.key();
        let mut mem = ShardedMemory::new(
            TreeConfig::morphtree(),
            shape.memory_bytes,
            key,
            shape.shards,
        )
        .expect("the benchmark's memory splits evenly into its shards");
        for i in 0..shape.base_lines {
            mem.write(i * shape.stride, &rng.line());
        }
        let plan = *mem.plan();
        let hot = (0..shape.shards)
            .map(|s| {
                (0..shape.hot_per_shard)
                    .map(|i| {
                        let data = rng.line();
                        mem.write(plan.shard_base(s) + i, &data);
                        data
                    })
                    .collect()
            })
            .collect();
        mem.recombine();
        Image { mem, hot }
    }

    /// The next batch and the outcome each op must have.
    fn next_batch(&mut self, rng: &mut Rng, shape: &Shape) -> (Vec<Op>, Vec<OpOutcome>) {
        let plan = *self.mem.plan();
        let mut ops = Vec::with_capacity(shape.batch);
        let mut expect = Vec::with_capacity(shape.batch);
        for _ in 0..shape.batch {
            let shard = rng.below(shape.shards as u64) as usize;
            let i = rng.below(shape.hot_per_shard) as usize;
            let line = plan.shard_base(shard) + i as u64;
            if rng.below(100) < WRITE_PCT {
                let data = rng.line();
                self.hot[shard][i] = data;
                ops.push(Op::Write { line, data });
                expect.push(OpOutcome::Written);
            } else {
                ops.push(Op::Read { line });
                expect.push(OpOutcome::Data(self.hot[shard][i]));
            }
        }
        (ops, expect)
    }
}

/// Runs `serve_batch`.
pub fn run(params: &Params, trace: bool) -> Outcome {
    let shape = shape(params.scale);
    if trace {
        return traced(params, &shape);
    }
    let (mut image, setups) = set_up(|| Image::build(&shape, params.seed));
    let mut rng = Rng::new(params.seed ^ REQUEST_STREAM);
    let run = measure(params, P90, |round| {
        for _ in 0..shape.round_batches {
            let (ops, expect) = image.next_batch(&mut rng, &shape);
            let start = cpu_ns();
            let outcomes = image.mem.run_batch(&ops, WORKERS);
            round.latencies_ns.push(cpu_ns() - start);
            round.ops += ops.len() as u64;
            for (got, want) in outcomes.iter().zip(&expect) {
                round.checks.check(got == want);
            }
            round.checks.check(outcomes.len() == expect.len());
        }
    });
    let mut outcome = end_to_end(&setups, run, P90);
    insert_host(&mut outcome.details);
    outcome
}

/// Serve numbers are only read next to the thread and core counts.
fn insert_host(details: &mut BTreeMap<String, JsonValue>) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    details.insert("threads".to_owned(), JsonValue::UInt(WORKERS as u64));
    details.insert("nproc".to_owned(), JsonValue::UInt(nproc as u64));
}

/// Replays one shard's queue on a copy of that shard, serving runs of
/// consecutive reads with one `verify_and_read` as the engine does.
fn drain(
    memory: &mut SecureMemory,
    plan: &ShardPlan,
    queue: VecDeque<(usize, &Op)>,
    out: &mut Vec<(usize, OpOutcome)>,
) {
    fn flush(
        memory: &SecureMemory,
        run: &mut Vec<(usize, u64)>,
        out: &mut Vec<(usize, OpOutcome)>,
    ) {
        if run.len() > 1 {
            let lines: Vec<u64> = run.iter().map(|&(_, local)| local).collect();
            if let Ok(plaintexts) = memory.verify_and_read(&lines) {
                out.extend(
                    run.iter()
                        .zip(plaintexts)
                        .map(|(&(index, _), data)| (index, OpOutcome::Data(data))),
                );
                run.clear();
                return;
            }
        }
        for &(index, local) in run.iter() {
            out.push((
                index,
                memory
                    .read(local)
                    .map_or_else(OpOutcome::Detected, OpOutcome::Data),
            ));
        }
        run.clear();
    }
    let mut run = Vec::new();
    for (index, op) in queue {
        match op {
            Op::Read { line } => run.push((index, plan.local_line(*line))),
            Op::Write { line, data } => {
                flush(memory, &mut run, out);
                memory.write(plan.local_line(*line), data);
                out.push((index, OpOutcome::Written));
            }
            Op::TamperData { .. } | Op::TamperMac { .. } => {
                unreachable!("the benchmark sends no tampering")
            }
        }
    }
    flush(memory, &mut run, out);
}

/// Per-batch totals of the traced pass, in nanoseconds.
#[derive(Default)]
struct Totals {
    /// Each batch's `run_batch_deferred` + `recombine` time as measured.
    batch_ns: Vec<u64>,
    ops: u64,
    route: f64,
    deferred: f64,
    recombine: f64,
    drain_max: f64,
    drain_sum: f64,
    /// The drains a batch waits for: the busiest worker's shards.
    drain_critical: f64,
    imbalance: f64,
    depth_max: usize,
}

/// The traced pass, over at least enough batches for a p90: per batch,
/// routing is replayed with `ShardPlan::shard_of` + `ShardQueues::push`,
/// the real engine runs the batch (`run_batch_deferred`, then
/// `recombine`), and each shard's queue is drained again, alone, on a copy
/// of that shard to time it.
fn traced(params: &Params, shape: &Shape) -> Outcome {
    let mut image = Image::build(shape, params.seed);
    let plan = *image.mem.plan();
    let mut copies: Vec<SecureMemory> = (0..plan.shards())
        .map(|s| image.mem.shard(s).clone())
        .collect();
    let mut rng = Rng::new(params.seed ^ REQUEST_STREAM);
    let overhead = lap_overhead_ns();
    let mut totals = Totals::default();
    let mut checks = Checks::default();
    let mut spans = SpanLog::new();
    let start = Instant::now();
    while totals.batch_ns.len() < shape.round_batches.max(P90.min_samples)
        || start.elapsed().as_secs_f64() < params.seconds
    {
        let (ops, expect) = image.next_batch(&mut rng, shape);
        let request = totals.batch_ns.len() as u64;

        let t0 = Instant::now();
        let mut queues = ShardQueues::new(&plan);
        for (index, op) in ops.iter().enumerate() {
            queues.push(plan.shard_of(op.line()), index, op);
        }
        let t1 = Instant::now();
        let outcomes = image.mem.run_batch_deferred(&ops, WORKERS);
        let t2 = Instant::now();
        image.mem.recombine();
        let t3 = Instant::now();
        for (got, want) in outcomes.iter().zip(&expect) {
            checks.check(got == want);
        }
        checks.check(outcomes.len() == expect.len());

        let mut drains = Vec::with_capacity(plan.shards());
        let mut replayed = Vec::with_capacity(ops.len());
        for (s, copy) in copies.iter_mut().enumerate() {
            totals.depth_max = totals.depth_max.max(queues.depth(s));
            let begin = Instant::now();
            drain(copy, &plan, queues.take(s), &mut replayed);
            let end = Instant::now();
            drains.push(ns(end - begin) - overhead);
            if SpanLog::sampled(request) {
                spans.push(
                    &format!("concurrent.drain.shard{s}"),
                    (begin, end),
                    None,
                    request,
                );
            }
        }
        for (index, got) in &replayed {
            checks.check(*got == expect[*index]);
        }
        checks.check(replayed.len() == expect.len());
        if SpanLog::sampled(request) {
            let root = spans.push("batch", (t0, t3), None, request);
            spans.push("concurrent.route", (t0, t1), Some(root), request);
            spans.push("concurrent.deferred", (t1, t2), Some(root), request);
            spans.push("concurrent.recombine", (t2, t3), Some(root), request);
        }

        let drain_max = drains.iter().copied().fold(0.0, f64::max);
        let drain_sum: f64 = drains.iter().sum();
        totals.batch_ns.push((t3 - t1).as_nanos() as u64);
        totals.ops += ops.len() as u64;
        totals.route += ns(t1 - t0) - overhead;
        totals.deferred += ns(t2 - t1) - overhead;
        totals.recombine += ns(t3 - t2) - overhead;
        totals.drain_max += drain_max;
        totals.drain_sum += drain_sum;
        // The engine hands each worker a contiguous chunk of shards.
        let per_worker = drains.chunks(plan.shards().div_ceil(WORKERS));
        totals.drain_critical += per_worker
            .map(|chunk| chunk.iter().sum())
            .fold(0.0, f64::max);
        totals.imbalance += drain_max / (drain_sum / drains.len() as f64);
    }

    let batches = totals.batch_ns.len() as u64;
    totals.batch_ns.sort_unstable();
    let per_batch = |total: f64| total / batches as f64;
    let batch_ns = per_batch(totals.deferred + totals.recombine);
    let metrics = vec![
        ("serve.batch_mean_ms", batch_ns / 1e6),
        (
            "serve.batch_p90_ms",
            percentile(&totals.batch_ns, 90.0).unwrap_or(0.0) / 1e6,
        ),
        (
            "concurrent.route_ns_per_op",
            totals.route / totals.ops as f64,
        ),
        ("concurrent.deferred_ms", per_batch(totals.deferred) / 1e6),
        ("concurrent.drain_ms_max", per_batch(totals.drain_max) / 1e6),
        ("concurrent.drain_ms_sum", per_batch(totals.drain_sum) / 1e6),
        ("concurrent.drain_imbalance", per_batch(totals.imbalance)),
        ("concurrent.recombine_us", per_batch(totals.recombine) / 1e3),
        ("concurrent.queue_depth_max", totals.depth_max as f64),
        (
            "serve.unattributed_ms",
            (batch_ns - per_batch(totals.route + totals.drain_critical + totals.recombine)) / 1e6,
        ),
        ("trace.clock_overhead_ns", overhead),
    ];
    let mut details = BTreeMap::new();
    details.insert("batches".to_owned(), JsonValue::UInt(batches));
    insert_host(&mut details);
    Outcome {
        checks,
        metrics,
        details,
        spans,
    }
}
