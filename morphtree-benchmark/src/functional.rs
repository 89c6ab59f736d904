//! `read_wide` and `rw_hot`: one client in a closed loop over one
//! `SecureMemory` in the MorphTree configuration.
//!
//! Both start from the same base image: lines written at a stride of 32,
//! so each level-0 counter line holds four live counters and the image
//! spans the whole memory. `read_wide` reads that image uniformly: every
//! read walks a chain no recent read shared, over a working set larger
//! than L2. `rw_hot` adds a block of contiguous hot lines that fits L2 and
//! sends it pairs of one write and one read; writes bump whole chains and
//! overflow, so it shows what a read-side change costs writes.

use std::collections::BTreeMap;
use std::time::Instant;

use morphtree_core::functional::SecureMemory;
use morphtree_core::obs::JsonValue;
use morphtree_core::tree::TreeConfig;

use crate::shadow::{Shadow, READ_LAYERS, WRITE_LAYERS};
use crate::stats::percentile;
use crate::timing::{lap_overhead_ns, Laps, LayerSums, SpanLog};
use crate::workload::{end_to_end, measure, set_up, Checks, Outcome, Params, Rng, Scale, P99};

/// Input sizes of one scale.
struct Shape {
    memory_bytes: u64,
    /// Lines in the base image.
    base_lines: u64,
    /// Distance between base-image lines.
    stride: u64,
    /// Hot lines of `rw_hot` (a multiple of the 128-line counter arity).
    hot_lines: u64,
    /// Ops generated and checked at a time.
    chunk: usize,
    /// Chunks per measured round.
    round_chunks: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            memory_bytes: 256 << 20,
            base_lines: 131_072,
            stride: 32,
            hot_lines: 4_096,
            chunk: 1_024,
            round_chunks: 32,
        },
        Scale::Smoke => Shape {
            memory_bytes: 1 << 20,
            base_lines: 512,
            stride: 32,
            hot_lines: 128,
            chunk: 256,
            round_chunks: 8,
        },
    }
}

/// Seed offset of the request stream, so set-up and requests draw
/// independent values from one `--seed`.
const REQUEST_STREAM: u64 = 0x5eed_f00d;

#[derive(Clone, Copy)]
enum Req {
    Read { line: u64, expect: [u8; 64] },
    Write { line: u64, data: [u8; 64] },
}

impl Req {
    fn line(&self) -> u64 {
        match *self {
            Req::Read { line, .. } | Req::Write { line, .. } => line,
        }
    }
}

/// The memory under test with the oracle of every line the requests
/// touch, plus the traced pass's shadow.
struct Image {
    mem: SecureMemory,
    shadow: Option<Shadow>,
    base: Vec<[u8; 64]>,
    hot_first: u64,
    hot: Vec<[u8; 64]>,
}

impl Image {
    fn build(shape: &Shape, seed: u64, with_hot: bool, with_shadow: bool) -> Image {
        let mut rng = Rng::new(seed);
        let key = rng.key();
        let config = TreeConfig::morphtree();
        let mut mem = SecureMemory::new(config.clone(), shape.memory_bytes, key);
        let mut shadow = with_shadow.then(|| Shadow::new(&config, shape.memory_bytes, key));
        let mut laps = Laps::new();
        let mut write = |mem: &mut SecureMemory, line: u64, data: &[u8; 64]| {
            mem.write(line, data);
            if let Some(shadow) = shadow.as_mut() {
                shadow.write(line, data, &mut laps);
            }
        };
        let mut base = Vec::with_capacity(shape.base_lines as usize);
        for i in 0..shape.base_lines {
            let data = rng.line();
            write(&mut mem, i * shape.stride, &data);
            base.push(data);
        }
        let mut hot = Vec::new();
        let blocks = shape.memory_bytes / 64 / shape.hot_lines;
        let hot_first = rng.below(blocks) * shape.hot_lines;
        if with_hot {
            for i in 0..shape.hot_lines {
                let data = rng.line();
                write(&mut mem, hot_first + i, &data);
                hot.push(data);
            }
        }
        Image {
            mem,
            shadow,
            base,
            hot_first,
            hot,
        }
    }

    /// Appends the next `count` requests, updating the oracle as the
    /// writes among them will.
    fn next_requests(&mut self, rng: &mut Rng, shape: &Shape, count: usize, reqs: &mut Vec<Req>) {
        if self.hot.is_empty() {
            for _ in 0..count {
                let i = rng.below(shape.base_lines);
                reqs.push(Req::Read {
                    line: i * shape.stride,
                    expect: self.base[i as usize],
                });
            }
        } else {
            for _ in 0..count / 2 {
                let w = rng.below(shape.hot_lines);
                let data = rng.line();
                self.hot[w as usize] = data;
                reqs.push(Req::Write {
                    line: self.hot_first + w,
                    data,
                });
                let r = rng.below(shape.hot_lines);
                reqs.push(Req::Read {
                    line: self.hot_first + r,
                    expect: self.hot[r as usize],
                });
            }
        }
    }

    /// Ops per latency sample: `rw_hot` times each write+read pair as one
    /// request, which keeps its latency distribution single-peaked.
    fn request_ops(&self) -> usize {
        if self.hot.is_empty() {
            1
        } else {
            2
        }
    }
}

/// Runs `read_wide` (`hot == false`) or `rw_hot`.
pub fn run(params: &Params, hot: bool, trace: bool) -> Outcome {
    let shape = shape(params.scale);
    if trace {
        return traced(params, &shape, hot);
    }
    let (mut image, setups) = set_up(|| Image::build(&shape, params.seed, hot, false));
    let mut rng = Rng::new(params.seed ^ REQUEST_STREAM);
    let mut reqs = Vec::with_capacity(shape.chunk);
    let group = image.request_ops();
    let run = measure(params, P99, |round| {
        for _ in 0..shape.round_chunks {
            reqs.clear();
            image.next_requests(&mut rng, &shape, shape.chunk, &mut reqs);
            for request in reqs.chunks(group) {
                let start = Instant::now();
                let mut got = None;
                for op in request {
                    match op {
                        Req::Write { line, data } => image.mem.write(*line, data),
                        Req::Read { line, .. } => got = Some(image.mem.read(*line)),
                    }
                }
                round.latencies_ns.push(start.elapsed().as_nanos() as u64);
                let ok = match (request.last(), got) {
                    (Some(Req::Read { expect, .. }), Some(Ok(data))) => data == *expect,
                    _ => false,
                };
                round.checks.check(ok);
            }
            round.ops += reqs.len() as u64;
        }
    });
    end_to_end(&setups, run, P99)
}

/// Per-op totals of the real memory in the traced pass. The operation
/// counts cover the first round of requests only, so they depend on the
/// seed and the code, not on how many requests the run had time for.
#[derive(Default)]
struct RealTotals {
    /// Each real call's latency as measured, clock read included.
    read_ns: Vec<u64>,
    counted_reads: u64,
    read_macs: u64,
    write_ns: Vec<u64>,
    counted_writes: u64,
    write_macs: u64,
    write_otps: u64,
    write_reencryptions: u64,
}

/// The traced pass: each chunk runs on the real memory (each op timed on
/// its own, with its crypto-op and re-encryption deltas), then replays
/// through the shadow with one lap per layer, then the two trees are
/// compared on every line the chunk touched.
fn traced(params: &Params, shape: &Shape, hot: bool) -> Outcome {
    let mut image = Image::build(shape, params.seed, hot, true);
    let mut shadow = image.shadow.take().expect("built with a shadow");
    let mut rng = Rng::new(params.seed ^ REQUEST_STREAM);
    let overhead = lap_overhead_ns();
    let mut laps = Laps::new();
    let mut reads = LayerSums::new(READ_LAYERS.len());
    let mut writes = LayerSums::new(WRITE_LAYERS.len());
    let mut real = RealTotals::default();
    let mut checks = Checks::default();
    let mut spans = SpanLog::new();
    let mut request = 0u64;
    let mut reqs = Vec::with_capacity(shape.chunk);
    let start = Instant::now();
    let mut chunks = 0;
    while chunks < shape.round_chunks || start.elapsed().as_secs_f64() < params.seconds {
        let counted = u64::from(chunks < shape.round_chunks);
        chunks += 1;
        reqs.clear();
        image.next_requests(&mut rng, shape, shape.chunk, &mut reqs);
        for op in &reqs {
            let ops_before = image.mem.crypto_ops();
            let reencryptions_before = image.mem.reencryptions();
            let begin = Instant::now();
            match op {
                Req::Read { line, expect } => {
                    let got = image.mem.read(*line);
                    real.read_ns.push(begin.elapsed().as_nanos() as u64);
                    let macs = image.mem.crypto_ops().mac_computes - ops_before.mac_computes;
                    real.counted_reads += counted;
                    real.read_macs += counted * macs;
                    checks.check(got.as_ref() == Ok(expect));
                }
                Req::Write { line, data } => {
                    image.mem.write(*line, data);
                    real.write_ns.push(begin.elapsed().as_nanos() as u64);
                    let after = image.mem.crypto_ops();
                    let otps = after.otp_encrypts + after.otp_decrypts
                        - ops_before.otp_encrypts
                        - ops_before.otp_decrypts;
                    real.counted_writes += counted;
                    real.write_macs += counted * (after.mac_computes - ops_before.mac_computes);
                    real.write_otps += counted * otps;
                    real.write_reencryptions +=
                        counted * (image.mem.reencryptions() - reencryptions_before);
                    checks.check(true);
                }
            }
        }
        for op in &reqs {
            match op {
                Req::Read { line, expect } => {
                    let got = shadow.read(*line, &mut laps);
                    reads.add(&laps, overhead);
                    checks.check(got.as_ref() == Some(expect));
                    if SpanLog::sampled(request) {
                        spans.push_laps("read", &READ_LAYERS, &laps, request);
                    }
                }
                Req::Write { line, data } => {
                    shadow.write(*line, data, &mut laps);
                    writes.add(&laps, overhead);
                    checks.check(true);
                    if SpanLog::sampled(request) {
                        spans.push_laps("write", &WRITE_LAYERS, &laps, request);
                    }
                }
            }
            request += 1;
        }
        for op in &reqs {
            checks.check(shadow.counter_of(op.line()) == image.mem.counter_of(op.line()));
        }
        checks.check(shadow.reencryptions() == image.mem.reencryptions());
    }

    // A path the workload never took (writes on `read_wide`) is left out
    // and reads as 0.
    let mut metrics = vec![("trace.clock_overhead_ns", overhead)];
    let mean = |latencies: &[u64]| {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 - overhead
    };
    if !real.read_ns.is_empty() {
        let (n, read_mean) = (real.counted_reads as f64, mean(&real.read_ns));
        real.read_ns.sort_unstable();
        metrics.extend([
            ("read.mean_ns", read_mean),
            ("read.unattributed_ns", reads.unattributed(read_mean)),
            ("functional.macs_per_read", real.read_macs as f64 / n),
        ]);
        metrics.extend(percentile(&real.read_ns, 99.0).map(|p99| ("read.p99_ns", p99)));
        metrics.extend(
            READ_LAYERS
                .iter()
                .enumerate()
                .map(|(i, &name)| (name, reads.mean(i))),
        );
    }
    if !real.write_ns.is_empty() {
        let (n, write_mean) = (real.counted_writes as f64, mean(&real.write_ns));
        real.write_ns.sort_unstable();
        metrics.extend([
            ("write.mean_ns", write_mean),
            ("write.unattributed_ns", writes.unattributed(write_mean)),
            ("functional.macs_per_write", real.write_macs as f64 / n),
            ("functional.otp_per_write", real.write_otps as f64 / n),
            (
                "functional.reencryptions_per_write",
                real.write_reencryptions as f64 / n,
            ),
        ]);
        metrics.extend(percentile(&real.write_ns, 99.0).map(|p99| ("write.p99_ns", p99)));
        metrics.extend(
            WRITE_LAYERS
                .iter()
                .enumerate()
                .map(|(i, &name)| (name, writes.mean(i))),
        );
    }
    let mut details = BTreeMap::new();
    details.insert(
        "reads".to_owned(),
        JsonValue::UInt(real.read_ns.len() as u64),
    );
    details.insert(
        "writes".to_owned(),
        JsonValue::UInt(real.write_ns.len() as u64),
    );
    Outcome {
        checks,
        metrics,
        details,
        spans,
    }
}
