//! Plumbing shared by the five workloads: parameters, the seeded input
//! generator, repeated set-up, the measured round loop, and the
//! end-to-end metrics every workload reports.

use std::collections::BTreeMap;
use std::time::Instant;

use morphtree_core::obs::JsonValue;

use crate::stats::{median, percentile, round_percentile};
use crate::timing::{cpu_ns, SpanLog};

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "read_wide",
    "rw_hot",
    "serve_batch",
    "recover_bounded",
    "sim_sweep",
];

/// How many times a run builds its initial state; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Fewest measured rounds per run, however short `--seconds` is: enough
/// that the [`FAST_ROUNDS`] percentile is not just the fastest round.
pub const MIN_ROUNDS: usize = 10;

/// Input sizes: `Full` is the benchmark; `Smoke` is a seconds-long
/// miniature of every workload for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// SplitMix64: the benchmark's only source of inputs. The library code
/// under test never sees the seed, only what this generates.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn key(&mut self) -> [u8; 16] {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&self.next_u64().to_le_bytes());
        key[8..].copy_from_slice(&self.next_u64().to_le_bytes());
        key
    }

    pub fn line(&mut self) -> [u8; 64] {
        let mut line = [0u8; 64];
        for chunk in line.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        line
    }
}

/// Output checks: how many were made and how many failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one workload run reports.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64)>,
    pub details: BTreeMap<String, JsonValue>,
    pub spans: SpanLog,
}

/// Builds the initial state [`SETUPS`] times, dropping each before the
/// next so peak memory holds one copy, and returns the last one with the
/// set-up times in seconds of CPU time ([`cpu_ns`]): every set-up runs on
/// one thread, so on an idle core that is its wall time, and on a shared
/// host it leaves out the time the process was preempted.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let start = cpu_ns();
        let built = build();
        times.push((cpu_ns() - start) as f64 / 1e9);
        state = Some(built);
    }
    match state {
        Some(state) => (state, times),
        None => unreachable!("SETUPS > 0"),
    }
}

/// One measured round: each request's latency, the ops those requests
/// carried, and the output checks made.
#[derive(Default)]
pub struct Round {
    pub latencies_ns: Vec<u64>,
    pub ops: u64,
    pub checks: Checks,
}

impl Round {
    /// Ops per second of time spent inside the system under test.
    fn ops_per_s(&self) -> f64 {
        let busy_s = self.latencies_ns.iter().sum::<u64>() as f64 / 1e9;
        self.ops as f64 / busy_s
    }
}

/// How a workload's latencies are summarized: the tail percentile it can
/// support and the fewest samples that percentile needs.
#[derive(Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub min_samples: usize,
}

/// p99: needs 1,000 samples (ten beyond it).
pub const P99: Tail = Tail {
    percentile: 99.0,
    min_samples: 1_000,
};
/// p90: needs 100 samples (ten beyond it).
pub const P90: Tail = Tail {
    percentile: 90.0,
    min_samples: 100,
};
/// A p90 that asks for no extra rounds: for a workload of a few requests
/// of seconds each, whose tail then reads null.
pub const NO_TAIL_FLOOR: Tail = Tail {
    percentile: 90.0,
    min_samples: 0,
};

/// The measured rounds of a run, the output checks of every round
/// (warm-up included), and the process's peak memory at the end of the
/// warm-up round.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub checks: Checks,
    pub peak_rss_mib: f64,
}

/// Runs one unreported warm-up round, then measured rounds until
/// `seconds` have passed, at least [`MIN_ROUNDS`] rounds ran and `tail`
/// has enough samples.
///
/// Peak memory is read after the warm-up round, which has done every kind
/// of work the run does: it is the system's peak at the workload's size.
/// Read at the end it would also hold the latency samples, whose number
/// grows with the system's speed.
pub fn measure(params: &Params, tail: Tail, mut round: impl FnMut(&mut Round)) -> Measured {
    let mut warm = Round::default();
    round(&mut warm);
    let peak_rss_mib = peak_rss_mib();
    let mut checks = warm.checks;
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut samples = 0;
    while rounds.len() < MIN_ROUNDS
        || samples < tail.min_samples
        || start.elapsed().as_secs_f64() < params.seconds
    {
        let mut next = Round::default();
        round(&mut next);
        samples += next.latencies_ns.len();
        checks.merge(next.checks);
        rounds.push(next);
    }
    Measured {
        rounds,
        checks,
        peak_rss_mib,
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn floats(values: impl IntoIterator<Item = f64>) -> JsonValue {
    JsonValue::Array(values.into_iter().map(JsonValue::Float).collect())
}

pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Which of its rounds a run reports: the [`FAST_ROUNDS`]th percentile of
/// the rounds' median latencies, and the matching percentile from the top
/// of their throughputs — of 100 rounds, the 10th fastest.
///
/// On a shared host the core under the process alternates, over seconds,
/// between full speed and running up to 1.7x slower; a median over a whole
/// run measured how long the run spent in each state. Contention from
/// outside the process only ever adds time, so the fast end of the rounds
/// is the code's own cost.
pub const FAST_ROUNDS: f64 = 10.0;

/// The end-to-end metrics of a measured run: median set-up time, the
/// median request latency and the ops per second of the run's fast rounds
/// ([`FAST_ROUNDS`]), and peak memory — with the per-round values and
/// sample counts behind each, and the median over all requests and the
/// tail latency, which only the details carry.
pub fn end_to_end(setups_s: &[f64], run: Measured, tail: Tail) -> Outcome {
    let rounds = &run.rounds;
    let mut latencies: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let pooled_p50 = percentile(&latencies, 50.0).unwrap_or(f64::NAN);
    let rates: Vec<f64> = rounds.iter().map(Round::ops_per_s).collect();
    let round_p50: Vec<f64> = rounds
        .iter()
        .map(|round| {
            let mut sorted = round.latencies_ns.clone();
            sorted.sort_unstable();
            percentile(&sorted, 50.0).unwrap_or(f64::NAN) / 1e3
        })
        .collect();
    let p50_us = round_percentile(&round_p50, FAST_ROUNDS).unwrap_or(f64::NAN);
    let ops_per_s = round_percentile(&rates, 100.0 - FAST_ROUNDS).unwrap_or(f64::NAN);
    let samples = JsonValue::UInt(latencies.len() as u64);
    let mut details = BTreeMap::new();
    details.insert(
        "setup_s".to_owned(),
        object(vec![("values", floats(setups_s.iter().copied()))]),
    );
    details.insert(
        "p50_us".to_owned(),
        object(vec![
            ("samples", samples.clone()),
            ("all_requests", JsonValue::Float(pooled_p50 / 1e3)),
            ("rounds", floats(round_p50)),
        ]),
    );
    let tail_us = percentile(&latencies, tail.percentile)
        .map_or(JsonValue::Null, |ns| JsonValue::Float(ns / 1e3));
    details.insert(
        "tail_us".to_owned(),
        object(vec![
            ("percentile", JsonValue::Float(tail.percentile)),
            ("samples", samples),
            ("value", tail_us),
        ]),
    );
    details.insert(
        "ops_per_s".to_owned(),
        object(vec![
            (
                "median_round",
                JsonValue::Float(median(&rates).unwrap_or(f64::NAN)),
            ),
            ("rounds", floats(rates.iter().copied())),
            (
                "ops",
                JsonValue::Array(rounds.iter().map(|r| JsonValue::UInt(r.ops)).collect()),
            ),
        ]),
    );
    Outcome {
        checks: run.checks,
        metrics: vec![
            ("setup_s", median(setups_s).unwrap_or(f64::NAN)),
            ("p50_us", p50_us),
            ("ops_per_s", ops_per_s),
            ("rss_mib", run.peak_rss_mib),
        ],
        details,
        spans: SpanLog::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_below_stays_in_range() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..100 {
            let x = a.below(37);
            assert_eq!(x, b.below(37));
            assert!(x < 37);
        }
        assert_ne!(Rng::new(1).line(), Rng::new(2).line());
    }

    #[test]
    fn measure_honours_the_round_and_sample_floors() {
        let params = Params {
            seed: 0,
            seconds: 0.0,
            scale: Scale::Smoke,
        };
        let mut calls = 0;
        let run = measure(&params, P90, |round| {
            calls += 1;
            round.latencies_ns.extend([5, 6, 7]);
            round.ops = 3;
            round.checks.check(true);
        });
        // 100 samples at 3 per round: 34 measured rounds plus the warm-up.
        assert_eq!(run.rounds.len(), 34);
        assert_eq!(calls, 35);
        assert_eq!(run.checks.attempted, 35);
        assert!(run.peak_rss_mib > 0.0);
        let outcome = end_to_end(&[1.0, 3.0, 2.0], run, P90);
        let metric = |name| outcome.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        assert_eq!(metric("setup_s"), Some(2.0));
        assert_eq!(metric("p50_us"), Some(0.006));
        assert_eq!(metric("ops_per_s"), Some(3.0 / 18e-9));
        let tail = outcome.details.get("tail_us").and_then(|t| t.get("value"));
        assert_eq!(tail, Some(&JsonValue::Float(0.007)));
    }
}
