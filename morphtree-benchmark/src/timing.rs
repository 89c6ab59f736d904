//! Host-clock helpers for the traced pass: a lap stopwatch that splits one
//! request into contiguous layer regions, the calibrated cost of one lap,
//! per-layer accumulators, and the sampled request spans.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One request in this many keeps its spans.
pub const SPAN_EVERY: u64 = 1000;

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// CPU time this process has used so far, over all its threads, in
/// nanoseconds (Linux `CLOCK_PROCESS_CPUTIME_ID`). Unlike the wall clock it
/// stops while the process waits to run: preempted by another process, or
/// by the hypervisor, which the kernel's steal-time accounting leaves out.
/// Reading it is a system call, so it times calls of milliseconds or more.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, which only writes it.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's process CPU clock and /proc: build it on 64-bit Linux");

/// A stopwatch whose laps tile one request: each [`Laps::lap`] closes the
/// region that began at the previous lap (or at [`Laps::start`]) and
/// charges it to a layer.
pub struct Laps {
    last: Instant,
    laps: Vec<(usize, Instant, Instant)>,
}

impl Laps {
    pub fn new() -> Self {
        Laps {
            last: Instant::now(),
            laps: Vec::with_capacity(64),
        }
    }

    /// Forgets the previous request's laps and starts the first region.
    pub fn start(&mut self) {
        self.laps.clear();
        self.last = Instant::now();
    }

    /// Ends the current region, charging it to `layer`.
    #[inline]
    pub fn lap(&mut self, layer: usize) {
        let now = Instant::now();
        self.laps.push((layer, self.last, now));
        self.last = now;
    }

    /// `(layer, start, end)` of every region since [`Laps::start`].
    pub fn laps(&self) -> &[(usize, Instant, Instant)] {
        &self.laps
    }
}

/// Mean host time an empty lap measures: the clock read and bookkeeping
/// every region carries. The traced pass subtracts it from each region
/// and from each timed call, so the layer sum and the end-to-end mean
/// carry the same (zero) clock cost. The median of several batches keeps
/// one preempted batch from skewing it.
pub fn lap_overhead_ns() -> f64 {
    let mut laps = Laps::new();
    let mut means = Vec::new();
    for _ in 0..9 {
        let mut total = 0.0;
        let mut count = 0u32;
        for _ in 0..2_000 {
            laps.start();
            for _ in 0..8 {
                laps.lap(0);
            }
            total += laps.laps().iter().map(|&(_, s, e)| ns(e - s)).sum::<f64>();
            count += 8;
        }
        means.push(total / f64::from(count));
    }
    crate::stats::median(&means).unwrap_or(0.0)
}

/// Per-layer host time summed over replayed requests.
pub struct LayerSums {
    ns: Vec<f64>,
    requests: u64,
}

impl LayerSums {
    pub fn new(layers: usize) -> Self {
        LayerSums {
            ns: vec![0.0; layers],
            requests: 0,
        }
    }

    /// Adds one request's laps, each less the calibrated lap overhead.
    pub fn add(&mut self, laps: &Laps, overhead_ns: f64) {
        for &(layer, start, end) in laps.laps() {
            self.ns[layer] += ns(end - start) - overhead_ns;
        }
        self.requests += 1;
    }

    /// Mean nanoseconds per request in `layer` (0 before any request).
    pub fn mean(&self, layer: usize) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.ns[layer] / self.requests as f64
        }
    }

    /// The part of `end_to_end_mean` (per request) no layer accounts for;
    /// negative when the replayed layers cost more than the real call.
    pub fn unattributed(&self, end_to_end_mean: f64) -> f64 {
        end_to_end_mean
            - (0..self.ns.len())
                .map(|layer| self.mean(layer))
                .sum::<f64>()
    }
}

/// One timed interval of a sampled request.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Spans of the sampled requests (one in [`SPAN_EVERY`]), kept in memory
/// until the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether request number `request` keeps its spans.
    pub fn sampled(request: u64) -> bool {
        request.is_multiple_of(SPAN_EVERY)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id, for use as a child's parent.
    pub fn push(
        &mut self,
        name: &str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a request span covering `laps`, with one child per lap
    /// named after its layer's metric (less the `_ns` unit suffix).
    pub fn push_laps(&mut self, root: &str, layers: &[&str], laps: &Laps, request: u64) {
        let (Some(first), Some(last)) = (laps.laps().first(), laps.laps().last()) else {
            return;
        };
        let parent = self.push(root, (first.1, last.2), None, request);
        for &(layer, start, end) in laps.laps() {
            let name = layers[layer].trim_end_matches("_ns");
            self.push(name, (start, end), Some(parent), request);
        }
    }

    /// Appends the spans to `path` as JSON lines tagged with `workload`.
    pub fn append_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"request\":{},\"span\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.request, span.name, span.start_ns, span.end_ns
            );
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_is_the_end_to_end_mean_less_every_layer_mean() {
        let mut laps = Laps::new();
        let mut sums = LayerSums::new(3);
        let mut raw = [0.0; 3];
        for _ in 0..4 {
            laps.start();
            std::thread::sleep(Duration::from_micros(200));
            laps.lap(0);
            laps.lap(2);
            std::thread::sleep(Duration::from_micros(100));
            laps.lap(0);
            for &(layer, start, end) in laps.laps() {
                raw[layer] += ns(end - start);
            }
            sums.add(&laps, 5.0);
        }
        // Layer 0 took two laps per request, so it pays the overhead twice.
        assert!((sums.mean(0) - (raw[0] / 4.0 - 10.0)).abs() < 1e-6);
        assert_eq!(sums.mean(1), 0.0);
        assert!((sums.mean(2) - (raw[2] / 4.0 - 5.0)).abs() < 1e-6);
        assert!(sums.mean(0) > 300_000.0);
        let total = sums.mean(0) + sums.mean(1) + sums.mean(2);
        assert!((sums.unattributed(total + 123.0) - 123.0).abs() < 1e-6);
        assert!((sums.unattributed(total - 50.0) + 50.0).abs() < 1e-6);
        assert_eq!(LayerSums::new(2).unattributed(7.0), 7.0);
    }

    #[test]
    fn sampled_requests_keep_a_root_span_and_one_child_per_lap() {
        assert!(SpanLog::sampled(0) && SpanLog::sampled(SPAN_EVERY) && !SpanLog::sampled(1));
        let mut laps = Laps::new();
        laps.start();
        laps.lap(1);
        laps.lap(0);
        let mut log = SpanLog::new();
        log.push_laps("read", &["a_ns", "b_ns"], &laps, 0);
        assert_eq!(log.len(), 3);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].name, "b");
        assert_eq!(log.spans[2].parent, Some(0));
        assert!(
            log.spans[0].start_ns <= log.spans[1].start_ns
                && log.spans[2].end_ns <= log.spans[0].end_ns
        );
    }
}
