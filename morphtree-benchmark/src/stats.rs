//! Order statistics for latency samples and run-to-run comparisons.

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported: below that, the "p99" of a run is one or two outliers.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The `p`th percentile of `sorted` samples, by linear interpolation between
/// the closest ranks.
///
/// Returns `None` for no samples, for `p` outside `[0, 100]`, and for a
/// tail percentile (above the median) with fewer than [`MIN_BEYOND_TAIL`]
/// samples beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let n = sorted.len();
    if p > 50.0 {
        let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
        if beyond < MIN_BEYOND_TAIL {
            return None;
        }
    }
    Some(interpolate(n, p, |i| sorted[i] as f64))
}

/// The `p`th percentile of per-round `values` (any order), by the same
/// interpolation, with no tail floor: a run reports a low percentile of
/// its rounds, not a tail of its requests. `None` for no values or `p`
/// outside `[0, 100]`.
pub fn round_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(interpolate(sorted.len(), p, |i| sorted[i]))
}

/// Linear interpolation between the closest ranks of `n > 0` sorted values.
fn interpolate(n: usize, p: f64, value: impl Fn(usize) -> f64) -> f64 {
    let rank = (n - 1) as f64 * p / 100.0;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let frac = rank - low as f64;
    value(low) * (1.0 - frac) + value(high) * frac
}

/// Median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, mid, _)| mid)
}

/// First quartile, median and third quartile of `values`, computed like
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so spreads read the same as in any external check of the results. One
/// value is its own three quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&samples, 99.0), None, "9 samples beyond p99");
        let samples: Vec<u64> = (0..1000).collect();
        assert!(
            percentile(&samples, 99.0).is_some(),
            "10 samples beyond p99"
        );
        let few: Vec<u64> = (0..99).collect();
        assert_eq!(percentile(&few, 90.0), None);
        let enough: Vec<u64> = (0..100).collect();
        assert!(percentile(&enough, 90.0).is_some());
        // The median and lower percentiles need only one sample.
        assert_eq!(percentile(&[7], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1, 2], f64::NAN), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), Some(25.0));
        assert_eq!(percentile(&[10, 20, 30], 50.0), Some(20.0));
        assert_eq!(percentile(&[10, 20, 30], 0.0), Some(10.0));
        // Rounds: any order, any share, no tail floor.
        let rounds = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(round_percentile(&rounds, 12.5), Some(15.0));
        assert_eq!(round_percentile(&rounds, 87.5), Some(45.0));
        assert_eq!(round_percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(round_percentile(&[], 10.0), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(quartiles(&[]), None);
    }
}
