//! Exact order statistics over raw samples, and the metric-name rule.

/// Percentiles the report can name, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly above a percentile before it is reported
/// as supported by the data.
pub const MIN_BEYOND: usize = 10;

/// The exact `p`-th percentile (nearest rank) of `sorted`, which must be in
/// ascending order: the smallest sample with at least `p` % of the samples
/// at or below it.  `None` when there are no samples.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
/// The small slack keeps decimal percentiles such as 99.9 from rounding a
/// whole rank up.
fn rank(n: usize, p: f64) -> usize {
    let exact = p.clamp(0.0, 100.0) * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples a nearest-rank `p`-th percentile leaves above it.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`PERCENTILE_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples above it, or `None` if even the median does not.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Sorts `samples` ascending (NaN-free input).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The median of unsorted `values` (mean of the middle pair for an even
/// count), or `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `true` if `name` is a valid metric name: non-empty, starting with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference nearest-rank percentile: walk the sorted samples and
    /// return the first whose cumulative share reaches `p`.
    fn reference(sorted: &[f64], p: f64) -> f64 {
        let n = sorted.len() as f64;
        for (i, &v) in sorted.iter().enumerate() {
            if (i + 1) as f64 * 100.0 >= p * n - 1e-6 {
                return v;
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn percentiles_match_a_sorted_reference() {
        let mut state = 0x1234_5678_u64;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000, 4321] {
            let mut samples: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 40) as f64
                })
                .collect();
            sort(&mut samples);
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(&samples, p),
                    Some(reference(&samples, p)),
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn exact_small_cases() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(percentile(&s, 50.1), Some(3.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
        // The rule agrees with a direct count on every size it is used at.
        for n in 0..3000 {
            if let Some(p) = highest_supported(n) {
                let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
                sort(&mut v);
                let at = percentile(&v, p).unwrap();
                assert!(v.iter().filter(|&&x| x > at).count() >= MIN_BEYOND);
            }
        }
    }

    #[test]
    fn metric_names() {
        for good in [
            "throughput_tps",
            "proxy.begin_us.p50",
            "a",
            "9lives",
            "x-y_z.0",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "-x",
            "has space",
            "p99%",
            "ü",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }
}
