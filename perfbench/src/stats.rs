//! Sample summaries: medians and the tail-percentile rule.

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` of `xs`, if at least [`MIN_BEYOND`] samples
/// lie above it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let rank = rank(xs.len(), p)?;
    Some(sorted(xs)[rank - 1])
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9) that has at
/// least [`MIN_BEYOND`] samples beyond it, with its value.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find_map(|&p| percentile(xs, p).map(|v| (p, v)))
}

/// One-based nearest rank of percentile `p` among `n` samples, when the
/// rule allows reporting it.
fn rank(n: usize, p: f64) -> Option<usize> {
    // In exact integer per-mille arithmetic: float products such as
    // 0.999 * 10000 land a hair above the integer and would round up.
    let permille = (p * 10.0).round() as usize;
    let rank = (permille * n).div_ceil(1000);
    (rank >= 1 && n - rank.min(n) >= MIN_BEYOND).then_some(rank)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Human-readable sample summary: the count and the highest supported
/// tail percentile.
pub fn describe(xs: &[f64]) -> String {
    match tail(xs) {
        Some((p, v)) => format!("{} samples, p{p} {v:.4}", xs.len()),
        None => format!("{} samples, too few for a percentile", xs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p50 of 20: rank 10, ten above it.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        // p90 of 100: rank 90, ten above it; 99 samples leave only nine.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
    }

    #[test]
    fn tail_reports_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(5)), None);
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(150)), Some((90.0, 135.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn describe_states_the_sample_count() {
        assert_eq!(describe(&ramp(7)), "7 samples, too few for a percentile");
        assert_eq!(describe(&ramp(150)), "150 samples, p90 135.0000");
    }
}
