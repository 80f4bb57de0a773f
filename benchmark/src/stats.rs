//! Order statistics over timing samples.
//!
//! A timing is reported as its median and one tail percentile. The tail
//! is only as high as the sample supports: a percentile is quoted when at
//! least [`MIN_BEYOND`] samples lie beyond it, otherwise it is lowered
//! until they do (and the lowered value is what callers report, with the
//! percentile actually used).

/// Samples that must lie beyond a quoted tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    samples
}

/// Nearest-rank percentile `q` in `[0, 1]` of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// The highest percentile not above `want` that still has
/// [`MIN_BEYOND`] samples beyond it, never below the median.
pub fn supported_tail(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let highest = 1.0 - MIN_BEYOND as f64 / n as f64;
    want.min(highest).max(0.5)
}

/// The tail percentile `want`, lowered to what the sample supports.
/// Returns `(percentile used, value)`.
pub fn tail(sorted: &[f64], want: f64) -> (f64, f64) {
    let q = supported_tail(sorted.len(), want);
    (q, percentile(sorted, q))
}

/// The median of samples known only by group: `(lower, upper, count)`
/// per half-open interval, ascending. Interpolates linearly inside the
/// group that holds the median, so a quantised measurement (a log2
/// histogram, a whole-millisecond clock) still reads finer than one
/// quantum. 0 when there are no samples.
pub fn grouped_median(groups: &[(f64, f64, u64)]) -> f64 {
    let total: u64 = groups.iter().map(|g| g.2).sum();
    let half = total as f64 / 2.0;
    let mut below = 0.0;
    for &(lower, upper, n) in groups {
        if n > 0 && below + n as f64 >= half {
            return lower + (upper - lower) * (half - below) / n as f64;
        }
        below += n as f64;
    }
    0.0
}

/// Relative gap of `b` against `a` in the direction that counts as worse:
/// positive when `b` is worse than `a`, as a share of `a`.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&sorted(vec![3.0, 1.0, 2.0])), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 200 samples leaves exactly ten beyond: supported.
        assert_eq!(supported_tail(200, 0.95), 0.95);
        // 60 samples support only p83.3.
        let q = supported_tail(60, 0.95);
        assert!((q - (1.0 - 10.0 / 60.0)).abs() < 1e-12);
        let s: Vec<f64> = (1..=60).map(f64::from).collect();
        let (used, v) = tail(&s, 0.95);
        assert_eq!(used, q);
        assert_eq!(v, 50.0, "ten samples (51..=60) lie beyond the quoted value");
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_tail(12, 0.99), 0.5);
        assert_eq!(supported_tail(0, 0.99), 0.5);
        // A generous sample quotes what was asked.
        assert_eq!(supported_tail(20_000, 0.99), 0.99);
    }

    #[test]
    fn grouped_median_interpolates_inside_the_median_group() {
        // 4 in [32,64), 5 in [64,128), 1 in [512,1024): the median (rank 5
        // of 10) is the first of the five in the middle group.
        let groups = [(32.0, 64.0, 4), (64.0, 128.0, 5), (512.0, 1024.0, 1)];
        assert_eq!(grouped_median(&groups), 64.0 + 64.0 * 1.0 / 5.0);
        // Whole-millisecond readings 3,3,3,4: median inside [3,4).
        assert_eq!(
            grouped_median(&[(3.0, 4.0, 3), (4.0, 5.0, 1)]),
            3.0 + 2.0 / 3.0
        );
        assert_eq!(grouped_median(&[]), 0.0);
        assert_eq!(grouped_median(&[(0.0, 1.0, 0)]), 0.0);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, false) < 0.0);
        assert_eq!(worse_by(0.0, 0.0, true), 0.0);
    }
}
