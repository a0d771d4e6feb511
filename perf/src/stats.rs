//! The ledger's one set of order statistics.
//!
//! Every percentile the benchmark reports goes through [`percentile`], so a
//! p99 on one workload is the same statistic as a p99 on another (the crates
//! under test carry four different percentile rules; none is used here).

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it, i.e. the element of
/// 1-based rank `ceil(p/100 * n)`. `None` on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly beyond percentile `p`'s rank among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// Fewest samples beyond a reported tail percentile for it to count as a
/// percentile and not as a restatement of the maximum.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether percentile `p` of `n` samples has [`MIN_SAMPLES_BEYOND`] samples
/// beyond it.
pub fn tail_is_resolved(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Sort a copy of `values` ascending (panics on NaN: a NaN measurement is
/// a harness bug, not a sample).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median with the midpoint convention (mean of the two middle samples for
/// an even count), as Python's `statistics.median`. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), so a spread computed here is the one the
/// driver computes. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // Not interpolated, and never rounds down past the rank: 5 samples,
        // p50 is rank ceil(2.5) = 3.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), Some(30));
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), Some(20));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
    }

    #[test]
    fn tail_guard_wants_ten_samples_beyond() {
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert!(tail_is_resolved(1_000, 99.0));
        assert!(!tail_is_resolved(999, 99.0));
        assert!(tail_is_resolved(200, 95.0));
        assert!(!tail_is_resolved(120, 99.0));
        assert!(!tail_is_resolved(0, 99.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
