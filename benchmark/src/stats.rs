//! Order statistics for latency samples.

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest percentile (as a fraction) that leaves at least ten samples
/// beyond it in a sample of `n`; 0.5 when even the median has fewer.
pub fn tail_quantile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a sample ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// A quantile of a sample kept in time order that one burst of noise
/// cannot move: each of `windows` consecutive slices gives its quantile
/// `q` (lowered to what [`tail_quantile`] allows for the slice), and the
/// median of those is returned.
pub fn windowed_quantile(values: &[f64], windows: usize, q: f64) -> f64 {
    let size = values.len().div_ceil(windows.max(1)).max(1);
    let per_window: Vec<f64> = values
        .chunks(size)
        .map(|w| quantile(&sorted(w.to_vec()), tail_quantile(w.len()).min(q)))
        .collect();
    median(&per_window)
}

/// A completion rate that one burst of noise cannot move: `ends` (ascending
/// completion times, s) is cut into `windows` consecutive slices of equal
/// count, each slice gives its count over the time since the previous
/// slice ended (or since 0), and the median of those rates is returned.
pub fn windowed_rate(ends: &[f64], windows: usize) -> f64 {
    let size = ends.len().div_ceil(windows.max(1)).max(1);
    let mut since = 0.0;
    let per_window: Vec<f64> = ends
        .chunks(size)
        .filter_map(|w| {
            let last = *w.last()?;
            let span = last - since;
            since = last;
            (span > 0.0).then(|| w.len() as f64 / span)
        })
        .collect();
    median(&per_window)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_quantile(0), 0.5);
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(100_000), 0.9999);
        assert_eq!(tail_quantile(10_000_000), 0.9999);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn one_burst_moves_one_window() {
        // 5 windows of 1000 samples at 1.0, one window holding a burst.
        let mut v = vec![1.0; 5000];
        for x in &mut v[1000..1100] {
            *x = 50.0;
        }
        assert_eq!(windowed_quantile(&v, 5, 0.99), 1.0);
        assert_eq!(quantile(&sorted(v.clone()), 0.99), 50.0);
        assert_eq!(windowed_quantile(&[], 5, 0.9), 0.0);
    }

    #[test]
    fn one_stall_slows_one_window_of_the_rate() {
        // 100 completions a second for 5 s, with a 1 s stall in the second
        // second: one window's rate halves, the median does not move.
        let mut ends: Vec<f64> = (1..=500).map(|i| f64::from(i) / 100.0).collect();
        for e in &mut ends[100..] {
            *e += 1.0;
        }
        assert!((windowed_rate(&ends, 5) - 100.0).abs() < 1e-9);
        assert!(ends.len() as f64 / ends[499] < 90.0, "the mean rate drops");
        assert_eq!(windowed_rate(&[], 5), 0.0);
    }
}
