//! The one percentile routine every workload reports through.

/// A latency (or any sample) distribution reduced to what the benchmark
/// reports: the sample count, the median and the 99th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `0` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and summarizes them, scaling each percentile by `scale`
/// (e.g. `1e-3` to report nanosecond samples in microseconds).
pub fn summarize(samples: &mut [u64], scale: f64) -> Summary {
    samples.sort_unstable();
    Summary {
        n: samples.len(),
        p50: percentile(samples, 0.50) as f64 * scale,
        p99: percentile(samples, 0.99) as f64 * scale,
    }
}

/// Median of `values` (mean of the middle two for an even count); `0` when
/// empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_fixed_input() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.50), 50);
        assert_eq!(percentile(&hundred, 0.99), 99);
        assert_eq!(percentile(&hundred, 1.0), 100);
        assert_eq!(percentile(&hundred, 0.0), 1);
        assert_eq!(percentile(&[10, 20, 30], 0.50), 20);
        assert_eq!(percentile(&[10, 20, 30], 0.99), 30);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn summary_sorts_scales_and_counts() {
        let mut samples: Vec<u64> = (1..=1000).rev().map(|x| x * 1000).collect();
        let s = summarize(&mut samples, 1e-3);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
