//! Order statistics used by every workload: medians of in-run repeats and
//! nearest-rank percentiles of latency samples.

/// Sorts a sample in place (timings are never NaN; `total_cmp` keeps the
/// order total anyway).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample: the middle value, or the mean of the two
/// middle values for an even count. `0.0` for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a **sorted** sample: the value at rank
/// `ceil(p/100 · n)` (1-based), so `p = 99` over 100 samples is the 99th
/// smallest and over fewer than 100 samples is the largest. `0.0` for an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A metric value as reported: the median of `n` in-run repeats with the
/// extremes beside it, so a reader (and `compare`) can see the in-run
/// spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Median/min/max of a sample of repeats.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            value: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// A single observation (`n` is the number of samples behind it, e.g.
    /// the request count behind a percentile).
    pub fn single(value: f64, n: usize) -> Summary {
        Summary {
            value,
            min: value,
            max: value,
            n,
        }
    }

    /// In-run spread as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Fewer than 100 samples: p99 is the largest.
        let few = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&few, 99.0), 5.0);
        assert_eq!(percentile(&few, 50.0), 3.0);
        assert_eq!(percentile(&few, 20.0), 1.0);
        assert_eq!(percentile(&few, 21.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_reports_median_and_extremes() {
        let s = Summary::of(&[1.0, 1.1, 0.9]);
        assert_eq!(s.value, 1.0);
        assert_eq!((s.min, s.max, s.n), (0.9, 1.1, 3));
        assert!((s.spread() - 0.2).abs() < 1e-9);
    }
}
