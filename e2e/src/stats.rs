//! Sample statistics: percentiles under the "ten samples beyond" rule, and
//! the aggregation of per-pass values into one reported value.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Index (into the sorted samples) of the reported tail: the 99th percentile
/// when at least [`TAIL_BEYOND`] samples lie beyond it (`n >= 1000`),
/// otherwise the highest rank that still leaves [`TAIL_BEYOND`] beyond. With
/// too few samples for that, the median is all the sample supports.
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "no samples");
    if n <= 2 * TAIL_BEYOND {
        return n / 2;
    }
    n - 1 - TAIL_BEYOND.max(n / 100)
}

/// The percentile (0–100) that [`tail_index`] stands for on `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    100.0 * (tail_index(n) + 1) as f64 / n as f64
}

/// Median and tail of one pass's timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub tail: f64,
    pub samples: usize,
}

impl Percentiles {
    /// Sorts `samples` in place.
    pub fn of(samples: &mut [f64]) -> Percentiles {
        assert!(!samples.is_empty(), "no samples");
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Percentiles { p50: samples[n / 2], tail: samples[tail_index(n)], samples: n }
    }
}

/// Median of a non-empty list (the upper middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One metric over the passes of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub passes: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Spread { min, median: median(values), max, passes: values.len() }
    }

    /// The best pass: interference on a shared box only ever adds time, so
    /// the minimum of a time (the maximum of a rate) repeats where the
    /// median does not.
    pub fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }

    /// The worst pass, for comparing two runs pass against pass.
    pub fn worst(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.max,
            Better::Higher => self.min,
        }
    }

    /// How far the best pass lies from the median pass, as a share of the
    /// median. Interference comes in bursts that hit single passes, so the
    /// worst pass says nothing about how well the best one repeats; a best
    /// pass far from the median does.
    pub fn best_to_median(&self, better: Better) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.median - self.best(better)).abs() / self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten samples lie beyond it.
        assert_eq!(tail_index(1000), 989);
        assert!((tail_percentile(1000) - 99.0).abs() < 1e-9);
        // 3000 samples: still p99, thirty beyond.
        assert_eq!(tail_index(3000), 2969);
        assert!((tail_percentile(3000) - 99.0).abs() < 1e-9);
        // 500 samples cannot support p99: the tail drops to p98.
        assert_eq!(tail_index(500), 489);
        assert!((tail_percentile(500) - 98.0).abs() < 1e-9);
        for n in [21usize, 50, 99, 100, 999, 1001, 12_345] {
            assert!(n - 1 - tail_index(n) >= TAIL_BEYOND, "n = {n}");
        }
        // Too few samples: the median is all there is.
        assert_eq!(tail_index(7), 3);
    }

    #[test]
    fn percentiles_of_a_known_sample() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = Percentiles::of(&mut v);
        assert_eq!(p.p50, 501.0);
        assert_eq!(p.tail, 990.0);
        assert_eq!(p.samples, 1000);
    }

    #[test]
    fn best_of_passes_follows_the_direction() {
        let s = Spread::of(&[4.0, 2.0, 9.0, 3.0, 5.0]);
        assert_eq!((s.min, s.median, s.max, s.passes), (2.0, 4.0, 9.0, 5));
        assert_eq!(s.best(Better::Lower), 2.0);
        assert_eq!(s.best(Better::Higher), 9.0);
        assert_eq!(s.worst(Better::Lower), 9.0);
        assert!((s.best_to_median(Better::Lower) - 2.0 / 4.0).abs() < 1e-12);
        assert!((s.best_to_median(Better::Higher) - 5.0 / 4.0).abs() < 1e-12);
    }
}
