//! Order statistics and the normalisation arithmetic.
//!
//! Every reported timing is a **median over slices** of a per-slice value
//! that was already divided by the reference kernel's speed around that
//! slice, with the quartiles and the slice count beside it.

/// Median, quartiles and count of a set of per-slice values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median over slices (for `setup_s` alone, the
    /// fastest set-up).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of measured slices.
    pub n: usize,
}

impl Summary {
    /// A value that is exact (a count, or a mean of exact quantities).
    pub fn exact(v: f64, n: usize) -> Self {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n,
        }
    }

    /// Quartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the estimator the acceptance check
/// uses, so `--compare` agrees with it. Fewer than two values have no
/// spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median-of-slices summary.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; sorts them.
pub fn percentile<T: Copy + PartialOrd + Into<f64>>(values: &mut [T], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are numbers"));
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1].into()
}

/// The reference speed of one thread around one slice: the mean of its
/// bursts before and after it, nanoseconds per ref.
pub fn ref_ns(bursts: &[f64]) -> f64 {
    bursts.iter().sum::<f64>() / bursts.len() as f64
}

/// A duration in refs.
pub fn to_ref(ns: f64, ref_ns: f64) -> f64 {
    ns / ref_ns
}

/// A rate per thousand refs: `count` events in `wall_ns` nanoseconds.
pub fn per_kref(count: f64, wall_ns: f64, ref_ns: f64) -> f64 {
    count * 1000.0 / to_ref(wall_ns, ref_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_is_the_median_of_slices_with_its_spread() {
        let s = summarize(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!(s.median, 11.0);
        assert_eq!(s.n, 5);
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(Summary::exact(4.0, 9).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=200).collect();
        assert_eq!(percentile(&mut v, 99.0), 198.0);
        assert_eq!(percentile(&mut v, 50.0), 100.0);
        assert_eq!(percentile(&mut v, 100.0), 200.0);
        assert!(percentile::<u32>(&mut [], 99.0).is_nan());
        assert_eq!(percentile(&mut [3.5, 0.5, 2.5, 1.5], 75.0), 2.5);
    }

    #[test]
    fn normalisation_divides_by_the_reference_speed() {
        // A host twice as slow doubles both the slice and the reference, so
        // the normalised figures do not move.
        let fast = per_kref(40_000.0, 20e6, ref_ns(&[20.0, 22.0]));
        let slow = per_kref(40_000.0, 40e6, ref_ns(&[40.0, 44.0]));
        assert!((fast - slow).abs() < 1e-9);
        assert!((fast - 42.0).abs() < 1e-9);
        assert_eq!(to_ref(2100.0, 21.0), 100.0);
    }
}
