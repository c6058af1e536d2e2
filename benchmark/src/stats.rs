//! Order statistics and the regression-bound rule shared by the runner
//! and `compare`.

/// Median of a sample set (mean of the two middle values for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance procedure uses for run-to-run spread. Fewer than two
/// samples have no spread: both quartiles equal the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The percentiles a tail may be reported at, ascending, each with the
/// denominator of the share of samples beyond it (p99 leaves 1/100).
const TAIL_LADDER: [(f64, u64); 6] =
    [(50.0, 2), (75.0, 4), (90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000)];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; the median when even that has fewer.
pub fn tail_percentile(n: u64) -> f64 {
    TAIL_LADDER.iter().rev().find(|&&(_, beyond)| n >= 10 * beyond).unwrap_or(&TAIL_LADDER[0]).0
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Outcome of comparing one (metric, workload) pair between two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// A set's own run-to-run spread exceeds the bound, so a move of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed change of `new` against `base` as a share of `base`, positive
/// when the metric got worse. A zero baseline has no share: any move off
/// it in the bad direction counts as fully worse (1.0), in the good
/// direction as fully better (-1.0).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let bad = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        return if bad > 0.0 {
            1.0
        } else if bad < 0.0 {
            -1.0
        } else {
            0.0
        };
    }
    bad / base.abs()
}

/// Median and quartiles of one set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Summary { median: median(samples), q1, q3 }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Apply a metric's bound to two sets of runs: medians are compared, after
/// each set's own interquartile spread is checked against the bound.
pub fn verdict(base: Summary, new: Summary, better: Better, bound: f64) -> Verdict {
    if base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(base.median, new.median, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_has_no_share() {
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 0.001, Better::Lower), 1.0);
        assert_eq!(worsening(0.0, 0.001, Better::Higher), -1.0);
        let at = |x: f64| Summary::of(&[x]);
        assert_eq!(verdict(at(0.0), at(0.0), Better::Lower, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(at(0.0), at(0.5), Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(at(0.0), at(0.5), Better::Higher, 0.1), Verdict::Better);
    }

    #[test]
    fn verdict_applies_bound_and_spread() {
        let base = Summary::of(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let at = |x: f64| Summary::of(&[x; 5]);
        assert_eq!(verdict(base, at(104.0), Better::Lower, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(base, at(115.0), Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(base, at(85.0), Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(base, at(85.0), Better::Higher, 0.1), Verdict::Worse);
        let noisy = Summary::of(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        assert_eq!(verdict(noisy, at(100.0), Better::Lower, 0.1), Verdict::Unresolved);
    }
}
