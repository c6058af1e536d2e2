//! Streaming (constant-memory) aggregation for population-scale runs.
//!
//! The fleet engine simulates tens of thousands of sessions in one
//! process; hoarding every per-session sample in a `Vec<f64>` would make
//! peak memory grow with population size and cap how many users one
//! world can host ("QUIC is not Quick Enough over Fast Internet" names
//! exactly this per-sample overhead as the scale ceiling). This module
//! replaces the hoards with two fixed-size accumulators:
//!
//! * [`StreamStat`] — count / mean / variance over a fixed-point
//!   integer state, so merging shard partials is **exact** (integer
//!   addition) and the result is bit-identical no matter how samples
//!   were partitioned across shards.
//! * [`LogHistogram`] — fixed-bin log-scale histogram (32 bins per
//!   decade over 1e-4 .. 1e4) with percentile estimates and analytic,
//!   bootstrap-free rank-based confidence intervals. Counts are `u64`,
//!   so shard merges are exact here too.
//!
//! Both carry a stable [`digest`](LogHistogram::digest) so determinism
//! tests can assert bit-identity of aggregate state across runs and
//! across shard counts.

/// Fixed-point scale for [`StreamStat`]: 1e9 quanta per unit keeps
/// nanosecond-grade resolution for second-valued metrics while leaving
/// ~1e20 units of headroom in the i128 accumulators.
const SCALE: f64 = 1e9;

/// Online count/mean/variance with an exactly-mergeable integer state.
///
/// Samples are quantized to `round(x * 1e9)` and summed in `i128`, so
/// accumulation order — and therefore shard count — cannot change the
/// result: any partition of the same sample set merges to the same
/// state bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStat {
    /// Samples recorded.
    n: u64,
    /// Sum of quantized samples.
    sum_q: i128,
    /// Sum of squared quantized samples.
    sumsq_q: i128,
}

impl StreamStat {
    /// Empty accumulator.
    pub fn new() -> Self {
        StreamStat::default()
    }

    /// Record one sample (non-finite samples are ignored).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let q = (x * SCALE).round() as i128;
        self.n += 1;
        self.sum_q += q;
        self.sumsq_q += q * q;
    }

    /// Merge another accumulator (exact: integer addition).
    pub fn merge(&mut self, other: &StreamStat) {
        self.n += other.n;
        self.sum_q += other.sum_q;
        self.sumsq_q += other.sumsq_q;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum_q as f64 / SCALE
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum_q as f64 / SCALE / self.n as f64
    }

    /// Population variance (0 below two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let mean_q = self.sum_q as f64 / n;
        let var_q = self.sumsq_q as f64 / n - mean_q * mean_q;
        (var_q / (SCALE * SCALE)).max(0.0)
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Stable 64-bit digest of the exact integer state.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in [self.n, self.sum_q as u64, (self.sum_q >> 64) as u64, self.sumsq_q as u64] {
            h ^= w;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// Bins per decade. 32 gives a relative bin width of 10^(1/32) ≈ 7.5%,
/// which bounds the percentile estimation error (property-tested).
pub const BINS_PER_DECADE: usize = 32;
/// Smallest representable positive value (0.1 ms for second-valued
/// metrics); smaller positives clamp into the first bin.
pub const HIST_MIN: f64 = 1e-4;
/// Decades covered: 1e-4 .. 1e4 (10 000 s ≫ any session deadline).
pub const HIST_DECADES: usize = 8;
/// Total value bins.
pub const HIST_BINS: usize = BINS_PER_DECADE * HIST_DECADES;

/// Multiplicative half-width of one histogram bin: a percentile read
/// from the histogram is within this factor of the exact sample
/// percentile (plus rank rounding at tiny n).
pub fn bin_width_factor() -> f64 {
    10f64.powf(1.0 / BINS_PER_DECADE as f64)
}

/// Fixed-bin log-scale histogram with exact (`u64`) counts.
///
/// Zero (and negative, which the QoE metrics never produce) samples are
/// counted in a dedicated zero bin so mostly-zero metrics like
/// per-session rebuffer rate aggregate without distortion; values above
/// the top edge land in a saturating overflow bin. A [`StreamStat`]
/// rides along so mean/variance stay exact rather than bin-quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Samples at or below zero.
    zero: u64,
    /// Samples at or above the top edge.
    over: u64,
    /// Log-spaced value bins.
    bins: Vec<u64>,
    /// Exact moments of the raw samples.
    stat: StreamStat,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { zero: 0, over: 0, bins: vec![0; HIST_BINS], stat: StreamStat::new() }
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bin_index(x: f64) -> usize {
        // x > 0 here; clamp below the floor into bin 0.
        let idx = ((x / HIST_MIN).log10() * BINS_PER_DECADE as f64).floor();
        if idx < 0.0 {
            0
        } else {
            idx as usize
        }
    }

    /// Lower edge of bin `i`.
    fn bin_lo(i: usize) -> f64 {
        HIST_MIN * 10f64.powf(i as f64 / BINS_PER_DECADE as f64)
    }

    /// Record one sample (non-finite samples are ignored).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.stat.record(x);
        if x <= 0.0 {
            self.zero += 1;
        } else {
            let i = Self::bin_index(x);
            if i >= HIST_BINS {
                self.over += 1;
            } else {
                self.bins[i] += 1;
            }
        }
    }

    /// Merge another histogram (exact: integer addition per bin).
    pub fn merge(&mut self, other: &LogHistogram) {
        self.zero += other.zero;
        self.over += other.over;
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.stat.merge(&other.stat);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.stat.count()
    }

    /// Exact moments of the recorded samples.
    pub fn stat(&self) -> &StreamStat {
        &self.stat
    }

    /// Samples at or below `x`, counted in whole bins: the samples of
    /// `x`'s own bin all count. That is exact when no sample lies in that
    /// bin above `x`, as with values on a grid coarser than a bin (whole
    /// frames of play time against a 50 ms danger level).
    pub fn count_at_or_below(&self, x: f64) -> u64 {
        if x <= 0.0 {
            return self.zero;
        }
        let i = Self::bin_index(x);
        if i >= HIST_BINS {
            return self.count();
        }
        self.zero + self.bins[..=i].iter().sum::<u64>()
    }

    /// Value at (0-based) rank `r` among the sorted samples, estimated
    /// by geometric interpolation inside the containing bin.
    fn value_at_rank(&self, r: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let r = r.clamp(0.0, (n - 1) as f64);
        if r < self.zero as f64 {
            return 0.0;
        }
        let mut below = self.zero as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if r < below + c {
                // Geometric position inside the bin (log-linear CDF).
                let frac = ((r - below) + 0.5) / c;
                let lo = Self::bin_lo(i);
                let hi = Self::bin_lo(i + 1);
                return lo * (hi / lo).powf(frac.clamp(0.0, 1.0));
            }
            below += c;
        }
        // Rank lives in the overflow bin: report the top edge.
        Self::bin_lo(HIST_BINS)
    }

    /// Percentile estimate (`p` in [0, 100]), nearest-rank like
    /// [`stats::percentile`](crate::stats::percentile), within one bin
    /// width of the exact sample percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * (n as f64 - 1.0)).round();
        self.value_at_rank(rank)
    }

    /// Analytic (binomial rank) confidence interval for percentile `p`
    /// at `z` standard errors: the rank of the order statistic is
    /// normal with sd sqrt(n·q·(1−q)); the interval maps the rank band
    /// back through the histogram. Bootstrap-free and O(bins).
    pub fn percentile_ci(&self, p: f64, z: f64) -> (f64, f64) {
        let n = self.count();
        if n == 0 {
            return (0.0, 0.0);
        }
        let q = (p / 100.0).clamp(0.0, 1.0);
        let rank = q * (n as f64 - 1.0);
        let se = (n as f64 * q * (1.0 - q)).sqrt();
        (self.value_at_rank(rank - z * se), self.value_at_rank(rank + z * se))
    }

    /// Stable 64-bit digest of the exact bin state (plus moments):
    /// equal digests ⇔ bit-identical aggregate.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.stat.digest();
        for &c in [self.zero, self.over].iter().chain(self.bins.iter()) {
            h ^= c;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::stats::percentile;

    #[test]
    fn stream_stat_matches_exact_moments() {
        let xs = [0.5, 1.25, 3.0, 0.0, 2.5, 10.0];
        let mut s = StreamStat::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert_eq!(s.count(), 6);
        assert!((s.mean() - mean).abs() < 1e-9, "{} vs {mean}", s.mean());
        assert!((s.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn stream_stat_merge_is_exact_for_any_partition() {
        let mut rng = Rng::new(7);
        let xs: Vec<f64> = (0..500).map(|_| rng.f64() * 100.0).collect();
        let mut whole = StreamStat::new();
        for &x in &xs {
            whole.record(x);
        }
        for parts in [2usize, 3, 7] {
            let mut shards = vec![StreamStat::new(); parts];
            for (i, &x) in xs.iter().enumerate() {
                shards[i % parts].record(x);
            }
            let mut merged = StreamStat::new();
            // Merge in reverse order to prove order-independence.
            for s in shards.iter().rev() {
                merged.merge(s);
            }
            assert_eq!(merged, whole, "partition into {parts} diverged");
            assert_eq!(merged.digest(), whole.digest());
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_within_bin_width() {
        let mut rng = Rng::new(42);
        // Log-uniform draws across 6 decades.
        let xs: Vec<f64> = (0..4000).map(|_| 10f64.powf(rng.f64() * 6.0 - 3.0)).collect();
        let mut h = LogHistogram::new();
        for &x in &xs {
            h.record(x);
        }
        let tol = bin_width_factor();
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = percentile(&xs, p);
            let est = h.percentile(p);
            assert!(
                est <= exact * tol && est >= exact / tol,
                "p{p}: est {est} vs exact {exact} (tol ×{tol:.4})"
            );
        }
    }

    #[test]
    fn histogram_handles_zeros_and_overflow() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(0.0);
        }
        for _ in 0..10 {
            h.record(1.0);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), 0.0);
        assert!(h.percentile(99.0) > 0.5);
        h.record(1e9); // beyond the top edge
        assert!(h.percentile(100.0) >= LogHistogram::bin_lo(HIST_BINS) * 0.99);
    }

    #[test]
    fn count_at_or_below_is_exact_on_a_frame_grid() {
        // Play time left at 25 fps: whole multiples of 40 ms.
        let xs: Vec<f64> = (0..2_000u64).map(|i| (i * 7 % 60) as f64 / 25.0).collect();
        let mut h = LogHistogram::new();
        for &x in &xs {
            h.record(x);
        }
        for level in [0.0, 0.04, 0.05, 0.1, 0.3, 1e9] {
            let exact = xs.iter().filter(|&&x| x <= level).count() as u64;
            assert_eq!(h.count_at_or_below(level), exact, "at or below {level}");
        }
    }

    #[test]
    fn histogram_merge_matches_single_pass() {
        let mut rng = Rng::new(9);
        let xs: Vec<f64> = (0..300).map(|_| rng.f64() * 10.0).collect();
        let mut whole = LogHistogram::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        b.merge(&a);
        assert_eq!(b, whole);
        assert_eq!(b.digest(), whole.digest());
    }

    #[test]
    fn percentile_ci_brackets_point_estimate_and_narrows() {
        let mut rng = Rng::new(3);
        let mut small = LogHistogram::new();
        let mut large = LogHistogram::new();
        for i in 0..20_000 {
            let x = 1.0 + rng.f64();
            if i < 200 {
                small.record(x);
            }
            large.record(x);
        }
        for h in [&small, &large] {
            let (lo, hi) = h.percentile_ci(90.0, 1.96);
            let est = h.percentile(90.0);
            assert!(lo <= est && est <= hi, "CI [{lo}, {hi}] must bracket {est}");
        }
        let (slo, shi) = small.percentile_ci(90.0, 1.96);
        let (llo, lhi) = large.percentile_ci(90.0, 1.96);
        assert!(lhi - llo < shi - slo, "more samples must narrow the CI");
    }

    #[test]
    fn empty_aggregates_are_well_defined() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.percentile_ci(50.0, 1.96), (0.0, 0.0));
        let s = StreamStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }
}
