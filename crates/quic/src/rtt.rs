//! RTT estimation per RFC 9002 §5: latest / min / smoothed RTT and RTT
//! variation. Each multipath path keeps its own estimator; the XLINK
//! scheduler reads `smoothed + var` as the per-path `deliverTime` used by
//! the double-thresholding controller (paper Eq. 1).

use xlink_clock::Duration;

/// Exponentially-weighted RTT statistics for one path.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    latest: Duration,
    smoothed: Option<Duration>,
    var: Duration,
    min: Duration,
}

/// Default initial RTT before any sample (RFC 9002 §6.2.2).
pub const INITIAL_RTT: Duration = Duration::from_millis(333);

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// New estimator with no samples.
    pub fn new() -> Self {
        RttEstimator {
            latest: INITIAL_RTT,
            smoothed: None,
            var: INITIAL_RTT / 2,
            min: Duration::MAX,
        }
    }

    /// Feed one RTT sample, adjusting for the peer's reported ack delay.
    pub fn update(&mut self, sample: Duration, ack_delay: Duration) {
        self.latest = sample;
        self.min = self.min.min(sample);
        match self.smoothed {
            None => {
                self.smoothed = Some(sample);
                self.var = sample / 2;
            }
            Some(srtt) => {
                // Only subtract ack_delay if it doesn't go below min_rtt.
                let adjusted =
                    if sample > self.min + ack_delay { sample - ack_delay } else { sample };
                let var_sample = if srtt > adjusted { srtt - adjusted } else { adjusted - srtt };
                self.var = (self.var * 3 + var_sample) / 4;
                self.smoothed = Some((srtt * 7 + adjusted) / 8);
            }
        }
    }

    /// Most recent sample.
    pub fn latest(&self) -> Duration {
        self.latest
    }

    /// Smoothed RTT, or the initial default before any sample.
    pub fn smoothed(&self) -> Duration {
        self.smoothed.unwrap_or(INITIAL_RTT)
    }

    /// RTT variation (the paper's δ in Eq. 1).
    pub fn var(&self) -> Duration {
        self.var
    }

    /// Minimum observed RTT, or the initial default before any sample.
    pub fn min(&self) -> Duration {
        if self.min == Duration::MAX {
            INITIAL_RTT
        } else {
            self.min
        }
    }

    /// Probe timeout per RFC 9002 §6.2.1: smoothed + max(4·var, 1ms) + max_ack_delay.
    pub fn pto(&self, max_ack_delay: Duration) -> Duration {
        self.smoothed() + (self.var * 4).max(Duration::from_millis(1)) + max_ack_delay
    }

    /// The paper's per-path estimated delivery time: RTT_p + δ_p (Eq. 1).
    pub fn deliver_time(&self) -> Duration {
        self.smoothed() + self.var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RttEstimator {
        /// True once at least one sample has been taken.
        pub(crate) fn has_samples(&self) -> bool {
            self.smoothed.is_some()
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn first_sample_initializes() {
        let mut r = RttEstimator::new();
        assert!(!r.has_samples());
        assert_eq!(r.smoothed(), INITIAL_RTT);
        r.update(ms(100), Duration::ZERO);
        assert!(r.has_samples());
        assert_eq!(r.smoothed(), ms(100));
        assert_eq!(r.var(), ms(50));
        assert_eq!(r.min(), ms(100));
    }

    #[test]
    fn smoothing_converges() {
        let mut r = RttEstimator::new();
        for _ in 0..100 {
            r.update(ms(80), Duration::ZERO);
        }
        assert_eq!(r.smoothed().as_millis(), 80);
        assert!(r.var() < ms(2));
    }

    #[test]
    fn min_tracks_smallest() {
        let mut r = RttEstimator::new();
        r.update(ms(100), Duration::ZERO);
        r.update(ms(60), Duration::ZERO);
        r.update(ms(200), Duration::ZERO);
        assert_eq!(r.min(), ms(60));
        assert_eq!(r.latest(), ms(200));
    }

    #[test]
    fn ack_delay_is_subtracted_when_safe() {
        let mut r = RttEstimator::new();
        r.update(ms(50), Duration::ZERO); // min = 50
                                          // Sample 100 with 20ms ack delay → adjusted 80.
        r.update(ms(100), ms(20));
        // smoothed = 7/8*50 + 1/8*80 = 53.75ms
        assert_eq!(r.smoothed().as_micros(), 53_750);
    }

    #[test]
    fn ack_delay_not_subtracted_below_min() {
        let mut r = RttEstimator::new();
        r.update(ms(50), Duration::ZERO);
        // Sample 55 with huge claimed delay: adjusting would go below min.
        r.update(ms(55), ms(30));
        // adjusted stays 55 → smoothed = 7/8*50 + 1/8*55 = 50.625
        assert_eq!(r.smoothed().as_micros(), 50_625);
    }

    #[test]
    fn pto_has_floor() {
        let mut r = RttEstimator::new();
        for _ in 0..50 {
            r.update(ms(10), Duration::ZERO);
        }
        // var → ~0 but PTO must still exceed smoothed by ≥ 1ms.
        assert!(r.pto(Duration::ZERO) >= r.smoothed() + ms(1));
    }

    #[test]
    fn deliver_time_is_srtt_plus_var() {
        let mut r = RttEstimator::new();
        r.update(ms(100), Duration::ZERO);
        assert_eq!(r.deliver_time(), ms(150)); // 100 + 50
    }
}
