//! QoE feedback and the double-thresholding re-injection controller
//! (paper §5.2, Algorithm 1).
//!
//! The client's video player reports `cached_bytes`, `cached_frames`,
//! `bps`, and `fps` (carried in the ACK_MP's QoE field). The server
//! estimates the play-time left Δt, compares it against two thresholds,
//! and in the middle band compares it against the worst-case in-flight
//! delivery time `max_p (RTT_p + δ_p)` (Eq. 1).

use xlink_clock::Duration;
pub use xlink_quic::frame::QoeSignal;

/// How the server decides whether to re-inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QoeControl {
    /// Never re-inject (vanilla-MP).
    AlwaysOff,
    /// Always re-inject when the scheduler has spare capacity
    /// ("re-injection w/o QoE control", Fig. 6c — ~15% overhead).
    AlwaysOn,
    /// Algorithm 1: double thresholding on play-time left.
    DoubleThreshold {
        /// T_th1: below this play-time, re-injection turns on immediately.
        t1: Duration,
        /// T_th2: above this play-time, re-injection turns off to save cost.
        t2: Duration,
    },
}

impl QoeControl {
    /// Convenience constructor with millisecond thresholds.
    pub fn double_threshold_ms(t1_ms: u64, t2_ms: u64) -> Self {
        assert!(t1_ms <= t2_ms, "T_th1 must not exceed T_th2");
        QoeControl::DoubleThreshold {
            t1: Duration::from_millis(t1_ms),
            t2: Duration::from_millis(t2_ms),
        }
    }
}

/// The paper's cost metric, the redundancy ratio: re-injected bytes over
/// all stream payload bytes sent (first-time + retransmitted + re-injected).
pub fn redundancy_ratio(first_time: u64, retransmitted: u64, reinjected: u64) -> f64 {
    match first_time + retransmitted + reinjected {
        0 => 0.0,
        total => reinjected as f64 / total as f64,
    }
}

/// Estimate the play-time left from a QoE snapshot (Alg. 1 step 1).
///
/// "one should look at both the bit-rate and the frame-rate. This allows
/// us to get a more conservative estimate" — we take the minimum of the
/// two estimates that are computable.
pub fn play_time_left(q: &QoeSignal) -> Option<Duration> {
    let by_frames = if q.fps > 0 {
        Some(Duration::from_micros(q.cached_frames * 1_000_000 / q.fps))
    } else {
        None
    };
    let by_bytes = if q.bps > 0 {
        Some(Duration::from_micros(q.cached_bytes * 8 * 1_000_000 / q.bps))
    } else {
        None
    };
    match (by_frames, by_bytes) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

/// Algorithm 1: decide whether re-injection should be enabled.
///
/// * `latest_qoe` — most recent client feedback (None before the first
///   feedback arrives; treated as urgent, i.e. re-injection allowed,
///   because video start-up is exactly when the paper wants acceleration).
/// * `max_deliver_time` — `max_{p : unacked_q_p ≠ ∅} (RTT_p + δ_p)` over
///   the connection's paths, or None if nothing is in flight.
pub fn reinjection_decision(
    control: QoeControl,
    latest_qoe: Option<&QoeSignal>,
    max_deliver_time: Option<Duration>,
) -> bool {
    match control {
        QoeControl::AlwaysOff => false,
        QoeControl::AlwaysOn => true,
        QoeControl::DoubleThreshold { t1, t2 } => {
            let Some(q) = latest_qoe else {
                // No feedback yet: the start-up phase. Re-inject (the
                // first-video-frame acceleration depends on this).
                return true;
            };
            let Some(dt) = play_time_left(q) else {
                return true; // degenerate feedback: stay safe
            };
            if dt > t2 {
                return false;
            }
            if dt < t1 {
                return true;
            }
            match max_deliver_time {
                Some(d) => dt < d,
                None => false, // nothing in flight: nothing to accelerate
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(cached_bytes: u64, cached_frames: u64, bps: u64, fps: u64) -> QoeSignal {
        QoeSignal { cached_bytes, cached_frames, bps, fps }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn play_time_is_conservative_minimum() {
        // frames: 30/30 = 1s; bytes: 125000*8/2e6 = 0.5s → min 0.5s.
        let s = q(125_000, 30, 2_000_000, 30);
        assert_eq!(play_time_left(&s), Some(ms(500)));
    }

    #[test]
    fn play_time_single_source() {
        assert_eq!(play_time_left(&q(0, 60, 0, 30)), Some(ms(2000)));
        assert_eq!(play_time_left(&q(250_000, 0, 1_000_000, 0)), Some(ms(2000)));
        assert_eq!(play_time_left(&q(1, 1, 0, 0)), None);
    }

    #[test]
    fn below_t1_turns_on() {
        let c = QoeControl::double_threshold_ms(200, 1000);
        // 3 frames at 30fps = 100ms < 200ms.
        let s = q(0, 3, 0, 30);
        assert!(reinjection_decision(c, Some(&s), None));
    }

    #[test]
    fn above_t2_turns_off() {
        let c = QoeControl::double_threshold_ms(200, 1000);
        // 60 frames at 30fps = 2s > 1s.
        let s = q(0, 60, 0, 30);
        assert!(!reinjection_decision(c, Some(&s), Some(ms(5000))));
    }

    #[test]
    fn middle_band_compares_delivery_time() {
        let c = QoeControl::double_threshold_ms(200, 1000);
        // 15 frames at 30fps = 500ms: in [200, 1000].
        let s = q(0, 15, 0, 30);
        // Slowest in-flight path delivers in 800ms > 500ms → re-inject.
        assert!(reinjection_decision(c, Some(&s), Some(ms(800))));
        // Delivers in 300ms < 500ms → in-flight will arrive in time.
        assert!(!reinjection_decision(c, Some(&s), Some(ms(300))));
        // Nothing in flight → nothing to re-inject.
        assert!(!reinjection_decision(c, Some(&s), None));
    }

    #[test]
    fn no_feedback_means_startup_urgency() {
        let c = QoeControl::double_threshold_ms(200, 1000);
        assert!(reinjection_decision(c, None, None));
    }

    #[test]
    fn always_modes() {
        let s = q(0, 300, 0, 30); // huge buffer
        assert!(reinjection_decision(QoeControl::AlwaysOn, Some(&s), None));
        let s2 = q(0, 0, 0, 30); // empty buffer
        assert!(!reinjection_decision(QoeControl::AlwaysOff, Some(&s2), Some(ms(100))));
    }

    #[test]
    fn boundary_values_are_exclusive() {
        let c = QoeControl::double_threshold_ms(200, 1000);
        // Exactly t2 (30 frames at 30fps = 1000ms): not > t2, not < t1 →
        // middle band.
        let s = q(0, 30, 0, 30);
        assert!(reinjection_decision(c, Some(&s), Some(ms(2000))));
        assert!(!reinjection_decision(c, Some(&s), Some(ms(500))));
    }

    #[test]
    #[should_panic(expected = "T_th1 must not exceed")]
    fn inverted_thresholds_rejected() {
        let _ = QoeControl::double_threshold_ms(1000, 200);
    }
}
