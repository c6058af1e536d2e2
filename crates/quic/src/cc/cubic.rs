//! Cubic congestion control (RFC 8312 / RFC 9438 style), the default
//! controller in the paper's evaluation (§7). The window grows as a cubic
//! function of the time since the last congestion event, anchored at the
//! pre-loss window, with a Reno-friendly region for low-BDP paths.

use super::{INITIAL_WINDOW, MAX_DATAGRAM_SIZE, MIN_WINDOW};
use xlink_clock::{Duration, Instant};

/// Cubic scaling constant C in (MSS-normalized) windows per second cubed.
const C: f64 = 0.4;
/// Multiplicative decrease factor.
const BETA: f64 = 0.7;

/// Cubic congestion controller.
#[derive(Debug, Clone)]
pub struct Cubic {
    window: u64,
    ssthresh: u64,
    /// Window (in bytes) just before the last reduction.
    w_max: f64,
    /// Time of the last congestion event (epoch start for cubic growth).
    epoch_start: Option<Instant>,
    /// K: time offset at which the cubic function regains w_max (seconds).
    k: f64,
    recovery_start: Option<Instant>,
    /// Reno-friendly window estimate in bytes.
    w_est: f64,
    /// Bytes acked since epoch start (drives the Reno-friendly estimate).
    acked_since_epoch: u64,
}

impl Cubic {
    /// Fresh controller in slow start.
    pub fn new() -> Self {
        Cubic {
            window: INITIAL_WINDOW,
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            recovery_start: None,
            w_est: 0.0,
            acked_since_epoch: 0,
        }
    }

    fn in_recovery(&self, sent_time: Instant) -> bool {
        self.recovery_start.is_some_and(|r| sent_time <= r)
    }

    /// Target window from the cubic function at elapsed time `t` seconds.
    fn w_cubic(&self, t: f64) -> f64 {
        let mss = MAX_DATAGRAM_SIZE as f64;
        let dt = t - self.k;
        (C * dt * dt * dt) * mss + self.w_max
    }

    /// A packet of `bytes` is newly acknowledged.
    pub fn on_ack(&mut self, now: Instant, sent_time: Instant, bytes: u64, rtt: Duration) {
        if self.in_recovery(sent_time) {
            return;
        }
        if self.window < self.ssthresh {
            self.window += bytes;
            return;
        }
        let mss = MAX_DATAGRAM_SIZE as f64;
        let epoch = *self.epoch_start.get_or_insert(now);
        self.acked_since_epoch += bytes;
        // Reno-friendly estimate (RFC 8312 W_est closed form, with acked
        // windows since epoch standing in for elapsed RTTs).
        self.w_est = self.w_max * BETA
            + 3.0 * (1.0 - BETA) / (1.0 + BETA)
                * (self.acked_since_epoch as f64 / self.window as f64)
                * mss;
        let t = now.saturating_duration_since(epoch).as_secs_f64();
        // Cubic target one RTT ahead.
        let target = self.w_cubic(t + rtt.as_secs_f64());
        let cur = self.window as f64;
        let next = if target > self.w_est.max(cur) {
            // Concave/convex region: move a fraction of the gap per ack.
            cur + (target - cur) / cur * bytes as f64
        } else if self.w_est > cur {
            // Reno-friendly region.
            self.w_est
        } else {
            // Target below current window: minimal growth to stay probing.
            cur + (bytes as f64) * mss / cur * 0.01
        };
        self.window = (next.max(MIN_WINDOW as f64)) as u64;
    }

    /// One loss *event* (not one lost packet); `sent_time` is the send time
    /// of the newest lost packet.
    pub fn on_congestion_event(&mut self, now: Instant, sent_time: Instant) {
        if self.in_recovery(sent_time) {
            return;
        }
        self.recovery_start = Some(now);
        let cur = self.window as f64;
        // Fast convergence: if below previous w_max, shrink the anchor.
        self.w_max = if cur < self.w_max { cur * (1.0 + BETA) / 2.0 } else { cur };
        self.window = ((cur * BETA) as u64).max(MIN_WINDOW);
        self.ssthresh = self.window;
        let mss = MAX_DATAGRAM_SIZE as f64;
        self.k = ((self.w_max * (1.0 - BETA)) / (C * mss)).cbrt();
        self.epoch_start = Some(now);
        self.w_est = self.window as f64;
        self.acked_since_epoch = 0;
    }

    /// Persistent congestion is declared: collapse to the minimum.
    pub fn on_persistent_congestion(&mut self) {
        self.window = MIN_WINDOW;
        self.recovery_start = None;
        self.epoch_start = None;
        self.w_max = 0.0;
        self.k = 0.0;
    }

    /// Current congestion window in bytes.
    pub fn window(&self) -> u64 {
        self.window
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }
    fn rtt() -> Duration {
        Duration::from_millis(50)
    }

    #[test]
    fn starts_at_the_initial_window() {
        assert_eq!(Cubic::new().window(), INITIAL_WINDOW);
    }

    #[test]
    fn slow_start_grows_exponentially() {
        let mut cc = Cubic::new();
        let w0 = cc.window();
        cc.on_ack(t(50), t(0), w0, rtt());
        assert_eq!(cc.window(), 2 * w0);
    }

    #[test]
    fn loss_reduces_by_beta() {
        let mut cc = Cubic::new();
        cc.on_ack(t(50), t(0), 200_000, rtt());
        let before = cc.window();
        cc.on_congestion_event(t(100), t(90));
        let after = cc.window();
        assert!((after as f64 - before as f64 * BETA).abs() < MAX_DATAGRAM_SIZE as f64);
    }

    #[test]
    fn cubic_growth_accelerates_past_k() {
        let mut cc = Cubic::new();
        // Build a large window, then lose.
        cc.on_ack(t(50), t(0), 2_000_000, rtt());
        cc.on_congestion_event(t(100), t(90));
        let w_after_loss = cc.window();
        // Ack steadily; measure growth early vs late.
        let mut now = 200u64;
        let mut w_early = 0;
        let mut w_late = 0;
        for i in 0..200 {
            cc.on_ack(t(now), t(now - 10), 10 * MAX_DATAGRAM_SIZE, rtt());
            now += 50;
            if i == 20 {
                w_early = cc.window();
            }
            if i == 199 {
                w_late = cc.window();
            }
        }
        assert!(w_early >= w_after_loss, "window must not shrink without loss");
        assert!(w_late > w_early, "late growth should exceed early plateau");
    }

    #[test]
    fn plateau_near_w_max() {
        // After a loss, growth should be slow near w_max (concave region).
        let mut cc = Cubic::new();
        cc.on_ack(t(50), t(0), 1_000_000, rtt());
        let w_max = cc.window() as f64;
        cc.on_congestion_event(t(100), t(90));
        // Immediately after loss the cubic target at t=K is w_max.
        assert!(cc.w_cubic(cc.k) - w_max < 1.0);
    }

    #[test]
    fn one_reduction_per_recovery() {
        let mut cc = Cubic::new();
        cc.on_ack(t(50), t(0), 500_000, rtt());
        cc.on_congestion_event(t(100), t(90));
        let w = cc.window();
        cc.on_congestion_event(t(101), t(95));
        assert_eq!(cc.window(), w);
    }

    #[test]
    fn fast_convergence_shrinks_anchor() {
        let mut cc = Cubic::new();
        cc.on_ack(t(50), t(0), 1_000_000, rtt());
        cc.on_congestion_event(t(100), t(90));
        let w_max_1 = cc.w_max;
        // Second loss at a lower window → anchor shrinks below current w_max.
        cc.on_congestion_event(t(200), t(190));
        assert!(cc.w_max < w_max_1);
    }

    #[test]
    fn persistent_congestion_collapses() {
        let mut cc = Cubic::new();
        cc.on_ack(t(50), t(0), 500_000, rtt());
        cc.on_persistent_congestion();
        assert_eq!(cc.window(), MIN_WINDOW);
    }

    #[test]
    fn window_floor_holds_under_repeated_loss() {
        let mut cc = Cubic::new();
        for i in 0..30 {
            cc.on_congestion_event(t(100 + i * 100), t(50 + i * 100));
            assert!(cc.window() >= MIN_WINDOW);
        }
        assert_eq!(cc.window(), MIN_WINDOW);
    }

    /// Characterisation: one scripted life of a controller (slow start, a
    /// congestion event, cubic growth over several RTTs, persistent
    /// congestion, a fresh start, then a small window where the Reno-friendly
    /// estimate leads) with the exact window after every step. The
    /// constants were recorded through a trait object, before the controller
    /// trait was removed, and pass unedited through the direct calls.
    #[test]
    fn scripted_sequence_pins_every_window() {
        let mut cc = Cubic::new();
        let mut seen = vec![cc.window()];
        // Slow start: four flights, each acked one RTT after it was sent.
        for i in 0..4u64 {
            let w = cc.window();
            cc.on_ack(t(50 * (i + 1)), t(50 * i), w, rtt());
            seen.push(cc.window());
        }
        // One loss event; a second loss from the same flight changes nothing.
        cc.on_congestion_event(t(260), t(240));
        seen.push(cc.window());
        cc.on_congestion_event(t(262), t(250));
        seen.push(cc.window());
        // An ack of a packet sent before recovery began is ignored.
        cc.on_ack(t(270), t(255), 10 * MAX_DATAGRAM_SIZE, rtt());
        seen.push(cc.window());
        // Concave region: twelve RTTs of ten full-size packets each.
        for i in 0..12u64 {
            let now = 320 + 50 * i;
            cc.on_ack(t(now), t(now - 50), 10 * MAX_DATAGRAM_SIZE, rtt());
            seen.push(cc.window());
        }
        // A second loss below the previous maximum (fast convergence); the
        // cubic target is then below the window and growth is minimal.
        cc.on_congestion_event(t(930), t(920));
        seen.push(cc.window());
        for i in 0..4u64 {
            let now = 1000 + 50 * i;
            cc.on_ack(t(now), t(now - 50), 10 * MAX_DATAGRAM_SIZE, rtt());
            seen.push(cc.window());
        }
        // Out of the collapse the window regrows from the minimum.
        cc.on_persistent_congestion();
        seen.push(cc.window());
        for i in 0..3u64 {
            let now = 1300 + 50 * i;
            cc.on_ack(t(now), t(now - 50), 2 * MAX_DATAGRAM_SIZE, rtt());
            seen.push(cc.window());
        }
        // A migrated or revalidated path starts over with a fresh controller.
        cc = Cubic::new();
        seen.push(cc.window());
        cc.on_ack(t(1550), t(1500), INITIAL_WINDOW, rtt());
        seen.push(cc.window());
        // A small window after a loss: the Reno-friendly estimate leads.
        cc.on_congestion_event(t(1600), t(1590));
        seen.push(cc.window());
        for i in 0..6u64 {
            let now = 1700 + 50 * i;
            let w = cc.window();
            cc.on_ack(t(now), t(now - 50), w, rtt());
            seen.push(cc.window());
        }
        assert_eq!(seen, SCRIPTED_WINDOWS);
    }

    #[rustfmt::skip]
    const SCRIPTED_WINDOWS: [u64; 38] = [
        13500, 27000, 54000, 108000, 216000,
        151200, 151200, 151200,
        151578, 152087, 152712, 153437, 154249, 155135, 156085, 157088, 158136, 159222, 160338, 161478,
        113034, 113035, 113036, 113037, 113038,
        2700, 5400, 8100, 10800,
        13500, 27000,
        18900, 20289, 20715, 21122, 21641, 22290, 22906,
    ];
}
