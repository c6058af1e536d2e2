//! Per-path liveness detection and failover policy (§9).
//!
//! A blackholed path gives no explicit signal: packets are absorbed, no
//! ACKs return, and without intervention the scheduler keeps picking the
//! path while PTO backoff stretches the probe cadence. The liveness
//! machine turns the recovery layer's implicit signals — consecutive
//! PTOs and ack silence — into explicit path-state transitions, once
//! multipath is negotiated:
//!
//! ```text
//!            consecutive PTOs ≥ SUSPECT_AFTER_PTOS (2)
//!            or ack silence ≥ ACK_SILENCE (1 s)
//!   Active ─────────────────────────────────────────▶ Suspect
//!   Standby                                             │   ▲
//!      ▲            pto_count ≥ BLACKHOLE_AFTER_PTOS (4)│   │ ack
//!      │            (in-flight requeued)                ▼   │ progress
//!      └────────────────────────────────────────── Probation
//!            PATH_RESPONSE to a backoff PATH_CHALLENGE
//!            (cwnd, RTT and pto_count reset on rejoin)
//! ```
//!
//! Suspect paths stop receiving scheduler picks but keep their in-flight
//! packets tracked — those ranges are exactly what the re-injection
//! machinery clones onto surviving paths during failover. Probation
//! paths are drained (in-flight requeued onto survivors) and probed with
//! exponential-backoff PATH_CHALLENGEs until the link answers.
//!
//! The thresholds follow the subway-handover scenario the paper optimizes
//! for: suspicion within a few hundred milliseconds of an outage,
//! probation within a couple of seconds, and probe backoff bounded so a
//! recovering link rejoins fast.

use crate::recovery::SUSPECT_AFTER_PTOS;
use xlink_clock::Duration;
use xlink_clock::Instant;

/// Consecutive PTOs before a Suspect path is declared blackholed and
/// moved to Probation (its in-flight data requeued elsewhere).
pub const BLACKHOLE_AFTER_PTOS: u32 = 4;
/// Ack silence (time since the last ack progress, with ack-eliciting data
/// outstanding) that alone marks a path Suspect.
pub const ACK_SILENCE: Duration = Duration::from_millis(1000);
/// First probation PATH_CHALLENGE retry interval.
pub const PROBE_INITIAL: Duration = Duration::from_millis(250);
/// Ceiling for the exponentially-backed-off probe interval.
pub const PROBE_MAX: Duration = Duration::from_secs(4);

const _: () = assert!(
    SUSPECT_AFTER_PTOS < BLACKHOLE_AFTER_PTOS && PROBE_INITIAL.as_micros() < PROBE_MAX.as_micros()
);

/// Revalidation state of a blackholed path: when to send the next
/// PATH_CHALLENGE and how far the backoff has stretched.
#[derive(Debug, Clone, Copy)]
pub struct Probation {
    /// Deadline for the next challenge probe.
    pub next_probe_at: Instant,
    /// Interval to schedule after the next probe (doubles, capped).
    pub interval: Duration,
    /// Challenges sent so far in this probation episode.
    pub probes_sent: u32,
}

impl Probation {
    /// Start probation: the first probe goes out immediately.
    pub fn start(now: Instant) -> Self {
        Probation { next_probe_at: now, interval: PROBE_INITIAL, probes_sent: 0 }
    }

    /// Account one probe sent at `now` and back off the interval.
    pub fn on_probe_sent(&mut self, now: Instant) {
        self.probes_sent += 1;
        self.next_probe_at = now + self.interval;
        self.interval = self.interval.mul_f64(2.0).min(PROBE_MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probation_backoff_doubles_and_caps() {
        let mut p = Probation::start(Instant::from_millis(1000));
        assert_eq!(p.next_probe_at, Instant::from_millis(1000), "first probe is immediate");
        let mut now = Instant::from_millis(1000);
        let mut intervals = Vec::new();
        for _ in 0..8 {
            let before = p.next_probe_at;
            p.on_probe_sent(now);
            intervals.push(p.next_probe_at - now);
            now = p.next_probe_at;
            assert!(p.next_probe_at >= before);
        }
        assert_eq!(intervals[0], PROBE_INITIAL);
        assert_eq!(intervals[1], PROBE_INITIAL.mul_f64(2.0));
        assert_eq!(*intervals.last().unwrap(), PROBE_MAX, "backoff must cap at PROBE_MAX");
        assert_eq!(p.probes_sent, 8);
    }
}
