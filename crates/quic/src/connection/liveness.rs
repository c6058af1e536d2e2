//! Per-path liveness detection and failover policy (§9).
//!
//! A blackholed path gives no explicit signal: packets are absorbed, no
//! ACKs return, and without intervention the scheduler keeps picking the
//! path while PTO backoff stretches the probe cadence. The liveness
//! machine turns the recovery layer's implicit signals — consecutive
//! PTOs and ack silence — into explicit path-state transitions:
//!
//! ```text
//!            consecutive PTOs ≥ suspect_after_ptos
//!            or ack silence ≥ ack_silence
//!   Active ─────────────────────────────────────────▶ Suspect
//!   Standby                                             │   ▲
//!      ▲            pto_count ≥ blackhole_after_ptos    │   │ ack
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

use crate::recovery::SUSPECT_AFTER_PTOS;
use xlink_clock::Duration;
use xlink_clock::Instant;

/// Tunables for the failover state machine. Defaults follow the
/// subway-handover scenario the paper optimizes for: suspicion within a
/// few hundred milliseconds of an outage, probation within a couple of
/// seconds, and probe backoff bounded so a recovering link rejoins fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Master switch; off restores the pre-liveness behaviour (paths are
    /// only ever abandoned explicitly via PATH_STATUS).
    pub enabled: bool,
    /// Consecutive PTOs (no ack progress in between) before a path is
    /// marked Suspect.
    pub suspect_after_ptos: u32,
    /// Consecutive PTOs before a Suspect path is declared blackholed and
    /// moved to Probation (its in-flight data requeued elsewhere).
    pub blackhole_after_ptos: u32,
    /// Ack silence (time since the last ack progress, with ack-eliciting
    /// data outstanding) that alone marks a path Suspect.
    pub ack_silence: Duration,
    /// First probation PATH_CHALLENGE retry interval.
    pub probe_initial: Duration,
    /// Ceiling for the exponentially-backed-off probe interval.
    pub probe_max: Duration,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            enabled: true,
            suspect_after_ptos: SUSPECT_AFTER_PTOS,
            blackhole_after_ptos: 4,
            ack_silence: Duration::from_millis(1000),
            probe_initial: Duration::from_millis(250),
            probe_max: Duration::from_secs(4),
        }
    }
}

impl LivenessConfig {
    /// A disabled machine (used by baselines that must not auto-manage
    /// paths).
    pub fn disabled() -> Self {
        LivenessConfig { enabled: false, ..LivenessConfig::default() }
    }
}

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
    pub fn start(now: Instant, cfg: &LivenessConfig) -> Self {
        Probation { next_probe_at: now, interval: cfg.probe_initial, probes_sent: 0 }
    }

    /// Account one probe sent at `now` and back off the interval.
    pub fn on_probe_sent(&mut self, now: Instant, cfg: &LivenessConfig) {
        self.probes_sent += 1;
        self.next_probe_at = now + self.interval;
        self.interval = self.interval.mul_f64(2.0).min(cfg.probe_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered() {
        let c = LivenessConfig::default();
        assert!(c.enabled);
        assert!(c.suspect_after_ptos < c.blackhole_after_ptos);
        assert!(c.probe_initial < c.probe_max);
        assert!(c.ack_silence > Duration::ZERO);
    }

    #[test]
    fn probation_backoff_doubles_and_caps() {
        let cfg = LivenessConfig::default();
        let mut p = Probation::start(Instant::from_millis(1000), &cfg);
        assert_eq!(p.next_probe_at, Instant::from_millis(1000), "first probe is immediate");
        let mut now = Instant::from_millis(1000);
        let mut intervals = Vec::new();
        for _ in 0..8 {
            let before = p.next_probe_at;
            p.on_probe_sent(now, &cfg);
            intervals.push(p.next_probe_at - now);
            now = p.next_probe_at;
            assert!(p.next_probe_at >= before);
        }
        assert_eq!(intervals[0], cfg.probe_initial);
        assert_eq!(intervals[1], cfg.probe_initial.mul_f64(2.0));
        assert_eq!(*intervals.last().unwrap(), cfg.probe_max, "backoff must cap at probe_max");
        assert_eq!(p.probes_sent, 8);
    }

    #[test]
    fn disabled_config_keeps_thresholds() {
        let c = LivenessConfig::disabled();
        assert!(!c.enabled);
        assert_eq!(c.suspect_after_ptos, LivenessConfig::default().suspect_after_ptos);
    }
}
