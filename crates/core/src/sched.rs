//! Scheduler and re-injection configuration.
//!
//! The multipath connection is policy-parameterized: the same state
//! machine runs vanilla-MP (min-RTT, no re-injection), the MPTCP and
//! redundant baselines, and XLINK (min-RTT + priority-based re-injection
//! under QoE control). Which policy is active is an experiment knob. Every
//! scheme schedules new data by [`min_rtt_choice`].

use xlink_clock::Duration;
use xlink_quic::rtt::RttEstimator;

/// The record of what was re-injected where, which the connection keeps as
/// part of its index of re-injection candidates.
pub use xlink_quic::connection::{ReinjectKey, ReinjectLedger};

/// Re-injection queue-position policy (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReinjectMode {
    /// Traditional appending mode: re-injected data goes behind all
    /// unsent data (Fig. 4a) — suffers stream blocking.
    Appending,
    /// Stream priority-based: re-injected data of stream S goes before
    /// unsent data of lower-priority (later) streams (Fig. 4b).
    StreamPriority,
    /// Video-frame priority-based: additionally orders by frame priority
    /// *within* a stream, so a first-video-frame packet overtakes other
    /// frames of its own stream (Fig. 4c) — first-frame acceleration.
    FramePriority,
    /// MPTCP's opportunistic retransmission with penalisation (the paper's
    /// §8 baseline): the only candidate is the range holding a stream's
    /// lowest offset in flight, and only while the path holding it is at
    /// least twice as slow (smoothed RTT) as the scheduled one. It goes
    /// ahead of unsent data, and the holder takes one congestion event.
    OpportunisticHead,
}

impl ReinjectMode {
    /// Where data queues under the mode (Fig. 4), lower first, given its
    /// stream's priority and its video frame's: appending mode and the
    /// MPTCP arm's byte stream rank nothing (one FIFO), the priority modes
    /// rank by stream priority, within which frame-priority mode also ranks
    /// by video-frame priority.
    pub fn rank(self) -> fn(u8, u8) -> (u8, u8) {
        match self {
            ReinjectMode::Appending | ReinjectMode::OpportunisticHead => |_, _| (0, 0),
            ReinjectMode::StreamPriority => |stream, _| (stream, 0),
            ReinjectMode::FramePriority => |stream, frame| (stream, frame),
        }
    }
}

/// ACK_MP return-path policy (paper §5.3 and Fig. 8): routed by the
/// connection, chosen here.
pub use xlink_quic::connection::AckPathPolicy;

/// ECF-style choice (Lim et al., CoNEXT'17 — reference \[18\] of the paper)
/// over `(path_index, rtt, has_cwnd)` candidates: the
/// fastest path when it has window; otherwise the fastest *available*
/// path, but only if its RTT beats waiting roughly one fast-path RTT for
/// the window to reopen (with a small hysteresis factor). No scheme
/// selects it; the benchmark times it next to [`min_rtt_choice`].
pub fn ecf_choice(candidates: &[(usize, Duration, bool)]) -> Option<usize> {
    let fastest = candidates.iter().min_by_key(|&&(i, rtt, _)| (rtt, i))?;
    if fastest.2 {
        return Some(fastest.0);
    }
    let best_avail =
        candidates.iter().filter(|&&(_, _, c)| c).min_by_key(|&&(i, rtt, _)| (rtt, i))?;
    // Waiting for the fast path costs ~1 fast RTT before the data can even
    // leave; the slow path is worth it when it completes within that
    // budget (hysteresis 1/4 guards against flapping).
    let wait_budget = fastest.1 * 2 + fastest.1 / 4;
    if best_avail.1 <= wait_budget {
        Some(best_avail.0)
    } else {
        None // better to wait for the fast path
    }
}

/// Pick the min-RTT path among candidates `(path_index, rtt, has_cwnd)` —
/// the MPQUIC/MPTCP default the paper calls "vanilla-MP" (§3 footnote 4).
/// Paths without congestion window space are skipped; validated paths
/// without RTT samples use the initial estimate (so fresh paths are
/// probed). Returns None when every path is blocked.
pub fn min_rtt_choice(candidates: &[(usize, Duration, bool)]) -> Option<usize> {
    candidates
        .iter()
        .filter(|&&(_, _, has_cwnd)| has_cwnd)
        .min_by_key(|&&(i, rtt, _)| (rtt, i))
        .map(|&(i, _, _)| i)
}

/// The paper's Eq. 1: worst-case delivery time over paths that still have
/// unacknowledged packets.
pub fn max_deliver_time<'a>(
    paths: impl Iterator<Item = (&'a RttEstimator, bool /*has unacked*/)>,
) -> Option<Duration> {
    paths.filter(|&(_, has_unacked)| has_unacked).map(|(rtt, _)| rtt.deliver_time()).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_clock::Instant;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn min_rtt_prefers_fastest_available() {
        let c = [(0, ms(50), true), (1, ms(20), true), (2, ms(5), false)];
        assert_eq!(min_rtt_choice(&c), Some(1));
    }

    #[test]
    fn min_rtt_none_when_all_blocked() {
        let c = [(0, ms(50), false), (1, ms(20), false)];
        assert_eq!(min_rtt_choice(&c), None);
    }

    #[test]
    fn min_rtt_tie_breaks_low_index() {
        let c = [(1, ms(20), true), (0, ms(20), true)];
        assert_eq!(min_rtt_choice(&c), Some(0));
    }

    #[test]
    fn ecf_uses_fast_path_when_available() {
        let c = [(0, ms(20), true), (1, ms(100), true)];
        assert_eq!(ecf_choice(&c), Some(0));
    }

    #[test]
    fn ecf_spills_to_moderately_slower_path() {
        // Fast path blocked; slow path within ~2.25× fast RTT → use it.
        let c = [(0, ms(20), false), (1, ms(40), true)];
        assert_eq!(ecf_choice(&c), Some(1));
    }

    #[test]
    fn ecf_waits_rather_than_use_a_terrible_path() {
        // Slow path is 10× the fast RTT: waiting wins.
        let c = [(0, ms(20), false), (1, ms(200), true)];
        assert_eq!(ecf_choice(&c), None);
    }

    #[test]
    fn ecf_none_when_everything_blocked() {
        let c = [(0, ms(20), false), (1, ms(40), false)];
        assert_eq!(ecf_choice(&c), None);
    }

    #[test]
    fn max_deliver_time_ignores_idle_paths() {
        let mut fast = RttEstimator::new();
        fast.update(ms(20), Duration::ZERO);
        let mut slow = RttEstimator::new();
        slow.update(ms(200), Duration::ZERO);
        // Slow path has nothing unacked → only fast counts.
        let d = max_deliver_time([(&fast, true), (&slow, false)].into_iter()).unwrap();
        assert_eq!(d, fast.deliver_time());
        // Both have unacked → slow dominates.
        let d = max_deliver_time([(&fast, true), (&slow, true)].into_iter()).unwrap();
        assert_eq!(d, slow.deliver_time());
        // Nothing unacked anywhere.
        assert!(max_deliver_time([(&fast, false)].into_iter()).is_none());
    }

    #[test]
    fn ledger_dedups_and_expires() {
        let mut l = ReinjectLedger::default();
        let k = ReinjectKey { stream_id: 0, start: 100, path: 1 };
        assert!(!l.contains(&k));
        l.record(k, Instant::from_millis(10));
        assert!(l.contains(&k));
        // Same range on another path is a different key.
        assert!(!l.contains(&ReinjectKey { path: 2, ..k }));
        l.expire(Instant::from_millis(1000), ms(500));
        assert!(!l.contains(&k));
        assert!(l.is_empty());
    }
}
