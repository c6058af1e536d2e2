//! Loss detection and sent-packet tracking (RFC 9002 style).
//!
//! Each packet-number space (one per path in multipath mode) owns a
//! [`Recovery`] instance. Loss is declared by packet threshold (3 packets
//! reordering) or time threshold (9/8 · max(smoothed, latest) RTT); a
//! probe timeout (PTO) with exponential backoff fires when no ack arrives.
//!
//! Re-injection (the paper's core mechanism) hooks in here too: the set of
//! in-flight, not-yet-acked packets *is* the `unacked_q` that XLINK's
//! scheduler consults when deciding what to clone onto a faster path.

use crate::error::TransportError;
use crate::rtt::RttEstimator;
use std::collections::BTreeMap;
use xlink_clock::{Duration, Instant};
use xlink_obs::prof;

/// Initial reordering threshold in packets (RFC 9002 §6.1.1). The
/// threshold adapts upward (RACK-style) when spurious losses reveal
/// deeper reordering on the path.
pub const PACKET_THRESHOLD: u64 = 3;
/// Upper bound for the adaptive reordering threshold.
pub const MAX_PACKET_THRESHOLD: u64 = 64;
/// How many recently-declared-lost packets we remember for spurious-loss
/// detection (bounds memory under pathological reordering).
const LOST_HISTORY_CAP: usize = 1024;
/// Time threshold numerator/denominator (9/8).
pub const TIME_THRESHOLD_NUM: u32 = 9;
/// See [`TIME_THRESHOLD_NUM`].
pub const TIME_THRESHOLD_DEN: u32 = 8;
/// Granularity floor for the time threshold.
pub const GRANULARITY: Duration = Duration::from_millis(1);
/// Absolute ceiling on the backed-off PTO interval. Without it the
/// exponential backoff grows to 2^16 · PTO on a blackholed path, which
/// means a path that comes back after a long outage would wait minutes
/// before probing again; liveness detection upstream wants a bounded
/// probe cadence instead.
pub(crate) const MAX_PTO: Duration = Duration::from_secs(2);
/// Consecutive PTOs (without any ack progress) after which liveness
/// detection marks a path suspect (§9). Shared by the single-path
/// parity hook and the multipath failover machine's default config.
pub(crate) const SUSPECT_AFTER_PTOS: u32 = 2;

/// Metadata the connection wants back when a packet is acked or lost.
/// The generic parameter carries per-packet content (e.g. which stream
/// ranges and control frames it bundled).
#[derive(Debug, Clone)]
pub struct SentPacket<T> {
    /// Packet number within this space.
    pub pn: u64,
    /// Transmission time.
    pub time_sent: Instant,
    /// Bytes on the wire (for congestion control accounting).
    pub size: u64,
    /// Whether the packet elicits an acknowledgement.
    pub ack_eliciting: bool,
    /// Whether it counts toward bytes in flight (true for ack-eliciting
    /// and padded packets).
    pub in_flight: bool,
    /// Connection-level payload description.
    pub content: T,
}

/// Outcome of processing an ACK frame.
#[derive(Debug, Default)]
pub struct AckOutcome<T> {
    /// Packets newly acknowledged, ascending by packet number.
    pub acked: Vec<SentPacket<T>>,
    /// Packets declared lost by the packet-count threshold.
    pub lost: Vec<SentPacket<T>>,
    /// RTT sample taken from the largest newly-acked packet, if any.
    pub rtt_sample: Option<Duration>,
}

/// Per-packet-number-space loss recovery state.
#[derive(Debug)]
pub struct Recovery<T> {
    /// In-flight (sent, not acked, not lost) packets by packet number.
    sent: BTreeMap<u64, SentPacket<T>>,
    next_pn: u64,
    largest_acked: Option<u64>,
    /// Time the latest ack-eliciting packet was sent (for PTO arming).
    time_of_last_ack_eliciting: Option<Instant>,
    loss_time: Option<Instant>,
    pto_count: u32,
    bytes_in_flight: u64,
    /// Ack-eliciting packets in `sent`.
    ack_eliciting_in_flight: usize,
    /// Current (adaptive) packet-reordering threshold.
    packet_threshold: u64,
    /// Recently declared-lost packets → reorder gap at declaration, kept
    /// to recognize late ACKs for them as spurious losses.
    recent_lost: BTreeMap<u64, u64>,
    /// Losses later contradicted by an ACK (reordering, not loss).
    spurious_losses: u64,
}

impl<T> Default for Recovery<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Recovery<T> {
    /// Fresh, empty space.
    pub fn new() -> Self {
        Recovery {
            sent: BTreeMap::new(),
            next_pn: 0,
            largest_acked: None,
            time_of_last_ack_eliciting: None,
            loss_time: None,
            pto_count: 0,
            bytes_in_flight: 0,
            ack_eliciting_in_flight: 0,
            packet_threshold: PACKET_THRESHOLD,
            recent_lost: BTreeMap::new(),
            spurious_losses: 0,
        }
    }

    /// Current packet-reordering threshold (≥ [`PACKET_THRESHOLD`]; grows
    /// when spurious losses show the path reorders more deeply).
    pub fn packet_threshold(&self) -> u64 {
        self.packet_threshold
    }

    /// Losses later contradicted by an ACK of the "lost" packet.
    pub fn spurious_losses(&self) -> u64 {
        self.spurious_losses
    }

    /// Allocate the next packet number (without sending).
    pub fn peek_pn(&self) -> u64 {
        self.next_pn
    }

    /// Largest packet number acknowledged by the peer, if any.
    pub fn largest_acked(&self) -> Option<u64> {
        self.largest_acked
    }

    /// Bytes currently counted in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// Number of tracked (unacked) packets.
    pub fn in_flight_count(&self) -> usize {
        self.sent.len()
    }

    /// True if any ack-eliciting packet is outstanding.
    pub fn has_ack_eliciting_in_flight(&self) -> bool {
        self.ack_eliciting_in_flight > 0
    }

    /// `packet` left `sent` (acked or declared lost): the counters follow.
    fn on_left_flight(&mut self, packet: &SentPacket<T>) {
        if packet.in_flight {
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(packet.size);
        }
        self.ack_eliciting_in_flight -= usize::from(packet.ack_eliciting);
    }

    /// Current PTO backoff exponent.
    pub fn pto_count(&self) -> u32 {
        self.pto_count
    }

    /// Clear the PTO backoff (used when a path is revalidated after
    /// probation: the old backoff reflects the dead incarnation of the
    /// path, not the recovered one).
    pub fn reset_pto_count(&mut self) {
        self.pto_count = 0;
    }

    /// Record a transmitted packet; returns its packet number.
    pub fn on_packet_sent(
        &mut self,
        now: Instant,
        size: u64,
        ack_eliciting: bool,
        content: T,
    ) -> u64 {
        let pn = self.next_pn;
        self.next_pn += 1;
        if ack_eliciting {
            self.time_of_last_ack_eliciting = Some(now);
            self.bytes_in_flight += size;
            self.ack_eliciting_in_flight += 1;
        }
        self.sent.insert(
            pn,
            SentPacket {
                pn,
                time_sent: now,
                size,
                ack_eliciting,
                in_flight: ack_eliciting,
                content,
            },
        );
        pn
    }

    /// Protocol police (§10): an ACK may only cover packet numbers this
    /// space has actually allocated. A range that claims a packet we
    /// never sent (`end >= next_pn`) is the optimistic-ACK attack — a
    /// hostile receiver pre-acknowledging future packets to inflate the
    /// sender's RTT/cwnd estimates — and must close the connection with
    /// `PROTOCOL_VIOLATION` rather than feed the congestion controller.
    /// Call this before [`Recovery::on_ack_received`] with the same
    /// ranges.
    pub fn validate_ack(
        &self,
        ranges: impl Iterator<Item = (u64, u64)>,
    ) -> Result<(), TransportError> {
        for (start, end) in ranges {
            if start > end || end >= self.next_pn {
                return Err(TransportError::ProtocolViolation);
            }
        }
        Ok(())
    }

    /// Process acknowledged ranges (ascending iterator of inclusive
    /// (start, end) pairs). Detects newly acked and threshold-lost packets.
    pub fn on_ack_received(
        &mut self,
        now: Instant,
        ranges: impl Iterator<Item = (u64, u64)>,
        rtt: &mut RttEstimator,
        ack_delay: Duration,
    ) -> AckOutcome<T> {
        let _prof = prof::span!("quic/recovery_ack");
        let mut out = AckOutcome { acked: Vec::new(), lost: Vec::new(), rtt_sample: None };
        let mut largest_newly_acked: Option<(u64, Instant, bool)> = None;
        for (start, end) in ranges {
            // A late ACK for a packet we already declared lost means the
            // packet was reordered, not lost: widen the reordering
            // threshold to the observed gap so the path's skew stops
            // triggering spurious retransmits.
            let spurious: Vec<u64> = self.recent_lost.range(start..=end).map(|(k, _)| *k).collect();
            for pn in spurious {
                let gap = self.recent_lost.remove(&pn).expect("key just seen");
                self.spurious_losses += 1;
                self.packet_threshold =
                    self.packet_threshold.max(gap + 1).min(MAX_PACKET_THRESHOLD);
            }
            while let Some((&k, _)) = self.sent.range(start..=end).next() {
                let p = self.sent.remove(&k).expect("key just seen");
                self.on_left_flight(&p);
                match largest_newly_acked {
                    Some((pn, _, _)) if pn >= p.pn => {}
                    _ => largest_newly_acked = Some((p.pn, p.time_sent, p.ack_eliciting)),
                }
                out.acked.push(p);
            }
            self.largest_acked = Some(self.largest_acked.map_or(end, |l| l.max(end)));
        }
        out.acked.sort_by_key(|p| p.pn);
        if let Some((pn, time_sent, ack_eliciting)) = largest_newly_acked {
            // RTT sample only if the largest newly acked is the overall
            // largest acked and was ack-eliciting.
            if ack_eliciting && Some(pn) == self.largest_acked {
                out.rtt_sample = Some(now.saturating_duration_since(time_sent));
                rtt.update(now.saturating_duration_since(time_sent), ack_delay);
            }
        }
        if !out.acked.is_empty() {
            self.pto_count = 0;
            // Run loss detection now that largest_acked may have advanced.
            let lost = self.detect_lost(now, rtt);
            out.lost = lost;
        }
        out
    }

    /// Detect lost packets by packet threshold and time threshold, and
    /// re-arm the loss timer.
    pub fn detect_lost(&mut self, now: Instant, rtt: &RttEstimator) -> Vec<SentPacket<T>> {
        let _prof = prof::span!("quic/recovery_detect_lost");
        let mut lost = Vec::new();
        self.loss_time = None;
        let Some(largest_acked) = self.largest_acked else {
            return lost;
        };
        let loss_delay = rtt
            .latest()
            .max(rtt.smoothed())
            .mul_f64(TIME_THRESHOLD_NUM as f64 / TIME_THRESHOLD_DEN as f64)
            .max(GRANULARITY);
        // Only meaningful when the clock has advanced past the delay;
        // otherwise (early in a simulation) no packet can be time-lost.
        let lost_send_time =
            if now.as_micros() >= loss_delay.as_micros() { Some(now - loss_delay) } else { None };
        let mut to_remove = Vec::new();
        for (&pn, p) in self.sent.iter() {
            if pn > largest_acked {
                break; // only packets older than the largest ack can be lost
            }
            if largest_acked >= pn + self.packet_threshold
                || lost_send_time.is_some_and(|t| p.time_sent <= t)
            {
                to_remove.push(pn);
            } else {
                // Earliest future time at which this packet would be
                // declared lost by the time threshold.
                let t = p.time_sent + loss_delay;
                self.loss_time = Some(self.loss_time.map_or(t, |lt: Instant| lt.min(t)));
            }
        }
        for pn in to_remove {
            let p = self.sent.remove(&pn).expect("key just seen");
            self.on_left_flight(&p);
            self.recent_lost.insert(pn, largest_acked.saturating_sub(pn));
            while self.recent_lost.len() > LOST_HISTORY_CAP {
                let oldest = *self.recent_lost.keys().next().expect("non-empty");
                self.recent_lost.remove(&oldest);
            }
            lost.push(p);
        }
        lost
    }

    /// Next loss-detection timer: the earlier of the loss time and the PTO.
    pub fn next_timeout(&self, rtt: &RttEstimator, max_ack_delay: Duration) -> Option<Instant> {
        if let Some(lt) = self.loss_time {
            return Some(lt);
        }
        let base = self.time_of_last_ack_eliciting?;
        if !self.has_ack_eliciting_in_flight() {
            return None;
        }
        let pto =
            rtt.pto(max_ack_delay).mul_f64(f64::from(1u32 << self.pto_count.min(16))).min(MAX_PTO);
        Some(base + pto)
    }

    /// Handle the loss-detection timer firing. Returns packets declared
    /// lost by the time threshold; if none, the PTO backoff is increased
    /// and the caller should send a probe.
    pub fn on_timeout(&mut self, now: Instant, rtt: &RttEstimator) -> TimeoutOutcome<T> {
        if self.loss_time.is_some() {
            let lost = self.detect_lost(now, rtt);
            if !lost.is_empty() {
                return TimeoutOutcome::Lost(lost);
            }
        }
        self.pto_count += 1;
        TimeoutOutcome::SendProbe
    }

    /// Iterate unacked packets ascending (XLINK's `unacked_q` view).
    pub fn unacked(&self) -> impl Iterator<Item = &SentPacket<T>> {
        self.sent.values()
    }

    /// Oldest unacked send time (used for persistent-congestion checks and
    /// scheduler introspection).
    pub fn oldest_unacked_time(&self) -> Option<Instant> {
        self.sent.values().map(|p| p.time_sent).min()
    }

    /// Drain every tracked packet (used when abandoning a path: its
    /// in-flight data must be re-queued elsewhere).
    pub fn drain_all(&mut self) -> Vec<SentPacket<T>> {
        (self.bytes_in_flight, self.ack_eliciting_in_flight) = (0, 0);
        let sent = std::mem::take(&mut self.sent);
        sent.into_values().collect()
    }
}

/// Result of [`Recovery::on_timeout`].
#[derive(Debug)]
pub enum TimeoutOutcome<T> {
    /// Packets lost by the time threshold; retransmit their content.
    Lost(Vec<SentPacket<T>>),
    /// Nothing provably lost: send a PTO probe (backoff already bumped).
    SendProbe,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtt_with(ms: u64) -> RttEstimator {
        let mut r = RttEstimator::new();
        r.update(Duration::from_millis(ms), Duration::ZERO);
        r
    }

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn sent_packets_tracked_and_acked() {
        let mut rec: Recovery<u32> = Recovery::new();
        let mut rtt = rtt_with(50);
        for i in 0..5 {
            let pn = rec.on_packet_sent(t(i), 1200, true, i as u32);
            assert_eq!(pn, i);
        }
        assert_eq!(rec.bytes_in_flight(), 6000);
        let out = rec.on_ack_received(t(60), [(0, 2)].into_iter(), &mut rtt, Duration::ZERO);
        assert_eq!(out.acked.len(), 3);
        assert_eq!(rec.bytes_in_flight(), 2400);
        assert_eq!(rec.largest_acked(), Some(2));
    }

    #[test]
    fn optimistic_ack_rejected_by_validate() {
        let mut rec: Recovery<()> = Recovery::new();
        for i in 0..3 {
            rec.on_packet_sent(t(i), 1000, true, ());
        }
        // Everything actually sent validates.
        assert!(rec.validate_ack([(0u64, 2u64)].into_iter()).is_ok());
        // Claiming a never-sent pn is the optimistic-ACK attack.
        assert_eq!(
            rec.validate_ack([(0u64, 3u64)].into_iter()),
            Err(TransportError::ProtocolViolation)
        );
        // Inverted ranges are equally malformed.
        assert_eq!(
            rec.validate_ack([(2u64, 1u64)].into_iter()),
            Err(TransportError::ProtocolViolation)
        );
        // An empty space has sent nothing: any ACK is a violation.
        let empty: Recovery<()> = Recovery::new();
        assert!(empty.validate_ack([(0u64, 0u64)].into_iter()).is_err());
    }

    #[test]
    fn rtt_sampled_from_largest_newly_acked() {
        let mut rec: Recovery<()> = Recovery::new();
        let mut rtt = RttEstimator::new();
        rec.on_packet_sent(t(0), 100, true, ());
        rec.on_packet_sent(t(10), 100, true, ());
        let out = rec.on_ack_received(t(100), [(0, 1)].into_iter(), &mut rtt, Duration::ZERO);
        // Largest newly acked = pn 1, sent at 10 → sample 90ms.
        assert_eq!(out.rtt_sample, Some(Duration::from_millis(90)));
        assert_eq!(rtt.latest(), Duration::from_millis(90));
    }

    #[test]
    fn packet_threshold_loss() {
        let mut rec: Recovery<u32> = Recovery::new();
        let mut rtt = rtt_with(50);
        for i in 0..5 {
            rec.on_packet_sent(t(i), 1000, true, i as u32);
        }
        // Ack only pn 4; pns 0 and 1 are ≥3 behind → lost. pns 2,3 within threshold.
        let out = rec.on_ack_received(t(60), [(4, 4)].into_iter(), &mut rtt, Duration::ZERO);
        let lost_pns: Vec<u64> = out.lost.iter().map(|p| p.pn).collect();
        assert_eq!(lost_pns, vec![0, 1]);
        assert_eq!(rec.in_flight_count(), 2);
    }

    #[test]
    fn time_threshold_loss() {
        let mut rec: Recovery<()> = Recovery::new();
        let mut rtt = rtt_with(100);
        rec.on_packet_sent(t(0), 1000, true, ());
        rec.on_packet_sent(t(300), 1000, true, ());
        // Ack pn 1 one RTT after its send; pn 0 is then far older than
        // 9/8 · RTT → time-lost.
        let out = rec.on_ack_received(t(400), [(1, 1)].into_iter(), &mut rtt, Duration::ZERO);
        assert_eq!(out.lost.len(), 1);
        assert_eq!(out.lost[0].pn, 0);
    }

    #[test]
    fn loss_timer_armed_for_reordered_packet() {
        let mut rec: Recovery<()> = Recovery::new();
        let mut rtt = rtt_with(50);
        rec.on_packet_sent(t(0), 1000, true, ());
        rec.on_packet_sent(t(10), 1000, true, ());
        // Ack pn 1 quickly: pn 0 within both thresholds → timer armed.
        let out = rec.on_ack_received(t(30), [(1, 1)].into_iter(), &mut rtt, Duration::ZERO);
        assert!(out.lost.is_empty());
        let timeout = rec.next_timeout(&rtt, Duration::ZERO).unwrap();
        assert!(timeout > t(30) && timeout < t(200), "timeout = {timeout:?}");
        // Firing the timer at/after that point declares pn 0 lost.
        match rec.on_timeout(timeout + Duration::from_millis(1), &rtt) {
            TimeoutOutcome::Lost(lost) => assert_eq!(lost[0].pn, 0),
            TimeoutOutcome::SendProbe => panic!("expected loss"),
        }
    }

    #[test]
    fn pto_fires_and_backs_off() {
        let mut rec: Recovery<()> = Recovery::new();
        let rtt = rtt_with(50);
        let mut now = t(0);
        rec.on_packet_sent(now, 1000, true, ());
        let t1 = rec.next_timeout(&rtt, Duration::ZERO).unwrap();
        now = t1;
        assert!(matches!(rec.on_timeout(now, &rtt), TimeoutOutcome::SendProbe));
        assert_eq!(rec.pto_count(), 1);
        let t2 = rec.next_timeout(&rtt, Duration::ZERO).unwrap();
        // Exponential backoff: the PTO interval from the last ack-eliciting
        // send doubles (t1 = base + pto, t2 = base + 2·pto).
        assert_eq!((t2 - t(0)).as_micros(), 2 * (t1 - t(0)).as_micros());
    }

    #[test]
    fn pto_backoff_capped_at_max_pto() {
        let mut rec: Recovery<()> = Recovery::new();
        let rtt = rtt_with(50);
        rec.on_packet_sent(t(0), 1000, true, ());
        // Drive the backoff far past the point where 2^n · PTO would
        // exceed the cap.
        for _ in 0..12 {
            assert!(matches!(rec.on_timeout(t(1000), &rtt), TimeoutOutcome::SendProbe));
        }
        let deadline = rec.next_timeout(&rtt, Duration::ZERO).unwrap();
        assert_eq!(deadline - t(0), MAX_PTO, "backed-off PTO must be clamped to MAX_PTO");
    }

    #[test]
    fn reset_pto_count_clears_backoff() {
        let mut rec: Recovery<()> = Recovery::new();
        let rtt = rtt_with(50);
        rec.on_packet_sent(t(0), 1000, true, ());
        for _ in 0..5 {
            rec.on_timeout(t(1000), &rtt);
        }
        assert_eq!(rec.pto_count(), 5);
        rec.reset_pto_count();
        assert_eq!(rec.pto_count(), 0);
        // The timer is re-armed at the un-backed-off interval.
        let t_fresh = rec.next_timeout(&rtt, Duration::ZERO).unwrap();
        assert!(t_fresh - t(0) < MAX_PTO);
    }

    #[test]
    fn ack_resets_pto_count() {
        let mut rec: Recovery<()> = Recovery::new();
        let mut rtt = rtt_with(50);
        rec.on_packet_sent(t(0), 1000, true, ());
        rec.on_timeout(t(1000), &rtt);
        assert_eq!(rec.pto_count(), 1);
        rec.on_packet_sent(t(1001), 1000, true, ());
        rec.on_ack_received(t(1050), [(0, 1)].into_iter(), &mut rtt, Duration::ZERO);
        assert_eq!(rec.pto_count(), 0);
    }

    #[test]
    fn non_ack_eliciting_not_in_flight() {
        let mut rec: Recovery<()> = Recovery::new();
        rec.on_packet_sent(t(0), 50, false, ());
        assert_eq!(rec.bytes_in_flight(), 0);
        assert!(!rec.has_ack_eliciting_in_flight());
        let rtt = rtt_with(50);
        assert!(rec.next_timeout(&rtt, Duration::ZERO).is_none());
    }

    /// The ack-eliciting counter against a walk of `sent`, after every step
    /// of a random sent / acked / lost / drained sequence.
    #[test]
    fn prop_ack_eliciting_counter_matches_the_walk() {
        use xlink_lab::prop::*;
        check(
            "prop_ack_eliciting_counter_matches_the_walk",
            vec_of((0u8..8, 0u64..40, 0u64..12), 0..60),
            |ops| {
                let mut rec: Recovery<()> = Recovery::new();
                let mut rtt = rtt_with(20);
                let mut now = t(0);
                for &(kind, a, b) in ops {
                    now += Duration::from_millis(b);
                    match kind {
                        0..=2 => drop(rec.on_packet_sent(now, 1200, true, ())),
                        3 => drop(rec.on_packet_sent(now, 60, false, ())),
                        // Acks with gaps declare the packets below them lost.
                        4 | 5 if rec.peek_pn() > 0 => {
                            let start = a % rec.peek_pn();
                            let end = (start + b).min(rec.peek_pn() - 1);
                            let ranges = [(start, end)].into_iter();
                            drop(rec.on_ack_received(now, ranges, &mut rtt, Duration::ZERO));
                        }
                        6 => drop(rec.on_timeout(now + Duration::from_millis(a * 10), &rtt)),
                        7 if a < 4 => drop(rec.drain_all()),
                        _ => {}
                    }
                    let walked = rec.unacked().any(|p| p.ack_eliciting);
                    prop_assert_eq!(rec.has_ack_eliciting_in_flight(), walked);
                    let in_flight: u64 =
                        rec.unacked().filter(|p| p.in_flight).map(|p| p.size).sum();
                    prop_assert_eq!(rec.bytes_in_flight(), in_flight);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn duplicate_ack_ranges_are_idempotent() {
        let mut rec: Recovery<()> = Recovery::new();
        let mut rtt = rtt_with(50);
        rec.on_packet_sent(t(0), 1000, true, ());
        let out1 = rec.on_ack_received(t(50), [(0, 0)].into_iter(), &mut rtt, Duration::ZERO);
        assert_eq!(out1.acked.len(), 1);
        let out2 = rec.on_ack_received(t(60), [(0, 0)].into_iter(), &mut rtt, Duration::ZERO);
        assert!(out2.acked.is_empty());
        assert_eq!(rec.bytes_in_flight(), 0);
    }

    #[test]
    fn drain_all_clears_state() {
        let mut rec: Recovery<u8> = Recovery::new();
        for i in 0..4 {
            rec.on_packet_sent(t(i), 500, true, i as u8);
        }
        let drained = rec.drain_all();
        assert_eq!(drained.len(), 4);
        assert_eq!(rec.bytes_in_flight(), 0);
        assert_eq!(rec.in_flight_count(), 0);
        // Packet numbers keep increasing after a drain.
        assert_eq!(rec.on_packet_sent(t(10), 500, true, 9), 4);
    }

    #[test]
    fn spurious_loss_widens_packet_threshold() {
        let mut rec: Recovery<u32> = Recovery::new();
        let mut rtt = rtt_with(50);
        for i in 0..6 {
            rec.on_packet_sent(t(i), 1000, true, i as u32);
        }
        // Ack pn 4: pns 0,1 are ≥3 behind → declared lost.
        let out = rec.on_ack_received(t(20), [(4, 4)].into_iter(), &mut rtt, Duration::ZERO);
        assert_eq!(out.lost.iter().map(|p| p.pn).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(rec.packet_threshold(), PACKET_THRESHOLD);
        // The "lost" packets were merely reordered: their ACK arrives late
        // (together with the rest of the window).
        rec.on_ack_received(t(25), [(0, 5)].into_iter(), &mut rtt, Duration::ZERO);
        assert_eq!(rec.spurious_losses(), 2);
        // Gap at declaration was 4 (pn 0 vs largest_acked 4) → threshold 5.
        assert_eq!(rec.packet_threshold(), 5);
        // The same reordering depth no longer triggers loss.
        for i in 6..11 {
            rec.on_packet_sent(t(i), 1000, true, i as u32);
        }
        let out = rec.on_ack_received(t(40), [(10, 10)].into_iter(), &mut rtt, Duration::ZERO);
        assert!(out.lost.is_empty(), "gap of 4 is within the widened threshold");
    }

    #[test]
    fn packet_threshold_capped() {
        let mut rec: Recovery<()> = Recovery::new();
        let mut rtt = rtt_with(50);
        for i in 0..200 {
            rec.on_packet_sent(t(i), 100, true, ());
        }
        rec.on_ack_received(t(300), [(199, 199)].into_iter(), &mut rtt, Duration::ZERO);
        // Everything below was declared lost; ack it all late.
        rec.on_ack_received(t(301), [(0, 198)].into_iter(), &mut rtt, Duration::ZERO);
        assert!(rec.spurious_losses() > 0);
        assert_eq!(rec.packet_threshold(), MAX_PACKET_THRESHOLD);
    }

    #[test]
    fn unacked_iteration_ascending() {
        let mut rec: Recovery<u8> = Recovery::new();
        for i in 0..3 {
            rec.on_packet_sent(t(i), 100, true, i as u8);
        }
        let pns: Vec<u64> = rec.unacked().map(|p| p.pn).collect();
        assert_eq!(pns, vec![0, 1, 2]);
        assert_eq!(rec.oldest_unacked_time(), Some(t(0)));
    }
}
