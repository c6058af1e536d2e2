//! One packet-number space: what was sent in it and is still unaccounted
//! for, which packet numbers arrived in it, and whether they are owed an
//! ACK. A connection has one for its Initials and one per path.

use crate::ackranges::AckRanges;
use crate::cid::ConnectionId;
use crate::error::TransportError;
use crate::frame::{AckFrame, Frame};
use crate::packet::{pn_encode_len, pn_truncate, Header, PacketType};
use crate::recovery::{AckOutcome, Recovery};
use crate::rtt::RttEstimator;
use crate::stream::SendRange;
use xlink_clock::{Duration, Instant};

/// What a transmitted packet carried, kept until it is acked or lost.
#[derive(Debug, Clone)]
pub enum SentFrame {
    /// A stream data range.
    Stream {
        /// Stream ID.
        id: u64,
        /// Byte range sent.
        range: SendRange,
        /// FIN bit carried.
        fin: bool,
        /// A proactive duplicate of data in flight elsewhere (multipath
        /// re-injection): its loss is not retransmitted — the original, or
        /// another copy, still covers it.
        reinjected: bool,
    },
    /// Handshake bytes.
    Crypto,
    /// An ACK of path `space`'s packets (the Initial space's count as the
    /// primary path's) up to `largest`, for pruning acknowledged ACK state.
    Ack {
        /// Which received-packet space the ACK reported on.
        space: u64,
        /// Largest acknowledged packet number in the sent ACK.
        largest: u64,
    },
    /// HANDSHAKE_DONE signal.
    HandshakeDone,
    /// Anything retransmittable as is (MAX_DATA etc.).
    Control(Frame),
    /// A PATH_CHALLENGE this endpoint is waiting on (multipath).
    Challenge([u8; 8]),
    /// A PATH_RESPONSE pinned to the path it was sent on (RFC 9000 §8.2.2:
    /// responses leave on the path the challenge arrived on; multipath).
    Response([u8; 8]),
    /// A PTO probe or keep-alive.
    Ping,
}

impl SentFrame {
    /// How a control frame sent as is gets remembered.
    pub fn describing(frame: &Frame) -> SentFrame {
        match frame {
            Frame::Crypto { .. } => SentFrame::Crypto,
            Frame::Ack(a) | Frame::AckMp(a) => {
                SentFrame::Ack { space: a.path_id, largest: a.largest }
            }
            Frame::HandshakeDone => SentFrame::HandshakeDone,
            Frame::Ping => SentFrame::Ping,
            other => SentFrame::Control(other.clone()),
        }
    }
}

/// One packet-number space.
#[derive(Debug, Default)]
pub struct PnSpace {
    /// Sent packets awaiting acknowledgement, and loss detection.
    pub recovery: Recovery<Vec<SentFrame>>,
    /// Packet numbers received.
    pub recv: AckRanges,
    /// An ack-eliciting packet arrived since the last ACK went out.
    pub ack_pending: bool,
}

impl PnSpace {
    /// The peer acknowledged packets of this space. Protocol police first
    /// (§10): an ACK covering a packet number never sent is the
    /// optimistic-ACK attack — an error the connection closes on with
    /// PROTOCOL_VIOLATION, and nothing reaches recovery or congestion
    /// control. Otherwise: what was newly acked and what is thereby lost.
    pub fn on_ack(
        &mut self,
        now: Instant,
        ack: &AckFrame,
        rtt: &mut RttEstimator,
    ) -> Result<AckOutcome<Vec<SentFrame>>, TransportError> {
        let ranges = || ack.ranges_ascending().map(|r| (r.start, r.end));
        self.recovery.validate_ack(ranges())?;
        Ok(self.recovery.on_ack_received(now, ranges(), rtt, ack.ack_delay))
    }

    /// The ACK this space owes, if it owes one.
    pub fn take_ack(&mut self, path_id: u64, delay: Duration) -> Option<AckFrame> {
        if !self.ack_pending {
            return None;
        }
        self.ack_pending = false;
        AckFrame::from_ranges(path_id, &self.recv, delay)
    }

    /// The header of the next packet to be sent in this space.
    pub fn next_header(
        &self,
        ty: PacketType,
        dcid: ConnectionId,
        scid: ConnectionId,
        token: Vec<u8>,
    ) -> Header {
        let pn = self.recovery.peek_pn();
        let pn_len = pn_encode_len(pn, self.recovery.largest_acked());
        Header { ty, dcid, scid, pn: pn_truncate(pn, pn_len), pn_len, token }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimistic_ack_is_refused_before_recovery_sees_it() {
        let (t0, mut rtt) = (Instant::ZERO, RttEstimator::new());
        let mut space = PnSpace::default();
        space.recovery.on_packet_sent(t0, 1200, true, vec![SentFrame::Ping]);
        let mut never_sent = AckRanges::new();
        never_sent.insert_range(0, 5);
        let ack = AckFrame::from_ranges(0, &never_sent, Duration::ZERO).unwrap();
        assert_eq!(space.on_ack(t0, &ack, &mut rtt).err(), Some(TransportError::ProtocolViolation));
        assert_eq!(space.recovery.in_flight_count(), 1, "recovery untouched");
        let mut sent = AckRanges::new();
        sent.insert(0);
        let ack = AckFrame::from_ranges(0, &sent, Duration::ZERO).unwrap();
        assert_eq!(space.on_ack(t0, &ack, &mut rtt).unwrap().acked.len(), 1);
    }

    #[test]
    fn an_ack_is_owed_once_per_elicitation() {
        let mut space = PnSpace::default();
        assert!(space.take_ack(0, Duration::ZERO).is_none());
        space.recv.insert(3);
        space.ack_pending = true;
        let ack = space.take_ack(2, Duration::ZERO).expect("owed");
        assert_eq!((ack.path_id, ack.largest), (2, 3));
        assert!(space.take_ack(2, Duration::ZERO).is_none());
        let sent = SentFrame::describing(&Frame::AckMp(ack));
        assert!(matches!(sent, SentFrame::Ack { space: 2, largest: 3 }));
    }
}
