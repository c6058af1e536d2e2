//! One packet-number space: what was sent in it and is still unaccounted
//! for, which packet numbers arrived in it, and whether they are owed an
//! ACK. A connection has one for its Initials and one per path.

use crate::ackranges::{AckRanges, PnRange};
use crate::cid::ConnectionId;
use crate::error::TransportError;
use crate::frame::Frame;
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
    /// A MAX_DATA, retransmittable as is.
    MaxData(u64),
    /// A MAX_STREAM_DATA, retransmittable as is.
    MaxStreamData {
        /// Stream granted credit.
        stream_id: u64,
        /// New absolute limit.
        max: u64,
    },
    /// Any other frame retransmittable as is (CID management, path status,
    /// resets, …). Boxed: the rare kinds keep every other one small, and
    /// the flow-control updates a transfer sends all along have their own.
    Control(Box<Frame>),
    /// A PATH_CHALLENGE this endpoint is waiting on (multipath).
    Challenge([u8; 8]),
    /// A PATH_RESPONSE pinned to the path it was sent on (RFC 9000 §8.2.2:
    /// responses leave on the path the challenge arrived on; multipath).
    Response([u8; 8]),
    /// A PTO probe or keep-alive.
    Ping,
}

impl SentFrame {
    /// How a frame sent in a packet of its own kind gets remembered.
    pub fn describing(frame: &Frame) -> SentFrame {
        match frame {
            Frame::Crypto { .. } => SentFrame::Crypto,
            Frame::Ack(a) | Frame::AckMp(a) => {
                SentFrame::Ack { space: a.path_id, largest: a.largest }
            }
            Frame::HandshakeDone => SentFrame::HandshakeDone,
            Frame::Ping => SentFrame::Ping,
            Frame::PathChallenge(data) => SentFrame::Challenge(*data),
            Frame::PathResponse(data) => SentFrame::Response(*data),
            other => SentFrame::control(other.clone()),
        }
    }

    /// How a frame retransmittable as is gets remembered.
    pub fn control(frame: Frame) -> SentFrame {
        match frame {
            Frame::MaxData(max) => SentFrame::MaxData(max),
            Frame::MaxStreamData { stream_id, max } => SentFrame::MaxStreamData { stream_id, max },
            other => SentFrame::Control(Box::new(other)),
        }
    }

    /// The frame to send again if this one is lost, if it is one sent as
    /// is.
    pub fn into_control(self) -> Option<Frame> {
        match self {
            SentFrame::MaxData(max) => Some(Frame::MaxData(max)),
            SentFrame::MaxStreamData { stream_id, max } => {
                Some(Frame::MaxStreamData { stream_id, max })
            }
            SentFrame::Control(frame) => Some(*frame),
            _ => None,
        }
    }
}

/// What a sent packet carried, in order: the first frame inline — most
/// packets carry one, so remembering them allocates nothing — and any
/// further ones in a `Vec`.
#[derive(Debug, Clone, Default)]
pub struct SentFrames {
    first: Option<SentFrame>,
    /// Empty unless `first` is there.
    rest: Vec<SentFrame>,
}

impl SentFrames {
    /// Append a frame.
    pub fn push(&mut self, frame: SentFrame) {
        match self.first {
            None => self.first = Some(frame),
            Some(_) => self.rest.push(frame),
        }
    }

    /// True for a packet of no frames.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The frames in order.
    pub fn iter(&self) -> impl Iterator<Item = &SentFrame> {
        self.first.iter().chain(&self.rest)
    }
}

impl IntoIterator for SentFrames {
    type Item = SentFrame;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<SentFrame>, std::vec::IntoIter<SentFrame>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

impl<'a> IntoIterator for &'a SentFrames {
    type Item = &'a SentFrame;
    type IntoIter =
        std::iter::Chain<std::option::Iter<'a, SentFrame>, std::slice::Iter<'a, SentFrame>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.iter().chain(&self.rest)
    }
}

impl FromIterator<SentFrame> for SentFrames {
    fn from_iter<I: IntoIterator<Item = SentFrame>>(frames: I) -> Self {
        let mut sent = SentFrames::default();
        frames.into_iter().for_each(|f| sent.push(f));
        sent
    }
}

/// One packet-number space.
#[derive(Debug, Default)]
pub struct PnSpace {
    /// Sent packets awaiting acknowledgement, and loss detection.
    pub recovery: Recovery<SentFrames>,
    /// Packet numbers received.
    pub recv: AckRanges,
    /// An ack-eliciting packet arrived since the last ACK went out.
    pub ack_pending: bool,
}

impl PnSpace {
    /// The peer acknowledged `ranges` (in any order) of this space.
    /// Protocol police first (§10): an ACK covering a packet number never
    /// sent is the optimistic-ACK attack — an error the connection closes
    /// on with PROTOCOL_VIOLATION, and nothing reaches recovery or
    /// congestion control. Otherwise `out` holds what was newly acked and
    /// what is thereby lost.
    pub fn on_ack(
        &mut self,
        now: Instant,
        ranges: impl Iterator<Item = PnRange> + Clone,
        ack_delay: Duration,
        rtt: &mut RttEstimator,
        out: &mut AckOutcome<SentFrames>,
    ) -> Result<(), TransportError> {
        let pairs = ranges.map(|r| (r.start, r.end));
        self.recovery.validate_ack(pairs.clone())?;
        self.recovery.on_ack_received_into(now, pairs, rtt, ack_delay, out);
        Ok(())
    }

    /// The largest packet number of the ACK this space owes, if it owes
    /// one: the ACK reports [`PnSpace::recv`].
    pub fn take_ack(&mut self) -> Option<u64> {
        if !self.ack_pending {
            return None;
        }
        self.ack_pending = false;
        self.recv.largest()
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
        let (t0, mut rtt, mut out) = (Instant::ZERO, RttEstimator::new(), AckOutcome::default());
        let mut space = PnSpace::default();
        space.recovery.on_packet_sent(t0, 1200, true, [SentFrame::Ping].into_iter().collect());
        let mut never_sent = AckRanges::new();
        for pn in 0..=5 {
            never_sent.insert(pn);
        }
        let ranges = never_sent.iter_descending();
        let refused = space.on_ack(t0, ranges, Duration::ZERO, &mut rtt, &mut out);
        assert_eq!(refused, Err(TransportError::ProtocolViolation));
        assert_eq!(space.recovery.in_flight_count(), 1, "recovery untouched");
        let mut sent = AckRanges::new();
        sent.insert(0);
        space.on_ack(t0, sent.iter_descending(), Duration::ZERO, &mut rtt, &mut out).unwrap();
        assert_eq!(out.acked.len(), 1);
    }

    #[test]
    fn an_ack_is_owed_once_per_elicitation() {
        let mut space = PnSpace::default();
        assert!(space.take_ack().is_none());
        space.recv.insert(3);
        space.ack_pending = true;
        assert_eq!(space.take_ack(), Some(3), "owed");
        assert!(space.take_ack().is_none());
        let ack = crate::frame::AckFrame::from_ranges(2, &space.recv, Duration::ZERO).unwrap();
        let sent = SentFrame::describing(&Frame::AckMp(ack));
        assert!(matches!(sent, SentFrame::Ack { space: 2, largest: 3 }));
    }
}
