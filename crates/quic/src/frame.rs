//! QUIC frame encoding and decoding.
//!
//! Covers the RFC 9000 frames the stack needs plus the multipath extension
//! frames from draft-liu-multipath-quic as used by XLINK (§6 of the paper):
//!
//! * `ACK_MP` — per-path acknowledgement carrying the path identifier (the
//!   CID sequence number) and, as deployed in the paper's experiments, an
//!   optional trailing `QoE_Control_Signal` field (Fig. 16).
//! * `PATH_STATUS` — Abandon(0) / Standby(1) / Available(2) signalling.
//! * `QOE_CONTROL_SIGNALS` — the draft's standalone QoE feedback frame,
//!   decoupled from ACK frequency.

use crate::ackranges::{AckRanges, PnRange};
use crate::cid::IssuedCid;
use crate::error::CodecError;
use crate::varint::{Reader, Writer};
use xlink_clock::Duration;

/// Frame type codes. Extension frames use the draft's provisional
/// greased-range codepoints.
pub mod ty {
    pub const PADDING: u64 = 0x00;
    pub const PING: u64 = 0x01;
    pub const ACK: u64 = 0x02;
    pub const RESET_STREAM: u64 = 0x04;
    pub const STOP_SENDING: u64 = 0x05;
    pub const CRYPTO: u64 = 0x06;
    /// STREAM frames occupy 0x08..=0x0f (OFF/LEN/FIN bits).
    pub const STREAM_BASE: u64 = 0x08;
    pub const MAX_DATA: u64 = 0x10;
    pub const MAX_STREAM_DATA: u64 = 0x11;
    pub const MAX_STREAMS_BIDI: u64 = 0x12;
    pub const DATA_BLOCKED: u64 = 0x14;
    pub const STREAM_DATA_BLOCKED: u64 = 0x15;
    pub const NEW_CONNECTION_ID: u64 = 0x18;
    pub const RETIRE_CONNECTION_ID: u64 = 0x19;
    pub const PATH_CHALLENGE: u64 = 0x1a;
    pub const PATH_RESPONSE: u64 = 0x1b;
    pub const CONNECTION_CLOSE: u64 = 0x1c;
    pub const HANDSHAKE_DONE: u64 = 0x1e;
    /// Multipath extension: ACK_MP.
    pub const ACK_MP: u64 = 0xbaba00;
    /// Multipath extension: ACK_MP with trailing QoE field (paper Fig. 16).
    pub const ACK_MP_QOE: u64 = 0xbaba01;
    /// Multipath extension: PATH_STATUS.
    pub const PATH_STATUS: u64 = 0xbaba05;
    /// Multipath extension: standalone QoE feedback.
    pub const QOE_CONTROL_SIGNALS: u64 = 0xbaba06;
}

/// Status values carried in PATH_STATUS frames (§6 "Frame extension").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStatusKind {
    /// Release all resources associated with the path.
    Abandon,
    /// Keep the path alive but prefer not to send on it.
    Standby,
    /// The path is usable for transmission.
    Available,
}

impl PathStatusKind {
    fn code(self) -> u64 {
        match self {
            PathStatusKind::Abandon => 0,
            PathStatusKind::Standby => 1,
            PathStatusKind::Available => 2,
        }
    }

    fn from_code(v: u64) -> Result<Self, CodecError> {
        match v {
            0 => Ok(PathStatusKind::Abandon),
            1 => Ok(PathStatusKind::Standby),
            2 => Ok(PathStatusKind::Available),
            _ => Err(CodecError::InvalidValue),
        }
    }
}

/// The client video player QoE snapshot carried to the server
/// (paper §5.2: cached_bytes, cached_frames, bps, fps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QoeSignal {
    /// Bytes buffered in the player ahead of the playhead.
    pub cached_bytes: u64,
    /// Frames buffered ahead of the playhead.
    pub cached_frames: u64,
    /// Current media bitrate in bits per second.
    pub bps: u64,
    /// Current frame rate in frames per second.
    pub fps: u64,
}

impl QoeSignal {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.cached_bytes);
        w.varint(self.cached_frames);
        w.varint(self.bps);
        w.varint(self.fps);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(QoeSignal {
            cached_bytes: r.varint()?,
            cached_frames: r.varint()?,
            bps: r.varint()?,
            fps: r.varint()?,
        })
    }
}

/// Body of an ACK or ACK_MP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckFrame {
    /// For ACK_MP: the path identifier (CID sequence number of the packet
    /// space being acknowledged). Zero (and unused) for plain ACK.
    pub path_id: u64,
    /// Largest packet number acknowledged.
    pub largest: u64,
    /// Host delay between receiving `largest` and sending this ACK.
    pub ack_delay: Duration,
    /// Acknowledged ranges, descending (largest first). Must be non-empty
    /// and the first range must contain `largest`.
    pub ranges: Vec<PnRange>,
    /// QoE feedback piggybacked on the ACK_MP (paper's deployed variant).
    pub qoe: Option<QoeSignal>,
}

impl AckFrame {
    /// Build from an [`AckRanges`] set.
    pub fn from_ranges(path_id: u64, set: &AckRanges, ack_delay: Duration) -> Option<Self> {
        let largest = set.largest()?;
        Some(AckFrame {
            path_id,
            largest,
            ack_delay,
            ranges: set.iter_descending().collect(),
            qoe: None,
        })
    }
}

/// An ACK or ACK_MP decoded in place: [`AckFrame`] with its ranges left
/// on the wire, every one of them checked when the frame was decoded and
/// read again, allocation-free, by [`AckRef::ranges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRef<'a> {
    /// See [`AckFrame::path_id`].
    pub path_id: u64,
    /// Largest packet number acknowledged.
    pub largest: u64,
    /// Host delay between receiving `largest` and sending this ACK.
    pub ack_delay: Duration,
    /// QoE feedback piggybacked on the ACK_MP (paper's deployed variant).
    pub qoe: Option<QoeSignal>,
    /// Length of the first range, down from `largest`.
    first_len: u64,
    /// The further ranges as encoded: (gap, length) varint pairs.
    gaps: &'a [u8],
    /// How many ranges the frame carries (1 + the pairs in `gaps`).
    count: u64,
}

impl<'a> AckRef<'a> {
    /// The acknowledged ranges, descending (largest first, as on the wire).
    pub fn ranges(&self) -> impl Iterator<Item = PnRange> + Clone + 'a {
        let mut prev_start = self.largest - self.first_len;
        let first = PnRange { start: prev_start, end: self.largest };
        let mut r = Reader::new(self.gaps);
        // Every pair was decoded once already: this cannot end early.
        let rest = std::iter::from_fn(move || next_ack_range(&mut r, &mut prev_start).ok());
        std::iter::once(first).chain(rest)
    }

    /// The owned frame: the ranges copied out.
    pub fn into_owned(self) -> AckFrame {
        let AckRef { path_id, largest, ack_delay, qoe, .. } = self;
        let mut ranges = Vec::with_capacity(self.count as usize);
        ranges.extend(self.ranges());
        AckFrame { path_id, largest, ack_delay, ranges, qoe }
    }
}

/// A frame decoded in place from a packet payload: [`Frame`] with every
/// byte string and range list borrowed from the payload. Frames that own
/// nothing on the heap are the [`Frame`] itself. [`FrameRef::decode`] is
/// the stack's one frame parser; [`Frame::decode`] is it plus a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRef<'a> {
    /// Single-path acknowledgement.
    Ack(AckRef<'a>),
    /// Multipath acknowledgement (per-path packet number space).
    AckMp(AckRef<'a>),
    /// Handshake payload bytes at an offset.
    Crypto {
        /// Offset in the handshake byte stream.
        offset: u64,
        /// Handshake bytes.
        data: &'a [u8],
    },
    /// Application stream data.
    Stream {
        /// Stream identifier.
        stream_id: u64,
        /// Byte offset of `data` within the stream.
        offset: u64,
        /// Payload bytes.
        data: &'a [u8],
        /// True if this is the final byte range of the stream.
        fin: bool,
    },
    /// Close the connection.
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// UTF-8 reason phrase (possibly empty).
        reason: &'a [u8],
    },
    /// Any other frame: it owns nothing on the heap.
    Other(Frame),
}

impl<'a> FrameRef<'a> {
    /// Decode a single frame from `r`, borrowing from its buffer.
    pub fn decode(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let t = r.varint()?;
        let other = match t {
            ty::PADDING => {
                // Coalesce any run of padding bytes.
                let mut n = 1usize;
                while r.remaining() > 0 && r.peek_u8()? == 0 {
                    r.u8()?;
                    n += 1;
                }
                Frame::Padding(n)
            }
            ty::PING => Frame::Ping,
            ty::ACK => return decode_ack(r, false, false).map(FrameRef::Ack),
            ty::ACK_MP => return decode_ack(r, true, false).map(FrameRef::AckMp),
            ty::ACK_MP_QOE => return decode_ack(r, true, true).map(FrameRef::AckMp),
            ty::RESET_STREAM => Frame::ResetStream {
                stream_id: r.varint()?,
                error_code: r.varint()?,
                final_size: r.varint()?,
            },
            ty::STOP_SENDING => {
                Frame::StopSending { stream_id: r.varint()?, error_code: r.varint()? }
            }
            ty::CRYPTO => {
                let offset = r.varint()?;
                return Ok(FrameRef::Crypto { offset, data: r.varint_bytes()? });
            }
            t if (ty::STREAM_BASE..ty::STREAM_BASE + 8).contains(&t) => {
                let has_off = t & 0x04 != 0;
                let has_len = t & 0x02 != 0;
                let fin = t & 0x01 != 0;
                let stream_id = r.varint()?;
                let offset = if has_off { r.varint()? } else { 0 };
                let data = if has_len { r.varint_bytes()? } else { r.bytes(r.remaining())? };
                return Ok(FrameRef::Stream { stream_id, offset, data, fin });
            }
            ty::MAX_DATA => Frame::MaxData(r.varint()?),
            ty::MAX_STREAM_DATA => {
                Frame::MaxStreamData { stream_id: r.varint()?, max: r.varint()? }
            }
            // §19.11: a limit above 2^60 would allow stream ids past 2^62 - 1.
            ty::MAX_STREAMS_BIDI => match r.varint()? {
                n if n > 1 << 60 => return Err(CodecError::InvalidValue),
                n => Frame::MaxStreams(n),
            },
            ty::DATA_BLOCKED => Frame::DataBlocked(r.varint()?),
            ty::STREAM_DATA_BLOCKED => {
                Frame::StreamDataBlocked { stream_id: r.varint()?, limit: r.varint()? }
            }
            ty::NEW_CONNECTION_ID => Frame::NewConnectionId(IssuedCid::decode(r)?),
            ty::RETIRE_CONNECTION_ID => Frame::RetireConnectionId { seq: r.varint()? },
            ty::PATH_CHALLENGE => Frame::PathChallenge(eight_bytes(r)?),
            ty::PATH_RESPONSE => Frame::PathResponse(eight_bytes(r)?),
            ty::CONNECTION_CLOSE => {
                let error_code = r.varint()?;
                return Ok(FrameRef::ConnectionClose { error_code, reason: r.varint_bytes()? });
            }
            ty::HANDSHAKE_DONE => Frame::HandshakeDone,
            ty::PATH_STATUS => Frame::PathStatus {
                path_id: r.varint()?,
                seq: r.varint()?,
                status: PathStatusKind::from_code(r.varint()?)?,
            },
            ty::QOE_CONTROL_SIGNALS => Frame::QoeControlSignals(QoeSignal::decode(r)?),
            other => return Err(CodecError::UnknownFrame(other)),
        };
        Ok(FrameRef::Other(other))
    }

    /// The frames of a packet payload, each decoded in place — once every
    /// one of them is known to decode: a malformed frame anywhere refuses
    /// the whole packet before any frame of it is acted on.
    pub fn decode_payload(payload: &'a [u8]) -> Result<Frames<'a>, CodecError> {
        let mut r = Reader::new(payload);
        while !r.is_empty() {
            FrameRef::decode(&mut r)?;
        }
        Ok(Frames(Reader::new(payload)))
    }

    /// True if a packet containing this frame must be acknowledged
    /// (everything except ACK/ACK_MP/PADDING/CONNECTION_CLOSE).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            FrameRef::Ack(_)
                | FrameRef::AckMp(_)
                | FrameRef::ConnectionClose { .. }
                | FrameRef::Other(Frame::Padding(_))
        )
    }

    /// The owned frame: every borrowed byte string and range list copied.
    pub fn into_owned(self) -> Frame {
        match self {
            FrameRef::Ack(ack) => Frame::Ack(ack.into_owned()),
            FrameRef::AckMp(ack) => Frame::AckMp(ack.into_owned()),
            FrameRef::Crypto { offset, data } => Frame::Crypto { offset, data: data.to_vec() },
            FrameRef::Stream { stream_id, offset, data, fin } => {
                Frame::Stream { stream_id, offset, data: data.to_vec(), fin }
            }
            FrameRef::ConnectionClose { error_code, reason } => {
                Frame::ConnectionClose { error_code, reason: reason.to_vec() }
            }
            FrameRef::Other(frame) => frame,
        }
    }
}

/// The frames of a payload that [`FrameRef::decode_payload`] checked.
#[derive(Debug, Clone)]
pub struct Frames<'a>(Reader<'a>);

impl<'a> Iterator for Frames<'a> {
    type Item = FrameRef<'a>;

    fn next(&mut self) -> Option<FrameRef<'a>> {
        if self.0.is_empty() {
            return None;
        }
        // Decoded once already: this cannot fail.
        FrameRef::decode(&mut self.0).ok()
    }
}

fn eight_bytes(r: &mut Reader) -> Result<[u8; 8], CodecError> {
    let mut data = [0u8; 8];
    data.copy_from_slice(r.bytes(8)?);
    Ok(data)
}

/// Any frame this stack understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A run of zero padding bytes (length recorded for accounting).
    Padding(usize),
    /// Keep-alive / PTO probe.
    Ping,
    /// Single-path acknowledgement.
    Ack(AckFrame),
    /// Multipath acknowledgement (per-path packet number space).
    AckMp(AckFrame),
    /// Abrupt stream termination by the sender.
    ResetStream {
        /// Stream being reset.
        stream_id: u64,
        /// Application error code.
        error_code: u64,
        /// Final size of the stream in bytes.
        final_size: u64,
    },
    /// Request that the peer stop sending on a stream.
    StopSending {
        /// Stream to quiesce.
        stream_id: u64,
        /// Application error code.
        error_code: u64,
    },
    /// Handshake payload bytes at an offset.
    Crypto {
        /// Offset in the handshake byte stream.
        offset: u64,
        /// Handshake bytes.
        data: Vec<u8>,
    },
    /// Application stream data.
    Stream {
        /// Stream identifier.
        stream_id: u64,
        /// Byte offset of `data` within the stream.
        offset: u64,
        /// Payload bytes.
        data: Vec<u8>,
        /// True if this is the final byte range of the stream.
        fin: bool,
    },
    /// Connection-level flow control credit.
    MaxData(u64),
    /// Stream-level flow control credit.
    MaxStreamData {
        /// Stream granted credit.
        stream_id: u64,
        /// New absolute limit.
        max: u64,
    },
    /// Limit on the number of bidirectional streams the peer may open.
    MaxStreams(u64),
    /// Sender is blocked at the connection flow-control limit.
    DataBlocked(u64),
    /// Sender is blocked at a stream flow-control limit.
    StreamDataBlocked {
        /// Blocked stream.
        stream_id: u64,
        /// The limit at which it is blocked.
        limit: u64,
    },
    /// Advertise an additional connection ID.
    NewConnectionId(IssuedCid),
    /// Retire a previously issued connection ID.
    RetireConnectionId {
        /// Sequence number of the CID to retire.
        seq: u64,
    },
    /// Path validation probe (8-byte opaque payload).
    PathChallenge([u8; 8]),
    /// Path validation answer echoing the challenge payload.
    PathResponse([u8; 8]),
    /// Close the connection.
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// UTF-8 reason phrase (possibly empty).
        reason: Vec<u8>,
    },
    /// Server signal that the handshake is confirmed.
    HandshakeDone,
    /// Multipath path status (§6).
    PathStatus {
        /// Path identifier: CID sequence number of the *sender's* path.
        path_id: u64,
        /// Monotonic per-path status sequence number (latest wins).
        seq: u64,
        /// The advertised status.
        status: PathStatusKind,
    },
    /// Standalone QoE feedback (draft variant, not tied to ACK cadence).
    QoeControlSignals(QoeSignal),
}

impl Frame {
    /// Encode this frame, appending to `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Padding(n) => {
                for _ in 0..*n {
                    w.u8(0);
                }
            }
            Frame::Ping => w.varint(ty::PING),
            Frame::Ack(a) => {
                Frame::encode_ack(w, None, a.largest, a.ack_delay, a.ranges.iter().copied(), None)
            }
            Frame::AckMp(a) => {
                let ranges = a.ranges.iter().copied();
                Frame::encode_ack(
                    w,
                    Some(a.path_id),
                    a.largest,
                    a.ack_delay,
                    ranges,
                    a.qoe.as_ref(),
                )
            }
            Frame::ResetStream { stream_id, error_code, final_size } => {
                w.varint(ty::RESET_STREAM);
                w.varint(*stream_id);
                w.varint(*error_code);
                w.varint(*final_size);
            }
            Frame::StopSending { stream_id, error_code } => {
                w.varint(ty::STOP_SENDING);
                w.varint(*stream_id);
                w.varint(*error_code);
            }
            Frame::Crypto { offset, data } => {
                w.varint(ty::CRYPTO);
                w.varint(*offset);
                w.varint_bytes(data);
            }
            Frame::Stream { stream_id, offset, data, fin } => {
                Frame::encode_stream(w, *stream_id, *offset, [&data[..]], *fin)
            }
            Frame::MaxData(v) => {
                w.varint(ty::MAX_DATA);
                w.varint(*v);
            }
            Frame::MaxStreamData { stream_id, max } => {
                w.varint(ty::MAX_STREAM_DATA);
                w.varint(*stream_id);
                w.varint(*max);
            }
            Frame::MaxStreams(v) => {
                w.varint(ty::MAX_STREAMS_BIDI);
                w.varint(*v);
            }
            Frame::DataBlocked(v) => {
                w.varint(ty::DATA_BLOCKED);
                w.varint(*v);
            }
            Frame::StreamDataBlocked { stream_id, limit } => {
                w.varint(ty::STREAM_DATA_BLOCKED);
                w.varint(*stream_id);
                w.varint(*limit);
            }
            Frame::NewConnectionId(ic) => {
                w.varint(ty::NEW_CONNECTION_ID);
                ic.encode(w);
            }
            Frame::RetireConnectionId { seq } => {
                w.varint(ty::RETIRE_CONNECTION_ID);
                w.varint(*seq);
            }
            Frame::PathChallenge(data) => {
                w.varint(ty::PATH_CHALLENGE);
                w.bytes(data);
            }
            Frame::PathResponse(data) => {
                w.varint(ty::PATH_RESPONSE);
                w.bytes(data);
            }
            Frame::ConnectionClose { error_code, reason } => {
                w.varint(ty::CONNECTION_CLOSE);
                w.varint(*error_code);
                w.varint_bytes(reason);
            }
            Frame::HandshakeDone => w.varint(ty::HANDSHAKE_DONE),
            Frame::PathStatus { path_id, seq, status } => {
                w.varint(ty::PATH_STATUS);
                w.varint(*path_id);
                w.varint(*seq);
                w.varint(status.code());
            }
            Frame::QoeControlSignals(q) => {
                w.varint(ty::QOE_CONTROL_SIGNALS);
                q.encode(w);
            }
        }
    }

    /// Encode a STREAM frame whose payload is borrowed in parts, written
    /// one behind the other — what `Frame::Stream { .. }.encode(w)` writes,
    /// for senders that copy straight out of a stream
    /// ([`SendStream::data`](crate::stream::SendStream::data)).
    pub fn encode_stream<'a, I>(w: &mut Writer, stream_id: u64, offset: u64, data: I, fin: bool)
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: Clone,
    {
        // Always use explicit offset + length; set FIN bit as needed.
        let mut t = ty::STREAM_BASE | 0x04 /*OFF*/ | 0x02 /*LEN*/;
        if fin {
            t |= 0x01;
        }
        w.varint(t);
        w.varint(stream_id);
        w.varint(offset);
        let parts = data.into_iter();
        w.varint(parts.clone().map(|part| part.len() as u64).sum());
        parts.for_each(|part| w.bytes(part));
    }

    /// Encode an ACK — an ACK_MP of `path_id` if there is one, carrying
    /// `qoe` if given — of `ranges` (descending, non-adjacent, the first
    /// one ending at `largest`): what `Frame::Ack` / `Frame::AckMp`
    /// `.encode(w)` writes, for senders that report straight from their
    /// [`AckRanges`] without building the frame. The ACK delay has
    /// millisecond granularity (exponent fixed at 3, i.e. units of 1 ms ≈
    /// 2^3 × 125 µs — we simply use whole milliseconds); a plain ACK
    /// carries no QoE field.
    pub fn encode_ack(
        w: &mut Writer,
        path_id: Option<u64>,
        largest: u64,
        ack_delay: Duration,
        mut ranges: impl ExactSizeIterator<Item = PnRange>,
        qoe: Option<&QoeSignal>,
    ) {
        let count = ranges.len() as u64;
        let first = ranges.next().expect("ACK must carry at least one range");
        debug_assert_eq!(first.end, largest, "first range must contain largest");
        if let Some(path_id) = path_id {
            w.varint(if qoe.is_some() { ty::ACK_MP_QOE } else { ty::ACK_MP });
            w.varint(path_id);
        } else {
            w.varint(ty::ACK);
        }
        w.varint(largest);
        w.varint(ack_delay.as_millis());
        w.varint(count - 1);
        // First range: gap from largest down.
        w.varint(first.end - first.start);
        let mut prev_start = first.start;
        for r in ranges {
            debug_assert!(r.end + 1 < prev_start, "ranges must be descending, non-adjacent");
            // Gap: number of missing packets between ranges, minus 1.
            w.varint(prev_start - r.end - 2);
            w.varint(r.end - r.start);
            prev_start = r.start;
        }
        if let (Some(_), Some(q)) = (path_id, qoe) {
            q.encode(w);
        }
    }

    /// Decode a single frame from `r`: [`FrameRef::decode`], copied out.
    pub fn decode(r: &mut Reader) -> Result<Frame, CodecError> {
        FrameRef::decode(r).map(FrameRef::into_owned)
    }

    /// Decode every frame in a packet payload.
    pub fn decode_all(payload: &[u8]) -> Result<Vec<Frame>, CodecError> {
        Ok(FrameRef::decode_payload(payload)?.map(FrameRef::into_owned).collect())
    }
}

/// Wire-level cap on the number of ACK ranges a single frame may carry
/// (§10 adversarial bound). Mirrors [`crate::ackranges::MAX_ACK_RANGES`]:
/// an honest sender can never report more ranges than its receive set
/// tracks, so any frame above the cap is hostile or corrupt and is
/// rejected before allocating range storage.
pub const MAX_WIRE_ACK_RANGES: u64 = 256;

fn decode_ack<'a>(r: &mut Reader<'a>, mp: bool, with_qoe: bool) -> Result<AckRef<'a>, CodecError> {
    let path_id = if mp { r.varint()? } else { 0 };
    let largest = r.varint()?;
    let ack_delay = Duration::from_millis(r.varint()?);
    let extra_ranges = r.varint()?;
    if extra_ranges >= MAX_WIRE_ACK_RANGES {
        return Err(CodecError::InvalidValue);
    }
    let first_len = r.varint()?;
    if first_len > largest {
        return Err(CodecError::InvalidValue);
    }
    let gaps = r.rest();
    let mut prev_start = largest - first_len;
    for _ in 0..extra_ranges {
        next_ack_range(r, &mut prev_start)?;
    }
    let gaps = &gaps[..gaps.len() - r.remaining()];
    let qoe = if with_qoe { Some(QoeSignal::decode(r)?) } else { None };
    Ok(AckRef { path_id, largest, ack_delay, qoe, first_len, gaps, count: extra_ranges + 1 })
}

/// The next range of an ACK below one starting at `prev_start`, which
/// moves down to it.
fn next_ack_range(r: &mut Reader, prev_start: &mut u64) -> Result<PnRange, CodecError> {
    let gap = r.varint()?;
    let len = r.varint()?;
    // end = prev_start - gap - 2; start = end - len
    let end = prev_start.checked_sub(gap + 2).ok_or(CodecError::InvalidValue)?;
    let start = end.checked_sub(len).ok_or(CodecError::InvalidValue)?;
    *prev_start = start;
    Ok(PnRange { start, end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_lab::prop::*;

    fn roundtrip(f: &Frame) -> Frame {
        let mut w = Writer::new();
        f.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let got = Frame::decode(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after {f:?}");
        got
    }

    #[test]
    fn simple_frames_roundtrip() {
        for f in [
            Frame::Ping,
            Frame::HandshakeDone,
            Frame::MaxData(123456),
            Frame::MaxStreams(7),
            Frame::DataBlocked(999),
            Frame::StreamDataBlocked { stream_id: 4, limit: 1000 },
            Frame::MaxStreamData { stream_id: 8, max: 1 << 20 },
            Frame::RetireConnectionId { seq: 3 },
            Frame::PathChallenge([1, 2, 3, 4, 5, 6, 7, 8]),
            Frame::PathResponse([8, 7, 6, 5, 4, 3, 2, 1]),
            Frame::ResetStream { stream_id: 0, error_code: 2, final_size: 100 },
            Frame::StopSending { stream_id: 4, error_code: 1 },
            Frame::ConnectionClose { error_code: 0xa, reason: b"bye".to_vec() },
            Frame::PathStatus { path_id: 1, seq: 5, status: PathStatusKind::Standby },
            Frame::QoeControlSignals(QoeSignal {
                cached_bytes: 1_000_000,
                cached_frames: 120,
                bps: 2_000_000,
                fps: 30,
            }),
        ] {
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn stream_frame_roundtrip_with_fin() {
        let f = Frame::Stream { stream_id: 4, offset: 65536, data: vec![0xaa; 100], fin: true };
        assert_eq!(roundtrip(&f), f);
        let f2 = Frame::Stream { stream_id: 0, offset: 0, data: vec![], fin: false };
        assert_eq!(roundtrip(&f2), f2);
    }

    #[test]
    fn crypto_frame_roundtrip() {
        let f = Frame::Crypto { offset: 10, data: vec![1, 2, 3] };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn padding_coalesces() {
        let mut w = Writer::new();
        Frame::Padding(5).encode(&mut w);
        Frame::Ping.encode(&mut w);
        let bytes = w.into_bytes();
        let frames = Frame::decode_all(&bytes).unwrap();
        assert_eq!(frames, vec![Frame::Padding(5), Frame::Ping]);
    }

    #[test]
    fn ack_single_range() {
        let mut set = AckRanges::new();
        for pn in 0..=9 {
            set.insert(pn);
        }
        let ack = AckFrame::from_ranges(0, &set, Duration::from_millis(2)).unwrap();
        let f = Frame::Ack(ack);
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn ack_multiple_ranges_with_gaps() {
        let mut set = AckRanges::new();
        for pn in [0u64, 1, 2, 5, 6, 9, 15] {
            set.insert(pn);
        }
        let ack = AckFrame::from_ranges(3, &set, Duration::from_millis(1)).unwrap();
        assert_eq!(ack.ranges.len(), 4);
        let f = Frame::AckMp(ack.clone());
        let got = roundtrip(&f);
        assert_eq!(got, f);
        if let Frame::AckMp(a) = got {
            let asc: Vec<_> = a.ranges.iter().rev().copied().collect();
            assert_eq!(asc[0], PnRange { start: 0, end: 2 });
            assert_eq!(asc[3], PnRange { start: 15, end: 15 });
        }
    }

    #[test]
    fn ack_with_oversized_range_count_rejected() {
        // Hand-build an ACK claiming MAX_WIRE_ACK_RANGES extra ranges: the
        // decoder must reject it before trying to materialise the ranges.
        let mut w = Writer::new();
        w.varint(ty::ACK);
        w.varint(10_000); // largest
        w.varint(0); // ack delay
        w.varint(MAX_WIRE_ACK_RANGES); // extra range count: over the cap
        w.varint(0); // first range length
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Frame::decode(&mut r), Err(CodecError::InvalidValue));
        // One under the cap decodes fine (given enough gap/len pairs).
        let mut w = Writer::new();
        w.varint(ty::ACK);
        w.varint(10_000);
        w.varint(0);
        w.varint(MAX_WIRE_ACK_RANGES - 1);
        w.varint(0);
        for _ in 0..MAX_WIRE_ACK_RANGES - 1 {
            w.varint(0); // gap
            w.varint(0); // len
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let got = Frame::decode(&mut r).expect("cap-1 ranges decode");
        match got {
            Frame::Ack(a) => assert_eq!(a.ranges.len(), MAX_WIRE_ACK_RANGES as usize),
            other => panic!("expected ACK, got {other:?}"),
        }
    }

    #[test]
    fn ack_mp_with_qoe_field() {
        let mut set = AckRanges::new();
        set.insert(42);
        let mut ack = AckFrame::from_ranges(2, &set, Duration::ZERO).unwrap();
        ack.qoe =
            Some(QoeSignal { cached_bytes: 500_000, cached_frames: 60, bps: 1_500_000, fps: 25 });
        let f = Frame::AckMp(ack);
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn new_connection_id_roundtrip() {
        use crate::cid::ConnectionId;
        let f = Frame::NewConnectionId(IssuedCid {
            seq: 2,
            retire_prior_to: 0,
            cid: ConnectionId::derive(7, 2),
            reset_token: None,
        });
        assert_eq!(roundtrip(&f), f);
        let g = Frame::NewConnectionId(IssuedCid {
            seq: 3,
            retire_prior_to: 3,
            cid: ConnectionId::derive(7, 3),
            reset_token: Some([0x5a; 16]),
        });
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn ack_eliciting_classification() {
        let mut set = AckRanges::new();
        set.insert(0);
        let ack = AckFrame::from_ranges(0, &set, Duration::ZERO).unwrap();
        let eliciting = |f: Frame| {
            let mut w = Writer::new();
            f.encode(&mut w);
            let bytes = w.into_bytes();
            FrameRef::decode(&mut Reader::new(&bytes)).unwrap().is_ack_eliciting()
        };
        assert!(!eliciting(Frame::Ack(ack.clone())));
        assert!(!eliciting(Frame::AckMp(ack)));
        assert!(!eliciting(Frame::Padding(3)));
        assert!(!eliciting(Frame::ConnectionClose { error_code: 0, reason: vec![] }));
        assert!(eliciting(Frame::Ping));
        assert!(eliciting(Frame::Stream { stream_id: 0, offset: 0, data: vec![], fin: true }));
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut w = Writer::new();
        w.varint(0x7777);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Frame::decode(&mut r), Err(CodecError::UnknownFrame(0x7777)));
    }

    #[test]
    fn invalid_path_status_code_rejected() {
        let mut w = Writer::new();
        w.varint(ty::PATH_STATUS);
        w.varint(0);
        w.varint(0);
        w.varint(9); // invalid status
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Frame::decode(&mut r), Err(CodecError::InvalidValue));
    }

    #[test]
    fn malformed_ack_first_range_rejected() {
        let mut w = Writer::new();
        w.varint(ty::ACK);
        w.varint(5); // largest
        w.varint(0); // delay
        w.varint(0); // extra ranges
        w.varint(9); // first range length exceeds largest
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Frame::decode(&mut r), Err(CodecError::InvalidValue));
    }

    fn arb_ranges() -> impl Strategy<Value = AckRanges> {
        map(vec_of(0u64..500, 1..80), |pns| {
            let mut s = AckRanges::new();
            for pn in pns {
                s.insert(pn);
            }
            s
        })
    }

    #[test]
    fn prop_ack_roundtrip() {
        check(
            "prop_ack_roundtrip",
            (arb_ranges(), 0u64..1000, 0u64..8),
            |(set, delay_ms, path)| {
                let ack =
                    AckFrame::from_ranges(*path, set, Duration::from_millis(*delay_ms)).unwrap();
                let f = Frame::AckMp(ack.clone());
                let mut w = Writer::new();
                f.encode(&mut w);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                let got = Frame::decode(&mut r).unwrap();
                prop_assert_eq!(got, f);
                // Every range of the set is acknowledged, and only those.
                prop_assert!(ack.ranges.iter().rev().copied().eq(set.iter()));
                Ok(())
            },
        );
    }

    #[test]
    fn prop_stream_frame_roundtrip() {
        check(
            "prop_stream_frame_roundtrip",
            (0u64..1000, 0u64..(1 << 40), bytes(0..512), any_bool()),
            |(stream_id, offset, data, fin)| {
                let f = Frame::Stream {
                    stream_id: *stream_id,
                    offset: *offset,
                    data: data.clone(),
                    fin: *fin,
                };
                prop_assert_eq!(roundtrip(&f), f);
                Ok(())
            },
        );
    }

    #[test]
    fn prop_qoe_roundtrip() {
        check(
            "prop_qoe_roundtrip",
            (0u64..(1 << 40), 0u64..100_000, 0u64..(1 << 40), 0u64..240),
            |&(cached_bytes, cached_frames, bps, fps)| {
                let f =
                    Frame::QoeControlSignals(QoeSignal { cached_bytes, cached_frames, bps, fps });
                prop_assert_eq!(roundtrip(&f), f);
                Ok(())
            },
        );
    }

    #[test]
    fn prop_frame_sequence_roundtrip() {
        check("prop_frame_sequence_roundtrip", 1usize..10, |&n| {
            // A payload of n mixed frames decodes to exactly n frames.
            let mut w = Writer::new();
            let mut expect = Vec::new();
            for i in 0..n {
                let f = match i % 4 {
                    0 => Frame::Ping,
                    1 => Frame::MaxData(i as u64 * 100),
                    2 => Frame::Stream {
                        stream_id: 4,
                        offset: i as u64,
                        data: vec![i as u8; i],
                        fin: false,
                    },
                    _ => Frame::PathStatus {
                        path_id: i as u64,
                        seq: 0,
                        status: PathStatusKind::Available,
                    },
                };
                f.encode(&mut w);
                expect.push(f);
            }
            let bytes = w.into_bytes();
            prop_assert_eq!(Frame::decode_all(&bytes).unwrap(), expect);
            Ok(())
        });
    }

    /// The borrowed decoder against [`Frame::decode`] on arbitrary bytes
    /// and on truncations of valid frames (ACKs of random ranges, STREAM,
    /// CRYPTO, CONNECTION_CLOSE, NEW_CONNECTION_ID, …): neither panics (the
    /// debug profile checks overflow), both consume the same bytes and
    /// agree, frame after frame; an ACK read again yields as many ranges
    /// as it declares, descending and apart, the first ending at its
    /// largest; and the checked payload yields what that frame-by-frame
    /// decoding yields, or is refused exactly when it stops on an error.
    #[test]
    fn prop_the_borrowed_decoder_is_frame_decode() {
        use crate::cid::ConnectionId;
        let case = (any_bool(), bytes(0..64), arb_ranges(), 0usize..4096);
        check("prop_the_borrowed_decoder_is_frame_decode", case, |(valid, noise, set, cut)| {
            let bytes = if *valid {
                let mut ack = AckFrame::from_ranges(3, set, Duration::from_millis(7)).unwrap();
                let plain = Frame::Ack(ack.clone());
                ack.qoe = Some(QoeSignal { cached_bytes: 9, cached_frames: 8, bps: 7, fps: 6 });
                let issued = IssuedCid {
                    seq: 2,
                    retire_prior_to: 1,
                    cid: ConnectionId::derive(5, 2),
                    reset_token: Some([4; 16]),
                };
                let mut w = Writer::new();
                for f in [
                    Frame::AckMp(ack),
                    Frame::Stream { stream_id: 4, offset: 99, data: noise.clone(), fin: true },
                    plain,
                    Frame::Crypto { offset: 0, data: noise.clone() },
                    Frame::NewConnectionId(issued),
                    Frame::ConnectionClose { error_code: 7, reason: b"bye".to_vec() },
                    Frame::MaxStreamData { stream_id: 4, max: 1 << 40 },
                ] {
                    f.encode(&mut w);
                }
                let mut bytes = w.into_bytes();
                bytes.truncate(cut % (bytes.len() + 1));
                bytes
            } else {
                noise.clone()
            };
            let (mut borrowed, mut owned) = (Reader::new(&bytes), Reader::new(&bytes));
            let mut frames = Vec::new();
            let all = loop {
                if owned.is_empty() {
                    break Ok(frames);
                }
                let (b, o) = (FrameRef::decode(&mut borrowed), Frame::decode(&mut owned));
                prop_assert_eq!(b.clone().map(FrameRef::into_owned), o.clone());
                prop_assert_eq!(borrowed.position(), owned.position());
                if let Ok(FrameRef::Ack(ack) | FrameRef::AckMp(ack)) = &b {
                    let ranges: Vec<PnRange> = ack.ranges().collect();
                    prop_assert_eq!(ranges.len() as u64, ack.count);
                    prop_assert_eq!(ranges[0].end, ack.largest);
                    prop_assert!(ranges.iter().all(|r| r.start <= r.end));
                    prop_assert!(ranges.windows(2).all(|w| w[1].end + 1 < w[0].start));
                }
                match o {
                    Ok(frame) => frames.push(frame),
                    Err(e) => break Err(e),
                }
            };
            let checked = FrameRef::decode_payload(&bytes);
            prop_assert_eq!(checked.map(|fs| fs.map(FrameRef::into_owned).collect()), all);
            Ok(())
        });
    }
}
