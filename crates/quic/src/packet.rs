//! Packet headers: long header (Initial / Handshake) and 1-RTT short
//! header, plus packet-number truncation and reconstruction (RFC 9000
//! §17.1, appendix A).
//!
//! The paper's §6 keeps "QUIC packet header formats unchanged to avoid the
//! risk of packets being blocked by middle-boxes" — so do we: multipath is
//! entirely expressed through CIDs and extension frames, never the header.

use crate::cc::MAX_DATAGRAM_SIZE;
use crate::cid::{ConnectionId, CID_LEN};
use crate::crypto::AeadKey;
use crate::error::CodecError;
use crate::frame::Frame;
use crate::varint::{Reader, Writer};
use xlink_obs::prof;

/// Packet type / encryption level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Long header: first flight, carries CRYPTO.
    Initial,
    /// Long header: handshake completion.
    Handshake,
    /// Long header: server's stateless address-validation challenge
    /// (RFC 9000 §17.2.5). Carries only a token, no packet number and no
    /// protected payload.
    Retry,
    /// Short header: application data (1-RTT).
    OneRtt,
}

impl PacketType {
    /// True for long-header packet types.
    pub fn is_long(self) -> bool {
        !matches!(self, PacketType::OneRtt)
    }
}

/// Wire cap on the address-validation token carried by Initial and Retry
/// packets (§13 adversarial bound: a peer must not be able to grow header
/// buffers without limit; our edge tokens are 24 bytes).
pub const MAX_TOKEN_LEN: usize = 64;

/// A decoded packet header plus payload boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Packet type.
    pub ty: PacketType,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Source connection ID (long headers only; zeroed for short).
    pub scid: ConnectionId,
    /// Truncated packet number as encoded (value + encoded length).
    pub pn: u64,
    /// Number of bytes used to encode the packet number (1..=4).
    pub pn_len: u8,
    /// Address-validation token (RFC 9000 §8.1): the payload of a Retry
    /// packet, echoed in the header of subsequent Initials. Empty
    /// everywhere else; bounded by [`MAX_TOKEN_LEN`].
    pub token: Vec<u8>,
}

/// Number of bytes needed to encode `pn` such that the receiver can
/// reconstruct it given `largest_acked` (RFC 9000 A.2).
pub fn pn_encode_len(pn: u64, largest_acked: Option<u64>) -> u8 {
    let num_unacked = match largest_acked {
        Some(la) => pn - la,
        None => pn + 1,
    };
    // Need ceil(log2(num_unacked)) + 1 bits.
    let bits = 64 - num_unacked.leading_zeros() + 1;
    bits.div_ceil(8).clamp(1, 4) as u8
}

/// Truncate `pn` to `len` bytes (keep the low-order bytes).
pub fn pn_truncate(pn: u64, len: u8) -> u64 {
    debug_assert!((1..=4).contains(&len));
    pn & (u64::MAX >> (64 - 8 * u64::from(len)))
}

/// Reconstruct a full packet number from its truncated form (RFC 9000 A.3).
pub fn pn_decode(truncated: u64, len: u8, largest_received: Option<u64>) -> u64 {
    let bits = 8 * u64::from(len);
    let expected = largest_received.map(|l| l + 1).unwrap_or(0);
    let win = 1u64 << bits;
    let hwin = win / 2;
    let mask = win - 1;
    let candidate = (expected & !mask) | truncated;
    if candidate + hwin <= expected && candidate + win < (1 << 62) {
        candidate + win
    } else if candidate > expected + hwin && candidate >= win {
        candidate - win
    } else {
        candidate
    }
}

impl Header {
    /// Encode this header. Returns the encoded bytes; the caller appends
    /// the (sealed) payload. For long headers a varint length field is NOT
    /// included — the simulator delivers one packet per datagram, so the
    /// payload extends to the end of the datagram (documented deviation
    /// that does not affect transport behaviour).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32);
        self.encode_to(&mut w);
        w.into_bytes()
    }

    /// [`Header::encode`], appending to `w`.
    pub fn encode_to(&self, w: &mut Writer) {
        let _prof = prof::span!("quic/packet_encode");
        match self.ty {
            PacketType::Initial | PacketType::Handshake => {
                let ty_bits = if self.ty == PacketType::Initial { 0b00 } else { 0b10 };
                // Long header: 1 | fixed=1 | type(2) | reserved(2) | pn_len-1 (2)
                w.u8(0b1100_0000 | (ty_bits << 4) | (self.pn_len - 1));
                w.u8(CID_LEN as u8);
                w.bytes(&self.dcid.0);
                w.u8(CID_LEN as u8);
                w.bytes(&self.scid.0);
                if self.ty == PacketType::Initial {
                    debug_assert!(self.token.len() <= MAX_TOKEN_LEN);
                    w.varint(self.token.len() as u64);
                    w.bytes(&self.token);
                }
            }
            PacketType::Retry => {
                // Retry: 1 | fixed=1 | type=11 | unused(4). No packet
                // number; the token is the entire remaining datagram.
                w.u8(0b1111_0000);
                w.u8(CID_LEN as u8);
                w.bytes(&self.dcid.0);
                w.u8(CID_LEN as u8);
                w.bytes(&self.scid.0);
                w.bytes(&self.token);
                return;
            }
            PacketType::OneRtt => {
                // Short header: 0 | fixed=1 | spin=0 | reserved(2) | key=0 | pn_len-1 (2)
                w.u8(0b0100_0000 | (self.pn_len - 1));
                w.bytes(&self.dcid.0);
            }
        }
        let pn = pn_truncate(self.pn, self.pn_len);
        for i in (0..self.pn_len).rev() {
            w.u8((pn >> (8 * i)) as u8);
        }
    }

    /// Decode a header from the start of a datagram. Returns the header
    /// and the offset where the protected payload begins: a
    /// [`HeaderRef::decode`] with the token copied out.
    pub fn decode(datagram: &[u8]) -> Result<(Header, usize), CodecError> {
        HeaderRef::decode(datagram).map(|(h, off)| (h.into_owned(), off))
    }
}

/// A decoded header whose token is borrowed from the datagram: what every
/// receive path reads, so nothing is copied before anything authenticates.
/// [`Header`] is the owned form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderRef<'a> {
    /// Packet type.
    pub ty: PacketType,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Source connection ID (long headers only; zeroed for short).
    pub scid: ConnectionId,
    /// Truncated packet number as encoded.
    pub pn: u64,
    /// Number of bytes used to encode the packet number (1..=4).
    pub pn_len: u8,
    /// Address-validation token (see [`Header::token`]).
    pub token: &'a [u8],
}

impl<'a> HeaderRef<'a> {
    /// Decode a header from the start of a datagram. Returns the header
    /// and the offset where the protected payload begins. This is the one
    /// reader of the header wire format.
    pub fn decode(datagram: &'a [u8]) -> Result<(HeaderRef<'a>, usize), CodecError> {
        let _prof = prof::span!("quic/packet_decode");
        let mut r = Reader::new(datagram);
        let first = r.u8()?;
        if first & 0x40 == 0 {
            return Err(CodecError::InvalidHeader); // fixed bit must be set
        }
        let pn_len = (first & 0x03) + 1;
        let (ty, dcid, scid, token) = if first & 0x80 != 0 {
            let ty = match (first >> 4) & 0x03 {
                0b00 => PacketType::Initial,
                0b10 => PacketType::Handshake,
                0b11 => PacketType::Retry,
                _ => return Err(CodecError::InvalidHeader),
            };
            // Long headers carry each CID after its length byte.
            let mut cid = || match r.u8()? as usize {
                CID_LEN => read_cid(&mut r),
                _ => Err(CodecError::InvalidHeader),
            };
            let (dcid, scid) = (cid()?, cid()?);
            let token = match ty {
                PacketType::Initial => match r.varint()? {
                    len if len > MAX_TOKEN_LEN as u64 => return Err(CodecError::InvalidHeader),
                    len => r.bytes(len as usize)?,
                },
                // The token extends to the end of the datagram; there is
                // no packet number and no protected payload.
                PacketType::Retry => {
                    let token = r.rest();
                    if token.len() > MAX_TOKEN_LEN {
                        return Err(CodecError::InvalidHeader);
                    }
                    let h = HeaderRef { ty, dcid, scid, pn: 0, pn_len: 1, token };
                    return Ok((h, datagram.len()));
                }
                _ => &[],
            };
            (ty, dcid, scid, token)
        } else {
            let dcid = read_cid(&mut r)?;
            (PacketType::OneRtt, dcid, ConnectionId([0; CID_LEN]), &[][..])
        };
        let mut pn = 0u64;
        for _ in 0..pn_len {
            pn = (pn << 8) | u64::from(r.u8()?);
        }
        Ok((HeaderRef { ty, dcid, scid, pn, pn_len, token }, r.position()))
    }

    /// The owned header, the token copied.
    pub fn into_owned(self) -> Header {
        let HeaderRef { ty, dcid, scid, pn, pn_len, token } = self;
        Header { ty, dcid, scid, pn, pn_len, token: token.to_vec() }
    }
}

fn read_cid(r: &mut Reader) -> Result<ConnectionId, CodecError> {
    Ok(ConnectionId(r.bytes(CID_LEN)?.try_into().expect("CID_LEN bytes")))
}

/// One outgoing packet under construction in the buffer that becomes the
/// datagram: header ‖ frames, sealed in place, ‖ tag. Both engines build
/// every packet through this, so the bytes are written once. The buffer is
/// a fresh one or a recycled datagram's; the header is encoded, and a fresh
/// buffer allocated, when the first frame goes in: a packet that turns out
/// to have nothing to carry costs nothing.
#[derive(Debug)]
pub struct PacketBuilder {
    header: Header,
    /// Empty until the first frame; then `header_len` bytes of header
    /// followed by the frames.
    w: Writer,
    header_len: usize,
}

impl PacketBuilder {
    /// A packet that will start with `header`.
    pub fn new(header: Header) -> Self {
        Self::with_buffer(header, Vec::new())
    }

    /// A packet that will start with `header`, written into `buffer`
    /// (emptied first, its capacity reused).
    pub fn with_buffer(header: Header, mut buffer: Vec<u8>) -> Self {
        buffer.clear();
        PacketBuilder { header, w: Writer::from_vec(buffer), header_len: 0 }
    }

    /// The buffer back, for a packet that is not sent after all.
    pub fn into_buffer(self) -> Vec<u8> {
        self.w.into_bytes()
    }

    /// True when the packet has a long header (Initial-level protection).
    pub fn is_long(&self) -> bool {
        self.header.ty.is_long()
    }

    /// Where the frames go.
    pub fn frames(&mut self) -> &mut Writer {
        if self.header_len == 0 {
            self.w.reserve(MAX_DATAGRAM_SIZE as usize);
            self.header.encode_to(&mut self.w);
            self.header_len = self.w.len();
        }
        &mut self.w
    }

    /// Append `frame` if it encodes to at most `max_len` bytes; returns the
    /// length it took, or `None` with the packet as it was.
    pub fn push_if_fits(&mut self, frame: &Frame, max_len: usize) -> Option<usize> {
        let w = self.frames();
        let before = w.len();
        frame.encode(w);
        let len = w.len() - before;
        if len > max_len {
            w.truncate(before);
            return None;
        }
        Some(len)
    }

    /// Protect the frames under `key` with the header as associated data
    /// (multipath nonce: `path_cid_seq`, full `packet_number`) and return
    /// the finished datagram.
    pub fn seal(mut self, key: &AeadKey, path_cid_seq: u32, packet_number: u64) -> Vec<u8> {
        self.frames(); // a packet of no frames still has its header
        let mut datagram = self.w.into_bytes();
        let (header, frames) = datagram.split_at_mut(self.header_len);
        let tag = key.seal_in_place(path_cid_seq, packet_number, header, frames);
        datagram.extend_from_slice(&tag);
        datagram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_lab::prop::*;

    fn cid(b: u8) -> ConnectionId {
        ConnectionId([b; CID_LEN])
    }

    #[test]
    fn short_header_roundtrip() {
        let h = Header {
            ty: PacketType::OneRtt,
            dcid: cid(7),
            scid: cid(0),
            pn: 0x1234,
            pn_len: 2,
            token: Vec::new(),
        };
        let bytes = h.encode();
        let (got, off) = Header::decode(&bytes).unwrap();
        assert_eq!(got.ty, PacketType::OneRtt);
        assert_eq!(got.dcid, cid(7));
        assert_eq!(got.pn, 0x1234);
        assert_eq!(got.pn_len, 2);
        assert_eq!(off, bytes.len());
    }

    #[test]
    fn long_header_roundtrip() {
        for ty in [PacketType::Initial, PacketType::Handshake] {
            let h = Header { ty, dcid: cid(1), scid: cid(2), pn: 0, pn_len: 1, token: Vec::new() };
            let bytes = h.encode();
            let (got, off) = Header::decode(&bytes).unwrap();
            assert_eq!(got.ty, ty);
            assert_eq!(got.dcid, cid(1));
            assert_eq!(got.scid, cid(2));
            assert_eq!(got.pn, 0);
            assert_eq!(off, bytes.len());
        }
    }

    #[test]
    fn initial_token_roundtrip() {
        let h = Header {
            ty: PacketType::Initial,
            dcid: cid(1),
            scid: cid(2),
            pn: 3,
            pn_len: 1,
            token: vec![0xab; 24],
        };
        let bytes = h.encode();
        let (got, off) = Header::decode(&bytes).unwrap();
        assert_eq!(got, h);
        assert_eq!(off, bytes.len());
        // Both encodings carry a one-byte token length; the difference is
        // exactly the token bytes.
        let bare = Header { token: Vec::new(), ..h };
        assert_eq!(bare.encode().len() + 24, bytes.len());
    }

    #[test]
    fn retry_roundtrip_carries_token_as_payload() {
        let h = Header {
            ty: PacketType::Retry,
            dcid: cid(5),
            scid: cid(6),
            pn: 0,
            pn_len: 1,
            token: (0u8..24).collect(),
        };
        let bytes = h.encode();
        let (got, off) = Header::decode(&bytes).unwrap();
        assert_eq!(got.ty, PacketType::Retry);
        assert_eq!(got.dcid, cid(5));
        assert_eq!(got.scid, cid(6));
        assert_eq!(got.token, h.token);
        // The whole datagram is header: nothing follows the token.
        assert_eq!(off, bytes.len());
    }

    #[test]
    fn oversized_token_rejected() {
        let h = Header {
            ty: PacketType::Retry,
            dcid: cid(5),
            scid: cid(6),
            pn: 0,
            pn_len: 1,
            token: vec![0; MAX_TOKEN_LEN + 1],
        };
        assert!(Header::decode(&h.encode()).is_err());
    }

    #[test]
    fn truncation_keeps_low_bytes() {
        assert_eq!(pn_truncate(0x0123_4567, 1), 0x67);
        assert_eq!(pn_truncate(0x0123_4567, 2), 0x4567);
        assert_eq!(pn_truncate(0x0123_4567, 4), 0x0123_4567);
    }

    #[test]
    fn encode_len_grows_with_gap() {
        assert_eq!(pn_encode_len(0, None), 1);
        assert_eq!(pn_encode_len(100, Some(99)), 1);
        assert_eq!(pn_encode_len(10_000, Some(0)), 2);
        assert_eq!(pn_encode_len(10_000_000, Some(0)), 4);
    }

    #[test]
    fn pn_decode_rfc_example() {
        // RFC 9000 A.3: expecting 0xa82f30ea, receive 0x9b32 in 2 bytes →
        // 0xa82f9b32.
        assert_eq!(pn_decode(0x9b32, 2, Some(0xa82f_30ea - 1)), 0xa82f_9b32);
    }

    #[test]
    fn pn_roundtrip_monotonic_sequence() {
        // Simulate a sender/receiver pair: every sent pn must reconstruct.
        let mut largest_acked: Option<u64> = None;
        let mut largest_rx: Option<u64> = None;
        let mut pn = 0u64;
        for step in 0..2000u64 {
            let len = pn_encode_len(pn, largest_acked);
            let trunc = pn_truncate(pn, len);
            let got = pn_decode(trunc, len, largest_rx);
            assert_eq!(got, pn, "step {step}");
            largest_rx = Some(largest_rx.map_or(pn, |l| l.max(pn)));
            if step % 3 == 0 {
                largest_acked = Some(pn); // ack sometimes
            }
            pn += 1 + (step % 7); // jumps
        }
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(Header::decode(&[]).is_err());
        assert!(Header::decode(&[0x00]).is_err()); // fixed bit clear
        assert!(Header::decode(&[0b0100_0000, 1, 2]).is_err()); // truncated
                                                                // Long header with wrong CID length.
        assert!(Header::decode(&[0b1100_0000, 4, 1, 2, 3, 4, 8]).is_err());
    }

    /// A header of type `ty % 4` (Initial, Handshake, Retry, 1-RTT) with
    /// a `token_len`-byte token where the type carries one.
    fn arb_header((ty, pn_len, pn, token_len): (u8, u8, u64, usize)) -> Header {
        use PacketType::*;
        let ty = [Initial, Handshake, Retry, OneRtt][usize::from(ty % 4)];
        let (pn, pn_len) = if ty == Retry { (0, 1) } else { (pn_truncate(pn, pn_len), pn_len) };
        Header {
            ty,
            dcid: cid(pn as u8),
            scid: if ty.is_long() { cid(!pn as u8) } else { cid(0) },
            pn,
            pn_len,
            token: if matches!(ty, Initial | Retry) { vec![0xa5; token_len] } else { Vec::new() },
        }
    }

    /// The one header reader on arbitrary bytes, on encoded headers with
    /// one byte overwritten, and on every prefix of encoded headers: it
    /// never panics (the debug profile checks overflow), agrees with
    /// [`Header::decode`], reads back what was encoded whatever follows
    /// it, and refuses every strict prefix of a header that ends in a
    /// packet number rather than read a different header out of it. (A
    /// Retry has no packet number: its token is the rest of the datagram.)
    #[test]
    fn prop_header_ref_decode_is_total() {
        let fields = (0u8..4, 1u8..=4, 0u64..(1 << 32), 0usize..=MAX_TOKEN_LEN);
        check("prop_header_ref_decode_is_total", (bytes(0..48), fields), |(noise, fields)| {
            let h = arb_header(*fields);
            let encoded = h.encode();
            let mut bent = encoded.clone();
            if let [at, value, ..] = noise[..] {
                bent[usize::from(at) % encoded.len()] = value;
            }
            for datagram in [&noise[..], &bent[..]] {
                let read = HeaderRef::decode(datagram);
                if let Ok((_, off)) = read {
                    prop_assert!(off <= datagram.len());
                }
                prop_assert_eq!(
                    read.map(|(r, off)| (r.into_owned(), off)),
                    Header::decode(datagram)
                );
            }
            let read = |d: &[u8]| HeaderRef::decode(d).map(|(r, off)| (r.into_owned(), off));
            prop_assert_eq!(read(&encoded), Ok((h.clone(), encoded.len())));
            if h.ty != PacketType::Retry {
                for cut in 0..encoded.len() {
                    prop_assert!(read(&encoded[..cut]).is_err(), "{cut}-byte prefix read");
                }
                let trailed = [&encoded[..], noise].concat();
                prop_assert_eq!(read(&trailed), Ok((h, encoded.len())));
            }
            Ok(())
        });
    }

    #[test]
    fn header_is_aad_stable() {
        // Encoding must be deterministic: same header → same bytes (the
        // header is the AEAD's associated data).
        let h = Header {
            ty: PacketType::OneRtt,
            dcid: cid(9),
            scid: cid(0),
            pn: 77,
            pn_len: 1,
            token: Vec::new(),
        };
        assert_eq!(h.encode(), h.encode());
    }

    #[test]
    fn prop_header_roundtrip() {
        check(
            "prop_header_roundtrip",
            (0u64..(1 << 30), 1u8..=4, 0u8..=u8::MAX),
            |&(pn, pn_len, d)| {
                let h = Header {
                    ty: PacketType::OneRtt,
                    dcid: cid(d),
                    scid: cid(0),
                    pn: pn_truncate(pn, pn_len),
                    pn_len,
                    token: Vec::new(),
                };
                let bytes = h.encode();
                let (got, _) = Header::decode(&bytes).unwrap();
                prop_assert_eq!(got.pn, h.pn);
                prop_assert_eq!(got.pn_len, pn_len);
                prop_assert_eq!(got.dcid, h.dcid);
                Ok(())
            },
        );
    }

    #[test]
    fn prop_pn_reconstruction() {
        check("prop_pn_reconstruction", (0u64..(1 << 40), 0u64..100), |&(base, delta)| {
            // Receiver has seen up to `base`; sender sends base+delta.
            let pn = base + delta;
            let len = pn_encode_len(pn, Some(base.saturating_sub(1)));
            let trunc = pn_truncate(pn, len);
            prop_assert_eq!(pn_decode(trunc, len, Some(base)), pn);
            Ok(())
        });
    }
}
