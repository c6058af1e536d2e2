//! The handshake and the packet protection it produces: which hello is
//! owed, the Initial and 1-RTT keys, the one way a datagram is opened and
//! the one way a packet is sealed and booked as sent — plus the
//! stateless-reset oracle that gets the datagrams no key opens.

use super::space::{PnSpace, SentFrames};
use super::PSK;
use crate::cid::ConnectionId;
use crate::crypto::{derive_keys, KeyPair};
use crate::error::TransportError;
use crate::frame::Frame;
use crate::handshake::{Handshake, Hello};
use crate::packet::{pn_decode, Header, HeaderRef, PacketBuilder, PacketType};
use crate::params::TransportParams;
use crate::reset;
use crate::stream::Side;
use std::ops::Range;
use std::sync::LazyLock;
use xlink_clock::Instant;
use xlink_obs::{Event, Tracer};

/// Cap on stored stateless-reset tokens (§10.3.1 says an endpoint checks
/// tokens for recently used CIDs; a peer cannot grow this without bound).
pub const MAX_RESET_TOKENS: usize = 8;

/// The reset-token oracle (§10.3): tokens the peer said it would
/// stateless-reset with, each for the path (always 0 on a single-path
/// connection) whose destination CID it was issued for. Bounded by
/// [`MAX_RESET_TOKENS`].
#[derive(Debug, Default)]
pub struct ResetOracle {
    tokens: Vec<([u8; 16], usize)>,
}

impl ResetOracle {
    /// Record a token for `path`. Past the cap the oldest is dropped
    /// first: recent CIDs are the ones in use, so the ones worth matching.
    pub fn remember(&mut self, path: usize, token: [u8; 16]) {
        if self.tokens.contains(&(token, path)) {
            return;
        }
        if self.tokens.len() >= MAX_RESET_TOKENS {
            self.tokens.remove(0);
        }
        self.tokens.push((token, path));
    }

    /// Tokens currently held.
    pub fn count(&self) -> usize {
        self.tokens.len()
    }

    /// Is `datagram`, which arrived on `path` and could not be opened, a
    /// stateless reset? True when its trailing 16 bytes match a token
    /// registered for that path: the peer provably lost the state behind it.
    pub fn matches(&self, path: usize, datagram: &[u8]) -> bool {
        reset::plausible_reset(datagram)
            && self.tokens.iter().any(|(t, p)| *p == path && reset::token_matches(t, datagram))
    }
}

/// What [`Keys::open_datagram`] made of a datagram.
#[derive(Debug)]
pub enum Opened {
    /// Authentic and not seen before, its packet number now recorded, and
    /// decrypted where it lies.
    Packet {
        /// The header's source CID: the peer's, on a long header.
        scid: ConnectionId,
        /// Where in the datagram the plaintext frames now are.
        payload: Range<usize>,
    },
    /// A Retry: no packet number, no protected payload (§17.2.5). The
    /// one header whose token is copied: a client stores it.
    Retry(Header),
    /// Authentic, but this packet number was already received.
    Duplicate,
    /// No header, no key, or the AEAD refused it. A stateless reset is
    /// built to look exactly like this (§10.3), so the oracle was asked.
    Undecryptable {
        /// The reset oracle recognised the datagram.
        reset: bool,
    },
}

/// A hello random derived from the endpoint's `seed` (stands in for an
/// RNG draw).
pub fn hello_random(seed: u64) -> [u8; 16] {
    let mut r = [0u8; 16];
    r[..8].copy_from_slice(&ConnectionId::derive(seed, 0x48454c4f).0);
    r[8..].copy_from_slice(&ConnectionId::derive(seed ^ 0xdead_beef, 0x48454c50).0);
    r
}

/// The destination CID of a client's first Initials, before the server's
/// hello tells it the real one: a placeholder both sides know (it stands
/// in for the client's random initial DCID).
pub fn placeholder_dcid() -> ConnectionId {
    ConnectionId::derive(0x1317, 0)
}

/// The Initial packets' keys: derived from [`PSK`] and two fixed salts
/// alone, so the same for every connection, and derived once per process.
pub static INITIAL_KEYS: LazyLock<KeyPair> =
    LazyLock::new(|| derive_keys(PSK, &[0x11; 16], &[0x22; 16]));

/// Handshake progress and packet-protection keys of one endpoint.
#[derive(Debug)]
pub struct Keys {
    side: Side,
    handshake: Handshake,
    /// Our hello is out and not known lost (clear to send it again).
    pub hello_sent: bool,
    /// Hello flights sent so far (first + retransmissions).
    hello_sends: u32,
    /// Servers: HANDSHAKE_DONE is out and not known lost.
    pub done_sent: bool,
    /// Keys for Initial packets: [`INITIAL_KEYS`].
    initial: &'static KeyPair,
    /// 1-RTT keys (post-handshake).
    one_rtt: Option<KeyPair>,
}

impl Keys {
    /// An endpoint about to handshake under [`PSK`], offering `params` in a
    /// hello carrying `random`; Initials are protected by [`INITIAL_KEYS`].
    pub fn new(side: Side, params: &TransportParams, random: [u8; 16]) -> Self {
        Keys {
            side,
            handshake: Handshake::new(side == Side::Client, PSK, random, params.clone()),
            hello_sent: false,
            hello_sends: 0,
            done_sent: false,
            initial: &INITIAL_KEYS,
            one_rtt: None,
        }
    }

    /// The handshake state machine (peer parameters, negotiation result).
    pub fn handshake(&self) -> &Handshake {
        &self.handshake
    }

    /// The 1-RTT keys, once the handshake produced them.
    pub fn one_rtt(&self) -> Option<&KeyPair> {
        self.one_rtt.as_ref()
    }

    /// The hello to send now, if one is owed, and whether it is a
    /// retransmission. A server owes none until it has the client's.
    pub fn next_hello(&mut self, now: Instant, tracer: &Tracer) -> Option<(Frame, bool)> {
        if self.hello_sent || !(self.side == Side::Client || self.handshake.is_complete()) {
            return None;
        }
        self.hello_sent = true;
        self.hello_sends += 1;
        let retransmit = self.hello_sends > 1;
        tracer.emit(now, Event::HandshakeSent { retransmit });
        Some((Frame::Crypto { offset: 0, data: self.handshake.local_hello().encode() }, retransmit))
    }

    /// CRYPTO bytes arrived. `Ok(true)`: the peer's hello completed the
    /// handshake and the 1-RTT keys are installed. `Ok(false)`: it was
    /// complete already (a retransmitted hello).
    pub fn on_peer_hello(&mut self, data: &[u8]) -> Result<bool, (TransportError, &'static str)> {
        if self.handshake.is_complete() {
            return Ok(false);
        }
        let hello = Hello::decode(data)
            .map_err(|_| (TransportError::TransportParameterError, "bad hello"))?;
        let keys = self
            .handshake
            .on_peer_hello(hello)
            .map_err(|_| (TransportError::TransportParameterError, "hello rejected"))?;
        self.one_rtt = Some(keys);
        Ok(true)
    }

    /// Open `datagram` as a packet of `space` (the connection's pick, from the
    /// arrival path and the header form): decode the header, reconstruct
    /// the packet number, pick the key by packet type and direction, open
    /// in place under `path`'s nonce, refuse duplicates. What cannot be
    /// opened is left as it arrived (the tag is checked before anything is
    /// decrypted) and offered to `oracle`.
    pub fn open_datagram(
        &self,
        datagram: &mut [u8],
        space: &mut PnSpace,
        path: usize,
        oracle: &ResetOracle,
    ) -> Opened {
        let opened = self.try_open(datagram, space, path as u32);
        opened.unwrap_or_else(|| Opened::Undecryptable { reset: oracle.matches(path, datagram) })
    }

    /// [`Keys::open_datagram`] short of the oracle: `None` is undecryptable.
    fn try_open(
        &self,
        datagram: &mut [u8],
        space: &mut PnSpace,
        nonce_path: u32,
    ) -> Option<Opened> {
        let (header, payload_off) = HeaderRef::decode(datagram).ok()?;
        if header.ty == PacketType::Retry {
            return Some(Opened::Retry(header.into_owned()));
        }
        let HeaderRef { ty, scid, pn, pn_len, .. } = header;
        let pn = pn_decode(pn, pn_len, space.recv.largest());
        let keys = if ty.is_long() { self.initial } else { self.one_rtt.as_ref()? };
        let key = if self.side == Side::Server { &keys.client } else { &keys.server };
        let (aad, sealed) = datagram.split_at_mut(payload_off);
        // Multipath nonce: CID sequence number = path id (paper §6).
        let plain = key.open_in_place(nonce_path, pn, aad, sealed).ok()?.len();
        if !space.recv.insert(pn) {
            return Some(Opened::Duplicate);
        }
        Some(Opened::Packet { scid, payload: payload_off..payload_off + plain })
    }

    /// Seal `packet` (begun from [`PnSpace::next_header`] of the same
    /// `space`) in place under `path`'s nonce and book it as sent.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_packet(
        &self,
        now: Instant,
        space: &mut PnSpace,
        path: usize,
        packet: PacketBuilder,
        content: SentFrames,
        ack_eliciting: bool,
        tracer: &Tracer,
    ) -> Vec<u8> {
        let keys = if packet.is_long() {
            self.initial
        } else {
            // Invariant: every 1-RTT send site is gated on the handshake
            // having completed; no peer input reaches here before.
            self.one_rtt.as_ref().expect("1-RTT keys")
        };
        let key = if self.side == Side::Client { &keys.client } else { &keys.server };
        let pn = space.recovery.peek_pn();
        let datagram = packet.seal(key, path as u32, pn);
        let size = datagram.len() as u64;
        space.recovery.on_packet_sent(now, size, ack_eliciting, content);
        tracer.emit(
            now,
            Event::PacketSent { path: path as u8, pn, bytes: size as u32, ack_eliciting },
        );
        datagram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(side: Side) -> Keys {
        Keys::new(side, &TransportParams::default(), [7; 16])
    }

    fn initial(from: &Keys, space: &mut PnSpace, frames: &[Frame]) -> Vec<u8> {
        let cid = ConnectionId::derive(1, 0);
        let mut packet =
            PacketBuilder::new(space.next_header(PacketType::Initial, cid, cid, Vec::new()));
        frames.iter().for_each(|f| f.encode(packet.frames()));
        let content = frames.iter().map(crate::connection::SentFrame::describing).collect();
        from.finish_packet(Instant::ZERO, space, 0, packet, content, true, &Tracer::disabled())
    }

    #[test]
    fn hello_is_owed_once_and_completes_the_peer() {
        let (mut c, mut s) = (keys(Side::Client), keys(Side::Server));
        assert!(
            s.next_hello(Instant::ZERO, &Tracer::disabled()).is_none(),
            "a server waits for the client's hello"
        );
        let (Frame::Crypto { data, .. }, false) =
            c.next_hello(Instant::ZERO, &Tracer::disabled()).expect("first flight")
        else {
            panic!("not a first CRYPTO flight");
        };
        assert!(c.next_hello(Instant::ZERO, &Tracer::disabled()).is_none());
        c.hello_sent = false; // lost
        assert!(matches!(c.next_hello(Instant::ZERO, &Tracer::disabled()), Some((_, true))));
        assert_eq!(s.on_peer_hello(&data), Ok(true));
        assert!(
            s.one_rtt().is_some() && s.next_hello(Instant::ZERO, &Tracer::disabled()).is_some()
        );
        assert_eq!(s.on_peer_hello(&data), Ok(false), "a retransmitted hello");
        assert!(c.on_peer_hello(&data).is_err(), "own direction is rejected");
        assert!(keys(Side::Server).on_peer_hello(b"\x09junk").is_err());
    }

    #[test]
    fn open_datagram_sorts_fresh_duplicate_noise_and_resets() {
        use crate::frame::FrameRef;
        let (c, s) = (keys(Side::Client), keys(Side::Server));
        let (mut tx, mut rx) = (PnSpace::default(), PnSpace::default());
        let mut oracle = ResetOracle::default();
        // Opened in a copy: what `open` made of it, and the copy after.
        let open = |datagram: &[u8], rx: &mut PnSpace, path, oracle: &ResetOracle| {
            let mut buf = datagram.to_vec();
            (s.open_datagram(&mut buf, rx, path, oracle), buf)
        };
        let datagram = initial(&c, &mut tx, &[Frame::Ping]);
        assert_eq!(tx.recovery.in_flight_count(), 1, "booked as sent");
        let (Opened::Packet { payload, .. }, plain) = open(&datagram, &mut rx, 0, &oracle) else {
            panic!("authentic and fresh");
        };
        assert_eq!(Frame::decode_all(&plain[payload]).unwrap(), [Frame::Ping]);
        assert!(matches!(open(&datagram, &mut rx, 0, &oracle).0, Opened::Duplicate));
        // The wrong path's nonce, a flipped bit and a keyless short header
        // are all the same thing: undecryptable, not a reset, and left as
        // they arrived.
        let next = initial(&c, &mut tx, &[Frame::Ping]);
        let noise = |(o, left): (Opened, Vec<u8>), arrived: &[u8]| {
            matches!(o, Opened::Undecryptable { reset: false }) && left == arrived
        };
        assert!(noise(open(&next, &mut rx, 1, &oracle), &next));
        let mut bent = next.clone();
        *bent.last_mut().unwrap() ^= 1;
        assert!(noise(open(&bent, &mut rx, 0, &oracle), &bent));
        let reset = reset::build_stateless_reset(9, &ConnectionId::derive(1, 0));
        assert!(noise(open(&reset, &mut rx, 0, &oracle), &reset));
        let recorded: u64 = rx.recv.iter().map(|r| r.end - r.start + 1).sum();
        assert_eq!(recorded, 1, "only the authentic packet was recorded");
        // Armed for path 0 only.
        oracle.remember(0, reset::reset_token(9, &ConnectionId::derive(1, 0)));
        assert!(noise(open(&reset, &mut rx, 1, &oracle), &reset));
        let (hit, _) = open(&reset, &mut rx, 0, &oracle);
        assert!(matches!(hit, Opened::Undecryptable { reset: true }));
        // An authentic packet whose payload is not frames: opened, and the
        // frame parser refuses it.
        let mut packet = PacketBuilder::new(tx.next_header(
            PacketType::Initial,
            ConnectionId::derive(1, 0),
            ConnectionId::derive(1, 0),
            Vec::new(),
        ));
        packet.frames().bytes(&[0x3f, 0xff]);
        let junk = c.finish_packet(
            Instant::ZERO,
            &mut tx,
            0,
            packet,
            SentFrames::default(),
            false,
            &Tracer::disabled(),
        );
        let (Opened::Packet { payload, .. }, plain) = open(&junk, &mut rx, 0, &oracle) else {
            panic!("authentic");
        };
        assert!(FrameRef::decode_payload(&plain[payload]).is_err());
    }

    #[test]
    fn reset_oracle_is_capped_and_deduplicated() {
        let mut oracle = ResetOracle::default();
        for i in 0..20u8 {
            oracle.remember(0, [i; 16]);
            oracle.remember(0, [i; 16]);
        }
        assert_eq!(oracle.count(), MAX_RESET_TOKENS);
        let mut dg = [0x40u8; reset::RESET_DATAGRAM_LEN];
        dg[reset::RESET_DATAGRAM_LEN - 16..].copy_from_slice(&[19; 16]);
        assert!(oracle.matches(0, &dg), "newest kept");
        dg[reset::RESET_DATAGRAM_LEN - 16..].copy_from_slice(&[0; 16]);
        assert!(!oracle.matches(0, &dg), "oldest dropped");
    }
}
