//! The connection spine and the single-path engine built from it.
//!
//! The *spine* is what every connection does whichever engine drives it,
//! as plain parts an engine owns and calls (DESIGN §16): [`Lifecycle`],
//! [`PnSpace`], [`Keys`] (handshake, [`Keys::open_datagram`],
//! [`Keys::finish_packet`]), [`ResetOracle`], and the stream receiver,
//! packer and ack/loss handlers on [`StreamMap`]. The other engine is
//! `xlink_core::MpConnection`.
//!
//! [`Connection`] is single-path QUIC: the **SP baseline** in the paper's
//! experiments and the substrate for the connection-migration (CM)
//! baseline (§7.3). Its own: two packet-number spaces on one RTT estimate
//! and congestion controller, Retry, the amplification gate, CID rebinding
//! and migration. Drive it with [`Connection::handle_datagram`] /
//! [`Connection::poll_transmit`] / [`Connection::poll_timeout`] /
//! [`Connection::on_timeout`], in the smoltcp poll-based idiom.

mod keys;
mod lifecycle;
mod space;

pub use keys::{hello_random, placeholder_dcid, Keys, Opened, ResetOracle, MAX_RESET_TOKENS};
pub use lifecycle::{Expiry, Lifecycle, State};
pub use space::{trace_rtt, PnSpace, SentFrame};

use crate::ackranges::MAX_ACK_RANGES;
use crate::cc::{CcAlgorithm, CongestionController, MAX_DATAGRAM_SIZE};
use crate::cid::{CidManager, ConnectionId};
use crate::crypto::TAG_LEN;
use crate::error::{ConnectionError, TransportError};
use crate::frame::{AckFrame, Frame};
use crate::packet::{Header, PacketBuilder, PacketType};
use crate::params::TransportParams;
use crate::recovery::{SentPacket, TimeoutOutcome, SUSPECT_AFTER_PTOS};
use crate::rtt::RttEstimator;
use crate::stream::{Side, StreamMap, MAX_STREAM_SEGMENTS};
use xlink_clock::{Duration, Instant};
use xlink_obs::{Event, Tracer};

/// Configuration for one endpoint.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client or server.
    pub side: Side,
    /// Pre-shared secret standing in for the TLS certificate chain.
    pub psk: Vec<u8>,
    /// Our transport parameters.
    pub params: TransportParams,
    /// Congestion controller algorithm.
    pub cc: CcAlgorithm,
    /// Seed for CID derivation and handshake randoms.
    pub seed: u64,
    /// Send a keep-alive PING after this long with nothing received
    /// (local behavior, not a transport parameter). A pure receiver
    /// otherwise has nothing in flight when its server dies — no PTO to
    /// fire, no ACK to send — and only notices at the idle timeout; the
    /// keep-alive keeps an elicitable packet on the wire so a crashed
    /// peer's stateless reset (or its silence) surfaces within ~one
    /// keep-alive interval instead.
    pub keepalive: Option<Duration>,
}

impl Config {
    /// Reasonable defaults for a client.
    pub fn client(seed: u64) -> Self {
        Config {
            side: Side::Client,
            psk: b"xlink-demo-psk".to_vec(),
            params: TransportParams::default(),
            cc: CcAlgorithm::Cubic,
            seed,
            keepalive: None,
        }
    }

    /// Reasonable defaults for a server.
    pub fn server(seed: u64) -> Self {
        Config { side: Side::Server, ..Config::client(seed) }
    }
}

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Datagrams transmitted.
    pub packets_sent: u64,
    /// Datagrams received and successfully decrypted.
    pub packets_received: u64,
    /// Packets declared lost.
    pub packets_lost: u64,
    /// PTO probe packets sent.
    pub probes_sent: u64,
    /// Total bytes transmitted (wire level).
    pub bytes_sent: u64,
    /// Total bytes received (wire level).
    pub bytes_received: u64,
    /// Stream payload bytes transmitted the first time.
    pub stream_bytes_sent: u64,
    /// Stream payload bytes retransmitted after loss.
    pub stream_bytes_retransmitted: u64,
    /// Datagrams dropped due to failed decryption or parsing.
    pub packets_dropped: u64,
    /// Congestion-migration resets performed.
    pub migrations: u64,
    /// Handshake flights re-sent after loss or timeout.
    pub handshake_retransmits: u64,
}

/// Snapshot of every peer-growable resource a connection bounds (DESIGN
/// §10 adversarial model). Each field mirrors a hard cap in the transport;
/// the adversary suite asserts the caps hold under attack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundedState {
    /// Received-pn ranges tracked (cap: `MAX_ACK_RANGES` per space/path).
    pub recv_ranges: usize,
    /// Ranges evicted by the cap so far (growth counter, monotone).
    pub recv_ranges_evicted: u64,
    /// Queued PATH_RESPONSEs (cap: `MAX_PENDING_PATH_RESPONSES`).
    pub pending_path_responses: usize,
    /// PATH_RESPONSEs dropped by the cap (growth counter, monotone).
    pub path_responses_dropped: u64,
    /// Largest out-of-order segment count over streams (cap:
    /// `MAX_STREAM_SEGMENTS`).
    pub stream_segments: usize,
    /// Buffered receive bytes (bounded by advertised flow control).
    pub buffered_recv_bytes: u64,
}

impl BoundedState {
    /// True when every capped resource is at or below its documented cap.
    pub fn within_caps(&self) -> bool {
        self.recv_ranges <= MAX_ACK_RANGES
            && self.pending_path_responses <= MAX_PENDING_PATH_RESPONSES
            && self.stream_segments <= MAX_STREAM_SEGMENTS
    }

    /// Field-wise maximum (peak tracking across samples).
    pub fn peak(self, other: BoundedState) -> BoundedState {
        BoundedState {
            recv_ranges: self.recv_ranges.max(other.recv_ranges),
            recv_ranges_evicted: self.recv_ranges_evicted.max(other.recv_ranges_evicted),
            pending_path_responses: self.pending_path_responses.max(other.pending_path_responses),
            path_responses_dropped: self.path_responses_dropped.max(other.path_responses_dropped),
            stream_segments: self.stream_segments.max(other.stream_segments),
            buffered_recv_bytes: self.buffered_recv_bytes.max(other.buffered_recv_bytes),
        }
    }
}

/// Packet number spaces, in [`Connection::spaces`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    Initial,
    App,
}

/// The single-path QUIC connection.
pub struct Connection {
    cfg: Config,
    life: Lifecycle,
    keys: Keys,
    pub(crate) cids: CidManager,
    /// CID the peer told us to use as destination.
    remote_cid: ConnectionId,
    /// Our CID (what the peer sends to).
    local_cid: ConnectionId,
    streams: StreamMap,
    /// The Initial and the 1-RTT space, sharing `rtt` and `cc`.
    spaces: [PnSpace; 2],
    rtt: RttEstimator,
    cc: Box<dyn CongestionController>,
    /// Time of most recent received ack-eliciting packet (for ack delay).
    last_recv_time: Instant,
    /// Last keep-alive PING sent (see [`Config::keepalive`]).
    last_keepalive: Instant,
    /// Probe requested by PTO.
    probe_pending: bool,
    /// Liveness parity hook (§9): true while consecutive PTOs suggest
    /// the (single) path is blackholed. Single-path QUIC has nowhere to
    /// fail over to, but surfacing the same signal keeps differential
    /// traces comparable with the multipath stack.
    suspected: bool,
    /// PTO probes sent while suspected (reported on revalidation).
    suspect_probes: u32,
    /// PATH_RESPONSE payloads owed (the peer's challenges), oldest first;
    /// they leave in a packet of their own.
    response_pending: Vec<[u8; 8]>,
    /// PATH_RESPONSEs dropped by the pending-response cap (§10 gauge).
    path_responses_dropped: u64,
    stats: ConnectionStats,
    /// Address-validation state (§8.1). Servers reached through the edge
    /// tier may start unvalidated and then respect the 3× amplification
    /// limit until the client's address is proven (token or handshake).
    address_validated: bool,
    /// Token to echo in Initial packets (clients; learned from a Retry).
    token: Vec<u8>,
    /// A Retry was already honoured (§17.2.5: at most one per connection).
    retry_done: bool,
    /// Sequence number of the peer CID currently used as destination.
    remote_cid_seq: u64,
    /// The peer's handshake SCID has been recorded in the CID manager.
    initial_remote_bound: bool,
    /// Local CID values retired at the peer's request — drained by the
    /// edge router to unmap stale routing entries.
    retired_local: Vec<ConnectionId>,
    /// Bumped whenever the set of local CIDs changes (see
    /// [`Connection::cid_epoch`]).
    cid_epoch: u64,
    /// Tokens the peer will stateless-reset the CIDs we send to with,
    /// learned from its transport parameters and NEW_CONNECTION_ID frames.
    oracle: ResetOracle,
    tracer: Tracer,
}

/// Anti-amplification factor (RFC 9000 §8.1): an address-unvalidated
/// server may send at most this multiple of the bytes received from the
/// client's address.
pub const AMP_FACTOR: u64 = 3;

/// Conservative per-send headroom for the amplification gate: a datagram
/// is withheld unless it is guaranteed to fit under the limit whatever
/// its final size (header + payload + tag).
pub const AMP_HEADROOM: u64 = MAX_DATAGRAM_SIZE + 64;

/// Cap on PATH_RESPONSEs queued at once (§10 adversarial bound). A
/// challenge flood would otherwise grow the control queue without limit;
/// past the cap the oldest pending response is dropped — an honest peer
/// retransmits any challenge it still cares about.
pub const MAX_PENDING_PATH_RESPONSES: usize = 8;

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("side", &self.cfg.side)
            .field("state", self.life.state())
            .finish_non_exhaustive()
    }
}

impl Connection {
    /// Create a connection endpoint.
    pub fn new(cfg: Config, now: Instant) -> Self {
        let keys = Keys::new(cfg.side, &cfg.psk, &cfg.params, hello_random(cfg.seed));
        let mut cids = CidManager::new(cfg.seed);
        let local = cids.issue_local();
        let p = &cfg.params;
        Connection {
            life: Lifecycle::new(now, p.max_idle_timeout),
            keys,
            local_cid: local.cid,
            // Until the peer's hello arrives.
            remote_cid: placeholder_dcid(),
            cids,
            streams: StreamMap::for_endpoint(cfg.side, p),
            spaces: Default::default(),
            rtt: RttEstimator::new(),
            cc: cfg.cc.build(),
            last_recv_time: now,
            last_keepalive: now,
            probe_pending: false,
            suspected: false,
            suspect_probes: 0,
            response_pending: Vec::new(),
            path_responses_dropped: 0,
            stats: ConnectionStats::default(),
            address_validated: true,
            token: Vec::new(),
            retry_done: false,
            remote_cid_seq: 0,
            initial_remote_bound: false,
            retired_local: Vec::new(),
            cid_epoch: 0,
            oracle: ResetOracle::default(),
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Attach a trace handle (events are emitted under its source).
    /// Tracing is read-only: it never changes connection behaviour.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Lifecycle: states, closing/draining, the idle deadline.
    pub fn lifecycle(&self) -> &Lifecycle {
        &self.life
    }

    /// Current state.
    pub fn state(&self) -> &State {
        self.life.state()
    }

    /// True once application data can flow.
    pub fn is_established(&self) -> bool {
        self.life.is_established()
    }

    /// True when closed.
    pub fn is_closed(&self) -> bool {
        self.life.is_closed()
    }

    /// True once the closing/draining period has expired and all
    /// peer-growable state has been freed (§10.2 lifecycle).
    pub fn is_drained(&self) -> bool {
        self.life.is_drained()
    }

    /// The error this connection closed with, if closed.
    pub fn close_error(&self) -> Option<&ConnectionError> {
        self.life.close_error()
    }

    /// Snapshot of the capped peer-growable state (§10 gauges).
    pub fn bounded_state(&self) -> BoundedState {
        BoundedState {
            recv_ranges: self.spaces.iter().map(|s| s.recv.range_count()).max().unwrap_or(0),
            recv_ranges_evicted: self.spaces.iter().map(|s| s.recv.evicted()).sum(),
            pending_path_responses: self.response_pending.len(),
            path_responses_dropped: self.path_responses_dropped,
            stream_segments: self.streams.max_segments(),
            buffered_recv_bytes: self.streams.buffered_recv_bytes(),
        }
    }

    /// Received packet numbers of the Initial and of the 1-RTT space, as
    /// ascending inclusive ranges (the final ACK state; differential tests).
    pub fn recv_pn_ranges(&self) -> [Vec<(u64, u64)>; 2] {
        self.spaces.each_ref().map(|s| s.recv.iter().map(|r| (r.start, r.end)).collect())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ConnectionStats {
        self.stats
    }

    /// Losses later contradicted by an ACK (reordering, not loss),
    /// summed over both packet-number spaces.
    pub fn spurious_losses(&self) -> u64 {
        self.spaces.iter().map(|s| s.recovery.spurious_losses()).sum()
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> u64 {
        self.cc.window()
    }

    /// Bytes currently in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.spaces.iter().map(|s| s.recovery.bytes_in_flight()).sum()
    }

    /// Access the stream table.
    pub fn streams(&self) -> &StreamMap {
        &self.streams
    }

    /// Mutable access to the stream table.
    pub fn streams_mut(&mut self) -> &mut StreamMap {
        &mut self.streams
    }

    /// Peer's transport parameters, once known.
    pub fn peer_params(&self) -> Option<&TransportParams> {
        self.keys.handshake().peer_params()
    }

    /// Open a new bidirectional stream with a scheduling priority.
    pub fn open_stream(&mut self, priority: u8) -> u64 {
        self.streams.open(priority)
    }

    /// Write data on a stream; `fin` marks the end.
    pub fn stream_send(&mut self, id: u64, data: &[u8], fin: bool) {
        self.streams.write(id, data, None, fin);
    }

    /// Read available bytes from a stream.
    pub fn stream_recv(&mut self, id: u64, max: usize) -> Vec<u8> {
        self.streams.read(id, max)
    }

    /// Monotone count of received STREAM and RESET_STREAM frames (see
    /// [`StreamMap::epoch`]).
    pub fn stream_epoch(&self) -> u64 {
        self.streams.epoch()
    }

    /// Streams with readable data.
    pub fn readable_streams(&self) -> Vec<u64> {
        self.streams.readable_ids()
    }

    /// Begin closing the connection. The CONNECTION_CLOSE goes out on
    /// the next [`Connection::poll_transmit`], which also starts the
    /// 3×PTO closing period (§10.2).
    pub fn close(&mut self, error: TransportError, reason: &str) {
        self.life.close(error, reason);
    }

    fn pto(&self) -> Duration {
        self.rtt.pto(self.cfg.params.max_ack_delay)
    }

    /// Free peer-growable state once the connection's life is over.
    fn free_state(&mut self) {
        self.streams.control = Vec::new();
        self.response_pending = Vec::new();
        self.keys.release();
        for space in &mut self.spaces {
            let _ = space.recovery.drain_all();
        }
    }

    /// Connection migration (the CM baseline, §7.3): reset congestion
    /// state and RTT as RFC 9000 §9.4 requires after moving to a new path.
    pub fn on_migrate(&mut self, now: Instant) {
        self.cc.reset(now);
        self.rtt = RttEstimator::new();
        // The backoff accumulated on the old path says nothing about the
        // new one; probing resumes at the base PTO.
        self.spaces[Space::App as usize].recovery.reset_pto_count();
        self.suspected = false;
        self.suspect_probes = 0;
        self.stats.migrations += 1;
    }

    /// True while consecutive PTOs mark the path suspect (no ack
    /// progress; see [`Connection::on_migrate`] for the liveness hook).
    pub fn is_suspected(&self) -> bool {
        self.suspected
    }

    // ------------------------------------------------------------------
    // Edge-tier hooks: routable CIDs, migration, address validation
    // ------------------------------------------------------------------

    /// The CID the peer currently routes to us with.
    pub fn local_cid(&self) -> ConnectionId {
        self.local_cid
    }

    /// The CID we currently use as destination.
    pub fn remote_cid(&self) -> ConnectionId {
        self.remote_cid
    }

    /// All local CIDs currently routing to this connection (the edge
    /// router's demux set).
    pub fn local_cids(&self) -> impl Iterator<Item = ConnectionId> + '_ {
        self.cids.local_cids().iter().map(|c| c.cid)
    }

    /// Monotone count of changes to the local CID set: while it stands
    /// still, [`Connection::local_cids`] yields what it yielded before and
    /// [`Connection::take_retired_local`] has nothing new, so a router
    /// mirrors the set only when this moves.
    pub fn cid_epoch(&self) -> u64 {
        self.cid_epoch
    }

    /// Replace the handshake-era (seq 0) local CID before the peer has
    /// learned it — a server adopting a routable QUIC-LB encoded CID.
    pub fn rebind_local_cid(&mut self, cid: ConnectionId) {
        self.cids.rebind_initial_local(cid);
        self.local_cid = cid;
        self.cid_epoch += 1;
    }

    /// Issue a caller-supplied CID that orders the peer to retire every
    /// earlier one (shard drain: the new CID routes to a surviving
    /// shard). Returns the new CID's sequence number. The old CID keeps
    /// routing here until the peer's RETIRE_CONNECTION_ID lands — drain
    /// it via [`Connection::take_retired_local`].
    pub fn issue_migration_cid(&mut self, cid: ConnectionId, reset_token: Option<[u8; 16]>) -> u64 {
        let issued = self.cids.issue_local_migration(cid, reset_token);
        // Future §19.16 in-use checks apply to the replacement.
        self.local_cid = cid;
        self.cid_epoch += 1;
        self.streams.control.push(Frame::NewConnectionId(issued));
        issued.seq
    }

    /// CID values retired at the peer's request since the last call.
    pub fn take_retired_local(&mut self) -> Vec<ConnectionId> {
        std::mem::take(&mut self.retired_local)
    }

    /// Mark the peer's address as unvalidated: the §8.1 3× amplification
    /// limit gates every send until validation (token or handshake).
    pub fn set_address_unvalidated(&mut self) {
        self.address_validated = false;
    }

    /// The peer's address has been validated (e.g. by a Retry token
    /// checked at the edge).
    pub fn mark_address_validated(&mut self) {
        self.address_validated = true;
    }

    /// §8.1 address-validation state.
    pub fn is_address_validated(&self) -> bool {
        self.address_validated
    }

    /// True once a Retry has been honoured (§17.2.5 allows at most one).
    pub fn retry_seen(&self) -> bool {
        self.retry_done
    }

    // ------------------------------------------------------------------
    // Stateless reset (§10.3)
    // ------------------------------------------------------------------

    /// Number of reset tokens currently held by the oracle (tests).
    pub fn reset_token_count(&self) -> usize {
        self.oracle.count()
    }

    /// Offer an undecryptable datagram to the reset oracle (§10.3.1): on
    /// a match the peer has provably lost this connection's state, and
    /// the connection closes as [`ConnectionError::Reset`] immediately
    /// instead of idling into PTO/idle-timeout exhaustion. Returns whether
    /// it fired.
    pub fn probe_stateless_reset(&mut self, now: Instant, datagram: &[u8]) -> bool {
        let hit = !self.is_closed() && self.oracle.matches(0, datagram);
        if hit {
            self.on_stateless_reset(now);
        }
        hit
    }

    fn on_stateless_reset(&mut self, now: Instant) {
        self.life.on_reset();
        self.free_state();
        self.tracer.emit(now, Event::StatelessReset { path: 0 });
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Ingest one datagram.
    pub fn handle_datagram(&mut self, now: Instant, datagram: &[u8]) {
        self.stats.bytes_received += datagram.len() as u64;
        if self.life.absorb_if_closed() {
            return;
        }
        // Long headers number in the Initial space, short ones in 1-RTT.
        let long = datagram.first().is_some_and(|b| b & 0x80 != 0);
        let space = if long { Space::Initial } else { Space::App };
        let pn_space = &mut self.spaces[space as usize];
        let (header, frames) = match self.keys.open_datagram(datagram, pn_space, 0, &self.oracle) {
            Opened::Packet { header, frames } => (header, frames),
            Opened::Retry(header) => return self.on_retry(now, header),
            Opened::Duplicate => return,
            Opened::Undecryptable { reset: true } => return self.on_stateless_reset(now),
            Opened::Undecryptable { reset: false } => {
                self.stats.packets_dropped += 1;
                return;
            }
        };
        self.stats.packets_received += 1;
        // The idle timeout tracks peer liveness: receipts refresh it,
        // sends never do (a sender PTO-probing a dead peer must still idle
        // out; a live peer's ACKs refresh it constantly).
        self.life.touch(now);
        if long {
            // Learn the peer's real CID from its SCID (both sides), and
            // record it as the implicit seq-0 peer CID so Retire Prior To
            // bookkeeping covers it during shard drain.
            self.remote_cid = header.scid;
            if !self.initial_remote_bound {
                self.initial_remote_bound = true;
                self.remote_cid_seq = 0;
                self.cids.bind_initial_remote(header.scid);
            }
        }
        let Some(frames) = frames else {
            return self.close(TransportError::FrameEncodingError, "bad frame");
        };
        let mut ack_eliciting = false;
        for frame in frames {
            ack_eliciting |= frame.is_ack_eliciting();
            self.on_frame(now, space, frame);
            if self.life.is_silenced() {
                return;
            }
        }
        if ack_eliciting {
            self.spaces[space as usize].ack_pending = true;
            self.last_recv_time = now;
        }
    }

    /// Process a Retry packet (RFC 9000 §17.2.5): install the token,
    /// adopt the server's SCID, and re-fire the hello. Clients honour at
    /// most one Retry per connection; servers drop them.
    fn on_retry(&mut self, now: Instant, header: Header) {
        if self.cfg.side != Side::Client
            || self.retry_done
            || self.keys.handshake().is_complete()
            || header.token.is_empty()
        {
            self.stats.packets_dropped += 1;
            return;
        }
        self.retry_done = true;
        self.token = header.token;
        self.remote_cid = header.scid;
        // Re-send the hello, now carrying the token.
        self.keys.hello_sent = false;
        self.life.touch(now);
    }

    fn on_frame(&mut self, now: Instant, space: Space, frame: Frame) {
        match frame {
            Frame::Crypto { data, .. } => match self.keys.on_peer_hello(&data) {
                Ok(true) => self.on_handshake_complete(now),
                Ok(false) => {} // a retransmitted hello
                Err((e, why)) => self.close(e, why),
            },
            Frame::Ack(ack) => self.on_ack(now, space, ack),
            // Multipath frames on a single-path connection are a protocol
            // violation (negotiation never happened here).
            Frame::AckMp(_) | Frame::PathStatus { .. } | Frame::QoeControlSignals(_) => {
                self.close(
                    TransportError::ProtocolViolation,
                    "multipath frame without negotiation",
                );
            }
            Frame::NewConnectionId(ic) => {
                if let Some(tok) = ic.reset_token {
                    self.oracle.remember(0, tok);
                }
                let retired = self.cids.store_remote(ic);
                for &seq in &retired {
                    self.streams.control.push(Frame::RetireConnectionId { seq });
                }
                if retired.contains(&self.remote_cid_seq) {
                    // Our destination CID was retired out from under us
                    // (shard drain): migrate onto the lowest-sequence
                    // surviving peer CID.
                    if let Some(next) = self.cids.take_unused_remote() {
                        self.remote_cid = next.cid;
                        self.remote_cid_seq = next.seq;
                        self.tracer.emit(now, Event::ConnMigrated { from_shard: 0, to_shard: 0 });
                    }
                }
            }
            Frame::RetireConnectionId { seq } => {
                // §19.16: the peer cannot retire the CID its packets are
                // currently routed by, nor a sequence never issued.
                if seq >= self.cids.next_local_seq() {
                    self.close(TransportError::ProtocolViolation, "retire of unissued cid");
                } else if self.cids.local_seq_of(&self.local_cid) == Some(seq) {
                    self.close(TransportError::ProtocolViolation, "retire of cid in use");
                } else if let Some(cid) = self.cids.retire_local(seq) {
                    self.retired_local.push(cid);
                    self.cid_epoch += 1;
                    // Keep the peer supplied with a spare CID.
                    let issued = self.cids.issue_local();
                    self.streams.control.push(Frame::NewConnectionId(issued));
                }
                // Retiring an already-retired seq is a harmless duplicate.
            }
            Frame::PathChallenge(data) => self.pin_response(data),
            Frame::ConnectionClose { error_code, .. } => {
                self.life.on_peer_close(now, error_code, self.pto(), &self.tracer);
            }
            // Streams and flow control; PADDING, PING, HANDSHAKE_DONE and
            // the rest need nothing done.
            other => {
                if let Err((e, why)) = self.streams.on_frame(other) {
                    self.close(e, why);
                }
            }
        }
    }

    /// Owe the peer a PATH_RESPONSE, enforcing the pending cap (§10): past
    /// [`MAX_PENDING_PATH_RESPONSES`] the oldest reply is dropped — an
    /// honest peer retransmits challenges it still needs.
    fn pin_response(&mut self, data: [u8; 8]) {
        if self.response_pending.len() >= MAX_PENDING_PATH_RESPONSES {
            self.response_pending.remove(0);
            self.path_responses_dropped += 1;
        }
        self.response_pending.push(data);
    }

    fn on_handshake_complete(&mut self, now: Instant) {
        self.tracer.emit(now, Event::HandshakeComplete { multipath: false });
        // Completing the handshake proves the peer can receive at its
        // address (§8.1): lift the amplification limit.
        self.address_validated = true;
        // Correct the peer-advertised limits now that we have them.
        if let Some(p) = self.keys.handshake().peer_params() {
            self.streams.on_max_data(p.initial_max_data);
            // §10.3.2: the server's handshake-CID reset token arrives in
            // its transport parameters; it covers the CID we send to.
            if let (Side::Client, Some(tok)) = (self.cfg.side, p.stateless_reset_token) {
                self.oracle.remember(0, tok);
            }
        }
        self.life.establish();
    }

    fn on_ack(&mut self, now: Instant, space: Space, ack: AckFrame) {
        let Ok(outcome) = self.spaces[space as usize].on_ack(now, &ack, &mut self.rtt) else {
            return self.close(TransportError::ProtocolViolation, "optimistic ack");
        };
        trace_rtt(&self.tracer, now, 0, outcome.rtt_sample, &self.rtt);
        if self.suspected && !outcome.acked.is_empty() {
            // Ack progress contradicts the blackhole hypothesis.
            self.suspected = false;
            self.tracer.emit(now, Event::PathRevalidated { path: 0, probes: self.suspect_probes });
            self.suspect_probes = 0;
        }
        let mut cc_touched = false;
        for p in &outcome.acked {
            self.tracer.emit(now, Event::PacketAcked { path: 0, pn: p.pn });
            if p.ack_eliciting {
                self.cc.on_ack(now, p.time_sent, p.size, self.rtt.smoothed());
                cc_touched = true;
            }
            for sent in &p.content {
                match sent {
                    // Prune acknowledged ack state (always the 1-RTT
                    // space's: Initial ACKs never get this far).
                    SentFrame::Ack { largest, .. } if *largest > 2 => self.spaces
                        [Space::App as usize]
                        .recv
                        .forget_below(largest.saturating_sub(512)),
                    SentFrame::HandshakeDone => self.keys.done_sent = true,
                    other => self.streams.on_sent_frame_acked(other),
                }
            }
        }
        if cc_touched {
            self.emit_cwnd(now);
        }
        if !outcome.lost.is_empty() {
            self.on_packets_lost(now, outcome.lost);
        }
    }

    fn emit_cwnd(&self, now: Instant) {
        self.tracer.emit(
            now,
            Event::CwndUpdate {
                path: 0,
                cwnd: self.cc.window(),
                bytes_in_flight: self.bytes_in_flight(),
            },
        );
    }

    fn on_packets_lost(&mut self, now: Instant, lost: Vec<SentPacket<Vec<SentFrame>>>) {
        self.stats.packets_lost += lost.len() as u64;
        let mut newest_lost_sent: Option<Instant> = None;
        for p in lost {
            self.tracer.emit(now, Event::PacketLost { path: 0, pn: p.pn, bytes: p.size as u32 });
            if p.in_flight {
                newest_lost_sent =
                    Some(newest_lost_sent.map_or(p.time_sent, |t| t.max(p.time_sent)));
            }
            for sent in p.content {
                match sent {
                    SentFrame::Crypto => self.keys.hello_sent = false, // resend hello
                    SentFrame::HandshakeDone => self.keys.done_sent = false,
                    SentFrame::Response(data) => self.pin_response(data),
                    other => {
                        self.stats.stream_bytes_retransmitted +=
                            self.streams.on_sent_frame_lost(other);
                    }
                }
            }
        }
        if let Some(t) = newest_lost_sent {
            self.cc.on_congestion_event(now, t);
            self.emit_cwnd(now);
        }
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Produce the next datagram to send, if any.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<Vec<u8>> {
        // §8.1 anti-amplification: an unvalidated server withholds any
        // datagram that could push sent bytes past 3× received bytes.
        // The check is conservative (worst-case datagram size), so the
        // limit holds whatever the packet ends up containing.
        if !self.address_validated
            && self.cfg.side == Side::Server
            && self.stats.bytes_sent + AMP_HEADROOM
                > self.stats.bytes_received.saturating_mul(AMP_FACTOR)
        {
            return None;
        }
        if self.is_closed() {
            // Closing (§10.2): the CONNECTION_CLOSE, then its replays.
            let (frame, _) = self.life.poll_close(now, self.pto(), &self.tracer)?;
            let space = if self.keys.one_rtt().is_some() { Space::App } else { Space::Initial };
            return Some(self.build_packet(now, space, &[frame], false));
        }
        // Handshake transmission.
        if let Some((hello, retransmit)) = self.keys.next_hello(now, &self.tracer) {
            self.stats.handshake_retransmits += u64::from(retransmit);
            return Some(self.build_packet(now, Space::Initial, &[hello], true));
        }
        // Server HANDSHAKE_DONE.
        if self.cfg.side == Side::Server && self.is_established() && !self.keys.done_sent {
            self.keys.done_sent = true;
            return Some(self.build_packet(now, Space::App, &[Frame::HandshakeDone], true));
        }
        // Pending ACKs (always allowed; not congestion controlled).
        for space in [Space::Initial, Space::App] {
            let delay = now - self.last_recv_time;
            if let Some(ack) = self.spaces[space as usize].take_ack(0, delay) {
                return Some(self.build_packet(now, space, &[Frame::Ack(ack)], false));
            }
        }
        if !self.is_established() {
            return None;
        }
        // PATH_RESPONSEs owed.
        if !self.response_pending.is_empty() {
            let pending = std::mem::take(&mut self.response_pending);
            let mut packet = PacketBuilder::new(self.next_header(Space::App));
            pending.iter().for_each(|&d| Frame::PathResponse(d).encode(packet.frames()));
            let content = pending.into_iter().map(SentFrame::Response).collect();
            return Some(self.finish_packet(now, Space::App, packet, content, true));
        }
        // PTO probe.
        if self.probe_pending {
            self.probe_pending = false;
            self.stats.probes_sent += 1;
            return Some(self.build_packet(now, Space::App, &[Frame::Ping], true));
        }
        // Congestion check for new data.
        let budget = self.cc.window().saturating_sub(self.bytes_in_flight());
        if budget < MAX_DATAGRAM_SIZE / 2 {
            return None;
        }
        // Control frames first, bundled with stream data.
        let mut packet = PacketBuilder::new(self.next_header(Space::App));
        let (content, first_time) = self.streams.pack(&mut packet);
        self.stats.stream_bytes_sent += first_time;
        if content.is_empty() {
            return None;
        }
        Some(self.finish_packet(now, Space::App, packet, content, true))
    }

    /// A packet of control frames, each described to recovery by its kind.
    fn build_packet(
        &mut self,
        now: Instant,
        space: Space,
        frames: &[Frame],
        ack_eliciting: bool,
    ) -> Vec<u8> {
        let mut packet = PacketBuilder::new(self.next_header(space));
        for f in frames {
            f.encode(packet.frames());
        }
        let content = frames.iter().map(SentFrame::describing).collect();
        self.finish_packet(now, space, packet, content, ack_eliciting)
    }

    /// The header of the next packet to be sent in `space`.
    fn next_header(&self, space: Space) -> Header {
        let initial = space == Space::Initial;
        let ty = if initial { PacketType::Initial } else { PacketType::OneRtt };
        // Clients echo their address-validation token on every Initial.
        let echo = initial && self.cfg.side == Side::Client;
        let token = if echo { self.token.clone() } else { Vec::new() };
        self.spaces[space as usize].next_header(ty, self.remote_cid, self.local_cid, token)
    }

    /// Seal `packet` (started from [`Connection::next_header`] of `space`)
    /// and account for it as sent.
    fn finish_packet(
        &mut self,
        now: Instant,
        space: Space,
        packet: PacketBuilder,
        content: Vec<SentFrame>,
        ack_eliciting: bool,
    ) -> Vec<u8> {
        let pn_space = &mut self.spaces[space as usize];
        let datagram =
            self.keys.finish_packet(now, pn_space, 0, packet, content, ack_eliciting, &self.tracer);
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += datagram.len() as u64;
        debug_assert!(datagram.len() <= MAX_DATAGRAM_SIZE as usize + TAG_LEN + 40);
        datagram
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest time at which [`Connection::on_timeout`] must be called.
    pub fn poll_timeout(&self) -> Option<Instant> {
        if self.is_closed() {
            return self.life.drain_deadline();
        }
        let mad = self.cfg.params.max_ack_delay;
        let mut t = self.life.idle_deadline();
        if let Some(k) = self.cfg.keepalive {
            if self.is_established() {
                t = t.min(self.life.last_activity().max(self.last_keepalive) + k);
            }
        }
        for space in &self.spaces {
            if let Some(lt) = space.recovery.next_timeout(&self.rtt, mad) {
                t = t.min(lt);
            }
        }
        Some(t)
    }

    /// Handle a timer expiry.
    pub fn on_timeout(&mut self, now: Instant) {
        match self.life.on_timeout(now, &self.tracer) {
            Expiry::Open => {}
            Expiry::Closed => return,
            Expiry::Freed => return self.free_state(),
        }
        if let Some(k) = self.cfg.keepalive {
            if self.is_established()
                && now >= self.life.last_activity().max(self.last_keepalive) + k
            {
                self.probe_pending = true;
                self.last_keepalive = now;
            }
        }
        let mad = self.cfg.params.max_ack_delay;
        for space in [Space::Initial, Space::App] {
            let recovery = &mut self.spaces[space as usize].recovery;
            if recovery.next_timeout(&self.rtt, mad).is_none_or(|deadline| now < deadline) {
                continue;
            }
            match recovery.on_timeout(now, &self.rtt) {
                TimeoutOutcome::Lost(lost) => self.on_packets_lost(now, lost),
                // Initial space: re-fire the hello.
                TimeoutOutcome::SendProbe if space == Space::Initial => {
                    self.keys.hello_sent = false;
                }
                TimeoutOutcome::SendProbe => {
                    self.probe_pending = true;
                    let pto_count = recovery.pto_count();
                    if self.suspected {
                        self.suspect_probes += 1;
                    } else if pto_count >= SUSPECT_AFTER_PTOS {
                        self.suspected = true;
                        self.suspect_probes = 0;
                        let silent = recovery
                            .oldest_unacked_time()
                            .map_or(Duration::ZERO, |t| now.saturating_duration_since(t));
                        self.tracer.emit(
                            now,
                            Event::PathSuspected {
                                path: 0,
                                pto_count,
                                silent_us: silent.as_micros(),
                            },
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ackranges::AckRanges;
    use crate::packet::{pn_encode_len, pn_truncate};
    use crate::reset;

    /// Drive two connections until quiescent, shuttling datagrams
    /// directly (zero-latency "wire"): enough for state machine tests.
    fn pump(now: &mut Instant, a: &mut Connection, b: &mut Connection) {
        for _ in 0..2000 {
            let mut any = false;
            while let Some(d) = a.poll_transmit(*now) {
                b.handle_datagram(*now, &d);
                any = true;
            }
            while let Some(d) = b.poll_transmit(*now) {
                a.handle_datagram(*now, &d);
                any = true;
            }
            if !any {
                // Advance time to the next timer if one is near.
                let next = [a.poll_timeout(), b.poll_timeout()].into_iter().flatten().min();
                match next {
                    Some(t) if t <= *now + Duration::from_millis(100) => {
                        *now = t;
                        a.on_timeout(*now);
                        b.on_timeout(*now);
                    }
                    _ => break,
                }
            } else {
                *now += Duration::from_micros(100);
            }
        }
    }

    fn pair() -> (Connection, Connection, Instant) {
        let now = Instant::ZERO;
        let client = Connection::new(Config::client(1), now);
        let server = Connection::new(Config::server(2), now);
        (client, server, now)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established(), "client state: {:?}", c.state());
        assert!(s.is_established(), "server state: {:?}", s.state());
    }

    #[test]
    fn bidirectional_stream_transfer() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"GET /video1", true);
        pump(&mut now, &mut c, &mut s);
        // Server sees the request.
        let got = s.stream_recv(id, 100);
        assert_eq!(got, b"GET /video1");
        assert!(s.streams().get(id).unwrap().recv.is_complete());
        // Server responds on the same stream.
        s.stream_send(id, b"response-bytes", true);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(c.stream_recv(id, 100), b"response-bytes");
    }

    #[test]
    fn large_transfer_completes() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"req", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        s.stream_send(id, &body, true);
        let mut received = Vec::new();
        for _ in 0..200 {
            pump(&mut now, &mut c, &mut s);
            received.extend(c.stream_recv(id, usize::MAX));
            if received.len() == body.len() {
                break;
            }
            now += Duration::from_millis(5);
        }
        assert_eq!(received.len(), body.len());
        assert_eq!(received, body);
    }

    /// The single-buffer builder against the owned codec: a 1-RTT datagram
    /// is `Header::encode() ‖ AeadKey::seal(header, Σ Frame::encode)`, and
    /// the in-place receive path reads the same stream bytes out of it.
    #[test]
    fn one_rtt_datagram_equals_the_owned_codec() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        let body: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        c.stream_send(id, &body, true);
        let pn = c.spaces[1].recovery.peek_pn();
        let pn_len = pn_encode_len(pn, c.spaces[1].recovery.largest_acked());
        let header = Header {
            ty: PacketType::OneRtt,
            dcid: c.remote_cid,
            scid: c.local_cid,
            pn: pn_truncate(pn, pn_len),
            pn_len,
            token: Vec::new(),
        }
        .encode();
        let datagram = c.poll_transmit(now).expect("stream data to send");

        let key = c.keys.one_rtt().unwrap().client.clone();
        assert_eq!(&datagram[..header.len()], &header[..]);
        let plain = key.open(0, pn, &header, &datagram[header.len()..]).expect("authentic");
        let frames = Frame::decode_all(&plain).unwrap();
        let [Frame::Stream { stream_id, offset: 0, data, fin: false }] = &frames[..] else {
            panic!("expected one STREAM frame, got {frames:?}");
        };
        assert_eq!(*stream_id, id);
        assert!(data.len() > 1200, "a full-size packet");
        assert_eq!(data[..], body[..data.len()]);

        let mut payload = crate::varint::Writer::new();
        frames.iter().for_each(|f| f.encode(&mut payload));
        let rebuilt = [header.clone(), key.seal(0, pn, &header, payload.as_slice())].concat();
        assert_eq!(datagram, rebuilt);

        s.handle_datagram(now, &datagram);
        assert_eq!(s.stream_recv(id, usize::MAX)[..], body[..data.len()]);
    }

    #[test]
    fn stats_count_traffic() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, &[0u8; 5000], true);
        pump(&mut now, &mut c, &mut s);
        assert!(c.stats().packets_sent >= 4);
        assert!(s.stats().packets_received >= 4);
        assert_eq!(c.stats().packets_lost, 0);
        assert!(c.stats().stream_bytes_sent >= 5000);
    }

    #[test]
    fn idle_timeout_closes() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let deadline = c.poll_timeout().unwrap();
        now = deadline + Duration::from_millis(1);
        c.on_timeout(now);
        assert!(matches!(c.state(), State::Closed(ConnectionError::TimedOut)));
        let _ = s;
    }

    #[test]
    fn keepalive_pings_keep_a_quiet_connection_elicitable() {
        let now = Instant::ZERO;
        let mut cc = Config::client(1);
        cc.keepalive = Some(Duration::from_millis(200));
        let mut c = Connection::new(cc, now);
        let mut s = Connection::new(Config::server(2), now);
        let mut t = now;
        pump(&mut t, &mut c, &mut s);
        assert!(c.is_established());
        // Quiescent: the next client timer is the keep-alive, well
        // before the idle deadline.
        let ka = c.poll_timeout().expect("keep-alive armed");
        assert!(ka <= t + Duration::from_millis(200), "{ka:?}");
        c.on_timeout(ka);
        let ping = c.poll_transmit(ka).expect("keep-alive PING goes out");
        // Ack-eliciting and in flight: the silent server now causes
        // PTO probes, so its death is detectable before the idle timer.
        assert!(ping.len() > crate::reset::RESET_DATAGRAM_LEN);
        assert!(c.poll_timeout().expect("PTO armed") < c.life.idle_deadline());
        // A server answering keeps the connection alive and re-arms.
        s.handle_datagram(ka, &ping);
        let mut t2 = ka;
        pump(&mut t2, &mut c, &mut s);
        assert!(c.is_established() && !c.is_closed());
    }

    #[test]
    fn close_propagates_to_peer() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.close(TransportError::NoError, "done");
        pump(&mut now, &mut c, &mut s);
        assert!(matches!(
            s.state(),
            State::Closed(ConnectionError::PeerClosed(TransportError::NoError))
        ));
    }

    #[test]
    fn closing_replays_close_then_drains() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.close(TransportError::NoError, "done");
        let first = c.poll_transmit(now).expect("close frame");
        assert!(c.poll_transmit(now).is_none(), "closing sends nothing unprompted");
        // Incoming packets while closing provoke rate-limited replays:
        // counts 1, 2, 4, 8 out of 10 arrivals.
        let mut replays = 0;
        for _ in 0..10 {
            c.handle_datagram(now, &first); // any datagram counts
            if c.poll_transmit(now).is_some() {
                replays += 1;
            }
        }
        assert_eq!(replays, 4);
        // The drain deadline expires 3×PTO after the close was sent.
        let deadline = c.poll_timeout().expect("drain deadline");
        assert!(deadline > now);
        now = deadline;
        c.on_timeout(now);
        assert!(c.is_drained());
        assert!(c.poll_timeout().is_none());
        // Further packets provoke nothing once drained.
        c.handle_datagram(now, &first);
        assert!(c.poll_transmit(now).is_none());
    }

    #[test]
    fn draining_endpoint_is_silent_and_expires() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.close(TransportError::NoError, "done");
        let close = c.poll_transmit(now).expect("close frame");
        s.handle_datagram(now, &close);
        assert!(matches!(
            s.state(),
            State::Closed(ConnectionError::PeerClosed(TransportError::NoError))
        ));
        // Draining: silent no matter what arrives.
        assert!(s.poll_transmit(now).is_none());
        for _ in 0..5 {
            s.handle_datagram(now, &close);
            assert!(s.poll_transmit(now).is_none());
        }
        let deadline = s.poll_timeout().expect("drain deadline");
        now = deadline;
        s.on_timeout(now);
        assert!(s.is_drained());
        assert!(s.poll_timeout().is_none());
    }

    #[test]
    fn optimistic_ack_closes_with_protocol_violation() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        // ACK a packet number the client never sent.
        let mut set = AckRanges::new();
        set.insert_range(900, 1000);
        let ack = AckFrame::from_ranges(0, &set, Duration::ZERO).unwrap();
        c.on_frame(now, Space::App, Frame::Ack(ack));
        assert!(matches!(
            c.state(),
            State::Closed(ConnectionError::LocallyClosed(TransportError::ProtocolViolation))
        ));
        let _ = s;
    }

    #[test]
    fn path_challenge_flood_is_capped() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        for i in 0..100u64 {
            c.on_frame(now, Space::App, Frame::PathChallenge(i.to_le_bytes()));
        }
        assert!(c.response_pending.len() <= MAX_PENDING_PATH_RESPONSES);
        assert_eq!(c.path_responses_dropped, 100 - MAX_PENDING_PATH_RESPONSES as u64);
        assert!(!c.is_closed());
        let _ = s;
    }

    #[test]
    fn loss_recovery_retransmits() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"req", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 100);
        let body = vec![0x5au8; 30_000];
        s.stream_send(id, &body, true);
        // Drop every packet in the first flight from the server.
        let mut dropped = 0;
        while let Some(_d) = s.poll_transmit(now) {
            dropped += 1;
        }
        assert!(dropped > 0);
        // Now let timers fire and retransmissions flow.
        let mut received = Vec::new();
        for _ in 0..500 {
            if let Some(t) = s.poll_timeout() {
                if t > now {
                    now = t;
                }
            }
            s.on_timeout(now);
            c.on_timeout(now);
            pump(&mut now, &mut c, &mut s);
            received.extend(c.stream_recv(id, usize::MAX));
            if received.len() == body.len() {
                break;
            }
        }
        assert_eq!(received.len(), body.len(), "retransmission must recover the data");
        assert!(s.stats().probes_sent > 0 || s.stats().packets_lost > 0);
    }

    #[test]
    fn migration_resets_congestion_state() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![0u8; 50_000], true);
        pump(&mut now, &mut c, &mut s);
        let grown = c.cwnd();
        assert!(grown >= crate::cc::INITIAL_WINDOW);
        c.on_migrate(now);
        assert_eq!(c.cwnd(), crate::cc::INITIAL_WINDOW);
        assert_eq!(c.stats().migrations, 1);
        assert!(!c.rtt.has_samples());
        let _ = s;
    }

    #[test]
    fn consecutive_ptos_mark_path_suspect_and_ack_clears_it() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"req", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 100);
        s.stream_send(id, &[0x7fu8; 20_000], true);
        // Blackhole the server→client direction: every flight vanishes.
        let mut fired = 0;
        while fired < 6 && !s.is_suspected() {
            while s.poll_transmit(now).is_some() {}
            let t = s.poll_timeout().unwrap();
            now = t + Duration::from_micros(1);
            s.on_timeout(now);
            fired += 1;
        }
        assert!(s.is_suspected(), "consecutive PTOs must raise suspicion");
        // Let traffic flow again: ack progress revalidates the path.
        pump(&mut now, &mut c, &mut s);
        assert!(!s.is_suspected(), "ack progress must clear suspicion");
    }

    #[test]
    fn corrupted_datagram_dropped_not_crash() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"hello", false);
        let mut d = c.poll_transmit(now).unwrap();
        let n = d.len();
        d[n - 5] ^= 0xff;
        let dropped_before = s.stats().packets_dropped;
        s.handle_datagram(now, &d);
        assert_eq!(s.stats().packets_dropped, dropped_before + 1);
        assert!(!s.is_closed());
    }

    #[test]
    fn reset_token_param_reaches_client_oracle() {
        let now = Instant::ZERO;
        let mut c = Connection::new(Config::client(1), now);
        let mut sc = Config::server(2);
        sc.params.stateless_reset_token = Some([0xd4; 16]);
        let mut s = Connection::new(sc, now);
        let mut t = now;
        pump(&mut t, &mut c, &mut s);
        assert!(c.is_established() && s.is_established());
        assert_eq!(c.reset_token_count(), 1);
        // A server never stores a token for the client (clients send none).
        assert_eq!(s.reset_token_count(), 0);
    }

    #[test]
    fn stateless_reset_closes_client_immediately() {
        let now = Instant::ZERO;
        let mut c = Connection::new(Config::client(1), now);
        let mut sc = Config::server(2);
        let secret = 0x5eed_0001u64;
        sc.params.stateless_reset_token = None; // set below, post-CID
        let mut s = Connection::new(sc, now);
        // Mirror the edge tier: the server knows its routable CID up
        // front and advertises the matching token.
        let scid = s.local_cid();
        let mut sc2 = Config::server(2);
        sc2.params.stateless_reset_token = Some(reset::reset_token(secret, &scid));
        s = Connection::new(sc2, now);
        let mut t = now;
        pump(&mut t, &mut c, &mut s);
        assert!(c.is_established());
        // The server "crashes": a stateless reset arrives instead of data.
        let dg = reset::build_stateless_reset(secret, &scid);
        c.handle_datagram(t, &dg);
        assert!(c.is_closed());
        assert_eq!(c.close_error(), Some(&ConnectionError::Reset));
        // Silent death: a reset endpoint must not answer (§10.3.1).
        assert!(c.poll_transmit(t).is_none());
        // A non-matching reset never fires the oracle.
        let mut c2 = Connection::new(Config::client(3), now);
        let mut s2cfg = Config::server(4);
        s2cfg.params.stateless_reset_token = Some([0x11; 16]);
        let mut s2 = Connection::new(s2cfg, now);
        let mut t2 = now;
        pump(&mut t2, &mut c2, &mut s2);
        let bogus = reset::build_stateless_reset(0xbad, &scid);
        let dropped = c2.stats().packets_dropped;
        c2.handle_datagram(t2, &bogus);
        assert!(!c2.is_closed());
        assert_eq!(c2.stats().packets_dropped, dropped + 1);
    }

    #[test]
    fn duplicate_datagram_ignored() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"abc", true);
        let d = c.poll_transmit(now).unwrap();
        s.handle_datagram(now, &d);
        let received = s.stats().packets_received;
        s.handle_datagram(now, &d);
        assert_eq!(s.stats().packets_received, received);
        // Data not duplicated to the app.
        assert_eq!(s.stream_recv(id, 100), b"abc");
    }

    #[test]
    fn cwnd_limits_inflight() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![0u8; 1_000_000], true);
        // Drain whatever the client will send without acks.
        let mut sent_bytes = 0u64;
        while let Some(d) = c.poll_transmit(now) {
            sent_bytes += d.len() as u64;
        }
        assert!(sent_bytes <= c.cwnd() + 2 * MAX_DATAGRAM_SIZE);
        assert!(c.bytes_in_flight() <= c.cwnd() + MAX_DATAGRAM_SIZE);
        let _ = s;
    }

    #[test]
    fn flow_control_caps_unread_data() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        // Server floods; client never reads → bounded by stream window.
        let huge = vec![1u8; 30_000_000];
        s.stream_send(id, &huge, true);
        for _ in 0..400 {
            pump(&mut now, &mut c, &mut s);
            now += Duration::from_millis(2);
        }
        let buffered = c.streams().get(id).unwrap().recv.readable() as u64;
        let win = TransportParams::default().initial_max_stream_data;
        assert!(buffered <= win, "buffered {buffered} exceeds window {win}");
        assert!(buffered > 0);
    }

    /// Send until `conn` has nothing more, then poll once more at the same
    /// instant: still nothing, and nothing moved. An endpoint multiplexing
    /// many connections relies on this to stop asking a connection that
    /// said `None` until that connection's next input.
    fn assert_none_is_stable(what: &str, conn: &mut Connection, now: Instant) {
        while conn.poll_transmit(now).is_some() {}
        let before = (conn.streams.control.len(), conn.poll_timeout(), conn.stats());
        assert!(conn.poll_transmit(now).is_none(), "{what}: sent again with no input");
        let after = (conn.streams.control.len(), conn.poll_timeout(), conn.stats());
        assert_eq!(before, after, "{what}: a poll that sent nothing changed state");
    }

    #[test]
    fn none_from_poll_transmit_means_nothing_changes_until_the_next_input() {
        // Blocked by the congestion window: far more to send than cwnd,
        // and no ACK comes back.
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![7u8; 1_000_000], true);
        assert_none_is_stable("cwnd", &mut c, now);
        assert!(c.bytes_in_flight() + MAX_DATAGRAM_SIZE > c.cwnd(), "not cwnd-limited");

        // Blocked by connection flow control: the client grants 20 KB in
        // all and never reads, so the server runs out of credit with an
        // open congestion window. It says DATA_BLOCKED once, not per poll.
        // (Limits start at the endpoint's own and are only ever raised, so
        // both sides get the small one.)
        let mut now = Instant::ZERO;
        let (mut client_cfg, mut server_cfg) = (Config::client(1), Config::server(2));
        client_cfg.params.initial_max_data = 20_000;
        server_cfg.params.initial_max_data = 20_000;
        let mut c = Connection::new(client_cfg, now);
        let mut s = Connection::new(server_cfg, now);
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        s.stream_send(id, &vec![1u8; 100_000], true);
        for _ in 0..20 {
            pump(&mut now, &mut c, &mut s);
            now += Duration::from_millis(2);
        }
        let credit = s.streams().conn_send_credit();
        assert!(credit < MAX_DATAGRAM_SIZE, "not flow-control-limited: {credit} B of credit");
        assert!(s.cwnd() > s.bytes_in_flight() + MAX_DATAGRAM_SIZE, "cwnd-limited instead");
        assert_none_is_stable("flow control", &mut s, now);
        assert_eq!(s.streams.control.len(), 0, "DATA_BLOCKED left on the queue");
        assert!(!s.is_closed() && !c.is_closed(), "the limit was overrun: {:?}", c.state());
        // Reading on the other side lifts the limit and the rest arrives.
        let mut got = 0;
        for _ in 0..200 {
            got += c.stream_recv(id, usize::MAX).len();
            pump(&mut now, &mut c, &mut s);
            now += Duration::from_millis(2);
        }
        assert_eq!(got, 100_000, "transfer did not resume after MAX_DATA");

        // Amplification-limited: an unvalidated server that has received
        // too little to be allowed a full-size datagram.
        let now = Instant::ZERO;
        let mut s = Connection::new(Config::server(2), now);
        s.set_address_unvalidated();
        s.handle_datagram(now, &[0x40; 30]);
        assert_none_is_stable("amplification", &mut s, now);
        assert!(!s.is_address_validated() && s.stats().bytes_received == 30);

        // Closing: the CONNECTION_CLOSE went out; no packet arrives to
        // warrant a replay.
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.close(TransportError::NoError, "bye");
        assert_none_is_stable("closing", &mut c, now);
        assert!(c.is_closed() && !c.is_drained());

        // Drained: the closing period ran out and the state was freed.
        let end = c.poll_timeout().expect("drain deadline");
        c.on_timeout(end);
        assert!(c.is_drained());
        assert_none_is_stable("drained", &mut c, end);
    }
}
