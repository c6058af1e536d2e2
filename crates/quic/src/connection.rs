//! Single-path QUIC connection: the sans-I/O state machine combining the
//! handshake, streams, loss recovery, congestion control, and packet
//! protection. This is the **SP baseline** in the paper's experiments and
//! the substrate for the connection-migration (CM) baseline (§7.3).
//!
//! Drive it with [`Connection::handle_datagram`] /
//! [`Connection::poll_transmit`] / [`Connection::poll_timeout`] /
//! [`Connection::on_timeout`], in the smoltcp poll-based idiom.

use crate::ackranges::AckRanges;
use crate::cc::{CcAlgorithm, CongestionController, MAX_DATAGRAM_SIZE};
use crate::cid::{CidManager, ConnectionId};
use crate::crypto::{derive_keys, KeyPair, TAG_LEN};
use crate::error::{ConnectionError, TransportError};
use crate::frame::{AckFrame, Frame};
use crate::handshake::{Handshake, Hello};
use crate::packet::{pn_decode, pn_encode_len, pn_truncate, Header, PacketBuilder, PacketType};
use crate::params::TransportParams;
use crate::recovery::{Recovery, SentPacket, TimeoutOutcome};
use crate::reset;
use crate::rtt::RttEstimator;
use crate::stream::{SendRange, Side, StreamMap};
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

/// Connection lifecycle states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum State {
    /// Waiting for the handshake to complete.
    Handshaking,
    /// Handshake complete; application data flows.
    Established,
    /// Closed (locally or by peer).
    Closed(ConnectionError),
}

/// What a transmitted packet contained (for ack/loss processing).
#[derive(Debug, Clone)]
pub enum SentFrameInfo {
    /// A stream data range (possibly a re-injected duplicate).
    Stream {
        /// Stream ID.
        id: u64,
        /// Byte range sent.
        range: SendRange,
        /// FIN bit carried.
        fin: bool,
    },
    /// Handshake bytes.
    Crypto,
    /// An ACK advertising ranges up to `largest` (for ack-state pruning).
    Ack {
        /// Largest acknowledged packet number in the sent ACK.
        largest: u64,
    },
    /// HANDSHAKE_DONE signal.
    HandshakeDone,
    /// Anything retransmittable-as-is (MAX_DATA etc.).
    Control(Frame),
    /// A PTO probe.
    Ping,
}

/// Per-packet content stored in the recovery tracker.
#[derive(Debug, Clone, Default)]
pub struct PacketContent {
    frames: Vec<SentFrameInfo>,
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

/// Packet number spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    Initial,
    App,
}

/// The single-path QUIC connection.
pub struct Connection {
    cfg: Config,
    state: State,
    handshake: Handshake,
    handshake_sent: bool,
    handshake_done_sent: bool,
    handshake_confirmed: bool,
    /// 1-RTT keys (post-handshake).
    keys: Option<KeyPair>,
    /// Keys for Initial packets (derived from the PSK alone).
    initial_keys: KeyPair,
    pub(crate) cids: CidManager,
    /// CID the peer told us to use as destination.
    remote_cid: ConnectionId,
    /// Our CID (what the peer sends to).
    local_cid: ConnectionId,
    streams: StreamMap,
    init_recovery: Recovery<PacketContent>,
    app_recovery: Recovery<PacketContent>,
    rtt: RttEstimator,
    cc: Box<dyn CongestionController>,
    /// Received packet numbers per space.
    init_recv: AckRanges,
    app_recv: AckRanges,
    /// Ack needed per space.
    init_ack_pending: bool,
    app_ack_pending: bool,
    /// Time of most recent received ack-eliciting packet (for ack delay).
    last_recv_time: Instant,
    /// Last *receipt* — the idle timeout tracks peer liveness, so sends
    /// never refresh it (a sender PTO-probing a dead peer must still
    /// idle out; a live peer's ACKs refresh this constantly).
    last_activity: Instant,
    /// Last keep-alive PING sent (see [`Config::keepalive`]).
    last_keepalive: Instant,
    /// Pending control frames to send (flow control updates etc.).
    control_queue: Vec<Frame>,
    /// Probe requested by PTO.
    probe_pending: bool,
    /// Liveness parity hook (§9): true while consecutive PTOs suggest
    /// the (single) path is blackholed. Single-path QUIC has nowhere to
    /// fail over to, but surfacing the same signal keeps differential
    /// traces comparable with the multipath stack.
    suspected: bool,
    /// PTO probes sent while suspected (reported on revalidation).
    suspect_probes: u32,
    close_frame_pending: Option<(TransportError, String)>,
    /// The CONNECTION_CLOSE we sent, retained for rate-limited replay
    /// while closing (RFC 9000 §10.2.1).
    close_replay: Option<Frame>,
    /// A replay is due (set at power-of-two received-packet counts).
    close_replay_pending: bool,
    /// Packets received since entering the closing state.
    closing_recv_count: u64,
    /// When the closing/draining period ends (3×PTO after entry).
    drain_deadline: Option<Instant>,
    /// Peer initiated the close: drain silently, never reply.
    draining: bool,
    /// The drain period ended and remaining state was freed.
    drained: bool,
    /// PATH_RESPONSEs dropped by the pending-response cap (§10 gauge).
    path_responses_dropped: u64,
    stats: ConnectionStats,
    idle_timeout: Duration,
    /// How many hello flights have gone out (first + retransmissions).
    hello_sends: u32,
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
    /// Bumped whenever a STREAM or RESET_STREAM frame is accepted (see
    /// [`Connection::stream_epoch`]).
    stream_epoch: u64,
    /// The connection-level send limit a DATA_BLOCKED was last sent for.
    data_blocked_at: Option<u64>,
    /// The reset-token oracle (§10.3): tokens the peer told us it would
    /// use to stateless-reset the CIDs we send to, learned from its
    /// transport parameters and NEW_CONNECTION_ID frames. Bounded by
    /// [`MAX_RESET_TOKENS`].
    reset_tokens: Vec<([u8; 16], ConnectionId)>,
    /// The datagram being ingested: copied here once, opened in place, and
    /// the capacity kept for the next one.
    recv_buf: Vec<u8>,
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

/// Cap on stored stateless-reset tokens (§10.3.1 says an endpoint checks
/// tokens for recently used CIDs; a peer cannot grow this without bound).
pub const MAX_RESET_TOKENS: usize = 8;

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("side", &self.cfg.side)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

fn seed_random(seed: u64, salt: u64) -> [u8; 16] {
    let a = ConnectionId::derive(seed, salt).0;
    let b = ConnectionId::derive(seed ^ 0xdead_beef, salt.wrapping_add(1)).0;
    let mut r = [0u8; 16];
    r[..8].copy_from_slice(&a);
    r[8..].copy_from_slice(&b);
    r
}

impl Connection {
    /// Create a connection endpoint.
    pub fn new(cfg: Config, now: Instant) -> Self {
        let is_client = cfg.side == Side::Client;
        let handshake = Handshake::new(
            is_client,
            &cfg.psk,
            seed_random(cfg.seed, 0x48454c4f),
            cfg.params.clone(),
        );
        let initial_keys = derive_keys(&cfg.psk, &[0x11; 16], &[0x22; 16]);
        let mut cids = CidManager::new(cfg.seed);
        let local = cids.issue_local();
        // Until the peer's hello arrives, address packets to a
        // deterministic placeholder derived from the PSK (both sides know
        // it — stands in for the client's random initial DCID).
        let remote_cid = ConnectionId::derive(0x1317, 0);
        let idle_timeout = cfg.params.max_idle_timeout;
        let p = &cfg.params;
        let streams = StreamMap::new(
            cfg.side,
            p.initial_max_data,
            p.initial_max_stream_data,
            // Peer limits are unknown pre-handshake; assume symmetric
            // defaults and correct them when the peer's hello arrives.
            p.initial_max_data,
            p.initial_max_stream_data,
            p.initial_max_streams_bidi,
        );
        let cc = cfg.cc.build();
        Connection {
            handshake,
            handshake_sent: false,
            handshake_done_sent: false,
            handshake_confirmed: false,
            keys: None,
            initial_keys,
            local_cid: local.cid,
            remote_cid,
            cids,
            streams,
            init_recovery: Recovery::new(),
            app_recovery: Recovery::new(),
            rtt: RttEstimator::new(),
            cc,
            init_recv: AckRanges::new(),
            app_recv: AckRanges::new(),
            init_ack_pending: false,
            app_ack_pending: false,
            last_recv_time: now,
            last_activity: now,
            last_keepalive: now,
            control_queue: Vec::new(),
            probe_pending: false,
            suspected: false,
            suspect_probes: 0,
            close_frame_pending: None,
            close_replay: None,
            close_replay_pending: false,
            closing_recv_count: 0,
            drain_deadline: None,
            draining: false,
            drained: false,
            path_responses_dropped: 0,
            stats: ConnectionStats::default(),
            state: State::Handshaking,
            idle_timeout,
            hello_sends: 0,
            address_validated: true,
            token: Vec::new(),
            retry_done: false,
            remote_cid_seq: 0,
            initial_remote_bound: false,
            retired_local: Vec::new(),
            cid_epoch: 0,
            stream_epoch: 0,
            data_blocked_at: None,
            reset_tokens: Vec::new(),
            recv_buf: Vec::new(),
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Attach a trace handle (events are emitted under its source).
    /// Tracing is read-only: it never changes connection behaviour.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Current state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// True once application data can flow.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// True when closed.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, State::Closed(_))
    }

    /// True once the closing/draining period has expired and all
    /// peer-growable state has been freed (§10.2 lifecycle).
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// The error this connection closed with, if closed.
    pub fn close_error(&self) -> Option<&ConnectionError> {
        match &self.state {
            State::Closed(e) => Some(e),
            _ => None,
        }
    }

    /// Largest received-pn range count across spaces (§10 gauge; bounded
    /// by [`crate::ackranges::MAX_ACK_RANGES`]).
    pub fn recv_range_count(&self) -> usize {
        self.init_recv.range_count().max(self.app_recv.range_count())
    }

    /// Received-pn ranges evicted by the cap across spaces (§10 gauge).
    pub fn recv_ranges_evicted(&self) -> u64 {
        self.init_recv.evicted() + self.app_recv.evicted()
    }

    /// Queued control frames (§10 gauge; PATH_RESPONSE entries bounded by
    /// [`MAX_PENDING_PATH_RESPONSES`]).
    pub fn control_queue_len(&self) -> usize {
        self.control_queue.len()
    }

    /// Queued PATH_RESPONSE frames (§10 gauge; bounded by
    /// [`MAX_PENDING_PATH_RESPONSES`]).
    pub fn pending_responses(&self) -> usize {
        self.control_queue.iter().filter(|f| matches!(f, Frame::PathResponse(_))).count()
    }

    /// PATH_RESPONSEs dropped by the pending-response cap (§10 gauge).
    pub fn path_responses_dropped(&self) -> u64 {
        self.path_responses_dropped
    }

    /// Largest out-of-order segment count over open streams (§10 gauge;
    /// bounded by [`crate::stream::MAX_STREAM_SEGMENTS`]).
    pub fn max_stream_segments(&self) -> usize {
        self.streams.iter().map(|s| s.recv.segment_count()).max().unwrap_or(0)
    }

    /// Total buffered receive bytes over open streams (§10 gauge; bounded
    /// by the advertised flow-control windows).
    pub fn buffered_recv_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.recv.buffered_bytes()).sum()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ConnectionStats {
        self.stats
    }

    /// Losses later contradicted by an ACK (reordering, not loss),
    /// summed over both packet-number spaces.
    pub fn spurious_losses(&self) -> u64 {
        self.init_recovery.spurious_losses() + self.app_recovery.spurious_losses()
    }

    /// RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> u64 {
        self.cc.window()
    }

    /// Bytes currently in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.app_recovery.bytes_in_flight() + self.init_recovery.bytes_in_flight()
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
        self.handshake.peer_params()
    }

    /// Open a new bidirectional stream with a scheduling priority.
    pub fn open_stream(&mut self, priority: u8) -> u64 {
        self.streams.open(priority)
    }

    /// Write data on a stream; `fin` marks the end.
    pub fn stream_send(&mut self, id: u64, data: &[u8], fin: bool) {
        // Invariant: `id` came from open_stream/readable_streams on this
        // connection — an application bug, never peer-reachable input.
        let stream = self.streams.get_mut(id).expect("unknown stream");
        if !data.is_empty() {
            stream.send.write(data);
        }
        if fin {
            stream.send.finish();
        }
    }

    /// Read available bytes from a stream.
    pub fn stream_recv(&mut self, id: u64, max: usize) -> Vec<u8> {
        let Some(stream) = self.streams.get_mut(id) else {
            return Vec::new();
        };
        let data = stream.recv.read(max);
        if let Some(new_max) = stream.recv.wants_max_data_update() {
            self.control_queue.push(Frame::MaxStreamData { stream_id: id, max: new_max });
        }
        if let Some(new_max) = self.streams.wants_conn_max_data_update() {
            self.control_queue.push(Frame::MaxData(new_max));
        }
        data
    }

    /// Monotone count of accepted STREAM and RESET_STREAM frames. What
    /// [`Connection::readable_streams`] and [`Connection::stream_recv`]
    /// return changes only when this moves or the application reads, so an
    /// application that has read everything need not look again until it
    /// does.
    pub fn stream_epoch(&self) -> u64 {
        self.stream_epoch
    }

    /// Streams with readable data.
    pub fn readable_streams(&self) -> Vec<u64> {
        self.streams
            .iter()
            .filter(|s| s.recv.readable() > 0 || s.recv.is_complete())
            .map(|s| s.id)
            .collect()
    }

    /// Begin closing the connection. The CONNECTION_CLOSE goes out on
    /// the next [`Connection::poll_transmit`], which also starts the
    /// 3×PTO closing period (§10.2).
    pub fn close(&mut self, error: TransportError, reason: &str) {
        if !self.is_closed() {
            self.close_frame_pending = Some((error, reason.to_string()));
            self.state = State::Closed(ConnectionError::LocallyClosed(error));
        }
    }

    /// Start the closing/draining countdown: 3×PTO from `now` (§10.2).
    fn arm_drain(&mut self, now: Instant) {
        if self.drain_deadline.is_none() {
            let pto = self.rtt.pto(self.cfg.params.max_ack_delay);
            self.drain_deadline = Some(now + pto * 3);
        }
    }

    /// Free peer-growable state once the closing/draining period ends.
    fn free_state(&mut self) {
        self.drained = true;
        self.close_replay = None;
        self.close_replay_pending = false;
        self.control_queue = Vec::new();
        self.recv_buf = Vec::new();
        let _ = self.init_recovery.drain_all();
        let _ = self.app_recovery.drain_all();
    }

    /// Connection migration (the CM baseline, §7.3): reset congestion
    /// state and RTT as RFC 9000 §9.4 requires after moving to a new path.
    pub fn on_migrate(&mut self, now: Instant) {
        self.cc.reset(now);
        self.rtt = RttEstimator::new();
        // The backoff accumulated on the old path says nothing about the
        // new one; probing resumes at the base PTO.
        self.app_recovery.reset_pto_count();
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
        self.control_queue.push(Frame::NewConnectionId(issued));
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

    /// Supply a token to echo in Initial packets (clients that learned
    /// one out of band; a Retry installs it automatically).
    pub fn set_token(&mut self, token: Vec<u8>) {
        self.token = token;
    }

    /// True once a Retry has been honoured (§17.2.5 allows at most one).
    pub fn retry_seen(&self) -> bool {
        self.retry_done
    }

    // ------------------------------------------------------------------
    // Stateless reset (§10.3)
    // ------------------------------------------------------------------

    /// Record a reset token the peer associated with `cid`. Bounded at
    /// [`MAX_RESET_TOKENS`]: the oldest token is dropped first — recent
    /// CIDs are the ones in use, so they are the ones worth matching.
    fn remember_reset_token(&mut self, token: [u8; 16], cid: ConnectionId) {
        if self.reset_tokens.iter().any(|(t, _)| *t == token) {
            return;
        }
        if self.reset_tokens.len() >= MAX_RESET_TOKENS {
            self.reset_tokens.remove(0);
        }
        self.reset_tokens.push((token, cid));
    }

    /// Number of reset tokens currently held by the oracle (tests).
    pub fn reset_token_count(&self) -> usize {
        self.reset_tokens.len()
    }

    /// Offer an undecryptable datagram to the reset oracle (§10.3.1): if
    /// its trailing 16 bytes match, under a constant-time-shaped compare,
    /// a token the peer registered for a CID we send to, the peer has
    /// provably lost this connection's state. The connection closes as
    /// [`ConnectionError::Reset`] immediately — no closing period, no
    /// close frame (the peer has nothing to process it with) — instead of
    /// idling into PTO/idle-timeout exhaustion. Returns whether it fired.
    pub fn probe_stateless_reset(&mut self, now: Instant, datagram: &[u8]) -> bool {
        if self.is_closed() || !reset::plausible_reset(datagram) {
            return false;
        }
        let hit = self.reset_tokens.iter().any(|(token, _)| reset::token_matches(token, datagram));
        if !hit {
            return false;
        }
        self.state = State::Closed(ConnectionError::Reset);
        self.draining = true;
        self.free_state();
        self.tracer.emit(now, Event::StatelessReset { path: 0 });
        true
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Ingest one datagram.
    pub fn handle_datagram(&mut self, now: Instant, datagram: &[u8]) {
        self.stats.bytes_received += datagram.len() as u64;
        if self.is_closed() {
            // §10.2: a closing endpoint answers further packets with a
            // rate-limited CONNECTION_CLOSE replay (here: at power-of-two
            // received-packet counts); a draining endpoint stays silent.
            if !self.draining && !self.drained && self.close_frame_pending.is_none() {
                self.closing_recv_count += 1;
                if self.closing_recv_count.is_power_of_two() {
                    self.close_replay_pending = true;
                }
            }
            return;
        }
        let Ok((header, payload_off)) = Header::decode(datagram) else {
            if !self.probe_stateless_reset(now, datagram) {
                self.stats.packets_dropped += 1;
            }
            return;
        };
        if header.ty == PacketType::Retry {
            // Retry carries no packet number and no AEAD payload; it is
            // consumed entirely by the header parser.
            self.on_retry(now, header);
            return;
        }
        let space = match header.ty {
            PacketType::Initial | PacketType::Handshake => Space::Initial,
            PacketType::OneRtt | PacketType::Retry => Space::App,
        };
        let largest = match space {
            Space::Initial => self.init_recv.largest(),
            Space::App => self.app_recv.largest(),
        };
        let pn = pn_decode(header.pn, header.pn_len, largest);
        self.recv_buf.clear();
        self.recv_buf.extend_from_slice(datagram);
        let (aad, sealed) = self.recv_buf.split_at_mut(payload_off);
        // Select decryption keys by space and direction.
        let recv_is_client_data = self.cfg.side == Side::Server;
        let key = match space {
            Space::Initial => {
                if recv_is_client_data {
                    self.initial_keys.client.clone()
                } else {
                    self.initial_keys.server.clone()
                }
            }
            Space::App => match &self.keys {
                Some(kp) => {
                    if recv_is_client_data {
                        kp.client.clone()
                    } else {
                        kp.server.clone()
                    }
                }
                None => {
                    if !self.probe_stateless_reset(now, datagram) {
                        self.stats.packets_dropped += 1;
                    }
                    return;
                }
            },
        };
        let plain_len = match key.open_in_place(0, pn, aad, sealed) {
            Ok(plain) => plain.len(),
            Err(_) => {
                // A stateless reset is designed to be indistinguishable
                // from a short-header packet we cannot decrypt (§10.3) —
                // this AEAD failure is exactly where one would surface.
                if !self.probe_stateless_reset(now, datagram) {
                    self.stats.packets_dropped += 1;
                }
                return;
            }
        };
        // Duplicate suppression.
        let fresh = match space {
            Space::Initial => self.init_recv.insert(pn),
            Space::App => self.app_recv.insert(pn),
        };
        if !fresh {
            return;
        }
        self.stats.packets_received += 1;
        self.last_activity = now;
        if header.ty.is_long() {
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
        let plain = &self.recv_buf[payload_off..payload_off + plain_len];
        let frames = match Frame::decode_all(plain) {
            Ok(f) => f,
            Err(_) => {
                self.close(TransportError::FrameEncodingError, "bad frame");
                return;
            }
        };
        let mut ack_eliciting = false;
        for frame in frames {
            if frame.is_ack_eliciting() {
                ack_eliciting = true;
            }
            self.on_frame(now, space, frame);
            if self.is_closed() && self.close_frame_pending.is_none() {
                return;
            }
        }
        if ack_eliciting {
            match space {
                Space::Initial => self.init_ack_pending = true,
                Space::App => self.app_ack_pending = true,
            }
            self.last_recv_time = now;
        }
    }

    /// Process a Retry packet (RFC 9000 §17.2.5): install the token,
    /// adopt the server's SCID, and re-fire the hello. Clients honour at
    /// most one Retry per connection; servers drop them.
    fn on_retry(&mut self, now: Instant, header: Header) {
        if self.cfg.side != Side::Client
            || self.retry_done
            || self.handshake.is_complete()
            || header.token.is_empty()
        {
            self.stats.packets_dropped += 1;
            return;
        }
        self.retry_done = true;
        self.token = header.token;
        self.remote_cid = header.scid;
        // Re-send the hello, now carrying the token.
        self.handshake_sent = false;
        self.last_activity = now;
    }

    fn on_frame(&mut self, now: Instant, space: Space, frame: Frame) {
        match frame {
            Frame::Padding(_) | Frame::Ping => {}
            Frame::Crypto { data, .. } => {
                if self.handshake.is_complete() {
                    return; // retransmitted hello
                }
                let Ok(hello) = Hello::decode(&data) else {
                    self.close(TransportError::TransportParameterError, "bad hello");
                    return;
                };
                match self.handshake.on_peer_hello(hello) {
                    Ok(kp) => self.on_handshake_complete(now, kp),
                    Err(_) => self.close(TransportError::TransportParameterError, "hello rejected"),
                }
            }
            Frame::Ack(ack) => self.on_ack(now, space, ack),
            Frame::AckMp(_) => {
                // Multipath frames on a single-path connection are a
                // protocol violation (negotiation never happened here).
                self.close(TransportError::ProtocolViolation, "ACK_MP on single path");
            }
            Frame::Stream { stream_id, offset, data, fin } => {
                self.stream_epoch += 1;
                let prev_high;
                {
                    let stream = match self.streams.get_or_open_peer(stream_id) {
                        Ok(s) => s,
                        // Propagate the map's verdict: STREAM_LIMIT_ERROR
                        // for exhaustion, STREAM_STATE_ERROR for frames on
                        // streams we never opened.
                        Err(e) => {
                            self.close(e, "bad stream");
                            return;
                        }
                    };
                    prev_high = stream.recv.highest_recv();
                    if let Err(e) = stream.recv.on_data(offset, &data, fin) {
                        self.close(e, "stream data");
                        return;
                    }
                }
                let new_high =
                    self.streams.get(stream_id).map(|s| s.recv.highest_recv()).unwrap_or(prev_high);
                if new_high > prev_high {
                    if let Err(e) = self.streams.on_conn_data_received(new_high - prev_high) {
                        self.close(e, "conn flow control");
                    }
                }
            }
            Frame::MaxData(v) => self.streams.on_max_data(v),
            Frame::MaxStreamData { stream_id, max } => {
                if let Some(s) = self.streams.get_mut(stream_id) {
                    s.send.set_max_data(max);
                }
            }
            Frame::MaxStreams(_) => {}
            Frame::DataBlocked(_) | Frame::StreamDataBlocked { .. } => {}
            Frame::ResetStream { stream_id, final_size, .. } => {
                self.stream_epoch += 1;
                if let Ok(s) = self.streams.get_or_open_peer(stream_id) {
                    let _ = s.recv.on_reset(final_size);
                }
            }
            Frame::StopSending { stream_id, .. } => {
                if let Some(s) = self.streams.get_mut(stream_id) {
                    let final_size = s.send.reset();
                    self.control_queue.push(Frame::ResetStream {
                        stream_id,
                        error_code: 0,
                        final_size,
                    });
                }
            }
            Frame::NewConnectionId(ic) => {
                if let Some(tok) = ic.reset_token {
                    self.remember_reset_token(tok, ic.cid);
                }
                let retired = self.cids.store_remote(ic);
                for &seq in &retired {
                    self.control_queue.push(Frame::RetireConnectionId { seq });
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
                    self.control_queue.push(Frame::NewConnectionId(issued));
                }
                // Retiring an already-retired seq is a harmless duplicate.
            }
            Frame::PathChallenge(data) => {
                // §10: cap queued responses so a challenge flood cannot
                // grow the control queue without bound. Drop the oldest
                // pending response — an honest peer retransmits any
                // challenge it still cares about.
                let pending = self
                    .control_queue
                    .iter()
                    .filter(|f| matches!(f, Frame::PathResponse(_)))
                    .count();
                if pending >= MAX_PENDING_PATH_RESPONSES {
                    if let Some(idx) =
                        self.control_queue.iter().position(|f| matches!(f, Frame::PathResponse(_)))
                    {
                        self.control_queue.remove(idx);
                        self.path_responses_dropped += 1;
                    }
                }
                self.control_queue.push(Frame::PathResponse(data));
            }
            Frame::PathResponse(_) => {}
            Frame::HandshakeDone => {
                self.handshake_confirmed = true;
            }
            Frame::ConnectionClose { error_code, .. } => {
                // §10.2: a peer-initiated close moves us to draining —
                // stay silent and expire 3×PTO from now.
                self.state = State::Closed(ConnectionError::PeerClosed(TransportError::from_code(
                    error_code,
                )));
                self.close_frame_pending = None;
                self.draining = true;
                self.arm_drain(now);
                self.tracer.emit(now, Event::ConnectionClosed { error_code, locally: false });
            }
            Frame::PathStatus { .. } | Frame::QoeControlSignals(_) => {
                self.close(TransportError::ProtocolViolation, "MP frame on single path");
            }
        }
        let _ = now;
    }

    fn on_handshake_complete(&mut self, now: Instant, kp: KeyPair) {
        self.tracer.emit(now, Event::HandshakeComplete { multipath: false });
        self.keys = Some(kp);
        // Completing the handshake proves the peer can receive at its
        // address (§8.1): lift the amplification limit.
        self.address_validated = true;
        // Correct the peer-advertised limits now that we have them.
        if let Some(p) = self.handshake.peer_params() {
            self.streams.on_max_data(p.initial_max_data);
            // §10.3.2: the server's handshake-CID reset token arrives in
            // its transport parameters; bind it to the CID we send to.
            if self.cfg.side == Side::Client {
                if let Some(tok) = p.stateless_reset_token {
                    self.remember_reset_token(tok, self.remote_cid);
                }
            }
        }
        self.state = State::Established;
        if self.cfg.side == Side::Server {
            // Confirm to the client.
            self.handshake_done_sent = false;
        } else {
            self.handshake_confirmed = true;
        }
    }

    fn on_ack(&mut self, now: Instant, space: Space, ack: AckFrame) {
        // Protocol police (§10): an ACK covering a packet number we never
        // sent is the optimistic-ACK attack — close, never feed it to
        // recovery or congestion control.
        {
            let recovery = match space {
                Space::Initial => &self.init_recovery,
                Space::App => &self.app_recovery,
            };
            if recovery.validate_ack(ack.ranges_ascending().map(|r| (r.start, r.end))).is_err() {
                self.close(TransportError::ProtocolViolation, "optimistic ack");
                return;
            }
        }
        let recovery = match space {
            Space::Initial => &mut self.init_recovery,
            Space::App => &mut self.app_recovery,
        };
        let outcome = recovery.on_ack_received(
            now,
            ack.ranges_ascending().map(|r| (r.start, r.end)),
            &mut self.rtt,
            ack.ack_delay,
        );
        if let Some(sample) = outcome.rtt_sample {
            self.tracer.emit(
                now,
                Event::RttUpdate {
                    path: 0,
                    latest_us: sample.as_micros(),
                    smoothed_us: self.rtt.smoothed().as_micros(),
                },
            );
        }
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
            let frames = p.content.frames.clone();
            self.on_packet_acked_content(&frames);
        }
        if cc_touched {
            self.tracer.emit(
                now,
                Event::CwndUpdate {
                    path: 0,
                    cwnd: self.cc.window(),
                    bytes_in_flight: self.bytes_in_flight(),
                },
            );
        }
        if !outcome.lost.is_empty() {
            self.on_packets_lost(now, &outcome.lost);
        }
    }

    fn on_packet_acked_content(&mut self, frames: &[SentFrameInfo]) {
        for info in frames {
            match info {
                SentFrameInfo::Stream { id, range, fin } => {
                    if let Some(s) = self.streams.get_mut(*id) {
                        s.send.on_range_acked(*range, *fin);
                    }
                }
                SentFrameInfo::Ack { largest } => {
                    // Prune acknowledged ack state (both spaces share the
                    // pattern; ACKs live in their own space).
                    if *largest > 2 {
                        self.app_recv.forget_below(largest.saturating_sub(512));
                    }
                }
                SentFrameInfo::HandshakeDone => {
                    self.handshake_done_sent = true;
                    self.handshake_confirmed = true;
                }
                _ => {}
            }
        }
    }

    fn on_packets_lost(&mut self, now: Instant, lost: &[SentPacket<PacketContent>]) {
        self.stats.packets_lost += lost.len() as u64;
        let mut newest_lost_sent: Option<Instant> = None;
        for p in lost {
            self.tracer.emit(now, Event::PacketLost { path: 0, pn: p.pn, bytes: p.size as u32 });
            if p.in_flight {
                newest_lost_sent =
                    Some(newest_lost_sent.map_or(p.time_sent, |t| t.max(p.time_sent)));
            }
            let frames = p.content.frames.clone();
            for info in frames {
                match info {
                    SentFrameInfo::Stream { id, range, fin } => {
                        if let Some(s) = self.streams.get_mut(id) {
                            s.send.on_range_lost(range, fin);
                            self.stats.stream_bytes_retransmitted += range.len();
                        }
                    }
                    SentFrameInfo::Crypto => {
                        self.handshake_sent = false; // resend hello
                    }
                    SentFrameInfo::HandshakeDone => {
                        self.handshake_done_sent = false;
                    }
                    SentFrameInfo::Control(f) => self.control_queue.push(f),
                    SentFrameInfo::Ack { .. } | SentFrameInfo::Ping => {}
                }
            }
        }
        if let Some(t) = newest_lost_sent {
            self.cc.on_congestion_event(now, t);
            self.tracer.emit(
                now,
                Event::CwndUpdate {
                    path: 0,
                    cwnd: self.cc.window(),
                    bytes_in_flight: self.bytes_in_flight(),
                },
            );
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
        // Closing (§10.2): send the CONNECTION_CLOSE, start the 3×PTO
        // closing period, and keep the frame for rate-limited replay.
        if let Some((err, reason)) = self.close_frame_pending.take() {
            let frame =
                Frame::ConnectionClose { error_code: err.code(), reason: reason.into_bytes() };
            self.close_replay = Some(frame.clone());
            self.arm_drain(now);
            self.tracer
                .emit(now, Event::ConnectionClosed { error_code: err.code(), locally: true });
            let space = if self.keys.is_some() { Space::App } else { Space::Initial };
            return Some(self.build_packet(now, space, &[frame], false));
        }
        if self.is_closed() {
            // Replay the close if incoming packets warranted one; a
            // draining or drained endpoint stays silent.
            if self.close_replay_pending && !self.drained {
                self.close_replay_pending = false;
                if let Some(frame) = self.close_replay.clone() {
                    let space = if self.keys.is_some() { Space::App } else { Space::Initial };
                    return Some(self.build_packet(now, space, &[frame], false));
                }
            }
            return None;
        }
        // Handshake transmission. A server stays quiet until it has the
        // client's hello.
        if !self.handshake_sent && (self.cfg.side == Side::Client || self.handshake.is_complete()) {
            self.handshake_sent = true;
            if self.hello_sends > 0 {
                self.stats.handshake_retransmits += 1;
            }
            self.tracer.emit(now, Event::HandshakeSent { retransmit: self.hello_sends > 0 });
            self.hello_sends += 1;
            let hello = self.handshake.local_hello().encode();
            let frame = Frame::Crypto { offset: 0, data: hello };
            return Some(self.build_packet(now, Space::Initial, &[frame], true));
        }
        // Server HANDSHAKE_DONE.
        if self.cfg.side == Side::Server && self.is_established() && !self.handshake_done_sent {
            self.handshake_done_sent = true;
            return Some(self.build_packet(now, Space::App, &[Frame::HandshakeDone], true));
        }
        // Pending ACKs (always allowed; not congestion controlled).
        if self.init_ack_pending {
            self.init_ack_pending = false;
            if let Some(ack) = AckFrame::from_ranges(0, &self.init_recv, now - self.last_recv_time)
            {
                return Some(self.build_packet(now, Space::Initial, &[Frame::Ack(ack)], false));
            }
        }
        if self.app_ack_pending && self.keys.is_some() {
            self.app_ack_pending = false;
            if let Some(ack) = AckFrame::from_ranges(0, &self.app_recv, now - self.last_recv_time) {
                return Some(self.build_packet(now, Space::App, &[Frame::Ack(ack)], false));
            }
        }
        if !self.is_established() {
            return None;
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
        let mut infos = Vec::new();
        let mut remaining = MAX_DATAGRAM_SIZE as usize - 64; // header+tag slack
        while let Some(f) = self.control_queue.pop() {
            let Some(len) = packet.push_if_fits(&f, remaining) else {
                self.control_queue.push(f);
                break;
            };
            remaining -= len;
            infos.push(SentFrameInfo::Control(f));
        }
        // Stream data in (priority, id) order.
        for id in self.streams.sendable_ids() {
            if remaining < 32 {
                break;
            }
            let conn_credit = self.streams.conn_send_credit();
            // Invariant: sendable_ids() only yields ids present in the
            // map and nothing removes streams between the two calls.
            let stream = self.streams.get_mut(id).expect("sendable id");
            // Reserve frame header overhead ~ 1+8+8+4.
            let max_payload = remaining.saturating_sub(24);
            if max_payload == 0 {
                break;
            }
            let before_largest = stream.send.largest_sent();
            let Some((range, fin)) = stream.send.take_range(max_payload) else {
                // A data-less FIN is only legal once every byte has been
                // sent; a flow-control-blocked stream must wait.
                if stream.send.fin_pending() && stream.send.data_fully_sent() {
                    let offset = stream.send.len();
                    Frame::encode_stream(packet.frames(), id, offset, &[], true);
                    infos.push(SentFrameInfo::Stream {
                        id,
                        range: SendRange { start: offset, end: offset },
                        fin: true,
                    });
                    stream.send.mark_fin_sent();
                }
                continue;
            };
            // Connection flow control applies only to never-sent offsets.
            let new_bytes = range.end.saturating_sub(before_largest.max(range.start));
            if new_bytes > conn_credit {
                // Put the range back and stop: blocked at connection
                // level. Say so once per limit (RFC 9000 §19.12), in this
                // very packet: a frame left on the queue would make the
                // next poll send with no input in between.
                stream.send.untake(range, before_largest);
                let limit = self.streams.send_max_data;
                let blocked = Frame::DataBlocked(limit);
                if self.data_blocked_at != Some(limit)
                    && packet.push_if_fits(&blocked, remaining).is_some()
                {
                    self.data_blocked_at = Some(limit);
                    infos.push(SentFrameInfo::Control(blocked));
                }
                break;
            }
            // The payload goes from the stream's buffer straight into the
            // datagram.
            Frame::encode_stream(packet.frames(), id, range.start, stream.send.data(range), fin);
            if new_bytes > 0 {
                self.streams.consume_conn_credit(new_bytes);
                self.stats.stream_bytes_sent += new_bytes;
            }
            remaining = remaining.saturating_sub(range.len() as usize + 24);
            infos.push(SentFrameInfo::Stream { id, range, fin });
        }
        if infos.is_empty() {
            return None;
        }
        Some(self.finish_packet(now, Space::App, packet, infos, true))
    }

    /// A packet of control frames, each described to recovery by its kind.
    fn build_packet(
        &mut self,
        now: Instant,
        space: Space,
        frames: &[Frame],
        ack_eliciting: bool,
    ) -> Vec<u8> {
        let infos = frames
            .iter()
            .map(|f| match f {
                Frame::Crypto { .. } => SentFrameInfo::Crypto,
                Frame::Ack(a) => SentFrameInfo::Ack { largest: a.largest },
                Frame::HandshakeDone => SentFrameInfo::HandshakeDone,
                Frame::Ping => SentFrameInfo::Ping,
                other => SentFrameInfo::Control(other.clone()),
            })
            .collect();
        let mut packet = PacketBuilder::new(self.next_header(space));
        for f in frames {
            f.encode(packet.frames());
        }
        self.finish_packet(now, space, packet, infos, ack_eliciting)
    }

    /// The header of the next packet to be sent in `space`.
    fn next_header(&self, space: Space) -> Header {
        let (recovery, ty) = match space {
            Space::Initial => (&self.init_recovery, PacketType::Initial),
            Space::App => (&self.app_recovery, PacketType::OneRtt),
        };
        let pn = recovery.peek_pn();
        let pn_len = pn_encode_len(pn, recovery.largest_acked());
        // Clients echo their address-validation token on every Initial.
        let token = if ty == PacketType::Initial && self.cfg.side == Side::Client {
            self.token.clone()
        } else {
            Vec::new()
        };
        Header {
            ty,
            dcid: self.remote_cid,
            scid: self.local_cid,
            pn: pn_truncate(pn, pn_len),
            pn_len,
            token,
        }
    }

    /// Seal `packet` (started from [`Connection::next_header`] of `space`)
    /// in place and account for it as sent.
    fn finish_packet(
        &mut self,
        now: Instant,
        space: Space,
        packet: PacketBuilder,
        infos: Vec<SentFrameInfo>,
        ack_eliciting: bool,
    ) -> Vec<u8> {
        let (recovery, keys) = match space {
            Space::Initial => (&mut self.init_recovery, &self.initial_keys),
            // Invariant: every App-space send site is gated on
            // is_established()/keys.is_some(); no peer input reaches
            // here before the handshake completes.
            Space::App => (&mut self.app_recovery, self.keys.as_ref().expect("1-RTT keys")),
        };
        let key = if self.cfg.side == Side::Client { &keys.client } else { &keys.server };
        let pn = recovery.peek_pn();
        let datagram = packet.seal(key, 0, pn);
        let size = datagram.len() as u64;
        recovery.on_packet_sent(now, size, ack_eliciting, PacketContent { frames: infos });
        self.tracer.emit(now, Event::PacketSent { path: 0, pn, bytes: size as u32, ack_eliciting });
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += size;
        debug_assert!(datagram.len() <= MAX_DATAGRAM_SIZE as usize + TAG_LEN + 40);
        datagram
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest time at which [`Connection::on_timeout`] must be called.
    pub fn poll_timeout(&self) -> Option<Instant> {
        if self.is_closed() {
            // Closing/draining: the only timer left is the drain
            // deadline (armed when the close frame goes out or the
            // peer's close arrives).
            return if self.drained { None } else { self.drain_deadline };
        }
        let mad = self.cfg.params.max_ack_delay;
        let mut t = self.last_activity + self.idle_timeout; // idle
        if let Some(k) = self.cfg.keepalive {
            if matches!(self.state, State::Established) {
                t = t.min(self.last_activity.max(self.last_keepalive) + k);
            }
        }
        if let Some(lt) = self.init_recovery.next_timeout(&self.rtt, mad) {
            t = t.min(lt);
        }
        if let Some(lt) = self.app_recovery.next_timeout(&self.rtt, mad) {
            t = t.min(lt);
        }
        Some(t)
    }

    /// Handle a timer expiry.
    pub fn on_timeout(&mut self, now: Instant) {
        if self.is_closed() {
            // End of the closing/draining period: free remaining state.
            if let Some(d) = self.drain_deadline {
                if now >= d && !self.drained {
                    self.free_state();
                }
            }
            return;
        }
        if now >= self.last_activity + self.idle_timeout {
            // Idle timeout (§10.1): discard state silently — there is no
            // close frame to replay, so drain immediately.
            self.state = State::Closed(ConnectionError::TimedOut);
            self.tracer.emit(now, Event::ConnectionClosed { error_code: 0, locally: true });
            self.free_state();
            return;
        }
        if let Some(k) = self.cfg.keepalive {
            if matches!(self.state, State::Established)
                && now >= self.last_activity.max(self.last_keepalive) + k
            {
                self.probe_pending = true;
                self.last_keepalive = now;
            }
        }
        let mad = self.cfg.params.max_ack_delay;
        for space in [Space::Initial, Space::App] {
            let recovery = match space {
                Space::Initial => &mut self.init_recovery,
                Space::App => &mut self.app_recovery,
            };
            let Some(deadline) = recovery.next_timeout(&self.rtt, mad) else {
                continue;
            };
            if now < deadline {
                continue;
            }
            match recovery.on_timeout(now, &self.rtt) {
                TimeoutOutcome::Lost(lost) => self.on_packets_lost(now, &lost),
                TimeoutOutcome::SendProbe => {
                    if space == Space::Initial {
                        self.handshake_sent = false; // re-fire the hello
                    } else {
                        self.probe_pending = true;
                        if self.suspected {
                            self.suspect_probes += 1;
                        } else if self.app_recovery.pto_count()
                            >= crate::recovery::SUSPECT_AFTER_PTOS
                        {
                            self.suspected = true;
                            self.suspect_probes = 0;
                            let silent = self
                                .app_recovery
                                .oldest_unacked_time()
                                .map_or(Duration::ZERO, |t| now.saturating_duration_since(t));
                            self.tracer.emit(
                                now,
                                Event::PathSuspected {
                                    path: 0,
                                    pto_count: self.app_recovery.pto_count(),
                                    silent_us: silent.as_micros(),
                                },
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(c.handshake_confirmed);
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
        let pn = c.app_recovery.peek_pn();
        let pn_len = pn_encode_len(pn, c.app_recovery.largest_acked());
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

        let key = c.keys.as_ref().unwrap().client.clone();
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
        assert!(c.poll_timeout().expect("PTO armed") < c.last_activity + c.idle_timeout);
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
        assert!(c.control_queue_len() <= MAX_PENDING_PATH_RESPONSES);
        assert_eq!(c.path_responses_dropped(), 100 - MAX_PENDING_PATH_RESPONSES as u64);
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
        assert!(!c.rtt().has_samples());
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
        let before = (conn.control_queue_len(), conn.poll_timeout(), conn.stats());
        assert!(conn.poll_transmit(now).is_none(), "{what}: sent again with no input");
        let after = (conn.control_queue_len(), conn.poll_timeout(), conn.stats());
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
        assert_eq!(s.control_queue_len(), 0, "DATA_BLOCKED left on the queue");
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
