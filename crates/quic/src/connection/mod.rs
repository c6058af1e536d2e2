//! The QUIC connection: one engine for single-path QUIC and for its
//! multipath extension (DESIGN §16).
//!
//! [`Connection`] owns the connection-wide parts — [`Lifecycle`], [`Keys`]
//! (handshake, [`Keys::open_datagram`], [`Keys::finish_packet`]), the
//! [`ResetOracle`], the Initial [`PnSpace`], the stream table — and a
//! `Vec` of [`Path`]s, each a packet-number space with its own RTT
//! estimate, congestion controller, destination CID and liveness state.
//! Single-path QUIC (the **SP baseline** of the paper's experiments, and
//! the substrate of the connection-migration baseline, §7.3) is the
//! one-path configuration: [`Connection::handle_datagram`] and
//! [`Connection::poll_transmit`] are shorthands for path 0 of the
//! path-addressed [`Connection::handle_datagram_on`] /
//! [`Connection::poll_transmit_on`]. Multipath is negotiated in the
//! handshake; what the paper adds on top of it — which path carries what,
//! re-injection, the QoE gate — is `xlink_core::MpConnection`, which drives
//! this engine's data step through [`Connection::poll_control`],
//! [`Connection::send_new_data`] and [`Connection::send_copies`].
//! Timers are [`Connection::poll_timeout`] / [`Connection::on_timeout`],
//! in the smoltcp poll-based idiom.

mod keys;
mod lifecycle;
pub mod liveness;
mod path;
mod reinject;
mod space;

pub use keys::{hello_random, placeholder_dcid, Keys, Opened, ResetOracle, MAX_RESET_TOKENS};
pub use lifecycle::{Expiry, Lifecycle, State};
pub use liveness::LivenessConfig;
pub use path::{AckPathPolicy, Path, PathState};
pub use reinject::{Rank, ReinjectCandidate, ReinjectIndex, ReinjectKey, ReinjectLedger};
pub use space::{PnSpace, SentFrame};

use crate::ackranges::MAX_ACK_RANGES;
use crate::cc::{Cubic, MAX_DATAGRAM_SIZE};
use crate::cid::{CidManager, ConnectionId};
use crate::crypto::TAG_LEN;
use crate::error::{ConnectionError, TransportError};
use crate::frame::{AckFrame, Frame, QoeSignal};
use crate::packet::{Header, PacketBuilder, PacketType};
use crate::params::TransportParams;
use crate::recovery::{SentPacket, TimeoutOutcome, SUSPECT_AFTER_PTOS};
use crate::reset;
use crate::rtt::RttEstimator;
use crate::stream::{SendRange, Side, StreamMap, MAX_STREAM_SEGMENTS};
use xlink_clock::{Duration, Instant};
use xlink_obs::{Event, Tracer};

/// Configuration for one endpoint.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client or server.
    pub side: Side,
    /// Pre-shared secret standing in for the TLS certificate chain.
    pub psk: Vec<u8>,
    /// Our transport parameters; `enable_multipath` offers the extension.
    pub params: TransportParams,
    /// Seed for CID derivation and handshake randoms.
    pub seed: u64,
    /// Send a keep-alive PING on a path after this long with nothing
    /// received on it (local behavior, not a transport parameter): an idle
    /// backup path stays usable and measurable for failover, and a pure
    /// receiver — which has nothing in flight when its peer dies, no PTO
    /// to fire, no ACK to send — keeps an elicitable packet on the wire, so
    /// a dead peer's silence (or its stateless reset) surfaces within about
    /// one interval instead of at the idle timeout.
    pub keepalive: Option<Duration>,
    /// Network paths available (path ids `0..paths`); 1 is single-path QUIC.
    pub paths: usize,
    /// The path the handshake runs on.
    pub primary: usize,
    /// ACK_MP return-path policy.
    pub ack_policy: AckPathPolicy,
    /// Blackhole detection / automatic failover tunables (§9); the machine
    /// runs once multipath is negotiated.
    pub liveness: LivenessConfig,
    /// When set, CIDs advertised for extra paths carry RFC 9000 §10.3
    /// stateless-reset tokens derived from this secret, giving the peer
    /// a per-path death oracle (crash detection without PTO exhaustion).
    pub reset_secret: Option<u64>,
}

impl Config {
    /// Reasonable defaults for a single-path client.
    pub fn client(seed: u64) -> Self {
        Config {
            side: Side::Client,
            psk: b"xlink-demo-psk".to_vec(),
            params: TransportParams::default(),
            seed,
            keepalive: None,
            paths: 1,
            primary: 0,
            ack_policy: AckPathPolicy::OriginalPath,
            liveness: LivenessConfig::default(),
            reset_secret: None,
        }
    }

    /// Reasonable defaults for a single-path server.
    pub fn server(seed: u64) -> Self {
        Config { side: Side::Server, ..Config::client(seed) }
    }
}

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Datagrams transmitted, across all paths.
    pub packets_sent: u64,
    /// Datagrams received and successfully decrypted.
    pub packets_received: u64,
    /// Packets declared lost.
    pub packets_lost: u64,
    /// PTO probe and keep-alive PINGs sent.
    pub probes_sent: u64,
    /// Total bytes transmitted (wire level).
    pub bytes_sent: u64,
    /// Total bytes received (wire level).
    pub bytes_received: u64,
    /// Stream payload bytes transmitted the first time.
    pub stream_bytes_sent: u64,
    /// Stream payload bytes retransmitted after loss.
    pub stream_bytes_retransmitted: u64,
    /// Re-injected (proactively duplicated) payload bytes — the paper's
    /// cost metric numerator.
    pub reinjected_bytes: u64,
    /// Number of re-injected ranges.
    pub reinjections: u64,
    /// Datagrams dropped due to failed decryption or parsing.
    pub packets_dropped: u64,
    /// Connection-migration resets performed.
    pub migrations: u64,
    /// Handshake flights re-sent after loss or timeout.
    pub handshake_retransmits: u64,
    /// Paths marked Suspect by liveness detection (§9).
    pub path_suspects: u64,
    /// Suspect paths escalated to Probation (declared blackholed).
    pub path_probations: u64,
    /// Paths that rejoined service after suspicion or probation.
    pub path_revalidations: u64,
    /// Keep-alive PINGs requested to refresh quiet paths.
    pub keepalives_sent: u64,
    /// Stateless resets recognised.
    pub stateless_resets: u64,
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
    /// Queued PATH_RESPONSEs (cap: `MAX_PENDING_PATH_RESPONSES` per path).
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

/// The connection.
pub struct Connection {
    cfg: Config,
    life: Lifecycle,
    keys: Keys,
    pub(crate) cids: CidManager,
    /// Our CID (what the peer sends to; the SCID of our long headers).
    local_cid: ConnectionId,
    /// The Initial packet-number space: the handshake's, on the primary
    /// path's RTT estimate and congestion window.
    initial: PnSpace,
    /// Paths indexed by path id (== CID sequence number once multipath is
    /// negotiated).
    paths: Vec<Path>,
    streams: StreamMap,
    /// True once both sides advertised enable_multipath.
    multipath: bool,
    /// CIDs for the extra paths went out.
    cids_advertised: bool,
    /// Latest QoE snapshot from the local video player (client side).
    local_qoe: Option<QoeSignal>,
    /// Latest QoE snapshot received from the peer (server side).
    peer_qoe: Option<QoeSignal>,
    /// PATH_RESPONSEs dropped by the per-path pending cap (§10 gauge).
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
    /// The peer's handshake SCID has been recorded in the CID manager.
    initial_remote_bound: bool,
    /// Local CID values retired at the peer's request — drained by the
    /// edge router to unmap stale routing entries.
    retired_local: Vec<ConnectionId>,
    /// Bumped whenever the set of local CIDs changes (see
    /// [`Connection::cid_epoch`]).
    cid_epoch: u64,
    /// §10.3 oracle: the reset tokens the peer attached to the CIDs we send
    /// to, learned from its transport parameters and NEW_CONNECTION_ID
    /// frames, each for the path whose destination CID it covers.
    oracle: ResetOracle,
    /// Which stream frames in flight may be copied onto which other path,
    /// if a policy re-injects ([`Connection::track_reinjection`]).
    reinject: Option<ReinjectIndex>,
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

/// Cap on PATH_RESPONSEs pending per path (§10 adversarial bound). A
/// challenge flood would otherwise grow the queue without limit; past the
/// cap the oldest pending response is dropped — an honest peer retransmits
/// any challenge it still cares about.
pub const MAX_PENDING_PATH_RESPONSES: usize = 8;

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("side", &self.cfg.side)
            .field("state", self.life.state())
            .field("paths", &self.paths.len())
            .finish_non_exhaustive()
    }
}

impl Connection {
    /// Create a connection endpoint over `cfg.paths` network paths; the
    /// client starts the handshake on `cfg.primary`.
    pub fn new(cfg: Config, now: Instant) -> Self {
        debug_assert!(cfg.primary < cfg.paths, "the primary path is one of the paths");
        let keys = Keys::new(cfg.side, &cfg.psk, &cfg.params, hello_random(cfg.seed));
        let mut cids = CidManager::new(cfg.seed);
        let local_cid = cids.issue_local().cid;
        // The primary path is implicitly validated by the handshake. Until
        // the peer's hello arrives every path addresses the placeholder.
        let state = |i| if i == cfg.primary { PathState::Active } else { PathState::Validating };
        let paths =
            (0..cfg.paths).map(|i| Path::new(i, state(i), placeholder_dcid(), now)).collect();
        Connection {
            life: Lifecycle::new(now, cfg.params.max_idle_timeout),
            keys,
            cids,
            local_cid,
            initial: PnSpace::default(),
            paths,
            streams: StreamMap::for_endpoint(cfg.side, &cfg.params),
            multipath: false,
            cids_advertised: false,
            local_qoe: None,
            peer_qoe: None,
            path_responses_dropped: 0,
            stats: ConnectionStats::default(),
            address_validated: true,
            token: Vec::new(),
            retry_done: false,
            initial_remote_bound: false,
            retired_local: Vec::new(),
            cid_epoch: 0,
            oracle: ResetOracle::default(),
            reinject: None,
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

    /// True once multipath was negotiated (vs single-path QUIC).
    pub fn multipath_negotiated(&self) -> bool {
        self.multipath
    }

    /// Per-path view.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Snapshot of the capped peer-growable state (§10 gauges): ranges and
    /// pinned PATH_RESPONSEs are capped per space and path, so the largest
    /// counts.
    pub fn bounded_state(&self) -> BoundedState {
        let paths = self.paths.iter();
        let spaces = || paths.clone().map(|p| &p.space).chain([&self.initial]);
        BoundedState {
            recv_ranges: spaces().map(|s| s.recv.range_count()).max().unwrap_or(0),
            recv_ranges_evicted: spaces().map(|s| s.recv.evicted()).sum(),
            pending_path_responses: paths.map(|p| p.response_pending.len()).max().unwrap_or(0),
            path_responses_dropped: self.path_responses_dropped,
            stream_segments: self.streams.max_segments(),
            buffered_recv_bytes: self.streams.buffered_recv_bytes(),
        }
    }

    /// Received packet numbers of the Initial space, then of each path's
    /// space, as ascending inclusive ranges (the final ACK state).
    pub fn recv_pn_ranges(&self) -> Vec<Vec<(u64, u64)>> {
        let ranges = |s: &PnSpace| s.recv.iter().map(|r| (r.start, r.end)).collect();
        [&self.initial].into_iter().chain(self.paths.iter().map(|p| &p.space)).map(ranges).collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ConnectionStats {
        self.stats
    }

    /// Losses later contradicted by an ACK (reordering, not loss), summed
    /// over all packet-number spaces.
    pub fn spurious_losses(&self) -> u64 {
        let paths = self.paths.iter().map(|p| &p.space);
        paths.chain([&self.initial]).map(|s| s.recovery.spurious_losses()).sum()
    }

    /// Bytes in flight that count against `path`'s congestion window: its
    /// own, and on the primary path the handshake's.
    pub fn in_flight(&self, path: usize) -> u64 {
        let handshake =
            if path == self.cfg.primary { self.initial.recovery.bytes_in_flight() } else { 0 };
        self.paths[path].space.recovery.bytes_in_flight() + handshake
    }

    /// Spare congestion budget of `path`.
    pub fn budget(&self, path: usize) -> u64 {
        self.paths[path].cc.window().saturating_sub(self.in_flight(path))
    }

    /// Access the stream table.
    pub fn streams(&self) -> &StreamMap {
        &self.streams
    }

    /// Mutable access to the stream table.
    pub fn streams_mut(&mut self) -> &mut StreamMap {
        &mut self.streams
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

    /// Latest peer QoE feedback (server side).
    pub fn peer_qoe(&self) -> Option<&QoeSignal> {
        self.peer_qoe.as_ref()
    }

    /// Feed the latest player QoE snapshot (client side). It rides on the
    /// next ACK_MP (paper Fig. 16; §6: "the current XLINK implementation
    /// sends QoE feedback as an additional field in ACK_MP frame").
    /// Feedback is the extension's: until it is negotiated there is no
    /// frame to carry a snapshot, and it is dropped. Returns whether the
    /// snapshot was taken and differs from the last one.
    pub fn set_qoe(&mut self, q: QoeSignal) -> bool {
        self.multipath && self.local_qoe.replace(q) != Some(q)
    }

    /// Begin closing the connection. The CONNECTION_CLOSE goes out on
    /// the next [`Connection::poll_transmit`], which also starts the
    /// 3×PTO closing period (§10.2).
    pub fn close(&mut self, error: TransportError, reason: &str) {
        self.life.close(error, reason);
    }

    /// The PTO the closing/draining countdown runs on: the slowest path's,
    /// so the peer's own timers have surely expired.
    fn drain_pto(&self) -> Duration {
        let mad = self.cfg.params.max_ack_delay;
        self.paths.iter().map(|p| p.rtt.pto(mad)).max().unwrap_or(Duration::from_millis(999))
    }

    /// Free peer-growable state once the connection's life is over (a
    /// closed connection sends nothing but its CONNECTION_CLOSE and runs no
    /// timer but the drain deadline, so until then the state just sits).
    fn free_state(&mut self) {
        self.streams.control = Vec::new();
        self.reinject = None;
        self.keys.release();
        let _ = self.initial.recovery.drain_all();
        for p in &mut self.paths {
            p.response_pending = Vec::new();
            let _ = p.space.recovery.drain_all();
        }
    }

    /// Connection migration (the CM baseline, §7.3): the one path now runs
    /// over another network path, so congestion state and RTT start over as
    /// RFC 9000 §9.4 requires, and a PING goes out on it — the peer learns
    /// where to send from a packet arriving there (§9.2), and a migrating
    /// receiver may have nothing else to say.
    pub fn on_migrate(&mut self) {
        let p = &mut self.paths[self.cfg.primary];
        p.cc = Cubic::new();
        p.rtt = RttEstimator::new();
        // The backoff accumulated on the old path says nothing about the
        // new one; probing resumes at the base PTO.
        p.space.recovery.reset_pto_count();
        (p.suspected, p.suspect_probes) = (false, 0);
        p.probe_pending = true;
        self.stats.migrations += 1;
    }

    // ------------------------------------------------------------------
    // Edge-tier hooks: routable CIDs, migration, address validation
    // ------------------------------------------------------------------

    /// The CID the peer currently routes to us with.
    pub fn local_cid(&self) -> ConnectionId {
        self.local_cid
    }

    /// The CID we currently use as destination on the primary path.
    pub fn remote_cid(&self) -> ConnectionId {
        self.paths[self.cfg.primary].dcid
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

    /// True once a Retry has been honoured (§17.2.5 allows at most one).
    pub fn retry_seen(&self) -> bool {
        self.retry_done
    }

    /// Offer a datagram that reached the application some other way (one
    /// no live connection claimed) to the primary path's reset oracle
    /// (§10.3.1). Returns whether it fired.
    pub fn probe_stateless_reset(&mut self, now: Instant, datagram: &[u8]) -> bool {
        let path = self.cfg.primary;
        let hit = !self.is_closed() && self.oracle.matches(path, datagram);
        if hit {
            self.on_stateless_reset(now, path);
        }
        hit
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Ingest one datagram of a single-path connection.
    pub fn handle_datagram(&mut self, now: Instant, datagram: &[u8]) {
        self.handle_datagram_on(now, 0, datagram);
    }

    /// Ingest a datagram that arrived on network path `path`.
    pub fn handle_datagram_on(&mut self, now: Instant, path: usize, datagram: &[u8]) {
        if path >= self.paths.len() {
            self.stats.packets_dropped += 1;
            return;
        }
        self.stats.bytes_received += datagram.len() as u64;
        if self.life.absorb_if_closed() {
            return;
        }
        // Long headers number in the Initial space, short ones in the
        // arrival path's.
        let long = datagram.first().is_some_and(|b| b & 0x80 != 0);
        let space = if long { &mut self.initial } else { &mut self.paths[path].space };
        let (header, frames) = match self.keys.open_datagram(datagram, space, path, &self.oracle) {
            Opened::Packet { header, frames } => (header, frames),
            Opened::Retry(header) => return self.on_retry(now, header),
            Opened::Duplicate => return,
            Opened::Undecryptable { reset: true } => return self.on_stateless_reset(now, path),
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
        self.paths[path].last_heard = now;
        if long {
            // Learn the peer's real CID from its SCID (both sides): the
            // primary path's destination, and the implicit seq-0 peer CID,
            // so Retire Prior To bookkeeping covers it during shard drain.
            let primary = &mut self.paths[self.cfg.primary];
            primary.dcid = header.scid;
            if !std::mem::replace(&mut self.initial_remote_bound, true) {
                primary.dcid_seq = 0;
                self.cids.bind_initial_remote(header.scid);
            }
        }
        // Receiving anything valid on a validating path activates it for
        // the server side (the client waits for PATH_RESPONSE).
        if self.paths[path].state == PathState::Validating && self.cfg.side == Side::Server {
            self.paths[path].state = PathState::Active;
            self.trace_path_state(now, path, PathState::Validating, PathState::Active);
        }
        let Some(frames) = frames else {
            return self.close(TransportError::FrameEncodingError, "bad frame");
        };
        let mut ack_eliciting = false;
        for frame in frames {
            ack_eliciting |= frame.is_ack_eliciting();
            self.on_frame(now, path, long, frame);
            if self.life.is_silenced() {
                return;
            }
        }
        if ack_eliciting {
            let space = if long { &mut self.initial } else { &mut self.paths[path].space };
            space.ack_pending = true;
            self.paths[path].last_recv_time = now;
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
        self.paths[self.cfg.primary].dcid = header.scid;
        // Re-send the hello, now carrying the token.
        self.keys.hello_sent = false;
        self.life.touch(now);
    }

    /// One frame of a packet that arrived on `arrival_path`, in the Initial
    /// space (`initial`) or the path's own.
    fn on_frame(&mut self, now: Instant, arrival_path: usize, initial: bool, frame: Frame) {
        match frame {
            Frame::Crypto { data, .. } => match self.keys.on_peer_hello(&data) {
                Ok(true) => self.on_handshake_complete(now),
                // A retransmitted hello: the Initial space's own PTO and
                // loss detection re-fire ours if it was lost.
                Ok(false) => {}
                Err((e, why)) => self.close(e, why),
            },
            // Plain ACK: the Initial space's, or (before multipath is
            // negotiated, or without it) the primary path's.
            Frame::Ack(ack) => self.on_ack(now, self.cfg.primary, initial, ack),
            // The extension's frames on a connection that did not negotiate
            // it are a protocol violation.
            Frame::AckMp(_) | Frame::PathStatus { .. } | Frame::QoeControlSignals(_)
                if !self.multipath =>
            {
                let why = "multipath frame without negotiation";
                self.close(TransportError::ProtocolViolation, why);
            }
            Frame::AckMp(ack) => {
                let space = ack.path_id as usize;
                if space >= self.paths.len() {
                    return self.close(TransportError::MultipathError, "unknown path in ACK_MP");
                }
                if let Some(q) = ack.qoe {
                    self.on_peer_qoe(now, q);
                }
                self.on_ack(now, space, false, ack);
            }
            Frame::QoeControlSignals(q) => self.on_peer_qoe(now, q),
            Frame::PathStatus { path_id, seq: _, status } => {
                self.on_path_status(now, path_id as usize, status)
            }
            Frame::NewConnectionId(ic) => {
                // Acknowledge any Retire Prior To the frame carries so the
                // issuer can free the old routing entries.
                let retired = self.cids.store_remote(ic);
                for &seq in &retired {
                    self.streams.control.push(Frame::RetireConnectionId { seq });
                }
                // With multipath the CID of sequence number n belongs to
                // path n; without, every CID is the one path's.
                let path = if self.multipath { ic.seq as usize } else { self.cfg.primary };
                if let Some(p) = self.paths.get_mut(path) {
                    if self.multipath {
                        (p.dcid, p.dcid_seq) = (ic.cid, ic.seq);
                    }
                    // Arm the death oracle with the token bound to the CID.
                    if let Some(tok) = ic.reset_token {
                        self.oracle.remember(path, tok);
                    }
                }
                // A destination CID retired out from under a path (shard
                // drain): migrate onto the lowest-sequence unused peer CID.
                for p in self.paths.iter_mut().filter(|p| retired.contains(&p.dcid_seq)) {
                    if let Some(next) = self.cids.take_unused_remote() {
                        (p.dcid, p.dcid_seq) = (next.cid, next.seq);
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
            // A challenge validates the path it travelled, so the reply is
            // pinned to the arrival path (RFC 9000 §8.2.2).
            Frame::PathChallenge(data) => self.pin_response(arrival_path, data),
            Frame::PathResponse(data) => self.on_path_response(now, data),
            Frame::ConnectionClose { error_code, .. } => {
                // §10.2: a peer-initiated close moves us to draining —
                // stay silent and expire 3×PTO from now.
                self.life.on_peer_close(now, error_code, self.drain_pto(), &self.tracer);
            }
            // Streams and flow control; PADDING, PING, HANDSHAKE_DONE and
            // the rest need nothing done.
            other => {
                // A STOP_SENDING resets the stream: what was queued again no
                // longer is.
                let reset = match other {
                    Frame::StopSending { stream_id, .. } => Some(stream_id),
                    _ => None,
                };
                if let Err((e, why)) = self.streams.on_frame(other) {
                    self.close(e, why);
                }
                if let (Some(id), Some(index)) = (reset, &mut self.reinject) {
                    index.refresh_stream(&self.streams, id);
                }
            }
        }
    }

    fn on_peer_qoe(&mut self, now: Instant, q: QoeSignal) {
        self.peer_qoe = Some(q);
        let QoeSignal { cached_frames, cached_bytes, bps, fps } = q;
        let event = Event::QoeSignal { sent: false, cached_frames, cached_bytes, bps, fps };
        self.tracer.emit(now, event);
    }

    fn on_handshake_complete(&mut self, now: Instant) {
        self.multipath = self.keys.handshake().multipath_negotiated();
        self.tracer.emit(now, Event::HandshakeComplete { multipath: self.multipath });
        // Completing the handshake proves the peer can receive at its
        // address (§8.1): lift the amplification limit.
        self.address_validated = true;
        // Correct the peer-advertised limits now that we have them.
        if let Some(p) = self.keys.handshake().peer_params() {
            self.streams.on_max_data(p.initial_max_data);
            // §10.3.2: the server's handshake-CID reset token arrives in
            // its transport parameters; it covers the CID we send to.
            if let (Side::Client, Some(tok)) = (self.cfg.side, p.stateless_reset_token) {
                self.oracle.remember(self.cfg.primary, tok);
            }
        }
        self.life.establish();
    }

    /// An ACK of path `path`'s packets — or, `initial`, of the Initial
    /// space's, which run on that (the primary) path's RTT and window.
    fn on_ack(&mut self, now: Instant, path: usize, initial: bool, ack: AckFrame) {
        let p = &mut self.paths[path];
        let space = if initial { &mut self.initial } else { &mut p.space };
        let Ok(outcome) = space.on_ack(now, &ack, &mut p.rtt) else {
            return self.close(TransportError::ProtocolViolation, "optimistic ack");
        };
        if let Some(sample) = outcome.rtt_sample {
            let (latest_us, smoothed_us) = (sample.as_micros(), p.rtt.smoothed().as_micros());
            self.tracer.emit(now, Event::RttUpdate { path: path as u8, latest_us, smoothed_us });
        }
        if !outcome.acked.is_empty() {
            // Ack progress contradicts the blackhole hypothesis.
            self.on_ack_progress(now, path);
        }
        let mut cc_touched = false;
        for pkt in &outcome.acked {
            if pkt.ack_eliciting {
                let p = &mut self.paths[path];
                p.cc.on_ack(now, pkt.time_sent, pkt.size, p.rtt.smoothed());
                cc_touched = true;
            }
            self.tracer.emit(now, Event::PacketAcked { path: path as u8, pn: pkt.pn });
            for (nth, sent) in pkt.content.iter().enumerate() {
                match sent {
                    // Prune acknowledged ack state: once the peer has seen
                    // an ACK, what lies 512 below its largest need not be
                    // reported again (an ACK of no more than three packets
                    // prunes nothing; any other forgets packet number 0).
                    SentFrame::Ack { space: acked, largest } if *largest > 2 => {
                        if let Some(p) = self.paths.get_mut(*acked as usize) {
                            p.space.recv.forget_below(largest.saturating_sub(512));
                        }
                    }
                    SentFrame::HandshakeDone => self.keys.done_sent = true,
                    SentFrame::Stream { id, range, fin, .. } => {
                        let forgot = self.streams.on_sent_frame_acked(sent);
                        self.on_range_gone((path, pkt.pn, nth), *id, *range, *fin, forgot);
                    }
                    _ => {}
                }
            }
        }
        if cc_touched {
            self.trace_cwnd(now, path);
        }
        if !outcome.lost.is_empty() {
            self.on_packets_lost(now, path, outcome.lost);
        }
    }

    fn trace_cwnd(&self, now: Instant, path: usize) {
        let (cwnd, bytes_in_flight) = (self.paths[path].cc.window(), self.in_flight(path));
        self.tracer.emit(now, Event::CwndUpdate { path: path as u8, cwnd, bytes_in_flight });
    }

    fn on_packets_lost(
        &mut self,
        now: Instant,
        path: usize,
        lost: Vec<SentPacket<Vec<SentFrame>>>,
    ) {
        self.stats.packets_lost += lost.len() as u64;
        let mut newest_lost_sent: Option<Instant> = None;
        for pkt in lost {
            let (pn, bytes) = (pkt.pn, pkt.size as u32);
            self.tracer.emit(now, Event::PacketLost { path: path as u8, pn, bytes });
            if pkt.in_flight {
                newest_lost_sent =
                    Some(newest_lost_sent.map_or(pkt.time_sent, |t| t.max(pkt.time_sent)));
            }
            for (nth, sent) in pkt.content.into_iter().enumerate() {
                match sent {
                    SentFrame::Crypto => self.keys.hello_sent = false, // resend hello
                    SentFrame::HandshakeDone => self.keys.done_sent = false,
                    SentFrame::Challenge(data) => {
                        // Re-arm the challenge for this path.
                        if self.paths[path].state == PathState::Validating {
                            self.paths[path].challenge = Some(data);
                            self.streams.control.push(Frame::PathChallenge(data));
                        }
                    }
                    // Stay pinned: the reply is only meaningful on the path
                    // the challenge arrived on. Goes through the §10 cap
                    // like a fresh challenge.
                    SentFrame::Response(data) => self.pin_response(path, data),
                    frame @ SentFrame::Stream { id, range, fin, .. } => {
                        self.stats.stream_bytes_retransmitted +=
                            self.streams.on_sent_frame_lost(frame);
                        self.on_range_gone((path, pn, nth), id, range, fin, false);
                    }
                    other => drop(self.streams.on_sent_frame_lost(other)),
                }
            }
        }
        if let Some(t) = newest_lost_sent {
            self.paths[path].cc.on_congestion_event(now, t);
            self.trace_cwnd(now, path);
        }
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Produce the next datagram of a single-path connection, if any.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<Vec<u8>> {
        self.poll_transmit_on(now).map(|(_, datagram)| datagram)
    }

    /// Produce the next (network path, datagram) to transmit: what
    /// [`Connection::poll_control`] owes, then new data on the primary
    /// path. (Spreading data over the paths is a policy's job: see
    /// `xlink_core::MpConnection`.)
    pub fn poll_transmit_on(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        let tx = self.poll_control(now);
        if tx.is_some() {
            return tx;
        }
        self.send_new_data(now, self.cfg.primary)
    }

    /// Everything a connection sends before application data: the
    /// CONNECTION_CLOSE and its replays, the handshake, CID advertisement
    /// and path validation, ACKs, PATH_RESPONSEs, revalidation probes, PTO
    /// probes and keep-alives.
    pub fn poll_control(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        let primary = self.cfg.primary;
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
            // Closing (§10.2): the CONNECTION_CLOSE — once sent, the 3×PTO
            // drain timer runs, the connection sending nothing but this
            // frame from here on — then its rate-limited replays on
            // continued peer traffic.
            let (frame, _) = self.life.poll_close(now, self.drain_pto(), &self.tracer)?;
            let initial = self.keys.one_rtt().is_none();
            return Some(self.build_packet(now, primary, initial, &[frame], vec![], false));
        }
        // 1. Handshake on the primary path.
        if let Some((hello, retransmit)) = self.keys.next_hello(now, &self.tracer) {
            self.stats.handshake_retransmits += u64::from(retransmit);
            return Some(self.build_packet(now, primary, true, &[hello], vec![], true));
        }
        if !self.is_established() {
            // Still ack initial packets.
            return self.poll_ack(now);
        }
        // 2. Server HANDSHAKE_DONE.
        if self.cfg.side == Side::Server && !self.keys.done_sent {
            self.keys.done_sent = true;
            let done = [Frame::HandshakeDone];
            return Some(self.build_packet(now, primary, false, &done, vec![], true));
        }
        if self.multipath {
            // 3. Advertise CIDs for the extra paths (both sides, once).
            if !self.cids_advertised {
                self.cids_advertised = true;
                for _ in 1..self.paths.len() {
                    let mut issued = self.cids.issue_local();
                    // Attach a §10.3 token so the peer can recognise this
                    // endpoint losing the path's state (derivable again
                    // from the secret — nothing extra is stored here).
                    if let Some(secret) = self.cfg.reset_secret {
                        issued.reset_token = Some(reset::reset_token(secret, &issued.cid));
                    }
                    self.streams.control.push(Frame::NewConnectionId(issued));
                }
            }
            // 4. Client: validate each extra path the peer has provided a
            // CID for, with a PATH_CHALLENGE it then waits on.
            let handshake_cid = self.paths[primary].dcid;
            let unchallenged = |p: &&Path| {
                p.state == PathState::Validating && p.challenge.is_none() && p.dcid != handshake_cid
            };
            let extra = self.paths.iter().filter(|p| p.id != primary).find(unchallenged);
            if let (Side::Client, Some(i)) = (self.cfg.side, extra.map(|p| p.id)) {
                return Some(self.send_challenge(now, i, 0xc4a1, i as u64, true));
            }
        }
        // 5. ACKs.
        if let Some(tx) = self.poll_ack(now) {
            return Some(tx);
        }
        // 6. PATH_RESPONSEs, pinned to the path the challenge arrived on
        // (RFC 9000 §8.2.2); a response also flows on Suspect/Probation
        // paths — answering there is how the peer revalidates them.
        let owing = |p: &&Path| !p.response_pending.is_empty() && p.state != PathState::Abandoned;
        if let Some(i) = self.paths.iter().find(owing).map(|p| p.id) {
            let pending = std::mem::take(&mut self.paths[i].response_pending);
            let frames: Vec<Frame> = pending.iter().map(|&d| Frame::PathResponse(d)).collect();
            let content = pending.into_iter().map(SentFrame::Response).collect();
            return Some(self.build_packet(now, i, false, &frames, content, true));
        }
        // 7. Probation revalidation probes (exponential backoff; §9).
        if self.liveness_active() {
            let lv = self.cfg.liveness;
            for i in 0..self.paths.len() {
                let p = &mut self.paths[i];
                let Some(pr) = p.probation.as_mut().filter(|pr| pr.next_probe_at <= now) else {
                    continue;
                };
                if p.state != PathState::Probation {
                    continue;
                }
                let nonce = ((i as u64) << 32) | u64::from(pr.probes_sent);
                pr.on_probe_sent(now, &lv);
                // Not ack-eliciting for *our* recovery: loss of the probe
                // is handled by the backoff schedule itself, not by PTO
                // (which would fight the quieting backoff).
                return Some(self.send_challenge(now, i, 0x11fe, nonce, false));
            }
        }
        // 8. PTO probes and keep-alive PINGs.
        for i in 0..self.paths.len() {
            let p = &mut self.paths[i];
            if p.probe_pending && p.state != PathState::Abandoned {
                p.probe_pending = false;
                self.stats.probes_sent += 1;
                return Some(self.build_packet(now, i, false, &[Frame::Ping], vec![], true));
            }
        }
        None
    }

    /// Pending-ACK transmission: the Initial space's in an Initial packet
    /// on the primary path, then the paths', honoring the ACK path policy.
    fn poll_ack(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        let primary = self.cfg.primary;
        let delay = now - self.paths[primary].last_recv_time;
        if let Some(ack) = self.initial.take_ack(0, delay) {
            let sent = vec![SentFrame::Ack { space: primary as u64, largest: ack.largest }];
            return Some(self.build_packet(now, primary, true, &[Frame::Ack(ack)], sent, false));
        }
        let space = self.paths.iter().position(|p| p.space.ack_pending)?;
        let delay = now - self.paths[space].last_recv_time;
        let mut ack = self.paths[space].space.take_ack(space as u64, delay)?;
        let sent = vec![SentFrame::Ack { space: space as u64, largest: ack.largest }];
        // Without multipath (or before it is negotiated): a plain ACK.
        let (frame, send_path) = if !self.multipath {
            ack.path_id = 0;
            (Frame::Ack(ack), space)
        } else {
            // Attach the freshest QoE snapshot (client side).
            ack.qoe = self.local_qoe;
            let send_path = match self.cfg.ack_policy {
                AckPathPolicy::OriginalPath => space,
                AckPathPolicy::FastestPath => self.fastest_active_path().unwrap_or(space),
            };
            (Frame::AckMp(ack), send_path)
        };
        Some(self.build_packet(now, send_path, false, &[frame], sent, false))
    }

    /// A PATH_CHALLENGE on `path`, its payload derived from the seed, and
    /// now the one the path waits on.
    fn send_challenge(
        &mut self,
        now: Instant,
        path: usize,
        salt: u64,
        nonce: u64,
        ack_eliciting: bool,
    ) -> (usize, Vec<u8>) {
        let data = ConnectionId::derive(self.cfg.seed ^ salt, nonce).0;
        self.paths[path].challenge = Some(data);
        let (frames, sent) = ([Frame::PathChallenge(data)], vec![SentFrame::Challenge(data)]);
        self.build_packet(now, path, false, &frames, sent, ack_eliciting)
    }

    /// A datagram of queued control frames and fresh stream data on `path`,
    /// if the connection is established, the path's congestion window has
    /// half a datagram of room and there is anything to send.
    pub fn send_new_data(&mut self, now: Instant, path: usize) -> Option<(usize, Vec<u8>)> {
        if !self.is_established() || self.budget(path) < MAX_DATAGRAM_SIZE / 2 {
            return None;
        }
        let mut packet = PacketBuilder::new(self.next_header(path, false));
        let (content, first_time) = self.streams.pack(&mut packet);
        self.stats.stream_bytes_sent += first_time;
        if content.is_empty() {
            return None;
        }
        Some(self.finish_packet(now, path, packet, content, true))
    }

    /// A datagram of copies, on `path`, of stream ranges in flight on other
    /// paths (multipath re-injection): each range goes out again as it
    /// stands in the stream's send buffer, marked so that its loss is not
    /// retransmitted — the original, or another copy, still covers it. The
    /// caller sizes the ranges to the path's budget.
    pub fn send_copies(
        &mut self,
        now: Instant,
        path: usize,
        copies: &[ReinjectCandidate],
    ) -> Option<(usize, Vec<u8>)> {
        if !self.is_established() {
            return None;
        }
        let mut packet = PacketBuilder::new(self.next_header(path, false));
        let mut content = Vec::with_capacity(copies.len());
        for &ReinjectCandidate { stream_id: id, range, fin, .. } in copies {
            let Some(stream) = self.streams.get(id) else { continue };
            Frame::encode_stream(packet.frames(), id, range.start, stream.send.data(range), fin);
            content.push(SentFrame::Stream { id, range, fin, reinjected: true });
            self.stats.reinjected_bytes += range.len();
            self.stats.reinjections += 1;
        }
        if content.is_empty() {
            return None;
        }
        Some(self.finish_packet(now, path, packet, content, true))
    }

    /// One congestion event on `path` that no loss caused: a policy's
    /// penalisation of the path that holds up a stream's head (MPTCP's
    /// opportunistic retransmission, `xlink_core::ReinjectMode`).
    pub fn penalize_path(&mut self, now: Instant, path: usize) {
        self.paths[path].cc.on_congestion_event(now, now);
        self.trace_cwnd(now, path);
    }

    /// Keep the index of re-injection candidates, for a policy that queues
    /// ranges by `rank(stream priority, frame priority)`. Before any stream
    /// data is sent.
    pub fn track_reinjection(&mut self, rank: fn(u8, u8) -> Rank) {
        self.reinject = Some(ReinjectIndex::new(self.paths.len(), rank));
    }

    /// Stream frames in flight on other paths that may be copied onto
    /// `target`, most urgent first (within a rank by stream and offset):
    /// none unless [`Connection::track_reinjection`] was called. As of the
    /// last [`Connection::expire_copies`].
    pub fn reinject_candidates(
        &self,
        target: usize,
    ) -> impl Iterator<Item = ReinjectCandidate> + '_ {
        self.reinject.iter().flat_map(move |index| index.candidates(target))
    }

    /// Copies sent [`reinject::COPY_LIFETIME`] before `now` no longer keep
    /// their ranges from being copied onto the same path again.
    pub fn expire_copies(&mut self, now: Instant) {
        if let Some(index) = &mut self.reinject {
            index.expire_copies(&self.streams, now);
        }
    }

    /// The `nth` frame of packet `pn` of `path` — `range` of stream `id` —
    /// was acknowledged, lost or drained, and the stream has been told
    /// (`forgot`: and lost track of older acknowledgements over it).
    fn on_range_gone(
        &mut self,
        (path, pn, nth): (usize, u64, usize),
        id: u64,
        range: SendRange,
        fin: bool,
        forgot: bool,
    ) {
        let Some(index) = &mut self.reinject else { return };
        index.on_gone(&self.streams, (path, pn, nth), id, range, fin);
        if forgot {
            index.refresh_stream(&self.streams, id);
        }
    }

    /// A packet of owned frames, as the `(path, datagram)` to transmit; empty
    /// `content` describes each frame to recovery by its kind.
    fn build_packet(
        &mut self,
        now: Instant,
        path: usize,
        initial: bool,
        frames: &[Frame],
        mut content: Vec<SentFrame>,
        ack_eliciting: bool,
    ) -> (usize, Vec<u8>) {
        if content.is_empty() {
            content = frames.iter().map(SentFrame::describing).collect();
        }
        let mut packet = PacketBuilder::new(self.next_header(path, initial));
        for f in frames {
            f.encode(packet.frames());
        }
        self.finish_packet(now, path, packet, content, ack_eliciting)
    }

    /// The header of the next packet to be sent on `path`, in the Initial
    /// space (`initial`) or the path's own.
    fn next_header(&self, path: usize, initial: bool) -> Header {
        let p = &self.paths[path];
        if !initial {
            return p.space.next_header(PacketType::OneRtt, p.dcid, self.local_cid, Vec::new());
        }
        // Clients echo their address-validation token on every Initial.
        let token = if self.cfg.side == Side::Client { self.token.clone() } else { Vec::new() };
        self.initial.next_header(PacketType::Initial, p.dcid, self.local_cid, token)
    }

    /// Seal `packet` (started from [`Connection::next_header`] of the same
    /// `path`) and account for it as sent.
    fn finish_packet(
        &mut self,
        now: Instant,
        path: usize,
        packet: PacketBuilder,
        content: Vec<SentFrame>,
        ack_eliciting: bool,
    ) -> (usize, Vec<u8>) {
        let p = &mut self.paths[path];
        let space = if packet.is_long() { &mut self.initial } else { &mut p.space };
        if let Some(index) = &mut self.reinject {
            let pn = space.recovery.peek_pn();
            for (nth, frame) in content.iter().enumerate() {
                index.on_sent(&self.streams, now, (path, pn, nth), frame);
            }
        }
        let datagram =
            self.keys.finish_packet(now, space, path, packet, content, ack_eliciting, &self.tracer);
        let size = datagram.len() as u64;
        p.bytes_sent += size;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += size;
        debug_assert!(size <= MAX_DATAGRAM_SIZE + TAG_LEN as u64 + 40);
        (path, datagram)
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
        if let Some(lt) = self.initial.recovery.next_timeout(&self.paths[self.cfg.primary].rtt, mad)
        {
            t = t.min(lt);
        }
        let keepalive = self.cfg.keepalive.filter(|_| self.is_established());
        let liveness = self.liveness_active().then_some(&self.cfg.liveness);
        for p in &self.paths {
            if let Some(lt) = p.space.recovery.next_timeout(&p.rtt, mad) {
                t = t.min(lt);
            }
            if let Some(k) = keepalive.filter(|_| p.hears_keepalives()) {
                t = t.min(p.last_heard.max(p.last_keepalive) + k);
            }
            match (liveness, p.state) {
                // Ack-silence suspicion deadline.
                (Some(lv), PathState::Active | PathState::Standby)
                    if p.space.recovery.has_ack_eliciting_in_flight() =>
                {
                    t = t.min(p.silent_since() + lv.ack_silence);
                }
                (Some(_), PathState::Probation) => {
                    if let Some(pr) = &p.probation {
                        t = t.min(pr.next_probe_at);
                    }
                }
                _ => {}
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
        if let Some(k) = self.cfg.keepalive.filter(|_| self.is_established()) {
            for p in self.paths.iter_mut().filter(|p| p.hears_keepalives()) {
                if now >= p.last_heard.max(p.last_keepalive) + k {
                    p.probe_pending = true;
                    p.last_keepalive = now;
                    self.stats.keepalives_sent += 1;
                }
            }
        }
        self.on_recovery_timer(now, self.cfg.primary, true);
        for i in 0..self.paths.len() {
            self.on_recovery_timer(now, i, false);
        }
        self.liveness_pass(now);
    }

    /// Fire the loss / PTO timer of `path`'s space — or, `initial`, of the
    /// Initial space, which runs on that (the primary) path's RTT — if due.
    fn on_recovery_timer(&mut self, now: Instant, path: usize, initial: bool) {
        let p = &mut self.paths[path];
        let space = if initial { &mut self.initial } else { &mut p.space };
        let due = space.recovery.next_timeout(&p.rtt, self.cfg.params.max_ack_delay);
        if due.is_none_or(|deadline| now < deadline) {
            return;
        }
        match space.recovery.on_timeout(now, &p.rtt) {
            TimeoutOutcome::Lost(lost) => self.on_packets_lost(now, path, lost),
            // The Initial space's probe is the hello again.
            TimeoutOutcome::SendProbe if initial => self.keys.hello_sent = false,
            TimeoutOutcome::SendProbe => {
                p.probe_pending = true;
                if p.is_suspected() {
                    p.suspect_probes += 1;
                } else if !self.multipath && p.space.recovery.pto_count() >= SUSPECT_AFTER_PTOS {
                    // Nowhere to fail over to: report, and carry on.
                    p.suspected = true;
                    self.trace_suspected(now, path);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ackranges::AckRanges;
    use crate::frame::PathStatusKind;
    use crate::packet::{pn_encode_len, pn_truncate};

    /// Drive two connections until quiescent, shuttling datagrams
    /// directly (zero-latency "wire"): enough for state machine tests.
    fn pump(now: &mut Instant, a: &mut Connection, b: &mut Connection) {
        for _ in 0..4000 {
            let mut any = false;
            while let Some((path, d)) = a.poll_transmit_on(*now) {
                b.handle_datagram_on(*now, path, &d);
                any = true;
            }
            while let Some((path, d)) = b.poll_transmit_on(*now) {
                a.handle_datagram_on(*now, path, &d);
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

    /// An endpoint over `paths` network paths, offering multipath when
    /// there is more than one.
    fn config(side: Side, seed: u64, paths: usize) -> Config {
        let mut cfg = Config { side, paths, ..Config::client(seed) };
        cfg.params.enable_multipath = paths > 1;
        cfg
    }

    /// A fresh client and server over `paths` paths each.
    fn pair_over(paths: usize) -> (Connection, Connection, Instant) {
        let now = Instant::ZERO;
        let client = Connection::new(config(Side::Client, 1, paths), now);
        let server = Connection::new(config(Side::Server, 2, paths), now);
        (client, server, now)
    }

    /// An established pair over `paths` paths, every path validated.
    fn established(paths: usize) -> (Connection, Connection, Instant) {
        let (mut c, mut s, mut now) = pair_over(paths);
        pump(&mut now, &mut c, &mut s);
        assert!(
            c.is_established() && s.is_established(),
            "{:?} {:?}",
            c.life.state(),
            s.life.state()
        );
        assert_eq!((c.multipath_negotiated(), s.multipath_negotiated()), (paths > 1, paths > 1));
        (c, s, now)
    }

    fn pair() -> (Connection, Connection, Instant) {
        pair_over(1)
    }

    /// A multipath client against a server that does not offer the
    /// extension: established, nothing negotiated.
    fn refused_pair() -> (Connection, Connection, Instant) {
        let mut now = Instant::ZERO;
        let mut c = Connection::new(config(Side::Client, 1, 2), now);
        let mut server_cfg = config(Side::Server, 2, 2);
        server_cfg.params.enable_multipath = false;
        let mut s = Connection::new(server_cfg, now);
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established() && s.is_established());
        assert!(!c.multipath_negotiated() && !s.multipath_negotiated());
        (c, s, now)
    }

    #[test]
    fn handshake_establishes_both_sides_and_validates_every_path() {
        for paths in [1, 2] {
            let (c, s, _) = established(paths);
            assert!(c.paths().iter().all(|p| p.state == PathState::Active), "client, {paths}");
            assert!(s.paths().iter().all(|p| p.state == PathState::Active), "server, {paths}");
        }
    }

    #[test]
    fn fallback_to_single_path_when_peer_refuses() {
        let (mut c, mut s, mut now) = refused_pair();
        // Extra path never validates.
        assert_eq!(c.paths()[1].state, PathState::Validating);
        // Data still flows on the primary.
        let id = c.open_stream(0);
        c.stream_send(id, b"hello", true);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.stream_recv(id, 100), b"hello");
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
    /// is `Header::encode() ‖ AeadKey::seal(path, header, Σ Frame::encode)`
    /// under the path's nonce, and the in-place receive path reads the same
    /// stream bytes out of it.
    #[test]
    fn one_rtt_datagram_equals_the_owned_codec() {
        for paths in [1, 2] {
            let (mut c, mut s, now) = established(paths);
            let id = c.open_stream(0);
            let body: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
            c.stream_send(id, &body, true);
            let recovery = &c.paths[0].space.recovery;
            let pn = recovery.peek_pn();
            let pn_len = pn_encode_len(pn, recovery.largest_acked());
            let header = Header {
                ty: PacketType::OneRtt,
                dcid: c.paths[0].dcid,
                scid: c.local_cid,
                pn: pn_truncate(pn, pn_len),
                pn_len,
                token: Vec::new(),
            }
            .encode();
            let (path, datagram) = c.poll_transmit_on(now).expect("stream data to send");
            assert_eq!(path, 0, "the engine's own data step sends on the primary path");

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

            s.handle_datagram_on(now, path, &datagram);
            assert_eq!(s.stream_recv(id, usize::MAX)[..], body[..data.len()]);
        }
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
        for paths in [1, 2] {
            let (mut c, _s, _) = established(paths);
            let idle = c.life.idle_deadline();
            c.on_timeout(idle - Duration::from_millis(1));
            assert!(!c.is_closed(), "{paths} paths: not before the deadline");
            c.on_timeout(idle);
            assert_eq!(c.close_error(), Some(&ConnectionError::TimedOut), "{paths} paths");
        }
    }

    /// The idle timer measures the peer's liveness, so only receipts restart
    /// it. A sender PTO-probing a dead peer (every 2 s at most, for ever)
    /// must still idle out `max_idle_timeout` after the last thing it heard.
    #[test]
    fn a_connection_probing_a_dead_peer_idles_out() {
        let (mut c, mut s, mut now) = established(1);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        s.stream_send(id, &vec![5u8; 100_000], true);
        let last_heard = s.lifecycle().last_activity();
        // The client is gone: everything the server sends vanishes.
        let idle = s.cfg.params.max_idle_timeout;
        let mut probes = 0;
        while !s.is_closed() && now < last_heard + idle * 3 {
            while s.poll_transmit(now).is_some() {
                probes += 1;
            }
            now = s.poll_timeout().expect("an open connection has a timer").max(now);
            s.on_timeout(now);
        }
        assert_eq!(s.close_error(), Some(&ConnectionError::TimedOut), "after {probes} packets");
        assert_eq!(now, last_heard + idle, "idled out when the silence reached the timeout");
    }

    /// The keep-alive is the connection's, not the failover machine's: a
    /// pure receiver keeps an elicitable packet on the wire with or without
    /// multipath.
    #[test]
    fn keepalive_pings_keep_a_quiet_connection_elicitable() {
        for paths in [1, 2] {
            let mut now = Instant::ZERO;
            let mut client_cfg = config(Side::Client, 1, paths);
            client_cfg.keepalive = Some(Duration::from_millis(200));
            let mut c = Connection::new(client_cfg, now);
            let mut s = Connection::new(config(Side::Server, 2, paths), now);
            pump(&mut now, &mut c, &mut s);
            assert!(c.is_established());
            // Quiescent: the next client timer is the keep-alive, 200 ms
            // after the last receipt and well before the idle deadline.
            let ka = c.poll_timeout().expect("keep-alive armed");
            assert_eq!(ka, c.life.last_activity() + Duration::from_millis(200), "{paths} paths");
            c.on_timeout(ka);
            let (path, ping) = c.poll_transmit_on(ka).expect("keep-alive PING goes out");
            // Ack-eliciting and in flight: the silent server now causes
            // PTO probes, so its death is detectable before the idle timer.
            assert!(ping.len() > crate::reset::RESET_DATAGRAM_LEN);
            assert!(c.paths[path].space.recovery.has_ack_eliciting_in_flight());
            assert!(c.poll_timeout().expect("PTO armed") < c.life.idle_deadline());
            assert_eq!(c.stats().keepalives_sent, paths as u64, "every quiet path refreshed");
            // A server answering keeps the connection alive and re-arms.
            s.handle_datagram_on(ka, path, &ping);
            let mut t = ka;
            pump(&mut t, &mut c, &mut s);
            assert!(c.is_established() && !c.is_closed());
        }
    }

    #[test]
    fn close_propagates_to_peer() {
        for paths in [1, 2] {
            let (mut c, mut s, mut now) = established(paths);
            c.close(TransportError::NoError, "done");
            pump(&mut now, &mut c, &mut s);
            let closed = ConnectionError::PeerClosed(TransportError::NoError);
            assert_eq!(s.close_error(), Some(&closed), "{paths} paths");
        }
    }

    #[test]
    fn closing_replays_close_then_drains() {
        for paths in [1, 2] {
            let (mut c, _s, mut now) = established(paths);
            c.close(TransportError::NoError, "done");
            let (_, first) = c.poll_transmit_on(now).expect("close frame");
            assert!(c.poll_transmit_on(now).is_none(), "closing sends nothing unprompted");
            // Incoming packets while closing provoke rate-limited replays:
            // counts 1, 2, 4, 8 out of 10 arrivals.
            let mut replays = 0;
            for _ in 0..10 {
                c.handle_datagram(now, &first); // any datagram counts
                if c.poll_transmit_on(now).is_some() {
                    replays += 1;
                }
            }
            assert_eq!(replays, 4, "{paths} paths");
            // The drain deadline expires 3×PTO after the close was sent.
            let deadline = c.poll_timeout().expect("drain deadline");
            assert!(deadline > now);
            now = deadline;
            c.on_timeout(now);
            assert!(c.is_drained());
            assert!(c.poll_timeout().is_none());
            // Further packets provoke nothing once drained.
            c.handle_datagram(now, &first);
            assert!(c.poll_transmit_on(now).is_none());
        }
    }

    #[test]
    fn draining_endpoint_is_silent_and_expires() {
        for paths in [1, 2] {
            let (mut c, mut s, mut now) = established(paths);
            c.close(TransportError::NoError, "done");
            let (path, close) = c.poll_transmit_on(now).expect("close frame");
            s.handle_datagram_on(now, path, &close);
            let closed = ConnectionError::PeerClosed(TransportError::NoError);
            assert_eq!(s.close_error(), Some(&closed), "{paths} paths");
            // Draining: silent no matter what arrives.
            assert!(s.poll_transmit_on(now).is_none());
            for _ in 0..5 {
                s.handle_datagram_on(now, path, &close);
                assert!(s.poll_transmit_on(now).is_none());
            }
            let deadline = s.poll_timeout().expect("drain deadline");
            now = deadline;
            s.on_timeout(now);
            assert!(s.is_drained());
            assert!(s.poll_timeout().is_none());
        }
    }

    #[test]
    fn state_sits_through_the_closing_period_and_is_freed_when_it_ends() {
        let (mut c, _s, now) = established(2);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![1u8; 30_000], true);
        while c.poll_transmit_on(now).is_some() {}
        c.on_frame(now, 1, false, Frame::PathChallenge([7; 8]));
        c.close(TransportError::NoError, "done");
        // The close frame goes out once; what was in flight or pinned is
        // neither sent nor dropped while the closing period runs.
        assert!(c.poll_transmit_on(now).is_some());
        assert!(c.poll_transmit_on(now).is_none());
        assert!(c.paths.iter().any(|p| p.space.recovery.bytes_in_flight() > 0));
        assert_eq!(c.bounded_state().pending_path_responses, 1);
        let end = c.poll_timeout().expect("drain deadline");
        c.on_timeout(end);
        assert!(c.is_drained());
        assert!(c.paths.iter().all(|p| p.space.recovery.bytes_in_flight() == 0));
        assert_eq!(c.bounded_state().pending_path_responses, 0);
    }

    #[test]
    fn optimistic_ack_closes_with_protocol_violation() {
        for paths in [1, 2] {
            let (mut c, _s, now) = established(paths);
            // An ACK for packet numbers the last path never sent must close
            // the connection, not inflate the congestion window.
            let mut set = AckRanges::new();
            set.insert_range(900, 1000);
            let ack = AckFrame::from_ranges(paths as u64 - 1, &set, Duration::ZERO).unwrap();
            c.on_ack(now, paths - 1, false, ack);
            let violation = ConnectionError::LocallyClosed(TransportError::ProtocolViolation);
            assert_eq!(c.close_error(), Some(&violation), "{paths} paths");
        }
    }

    #[test]
    fn path_challenge_flood_is_capped() {
        for paths in [1, 2] {
            let (mut c, _s, now) = established(paths);
            for i in 0..100u64 {
                c.on_frame(now, paths - 1, false, Frame::PathChallenge(i.to_le_bytes()));
            }
            assert_eq!(c.bounded_state().pending_path_responses, MAX_PENDING_PATH_RESPONSES);
            assert_eq!(c.path_responses_dropped, 100 - MAX_PENDING_PATH_RESPONSES as u64);
            assert!(!c.is_closed());
        }
    }

    #[test]
    fn path_response_leaves_on_challenge_arrival_path() {
        let (mut c, mut s, now) = established(2);
        // Hand-build a fresh PATH_CHALLENGE arriving on path 1; RFC 9000
        // §8.2.2 requires the response to leave on the same path.
        let (_, d) = c.send_challenge(now, 1, 0x7e57, 0, true);
        s.handle_datagram_on(now, 1, &d);
        assert_eq!(s.paths[1].response_pending.len(), 1, "response must queue on arrival path");
        let mut drained_on = None;
        while let Some((path, d2)) = s.poll_transmit_on(now) {
            if drained_on.is_none() && s.paths[1].response_pending.is_empty() {
                drained_on = Some(path);
            }
            c.handle_datagram_on(now, path, &d2);
        }
        assert_eq!(drained_on, Some(1), "PATH_RESPONSE must leave on the arrival path");
        assert!(c.paths[1].challenge.is_none(), "round-trip should resolve the challenge");
    }

    /// The extension's frames are legal only once both sides offered it
    /// (paper §6: a negotiated extension). On any other connection they are
    /// a PROTOCOL_VIOLATION — not state to apply.
    #[test]
    fn multipath_frames_without_negotiation_close_the_connection() {
        let qoe = QoeSignal { cached_bytes: 1, cached_frames: 300, bps: 1, fps: 30 };
        let mut ranges = AckRanges::new();
        ranges.insert(0);
        let frames = [
            Frame::AckMp(AckFrame::from_ranges(0, &ranges, Duration::ZERO).unwrap()),
            Frame::PathStatus { path_id: 1, seq: 1, status: PathStatusKind::Abandon },
            Frame::QoeControlSignals(qoe),
        ];
        for frame in frames {
            let (mut c, mut s, now) = refused_pair();
            let (path, d) = c.build_packet(now, 0, false, &[frame.clone()], vec![], true);
            s.handle_datagram_on(now, path, &d);
            let violation = ConnectionError::LocallyClosed(TransportError::ProtocolViolation);
            assert_eq!(s.close_error(), Some(&violation), "{frame:?}");
            assert_eq!(s.paths()[1].state, PathState::Validating, "{frame:?} was applied");
            assert!(s.peer_qoe().is_none(), "{frame:?} was applied");
        }
    }

    /// §19.16: the peer cannot retire a sequence number never issued, nor
    /// the CID its packets are currently routed by.
    #[test]
    fn retire_of_an_unissued_or_in_use_cid_closes_the_connection() {
        for paths in [1, 2] {
            for seq in [0, 99] {
                let (mut c, _s, now) = established(paths);
                c.on_frame(now, 0, false, Frame::RetireConnectionId { seq });
                let violation = ConnectionError::LocallyClosed(TransportError::ProtocolViolation);
                assert_eq!(c.close_error(), Some(&violation), "{paths} paths, seq {seq}");
            }
        }
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
        let grown = c.paths()[0].cwnd();
        assert!(grown >= crate::cc::INITIAL_WINDOW);
        c.on_migrate();
        assert_eq!(c.paths()[0].cwnd(), crate::cc::INITIAL_WINDOW);
        assert_eq!(c.stats().migrations, 1);
        assert!(!c.paths()[0].rtt.has_samples());
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
        while fired < 6 && !s.paths()[0].is_suspected() {
            while s.poll_transmit(now).is_some() {}
            let t = s.poll_timeout().unwrap();
            now = t + Duration::from_micros(1);
            s.on_timeout(now);
            fired += 1;
        }
        assert!(s.paths()[0].is_suspected(), "consecutive PTOs must raise suspicion");
        assert_eq!(s.paths()[0].state, PathState::Active, "with nowhere to fail over to");
        // Let traffic flow again: ack progress revalidates the path.
        pump(&mut now, &mut c, &mut s);
        assert!(!s.paths()[0].is_suspected(), "ack progress must clear suspicion");
    }

    #[test]
    fn corrupted_datagram_dropped_not_crash() {
        for paths in [1, 2] {
            let (mut c, mut s, now) = established(paths);
            let id = c.open_stream(0);
            c.stream_send(id, b"hello", false);
            let (path, mut d) = c.poll_transmit_on(now).unwrap();
            let n = d.len();
            d[n - 5] ^= 0xff;
            let dropped_before = s.stats().packets_dropped;
            s.handle_datagram_on(now, path, &d);
            assert_eq!(s.stats().packets_dropped, dropped_before + 1, "{paths} paths");
            assert!(!s.is_closed());
        }
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
        assert_eq!(c.oracle.count(), 1);
        // A server never stores a token for the client (clients send none).
        assert_eq!(s.oracle.count(), 0);
    }

    #[test]
    fn stateless_reset_closes_client_immediately() {
        let now = Instant::ZERO;
        let mut c = Connection::new(Config::client(1), now);
        let secret = 0x5eed_0001u64;
        // Mirror the edge tier: the server knows its routable CID up
        // front and advertises the matching token.
        let scid = Connection::new(Config::server(2), now).local_cid();
        let mut sc = Config::server(2);
        sc.params.stateless_reset_token = Some(reset::reset_token(secret, &scid));
        let mut s = Connection::new(sc, now);
        let mut t = now;
        pump(&mut t, &mut c, &mut s);
        assert!(c.is_established());
        // The server "crashes": a stateless reset arrives instead of data.
        let dg = reset::build_stateless_reset(secret, &scid);
        c.handle_datagram(t, &dg);
        assert!(c.is_closed());
        assert_eq!(c.close_error(), Some(&ConnectionError::Reset));
        // Silent death: a reset endpoint must not answer (§10.3.1).
        assert!(c.is_drained() && c.poll_transmit(t).is_none());
        assert_eq!(c.stats().stateless_resets, 1);
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

    /// With nothing negotiated there is no other path to fail over to, however
    /// many the endpoint was configured with: a stateless reset means what
    /// RFC 9000 §10.3.1 says.
    #[test]
    fn stateless_reset_closes_a_connection_that_negotiated_nothing() {
        let (mut c, _s, now) = refused_pair();
        let (secret, dcid) = (0x5eed, c.paths[0].dcid);
        c.oracle.remember(0, reset::reset_token(secret, &dcid));
        c.handle_datagram(now, &reset::build_stateless_reset(secret ^ 1, &dcid));
        assert!(!c.is_closed(), "a reset under another secret is noise");
        c.handle_datagram(now, &reset::build_stateless_reset(secret, &dcid));
        assert_eq!(c.close_error(), Some(&ConnectionError::Reset));
        assert!(c.is_drained() && c.poll_transmit_on(now).is_none(), "dead at once, and silent");
    }

    #[test]
    fn stateless_reset_is_an_authoritative_path_death_signal() {
        let mut now = Instant::ZERO;
        let secret = 0x5eed_0dd5_ec4e_0001;
        let mut server_cfg = config(Side::Server, 2, 2);
        server_cfg.reset_secret = Some(secret);
        let mut c = Connection::new(config(Side::Client, 1, 2), now);
        let mut s = Connection::new(server_cfg, now);
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established() && c.multipath_negotiated());
        assert_eq!(c.paths()[1].state, PathState::Active);
        assert_eq!(c.oracle.count(), 1, "server NCID must arm the path-1 oracle");

        // The server's path-1 state evaporates (say, its shard was
        // crash-restarted): it answers the client's next path-1 packet
        // with a stateless reset built from that path's DCID.
        let dcid = c.paths[1].dcid;
        let dgram = reset::build_stateless_reset(secret, &dcid);
        let before = c.stats().packets_dropped;
        c.handle_datagram_on(now, 1, &dgram);
        assert_eq!(c.stats().stateless_resets, 1);
        assert_eq!(c.stats().packets_dropped, before, "a recognised reset is not a plain drop");
        assert_eq!(
            c.paths()[1].state,
            PathState::Probation,
            "reset skips Suspect dwell and PTO counting entirely"
        );
        assert!(!c.is_closed(), "losing one path must not kill the connection");

        // A reset-shaped datagram under the wrong secret is mere noise...
        let noise = reset::build_stateless_reset(secret ^ 1, &dcid);
        c.handle_datagram_on(now, 1, &noise);
        assert_eq!(c.stats().stateless_resets, 1);
        assert_eq!(c.stats().packets_dropped, before + 1);
        // ...and a genuine reset replayed onto the wrong path does not
        // fire either: the oracle is armed per path.
        c.handle_datagram_on(now, 0, &dgram);
        assert_eq!(c.stats().stateless_resets, 1);
        assert_eq!(c.paths()[0].state, PathState::Active);
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
        let cwnd = c.paths()[0].cwnd();
        assert!(sent_bytes <= cwnd + 2 * MAX_DATAGRAM_SIZE);
        assert!(c.in_flight(0) <= cwnd + MAX_DATAGRAM_SIZE);
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

    /// What an unauthenticated datagram must leave alone: everything but the
    /// byte and drop counters.
    fn observable(c: &Connection) -> impl PartialEq + std::fmt::Debug {
        let stats = ConnectionStats { bytes_received: 0, packets_dropped: 0, ..c.stats() };
        let path = |p: &Path| (p.state, p.dcid, p.probe_pending, p.space.ack_pending, p.cwnd());
        (
            (c.life.state().clone(), c.multipath, c.retry_done, c.oracle.count(), stats),
            (c.bounded_state(), c.poll_timeout(), c.recv_pn_ranges(), c.streams.control.len()),
            (c.initial.ack_pending, c.paths.iter().map(path).collect::<Vec<_>>()),
        )
    }

    /// Decoder totality at the one receive path: arbitrary *unauthenticated*
    /// bytes — noise, truncated, spliced and bit-flipped real datagrams,
    /// forced long / short / Retry forms, real headers on noise, on any path
    /// index — into client and server, before and after the handshake, over
    /// 1 and 2 paths. No panic (the debug profile checks overflow), the caps
    /// hold, nothing is answered, nothing but the byte and drop counters
    /// changes, and the receive buffer never holds more than the largest
    /// datagram it was offered.
    #[test]
    fn unauthenticated_bytes_change_nothing_but_the_counters() {
        use xlink_lab::prop::*;
        // Real datagrams of another pair (other 1-RTT keys, the same Initial
        // keys — so none is ever offered intact), and a Retry.
        let mut corpus = Vec::new();
        let (mut a, mut b, now) = pair_over(2);
        (a.cfg.seed, b.cfg.seed) = (77, 78);
        let id = a.open_stream(0);
        a.stream_send(id, &[3u8; 4000], true);
        for _ in 0..6 {
            while let Some((path, d)) = a.poll_transmit_on(now) {
                b.handle_datagram_on(now, path, &d);
                corpus.push(d);
            }
            while let Some((path, d)) = b.poll_transmit_on(now) {
                a.handle_datagram_on(now, path, &d);
                corpus.push(d);
            }
        }
        let cid = ConnectionId::derive(9, 9);
        let retry = Header {
            ty: PacketType::Retry,
            dcid: cid,
            scid: cid,
            pn: 0,
            pn_len: 1,
            token: vec![7; 32],
        };
        corpus.push(retry.encode());
        assert!(corpus.iter().any(|d| d[0] & 0x80 != 0) && corpus.iter().any(|d| d[0] & 0x80 == 0));

        // The eight connections under test, quiescent. The client still
        // handshaking has honoured its one Retry (a Retry carries no proof
        // beyond the token the server will check, and is taken once).
        let mut fixtures = Vec::new();
        for paths in [1, 2] {
            let (mut c, s, now) = pair_over(paths);
            while c.poll_transmit_on(now).is_some() {}
            c.handle_datagram_on(now, 0, corpus.last().expect("the Retry"));
            assert!(c.retry_seen());
            while c.poll_transmit_on(now).is_some() {}
            let (ec, es, at) = established(paths);
            fixtures.extend([(c, now), (s, now), (ec, at), (es, at)]);
        }
        let largest: Vec<usize> = fixtures.iter().map(|(c, _)| c.keys.buffer_capacity()).collect();
        // Shared across cases (the runner's closure is `Fn`): what holds for
        // one datagram must hold for all of them in a row.
        let state = std::cell::RefCell::new((fixtures, largest));

        let datagram = ((0u8..6, 0usize..4), 0usize..10_000, 0usize..10_000, bytes(0..1500));
        check("unauthenticated bytes", vec_of(datagram, 1..12), |case| {
            let (fixtures, largest) = &mut *state.borrow_mut();
            for ((kind, path), x, y, noise) in case {
                let (one, other) = (&corpus[x % corpus.len()], &corpus[y % corpus.len()]);
                let offered: Vec<u8> = match kind {
                    0 => noise.clone(),
                    1 => one[..y % one.len()].to_vec(),
                    2 if one != other => {
                        let cut = 1 + noise.len() % (one.len().min(other.len()) - 1);
                        [&one[..cut], &other[cut..]].concat()
                    }
                    2 | 3 => {
                        let mut flipped = one.clone();
                        flipped[y % one.len()] ^= 1 << (noise.len() % 8);
                        flipped
                    }
                    4 => [&[[0xc0, 0x40, 0xf0, 0xe0][x % 4] | (y % 16) as u8][..], noise].concat(),
                    _ => [&one[..one.len().min(20)], &noise[..]].concat(),
                };
                if corpus.contains(&offered) {
                    continue; // a flip that undid itself: authentic after all
                }
                for (i, (conn, now)) in fixtures.iter_mut().enumerate() {
                    let before = observable(conn);
                    conn.handle_datagram_on(*now, *path, &offered);
                    largest[i] = largest[i].max(offered.len());
                    prop_assert_eq!(observable(conn), before, "fixture {}: {:?}", i, offered);
                    prop_assert!(conn.poll_transmit_on(*now).is_none(), "fixture {i} answered");
                    prop_assert!(conn.bounded_state().within_caps());
                    let held = conn.keys.buffer_capacity();
                    prop_assert!(held <= largest[i], "fixture {i} holds {held} > {}", largest[i]);
                }
            }
            Ok(())
        });
    }

    /// Send until `conn` has nothing more, then poll once more at the same
    /// instant: still nothing, and nothing moved. An endpoint multiplexing
    /// many connections relies on this to stop asking a connection that
    /// said `None` until that connection's next input.
    fn assert_none_is_stable(what: &str, conn: &mut Connection, now: Instant) {
        while conn.poll_transmit_on(now).is_some() {}
        let before = (conn.streams.control.len(), conn.poll_timeout(), conn.stats());
        assert!(conn.poll_transmit_on(now).is_none(), "{what}: sent again with no input");
        let after = (conn.streams.control.len(), conn.poll_timeout(), conn.stats());
        assert_eq!(before, after, "{what}: a poll that sent nothing changed state");
    }

    #[test]
    fn none_from_poll_transmit_means_nothing_changes_until_the_next_input() {
        for paths in [1, 2] {
            // Blocked by the congestion window: far more to send than cwnd,
            // and no ACK comes back.
            let (mut c, _s, now) = established(paths);
            let id = c.open_stream(0);
            c.stream_send(id, &vec![7u8; 1_000_000], true);
            assert_none_is_stable("cwnd", &mut c, now);
            assert!(c.in_flight(0) + MAX_DATAGRAM_SIZE > c.paths()[0].cwnd(), "not cwnd-limited");

            // Closing: the CONNECTION_CLOSE went out; no packet arrives to
            // warrant a replay.
            let (mut c, _s, now) = established(paths);
            c.close(TransportError::NoError, "bye");
            assert_none_is_stable("closing", &mut c, now);
            assert!(c.is_closed() && !c.is_drained());

            // Drained: the closing period ran out and the state was freed.
            let end = c.poll_timeout().expect("drain deadline");
            c.on_timeout(end);
            assert!(c.is_drained());
            assert_none_is_stable("drained", &mut c, end);
        }

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
        assert!(s.budget(0) > MAX_DATAGRAM_SIZE, "cwnd-limited instead");
        assert_none_is_stable("flow control", &mut s, now);
        assert_eq!(s.streams.control.len(), 0, "DATA_BLOCKED left on the queue");
        assert!(!s.is_closed() && !c.is_closed(), "the limit was overrun: {:?}", c.close_error());
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
        assert!(!s.address_validated && s.stats().bytes_received == 30);
    }
}
