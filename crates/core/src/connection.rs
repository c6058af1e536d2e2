//! The multipath QUIC connection with XLINK's QoE-driven scheduling.
//!
//! One state machine, policy-parameterized, covers every multipath scheme
//! in the paper's evaluation:
//!
//! * **vanilla-MP** — min-RTT scheduler, no re-injection, original-path
//!   ACKs (the MPQUIC default, §3).
//! * **re-injection w/o QoE** — re-injection always on (Fig. 6c).
//! * **XLINK** — min-RTT + stream/frame priority-based re-injection under
//!   double-thresholding QoE control + fastest-path ACK_MP (§5).
//!
//! Path identity follows the multipath draft: each path is bound to the
//! connection ID with the matching sequence number, per-path packet number
//! spaces are acknowledged with ACK_MP (carrying the QoE field as deployed
//! in the paper), paths are validated with PATH_CHALLENGE/PATH_RESPONSE
//! and managed with PATH_STATUS.

use crate::liveness::{LivenessConfig, Probation};
use crate::qoe::{redundancy_ratio, reinjection_decision, QoeControl, QoeSignal};
use crate::sched::{
    ecf_choice, max_deliver_time, min_rtt_choice, AckPathPolicy, ReinjectKey, ReinjectLedger,
    ReinjectMode, RoundRobinState, SchedulerKind,
};
use crate::wireless::{PrimaryPathPolicy, WirelessTech};
use xlink_clock::{Duration, Instant};
use xlink_obs::{prof, Event, Tracer};
use xlink_quic::cc::{CcAlgorithm, CongestionController, MAX_DATAGRAM_SIZE};
use xlink_quic::cid::{CidManager, ConnectionId};
use xlink_quic::connection::{
    hello_random, placeholder_dcid, trace_rtt, BoundedState, Expiry, Keys, Lifecycle, Opened,
    PnSpace, ResetOracle, SentFrame, MAX_PENDING_PATH_RESPONSES,
};
use xlink_quic::error::{ConnectionError, TransportError};
use xlink_quic::frame::{AckFrame, Frame, PathStatusKind};
use xlink_quic::packet::{Header, PacketBuilder, PacketType};
use xlink_quic::params::TransportParams;
use xlink_quic::recovery::{SentPacket, TimeoutOutcome, SUSPECT_AFTER_PTOS};
use xlink_quic::reset;
use xlink_quic::rtt::RttEstimator;
use xlink_quic::stream::{SendRange, Side, StreamMap};

/// Connection lifecycle states: the one [`xlink_quic::connection::State`].
pub use xlink_quic::connection::State as MpState;

/// Multipath endpoint configuration.
#[derive(Debug, Clone)]
pub struct MpConfig {
    /// Client or server.
    pub side: Side,
    /// Pre-shared secret (stands in for certificates; see DESIGN.md).
    pub psk: Vec<u8>,
    /// Transport parameters; `enable_multipath` is set automatically.
    pub params: TransportParams,
    /// Congestion control algorithm per path.
    pub cc: CcAlgorithm,
    /// New-data path selection policy.
    pub scheduler: SchedulerKind,
    /// Re-injection queue-position policy.
    pub reinject_mode: ReinjectMode,
    /// Re-injection on/off controller.
    pub qoe_control: QoeControl,
    /// ACK_MP return-path policy.
    pub ack_policy: AckPathPolicy,
    /// Wireless technology of each network path (index-aligned with the
    /// simulator's path table). Drives primary path selection.
    pub path_techs: Vec<WirelessTech>,
    /// Primary-path selection policy.
    pub primary_policy: PrimaryPathPolicy,
    /// Negotiate multipath at all (false → single-path fallback test).
    pub enable_multipath: bool,
    /// RNG/CID seed.
    pub seed: u64,
    /// Couple congestion control across paths (LIA; §9).
    pub coupled_cc: bool,
    /// Send QoE feedback as the draft's standalone QOE_CONTROL_SIGNALS
    /// frame (decoupled from ACK cadence) instead of the ACK_MP field the
    /// paper's experiments used (§6: "the current XLINK implementation
    /// sends QoE feedback as an additional field in ACK_MP frame").
    pub standalone_qoe_frames: bool,
    /// Blackhole detection / automatic failover tunables (§9).
    pub liveness: LivenessConfig,
    /// Send a keep-alive PING on a path after this long with nothing
    /// received on it (local behavior, not a transport parameter): an idle
    /// backup path stays usable and measurable for failover, and a pure
    /// receiver — which has nothing in flight when its peer dies, no PTO
    /// to fire, no ACK to send — keeps an elicitable packet on the wire, so
    /// a dead peer's silence (or its stateless reset) surfaces within about
    /// one interval instead of at the idle timeout.
    pub keepalive: Option<Duration>,
    /// When set, CIDs advertised for extra paths carry RFC 9000 §10.3
    /// stateless-reset tokens derived from this secret, giving the peer
    /// a per-path death oracle (crash detection without PTO exhaustion).
    pub reset_secret: Option<u64>,
}

impl MpConfig {
    /// XLINK client defaults over the given wireless paths.
    pub fn xlink_client(seed: u64, path_techs: Vec<WirelessTech>) -> Self {
        MpConfig {
            side: Side::Client,
            psk: b"xlink-demo-psk".to_vec(),
            params: TransportParams::default(),
            cc: CcAlgorithm::Cubic,
            scheduler: SchedulerKind::MinRtt,
            reinject_mode: ReinjectMode::FramePriority,
            qoe_control: QoeControl::double_threshold_ms(300, 1500),
            ack_policy: AckPathPolicy::FastestPath,
            path_techs,
            primary_policy: PrimaryPathPolicy::default(),
            enable_multipath: true,
            seed,
            coupled_cc: false,
            standalone_qoe_frames: false,
            liveness: LivenessConfig::default(),
            keepalive: Some(Duration::from_secs(5)),
            reset_secret: None,
        }
    }

    /// XLINK server defaults.
    pub fn xlink_server(seed: u64, num_paths: usize) -> Self {
        MpConfig {
            side: Side::Server,
            ..MpConfig::xlink_client(seed, vec![WirelessTech::Wifi; num_paths])
        }
    }

    /// vanilla-MP policy set (min-RTT, no re-injection, original-path ACK).
    pub fn vanilla(mut self) -> Self {
        self.scheduler = SchedulerKind::MinRtt;
        self.qoe_control = QoeControl::AlwaysOff;
        self.ack_policy = AckPathPolicy::OriginalPath;
        self.reinject_mode = ReinjectMode::Appending;
        self
    }
}

/// Lifecycle of one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathState {
    /// PATH_CHALLENGE sent/awaited; not yet usable for data.
    Validating,
    /// Usable for transmission.
    Active,
    /// Alive but not preferred (PATH_STATUS Standby).
    Standby,
    /// Liveness signals (consecutive PTOs / ack silence) suggest a
    /// blackhole: excluded from scheduling, in-flight data eligible for
    /// failover re-injection, recovers on any ack progress (§9).
    Suspect,
    /// Declared blackholed: in-flight requeued elsewhere; revalidated
    /// with exponential-backoff PATH_CHALLENGE probes (§9).
    Probation,
    /// Closed; resources released (PATH_STATUS Abandon).
    Abandoned,
}

/// Per-path transport state.
pub struct MpPath {
    /// Path index == CID sequence number bound to this path.
    pub id: usize,
    /// Lifecycle state.
    pub state: PathState,
    /// Wireless technology tag.
    pub tech: WirelessTech,
    /// The path's 1-RTT packet-number space.
    space: PnSpace,
    /// RTT estimator for this path.
    pub rtt: RttEstimator,
    cc: Box<dyn CongestionController>,
    last_recv_time: Instant,
    /// Destination CID bound to this path.
    dcid: ConnectionId,
    probe_pending: bool,
    /// Outstanding local challenge payload.
    challenge: Option<[u8; 8]>,
    /// PATH_RESPONSE payloads pinned to this path (the peer's challenges
    /// arrived here; replies must leave here too).
    response_pending: Vec<[u8; 8]>,
    /// Last time ack progress was observed for this path's space.
    last_ack_time: Instant,
    /// Last time anything was transmitted on this path.
    last_send_time: Instant,
    /// Last time anything was received on this path.
    last_heard: Instant,
    /// Last keep-alive PING requested (see [`MpConfig::keepalive`]).
    last_keepalive: Instant,
    /// Revalidation probing state while `state == Probation`.
    probation: Option<Probation>,
    /// State to restore on revalidation (Active or Standby).
    suspect_from: PathState,
    /// Without multipath there is nowhere to fail over to, so consecutive
    /// PTOs change nothing — but the suspicion and its end are still
    /// reported, which keeps single-path traces comparable with multipath
    /// ones. True between the two reports.
    suspected: bool,
    /// PTO probes sent since the path was marked Suspect (or suspected).
    suspect_probes: u32,
    /// PATH_STATUS sequence number we last sent.
    status_seq: u64,
    /// Bytes sent on this path (wire level).
    pub bytes_sent: u64,
    /// Bytes received on this path (wire level).
    pub bytes_received: u64,
}

impl std::fmt::Debug for MpPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpPath")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("tech", &self.tech)
            .finish_non_exhaustive()
    }
}

impl MpPath {
    fn new(
        id: usize,
        tech: WirelessTech,
        cc: Box<dyn CongestionController>,
        dcid: ConnectionId,
        now: Instant,
    ) -> Self {
        MpPath {
            id,
            state: PathState::Validating,
            tech,
            space: PnSpace::default(),
            rtt: RttEstimator::new(),
            cc,
            last_recv_time: now,
            dcid,
            probe_pending: false,
            challenge: None,
            response_pending: Vec::new(),
            last_ack_time: now,
            last_send_time: now,
            last_heard: now,
            last_keepalive: now,
            probation: None,
            suspect_from: PathState::Active,
            suspected: false,
            suspect_probes: 0,
            status_seq: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// Congestion window of this path.
    pub fn cwnd(&self) -> u64 {
        self.cc.window()
    }

    /// Received packet-number ranges on this path, ascending inclusive
    /// pairs (robustness tests assert these stay sane under adversarial
    /// datagrams).
    pub fn recv_pn_ranges(&self) -> Vec<(u64, u64)> {
        self.space.recv.iter().map(|r| (r.start, r.end)).collect()
    }

    /// Bytes currently in flight on this path.
    pub fn bytes_in_flight(&self) -> u64 {
        self.space.recovery.bytes_in_flight()
    }

    fn usable_for_data(&self) -> bool {
        self.state == PathState::Active
    }

    /// Keep-alives refresh the paths in service, preferred or not; a
    /// suspect or probation path has its own probing.
    fn hears_keepalives(&self) -> bool {
        matches!(self.state, PathState::Active | PathState::Standby)
    }

    /// Since when the path has made no ack progress on what is in flight.
    fn silent_since(&self) -> Instant {
        self.space
            .recovery
            .oldest_unacked_time()
            .map_or(self.last_ack_time, |t| t.max(self.last_ack_time))
    }
}

/// Experiment counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpStats {
    /// Datagrams sent across all paths.
    pub packets_sent: u64,
    /// Datagrams received and decrypted.
    pub packets_received: u64,
    /// Packets declared lost.
    pub packets_lost: u64,
    /// Stream payload bytes sent for the first time.
    pub stream_bytes_sent: u64,
    /// Loss-triggered retransmitted payload bytes.
    pub stream_bytes_retransmitted: u64,
    /// Re-injected (proactively duplicated) payload bytes — the paper's
    /// cost metric numerator.
    pub reinjected_bytes: u64,
    /// Number of re-injection events.
    pub reinjections: u64,
    /// Wire bytes sent.
    pub bytes_sent: u64,
    /// Wire bytes received.
    pub bytes_received: u64,
    /// Undecryptable/unparseable datagrams.
    pub packets_dropped: u64,
    /// ACK_MP frames sent.
    pub acks_sent: u64,
    /// Hello flights re-sent after loss or a peer-triggered resend.
    pub handshake_retransmits: u64,
    /// Paths marked Suspect by liveness detection (§9).
    pub path_suspects: u64,
    /// Suspect paths escalated to Probation (declared blackholed).
    pub path_probations: u64,
    /// Paths that rejoined service after suspicion or probation.
    pub path_revalidations: u64,
    /// Keep-alive PINGs requested to refresh quiet paths.
    pub keepalives_sent: u64,
    /// Stateless resets recognised (each is an authoritative per-path
    /// death signal; the path went straight to probation).
    pub stateless_resets: u64,
}

impl MpStats {
    /// The paper's redundancy ratio (see [`redundancy_ratio`]).
    pub fn redundancy_ratio(&self) -> f64 {
        let retransmitted = self.stream_bytes_retransmitted;
        redundancy_ratio(self.stream_bytes_sent, retransmitted, self.reinjected_bytes)
    }
}

/// The multipath connection.
pub struct MpConnection {
    cfg: MpConfig,
    life: Lifecycle,
    keys: Keys,
    cids: CidManager,
    /// CID we address the peer with on the primary path before extra CIDs
    /// are exchanged.
    remote_cid0: ConnectionId,
    local_cid0: ConnectionId,
    /// The Initial packet-number space: the handshake's, on the primary
    /// path's RTT estimate and congestion window.
    initial: PnSpace,
    /// Paths indexed by path id (== network path index == CID seq).
    paths: Vec<MpPath>,
    /// The wireless-aware primary path (handshake path).
    primary: usize,
    streams: StreamMap,
    /// True once both sides advertised enable_multipath.
    multipath: bool,
    /// Client: next path to initiate.
    cids_advertised: bool,
    /// Latest QoE snapshot from the local video player (client side).
    local_qoe: Option<QoeSignal>,
    /// Latest QoE snapshot received from the peer (server side).
    peer_qoe: Option<QoeSignal>,
    /// Re-injection dedup ledger.
    ledger: ReinjectLedger,
    rr: RoundRobinState,
    /// PATH_RESPONSEs dropped by the per-path pending cap (§10 gauge).
    path_responses_dropped: u64,
    stats: MpStats,
    /// Transport-layer tracer (`<prefix>.quic`): packets, recovery, paths
    /// and their liveness.
    tr_quic: Tracer,
    /// Scheduler / re-injection / QoE-gate tracer (`<prefix>.core`).
    tr_core: Tracer,
    /// Last re-injection gate decision reported to the tracer.
    gate_seen: Option<bool>,
    /// Time-series probe: (time, path, cwnd, bytes_in_flight) recorded on
    /// each send when enabled (Fig. 1 dynamics experiment).
    pub probe_cwnd: Option<Vec<(Instant, usize, u64, u64)>>,
    /// §10.3 oracle: the reset tokens the peer attached to the CIDs in use
    /// per path. A matching unintelligible datagram is an authoritative
    /// "that path's endpoint lost its state" — stronger than the
    /// PTO/ack-silence heuristics, so the path skips Suspect dwell time
    /// and goes straight to probation.
    oracle: ResetOracle,
    /// Scheduler candidates `(path, srtt, usable)`, rebuilt on every
    /// [`MpConnection::poll_data`] in the same allocation.
    sched_scratch: Vec<(usize, Duration, bool)>,
}

impl std::fmt::Debug for MpConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpConnection")
            .field("side", &self.cfg.side)
            .field("state", self.life.state())
            .field("paths", &self.paths.len())
            .finish_non_exhaustive()
    }
}

fn state_name(s: PathState) -> &'static str {
    match s {
        PathState::Validating => "validating",
        PathState::Active => "active",
        PathState::Standby => "standby",
        PathState::Suspect => "suspect",
        PathState::Probation => "probation",
        PathState::Abandoned => "abandoned",
    }
}

impl MpConnection {
    /// Create an endpoint. `cfg.path_techs.len()` network paths exist;
    /// the client starts the handshake on the wireless-aware primary.
    pub fn new(mut cfg: MpConfig, now: Instant) -> Self {
        cfg.params.enable_multipath = cfg.enable_multipath;
        let keys = Keys::new(cfg.side, &cfg.psk, &cfg.params, hello_random(cfg.seed));
        let mut cids = CidManager::new(cfg.seed);
        let local0 = cids.issue_local();
        let remote_cid0 = placeholder_dcid();
        let candidates: Vec<(usize, WirelessTech)> =
            cfg.path_techs.iter().copied().enumerate().collect();
        let primary = cfg.primary_policy.select_primary(&candidates);
        let mut paths = Vec::new();
        for (i, &tech) in cfg.path_techs.iter().enumerate() {
            let mut path = MpPath::new(i, tech, cfg.cc.build(), remote_cid0, now);
            // The primary path is implicitly validated by the handshake.
            path.state = if i == primary { PathState::Active } else { PathState::Validating };
            paths.push(path);
        }
        MpConnection {
            life: Lifecycle::new(now, cfg.params.max_idle_timeout),
            keys,
            cids,
            remote_cid0,
            local_cid0: local0.cid,
            initial: PnSpace::default(),
            paths,
            primary,
            streams: StreamMap::for_endpoint(cfg.side, &cfg.params),
            multipath: false,
            cids_advertised: false,
            local_qoe: None,
            peer_qoe: None,
            ledger: ReinjectLedger::default(),
            rr: RoundRobinState::default(),
            path_responses_dropped: 0,
            stats: MpStats::default(),
            tr_quic: Tracer::disabled(),
            tr_core: Tracer::disabled(),
            gate_seen: None,
            probe_cwnd: None,
            oracle: ResetOracle::default(),
            sched_scratch: Vec::new(),
            cfg,
        }
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    /// Lifecycle: states, closing/draining, the idle deadline.
    pub fn lifecycle(&self) -> &Lifecycle {
        &self.life
    }

    /// Current lifecycle state.
    pub fn state(&self) -> &MpState {
        self.life.state()
    }

    /// True once established.
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

    /// Snapshot of the capped peer-growable state (§10 gauges): ranges and
    /// pinned PATH_RESPONSEs are capped per path, so the largest counts.
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

    /// True once multipath was negotiated (vs single-path fallback).
    pub fn multipath_negotiated(&self) -> bool {
        self.multipath
    }

    /// Per-path view.
    pub fn paths(&self) -> &[MpPath] {
        &self.paths
    }

    /// Received packet numbers of the Initial space, then of each path's
    /// space, as ascending inclusive ranges (the final ACK state).
    pub fn recv_pn_ranges(&self) -> Vec<Vec<(u64, u64)>> {
        let initial = self.initial.recv.iter().map(|r| (r.start, r.end)).collect();
        [initial].into_iter().chain(self.paths.iter().map(MpPath::recv_pn_ranges)).collect()
    }

    /// Bytes in flight that count against `path`'s congestion window: its
    /// own, and on the primary path the handshake's.
    fn in_flight(&self, path: usize) -> u64 {
        let handshake =
            if path == self.primary { self.initial.recovery.bytes_in_flight() } else { 0 };
        self.paths[path].space.recovery.bytes_in_flight() + handshake
    }

    /// Spare congestion budget of `path`.
    fn budget(&self, path: usize) -> u64 {
        self.paths[path].cc.window().saturating_sub(self.in_flight(path))
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MpStats {
        self.stats
    }

    /// Attach a tracer; transport events (path management included) are
    /// emitted under `<tracer>.quic` and scheduling / re-injection events
    /// under `<tracer>.core`. Pass [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tr_quic = tracer.scoped("quic");
        self.tr_core = tracer.scoped("core");
    }

    /// Report a path state transition to the tracer (nothing if none).
    fn trace_path_state(&self, at: Instant, path: usize, from: PathState, to: PathState) {
        if from != to {
            let (path, from, to) = (path as u8, state_name(from), state_name(to));
            self.tr_quic.emit(at, Event::PathStatusChange { path, from, to });
        }
    }

    /// Report a QoE snapshot: the local player's under the policy layer's
    /// source, the peer's (it arrived in a frame) under the transport's.
    fn trace_qoe(&self, at: Instant, sent: bool, q: QoeSignal) {
        let QoeSignal { cached_frames, cached_bytes, bps, fps } = q;
        let tracer = if sent { &self.tr_core } else { &self.tr_quic };
        tracer.emit(at, Event::QoeSignal { sent, cached_frames, cached_bytes, bps, fps });
    }

    fn trace_cwnd(&self, now: Instant, path: usize) {
        let (cwnd, bytes_in_flight) = (self.paths[path].cc.window(), self.in_flight(path));
        self.tr_quic.emit(now, Event::CwndUpdate { path: path as u8, cwnd, bytes_in_flight });
    }

    /// Losses later proven spurious by a late ACK, summed across paths.
    pub fn spurious_losses(&self) -> u64 {
        let paths = self.paths.iter().map(|p| &p.space);
        paths.chain([&self.initial]).map(|s| s.recovery.spurious_losses()).sum()
    }

    /// Latest peer QoE feedback (server side).
    pub fn peer_qoe(&self) -> Option<&QoeSignal> {
        self.peer_qoe.as_ref()
    }

    /// Access streams.
    pub fn streams(&self) -> &StreamMap {
        &self.streams
    }

    /// Mutable access to streams.
    pub fn streams_mut(&mut self) -> &mut StreamMap {
        &mut self.streams
    }

    /// Whether re-injection is currently enabled (Alg. 1 output; exposed
    /// for the Fig. 6 dynamics probe).
    pub fn reinjection_enabled(&self) -> bool {
        let mdt = max_deliver_time(
            self.paths.iter().map(|p| (&p.rtt, p.space.recovery.has_ack_eliciting_in_flight())),
        );
        reinjection_decision(self.cfg.qoe_control, self.peer_qoe.as_ref(), mdt)
    }

    // ---------------------------------------------------------------
    // Application API
    // ---------------------------------------------------------------

    /// Open a bidirectional stream with a scheduling priority (lower =
    /// earlier video portion = more urgent).
    pub fn open_stream(&mut self, priority: u8) -> u64 {
        self.streams.open(priority)
    }

    /// Plain stream write (the standard QUIC API).
    pub fn stream_send(&mut self, id: u64, data: &[u8], fin: bool) {
        self.streams.write(id, data, None, fin);
    }

    /// The paper's `stream_send` API with video-frame priority: tags the
    /// byte span so frame-priority re-injection can accelerate it (§5.1,
    /// "position and size parameters that indicate the video frame's
    /// relative location").
    pub fn stream_send_with_frame_priority(
        &mut self,
        id: u64,
        data: &[u8],
        frame_priority: u8,
        fin: bool,
    ) {
        self.streams.write(id, data, Some(frame_priority), fin);
    }

    /// Read available data from a stream.
    pub fn stream_recv(&mut self, id: u64, max: usize) -> Vec<u8> {
        self.streams.read(id, max)
    }

    /// Feed the latest player QoE snapshot (client side). By default it
    /// rides on the next ACK_MP (paper Fig. 16); with
    /// `standalone_qoe_frames` it is sent immediately in its own
    /// QOE_CONTROL_SIGNALS frame whenever the snapshot changes — the
    /// draft's variant that is "not restricted by ACK frequency" (§6).
    pub fn set_qoe(&mut self, q: QoeSignal) {
        // Feedback is the extension's: until it is negotiated there is no
        // frame to carry a snapshot and nobody to act on it.
        if !self.multipath {
            return;
        }
        let changed = self.local_qoe != Some(q);
        self.local_qoe = Some(q);
        if changed {
            self.trace_qoe(self.life.last_activity(), true, q);
        }
        if self.cfg.standalone_qoe_frames && changed {
            self.streams.control.push(Frame::QoeControlSignals(q));
        }
    }

    /// Mark a path standby/available (sends PATH_STATUS).
    pub fn set_path_status(&mut self, path: usize, status: PathStatusKind) {
        let Some(p) = self.paths.get_mut(path) else {
            return;
        };
        p.status_seq += 1;
        let from = p.state;
        match status {
            PathStatusKind::Abandon => {
                p.state = PathState::Abandoned;
                p.probation = None;
            }
            PathStatusKind::Standby => p.state = PathState::Standby,
            PathStatusKind::Available => {
                if p.state != PathState::Abandoned {
                    // An explicit Available overrides any liveness
                    // verdict still pending on the path.
                    p.state = PathState::Active;
                    p.probation = None;
                }
            }
        }
        let (seq, to) = (p.status_seq, p.state);
        self.trace_path_state(self.life.last_activity(), path, from, to);
        self.streams.control.push(Frame::PathStatus { path_id: path as u64, seq, status });
        if status == PathStatusKind::Abandon {
            self.requeue_path_inflight(path);
        }
    }

    /// Close the connection. The CONNECTION_CLOSE goes out on the next
    /// [`MpConnection::poll_transmit`], which also starts the 3×PTO
    /// closing period (§10.2).
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
        self.keys.release();
        let _ = self.initial.recovery.drain_all();
        for p in &mut self.paths {
            p.response_pending = Vec::new();
            let _ = p.space.recovery.drain_all();
        }
    }

    /// Pin a PATH_RESPONSE to `path`, enforcing the per-path pending cap
    /// (§10): past [`MAX_PENDING_PATH_RESPONSES`] the oldest reply is
    /// dropped — an honest peer retransmits challenges it still needs.
    fn pin_response(&mut self, path: usize, data: [u8; 8]) {
        let q = &mut self.paths[path].response_pending;
        if q.len() >= MAX_PENDING_PATH_RESPONSES {
            q.remove(0);
            self.path_responses_dropped += 1;
        }
        self.paths[path].response_pending.push(data);
    }

    /// When a path dies, its in-flight stream data must be requeued so
    /// other paths can carry it.
    fn requeue_path_inflight(&mut self, path: usize) {
        let drained = self.paths[path].space.recovery.drain_all();
        for pkt in drained {
            for sent in pkt.content {
                match sent {
                    // Re-injected copies included: with the path gone, a
                    // copy may be all that was left of the range.
                    SentFrame::Stream { id, range, fin, .. } => {
                        if let Some(s) = self.streams.get_mut(id) {
                            s.send.on_range_lost(range, fin);
                        }
                    }
                    // Replies stay pinned even across a drain — the peer
                    // may still be waiting on the (possibly recovering)
                    // path. Re-pinning goes through the §10 cap.
                    SentFrame::Response(data) => {
                        self.pin_response(path, data);
                    }
                    _ => {}
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Liveness / failover (§9)
    // ---------------------------------------------------------------

    /// True when the failover machine is allowed to act: negotiated
    /// multipath, established, and the policy switch is on.
    fn liveness_active(&self) -> bool {
        self.cfg.liveness.enabled && self.multipath && self.is_established()
    }

    /// Mark a path Suspect: the scheduler stops picking it, its in-flight
    /// stays tracked (the failover re-injection source), and traffic
    /// shifts to the fastest survivor.
    fn suspect_path(&mut self, now: Instant, path: usize) {
        let from = self.paths[path].state;
        debug_assert!(matches!(from, PathState::Active | PathState::Standby));
        self.paths[path].suspect_from = from;
        self.paths[path].state = PathState::Suspect;
        self.paths[path].suspect_probes = 0;
        self.stats.path_suspects += 1;
        let stranded = self.paths[path].space.recovery.bytes_in_flight();
        self.trace_path_state(now, path, from, PathState::Suspect);
        self.trace_suspected(now, path);
        let to = self.fastest_active_path();
        self.tr_quic.emit(
            now,
            Event::PathFailover {
                from: path as u8,
                to: to.map_or(255, |t| t as u8),
                stranded_bytes: stranded,
            },
        );
    }

    /// Report that `path` is under suspicion: after how many PTOs, and how
    /// long its oldest unacknowledged packet has been out.
    fn trace_suspected(&self, now: Instant, path: usize) {
        let recovery = &self.paths[path].space.recovery;
        let sent = recovery.oldest_unacked_time();
        let silent_us = sent.map_or(0, |t| now.saturating_duration_since(t).as_micros());
        let (path, pto_count) = (path as u8, recovery.pto_count());
        self.tr_quic.emit(now, Event::PathSuspected { path, pto_count, silent_us });
    }

    /// Escalate a Suspect path to Probation: declare it blackholed,
    /// requeue its in-flight data onto survivors, and start the
    /// exponential-backoff PATH_CHALLENGE revalidation schedule.
    fn enter_probation(&mut self, now: Instant, path: usize) {
        self.requeue_path_inflight(path);
        self.paths[path].state = PathState::Probation;
        self.paths[path].probation = Some(Probation::start(now, &self.cfg.liveness));
        self.paths[path].challenge = None;
        self.paths[path].probe_pending = false;
        self.stats.path_probations += 1;
        self.trace_path_state(now, path, PathState::Suspect, PathState::Probation);
    }

    /// A probation path answered a challenge: rejoin with fresh
    /// congestion / RTT / PTO state (the dead incarnation's estimates
    /// are meaningless after an outage; cf. RFC 9000 §9.4).
    fn revalidate_path(&mut self, now: Instant, path: usize) {
        let probes = self.paths[path].probation.take().map_or(0, |pr| pr.probes_sent);
        // Anything still tracked from the probation window (responses,
        // stray pings) is requeued or dropped; stream data was already
        // requeued at probation entry.
        self.requeue_path_inflight(path);
        let back_to = self.paths[path].suspect_from;
        self.paths[path].state = back_to;
        self.paths[path].cc = self.cfg.cc.build();
        self.paths[path].rtt = RttEstimator::new();
        self.paths[path].space.recovery.reset_pto_count();
        self.paths[path].last_ack_time = now;
        self.stats.path_revalidations += 1;
        self.trace_path_state(now, path, PathState::Probation, back_to);
        self.tr_quic.emit(now, Event::PathRevalidated { path: path as u8, probes });
    }

    /// Reset tokens currently armed.
    pub fn reset_token_count(&self) -> usize {
        self.oracle.count()
    }

    /// The §10.3 oracle recognised an unintelligible datagram on `path`:
    /// the peer provably lost the state behind it. Without multipath that
    /// is the connection: it closes as [`ConnectionError::Reset`] at once
    /// instead of idling into PTO / idle-timeout exhaustion. With it,
    /// losing one path's peer state kills only that path, which is sent
    /// straight to probation (no Suspect dwell, no PTO counting) while
    /// traffic fails over to the survivors.
    fn on_stateless_reset(&mut self, now: Instant, path: usize) {
        self.stats.stateless_resets += 1;
        self.tr_quic.emit(now, Event::StatelessReset { path: path as u8 });
        if !self.multipath {
            self.life.on_reset();
            return self.free_state();
        }
        match self.paths[path].state {
            PathState::Active | PathState::Standby => {
                self.suspect_path(now, path);
                self.enter_probation(now, path);
            }
            PathState::Suspect => self.enter_probation(now, path),
            _ => {}
        }
    }

    /// Run the suspicion / escalation checks. Called from `on_timeout`
    /// after per-path recovery timers have fired.
    fn liveness_pass(&mut self, now: Instant) {
        if !self.liveness_active() || self.keys.one_rtt().is_none() {
            return;
        }
        let lv = self.cfg.liveness;
        for i in 0..self.paths.len() {
            match self.paths[i].state {
                PathState::Active | PathState::Standby => {
                    let p = &self.paths[i];
                    let ptos = p.space.recovery.pto_count();
                    let silent_since = p.silent_since();
                    let silent = p.space.recovery.has_ack_eliciting_in_flight()
                        && now.saturating_duration_since(silent_since) >= lv.ack_silence;
                    if ptos >= lv.suspect_after_ptos || silent {
                        self.suspect_path(now, i);
                        if self.paths[i].space.recovery.pto_count() >= lv.blackhole_after_ptos {
                            self.enter_probation(now, i);
                        }
                    }
                }
                PathState::Suspect => {
                    if self.paths[i].space.recovery.pto_count() >= lv.blackhole_after_ptos {
                        self.enter_probation(now, i);
                    }
                }
                _ => {}
            }
        }
    }

    // ---------------------------------------------------------------
    // Receive path
    // ---------------------------------------------------------------

    /// Ingest a datagram that arrived on network path `path`.
    pub fn handle_datagram(&mut self, now: Instant, path: usize, datagram: &[u8]) {
        if path >= self.paths.len() {
            self.stats.packets_dropped += 1;
            return;
        }
        self.stats.bytes_received += datagram.len() as u64;
        self.paths[path].bytes_received += datagram.len() as u64;
        if self.life.absorb_if_closed() {
            return;
        }
        // Long headers number in the Initial space, short ones in the
        // arrival path's.
        let long = datagram.first().is_some_and(|b| b & 0x80 != 0);
        let space = if long { &mut self.initial } else { &mut self.paths[path].space };
        let (header, frames) = match self.keys.open_datagram(datagram, space, path, &self.oracle) {
            Opened::Packet { header, frames } => (header, frames),
            Opened::Duplicate => return,
            Opened::Undecryptable { reset: true } => return self.on_stateless_reset(now, path),
            // Noise — or a Retry, which no multipath client asks for.
            Opened::Undecryptable { reset: false } | Opened::Retry(_) => {
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
            self.remote_cid0 = header.scid;
            // The primary path's DCID is the peer's handshake CID.
            self.paths[self.primary].dcid = header.scid;
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

    /// One frame of a packet that arrived on `arrival_path`, in the Initial
    /// space (`initial`) or the path's own.
    fn on_frame(&mut self, now: Instant, arrival_path: usize, initial: bool, frame: Frame) {
        match frame {
            Frame::Crypto { data, .. } => match self.keys.on_peer_hello(&data) {
                Ok(true) => {
                    self.multipath = self.keys.handshake().multipath_negotiated();
                    if let Some(p) = self.keys.handshake().peer_params() {
                        self.streams.on_max_data(p.initial_max_data);
                    }
                    self.life.establish();
                    self.tr_quic.emit(now, Event::HandshakeComplete { multipath: self.multipath });
                }
                // A retransmitted hello: the Initial space's own PTO and
                // loss detection re-fire ours if it was lost.
                Ok(false) => {}
                Err((e, why)) => self.close(e, why),
            },
            Frame::Ack(ack) => {
                // Plain ACK: the Initial space's, or (before multipath is
                // negotiated, or without it) the primary path's.
                self.on_ack(now, self.primary, initial, ack);
            }
            // The extension's frames on a connection that did not negotiate
            // it are a protocol violation.
            Frame::AckMp(_) | Frame::PathStatus { .. } | Frame::QoeControlSignals(_)
                if !self.multipath =>
            {
                self.close(
                    TransportError::ProtocolViolation,
                    "multipath frame without negotiation",
                );
            }
            Frame::AckMp(ack) => {
                let space = ack.path_id as usize;
                if space >= self.paths.len() {
                    self.close(TransportError::MultipathError, "unknown path in ACK_MP");
                    return;
                }
                if let Some(q) = ack.qoe {
                    self.peer_qoe = Some(q);
                    self.trace_qoe(now, false, q);
                }
                self.on_ack(now, space, false, ack);
            }
            Frame::NewConnectionId(ic) => {
                // Acknowledge any Retire Prior To the frame carries so the
                // issuer can free the old routing entries.
                for seq in self.cids.store_remote(ic) {
                    self.streams.control.push(Frame::RetireConnectionId { seq });
                }
                // Bind the CID with seq == path id to that path.
                let seq = ic.seq as usize;
                if seq < self.paths.len() {
                    self.paths[seq].dcid = ic.cid;
                    // Arm the per-path death oracle with the token the
                    // issuer bound to this CID.
                    if let Some(tok) = ic.reset_token {
                        self.oracle.remember(seq, tok);
                    }
                }
            }
            Frame::PathChallenge(data) => {
                // Respond on the same path: a challenge validates the
                // path it travelled, so the reply is pinned to the
                // arrival path rather than the shared control queue
                // (which may transmit on any path). The per-path pending
                // cap absorbs challenge floods (§10).
                self.pin_response(arrival_path, data);
            }
            Frame::PathResponse(data) => {
                // A PATH_RESPONSE may return on a different path than the
                // challenged one (especially with fastest-path ACK
                // strategies on the peer); match by payload.
                let Some(i) = self.paths.iter().position(|p| p.challenge == Some(data)) else {
                    return;
                };
                self.paths[i].challenge = None;
                match self.paths[i].state {
                    PathState::Validating => {
                        self.paths[i].state = PathState::Active;
                        self.trace_path_state(now, i, PathState::Validating, PathState::Active);
                    }
                    PathState::Probation => self.revalidate_path(now, i),
                    _ => {}
                }
            }
            Frame::ConnectionClose { error_code, .. } => {
                // §10.2: a peer-initiated close moves us to draining —
                // stay silent and expire 3×PTO from now.
                self.life.on_peer_close(now, error_code, self.drain_pto(), &self.tr_quic);
            }
            Frame::PathStatus { path_id, seq: _, status } => {
                let pid = path_id as usize;
                if pid >= self.paths.len() {
                    return;
                }
                let from = self.paths[pid].state;
                match (status, from) {
                    (PathStatusKind::Abandon, _) => {
                        self.paths[pid].state = PathState::Abandoned;
                        self.paths[pid].probation = None;
                        self.requeue_path_inflight(pid);
                    }
                    (PathStatusKind::Standby, PathState::Active) => {
                        self.paths[pid].state = PathState::Standby;
                    }
                    (PathStatusKind::Available, PathState::Standby) => {
                        self.paths[pid].state = PathState::Active;
                    }
                    _ => {}
                }
                self.trace_path_state(now, pid, from, self.paths[pid].state);
            }
            Frame::QoeControlSignals(q) => {
                self.peer_qoe = Some(q);
                self.trace_qoe(now, false, q);
            }
            // Streams and flow control; PADDING, PING, HANDSHAKE_DONE,
            // RETIRE_CONNECTION_ID and the rest need nothing done.
            other => {
                if let Err((e, why)) = self.streams.on_frame(other) {
                    self.close(e, why);
                }
            }
        }
    }

    /// An ACK of path `space`'s packets — or, `initial`, of the Initial
    /// space's, which run on that (the primary) path's RTT and window.
    fn on_ack(&mut self, now: Instant, space: usize, initial: bool, ack: AckFrame) {
        let p = &mut self.paths[space];
        let pn_space = if initial { &mut self.initial } else { &mut p.space };
        let Ok(outcome) = pn_space.on_ack(now, &ack, &mut p.rtt) else {
            return self.close(TransportError::ProtocolViolation, "optimistic ack");
        };
        trace_rtt(&self.tr_quic, now, space, outcome.rtt_sample, &self.paths[space].rtt);
        if !outcome.acked.is_empty() {
            self.paths[space].last_ack_time = now;
            if std::mem::take(&mut self.paths[space].suspected) {
                let probes = std::mem::take(&mut self.paths[space].suspect_probes);
                self.tr_quic.emit(now, Event::PathRevalidated { path: space as u8, probes });
            }
            if self.paths[space].state == PathState::Suspect {
                // Ack progress contradicts the blackhole hypothesis: the
                // path rejoins in the state suspicion interrupted.
                let back_to = self.paths[space].suspect_from;
                self.paths[space].state = back_to;
                let probes = self.paths[space].suspect_probes;
                self.paths[space].suspect_probes = 0;
                self.stats.path_revalidations += 1;
                self.trace_path_state(now, space, PathState::Suspect, back_to);
                self.tr_quic.emit(now, Event::PathRevalidated { path: space as u8, probes });
            }
        }
        let mut cc_touched = false;
        for pkt in &outcome.acked {
            if pkt.ack_eliciting {
                let rtt = self.paths[space].rtt.smoothed();
                self.paths[space].cc.on_ack(now, pkt.time_sent, pkt.size, rtt);
                cc_touched = true;
            }
            self.tr_quic.emit(now, Event::PacketAcked { path: space as u8, pn: pkt.pn });
            for sent in &pkt.content {
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
                    other => self.streams.on_sent_frame_acked(other),
                }
            }
        }
        if cc_touched {
            self.trace_cwnd(now, space);
        }
        if !outcome.lost.is_empty() {
            self.on_packets_lost(now, space, outcome.lost);
        }
        if self.cfg.coupled_cc {
            self.recompute_coupling();
        }
    }

    fn recompute_coupling(&mut self) {
        let snapshot: Vec<(u64, Duration)> = self
            .paths
            .iter()
            .filter(|p| p.usable_for_data())
            .map(|p| (p.cc.window(), p.rtt.smoothed()))
            .collect();
        let alpha = xlink_quic::cc::CoupledLia::compute_alpha(&snapshot);
        for p in &mut self.paths {
            p.cc.set_coupling(alpha);
        }
    }

    fn on_packets_lost(
        &mut self,
        now: Instant,
        space: usize,
        lost: Vec<SentPacket<Vec<SentFrame>>>,
    ) {
        self.stats.packets_lost += lost.len() as u64;
        let mut newest: Option<Instant> = None;
        for pkt in lost {
            self.tr_quic.emit(
                now,
                Event::PacketLost { path: space as u8, pn: pkt.pn, bytes: pkt.size as u32 },
            );
            if pkt.in_flight {
                newest = Some(newest.map_or(pkt.time_sent, |t| t.max(pkt.time_sent)));
            }
            for sent in pkt.content {
                match sent {
                    SentFrame::Crypto => self.keys.hello_sent = false,
                    SentFrame::HandshakeDone => self.keys.done_sent = false,
                    SentFrame::Challenge(data) => {
                        // Re-arm the challenge for this path.
                        if self.paths[space].state == PathState::Validating {
                            self.paths[space].challenge = Some(data);
                            self.streams.control.push(Frame::PathChallenge(data));
                        }
                    }
                    SentFrame::Response(data) => {
                        // Stay pinned: the reply is only meaningful on
                        // the path the challenge arrived on. Goes through
                        // the §10 cap like a fresh challenge.
                        self.pin_response(space, data);
                    }
                    other => {
                        self.stats.stream_bytes_retransmitted +=
                            self.streams.on_sent_frame_lost(other);
                    }
                }
            }
        }
        if let Some(t) = newest {
            self.paths[space].cc.on_congestion_event(now, t);
            self.trace_cwnd(now, space);
        }
    }

    // ---------------------------------------------------------------
    // Transmit path
    // ---------------------------------------------------------------

    /// Produce the next (network path, datagram) to transmit.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        if self.is_closed() {
            // Closing (§10.2): the CONNECTION_CLOSE — once sent, the 3×PTO
            // drain timer runs, the connection sending nothing but this
            // frame from here on — then its rate-limited replays on
            // continued peer traffic.
            let (frame, _) = self.life.poll_close(now, self.drain_pto(), &self.tr_quic)?;
            let initial = self.keys.one_rtt().is_none();
            return Some(self.build_packet(now, self.primary, initial, &[frame], vec![], false));
        }
        // 1. Handshake on the primary path.
        if let Some((hello, retransmit)) = self.keys.next_hello(now, &self.tr_quic) {
            self.stats.handshake_retransmits += u64::from(retransmit);
            return Some(self.build_packet(now, self.primary, true, &[hello], vec![], true));
        }
        if !self.is_established() {
            // Still ack initial packets.
            return self.poll_ack(now);
        }
        // 2. Server HANDSHAKE_DONE.
        if self.cfg.side == Side::Server && !self.keys.done_sent {
            self.keys.done_sent = true;
            let done = [Frame::HandshakeDone];
            return Some(self.build_packet(now, self.primary, false, &done, vec![], true));
        }
        // 3. Advertise CIDs for the extra paths (both sides, once).
        if self.multipath && !self.cids_advertised {
            self.cids_advertised = true;
            for _ in 1..self.paths.len() {
                let mut issued = self.cids.issue_local();
                // Attach a §10.3 token so the peer can recognise this
                // endpoint losing the path's state (derivable again from
                // the secret — nothing extra is stored here).
                if let Some(secret) = self.cfg.reset_secret {
                    issued.reset_token = Some(reset::reset_token(secret, &issued.cid));
                }
                self.streams.control.push(Frame::NewConnectionId(issued));
            }
        }
        // 4. Client: initiate validation of extra paths once the peer has
        // provided CIDs for them.
        if self.multipath && self.cfg.side == Side::Client {
            if let Some(tx) = self.poll_path_validation(now) {
                return Some(tx);
            }
        }
        // 5. ACKs.
        if let Some(tx) = self.poll_ack(now) {
            return Some(tx);
        }
        // 6. PATH_RESPONSEs, pinned to the path the challenge arrived on
        // (RFC 9000 §8.2.2); a response also flows on Suspect/Probation
        // paths — answering there is how the peer revalidates them.
        for i in 0..self.paths.len() {
            if self.paths[i].response_pending.is_empty()
                || self.paths[i].state == PathState::Abandoned
            {
                continue;
            }
            let pending = std::mem::take(&mut self.paths[i].response_pending);
            let frames: Vec<Frame> = pending.iter().map(|&d| Frame::PathResponse(d)).collect();
            let infos: Vec<SentFrame> = pending.iter().map(|&d| SentFrame::Response(d)).collect();
            return Some(self.build_packet(now, i, false, &frames, infos, true));
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
                return Some(self.build_packet(now, i, false, &[Frame::Ping], vec![], true));
            }
        }
        // 9. Data. Without multipath there is one path and nothing to
        // decide; with it, new data or re-injection via the scheduler.
        if !self.multipath {
            return self.try_send_new_data(now, self.primary);
        }
        self.poll_data(now)
    }

    /// Pending-ACK transmission: the Initial space's in an Initial packet
    /// on the primary path, then the paths', honoring the ACK path policy.
    fn poll_ack(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        let primary = self.primary;
        let delay = now - self.paths[primary].last_recv_time;
        if let Some(ack) = self.initial.take_ack(0, delay) {
            self.stats.acks_sent += 1;
            let sent = vec![SentFrame::Ack { space: primary as u64, largest: ack.largest }];
            return Some(self.build_packet(now, primary, true, &[Frame::Ack(ack)], sent, false));
        }
        let space = (0..self.paths.len()).find(|&i| self.paths[i].space.ack_pending)?;
        let delay = now - self.paths[space].last_recv_time;
        let mut ack = self.paths[space].space.take_ack(space as u64, delay)?;
        // Before multipath negotiation (or on single-path fallback), use
        // plain ACK on the primary path.
        let sent = vec![SentFrame::Ack { space: space as u64, largest: ack.largest }];
        let (frame, send_path) = if !self.multipath {
            ack.path_id = 0;
            (Frame::Ack(ack), space)
        } else {
            // Attach the freshest QoE snapshot (client side) unless the
            // standalone-frame mode carries it separately.
            if !self.cfg.standalone_qoe_frames {
                ack.qoe = self.local_qoe;
            }
            let send_path = match self.cfg.ack_policy {
                AckPathPolicy::OriginalPath => space,
                AckPathPolicy::FastestPath => self.fastest_active_path().unwrap_or(space),
            };
            (Frame::AckMp(ack), send_path)
        };
        self.stats.acks_sent += 1;
        Some(self.build_packet(now, send_path, false, &[frame], sent, false))
    }

    fn fastest_active_path(&self) -> Option<usize> {
        self.paths
            .iter()
            .filter(|p| p.usable_for_data())
            .min_by_key(|p| (p.rtt.smoothed(), p.id))
            .map(|p| p.id)
    }

    /// Client-side extra-path validation: send PATH_CHALLENGE on each
    /// validating path that has a bound CID and no outstanding challenge.
    fn poll_path_validation(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        // Need an unused remote CID per extra path; they are bound by seq
        // on arrival (see NewConnectionId handling).
        for i in 0..self.paths.len() {
            if i == self.primary {
                continue;
            }
            let p = &self.paths[i];
            if p.state == PathState::Validating
                && p.challenge.is_none()
                && p.dcid != self.remote_cid0
            {
                return Some(self.send_challenge(now, i, 0xc4a1, i as u64, true));
            }
        }
        None
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

    /// New-data / re-injection transmission.
    fn poll_data(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        self.ledger.expire(now, Duration::from_secs(10));
        // The candidate list is rebuilt on every poll, in one allocation
        // the connection keeps.
        let mut candidates = std::mem::take(&mut self.sched_scratch);
        let tx = if self.cfg.scheduler == SchedulerKind::Redundant {
            // Redundant scheduler: send each fresh chunk on every path.
            self.poll_data_redundant(now, &mut candidates)
        } else {
            self.poll_data_scheduled(now, &mut candidates)
        };
        self.sched_scratch = candidates;
        tx
    }

    /// [`MpConnection::poll_data`] for the schedulers that pick one path.
    fn poll_data_scheduled(
        &mut self,
        now: Instant,
        candidates: &mut Vec<(usize, Duration, bool)>,
    ) -> Option<(usize, Vec<u8>)> {
        let sched_prof = prof::span!("core/sched_decide");
        self.fill_candidates(candidates);
        let path = match self.cfg.scheduler {
            SchedulerKind::MinRtt => min_rtt_choice(candidates),
            SchedulerKind::RoundRobin => self.rr.choose(candidates),
            SchedulerKind::Ecf => ecf_choice(candidates),
            // Invariant: poll_data() sends the Redundant arm to
            // poll_data_redundant().
            SchedulerKind::Redundant => unreachable!(),
        }?;
        drop(sched_prof);
        let policy = match self.cfg.scheduler {
            SchedulerKind::MinRtt => "minrtt",
            SchedulerKind::RoundRobin => "roundrobin",
            SchedulerKind::Ecf => "ecf",
            SchedulerKind::Redundant => "redundant",
        };
        // Priority preemption (Fig. 4b/4c): a re-injection candidate whose
        // (stream, frame) priority beats the best *unsent* data jumps the
        // queue — this is what lets a stranded first-video-frame packet
        // overtake later frames of its own stream.
        //
        // Failover (§9): while any path is Suspect, its stranded
        // in-flight must reach the receiver via survivors *now* — the
        // QoE gate is overridden for every re-injecting scheme. Schemes
        // with re-injection disabled outright (vanilla-MP) keep their
        // semantics and recover via the probation requeue instead.
        let gate_prof = prof::span!("core/qoe_gate");
        let failover = self.liveness_active()
            && self.paths.iter().any(|p| p.state == PathState::Suspect)
            && !matches!(self.cfg.qoe_control, QoeControl::AlwaysOff);
        let reinjection_on = self.reinjection_enabled() || failover;
        if self.gate_seen != Some(reinjection_on) {
            self.gate_seen = Some(reinjection_on);
            self.tr_core.emit(now, Event::ReinjectionGate { enabled: reinjection_on });
        }
        drop(gate_prof);
        if reinjection_on && (failover || self.reinject_preempts_new_data(path)) {
            if let Some(tx) = self.try_reinject(now, path) {
                return Some(tx);
            }
        }
        // New data on this path.
        if let Some(tx) = self.try_send_new_data(now, path) {
            self.tr_core.emit(now, Event::SchedulerDecision { path: path as u8, policy });
            return Some(tx);
        }
        // No new data eligible: consider re-injection (XLINK §5.1-5.2).
        if reinjection_on {
            if let Some(tx) = self.try_reinject(now, path) {
                return Some(tx);
            }
        }
        // Other paths may still have new-data room (e.g. the min-RTT path
        // was flow-control-limited for its streams — rare, but cover it).
        for &(i, _, ok) in candidates.iter() {
            if ok && i != path {
                if let Some(tx) = self.try_send_new_data(now, i) {
                    self.tr_core.emit(now, Event::SchedulerDecision { path: i as u8, policy });
                    return Some(tx);
                }
            }
        }
        None
    }

    /// The scheduler's view of the paths: `(path, srtt, usable now)` — a
    /// path sends while half a datagram of its window is left.
    fn fill_candidates(&self, candidates: &mut Vec<(usize, Duration, bool)>) {
        candidates.clear();
        candidates.extend(self.paths.iter().map(|p| {
            let usable = p.usable_for_data() && self.budget(p.id) >= MAX_DATAGRAM_SIZE / 2;
            (p.id, p.rtt.smoothed(), usable)
        }));
    }

    /// Build a datagram of fresh stream data + control frames for `path`.
    fn try_send_new_data(&mut self, now: Instant, path: usize) -> Option<(usize, Vec<u8>)> {
        if self.budget(path) < MAX_DATAGRAM_SIZE / 2 {
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

    /// Candidate unacked ranges for re-injection onto `target`: stream
    /// ranges in flight on *other* paths, not yet copied to `target`.
    fn reinject_candidates(&self, target: usize) -> Vec<(u64, SendRange, bool, u8)> {
        let mut out = Vec::new();
        for p in &self.paths {
            if p.id == target || p.state == PathState::Abandoned {
                continue;
            }
            for pkt in p.space.recovery.unacked() {
                for info in &pkt.content {
                    let SentFrame::Stream { id, range, fin, .. } = info else {
                        continue;
                    };
                    if range.is_empty() && !fin {
                        continue;
                    }
                    let Some(stream) = self.streams.get(*id) else {
                        continue;
                    };
                    // Skip if fully acked at the stream level already.
                    let unacked = stream.send.unacked_in_flight();
                    let still_needed =
                        unacked.iter().any(|u| u.start < range.end && range.start < u.end)
                            || (*fin && stream.send.fin_pending());
                    if !still_needed && !range.is_empty() {
                        continue;
                    }
                    let key = ReinjectKey { stream_id: *id, start: range.start, path: target };
                    if self.ledger.contains(&key) {
                        continue;
                    }
                    // Also skip if target already carries this range.
                    let dup_on_target = self.paths[target].space.recovery.unacked().any(|tp| {
                        tp.content.iter().any(|ti| {
                            matches!(ti, SentFrame::Stream { id: tid, range: tr, .. }
                                if tid == id && tr.start < range.end && range.start < tr.end)
                        })
                    });
                    if dup_on_target {
                        continue;
                    }
                    let prio = stream.send.priority_of(range.start);
                    out.push((*id, *range, *fin, prio));
                }
            }
        }
        out
    }

    /// Where data queues under the configured re-injection mode (Fig. 4),
    /// lower first: by stream priority, within which frame-priority mode
    /// also ranks by video-frame priority.
    fn rank(&self, stream_id: u64, frame_priority: u8) -> (u8, u8) {
        let stream = self.streams.get(stream_id).map_or(u8::MAX, |st| st.priority);
        match self.cfg.reinject_mode {
            ReinjectMode::FramePriority => (stream, frame_priority),
            _ => (stream, 0),
        }
    }

    /// The rank of the most urgent unsent data, if any stream has some.
    fn best_pending_rank(&self) -> Option<(u8, u8)> {
        self.streams
            .iter()
            .filter(|st| st.send.has_pending())
            .map(|st| self.rank(st.id, st.send.next_pending_priority().unwrap_or(u8::MAX)))
            .min()
    }

    /// True when the best re-injection candidate outranks the best unsent
    /// data under the configured mode (the preemption rules of Fig. 4):
    /// appending never preempts; stream-priority preempts strictly
    /// lower-priority streams; frame-priority also preempts lower-priority
    /// frames of the same stream. With nothing unsent, re-injection is
    /// trivially first.
    fn reinject_preempts_new_data(&self, path: usize) -> bool {
        if self.cfg.reinject_mode == ReinjectMode::Appending {
            return false;
        }
        let cands = self.reinject_candidates(path);
        let best = cands.iter().map(|&(id, _, _, fprio)| self.rank(id, fprio)).min();
        best.is_some_and(|best| self.best_pending_rank().is_none_or(|pending| best < pending))
    }

    /// Re-inject unacked data from other paths onto `path`, ordered by the
    /// configured mode (paper Fig. 4).
    fn try_reinject(&mut self, now: Instant, path: usize) -> Option<(usize, Vec<u8>)> {
        let _prof = prof::span!("core/reinject");
        let mut cands = self.reinject_candidates(path);
        if cands.is_empty() {
            return None;
        }
        if self.cfg.reinject_mode == ReinjectMode::Appending {
            // Appending mode: re-injection only allowed when no stream
            // has unsent data at all (it sits at the queue tail).
            if self.streams.iter().any(|s| s.send.has_pending()) {
                return None;
            }
            // FIFO by stream then offset.
            cands.sort_by_key(|&(id, r, _, _)| (id, r.start));
        } else {
            // Re-injected data may overtake unsent data ranked strictly
            // after it, never unsent data of the same or a better rank: a
            // lower-priority stream's in stream-priority mode (Fig. 4b);
            // in frame-priority mode also a lower-priority frame's of its
            // own stream, which is how the first video frame gets ahead
            // (Fig. 4c).
            let pending = self.best_pending_rank();
            cands.retain(|&(id, _, _, fprio)| pending.is_none_or(|p| self.rank(id, fprio) <= p));
            cands.sort_by_cached_key(|&(id, r, _, fprio)| (self.rank(id, fprio), id, r.start));
        }
        if cands.is_empty() {
            return None;
        }
        // Pack candidates into one datagram.
        let mut packet = PacketBuilder::new(self.next_header(path, false));
        let mut infos = Vec::new();
        let mut remaining = (MAX_DATAGRAM_SIZE as usize - 64).min(self.budget(path) as usize);
        for (id, range, fin, _) in cands {
            if remaining < 48 {
                break;
            }
            let max_payload = (remaining - 24) as u64;
            let end = range.end.min(range.start + max_payload);
            let sub = SendRange { start: range.start, end };
            self.ledger.record(ReinjectKey { stream_id: id, start: sub.start, path }, now);
            self.stats.reinjected_bytes += sub.len();
            self.stats.reinjections += 1;
            self.tr_core.emit(
                now,
                Event::Reinjection {
                    path: path as u8,
                    stream_id: id,
                    offset: sub.start,
                    len: sub.len(),
                },
            );
            remaining = remaining.saturating_sub(sub.len() as usize + 24);
            let fin_here = fin && end == range.end;
            // Invariant: candidates come from the ledger scan over
            // streams that existed this poll — never peer input.
            let stream = self.streams.get(id).expect("stream exists");
            Frame::encode_stream(packet.frames(), id, sub.start, stream.send.data(sub), fin_here);
            infos.push(SentFrame::Stream { id, range: sub, fin: fin_here, reinjected: true });
        }
        if infos.is_empty() {
            return None;
        }
        Some(self.finish_packet(now, path, packet, infos, true))
    }

    /// Redundant baseline: duplicate fresh data on all paths.
    fn poll_data_redundant(
        &mut self,
        now: Instant,
        candidates: &mut Vec<(usize, Duration, bool)>,
    ) -> Option<(usize, Vec<u8>)> {
        // Send new data on the fastest path; copies on the others follow
        // through the re-injection machinery (which, with AlwaysOn
        // control, will clone everything).
        self.fill_candidates(candidates);
        let path = min_rtt_choice(candidates)?;
        if let Some(tx) = self.try_send_new_data(now, path) {
            self.tr_core
                .emit(now, Event::SchedulerDecision { path: path as u8, policy: "redundant" });
            return Some(tx);
        }
        for &(i, _, ok) in candidates.iter() {
            if ok {
                if let Some(tx) = self.try_reinject(now, i) {
                    return Some(tx);
                }
            }
        }
        None
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

    /// The header of the next packet to be sent on `path`.
    fn next_header(&self, path: usize, initial: bool) -> Header {
        let p = &self.paths[path];
        let (ty, space) = if initial {
            (PacketType::Initial, &self.initial)
        } else {
            (PacketType::OneRtt, &p.space)
        };
        space.next_header(ty, p.dcid, self.local_cid0, Vec::new())
    }

    /// Seal `packet` (started from [`MpConnection::next_header`] of the
    /// same `path`) and account for it as sent.
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
        let datagram = self.keys.finish_packet(
            now,
            space,
            path,
            packet,
            content,
            ack_eliciting,
            &self.tr_quic,
        );
        let size = datagram.len() as u64;
        p.bytes_sent += size;
        p.last_send_time = now;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += size;
        let (cwnd, in_flight) = (p.cc.window(), self.in_flight(path));
        if let Some(probe) = &mut self.probe_cwnd {
            probe.push((now, path, cwnd, in_flight));
        }
        (path, datagram)
    }

    // ---------------------------------------------------------------
    // Timers
    // ---------------------------------------------------------------

    /// Earliest timer deadline.
    pub fn poll_timeout(&self) -> Option<Instant> {
        if self.is_closed() {
            return self.life.drain_deadline();
        }
        let mad = self.cfg.params.max_ack_delay;
        let mut t = self.life.idle_deadline();
        if let Some(lt) = self.initial.recovery.next_timeout(&self.paths[self.primary].rtt, mad) {
            t = t.min(lt);
        }
        for p in &self.paths {
            if let Some(lt) = p.space.recovery.next_timeout(&p.rtt, mad) {
                t = t.min(lt);
            }
        }
        if let Some(k) = self.cfg.keepalive.filter(|_| self.is_established()) {
            for p in self.paths.iter().filter(|p| p.hears_keepalives()) {
                t = t.min(p.last_heard.max(p.last_keepalive) + k);
            }
        }
        if self.liveness_active() {
            let lv = &self.cfg.liveness;
            for p in &self.paths {
                match p.state {
                    PathState::Active | PathState::Standby => {
                        // Ack-silence suspicion deadline.
                        if p.space.recovery.has_ack_eliciting_in_flight() {
                            let silent_since = p.silent_since();
                            t = t.min(silent_since + lv.ack_silence);
                        }
                    }
                    PathState::Probation => {
                        if let Some(pr) = &p.probation {
                            t = t.min(pr.next_probe_at);
                        }
                    }
                    _ => {}
                }
            }
        }
        Some(t)
    }

    /// Handle a timer firing.
    pub fn on_timeout(&mut self, now: Instant) {
        match self.life.on_timeout(now, &self.tr_quic) {
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
        let mad = self.cfg.params.max_ack_delay;
        let (primary, handshake) = (self.primary, &mut self.initial.recovery);
        let rtt = &self.paths[primary].rtt;
        if handshake.next_timeout(rtt, mad).is_some_and(|deadline| now >= deadline) {
            match handshake.on_timeout(now, rtt) {
                TimeoutOutcome::Lost(lost) => self.on_packets_lost(now, primary, lost),
                // The Initial space's probe is the hello again.
                TimeoutOutcome::SendProbe => self.keys.hello_sent = false,
            }
        }
        for i in 0..self.paths.len() {
            let p = &mut self.paths[i];
            if p.space.recovery.next_timeout(&p.rtt, mad).is_none_or(|deadline| now < deadline) {
                continue;
            }
            match p.space.recovery.on_timeout(now, &p.rtt) {
                TimeoutOutcome::Lost(lost) => self.on_packets_lost(now, i, lost),
                TimeoutOutcome::SendProbe => {
                    let p = &mut self.paths[i];
                    p.probe_pending = true;
                    if p.state == PathState::Suspect || p.suspected {
                        p.suspect_probes += 1;
                    } else if !self.multipath && p.space.recovery.pto_count() >= SUSPECT_AFTER_PTOS
                    {
                        p.suspected = true;
                        self.trace_suspected(now, i);
                    }
                }
            }
        }
        self.liveness_pass(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_quic::ackranges::AckRanges;
    use xlink_quic::packet::{pn_encode_len, pn_truncate};

    fn client_cfg(seed: u64) -> MpConfig {
        MpConfig::xlink_client(seed, vec![WirelessTech::Wifi, WirelessTech::Lte])
    }

    fn server_cfg(seed: u64) -> MpConfig {
        MpConfig::xlink_server(seed, 2)
    }

    /// Shuttle datagrams directly between two MpConnections over perfect
    /// zero-latency paths (state machine tests only; real link dynamics
    /// are exercised through xlink-netsim in the harness tests).
    fn pump(now: &mut Instant, a: &mut MpConnection, b: &mut MpConnection) {
        for _ in 0..4000 {
            let mut any = false;
            while let Some((path, d)) = a.poll_transmit(*now) {
                b.handle_datagram(*now, path, &d);
                any = true;
            }
            while let Some((path, d)) = b.poll_transmit(*now) {
                a.handle_datagram(*now, path, &d);
                any = true;
            }
            if !any {
                let next = [a.poll_timeout(), b.poll_timeout()].into_iter().flatten().min();
                match next {
                    Some(t) if t <= *now + Duration::from_millis(200) => {
                        *now = t;
                        a.on_timeout(*now);
                        b.on_timeout(*now);
                    }
                    _ => break,
                }
            } else {
                *now += Duration::from_micros(200);
            }
        }
    }

    fn pair() -> (MpConnection, MpConnection, Instant) {
        let now = Instant::ZERO;
        (MpConnection::new(client_cfg(1), now), MpConnection::new(server_cfg(2), now), now)
    }

    /// Like [`pump`], but datagrams on `dead` paths vanish in both
    /// directions and timers are chased up to `horizon` ahead — enough
    /// to drive PTO backoff, suspicion and probation schedules.
    fn pump_blackhole(
        now: &mut Instant,
        a: &mut MpConnection,
        b: &mut MpConnection,
        dead: &[usize],
        horizon: Duration,
    ) {
        let end = *now + horizon;
        for _ in 0..20_000 {
            let mut any = false;
            while let Some((path, d)) = a.poll_transmit(*now) {
                any = true;
                if !dead.contains(&path) {
                    b.handle_datagram(*now, path, &d);
                }
            }
            while let Some((path, d)) = b.poll_transmit(*now) {
                any = true;
                if !dead.contains(&path) {
                    a.handle_datagram(*now, path, &d);
                }
            }
            if !any {
                let next = [a.poll_timeout(), b.poll_timeout()].into_iter().flatten().min();
                match next {
                    Some(t) if t <= end => {
                        *now = t.max(*now + Duration::from_micros(1));
                        a.on_timeout(*now);
                        b.on_timeout(*now);
                    }
                    _ => break,
                }
            } else {
                *now += Duration::from_micros(200);
            }
        }
    }

    #[test]
    fn multipath_handshake_and_negotiation() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established());
        assert!(s.is_established());
        assert!(c.multipath_negotiated());
        assert!(s.multipath_negotiated());
    }

    #[test]
    fn extra_paths_validate() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        assert_eq!(c.paths()[0].state, PathState::Active);
        assert_eq!(c.paths()[1].state, PathState::Active, "client path 1 should validate");
        assert_eq!(s.paths()[1].state, PathState::Active, "server path 1 should activate");
    }

    #[test]
    fn stateless_reset_is_an_authoritative_path_death_signal() {
        let start = Instant::ZERO;
        let secret = 0x5eed_0dd5_ec4e_0001;
        let mut scfg = server_cfg(2);
        scfg.reset_secret = Some(secret);
        let mut c = MpConnection::new(client_cfg(1), start);
        let mut s = MpConnection::new(scfg, start);
        let mut now = start;
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established() && c.multipath_negotiated());
        assert_eq!(c.paths()[1].state, PathState::Active);
        assert_eq!(c.reset_token_count(), 1, "server NCID must arm the path-1 oracle");

        // The server's path-1 state evaporates (say, its shard was
        // crash-restarted): it answers the client's next path-1 packet
        // with a stateless reset built from that path's DCID.
        let dcid = c.paths()[1].dcid;
        let dgram = reset::build_stateless_reset(secret, &dcid);
        let before = c.stats().packets_dropped;
        c.handle_datagram(now, 1, &dgram);
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
        c.handle_datagram(now, 1, &noise);
        assert_eq!(c.stats().stateless_resets, 1);
        assert_eq!(c.stats().packets_dropped, before + 1);
        // ...and a genuine reset replayed onto the wrong path does not
        // fire either: the oracle is armed per path.
        c.handle_datagram(now, 0, &dgram);
        assert_eq!(c.stats().stateless_resets, 1);
        assert_eq!(c.paths()[0].state, PathState::Active);
    }

    /// Residue row 13: with nothing negotiated there is no other path to
    /// fail over to, and a stateless reset means what RFC 9000 §10.3.1 says.
    #[test]
    fn stateless_reset_closes_a_connection_that_negotiated_nothing() {
        let now = Instant::ZERO;
        let mut c = MpConnection::new(client_cfg(1), now);
        let mut srv_cfg = server_cfg(2);
        srv_cfg.enable_multipath = false;
        let mut s = MpConnection::new(srv_cfg, now);
        let mut now = now;
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established() && !c.multipath_negotiated());
        let (secret, dcid) = (0x5eed, c.paths()[0].dcid);
        c.oracle.remember(0, reset::reset_token(secret, &dcid));
        c.handle_datagram(now, 0, &reset::build_stateless_reset(secret ^ 1, &dcid));
        assert!(!c.is_closed(), "a reset under another secret is noise");
        c.handle_datagram(now, 0, &reset::build_stateless_reset(secret, &dcid));
        assert_eq!(c.close_error(), Some(&ConnectionError::Reset));
        assert!(c.is_drained() && c.poll_transmit(now).is_none(), "dead at once, and silent");
        assert_eq!(c.stats().stateless_resets, 1);
    }

    #[test]
    fn fallback_to_single_path_when_peer_refuses() {
        let now = Instant::ZERO;
        let mut c = MpConnection::new(client_cfg(1), now);
        let mut srv_cfg = server_cfg(2);
        srv_cfg.enable_multipath = false;
        let mut s = MpConnection::new(srv_cfg, now);
        let mut now = now;
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established());
        assert!(!c.multipath_negotiated());
        // Extra path never validates.
        assert_eq!(c.paths()[1].state, PathState::Validating);
        // Data still flows on the primary.
        let id = c.open_stream(0);
        c.stream_send(id, b"hello", true);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.stream_recv(id, 100), b"hello");
    }

    #[test]
    fn bidirectional_transfer_over_multipath() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"GET /chunk", true);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.stream_recv(id, 100), b"GET /chunk");
        let body = vec![7u8; 100_000];
        s.stream_send(id, &body, true);
        let mut got = Vec::new();
        for _ in 0..200 {
            pump(&mut now, &mut c, &mut s);
            got.extend(c.stream_recv(id, usize::MAX));
            if got.len() == body.len() {
                break;
            }
            now += Duration::from_millis(2);
        }
        assert_eq!(got, body);
        // Both paths carried traffic (min-RTT will spill over with equal
        // zero-delay paths as cwnd fills).
        assert!(s.paths()[0].bytes_sent > 0);
    }

    /// The single-buffer builder against the owned codec: a 1-RTT datagram
    /// is `Header::encode() ‖ AeadKey::seal(path, header, Σ Frame::encode)`
    /// under the path's nonce, and the in-place receive path reads the same
    /// stream bytes out of it.
    #[test]
    fn one_rtt_datagram_equals_the_owned_codec() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        let body: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        c.stream_send(id, &body, true);
        let next_pn: Vec<(u64, u8)> = c
            .paths
            .iter()
            .map(|p| {
                let pn = p.space.recovery.peek_pn();
                (pn, pn_encode_len(pn, p.space.recovery.largest_acked()))
            })
            .collect();
        let (path, datagram) = c.poll_transmit(now).expect("stream data to send");
        let (pn, pn_len) = next_pn[path];
        let header = Header {
            ty: PacketType::OneRtt,
            dcid: c.paths[path].dcid,
            scid: c.local_cid0,
            pn: pn_truncate(pn, pn_len),
            pn_len,
            token: Vec::new(),
        }
        .encode();

        let key = c.keys.one_rtt().unwrap().client.clone();
        assert_eq!(&datagram[..header.len()], &header[..]);
        let plain =
            key.open(path as u32, pn, &header, &datagram[header.len()..]).expect("authentic");
        let frames = Frame::decode_all(&plain).unwrap();
        let [Frame::Stream { stream_id, offset: 0, data, fin: false }] = &frames[..] else {
            panic!("expected one STREAM frame, got {frames:?}");
        };
        assert_eq!(*stream_id, id);
        assert!(data.len() > 1200, "a full-size packet");
        assert_eq!(data[..], body[..data.len()]);

        let mut payload = xlink_quic::varint::Writer::new();
        frames.iter().for_each(|f| f.encode(&mut payload));
        let sealed = key.seal(path as u32, pn, &header, payload.as_slice());
        assert_eq!(datagram, [header.clone(), sealed].concat());

        s.handle_datagram(now, path, &datagram);
        assert_eq!(s.stream_recv(id, usize::MAX)[..], body[..data.len()]);
    }

    #[test]
    fn qoe_feedback_reaches_server() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.set_qoe(QoeSignal { cached_bytes: 5000, cached_frames: 10, bps: 1_000_000, fps: 30 });
        // Trigger traffic so ACK_MPs flow.
        let id = c.open_stream(0);
        c.stream_send(id, b"req", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_send(id, &vec![0u8; 5000], true);
        pump(&mut now, &mut c, &mut s);
        let q = s.peer_qoe().expect("server should have QoE feedback");
        assert_eq!(q.cached_frames, 10);
        assert_eq!(q.fps, 30);
    }

    #[test]
    fn reinjection_decision_follows_controller() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        // High buffer → off.
        s.peer_qoe = Some(QoeSignal { cached_bytes: 0, cached_frames: 300, bps: 0, fps: 30 });
        assert!(!s.reinjection_enabled());
        // Low buffer → on.
        s.peer_qoe = Some(QoeSignal { cached_bytes: 0, cached_frames: 1, bps: 0, fps: 30 });
        assert!(s.reinjection_enabled());
    }

    #[test]
    fn vanilla_never_reinjects() {
        let now = Instant::ZERO;
        let mut c = MpConnection::new(client_cfg(1).vanilla(), now);
        let mut s = MpConnection::new(server_cfg(2).vanilla(), now);
        let mut now = now;
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_send(id, &vec![1u8; 200_000], true);
        for _ in 0..100 {
            pump(&mut now, &mut c, &mut s);
            c.stream_recv(id, usize::MAX);
            now += Duration::from_millis(2);
        }
        assert_eq!(s.stats().reinjected_bytes, 0);
        assert_eq!(s.stats().redundancy_ratio(), 0.0);
    }

    #[test]
    fn always_on_reinjects_under_idle_capacity() {
        let now = Instant::ZERO;
        let mut ccfg = client_cfg(1);
        ccfg.qoe_control = QoeControl::AlwaysOn;
        let mut scfg = server_cfg(2);
        scfg.qoe_control = QoeControl::AlwaysOn;
        let mut c = MpConnection::new(ccfg, now);
        let mut s = MpConnection::new(scfg, now);
        let mut now = now;
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        // Server sends a modest object; with AlwaysOn and two idle paths,
        // some bytes should be proactively duplicated before acks return.
        s.stream_send(id, &vec![2u8; 20_000], true);
        // Drain server sends without acks so unacked_q is non-empty.
        let mut sent = Vec::new();
        while let Some((path, d)) = s.poll_transmit(now) {
            sent.push((path, d));
        }
        assert!(s.stats().reinjected_bytes > 0, "expected proactive duplication");
        // Deliver everything (duplicates included) — client must see
        // exactly the original bytes.
        for (path, d) in sent {
            c.handle_datagram(now, path, &d);
        }
        let got = c.stream_recv(id, usize::MAX);
        assert_eq!(got, vec![2u8; 20_000]);
        // Receiver counted duplicate bytes.
        let dup: u64 = c.streams().iter().map(|st| st.recv.duplicate_bytes()).sum();
        assert!(dup > 0, "receiver should observe duplicates");
    }

    #[test]
    fn path_status_standby_excludes_from_scheduling() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.set_path_status(1, PathStatusKind::Standby);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.paths()[1].state, PathState::Standby);
        assert_eq!(c.paths()[1].state, PathState::Standby);
        // All new data goes to path 0 now.
        let before = c.paths()[1].bytes_sent;
        let id = c.open_stream(0);
        c.stream_send(id, &vec![0u8; 50_000], true);
        pump(&mut now, &mut c, &mut s);
        // Path 1 may still carry ACKs; but no significant data growth.
        let after = c.paths()[1].bytes_sent;
        assert!(after - before < 5_000, "standby path carried data: {}", after - before);
    }

    #[test]
    fn abandon_requeues_inflight_data() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_send(id, &vec![3u8; 100_000], true);
        // Let the server push some packets out (unacked on both paths).
        for _ in 0..10 {
            if s.poll_transmit(now).is_none() {
                break;
            }
        }
        // Abandon path 1: its in-flight data must be requeued and the
        // transfer must still complete over path 0.
        s.set_path_status(1, PathStatusKind::Abandon);
        let mut got = Vec::new();
        for _ in 0..300 {
            pump(&mut now, &mut c, &mut s);
            got.extend(c.stream_recv(id, usize::MAX));
            if got.len() == 100_000 {
                break;
            }
            now += Duration::from_millis(5);
        }
        assert_eq!(got.len(), 100_000);
        assert!(got.iter().all(|&b| b == 3));
    }

    #[test]
    fn frame_priority_tagging_flows_through() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = s.open_stream(0);
        // Server-initiated push with a tagged first frame.
        s.stream_send_with_frame_priority(id, &vec![9u8; 3000], 0, false);
        s.stream_send(id, &vec![8u8; 3000], true);
        pump(&mut now, &mut c, &mut s);
        let got = c.stream_recv(id, usize::MAX);
        assert_eq!(got.len(), 6000);
        assert!(got[..3000].iter().all(|&b| b == 9));
    }

    #[test]
    fn idle_timeout_closes_connection() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        // Keepalive deadlines fire first; with poll_transmit never
        // called the owed PINGs are suppressed from the timer and the
        // idle deadline is reached in a few steps.
        for _ in 0..8 {
            now = c.poll_timeout().unwrap() + Duration::from_millis(1);
            c.on_timeout(now);
            if c.is_closed() {
                break;
            }
        }
        assert!(c.is_closed());
        let _ = s;
    }

    /// Residue row 3: the idle timer measures the peer's liveness, so only
    /// receipts restart it. A sender PTO-probing a dead peer (every 2 s at
    /// most, for ever) must still idle out `max_idle_timeout` after the last
    /// thing it heard.
    #[test]
    fn a_one_path_connection_probing_a_dead_peer_idles_out() {
        let now0 = Instant::ZERO;
        let one_path = |cfg: MpConfig| MpConfig { enable_multipath: false, ..cfg.vanilla() };
        let mut c =
            MpConnection::new(one_path(MpConfig::xlink_client(1, vec![WirelessTech::Wifi])), now0);
        let mut s = MpConnection::new(one_path(MpConfig::xlink_server(2, 1)), now0);
        let mut now = now0;
        pump(&mut now, &mut c, &mut s);
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

    /// Residue row 17: the extension's frames are legal only once both
    /// sides offered it (paper §6: a negotiated extension). On any other
    /// connection they are a PROTOCOL_VIOLATION — not state to apply.
    #[test]
    fn multipath_frames_without_negotiation_close_the_connection() {
        let qoe = QoeSignal { cached_bytes: 1, cached_frames: 300, bps: 1, fps: 30 };
        let frames = [
            Frame::PathStatus { path_id: 1, seq: 1, status: PathStatusKind::Abandon },
            Frame::QoeControlSignals(qoe),
        ];
        for frame in frames {
            let now = Instant::ZERO;
            let mut c = MpConnection::new(client_cfg(1), now);
            let mut srv_cfg = server_cfg(2);
            srv_cfg.enable_multipath = false;
            let mut s = MpConnection::new(srv_cfg, now);
            let mut now = now;
            pump(&mut now, &mut c, &mut s);
            assert!(s.is_established() && !s.multipath_negotiated());
            let (path, d) = c.build_packet(now, 0, false, &[frame.clone()], vec![], true);
            s.handle_datagram(now, path, &d);
            assert_eq!(
                s.close_error(),
                Some(&ConnectionError::LocallyClosed(TransportError::ProtocolViolation)),
                "{frame:?}"
            );
            assert_eq!(s.paths()[1].state, PathState::Validating, "{frame:?} was applied");
            assert!(s.peer_qoe().is_none(), "{frame:?} was applied");
        }
    }

    #[test]
    fn close_propagates() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.close(TransportError::NoError, "bye");
        pump(&mut now, &mut c, &mut s);
        assert!(s.is_closed());
    }

    #[test]
    fn state_sits_through_the_closing_period_and_is_freed_when_it_ends() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![1u8; 30_000], true);
        while c.poll_transmit(now).is_some() {}
        c.on_frame(now, 1, false, Frame::PathChallenge([7; 8]));
        c.close(TransportError::NoError, "done");
        // The close frame goes out once; what was in flight or pinned is
        // neither sent nor dropped while the closing period runs.
        assert!(c.poll_transmit(now).is_some());
        assert!(c.poll_transmit(now).is_none());
        assert!(c.paths.iter().any(|p| p.space.recovery.bytes_in_flight() > 0));
        assert_eq!(c.bounded_state().pending_path_responses, 1);
        let end = c.poll_timeout().expect("drain deadline");
        c.on_timeout(end);
        assert!(c.is_drained());
        assert!(c.paths.iter().all(|p| p.space.recovery.bytes_in_flight() == 0));
        assert_eq!(c.bounded_state().pending_path_responses, 0);
        let _ = s;
    }

    #[test]
    fn mp_closing_replays_close_then_drains() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.close(TransportError::NoError, "bye");
        assert!(c.poll_transmit(now).is_some(), "initial close frame");
        assert!(c.poll_transmit(now).is_none());
        // A peer that keeps talking gets the close replayed at
        // power-of-two received-packet counts: 1, 2, 4, 8 → 4 replays
        // for 10 packets.
        let mut replays = 0;
        for _ in 0..10 {
            c.handle_datagram(now, 0, &[0u8; 48]);
            while c.poll_transmit(now).is_some() {
                replays += 1;
            }
        }
        assert_eq!(replays, 4);
        // 3×PTO later the drain period ends and all state is freed.
        let deadline = c.poll_timeout().expect("drain timer armed");
        now = deadline + Duration::from_millis(1);
        c.on_timeout(now);
        assert!(c.is_drained());
        assert!(c.poll_timeout().is_none());
        c.handle_datagram(now, 0, &[0u8; 48]);
        assert!(c.poll_transmit(now).is_none(), "drained endpoints are silent");
        let _ = s;
    }

    #[test]
    fn mp_draining_endpoint_is_silent_and_expires() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.close(TransportError::NoError, "bye");
        let (path, d) = c.poll_transmit(now).expect("close frame");
        s.handle_datagram(now, path, &d);
        assert_eq!(s.close_error(), Some(&ConnectionError::PeerClosed(TransportError::NoError)));
        // Draining endpoints never answer.
        for _ in 0..5 {
            s.handle_datagram(now, 0, &[0u8; 48]);
        }
        assert!(s.poll_transmit(now).is_none());
        let deadline = s.poll_timeout().expect("drain timer armed");
        now = deadline + Duration::from_millis(1);
        s.on_timeout(now);
        assert!(s.is_drained());
    }

    #[test]
    fn mp_optimistic_ack_closes_with_protocol_violation() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        // An ACK for packet numbers path 1 never sent must close the
        // connection, not inflate the congestion window.
        let mut ranges = AckRanges::new();
        ranges.insert_range(900, 1000);
        let ack = AckFrame::from_ranges(1, &ranges, Duration::ZERO).expect("non-empty ranges");
        c.on_ack(now, 1, false, ack);
        assert_eq!(
            c.close_error(),
            Some(&ConnectionError::LocallyClosed(TransportError::ProtocolViolation))
        );
        let _ = s;
    }

    #[test]
    fn mp_path_challenge_flood_is_capped() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        for i in 0..100u64 {
            c.on_frame(now, 0, false, Frame::PathChallenge(i.to_be_bytes()));
        }
        assert!(c.bounded_state().pending_path_responses <= MAX_PENDING_PATH_RESPONSES);
        assert_eq!(c.path_responses_dropped, 100 - MAX_PENDING_PATH_RESPONSES as u64);
        assert!(!c.is_closed());
        let _ = s;
    }

    /// A pair whose connection-level flow-control limit (both directions:
    /// limits start at the endpoint's own and are only ever raised) is far
    /// smaller than the 100 KB the server then queues on one stream, the
    /// client not reading. Returns once the server has run into the limit.
    fn flow_control_blocked_pair() -> (MpConnection, MpConnection, Instant, u64) {
        let mut now = Instant::ZERO;
        let (mut ccfg, mut scfg) = (client_cfg(1), server_cfg(2));
        ccfg.params.initial_max_data = 20_000;
        scfg.params.initial_max_data = 20_000;
        let mut c = MpConnection::new(ccfg, now);
        let mut s = MpConnection::new(scfg, now);
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
        (c, s, now, id)
    }

    #[test]
    fn connection_flow_control_limit_is_never_overrun() {
        // The range that does not fit the peer's MAX_DATA must go back as
        // never sent. Re-queued with `largest_sent` left advanced, the next
        // poll sends it as already counted and the honest peer closes with
        // FLOW_CONTROL_ERROR.
        let (mut c, mut s, mut now, id) = flow_control_blocked_pair();
        let credit = s.streams().conn_send_credit();
        assert!(credit < MAX_DATAGRAM_SIZE, "not flow-control-limited: {credit} B of credit");
        assert!(!c.is_closed() && !s.is_closed(), "the limit was overrun: {:?}", c.state());
        assert!(s.streams().send_data_used <= s.streams().send_max_data);
        // Reading on the other side lifts the limit and the rest arrives.
        let mut got = 0;
        for _ in 0..200 {
            got += c.stream_recv(id, usize::MAX).len();
            pump(&mut now, &mut c, &mut s);
            now += Duration::from_millis(2);
        }
        assert_eq!(got, 100_000, "transfer did not resume after MAX_DATA");
        assert!(!c.is_closed() && !s.is_closed());
    }

    /// Send until `conn` has nothing more, then poll once more at the same
    /// instant: still nothing, and nothing moved (see the test of the same
    /// name in `xlink_quic::connection`).
    fn assert_none_is_stable(what: &str, conn: &mut MpConnection, now: Instant) {
        while conn.poll_transmit(now).is_some() {}
        let before = (conn.streams.control.len(), conn.poll_timeout(), conn.stats());
        assert!(conn.poll_transmit(now).is_none(), "{what}: sent again with no input");
        let after = (conn.streams.control.len(), conn.poll_timeout(), conn.stats());
        assert_eq!(before, after, "{what}: a poll that sent nothing changed state");
    }

    #[test]
    fn none_from_poll_transmit_means_nothing_changes_until_the_next_input() {
        // Blocked by the congestion window on every path: far more to send
        // than the windows hold, and no ACK comes back.
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![7u8; 1_000_000], true);
        assert_none_is_stable("cwnd", &mut c, now);
        for p in c.paths() {
            assert!(p.bytes_in_flight() + MAX_DATAGRAM_SIZE > p.cwnd(), "path {} open", p.id);
        }

        // Blocked by connection flow control with open congestion windows.
        let (c, mut s, now, _) = flow_control_blocked_pair();
        assert!(s.streams().conn_send_credit() < MAX_DATAGRAM_SIZE, "not flow-control-limited");
        assert!(s.paths().iter().any(|p| p.cwnd() > p.bytes_in_flight() + MAX_DATAGRAM_SIZE));
        assert_none_is_stable("flow control", &mut s, now);
        assert_eq!(s.streams.control.len(), 0, "a control frame left on the queue");
        assert!(!s.is_closed() && !c.is_closed(), "the limit was overrun: {:?}", c.state());

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

    #[test]
    fn corrupted_datagrams_counted_dropped() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"x", false);
        let (path, mut d) = c.poll_transmit(now).unwrap();
        let n = d.len();
        d[n - 1] ^= 1;
        let before = s.stats().packets_dropped;
        s.handle_datagram(now, path, &d);
        assert_eq!(s.stats().packets_dropped, before + 1);
        assert!(!s.is_closed());
    }

    #[test]
    fn standalone_qoe_frames_reach_server() {
        let now = Instant::ZERO;
        let mut ccfg = client_cfg(1);
        ccfg.standalone_qoe_frames = true;
        let mut c = MpConnection::new(ccfg, now);
        let mut s = MpConnection::new(server_cfg(2), now);
        let mut now = now;
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established());
        c.set_qoe(QoeSignal { cached_bytes: 9, cached_frames: 8, bps: 7, fps: 6 });
        pump(&mut now, &mut c, &mut s);
        let q = s.peer_qoe().expect("standalone frame should deliver QoE");
        assert_eq!((q.cached_bytes, q.cached_frames, q.bps, q.fps), (9, 8, 7, 6));
        // Unchanged snapshots are not re-sent (no frame spam).
        let frames_before = c.stats().packets_sent;
        c.set_qoe(QoeSignal { cached_bytes: 9, cached_frames: 8, bps: 7, fps: 6 });
        pump(&mut now, &mut c, &mut s);
        assert!(c.stats().packets_sent <= frames_before + 1);
    }

    #[test]
    fn ecf_scheduler_completes_transfers() {
        let now = Instant::ZERO;
        let mut ccfg = client_cfg(1);
        ccfg.scheduler = SchedulerKind::Ecf;
        let mut scfg = server_cfg(2);
        scfg.scheduler = SchedulerKind::Ecf;
        let mut c = MpConnection::new(ccfg, now);
        let mut s = MpConnection::new(scfg, now);
        let mut now = now;
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"req", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        s.stream_send(id, &vec![4u8; 60_000], true);
        let mut got = Vec::new();
        for _ in 0..200 {
            pump(&mut now, &mut c, &mut s);
            got.extend(c.stream_recv(id, usize::MAX));
            if got.len() == 60_000 {
                break;
            }
            now += Duration::from_millis(2);
        }
        assert_eq!(got.len(), 60_000);
    }

    #[test]
    fn stats_account_reinjection_cost() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        // Starve the buffer signal → controller on (no feedback = startup).
        s.stream_send(id, &vec![1u8; 50_000], true);
        while s.poll_transmit(now).is_some() {}
        let st = s.stats();
        assert!(st.redundancy_ratio() >= 0.0 && st.redundancy_ratio() <= 1.0);
        assert_eq!(st.reinjections > 0, st.reinjected_bytes > 0, "counters must agree");
    }

    // ---- liveness / failover (§9) -------------------------------------

    #[test]
    fn blackhole_suspects_fails_over_and_revalidates() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        let body = vec![6u8; 150_000];
        s.stream_send(id, &body, true);
        // Put data in flight on both paths before the outage.
        for _ in 0..8 {
            if let Some((path, d)) = s.poll_transmit(now) {
                c.handle_datagram(now, path, &d);
            }
        }
        // Path 1 blackholes mid-transfer: consecutive PTOs must drive it
        // through Suspect into Probation while path 0 finishes the job.
        pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_secs(12));
        assert!(s.stats().path_suspects >= 1, "server should have suspected path 1");
        assert_eq!(
            s.paths()[1].state,
            PathState::Probation,
            "a sustained blackhole must escalate to probation"
        );
        let mut got = c.stream_recv(id, usize::MAX);
        for _ in 0..50 {
            if got.len() >= body.len() {
                break;
            }
            pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_secs(3));
            got.extend(c.stream_recv(id, usize::MAX));
        }
        assert_eq!(got.len(), body.len(), "failover must not lose or duplicate stream bytes");
        assert!(got.iter().all(|&b| b == 6));
        // Link heals: the next backoff PATH_CHALLENGE round-trips and the
        // path rejoins with fresh congestion state.
        pump_blackhole(&mut now, &mut c, &mut s, &[], Duration::from_secs(10));
        assert!(s.stats().path_revalidations >= 1, "healed path should revalidate");
        assert_eq!(s.paths()[1].state, PathState::Active);
        assert_eq!(s.paths[1].space.recovery.pto_count(), 0, "rejoin must reset PTO backoff");
    }

    #[test]
    fn transient_stall_recovers_suspect_on_ack_progress() {
        let now0 = Instant::ZERO;
        let mut ccfg = client_cfg(1);
        let mut scfg = server_cfg(2);
        // Disable escalation so the stall exercises Suspect → Active via
        // ack progress rather than probation timing.
        ccfg.liveness.blackhole_after_ptos = 1000;
        scfg.liveness.blackhole_after_ptos = 1000;
        let mut c = MpConnection::new(ccfg, now0);
        let mut s = MpConnection::new(scfg, now0);
        let mut now = now0;
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        s.stream_send(id, &vec![3u8; 80_000], true);
        for _ in 0..8 {
            if let Some((path, d)) = s.poll_transmit(now) {
                c.handle_datagram(now, path, &d);
            }
        }
        pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_secs(3));
        assert_eq!(s.paths()[1].state, PathState::Suspect, "stall should mark path suspect");
        assert!(s.stats().path_suspects >= 1);
        // Link heals; retransmissions get acked and the path recovers
        // without ever entering probation.
        pump_blackhole(&mut now, &mut c, &mut s, &[], Duration::from_secs(10));
        assert_eq!(s.paths()[1].state, PathState::Active);
        assert!(s.stats().path_revalidations >= 1);
        assert_eq!(s.stats().path_probations, 0, "ack recovery must not pass through probation");
    }

    #[test]
    fn vanilla_blackhole_recovers_without_reinjection() {
        let now0 = Instant::ZERO;
        let mut c = MpConnection::new(client_cfg(1).vanilla(), now0);
        let mut s = MpConnection::new(server_cfg(2).vanilla(), now0);
        let mut now = now0;
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        s.stream_recv(id, 10);
        let body = vec![9u8; 120_000];
        s.stream_send(id, &body, true);
        for _ in 0..8 {
            if let Some((path, d)) = s.poll_transmit(now) {
                c.handle_datagram(now, path, &d);
            }
        }
        pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_secs(15));
        let mut got = c.stream_recv(id, usize::MAX);
        for _ in 0..50 {
            if got.len() >= body.len() {
                break;
            }
            pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_secs(3));
            got.extend(c.stream_recv(id, usize::MAX));
        }
        assert_eq!(got.len(), body.len(), "probation requeue alone must complete the transfer");
        assert!(got.iter().all(|&b| b == 9));
        assert!(s.stats().path_suspects >= 1);
        assert_eq!(
            s.stats().reinjected_bytes,
            0,
            "vanilla multipath must not re-inject even during failover"
        );
    }

    #[test]
    fn keepalives_hold_idle_connection_open() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.set_path_status(1, PathStatusKind::Standby);
        pump(&mut now, &mut c, &mut s);
        // 40 s of application silence exceeds the 30 s idle timeout; only
        // keepalive PINGs on the idle paths keep the connection alive.
        pump_blackhole(&mut now, &mut c, &mut s, &[], Duration::from_secs(40));
        assert!(!c.is_closed() && !s.is_closed(), "keepalives should defeat the idle timeout");
        assert!(c.stats().keepalives_sent > 0, "client should have refreshed idle paths");
        assert_eq!(c.paths()[1].state, PathState::Standby, "standby must survive keepalives");
    }

    /// Residue row 14: the keep-alive is the connection's, not the
    /// failover machine's — a pure receiver without multipath keeps an
    /// elicitable packet on the wire too.
    #[test]
    fn keepalive_pings_a_quiet_connection_that_negotiated_nothing() {
        let now0 = Instant::ZERO;
        let one_path = |cfg: MpConfig| MpConfig {
            enable_multipath: false,
            keepalive: Some(Duration::from_millis(250)),
            ..cfg
        };
        let mut c =
            MpConnection::new(one_path(MpConfig::xlink_client(1, vec![WirelessTech::Wifi])), now0);
        let mut s = MpConnection::new(one_path(MpConfig::xlink_server(2, 1)), now0);
        let mut now = now0;
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established() && !c.multipath_negotiated());
        // Quiescent: the next client timer is the keep-alive, 250 ms after
        // the last receipt and well before the idle deadline.
        let ka = c.poll_timeout().expect("keep-alive armed");
        assert_eq!(ka, c.lifecycle().last_activity() + Duration::from_millis(250));
        c.on_timeout(ka);
        let (_, ping) = c.poll_transmit(ka).expect("keep-alive PING goes out");
        assert!(c.paths()[0].space.recovery.has_ack_eliciting_in_flight(), "elicits an ACK");
        assert!(c.poll_timeout().expect("PTO armed") < c.lifecycle().idle_deadline());
        // A server answering keeps the connection alive and re-arms.
        s.handle_datagram(ka, 0, &ping);
        let mut t = ka;
        pump(&mut t, &mut c, &mut s);
        assert!(c.is_established() && c.stats().keepalives_sent >= 1);
    }

    #[test]
    fn path_response_leaves_on_challenge_arrival_path() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        // Hand-build a fresh PATH_CHALLENGE arriving on path 1; RFC 9000
        // §8.2.2 requires the response to leave on the same path.
        let data = [9u8; 8];
        c.paths[1].challenge = Some(data);
        let (_, d) = c.build_packet(
            now,
            1,
            false,
            &[Frame::PathChallenge(data)],
            vec![SentFrame::Challenge(data)],
            true,
        );
        s.handle_datagram(now, 1, &d);
        assert_eq!(s.paths[1].response_pending.len(), 1, "response must queue on arrival path");
        let mut drained_on = None;
        while let Some((path, d2)) = s.poll_transmit(now) {
            if drained_on.is_none() && s.paths[1].response_pending.is_empty() {
                drained_on = Some(path);
            }
            c.handle_datagram(now, path, &d2);
        }
        assert_eq!(drained_on, Some(1), "PATH_RESPONSE must leave on the arrival path");
        assert!(c.paths[1].challenge.is_none(), "round-trip should resolve the challenge");
    }
}
