//! The typed event vocabulary.
//!
//! One enum covers every layer of the stack so a single sink sees the
//! whole story of a run in time order: transport packets (quic), XLINK
//! scheduling and re-injection (core), emulated link behaviour
//! (netsim), and player state (video). Each event carries
//! only plain integers/strings — building one never allocates beyond
//! what the variant itself holds, and never touches clocks or RNGs.

use crate::json::JsonWriter;
use xlink_clock::Instant;

/// A timestamped event attributed to an interned source (e.g.
/// `client.quic`, `netsim.path0.up`; see
/// [`TraceLog::tracer`](crate::TraceLog::tracer)).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: Instant,
    /// Interned source id; resolve with
    /// [`TraceLog::source_name`](crate::TraceLog::source_name).
    pub source: u16,
    /// What happened.
    pub body: Event,
}

/// Everything the stack can report. Grouped by layer; the qlog export
/// prefixes names with the category returned by [`Event::category`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // ---- transport (quic recovery / cc / handshake) ----
    /// A datagram left the endpoint.
    PacketSent {
        /// Path (packet-number space) index; 0 on single-path.
        path: u8,
        /// Packet number.
        pn: u64,
        /// Wire size in bytes.
        bytes: u32,
        /// Counts toward bytes-in-flight and elicits an ACK.
        ack_eliciting: bool,
    },
    /// A sent packet was acknowledged.
    PacketAcked {
        /// Path index.
        path: u8,
        /// Packet number.
        pn: u64,
    },
    /// A sent packet was declared lost by the recovery machinery.
    PacketLost {
        /// Path index.
        path: u8,
        /// Packet number.
        pn: u64,
        /// Wire size in bytes.
        bytes: u32,
    },
    /// Congestion-controller state after an ack or congestion event.
    CwndUpdate {
        /// Path index.
        path: u8,
        /// Congestion window in bytes.
        cwnd: u64,
        /// Bytes currently in flight.
        bytes_in_flight: u64,
    },
    /// A fresh RTT sample was folded into the estimator.
    RttUpdate {
        /// Path index.
        path: u8,
        /// Latest sample, microseconds.
        latest_us: u64,
        /// Smoothed estimate, microseconds.
        smoothed_us: u64,
    },
    /// A handshake flight (hello) went out.
    HandshakeSent {
        /// True when this is a retransmission of a lost/ignored hello.
        retransmit: bool,
    },
    /// The handshake completed and 1-RTT keys are available.
    HandshakeComplete {
        /// Multipath was negotiated.
        multipath: bool,
    },
    /// Terminal event: the connection entered the closing or draining
    /// state (§10 lifecycle). Emitted exactly once per connection.
    ConnectionClosed {
        /// Wire error code the connection closed with.
        error_code: u64,
        /// True when this endpoint initiated the close (closing state);
        /// false when the peer's CONNECTION_CLOSE moved us to draining.
        locally: bool,
    },

    // ---- core (scheduler, re-injection, QoE, path management) ----
    /// The scheduler picked a path for fresh data.
    SchedulerDecision {
        /// Chosen path.
        path: u8,
        /// Scheduler/decision label (e.g. `minrtt`, `redundant`).
        policy: &'static str,
    },
    /// A byte range was re-injected onto another path (§5.1).
    Reinjection {
        /// Path the range is being re-sent on.
        path: u8,
        /// Stream carrying the range.
        stream_id: u64,
        /// Range start offset.
        offset: u64,
        /// Range length in bytes.
        len: u64,
    },
    /// The double-threshold controller toggled re-injection (Alg. 1).
    ReinjectionGate {
        /// Re-injection now allowed.
        enabled: bool,
    },
    /// A path changed PATH_STATUS / internal state.
    PathStatusChange {
        /// Path index.
        path: u8,
        /// Previous state label.
        from: &'static str,
        /// New state label.
        to: &'static str,
    },
    /// Liveness detection marked a path suspect: consecutive PTOs or ack
    /// silence suggest the path is blackholed (§9, failover machine).
    PathSuspected {
        /// Path index.
        path: u8,
        /// Consecutive PTO count at suspicion time.
        pto_count: u32,
        /// Microseconds since the last ack progress on the path.
        silent_us: u64,
    },
    /// Traffic failed over from a suspect path onto a survivor.
    PathFailover {
        /// Path traffic moved away from.
        from: u8,
        /// Destination path (255 when no survivor was available yet).
        to: u8,
        /// Bytes in flight on the suspect path at failover time.
        stranded_bytes: u64,
    },
    /// A probation path answered a PATH_CHALLENGE probe and rejoined
    /// with reset congestion and PTO state.
    PathRevalidated {
        /// Path index.
        path: u8,
        /// Backoff probes sent before the response arrived.
        probes: u32,
    },
    /// A QoE signal crossed the API (sent by the client player or
    /// received by the server controller). Fields mirror the ACK_MP QoE
    /// payload.
    QoeSignal {
        /// True when this endpoint emitted the signal; false when it
        /// arrived from the peer.
        sent: bool,
        /// Frames buffered at the player.
        cached_frames: u64,
        /// Bytes buffered at the player.
        cached_bytes: u64,
        /// Current media bitrate, bits per second.
        bps: u64,
        /// Current frame rate, frames per second.
        fps: u64,
    },

    // ---- netsim (link ledger + impairment stages) ----
    /// A scripted flap / path event changed the link state.
    LinkStateChange {
        /// New state label (`up`, `down`, `degraded`).
        state: &'static str,
    },
    /// The link dropped a datagram; the reason names the ledger bucket.
    LinkDrop {
        /// `dead`, `impairment`, `loss`, `degrade`, or `queue`.
        reason: &'static str,
        /// Datagram size in bytes.
        bytes: u32,
    },
    /// An impairment stage fired without dropping (corruption,
    /// duplication, reordering, jitter).
    ImpairmentHit {
        /// Stage label.
        stage: &'static str,
    },

    // ---- edge (CDN PoP: admission, routing, drain) ----
    /// The edge admitted a new connection onto a backend shard (after
    /// Retry-token validation when admission control is on).
    EdgeAdmit {
        /// Backend shard (QUIC-LB server id) the connection landed on.
        shard: u16,
    },
    /// The edge refused or dropped an incoming datagram.
    EdgeReject {
        /// Why: `no_token`, `bad_token`, `expired_token`, `replayed_token`,
        /// `amplification`, `table_full`, `conn_cap`, or `no_route`.
        reason: &'static str,
    },
    /// A shard began draining: its live connections are being steered to
    /// survivors.
    ShardDrain {
        /// Draining shard id.
        shard: u16,
        /// Live connections on the shard at drain start.
        conns: u32,
    },
    /// A connection migrated between shards (drain steering), or — at
    /// the client — followed a retire-prior-to onto a fresh CID (both
    /// shard ids are 0 in the client-side event).
    ConnMigrated {
        /// Shard the connection left.
        from_shard: u16,
        /// Shard the connection landed on.
        to_shard: u16,
    },
    /// A shard crashed: all its backend conn/demux/replay state was
    /// destroyed atomically, with no drain window.
    ShardCrash {
        /// Crashed shard id.
        shard: u16,
        /// Live connections destroyed with the shard.
        conns: u32,
    },
    /// A crashed shard rejoined placement under a fresh epoch.
    ShardRestart {
        /// Restarted shard id.
        shard: u16,
        /// The shard's new reset-secret epoch.
        epoch: u64,
    },
    /// A stateless reset matched the token oracle (RFC 9000 §10.3): the
    /// peer has lost all state for this connection.
    StatelessReset {
        /// Path the reset arrived on (0 for single-path connections).
        path: u8,
    },
    /// A session re-admitted itself after a reset/timeout and resumed
    /// its download at the verified byte offset.
    SessionResumed {
        /// Reconnection attempt number (1 = first reconnect).
        attempt: u32,
        /// Byte offset the download resumed from.
        offset: u64,
    },

    // ---- video (player) ----
    /// First video frame decoded (the paper's first-frame metric).
    FirstFrame {},
    /// Startup buffering finished; playback began.
    PlaybackStarted {},
    /// Playback stalled (rebuffer begins).
    RebufferStart {},
    /// Playback resumed after a stall.
    RebufferEnd {
        /// Stall duration, microseconds.
        stall_us: u64,
    },
    /// The video finished playing.
    PlaybackFinished {},
    /// Player buffer level changed (sampled on frame arrival).
    PlayerBuffer {
        /// Frames buffered ahead of the playhead.
        cached_frames: u64,
        /// Bytes buffered ahead of the playhead.
        cached_bytes: u64,
    },
}

impl Event {
    /// qlog category (the part before `:` in the event name).
    pub fn category(&self) -> &'static str {
        use Event::*;
        match self {
            PacketSent { .. }
            | PacketAcked { .. }
            | PacketLost { .. }
            | CwndUpdate { .. }
            | RttUpdate { .. }
            | HandshakeSent { .. }
            | HandshakeComplete { .. }
            | ConnectionClosed { .. }
            | StatelessReset { .. } => "transport",
            SchedulerDecision { .. }
            | Reinjection { .. }
            | ReinjectionGate { .. }
            | PathStatusChange { .. }
            | PathSuspected { .. }
            | PathFailover { .. }
            | PathRevalidated { .. }
            | QoeSignal { .. } => "xlink",
            LinkStateChange { .. } | LinkDrop { .. } | ImpairmentHit { .. } => "netsim",
            EdgeAdmit { .. }
            | EdgeReject { .. }
            | ShardDrain { .. }
            | ConnMigrated { .. }
            | ShardCrash { .. }
            | ShardRestart { .. }
            | SessionResumed { .. } => "edge",
            FirstFrame {}
            | PlaybackStarted {}
            | RebufferStart {}
            | RebufferEnd { .. }
            | PlaybackFinished {}
            | PlayerBuffer { .. } => "video",
        }
    }

    /// qlog event name (the part after `:`).
    pub fn name(&self) -> &'static str {
        use Event::*;
        match self {
            PacketSent { .. } => "packet_sent",
            PacketAcked { .. } => "packet_acked",
            PacketLost { .. } => "packet_lost",
            CwndUpdate { .. } => "cwnd_update",
            RttUpdate { .. } => "rtt_update",
            HandshakeSent { .. } => "handshake_sent",
            HandshakeComplete { .. } => "handshake_complete",
            ConnectionClosed { .. } => "connection_closed",
            SchedulerDecision { .. } => "scheduler_decision",
            Reinjection { .. } => "reinjection",
            ReinjectionGate { .. } => "reinjection_gate",
            PathStatusChange { .. } => "path_status_change",
            PathSuspected { .. } => "path_suspected",
            PathFailover { .. } => "path_failover",
            PathRevalidated { .. } => "path_revalidated",
            QoeSignal { .. } => "qoe_signal",
            LinkStateChange { .. } => "link_state_change",
            LinkDrop { .. } => "link_drop",
            ImpairmentHit { .. } => "impairment_hit",
            EdgeAdmit { .. } => "edge_admit",
            EdgeReject { .. } => "edge_reject",
            ShardDrain { .. } => "shard_drain",
            ConnMigrated { .. } => "conn_migrated",
            ShardCrash { .. } => "shard_crash",
            ShardRestart { .. } => "shard_restart",
            StatelessReset { .. } => "stateless_reset",
            SessionResumed { .. } => "session_resumed",
            FirstFrame {} => "first_frame",
            PlaybackStarted {} => "playback_started",
            RebufferStart {} => "rebuffer_start",
            RebufferEnd { .. } => "rebuffer_end",
            PlaybackFinished {} => "playback_finished",
            PlayerBuffer { .. } => "player_buffer",
        }
    }

    /// Path index the event concerns, when it has one.
    pub fn path(&self) -> Option<u8> {
        use Event::*;
        match self {
            PacketSent { path, .. }
            | PacketAcked { path, .. }
            | PacketLost { path, .. }
            | CwndUpdate { path, .. }
            | RttUpdate { path, .. }
            | SchedulerDecision { path, .. }
            | Reinjection { path, .. }
            | PathStatusChange { path, .. }
            | PathSuspected { path, .. }
            | PathRevalidated { path, .. }
            | StatelessReset { path } => Some(*path),
            // A failover is attributed to the path traffic left.
            PathFailover { from, .. } => Some(*from),
            _ => None,
        }
    }

    /// Write the qlog `data` object fields (caller opens/closes the
    /// surrounding object and adds `source`).
    pub fn write_data(&self, w: &mut JsonWriter) {
        use Event::*;
        match self {
            PacketSent { path, pn, bytes, ack_eliciting } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("pn", *pn);
                w.field_u64("bytes", u64::from(*bytes));
                w.field_bool("ack_eliciting", *ack_eliciting);
            }
            PacketAcked { path, pn } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("pn", *pn);
            }
            PacketLost { path, pn, bytes } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("pn", *pn);
                w.field_u64("bytes", u64::from(*bytes));
            }
            CwndUpdate { path, cwnd, bytes_in_flight } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("cwnd", *cwnd);
                w.field_u64("bytes_in_flight", *bytes_in_flight);
            }
            RttUpdate { path, latest_us, smoothed_us } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("latest_us", *latest_us);
                w.field_u64("smoothed_us", *smoothed_us);
            }
            HandshakeSent { retransmit } => w.field_bool("retransmit", *retransmit),
            HandshakeComplete { multipath } => w.field_bool("multipath", *multipath),
            ConnectionClosed { error_code, locally } => {
                w.field_u64("error_code", *error_code);
                w.field_bool("locally", *locally);
            }
            SchedulerDecision { path, policy } => {
                w.field_u64("path", u64::from(*path));
                w.field_str("policy", policy);
            }
            Reinjection { path, stream_id, offset, len } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("stream_id", *stream_id);
                w.field_u64("offset", *offset);
                w.field_u64("len", *len);
            }
            ReinjectionGate { enabled } => w.field_bool("enabled", *enabled),
            PathStatusChange { path, from, to } => {
                w.field_u64("path", u64::from(*path));
                w.field_str("from", from);
                w.field_str("to", to);
            }
            PathSuspected { path, pto_count, silent_us } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("pto_count", u64::from(*pto_count));
                w.field_u64("silent_us", *silent_us);
            }
            PathFailover { from, to, stranded_bytes } => {
                w.field_u64("from", u64::from(*from));
                w.field_u64("to", u64::from(*to));
                w.field_u64("stranded_bytes", *stranded_bytes);
            }
            PathRevalidated { path, probes } => {
                w.field_u64("path", u64::from(*path));
                w.field_u64("probes", u64::from(*probes));
            }
            QoeSignal { sent, cached_frames, cached_bytes, bps, fps } => {
                w.field_bool("sent", *sent);
                w.field_u64("cached_frames", *cached_frames);
                w.field_u64("cached_bytes", *cached_bytes);
                w.field_u64("bps", *bps);
                w.field_u64("fps", *fps);
            }
            LinkStateChange { state } => w.field_str("state", state),
            LinkDrop { reason, bytes } => {
                w.field_str("reason", reason);
                w.field_u64("bytes", u64::from(*bytes));
            }
            ImpairmentHit { stage } => w.field_str("stage", stage),
            EdgeAdmit { shard } => w.field_u64("shard", u64::from(*shard)),
            EdgeReject { reason } => w.field_str("reason", reason),
            ShardDrain { shard, conns } => {
                w.field_u64("shard", u64::from(*shard));
                w.field_u64("conns", u64::from(*conns));
            }
            ConnMigrated { from_shard, to_shard } => {
                w.field_u64("from_shard", u64::from(*from_shard));
                w.field_u64("to_shard", u64::from(*to_shard));
            }
            ShardCrash { shard, conns } => {
                w.field_u64("shard", u64::from(*shard));
                w.field_u64("conns", u64::from(*conns));
            }
            ShardRestart { shard, epoch } => {
                w.field_u64("shard", u64::from(*shard));
                w.field_u64("epoch", *epoch);
            }
            StatelessReset { path } => w.field_u64("path", u64::from(*path)),
            SessionResumed { attempt, offset } => {
                w.field_u64("attempt", u64::from(*attempt));
                w.field_u64("offset", *offset);
            }
            FirstFrame {} | PlaybackStarted {} | RebufferStart {} | PlaybackFinished {} => {}
            RebufferEnd { stall_us } => w.field_u64("stall_us", *stall_us),
            PlayerBuffer { cached_frames, cached_bytes } => {
                w.field_u64("cached_frames", *cached_frames);
                w.field_u64("cached_bytes", *cached_bytes);
            }
        }
    }
}
