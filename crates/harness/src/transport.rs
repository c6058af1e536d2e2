//! A uniform wrapper over every transport scheme in the evaluation so
//! session code is scheme-agnostic: single-path QUIC (SP), SP with
//! connection migration (CM), and the multipath connection in its
//! vanilla-MP / MPTCP / re-injection / XLINK configurations.

use xlink_clock::{Duration, Instant};
use xlink_core::{
    AckPathPolicy, LivenessConfig, MpConfig, MpConnection, MpPath, PrimaryPathPolicy, QoeControl,
    ReinjectMode, WirelessTech,
};
use xlink_obs::{Event, Tracer};
pub use xlink_quic::connection::BoundedState;
use xlink_quic::connection::Config as SpConfig;
use xlink_quic::stream::Side;

/// Which transport scheme a session runs (the paper's comparison arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Single-path QUIC on the given path index.
    Sp {
        /// The (only) path used.
        path: usize,
    },
    /// Single-path QUIC with client-driven connection migration (§7.3's
    /// CM baseline): on stall, move to the next path and reset cwnd.
    Cm,
    /// Multipath QUIC, min-RTT, no re-injection, original-path ACKs.
    VanillaMp,
    /// The MPTCP baseline (Fig. 13) as a policy of the same engine:
    /// vanilla-MP plus opportunistic retransmission of a blocked stream
    /// head with penalisation of the path holding it, no QoE gate
    /// (DESIGN §2 says what of TCP this does not model).
    Mptcp,
    /// Multipath with re-injection always on (no QoE control, Fig. 6c).
    ReinjNoQoe,
    /// Full XLINK (double-threshold QoE control, frame-priority
    /// re-injection, fastest-path ACK_MP).
    Xlink,
    /// XLINK without first-video-frame acceleration (Fig. 12 ablation):
    /// stream-priority re-injection only.
    XlinkNoFirstFrame,
    /// XLINK with appending-mode re-injection (Fig. 4a ablation).
    XlinkAppending,
}

impl Scheme {
    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Sp { .. } => "SP",
            Scheme::Cm => "CM",
            Scheme::VanillaMp => "Vanilla-MP",
            Scheme::Mptcp => "MPTCP",
            Scheme::ReinjNoQoe => "Reinj-w/o-QoE",
            Scheme::Xlink => "XLINK",
            Scheme::XlinkNoFirstFrame => "XLINK-no-ffa",
            Scheme::XlinkAppending => "XLINK-appending",
        }
    }

    /// True for multipath schemes.
    pub fn is_multipath(self) -> bool {
        !matches!(self, Scheme::Sp { .. } | Scheme::Cm)
    }
}

/// Tuning knobs shared by session builders.
#[derive(Debug, Clone)]
pub struct TransportTuning {
    /// Double thresholds (T_th1, T_th2) for XLINK's controller.
    pub thresholds_ms: (u64, u64),
    /// ACK path policy for MP schemes that don't pin it.
    pub ack_policy: AckPathPolicy,
    /// Wireless technology per path.
    pub path_techs: Vec<WirelessTech>,
    /// Primary-path policy in place of the wireless-aware default (§5.3).
    pub primary_override: Option<PrimaryPathPolicy>,
    /// Per-path liveness detection and automatic failover (§9) for the
    /// multipath schemes; off restores the pre-liveness baselines.
    pub auto_failover: bool,
}

impl Default for TransportTuning {
    fn default() -> Self {
        TransportTuning {
            thresholds_ms: (300, 1500),
            ack_policy: AckPathPolicy::FastestPath,
            path_techs: vec![WirelessTech::Wifi, WirelessTech::Lte],
            primary_override: None,
            auto_failover: true,
        }
    }
}

/// Unified per-session transport statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// Wire bytes sent.
    pub bytes_sent: u64,
    /// Stream payload bytes sent first-time.
    pub stream_bytes_sent: u64,
    /// Retransmitted payload bytes.
    pub stream_bytes_retransmitted: u64,
    /// Proactively re-injected payload bytes.
    pub reinjected_bytes: u64,
    /// Packets lost.
    pub packets_lost: u64,
    /// Migrations performed (CM only).
    pub migrations: u64,
    /// Losses later contradicted by an ACK (reordering, not loss).
    pub spurious_losses: u64,
    /// Hello flights re-sent after loss or timeout.
    pub handshake_retransmits: u64,
}

/// Upper bound on the redundancy ratio a well-tuned XLINK session may
/// spend on clean dual paths. The paper's production operating point is
/// ~2%; the cap leaves headroom for small videos where the handshake
/// and start-up phase dominate, while still catching a controller that
/// degenerates toward always-on (~15%+).
pub const REINJECTION_COST_CAP: f64 = 0.10;

impl TransportStats {
    /// Redundancy ratio (the paper's cost metric).
    pub fn redundancy_ratio(&self) -> f64 {
        let retransmitted = self.stream_bytes_retransmitted;
        xlink_core::redundancy_ratio(self.stream_bytes_sent, retransmitted, self.reinjected_bytes)
    }
}

/// The scheme-erased connection: one multipath connection under the
/// scheme's policy. The single-path schemes are its one-path configuration
/// (multipath not offered): SP pins the connection's path 0 to one network
/// path, CM rotates which network path carries it when the client stalls.
pub struct Conn {
    mp: MpConnection,
    /// One-path schemes: the network path that currently carries the
    /// connection's path 0. `None` for the multipath schemes, whose paths
    /// are the network paths.
    carrier: Option<usize>,
    /// Total network paths available (for CM rotation).
    num_paths: usize,
    /// CM client: migration enabled.
    migrate: bool,
    /// Last time any datagram was received (the CM stall clock).
    last_recv: Instant,
    /// One-path servers: reply on the network path the client last used.
    follow_peer_path: bool,
    /// Trace handle for the harness's own transport events (CM failovers).
    tracer: Tracer,
}

impl Conn {
    /// Build the client side of `scheme` over `num_paths` network paths.
    pub fn client(scheme: Scheme, tuning: &TransportTuning, seed: u64, now: Instant) -> Conn {
        Self::build(scheme, tuning, seed, now, Side::Client)
    }

    /// Build the server side (mirrors the client's scheme).
    pub fn server(scheme: Scheme, tuning: &TransportTuning, seed: u64, now: Instant) -> Conn {
        Self::build(scheme, tuning, seed, now, Side::Server)
    }

    fn build(
        scheme: Scheme,
        tuning: &TransportTuning,
        seed: u64,
        now: Instant,
        side: Side,
    ) -> Conn {
        let multipath = scheme.is_multipath();
        let techs = if multipath { tuning.path_techs.clone() } else { vec![WirelessTech::Wifi] };
        let mut cfg = MpConfig::xlink_client(seed, techs);
        if !multipath {
            // Single-path QUIC as `Config::client` defaults it; the policy
            // has nothing to act on.
            cfg.conn = SpConfig::client(seed);
        } else if scheme == Scheme::VanillaMp {
            cfg = cfg.vanilla();
        } else if scheme == Scheme::Mptcp {
            cfg = cfg.vanilla();
            cfg.qoe_control = QoeControl::AlwaysOn;
            cfg.reinject_mode = ReinjectMode::OpportunisticHead;
        } else {
            // The re-injecting schemes differ in what gates re-injection and
            // in where a re-injected range may jump the queue.
            cfg.qoe_control = match scheme {
                Scheme::ReinjNoQoe => QoeControl::AlwaysOn,
                _ => {
                    QoeControl::double_threshold_ms(tuning.thresholds_ms.0, tuning.thresholds_ms.1)
                }
            };
            cfg.reinject_mode = match scheme {
                Scheme::XlinkNoFirstFrame => ReinjectMode::StreamPriority,
                Scheme::XlinkAppending => ReinjectMode::Appending,
                _ => ReinjectMode::FramePriority,
            };
            cfg.conn.ack_policy = tuning.ack_policy;
        }
        cfg.conn.side = side;
        if let Some(policy) = &tuning.primary_override {
            cfg.primary_policy = policy.clone();
        }
        if multipath && !tuning.auto_failover {
            (cfg.conn.liveness, cfg.conn.keepalive) = (LivenessConfig::disabled(), None);
        }
        Conn {
            mp: MpConnection::new(cfg, now),
            carrier: match scheme {
                Scheme::Sp { path } => Some(path),
                Scheme::Cm => Some(0),
                _ => None,
            },
            num_paths: tuning.path_techs.len(),
            migrate: scheme == Scheme::Cm && side == Side::Client,
            last_recv: now,
            follow_peer_path: side == Side::Server,
            tracer: Tracer::disabled(),
        }
    }

    /// How long a CM client goes without receiving before it migrates.
    const CM_STALL_THRESHOLD: Duration = Duration::from_millis(700);

    /// When a CM client's stall clock runs out, if it is running: only an
    /// established connection that is waiting for the peer migrates — for
    /// an acknowledgement of data in flight, or for the rest of a response
    /// on a stream it opened (a download's request is long acknowledged
    /// when the path under it dies). `poll_timeout` arms exactly this
    /// instant and `poll_transmit` migrates from exactly this instant on,
    /// which restarts the clock — a due timer that the transmit path would
    /// not act on spins the world at one instant forever.
    fn cm_stall_deadline(&self) -> Option<Instant> {
        let conn = self.mp.conn();
        let streams = conn.streams();
        let awaiting_response =
            || streams.iter().any(|s| streams.side().opened_by_us(s.id) && !s.recv.is_complete());
        (self.migrate && conn.is_established() && (conn.in_flight(0) > 0 || awaiting_response()))
            .then(|| self.last_recv + Self::CM_STALL_THRESHOLD)
    }

    /// Ingest a datagram from `path`.
    pub fn handle_datagram(&mut self, now: Instant, path: usize, data: &[u8]) {
        self.last_recv = now;
        let Some(carrier) = &mut self.carrier else {
            return self.mp.handle_datagram(now, path, data);
        };
        if self.follow_peer_path {
            *carrier = path; // reply where the client is
        }
        self.mp.handle_datagram(now, 0, data);
    }

    /// Next datagram to send: (network path, bytes).
    pub fn poll_transmit(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        let Some(mut carrier) = self.carrier else {
            return self.mp.poll_transmit(now);
        };
        // CM: if we're awaiting data and the path has been silent for the
        // threshold, rotate and reset (RFC 9000 §9.4).
        if self.cm_stall_deadline().is_some_and(|stall| now >= stall) {
            let from = carrier as u8;
            carrier = (carrier + 1) % self.num_paths.max(1);
            self.carrier = Some(carrier);
            let stranded_bytes = self.mp.conn().in_flight(0);
            self.tracer.emit(now, Event::PathFailover { from, to: carrier as u8, stranded_bytes });
            self.mp.conn_mut().on_migrate();
            self.last_recv = now; // restart the stall clock
        }
        self.mp.poll_transmit(now).map(|(_, d)| (carrier, d))
    }

    /// Earliest timer.
    pub fn poll_timeout(&self) -> Option<Instant> {
        // A plain match on purpose: the world polls this every round, and an
        // `into_iter().chain(..).min()` form measured 9 % slower on the
        // benchmark's bulk_fatpipe.
        let base = self.mp.poll_timeout();
        match self.cm_stall_deadline() {
            Some(stall) => Some(base.map_or(stall, |b| b.min(stall))),
            None => base,
        }
    }

    /// Fire timers.
    pub fn on_timeout(&mut self, now: Instant) {
        self.mp.on_timeout(now);
    }

    /// The connection under the scheme's policy: lifecycle, streams, gauges,
    /// QoE — whatever does not depend on which network path carries what.
    pub fn inner(&self) -> &MpConnection {
        &self.mp
    }

    /// Mutable access to the same; transmit and receive through [`Conn`].
    pub fn inner_mut(&mut self) -> &mut MpConnection {
        &mut self.mp
    }

    /// True once the handshake finished.
    pub fn is_established(&self) -> bool {
        self.mp.is_established()
    }

    /// True when closed.
    pub fn is_closed(&self) -> bool {
        self.mp.conn().is_closed()
    }

    /// Open a stream with a priority.
    pub fn open_stream(&mut self, priority: u8) -> u64 {
        self.mp.open_stream(priority)
    }

    /// Write stream data.
    pub fn stream_send(&mut self, id: u64, data: &[u8], fin: bool) {
        self.mp.stream_send(id, data, fin);
    }

    /// Read stream data.
    pub fn stream_recv(&mut self, id: u64, max: usize) -> Vec<u8> {
        self.mp.stream_recv(id, max)
    }

    /// Attach a trace handle; events appear under `<source>.quic` (and
    /// `<source>.core` for multipath). Read-only: never changes behaviour.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.scoped("quic");
        self.mp.set_tracer(tracer);
    }

    /// Unified statistics.
    pub fn stats(&self) -> TransportStats {
        let s = self.mp.conn().stats();
        TransportStats {
            bytes_sent: s.bytes_sent,
            stream_bytes_sent: s.stream_bytes_sent,
            stream_bytes_retransmitted: s.stream_bytes_retransmitted,
            reinjected_bytes: s.reinjected_bytes,
            packets_lost: s.packets_lost,
            migrations: s.migrations,
            spurious_losses: self.mp.conn().spurious_losses(),
            handshake_retransmits: s.handshake_retransmits,
        }
    }

    /// Per-path (network path, wire bytes sent) breakdown (one-path
    /// schemes: all on the path that carries the connection now).
    pub fn bytes_per_path(&self) -> Vec<(usize, u64)> {
        let network = |p: &MpPath| (self.carrier.unwrap_or(p.id), p.bytes_sent);
        self.mp.conn().paths().iter().map(network).collect()
    }

    /// Per-path (bytes in flight, congestion window) — the Fig. 1 series.
    pub fn path_state(&self) -> (Vec<u64>, Vec<u64>) {
        let paths = self.mp.conn().paths().iter();
        (
            paths.clone().map(|p| self.mp.conn().in_flight(p.id)).collect(),
            paths.map(MpPath::cwnd).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_labels_and_classification() {
        assert_eq!(Scheme::Xlink.label(), "XLINK");
        assert!(Scheme::Xlink.is_multipath());
        assert!(!Scheme::Sp { path: 0 }.is_multipath());
        assert!(!Scheme::Cm.is_multipath());
        assert!(Scheme::VanillaMp.is_multipath());
        assert_eq!(Scheme::Mptcp.label(), "MPTCP");
        assert!(Scheme::Mptcp.is_multipath());
    }

    /// Shuttle datagrams both ways over perfect zero-delay paths until
    /// neither side has anything to send; returns the clock afterwards.
    fn shuttle(c: &mut Conn, s: &mut Conn, mut now: Instant) -> Instant {
        for _ in 0..200 {
            let mut any = false;
            while let Some((p, d)) = c.poll_transmit(now) {
                s.handle_datagram(now, p, &d);
                any = true;
            }
            while let Some((p, d)) = s.poll_transmit(now) {
                c.handle_datagram(now, p, &d);
                any = true;
            }
            if !any {
                break;
            }
            now += Duration::from_micros(100);
        }
        now
    }

    fn established_pair(scheme: Scheme) -> (Conn, Conn, Instant) {
        let t = TransportTuning::default();
        let mut c = Conn::client(scheme, &t, 1, Instant::ZERO);
        let mut s = Conn::server(scheme, &t, 2, Instant::ZERO);
        let now = shuttle(&mut c, &mut s, Instant::ZERO);
        assert!(c.is_established() && s.is_established());
        (c, s, now)
    }

    #[test]
    fn sp_pair_establishes_through_wrapper() {
        let (mut c, mut s, now) = established_pair(Scheme::Sp { path: 0 });
        let id = c.open_stream(0);
        c.stream_send(id, b"hi", true);
        shuttle(&mut c, &mut s, now);
        assert_eq!(s.stream_recv(id, 10), b"hi");
    }

    #[test]
    fn xlink_pair_establishes_through_wrapper() {
        established_pair(Scheme::Xlink);
    }

    #[test]
    fn cm_rotates_path_on_stall() {
        let (mut c, _s, mut now) = established_pair(Scheme::Cm);
        // Put data in flight, then go silent past the threshold.
        let id = c.open_stream(0);
        c.stream_send(id, &vec![0u8; 5000], true);
        let first = c.poll_transmit(now).map(|(p, _)| p).unwrap();
        assert_eq!(first, 0);
        while c.poll_transmit(now).is_some() {}
        now += Duration::from_secs(2);
        c.on_timeout(now);
        // Next transmission goes out on the rotated path with reset cwnd.
        let (path, _) = c.poll_transmit(now).expect("probe or retransmit");
        assert_eq!(path, 1, "CM should have migrated");
        assert_eq!(c.stats().migrations, 1);
    }

    /// Serve `c`'s timers at exactly the instants it asks for, the peer
    /// silent throughout, the way `World::run_until` does. Every due timer
    /// must be disarmed by `on_timeout` + the transmit drain; one that
    /// stays due spins the world at that instant forever (the CM livelock:
    /// the stall timer fired at `last_recv + threshold`, migration waited
    /// for strictly later, and before the handshake never came at all).
    fn assert_every_due_timer_is_disarmed(c: &mut Conn, mut now: Instant) {
        for _ in 0..64 {
            let Some(t) = c.poll_timeout() else { return };
            now = now.max(t);
            c.on_timeout(now);
            while c.poll_transmit(now).is_some() {}
            assert!(
                c.poll_timeout().is_none_or(|next| next > now),
                "timer due at {now} still due after it was served"
            );
        }
    }

    #[test]
    fn cm_stall_timer_is_disarmed_at_the_instant_it_fires() {
        let (mut c, _s, now) = established_pair(Scheme::Cm);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![0u8; 5000], true);
        while c.poll_transmit(now).is_some() {}
        assert_every_due_timer_is_disarmed(&mut c, now);
        assert!(c.stats().migrations >= 1, "a silent peer must trigger migration");
    }

    #[test]
    fn cm_stall_timer_is_not_armed_before_the_handshake_completes() {
        let mut c = Conn::client(Scheme::Cm, &TransportTuning::default(), 1, Instant::ZERO);
        while c.poll_transmit(Instant::ZERO).is_some() {}
        assert_every_due_timer_is_disarmed(&mut c, Instant::ZERO);
        assert_eq!(c.stats().migrations, 0, "no migration before the handshake (RFC 9000 §9)");
    }
}
