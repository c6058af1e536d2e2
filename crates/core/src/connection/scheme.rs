//! The paper's comparison arms as configurations of the one connection.
//!
//! Every arm of the evaluation is an [`MpConnection`]: the multipath arms
//! under their policy, the single-path arms (SP, CM) as its one-path
//! configuration with multipath not offered. A one-path connection has one
//! path, and it rides one of the network paths: SP pins it, a CM client
//! moves it to the next network path when the peer has gone silent for
//! [`CM_STALL_THRESHOLD`], and a one-path server answers on the network
//! path the client's latest datagram arrived on.

use super::{MpConfig, MpConnection, MpPath};
use crate::qoe::QoeControl;
use crate::sched::ReinjectMode;
use crate::wireless::{PrimaryPathPolicy, WirelessTech};
use xlink_clock::{Duration, Instant};
use xlink_quic::connection::{AckPathPolicy, Config};
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
}

impl Default for TransportTuning {
    fn default() -> Self {
        TransportTuning {
            thresholds_ms: (300, 1500),
            ack_policy: AckPathPolicy::FastestPath,
            path_techs: vec![WirelessTech::Wifi, WirelessTech::Lte],
            primary_override: None,
        }
    }
}

/// How long a CM client goes without receiving before it migrates.
const CM_STALL_THRESHOLD: Duration = Duration::from_millis(700);

impl MpConfig {
    /// The `side` of `scheme`: the multipath arms over `tuning.path_techs`,
    /// the one-path arms as `Config::client` defaults them over one path
    /// (the policy has nothing to act on).
    pub fn for_scheme(scheme: Scheme, tuning: &TransportTuning, seed: u64, side: Side) -> Self {
        let multipath = scheme.is_multipath();
        let techs = if multipath { tuning.path_techs.clone() } else { vec![WirelessTech::Wifi] };
        let mut cfg = MpConfig::xlink_client(seed, techs);
        if !multipath {
            cfg.conn = Config::client(seed);
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
        cfg
    }
}

impl MpConnection {
    /// The client side of `scheme` over `tuning.path_techs.len()` network
    /// paths.
    pub fn client(scheme: Scheme, tuning: &TransportTuning, seed: u64, now: Instant) -> Self {
        Self::build(scheme, tuning, seed, now, Side::Client)
    }

    /// The server side (mirrors the client's scheme).
    pub fn server(scheme: Scheme, tuning: &TransportTuning, seed: u64, now: Instant) -> Self {
        Self::build(scheme, tuning, seed, now, Side::Server)
    }

    fn build(
        scheme: Scheme,
        tuning: &TransportTuning,
        seed: u64,
        now: Instant,
        side: Side,
    ) -> Self {
        let mut mp = MpConnection::new(MpConfig::for_scheme(scheme, tuning, seed, side), now);
        mp.carrier = match scheme {
            Scheme::Sp { path } => Some(path),
            Scheme::Cm => Some(0),
            _ => None,
        };
        mp.num_paths = tuning.path_techs.len();
        mp.migrate = scheme == Scheme::Cm && side == Side::Client;
        mp.follow_peer_path = side == Side::Server;
        mp
    }

    /// When a CM client's stall clock runs out, if it is running: only an
    /// established connection that is waiting for the peer migrates — for
    /// an acknowledgement of data in flight, or for the rest of a response
    /// on a stream it opened (a download's request is long acknowledged
    /// when the path under it dies). `poll_timeout` arms exactly this
    /// instant and `on_timeout` migrates from exactly this instant on,
    /// which restarts the clock — a due timer that the timer path would
    /// not act on spins the world at one instant forever.
    pub(super) fn cm_stall_deadline(&self) -> Option<Instant> {
        let conn = &self.conn;
        let streams = conn.streams();
        let awaiting_response =
            || streams.iter().any(|s| streams.side().opened_by_us(s.id) && !s.recv.is_complete());
        (self.migrate && conn.is_established() && (conn.in_flight(0) > 0 || awaiting_response()))
            .then(|| self.last_recv + CM_STALL_THRESHOLD)
    }

    /// A datagram arrived on network path `path`: the connection's path it
    /// belongs to.
    pub(super) fn arrived_on(&mut self, now: Instant, path: usize) -> usize {
        self.last_recv = now;
        let Some(carrier) = self.carrier else { return path };
        if self.follow_peer_path {
            self.hand_over(carrier, path); // reply where the client is
        }
        0
    }

    /// The connection's path 0 moves from network path `from` to `to`:
    /// what it sent since the last move stays counted on `from`.
    fn hand_over(&mut self, from: usize, to: usize) {
        self.carrier = Some(to);
        if from != to {
            let earlier: u64 = self.carried.iter().map(|&(_, bytes)| bytes).sum();
            self.carried.push((from, self.conn.stats().bytes_sent - earlier));
        }
    }

    /// A CM client whose stall clock ran out moves to the next network
    /// path and resets (RFC 9000 §9.4).
    pub(super) fn migrate_if_stalled(&mut self, now: Instant) {
        let Some(from) = self.carrier else { return };
        if self.cm_stall_deadline().is_some_and(|stall| now >= stall) {
            let to = (from + 1) % self.num_paths.max(1);
            self.hand_over(from, to);
            self.conn.on_migrate(now, from as u8, to as u8);
            self.last_recv = now; // restart the stall clock
        }
    }

    /// Per-path (network path, wire bytes sent) breakdown. A one-path
    /// scheme's bytes are counted on the network path they went out on, the
    /// paths in the order they first carried the connection.
    pub fn bytes_per_path(&self) -> Vec<(usize, u64)> {
        let Some(carrier) = self.carrier else {
            return self.conn.paths().iter().map(|p| (p.id, p.bytes_sent)).collect();
        };
        let earlier: u64 = self.carried.iter().map(|&(_, bytes)| bytes).sum();
        let current = (carrier, self.conn.stats().bytes_sent - earlier);
        let mut split = Vec::with_capacity(self.carried.len() + 1);
        for (path, bytes) in self.carried.iter().copied().chain([current]) {
            match split.iter_mut().find(|(p, _)| *p == path) {
                Some((_, total)) => *total += bytes,
                None => split.push((path, bytes)),
            }
        }
        split
    }

    /// Per-path (bytes in flight, congestion window) — the Fig. 1 series.
    pub fn path_state(&self) -> (Vec<u64>, Vec<u64>) {
        let paths = self.conn.paths().iter();
        (
            paths.clone().map(|p| self.conn.in_flight(p.id)).collect(),
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
    fn shuttle(c: &mut MpConnection, s: &mut MpConnection, mut now: Instant) -> Instant {
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

    fn established_pair(scheme: Scheme) -> (MpConnection, MpConnection, Instant) {
        let t = TransportTuning::default();
        let mut c = MpConnection::client(scheme, &t, 1, Instant::ZERO);
        let mut s = MpConnection::server(scheme, &t, 2, Instant::ZERO);
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
        assert_eq!(c.conn().stats().migrations, 1);
    }

    #[test]
    fn cm_counts_bytes_on_the_network_path_they_went_out_on() {
        let (mut c, _s, mut now) = established_pair(Scheme::Cm);
        let id = c.open_stream(0);
        c.stream_send(id, &vec![0u8; 5000], true);
        while c.poll_transmit(now).is_some() {}
        let before = c.conn().stats().bytes_sent;
        now += Duration::from_secs(2);
        c.on_timeout(now);
        while c.poll_transmit(now).is_some() {}
        let after = c.conn().stats().bytes_sent;
        assert_eq!(c.conn().stats().migrations, 1);
        assert!(after > before, "nothing went out after the migration");
        assert_eq!(c.bytes_per_path(), [(0, before), (1, after - before)]);
    }

    /// Serve `c`'s timers at exactly the instants it asks for, the peer
    /// silent throughout, the way `World::run_until` does. Every due timer
    /// must be disarmed by `on_timeout` + the transmit drain; one that
    /// stays due spins the world at that instant forever (the CM livelock:
    /// the stall timer fired at `last_recv + threshold`, migration waited
    /// for strictly later, and before the handshake never came at all).
    fn assert_every_due_timer_is_disarmed(c: &mut MpConnection, mut now: Instant) {
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
        assert!(c.conn().stats().migrations >= 1, "a silent peer must trigger migration");
    }

    #[test]
    fn cm_stall_timer_is_not_armed_before_the_handshake_completes() {
        let mut c = MpConnection::client(Scheme::Cm, &TransportTuning::default(), 1, Instant::ZERO);
        while c.poll_transmit(Instant::ZERO).is_some() {}
        assert_every_due_timer_is_disarmed(&mut c, Instant::ZERO);
        assert_eq!(
            c.conn().stats().migrations,
            0,
            "no migration before the handshake (RFC 9000 §9)"
        );
    }

    /// Deliver everything `from` sends at `now` to `to`, each datagram on
    /// the network path it was sent on; those paths, in send order.
    fn deliver(from: &mut MpConnection, to: &mut MpConnection, now: Instant) -> Vec<usize> {
        let mut paths = Vec::new();
        while let Some((path, d)) = from.poll_transmit(now) {
            to.handle_datagram(now, path, &d);
            paths.push(path);
        }
        paths
    }

    #[test]
    fn sp_on_path_1_sends_only_on_network_path_1() {
        let t = TransportTuning::default();
        let scheme = Scheme::Sp { path: 1 };
        let mut c = MpConnection::client(scheme, &t, 1, Instant::ZERO);
        let mut s = MpConnection::server(scheme, &t, 2, Instant::ZERO);
        let (mut now, mut paths, mut got) = (Instant::ZERO, Vec::new(), 0);
        let id = c.open_stream(0);
        c.stream_send(id, b"req", true);
        for _ in 0..100 {
            paths.extend(deliver(&mut c, &mut s, now));
            if s.stream_recv(id, 10) == b"req" {
                s.stream_send(id, &[3u8; 20_000], true);
            }
            paths.extend(deliver(&mut s, &mut c, now));
            got += c.stream_recv(id, usize::MAX).len();
            now += Duration::from_millis(1);
        }
        assert_eq!(got, 20_000);
        assert!(paths.len() > 20 && paths.iter().all(|&p| p == 1), "sent on {paths:?}");
        for end in [&c, &s] {
            assert_eq!(end.bytes_per_path(), [(1, end.conn().stats().bytes_sent)]);
        }
    }

    #[test]
    fn a_cm_server_answers_where_the_clients_latest_datagram_arrived() {
        let (mut c, mut s, now) = established_pair(Scheme::Cm);
        let id = c.open_stream(0);
        // The client's datagrams reach the server on network path 1, then on
        // path 0 again, as they would across migrations the server is not
        // told of; each time the server's echo goes back the same way.
        for (part, arrival) in [(b"one", 1), (b"two", 0)] {
            c.stream_send(id, part, false);
            while let Some((_, d)) = c.poll_transmit(now) {
                s.handle_datagram(now, arrival, &d);
            }
            s.stream_send(id, part, false);
            let (path, _) = s.poll_transmit(now).expect("the echo");
            assert_eq!(path, arrival);
        }
    }
}
