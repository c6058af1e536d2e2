//! The one endpoint every application runs over its connection, and the
//! per-session transport statistics, the same for every scheme.
//!
//! An [`App`] is what an application does over its [`MpConnection`].
//! [`AppEndpoint`] is the one [`Endpoint`] around the pair: it opens each
//! datagram where it lies, hands the buffer back to its sender, maps the
//! connection's transmits and merges the two timers. An application, like
//! the connection, acts only on a datagram or a timer: what changes with
//! time alone (a player playing) is due at its [`App::timeout`]. A poll
//! only asks the connection.

use xlink_clock::Instant;
use xlink_core::MpConnection;
use xlink_netsim::{Endpoint, Transmit};

/// What an application does over its connection. Every hook defaults to
/// nothing.
pub trait App {
    /// A datagram was handled by `conn`.
    fn on_datagram(&mut self, _conn: &mut MpConnection, _now: Instant) {}

    /// The application's own timer, if armed.
    fn timeout(&self) -> Option<Instant> {
        None
    }

    /// A timer fired, and `conn` has run its own if it was due.
    fn on_timeout(&mut self, _conn: &mut MpConnection, _now: Instant) {}

    /// The application no longer needs the simulation to continue.
    fn is_done(&self, _conn: &MpConnection) -> bool {
        false
    }
}

/// An application over its connection: the one [`Endpoint`] for every
/// connection the harness drives.
pub struct AppEndpoint<A> {
    /// The transport.
    pub conn: MpConnection,
    /// What runs over it.
    pub app: A,
}

impl<A> AppEndpoint<A> {
    /// Transport statistics.
    pub fn transport_stats(&self) -> TransportStats {
        TransportStats::from(&self.conn)
    }
}

impl<A: App> Endpoint for AppEndpoint<A> {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        self.conn.handle_datagram(now, path, payload);
        self.app.on_datagram(&mut self.conn, now);
    }

    fn on_datagram_in_place(&mut self, now: Instant, path: usize, payload: &mut [u8]) {
        self.conn.handle_datagram_in_place(now, path, payload);
        self.app.on_datagram(&mut self.conn, now);
    }

    fn recycle(&mut self, buffer: Vec<u8>) {
        self.conn.recycle_datagram(buffer);
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        self.conn.poll_transmit(now).map(|(path, payload)| Transmit { path, payload })
    }

    fn poll_timeout(&self) -> Option<Instant> {
        match (self.conn.poll_timeout(), self.app.timeout()) {
            (Some(conn), Some(app)) => Some(conn.min(app)),
            (conn, app) => conn.or(app),
        }
    }

    fn on_timeout(&mut self, now: Instant) {
        // An application timer alone leaves the connection's work undue.
        if self.conn.poll_timeout().is_some_and(|due| due <= now) {
            self.conn.on_timeout(now);
        }
        self.app.on_timeout(&mut self.conn, now);
    }

    fn is_done(&self) -> bool {
        self.app.is_done(&self.conn)
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

impl From<&MpConnection> for TransportStats {
    fn from(mp: &MpConnection) -> Self {
        let conn = mp.conn();
        let s = conn.stats();
        TransportStats {
            bytes_sent: s.bytes_sent,
            stream_bytes_sent: s.stream_bytes_sent,
            stream_bytes_retransmitted: s.stream_bytes_retransmitted,
            reinjected_bytes: s.reinjected_bytes,
            packets_lost: s.packets_lost,
            migrations: s.migrations,
            spurious_losses: conn.spurious_losses(),
            handshake_retransmits: s.handshake_retransmits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_clock::Duration;
    use xlink_core::{Scheme, TransportTuning};

    /// An application whose only hook is a timer.
    struct Alarm(Option<Instant>);

    impl App for Alarm {
        fn timeout(&self) -> Option<Instant> {
            self.0
        }
    }

    #[test]
    fn poll_timeout_is_the_earlier_of_the_app_and_the_connection() {
        let now = Instant::ZERO;
        let conn = MpConnection::client(Scheme::Xlink, &TransportTuning::default(), 1, now);
        let mut endpoint = AppEndpoint { conn, app: Alarm(None) };
        assert!(endpoint.poll_transmit(now).is_some(), "the client sends its hello");
        let conn_timer = endpoint.conn.poll_timeout().expect("the hello arms a timer");
        // No application timer: the connection's.
        assert_eq!(endpoint.poll_timeout(), Some(conn_timer));
        // An earlier application timer wins, a later one does not.
        let early = now + Duration::from_micros(1);
        assert!(early < conn_timer);
        endpoint.app.0 = Some(early);
        assert_eq!(endpoint.poll_timeout(), Some(early));
        endpoint.app.0 = Some(conn_timer + Duration::from_secs(1));
        assert_eq!(endpoint.poll_timeout(), Some(conn_timer));
    }

    /// A poll only asks: once the video client has had nothing to send, a
    /// poll at a later instant with no input between finds nothing either,
    /// and leaves the player and the connection's QoE snapshot (whose every
    /// change is traced) as they were.
    #[test]
    fn a_skipped_poll_leaves_the_video_client_as_it_was() {
        use crate::video_session::{client_endpoint_for_probe, server_endpoint_for_probe};
        use crate::SessionConfig;
        use xlink_netsim::{LinkConfig, Path, World};
        use xlink_obs::{Event, TraceLog};
        let mut cfg = SessionConfig::short_video(Scheme::Xlink, 3);
        cfg.video = xlink_video::Video::synth(4, 25, 800_000, 8.0);
        let log = TraceLog::recording();
        let mut client = client_endpoint_for_probe(&cfg, Instant::ZERO);
        client.conn.set_tracer(&log.tracer("client"));
        let server = server_endpoint_for_probe(&cfg, Instant::ZERO);
        let path = || Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10)));
        let mut world = World::new(client, server, vec![path(), path()]);
        // The whole video is in, and the player is playing it out.
        let now = world.run_until(Instant::from_millis(1500));
        let client = &mut world.client;
        assert!(client.poll_transmit(now).is_none());
        let snapshots = || {
            let events = log.events();
            events.iter().filter(|e| matches!(e.body, Event::QoeSignal { .. })).count()
        };
        let (stats, taken) = (client.player_stats(), snapshots());
        assert!(stats.playback_started_at.is_some() && stats.finished_at.is_none(), "{stats:?}");
        let later = now + Duration::from_millis(500);
        assert!(client.poll_timeout().is_some_and(|t| t > later), "no timer is due by then");
        assert!(client.poll_transmit(later).is_none());
        assert_eq!((client.player_stats(), snapshots()), (stats, taken));
    }
}
