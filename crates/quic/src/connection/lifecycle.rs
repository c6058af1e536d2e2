//! The life of one connection (RFC 9000 §10):
//! handshaking → established → closed, and once closed either *closing*
//! (we said CONNECTION_CLOSE: replay it at power-of-two received-packet
//! counts) or *draining* (the peer said it: stay silent), both for 3×PTO,
//! then *drained* (state freed). Also the idle deadline, which tracks what
//! the connection reports through [`Lifecycle::touch`]. Every way a connection
//! ends is reported to the tracer from here (`ConnectionClosed`).

use crate::error::{ConnectionError, TransportError};
use crate::frame::Frame;
use xlink_clock::{Duration, Instant};
use xlink_obs::{Event, Tracer};

/// Connection lifecycle states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum State {
    /// Waiting for the handshake to complete.
    #[default]
    Handshaking,
    /// Handshake complete; application data flows.
    Established,
    /// Closed (locally or by peer).
    Closed(ConnectionError),
}

/// What a timer expiry meant for the connection's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry {
    /// Still open: the connection's own timers run.
    Open,
    /// Closed before; nothing ended now.
    Closed,
    /// Over as of now — the closing/draining period ended, or the idle
    /// timeout (§10.1) closed it silently, with nothing to replay and
    /// nobody to replay it to: free what state is left.
    Freed,
}

/// Lifecycle state of one connection.
#[derive(Debug, Default)]
pub struct Lifecycle {
    state: State,
    /// A local close whose CONNECTION_CLOSE has not gone out yet.
    close_pending: Option<(TransportError, String)>,
    /// The CONNECTION_CLOSE we sent, retained for rate-limited replay
    /// while closing (§10.2.1).
    close_replay: Option<Frame>,
    /// A replay is due (set at power-of-two received-packet counts).
    replay_due: bool,
    /// Packets received since entering the closing state.
    closing_recv_count: u64,
    /// When the closing/draining period ends (3×PTO after entry).
    drain_deadline: Option<Instant>,
    /// Peer initiated the close: drain silently, never reply.
    draining: bool,
    /// The drain period ended and remaining state was freed.
    drained: bool,
    last_activity: Instant,
    idle_timeout: Duration,
}

impl Lifecycle {
    /// A connection that starts handshaking at `now`.
    pub fn new(now: Instant, idle_timeout: Duration) -> Self {
        Lifecycle { last_activity: now, idle_timeout, ..Default::default() }
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
    /// peer-growable state has been freed (§10.2).
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Closed with nothing of ours left to say: the peer closed, or a
    /// stateless reset killed the connection. Frame processing stops.
    pub fn is_silenced(&self) -> bool {
        self.is_closed() && self.close_pending.is_none()
    }

    /// The error this connection closed with, if closed.
    pub fn close_error(&self) -> Option<&ConnectionError> {
        match &self.state {
            State::Closed(e) => Some(e),
            _ => None,
        }
    }

    /// Wire error code the connection closed with, plus whether the peer
    /// initiated the close. `None` while open, after an idle timeout or a
    /// stateless reset, or on a codec-level failure.
    pub fn close_code(&self) -> Option<(u64, bool)> {
        match self.close_error()? {
            ConnectionError::PeerClosed(e) => Some((e.code(), true)),
            ConnectionError::LocallyClosed(e) => Some((e.code(), false)),
            ConnectionError::TimedOut | ConnectionError::Reset | ConnectionError::Codec(_) => None,
        }
    }

    /// The handshake completed.
    pub fn establish(&mut self) {
        self.state = State::Established;
    }

    /// Activity that restarts the idle timer.
    pub fn touch(&mut self, now: Instant) {
        self.last_activity = now;
    }

    /// Last activity reported through [`Lifecycle::touch`].
    pub fn last_activity(&self) -> Instant {
        self.last_activity
    }

    /// When the connection idles out if nothing touches it.
    pub fn idle_deadline(&self) -> Instant {
        self.last_activity + self.idle_timeout
    }

    /// The one timer of a closed connection: the end of its
    /// closing/draining period (none once drained).
    pub fn drain_deadline(&self) -> Option<Instant> {
        self.drain_deadline.filter(|_| !self.drained)
    }

    /// Begin closing. The CONNECTION_CLOSE goes out through
    /// [`Lifecycle::poll_close`], which also starts the closing period.
    pub fn close(&mut self, error: TransportError, reason: &str) {
        if !self.is_closed() {
            self.close_pending = Some((error, reason.to_string()));
            self.state = State::Closed(ConnectionError::LocallyClosed(error));
        }
    }

    /// The CONNECTION_CLOSE to send now, if one is due, and whether it is
    /// the first one (which starts the 3×`pto` closing period and keeps
    /// the frame for replay) or a replay that arrivals warranted. A
    /// draining or drained endpoint has none.
    pub fn poll_close(
        &mut self,
        now: Instant,
        pto: Duration,
        tr: &Tracer,
    ) -> Option<(Frame, bool)> {
        if let Some((err, reason)) = self.close_pending.take() {
            let error_code = err.code();
            let frame = Frame::ConnectionClose { error_code, reason: reason.into_bytes() };
            self.close_replay = Some(frame.clone());
            self.arm_drain(now, pto);
            tr.emit(now, Event::ConnectionClosed { error_code, locally: true });
            return Some((frame, true));
        }
        if self.replay_due && !self.drained {
            self.replay_due = false;
            return self.close_replay.clone().map(|frame| (frame, false));
        }
        None
    }

    /// A datagram arrived. True when the connection is closed and the
    /// datagram is thereby dealt with: a closing endpoint counts it toward
    /// the rate-limited CONNECTION_CLOSE replay (§10.2.1), a draining or
    /// drained one ignores it.
    pub fn absorb_if_closed(&mut self) -> bool {
        if !self.is_closed() {
            return false;
        }
        if !self.draining && !self.drained && self.close_pending.is_none() {
            self.closing_recv_count += 1;
            if self.closing_recv_count.is_power_of_two() {
                self.replay_due = true;
            }
        }
        true
    }

    /// The peer's CONNECTION_CLOSE arrived (§10.2.2): drain silently and
    /// expire 3×`pto` from now.
    pub fn on_peer_close(&mut self, now: Instant, error_code: u64, pto: Duration, tr: &Tracer) {
        self.state =
            State::Closed(ConnectionError::PeerClosed(TransportError::from_code(error_code)));
        self.close_pending = None;
        self.draining = true;
        self.arm_drain(now, pto);
        tr.emit(now, Event::ConnectionClosed { error_code, locally: false });
    }

    /// A stateless reset proved the peer lost this connection (§10.3.1):
    /// dead at once — no closing period, no close frame, the peer has
    /// nothing to process one with.
    pub fn on_reset(&mut self) {
        self.state = State::Closed(ConnectionError::Reset);
        self.draining = true;
        self.freed();
    }

    /// A timer fired at `now`.
    pub fn on_timeout(&mut self, now: Instant, tr: &Tracer) -> Expiry {
        if self.is_closed() {
            if !self.drained && self.drain_deadline.is_some_and(|d| now >= d) {
                self.freed();
                return Expiry::Freed;
            }
            return Expiry::Closed;
        }
        if now >= self.idle_deadline() {
            self.state = State::Closed(ConnectionError::TimedOut);
            tr.emit(now, Event::ConnectionClosed { error_code: 0, locally: true });
            self.freed();
            return Expiry::Freed;
        }
        Expiry::Open
    }

    /// Start the closing/draining countdown, once.
    fn arm_drain(&mut self, now: Instant, pto: Duration) {
        if self.drain_deadline.is_none() {
            self.drain_deadline = Some(now + pto * 3);
        }
    }

    fn freed(&mut self) {
        self.drained = true;
        self.close_replay = None;
        self.replay_due = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PTO: Duration = Duration::from_millis(100);

    fn off() -> Tracer {
        Tracer::disabled()
    }

    #[test]
    fn closing_replays_at_powers_of_two_then_drains() {
        let t0 = Instant::ZERO;
        let mut life = Lifecycle::new(t0, Duration::from_secs(30));
        life.establish();
        assert!(!life.absorb_if_closed() && life.poll_close(t0, PTO, &off()).is_none());
        life.close(TransportError::NoError, "bye");
        assert!(life.is_closed() && !life.is_silenced());
        assert!(life.absorb_if_closed(), "closed: the datagram is dealt with");
        let (close, first) = life.poll_close(t0, PTO, &off()).expect("first close");
        assert!(first);
        assert!(life.poll_close(t0, PTO, &off()).is_none(), "nothing unprompted (no count yet)");
        let replays = (0..10)
            .filter(|_| life.absorb_if_closed() && life.poll_close(t0, PTO, &off()).is_some())
            .count();
        assert_eq!(replays, 4, "arrivals 1, 2, 4, 8 of 10");
        assert_eq!(life.drain_deadline(), Some(t0 + PTO * 3));
        assert_eq!(life.on_timeout(t0 + PTO, &off()), Expiry::Closed);
        assert_eq!(life.on_timeout(t0 + PTO * 3, &off()), Expiry::Freed);
        assert!(life.is_drained() && life.drain_deadline().is_none());
        assert!(life.absorb_if_closed() && life.poll_close(t0, PTO, &off()).is_none());
        assert!(matches!(close, Frame::ConnectionClose { .. }));
        assert_eq!(life.close_code(), Some((TransportError::NoError.code(), false)));
    }

    #[test]
    fn peer_close_drains_silently_and_idle_and_reset_free_at_once() {
        let t0 = Instant::ZERO;
        let mut life = Lifecycle::new(t0, Duration::from_secs(30));
        life.close(TransportError::NoError, "ours, overtaken by the peer's");
        life.on_peer_close(t0, TransportError::ProtocolViolation.code(), PTO, &off());
        assert!(life.is_silenced());
        assert!(life.absorb_if_closed() && life.poll_close(t0, PTO, &off()).is_none());
        assert_eq!(life.close_code(), Some((TransportError::ProtocolViolation.code(), true)));
        assert_eq!(life.on_timeout(t0 + PTO * 3, &off()), Expiry::Freed);

        let mut life = Lifecycle::new(t0, Duration::from_secs(30));
        life.touch(t0 + Duration::from_secs(1));
        assert_eq!(life.on_timeout(t0 + Duration::from_secs(30), &off()), Expiry::Open);
        assert_eq!(life.on_timeout(t0 + Duration::from_secs(31), &off()), Expiry::Freed);
        assert!(life.is_drained() && life.close_code().is_none());
        assert_eq!(life.close_error(), Some(&ConnectionError::TimedOut));

        let mut life = Lifecycle::new(t0, Duration::from_secs(30));
        life.on_reset();
        assert!(life.is_drained() && life.is_silenced() && life.drain_deadline().is_none());
        assert_eq!(life.close_error(), Some(&ConnectionError::Reset));
    }
}
