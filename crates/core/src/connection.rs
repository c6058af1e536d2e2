//! XLINK's QoE-driven scheduling over the multipath QUIC connection.
//!
//! The connection itself — paths, packet-number spaces, ACK_MP, path
//! validation, PATH_STATUS, liveness and failover — is
//! [`xlink_quic::connection::Connection`], which negotiates the multipath
//! extension in its handshake. [`MpConnection`] owns one and adds what the
//! paper adds: wireless-aware primary path selection (§5.3), the choice of
//! path for new data, priority-based re-injection (§5.1, Fig. 4) and the
//! double-threshold QoE gate on it (§5.2, Alg. 1). Policy-parameterized, it
//! covers every multipath scheme in the paper's evaluation:
//!
//! * **vanilla-MP** — min-RTT scheduler, no re-injection, original-path
//!   ACKs (the MPQUIC default, §3).
//! * **MPTCP** — vanilla-MP plus opportunistic retransmission of a blocked
//!   stream head with penalisation of the path holding it (§8, Fig. 13).
//! * **re-injection w/o QoE** — re-injection always on (Fig. 6c).
//! * **XLINK** — min-RTT + stream/frame priority-based re-injection under
//!   double-thresholding QoE control + fastest-path ACK_MP (§5).
//!
//! Until multipath is negotiated the policy does nothing of its own: a
//! one-path `MpConnection` *is* single-path QUIC, which is how the SP and
//! CM baselines run. CM is the one-path arm whose policy does act, and it
//! acts without negotiation: its client moves the connection to another
//! network path when the peer goes silent. [`MpConnection::client`] and
//! [`MpConnection::server`] build every arm of the evaluation.

use crate::qoe::{reinjection_decision, QoeControl, QoeSignal};
use crate::sched::{max_deliver_time, min_rtt_choice, ReinjectMode};
use crate::wireless::{PrimaryPathPolicy, WirelessTech};
use xlink_clock::{Duration, Instant};
use xlink_obs::{prof, Event, Tracer};
use xlink_quic::cc::MAX_DATAGRAM_SIZE;
use xlink_quic::connection::{AckPathPolicy, Config, Connection, Rank, ReinjectCandidate};
use xlink_quic::stream::{SendRange, Side};

pub use scheme::{Scheme, TransportTuning};
pub use xlink_quic::connection::{
    ConnectionStats as MpStats, Path as MpPath, PathState, State as MpState,
};

mod scheme;

/// Which of the connection's re-injection candidates one poll may take
/// (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Admit {
    /// None: the gate is shut, or appending mode has unsent data — there
    /// re-injected data sits at the queue tail and goes only when no stream
    /// has any.
    Nothing,
    /// Those ranked at or before the most urgent unsent data, all if there
    /// is none. Re-injected data may overtake unsent data ranked strictly
    /// after it, never unsent data of the same or a better rank: a
    /// lower-priority stream's in stream-priority mode (Fig. 4b); in
    /// frame-priority mode also a lower-priority frame's of its own stream,
    /// which is how the first video frame gets ahead (Fig. 4c).
    UpTo(Option<Rank>),
    /// Only a stream's blocked head, and only off a path at least twice as
    /// slow as the scheduled one (the MPTCP arm). That the scheduled path
    /// has room for it is the scheduler's condition for offering the path
    /// (a whole datagram of budget, and no range is longer).
    Heads,
}

/// Multipath endpoint configuration: the connection's, and the policy's.
#[derive(Debug, Clone)]
pub struct MpConfig {
    /// The connection: side, keys, transport parameters (`enable_multipath`
    /// offers the extension), ACK_MP routing, liveness, keep-alive. `paths`
    /// and `primary` are set from `path_techs` and `primary_policy`.
    pub conn: Config,
    /// Re-injection queue-position policy.
    pub reinject_mode: ReinjectMode,
    /// Re-injection on/off controller.
    pub qoe_control: QoeControl,
    /// Wireless technology of each network path (index-aligned with the
    /// simulator's path table). Drives primary path selection.
    pub path_techs: Vec<WirelessTech>,
    /// Primary-path selection policy.
    pub primary_policy: PrimaryPathPolicy,
}

impl MpConfig {
    /// XLINK client defaults over the given wireless paths.
    pub fn xlink_client(seed: u64, path_techs: Vec<WirelessTech>) -> Self {
        let mut conn = Config::client(seed);
        conn.params.enable_multipath = true;
        conn.ack_policy = AckPathPolicy::FastestPath;
        conn.keepalive = Some(Duration::from_secs(5));
        MpConfig {
            conn,
            reinject_mode: ReinjectMode::FramePriority,
            qoe_control: QoeControl::double_threshold_ms(300, 1500),
            path_techs,
            primary_policy: PrimaryPathPolicy::default(),
        }
    }

    /// XLINK server defaults.
    pub fn xlink_server(seed: u64, num_paths: usize) -> Self {
        let mut cfg = MpConfig::xlink_client(seed, vec![WirelessTech::Wifi; num_paths]);
        cfg.conn.side = Side::Server;
        cfg
    }

    /// vanilla-MP policy set (min-RTT, no re-injection, original-path ACK).
    pub fn vanilla(mut self) -> Self {
        self.qoe_control = QoeControl::AlwaysOff;
        self.conn.ack_policy = AckPathPolicy::OriginalPath;
        self.reinject_mode = ReinjectMode::Appending;
        self
    }
}

/// The multipath connection under XLINK's policy.
pub struct MpConnection {
    conn: Connection,
    reinject_mode: ReinjectMode,
    qoe_control: QoeControl,
    /// Scheduler / re-injection / QoE-gate tracer (`<prefix>.core`); the
    /// connection traces under `<prefix>.quic`.
    tracer: Tracer,
    /// Last re-injection gate decision reported to the tracer.
    gate_seen: Option<bool>,
    /// Scheduler candidates `(path, srtt, usable)`, rebuilt on every
    /// [`MpConnection::poll_data`] in the same allocation.
    sched_scratch: Vec<(usize, Duration, bool)>,
    /// The ranges of one re-injection datagram, likewise.
    copies: Vec<ReinjectCandidate>,
    /// One-path schemes: the network path that carries the connection's
    /// path 0 now. `None` for the multipath schemes, whose paths are the
    /// network paths, and for a connection built by [`MpConnection::new`].
    carrier: Option<usize>,
    /// Network paths a CM client rotates through.
    num_paths: usize,
    /// CM client: migrate when the stall clock runs out.
    migrate: bool,
    /// One-path servers: reply on the network path the client last used.
    follow_peer_path: bool,
    /// Last time any datagram was received (the CM stall clock).
    last_recv: Instant,
    /// One-path schemes: each network path that carried the connection
    /// before `carrier`, with the wire bytes sent while it did, in order.
    /// Empty (unallocated) until the carrier first moves.
    carried: Vec<(usize, u64)>,
}

impl MpConnection {
    /// Create an endpoint. `cfg.path_techs.len()` network paths exist;
    /// the client starts the handshake on the wireless-aware primary. Its
    /// paths are the network paths; [`MpConnection::client`] and
    /// [`MpConnection::server`] build the arms whose one path rides one.
    pub fn new(mut cfg: MpConfig, now: Instant) -> Self {
        let candidates: Vec<(usize, WirelessTech)> =
            cfg.path_techs.iter().copied().enumerate().collect();
        cfg.conn.paths = cfg.path_techs.len();
        cfg.conn.primary = cfg.primary_policy.select_primary(&candidates);
        let mut conn = Connection::new(cfg.conn, now);
        // Only a policy that may re-inject, and has where to, asks what.
        if cfg.path_techs.len() > 1 && cfg.qoe_control != QoeControl::AlwaysOff {
            conn.track_reinjection(cfg.reinject_mode.rank());
        }
        MpConnection {
            conn,
            reinject_mode: cfg.reinject_mode,
            qoe_control: cfg.qoe_control,
            tracer: Tracer::disabled(),
            gate_seen: None,
            sched_scratch: Vec::new(),
            copies: Vec::new(),
            carrier: None,
            num_paths: 0,
            migrate: false,
            follow_peer_path: false,
            last_recv: now,
            carried: Vec::new(),
        }
    }

    /// The connection underneath: everything that is not scheduling policy
    /// (lifecycle, streams, PATH_STATUS, gauges, CIDs, address validation, …).
    pub fn conn(&self) -> &Connection {
        &self.conn
    }

    /// Mutable access to the connection underneath. Its transmit calls
    /// bypass the policy; use [`MpConnection::poll_transmit`].
    pub fn conn_mut(&mut self) -> &mut Connection {
        &mut self.conn
    }

    /// True once established.
    pub fn is_established(&self) -> bool {
        self.conn.is_established()
    }

    /// Attach a tracer; transport events (path management included) are
    /// emitted under `<tracer>.quic` and scheduling / re-injection events
    /// under `<tracer>.core`. Pass [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.conn.set_tracer(tracer.scoped("quic"));
        self.tracer = tracer.scoped("core");
    }

    /// Whether re-injection is currently enabled (Alg. 1 output; exposed
    /// for the Fig. 6 dynamics probe).
    pub fn reinjection_enabled(&self) -> bool {
        let paths = self.conn.paths().iter();
        let mdt = max_deliver_time(
            paths.map(|p| (&p.rtt, p.space.recovery.has_ack_eliciting_in_flight())),
        );
        reinjection_decision(self.qoe_control, self.conn.peer_qoe(), mdt)
    }

    /// Open a bidirectional stream with a scheduling priority (lower =
    /// earlier video portion = more urgent).
    pub fn open_stream(&mut self, priority: u8) -> u64 {
        self.conn.open_stream(priority)
    }

    /// Plain stream write (the standard QUIC API).
    pub fn stream_send(&mut self, id: u64, data: &[u8], fin: bool) {
        self.conn.stream_send(id, data, fin);
    }

    /// Read available data from a stream, lent until the next call into
    /// the connection ([`Connection::stream_consume`]).
    pub fn stream_consume(&mut self, id: u64, max: usize) -> &[u8] {
        self.conn.stream_consume(id, max)
    }

    /// [`MpConnection::stream_consume`], copied out.
    pub fn stream_recv(&mut self, id: u64, max: usize) -> Vec<u8> {
        self.conn.stream_recv(id, max)
    }

    /// Feed the latest player QoE snapshot (client side; see
    /// [`Connection::set_qoe`]). Until multipath is negotiated there is
    /// nobody to act on it, and it is dropped.
    pub fn set_qoe(&mut self, q: QoeSignal) {
        if self.conn.set_qoe(q) {
            let QoeSignal { cached_frames, cached_bytes, bps, fps } = q;
            let event = Event::QoeSignal { sent: true, cached_frames, cached_bytes, bps, fps };
            self.tracer.emit(self.conn.lifecycle().last_activity(), event);
        }
    }

    /// Ingest a datagram that arrived on network path `path`.
    pub fn handle_datagram(&mut self, now: Instant, path: usize, datagram: &[u8]) {
        let path = self.arrived_on(now, path);
        self.conn.handle_datagram_on(now, path, datagram);
    }

    /// [`MpConnection::handle_datagram`], opened and read where it lies
    /// ([`Connection::handle_datagram_in_place`]).
    pub fn handle_datagram_in_place(&mut self, now: Instant, path: usize, datagram: &mut [u8]) {
        let path = self.arrived_on(now, path);
        self.conn.handle_datagram_in_place(now, path, datagram);
    }

    /// A datagram this endpoint sent came back delivered
    /// ([`Connection::recycle_datagram`]).
    pub fn recycle_datagram(&mut self, buffer: Vec<u8>) {
        self.conn.recycle_datagram(buffer);
    }

    /// Earliest timer deadline: the connection's, and a CM client's stall.
    pub fn poll_timeout(&self) -> Option<Instant> {
        // A plain match on purpose: the world reads this in every round and
        // again for its next wake-up, and an `into_iter().chain(..).min()`
        // form measured 9 % slower on the benchmark's bulk_fatpipe.
        let base = self.conn.poll_timeout();
        match self.cm_stall_deadline() {
            Some(stall) => Some(base.map_or(stall, |b| b.min(stall))),
            None => base,
        }
    }

    /// Handle a timer firing: the connection's, and a CM client's stall,
    /// on which it migrates.
    pub fn on_timeout(&mut self, now: Instant) {
        self.conn.on_timeout(now);
        self.migrate_if_stalled(now);
    }

    /// Produce the next (network path, datagram) to transmit. A one-path
    /// scheme sends on the network path that carries it; without multipath
    /// there is one path and nothing to decide; with it, what the
    /// connection owes first, then new data or re-injection via the
    /// scheduler.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        if let Some(carrier) = self.carrier {
            return self.conn.poll_transmit_on(now).map(|(_, d)| (carrier, d));
        }
        if !(self.conn.multipath_negotiated() && self.conn.is_established()) {
            return self.conn.poll_transmit_on(now);
        }
        let tx = self.conn.poll_control(now);
        if tx.is_some() {
            return tx;
        }
        self.poll_data(now)
    }

    /// New-data / re-injection transmission.
    fn poll_data(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        let sched_prof = prof::span!("core/sched_decide");
        // The scheduler's view of the paths: `(path, srtt, usable now)`. It
        // offers a path only with room for a whole datagram (the connection
        // would send on half): taking the fastest path for its last half
        // datagram concentrates in-flight, and with it re-injection, there.
        let conn = &self.conn;
        self.sched_scratch.clear();
        self.sched_scratch.extend(conn.paths().iter().map(|p| {
            let usable = p.usable_for_data() && conn.budget(p.id) >= MAX_DATAGRAM_SIZE;
            (p.id, p.rtt.smoothed(), usable)
        }));
        let path = min_rtt_choice(&self.sched_scratch)?;
        let policy = "minrtt";
        drop(sched_prof);
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
        let failover = self.conn.paths().iter().any(|p| p.state == PathState::Suspect)
            && !matches!(self.qoe_control, QoeControl::AlwaysOff);
        let reinjection_on = self.reinjection_enabled() || failover;
        if self.gate_seen != Some(reinjection_on) {
            self.gate_seen = Some(reinjection_on);
            self.tracer.emit(now, Event::ReinjectionGate { enabled: reinjection_on });
        }
        drop(gate_prof);
        // One look serves both decisions below: nothing it reads changes
        // until a datagram is built.
        let (admit, preempts) =
            if reinjection_on { self.reinject_scan(now, path) } else { (Admit::Nothing, false) };
        if failover || preempts {
            if let Some(tx) = self.reinject(now, path, admit) {
                return Some(tx);
            }
        }
        // New data on this path.
        if let Some(tx) = self.conn.send_new_data(now, path) {
            self.tracer.emit(now, Event::SchedulerDecision { path: path as u8, policy });
            return Some(tx);
        }
        // No new data eligible: consider re-injection (XLINK §5.1-5.2).
        if let Some(tx) = self.reinject(now, path, admit) {
            return Some(tx);
        }
        // Other paths may still have new-data room (e.g. the min-RTT path
        // was flow-control-limited for its streams — rare, but cover it).
        for &(i, _, ok) in &self.sched_scratch {
            if ok && i != path {
                if let Some(tx) = self.conn.send_new_data(now, i) {
                    self.tracer.emit(now, Event::SchedulerDecision { path: i as u8, policy });
                    return Some(tx);
                }
            }
        }
        None
    }

    /// The rank of the most urgent unsent data, if any stream has some.
    fn best_pending_rank(&self) -> Option<Rank> {
        let rank = self.reinject_mode.rank();
        let pending = self.conn.streams().iter().filter(|st| st.send.has_pending());
        pending
            .map(|st| rank(st.priority, st.send.next_pending_priority().unwrap_or(u8::MAX)))
            .min()
    }

    /// What may be re-injected onto `path` now under the configured mode
    /// (paper Fig. 4), and whether the most urgent of it goes out ahead of
    /// the unsent data: with nothing unsent it is trivially first, appending
    /// mode never lets it, a blocked head always goes first.
    fn reinject_scan(&mut self, now: Instant, path: usize) -> (Admit, bool) {
        let _prof = prof::span!("core/reinject_scan");
        self.conn.expire_copies(now);
        let pending = self.best_pending_rank();
        let admit = match self.reinject_mode {
            ReinjectMode::Appending if pending.is_some() => Admit::Nothing,
            ReinjectMode::OpportunisticHead => Admit::Heads,
            _ => Admit::UpTo(pending),
        };
        let first = Self::reinject_queue(&self.conn, admit, path).next();
        let preempts = match self.reinject_mode {
            ReinjectMode::Appending => false,
            ReinjectMode::OpportunisticHead => first.is_some(),
            _ => first.is_some_and(|first| pending.is_none_or(|p| first.rank < p)),
        };
        (admit, preempts)
    }

    /// The connection's candidates for `path` that `admit` lets through, in
    /// the order they are re-injected: rank, then stream and offset.
    fn reinject_queue(
        conn: &Connection,
        admit: Admit,
        path: usize,
    ) -> impl Iterator<Item = ReinjectCandidate> + '_ {
        let srtt = |p: usize| conn.paths()[p].rtt.smoothed();
        conn.reinject_candidates(path)
            .take_while(move |c| match admit {
                Admit::Nothing => false,
                Admit::UpTo(pending) => pending.is_none_or(|p| c.rank <= p),
                Admit::Heads => true,
            })
            .filter(move |c| {
                admit != Admit::Heads || (is_head(conn, c) && srtt(c.holder) >= srtt(path) * 2)
            })
    }

    /// Re-inject onto `path` what `admit` (of [`MpConnection::reinject_scan`])
    /// lets through: its most urgent ranges, one datagram within the path's
    /// budget.
    fn reinject(&mut self, now: Instant, path: usize, admit: Admit) -> Option<(usize, Vec<u8>)> {
        let mut queue = Self::reinject_queue(&self.conn, admit, path).peekable();
        queue.peek()?;
        let _prof = prof::span!("core/reinject");
        self.copies.clear();
        let mut remaining = (MAX_DATAGRAM_SIZE as usize - 64).min(self.conn.budget(path) as usize);
        for candidate in queue {
            if remaining < 48 {
                break;
            }
            let (stream_id, range) = (candidate.stream_id, candidate.range);
            let max_payload = (remaining - 24) as u64;
            let end = range.end.min(range.start + max_payload);
            let sub = SendRange { start: range.start, end };
            let (path, offset, len) = (path as u8, sub.start, sub.len());
            self.tracer.emit(now, Event::Reinjection { path, stream_id, offset, len });
            remaining = remaining.saturating_sub(sub.len() as usize + 24);
            let fin = candidate.fin && end == range.end;
            self.copies.push(ReinjectCandidate { range: sub, fin, ..candidate });
        }
        let tx = self.conn.send_copies(now, path, &self.copies);
        if tx.is_some() && self.reinject_mode == ReinjectMode::OpportunisticHead {
            // Penalisation: the path that held a copied head up gives way.
            for copy in &self.copies {
                self.conn.penalize_path(now, copy.holder);
            }
        }
        tx
    }
}

/// `candidate` holds its stream's lowest offset in flight.
fn is_head(conn: &Connection, candidate: &ReinjectCandidate) -> bool {
    let stream = conn.streams().get(candidate.stream_id);
    let lowest = stream.and_then(|s| s.send.in_flight_from(0));
    lowest.is_some_and(|run| candidate.range.start <= run.start && run.start < candidate.range.end)
}

#[cfg(test)]
mod reinject_model;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qoe::redundancy_ratio;
    use xlink_quic::error::TransportError;
    use xlink_quic::frame::{Frame, PathStatusKind};

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

    /// The paper's redundancy ratio of what a connection sent.
    fn cost(s: &MpStats) -> f64 {
        redundancy_ratio(s.stream_bytes_sent, s.stream_bytes_retransmitted, s.reinjected_bytes)
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
        assert!(s.conn().paths()[0].bytes_sent > 0);
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
        let q = s.conn().peer_qoe().expect("server should have QoE feedback");
        assert_eq!(q.cached_frames, 10);
        assert_eq!(q.fps, 30);
    }

    #[test]
    fn reinjection_decision_follows_controller() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        // The player's snapshot reaches the server on the ACK_MPs of an
        // exchange.
        let id = c.open_stream(0);
        c.stream_send(id, b"req", false);
        pump(&mut now, &mut c, &mut s);
        let mut report = |c: &mut MpConnection, s: &mut MpConnection, cached_frames| {
            c.set_qoe(QoeSignal { cached_bytes: 0, cached_frames, bps: 0, fps: 30 });
            s.stream_send(id, &[0u8; 3000], false);
            pump(&mut now, c, s);
            assert_eq!(s.conn().peer_qoe().map(|q| q.cached_frames), Some(cached_frames));
        };
        // High buffer → off.
        report(&mut c, &mut s, 300);
        assert!(!s.reinjection_enabled());
        // Low buffer → on.
        report(&mut c, &mut s, 1);
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
        assert_eq!(s.conn().stats().reinjected_bytes, 0);
        assert_eq!(cost(&s.conn().stats()), 0.0);
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
        assert!(s.conn().stats().reinjected_bytes > 0, "expected proactive duplication");
        // Deliver everything (duplicates included) — client must see
        // exactly the original bytes.
        for (path, d) in sent {
            c.handle_datagram(now, path, &d);
        }
        let got = c.stream_recv(id, usize::MAX);
        assert_eq!(got, vec![2u8; 20_000]);
        // Receiver counted duplicate bytes.
        let dup: u64 = c.conn().streams().iter().map(|st| st.recv.duplicate_bytes()).sum();
        assert!(dup > 0, "receiver should observe duplicates");
    }

    #[test]
    fn path_status_standby_excludes_from_scheduling() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.conn_mut().set_path_status(1, PathStatusKind::Standby);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.conn().paths()[1].state, PathState::Standby);
        assert_eq!(c.conn().paths()[1].state, PathState::Standby);
        // All new data goes to path 0 now.
        let before = c.conn().paths()[1].bytes_sent;
        let id = c.open_stream(0);
        c.stream_send(id, &vec![0u8; 50_000], true);
        pump(&mut now, &mut c, &mut s);
        // Path 1 may still carry ACKs; but no significant data growth.
        let after = c.conn().paths()[1].bytes_sent;
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
        s.conn_mut().set_path_status(1, PathStatusKind::Abandon);
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
        let range = s.conn.streams_mut().write(id, &vec![9u8; 3000], false);
        s.conn.streams_mut().set_frame_priority(id, range, 0);
        s.stream_send(id, &vec![8u8; 3000], true);
        pump(&mut now, &mut c, &mut s);
        let got = c.stream_recv(id, usize::MAX);
        assert_eq!(got.len(), 6000);
        assert!(got[..3000].iter().all(|&b| b == 9));
    }

    /// A pair whose connection-level flow-control limit (both directions:
    /// limits start at the endpoint's own and are only ever raised) is far
    /// smaller than the 100 KB the server then queues on one stream, the
    /// client not reading. Returns once the server has run into the limit.
    fn flow_control_blocked_pair() -> (MpConnection, MpConnection, Instant, u64) {
        let mut now = Instant::ZERO;
        let (mut ccfg, mut scfg) = (client_cfg(1), server_cfg(2));
        ccfg.conn.params.initial_max_data = 20_000;
        scfg.conn.params.initial_max_data = 20_000;
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
        let credit = s.conn().streams().conn_send_credit();
        assert!(credit < MAX_DATAGRAM_SIZE, "not flow-control-limited: {credit} B of credit");
        assert!(
            !c.conn().is_closed() && !s.conn().is_closed(),
            "the limit was overrun: {:?}",
            c.conn().close_error()
        );
        assert!(s.conn().streams().send_data_used <= s.conn().streams().send_max_data);
        // Reading on the other side lifts the limit and the rest arrives.
        let mut got = 0;
        for _ in 0..200 {
            got += c.stream_recv(id, usize::MAX).len();
            pump(&mut now, &mut c, &mut s);
            now += Duration::from_millis(2);
        }
        assert_eq!(got, 100_000, "transfer did not resume after MAX_DATA");
        assert!(!c.conn().is_closed() && !s.conn().is_closed());
    }

    /// Send until `conn` has nothing more, then poll once more at the same
    /// instant: still nothing, and nothing moved (see the test of the same
    /// name in `xlink_quic::connection`).
    fn assert_none_is_stable(what: &str, conn: &mut MpConnection, now: Instant) {
        while conn.poll_transmit(now).is_some() {}
        let before =
            (conn.conn().streams().control.len(), conn.poll_timeout(), conn.conn().stats());
        assert!(conn.poll_transmit(now).is_none(), "{what}: sent again with no input");
        let after = (conn.conn().streams().control.len(), conn.poll_timeout(), conn.conn().stats());
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
        for p in c.conn().paths() {
            assert!(
                p.space.recovery.bytes_in_flight() + MAX_DATAGRAM_SIZE > p.cwnd(),
                "path {} open",
                p.id
            );
        }

        // Blocked by connection flow control with open congestion windows.
        let (c, mut s, now, _) = flow_control_blocked_pair();
        assert!(
            s.conn().streams().conn_send_credit() < MAX_DATAGRAM_SIZE,
            "not flow-control-limited"
        );
        assert!(s
            .conn()
            .paths()
            .iter()
            .any(|p| p.cwnd() > p.space.recovery.bytes_in_flight() + MAX_DATAGRAM_SIZE));
        assert_none_is_stable("flow control", &mut s, now);
        assert_eq!(s.conn().streams().control.len(), 0, "a control frame left on the queue");
        assert!(
            !s.conn().is_closed() && !c.conn().is_closed(),
            "the limit was overrun: {:?}",
            c.conn().close_error()
        );

        // Closing: the CONNECTION_CLOSE went out; no packet arrives to
        // warrant a replay.
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.conn_mut().close(TransportError::NoError, "bye");
        assert_none_is_stable("closing", &mut c, now);
        assert!(c.conn().is_closed() && !c.conn().is_drained());

        // Drained: the closing period ran out and the state was freed.
        let end = c.poll_timeout().expect("drain deadline");
        c.on_timeout(end);
        assert!(c.conn().is_drained());
        assert_none_is_stable("drained", &mut c, end);
    }

    /// Receiving the draft's standalone QOE_CONTROL_SIGNALS frame is peer
    /// input: a client that sends one (ours never does, the snapshot rides
    /// on ACK_MP) is heard.
    #[test]
    fn qoe_control_signals_frame_reaches_server() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        assert!(c.is_established());
        let q = QoeSignal { cached_bytes: 9, cached_frames: 8, bps: 7, fps: 6 };
        c.conn_mut().streams_mut().control.push(Frame::QoeControlSignals(q));
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.conn().peer_qoe(), Some(&q));
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
        let st = s.conn().stats();
        assert!(cost(&st) >= 0.0 && cost(&st) <= 1.0);
        assert_eq!(st.reinjections > 0, st.reinjected_bytes > 0, "counters must agree");
    }

    /// A server that re-injects whenever it can, with a client that has
    /// asked for stream `id`.
    fn always_on_pair() -> (MpConnection, MpConnection, Instant, u64) {
        let mut now = Instant::ZERO;
        let mut scfg = server_cfg(2);
        scfg.qoe_control = QoeControl::AlwaysOn;
        let (mut c, mut s) = (MpConnection::new(client_cfg(1), now), MpConnection::new(scfg, now));
        pump(&mut now, &mut c, &mut s);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        pump(&mut now, &mut c, &mut s);
        (c, s, now, id)
    }

    /// The steady state of a server that has copied all that is in flight on
    /// the slower path to the faster one: every poll asks what it may
    /// re-inject, and the answer — nothing — allocates nothing, however much
    /// is in flight.
    #[test]
    fn a_poll_that_finds_nothing_to_reinject_allocates_nothing() {
        let (mut c, mut s, mut now, id) = always_on_pair();
        // Open both congestion windows on a few megabytes first.
        let warm_up = 4 << 20;
        s.stream_send(id, &vec![0u8; warm_up], false);
        let mut got = 0;
        while got < warm_up {
            pump(&mut now, &mut c, &mut s);
            got += c.stream_recv(id, usize::MAX).len();
            now += Duration::from_millis(1);
        }
        pump(&mut now, &mut c, &mut s); // the client's new flow-control limits
                                        // A thousand packets on the slower path, and no acknowledgement from
                                        // here on: the scheduler offers the faster path, nothing is unsent,
                                        // so all of them are copied there.
        s.stream_send(id, &vec![1u8; 1000 * 1262], false);
        while s.conn.send_new_data(now, 1).is_some() {}
        while s.poll_transmit(now).is_some() {}
        let in_flight = |path: usize| s.conn().paths()[path].space.recovery.in_flight_count();
        assert!(in_flight(0) >= 1000 && in_flight(1) == 1000);
        assert_eq!(s.conn().stats().reinjections, 1000);
        assert!(s.conn().budget(0) >= MAX_DATAGRAM_SIZE, "path 0 is still on offer");
        let (tx, report) = prof::with_recording(|| {
            let _span = prof::span!("test/poll");
            s.poll_transmit(now)
        });
        assert!(tx.is_none());
        let scan = report.get("test;poll;core;reinject_scan").expect("the poll gets to ask");
        assert_eq!((scan.calls, scan.allocs), (1, 0));
        assert_eq!(report.rows.iter().map(|r| r.allocs).sum::<u64>(), 0, "{}", report.folded());
    }

    /// Pinned, not wanted (ROADMAP hygiene): a candidate cut to the room left
    /// in the datagram is recorded as copied at its start, so its uncopied
    /// tail is no candidate — first it overlaps the copy in flight on the
    /// target, then, the copy acknowledged, its start is still on record —
    /// until the record is ten seconds old.
    #[test]
    fn the_tail_of_a_truncated_copy_waits_out_the_copy_lifetime() {
        let (mut c, mut s, mut now, id) = always_on_pair();
        let queue = |s: &mut MpConnection, now: Instant| {
            let (admit, _) = s.reinject_scan(now, 1);
            MpConnection::reinject_queue(&s.conn, admit, 1).map(|c| c.range).collect::<Vec<_>>()
        };
        // Two packets on path 0: 600 bytes, then a full one.
        let range = |start, end| SendRange { start, end };
        for len in [600, 1262] {
            s.stream_send(id, &vec![2u8; len], false);
            s.conn.send_new_data(now, 0).expect("window open");
        }
        assert_eq!(queue(&mut s, now), [range(0, 600), range(600, 1862)]);
        // One datagram onto path 1 has room for the first and 638 bytes of
        // the second.
        let (admit, _) = s.reinject_scan(now, 1);
        let (path, copies) = s.reinject(now, 1, admit).expect("two candidates");
        assert_eq!(
            s.copies.iter().map(|c| c.range).collect::<Vec<_>>(),
            [range(0, 600), range(600, 1238)]
        );
        assert_eq!(queue(&mut s, now), []);
        // The copies arrive and are acknowledged; the originals never are.
        c.handle_datagram(now, path, &copies);
        while let Some((path, ack)) = c.poll_transmit(now) {
            s.handle_datagram(now, path, &ack);
        }
        let send = &s.conn.streams().get(id).expect("open").send;
        assert_eq!(send.in_flight_from(0), Some(range(1238, 1862)), "the tail is on path 0 only");
        assert_eq!(queue(&mut s, now), [], "and yet no candidate for path 1");
        now += Duration::from_millis(9_999);
        assert_eq!(queue(&mut s, now), []);
        now += Duration::from_millis(1);
        assert_eq!(queue(&mut s, now), [range(600, 1862)]);
    }

    // ---- the MPTCP arm: opportunistic retransmission (§8) -------------

    /// The multipath connection as the harness builds `Scheme::Mptcp`.
    fn mptcp(cfg: MpConfig) -> MpConfig {
        let mut cfg = cfg.vanilla();
        cfg.qoe_control = QoeControl::AlwaysOn;
        cfg.reinject_mode = ReinjectMode::OpportunisticHead;
        cfg
    }

    /// Two paths with a fixed round-trip time each (half of it each way).
    struct Wire {
        rtt: [Duration; 2],
        /// `(arrival, to the server, path, datagram)`.
        in_flight: Vec<(Instant, bool, usize, Vec<u8>)>,
    }

    impl Wire {
        /// Put everything `conn` has to send now on the wire.
        fn send_all(&mut self, now: Instant, to_server: bool, conn: &mut MpConnection) {
            while let Some((path, d)) = conn.poll_transmit(now) {
                self.in_flight.push((now + self.rtt[path] / 2, to_server, path, d));
            }
        }

        /// Advance to `until`, delivering datagrams and serving timers in
        /// time order. The client sends whenever it can; the server only
        /// if `server_sends` (a test holds it back to look at one poll).
        fn run(
            &mut self,
            now: &mut Instant,
            until: Instant,
            c: &mut MpConnection,
            s: &mut MpConnection,
            server_sends: bool,
        ) {
            loop {
                self.send_all(*now, true, c);
                if server_sends {
                    self.send_all(*now, false, s);
                }
                let arrivals = self.in_flight.iter().map(|e| e.0);
                let next = arrivals.chain(c.poll_timeout()).chain(s.poll_timeout()).min();
                let Some(next) = next.filter(|&t| t <= until) else {
                    *now = until;
                    return;
                };
                *now = next.max(*now + Duration::from_micros(1));
                let (due, later) = self.in_flight.drain(..).partition(|e| e.0 <= *now);
                self.in_flight = later;
                for (_, to_server, path, d) in due {
                    let to = if to_server { &mut *s } else { &mut *c };
                    to.handle_datagram(*now, path, &d);
                }
                c.on_timeout(*now);
                s.on_timeout(*now);
            }
        }
    }

    /// An MPTCP-arm pair over paths of the given round-trip times, stopped
    /// where the mode has its decision to make: the server filled both
    /// congestion windows from one stream, fastest path first, path 0's
    /// share has been acknowledged, and path 1 — whose acknowledgements
    /// are still on their way — holds the stream's head. The server has
    /// not been polled since, and has more to send.
    fn blocked_head_pair(rtt: [u64; 2]) -> (MpConnection, Instant, Wire) {
        let mut now = Instant::ZERO;
        let mut c = MpConnection::new(mptcp(client_cfg(1)), now);
        let mut s = MpConnection::new(mptcp(server_cfg(2)), now);
        let mut wire = Wire { rtt: rtt.map(Duration::from_millis), in_flight: Vec::new() };
        wire.run(&mut now, Instant::from_millis(1500), &mut c, &mut s, true);
        let id = c.open_stream(0);
        c.stream_send(id, b"r", true);
        wire.run(&mut now, Instant::from_millis(3000), &mut c, &mut s, true);
        s.stream_recv(id, 10);
        for (p, want) in s.conn().paths().iter().zip(wire.rtt) {
            let srtt = p.rtt.smoothed();
            assert!(srtt >= want && srtt < want + want / 2, "path {}: srtt {srtt}", p.id);
        }
        s.stream_send(id, &vec![5u8; 400_000], true);
        wire.send_all(now, false, &mut s);
        assert!(s.conn().in_flight(0) > 0 && s.conn().in_flight(1) > 0);
        // The head is on the fast path, the slow one was scheduled after
        // it: twice as slow in the wrong direction, nothing to do.
        assert_eq!(s.conn().stats().reinjections, 0, "copied the fast path's head");
        let acked = now + wire.rtt[0] + Duration::from_millis(5);
        assert!(acked < now + wire.rtt[1], "path 1 answers too early for this fixture");
        wire.run(&mut now, acked, &mut c, &mut s, false);
        assert_eq!(s.conn().in_flight(0), 0, "path 0's share not acknowledged");
        assert!(s.conn().in_flight(1) > 0);
        (s, now, wire)
    }

    /// Cubic's multiplicative decrease (`xlink_quic::cc`).
    const BETA: f64 = 0.7;

    #[test]
    fn opportunistic_head_goes_first_once_and_penalises_the_holder() {
        let (mut s, now, mut wire) = blocked_head_pair([20, 200]);
        let cwnd = |s: &MpConnection| s.conn().paths().iter().map(MpPath::cwnd).collect::<Vec<_>>();
        let (before, cwnd_before) = (s.conn().stats(), cwnd(&s));
        let (path, _) = s.poll_transmit(now).expect("a copy of the blocked head");
        let after = s.conn().stats();
        assert_eq!(path, 0, "the copy goes to the fast path");
        assert_eq!(after.reinjections, before.reinjections + 1);
        assert_eq!(after.stream_bytes_sent, before.stream_bytes_sent, "new data went first");
        // One congestion event on the holder, none on the target.
        assert_eq!(cwnd(&s)[1], (cwnd_before[1] as f64 * BETA) as u64);
        assert_eq!(cwnd(&s)[0], cwnd_before[0]);
        // The head has not moved: the same range is not copied to the same
        // path again, the window fills with new data.
        wire.send_all(now, false, &mut s);
        let filled = s.conn().stats();
        assert_eq!(filled.reinjections, after.reinjections, "copied twice");
        assert!(filled.stream_bytes_sent > after.stream_bytes_sent);
        assert_eq!(cwnd(&s)[1], (cwnd_before[1] as f64 * BETA) as u64, "penalised twice");
    }

    #[test]
    fn opportunistic_head_needs_a_holder_twice_as_slow() {
        let (mut s, now, mut wire) = blocked_head_pair([20, 30]);
        let before = s.conn().stats();
        wire.send_all(now, false, &mut s);
        let after = s.conn().stats();
        assert_eq!(after.reinjections, 0);
        assert!(after.stream_bytes_sent > before.stream_bytes_sent, "nothing was sent at all");
    }

    #[test]
    fn opportunistic_head_needs_room_on_the_target() {
        let (mut s, now, _) = blocked_head_pair([20, 200]);
        // Fill the fast path behind the policy's back.
        while s.conn_mut().send_new_data(now, 0).is_some() {}
        assert!(s.conn().budget(0) < MAX_DATAGRAM_SIZE);
        assert!(s.poll_transmit(now).is_none(), "sent with both windows full");
        assert_eq!(s.conn().stats().reinjections, 0);
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
        assert!(s.conn().stats().path_suspects >= 1, "server should have suspected path 1");
        assert_eq!(
            s.conn().paths()[1].state,
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
        assert!(s.conn().stats().path_revalidations >= 1, "healed path should revalidate");
        assert_eq!(s.conn().paths()[1].state, PathState::Active);
        assert_eq!(
            s.conn().paths()[1].space.recovery.pto_count(),
            0,
            "rejoin must reset PTO backoff"
        );
    }

    #[test]
    fn transient_stall_recovers_suspect_on_ack_progress() {
        let (mut c, mut s, mut now) = pair();
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
        // Long enough for the second PTO (Suspect); healed before the
        // third, whose probe is then acknowledged before a fourth could
        // escalate. Over these zero-delay links the second, third and
        // fourth PTO fire about 80, 190 and 400 ms into the stall.
        pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_millis(150));
        assert_eq!(s.conn().paths()[1].state, PathState::Suspect, "stall should mark path suspect");
        assert!(s.conn().stats().path_suspects >= 1);
        // Link heals; retransmissions get acked and the path recovers
        // without ever entering probation.
        pump_blackhole(&mut now, &mut c, &mut s, &[], Duration::from_secs(10));
        assert_eq!(s.conn().paths()[1].state, PathState::Active);
        assert!(s.conn().stats().path_revalidations >= 1);
        assert_eq!(
            s.conn().stats().path_probations,
            0,
            "ack recovery must not pass through probation"
        );
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
        assert!(s.conn().stats().path_suspects >= 1);
        assert_eq!(
            s.conn().stats().reinjected_bytes,
            0,
            "vanilla multipath must not re-inject even during failover"
        );
    }

    #[test]
    fn keepalives_hold_idle_connection_open() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.conn_mut().set_path_status(1, PathStatusKind::Standby);
        pump(&mut now, &mut c, &mut s);
        // 40 s of application silence exceeds the 30 s idle timeout; only
        // keepalive PINGs on the idle paths keep the connection alive.
        pump_blackhole(&mut now, &mut c, &mut s, &[], Duration::from_secs(40));
        assert!(
            !c.conn().is_closed() && !s.conn().is_closed(),
            "keepalives should defeat the idle timeout"
        );
        assert!(c.conn().stats().keepalives_sent > 0, "client should have refreshed idle paths");
        assert_eq!(
            c.conn().paths()[1].state,
            PathState::Standby,
            "standby must survive keepalives"
        );
    }
}
