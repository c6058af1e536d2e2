//! The paths of a connection and what happens to them: validation,
//! PATH_STATUS, pinned PATH_RESPONSEs, and the liveness machine (§9) that
//! turns consecutive PTOs and ack silence into Suspect → Probation →
//! revalidation. A single-path connection is the one-path case: its path
//! is active from the start and nothing here ever moves it.

use super::liveness::Probation;
use super::{Connection, PnSpace, SentFrame, MAX_PENDING_PATH_RESPONSES};
use crate::cc::Cubic;
use crate::cid::ConnectionId;
use crate::frame::{Frame, PathStatusKind};
use crate::rtt::RttEstimator;
use xlink_clock::Instant;
use xlink_obs::Event;

/// ACK_MP return-path policy (paper §5.3 and Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPathPolicy {
    /// Send ACK_MP on the current minimum-RTT path (XLINK's choice).
    FastestPath,
    /// Send ACK_MP on the path whose packets it acknowledges (MPTCP-like).
    OriginalPath,
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

impl PathState {
    fn name(self) -> &'static str {
        match self {
            PathState::Validating => "validating",
            PathState::Active => "active",
            PathState::Standby => "standby",
            PathState::Suspect => "suspect",
            PathState::Probation => "probation",
            PathState::Abandoned => "abandoned",
        }
    }
}

/// Per-path transport state.
pub struct Path {
    /// Path index == CID sequence number bound to this path.
    pub id: usize,
    /// Lifecycle state.
    pub state: PathState,
    /// The path's 1-RTT packet-number space.
    pub space: PnSpace,
    /// RTT estimator for this path (the primary path's also serves the
    /// Initial space).
    pub rtt: RttEstimator,
    pub(super) cc: Cubic,
    /// Time of the most recent ack-eliciting packet (for ack delay).
    pub(super) last_recv_time: Instant,
    /// Destination CID bound to this path, and its sequence number.
    pub(super) dcid: ConnectionId,
    pub(super) dcid_seq: u64,
    /// A PTO probe or keep-alive PING is owed.
    pub(super) probe_pending: bool,
    /// Outstanding local challenge payload.
    pub(super) challenge: Option<[u8; 8]>,
    /// PATH_RESPONSE payloads pinned to this path (the peer's challenges
    /// arrived here; replies must leave here too), oldest first.
    pub(super) response_pending: Vec<[u8; 8]>,
    /// Last time ack progress was observed for this path's space.
    pub(super) last_ack_time: Instant,
    /// Last time anything was received on this path.
    pub(super) last_heard: Instant,
    /// Last keep-alive PING requested (see [`super::Config::keepalive`]).
    pub(super) last_keepalive: Instant,
    /// Revalidation probing state while `state == Probation`.
    pub(super) probation: Option<Probation>,
    /// State to restore on revalidation (Active or Standby).
    suspect_from: PathState,
    /// Without multipath there is nowhere to fail over to, so consecutive
    /// PTOs change nothing — but the suspicion and its end are still
    /// reported, which keeps single-path traces comparable with multipath
    /// ones. True between the two reports.
    pub(super) suspected: bool,
    /// PTO probes sent since the path was marked Suspect (or suspected).
    pub(super) suspect_probes: u32,
    /// PATH_STATUS sequence number we last sent.
    status_seq: u64,
    /// Bytes sent on this path (wire level).
    pub bytes_sent: u64,
}

impl Path {
    pub(super) fn new(id: usize, state: PathState, dcid: ConnectionId, now: Instant) -> Self {
        Path {
            id,
            state,
            space: PnSpace::default(),
            rtt: RttEstimator::new(),
            cc: Cubic::new(),
            last_recv_time: now,
            dcid,
            dcid_seq: 0,
            probe_pending: false,
            challenge: None,
            response_pending: Vec::new(),
            last_ack_time: now,
            last_heard: now,
            last_keepalive: now,
            probation: None,
            suspect_from: PathState::Active,
            suspected: false,
            suspect_probes: 0,
            status_seq: 0,
            bytes_sent: 0,
        }
    }

    /// Congestion window of this path.
    pub fn cwnd(&self) -> u64 {
        self.cc.window()
    }

    /// True while consecutive PTOs mark the path suspect.
    pub fn is_suspected(&self) -> bool {
        self.suspected || self.state == PathState::Suspect
    }

    /// May carry new data.
    pub fn usable_for_data(&self) -> bool {
        self.state == PathState::Active
    }

    /// Keep-alives refresh the paths in service, preferred or not; a
    /// suspect or probation path has its own probing.
    pub(super) fn hears_keepalives(&self) -> bool {
        matches!(self.state, PathState::Active | PathState::Standby)
    }

    /// Since when the path has made no ack progress on what is in flight.
    pub(super) fn silent_since(&self) -> Instant {
        let sent = self.space.recovery.oldest_unacked_time();
        sent.map_or(self.last_ack_time, |t| t.max(self.last_ack_time))
    }
}

impl Connection {
    /// Report a path state transition to the tracer (nothing if none).
    pub(super) fn trace_path_state(
        &self,
        at: Instant,
        path: usize,
        from: PathState,
        to: PathState,
    ) {
        if from != to {
            let (path, from, to) = (path as u8, from.name(), to.name());
            self.tracer.emit(at, Event::PathStatusChange { path, from, to });
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

    /// The peer's PATH_STATUS for one of our paths.
    pub(super) fn on_path_status(&mut self, now: Instant, path: usize, status: PathStatusKind) {
        let Some(from) = self.paths.get(path).map(|p| p.state) else {
            return;
        };
        match (status, from) {
            (PathStatusKind::Abandon, _) => {
                self.paths[path].state = PathState::Abandoned;
                self.paths[path].probation = None;
                self.requeue_path_inflight(path);
            }
            (PathStatusKind::Standby, PathState::Active) => {
                self.paths[path].state = PathState::Standby;
            }
            (PathStatusKind::Available, PathState::Standby) => {
                self.paths[path].state = PathState::Active;
            }
            _ => {}
        }
        self.trace_path_state(now, path, from, self.paths[path].state);
    }

    /// Pin a PATH_RESPONSE to `path`, enforcing the per-path pending cap
    /// (§10): past [`MAX_PENDING_PATH_RESPONSES`] the oldest reply is
    /// dropped — an honest peer retransmits challenges it still needs.
    pub(super) fn pin_response(&mut self, path: usize, data: [u8; 8]) {
        let q = &mut self.paths[path].response_pending;
        if q.len() >= MAX_PENDING_PATH_RESPONSES {
            q.remove(0);
            self.path_responses_dropped += 1;
        }
        q.push(data);
    }

    /// A PATH_RESPONSE arrived. It may return on a different path than the
    /// challenged one (especially with fastest-path ACK strategies on the
    /// peer), so it is matched by payload.
    pub(super) fn on_path_response(&mut self, now: Instant, data: [u8; 8]) {
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

    /// When a path dies, its in-flight stream data must be requeued so
    /// other paths can carry it.
    fn requeue_path_inflight(&mut self, path: usize) {
        for pkt in self.paths[path].space.recovery.drain_all() {
            for (nth, sent) in pkt.content.into_iter().enumerate() {
                match sent {
                    // Re-injected copies included: with the path gone, a
                    // copy may be all that was left of the range.
                    SentFrame::Stream { id, range, fin, .. } => {
                        if let Some(s) = self.streams.get_mut(id) {
                            s.send.on_range_lost(range, fin);
                        }
                        self.on_range_gone((path, pkt.pn, nth), id, range, fin, false);
                    }
                    // Replies stay pinned even across a drain — the peer
                    // may still be waiting on the (possibly recovering)
                    // path. Re-pinning goes through the §10 cap.
                    SentFrame::Response(data) => self.pin_response(path, data),
                    _ => {}
                }
            }
        }
    }

    /// True when the failover machine is allowed to act: negotiated
    /// multipath, established, and the policy switch is on.
    pub(super) fn liveness_active(&self) -> bool {
        self.cfg.liveness.enabled && self.multipath && self.is_established()
    }

    /// The usable path with the lowest smoothed RTT.
    pub(super) fn fastest_active_path(&self) -> Option<usize> {
        let usable = self.paths.iter().filter(|p| p.usable_for_data());
        usable.min_by_key(|p| (p.rtt.smoothed(), p.id)).map(|p| p.id)
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
        let stranded_bytes = self.paths[path].space.recovery.bytes_in_flight();
        self.trace_path_state(now, path, from, PathState::Suspect);
        self.trace_suspected(now, path);
        let to = self.fastest_active_path().map_or(255, |t| t as u8);
        self.tracer.emit(now, Event::PathFailover { from: path as u8, to, stranded_bytes });
    }

    /// Report that `path` is under suspicion: after how many PTOs, and how
    /// long its oldest unacknowledged packet has been out.
    pub(super) fn trace_suspected(&self, now: Instant, path: usize) {
        let recovery = &self.paths[path].space.recovery;
        let sent = recovery.oldest_unacked_time();
        let silent_us = sent.map_or(0, |t| now.saturating_duration_since(t).as_micros());
        let (path, pto_count) = (path as u8, recovery.pto_count());
        self.tracer.emit(now, Event::PathSuspected { path, pto_count, silent_us });
    }

    /// Ack progress on `path`: whatever suspicion it was under is over.
    pub(super) fn on_ack_progress(&mut self, now: Instant, path: usize) {
        let p = &mut self.paths[path];
        p.last_ack_time = now;
        if std::mem::take(&mut p.suspected) {
            let probes = std::mem::take(&mut p.suspect_probes);
            self.tracer.emit(now, Event::PathRevalidated { path: path as u8, probes });
        } else if p.state == PathState::Suspect {
            // The path rejoins in the state suspicion interrupted.
            let (back_to, probes) = (p.suspect_from, std::mem::take(&mut p.suspect_probes));
            p.state = back_to;
            self.stats.path_revalidations += 1;
            self.trace_path_state(now, path, PathState::Suspect, back_to);
            self.tracer.emit(now, Event::PathRevalidated { path: path as u8, probes });
        }
    }

    /// Escalate a Suspect path to Probation: declare it blackholed,
    /// requeue its in-flight data onto survivors, and start the
    /// exponential-backoff PATH_CHALLENGE revalidation schedule.
    fn enter_probation(&mut self, now: Instant, path: usize) {
        self.requeue_path_inflight(path);
        let p = &mut self.paths[path];
        p.state = PathState::Probation;
        p.probation = Some(Probation::start(now, &self.cfg.liveness));
        p.challenge = None;
        p.probe_pending = false;
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
        let p = &mut self.paths[path];
        let back_to = p.suspect_from;
        p.state = back_to;
        p.cc = Cubic::new();
        p.rtt = RttEstimator::new();
        p.space.recovery.reset_pto_count();
        p.last_ack_time = now;
        self.stats.path_revalidations += 1;
        self.trace_path_state(now, path, PathState::Probation, back_to);
        self.tracer.emit(now, Event::PathRevalidated { path: path as u8, probes });
    }

    /// The §10.3 oracle recognised an unintelligible datagram on `path`:
    /// the peer provably lost the state behind it. Without multipath that
    /// is the connection: it closes as `ConnectionError::Reset` at once
    /// instead of idling into PTO / idle-timeout exhaustion. With it,
    /// losing one path's peer state kills only that path, which is sent
    /// straight to probation (no Suspect dwell, no PTO counting) while
    /// traffic fails over to the survivors.
    pub(super) fn on_stateless_reset(&mut self, now: Instant, path: usize) {
        self.stats.stateless_resets += 1;
        self.tracer.emit(now, Event::StatelessReset { path: path as u8 });
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
    pub(super) fn liveness_pass(&mut self, now: Instant) {
        if !self.liveness_active() {
            return;
        }
        let lv = self.cfg.liveness;
        for i in 0..self.paths.len() {
            let p = &self.paths[i];
            let ptos = p.space.recovery.pto_count();
            match p.state {
                PathState::Active | PathState::Standby => {
                    let silent = p.space.recovery.has_ack_eliciting_in_flight()
                        && now.saturating_duration_since(p.silent_since()) >= lv.ack_silence;
                    if ptos >= lv.suspect_after_ptos || silent {
                        self.suspect_path(now, i);
                        if ptos >= lv.blackhole_after_ptos {
                            self.enter_probation(now, i);
                        }
                    }
                }
                PathState::Suspect if ptos >= lv.blackhole_after_ptos => {
                    self.enter_probation(now, i)
                }
                _ => {}
            }
        }
    }
}
