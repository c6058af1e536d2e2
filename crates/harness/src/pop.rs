//! Fleet-vs-PoP runner: a population of honest single-path clients
//! (optionally laced with an [`EdgeAttacker`]) against one
//! [`xlink_edge::Pop`] under the netsim emulator.
//!
//! Each honest session is a real `xlink_quic` client that passes
//! Retry-token admission, downloads one object from its backend shard
//! (the synthetic [`xlink_lab::payload`] at phase 0, served by the PoP's
//! toy origin), and verifies every byte, one slice compare per arrival —
//! so the drain and crash experiments can assert *zero stream-byte
//! loss*, not just "it finished". A shard drain ([`PopRunConfig::drain`])
//! and crashes ([`PopRunConfig::crash`]) become the PoP's fault script,
//! which it applies on its own timer; an attack ([`PopRunConfig::attack`])
//! mixes in a flood. The report holds the PoP's bounded-state gauges
//! alongside population completion.
//!
//! A session lives on its own timers: the fleet's timer wakes it at its
//! start time, and once it is done its connection's timers leave the
//! fleet's deadline index ([`xlink_netsim::Host`]), so only a datagram
//! reaching it makes it act.
//!
//! ## Crash recovery
//!
//! When a session's connection dies — a stateless reset recognised by
//! the §10.3 token oracle, or idle-timeout exhaustion in the baseline
//! arm — the session *reconnects*: a fresh client connection re-runs
//! Retry-token admission and the download resumes at the exact byte
//! offset already verified, using the PoP's `[offset | length]` request
//! protocol. The pattern is absolute-position, so a single corrupt or
//! repeated byte anywhere across the splice flips `bytes_ok`. Each
//! session records when it noticed the death ([`PopReport::detect_times`])
//! and how long re-establishment took ([`PopReport::recovery_times`]).

use crate::adversary::{EdgeAttackKind, EdgeAttacker};
use crate::chaos::CrashPlan;
use crate::scenario::Scenario;
use std::collections::BTreeMap;
use xlink_clock::{Duration, Instant};
use xlink_core::lb::ServerId;
use xlink_edge::{
    encode_request, Pop, PopBoundedState, PopConfig, PopStats, ShardFault, ShardStats,
};
use xlink_lab::payload;
use xlink_netsim::{Endpoint, Host, LinkConfig, Path, Transmit, World};
use xlink_obs::{prof, Event, TraceLog, Tracer};
use xlink_quic::cid::ConnectionId;
use xlink_quic::connection::{Config, Connection};
use xlink_quic::error::ConnectionError;
use xlink_quic::packet::HeaderRef;
use xlink_quic::reset;

fn mix(a: u64, b: u64) -> u64 {
    xlink_lab::rng::mix(a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One fleet-vs-PoP run.
#[derive(Debug, Clone)]
pub struct PopRunConfig {
    /// Honest sessions.
    pub users: usize,
    /// Client addresses (world paths) the sessions are spread over —
    /// several users share an address, like a NAT'd population.
    pub addrs: usize,
    /// Backend shard ids.
    pub shards: Vec<ServerId>,
    /// Retry-token admission at the PoP.
    pub admission: bool,
    /// Bytes each session requests.
    pub request_bytes: u64,
    /// Run seed (session handshakes, PoP derivations).
    pub seed: u64,
    /// Virtual-time budget.
    pub deadline: Duration,
    /// Session start spacing (session `i` starts at `i × stagger`).
    pub stagger: Duration,
    /// Drain shard `.1` at virtual time `.0`.
    pub drain: Option<(Duration, ServerId)>,
    /// Scripted shard crashes (state destroyed, no drain window).
    pub crash: Option<CrashPlan>,
    /// Mix in `budget` datagrams of an edge attack from a dedicated
    /// address.
    pub attack: Option<(EdgeAttackKind, u64)>,
    /// Client idle timeout override. The crash experiments set this to
    /// a couple of seconds so the no-reset baseline arm (PTO/idle
    /// exhaustion) resolves inside the run deadline.
    pub idle_timeout: Option<Duration>,
    /// PoP answers orphaned short-header datagrams with §10.3 stateless
    /// resets. `false` = the detection baseline the crash experiments
    /// compare against (clients must idle out on their own).
    pub stateless_reset: bool,
    /// Per-path link rate.
    pub link_mbps: f64,
}

impl Default for PopRunConfig {
    fn default() -> Self {
        PopRunConfig {
            users: 50,
            addrs: 8,
            shards: vec![1, 2],
            admission: true,
            request_bytes: 20_000,
            seed: 1,
            deadline: Duration::from_secs(30),
            stagger: Duration::from_millis(2),
            drain: None,
            crash: None,
            attack: None,
            idle_timeout: None,
            stateless_reset: true,
            link_mbps: 50.0,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct PopReport {
    /// Honest sessions in the run.
    pub users: usize,
    /// Sessions that downloaded their full object with every byte
    /// matching the pattern.
    pub completed: usize,
    /// No completed session saw a corrupt byte (stream-byte integrity
    /// across admission, routing, drain migration, and crash resume).
    pub bytes_ok: bool,
    /// PoP counters (admits, rejects by reason, migrations, crashes).
    pub stats: PopStats,
    /// PoP capped-resource gauges at run end (peaks included).
    pub bounded: PopBoundedState,
    /// The PoP respected the 3× pre-validation send budget throughout.
    pub amp_ok: bool,
    /// Per-shard occupancy and drain/crash bookkeeping.
    pub shard_stats: BTreeMap<ServerId, ShardStats>,
    /// Retries the attacker's address received (amplification-capped).
    pub attacker_retries_seen: u64,
    /// Connection deaths recognised via the §10.3 reset oracle.
    pub resets_detected: u64,
    /// Reconnection attempts across the population.
    pub reconnects: u64,
    /// Sessions that finished their object after at least one
    /// reconnection (crash survivors).
    pub resumed: u64,
    /// Crash → death-noticed, one entry per detection that followed a
    /// scripted crash (the reset-vs-PTO differential metric).
    pub detect_times: Vec<Duration>,
    /// Death-noticed → resumed-and-established, one entry per
    /// successful reconnection.
    pub recovery_times: Vec<Duration>,
    /// Virtual time when the run ended.
    pub end: Duration,
    /// Calls into a member's `poll_transmit` by either endpoint's [`Host`],
    /// one per ready member asked: a session, the attacker and a PoP
    /// backend count alike, and a debug build's check of a sleeping member
    /// does not count. This and `timer_fires` are exact counts of what the
    /// runner did, not simulated results (kept last so a rendering of the
    /// results can stop before them): per PoP datagram they must not grow
    /// with the population.
    pub conn_polls: u64,
    /// Calls into a member's `on_timeout` by either endpoint's [`Host`].
    pub timer_fires: u64,
}

impl PopReport {
    /// Completion ratio over the honest population.
    pub fn completion(&self) -> f64 {
        if self.users == 0 {
            return 1.0;
        }
        self.completed as f64 / self.users as f64
    }

    /// Mean of a duration series, if any.
    fn mean(xs: &[Duration]) -> Option<Duration> {
        if xs.is_empty() {
            return None;
        }
        let total: u64 = xs.iter().map(|d| d.as_micros()).sum();
        Some(Duration::from_micros(total / xs.len() as u64))
    }

    /// Mean crash-to-detection latency.
    pub fn mean_detect(&self) -> Option<Duration> {
        Self::mean(&self.detect_times)
    }

    /// Mean detection-to-resume latency.
    pub fn mean_recovery(&self) -> Option<Duration> {
        Self::mean(&self.recovery_times)
    }
}

/// The client configuration of a session's connection incarnation
/// `incarnation`: its handshake seed mixes the run seed, the session's
/// salt and the incarnation.
fn client_config(seed: u64, salt: u64, idle_timeout: Option<Duration>, incarnation: u32) -> Config {
    let mut cfg = Config::client(mix(seed, salt ^ (u64::from(incarnation) << 32)));
    if let Some(idle) = idle_timeout {
        cfg.params.max_idle_timeout = idle;
        // Keep an elicitable packet on the wire: a pure receiver
        // whose server crashed has nothing in flight, so without
        // keep-alives the death only surfaces at the idle timeout —
        // even with the PoP answering resets.
        cfg.keepalive = Some(idle / 8);
    }
    cfg
}

/// One honest download session: a (re)connectable client that verifies
/// the absolute-position byte pattern across connection incarnations.
struct Session {
    conn: Connection,
    addr: usize,
    start: Instant,
    stream: Option<u64>,
    want: u64,
    /// Verified absolute byte offset — the resume point after a crash.
    received: u64,
    ok: bool,
    done_at: Option<Instant>,
    /// Run seed + per-user salt: reconnect incarnation `a` derives its
    /// handshake seed from (seed, salt, a), so reruns are deterministic.
    seed_base: u64,
    salt: u64,
    idle_timeout: Option<Duration>,
    /// Reconnections performed so far.
    attempts: u32,
    /// Reconnection budget exhausted with bytes still missing.
    gave_up: bool,
    /// Deaths recognised via the reset oracle.
    resets_seen: u32,
    /// When each connection death was noticed.
    detects: Vec<Instant>,
    /// A reconnect is in flight: (death-noticed time, attempt number).
    pending_resume: Option<(Instant, u32)>,
    /// (death-noticed, resumed-established) per successful reconnect.
    recoveries: Vec<(Instant, Instant)>,
    tracer: Tracer,
}

impl Session {
    /// Honest session `i` of the run `cfg`, before its start time.
    fn new(cfg: &PopRunConfig, i: usize, tracer: Tracer) -> Self {
        let (salt, start) = (0xc11e_0000 + i as u64, Instant::ZERO + cfg.stagger * i as u32);
        // Birth the connection at its own staggered start, not the
        // world's zero: idle is receive-only, so a conn created at t=0
        // but started late would begin life with its idle clock already
        // part-spent.
        let mut conn = Connection::new(client_config(cfg.seed, salt, cfg.idle_timeout, 0), start);
        conn.set_tracer(tracer.clone());
        Session {
            conn,
            addr: i % cfg.addrs,
            start,
            stream: None,
            want: cfg.request_bytes,
            received: 0,
            ok: true,
            done_at: None,
            seed_base: cfg.seed,
            salt,
            idle_timeout: cfg.idle_timeout,
            attempts: 0,
            gave_up: false,
            resets_seen: 0,
            detects: Vec::new(),
            pending_resume: None,
            recoveries: Vec::new(),
            tracer,
        }
    }

    /// Open the request stream once the handshake lands (a datagram
    /// completes it); on a resumed incarnation the request starts at the
    /// verified offset.
    fn drive(&mut self, now: Instant) {
        if self.stream.is_none() && self.conn.is_established() {
            let id = self.conn.open_stream(0);
            let request = encode_request(self.received, self.want - self.received);
            self.conn.stream_send(id, &request, true);
            self.stream = Some(id);
            if let Some((detected, attempt)) = self.pending_resume.take() {
                self.recoveries.push((detected, now));
                self.tracer.emit(now, Event::SessionResumed { attempt, offset: self.received });
            }
        }
    }

    /// Read response data through the consuming read and verify it
    /// against the payload at the offset it continues from.
    fn absorb(&mut self, now: Instant) {
        let Some(id) = self.stream else { return };
        let data = self.conn.stream_consume(id, usize::MAX);
        self.ok &= payload::matches(0, self.received, data);
        self.received += data.len() as u64;
        if self.received >= self.want && self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }

    fn exhausted(&self) -> bool {
        self.attempts >= MAX_RECONNECTS
    }

    /// If the connection died, record the detection and — if the object is
    /// unfinished and budget remains — replace it with a fresh incarnation
    /// that re-runs admission and resumes at the verified offset. Returns
    /// the replaced connection's CID.
    fn reconnect_if_closed(&mut self, now: Instant) -> Option<ConnectionId> {
        if self.done_at.is_some() || self.gave_up || !self.conn.is_closed() {
            return None;
        }
        self.detects.push(now);
        if self.conn.close_error() == Some(&ConnectionError::Reset) {
            self.resets_seen += 1;
        }
        if self.received >= self.want {
            // All bytes were already verified; nothing to resume.
            return None;
        }
        if self.exhausted() {
            self.gave_up = true;
            return None;
        }
        self.attempts += 1;
        let config = client_config(self.seed_base, self.salt, self.idle_timeout, self.attempts);
        let mut conn = Connection::new(config, now);
        conn.set_tracer(self.tracer.clone());
        self.pending_resume = Some((now, self.attempts));
        self.stream = None;
        Some(std::mem::replace(&mut self.conn, conn).local_cid())
    }
}

/// A member of the client fleet's [`Host`]: an honest session, or the
/// attacker.
// Every slot but one is a session: the one attacker is boxed, and a slot
// is no wider than a session (`a_fleet_slot_is_no_wider_than_a_session`).
#[allow(clippy::large_enum_variant)]
enum Client {
    Session(Session),
    Attacker(Box<EdgeAttacker>),
}

impl Endpoint for Client {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        self.on_datagram_in_place(now, path, &mut payload.to_vec());
    }

    fn on_datagram_in_place(&mut self, now: Instant, path: usize, payload: &mut [u8]) {
        match self {
            Client::Session(s) => {
                s.conn.handle_datagram_in_place(now, 0, payload);
                s.absorb(now);
            }
            Client::Attacker(a) => a.on_datagram(now, path, payload),
        }
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        let _prof = prof::span!("harness/pop_client_send");
        match self {
            // Quiet before its start: the fleet's start timer is its first input.
            Client::Session(s) if now < s.start => None,
            Client::Session(s) => {
                s.conn.poll_transmit(now).map(|payload| Transmit { path: s.addr, payload })
            }
            Client::Attacker(a) => a.poll_transmit(now),
        }
    }

    fn poll_timeout(&self) -> Option<Instant> {
        match self {
            Client::Session(s) => s.conn.poll_timeout(),
            Client::Attacker(_) => None,
        }
    }

    fn on_timeout(&mut self, now: Instant) {
        if let Client::Session(s) = self {
            s.conn.on_timeout(now);
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Client::Session(s) => {
                s.done_at.is_some() || s.gave_up || (s.conn.is_closed() && s.exhausted())
            }
            Client::Attacker(a) => a.exhausted(),
        }
    }
}

/// The client-side endpoint: every honest session plus the optional
/// attacker, demuxed by client CID (sessions) or address (attacker).
///
/// Slot `i` is session `i`; the attacker, when there is one, is the slot
/// after the last session — its place in the round-robin transmit order.
pub struct PopFleet {
    clients: Host<Client>,
    by_cid: BTreeMap<ConnectionId, usize>,
    /// Sessions sharing each client address, ascending: who a stateless
    /// reset arriving there is offered to.
    by_addr: Vec<Vec<usize>>,
    /// The attacker's slot.
    attacker: Option<usize>,
    /// The attacker's dedicated world path.
    attack_addr: usize,
    /// Sessions before this one have started; this one's start is the
    /// fleet's start timer (starts ascend with the slot).
    next_start: usize,
}

impl PopFleet {
    /// Sessions spread over `addrs` client addresses; the attacker, if
    /// any, sends from the address after them. The sessions go straight
    /// into their slots, never all held twice.
    fn new(
        sessions: impl ExactSizeIterator<Item = Session>,
        addrs: usize,
        attacker: Option<EdgeAttacker>,
    ) -> Self {
        let mut fleet = PopFleet {
            clients: Host::with_capacity(sessions.len() + usize::from(attacker.is_some())),
            by_cid: BTreeMap::new(),
            by_addr: vec![Vec::new(); addrs],
            attacker: None,
            attack_addr: addrs,
            next_start: 0,
        };
        for s in sessions {
            let (cid, addr) = (s.conn.local_cid(), s.addr);
            let slot = fleet.clients.insert(Client::Session(s));
            let prev = fleet.by_cid.insert(cid, slot);
            debug_assert!(prev.is_none(), "client CID collision");
            fleet.by_addr[addr].push(slot);
        }
        if let Some(a) = attacker {
            let slot = fleet.clients.insert(Client::Attacker(Box::new(a)));
            fleet.clients.touch(slot);
            fleet.attacker = Some(slot);
        }
        fleet
    }

    /// Session `slot`, if that slot holds one.
    fn session(&self, slot: usize) -> Option<&Session> {
        match self.clients.get(slot)? {
            Client::Session(s) => Some(s),
            Client::Attacker(_) => None,
        }
    }

    /// Every session, in slot order.
    fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.clients.members().filter_map(|(slot, _)| self.session(slot))
    }

    /// Session `slot` took an input. If its connection died, record the
    /// detection, and — if the object is unfinished and budget remains —
    /// replace the connection with a fresh incarnation that re-runs
    /// admission and resumes the download at the verified offset. Once a
    /// connection is up, ask for the object.
    fn settle(&mut self, now: Instant, slot: usize) {
        let Some(Client::Session(s)) = self.clients.get_mut(slot) else { return };
        if let Some(old_cid) = s.reconnect_if_closed(now) {
            self.by_cid.remove(&old_cid);
            let prev = self.by_cid.insert(s.conn.local_cid(), slot);
            debug_assert!(prev.is_none(), "reconnect CID collision");
        }
        s.drive(now);
        self.clients.touch(slot);
    }
}

impl Endpoint for PopFleet {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        // A session opens a datagram where it lies: this one is copied into
        // room the host keeps for it.
        let mut room = self.clients.room_with(payload);
        self.on_datagram_in_place(now, path, &mut room);
        self.clients.restore_room(room);
    }

    fn on_datagram_in_place(&mut self, now: Instant, path: usize, payload: &mut [u8]) {
        let _prof = prof::span!("harness/pop_client");
        if path == self.attack_addr {
            if let Some(slot) = self.attacker {
                self.clients.deliver(now, slot, path, payload);
            }
            return;
        }
        // Everything the PoP sends a client carries that client's CID as
        // the DCID — including Retries.
        let Ok((header, _)) = HeaderRef::decode(payload) else { return };
        if let Some(&i) = self.by_cid.get(&header.dcid) {
            // Handed the datagram here, not through `Host::deliver`, so that
            // the session is re-filed once, after `settle`.
            if let Some(client) = self.clients.get_mut(i) {
                client.on_datagram_in_place(now, path, payload);
            }
            self.settle(now, i);
            return;
        }
        // No session owns that CID. A §10.3 stateless reset is built to
        // be unattributable — its "DCID" bytes are scramble — so, like a
        // real client stack, offer it to the sessions sharing the
        // arrival address; only a token-oracle match kills anything.
        if reset::plausible_reset(payload) {
            let clients = &mut self.clients;
            let hit = self.by_addr.get(path).into_iter().flatten().copied().find(|&i| {
                let Some(Client::Session(s)) = clients.get_mut(i) else { return false };
                !s.conn.is_closed() && now >= s.start && s.conn.probe_stateless_reset(now, payload)
            });
            if let Some(i) = hit {
                self.settle(now, i);
            }
        }
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        self.clients.poll_transmit(now)
    }

    fn poll_timeout(&self) -> Option<Instant> {
        let start = self.session(self.next_start).map(|s| s.start);
        [self.clients.next_deadline(), start].into_iter().flatten().min()
    }

    fn on_timeout(&mut self, now: Instant) {
        // A session begins at its start time: from then on it may send.
        while self.session(self.next_start).is_some_and(|s| s.start <= now) {
            self.clients.touch(self.next_start);
            self.next_start += 1;
        }
        // Idle-timeout deaths surface here, not on a datagram.
        for slot in self.clients.fire_due(now) {
            self.settle(now, slot);
        }
    }

    fn is_done(&self) -> bool {
        self.clients.all_done()
    }
}

/// Run an honest fleet (plus optional attack) against a PoP.
pub fn run_pop(cfg: &PopRunConfig) -> PopReport {
    report(cfg, &simulate(cfg, None))
}

/// [`run_pop`] with tracing: PoP edge events under `edge.pop`, each
/// session under `client<i>`, links under `netsim.*`.
pub fn run_pop_traced(cfg: &PopRunConfig, log: &TraceLog) -> PopReport {
    report(cfg, &simulate(cfg, Some(log)))
}

/// Reconnection budget per session after its connection dies.
const MAX_RECONNECTS: u32 = 3;

/// Per-path one-way delay.
const LINK_DELAY: Duration = Duration::from_millis(10);

/// Run the fleet against a PoP scripted with the run's drain and crashes,
/// to the deadline or until every session is done; returns the world as it
/// stands then.
fn simulate(cfg: &PopRunConfig, log: Option<&TraceLog>) -> World<PopFleet, Pop> {
    assert!(cfg.addrs > 0 && !cfg.shards.is_empty());
    let drain = cfg.drain.map(|(at, shard)| (at, ShardFault::Drain(shard)));
    let mut pop = Pop::new(PopConfig {
        shards: cfg.shards.clone(),
        admission: cfg.admission,
        seed: mix(cfg.seed, 0x0e09_0e09),
        max_conns: (cfg.users * 2).max(256),
        stateless_reset: cfg.stateless_reset,
        faults: drain.into_iter().chain(cfg.crash.iter().flat_map(CrashPlan::faults)).collect(),
    });
    if let Some(log) = log {
        pop.set_tracer(log.tracer("edge.pop"));
    }
    let sessions = (0..cfg.users).map(|i| {
        let tracer = log.map_or_else(Tracer::disabled, |log| log.tracer(&format!("client{i}")));
        Session::new(cfg, i, tracer)
    });
    let attacker =
        cfg.attack.map(|(kind, budget)| EdgeAttacker::new(kind, cfg.seed, budget, cfg.addrs));
    let fleet = PopFleet::new(sessions, cfg.addrs, attacker);
    let n_paths = cfg.addrs + usize::from(cfg.attack.is_some());
    let paths = (0..n_paths)
        .map(|_| Path::symmetric(LinkConfig::constant_rate(cfg.link_mbps, LINK_DELAY)))
        .collect();
    let scenario = Scenario::new(paths, cfg.deadline);
    match log {
        Some(log) => scenario.traced(log).run(fleet, pop),
        None => scenario.run(fleet, pop),
    }
}

/// What a run left in `world`.
fn report(cfg: &PopRunConfig, world: &World<PopFleet, Pop>) -> PopReport {
    let zero = Instant::ZERO;
    let pop = &world.server;
    let fleet = &world.client;
    let completed = fleet.sessions().filter(|s| s.done_at.is_some() && s.ok).count();
    // Attribute each detection to the most recent scripted crash before
    // it (detections with no preceding crash — e.g. a stray close — are
    // not part of the differential metric). The world visits every timer
    // instant up to where it stopped, the PoP's faults included, so the
    // crashes applied are the scripted ones up to `world.now()`.
    let end = world.now().saturating_duration_since(zero);
    let mut crash_times: Vec<Instant> = (cfg.crash.iter().flat_map(|plan| &plan.crashes))
        .filter(|&&(at, _)| at <= end)
        .map(|&(at, _)| zero + at)
        .collect();
    crash_times.sort();
    let mut detect_times = Vec::new();
    let mut recovery_times = Vec::new();
    for s in fleet.sessions() {
        for &d in &s.detects {
            if let Some(&c) = crash_times.iter().rev().find(|&&c| c <= d) {
                detect_times.push(d.saturating_duration_since(c));
            }
        }
        for &(det, res) in &s.recoveries {
            recovery_times.push(res.saturating_duration_since(det));
        }
    }
    PopReport {
        users: cfg.users,
        completed,
        bytes_ok: fleet.sessions().all(|s| s.ok),
        stats: pop.stats().clone(),
        bounded: pop.bounded_state(),
        amp_ok: pop.amp_ok(),
        shard_stats: pop.shard_stats().clone(),
        attacker_retries_seen: fleet.clients.members().fold(0, |seen, (_, c)| match c {
            Client::Attacker(a) => seen + a.retries_seen,
            Client::Session(_) => seen,
        }),
        resets_detected: fleet.sessions().map(|s| u64::from(s.resets_seen)).sum(),
        reconnects: fleet.sessions().map(|s| u64::from(s.attempts)).sum(),
        resumed: fleet.sessions().filter(|s| s.attempts > 0 && s.done_at.is_some() && s.ok).count()
            as u64,
        detect_times,
        recovery_times,
        end: world.now().saturating_duration_since(zero),
        conn_polls: fleet.clients.conn_polls() + pop.conn_polls(),
        timer_fires: fleet.clients.timer_fires() + pop.timer_fires(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PopRunConfig {
        PopRunConfig { users: 12, addrs: 4, request_bytes: 5_000, ..PopRunConfig::default() }
    }

    #[test]
    fn honest_fleet_completes_through_admission() {
        let r = run_pop(&small());
        assert_eq!(r.completed, 12, "{r:?}");
        assert!(r.bytes_ok && r.amp_ok && r.bounded.within_caps(), "{r:?}");
        assert_eq!(r.stats.admitted, 12);
        // Admission-on means every session ate exactly one Retry.
        assert_eq!(r.stats.rejected("no_token"), 12);
        assert_eq!(r.reconnects, 0, "no fault, no reconnects: {r:?}");
    }

    /// A session fed a wrong byte ends unverified, which is what clears
    /// the report's `bytes_ok`. Here, once the session has asked for its
    /// object from offset 0, its verified offset is bumped by `skew`: with
    /// a skew of one every byte arrives one place late, the repeated byte
    /// of a resume splice that went wrong.
    #[test]
    fn a_wrong_byte_leaves_the_session_unverified() {
        for skew in [0, 1] {
            let cfg = PopRunConfig { users: 1, addrs: 1, admission: false, ..small() };
            let mut s = Session::new(&cfg, 0, Tracer::disabled());
            let mut pop = Pop::new(PopConfig {
                shards: cfg.shards.clone(),
                admission: false,
                ..PopConfig::default()
            });
            let mut now = Instant::ZERO;
            while s.done_at.is_none() && now < Instant::from_secs(5) {
                if s.stream.is_none() {
                    s.drive(now);
                    if s.stream.is_some() {
                        s.received += skew;
                    }
                }
                while let Some(d) = s.conn.poll_transmit(now) {
                    pop.on_datagram(now, s.addr, &d);
                }
                while let Some(t) = Endpoint::poll_transmit(&mut pop, now) {
                    s.conn.handle_datagram(now, &t.payload);
                    s.absorb(now);
                }
                now += Duration::from_millis(5);
                if s.conn.poll_timeout().is_some_and(|t| t <= now) {
                    s.conn.on_timeout(now);
                }
                Endpoint::on_timeout(&mut pop, now);
            }
            assert!(s.done_at.is_some(), "skew {skew}: the download must finish");
            assert_eq!(s.received, cfg.request_bytes + skew);
            assert_eq!(s.ok, skew == 0, "skew {skew}");
        }
    }

    /// The fleet's slots hold sessions and one boxed attacker, and the
    /// vacancy and the variant live in a session's unused bit patterns.
    #[test]
    fn a_fleet_slot_is_no_wider_than_a_session() {
        assert_eq!(std::mem::size_of::<Option<Client>>(), std::mem::size_of::<Session>());
    }

    /// A session whose start falls in a quiet stretch starts on time: its
    /// start is the fleet's timer.
    #[test]
    fn a_late_session_starts_at_its_start_time() {
        let cfg = PopRunConfig {
            users: 2,
            addrs: 1,
            stagger: Duration::from_secs(5),
            request_bytes: 5_000,
            ..PopRunConfig::default()
        };
        let log = TraceLog::recording();
        let r = run_pop_traced(&cfg, &log);
        assert_eq!(r.completed, 2, "{r:?}");
        let first_sent = log
            .events()
            .into_iter()
            .find(|e| {
                log.source_name(e.source).starts_with("client1")
                    && matches!(e.body, Event::PacketSent { .. })
            })
            .map(|e| e.time);
        assert_eq!(first_sent, Some(Instant::from_secs(5)));
        assert_eq!(r.end, Duration::from_millis(5_066), "{r:?}");
    }

    /// A finished session leaves little behind. Forty sessions started
    /// 100 ms apart each fetch 30 kB, about what `edge_churn`'s do; once
    /// every one has its object, the run holds at most 11 KiB per session:
    /// everything it allocated and did not free, the client's session and
    /// connection and the PoP's backend for it included, counted by the
    /// profiler's allocator while the run records. Keeping the sent-packet
    /// rings and the ACK scratch of idle connections, it held 13.9 KiB;
    /// keeping the receive buffers after the last read too, 15.1 KiB. It
    /// holds 11 020 bytes; 11 132 while each backend kept a request table.
    #[test]
    fn a_finished_session_holds_at_most_11_kib() {
        let cfg = PopRunConfig {
            users: 40,
            request_bytes: 30_000,
            stagger: Duration::from_millis(100),
            ..small()
        };
        let ((held, done), _) = prof::with_recording(|| {
            let before = prof::live_bytes();
            let world = simulate(&cfg, None);
            let done = world.client.sessions().filter(|s| s.done_at.is_some()).count();
            (prof::live_bytes() - before, done)
        });
        assert_eq!(done, cfg.users);
        let per_session = held / cfg.users as i64;
        assert!(per_session <= 11 << 10, "{per_session} bytes held per finished session");
    }

    /// A drain inside the downloads moves sessions that still have bytes
    /// to come, and each finishes byte-exact on the survivor.
    #[test]
    fn mid_run_drain_loses_no_bytes() {
        let at = Duration::from_millis(100);
        let cfg = PopRunConfig { drain: Some((at, 1)), request_bytes: 200_000, ..small() };
        let world = simulate(&cfg, None);
        let r = report(&cfg, &world);
        assert_eq!(r.completed, 12, "{r:?}");
        assert!(r.bytes_ok, "drain corrupted a stream: {r:?}");
        let drained = r.shard_stats[&1];
        assert!(drained.draining && drained.live == 0, "{drained:?}");
        assert_eq!(r.stats.migrations, drained.migrated_out);
        // Admission placed these sessions on shard 1; the drain moved each.
        let router = xlink_edge::EdgeRouter::new(&cfg.shards);
        let moved: Vec<&Session> = (world.client.sessions())
            .filter(|s| router.place(&s.conn.local_cid()) == Some(1))
            .collect();
        assert_eq!(moved.len() as u64, r.stats.migrations);
        for s in &moved {
            assert_eq!(world.server.shard_of(&s.conn.local_cid()), Some(2));
            assert!(s.ok && s.received == cfg.request_bytes);
        }
        let mid_download =
            moved.iter().filter(|s| s.done_at.is_some_and(|t| t > Instant::ZERO + at));
        assert!(mid_download.count() > 0, "the drain moved no session mid-download: {r:?}");
    }

    /// A fault scripted after every session is done is never applied.
    #[test]
    fn a_fault_after_the_run_is_never_applied() {
        let late = Duration::from_secs(5);
        let cfg = PopRunConfig {
            drain: Some((late, 1)),
            crash: Some(CrashPlan::single(late, 2, None)),
            ..small()
        };
        let log = TraceLog::recording();
        let r = run_pop_traced(&cfg, &log);
        assert_eq!(r.completed, 12, "{r:?}");
        assert!(r.end < late, "{r:?}");
        assert_eq!((r.stats.migrations, r.stats.shard_crashes), (0, 0), "{r:?}");
        assert!(r.shard_stats.values().all(|s| !s.draining && !s.crashed), "{r:?}");
        let lifecycle =
            |e: &Event| matches!(e, Event::ShardDrain { .. } | Event::ShardCrash { .. });
        assert!(!log.events().iter().any(|e| lifecycle(&e.body)), "a fault landed");
    }

    #[test]
    fn initial_flood_leaves_fleet_standing() {
        let r =
            run_pop(&PopRunConfig { attack: Some((EdgeAttackKind::InitialFlood, 400)), ..small() });
        assert_eq!(r.completed, 12, "{r:?}");
        assert!(r.bounded.within_caps() && r.amp_ok, "{r:?}");
        assert_eq!(r.stats.rejected("no_token"), 12 + 400);
        // The flood created no backend connections.
        assert_eq!(r.stats.admitted, 12);
    }

    #[test]
    fn mid_run_crash_resumes_with_zero_byte_loss() {
        let cfg = PopRunConfig {
            crash: Some(CrashPlan::single(
                Duration::from_millis(300),
                1,
                Some(Duration::from_millis(50)),
            )),
            request_bytes: 1_000_000,
            idle_timeout: Some(Duration::from_secs(2)),
            ..small()
        };
        let r = run_pop(&cfg);
        assert_eq!(r.completed, 12, "{r:?}");
        assert!(r.bytes_ok, "crash resume corrupted a stream: {r:?}");
        assert_eq!(r.stats.shard_crashes, 1);
        let crashed = r.shard_stats[&1];
        assert!(!crashed.crashed && crashed.epoch == 1, "restarted: {crashed:?}");
        // Someone was on shard 1 at crash time and had to reconnect.
        assert!(r.reconnects > 0, "{r:?}");
        assert_eq!(r.resumed, r.reconnects, "every reconnect must resume: {r:?}");
        assert_eq!(r.resets_detected, r.reconnects, "deaths detected via resets: {r:?}");
        assert_eq!(r.recovery_times.len() as u64, r.reconnects);
        // Detection via reset is a network-round-trip affair, nowhere
        // near the 2 s idle timeout.
        let detect = r.mean_detect().expect("crash must be detected");
        assert!(detect < Duration::from_millis(1000), "slow detection: {detect:?}");
    }

    #[test]
    fn without_resets_detection_degrades_to_idle_timeout() {
        let base = PopRunConfig {
            crash: Some(CrashPlan::single(
                Duration::from_millis(300),
                1,
                Some(Duration::from_millis(50)),
            )),
            request_bytes: 1_000_000,
            idle_timeout: Some(Duration::from_secs(2)),
            deadline: Duration::from_secs(40),
            ..small()
        };
        let with = run_pop(&base);
        let without = run_pop(&PopRunConfig { stateless_reset: false, ..base });
        assert!(with.reconnects > 0 && without.reconnects > 0);
        assert_eq!(without.resets_detected, 0, "mute PoP cannot be detected by reset");
        let fast = with.mean_detect().expect("reset arm detects");
        let slow = without.mean_detect().expect("idle arm detects");
        assert!(fast < slow, "stateless reset must beat idle exhaustion: {fast:?} vs {slow:?}");
        // Both arms still finish with every byte intact.
        assert_eq!(without.completed, 12, "{without:?}");
        assert!(without.bytes_ok);
    }
}
