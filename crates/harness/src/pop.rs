//! Fleet-vs-PoP runner: a population of honest single-path clients
//! (optionally laced with an [`EdgeAttacker`]) against one
//! [`xlink_edge::Pop`] under the netsim emulator.
//!
//! Each honest session is a real `xlink_quic` client that passes
//! Retry-token admission, downloads one patterned object from its
//! backend shard, and byte-verifies every chunk — so the drain and
//! crash experiments can assert *zero stream-byte loss*, not just "it
//! finished". The runner supports mid-run shard drain
//! ([`PopRunConfig::drain`]), scripted shard crashes
//! ([`PopRunConfig::crash`]), and flood mixing
//! ([`PopRunConfig::attack`]), and reports the PoP's bounded-state
//! gauges alongside population completion.
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
use std::collections::BTreeMap;
use xlink_clock::{Duration, Instant};
use xlink_core::lb::ServerId;
use xlink_edge::{classify, Classified, Pop, PopBoundedState, PopConfig, PopStats, ShardStats};
use xlink_netsim::{Deadlines, Endpoint, LinkConfig, Path, Transmit, Wakeups, World};
use xlink_obs::{prof, Event, TraceLog, Tracer};
use xlink_quic::cid::ConnectionId;
use xlink_quic::connection::{Config, Connection};
use xlink_quic::error::ConnectionError;
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
    /// Calls into `Connection::poll_transmit` from both endpoints. This
    /// and `timer_fires` are exact counts of what the runner did, not
    /// simulated results (kept last so a rendering of the results can stop
    /// before them): per PoP datagram they must not grow with the
    /// population.
    pub conn_polls: u64,
    /// Calls into `Connection::on_timeout` from both endpoints.
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
        let total: u64 = xs.iter().map(|d| d.as_micros() as u64).sum();
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
    /// [`Session::is_done`] as last counted into [`PopFleet::live`].
    counted_done: bool,
    tracer: Tracer,
}

impl Session {
    fn client_config(&self, incarnation: u32) -> Config {
        let seed = if incarnation == 0 {
            mix(self.seed_base, self.salt)
        } else {
            mix(self.seed_base, self.salt ^ (u64::from(incarnation) << 32))
        };
        let mut cfg = Config::client(seed);
        if let Some(idle) = self.idle_timeout {
            cfg.params.max_idle_timeout = idle;
            // Keep an elicitable packet on the wire: a pure receiver
            // whose server crashed has nothing in flight, so without
            // keep-alives the death only surfaces at the idle timeout —
            // even with the PoP answering resets.
            cfg.keepalive = Some(idle / 8);
        }
        cfg
    }

    /// Open the request stream once the handshake lands; on a resumed
    /// incarnation the request starts at the verified offset.
    fn drive(&mut self, now: Instant) {
        if self.stream.is_none() && self.conn.is_established() {
            let id = self.conn.open_stream(0);
            let mut request = [0u8; 16];
            request[..8].copy_from_slice(&self.received.to_le_bytes());
            request[8..].copy_from_slice(&(self.want - self.received).to_le_bytes());
            self.conn.stream_send(id, &request, true);
            self.stream = Some(id);
            if let Some((detected, attempt)) = self.pending_resume.take() {
                self.recoveries.push((detected, now));
                self.tracer.emit(now, Event::SessionResumed { attempt, offset: self.received });
            }
        }
    }

    /// Read and byte-verify response data against the absolute pattern.
    fn absorb(&mut self, now: Instant) {
        let Some(id) = self.stream else { return };
        for b in self.conn.stream_recv(id, usize::MAX) {
            if b != (self.received % 251) as u8 {
                self.ok = false;
            }
            self.received += 1;
        }
        if self.received >= self.want && self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }

    fn is_done(&self) -> bool {
        self.done_at.is_some() || self.gave_up || (self.conn.is_closed() && self.exhausted())
    }

    fn exhausted(&self) -> bool {
        self.attempts >= MAX_RECONNECTS
    }
}

/// The client-side endpoint: every honest session plus the optional
/// attacker, demuxed by client CID (sessions) or address (attacker).
///
/// Slot `i` is session `i`; the attacker, when there is one, is slot
/// `sessions.len()` — its place in the round-robin transmit order.
pub struct PopFleet {
    sessions: Vec<Session>,
    by_cid: BTreeMap<ConnectionId, usize>,
    /// Sessions sharing each client address, ascending: who a stateless
    /// reset arriving there is offered to.
    by_addr: Vec<Vec<usize>>,
    attacker: Option<EdgeAttacker>,
    /// The attacker's dedicated world path.
    attack_addr: usize,
    rr: usize,
    /// Which slots may have something to send, and every session's timer
    /// (done sessions included: their connections keep firing, e.g.
    /// keep-alive PINGs, whenever the world calls `on_timeout`).
    wake: Wakeups,
    /// The timers of the sessions that are not done — the only ones the
    /// world is asked to wake up for.
    live_timers: Deadlines,
    /// Sessions before this one have reached their start time (starts
    /// ascend with the slot).
    next_start: usize,
    /// Sessions that are not done.
    live: usize,
    /// Calls into a session's `Connection::poll_transmit`.
    conn_polls: u64,
    /// Calls into a session's `Connection::on_timeout`.
    timer_fires: u64,
}

impl PopFleet {
    /// Sessions spread over `addrs` client addresses; the attacker, if
    /// any, sends from the address after them.
    fn new(sessions: Vec<Session>, addrs: usize, attacker: Option<EdgeAttacker>) -> Self {
        let mut fleet = PopFleet {
            by_cid: BTreeMap::new(),
            by_addr: vec![Vec::new(); addrs],
            attacker,
            attack_addr: addrs,
            rr: 0,
            wake: Wakeups::default(),
            live_timers: Deadlines::default(),
            next_start: 0,
            live: sessions.len(),
            conn_polls: 0,
            timer_fires: 0,
            sessions,
        };
        for slot in 0..fleet.sessions.len() {
            let s = &fleet.sessions[slot];
            let prev = fleet.by_cid.insert(s.conn.local_cid(), slot);
            debug_assert!(prev.is_none(), "client CID collision");
            fleet.by_addr[s.addr].push(slot);
            fleet.refile(slot);
        }
        if fleet.attacker.is_some() {
            fleet.wake.mark_ready(fleet.sessions.len());
        }
        fleet
    }

    /// A session's connection died. Record the detection, and — if the
    /// object is unfinished and budget remains — replace the connection
    /// with a fresh incarnation that re-runs admission and resumes the
    /// download at the verified offset.
    fn note_closed(&mut self, now: Instant, slot: usize) {
        let old_cid;
        {
            let s = &mut self.sessions[slot];
            if s.done_at.is_some() || s.gave_up || !s.conn.is_closed() {
                return;
            }
            s.detects.push(now);
            if s.conn.close_error() == Some(&ConnectionError::Reset) {
                s.resets_seen += 1;
            }
            if s.received >= s.want {
                // All bytes were already verified; nothing to resume.
                return;
            }
            if s.exhausted() {
                s.gave_up = true;
                return;
            }
            s.attempts += 1;
            old_cid = s.conn.local_cid();
            let mut conn = Connection::new(s.client_config(s.attempts), now);
            conn.set_tracer(s.tracer.clone());
            s.pending_resume = Some((now, s.attempts));
            s.stream = None;
            s.conn = conn;
        }
        self.by_cid.remove(&old_cid);
        let new_cid = self.sessions[slot].conn.local_cid();
        let prev = self.by_cid.insert(new_cid, slot);
        debug_assert!(prev.is_none(), "reconnect CID collision");
    }

    /// File session `slot`'s timer in both views and keep the count of
    /// live sessions. Call after anything that can move either: an input,
    /// a send (which arms loss timers), a reconnect.
    fn refile(&mut self, slot: usize) {
        let s = &mut self.sessions[slot];
        let (deadline, done) = (s.conn.poll_timeout(), s.is_done());
        if done != s.counted_done {
            s.counted_done = done;
            if done {
                self.live -= 1;
            } else {
                self.live += 1;
            }
        }
        self.wake.set_deadline(slot, deadline);
        self.live_timers.set(slot, if done { None } else { deadline });
    }

    /// Session `slot` took an input (a datagram, a fired timer, a fresh
    /// incarnation): it may have something to send.
    fn touched(&mut self, slot: usize) {
        self.wake.mark_ready(slot);
        self.refile(slot);
    }
}

impl Endpoint for PopFleet {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        let _prof = prof::span!("harness/pop_client");
        if path == self.attack_addr {
            if let Some(a) = self.attacker.as_mut() {
                a.on_datagram(payload);
                self.wake.mark_ready(self.sessions.len());
            }
            return;
        }
        // Everything the PoP sends a client carries that client's CID as
        // the DCID — including Retries.
        let dcid = match classify(payload) {
            Classified::Short { dcid }
            | Classified::Initial { dcid, .. }
            | Classified::Handshake { dcid, .. }
            | Classified::Retry { dcid, .. } => dcid,
            Classified::Malformed => return,
        };
        if let Some(&i) = self.by_cid.get(&dcid) {
            let s = &mut self.sessions[i];
            s.conn.handle_datagram(now, payload);
            s.absorb(now);
            self.note_closed(now, i);
            self.touched(i);
            return;
        }
        // No session owns that CID. A §10.3 stateless reset is built to
        // be unattributable — its "DCID" bytes are scramble — so, like a
        // real client stack, offer it to the sessions sharing the
        // arrival address; only a token-oracle match kills anything.
        if reset::plausible_reset(payload) {
            let hit = self.by_addr.get(path).into_iter().flatten().copied().find(|&i| {
                let s = &mut self.sessions[i];
                !s.conn.is_closed() && now >= s.start && s.conn.probe_stateless_reset(now, payload)
            });
            if let Some(i) = hit {
                self.note_closed(now, i);
                self.touched(i);
            }
        }
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        // A session begins here: on the first poll at or after its start
        // time, not at that time — nothing wakes the world for a start.
        while self.sessions.get(self.next_start).is_some_and(|s| s.start <= now) {
            self.wake.mark_ready(self.next_start);
            self.next_start += 1;
        }
        let slots = self.sessions.len() + usize::from(self.attacker.is_some());
        // Round-robin over the slots that took an input since they last
        // had nothing to send; the others would still say so.
        while let Some(slot) = self.wake.next_ready(self.rr) {
            let _prof = prof::span!("harness/pop_client_send");
            let sent = match self.sessions.get_mut(slot) {
                Some(s) => {
                    s.drive(now);
                    self.conn_polls += 1;
                    s.conn.poll_transmit(now).map(|d| Transmit { path: s.addr, payload: d })
                }
                // The slot after the sessions is the attacker's.
                None => {
                    let datagram = self.attacker.as_mut().and_then(|a| a.next_datagram());
                    datagram.map(|d| Transmit { path: self.attack_addr, payload: d })
                }
            };
            if sent.is_some() {
                // Sending arms a connection's loss timers.
                if slot < self.sessions.len() {
                    self.refile(slot);
                }
                self.rr = (slot + 1) % slots;
                return sent;
            }
            self.wake.sleep(slot);
        }
        None
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.live_timers.next()
    }

    fn on_timeout(&mut self, now: Instant) {
        let due = self.wake.due(now);
        for &slot in &due {
            self.sessions[slot].conn.on_timeout(now);
            self.timer_fires += 1;
        }
        // Idle-timeout deaths surface here, not on a datagram.
        for slot in due {
            self.note_closed(now, slot);
            self.touched(slot);
        }
    }

    fn is_done(&self) -> bool {
        self.live == 0 && self.attacker.as_ref().is_none_or(EdgeAttacker::exhausted)
    }
}

/// Run an honest fleet (plus optional attack) against a PoP.
pub fn run_pop(cfg: &PopRunConfig) -> PopReport {
    run_pop_full(cfg, None)
}

/// [`run_pop`] with tracing: PoP edge events under `edge.pop`, each
/// session under `client<i>`, links under `netsim.*`.
pub fn run_pop_traced(cfg: &PopRunConfig, log: &TraceLog) -> PopReport {
    run_pop_full(cfg, Some(log))
}

/// A scheduled PoP fault.
enum Fault {
    Drain(ServerId),
    Crash(ServerId),
    Restart(ServerId),
}

/// Reconnection budget per session after its connection dies.
const MAX_RECONNECTS: u32 = 3;

/// Per-path one-way delay.
const LINK_DELAY: Duration = Duration::from_millis(10);

fn run_pop_full(cfg: &PopRunConfig, log: Option<&TraceLog>) -> PopReport {
    assert!(cfg.addrs > 0 && !cfg.shards.is_empty());
    let zero = Instant::ZERO;
    let mut pop = Pop::new(PopConfig {
        shards: cfg.shards.clone(),
        admission: cfg.admission,
        seed: mix(cfg.seed, 0x0e09_0e09),
        max_conns: (cfg.users * 2).max(256),
        stateless_reset: cfg.stateless_reset,
        ..PopConfig::default()
    });
    if let Some(log) = log {
        pop.set_tracer(log.tracer("edge.pop"));
    }
    let mut sessions = Vec::with_capacity(cfg.users);
    for i in 0..cfg.users {
        let tracer = log.map_or_else(Tracer::disabled, |log| log.tracer(&format!("client{i}")));
        let mut s = Session {
            conn: Connection::new(Config::client(0), zero),
            addr: i % cfg.addrs,
            start: zero + cfg.stagger * i as u32,
            stream: None,
            want: cfg.request_bytes,
            received: 0,
            ok: true,
            done_at: None,
            seed_base: cfg.seed,
            salt: 0xc11e_0000 + i as u64,
            idle_timeout: cfg.idle_timeout,
            attempts: 0,
            gave_up: false,
            resets_seen: 0,
            detects: Vec::new(),
            pending_resume: None,
            recoveries: Vec::new(),
            counted_done: false,
            tracer,
        };
        // Birth the connection at its own staggered start, not the
        // world's zero: idle is receive-only, so a conn created at t=0
        // but started late would begin life with its idle clock already
        // part-spent.
        let mut conn = Connection::new(s.client_config(0), s.start);
        conn.set_tracer(s.tracer.clone());
        s.conn = conn;
        sessions.push(s);
    }
    let attacker = cfg.attack.map(|(kind, budget)| EdgeAttacker::new(kind, cfg.seed, budget));
    let fleet = PopFleet::new(sessions, cfg.addrs, attacker);
    let n_paths = cfg.addrs + usize::from(cfg.attack.is_some());
    let paths = (0..n_paths)
        .map(|_| Path::symmetric(LinkConfig::constant_rate(cfg.link_mbps, LINK_DELAY)))
        .collect();
    let mut world = World::new(fleet, pop, paths);
    if let Some(log) = log {
        world.set_tracer(log);
    }

    // Time-ordered fault schedule: drains, crashes, and restarts run at
    // their scripted virtual times (stable order on ties).
    let mut faults: Vec<(Duration, Fault)> = Vec::new();
    if let Some((at, shard)) = cfg.drain {
        faults.push((at, Fault::Drain(shard)));
    }
    let mut crash_times: Vec<Instant> = Vec::new();
    if let Some(plan) = &cfg.crash {
        for &(at, shard) in &plan.crashes {
            faults.push((at, Fault::Crash(shard)));
            if let Some(down) = plan.restart_after {
                faults.push((at + down, Fault::Restart(shard)));
            }
        }
    }
    faults.sort_by_key(|&(at, _)| at);
    for (at, fault) in faults {
        world.run_until(zero + at);
        let now = world.now();
        match fault {
            Fault::Drain(shard) => {
                world.server.drain_shard(now, shard);
            }
            Fault::Crash(shard) => {
                world.server.crash_shard(now, shard);
                crash_times.push(now);
            }
            Fault::Restart(shard) => {
                world.server.restart_shard(now, shard);
            }
        }
    }
    let end = world.run_until(zero + cfg.deadline);
    let pop = &world.server;
    let fleet = &world.client;
    let completed = fleet.sessions.iter().filter(|s| s.done_at.is_some() && s.ok).count();
    // Attribute each detection to the most recent scripted crash before
    // it (detections with no preceding crash — e.g. a stray close — are
    // not part of the differential metric).
    let mut detect_times = Vec::new();
    let mut recovery_times = Vec::new();
    for s in &fleet.sessions {
        for &d in &s.detects {
            if let Some(&c) = crash_times.iter().filter(|&&c| c <= d).last() {
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
        bytes_ok: fleet.sessions.iter().all(|s| s.ok),
        stats: pop.stats().clone(),
        bounded: pop.bounded_state(),
        amp_ok: pop.amp_ok(),
        shard_stats: pop.shard_stats().clone(),
        attacker_retries_seen: fleet.attacker.as_ref().map_or(0, |a| a.retries_seen),
        resets_detected: fleet.sessions.iter().map(|s| u64::from(s.resets_seen)).sum(),
        reconnects: fleet.sessions.iter().map(|s| u64::from(s.attempts)).sum(),
        resumed: fleet
            .sessions
            .iter()
            .filter(|s| s.attempts > 0 && s.done_at.is_some() && s.ok)
            .count() as u64,
        detect_times,
        recovery_times,
        end: end.saturating_duration_since(zero),
        conn_polls: fleet.conn_polls + pop.conn_polls(),
        timer_fires: fleet.timer_fires + pop.timer_fires(),
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

    #[test]
    fn mid_run_drain_loses_no_bytes() {
        let cfg = PopRunConfig {
            drain: Some((Duration::from_millis(300), 1)),
            request_bytes: 200_000,
            ..small()
        };
        let r = run_pop(&cfg);
        assert_eq!(r.completed, 12, "{r:?}");
        assert!(r.bytes_ok, "drain corrupted a stream: {r:?}");
        let drained = r.shard_stats[&1];
        assert!(drained.draining && drained.live == 0, "{drained:?}");
        assert_eq!(r.stats.migrations, u64::from(drained.migrated_out));
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
