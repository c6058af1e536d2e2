//! A deterministic CDN point of presence: one netsim [`Endpoint`]
//! fronting a fleet of backend shards behind a CID router.
//!
//! Every inbound datagram is classified by the transport's own header
//! decoder ([`crate::router::classify`]) and either routed to an existing
//! backend connection, put through Retry-token admission, or dropped
//! with an accounted reason. The PoP enforces the paper-style edge
//! robustness properties end to end:
//!
//! - **Stateless admission** (RFC 9000 §8.1): unknown addresses get a
//!   Retry with a self-authenticating token; only Initials echoing a
//!   fresh, address-bound token create state. Replays are rejected from
//!   a bounded ring.
//! - **Anti-amplification**: pre-validation the PoP never sends more
//!   than [`AMP_FACTOR`]× the bytes an address has sent it — both at
//!   the PoP level (Retry egress) and inside each unvalidated backend
//!   connection (`xlink_quic`'s gate).
//! - **Bounded state**: connections, demux entries, queued Retries,
//!   replay entries, and address accounts are all hard-capped; floods
//!   hit the caps, not the allocator. [`Pop::bounded_state`] exposes
//!   the gauges.
//!
//! Shard faults are data: [`PopConfig::faults`] scripts them, and the PoP
//! applies each at its instant, on its own timer, like any other input.
//!
//! - **Graceful drain** ([`ShardFault::Drain`]): live connections on a
//!   draining shard are steered to survivors with NEW_CONNECTION_ID +
//!   Retire Prior To; clients migrate mid-stream with zero stream-byte
//!   loss, and the old routes disappear when the client's
//!   RETIRE_CONNECTION_ID lands.
//! - **Crash-fault tier** ([`ShardFault::Crash`]): a shard can die with
//!   no drain window — its conn/demux/replay state is destroyed
//!   atomically. After [`ShardFault::Restart`] the shard answers the
//!   orphaned clients' short-header datagrams with RFC 9000 §10.3
//!   stateless resets minted from the pre-restart epoch secret, so
//!   clients fail over to reconnection instead of idling out.

use std::collections::{BTreeMap, VecDeque};
use xlink_clock::{Duration, Instant};
use xlink_core::lb::{encode_cid, ServerId};
use xlink_netsim::{Endpoint, Host, Transmit};
use xlink_obs::{prof, Event, Tracer};
use xlink_quic::cid::ConnectionId;
use xlink_quic::connection::{placeholder_dcid, Config, Connection, AMP_FACTOR};
use xlink_quic::packet::{Header, PacketType};

use crate::router::{classify, Classified, EdgeRouter};
use crate::token::{self, replay_key, splitmix, TokenError};
use xlink_quic::reset;

/// Reject reasons (also the `reason` field of [`Event::EdgeReject`]).
pub mod reject {
    /// Initial with no token while admission control is on.
    pub const NO_TOKEN: &str = "no_token";
    /// Token MAC/address mismatch: forged or stolen cross-address.
    pub const BAD_TOKEN: &str = "bad_token";
    /// Token older than [`TOKEN_LIFETIME`](super::TOKEN_LIFETIME).
    pub const EXPIRED_TOKEN: &str = "expired_token";
    /// Token already spent once.
    pub const REPLAYED_TOKEN: &str = "replayed_token";
    /// Sending a Retry or a stateless reset would exceed the 3×
    /// pre-validation budget.
    pub const AMPLIFICATION: &str = "amplification";
    /// A bounded table (address accounts, Retry queue) is full.
    pub const TABLE_FULL: &str = "table_full";
    /// The concurrent-connection cap is reached.
    pub const CONN_CAP: &str = "conn_cap";
    /// No route: unknown CID (grinding) or no active shard.
    pub const NO_ROUTE: &str = "no_route";
}

/// Retry-token MAC key (shared by nothing — the PoP is the only minter).
pub const TOKEN_KEY: u64 = 0xed6e_70b5_0bad_cafe;
/// Retry-token validity window.
pub const TOKEN_LIFETIME: Duration = Duration::from_secs(2);
/// Cap on queued outbound Retry (and stateless-reset) datagrams.
pub const MAX_PENDING_RETRIES: usize = 256;
/// Cap on the spent-token replay ring.
pub const MAX_REPLAY_ENTRIES: usize = 8192;
/// Cap on tracked per-address byte accounts.
pub const MAX_ADDR_ENTRIES: usize = 4096;
/// Per-request response-body cap (a hostile but admitted client cannot
/// ask the PoP to materialise unbounded bytes).
pub const MAX_RESPONSE_BYTES: u64 = 4 * 1024 * 1024;
/// Base secret for per-shard, per-epoch stateless-reset tokens.
pub const RESET_SECRET: u64 = 0x0dd5_ec4e_77e1_1ef7;

/// PoP configuration. Every table is explicitly capped — the connection
/// table by `max_conns`, the rest by the constants above; the caps are
/// what the flood experiments audit via [`Pop::bounded_state`].
#[derive(Debug, Clone)]
pub struct PopConfig {
    /// Backend shard ids (QUIC-LB server ids). Must be non-empty.
    pub shards: Vec<ServerId>,
    /// Retry-token admission control for new connections.
    pub admission: bool,
    /// Seed for backend CID/handshake derivation.
    pub seed: u64,
    /// Concurrent backend connections.
    pub max_conns: usize,
    /// Answer unroutable short-header datagrams with stateless resets
    /// (§10.3). Off = the PTO/idle-exhaustion baseline the crash
    /// experiments compare against.
    pub stateless_reset: bool,
    /// Shard faults at their virtual times, applied in time order and, at
    /// one instant, in list order. Each must name one of `shards`.
    pub faults: Vec<(Duration, ShardFault)>,
}

/// A scripted fault of one shard ([`PopConfig::faults`]). A fault that
/// finds its shard in the wrong state (draining an inactive shard,
/// restarting a live one) does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Stop placing on the shard and steer its live connections to
    /// survivors.
    Drain(ServerId),
    /// Destroy the shard's state with no drain window.
    Crash(ServerId),
    /// Bring a crashed shard back under a fresh reset-secret epoch.
    Restart(ServerId),
}

impl Default for PopConfig {
    fn default() -> Self {
        PopConfig {
            shards: vec![1, 2],
            admission: true,
            seed: 1,
            max_conns: 2048,
            stateless_reset: true,
            faults: Vec::new(),
        }
    }
}

/// Monotone PoP counters.
#[derive(Debug, Clone, Default)]
pub struct PopStats {
    /// Datagrams handed to the PoP.
    pub datagrams_in: u64,
    /// Connections admitted (backend created).
    pub admitted: u64,
    /// Retry datagrams queued for transmission.
    pub retries_sent: u64,
    /// Drain-steered shard migrations.
    pub migrations: u64,
    /// Shards crashed (state destroyed with no drain window).
    pub shard_crashes: u64,
    /// Stateless resets queued for transmission (§10.3).
    pub resets_sent: u64,
    /// Datagrams with unparseable or inbound-Retry headers.
    pub malformed: u64,
    /// Rejected datagrams by reason (see [`reject`]).
    pub rejects: BTreeMap<&'static str, u64>,
}

impl PopStats {
    /// Reject count for one reason.
    pub fn rejected(&self, reason: &str) -> u64 {
        self.rejects.get(reason).copied().unwrap_or(0)
    }

    /// Total rejects across reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejects.values().sum()
    }
}

/// Per-shard occupancy and drain bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Live connections currently on the shard.
    pub live: u32,
    /// Connections originally placed here by admission.
    pub admitted: u64,
    /// Connections steered away during this shard's drain.
    pub migrated_out: u64,
    /// Connections steered here from draining shards.
    pub migrated_in: u64,
    /// Shard no longer accepts new placements.
    pub draining: bool,
    /// Shard is down: state destroyed, not yet restarted. A crashed
    /// shard is silent — stateless resets only start once it restarts.
    pub crashed: bool,
    /// Reset-secret epoch; bumped on every restart, so tokens minted
    /// for pre-crash CIDs stay derivable (`epoch - 1`) while the new
    /// incarnation issues under a disjoint secret.
    pub epoch: u64,
}

/// Snapshot of every capped PoP resource, in the same spirit as the
/// transport-level `BoundedState`: values plus the caps they must
/// respect, so flood tests can assert `within_caps()` at any instant.
#[derive(Debug, Clone, Copy)]
pub struct PopBoundedState {
    /// Live backend connections.
    pub conns: usize,
    /// High-water mark of live connections.
    pub peak_conns: usize,
    /// Cap on live connections.
    pub max_conns: usize,
    /// Live CID demux entries.
    pub demux: usize,
    /// High-water mark of demux entries.
    pub peak_demux: usize,
    /// Cap on demux entries (each conn holds at most a few live CIDs).
    pub max_demux: usize,
    /// Queued Retry datagrams.
    pub pending_retries: usize,
    /// High-water mark of queued Retries.
    pub peak_pending_retries: usize,
    /// Cap on queued Retries.
    pub max_pending_retries: usize,
    /// Spent tokens remembered for replay rejection.
    pub replay_entries: usize,
    /// Cap on the replay ring.
    pub max_replay_entries: usize,
    /// Tracked address accounts.
    pub addr_entries: usize,
    /// Cap on address accounts.
    pub max_addr_entries: usize,
}

impl PopBoundedState {
    /// True when every gauge (including its peak) respects its cap.
    pub fn within_caps(&self) -> bool {
        self.peak_conns <= self.max_conns
            && self.peak_demux <= self.max_demux
            && self.peak_pending_retries <= self.max_pending_retries
            && self.replay_entries <= self.max_replay_entries
            && self.addr_entries <= self.max_addr_entries
    }
}

/// Pre-validation byte account for one address.
#[derive(Debug, Clone, Copy, Default)]
struct AddrAccount {
    received: u64,
    sent: u64,
}

/// A request of the PoP's toy origin protocol for bytes
/// `offset..offset + len` of the payload: 16 bytes, `[offset | length]`,
/// both little endian.
pub fn encode_request(offset: u64, len: u64) -> [u8; 16] {
    ((u128::from(len) << 64) | u128::from(offset)).to_le_bytes()
}

/// The `(offset, length)` a whole request asks for ([`encode_request`]);
/// `None` unless it is exactly 16 bytes.
pub fn decode_request(request: &[u8]) -> Option<(u64, u64)> {
    let request = u128::from_le_bytes(request.try_into().ok()?);
    Some((request as u64, (request >> 64) as u64))
}

/// One backend connection: a member of the PoP's [`Host`].
struct Backend {
    conn: Connection,
    shard: ServerId,
    /// Client address (world path index) — where replies go.
    addr: usize,
    /// The client's CID: stable demux key for long headers and the
    /// rehash key for drain placement.
    client_scid: ConnectionId,
    /// [`Connection::cid_epoch`] the router's routes were last synced at.
    cid_epoch: u64,
}

impl Backend {
    /// Serve the PoP's toy origin protocol: each request
    /// ([`decode_request`]), read whole once its stream is complete
    /// ([`StreamMap::next_request`](xlink_quic::stream::StreamMap::next_request)),
    /// is answered with bytes `offset..offset + length` of the synthetic
    /// payload at phase 0 (`xlink_lab::payload`, an absolute-position
    /// pattern) plus FIN, lent by the stream from the payload table —
    /// byte-identical regardless of which shard serves it, and resumable at
    /// any verified offset after a crash reconnect (the zero-byte-loss
    /// check). A request that is not 16 bytes is never answered.
    fn serve(&mut self) {
        while let Some(id) = self.conn.streams_mut().next_request() {
            let Some((off, n)) = decode_request(self.conn.stream_consume(id, usize::MAX)) else {
                continue;
            };
            let len = off.saturating_add(n.min(MAX_RESPONSE_BYTES)) - off;
            self.conn.streams_mut().write_with(id, len, 0, off);
        }
    }
}

impl Endpoint for Backend {
    fn on_datagram(&mut self, now: Instant, _path: usize, payload: &[u8]) {
        self.conn.handle_datagram(now, payload);
        self.serve();
    }

    fn on_datagram_in_place(&mut self, now: Instant, _path: usize, payload: &mut [u8]) {
        self.conn.handle_datagram_in_place(now, 0, payload);
        self.serve();
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        let _prof = prof::span!("edge/transmit");
        let Some(payload) = self.conn.poll_transmit(now) else {
            // Quiet until its next input: a backend whose exchanges are
            // all finished gives back what it held for them.
            self.conn.release_idle();
            return None;
        };
        Some(Transmit { path: self.addr, payload })
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.conn.poll_timeout()
    }

    fn on_timeout(&mut self, now: Instant) {
        self.conn.on_timeout(now);
    }
}

fn mix(a: u64, b: u64) -> u64 {
    splitmix(a ^ splitmix(b))
}

fn cid_u64(cid: &ConnectionId) -> u64 {
    u64::from_be_bytes(cid.0)
}

/// The PoP endpoint.
pub struct Pop {
    cfg: PopConfig,
    router: EdgeRouter,
    /// Long-header demux: client SCID → slot (stable for a conn's life).
    client_map: BTreeMap<ConnectionId, usize>,
    /// The backends, sent from round-robin in slot order: admission order,
    /// which is shard-count independent (the trace-invariance property).
    backends: Host<Backend>,
    /// Outbound Retry datagrams: (address, bytes).
    pending: VecDeque<(usize, Vec<u8>)>,
    peak_pending: usize,
    replay_order: VecDeque<u128>,
    /// Spent token → the shard that admitted the spend. Keyed by shard
    /// so a crash can destroy exactly its shard's slice of the ledger:
    /// a re-spend after the admitting shard crashed is a legitimate
    /// reconnection, while a re-spend against a live shard stays a
    /// replay (same SCID hashes to the same shard).
    replay_seen: BTreeMap<u128, ServerId>,
    addr_acct: BTreeMap<usize, AddrAccount>,
    /// Monotone counter feeding backend-CID entropy: admission order,
    /// so CID *values* are unique and shard-count independent.
    cid_counter: u64,
    /// Monotone mint nonce: keeps same-instant same-address tokens
    /// distinct (clients behind one NAT'd address must not collide in
    /// the replay ring).
    mint_counter: u64,
    peak_live: usize,
    shard_stats: BTreeMap<ServerId, ShardStats>,
    stats: PopStats,
    tracer: Tracer,
    /// The scripted faults before this one have been applied.
    next_fault: usize,
}

impl Pop {
    /// Build a PoP over the configured shard set. Panics on an empty
    /// shard set and on a fault that names a shard outside it.
    pub fn new(mut cfg: PopConfig) -> Self {
        assert!(!cfg.shards.is_empty(), "a PoP needs at least one shard");
        for (at, fault) in &cfg.faults {
            let (ShardFault::Drain(s) | ShardFault::Crash(s) | ShardFault::Restart(s)) = fault;
            assert!(cfg.shards.contains(s), "{fault:?} at {at:?}: no such shard");
        }
        cfg.faults.sort_by_key(|&(at, _)| at);
        let router = EdgeRouter::new(&cfg.shards);
        let shard_stats = cfg.shards.iter().map(|&s| (s, ShardStats::default())).collect();
        Pop {
            router,
            client_map: BTreeMap::new(),
            backends: Host::default(),
            pending: VecDeque::new(),
            peak_pending: 0,
            replay_order: VecDeque::new(),
            replay_seen: BTreeMap::new(),
            addr_acct: BTreeMap::new(),
            cid_counter: 0,
            mint_counter: 0,
            peak_live: 0,
            shard_stats,
            stats: PopStats::default(),
            tracer: Tracer::disabled(),
            next_fault: 0,
            cfg,
        }
    }

    /// Attach a trace handle for edge events (admit/reject/drain/migrate).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Reset secret for `shard` under an explicit epoch.
    fn secret_for(&self, shard: ServerId, epoch: u64) -> u64 {
        mix(RESET_SECRET, mix(shard as u64, epoch))
    }

    /// Reset secret a shard's *current* incarnation issues under.
    fn shard_secret(&self, shard: ServerId) -> u64 {
        let epoch = self.shard_stats.get(&shard).map_or(0, |s| s.epoch);
        self.secret_for(shard, epoch)
    }

    /// Monotone counters.
    pub fn stats(&self) -> &PopStats {
        &self.stats
    }

    /// Calls the PoP made into a backend's `poll_transmit`
    /// ([`Host::conn_polls`]).
    pub fn conn_polls(&self) -> u64 {
        self.backends.conn_polls()
    }

    /// Calls the PoP made into a backend's `on_timeout`.
    pub fn timer_fires(&self) -> u64 {
        self.backends.timer_fires()
    }

    /// Per-shard occupancy.
    pub fn shard_stats(&self) -> &BTreeMap<ServerId, ShardStats> {
        &self.shard_stats
    }

    /// Capped-resource snapshot.
    pub fn bounded_state(&self) -> PopBoundedState {
        PopBoundedState {
            conns: self.backends.len(),
            peak_conns: self.peak_live,
            max_conns: self.cfg.max_conns,
            demux: self.router.table_len(),
            peak_demux: self.router.peak_table(),
            // A conn holds its original CID plus at most a handful of
            // live migration/replacement CIDs at any instant.
            max_demux: 4 * self.cfg.max_conns,
            pending_retries: self.pending.len(),
            peak_pending_retries: self.peak_pending,
            max_pending_retries: MAX_PENDING_RETRIES,
            replay_entries: self.replay_seen.len(),
            max_replay_entries: MAX_REPLAY_ENTRIES,
            addr_entries: self.addr_acct.len(),
            max_addr_entries: MAX_ADDR_ENTRIES,
        }
    }

    /// True while every pre-validation address account respects the
    /// [`AMP_FACTOR`]× send budget (RFC 9000 §8.1 at the PoP level).
    pub fn amp_ok(&self) -> bool {
        self.addr_acct.values().all(|a| a.sent <= a.received.saturating_mul(AMP_FACTOR))
    }

    /// The shard currently serving a client's connection.
    pub fn shard_of(&self, client_scid: &ConnectionId) -> Option<ServerId> {
        let slot = *self.client_map.get(client_scid)?;
        self.backends.get(slot).map(|b| b.shard)
    }

    /// Drain a shard: stop placing new connections on it and steer every
    /// live connection to a surviving shard via NEW_CONNECTION_ID with
    /// Retire Prior To. The old CIDs stay routable until each client's
    /// RETIRE_CONNECTION_ID lands, so in-flight packets never black-hole.
    /// An inactive (draining or crashed) shard is left as it is.
    fn drain_shard(&mut self, now: Instant, shard: ServerId) {
        let st = self.shard_stats.get_mut(&shard).expect("a scripted shard");
        if st.draining || st.crashed {
            return;
        }
        st.draining = true;
        self.router.deactivate_shard(shard);
        let slots: Vec<usize> = self
            .backends
            .members()
            .filter(|(_, b)| b.shard == shard && !b.conn.is_closed())
            .map(|(i, _)| i)
            .collect();
        self.tracer.emit(now, Event::ShardDrain { shard, conns: slots.len() as u32 });
        for slot in slots {
            // No survivors → nothing to steer to; the shard must finish
            // its sessions before going away.
            let Some(scid) = self.backends.get(slot).map(|b| b.client_scid) else { continue };
            let Some(target) = self.router.place(&scid) else { continue };
            let entropy = mix(self.cfg.seed ^ 0xc1d, self.cid_counter);
            self.cid_counter += 1;
            let cid = encode_cid(target, 0, entropy);
            // The migration CID carries a reset token under the *target*
            // shard's current secret: if the survivor later crashes, the
            // migrated client's oracle still fires.
            let tok = self
                .cfg
                .stateless_reset
                .then(|| reset::reset_token(self.shard_secret(target), &cid));
            let Some(b) = self.backends.get_mut(slot) else { continue };
            b.conn.issue_migration_cid(cid, tok);
            let from = b.shard;
            b.shard = target;
            self.backends.touch(slot);
            self.reap(slot);
            self.router.bind(cid, slot);
            if let Some(s) = self.shard_stats.get_mut(&from) {
                s.live = s.live.saturating_sub(1);
                s.migrated_out += 1;
            }
            if let Some(s) = self.shard_stats.get_mut(&target) {
                s.live += 1;
                s.migrated_in += 1;
            }
            self.stats.migrations += 1;
            self.tracer.emit(now, Event::ConnMigrated { from_shard: from, to_shard: target });
        }
    }

    /// Crash a shard: destroy every backend connection, demux route, and
    /// replay-ledger entry it owns, atomically and with **no drain
    /// window** — no CONNECTION_CLOSE, no migration CIDs, nothing is
    /// flushed. This is the process-kill fault the crash experiments
    /// inject; recovery is entirely the clients' problem (stateless
    /// resets once the shard restarts, then reconnection). A crashed
    /// shard is left as it is.
    fn crash_shard(&mut self, now: Instant, shard: ServerId) {
        if self.shard_stats.get(&shard).expect("a scripted shard").crashed {
            return;
        }
        self.router.deactivate_shard(shard);
        let slots: Vec<usize> =
            self.backends.members().filter(|(_, b)| b.shard == shard).map(|(i, _)| i).collect();
        for &slot in &slots {
            self.vacate(slot);
        }
        // The crashed shard's slice of the spent-token ledger dies with
        // it: its orphans' tokens become re-spendable (same SCID → same
        // placement → same shard), while every other shard's entries
        // keep rejecting replays.
        self.replay_seen.retain(|_, &mut s| s != shard);
        let seen = &self.replay_seen;
        self.replay_order.retain(|k| seen.contains_key(k));
        let st = self.shard_stats.get_mut(&shard).expect("a scripted shard");
        st.crashed = true;
        st.draining = false;
        st.live = 0;
        self.stats.shard_crashes += 1;
        self.tracer.emit(now, Event::ShardCrash { shard, conns: slots.len() as u32 });
    }

    /// Restart a crashed shard: it rejoins placement under a bumped
    /// reset-secret epoch. From this point the shard answers short
    /// headers bearing its pre-crash CIDs with stateless resets minted
    /// under the *previous* epoch's secret — exactly the tokens the
    /// orphaned clients hold. A shard that is not crashed is left as it is.
    fn restart_shard(&mut self, now: Instant, shard: ServerId) {
        let st = self.shard_stats.get_mut(&shard).expect("a scripted shard");
        if !st.crashed {
            return;
        }
        st.crashed = false;
        st.draining = false;
        st.epoch += 1;
        let epoch = st.epoch;
        self.router.activate_shard(shard);
        self.tracer.emit(now, Event::ShardRestart { shard, epoch });
    }

    /// Answer an unroutable short-header datagram with a stateless reset
    /// (RFC 9000 §10.3), when it can be attributed to a restarted
    /// shard's pre-crash CID space and the address's amplification
    /// budget allows it.
    fn maybe_stateless_reset(
        &mut self,
        now: Instant,
        addr: usize,
        dcid: &ConnectionId,
        trigger_len: usize,
    ) {
        let _prof = prof::span!("edge/stateless_reset");
        if !self.cfg.stateless_reset {
            return;
        }
        // §10.3.3: the reset must be strictly smaller than the datagram
        // that triggered it, or two stateless endpoints could volley
        // resets at each other forever.
        if trigger_len <= reset::RESET_DATAGRAM_LEN {
            return;
        }
        let shard = EdgeRouter::claimed_shard(dcid);
        let Some(st) = self.shard_stats.get(&shard) else { return };
        // A crashed (down) shard is silent; resets come from the
        // restarted incarnation.
        if st.crashed {
            return;
        }
        // CIDs this shard cannot route were issued before its most
        // recent restart: mint under the epoch in force back then. For a
        // never-restarted shard that is the current epoch (the datagram
        // is then grinding noise and its "token" matches no client).
        let secret = self.secret_for(shard, st.epoch.saturating_sub(1));
        let dgram = reset::build_stateless_reset(secret, dcid);
        if self.queue_unvalidated(now, addr, dgram.to_vec()) {
            self.stats.resets_sent += 1;
            self.tracer.emit(now, Event::StatelessReset { path: addr as u8 });
        }
    }

    /// Queue `datagram` for `addr`, which has not proven it owns its
    /// address, within the pre-validation amplification budget and the
    /// queue cap: whether it was queued (a refusal is counted as a
    /// rejection).
    fn queue_unvalidated(&mut self, now: Instant, addr: usize, datagram: Vec<u8>) -> bool {
        let acct = self.addr_acct.entry(addr).or_default();
        if acct.sent + datagram.len() as u64 > acct.received.saturating_mul(AMP_FACTOR) {
            self.reject(now, reject::AMPLIFICATION);
            return false;
        }
        if self.pending.len() >= MAX_PENDING_RETRIES {
            self.reject(now, reject::TABLE_FULL);
            return false;
        }
        acct.sent += datagram.len() as u64;
        self.pending.push_back((addr, datagram));
        self.peak_pending = self.peak_pending.max(self.pending.len());
        true
    }

    fn reject(&mut self, now: Instant, reason: &'static str) {
        *self.stats.rejects.entry(reason).or_insert(0) += 1;
        self.tracer.emit(now, Event::EdgeReject { reason });
    }

    /// Queue a Retry for `scid` at `addr`, within the pre-validation
    /// amplification budget and the Retry-queue cap.
    fn queue_retry(&mut self, now: Instant, addr: usize, scid: ConnectionId) {
        let _prof = prof::span!("edge/retry");
        let tok = token::mint(TOKEN_KEY, addr as u64, self.mint_counter, now);
        self.mint_counter += 1;
        let header = Header {
            ty: PacketType::Retry,
            dcid: scid,
            // Stand-in SCID: the client readdresses its tokened Initial
            // to this, which is the same placeholder all Initials carry.
            scid: placeholder_dcid(),
            pn: 0,
            pn_len: 1,
            token: tok.to_vec(),
        };
        if self.queue_unvalidated(now, addr, header.encode()) {
            self.stats.retries_sent += 1;
        }
    }

    /// Admission path for an Initial of `len` bytes carrying `tok` whose
    /// SCID matches no connection: its address account and its token.
    /// Returns what [`Pop::admit`] takes — the replay key of the token it
    /// spends, or `None` without token admission — unless it was refused.
    fn admission(
        &mut self,
        now: Instant,
        addr: usize,
        scid: ConnectionId,
        tok: &[u8],
        len: usize,
    ) -> Option<Option<u128>> {
        // Account pre-validation bytes (bounded table; overflow = drop).
        if !self.addr_acct.contains_key(&addr) && self.addr_acct.len() >= MAX_ADDR_ENTRIES {
            self.reject(now, reject::TABLE_FULL);
            return None;
        }
        self.addr_acct.entry(addr).or_default().received += len as u64;

        let validated = if self.cfg.admission {
            if tok.is_empty() {
                self.reject(now, reject::NO_TOKEN);
                self.queue_retry(now, addr, scid);
                return None;
            }
            match token::verify(TOKEN_KEY, addr as u64, now, TOKEN_LIFETIME, tok) {
                Err(TokenError::Malformed) | Err(TokenError::BadMac) => {
                    self.reject(now, reject::BAD_TOKEN);
                    return None;
                }
                Err(TokenError::Expired) => {
                    self.reject(now, reject::EXPIRED_TOKEN);
                    self.queue_retry(now, addr, scid);
                    return None;
                }
                Ok(()) => {
                    // Spent-check here; the token is only *burned* below,
                    // once admission actually succeeds, so a crash that
                    // wipes the admitting shard's ledger slice lets the
                    // orphaned client legitimately re-spend.
                    let key = replay_key(tok);
                    if self.replay_seen.contains_key(&key) {
                        self.reject(now, reject::REPLAYED_TOKEN);
                        return None;
                    }
                    Some(key)
                }
            }
        } else {
            None
        };
        Some(validated)
    }

    /// Admit the Initial `payload` from `addr` whose SCID matches no
    /// connection and which passed [`Pop::admission`], spending the token
    /// with replay key `spent` if it carried one: place it on a shard,
    /// build its backend, and hand it the datagram.
    fn admit(
        &mut self,
        now: Instant,
        addr: usize,
        scid: ConnectionId,
        spent: Option<u128>,
        payload: &mut [u8],
    ) {
        if self.backends.len() >= self.cfg.max_conns {
            self.reject(now, reject::CONN_CAP);
            return;
        }
        let Some(shard) = self.router.place(&scid) else {
            self.reject(now, reject::NO_ROUTE);
            return;
        };

        let validated = spent.is_some();
        if let Some(key) = spent {
            self.replay_seen.insert(key, shard);
            self.replay_order.push_back(key);
            if self.replay_order.len() > MAX_REPLAY_ENTRIES {
                if let Some(old) = self.replay_order.pop_front() {
                    self.replay_seen.remove(&old);
                }
            }
        }

        // Backend seed mixes the PoP seed with the client's CID — never
        // the shard id, so handshakes (and therefore everything the
        // client observes) are identical across shard counts.
        let seed = mix(self.cfg.seed, cid_u64(&scid));
        let entropy = mix(self.cfg.seed ^ 0xc1d, self.cid_counter);
        self.cid_counter += 1;
        let cid = encode_cid(shard, 0, entropy);
        let mut sc = Config::server(seed);
        if self.cfg.stateless_reset {
            // The §10.3 oracle the client will hold for this connection,
            // bound to the shard's current-epoch secret and the CID we
            // are about to route by.
            sc.params.stateless_reset_token =
                Some(reset::reset_token(self.shard_secret(shard), &cid));
        }
        let mut conn = Connection::new(sc, now);
        if !validated {
            // Without token admission the quic-level 3× gate holds until
            // the handshake validates the address.
            conn.set_address_unvalidated();
        }
        conn.rebind_local_cid(cid);

        let slot = self.backends.insert(Backend {
            // The route of the one CID issued so far is bound below.
            cid_epoch: conn.cid_epoch(),
            conn,
            shard,
            addr,
            client_scid: scid,
        });
        self.router.bind(cid, slot);
        self.client_map.insert(scid, slot);
        self.peak_live = self.peak_live.max(self.backends.len());
        let st = self.shard_stats.entry(shard).or_default();
        st.live += 1;
        st.admitted += 1;
        self.stats.admitted += 1;
        self.tracer.emit(now, Event::EdgeAdmit { shard });
        self.forward(now, slot, payload);
    }

    /// Hand a datagram to a backend, which serves any completed requests,
    /// and sync CID issuance/retirement into the router.
    fn forward(&mut self, now: Instant, slot: usize, payload: &mut [u8]) {
        let _prof = prof::span!("edge/forward");
        if !self.backends.deliver(now, slot, 0, payload) {
            return;
        }
        // The router mirrors the connection's CID set, which moves only
        // when the client retires a CID (and is issued a spare).
        let b = self.backends.get_mut(slot).expect("delivered to");
        if b.cid_epoch != b.conn.cid_epoch() {
            b.cid_epoch = b.conn.cid_epoch();
            for cid in b.conn.local_cids() {
                self.router.bind(cid, slot);
            }
            for cid in b.conn.take_retired_local() {
                self.router.unbind(&cid);
            }
        }
        self.reap(slot);
    }

    /// The backend in `slot` just took an input: tear it down if it has
    /// drained.
    fn reap(&mut self, slot: usize) {
        if self.backends.get(slot).is_some_and(|b| b.conn.is_drained()) {
            self.vacate(slot);
        }
    }

    /// Take the backend out of `slot` and free everything that pointed at
    /// it: routes, wake-ups, the slot itself, its place on its shard.
    fn vacate(&mut self, slot: usize) {
        let b = self.backends.remove(slot).expect("a backend to vacate");
        self.router.unbind_slot(slot);
        self.client_map.remove(&b.client_scid);
        if let Some(s) = self.shard_stats.get_mut(&b.shard) {
            s.live = s.live.saturating_sub(1);
        }
    }
}

impl Endpoint for Pop {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        // A backend opens a datagram where it lies: this one is copied into
        // room the host keeps for it.
        let mut room = self.backends.room_with(payload);
        self.on_datagram_in_place(now, path, &mut room);
        self.backends.restore_room(room);
    }

    fn on_datagram_in_place(&mut self, now: Instant, path: usize, payload: &mut [u8]) {
        self.stats.datagrams_in += 1;
        match classify(payload) {
            Classified::Short { dcid } => match self.router.route(&dcid) {
                Some(slot) => self.forward(now, slot, payload),
                None => {
                    self.reject(now, reject::NO_ROUTE);
                    self.maybe_stateless_reset(now, path, &dcid, payload.len());
                }
            },
            Classified::Initial { scid, token, .. } => {
                if let Some(&slot) = self.client_map.get(&scid) {
                    // Handshake continuation of an admitted connection.
                    self.forward(now, slot, payload);
                } else {
                    let _prof = prof::span!("edge/admit");
                    if let Some(spent) = self.admission(now, path, scid, token, payload.len()) {
                        self.admit(now, path, scid, spent, payload);
                    }
                }
            }
            Classified::Handshake { dcid, scid } => {
                if let Some(&slot) = self.client_map.get(&scid) {
                    self.forward(now, slot, payload);
                } else if let Some(slot) = self.router.route(&dcid) {
                    self.forward(now, slot, payload);
                } else {
                    self.reject(now, reject::NO_ROUTE);
                }
            }
            // The PoP mints Retries; it never accepts one.
            Classified::Retry { .. } | Classified::Malformed => self.stats.malformed += 1,
        }
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        if let Some((path, payload)) = self.pending.pop_front() {
            return Some(Transmit { path, payload });
        }
        self.backends.poll_transmit(now)
    }

    fn poll_timeout(&self) -> Option<Instant> {
        let fault = self.cfg.faults.get(self.next_fault).map(|&(at, _)| Instant::ZERO + at);
        [self.backends.next_deadline(), fault].into_iter().flatten().min()
    }

    fn on_timeout(&mut self, now: Instant) {
        for slot in self.backends.fire_due(now) {
            self.reap(slot);
        }
        // The faults due land after the backends' own timers.
        while let Some(&(at, fault)) = self.cfg.faults.get(self.next_fault) {
            if Instant::ZERO + at > now {
                break;
            }
            self.next_fault += 1;
            match fault {
                ShardFault::Drain(shard) => self.drain_shard(now, shard),
                ShardFault::Crash(shard) => self.crash_shard(now, shard),
                ShardFault::Restart(shard) => self.restart_shard(now, shard),
            }
        }
    }

    fn is_done(&self) -> bool {
        true // passive: session end is the clients' call
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_core::lb::server_id;
    use xlink_obs::TraceLog;
    use xlink_quic::packet::HeaderRef;

    /// The token a Retry carries.
    fn retry_token(retry: &[u8]) -> Vec<u8> {
        let (h, _) = HeaderRef::decode(retry).expect("a Retry");
        assert_eq!(h.ty, PacketType::Retry);
        h.token.to_vec()
    }

    /// `initial` with `token` spliced into its header, the sealed payload
    /// as it was.
    fn with_token(initial: &[u8], token: &[u8]) -> Vec<u8> {
        let (mut h, off) = Header::decode(initial).expect("an Initial");
        h.token = token.to_vec();
        let mut out = h.encode();
        out.extend_from_slice(&initial[off..]);
        out
    }

    fn pop(admission: bool, shards: &[ServerId]) -> Pop {
        scripted(admission, shards, Vec::new())
    }

    fn scripted(admission: bool, shards: &[ServerId], faults: Vec<(Duration, ShardFault)>) -> Pop {
        Pop::new(PopConfig { shards: shards.to_vec(), admission, faults, ..PopConfig::default() })
    }

    /// What a shard fault can change: the PoP's counters and every shard's
    /// state.
    fn counters(p: &Pop) -> String {
        format!("{:?} {:?}", p.stats(), p.shard_stats())
    }

    /// The shard-lifecycle events `log` recorded: (time, event).
    fn shard_events(log: &TraceLog) -> Vec<(Instant, Event)> {
        let lifecycle = |e: &Event| {
            matches!(
                e,
                Event::ShardDrain { .. } | Event::ShardCrash { .. } | Event::ShardRestart { .. }
            )
        };
        log.events().into_iter().filter(|e| lifecycle(&e.body)).map(|e| (e.time, e.body)).collect()
    }

    /// Drive one client against the PoP until quiescent or `rounds` out.
    fn pump(now: &mut Instant, clients: &mut [(usize, &mut Connection)], p: &mut Pop, rounds: u32) {
        for _ in 0..rounds {
            let mut moved = false;
            for (addr, c) in clients.iter_mut() {
                while let Some(d) = c.poll_transmit(*now) {
                    p.on_datagram(*now, *addr, &d);
                    moved = true;
                }
            }
            while let Some(t) = Endpoint::poll_transmit(p, *now) {
                moved = true;
                for (addr, c) in clients.iter_mut() {
                    if *addr == t.path {
                        c.handle_datagram(*now, &t.payload);
                        break;
                    }
                }
            }
            *now += Duration::from_millis(5);
            for (_, c) in clients.iter_mut() {
                if c.poll_timeout().is_some_and(|t| t <= *now) {
                    c.on_timeout(*now);
                }
            }
            Endpoint::on_timeout(p, *now);
            if !moved {
                break;
            }
        }
    }

    #[test]
    fn tokenless_flood_creates_no_connection_state() {
        let mut p = pop(true, &[1, 2]);
        let now = Instant::from_millis(1);
        for i in 0..100u64 {
            let mut c = Connection::new(Config::client(0x9000 + i), now);
            let d = c.poll_transmit(now).expect("client hello");
            p.on_datagram(now, i as usize, &d);
        }
        assert_eq!(p.bounded_state().conns, 0);
        assert_eq!(p.stats().rejected(reject::NO_TOKEN), 100);
        assert_eq!(p.stats().retries_sent, 100);
        assert!(p.bounded_state().within_caps());
        assert!(p.amp_ok());
    }

    #[test]
    fn an_initial_without_a_packet_number_is_malformed() {
        let mut p = pop(true, &[1]);
        let now = Instant::from_millis(1);
        let mut c = Connection::new(Config::client(0x20), now);
        let hello = c.poll_transmit(now).expect("hello");
        // Header up to the (empty) token's length byte: 20 bytes, the
        // packet number cut off. The backend's decoder refuses it.
        let cut = &hello[..20];
        assert!(Header::decode(cut).is_err());
        p.on_datagram(now, 0, cut);
        assert_eq!(p.stats().malformed, 1);
        assert_eq!(p.stats().rejected(reject::NO_TOKEN), 0);
        assert!(Endpoint::poll_transmit(&mut p, now).is_none(), "no Retry for it");
        assert_eq!(p.stats().retries_sent, 0);
        let state = p.bounded_state();
        assert_eq!((state.addr_entries, state.conns), (0, 0), "no account, no connection");
    }

    #[test]
    fn retry_then_tokened_initial_admits_and_serves() {
        let mut p = pop(true, &[1, 2, 3]);
        let mut c = Connection::new(Config::client(0x51), Instant::from_millis(1));
        let scid = c.local_cid();
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
        assert!(c.retry_seen(), "client should have honoured a Retry");
        assert!(c.is_established());
        assert_eq!(p.stats().admitted, 1);
        // The server's CID encodes the shard the router placed us on.
        assert_eq!(server_id(&c.remote_cid()), p.shard_of(&scid).unwrap());
        // Request 100 bytes; the PoP answers with the fixed pattern.
        let id = c.open_stream(0);
        c.stream_send(id, &encode_request(0, 100), true);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 200);
        let body = c.stream_recv(id, usize::MAX);
        assert_eq!(body.len(), 100);
        assert!(body.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        // A resumed request serves the same absolute positions: bytes
        // [40, 100) of the object, not a restarted pattern.
        let id2 = c.open_stream(0);
        c.stream_send(id2, &encode_request(40, 60), true);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 200);
        let tail = c.stream_recv(id2, usize::MAX);
        assert_eq!(tail.len(), 60);
        assert!(tail.iter().enumerate().all(|(i, &b)| b == ((40 + i) % 251) as u8));
        assert_eq!(&body[40..], &tail[..], "resume tail must splice losslessly");
    }

    /// Once a download is acknowledged its backend holds none of its bytes:
    /// the body is lent from the payload table as it is sent, never held.
    #[test]
    fn a_finished_download_holds_no_send_bytes() {
        let mut p = pop(false, &[1]);
        let mut c = Connection::new(Config::client(0x5d), Instant::from_millis(1));
        let scid = c.local_cid();
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
        let id = c.open_stream(0);
        c.stream_send(id, &encode_request(0, 30_000), true);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 400);
        let body = c.stream_recv(id, usize::MAX);
        assert_eq!(body.len(), 30_000);
        assert!(xlink_lab::payload::matches(0, 0, &body));
        let state =
            p.backends.get(p.client_map[&scid]).expect("a live backend").conn.bounded_state();
        assert_eq!(state.buffered_send_bytes, 0);
        assert!(state.within_caps());
    }

    /// A request split over two datagrams is answered once, in the
    /// datagram that completes it, whichever half arrives first.
    #[test]
    fn a_split_request_is_answered_once_when_it_completes() {
        for reverse in [false, true] {
            let mut p = pop(false, &[1]);
            let mut c = Connection::new(Config::client(0x5e), Instant::from_millis(1));
            let scid = c.local_cid();
            let mut now = Instant::from_millis(1);
            pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
            let id = c.open_stream(0);
            let request = encode_request(0, 100);
            c.stream_send(id, &request[..8], false);
            let first = c.poll_transmit(now).expect("the first half");
            c.stream_send(id, &request[8..], true);
            let second = c.poll_transmit(now).expect("the second half");
            let (a, b) = if reverse { (second, first) } else { (first, second) };
            let slot = p.client_map[&scid];
            let written = |p: &Pop| {
                let backend = p.backends.get(slot).expect("a live backend");
                backend.conn.streams().get(id).map_or(0, |s| s.send.len())
            };
            p.on_datagram(now, 0, &a);
            assert_eq!(written(&p), 0, "reverse {reverse}: answered half a request");
            p.on_datagram(now, 0, &b);
            assert_eq!(written(&p), 100, "reverse {reverse}: not answered once whole");
            pump(&mut now, &mut [(0, &mut c)], &mut p, 200);
            assert_eq!(written(&p), 100, "reverse {reverse}: answered again");
            let body = c.stream_recv(id, usize::MAX);
            assert!(body.len() == 100 && xlink_lab::payload::matches(0, 0, &body));
            assert!(c.streams().is_complete(id));
        }
    }

    /// A request stream whose FIN never comes is never answered, however
    /// many bytes it holds: the backend reads none of them out.
    #[test]
    fn a_request_without_its_fin_is_never_answered() {
        let mut p = pop(false, &[1]);
        let mut c = Connection::new(Config::client(0x5f), Instant::from_millis(1));
        let scid = c.local_cid();
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
        let id = c.open_stream(0);
        c.stream_send(id, &encode_request(0, 100), false);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 200);
        assert!(c.stream_recv(id, usize::MAX).is_empty(), "answered");
        let backend = p.backends.get(p.client_map[&scid]).expect("a live backend");
        let stream = backend.conn.streams().get(id).expect("the request stream");
        assert_eq!(stream.send.len(), 0, "answered");
        assert_eq!(stream.recv.readable(), 16, "the request was read out");
    }

    #[test]
    fn replayed_and_cross_address_tokens_rejected() {
        let mut p = pop(true, &[1]);
        let now = Instant::from_millis(1);
        // Get a genuine Retry for address 0.
        let mut a = Connection::new(Config::client(0xa0), now);
        let hello = a.poll_transmit(now).expect("hello");
        p.on_datagram(now, 0, &hello);
        let retry = Endpoint::poll_transmit(&mut p, now).expect("retry queued");
        assert_eq!(retry.path, 0);
        let tok = retry_token(&retry.payload);
        assert_eq!(tok.len(), token::TOKEN_LEN);

        // Splice the token into a *different* client's Initial.
        let splice =
            |conn: &mut Connection| with_token(&conn.poll_transmit(now).expect("hello"), &tok);
        let mut b = Connection::new(Config::client(0xb0), now);
        p.on_datagram(now, 0, &splice(&mut b));
        assert_eq!(p.stats().admitted, 1, "first spend of a valid token admits");
        // Same token again, new client: replay.
        let mut c2 = Connection::new(Config::client(0xc0), now);
        p.on_datagram(now, 0, &splice(&mut c2));
        assert_eq!(p.stats().rejected(reject::REPLAYED_TOKEN), 1);
        // A fresh token is address-bound: spending it from addr 7 fails.
        let mut d2 = Connection::new(Config::client(0xd0), now);
        let hello2 = d2.poll_transmit(now).expect("hello");
        p.on_datagram(now, 1, &hello2);
        let retry2 = Endpoint::poll_transmit(&mut p, now).expect("retry");
        let tok2 = retry_token(&retry2.payload);
        let mut e = Connection::new(Config::client(0xe0), now);
        let spliced = with_token(&e.poll_transmit(now).expect("hello"), &tok2);
        p.on_datagram(now, 7, &spliced);
        assert_eq!(p.stats().rejected(reject::BAD_TOKEN), 1);
        assert_eq!(p.stats().admitted, 1);
    }

    #[test]
    fn drain_steers_live_conns_to_survivors() {
        let mut p = scripted(false, &[1, 2], vec![(Duration::from_secs(1), ShardFault::Drain(1))]);
        let mut a = Connection::new(Config::client(0x111), Instant::from_millis(1));
        let mut b = Connection::new(Config::client(0x222), Instant::from_millis(1));
        let (sa, sb) = (a.local_cid(), b.local_cid());
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut a), (1, &mut b)], &mut p, 100);
        assert!(a.is_established() && b.is_established());
        let (ha, hb) = (p.shard_of(&sa).unwrap(), p.shard_of(&sb).unwrap());

        // The scripted drain of shard 1: every conn on it must move to
        // shard 2.
        let moved = [(sa, ha), (sb, hb)].iter().filter(|(_, h)| *h == 1).count() as u64;
        assert!(now < Instant::from_secs(1));
        now = Instant::from_secs(1);
        Endpoint::on_timeout(&mut p, now);
        assert_eq!(p.stats().migrations, moved);
        assert_eq!(p.shard_stats()[&1].migrated_out, moved);
        // Draining it again is no double migration.
        let drained = counters(&p);
        p.drain_shard(now, 1);
        assert_eq!(counters(&p), drained, "drain is idempotent");
        pump(&mut now, &mut [(0, &mut a), (1, &mut b)], &mut p, 100);
        assert_eq!(p.shard_of(&sa), Some(if ha == 1 { 2 } else { ha }));
        assert_eq!(p.shard_of(&sb), Some(if hb == 1 { 2 } else { hb }));
        // The clients followed: their DCIDs now encode the new shard,
        // and both connections still work end to end.
        assert_ne!(server_id(&a.remote_cid()), 1);
        assert_ne!(server_id(&b.remote_cid()), 1);
        let ida = a.open_stream(0);
        a.stream_send(ida, &encode_request(0, 64), true);
        let idb = b.open_stream(0);
        b.stream_send(idb, &encode_request(0, 64), true);
        pump(&mut now, &mut [(0, &mut a), (1, &mut b)], &mut p, 200);
        assert_eq!(a.stream_recv(ida, usize::MAX).len(), 64, "post-drain serve a");
        assert_eq!(b.stream_recv(idb, usize::MAX).len(), 64, "post-drain serve b");
    }

    #[test]
    fn cid_grinding_is_rejected_without_state_growth() {
        let mut p = pop(true, &[1, 2]);
        let now = Instant::from_millis(1);
        for i in 0..500u64 {
            let mut d = vec![0b0100_0000u8];
            d.extend_from_slice(&ConnectionId::derive(0xbad, i).0);
            d.extend_from_slice(&[0, 0, 0, 0]);
            p.on_datagram(now, 3, &d);
        }
        assert_eq!(p.stats().rejected(reject::NO_ROUTE), 500);
        assert_eq!(p.bounded_state().conns, 0);
        assert!(p.bounded_state().within_caps());
        // Grind datagrams are tiny (≤ the reset size) and the grinder
        // has no byte budget: not a single reset leaves the PoP.
        assert_eq!(p.stats().resets_sent, 0);
    }

    #[test]
    fn a_reset_waits_for_the_address_budget() {
        let mut p = pop(true, &[1]);
        let now = Instant::from_millis(1);
        // A short header bigger than a reset, for a live shard's CID that
        // no connection holds, from an address that never sent a byte of
        // handshake: the reset would be pure amplification.
        let mut trigger = vec![0b0100_0000u8];
        trigger.extend_from_slice(&encode_cid(1, 0, 0x5eed).0);
        trigger.resize(reset::RESET_DATAGRAM_LEN + 20, 0);
        p.on_datagram(now, 7, &trigger);
        assert_eq!(p.stats().rejected(reject::AMPLIFICATION), 1);
        assert_eq!(p.stats().resets_sent, 0);
        assert!(Endpoint::poll_transmit(&mut p, now).is_none(), "nothing queued");
        // Once the address has sent an Initial (answered by a Retry), the
        // same trigger draws a reset within its budget.
        let mut c = Connection::new(Config::client(0x77), now);
        let initial = c.poll_transmit(now).expect("hello");
        p.on_datagram(now, 7, &initial);
        assert_eq!(p.stats().retries_sent, 1);
        assert!(Endpoint::poll_transmit(&mut p, now).is_some(), "the Retry");
        p.on_datagram(now, 7, &trigger);
        let t = Endpoint::poll_transmit(&mut p, now).expect("stateless reset queued");
        assert_eq!((t.path, t.payload.len()), (7, reset::RESET_DATAGRAM_LEN));
        assert_eq!(p.stats().resets_sent, 1);
        assert_eq!(p.stats().rejected(reject::AMPLIFICATION), 1);
    }

    #[test]
    fn crash_destroys_state_and_restart_answers_with_resets() {
        let faults = vec![
            (Duration::from_secs(1), ShardFault::Crash(1)),
            (Duration::from_secs(2), ShardFault::Restart(1)),
        ];
        let mut p = scripted(false, &[1], faults);
        let mut c = Connection::new(Config::client(0x71), Instant::from_millis(1));
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
        assert!(c.is_established());

        // Crash: all state gone atomically, no drain, no close frames.
        assert!(now < Instant::from_secs(1));
        now = Instant::from_secs(1);
        Endpoint::on_timeout(&mut p, now);
        assert_eq!((p.stats().shard_crashes, p.shard_stats()[&1].live), (1, 0));
        assert_eq!(p.bounded_state().conns, 0);
        assert_eq!(p.bounded_state().demux, 0);
        let crashed = counters(&p);
        p.crash_shard(now, 1);
        assert_eq!(counters(&p), crashed, "crash is idempotent");
        p.drain_shard(now, 1);
        assert_eq!(counters(&p), crashed, "no draining the dead");

        // While the shard is down it is silent: the client's datagrams
        // fall on the floor (that is what PTO exhaustion would measure).
        let id = c.open_stream(0);
        c.stream_send(id, &encode_request(0, 32), true);
        let d = c.poll_transmit(now).expect("short packet");
        p.on_datagram(now, 0, &d);
        assert!(Endpoint::poll_transmit(&mut p, now).is_none(), "crashed shard answers nothing");

        // Restart: epoch bumps, and the next orphaned short header gets
        // a stateless reset minted under the pre-crash epoch's secret.
        now = Instant::from_secs(2);
        Endpoint::on_timeout(&mut p, now);
        assert!(!p.shard_stats()[&1].crashed && p.shard_stats()[&1].epoch == 1);
        let restarted = counters(&p);
        p.restart_shard(now, 1);
        assert_eq!(counters(&p), restarted, "restart needs a crash");
        let d2 = c.poll_transmit(now).unwrap_or(d);
        p.on_datagram(now, 0, &d2);
        let t = Endpoint::poll_transmit(&mut p, now).expect("stateless reset queued");
        assert_eq!(t.path, 0);
        assert!(t.payload.len() < d2.len(), "§10.3.3: reset smaller than its trigger");
        assert_eq!(p.stats().resets_sent, 1);
        c.handle_datagram(now, &t.payload);
        assert!(c.is_closed(), "oracle match must kill the connection");
        assert_eq!(c.close_error(), Some(&xlink_quic::error::ConnectionError::Reset));
    }

    #[test]
    fn crash_clears_only_the_dead_shards_replay_slice() {
        let now = Instant::from_millis(1);
        let at = now.saturating_duration_since(Instant::ZERO);
        let mut p =
            scripted(true, &[1], vec![(at, ShardFault::Crash(1)), (at, ShardFault::Restart(1))]);
        // Earn a token the usual way.
        let mut a = Connection::new(Config::client(0xa1), now);
        let hello = a.poll_transmit(now).expect("hello");
        p.on_datagram(now, 0, &hello);
        let retry = Endpoint::poll_transmit(&mut p, now).expect("retry");
        let tok = retry_token(&retry.payload);
        let splice =
            |conn: &mut Connection| with_token(&conn.poll_transmit(now).expect("hello"), &tok);
        // First spend admits and burns the token against shard 1.
        let mut b = Connection::new(Config::client(0xb1), now);
        p.on_datagram(now, 0, &splice(&mut b));
        assert_eq!(p.stats().admitted, 1);
        // Replay against the live shard is still a replay.
        let mut c = Connection::new(Config::client(0xc1), now);
        p.on_datagram(now, 0, &splice(&mut c));
        assert_eq!(p.stats().rejected(reject::REPLAYED_TOKEN), 1);
        // Crash-restart the admitting shard: its ledger slice died with
        // it, so the orphan's token is legitimately re-spendable.
        Endpoint::on_timeout(&mut p, now);
        assert_eq!((p.stats().shard_crashes, p.shard_stats()[&1].epoch), (1, 1));
        let mut e = Connection::new(Config::client(0xe1), now);
        p.on_datagram(now, 0, &splice(&mut e));
        assert_eq!(p.stats().admitted, 2, "post-crash re-spend is a reconnection, not a replay");
    }

    #[test]
    #[should_panic(expected = "no such shard")]
    fn a_fault_naming_an_unknown_shard_panics() {
        scripted(true, &[1, 2], vec![(Duration::from_millis(5), ShardFault::Drain(3))]);
    }

    /// The PoP's timer is due at a scripted crash, and the crash lands
    /// there: its event carries the scripted instant, off the grid of the
    /// client's clock included.
    #[test]
    fn a_scripted_crash_lands_at_its_instant() {
        let at = Duration::from_micros(301_500);
        let mut p = scripted(false, &[1], vec![(at, ShardFault::Crash(1))]);
        let log = TraceLog::recording();
        p.set_tracer(log.tracer("pop"));
        let mut c = Connection::new(Config::client(0x31), Instant::from_millis(1));
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
        assert!(c.is_established() && now < Instant::ZERO + at);
        while let Some(t) = Endpoint::poll_timeout(&p).filter(|&t| t <= Instant::ZERO + at) {
            Endpoint::on_timeout(&mut p, t);
            while Endpoint::poll_transmit(&mut p, t).is_some() {}
        }
        let crash = Event::ShardCrash { shard: 1, conns: 1 };
        assert_eq!(shard_events(&log), vec![(Instant::ZERO + at, crash)]);
    }

    /// Faults at one instant apply in the order the script lists them: a
    /// restart before its crash finds nothing to restart. The script is
    /// taken in time order, and a fault waits for its own instant.
    #[test]
    fn faults_at_one_instant_apply_in_script_order() {
        let at = Duration::from_millis(40);
        let later = (at + Duration::from_millis(1), ShardFault::Drain(2));
        let same = [
            (at, ShardFault::Restart(1)),
            (at, ShardFault::Crash(1)),
            (at, ShardFault::Crash(2)),
            (at, ShardFault::Restart(2)),
        ];
        let mut p = scripted(true, &[1, 2], [&[later][..], &same].concat());
        let log = TraceLog::recording();
        p.set_tracer(log.tracer("pop"));
        assert_eq!(Endpoint::poll_timeout(&p), Some(Instant::ZERO + at));
        Endpoint::on_timeout(&mut p, Instant::ZERO + at);
        let t = Instant::ZERO + at;
        assert_eq!(
            shard_events(&log),
            vec![
                (t, Event::ShardCrash { shard: 1, conns: 0 }),
                (t, Event::ShardCrash { shard: 2, conns: 0 }),
                (t, Event::ShardRestart { shard: 2, epoch: 1 }),
            ]
        );
        assert!(p.shard_stats()[&1].crashed && p.shard_stats()[&1].epoch == 0);
        assert!(!p.shard_stats()[&2].crashed && p.shard_stats()[&2].epoch == 1);
        assert_eq!(Endpoint::poll_timeout(&p), Some(Instant::ZERO + later.0));
    }
}
