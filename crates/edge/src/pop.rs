//! A deterministic CDN point of presence: one netsim [`Endpoint`]
//! fronting a fleet of backend shards behind a CID router.
//!
//! Every inbound datagram is classified allocation-free
//! ([`crate::router::classify`]) and either routed to an existing
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
//! - **Graceful drain** ([`Pop::drain_shard`]): live connections on a
//!   draining shard are steered to survivors with NEW_CONNECTION_ID +
//!   Retire Prior To; clients migrate mid-stream with zero stream-byte
//!   loss, and the old routes disappear when the client's
//!   RETIRE_CONNECTION_ID lands.
//! - **Crash-fault tier** ([`Pop::crash_shard`]): a shard can die with
//!   no drain window — its conn/demux/replay state is destroyed
//!   atomically. After [`Pop::restart_shard`] the shard answers the
//!   orphaned clients' short-header datagrams with RFC 9000 §10.3
//!   stateless resets minted from the pre-restart epoch secret, so
//!   clients fail over to reconnection instead of idling out.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use xlink_clock::{Duration, Instant};
use xlink_core::lb::{encode_cid, ServerId};
use xlink_netsim::{Endpoint, Transmit, Wakeups};
use xlink_obs::{prof, Event, Tracer};
use xlink_quic::cid::ConnectionId;
use xlink_quic::connection::{Config, Connection, AMP_FACTOR};
use xlink_quic::packet::{Header, PacketType};

use crate::router::{classify, Classified, EdgeRouter};
use crate::token::{splitmix, TokenError, TokenKey};
use xlink_quic::reset;

/// Reject reasons (also the `reason` field of [`Event::EdgeReject`]).
pub mod reject {
    /// Initial with no token while admission control is on.
    pub const NO_TOKEN: &str = "no_token";
    /// Token MAC/address mismatch: forged or stolen cross-address.
    pub const BAD_TOKEN: &str = "bad_token";
    /// Token older than the configured lifetime.
    pub const EXPIRED_TOKEN: &str = "expired_token";
    /// Token already spent once.
    pub const REPLAYED_TOKEN: &str = "replayed_token";
    /// Sending a Retry would exceed the 3× pre-validation budget.
    pub const AMPLIFICATION: &str = "amplification";
    /// A bounded table (address accounts, Retry queue) is full.
    pub const TABLE_FULL: &str = "table_full";
    /// The concurrent-connection cap is reached.
    pub const CONN_CAP: &str = "conn_cap";
    /// No route: unknown CID (grinding) or no active shard.
    pub const NO_ROUTE: &str = "no_route";
}

/// PoP configuration. Every table is explicitly capped; the caps are
/// what the flood experiments audit via [`Pop::bounded_state`].
#[derive(Debug, Clone)]
pub struct PopConfig {
    /// Backend shard ids (QUIC-LB server ids). Must be non-empty.
    pub shards: Vec<ServerId>,
    /// Retry-token admission control for new connections.
    pub admission: bool,
    /// Token MAC key (shared by nothing — the PoP is the only minter).
    pub token_key: u64,
    /// Token validity window.
    pub token_lifetime: Duration,
    /// Seed for backend CID/handshake derivation.
    pub seed: u64,
    /// Concurrent backend connections.
    pub max_conns: usize,
    /// Queued outbound Retry datagrams.
    pub max_pending_retries: usize,
    /// Spent-token replay ring entries.
    pub max_replay_entries: usize,
    /// Tracked per-address byte accounts.
    pub max_addr_entries: usize,
    /// Per-request response-body cap (a hostile but admitted client
    /// cannot ask the PoP to materialise unbounded bytes).
    pub max_response_bytes: u64,
    /// Base secret for per-shard, per-epoch stateless-reset tokens.
    pub reset_secret: u64,
    /// Answer unroutable short-header datagrams with stateless resets
    /// (§10.3). Off = the PTO/idle-exhaustion baseline the crash
    /// experiments compare against.
    pub stateless_reset: bool,
}

impl Default for PopConfig {
    fn default() -> Self {
        PopConfig {
            shards: vec![1, 2],
            admission: true,
            token_key: 0xed6e_70b5_0bad_cafe,
            token_lifetime: Duration::from_secs(2),
            seed: 1,
            max_conns: 2048,
            max_pending_retries: 256,
            max_replay_entries: 8192,
            max_addr_entries: 4096,
            max_response_bytes: 4 * 1024 * 1024,
            reset_secret: 0x0dd5_ec4e_77e1_1ef7,
            stateless_reset: true,
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
    /// Retry-token MAC key rotations.
    pub token_rotations: u64,
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

/// Typed outcome of a shard lifecycle action ([`Pop::drain_shard`],
/// [`Pop::crash_shard`], [`Pop::restart_shard`]). Acting on a shard in
/// the wrong state is reported, never silently misrouted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Drain applied: this many live connections were steered away.
    Drained {
        /// Connections migrated to surviving shards.
        migrated: u32,
    },
    /// Crash applied: this many live connections were destroyed.
    Crashed {
        /// Connections destroyed with the shard.
        conns: u32,
    },
    /// Restart applied: the shard rejoined placement under this epoch.
    Restarted {
        /// The shard's new reset-secret epoch.
        epoch: u64,
    },
    /// The shard id is not part of this PoP.
    UnknownShard,
    /// The shard was already draining or crashed; nothing was done.
    AlreadyInactive,
    /// Restart of a shard that is not crashed; nothing was done.
    NotCrashed,
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

/// Per-stream request state on a backend connection.
#[derive(Debug, Default)]
struct ReqState {
    buf: Vec<u8>,
    answered: bool,
}

/// One backend connection slot.
struct Backend {
    conn: Connection,
    shard: ServerId,
    /// Client address (world path index) — where replies go.
    addr: usize,
    /// The client's CID: stable demux key for long headers and the
    /// rehash key for drain placement.
    client_scid: ConnectionId,
    streams: BTreeMap<u64, ReqState>,
    /// [`Connection::cid_epoch`] the router's routes were last synced at.
    cid_epoch: u64,
    /// [`Connection::stream_epoch`] the request streams were last read at.
    stream_epoch: u64,
}

fn mix(a: u64, b: u64) -> u64 {
    splitmix(a ^ splitmix(b))
}

fn cid_u64(cid: &ConnectionId) -> u64 {
    u64::from_be_bytes(cid.0)
}

/// Replay-ring key: a spent token's (nonce, MAC) pair, unique per mint.
/// Only called on tokens that already passed `verify`.
fn replay_key(tok: &[u8]) -> u128 {
    let n = u64::from_be_bytes(tok[16..24].try_into().expect("8-byte slice"));
    let m = u64::from_be_bytes(tok[24..32].try_into().expect("8-byte slice"));
    (u128::from(n) << 64) | u128::from(m)
}

/// The PoP endpoint.
pub struct Pop {
    cfg: PopConfig,
    router: EdgeRouter,
    /// Long-header demux: client SCID → slot (stable for a conn's life).
    client_map: BTreeMap<ConnectionId, usize>,
    conns: Vec<Option<Backend>>,
    /// Vacant entries of `conns`; admission takes the lowest.
    free: BTreeSet<usize>,
    /// Which backends may have something to send, and every backend's
    /// timer: what `poll_transmit`, `poll_timeout` and `on_timeout` consult
    /// instead of asking each connection.
    wake: Wakeups,
    /// Round-robin transmit cursor (slot order = admission order, which
    /// is shard-count independent — the trace-invariance property).
    rr: usize,
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
    /// Epoch-tagged Retry-token MAC key (current + previous verify).
    token_key: TokenKey,
    addr_acct: BTreeMap<usize, AddrAccount>,
    /// Monotone counter feeding backend-CID entropy: admission order,
    /// so CID *values* are unique and shard-count independent.
    cid_counter: u64,
    /// Monotone mint nonce: keeps same-instant same-address tokens
    /// distinct (clients behind one NAT'd address must not collide in
    /// the replay ring).
    mint_counter: u64,
    live: usize,
    peak_live: usize,
    shard_stats: BTreeMap<ServerId, ShardStats>,
    stats: PopStats,
    conn_polls: u64,
    timer_fires: u64,
    tracer: Tracer,
}

impl Pop {
    /// Build a PoP over the configured shard set.
    pub fn new(cfg: PopConfig) -> Self {
        assert!(!cfg.shards.is_empty(), "a PoP needs at least one shard");
        let router = EdgeRouter::new(&cfg.shards);
        let shard_stats = cfg.shards.iter().map(|&s| (s, ShardStats::default())).collect();
        Pop {
            router,
            client_map: BTreeMap::new(),
            conns: Vec::new(),
            free: BTreeSet::new(),
            wake: Wakeups::default(),
            rr: 0,
            pending: VecDeque::new(),
            peak_pending: 0,
            replay_order: VecDeque::new(),
            replay_seen: BTreeMap::new(),
            token_key: TokenKey::new(cfg.token_key),
            addr_acct: BTreeMap::new(),
            cid_counter: 0,
            mint_counter: 0,
            live: 0,
            peak_live: 0,
            shard_stats,
            stats: PopStats::default(),
            conn_polls: 0,
            timer_fires: 0,
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Attach a trace handle for edge events (admit/reject/drain/migrate).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Rotate the Retry-token MAC key to a fresh epoch. Tokens of the
    /// previous epoch keep verifying (see [`TokenKey`]); older epochs
    /// become indistinguishable from forgeries. Returns the new epoch.
    pub fn rotate_token_key(&mut self) -> u64 {
        self.stats.token_rotations += 1;
        self.token_key.rotate()
    }

    /// Current Retry-token key epoch.
    pub fn token_epoch(&self) -> u64 {
        self.token_key.epoch()
    }

    /// Reset secret for `shard` under an explicit epoch.
    fn secret_for(&self, shard: ServerId, epoch: u64) -> u64 {
        mix(self.cfg.reset_secret, mix(shard as u64, epoch))
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

    /// Calls the PoP made into a backend's `Connection::poll_transmit`.
    /// This and [`Pop::timer_fires`] count the runner's work, not the
    /// simulation's: per datagram they must not grow with the number of
    /// live connections.
    pub fn conn_polls(&self) -> u64 {
        self.conn_polls
    }

    /// Calls the PoP made into a backend's `Connection::on_timeout`.
    pub fn timer_fires(&self) -> u64 {
        self.timer_fires
    }

    /// Per-shard occupancy.
    pub fn shard_stats(&self) -> &BTreeMap<ServerId, ShardStats> {
        &self.shard_stats
    }

    /// Live backend connections.
    pub fn live_conns(&self) -> usize {
        self.live
    }

    /// Capped-resource snapshot.
    pub fn bounded_state(&self) -> PopBoundedState {
        PopBoundedState {
            conns: self.live,
            peak_conns: self.peak_live,
            max_conns: self.cfg.max_conns,
            demux: self.router.table_len(),
            peak_demux: self.router.peak_table(),
            // A conn holds its original CID plus at most a handful of
            // live migration/replacement CIDs at any instant.
            max_demux: 4 * self.cfg.max_conns,
            pending_retries: self.pending.len(),
            peak_pending_retries: self.peak_pending,
            max_pending_retries: self.cfg.max_pending_retries,
            replay_entries: self.replay_seen.len(),
            max_replay_entries: self.cfg.max_replay_entries,
            addr_entries: self.addr_acct.len(),
            max_addr_entries: self.cfg.max_addr_entries,
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
        self.conns[slot].as_ref().map(|b| b.shard)
    }

    /// True once a client's backend finished the handshake.
    pub fn backend_established(&self, client_scid: &ConnectionId) -> bool {
        self.client_map
            .get(client_scid)
            .and_then(|&s| self.conns[s].as_ref())
            .is_some_and(|b| b.conn.is_established())
    }

    /// Drain a shard: stop placing new connections on it and steer every
    /// live connection to a surviving shard via NEW_CONNECTION_ID with
    /// Retire Prior To. The old CIDs stay routable until each client's
    /// RETIRE_CONNECTION_ID lands, so in-flight packets never black-hole.
    ///
    /// Idempotent: draining an already-inactive (draining or crashed)
    /// shard is a typed no-op, never a double-migration.
    pub fn drain_shard(&mut self, now: Instant, shard: ServerId) -> ShardOutcome {
        let Some(st) = self.shard_stats.get(&shard) else { return ShardOutcome::UnknownShard };
        if st.draining || st.crashed {
            return ShardOutcome::AlreadyInactive;
        }
        self.router.deactivate_shard(shard);
        self.shard_stats.get_mut(&shard).expect("checked above").draining = true;
        let slots: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, b)| b.as_ref().is_some_and(|b| b.shard == shard && !b.conn.is_closed()))
            .map(|(i, _)| i)
            .collect();
        self.tracer.emit(now, Event::ShardDrain { shard, conns: slots.len() as u32 });
        let mut migrated = 0u32;
        for slot in slots {
            // No survivors → nothing to steer to; the shard must finish
            // its sessions before going away.
            let Some(scid) = self.conns[slot].as_ref().map(|b| b.client_scid) else { continue };
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
            let Some(b) = self.conns[slot].as_mut() else { continue };
            b.conn.issue_migration_cid(cid, tok);
            let from = b.shard;
            b.shard = target;
            self.touched(slot);
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
            migrated += 1;
            self.tracer.emit(now, Event::ConnMigrated { from_shard: from, to_shard: target });
        }
        ShardOutcome::Drained { migrated }
    }

    /// Crash a shard: destroy every backend connection, demux route, and
    /// replay-ledger entry it owns, atomically and with **no drain
    /// window** — no CONNECTION_CLOSE, no migration CIDs, nothing is
    /// flushed. This is the process-kill fault the crash experiments
    /// inject; recovery is entirely the clients' problem (stateless
    /// resets after [`Pop::restart_shard`], then reconnection).
    pub fn crash_shard(&mut self, now: Instant, shard: ServerId) -> ShardOutcome {
        let Some(st) = self.shard_stats.get(&shard) else { return ShardOutcome::UnknownShard };
        if st.crashed {
            return ShardOutcome::AlreadyInactive;
        }
        self.router.deactivate_shard(shard);
        let mut destroyed = 0u32;
        for slot in 0..self.conns.len() {
            if !self.conns[slot].as_ref().is_some_and(|b| b.shard == shard) {
                continue;
            }
            let b = self.conns[slot].take().expect("checked above");
            self.vacate(slot, &b);
            destroyed += 1;
        }
        // The crashed shard's slice of the spent-token ledger dies with
        // it: its orphans' tokens become re-spendable (same SCID → same
        // placement → same shard), while every other shard's entries
        // keep rejecting replays.
        self.replay_seen.retain(|_, &mut s| s != shard);
        let seen = &self.replay_seen;
        self.replay_order.retain(|k| seen.contains_key(k));
        let st = self.shard_stats.get_mut(&shard).expect("checked above");
        st.crashed = true;
        st.draining = false;
        st.live = 0;
        self.stats.shard_crashes += 1;
        self.tracer.emit(now, Event::ShardCrash { shard, conns: destroyed });
        ShardOutcome::Crashed { conns: destroyed }
    }

    /// Restart a crashed shard: it rejoins placement under a bumped
    /// reset-secret epoch. From this point the shard answers short
    /// headers bearing its pre-crash CIDs with stateless resets minted
    /// under the *previous* epoch's secret — exactly the tokens the
    /// orphaned clients hold.
    pub fn restart_shard(&mut self, now: Instant, shard: ServerId) -> ShardOutcome {
        let Some(st) = self.shard_stats.get_mut(&shard) else { return ShardOutcome::UnknownShard };
        if !st.crashed {
            return ShardOutcome::NotCrashed;
        }
        st.crashed = false;
        st.draining = false;
        st.epoch += 1;
        let epoch = st.epoch;
        self.router.activate_shard(shard);
        self.tracer.emit(now, Event::ShardRestart { shard, epoch });
        ShardOutcome::Restarted { epoch }
    }

    /// Crash-restart in one step: the kill-and-respawn fault where the
    /// process dies and supervision brings it straight back. Returns the
    /// crash outcome (connections destroyed); the restart epoch is
    /// visible in [`Pop::shard_stats`].
    pub fn crash_restart_shard(&mut self, now: Instant, shard: ServerId) -> ShardOutcome {
        let crashed = self.crash_shard(now, shard);
        if matches!(crashed, ShardOutcome::Crashed { .. }) {
            self.restart_shard(now, shard);
        }
        crashed
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
        let acct = self.addr_acct.entry(addr).or_default();
        if acct.sent + dgram.len() as u64 > acct.received.saturating_mul(AMP_FACTOR) {
            self.reject(now, reject::AMPLIFICATION);
            return;
        }
        if self.pending.len() >= self.cfg.max_pending_retries {
            self.reject(now, reject::TABLE_FULL);
            return;
        }
        acct.sent += dgram.len() as u64;
        self.pending.push_back((addr, dgram.to_vec()));
        self.peak_pending = self.peak_pending.max(self.pending.len());
        self.stats.resets_sent += 1;
        self.tracer.emit(now, Event::StatelessReset { path: addr as u8 });
    }

    fn reject(&mut self, now: Instant, reason: &'static str) {
        *self.stats.rejects.entry(reason).or_insert(0) += 1;
        self.tracer.emit(now, Event::EdgeReject { reason });
    }

    /// Queue a Retry for `scid` at `addr`, within the pre-validation
    /// amplification budget and the Retry-queue cap.
    fn queue_retry(&mut self, now: Instant, addr: usize, scid: ConnectionId) {
        let _prof = prof::span!("edge/retry");
        let tok = self.token_key.mint(addr as u64, self.mint_counter, now);
        self.mint_counter += 1;
        let header = Header {
            ty: PacketType::Retry,
            dcid: scid,
            // Stand-in SCID: the client readdresses its tokened Initial
            // to this, which is the same placeholder all Initials carry.
            scid: ConnectionId::derive(0x1317, 0),
            pn: 0,
            pn_len: 1,
            token: tok.to_vec(),
        };
        let bytes = header.encode();
        let acct = self.addr_acct.entry(addr).or_default();
        if acct.sent + bytes.len() as u64 > acct.received.saturating_mul(AMP_FACTOR) {
            self.reject(now, reject::AMPLIFICATION);
            return;
        }
        if self.pending.len() >= self.cfg.max_pending_retries {
            self.reject(now, reject::TABLE_FULL);
            return;
        }
        acct.sent += bytes.len() as u64;
        self.pending.push_back((addr, bytes));
        self.peak_pending = self.peak_pending.max(self.pending.len());
        self.stats.retries_sent += 1;
    }

    /// Admission path for an Initial whose SCID matches no connection.
    fn on_new_initial(
        &mut self,
        now: Instant,
        addr: usize,
        scid: ConnectionId,
        tok: &[u8],
        payload: &[u8],
    ) {
        let _prof = prof::span!("edge/admit");
        // Account pre-validation bytes (bounded table; overflow = drop).
        if !self.addr_acct.contains_key(&addr) && self.addr_acct.len() >= self.cfg.max_addr_entries
        {
            self.reject(now, reject::TABLE_FULL);
            return;
        }
        self.addr_acct.entry(addr).or_default().received += payload.len() as u64;

        let validated = if self.cfg.admission {
            if tok.is_empty() {
                self.reject(now, reject::NO_TOKEN);
                self.queue_retry(now, addr, scid);
                return;
            }
            match self.token_key.verify(addr as u64, now, self.cfg.token_lifetime, tok) {
                Err(TokenError::Malformed) | Err(TokenError::BadMac) => {
                    self.reject(now, reject::BAD_TOKEN);
                    return;
                }
                Err(TokenError::Expired) => {
                    self.reject(now, reject::EXPIRED_TOKEN);
                    self.queue_retry(now, addr, scid);
                    return;
                }
                Ok(()) => {
                    // Spent-check here; the token is only *burned* below,
                    // once admission actually succeeds, so a crash that
                    // wipes the admitting shard's ledger slice lets the
                    // orphaned client legitimately re-spend.
                    if self.replay_seen.contains_key(&replay_key(tok)) {
                        self.reject(now, reject::REPLAYED_TOKEN);
                        return;
                    }
                    true
                }
            }
        } else {
            false
        };

        if self.live >= self.cfg.max_conns {
            self.reject(now, reject::CONN_CAP);
            return;
        }
        let Some(shard) = self.router.place(&scid) else {
            self.reject(now, reject::NO_ROUTE);
            return;
        };

        if validated {
            let key = replay_key(tok);
            self.replay_seen.insert(key, shard);
            self.replay_order.push_back(key);
            if self.replay_order.len() > self.cfg.max_replay_entries {
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

        let slot = self.free.pop_first().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.router.bind(cid, slot);
        self.client_map.insert(scid, slot);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        let st = self.shard_stats.entry(shard).or_default();
        st.live += 1;
        st.admitted += 1;
        self.stats.admitted += 1;
        self.tracer.emit(now, Event::EdgeAdmit { shard });
        self.conns[slot] = Some(Backend {
            // The route of the one CID issued so far was bound above.
            cid_epoch: conn.cid_epoch(),
            stream_epoch: conn.streams().epoch(),
            conn,
            shard,
            addr,
            client_scid: scid,
            streams: BTreeMap::new(),
        });
        self.forward(now, slot, payload);
    }

    /// Hand a datagram to a backend, serve any completed requests, and
    /// sync CID issuance/retirement into the router.
    fn forward(&mut self, now: Instant, slot: usize, payload: &[u8]) {
        let _prof = prof::span!("edge/forward");
        let Some(b) = self.conns[slot].as_mut() else { return };
        b.conn.handle_datagram(now, payload);
        // Serve the PoP's toy origin protocol: a 16-byte little-endian
        // `[offset | length]` request on a stream is answered with
        // `length` bytes of the *absolute-position* pattern
        // `(offset + i) % 251` plus FIN — byte-identical regardless of
        // which shard serves it, and resumable at any verified offset
        // after a crash reconnect (the zero-byte-loss check). Every walk
        // reads the streams empty, so there is nothing to find until the
        // next stream frame arrives.
        if b.stream_epoch != b.conn.streams().epoch() {
            b.stream_epoch = b.conn.streams().epoch();
            for id in b.conn.streams().readable_ids() {
                let st = b.streams.entry(id).or_default();
                let data = b.conn.stream_recv(id, usize::MAX);
                if st.answered {
                    continue;
                }
                st.buf.extend_from_slice(&data);
                if st.buf.len() >= 16 {
                    let off = u64::from_le_bytes(st.buf[..8].try_into().expect("8-byte slice"));
                    let n = u64::from_le_bytes(st.buf[8..16].try_into().expect("8-byte slice"))
                        .min(self.cfg.max_response_bytes);
                    st.answered = true;
                    st.buf = Vec::new();
                    let body: Vec<u8> = (0..n).map(|i| ((off + i) % 251) as u8).collect();
                    b.conn.stream_send(id, &body, true);
                }
            }
        }
        // The router mirrors the connection's CID set, which moves only
        // when the client retires a CID (and is issued a spare).
        if b.cid_epoch != b.conn.cid_epoch() {
            b.cid_epoch = b.conn.cid_epoch();
            for cid in b.conn.local_cids() {
                self.router.bind(cid, slot);
            }
            for cid in b.conn.take_retired_local() {
                self.router.unbind(&cid);
            }
        }
        self.touched(slot);
    }

    /// The backend in `slot` just took an input (a datagram, a fired
    /// timer, an application write, a migration CID): it may have
    /// something to send and its timer may have moved — or it has drained
    /// and is torn down.
    fn touched(&mut self, slot: usize) {
        let Some(b) = self.conns[slot].as_ref() else { return };
        if b.conn.is_drained() {
            let b = self.conns[slot].take().expect("checked above");
            self.vacate(slot, &b);
            if let Some(s) = self.shard_stats.get_mut(&b.shard) {
                s.live = s.live.saturating_sub(1);
            }
        } else {
            self.wake.mark_ready(slot);
            self.wake.set_deadline(slot, b.conn.poll_timeout());
        }
    }

    /// Free everything that pointed at the backend `b` just taken out of
    /// `slot`: routes, wake-ups, the slot itself.
    fn vacate(&mut self, slot: usize, b: &Backend) {
        self.router.unbind_slot(slot);
        self.client_map.remove(&b.client_scid);
        self.wake.remove(slot);
        self.free.insert(slot);
        self.live -= 1;
    }
}

impl Endpoint for Pop {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
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
                    self.on_new_initial(now, path, scid, token, payload);
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
        // Round-robin over the backends that took an input since they
        // last said they had nothing to send; that answer holds until
        // the next input, so the others are not asked.
        let n = self.conns.len();
        while let Some(slot) = self.wake.next_ready(self.rr) {
            let _prof = prof::span!("edge/transmit");
            let b = self.conns[slot].as_mut().expect("a ready slot holds a backend");
            self.conn_polls += 1;
            match b.conn.poll_transmit(now) {
                Some(payload) => {
                    // Sending arms the loss timers.
                    self.wake.set_deadline(slot, b.conn.poll_timeout());
                    self.rr = (slot + 1) % n;
                    return Some(Transmit { path: b.addr, payload });
                }
                None => self.wake.sleep(slot),
            }
        }
        None
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.wake.next_deadline()
    }

    fn on_timeout(&mut self, now: Instant) {
        for slot in self.wake.due(now) {
            let b = self.conns[slot].as_mut().expect("a filed deadline belongs to a backend");
            b.conn.on_timeout(now);
            self.timer_fires += 1;
            self.touched(slot);
        }
    }

    fn is_done(&self) -> bool {
        true // passive: session end is the clients' call
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token;
    use xlink_core::lb::server_id;

    const LIFE: Duration = Duration::from_secs(2);

    /// A toy-origin request: `len` bytes starting at `offset`.
    fn req(offset: u64, len: u64) -> [u8; 16] {
        let mut r = [0u8; 16];
        r[..8].copy_from_slice(&offset.to_le_bytes());
        r[8..].copy_from_slice(&len.to_le_bytes());
        r
    }

    fn pop(admission: bool, shards: &[ServerId]) -> Pop {
        Pop::new(PopConfig {
            shards: shards.to_vec(),
            admission,
            token_lifetime: LIFE,
            ..PopConfig::default()
        })
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
            *now = *now + Duration::from_millis(5);
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
        assert_eq!(p.live_conns(), 0);
        assert_eq!(p.stats().rejected(reject::NO_TOKEN), 100);
        assert_eq!(p.stats().retries_sent, 100);
        assert!(p.bounded_state().within_caps());
        assert!(p.amp_ok());
    }

    #[test]
    fn retry_then_tokened_initial_admits_and_serves() {
        let mut p = pop(true, &[1, 2, 3]);
        let mut c = Connection::new(Config::client(0x51), Instant::from_millis(1));
        let scid = c.local_cid();
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
        assert!(c.retry_seen(), "client should have honoured a Retry");
        assert!(c.is_established() && p.backend_established(&scid));
        assert_eq!(p.stats().admitted, 1);
        // The server's CID encodes the shard the router placed us on.
        assert_eq!(server_id(&c.remote_cid()), p.shard_of(&scid).unwrap());
        // Request 100 bytes; the PoP answers with the fixed pattern.
        let id = c.open_stream(0);
        c.stream_send(id, &req(0, 100), true);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 200);
        let body = c.stream_recv(id, usize::MAX);
        assert_eq!(body.len(), 100);
        assert!(body.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        // A resumed request serves the same absolute positions: bytes
        // [40, 100) of the object, not a restarted pattern.
        let id2 = c.open_stream(0);
        c.stream_send(id2, &req(40, 60), true);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 200);
        let tail = c.stream_recv(id2, usize::MAX);
        assert_eq!(tail.len(), 60);
        assert!(tail.iter().enumerate().all(|(i, &b)| b == ((40 + i) % 251) as u8));
        assert_eq!(&body[40..], &tail[..], "resume tail must splice losslessly");
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
        let tok = retry.payload[19..].to_vec(); // header is 19 bytes, token is the rest
        assert_eq!(tok.len(), token::TOKEN_LEN);

        // Splice the token into a *different* client's Initial.
        let splice = |conn: &mut Connection| {
            let d = conn.poll_transmit(now).expect("hello");
            let mut out = d[..19].to_vec();
            out.push(token::TOKEN_LEN as u8);
            out.extend_from_slice(&tok);
            out.extend_from_slice(&d[20..]); // skip the empty token length
            out
        };
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
        let tok2 = retry2.payload[19..].to_vec();
        let mut e = Connection::new(Config::client(0xe0), now);
        let de = e.poll_transmit(now).expect("hello");
        let mut spliced = de[..19].to_vec();
        spliced.push(token::TOKEN_LEN as u8);
        spliced.extend_from_slice(&tok2);
        spliced.extend_from_slice(&de[20..]);
        p.on_datagram(now, 7, &spliced);
        assert_eq!(p.stats().rejected(reject::BAD_TOKEN), 1);
        assert_eq!(p.stats().admitted, 1);
    }

    #[test]
    fn drain_steers_live_conns_to_survivors() {
        let mut p = pop(false, &[1, 2]);
        let mut a = Connection::new(Config::client(0x111), Instant::from_millis(1));
        let mut b = Connection::new(Config::client(0x222), Instant::from_millis(1));
        let (sa, sb) = (a.local_cid(), b.local_cid());
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut a), (1, &mut b)], &mut p, 100);
        assert!(a.is_established() && b.is_established());
        let (ha, hb) = (p.shard_of(&sa).unwrap(), p.shard_of(&sb).unwrap());

        // Drain shard 1: every conn on it must move to shard 2.
        let moved = [(sa, ha), (sb, hb)].iter().filter(|(_, h)| *h == 1).count() as u64;
        assert_eq!(p.drain_shard(now, 1), ShardOutcome::Drained { migrated: moved as u32 });
        assert_eq!(p.drain_shard(now, 1), ShardOutcome::AlreadyInactive, "drain is idempotent");
        assert_eq!(p.drain_shard(now, 99), ShardOutcome::UnknownShard);
        assert_eq!(p.stats().migrations, moved);
        pump(&mut now, &mut [(0, &mut a), (1, &mut b)], &mut p, 100);
        assert_eq!(p.shard_of(&sa), Some(if ha == 1 { 2 } else { ha }));
        assert_eq!(p.shard_of(&sb), Some(if hb == 1 { 2 } else { hb }));
        // The clients followed: their DCIDs now encode the new shard,
        // and both connections still work end to end.
        assert_ne!(server_id(&a.remote_cid()), 1);
        assert_ne!(server_id(&b.remote_cid()), 1);
        let ida = a.open_stream(0);
        a.stream_send(ida, &req(0, 64), true);
        let idb = b.open_stream(0);
        b.stream_send(idb, &req(0, 64), true);
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
        assert_eq!(p.live_conns(), 0);
        assert!(p.bounded_state().within_caps());
        // Grind datagrams are tiny (≤ the reset size) and the grinder
        // has no byte budget: not a single reset leaves the PoP.
        assert_eq!(p.stats().resets_sent, 0);
    }

    #[test]
    fn crash_destroys_state_and_restart_answers_with_resets() {
        let mut p = pop(false, &[1]);
        let mut c = Connection::new(Config::client(0x71), Instant::from_millis(1));
        let mut now = Instant::from_millis(1);
        pump(&mut now, &mut [(0, &mut c)], &mut p, 50);
        assert!(c.is_established());

        // Crash: all state gone atomically, no drain, no close frames.
        assert_eq!(p.crash_shard(now, 1), ShardOutcome::Crashed { conns: 1 });
        assert_eq!(p.live_conns(), 0);
        assert_eq!(p.bounded_state().demux, 0);
        assert_eq!(p.crash_shard(now, 1), ShardOutcome::AlreadyInactive, "crash is idempotent");
        assert_eq!(p.drain_shard(now, 1), ShardOutcome::AlreadyInactive, "no draining the dead");
        assert_eq!(p.crash_shard(now, 99), ShardOutcome::UnknownShard);

        // While the shard is down it is silent: the client's datagrams
        // fall on the floor (that is what PTO exhaustion would measure).
        let id = c.open_stream(0);
        c.stream_send(id, &req(0, 32), true);
        let d = c.poll_transmit(now).expect("short packet");
        p.on_datagram(now, 0, &d);
        assert!(Endpoint::poll_transmit(&mut p, now).is_none(), "crashed shard answers nothing");

        // Restart: epoch bumps, and the next orphaned short header gets
        // a stateless reset minted under the pre-crash epoch's secret.
        assert_eq!(p.restart_shard(now, 1), ShardOutcome::Restarted { epoch: 1 });
        assert_eq!(p.restart_shard(now, 1), ShardOutcome::NotCrashed, "restart needs a crash");
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
        let mut p = pop(true, &[1]);
        let now = Instant::from_millis(1);
        // Earn a token the usual way.
        let mut a = Connection::new(Config::client(0xa1), now);
        let hello = a.poll_transmit(now).expect("hello");
        p.on_datagram(now, 0, &hello);
        let retry = Endpoint::poll_transmit(&mut p, now).expect("retry");
        let tok = retry.payload[19..].to_vec();
        let splice = |conn: &mut Connection| {
            let d = conn.poll_transmit(now).expect("hello");
            let mut out = d[..19].to_vec();
            out.push(token::TOKEN_LEN as u8);
            out.extend_from_slice(&tok);
            out.extend_from_slice(&d[20..]);
            out
        };
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
        assert!(matches!(p.crash_restart_shard(now, 1), ShardOutcome::Crashed { conns: 1 }));
        assert_eq!(p.shard_stats()[&1].epoch, 1);
        let mut e = Connection::new(Config::client(0xe1), now);
        p.on_datagram(now, 0, &splice(&mut e));
        assert_eq!(p.stats().admitted, 2, "post-crash re-spend is a reconnection, not a replay");
    }

    #[test]
    fn token_rotation_mid_flood_keeps_in_flight_tokens_spendable() {
        let mut p = pop(true, &[1, 2]);
        let now = Instant::from_millis(1);
        let mut a = Connection::new(Config::client(0x3a), now);
        let hello = a.poll_transmit(now).expect("hello");
        p.on_datagram(now, 0, &hello);
        let retry = Endpoint::poll_transmit(&mut p, now).expect("retry");
        let tok = retry.payload[19..].to_vec();
        let splice = |conn: &mut Connection, tok: &[u8]| {
            let d = conn.poll_transmit(now).expect("hello");
            let mut out = d[..19].to_vec();
            out.push(token::TOKEN_LEN as u8);
            out.extend_from_slice(tok);
            out.extend_from_slice(&d[20..]);
            out
        };
        // One rotation mid-flight: the token the client is about to
        // spend was minted under the previous epoch and must still work.
        assert_eq!(p.rotate_token_key(), 1);
        let mut b = Connection::new(Config::client(0x3b), now);
        p.on_datagram(now, 0, &splice(&mut b, &tok));
        assert_eq!(p.stats().admitted, 1, "previous-epoch token spends after one rotation");
        // Earn a current-epoch token, rotate twice more: two epochs back
        // is indistinguishable from a forgery.
        let mut c = Connection::new(Config::client(0x3c), now);
        let hello2 = c.poll_transmit(now).expect("hello");
        p.on_datagram(now, 1, &hello2);
        let retry2 = Endpoint::poll_transmit(&mut p, now).expect("retry");
        let tok2 = retry2.payload[19..].to_vec();
        p.rotate_token_key();
        p.rotate_token_key();
        assert_eq!(p.token_epoch(), 3);
        let mut e = Connection::new(Config::client(0x3e), now);
        let spliced = {
            let d = e.poll_transmit(now).expect("hello");
            let mut out = d[..19].to_vec();
            out.push(token::TOKEN_LEN as u8);
            out.extend_from_slice(&tok2);
            out.extend_from_slice(&d[20..]);
            out
        };
        p.on_datagram(now, 1, &spliced);
        assert_eq!(p.stats().rejected(reject::BAD_TOKEN), 1);
        assert_eq!(p.stats().admitted, 1);
        assert_eq!(p.stats().token_rotations, 3);
    }
}
