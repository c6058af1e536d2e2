//! Scripted hostile peers for the adversarial robustness suite (DESIGN
//! §10).
//!
//! A [`QuicAttacker`] speaks the wire format directly — raw frame and
//! packet encoders on top of the real handshake — so it can say things an
//! honest endpoint never would: acknowledge packets that were never sent,
//! write stream data past the advertised window, claim a million ACK
//! ranges, contradict a stream's final size, or flood PATH_CHALLENGEs.
//! Each [`AttackKind`] is a deterministic, seeded script runnable against
//! any scheme's victim under `xlink-netsim`.
//!
//! The contract verified by `tests/adversary.rs`: every attack either
//! ends in a clean close with the RFC-correct error code or is absorbed —
//! never a panic, never unbounded state growth, never a hang past the
//! 3×PTO draining period.

use crate::bulk::bulk_pair;
use crate::chaos::handover_paths;
use crate::scenario::Scenario;
use crate::transport::{App, AppEndpoint};
use std::collections::VecDeque;
use xlink_clock::{Duration, Instant};
use xlink_core::{MpConnection, Scheme, TransportTuning};
use xlink_netsim::{Endpoint, LinkConfig, Path, Transmit};
use xlink_obs::TraceLog;
use xlink_quic::ackranges::PnRange;
use xlink_quic::cid::{ConnectionId, CID_LEN};
use xlink_quic::connection::{placeholder_dcid, BoundedState, PSK};
use xlink_quic::crypto::{derive_keys, KeyPair};
use xlink_quic::frame::{ty, AckFrame, Frame};
use xlink_quic::handshake::{Handshake, Hello};
use xlink_quic::packet::{pn_decode, Header, PacketType};
use xlink_quic::params::TransportParams;
use xlink_quic::varint::Writer;

/// The attack catalogue. Each entry is one hostile-peer script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// ACK packet numbers the victim never sent (cwnd-inflation attempt).
    OptimisticAck,
    /// Stream data far beyond the advertised flow-control window.
    FlowControlOverrun,
    /// Grow the victim's received-pn range set with gapped packets, then
    /// send an ACK frame claiming more ranges than the wire cap allows.
    AckRangeFlood,
    /// Overlapping stream writes with contradictory content, then data
    /// beyond a declared final size.
    StreamOffsetContradiction,
    /// Open a stream ID far past the advertised stream limit.
    StreamIdExhaustion,
    /// PATH_CHALLENGE flood (state-exhaustion attempt), then a graceful
    /// close so the victim's draining lifecycle is exercised too.
    PathChallengeFlood,
    /// Replay the same sealed datagram many times (re-injection
    /// amplification attempt); packet-number dedup must absorb it.
    ReinjectionAmplifier,
}

impl AttackKind {
    /// Every attack in the catalogue.
    pub fn all() -> [AttackKind; 7] {
        [
            AttackKind::OptimisticAck,
            AttackKind::FlowControlOverrun,
            AttackKind::AckRangeFlood,
            AttackKind::StreamOffsetContradiction,
            AttackKind::StreamIdExhaustion,
            AttackKind::PathChallengeFlood,
            AttackKind::ReinjectionAmplifier,
        ]
    }

    /// Human-readable label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::OptimisticAck => "optimistic-ack",
            AttackKind::FlowControlOverrun => "flow-control-overrun",
            AttackKind::AckRangeFlood => "ack-range-flood",
            AttackKind::StreamOffsetContradiction => "stream-offset-contradiction",
            AttackKind::StreamIdExhaustion => "stream-id-exhaustion",
            AttackKind::PathChallengeFlood => "path-challenge-flood",
            AttackKind::ReinjectionAmplifier => "reinjection-amplifier",
        }
    }

    /// Expected victim outcome: `Some((error_code, closed_by_peer))` for
    /// attacks that must end in a clean close, `None` for attacks the
    /// victim must absorb without closing.
    pub fn expected_close(self) -> Option<(u64, bool)> {
        match self {
            AttackKind::OptimisticAck => Some((0xa, false)), // PROTOCOL_VIOLATION
            AttackKind::FlowControlOverrun => Some((0x3, false)), // FLOW_CONTROL_ERROR
            AttackKind::AckRangeFlood => Some((0x7, false)), // FRAME_ENCODING_ERROR
            AttackKind::StreamOffsetContradiction => Some((0x6, false)), // FINAL_SIZE_ERROR
            AttackKind::StreamIdExhaustion => Some((0x4, false)), // STREAM_LIMIT_ERROR
            // The attacker closes gracefully after the flood, so the
            // victim drains on a peer-initiated NO_ERROR close.
            AttackKind::PathChallengeFlood => Some((0x0, true)),
            AttackKind::ReinjectionAmplifier => None, // absorbed
        }
    }
}

/// A hostile client endpoint: completes the real handshake (it must, to
/// obtain 1-RTT keys), then runs its attack script from raw encoders.
pub struct QuicAttacker {
    kind: AttackKind,
    /// Victim is a multipath connection (multipath offered, per-path
    /// nonces).
    mp: bool,
    hs: Handshake,
    initial_keys: KeyPair,
    keys: Option<KeyPair>,
    hello_sent: bool,
    /// Pre-encoded attack datagrams, drained one per poll.
    queue: VecDeque<(usize, Vec<u8>)>,
    /// Next 1-RTT packet number we send.
    app_pn: u64,
    /// Last Initial packet number we sent (a space of its own).
    init_pn: u64,
    /// Largest pn received: per path, then the Initial space's.
    largest: [Option<u64>; 3],
    /// Error code of a CONNECTION_CLOSE the victim sent us, if any.
    pub observed_close: Option<u64>,
}

impl QuicAttacker {
    /// Build an attacker for `kind` against an SP (`mp = false`) or MP
    /// (`mp = true`) victim. `seed` only varies the hello nonce — the
    /// script itself is fixed, which keeps runs bit-deterministic.
    pub fn new(kind: AttackKind, mp: bool, seed: u64) -> Self {
        let mut random = [0u8; 16];
        random[..8].copy_from_slice(&ConnectionId::derive(seed, 0xa77a).0);
        random[8..].copy_from_slice(&ConnectionId::derive(seed ^ 0xffff, 0xa77b).0);
        let params = TransportParams { enable_multipath: mp, ..Default::default() };
        QuicAttacker {
            kind,
            mp,
            hs: Handshake::new(true, PSK, random, params),
            initial_keys: derive_keys(PSK, &[0x11; 16], &[0x22; 16]),
            keys: None,
            hello_sent: false,
            queue: VecDeque::new(),
            app_pn: 0,
            init_pn: 0,
            largest: [None; 3],
            observed_close: None,
        }
    }

    fn slot(&self, path: usize, is_long: bool) -> usize {
        if is_long {
            2
        } else {
            path.min(1)
        }
    }

    fn dcid(&self) -> ConnectionId {
        // Neither victim routes on the DCID in this single-connection
        // harness, mirroring the SP stack's placeholder client DCID.
        placeholder_dcid()
    }

    fn initial_datagram(&self) -> Vec<u8> {
        let hdr = Header {
            ty: PacketType::Initial,
            dcid: self.dcid(),
            scid: ConnectionId::derive(0xad5a, 0),
            pn: 0,
            pn_len: 1,
            token: Vec::new(),
        };
        let mut w = Writer::new();
        Frame::Crypto { offset: 0, data: self.hs.local_hello().encode() }.encode(&mut w);
        let mut dg = hdr.encode();
        dg.extend_from_slice(&self.initial_keys.client.seal(0, 0, &dg, w.as_slice()));
        dg
    }

    /// Seal an arbitrary (possibly malformed) payload into a valid 1-RTT
    /// packet on `path` with the next sequential pn.
    fn seal_raw(&mut self, path: usize, payload: &[u8]) -> (usize, Vec<u8>) {
        let kp = self.keys.as_ref().expect("attack runs after handshake");
        let pn = self.app_pn;
        self.app_pn += 1;
        let hdr = Header {
            ty: PacketType::OneRtt,
            dcid: self.dcid(),
            scid: ConnectionId([0; CID_LEN]),
            pn,
            pn_len: 4,
            token: Vec::new(),
        };
        let seq = if self.mp { path as u32 } else { 0 };
        let mut dg = hdr.encode();
        dg.extend_from_slice(&kp.client.seal(seq, pn, &dg, payload));
        (path, dg)
    }

    /// Seal an arbitrary (possibly malformed) payload as this client's next
    /// authentic packet — an Initial under the Initial keys, or a 1-RTT
    /// packet under the handshake's (`None` before it completed) — for
    /// fuzzing a victim's receive path past the AEAD.
    pub fn seal_payload(&mut self, initial: bool, payload: &[u8]) -> Option<Vec<u8>> {
        if !initial {
            self.keys.as_ref()?;
            return Some(self.seal_raw(0, payload).1);
        }
        self.init_pn += 1;
        let pn = self.init_pn;
        let hdr = Header {
            ty: PacketType::Initial,
            dcid: self.dcid(),
            scid: ConnectionId::derive(0xad5a, 0),
            pn,
            pn_len: 4,
            token: Vec::new(),
        };
        let mut dg = hdr.encode();
        dg.extend_from_slice(&self.initial_keys.client.seal(0, pn, &dg, payload));
        Some(dg)
    }

    fn seal_frames(&mut self, path: usize, frames: &[Frame]) -> (usize, Vec<u8>) {
        let mut w = Writer::new();
        for f in frames {
            f.encode(&mut w);
        }
        self.seal_raw(path, w.as_slice())
    }

    fn push_frames(&mut self, frames: &[Frame]) {
        let dg = self.seal_frames(0, frames);
        self.queue.push_back(dg);
    }

    /// Called once keys are derived: pre-encode the whole attack script.
    fn build_attack(&mut self) {
        match self.kind {
            AttackKind::OptimisticAck => {
                // Acknowledge pns 4000..=5000 — the victim has sent a
                // handful of packets at most.
                self.push_frames(&[Frame::Ack(AckFrame {
                    path_id: 0,
                    largest: 5000,
                    ack_delay: Duration::ZERO,
                    ranges: vec![PnRange { start: 4000, end: 5000 }],
                    qoe: None,
                })]);
            }
            AttackKind::FlowControlOverrun => {
                // 100 bytes at offset 8 MiB on a 4 MiB stream window.
                self.push_frames(&[Frame::Stream {
                    stream_id: 0,
                    offset: 8 << 20,
                    data: vec![0xaa; 100],
                    fin: false,
                }]);
            }
            AttackKind::AckRangeFlood => {
                // Phase 1: 300 pings with gapped pns grow the victim's
                // received-range set past its cap (evict-oldest, gauge
                // observable). Phase 2: a hand-encoded ACK claiming 300
                // extra ranges trips the wire cap (FRAME_ENCODING_ERROR).
                for _ in 0..300 {
                    self.app_pn += 1; // leave a hole after every packet
                    self.push_frames(&[Frame::Ping]);
                }
                let mut w = Writer::new();
                w.varint(ty::ACK);
                w.varint(1_000_000); // largest
                w.varint(0); // ack delay
                w.varint(300); // extra range count: over MAX_WIRE_ACK_RANGES
                w.varint(0); // first range length
                let raw = w.into_bytes();
                let dg = self.seal_raw(0, &raw);
                self.queue.push_back(dg);
            }
            AttackKind::StreamOffsetContradiction => {
                // Overlap with contradictory bytes (must be absorbed),
                // then declare final size 20, then write past it.
                self.push_frames(&[Frame::Stream {
                    stream_id: 0,
                    offset: 0,
                    data: b"hello world".to_vec(),
                    fin: false,
                }]);
                self.push_frames(&[Frame::Stream {
                    stream_id: 0,
                    offset: 4,
                    data: b"XXXX".to_vec(),
                    fin: false,
                }]);
                self.push_frames(&[Frame::Stream {
                    stream_id: 0,
                    offset: 20,
                    data: Vec::new(),
                    fin: true,
                }]);
                self.push_frames(&[Frame::Stream {
                    stream_id: 0,
                    offset: 50,
                    data: b"zz".to_vec(),
                    fin: false,
                }]);
            }
            AttackKind::StreamIdExhaustion => {
                // Client-opened stream index 200 against a 64-stream
                // allowance.
                self.push_frames(&[Frame::Stream {
                    stream_id: 800,
                    offset: 0,
                    data: b"x".to_vec(),
                    fin: false,
                }]);
            }
            AttackKind::PathChallengeFlood => {
                // 104 challenges against an 8-entry response cap, then a
                // graceful close to walk the victim into draining.
                for pkt in 0..13u64 {
                    let mut frames = Vec::new();
                    for i in 0..8u64 {
                        frames.push(Frame::PathChallenge((pkt * 8 + i).to_be_bytes()));
                    }
                    self.push_frames(&frames);
                }
                self.push_frames(&[Frame::ConnectionClose {
                    error_code: 0,
                    reason: b"flood done".to_vec(),
                }]);
            }
            AttackKind::ReinjectionAmplifier => {
                // One sealed packet, replayed verbatim 50×: only the
                // first copy may take effect.
                let (path, dg) = self.seal_frames(
                    0,
                    &[Frame::Stream { stream_id: 0, offset: 0, data: b"dup".to_vec(), fin: false }],
                );
                for _ in 0..50 {
                    self.queue.push_back((path, dg.clone()));
                }
            }
        }
    }
}

impl Endpoint for QuicAttacker {
    fn on_datagram(&mut self, _now: Instant, path: usize, payload: &[u8]) {
        let Ok((header, off)) = Header::decode(payload) else {
            return;
        };
        let is_long = header.ty.is_long();
        let slot = self.slot(path, is_long);
        let pn = pn_decode(header.pn, header.pn_len, self.largest[slot]);
        let key = if is_long {
            self.initial_keys.server.clone()
        } else {
            match &self.keys {
                Some(kp) => kp.server.clone(),
                None => return,
            }
        };
        let seq = if self.mp { path as u32 } else { 0 };
        let Ok(plain) = key.open(seq, pn, &payload[..off], &payload[off..]) else {
            return;
        };
        self.largest[slot] = Some(self.largest[slot].map_or(pn, |l| l.max(pn)));
        let Ok(frames) = Frame::decode_all(&plain) else {
            return;
        };
        for frame in frames {
            match frame {
                Frame::Crypto { data, .. } => {
                    if self.keys.is_some() {
                        continue;
                    }
                    let Ok(hello) = Hello::decode(&data) else { continue };
                    if let Ok(kp) = self.hs.on_peer_hello(hello) {
                        self.keys = Some(kp);
                        self.build_attack();
                    }
                }
                Frame::ConnectionClose { error_code, .. } => {
                    self.observed_close = Some(error_code);
                }
                _ => {}
            }
        }
    }

    fn poll_transmit(&mut self, _now: Instant) -> Option<Transmit> {
        if !self.hello_sent {
            self.hello_sent = true;
            return Some(Transmit { path: 0, payload: self.initial_datagram() });
        }
        let (path, payload) = self.queue.pop_front()?;
        Some(Transmit { path, payload })
    }

    fn poll_timeout(&self) -> Option<Instant> {
        None
    }

    fn on_timeout(&mut self, _now: Instant) {}
}

/// The victim under attack, over any scheme's [`MpConnection`]: peak
/// tracking of its capped state and the time it reached closed.
#[derive(Debug, Default)]
pub struct Victim {
    /// Field-wise peak of its connection's `bounded_state` over the run.
    pub peak: BoundedState,
    /// When the connection first reported closed.
    pub closed_at: Option<Instant>,
}

impl Victim {
    fn sample(&mut self, conn: &MpConnection, now: Instant) {
        self.peak = self.peak.peak(conn.conn().bounded_state());
        if self.closed_at.is_none() && conn.conn().is_closed() {
            self.closed_at = Some(now);
        }
    }
}

impl App for Victim {
    fn on_datagram(&mut self, conn: &mut MpConnection, now: Instant) {
        self.sample(conn, now);
    }

    fn on_timeout(&mut self, conn: &mut MpConnection, now: Instant) {
        self.sample(conn, now);
    }
}

/// Everything a single attack run produced.
#[derive(Debug, Clone)]
pub struct AdversaryOutcome {
    /// Which script ran.
    pub attack: AttackKind,
    /// Victim transport label.
    pub transport: &'static str,
    /// `(error_code, closed_by_peer)` if the victim closed cleanly.
    pub close_code: Option<(u64, bool)>,
    /// Victim finished its closing/draining lifecycle.
    pub drained: bool,
    /// Victim reported closed at all (false = attack absorbed).
    pub closed: bool,
    /// Virtual time from t=0 to the close, if one happened.
    pub time_to_close: Option<Duration>,
    /// Peak of every capped gauge over the run.
    pub peak: BoundedState,
    /// Error code the attacker saw in a CONNECTION_CLOSE reply, if any.
    pub attacker_saw_close: Option<u64>,
    /// The handshake completed before the attack (sanity: the scripts
    /// target an established connection).
    pub victim_established: bool,
}

impl AdversaryOutcome {
    /// True when the run matched the attack's documented contract: the
    /// expected close code (or absorption) and every cap held.
    pub fn matches_expectation(&self) -> bool {
        let close_ok = match self.attack.expected_close() {
            Some((code, by_peer)) => self.close_code == Some((code, by_peer)) && self.drained,
            None => !self.closed,
        };
        close_ok && self.victim_established && self.peak.within_caps()
    }
}

/// Virtual-time budget per attack run. Generous: the slowest runs are
/// bounded by the victim's closing lifecycle (≤ 3×PTO after the close),
/// far below this, and absorbed attacks quiesce well before the victim's
/// 30 s idle timeout.
const ATTACK_DEADLINE: Duration = Duration::from_secs(12);

/// Run `kind` against a victim server running `scheme`, under the
/// emulator on two clean symmetric paths.
pub fn run_attack(kind: AttackKind, scheme: Scheme, seed: u64) -> AdversaryOutcome {
    run_attack_traced(kind, scheme, seed, None)
}

/// [`run_attack`] with an optional trace log attached to the victim
/// (used for the bit-determinism assertions).
pub fn run_attack_traced(
    kind: AttackKind,
    scheme: Scheme,
    seed: u64,
    log: Option<&TraceLog>,
) -> AdversaryOutcome {
    let tuning = TransportTuning::default();
    let mut victim = MpConnection::server(scheme, &tuning, seed, Instant::ZERO);
    if let Some(log) = log {
        victim.set_tracer(&log.tracer("victim"));
    }
    let attacker = QuicAttacker::new(kind, scheme.is_multipath(), seed);
    let paths = vec![
        Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10))),
        Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10))),
    ];
    let victim = AppEndpoint { conn: victim, app: Victim::default() };
    let mut world = Scenario::new(paths, ATTACK_DEADLINE).run(attacker, victim);
    let end = world.now();
    let AppEndpoint { conn, app: victim } = &mut world.server;
    victim.sample(conn, end);
    AdversaryOutcome {
        attack: kind,
        transport: scheme.label(),
        close_code: conn.conn().lifecycle().close_code(),
        drained: conn.conn().is_drained(),
        closed: conn.conn().is_closed(),
        time_to_close: victim.closed_at.map(|t| t.saturating_duration_since(Instant::ZERO)),
        peak: victim.peak,
        attacker_saw_close: world.client.observed_close,
        victim_established: conn.is_established() || conn.conn().is_closed(),
    }
}

/// Outcome of the multipath differential ([`run_path_hijack`]).
#[derive(Debug, Clone, Copy)]
pub struct HijackOutcome {
    /// The whole body arrived, byte-exact, before the deadline.
    pub completed: bool,
    /// Body bytes the client received, each checked against the object.
    pub delivered_bytes: usize,
    /// Virtual time from data start to completion (or the deadline).
    pub elapsed: Duration,
}

/// Download size for the hijack differential. Sized so the transfer is
/// still in flight when the attacker appears at [`HIJACK_START`].
const HIJACK_BODY: u64 = 3 << 20;

/// When the on-path attacker starts tampering (well after establishment,
/// well before a clean transfer would finish).
const HIJACK_START: Duration = Duration::from_millis(500);

/// An on-path attacker shim around an endpoint: from `from` onward, every
/// datagram arriving on `path` has a byte flipped before delivery. The
/// AEAD tag no longer verifies, so the victim must drop the packet — the
/// attacked path becomes a blackhole that the transport itself has to
/// detect and abandon.
struct Tampered<E: Endpoint> {
    inner: E,
    path: usize,
    from: Instant,
}

impl<E: Endpoint> Endpoint for Tampered<E> {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        if path == self.path && now >= self.from {
            let mut tampered = payload.to_vec();
            if let Some(b) = tampered.last_mut() {
                *b ^= 0x55;
            }
            self.inner.on_datagram(now, path, &tampered);
        } else {
            self.inner.on_datagram(now, path, payload);
        }
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        self.inner.poll_transmit(now)
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.inner.poll_timeout()
    }

    fn on_timeout(&mut self, now: Instant) {
        self.inner.on_timeout(now)
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// On-path attacker differential: a 3 MiB bulk download (`bulk_pair`)
/// over the [`handover_paths`], and after clean establishment an attacker
/// on `attacked_path` corrupts every datagram crossing it in either
/// direction (AEAD rejects the tampered packets, so the path turns into a
/// blackhole). A multipath connection must finish the download, byte for
/// byte, over its honest path; a single-path connection pinned to the
/// attacked path cannot.
pub fn run_path_hijack(scheme: Scheme, seed: u64, attacked_path: usize) -> HijackOutcome {
    let (client, server) = bulk_pair(scheme, &TransportTuning::default(), HIJACK_BODY, seed, None);
    let (path, from) = (attacked_path, Instant::ZERO + HIJACK_START);
    let client = Tampered { inner: client, path, from };
    let server = Tampered { inner: server, path, from };
    let world = Scenario::new(handover_paths(), Duration::from_secs(20)).run(client, server);
    let client = &world.client.inner.app;
    HijackOutcome {
        completed: client.done_at.is_some(),
        delivered_bytes: client.received as usize,
        elapsed: client.done_at.unwrap_or(world.now()).saturating_duration_since(Instant::ZERO),
    }
}

/// Edge-tier attack catalogue: floods aimed at the CDN PoP's admission
/// and routing layers rather than an established connection. Run via
/// `PopRunConfig::attack`, which mixes one of these into an honest client
/// fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeAttackKind {
    /// Tokenless Initials with a fresh SCID each — a handshake flood
    /// trying to make the PoP allocate connection state. Every one must
    /// bounce off admission with only a (amplification-capped) Retry.
    InitialFlood,
    /// Obtain one genuine Retry token, then spend it over and over under
    /// different SCIDs. Exactly one spend may admit; the rest must hit
    /// the replay ring.
    TokenReplay,
    /// Short-header datagrams with ground pseudo-random CIDs, probing
    /// for routable values. All must miss the demux table and be
    /// dropped without state growth.
    CidGrind,
}

impl EdgeAttackKind {
    /// Every edge attack in the catalogue.
    pub fn all() -> [EdgeAttackKind; 3] {
        [EdgeAttackKind::InitialFlood, EdgeAttackKind::TokenReplay, EdgeAttackKind::CidGrind]
    }

    /// Human-readable label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            EdgeAttackKind::InitialFlood => "initial-flood",
            EdgeAttackKind::TokenReplay => "token-replay",
            EdgeAttackKind::CidGrind => "cid-grind",
        }
    }
}

/// A scripted PoP flooder. Unlike [`QuicAttacker`] it is not a netsim
/// endpoint itself — `crate::pop::PopFleet` hosts it on a dedicated
/// address next to the honest sessions, calling [`next_datagram`] /
/// [`on_datagram`] on its behalf.
///
/// [`next_datagram`]: EdgeAttacker::next_datagram
/// [`on_datagram`]: EdgeAttacker::on_datagram
pub struct EdgeAttacker {
    kind: EdgeAttackKind,
    seed: u64,
    budget: u64,
    emitted: u64,
    probe_sent: bool,
    token: Option<Vec<u8>>,
    /// Retries the PoP answered with (amplification-capped upstream).
    pub retries_seen: u64,
}

impl EdgeAttacker {
    /// Build a flooder that will emit `budget` attack datagrams.
    pub fn new(kind: EdgeAttackKind, seed: u64, budget: u64) -> Self {
        EdgeAttacker {
            kind,
            seed,
            budget,
            emitted: 0,
            probe_sent: false,
            token: None,
            retries_seen: 0,
        }
    }

    /// The script has nothing left to send.
    pub fn exhausted(&self) -> bool {
        match self.kind {
            EdgeAttackKind::InitialFlood | EdgeAttackKind::CidGrind => self.emitted >= self.budget,
            // Until the probe's Retry arrives the replayer idles but is
            // not done.
            EdgeAttackKind::TokenReplay => self.token.is_some() && self.emitted >= self.budget,
        }
    }

    fn initial(&self, scid: ConnectionId, token: Vec<u8>) -> Vec<u8> {
        let hdr = Header {
            ty: PacketType::Initial,
            dcid: placeholder_dcid(),
            scid,
            pn: 0,
            pn_len: 1,
            token,
        };
        let mut dg = hdr.encode();
        // Fake sealed payload: admission never decrypts, and a created
        // backend (one per first token spend) just drops it on AEAD.
        dg.extend_from_slice(&[0xab; 24]);
        dg
    }

    /// Ingest a datagram the PoP sent to the attacker's address
    /// (token capture for the replay script).
    pub fn on_datagram(&mut self, payload: &[u8]) {
        if let xlink_edge::Classified::Retry { .. } = xlink_edge::classify(payload) {
            self.retries_seen += 1;
            // Retry wire layout: 19 header bytes, then the raw token.
            if self.kind == EdgeAttackKind::TokenReplay && self.token.is_none() {
                self.token = Some(payload[19..].to_vec());
            }
        }
    }

    /// Produce the next attack datagram, if the script has one ready.
    pub fn next_datagram(&mut self) -> Option<Vec<u8>> {
        match self.kind {
            EdgeAttackKind::InitialFlood => {
                if self.emitted >= self.budget {
                    return None;
                }
                let scid = ConnectionId::derive(self.seed ^ 0xf100d, self.emitted);
                self.emitted += 1;
                Some(self.initial(scid, Vec::new()))
            }
            EdgeAttackKind::TokenReplay => {
                if !self.probe_sent {
                    self.probe_sent = true;
                    let scid = ConnectionId::derive(self.seed ^ 0x7e91, 0);
                    return Some(self.initial(scid, Vec::new()));
                }
                let tok = self.token.clone()?;
                if self.emitted >= self.budget {
                    return None;
                }
                let scid = ConnectionId::derive(self.seed ^ 0x7e91, self.emitted + 1);
                self.emitted += 1;
                Some(self.initial(scid, tok))
            }
            EdgeAttackKind::CidGrind => {
                if self.emitted >= self.budget {
                    return None;
                }
                let mut dg = vec![0b0100_0000u8];
                dg.extend_from_slice(&ConnectionId::derive(self.seed ^ 0x9f1d, self.emitted).0);
                dg.extend_from_slice(&[0; 4]);
                self.emitted += 1;
                Some(dg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimistic_ack_closes_sp_victim() {
        let out = run_attack(AttackKind::OptimisticAck, Scheme::Sp { path: 0 }, 1);
        assert_eq!(out.close_code, Some((0xa, false)), "{out:?}");
        assert!(out.drained, "{out:?}");
        assert!(out.matches_expectation(), "{out:?}");
    }

    #[test]
    fn optimistic_ack_closes_mp_victim() {
        let out = run_attack(AttackKind::OptimisticAck, Scheme::Xlink, 1);
        assert_eq!(out.close_code, Some((0xa, false)), "{out:?}");
        assert!(out.matches_expectation(), "{out:?}");
    }

    #[test]
    fn reinjection_amplifier_is_absorbed() {
        let out = run_attack(AttackKind::ReinjectionAmplifier, Scheme::Sp { path: 0 }, 2);
        assert!(!out.closed, "{out:?}");
        assert!(out.matches_expectation(), "{out:?}");
    }

    #[test]
    fn every_attack_has_a_label_and_contract() {
        for kind in AttackKind::all() {
            assert!(!kind.label().is_empty());
            // expected_close is total (compile-time exhaustive match).
            let _ = kind.expected_close();
        }
    }

    #[test]
    fn hijack_differential_xlink_vs_sp() {
        let xlink = run_path_hijack(Scheme::Xlink, 11, 0);
        let sp = run_path_hijack(Scheme::Sp { path: 0 }, 11, 0);
        assert!(xlink.completed, "XLINK should survive a single-path attack: {xlink:?}");
        assert!(!sp.completed, "SP pinned to the attacked path cannot finish: {sp:?}");
    }
}
