//! Differential oracle for the connection engine and its two drivers.
//!
//! Until the merge (DESIGN §16 tells it row by row) this file ran
//! `xlink_core::MpConnection`, then an engine of its own, against
//! `xlink_quic::Connection`, and its assertions of their differences became
//! equalities one residue row at a time. There is one engine now, and the
//! comparison that is left is between its two drivers: `Connection` driven
//! directly through the one-path shorthands (`sp_*` below: how `edge::Pop`,
//! `harness::pop` and the benchmark use it) and the same engine under
//! `MpConnection` as the SP arm builds it (`mp_*`: `MpConnection::client` /
//! `server` of `Scheme::Sp`, one path, multipath not offered — the policy
//! has nothing to act on, and must do nothing). Scenario by scenario, over
//! the same scripted link, everything the application, the peer and the
//! trace can observe is compared for *equality*: delivered stream bytes,
//! final ACK ranges, close codes, when each side reported closed and
//! drained, the capped state, every datagram byte for byte at its instant,
//! every traced event — through `edge::Pop` too (Retry admission, a shard
//! drain, a stateless reset). The absolute expectations behind the
//! equalities are pinned in [`PINNED`].

use xlink::clock::{Duration, Instant};
use xlink::core::QoeSignal;
use xlink::core::{MpConfig, MpConnection, Scheme, TransportTuning, WirelessTech};
use xlink::edge::{encode_request, EdgeRouter, Pop, PopConfig, ShardFault};
use xlink::harness::adversary::{AttackKind, QuicAttacker};
use xlink::lab::prop::*;
use xlink::netsim::Endpoint;
use xlink::obs::{Event, TraceLog, Tracer};
use xlink::quic::ackranges::AckRanges;
use xlink::quic::cid::ConnectionId;
use xlink::quic::connection::{BoundedState, Config, Connection, Lifecycle};
use xlink::quic::error::{ConnectionError, TransportError};
use xlink::quic::frame::{AckFrame, Frame, PathStatusKind};
use xlink::quic::stream::{Side, StreamMap};

/// One-way delay of the scripted link.
const DELAY: Duration = Duration::from_millis(10);
/// Body the server sends in the transfer scenarios.
const BODY: usize = 300_000;

/// Anything the scripted link can carry datagrams for.
trait Peer {
    fn recv(&mut self, now: Instant, datagram: &[u8]);
    fn send(&mut self, now: Instant) -> Option<Vec<u8>>;
    fn timer(&self) -> Option<Instant>;
    fn fire(&mut self, now: Instant);
}

/// What the comparison reads off either driver.
trait Engine: Peer {
    fn life(&self) -> &Lifecycle;
    fn streams(&mut self) -> &mut StreamMap;
    fn bounded(&self) -> BoundedState;
    /// Packet numbers received, ascending inclusive ranges, per space.
    fn ranges(&self) -> Vec<Vec<(u64, u64)>>;
    fn close(&mut self, error: TransportError);
    /// (packets sent, packets declared lost).
    fn counters(&self) -> (u64, u64);
    /// Attach `tracer` the way the harness's endpoints do.
    fn trace(&mut self, tracer: &Tracer);
}

impl Peer for Connection {
    fn recv(&mut self, now: Instant, datagram: &[u8]) {
        self.handle_datagram(now, datagram);
    }
    fn send(&mut self, now: Instant) -> Option<Vec<u8>> {
        self.poll_transmit(now)
    }
    fn timer(&self) -> Option<Instant> {
        self.poll_timeout()
    }
    fn fire(&mut self, now: Instant) {
        self.on_timeout(now);
    }
}

impl Engine for Connection {
    fn life(&self) -> &Lifecycle {
        self.lifecycle()
    }
    fn streams(&mut self) -> &mut StreamMap {
        self.streams_mut()
    }
    fn bounded(&self) -> BoundedState {
        self.bounded_state()
    }
    fn ranges(&self) -> Vec<Vec<(u64, u64)>> {
        self.recv_pn_ranges().to_vec()
    }
    fn close(&mut self, error: TransportError) {
        Connection::close(self, error, "done");
    }
    fn counters(&self) -> (u64, u64) {
        (self.stats().packets_sent, self.stats().packets_lost)
    }
    fn trace(&mut self, tracer: &Tracer) {
        self.set_tracer(tracer.scoped("quic"));
    }
}

impl Peer for MpConnection {
    fn recv(&mut self, now: Instant, datagram: &[u8]) {
        self.handle_datagram(now, 0, datagram);
    }
    fn send(&mut self, now: Instant) -> Option<Vec<u8>> {
        self.poll_transmit(now).map(|(path, datagram)| {
            assert_eq!(path, 0, "a one-path connection sends on its one path");
            datagram
        })
    }
    fn timer(&self) -> Option<Instant> {
        self.poll_timeout()
    }
    fn fire(&mut self, now: Instant) {
        self.on_timeout(now);
    }
}

impl Engine for MpConnection {
    fn life(&self) -> &Lifecycle {
        self.conn().lifecycle()
    }
    fn streams(&mut self) -> &mut StreamMap {
        self.conn_mut().streams_mut()
    }
    fn bounded(&self) -> BoundedState {
        self.conn().bounded_state()
    }
    fn ranges(&self) -> Vec<Vec<(u64, u64)>> {
        self.conn().recv_pn_ranges()
    }
    fn close(&mut self, error: TransportError) {
        self.conn_mut().close(error, "done");
    }
    fn counters(&self) -> (u64, u64) {
        (self.conn().stats().packets_sent, self.conn().stats().packets_lost)
    }
    fn trace(&mut self, tracer: &Tracer) {
        self.set_tracer(tracer);
    }
}

impl Peer for QuicAttacker {
    fn recv(&mut self, now: Instant, datagram: &[u8]) {
        self.on_datagram(now, 0, datagram);
    }
    fn send(&mut self, now: Instant) -> Option<Vec<u8>> {
        Endpoint::poll_transmit(self, now).map(|tx| tx.payload)
    }
    fn timer(&self) -> Option<Instant> {
        Endpoint::poll_timeout(self)
    }
    fn fire(&mut self, now: Instant) {
        Endpoint::on_timeout(self, now);
    }
}

fn sp_pair() -> (Connection, Connection) {
    (
        Connection::new(Config::client(1), Instant::ZERO),
        Connection::new(Config::server(2), Instant::ZERO),
    )
}

/// The SP arm on network path 0, the one the scripted link stands for.
const SP: Scheme = Scheme::Sp { path: 0 };

fn mp_pair() -> (MpConnection, MpConnection) {
    let tuning = TransportTuning::default();
    (
        MpConnection::client(SP, &tuning, 1, Instant::ZERO),
        MpConnection::server(SP, &tuning, 2, Instant::ZERO),
    )
}

/// The SP arm's configuration of `side`, for a scenario that changes it.
fn sp_arm(seed: u64, side: Side) -> MpConfig {
    MpConfig::for_scheme(SP, &TransportTuning::default(), seed, side)
}

/// Which datagrams the link loses: by direction (`up` = client → server),
/// position in that direction's sequence, and send time.
type Loss = fn(up: bool, index: u64, now: Instant) -> bool;

fn clean(_: bool, _: u64, _: Instant) -> bool {
    false
}

/// A point-to-point link with a fixed one-way delay and scripted loss, and
/// the event loop that drives two peers over it.
struct Link<'a, C: Peer, S: Peer> {
    now: Instant,
    client: &'a mut C,
    server: &'a mut S,
    loss: Loss,
    /// In flight, in send order: (arrival, towards the server?, datagram).
    wire: std::collections::VecDeque<(Instant, bool, Vec<u8>)>,
    sent: [u64; 2],
    /// Every datagram either peer sent, lost ones included, in send order.
    log: Vec<Datagram>,
}

/// One datagram as a peer handed it to the link.
#[derive(Debug, Clone, PartialEq)]
struct Datagram {
    at: Instant,
    /// Client → server.
    up: bool,
    bytes: Vec<u8>,
}

impl<'a, C: Peer, S: Peer> Link<'a, C, S> {
    fn new(client: &'a mut C, server: &'a mut S, loss: Loss) -> Self {
        let (wire, log) = Default::default();
        Link { now: Instant::ZERO, client, server, loss, wire, sent: [0; 2], log }
    }

    /// Run until `until`, calling `app` once per instant after deliveries
    /// and timers and before the peers are polled for output; it returns
    /// true to stop early.
    fn run(&mut self, until: Instant, mut app: impl FnMut(&mut C, &mut S, Instant) -> bool) {
        loop {
            while self.wire.front().is_some_and(|(at, ..)| *at <= self.now) {
                let (_, up, datagram) = self.wire.pop_front().unwrap();
                if up {
                    self.server.recv(self.now, &datagram);
                } else {
                    self.client.recv(self.now, &datagram);
                }
            }
            if self.client.timer().is_some_and(|t| t <= self.now) {
                self.client.fire(self.now);
            }
            if self.server.timer().is_some_and(|t| t <= self.now) {
                self.server.fire(self.now);
            }
            if app(self.client, self.server, self.now) {
                return;
            }
            for up in [true, false] {
                while let Some(datagram) =
                    if up { self.client.send(self.now) } else { self.server.send(self.now) }
                {
                    let index = self.sent[usize::from(up)];
                    self.sent[usize::from(up)] += 1;
                    self.log.push(Datagram { at: self.now, up, bytes: datagram.clone() });
                    if !(self.loss)(up, index, self.now) {
                        self.wire.push_back((self.now + DELAY, up, datagram));
                    }
                }
            }
            let next =
                [self.wire.front().map(|(at, ..)| *at), self.client.timer(), self.server.timer()]
                    .into_iter()
                    .flatten()
                    .min();
            match next {
                Some(t) if t <= until => self.now = t.max(self.now + Duration::from_micros(1)),
                _ => return,
            }
        }
    }
}

/// Everything observable about one run of a scenario under one driver.
#[derive(Debug)]
struct Outcome {
    /// Body bytes the client application read, and whether it saw the FIN.
    delivered: Vec<u8>,
    complete: bool,
    /// When the client had the whole body, and when the follow-up
    /// exchange was over.
    finished_at: Option<Instant>,
    followed_up_at: Option<Instant>,
    /// Per side (client, server): close error, wire code, when it first
    /// reported closed, when it reported drained.
    errors: [Option<ConnectionError>; 2],
    codes: [Option<(u64, bool)>; 2],
    closed_at: [Option<Instant>; 2],
    drained_at: [Option<Instant>; 2],
    /// Peak capped state per side.
    peak: [BoundedState; 2],
    /// Final received packet-number ranges per side, per space.
    ranges: [Vec<Vec<(u64, u64)>>; 2],
    /// (packets sent, packets lost) per side.
    counters: [(u64, u64); 2],
    /// Every datagram put on the link, in send order.
    wire: Vec<Datagram>,
    /// Every traced event of both sides, in emission order: (time, source,
    /// event).
    events: Vec<(Instant, String, Event)>,
}

fn body() -> Vec<u8> {
    (0..BODY as u32).map(|i| (i % 251) as u8).collect()
}

/// What the scenario has the client do at the end.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Then {
    /// Nothing: both sides sit there until the idle timeout.
    Idle,
    /// Close gracefully.
    Close,
}

/// Handshake; a request and a [`BODY`]-byte response; a second, small
/// request and response (so that the client's ACK-only packets get
/// acknowledged too); then `then` — over a link losing what `loss` says,
/// observed until `horizon`.
fn transfer<E: Engine>(pair: (E, E), loss: Loss, then: Then, horizon: Duration) -> Outcome {
    let (mut client, mut server) = pair;
    let mut out = Outcome {
        delivered: Vec::new(),
        complete: false,
        finished_at: None,
        followed_up_at: None,
        errors: [None, None],
        codes: [None, None],
        closed_at: [None, None],
        drained_at: [None, None],
        peak: [BoundedState::default(); 2],
        ranges: [Vec::new(), Vec::new()],
        counters: [(0, 0); 2],
        wire: Vec::new(),
        events: Vec::new(),
    };
    let log = TraceLog::recording();
    client.trace(&log.tracer("client"));
    server.trace(&log.tracer("server"));
    let (mut get, mut ping) = (None, None);
    let mut link = Link::new(&mut client, &mut server, loss);
    link.run(Instant::ZERO + horizon, |c, s, now| {
        if get.is_none() && c.life().is_established() {
            let id = c.streams().open(0);
            c.streams().write(id, b"GET /body", true);
            get = Some(id);
        }
        while let Some(id) = s.streams().next_request() {
            let response = match s.streams().consume(id, usize::MAX) {
                b"GET /body" => body(),
                b"PING" => b"PONG".to_vec(),
                _ => continue,
            };
            s.streams().write(id, &response, true);
        }
        if let Some(id) = get {
            out.delivered.extend(c.streams().consume(id, usize::MAX));
            if !out.complete && c.streams().is_complete(id) {
                (out.complete, out.finished_at) = (true, Some(now));
                let id = c.streams().open(0);
                c.streams().write(id, b"PING", true);
                ping = Some(id);
            }
        }
        if let Some(id) = ping.filter(|&id| c.streams().is_complete(id)) {
            if out.followed_up_at.is_none() && c.streams().consume(id, usize::MAX) == b"PONG" {
                out.followed_up_at = Some(now);
                if then == Then::Close {
                    c.close(TransportError::NoError);
                }
            }
        }
        for (i, life) in [c.life(), s.life()].into_iter().enumerate() {
            out.closed_at[i] = out.closed_at[i].or(life.is_closed().then_some(now));
            out.drained_at[i] = out.drained_at[i].or(life.is_drained().then_some(now));
        }
        out.peak = [out.peak[0].peak(c.bounded()), out.peak[1].peak(s.bounded())];
        false
    });
    out.wire = std::mem::take(&mut link.log);
    out.events = recorded(&log);
    out.errors = [client.life().close_error().cloned(), server.life().close_error().cloned()];
    out.codes = [client.life().close_code(), server.life().close_code()];
    out.ranges = [client.ranges(), server.ranges()];
    out.counters = [client.counters(), server.counters()];
    out
}

/// The events `log` recorded, in emission order, sources by name.
fn recorded(log: &TraceLog) -> Vec<(Instant, String, Event)> {
    log.events().into_iter().map(|e| (e.time, log.source_name(e.source), e.body)).collect()
}

/// What a run put on the wire and into the trace: (datagrams up, bytes up,
/// datagrams down, bytes down, events traced) — the absolute expectations
/// behind the driver-against-driver equalities.
type Shape = (usize, usize, usize, usize, usize);

fn shape(wire: &[Datagram], events: usize) -> Shape {
    let side = |up: bool| {
        let sizes = wire.iter().filter(|d| d.up == up).map(|d| d.bytes.len());
        (sizes.clone().count(), sizes.sum::<usize>())
    };
    (side(true).0, side(true).1, side(false).0, side(false).1, events)
}

/// The shape of a run against the recorded one; a mismatch prints the line
/// to paste.
fn assert_shape(what: &str, wire: &[Datagram], events: usize, recorded: Shape) {
    let got = shape(wire, events);
    if got != recorded {
        eprintln!("{what}: shape now {got:?}");
    }
    assert_eq!(got, recorded, "{what}: wire and trace shape moved");
}

/// The engine's absolute expectations per transfer scenario, as
/// [`summary`] renders them: the wire and trace shape; when the body was
/// complete and the follow-up answered; when client and server closed and
/// drained; their (sent, lost) packet counts; the final received
/// packet-number ranges per side and space; the peak capped state per side
/// as (ranges, PATH_RESPONSEs pending, stream segments, bytes buffered).
const PINNED: [(&str, &str); 8] = [
    ("clean", "wire (11, 426, 244, 308316, 531) done 120000/140000 closed 140000/150000 drained 342500/313464 sent/lost [(11, 0), (244, 0)] ranges [[[(0, 1)], [(1, 241)]], [[(0, 1)], [(0, 8)]]] peak [(1, 0, 0, 0), (1, 0, 0, 0)]"),
    ("lost hello", "wire (29, 1019, 248, 308542, 615) done 1484000/1504000 closed 1504000/1514000 drained 1706500/1652000 sent/lost [(29, 0), (248, 2)] ranges [[[(1, 3)], [(1, 243)]], [[(0, 2)], [(0, 25)]]] peak [(1, 0, 0, 0), (1, 0, 0, 0)]"),
    ("lost flight", "wire (30, 1105, 249, 308584, 619) done 1484000/1504000 closed 1504000/1514000 drained 1706500/1652000 sent/lost [(30, 0), (249, 3)] ranges [[[(2, 4)], [(1, 243)]], [[(0, 3)], [(0, 25)]]] peak [(1, 0, 0, 0), (1, 0, 0, 0)]"),
("1% loss", "wire (18, 698, 247, 312204, 568) done 260000/280000 closed 280000/290000 drained 482500/428780 sent/lost [(18, 0), (247, 3)] ranges [[[(0, 1)], [(1, 27), (29, 127), (129, 227), (229, 244)]], [[(0, 1)], [(0, 15)]]] peak [(4, 0, 16, 20192), (1, 0, 0, 0)]"),
    ("blackout", "wire (22, 813, 266, 334284, 622) done 565000/585000 closed 585000/595000 drained 787500/733000 sent/lost [(22, 0), (266, 21)] ranges [[[(0, 1)], [(1, 11), (33, 263)]], [[(0, 1)], [(0, 19)]]] peak [(2, 0, 0, 0), (1, 0, 0, 0)]"),
    ("idle", "wire (11, 426, 244, 308316, 535) done 120000/140000 closed 30140000/30150000 drained 30140000/30150000 sent/lost [(11, 0), (244, 0)] ranges [[[(0, 1)], [(1, 241)]], [[(0, 1)], [(1, 8)]]] peak [(1, 0, 0, 0), (1, 0, 0, 0)]"),
    ("keep-alives", "wire (25, 846, 258, 308722, 617) done 120000/140000 closed -/- drained -/- sent/lost [(25, 0), (258, 0)] ranges [[[(0, 1)], [(1, 255)]], [[(0, 1)], [(1, 22)]]] peak [(1, 0, 0, 0), (1, 0, 0, 0)]"),
    ("dead peer", "wire (5, 229, 52, 39525, 90) done -/- closed 30040000/30050000 drained 30040000/30050000 sent/lost [(5, 0), (52, 0)] ranges [[[(0, 1)], [(0, 11)]], [[(0, 1)], [(0, 2)]]] peak [(1, 0, 0, 0), (1, 0, 0, 0)]"),
];

fn us(t: Option<Instant>) -> String {
    t.map_or("-".into(), |t| t.as_micros().to_string())
}

fn summary(o: &Outcome) -> String {
    let peak = o.peak.map(|b| {
        (b.recv_ranges, b.pending_path_responses, b.stream_segments, b.buffered_recv_bytes)
    });
    format!(
        "wire {:?} done {}/{} closed {}/{} drained {}/{} sent/lost {:?} ranges {:?} peak {:?}",
        shape(&o.wire, o.events.len()),
        us(o.finished_at),
        us(o.followed_up_at),
        us(o.closed_at[0]),
        us(o.closed_at[1]),
        us(o.drained_at[0]),
        us(o.drained_at[1]),
        o.counters,
        o.ranges,
        peak,
    )
}

/// A run against its row of [`PINNED`]; a mismatch prints the row to paste.
fn assert_pinned(what: &str, o: &Outcome) {
    let (got, row) = (summary(o), PINNED.iter().find(|(name, _)| *name == what));
    if row.map(|(_, want)| *want) != Some(&got[..]) {
        eprintln!("    ({what:?}, {got:?}),");
    }
    assert_eq!(row.map(|(_, want)| *want), Some(&got[..]), "{what}: the pinned outcome moved");
}

/// The two drivers ran the scenario alike: the same bytes delivered, the
/// same instants, close codes, packet counts, received packet numbers and
/// peak state, byte for byte the same datagrams at the same instants, event
/// for event the same trace.
fn assert_same_run(what: &str, sp: &Outcome, mp: &Outcome) {
    assert_eq!(mp.delivered, sp.delivered, "{what}: same stream bytes");
    assert_eq!((mp.complete, mp.finished_at), (sp.complete, sp.finished_at), "{what}: the body");
    assert_eq!(mp.followed_up_at, sp.followed_up_at, "{what}: the follow-up exchange");
    assert_eq!(mp.counters, sp.counters, "{what}: packets sent and lost");
    assert_eq!(mp.ranges, sp.ranges, "{what}: packets received, per side and space");
    assert_eq!((&mp.codes, &mp.errors), (&sp.codes, &sp.errors), "{what}: how each side closed");
    assert_eq!((mp.closed_at, mp.drained_at), (sp.closed_at, sp.drained_at), "{what}: and when");
    assert_eq!(mp.peak, sp.peak, "{what}: same peak bounded state");
    assert!(sp.peak.iter().all(BoundedState::within_caps));
    for (i, (a, b)) in sp.wire.iter().zip(&mp.wire).enumerate() {
        assert_eq!(b, a, "{what}: datagram {i}");
    }
    assert_eq!(mp.wire.len(), sp.wire.len(), "{what}: datagrams sent");
    for (i, (a, b)) in sp.events.iter().zip(&mp.events).enumerate() {
        assert_eq!(b, a, "{what}: event {i}");
    }
    assert_eq!(mp.events.len(), sp.events.len(), "{what}: events traced");
}

/// The transfer went through: the whole body and the follow-up exchange.
fn assert_delivered(what: &str, sp: &Outcome) {
    assert!(sp.complete && sp.delivered == body(), "{what}: the body, whole");
    assert!(sp.followed_up_at.is_some(), "{what}: PING answered");
}

#[test]
fn clean_link_and_graceful_close() {
    let horizon = Duration::from_secs(5);
    let sp = transfer(sp_pair(), clean, Then::Close, horizon);
    let mp = transfer(mp_pair(), clean, Then::Close, horizon);
    assert_same_run("clean", &sp, &mp);
    assert_delivered("clean", &sp);
    assert_eq!(sp.counters[0].1 + sp.counters[1].1, 0, "none lost");
    assert_eq!(sp.ranges[0][0], [(0, 1)], "a hello and an ACK of ours, as Initials");
    assert_pinned("clean", &sp);
    assert_eq!(sp.codes, [Some((0, false)), Some((0, true))], "closed here, by the peer there");
    assert!(sp.drained_at[0] > sp.closed_at[0], "closing lasts 3×PTO, not zero");
}

/// The server's first datagram: its hello.
fn server_hello(up: bool, index: u64, _: Instant) -> bool {
    !up && index == 0
}

#[test]
fn lost_server_hello() {
    let horizon = Duration::from_secs(10);
    let sp = transfer(sp_pair(), server_hello, Then::Close, horizon);
    let mp = transfer(mp_pair(), server_hello, Then::Close, horizon);
    // The client's hello was acknowledged, so the keyless client has no
    // timer: it waits for the server, whose Initial space still holds the
    // unacknowledged hello and re-fires it on that space's PTO, 999 ms and
    // backoff after the first.
    assert!(sp.finished_at.unwrap() > Instant::from_millis(999), "waits for the initial PTO");
    assert_eq!(sp.counters, [(29, 0), (248, 2)], "(sent, lost): client, server");
    assert_same_run("lost hello", &sp, &mp);
    assert_delivered("lost hello", &sp);
    assert_pinned("lost hello", &sp);
}

/// The server's first flight: its hello, HANDSHAKE_DONE and the ACK of the
/// client's hello.
fn server_flight(up: bool, index: u64, _: Instant) -> bool {
    !up && index < 3
}

#[test]
fn lost_server_flight() {
    let horizon = Duration::from_secs(10);
    let sp = transfer(sp_pair(), server_flight, Then::Close, horizon);
    let mp = transfer(mp_pair(), server_flight, Then::Close, horizon);
    // The keyless client waits out its 999 ms initial PTO and sends its
    // hello again; the server's Initial space, which still holds its own
    // unacknowledged hello, re-fires that on a PTO of the same length, and
    // its 1-RTT space probes. The duplicate hello, which arrives in that
    // very instant, is ignored: a hello, the ACK owed, a PING.
    let at_1034: Vec<usize> = sp
        .wire
        .iter()
        .filter(|d| d.at == Instant::from_millis(1034))
        .map(|d| d.bytes.len())
        .collect();
    assert_eq!(at_1034, [86, 42, 27]);
    assert_same_run("lost flight", &sp, &mp);
    assert_delivered("lost flight", &sp);
    assert_pinned("lost flight", &sp);
}

/// Every 100th datagram towards the client, from the 30th on.
fn one_percent(up: bool, index: u64, _: Instant) -> bool {
    !up && index >= 30 && index % 100 == 30
}

#[test]
fn one_percent_loss() {
    let horizon = Duration::from_secs(10);
    let sp = transfer(sp_pair(), one_percent, Then::Close, horizon);
    let mp = transfer(mp_pair(), one_percent, Then::Close, horizon);
    assert_eq!(sp.counters[1].1, 3, "the server declared 3 packets lost");
    assert_eq!(sp.peak[0].stream_segments, 16, "packets piled up behind a hole");
    assert_same_run("1% loss", &sp, &mp);
    assert_delivered("1% loss", &sp);
    assert_pinned("1% loss", &sp);
}

/// Nothing gets through in either direction for 200 ms mid-transfer.
fn blackout(_: bool, _: u64, now: Instant) -> bool {
    (Instant::from_millis(50)..Instant::from_millis(250)).contains(&now)
}

#[test]
fn blackout_of_200_ms() {
    let horizon = Duration::from_secs(10);
    let sp = transfer(sp_pair(), blackout, Then::Close, horizon);
    let mp = transfer(mp_pair(), blackout, Then::Close, horizon);
    assert!(sp.counters[1].1 > 0, "the blackout cost the server packets");
    // The server's PTO is 75 ms at this point. It probes into the blackout
    // once; the backed-off second probe leaves at 275 ms and is what
    // restarts the transfer.
    assert!(sp.finished_at.unwrap() > Instant::from_millis(250), "the transfer spans the blackout");
    assert_same_run("blackout", &sp, &mp);
    assert_delivered("blackout", &sp);
    assert_pinned("blackout", &sp);
    // The blackout (two PTOs) and its end are reported.
    let suspected =
        |(_, _, e): &&(Instant, String, Event)| matches!(e, Event::PathSuspected { .. });
    assert_eq!(sp.events.iter().filter(suspected).count(), 1);
}

#[test]
fn idle_out() {
    // Nobody closes: both sides sit idle after the exchange. On a live
    // link both sides idle out 30 s after their last receipt, silently,
    // freed at once.
    let horizon = Duration::from_secs(60);
    let sp = transfer(sp_pair(), clean, Then::Idle, horizon);
    let mp = transfer(mp_pair(), clean, Then::Idle, horizon);
    assert_same_run("idle", &sp, &mp);
    assert_delivered("idle", &sp);
    // ACK-state pruning on the wire: by the time it acknowledges the PONG,
    // its last datagram, the client has forgotten packet number 0.
    assert_eq!(sp.ranges[0][1][0].0, 1, "the client's first 1-RTT packet number on record");
    assert_eq!(sp.errors, [Some(ConnectionError::TimedOut), Some(ConnectionError::TimedOut)]);
    assert_eq!(sp.codes, [None, None], "an idle timeout has no wire code");
    assert_eq!(sp.drained_at, sp.closed_at, "nothing to replay: drained at once");
    // The client idles out 30 s after its last receipt, the PONG.
    assert_eq!(sp.closed_at[0], sp.followed_up_at.map(|t| t + Duration::from_secs(30)));
    assert_pinned("idle", &sp);
}

#[test]
fn quiet_connection_with_keepalives() {
    // Both sides PING after every second of silence, so neither idles out:
    // at the horizon both are open and the same 2 × 14 keep-alives and
    // their ACKs have crossed.
    let every = Some(Duration::from_secs(1));
    let (sp_client, sp_server) = (Config::client(1), Config::server(2));
    let sp_pair = (
        Connection::new(Config { keepalive: every, ..sp_client }, Instant::ZERO),
        Connection::new(Config { keepalive: every, ..sp_server }, Instant::ZERO),
    );
    let (mut mp_client, mut mp_server) = (sp_arm(1, Side::Client), sp_arm(2, Side::Server));
    (mp_client.conn.keepalive, mp_server.conn.keepalive) = (every, every);
    let mp_pair =
        (MpConnection::new(mp_client, Instant::ZERO), MpConnection::new(mp_server, Instant::ZERO));
    let horizon = Duration::from_secs(15);
    let sp = transfer(sp_pair, clean, Then::Idle, horizon);
    let mp = transfer(mp_pair, clean, Then::Idle, horizon);
    assert_same_run("keep-alives", &sp, &mp);
    assert_delivered("keep-alives", &sp);
    assert_eq!(sp.errors, [None, None], "kept alive");
    assert_pinned("keep-alives", &sp);
}

/// The link dies for good at 50 ms, the server mid-transfer.
fn dead_from_50_ms(_: bool, _: u64, now: Instant) -> bool {
    now >= Instant::from_millis(50)
}

#[test]
fn idle_out_facing_a_dead_peer() {
    // The idle timer tracks receipts only, so a server PTO-probing a dead
    // client (every 2 s at most) idles out 30 s after the last thing it
    // heard.
    let horizon = Duration::from_secs(120);
    let sp = transfer(sp_pair(), dead_from_50_ms, Then::Idle, horizon);
    let mp = transfer(mp_pair(), dead_from_50_ms, Then::Idle, horizon);
    assert_same_run("dead peer", &sp, &mp);
    assert!(!sp.complete && !sp.delivered.is_empty());
    assert_eq!(sp.errors, [Some(ConnectionError::TimedOut), Some(ConnectionError::TimedOut)]);
    let last_heard = sp.closed_at[1].unwrap() - Duration::from_secs(30);
    assert!(last_heard < Instant::from_millis(50 + 10), "30 s after the last receipt");
    assert_pinned("dead peer", &sp);
}

/// What a hostile client's script does to a victim server under either
/// driver.
#[derive(Debug, PartialEq)]
struct Verdict {
    code: Option<(u64, bool)>,
    closed_at: Option<Instant>,
    drained_at: Option<Instant>,
    peak: BoundedState,
    /// The error code the attacker was told.
    saw: Option<u64>,
    /// What the victim sent, and what it traced.
    wire: Vec<Datagram>,
    events: Vec<(Instant, String, Event)>,
}

fn attacked<E: Engine>(mut victim: E, kind: AttackKind, mp: bool) -> Verdict {
    let mut attacker = QuicAttacker::new(kind, mp, 7);
    let log = TraceLog::recording();
    victim.trace(&log.tracer("victim"));
    let (mut closed_at, mut drained_at, mut peak) = (None, None, BoundedState::default());
    let mut link = Link::new(&mut attacker, &mut victim, clean);
    link.run(Instant::ZERO + Duration::from_secs(10), |_, v, now| {
        closed_at = closed_at.or(v.life().is_closed().then_some(now));
        drained_at = drained_at.or(v.life().is_drained().then_some(now));
        peak = peak.peak(v.bounded());
        false
    });
    let wire = link.log.iter().filter(|d| !d.up).cloned().collect();
    let (code, saw) = (victim.life().close_code(), attacker.observed_close);
    Verdict { code, closed_at, drained_at, peak, saw, wire, events: recorded(&log) }
}

#[test]
fn optimistic_ack() {
    let kind = AttackKind::OptimisticAck;
    let sp = attacked(sp_pair().1, kind, false);
    let mp = attacked(mp_pair().1, kind, true);
    let violation = TransportError::ProtocolViolation.code();
    assert_eq!(sp.code, Some((violation, false)), "the ACK police close, locally");
    assert_eq!(sp.saw, Some(violation), "…and say so to the peer");
    assert!(sp.drained_at > sp.closed_at, "closing lasts 3×PTO");
    // The victim's hello, HANDSHAKE_DONE, the hello's ACK and the
    // CONNECTION_CLOSE.
    assert_shape("optimistic ACK", &sp.wire, sp.events.len(), (0, 0, 4, 198, 7));
    assert_eq!(mp, sp, "same police, same verdict, same instants, same bytes, same trace");
}

#[test]
fn path_challenge_flood() {
    let kind = AttackKind::PathChallengeFlood;
    let sp = attacked(sp_pair().1, kind, false);
    let mp = attacked(mp_pair().1, kind, true);
    // The flood ends in the attacker's graceful close: both drain.
    assert_eq!(sp.code, Some((0, true)));
    assert!(sp.peak.within_caps());
    // All 104 challenges and the close land in one instant: the server
    // caps the responses at 8, drops the 96 oldest, and keeps the 8 until
    // the drain period ends.
    assert_eq!((sp.peak.pending_path_responses, sp.peak.path_responses_dropped), (8, 104 - 8));
    assert_shape("PATH_CHALLENGE flood", &sp.wire, sp.events.len(), (0, 0, 3, 155, 6));
    assert_eq!(mp, sp);
}

/// Three PATH_CHALLENGEs in one datagram to a freshly established server of
/// one driver, the answer lost, an ACK that proves it lost: everything the
/// server sent, in order, as (instant, bytes).
fn challenged<E: Engine>(mut server: E, mp: bool) -> Vec<(Instant, Vec<u8>)> {
    let mut now = Instant::ZERO;
    let mut peer = QuicAttacker::new(AttackKind::OptimisticAck, mp, 11);
    let hello = peer.send(now).expect("client hello");
    server.recv(now, &hello);
    while let Some(d) = server.send(now) {
        peer.recv(now, &d);
    }
    let mut sent = Vec::new();
    let mut deliver = |server: &mut E, now: Instant, frames: &[Frame]| {
        let mut payload = xlink::quic::varint::Writer::new();
        frames.iter().for_each(|f| f.encode(&mut payload));
        server.recv(now, &peer.seal_payload(false, payload.as_slice()).expect("keys"));
    };
    let mut drain = |server: &mut E, now: Instant| {
        while let Some(d) = server.send(now) {
            sent.push((now, d));
        }
    };
    let challenges = [1u64, 2, 3].map(|i| Frame::PathChallenge(i.to_be_bytes()));
    deliver(&mut server, now, &challenges);
    drain(&mut server, now);
    // The answer (1-RTT packet number 2, after HANDSHAKE_DONE and the ACK
    // owed) is lost; the PTO probe that follows it is acknowledged, and
    // everything before the answer.
    now = server.timer().expect("PTO armed");
    server.fire(now);
    drain(&mut server, now);
    now += Duration::from_millis(300);
    let mut ranges = AckRanges::new();
    for pn in [0, 1, 3] {
        ranges.insert(pn);
    }
    let ack = AckFrame::from_ranges(0, &ranges, Duration::ZERO).unwrap();
    deliver(&mut server, now, &[Frame::Ack(ack)]);
    drain(&mut server, now);
    assert!(!server.life().is_closed(), "{:?}", server.life().close_error());
    sent
}

#[test]
fn path_challenges_are_answered_and_the_answer_retransmitted() {
    let sp = challenged(sp_pair().1, false);
    let mp = challenged(mp_pair().1, true);
    // The ACK owed and the three responses in a packet of their own; at the
    // PTO a PING (and the hello again, which this peer never acknowledged);
    // the responses again once the ACK of the PING proves them lost.
    let shape: Vec<_> = sp.iter().map(|(t, d)| (t.as_micros() / 1000, d.len())).collect();
    assert_eq!(shape, [(0, 31), (0, 53), (1024, 86), (1024, 27), (1324, 53)]);
    assert_eq!(mp, sp, "byte for byte");
}

/// One authentic 1-RTT datagram of `frames` to a freshly established server
/// under one driver: (what the server sent in answer, how it closed).
fn answered<E: Engine>(mut server: E, mp: bool, frames: &[Frame]) -> (Vec<Vec<u8>>, Option<u64>) {
    let now = Instant::ZERO;
    let mut peer = QuicAttacker::new(AttackKind::OptimisticAck, mp, 11);
    let hello = peer.send(now).expect("client hello");
    server.recv(now, &hello);
    while let Some(d) = server.send(now) {
        peer.recv(now, &d);
    }
    let mut payload = xlink::quic::varint::Writer::new();
    frames.iter().for_each(|f| f.encode(&mut payload));
    server.recv(now, &peer.seal_payload(false, payload.as_slice()).expect("keys"));
    let sent = std::iter::from_fn(|| server.send(now)).collect();
    (sent, server.life().close_code().map(|(code, _)| code))
}

#[test]
fn multipath_frames_without_negotiation_close_with_protocol_violation() {
    let qoe = QoeSignal { cached_bytes: 1, cached_frames: 2, bps: 3, fps: 4 };
    let mut ranges = AckRanges::new();
    ranges.insert(0);
    let frames = [
        Frame::AckMp(AckFrame::from_ranges(0, &ranges, Duration::ZERO).unwrap()),
        Frame::PathStatus { path_id: 0, seq: 1, status: PathStatusKind::Standby },
        Frame::QoeControlSignals(qoe),
    ];
    for frame in frames {
        let (sp_sent, sp_code) = answered(sp_pair().1, false, std::slice::from_ref(&frame));
        // The attacker offers multipath here; the server under test does not.
        let (mp_sent, mp_code) = answered(mp_pair().1, true, std::slice::from_ref(&frame));
        assert_eq!(sp_code, Some(TransportError::ProtocolViolation.code()), "{frame:?}");
        assert_eq!(sp_sent.len(), 1, "{frame:?}: the CONNECTION_CLOSE and nothing else");
        assert_eq!((mp_sent, mp_code), (sp_sent, sp_code), "{frame:?}");
    }
}

impl Peer for Pop {
    fn recv(&mut self, now: Instant, datagram: &[u8]) {
        self.on_datagram(now, 0, datagram);
    }
    fn send(&mut self, now: Instant) -> Option<Vec<u8>> {
        Endpoint::poll_transmit(self, now).map(|tx| tx.payload)
    }
    fn timer(&self) -> Option<Instant> {
        Endpoint::poll_timeout(self)
    }
    fn fire(&mut self, now: Instant) {
        Endpoint::on_timeout(self, now);
    }
}

/// What a client of the edge tier needs beyond [`Engine`]: Retry, CID
/// migration and the connection-level stateless reset.
trait EdgeClient: Engine {
    /// A client as `harness::pop` configures it: a 2 s idle timeout and a
    /// keep-alive PING at an eighth of it.
    fn edge_client(seed: u64) -> Self;
    fn retry_seen(&self) -> bool;
    /// (the CID the PoP routes to us by, the CID we address the PoP by).
    fn cids(&self) -> (ConnectionId, ConnectionId);
}

const EDGE_IDLE: Duration = Duration::from_secs(2);

impl EdgeClient for Connection {
    fn edge_client(seed: u64) -> Self {
        let mut cfg = Config::client(seed);
        cfg.params.max_idle_timeout = EDGE_IDLE;
        cfg.keepalive = Some(EDGE_IDLE / 8);
        Connection::new(cfg, Instant::ZERO)
    }
    fn retry_seen(&self) -> bool {
        Connection::retry_seen(self)
    }
    fn cids(&self) -> (ConnectionId, ConnectionId) {
        (self.local_cid(), self.remote_cid())
    }
}

impl EdgeClient for MpConnection {
    fn edge_client(seed: u64) -> Self {
        let mut cfg = sp_arm(seed, Side::Client);
        cfg.conn.params.max_idle_timeout = EDGE_IDLE;
        cfg.conn.keepalive = Some(EDGE_IDLE / 8);
        MpConnection::new(cfg, Instant::ZERO)
    }
    fn retry_seen(&self) -> bool {
        self.conn().retry_seen()
    }
    fn cids(&self) -> (ConnectionId, ConnectionId) {
        (self.conn().local_cid(), self.conn().remote_cid())
    }
}

/// Everything observable about one client's life behind the PoP.
#[derive(Debug, PartialEq)]
struct EdgeOutcome {
    retry_seen: bool,
    established_at: Option<Instant>,
    /// The PoP's drain steered the client onto a CID of the other shard.
    migrated_at: Option<Instant>,
    /// All 200 KB read, every byte the pattern's.
    completed_at: Option<Instant>,
    closed_at: Option<Instant>,
    error: Option<ConnectionError>,
    counters: (u64, u64),
    wire: Vec<Datagram>,
    events: Vec<(Instant, String, Event)>,
}

/// One client through `edge::Pop` (two shards, Retry admission): admitted
/// by echoing the Retry token; 200 KB requested; at 60 ms the PoP's script
/// drains its shard (NEW_CONNECTION_ID + Retire Prior To) and it follows;
/// once it has the body it goes quiet, only keep-alives flowing; 300 ms
/// later (at 440 ms) the script crash-restarts its new shard, and the next
/// keep-alive is answered with a stateless reset.
fn through_the_pop<C: EdgeClient>() -> EdgeOutcome {
    const BYTES: u64 = 200_000;
    let mut client = C::edge_client(0x51);
    let first = EdgeRouter::new(&[1, 2]).place(&client.cids().0).expect("a shard");
    let (second, ms) = (3 - first, Duration::from_millis);
    let faults = vec![
        (ms(60), ShardFault::Drain(first)),
        (ms(440), ShardFault::Crash(second)),
        (ms(440), ShardFault::Restart(second)),
    ];
    let mut pop = Pop::new(PopConfig { shards: vec![1, 2], faults, ..PopConfig::default() });
    let log = TraceLog::recording();
    client.trace(&log.tracer("client"));
    pop.set_tracer(log.tracer("pop"));
    let mut out = EdgeOutcome {
        retry_seen: false,
        established_at: None,
        migrated_at: None,
        completed_at: None,
        closed_at: None,
        error: None,
        counters: (0, 0),
        wire: Vec::new(),
        events: Vec::new(),
    };
    let (mut stream, mut got) = (None, 0u64);
    let mut first_route = None;
    let mut link = Link::new(&mut client, &mut pop, clean);
    link.run(Instant::ZERO + Duration::from_secs(5), |c, _, now| {
        if stream.is_none() && c.life().is_established() {
            out.established_at = Some(now);
            first_route = Some(c.cids().1);
            let id = c.streams().open(0);
            c.streams().write(id, &encode_request(0, BYTES), true);
            stream = Some(id);
        }
        if let Some(id) = stream {
            for &b in c.streams().consume(id, usize::MAX) {
                assert_eq!(b, (got % 251) as u8, "byte {got} of the pattern");
                got += 1;
            }
            if out.completed_at.is_none() && got == BYTES && c.streams().is_complete(id) {
                out.completed_at = Some(now);
            }
        }
        if out.migrated_at.is_none() && first_route.is_some_and(|cid| cid != c.cids().1) {
            out.migrated_at = Some(now);
        }
        out.closed_at = out.closed_at.or(c.life().is_closed().then_some(now));
        false
    });
    out.wire = std::mem::take(&mut link.log);
    out.events = recorded(&log);
    out.retry_seen = client.retry_seen();
    out.error = client.life().close_error().cloned();
    out.counters = client.counters();
    out
}

#[test]
fn retry_drain_and_stateless_reset_through_the_pop() {
    let sp = through_the_pop::<Connection>();
    let at = |ms| Some(Instant::from_millis(ms));
    // One round trip for the Retry, one for the handshake.
    assert!(sp.retry_seen);
    assert_eq!(sp.established_at, at(40));
    // The NEW_CONNECTION_ID rides the next data packet, which the window
    // allows at 70 ms, and is obeyed on arrival.
    assert_eq!(sp.migrated_at, at(80));
    assert!(sp.events.iter().any(|(t, source, e)| {
        (*t, &source[..]) == (Instant::from_millis(80), "client.quic")
            && matches!(e, Event::DcidSwitched { path: 0, seq: 1 })
    }));
    assert_eq!(sp.completed_at, at(140));
    // The PoP's script drains the client's shard at 60 ms and crashes the
    // one it moved to at 440 ms: one connection each time.
    let faults: Vec<_> = (sp.events.iter())
        .filter_map(|(t, _, e)| match e {
            Event::ShardDrain { conns, .. } => Some((Some(*t), "drain", *conns)),
            Event::ShardCrash { conns, .. } => Some((Some(*t), "crash", *conns)),
            _ => None,
        })
        .collect();
    assert_eq!(faults, [(at(60), "drain", 1), (at(440), "crash", 1)]);
    // Row 14: keep-alives after every 250 ms of silence; the one at 390 ms
    // is answered, the shard crashes at 440 ms, the one at 660 ms draws the
    // stateless reset. Row 13: that kills the connection the instant it
    // arrives, not the 2 s idle timeout.
    assert_eq!(sp.error, Some(ConnectionError::Reset));
    assert_eq!(sp.closed_at, at(680));
    // The one packet lost is the first hello, which the Retry replaced.
    assert_eq!(sp.counters, (14, 1));
    assert_eq!(shape(&sp.wire, sp.events.len()), (14, 710, 168, 205818, 51));
    // The capability whose absence was "why the PoP cannot serve an XLINK
    // session": a client under the XLINK policy is admitted through Retry,
    // follows the drain and dies of the reset, datagram for datagram alike.
    assert_eq!(through_the_pop::<MpConnection>(), sp);
}

#[test]
fn retire_connection_id_of_an_unissued_or_in_use_sequence_number_closes() {
    // §19.16. Sequence number 0 is the CID the peer's packets are routed by;
    // 7 was never issued.
    for seq in [0, 7] {
        let frame = [Frame::RetireConnectionId { seq }];
        let (sp_sent, sp_code) = answered(sp_pair().1, false, &frame);
        let (mp_sent, mp_code) = answered(mp_pair().1, true, &frame);
        assert_eq!(sp_code, Some(TransportError::ProtocolViolation.code()), "seq {seq}");
        assert_eq!((mp_sent, mp_code), (sp_sent, sp_code), "seq {seq}");
    }
}

#[test]
fn an_address_unvalidated_server_never_sends_more_than_three_times_what_it_received() {
    // §8.1 on a two-path server under the XLINK policy (the one-path
    // connection's property is in tests/invariants.rs): however the client's
    // first flight is sliced — the prefix fragments are garbage that still
    // counts as received — and however often transmit is polled, the server
    // stays within 3×; validation lifts the gate and the handshake completes.
    let case = (1u64..10_000, 1usize..5, 0usize..8);
    check("MpConnection amplification budget", case, |&(seed, slices, extra_polls)| {
        let now = Instant::ZERO;
        let mut c =
            MpConnection::new(MpConfig::xlink_client(seed, vec![WirelessTech::Wifi; 2]), now);
        let mut s = MpConnection::new(MpConfig::xlink_server(seed ^ 0x5e7, 2), now);
        s.conn_mut().set_address_unvalidated();
        let (path, hello) = c.poll_transmit(now).expect("client first flight");
        let cut = hello.len() / slices;
        let (mut received, mut sent) = (0, 0);
        for i in 0..slices - 1 {
            s.handle_datagram(now, path, &hello[i * cut..(i + 1) * cut]);
            received += cut;
        }
        s.handle_datagram(now, path, &hello);
        received += hello.len();
        for _ in 0..=extra_polls {
            while let Some((_, d)) = s.poll_transmit(now) {
                sent += d.len();
            }
            prop_assert!(sent <= 3 * received, "sent {sent} on {received} received");
        }
        s.conn_mut().mark_address_validated();
        for _ in 0..200 {
            while let Some((path, d)) = s.poll_transmit(now) {
                c.handle_datagram(now, path, &d);
            }
            while let Some((path, d)) = c.poll_transmit(now) {
                s.handle_datagram(now, path, &d);
            }
        }
        prop_assert!(s.is_established() && s.conn().multipath_negotiated(), "handshake dead");
        Ok(())
    });
}

/// One fuzz case: datagrams in arrival order, each Initial-or-1-RTT and a
/// payload of chunks, a chunk a small first byte (frame types are small)
/// and arbitrary bytes after it.
type FuzzCase = Vec<(bool, Vec<(u8, Vec<u8>)>)>;

/// Payload bytes the frames of one datagram own on the heap.
fn owned_bytes(frames: &[Frame]) -> usize {
    let owned = |f: &Frame| match f {
        Frame::Stream { data, .. } | Frame::Crypto { data, .. } => data.len(),
        Frame::ConnectionClose { reason, .. } => reason.len(),
        Frame::Ack(a) | Frame::AckMp(a) => a.ranges.len(),
        _ => 0,
    };
    frames.iter().map(owned).sum()
}

/// Feed `case`, every datagram authentic, to a freshly established server
/// under one driver: whatever the payloads decode to, nothing panics and the
/// caps hold, through the receive path, the transmit path and the timers.
fn fuzz_receive_path<E: Engine>(server: E, mp: bool, case: &FuzzCase) -> Result<(), String> {
    let (mut server, now) = (server, Instant::ZERO);
    let mut fuzzer = QuicAttacker::new(AttackKind::OptimisticAck, mp, 11);
    let hello = fuzzer.send(now).expect("client hello");
    server.recv(now, &hello);
    while let Some(d) = server.send(now) {
        fuzzer.recv(now, &d);
    }
    prop_assert!(server.life().is_established());
    for (initial, chunks) in case {
        let payload: Vec<u8> = chunks
            .iter()
            .flat_map(|(ty, rest)| std::iter::once(*ty).chain(rest.iter().copied()))
            .collect();
        let datagram = fuzzer.seal_payload(*initial, &payload).expect("keys after the handshake");
        if let Ok(frames) = Frame::decode_all(&payload) {
            prop_assert!(owned_bytes(&frames) <= datagram.len(), "{frames:?} from {payload:?}");
        }
        server.recv(now, &datagram);
        prop_assert!(server.bounded().within_caps(), "after receiving {payload:?}");
        while server.send(now).is_some() {}
        prop_assert!(server.bounded().within_caps(), "after answering {payload:?}");
    }
    for _ in 0..4 {
        let Some(t) = server.timer() else { break };
        server.fire(t);
        while server.send(t).is_some() {}
        prop_assert!(server.bounded().within_caps());
    }
    Ok(())
}

#[test]
fn decoder_totality_through_open_datagram_into_both_engines() {
    let chunk = (0u8..=0x20, bytes(0..48));
    let datagram = (any_bool(), vec_of(chunk, 0..6));
    check("decoder totality", vec_of(datagram, 1..8), |case: &FuzzCase| {
        fuzz_receive_path(sp_pair().1, false, case)?;
        fuzz_receive_path(mp_pair().1, true, case)
    });
}
