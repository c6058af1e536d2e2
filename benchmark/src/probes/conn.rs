//! Engine-only transfers: a `harness::Conn` client/server pair shuttled
//! directly through a benchmark-side delay queue — no netsim, no links, no
//! loss, no bandwidth limit — so the cost is the connection engines alone.

use super::{counted, Body, Probe, Sample};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant as Wall;
use xlink_clock::{Duration, Instant};
use xlink_harness::{Conn, Scheme, TransportTuning};

/// Bytes one probe iteration moves from server to client.
const TOTAL_BYTES: usize = 1 << 20;
/// One-way delay of each path.
const PATH_DELAY: [Duration; 2] = [Duration::from_millis(5), Duration::from_millis(12)];

pub fn probes() -> Vec<Probe> {
    vec![
        counted("conn.sp.pkt_ns", "conn.sp.pkt_allocs", || {
            transfers(Scheme::Sp { path: 0 }, SMALL_REQUEST)
        }),
        counted("conn.vmp.pkt_ns", "conn.vmp.pkt_allocs", || {
            transfers(Scheme::VanillaMp, SMALL_REQUEST)
        }),
        counted("conn.xlink.pkt_ns", "conn.xlink.pkt_allocs", || {
            transfers(Scheme::Xlink, SMALL_REQUEST)
        }),
    ]
}

/// With a pure delay queue a sender's in-flight does not depend on the
/// delay (it is RTT-clocked either way), only on how much it has to send:
/// small sequential requests keep in-flight low, one large request lets it
/// grow to the whole object.
const SMALL_REQUEST: usize = 64 << 10;

/// `conn.xlink.pkt` again, but all of [`TOTAL_BYTES`] in a single request.
pub const XLINK_HIGH_INFLIGHT: Probe = Probe {
    ns: "conn.xlink.high_inflight_ns",
    allocs: None,
    alloc_bytes: None,
    build: || transfers(Scheme::Xlink, TOTAL_BYTES),
};

/// A datagram in the delay queue, ordered by arrival time then sequence.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct InFlight {
    at: Instant,
    seq: u64,
    to_server: bool,
    path: usize,
    payload: Vec<u8>,
}

struct Pair {
    client: Conn,
    server: Conn,
    queue: BinaryHeap<Reverse<InFlight>>,
    now: Instant,
    seq: u64,
    packets: u64,
}

impl Pair {
    fn new(scheme: Scheme, seed: u64) -> Self {
        let tuning = TransportTuning::default();
        Pair {
            client: Conn::client(scheme, &tuning, seed, Instant::ZERO),
            server: Conn::server(scheme, &tuning, seed ^ 0xbeef, Instant::ZERO),
            queue: BinaryHeap::new(),
            now: Instant::ZERO,
            seq: 0,
            packets: 0,
        }
    }

    /// One scheduling round at `now`: deliver what has arrived, let both
    /// ends transmit. Returns whether anything happened.
    fn round(&mut self) -> bool {
        let mut active = false;
        while self.queue.peek().is_some_and(|Reverse(d)| d.at <= self.now) {
            let Reverse(d) = self.queue.pop().expect("peeked");
            let end = if d.to_server { &mut self.server } else { &mut self.client };
            end.handle_datagram(self.now, d.path, &d.payload);
            active = true;
        }
        for to_server in [true, false] {
            let end = if to_server { &mut self.client } else { &mut self.server };
            while let Some((path, payload)) = end.poll_transmit(self.now) {
                let at = self.now + PATH_DELAY[path];
                self.queue.push(Reverse(InFlight { at, seq: self.seq, to_server, path, payload }));
                self.seq += 1;
                self.packets += 1;
                active = true;
            }
        }
        active
    }

    /// Jump to the next arrival or timer and fire what is due.
    fn advance(&mut self) {
        let arrival = self.queue.peek().map(|Reverse(d)| d.at);
        let timers = [self.client.poll_timeout(), self.server.poll_timeout()];
        let next = timers.into_iter().flatten().chain(arrival).min().expect("transfer stalled");
        self.now = next.max(self.now + Duration::from_micros(1));
        for end in [&mut self.client, &mut self.server] {
            if end.poll_timeout().is_some_and(|t| t <= self.now) {
                end.on_timeout(self.now);
            }
        }
    }

    /// Run rounds until `done` holds.
    fn run_until(&mut self, mut done: impl FnMut(&mut Pair) -> bool) {
        for _ in 0..10_000_000u64 {
            if done(self) {
                return;
            }
            if !self.round() {
                self.advance();
            }
        }
        panic!("engine transfer did not finish");
    }

    /// The client asks with a one-byte request; the server answers with
    /// `bytes` of body and FIN; returns when the client has read it all.
    fn request(&mut self, bytes: usize, body: &[u8]) {
        let id = self.client.open_stream(0);
        self.client.stream_send(id, b"?", true);
        let (mut answered, mut received) = (false, 0usize);
        self.run_until(|p| {
            if !answered && !p.server.stream_recv(id, usize::MAX).is_empty() {
                p.server.stream_send(id, &body[..bytes], true);
                answered = true;
            }
            received += p.client.stream_recv(id, usize::MAX).len();
            received >= bytes
        });
    }
}

/// Per iteration: a fresh pair, handshake, then [`TOTAL_BYTES`] fetched in
/// sequential requests of `request_bytes`. Operations are datagrams sent.
fn transfers(scheme: Scheme, request_bytes: usize) -> Body {
    let body = vec![0x6b_u8; request_bytes];
    let mut seed = 0u64;
    Box::new(move |iters| {
        let started = Wall::now();
        let mut packets = 0u64;
        for _ in 0..iters {
            seed += 1;
            let mut pair = Pair::new(scheme, seed);
            pair.run_until(|p| p.client.is_established() && p.server.is_established());
            for _ in 0..TOTAL_BYTES / request_bytes {
                pair.request(request_bytes, &body);
            }
            packets += pair.packets;
        }
        Sample { elapsed: started.elapsed(), ops: packets }
    })
}
