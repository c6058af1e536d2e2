//! Model-based property test of re-injection: the scan the index replaced,
//! kept as the reference, against the index — after every step of random
//! programs of writes, sends, copies, acknowledgements, losses, path
//! failures, resets and ten-second waits, for every target path, under each
//! [`ReinjectMode`].

use super::*;
use xlink_lab::prop::*;
use xlink_quic::connection::{ReinjectKey, SentFrame};
use xlink_quic::frame::{Frame, PathStatusKind};
use xlink_quic::stream::SendState;

/// What re-injection consumes, one row per frame in flight: `(rank, stream,
/// range, fin, holder, holds the stream's head)`.
type Row = (Rank, u64, SendRange, bool, usize, bool);

/// The reference: walk every unacked packet of every other path, keep the
/// stream frames still needed, not copied to `target` in the last ten
/// seconds (`copied`: every copy the program made, and when) and not
/// overlapping anything in flight on `target`.
fn scan(
    s: &MpConnection,
    copied: &[(ReinjectKey, Instant)],
    now: Instant,
    target: usize,
) -> Vec<Row> {
    let (paths, streams) = (s.conn.paths(), s.conn.streams());
    let rank = s.reinject_mode.rank();
    let mut out = Vec::new();
    for p in paths {
        if p.id == target || p.state == PathState::Abandoned {
            continue;
        }
        for pkt in p.space.recovery.unacked() {
            for info in &pkt.content {
                let SentFrame::Stream { id, range, fin, .. } = info else {
                    continue;
                };
                if range.is_empty() && !fin {
                    continue;
                }
                let Some(stream) = streams.get(*id) else {
                    continue;
                };
                let send = &stream.send;
                let unacked: Vec<SendRange> =
                    std::iter::successors(send.in_flight_from(0), |r| send.in_flight_from(r.end))
                        .collect();
                let still_needed =
                    unacked.iter().any(|u| u.start < range.end && range.start < u.end)
                        || (*fin && send.fin_pending());
                if !still_needed && !range.is_empty() {
                    continue;
                }
                let key = ReinjectKey { stream_id: *id, start: range.start, path: target };
                let lifetime = Duration::from_secs(10);
                if copied
                    .iter()
                    .any(|&(k, at)| k == key && now.saturating_duration_since(at) < lifetime)
                {
                    continue;
                }
                let dup_on_target = paths[target].space.recovery.unacked().any(|tp| {
                    tp.content.iter().any(|ti| {
                        matches!(ti, SentFrame::Stream { id: tid, range: tr, .. }
                            if tid == id && tr.start < range.end && range.start < tr.end)
                    })
                });
                if dup_on_target {
                    continue;
                }
                let head =
                    unacked.first().is_some_and(|u| range.start <= u.start && u.start < range.end);
                out.push((
                    rank(stream.priority, send.priority_of(range.start)),
                    *id,
                    *range,
                    *fin,
                    p.id,
                    head,
                ));
            }
        }
    }
    out
}

/// The reference's queue for `target` under the connection's mode, in the
/// order `reinject` takes it, and whether it goes ahead of the unsent data.
fn reference(
    s: &MpConnection,
    copied: &[(ReinjectKey, Instant)],
    now: Instant,
    target: usize,
) -> (Vec<Row>, bool) {
    let pending = s.best_pending_rank();
    let mut queue = scan(s, copied, now, target);
    let preempts = match s.reinject_mode {
        ReinjectMode::Appending => {
            if pending.is_some() {
                queue.clear();
            }
            false
        }
        ReinjectMode::StreamPriority | ReinjectMode::FramePriority => {
            queue.retain(|c| pending.is_none_or(|p| c.0 <= p));
            let best = queue.iter().map(|c| c.0).min();
            best.is_some_and(|best| pending.is_none_or(|p| best < p))
        }
        ReinjectMode::OpportunisticHead => {
            let srtt = |p: usize| s.conn.paths()[p].rtt.smoothed();
            queue.retain(|c| c.5 && srtt(c.4) >= srtt(target) * 2);
            !queue.is_empty()
        }
    };
    queue.sort_by_key(|c| (c.0, c.1, c.2.start));
    (queue, preempts)
}

/// A client, the server under test, the datagrams between them and every
/// copy the server made.
struct Bench {
    now: Instant,
    client: MpConnection,
    server: MpConnection,
    /// `(to the server, path, datagram)`, in sending order.
    wire: Vec<(bool, usize, Vec<u8>)>,
    copied: Vec<(ReinjectKey, Instant)>,
    streams: Vec<u64>,
}

impl Bench {
    fn new(paths: usize, mode: ReinjectMode) -> Bench {
        let techs = [WirelessTech::Wifi, WirelessTech::Lte, WirelessTech::Lte];
        let mut ccfg = MpConfig::xlink_client(1, techs[..paths].to_vec());
        let mut scfg = MpConfig::xlink_server(2, paths);
        for cfg in [&mut ccfg, &mut scfg] {
            (cfg.reinject_mode, cfg.qoe_control) = (mode, QoeControl::AlwaysOn);
        }
        let now = Instant::ZERO;
        let (client, server) = (MpConnection::new(ccfg, now), MpConnection::new(scfg, now));
        let mut bench = Bench {
            now,
            client,
            server,
            wire: Vec::new(),
            copied: Vec::new(),
            streams: Vec::new(),
        };
        for _ in 0..40 {
            bench.poll(true);
            bench.poll(false);
            bench.deliver_all();
            bench.now += Duration::from_millis(1);
        }
        let validated =
            |c: &MpConnection| c.conn.paths().iter().all(|p| p.state == PathState::Active);
        assert!(validated(&bench.client) && validated(&bench.server), "every path in service");
        // Path `p` starts out with a round trip of 1 + 20·p ms (the MPTCP
        // arm copies only off a path twice as slow as the target).
        let id = bench.server.open_stream(1);
        bench.streams.push(id);
        for path in (0..paths).cycle().take(4 * paths) {
            bench.server.stream_send(id, &[0; 100], false);
            let tx = bench.server.conn.send_new_data(bench.now, path).expect("window open");
            bench.sent(false, false, tx.0, tx.1);
            bench.now += Duration::from_millis(1 + 20 * path as u64);
            bench.deliver_all();
            bench.poll(true);
            bench.deliver_all();
        }
        bench
    }

    /// Let one end send all it wants to, onto the wire.
    fn poll(&mut self, client: bool) {
        for _ in 0..8 {
            let end = if client { &mut self.client } else { &mut self.server };
            let before = end.conn.stats().reinjections;
            let Some((path, datagram)) = end.poll_transmit(self.now) else { break };
            let copies = end.conn.stats().reinjections != before;
            self.sent(client, copies, path, datagram);
        }
    }

    /// A datagram left an end: on the wire, and if it is one of `copies` the
    /// server made, those in the model's ledger.
    fn sent(&mut self, client: bool, copies: bool, path: usize, datagram: Vec<u8>) {
        if copies && !client {
            for copy in &self.server.copies {
                let key = ReinjectKey { stream_id: copy.stream_id, start: copy.range.start, path };
                self.copied.push((key, self.now));
            }
        }
        self.wire.push((client, path, datagram));
    }

    fn deliver(&mut self, nth: usize) {
        let (to_server, path, datagram) = self.wire.remove(nth);
        let end = if to_server { &mut self.server } else { &mut self.client };
        end.handle_datagram(self.now, path, &datagram);
        // The client reads, so that flow control does not end the program.
        for id in self.client.conn.streams().readable_ids() {
            self.client.stream_recv(id, usize::MAX);
        }
    }

    fn deliver_all(&mut self) {
        while !self.wire.is_empty() {
            self.deliver(0);
        }
    }

    /// One step of a program.
    fn step(&mut self, (kind, a, b): (u8, u64, u64)) {
        let paths = self.server.conn.paths().len();
        let path = a as usize % paths;
        let in_service = self.server.conn.paths()[path].usable_for_data();
        let writable = |s: &MpConnection, id: u64| {
            let send = &s.conn.streams().get(id).expect("opened").send;
            send.state() == SendState::Ready && !send.is_finished()
        };
        match kind {
            // Write, on a new stream now and then, with and without a frame
            // priority.
            0 | 1 => {
                if self.streams.len() < 3 && (self.streams.is_empty() || a % 5 == 0) {
                    self.streams.push(self.server.open_stream((b % 3) as u8));
                }
                let id = self.streams[a as usize % self.streams.len()];
                if writable(&self.server, id) {
                    let data = vec![kind; 1 + (b * 97 % 12_000) as usize];
                    match a % 3 {
                        0 => self.server.stream_send_with_frame_priority(
                            id,
                            &data,
                            (b % 2) as u8 * 64,
                            false,
                        ),
                        _ => self.server.stream_send(id, &data, false),
                    }
                }
            }
            // New data on a path in service, whichever the scheduler would
            // pick.
            2..=6 if in_service => {
                if let Some((path, datagram)) = self.server.conn.send_new_data(self.now, path) {
                    self.sent(false, false, path, datagram);
                }
            }
            // Re-inject onto one what the mode admits.
            7..=11 if in_service => {
                let (admit, _) = self.server.reinject_scan(self.now, path);
                if let Some((path, datagram)) = self.server.reinject(self.now, path, admit) {
                    self.sent(false, true, path, datagram);
                }
            }
            // The policy itself.
            12 => self.poll(false),
            // The client acknowledges (and says what else it has to say).
            13 | 14 => self.poll(true),
            // Arrivals, in any order, and losses.
            15..=18 if !self.wire.is_empty() => self.deliver(a as usize % self.wire.len()),
            19 => self.deliver_all(),
            20 | 21 if !self.wire.is_empty() => {
                drop(self.wire.remove(a as usize % self.wire.len()))
            }
            // A path goes dark for what is on the wire.
            22 => self.wire.retain(|&(_, on, _)| on != path),
            // Time passes and timers fire: loss detection, PTOs, suspicion,
            // probation. Now and then it is more than a copy's lifetime, with
            // one path delivering meanwhile.
            23..=25 => {
                let long = kind == 25 && a % 4 == 0;
                for _ in 0..if long { 21 } else { 1 } {
                    self.now += Duration::from_millis(if long { 500 } else { 1 + b % 40 });
                    for end in [&mut self.client, &mut self.server] {
                        if end.poll_timeout().is_some_and(|at| at <= self.now) {
                            end.on_timeout(self.now);
                        }
                    }
                    if long {
                        self.poll(false);
                        self.poll(true);
                        while let Some(nth) = self.wire.iter().position(|&(_, on, _)| on == path) {
                            self.deliver(nth);
                        }
                    }
                }
            }
            // A stream ends: finished by the server, or reset by the client.
            26 if !self.streams.is_empty() => {
                let id = self.streams[a as usize % self.streams.len()];
                if b % 2 == 0 && writable(&self.server, id) {
                    self.server.stream_send(id, &[], true);
                } else if b % 2 == 1 {
                    let stop = Frame::StopSending { stream_id: id, error_code: 0 };
                    self.client.conn_mut().streams_mut().control.push(stop);
                }
            }
            // A path is given up.
            27 if a % 20 == 0 => {
                self.server.conn_mut().set_path_status(path, PathStatusKind::Abandon)
            }
            _ => {}
        }
    }

    /// The index and the reference agree about every target path.
    fn check(&mut self) -> PropResult {
        for target in 0..self.server.conn.paths().len() {
            let (admit, preempts) = self.server.reinject_scan(self.now, target);
            let conn = &self.server.conn;
            let rows = MpConnection::reinject_queue(conn, admit, target)
                .map(|c| (c.rank, c.stream_id, c.range, c.fin, c.holder, is_head(conn, &c)));
            let indexed = (rows.collect::<Vec<Row>>(), preempts);
            prop_assert_eq!(indexed, reference(&self.server, &self.copied, self.now, target));
        }
        Ok(())
    }
}

const MODES: [ReinjectMode; 4] = [
    ReinjectMode::Appending,
    ReinjectMode::StreamPriority,
    ReinjectMode::FramePriority,
    ReinjectMode::OpportunisticHead,
];

#[test]
fn index_matches_the_reference_scan() {
    let programs = (2usize..4, 0usize..4, vec_of((0u8..28, 0u64..1000, 0u64..1000), 0..300));
    check("index_matches_the_reference_scan", programs, |(paths, mode, program)| {
        let mut bench = Bench::new(*paths, MODES[*mode]);
        for &step in program {
            bench.step(step);
            bench.check()?;
        }
        Ok(())
    });
}
