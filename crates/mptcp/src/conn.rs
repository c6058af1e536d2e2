//! The MPTCP-like connection state machine (sender and receiver in one
//! type, like the rest of the workspace: poll-based, virtual time).

use crate::wire::{Kind, Segment, HEADER_LEN};
use std::collections::BTreeMap;
use xlink_clock::{Duration, Instant};
use xlink_obs::{Event, Tracer};
use xlink_quic::cc::{Cubic, MAX_DATAGRAM_SIZE};
use xlink_quic::recovery::{MAX_PTO, SUSPECT_AFTER_PTOS};
use xlink_quic::rtt::RttEstimator;

/// Maximum payload per segment.
pub const MSS: usize = MAX_DATAGRAM_SIZE as usize - HEADER_LEN;

/// First probe retry interval for a suspect subflow (mirrors the QUIC
/// liveness machine's `probe_initial`).
const PROBE_INITIAL: Duration = Duration::from_millis(250);

/// Ceiling for the suspect-subflow probe backoff.
const PROBE_MAX: Duration = Duration::from_secs(4);

/// Hard cap on buffered out-of-order segments (§10 adversarial bound) —
/// parity with the QUIC stack's `MAX_STREAM_SEGMENTS`. An honest sender
/// respecting the 4 MB receive window at MSS-sized segments stays well
/// under this; a gap-spray attacker hits the cap and further
/// non-contiguous segments are dropped (TCP semantics: drop + dup ack).
pub const MAX_OOO_SEGMENTS: usize = 4096;

/// Endpoint configuration.
#[derive(Debug, Clone)]
pub struct MptcpConfig {
    /// True for the connection initiator.
    pub is_client: bool,
    /// Number of subflows (== netsim paths).
    pub num_subflows: usize,
    /// Receive window advertised to the peer.
    pub recv_window: u32,
}

impl Default for MptcpConfig {
    fn default() -> Self {
        MptcpConfig { is_client: true, num_subflows: 2, recv_window: 4 << 20 }
    }
}

/// Counters for experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct MptcpStats {
    /// Segments sent (data only).
    pub segments_sent: u64,
    /// Payload bytes sent first-time.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted (RTO/loss).
    pub bytes_retransmitted: u64,
    /// Opportunistic (duplicate) retransmissions for HoL mitigation.
    pub opportunistic_retx: u64,
    /// Penalization events (cwnd halvings of the blocking subflow).
    pub penalizations: u64,
    /// Segments declared lost.
    pub segments_lost: u64,
    /// Subflows marked suspect after consecutive RTOs (parity with the
    /// QUIC liveness machine).
    pub subflow_suspects: u64,
    /// Suspect subflows that recovered after ack progress.
    pub subflow_revalidations: u64,
}

#[derive(Debug, Clone)]
struct SentSeg {
    len: usize,
    time_sent: Instant,
    retransmitted: bool,
}

struct Subflow {
    established: bool,
    syn_sent: bool,
    /// When the (last) SYN went out, for handshake retransmission.
    syn_time: Option<Instant>,
    rtt: RttEstimator,
    cc: Cubic,
    /// Unacked segments on this subflow, keyed by data-level seq.
    inflight: BTreeMap<u64, SentSeg>,
    inflight_bytes: u64,
    /// RTO backoff.
    rto_count: u32,
    last_send: Instant,
    /// Last time any valid segment arrived on this subflow (proof of
    /// life, consulted by the all-suspect scheduling fallback).
    last_recv: Instant,
    /// Excluded from min-RTT scheduling after consecutive RTOs; cleared
    /// by ack progress (or any valid segment) on this subflow.
    suspect: bool,
    /// Next probe deadline while suspect.
    probe_at: Option<Instant>,
    /// Current (exponentially backed-off) probe interval.
    probe_interval: Duration,
    /// Probes sent during the current suspect episode.
    suspect_probes: u32,
}

impl Subflow {
    fn new() -> Self {
        Subflow {
            established: false,
            syn_sent: false,
            syn_time: None,
            rtt: RttEstimator::new(),
            cc: Cubic::new(),
            inflight: BTreeMap::new(),
            inflight_bytes: 0,
            rto_count: 0,
            last_send: Instant::ZERO,
            last_recv: Instant::ZERO,
            suspect: false,
            probe_at: None,
            probe_interval: PROBE_INITIAL,
            suspect_probes: 0,
        }
    }

    fn budget(&self) -> u64 {
        self.cc.window().saturating_sub(self.inflight_bytes)
    }

    fn rto(&self) -> Duration {
        self.rtt
            .pto(Duration::from_millis(0))
            .mul_f64(f64::from(1u32 << self.rto_count.min(10)))
            .min(MAX_PTO)
            .max(Duration::from_millis(200))
    }

    fn next_timeout(&self) -> Option<Instant> {
        if self.syn_sent && !self.established {
            return self.syn_time.map(|t| t + self.rto());
        }
        let data = self.inflight.values().map(|s| s.time_sent).min().map(|t| t + self.rto());
        let probe = if self.suspect { self.probe_at } else { None };
        [data, probe].into_iter().flatten().min()
    }

    /// Clear a suspect episode after proof of life.
    fn clear_suspect(&mut self) -> u32 {
        self.suspect = false;
        self.probe_at = None;
        self.probe_interval = PROBE_INITIAL;
        std::mem::take(&mut self.suspect_probes)
    }
}

/// The MPTCP-like endpoint.
pub struct MptcpConnection {
    cfg: MptcpConfig,
    subflows: Vec<Subflow>,
    /// Send buffer: all application bytes, data-level seq 0 = first byte.
    send_buf: Vec<u8>,
    /// Next never-sent byte.
    next_seq: u64,
    /// Cumulative data-level ack from the peer.
    snd_una: u64,
    /// Pending retransmission queue (data-level ranges).
    retx_queue: Vec<(u64, u64)>,
    /// Opportunistic retransmissions staged by on_ack: (path, seq, len).
    retx_send: Vec<(usize, u64, usize)>,
    fin_queued: bool,
    fin_sent: bool,
    fin_acked: bool,
    /// When the FIN was last transmitted (for its retransmission timer).
    fin_time: Option<Instant>,
    /// Receiver state: cumulative delivered prefix + out-of-order store.
    rcv_next: u64,
    ooo: BTreeMap<u64, Vec<u8>>,
    recv_buf: Vec<u8>,
    peer_fin_at: Option<u64>,
    /// Pending ACK per subflow (ACK returns on the same subflow).
    ack_pending: Vec<bool>,
    /// Peer receive window.
    peer_window: u32,
    stats: MptcpStats,
    done_recv: bool,
    /// Segment/subflow tracer (never consulted for decisions).
    tracer: Tracer,
}

impl MptcpConnection {
    /// New endpoint.
    pub fn new(cfg: MptcpConfig) -> Self {
        let subflows = (0..cfg.num_subflows).map(|_| Subflow::new()).collect();
        MptcpConnection {
            ack_pending: vec![false; cfg.num_subflows],
            subflows,
            send_buf: Vec::new(),
            next_seq: 0,
            snd_una: 0,
            retx_queue: Vec::new(),
            retx_send: Vec::new(),
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            fin_time: None,
            rcv_next: 0,
            ooo: BTreeMap::new(),
            recv_buf: Vec::new(),
            peer_fin_at: None,
            peer_window: cfg.recv_window,
            stats: MptcpStats::default(),
            done_recv: false,
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Attach a tracer reporting subflow establishment, segment sends,
    /// and RTO losses. Pass [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Queue application bytes for transmission.
    pub fn send(&mut self, data: &[u8]) {
        // Invariant: app-facing misuse, never peer-reachable — the wire
        // cannot enqueue send-side data.
        assert!(!self.fin_queued, "send after fin");
        self.send_buf.extend_from_slice(data);
    }

    /// Mark the end of the byte stream.
    pub fn finish(&mut self) {
        self.fin_queued = true;
    }

    /// Read received bytes.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.recv_buf.len());
        self.recv_buf.drain(..n).collect()
    }

    /// Bytes available to read.
    pub fn readable(&self) -> usize {
        self.recv_buf.len()
    }

    /// True once the peer's FIN and all data have been received.
    pub fn recv_complete(&self) -> bool {
        self.done_recv
    }

    /// True once all sent data (and FIN) is acknowledged.
    pub fn send_complete(&self) -> bool {
        self.fin_acked && self.snd_una >= self.send_buf.len() as u64
    }

    /// Statistics.
    pub fn stats(&self) -> MptcpStats {
        self.stats
    }

    /// Buffered out-of-order segments (§10 gauge; bounded by
    /// [`MAX_OOO_SEGMENTS`]).
    pub fn ooo_count(&self) -> usize {
        self.ooo.len()
    }

    /// Total buffered receive-side bytes (§10 gauge): delivered-but-unread
    /// plus out-of-order.
    pub fn buffered_recv_bytes(&self) -> u64 {
        self.recv_buf.len() as u64 + self.ooo.values().map(|v| v.len() as u64).sum::<u64>()
    }

    /// Ingest a datagram from subflow (path) `path`.
    pub fn handle_datagram(&mut self, now: Instant, path: usize, datagram: &[u8]) {
        if path >= self.subflows.len() {
            return;
        }
        let Some(seg) = Segment::decode(datagram) else {
            return;
        };
        self.subflows[path].last_recv = now;
        // Any valid segment on a subflow we SYNed proves the path works
        // both ways (e.g. the SYNACK itself was corrupted but a later
        // ACK got through) — treat it as establishment.
        if self.subflows[path].syn_sent && !self.subflows[path].established {
            self.subflows[path].established = true;
            self.tracer.emit(now, Event::SubflowEstablished { path: path as u8 });
        }
        // Likewise, any valid segment on a suspect subflow is proof of
        // life: the path answered, so it rejoins the scheduler.
        if self.subflows[path].suspect {
            let probes = self.subflows[path].clear_suspect();
            self.subflows[path].rto_count = 0;
            self.stats.subflow_revalidations += 1;
            self.tracer.emit(now, Event::PathRevalidated { path: path as u8, probes });
        }
        match seg.kind {
            Kind::Syn => {
                if !self.subflows[path].established {
                    self.tracer.emit(now, Event::SubflowEstablished { path: path as u8 });
                }
                self.subflows[path].established = true;
                self.ack_pending[path] = true; // triggers SYNACK
            }
            Kind::SynAck => {
                if !self.subflows[path].established {
                    self.tracer.emit(now, Event::SubflowEstablished { path: path as u8 });
                }
                self.subflows[path].established = true;
                let rtt_sample = now.saturating_duration_since(self.subflows[path].last_send);
                if rtt_sample > Duration::ZERO {
                    self.subflows[path].rtt.update(rtt_sample, Duration::ZERO);
                }
            }
            Kind::Data => {
                self.on_data(now, path, seg);
            }
            Kind::Ack => {
                self.on_ack(now, path, seg.ack, seg.window);
            }
            Kind::Fin => {
                self.peer_fin_at = Some(seg.seq);
                self.ack_pending[path] = true;
                self.check_recv_done();
            }
        }
    }

    fn on_data(&mut self, _now: Instant, path: usize, seg: Segment) {
        let end = seg.seq.saturating_add(seg.payload.len() as u64);
        // Receive-window police (§10): data beyond the advertised window
        // is a misbehaving or hostile sender. TCP semantics: drop the
        // segment and answer with a challenge ACK restating our state.
        if end > self.rcv_next + u64::from(self.cfg.recv_window) {
            self.ack_pending[path] = true;
            return;
        }
        if end > self.rcv_next {
            // Reassembly cap (§10): once the out-of-order store is full,
            // further gap segments are dropped — an honest sender
            // retransmits from the cumulative ack, so nothing is lost.
            if seg.seq > self.rcv_next && self.ooo.len() >= MAX_OOO_SEGMENTS {
                self.ack_pending[path] = true;
                return;
            }
            self.ooo.insert(seg.seq, seg.payload);
            // Drain contiguous prefix.
            loop {
                let Some((&s, _)) = self.ooo.range(..=self.rcv_next).next_back() else {
                    break;
                };
                let buf = self.ooo.remove(&s).expect("key exists");
                let e = s + buf.len() as u64;
                if e <= self.rcv_next {
                    continue; // fully duplicate
                }
                let skip = (self.rcv_next - s) as usize;
                self.recv_buf.extend_from_slice(&buf[skip..]);
                self.rcv_next = e;
            }
        }
        self.ack_pending[path] = true;
        self.check_recv_done();
    }

    /// Cumulative ack to advertise: data prefix plus one for a consumed
    /// FIN (the FIN occupies a virtual sequence number, as in TCP).
    fn ack_value(&self) -> u64 {
        self.rcv_next + u64::from(self.done_recv)
    }

    fn check_recv_done(&mut self) {
        if let Some(fin) = self.peer_fin_at {
            if self.rcv_next >= fin {
                self.done_recv = true;
            }
        }
    }

    fn on_ack(&mut self, now: Instant, path: usize, ack: u64, window: u32) {
        // Ack police (§10): an ack beyond everything we ever sent (data
        // plus the FIN's virtual sequence number) is the optimistic-ack
        // attack — ignore it entirely, never feed it to the congestion
        // controller or the cumulative-ack machinery.
        if ack > self.next_seq + 1 {
            return;
        }
        self.peer_window = window;
        let sf = &mut self.subflows[path];
        // Remove fully-acked segments from this subflow; sample RTT.
        let acked: Vec<u64> = sf
            .inflight
            .range(..ack)
            .filter(|(&s, seg)| s + seg.len as u64 <= ack)
            .map(|(&s, _)| s)
            .collect();
        let mut newest: Option<(Instant, usize, bool)> = None;
        for s in acked {
            let seg = sf.inflight.remove(&s).expect("key exists");
            sf.inflight_bytes = sf.inflight_bytes.saturating_sub(seg.len as u64);
            match newest {
                Some((t, _, _)) if t >= seg.time_sent => {}
                _ => newest = Some((seg.time_sent, seg.len, seg.retransmitted)),
            }
            sf.cc.on_ack(now, seg.time_sent, seg.len as u64, sf.rtt.smoothed());
        }
        if let Some((t, _, retx)) = newest {
            if !retx {
                sf.rtt.update(now.saturating_duration_since(t), Duration::ZERO);
            }
            sf.rto_count = 0;
        }
        if ack > self.snd_una {
            self.snd_una = ack;
            // Drop retransmission entries below the new cumulative ack.
            self.retx_queue.retain_mut(|(s, e)| {
                if *e <= ack {
                    return false;
                }
                if *s < ack {
                    *s = ack;
                }
                true
            });
            // Segments on OTHER subflows below snd_una are implicitly done.
            for sf in &mut self.subflows {
                let stale: Vec<u64> = sf
                    .inflight
                    .range(..ack)
                    .filter(|(&s, seg)| s + seg.len as u64 <= ack)
                    .map(|(&s, _)| s)
                    .collect();
                for s in stale {
                    let seg = sf.inflight.remove(&s).expect("key exists");
                    sf.inflight_bytes = sf.inflight_bytes.saturating_sub(seg.len as u64);
                }
            }
            if ack > self.send_buf.len() as u64 {
                self.fin_acked = true;
            }
        }
        // Opportunistic retransmission + penalization (the Linux default
        // HoL mitigation): if the data-level head (snd_una) is in flight on
        // a *different*, slower subflow while this one is idle-ish,
        // retransmit the head here and penalize the holder.
        self.maybe_opportunistic_retx(now, path);
    }

    fn maybe_opportunistic_retx(&mut self, now: Instant, fast: usize) {
        let head = self.snd_una;
        if head >= self.next_seq {
            return; // nothing outstanding
        }
        // Find the subflow holding the head.
        let holder = (0..self.subflows.len()).find(|&i| {
            self.subflows[i]
                .inflight
                .range(..=head)
                .next_back()
                .is_some_and(|(&s, seg)| s <= head && head < s + seg.len as u64)
        });
        let Some(holder) = holder else { return };
        if holder == fast {
            return;
        }
        // Only act when the holder is meaningfully slower.
        let fast_rtt = self.subflows[fast].rtt.smoothed();
        let slow_rtt = self.subflows[holder].rtt.smoothed();
        if slow_rtt < fast_rtt * 2 {
            return;
        }
        // Retransmit the head segment on the fast subflow.
        let (seq, len) = {
            // Invariant: `holder` was selected above precisely because this
            // range lookup succeeds, and nothing mutated inflight since.
            let (&s, seg) =
                self.subflows[holder].inflight.range(..=head).next_back().expect("holder found");
            (s, seg.len)
        };
        if self.subflows[fast].budget() < len as u64 {
            return;
        }
        let already_on_fast = self.subflows[fast].inflight.contains_key(&seq);
        if already_on_fast {
            return;
        }
        self.subflows[fast]
            .inflight
            .insert(seq, SentSeg { len, time_sent: now, retransmitted: true });
        self.subflows[fast].inflight_bytes += len as u64;
        self.retx_send.push((fast, seq, len));
        self.stats.opportunistic_retx += 1;
        // Penalization: halve the slow subflow's window.
        self.subflows[holder].cc.on_congestion_event(now, now);
        self.stats.penalizations += 1;
    }

    /// Produce the next (path, datagram) to send.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<(usize, Vec<u8>)> {
        // Immediate opportunistic retransmissions queued by on_ack.
        if let Some((path, seq, len)) = self.retx_send.pop() {
            let payload = self.send_buf[seq as usize..(seq as usize + len)].to_vec();
            self.stats.bytes_retransmitted += len as u64;
            self.stats.segments_sent += 1;
            self.tracer.emit(
                now,
                Event::SegmentSent { path: path as u8, seq, len: len as u32, retransmit: true },
            );
            return Some((
                path,
                Segment {
                    kind: Kind::Data,
                    subflow: path as u8,
                    seq,
                    ack: self.ack_value(),
                    window: self.cfg.recv_window,
                    payload,
                }
                .encode(),
            ));
        }
        // Subflow setup (client initiates).
        for i in 0..self.subflows.len() {
            if self.cfg.is_client && !self.subflows[i].established && !self.subflows[i].syn_sent {
                self.subflows[i].syn_sent = true;
                self.subflows[i].syn_time = Some(now);
                self.subflows[i].last_send = now;
                return Some((
                    i,
                    Segment {
                        kind: Kind::Syn,
                        subflow: i as u8,
                        seq: 0,
                        ack: 0,
                        window: self.cfg.recv_window,
                        payload: vec![],
                    }
                    .encode(),
                ));
            }
        }
        // Pending ACKs (and SYNACKs) — returned on the same subflow.
        for i in 0..self.subflows.len() {
            if self.ack_pending[i] {
                self.ack_pending[i] = false;
                let kind = if !self.cfg.is_client
                    && self.subflows[i].established
                    && self.rcv_next == 0
                    && self.recv_buf.is_empty()
                    && self.ooo.is_empty()
                    && self.peer_fin_at.is_none()
                {
                    Kind::SynAck
                } else {
                    Kind::Ack
                };
                return Some((
                    i,
                    Segment {
                        kind,
                        subflow: i as u8,
                        seq: 0,
                        ack: self.ack_value(),
                        window: self.cfg.recv_window,
                        payload: vec![],
                    }
                    .encode(),
                ));
            }
        }
        // Loss retransmissions (RTO-queued ranges) take priority; service
        // them lowest-sequence-first so the cumulative ack can advance.
        if !self.retx_queue.is_empty() {
            self.retx_queue.sort_unstable();
            let (start, end) = self.retx_queue.remove(0);
            let Some(path) = self.min_rtt_subflow(MSS as u64) else {
                self.retx_queue.insert(0, (start, end));
                return None;
            };
            let len = ((end - start) as usize).min(MSS);
            let payload = self.send_buf[start as usize..start as usize + len].to_vec();
            if (start + len as u64) < end {
                self.retx_queue.insert(0, (start + len as u64, end));
            }
            self.subflows[path]
                .inflight
                .insert(start, SentSeg { len, time_sent: now, retransmitted: true });
            self.subflows[path].inflight_bytes += len as u64;
            self.stats.bytes_retransmitted += len as u64;
            self.stats.segments_sent += 1;
            self.tracer.emit(
                now,
                Event::SegmentSent {
                    path: path as u8,
                    seq: start,
                    len: len as u32,
                    retransmit: true,
                },
            );
            return Some((
                path,
                Segment {
                    kind: Kind::Data,
                    subflow: path as u8,
                    seq: start,
                    ack: self.ack_value(),
                    window: self.cfg.recv_window,
                    payload,
                }
                .encode(),
            ));
        }
        // Fresh data via min-RTT.
        let avail = (self.send_buf.len() as u64).saturating_sub(self.next_seq);
        // Respect the peer's receive window on outstanding data.
        let outstanding = self.next_seq.saturating_sub(self.snd_una);
        let window_room = u64::from(self.peer_window).saturating_sub(outstanding);
        if avail > 0 && window_room > 0 {
            let len = (avail.min(window_room).min(MSS as u64)) as usize;
            if let Some(path) = self.min_rtt_subflow(len as u64) {
                let seq = self.next_seq;
                self.next_seq += len as u64;
                let payload = self.send_buf[seq as usize..seq as usize + len].to_vec();
                self.subflows[path]
                    .inflight
                    .insert(seq, SentSeg { len, time_sent: now, retransmitted: false });
                self.subflows[path].inflight_bytes += len as u64;
                self.stats.bytes_sent += len as u64;
                self.stats.segments_sent += 1;
                self.subflows[path].last_send = now;
                self.tracer.emit(
                    now,
                    Event::SegmentSent {
                        path: path as u8,
                        seq,
                        len: len as u32,
                        retransmit: false,
                    },
                );
                return Some((
                    path,
                    Segment {
                        kind: Kind::Data,
                        subflow: path as u8,
                        seq,
                        ack: self.ack_value(),
                        window: self.cfg.recv_window,
                        payload,
                    }
                    .encode(),
                ));
            }
        }
        // FIN once everything is sent.
        if self.fin_queued
            && !self.fin_sent
            && !self.fin_acked
            && self.next_seq >= self.send_buf.len() as u64
        {
            self.fin_sent = true;
            self.fin_time = Some(now);
            let path = self.min_rtt_subflow(0).unwrap_or(0);
            return Some((
                path,
                Segment {
                    kind: Kind::Fin,
                    subflow: path as u8,
                    seq: self.send_buf.len() as u64,
                    ack: self.ack_value(),
                    window: self.cfg.recv_window,
                    payload: vec![],
                }
                .encode(),
            ));
        }
        None
    }

    fn min_rtt_subflow(&self, need: u64) -> Option<usize> {
        // Suspect subflows are excluded as long as ANY healthy subflow
        // exists — even one momentarily out of budget (waiting beats
        // feeding more data into a blackhole). Only when every subflow
        // is suspect do we fall back, and then we prefer the subflow
        // that most recently produced proof of life: a head-of-line
        // stall can transiently push a working subflow's RTO counter
        // over the threshold, and min-RTT alone would hand the stream
        // head right back to the genuinely dead subflow.
        let healthy_exists = self.subflows.iter().any(|sf| sf.established && !sf.suspect);
        let eligible = |i: &usize| {
            let sf = &self.subflows[*i];
            sf.established && !sf.suspect && sf.budget() >= need.max(1)
        };
        if healthy_exists {
            (0..self.subflows.len())
                .filter(eligible)
                .min_by_key(|&i| (self.subflows[i].rtt.smoothed(), i))
        } else {
            (0..self.subflows.len())
                .filter(|&i| {
                    let sf = &self.subflows[i];
                    sf.established && sf.budget() >= need.max(1)
                })
                .min_by_key(|&i| {
                    let sf = &self.subflows[i];
                    (std::cmp::Reverse(sf.last_recv), sf.rtt.smoothed(), i)
                })
        }
    }

    /// Earliest retransmission timer.
    pub fn poll_timeout(&self) -> Option<Instant> {
        let data = self.subflows.iter().filter_map(|s| s.next_timeout()).min();
        let fin = if self.fin_sent && !self.fin_acked {
            self.fin_time.map(|t| t + self.subflows[0].rto())
        } else {
            None
        };
        [data, fin].into_iter().flatten().min()
    }

    /// Fire RTO on due subflows: requeue their oldest in-flight data.
    pub fn on_timeout(&mut self, now: Instant) {
        let mut newly_suspect: Vec<(usize, u32, u64)> = Vec::new();
        if self.fin_sent && !self.fin_acked {
            if let Some(t) = self.fin_time {
                if now >= t + self.subflows[0].rto() {
                    self.fin_sent = false; // resend the FIN
                    self.fin_time = None;
                }
            }
        }
        for (i, sf) in self.subflows.iter_mut().enumerate() {
            if sf.syn_sent && !sf.established {
                // Handshake RTO: a lost or corrupted SYN/SYNACK would
                // otherwise strand the subflow forever.
                if let Some(t) = sf.syn_time {
                    if now >= t + sf.rto() {
                        sf.syn_sent = false; // resend the SYN
                        sf.syn_time = None;
                        sf.rto_count += 1;
                    }
                }
                continue;
            }
            // Suspect-subflow probe timer: retransmit the data-level head
            // on the dead subflow with exponential backoff, waiting for
            // proof of life.
            if sf.suspect {
                if let Some(at) = sf.probe_at {
                    if now >= at {
                        sf.suspect_probes += 1;
                        sf.probe_at = Some(now + sf.probe_interval);
                        sf.probe_interval = sf.probe_interval.mul_f64(2.0).min(PROBE_MAX);
                        let head = self.snd_una;
                        if head < self.next_seq && !sf.inflight.contains_key(&head) {
                            let len = ((self.next_seq - head) as usize).min(MSS);
                            sf.inflight
                                .insert(head, SentSeg { len, time_sent: now, retransmitted: true });
                            sf.inflight_bytes += len as u64;
                            self.retx_send.push((i, head, len));
                        } else if head >= self.next_seq {
                            // Nothing to retransmit: send a zero-length
                            // data probe. The receiver always acks data
                            // segments on the arrival subflow, so a
                            // reply is proof of life.
                            let seq = head.min(self.send_buf.len() as u64);
                            self.retx_send.push((i, seq, 0));
                        }
                    }
                }
            }
            let Some(deadline) = sf.next_timeout() else { continue };
            if now < deadline {
                continue;
            }
            if sf.inflight.is_empty() {
                continue; // probe timer already handled above
            }
            // RTO: everything on the subflow is presumed lost.
            let lost: Vec<(u64, usize)> =
                sf.inflight.iter().map(|(&s, seg)| (s, seg.len)).collect();
            let stranded: u64 = lost.iter().map(|&(_, l)| l as u64).sum();
            sf.inflight.clear();
            sf.inflight_bytes = 0;
            sf.rto_count += 1;
            sf.cc.on_persistent_congestion();
            if sf.rto_count >= SUSPECT_AFTER_PTOS && !sf.suspect {
                sf.suspect = true;
                sf.suspect_probes = 0;
                sf.probe_interval = PROBE_INITIAL;
                sf.probe_at = Some(now + sf.probe_interval);
                newly_suspect.push((i, sf.rto_count, stranded));
            }
            for (s, l) in lost {
                let e = s + l as u64;
                if e > self.snd_una {
                    self.retx_queue.push((s.max(self.snd_una), e));
                    self.stats.segments_lost += 1;
                    self.tracer
                        .emit(now, Event::SegmentLost { path: i as u8, seq: s, len: l as u32 });
                }
            }
        }
        for (i, rtos, stranded) in newly_suspect {
            self.stats.subflow_suspects += 1;
            let oldest = self.subflows[i].last_send;
            self.tracer.emit(
                now,
                Event::PathSuspected {
                    path: i as u8,
                    pto_count: rtos,
                    silent_us: now.saturating_duration_since(oldest).as_micros(),
                },
            );
            let to = (0..self.subflows.len())
                .filter(|&j| j != i && self.subflows[j].established && !self.subflows[j].suspect)
                .min_by_key(|&j| (self.subflows[j].rtt.smoothed(), j));
            self.tracer.emit(
                now,
                Event::PathFailover {
                    from: i as u8,
                    to: to.map_or(255, |t| t as u8),
                    stranded_bytes: stranded,
                },
            );
        }
        // Coalesce the retransmission queue.
        self.retx_queue.sort_unstable();
        self.retx_queue.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump(now: &mut Instant, a: &mut MptcpConnection, b: &mut MptcpConnection) {
        for _ in 0..5000 {
            let mut any = false;
            while let Some((p, d)) = a.poll_transmit(*now) {
                b.handle_datagram(*now, p, &d);
                any = true;
            }
            while let Some((p, d)) = b.poll_transmit(*now) {
                a.handle_datagram(*now, p, &d);
                any = true;
            }
            if !any {
                let next = [a.poll_timeout(), b.poll_timeout()].into_iter().flatten().min();
                match next {
                    Some(t) if t <= *now + Duration::from_secs(2) => {
                        *now = t;
                        a.on_timeout(*now);
                        b.on_timeout(*now);
                    }
                    _ => break,
                }
            } else {
                *now += Duration::from_micros(100);
            }
        }
    }

    fn pair() -> (MptcpConnection, MptcpConnection, Instant) {
        let c = MptcpConnection::new(MptcpConfig { is_client: true, ..Default::default() });
        let s = MptcpConnection::new(MptcpConfig { is_client: false, ..Default::default() });
        (c, s, Instant::ZERO)
    }

    #[test]
    fn subflows_establish() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        assert!(c.subflows.iter().all(|f| f.established));
        assert!(s.subflows.iter().all(|f| f.established));
    }

    #[test]
    fn bulk_transfer_completes() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        c.send(&data);
        c.finish();
        let mut got = Vec::new();
        for _ in 0..300 {
            pump(&mut now, &mut c, &mut s);
            got.extend(s.recv(usize::MAX));
            if s.recv_complete() {
                break;
            }
            now += Duration::from_millis(5);
        }
        got.extend(s.recv(usize::MAX));
        assert!(s.recv_complete());
        assert_eq!(got, data);
        assert!(c.send_complete());
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut s = MptcpConnection::new(MptcpConfig { is_client: false, ..Default::default() });
        let now = Instant::ZERO;
        let seg = |seq: u64, data: &[u8]| Segment {
            kind: Kind::Data,
            subflow: 0,
            seq,
            ack: 0,
            window: 1 << 20,
            payload: data.to_vec(),
        };
        s.handle_datagram(now, 0, &seg(3, b"def").encode());
        assert_eq!(s.readable(), 0);
        s.handle_datagram(now, 0, &seg(0, b"abc").encode());
        assert_eq!(s.recv(100), b"abcdef");
        // Duplicate is harmless.
        s.handle_datagram(now, 0, &seg(0, b"abc").encode());
        assert_eq!(s.readable(), 0);
    }

    #[test]
    fn rto_recovers_lost_flight() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let data = vec![7u8; 20_000];
        c.send(&data);
        c.finish();
        // Drop the entire first flight.
        while c.poll_transmit(now).is_some() {}
        // Fire the RTO and let retransmissions flow.
        let deadline = c.poll_timeout().expect("rto armed");
        now = deadline;
        c.on_timeout(now);
        let mut got = Vec::new();
        for _ in 0..200 {
            pump(&mut now, &mut c, &mut s);
            got.extend(s.recv(usize::MAX));
            if s.recv_complete() {
                break;
            }
            now += Duration::from_millis(10);
        }
        assert!(s.recv_complete(), "transfer must survive a lost flight");
        assert_eq!(got.len(), data.len());
        assert!(c.stats().bytes_retransmitted > 0);
    }

    /// Like `pump`, but datagrams on `dead` subflows vanish in both
    /// directions and timers are chased up to `horizon` ahead.
    fn pump_blackhole(
        now: &mut Instant,
        a: &mut MptcpConnection,
        b: &mut MptcpConnection,
        dead: &[usize],
        horizon: Duration,
    ) {
        let end = *now + horizon;
        for _ in 0..20_000 {
            let mut any = false;
            while let Some((p, d)) = a.poll_transmit(*now) {
                any = true;
                if !dead.contains(&p) {
                    b.handle_datagram(*now, p, &d);
                }
            }
            while let Some((p, d)) = b.poll_transmit(*now) {
                any = true;
                if !dead.contains(&p) {
                    a.handle_datagram(*now, p, &d);
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
                *now += Duration::from_micros(100);
            }
        }
    }

    #[test]
    fn bogus_ack_is_ignored() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.send(&vec![3u8; 10_000]);
        // An ack for data far beyond anything sent must not advance
        // snd_una or mark the transfer complete (optimistic-ack parity
        // with the QUIC protocol police).
        let bogus = Segment {
            kind: Kind::Ack,
            subflow: 0,
            seq: 0,
            ack: 1_000_000,
            window: 1 << 20,
            payload: vec![],
        };
        c.handle_datagram(now, 0, &bogus.encode());
        assert_eq!(c.snd_una, 0);
        assert!(!c.send_complete());
        let _ = s;
    }

    #[test]
    fn recv_window_overrun_dropped() {
        let mut s = MptcpConnection::new(MptcpConfig {
            is_client: false,
            recv_window: 4096,
            ..Default::default()
        });
        let now = Instant::ZERO;
        let overrun = Segment {
            kind: Kind::Data,
            subflow: 0,
            seq: 1 << 20, // far past the 4 KB window
            ack: 0,
            window: 1 << 20,
            payload: vec![9u8; 100],
        };
        s.handle_datagram(now, 0, &overrun.encode());
        assert_eq!(s.ooo_count(), 0, "out-of-window data must be dropped");
        assert_eq!(s.buffered_recv_bytes(), 0);
        // The drop still schedules a challenge ack.
        assert!(s.ack_pending[0]);
    }

    #[test]
    fn ooo_store_capped_under_gap_spray() {
        let mut s = MptcpConnection::new(MptcpConfig { is_client: false, ..Default::default() });
        let now = Instant::ZERO;
        // 1-byte segments at odd offsets: never contiguous, maximum
        // per-segment bookkeeping for minimum attacker bytes.
        for i in 0..(MAX_OOO_SEGMENTS as u64 + 500) {
            let seg = Segment {
                kind: Kind::Data,
                subflow: 0,
                seq: i * 2 + 1,
                ack: 0,
                window: 1 << 20,
                payload: vec![0xab],
            };
            s.handle_datagram(now, 0, &seg.encode());
        }
        assert_eq!(s.ooo_count(), MAX_OOO_SEGMENTS);
        // A gap-filling (contiguous) segment is still accepted and drains.
        let fill = Segment {
            kind: Kind::Data,
            subflow: 0,
            seq: 0,
            ack: 0,
            window: 1 << 20,
            payload: vec![0xcd],
        };
        s.handle_datagram(now, 0, &fill.encode());
        assert!(s.readable() >= 2, "contiguous data must bypass the cap and drain");
    }

    #[test]
    fn rto_backoff_capped_at_max_pto() {
        let (mut c, _s, _now) = pair();
        c.subflows[0].rto_count = 20;
        assert_eq!(c.subflows[0].rto(), MAX_PTO, "RTO backoff must cap at the absolute maximum");
    }

    #[test]
    fn blackholed_subflow_suspected_excluded_and_revalidated() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        let data = vec![5u8; 120_000];
        c.send(&data);
        c.finish();
        // Skew subflow 0's RTT so min-RTT prefers subflow 1: the subflow
        // about to blackhole must actually hold (and keep attracting)
        // data for consecutive RTOs to accumulate.
        c.subflows[0].rtt.update(Duration::from_millis(500), Duration::ZERO);
        for _ in 0..8 {
            if let Some((p, d)) = c.poll_transmit(now) {
                s.handle_datagram(now, p, &d);
            }
        }
        pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_secs(15));
        assert!(c.subflows[1].suspect, "repeated RTOs must mark the subflow suspect");
        assert!(c.stats().subflow_suspects >= 1);
        let mut got = s.recv(usize::MAX);
        for _ in 0..50 {
            if s.recv_complete() {
                break;
            }
            pump_blackhole(&mut now, &mut c, &mut s, &[1], Duration::from_secs(3));
            got.extend(s.recv(usize::MAX));
        }
        got.extend(s.recv(usize::MAX));
        assert!(s.recv_complete(), "transfer must fail over to the healthy subflow");
        assert_eq!(got.len(), data.len());
        assert!(got.iter().all(|&b| b == 5), "no corruption across failover");
        // Heal the link: a backoff probe round-trips and the subflow
        // rejoins the scheduler.
        pump_blackhole(&mut now, &mut c, &mut s, &[], Duration::from_secs(10));
        assert!(!c.subflows[1].suspect, "proof of life must clear suspicion");
        assert!(c.stats().subflow_revalidations >= 1);
        assert_eq!(c.subflows[1].rto_count, 0, "revalidation must reset RTO backoff");
    }

    #[test]
    fn all_suspect_subflows_still_carry_data() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        for sf in &mut c.subflows {
            sf.suspect = true;
        }
        c.send(&vec![2u8; 5_000]);
        let tx = c.poll_transmit(now);
        assert!(tx.is_some(), "scheduler must fall back when every subflow is suspect");
    }

    #[test]
    fn stats_track_fresh_bytes() {
        let (mut c, mut s, mut now) = pair();
        pump(&mut now, &mut c, &mut s);
        c.send(&vec![1u8; 10_000]);
        c.finish();
        for _ in 0..50 {
            pump(&mut now, &mut c, &mut s);
            s.recv(usize::MAX);
            if s.recv_complete() {
                break;
            }
            now += Duration::from_millis(5);
        }
        assert_eq!(c.stats().bytes_sent, 10_000);
    }
}
