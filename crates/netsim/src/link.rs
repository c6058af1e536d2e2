//! Trace-driven unidirectional link with Mahimahi semantics.
//!
//! Mahimahi (`mpshell`, the paper's Appendix B emulator) models a cellular
//! link as a sequence of *delivery opportunities*: each trace line is a
//! millisecond timestamp at which one MTU-sized (1500-byte) quantum of
//! bytes may leave the queue; the trace loops forever. We reproduce that
//! model exactly, plus a DropTail byte-bounded queue, constant one-way
//! propagation delay, optional stochastic loss, an outage/degrade switch
//! used by the mobility experiments, and a composable impairment pipeline
//! (bursty loss, reordering, duplication, corruption, jitter — see
//! [`crate::impair`]).

use crate::impair::{Impairments, LinkState, Pipeline};
use std::collections::VecDeque;
use xlink_clock::{Duration, Instant};
use xlink_lab::Rng;
use xlink_obs::{prof, Event, Tracer};

/// Bytes one delivery opportunity can carry (Mahimahi's MTU).
pub const OPPORTUNITY_BYTES: usize = 1500;

/// A queued packet.
#[derive(Debug, Clone)]
struct Queued {
    payload: Vec<u8>,
    /// Bytes of this packet already consumed by earlier opportunities
    /// (Mahimahi delivers partial packets across opportunities).
    consumed: usize,
    enqueued_at: Instant,
}

/// A packet ready at the far end of the link.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Arrival time at the receiver (after propagation delay).
    pub at: Instant,
    /// Packet bytes.
    pub payload: Vec<u8>,
    /// Time the packet spent queued before transmission began.
    pub queue_delay: Duration,
}

/// Configuration of one direction of a path.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Delivery-opportunity timestamps in ms (one MTU each), non-decreasing
    /// (repeats are several opportunities in one millisecond); loops. An
    /// empty trace means the link never delivers. Shared (`Arc`) so
    /// thousands of concurrent links can replay one trace allocation.
    pub trace_ms: std::sync::Arc<[u64]>,
    /// One-way propagation delay.
    pub delay: Duration,
    /// DropTail queue limit in bytes.
    pub queue_bytes: usize,
    /// Independent random loss probability per packet.
    pub loss: f64,
    /// RNG seed for the loss process and impairment pipeline.
    pub seed: u64,
    /// Impairment stages applied on top of the base model.
    pub impairments: Impairments,
}

impl LinkConfig {
    /// Constant-rate link helper: `mbps` megabits/s as evenly spaced
    /// delivery opportunities over one second.
    pub fn constant_rate(mbps: f64, delay: Duration) -> Self {
        let opportunities_per_sec = (mbps * 1e6 / 8.0 / OPPORTUNITY_BYTES as f64).max(1.0);
        let n = opportunities_per_sec.round() as u64;
        let trace_ms = (0..n).map(|i| i * 1000 / n).collect();
        LinkConfig {
            trace_ms,
            delay,
            queue_bytes: 512 * 1024,
            loss: 0.0,
            seed: 0,
            impairments: Impairments::none(),
        }
    }

    /// Replace the impairment stages (builder style).
    pub fn with_impairments(mut self, impairments: Impairments) -> Self {
        self.impairments = impairments;
        self
    }
}

/// Packet-conservation counters for one link direction. At every instant
/// `enqueued + duplicated == delivered + dropped + queued + in_pipe`; once
/// the link quiesces the last two terms are zero and the invariant
/// collapses to `enqueued + duplicated == delivered + dropped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Packets offered to [`Link::send`].
    pub enqueued: u64,
    /// Extra copies created by the duplication impairment.
    pub duplicated: u64,
    /// Packets whose payload was mutated by the corruption impairment
    /// (they still count as delivered when they arrive).
    pub corrupted: u64,
    /// Packets handed to the receiver by [`Link::recv`].
    pub delivered: u64,
    /// Packets dropped (loss processes + DropTail + dead links).
    pub dropped: u64,
    /// Packets still waiting in the DropTail queue.
    pub queued: u64,
    /// Packets in the propagation pipe, not yet received.
    pub in_pipe: u64,
    /// Payload bytes handed to the receiver.
    pub delivered_bytes: u64,
    /// Payload bytes dropped.
    pub dropped_bytes: u64,
}

impl Stats {
    /// The conservation identity (holds at every instant, not just at
    /// quiescence).
    pub fn is_conserved(&self) -> bool {
        self.enqueued + self.duplicated
            == self.delivered + self.dropped + self.queued + self.in_pipe
    }
}

/// One direction of an emulated path.
#[derive(Debug)]
pub struct Link {
    cfg: LinkConfig,
    /// Trace cursor: index of the next unused opportunity.
    cursor: usize,
    /// Completed trace loops.
    loops: u64,
    queue: VecDeque<Queued>,
    queued_bytes: usize,
    /// Packets in the propagation pipe, ordered by arrival time (the
    /// reorder/jitter stages make insertion non-FIFO).
    in_flight: VecDeque<Delivered>,
    rng: Rng,
    /// Impairment pipeline state.
    pipeline: Pipeline,
    /// Degrade/outage RNG stream (kept separate so toggling degradation
    /// never perturbs the loss process draws).
    ctl_rng: Rng,
    /// Administrative outage: no deliveries while set.
    down: bool,
    /// Fraction of delivery opportunities kept while degraded (1.0 = all).
    degrade_keep: f64,
    /// Extra ingress loss probability while degraded.
    degrade_loss: f64,
    /// Total bytes dropped at the queue.
    pub dropped_bytes: u64,
    /// Total packets dropped (queue overflow + random loss).
    pub dropped_packets: u64,
    /// Total bytes shipped into the propagation pipe.
    pub delivered_bytes: u64,
    /// Packets offered to `send`.
    enqueued_packets: u64,
    /// Duplicate copies created.
    duplicated_packets: u64,
    /// Payloads corrupted in place.
    corrupted_packets: u64,
    /// Packets and bytes popped by `recv`.
    recv_packets: u64,
    recv_bytes: u64,
    /// Trace duration in ms (cached).
    period_ms: u64,
    /// Drop/impairment event tracer (never consulted for decisions).
    tracer: Tracer,
}

impl Link {
    /// Build a link from its configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        debug_assert!(cfg.trace_ms.is_sorted(), "a trace's opportunities are in time order");
        let period_ms = cfg.trace_ms.last().map(|l| l + 1).unwrap_or(1).max(1);
        let mut rng = Rng::new(cfg.seed ^ 0x11ce);
        let pipeline = Pipeline::new(&cfg.impairments, &mut rng);
        let ctl_rng = rng.fork(0xf1a9);
        Link {
            cursor: 0,
            loops: 0,
            queue: VecDeque::new(),
            queued_bytes: 0,
            in_flight: VecDeque::new(),
            rng,
            pipeline,
            ctl_rng,
            down: false,
            degrade_keep: 1.0,
            degrade_loss: 0.0,
            dropped_bytes: 0,
            dropped_packets: 0,
            delivered_bytes: 0,
            enqueued_packets: 0,
            duplicated_packets: 0,
            corrupted_packets: 0,
            recv_packets: 0,
            recv_bytes: 0,
            period_ms,
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Attach a tracer reporting drops and impairment hits on this
    /// direction. Pass [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Apply a scripted [`LinkState`] (flap-schedule driven).
    pub fn set_state(&mut self, state: LinkState) {
        match state {
            LinkState::Up => {
                self.down = false;
                self.degrade_keep = 1.0;
                self.degrade_loss = 0.0;
            }
            LinkState::Down => {
                self.down = true;
            }
            LinkState::Degraded { keep, extra_loss } => {
                self.down = false;
                self.degrade_keep = keep.clamp(0.0, 1.0);
                self.degrade_loss = extra_loss.clamp(0.0, 1.0);
            }
        }
    }

    /// Current queue occupancy in bytes.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Conservation counters snapshot.
    pub fn stats(&self) -> Stats {
        Stats {
            enqueued: self.enqueued_packets,
            duplicated: self.duplicated_packets,
            corrupted: self.corrupted_packets,
            delivered: self.recv_packets,
            dropped: self.dropped_packets,
            queued: self.queue.len() as u64,
            in_pipe: self.in_flight.len() as u64,
            delivered_bytes: self.recv_bytes,
            dropped_bytes: self.dropped_bytes,
        }
    }

    /// Absolute time of the opportunity at `cursor` offset from now.
    fn opportunity_time(&self, index: usize, loops: u64) -> Instant {
        let ms = self.cfg.trace_ms[index % self.cfg.trace_ms.len()]
            + (loops + index as u64 / self.cfg.trace_ms.len() as u64) * self.period_ms;
        Instant::from_millis(ms)
    }

    fn drop_packet(&mut self, len: usize) {
        self.dropped_packets += 1;
        self.dropped_bytes += len as u64;
    }

    /// Enqueue a packet at `now`. Applies the impairment pipeline, random
    /// loss, and DropTail.
    pub fn send(&mut self, now: Instant, mut payload: Vec<u8>) {
        self.enqueued_packets += 1;
        if self.cfg.trace_ms.is_empty() {
            self.drop_packet(payload.len());
            self.tracer.emit(now, Event::LinkDrop { reason: "dead", bytes: payload.len() as u32 });
            return;
        }
        let ing = {
            let _prof = prof::span!("netsim/impair");
            self.pipeline.on_ingress(&mut payload)
        };
        if ing.drop {
            self.drop_packet(payload.len());
            self.tracer
                .emit(now, Event::LinkDrop { reason: "impairment", bytes: payload.len() as u32 });
            return;
        }
        if self.cfg.loss > 0.0 && self.rng.chance(self.cfg.loss) {
            self.drop_packet(payload.len());
            self.tracer.emit(now, Event::LinkDrop { reason: "loss", bytes: payload.len() as u32 });
            return;
        }
        if self.degrade_loss > 0.0 && self.ctl_rng.chance(self.degrade_loss) {
            self.drop_packet(payload.len());
            self.tracer
                .emit(now, Event::LinkDrop { reason: "degrade", bytes: payload.len() as u32 });
            return;
        }
        if ing.corrupted {
            self.corrupted_packets += 1;
            self.tracer.emit(now, Event::ImpairmentHit { stage: "corrupt" });
        }
        let copy = ing.duplicate.then(|| payload.clone());
        self.enqueue(now, payload);
        if let Some(copy) = copy {
            self.duplicated_packets += 1;
            self.tracer.emit(now, Event::ImpairmentHit { stage: "duplicate" });
            self.enqueue(now, copy);
        }
    }

    /// DropTail admission into the byte-bounded queue.
    fn enqueue(&mut self, now: Instant, payload: Vec<u8>) {
        if self.queued_bytes + payload.len() > self.cfg.queue_bytes {
            self.drop_packet(payload.len());
            self.tracer.emit(now, Event::LinkDrop { reason: "queue", bytes: payload.len() as u32 });
            return;
        }
        self.queued_bytes += payload.len();
        self.queue.push_back(Queued { payload, consumed: 0, enqueued_at: now });
    }

    /// Advance the trace clock to `now`, moving queued bytes into the
    /// propagation pipe at each delivery opportunity.
    pub fn poll(&mut self, now: Instant) {
        if self.cfg.trace_ms.is_empty() {
            return;
        }
        // With nothing to ship and no per-opportunity draw to make (a
        // degraded link draws for each one), the opportunities up to `now`
        // move the cursor and nothing else: jump over them.
        if self.down || (self.queue.is_empty() && self.degrade_keep >= 1.0) {
            return self.skip_to(now);
        }
        self.walk(now);
    }

    /// Put the cursor on the first opportunity after `now` by arithmetic
    /// over the trace: the one the walk would stop at.
    fn skip_to(&mut self, now: Instant) {
        if self.opportunity_time(self.cursor, self.loops) > now {
            return;
        }
        // An opportunity at millisecond `t` is due iff `t <= now_ms`.
        let now_ms = now.as_millis();
        let (loops, within) = (now_ms / self.period_ms, now_ms % self.period_ms);
        let cursor = self.cfg.trace_ms.partition_point(|&t| t <= within);
        (self.cursor, self.loops) =
            if cursor == self.cfg.trace_ms.len() { (0, loops + 1) } else { (cursor, loops) };
    }

    /// [`Link::poll`] one opportunity at a time.
    fn walk(&mut self, now: Instant) {
        loop {
            let opp_time = self.opportunity_time(self.cursor, self.loops);
            if opp_time > now {
                break;
            }
            self.advance_cursor();
            if self.down {
                continue; // opportunity wasted during outage
            }
            if self.degrade_keep < 1.0 && !self.ctl_rng.chance(self.degrade_keep) {
                continue; // opportunity wasted by soft degradation
            }
            // One opportunity ships up to OPPORTUNITY_BYTES, possibly
            // spanning several small packets (Mahimahi packs packets into
            // the quantum; a packet finishing mid-quantum frees the rest).
            let mut budget = OPPORTUNITY_BYTES;
            while budget > 0 {
                let Some(front) = self.queue.front_mut() else {
                    break;
                };
                let remaining = front.payload.len() - front.consumed;
                let take = remaining.min(budget);
                front.consumed += take;
                budget -= take;
                if front.consumed == front.payload.len() {
                    let q = self.queue.pop_front().expect("front exists");
                    self.queued_bytes -= q.payload.len();
                    self.delivered_bytes += q.payload.len() as u64;
                    let d = Delivered {
                        at: opp_time + self.cfg.delay + self.pipeline.ship_delay(),
                        queue_delay: opp_time.saturating_duration_since(q.enqueued_at),
                        payload: q.payload,
                    };
                    // Reorder/jitter skew breaks FIFO arrival: keep the
                    // pipe sorted so `recv` stays a front-pop.
                    let idx = self.in_flight.partition_point(|x| x.at <= d.at);
                    self.in_flight.insert(idx, d);
                } else {
                    break; // packet continues at the next opportunity
                }
            }
        }
    }

    fn advance_cursor(&mut self) {
        self.cursor += 1;
        if self.cursor >= self.cfg.trace_ms.len() {
            self.cursor = 0;
            self.loops += 1;
        }
    }

    /// Pop packets that have arrived at the far end by `now`, in arrival
    /// order, by value: they are counted as delivered at once, and the
    /// ones the caller does not take are dropped with the drain.
    pub fn recv(&mut self, now: Instant) -> std::collections::vec_deque::Drain<'_, Delivered> {
        self.poll(now);
        let arrived = self.in_flight.partition_point(|d| d.at <= now);
        for d in self.in_flight.range(..arrived) {
            self.recv_packets += 1;
            self.recv_bytes += d.payload.len() as u64;
        }
        self.in_flight.drain(..arrived)
    }

    /// Next instant at which something observable happens: a queued packet
    /// could ship or an in-flight packet arrives.
    pub fn next_event(&self, now: Instant) -> Option<Instant> {
        let mut next: Option<Instant> = self.in_flight.front().map(|d| d.at);
        if !self.queue.is_empty() && !self.cfg.trace_ms.is_empty() {
            // Earliest opportunity strictly after... at or after now.
            let mut idx = self.cursor;
            let mut loops = self.loops;
            // The cursor may point to an opportunity in the past if poll
            // hasn't run; compute the first opportunity >= now.
            let mut t = self.opportunity_time(idx, loops);
            let mut guard = 0;
            while t < now && guard < 4 * self.cfg.trace_ms.len() + 4 {
                idx += 1;
                if idx >= self.cfg.trace_ms.len() {
                    idx = 0;
                    loops += 1;
                }
                t = self.opportunity_time(idx, loops);
                guard += 1;
            }
            next = Some(next.map_or(t, |n: Instant| n.min(t)));
        }
        next
    }

    /// Instantaneous link capacity (Mbps) over a window ending at `now`,
    /// from the trace alone (used by experiment probes to plot the
    /// "link capacity" series of Fig. 1).
    pub fn capacity_mbps(&self, now: Instant, window: Duration) -> f64 {
        if self.cfg.trace_ms.is_empty() || window == Duration::ZERO {
            return 0.0;
        }
        let end_ms = now.as_millis();
        let start_ms = end_ms.saturating_sub(window.as_millis());
        let period = self.period_ms;
        let mut count = 0u64;
        // Count opportunities in [start_ms, end_ms) across loop wraps.
        let first_loop = start_ms / period;
        let last_loop = end_ms / period;
        for l in first_loop..=last_loop {
            for &t in self.cfg.trace_ms.iter() {
                let abs = l * period + t;
                if abs >= start_ms && abs < end_ms {
                    count += 1;
                }
            }
        }
        (count * OPPORTUNITY_BYTES as u64 * 8) as f64 / window.as_secs_f64() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::Impairment;

    fn ms(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    impl Link {
        /// What [`Link::recv`] delivers by `now`, collected.
        fn arrivals(&mut self, now: Instant) -> Vec<Delivered> {
            self.recv(now).collect()
        }
    }

    /// The idle-link jump against the walk it shortcuts: random traces
    /// (repeated timestamps, one entry, many periods crossed in one step),
    /// clocks that move by random steps, interleaved with sends and every
    /// link state. The link that jumps and the one walked one opportunity
    /// at a time deliver the same packets at the same instants after the
    /// same queueing, count the same, expect the same next event and stand
    /// on the same opportunity.
    #[test]
    fn prop_the_idle_jump_is_the_walk() {
        use xlink_lab::prop::*;
        let op = (0u8..9, 0u64..5_000, 1usize..4_000);
        let case = (vec_of(0u64..40, 1..12), vec_of(op, 1..80), 0u64..1_000);
        check("prop_the_idle_jump_is_the_walk", case, |(trace, ops, seed)| {
            let mut trace = trace.clone();
            trace.sort_unstable();
            let cfg = LinkConfig {
                trace_ms: trace.into(),
                delay: Duration::from_millis(3),
                queue_bytes: 12_000,
                loss: 0.05,
                seed: *seed,
                impairments: Impairments::none(),
            };
            let (mut jumps, mut walks) = (Link::new(cfg.clone()), Link::new(cfg));
            let arrived = |d: Delivered| (d.at, d.queue_delay, d.payload);
            let mut now = Instant::ZERO;
            for &(kind, step, len) in ops {
                let state = [
                    LinkState::Down,
                    LinkState::Up,
                    LinkState::Degraded { keep: 0.5, extra_loss: 0.1 },
                    LinkState::Degraded { keep: 1.0, extra_loss: 0.2 },
                ];
                match kind {
                    0..=3 => {
                        jumps.set_state(state[kind as usize]);
                        walks.set_state(state[kind as usize]);
                    }
                    4 | 5 => {
                        jumps.send(now, vec![kind; len]);
                        walks.send(now, vec![kind; len]);
                    }
                    // Now and then across many periods of the trace.
                    6 => now += Duration::from_micros(step * 997),
                    _ => now += Duration::from_micros(step % 200 * 7),
                }
                walks.walk(now);
                let jumped: Vec<_> = jumps.recv(now).map(arrived).collect();
                let walked: Vec<_> = walks.recv(now).map(arrived).collect();
                prop_assert_eq!(jumped, walked);
                prop_assert_eq!(jumps.stats(), walks.stats());
                prop_assert_eq!(jumps.next_event(now), walks.next_event(now));
                prop_assert_eq!((jumps.cursor, jumps.loops), (walks.cursor, walks.loops));
            }
            Ok(())
        });
    }

    fn simple_cfg(delay_ms: u64) -> LinkConfig {
        // One opportunity per ms → 12 Mbps.
        LinkConfig {
            trace_ms: (0..1000).collect(),
            delay: Duration::from_millis(delay_ms),
            queue_bytes: 100_000,
            loss: 0.0,
            seed: 1,
            impairments: Impairments::none(),
        }
    }

    fn simple_link(delay_ms: u64) -> Link {
        Link::new(simple_cfg(delay_ms))
    }

    fn impaired_link(delay_ms: u64, impairments: Impairments) -> Link {
        Link::new(simple_cfg(delay_ms).with_impairments(impairments))
    }

    #[test]
    fn delivers_after_propagation_delay() {
        let mut l = simple_link(10);
        l.send(ms(0), vec![0xab; 1000]);
        assert!(l.arrivals(ms(9)).is_empty());
        let got = l.arrivals(ms(10));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload.len(), 1000);
        assert_eq!(got[0].at, ms(10));
    }

    #[test]
    fn big_packet_takes_multiple_opportunities() {
        let mut l = simple_link(0);
        // 3000 bytes = 2 full opportunities ship it at t=1ms (0:1500,1:1500).
        l.send(ms(0), vec![1; 3000]);
        let got = l.arrivals(ms(0));
        assert!(got.is_empty());
        let got = l.arrivals(ms(1));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn small_packets_share_an_opportunity() {
        let mut l = simple_link(0);
        for _ in 0..3 {
            l.send(ms(0), vec![2; 400]);
        }
        // 1200 bytes fits one 1500-byte opportunity at t=0.
        let got = l.arrivals(ms(0));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn rate_matches_trace() {
        // 12 Mbps link: 800 MTU packets drain at one per millisecond.
        let mut l = Link::new(LinkConfig {
            trace_ms: (0..1000).collect(),
            delay: Duration::ZERO,
            queue_bytes: 2_000_000,
            loss: 0.0,
            seed: 1,
            impairments: Impairments::none(),
        });
        let n = 800;
        for _ in 0..n {
            l.send(ms(0), vec![0; OPPORTUNITY_BYTES]);
        }
        let got = l.arrivals(ms(799));
        assert_eq!(got.len(), n);
        assert_eq!(got.last().unwrap().at, ms(799));
    }

    #[test]
    fn trace_loops() {
        let mut l = Link::new(LinkConfig {
            trace_ms: vec![0, 500].into(),
            delay: Duration::ZERO,
            queue_bytes: 100_000,
            loss: 0.0,
            seed: 1,
            impairments: Impairments::none(),
        });
        // Period = 501ms; opportunities at 0,500,501,1001,1002,...
        for _ in 0..4 {
            l.send(ms(0), vec![0; OPPORTUNITY_BYTES]);
        }
        let times: Vec<u64> = l.arrivals(ms(3000)).iter().map(|d| d.at.as_millis()).collect();
        assert_eq!(times, vec![0, 500, 501, 1001]);
    }

    #[test]
    fn droptail_queue_overflows() {
        let mut l = Link::new(LinkConfig {
            trace_ms: vec![0].into(),
            delay: Duration::ZERO,
            queue_bytes: 3000,
            loss: 0.0,
            seed: 1,
            impairments: Impairments::none(),
        });
        for _ in 0..5 {
            l.send(ms(0), vec![0; 1000]);
        }
        assert_eq!(l.dropped_packets, 2);
        assert_eq!(l.queued_bytes(), 3000);
    }

    #[test]
    fn random_loss_drops_roughly_p() {
        let mut l = Link::new(LinkConfig {
            trace_ms: (0..1000).collect(),
            delay: Duration::ZERO,
            queue_bytes: usize::MAX / 2,
            loss: 0.3,
            seed: 42,
            impairments: Impairments::none(),
        });
        for _ in 0..2000 {
            l.send(ms(0), vec![0; 100]);
        }
        let frac = l.dropped_packets as f64 / 2000.0;
        assert!((0.25..0.35).contains(&frac), "loss frac = {frac}");
    }

    #[test]
    fn outage_stalls_then_recovers() {
        let mut l = simple_link(0);
        l.send(ms(0), vec![0; 1000]);
        l.set_state(LinkState::Down);
        assert!(l.arrivals(ms(100)).is_empty());
        l.set_state(LinkState::Up);
        let got = l.arrivals(ms(101));
        assert_eq!(got.len(), 1);
        assert!(got[0].queue_delay >= Duration::from_millis(100));
    }

    #[test]
    fn queue_delay_measured() {
        // Opportunities only at t=0 (then loops with period 1ms → every ms).
        let mut l = simple_link(0);
        l.send(ms(0), vec![0; OPPORTUNITY_BYTES]); // ships at 0
        l.send(ms(0), vec![0; OPPORTUNITY_BYTES]); // ships at 1
        let got = l.arrivals(ms(10));
        assert_eq!(got[0].queue_delay, Duration::ZERO);
        assert_eq!(got[1].queue_delay, Duration::from_millis(1));
    }

    #[test]
    fn next_event_reports_arrivals_and_opportunities() {
        let mut l = simple_link(5);
        assert!(l.next_event(ms(0)).is_none());
        l.send(ms(0), vec![0; 100]);
        // Queued: next event is the t=0 opportunity.
        assert_eq!(l.next_event(ms(0)), Some(ms(0)));
        l.poll(ms(0));
        // Now in flight: next event is arrival at t=5.
        assert_eq!(l.next_event(ms(0)), Some(ms(5)));
    }

    #[test]
    fn capacity_probe() {
        let l = simple_link(0); // 1500 B/ms = 12 Mbps
        let cap = l.capacity_mbps(ms(1000), Duration::from_millis(500));
        assert!((cap - 12.0).abs() < 0.5, "cap = {cap}");
    }

    #[test]
    fn empty_trace_never_delivers() {
        let mut l = Link::new(LinkConfig {
            trace_ms: Vec::new().into(),
            delay: Duration::ZERO,
            queue_bytes: 1000,
            loss: 0.0,
            seed: 0,
            impairments: Impairments::none(),
        });
        l.send(ms(0), vec![0; 100]);
        assert!(l.arrivals(ms(10_000)).is_empty());
        assert_eq!(l.dropped_packets, 1);
        assert!(l.next_event(ms(0)).is_none());
        assert!(l.stats().is_conserved());
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut l = impaired_link(0, Impairments::from(Impairment::Duplicate { prob: 1.0 }));
        for i in 0..10u8 {
            l.send(ms(0), vec![i; 200]);
        }
        let got = l.arrivals(ms(60_000));
        assert_eq!(got.len(), 20, "every packet doubled");
        let s = l.stats();
        assert_eq!(s.duplicated, 10);
        assert!(s.is_conserved());
    }

    #[test]
    fn corruption_mutates_but_still_delivers() {
        let mut l = impaired_link(0, Impairments::from(Impairment::Corrupt { prob: 1.0 }));
        for _ in 0..10 {
            l.send(ms(0), vec![0x5a; 300]);
        }
        let got = l.arrivals(ms(60_000));
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|d| d.payload.iter().any(|&b| b != 0x5a)));
        let s = l.stats();
        assert_eq!(s.corrupted, 10);
        assert!(s.is_conserved());
    }

    #[test]
    fn reorder_changes_order_but_recv_stays_time_sorted() {
        let imp =
            Impairments::from(Impairment::Reorder { prob: 0.5, window: Duration::from_millis(50) });
        let mut l = impaired_link(5, imp);
        for i in 0..40u8 {
            l.send(ms(i as u64), vec![i; 1200]);
        }
        let got = l.arrivals(ms(60_000));
        assert_eq!(got.len(), 40);
        assert!(got.windows(2).all(|w| w[0].at <= w[1].at), "recv must be time-sorted");
        let first_bytes: Vec<u8> = got.iter().map(|d| d.payload[0]).collect();
        let mut sorted = first_bytes.clone();
        sorted.sort_unstable();
        assert_ne!(first_bytes, sorted, "some packets should have been overtaken");
        assert!(l.stats().is_conserved());
    }

    #[test]
    fn bursty_loss_drops_in_runs() {
        // Mean burst 5 packets, ~20% of time in Bad → clustered drops.
        let imp = Impairments::from(Impairment::bursty_loss(0.05, 0.2));
        let mut cfg = simple_cfg(0).with_impairments(imp);
        cfg.queue_bytes = 10 << 20; // avoid DropTail polluting the count
        let mut l = Link::new(cfg);
        let n = 2000;
        for _ in 0..n {
            l.send(ms(0), vec![0; 100]);
        }
        let s = l.stats();
        let frac = s.dropped as f64 / n as f64;
        assert!((0.1..0.35).contains(&frac), "bursty loss frac = {frac}");
        assert!(s.is_conserved());
    }

    #[test]
    fn degraded_state_reduces_throughput() {
        let mut big = simple_cfg(0);
        big.queue_bytes = 10 << 20;
        let mut healthy = Link::new(big.clone());
        let mut degraded = Link::new(big);
        degraded.set_state(LinkState::Degraded { keep: 0.25, extra_loss: 0.0 });
        for _ in 0..500 {
            healthy.send(ms(0), vec![0; OPPORTUNITY_BYTES]);
            degraded.send(ms(0), vec![0; OPPORTUNITY_BYTES]);
        }
        let h = healthy.arrivals(ms(500)).len();
        let d = degraded.arrivals(ms(500)).len();
        assert!(d * 2 < h, "degraded link should ship far fewer ({d} vs {h})");
        degraded.set_state(LinkState::Up);
        let drained = degraded.arrivals(ms(60_000)).len();
        assert_eq!(d + drained, 500, "recovery drains the backlog");
    }

    #[test]
    fn degrade_extra_loss_drops_at_ingress() {
        let mut l = simple_link(0);
        l.set_state(LinkState::Degraded { keep: 1.0, extra_loss: 0.5 });
        for _ in 0..1000 {
            l.send(ms(0), vec![0; 100]);
        }
        let frac = l.dropped_packets as f64 / 1000.0;
        assert!((0.4..0.6).contains(&frac), "extra loss frac = {frac}");
        assert!(l.stats().is_conserved());
    }

    #[test]
    fn impaired_runs_are_deterministic() {
        let run = || {
            let imp = Impairments::none()
                .with(Impairment::bursty_loss(0.02, 0.3))
                .with(Impairment::Reorder { prob: 0.3, window: Duration::from_millis(20) })
                .with(Impairment::Duplicate { prob: 0.1 })
                .with(Impairment::Corrupt { prob: 0.1 })
                .with(Impairment::Jitter { sigma: Duration::from_millis(3) });
            let mut l = impaired_link(2, imp);
            for i in 0..200u64 {
                l.send(ms(i), vec![(i % 251) as u8; 700]);
            }
            let got = l.arrivals(ms(60_000));
            (got.len(), got.iter().map(|d| d.at.as_micros()).sum::<u64>(), l.stats())
        };
        assert_eq!(run(), run());
    }
}
