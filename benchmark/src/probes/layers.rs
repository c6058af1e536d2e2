//! Probes of the `core` crate (scheduler, QoE gate, re-injection ledger,
//! CID encoding) and of `netsim` (links, impairments, the world loop).

use super::{counted, each, timed, Body, Probe, Sample};
use std::hint::black_box;
use std::time::Instant as Wall;
use xlink_clock::{Duration, Instant};
use xlink_core::lb::encode_cid;
use xlink_core::sched::{ecf_choice, min_rtt_choice, ReinjectKey, ReinjectLedger};
use xlink_core::{reinjection_decision, QoeControl, QoeSignal};
use xlink_netsim::{Endpoint, Impairment, Impairments, Link, LinkConfig, Path, Transmit, World};

pub fn probes() -> Vec<Probe> {
    vec![
        timed("core.sched.min_rtt_ns", sched_min_rtt),
        timed("core.sched.ecf_ns", sched_ecf),
        timed("core.qoe.decision_ns", qoe_decision),
        timed("core.ledger.record_contains_ns", ledger_record_contains),
        timed("core.lb.encode_cid_ns", lb_encode_cid),
        counted("netsim.link.busy_pkt_ns", "netsim.link.busy_pkt_allocs", || {
            link_busy(Impairments::none())
        }),
        timed("netsim.link.idle_sim_s_ns", link_idle),
        timed("netsim.link.next_event_ns", link_next_event),
        timed("netsim.impair.pkt_ns", || {
            link_busy(
                Impairments::none()
                    .with(Impairment::bursty_loss(0.01, 0.3))
                    .with(Impairment::Reorder { prob: 0.05, window: Duration::from_millis(5) })
                    .with(Impairment::Jitter { sigma: Duration::from_millis(1) }),
            )
        }),
        timed("netsim.world.pkt_ns", world_busy),
        timed("netsim.world.idle_sim_s_ns", world_idle),
    ]
}

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn sched_min_rtt() -> Body {
    let candidates = [(0usize, ms(20), true), (1, ms(50), true)];
    each(move || {
        black_box(min_rtt_choice(black_box(&candidates)));
    })
}

/// The interesting ECF case: the fast path's window is full.
fn sched_ecf() -> Body {
    let candidates = [(0usize, ms(20), false), (1, ms(35), true)];
    each(move || {
        black_box(ecf_choice(black_box(&candidates)));
    })
}

/// Algorithm 1 in its middle band, where it must compare against Eq. 1.
fn qoe_decision() -> Body {
    let control = QoeControl::double_threshold_ms(300, 1500);
    let q = QoeSignal { cached_bytes: 250_000, cached_frames: 20, bps: 2_000_000, fps: 30 };
    each(move || {
        black_box(reinjection_decision(black_box(control), Some(black_box(&q)), Some(ms(120))));
    })
}

/// Record a re-injection, look an older one up, expire: about 32 live
/// entries, as on a path with a few RTTs of re-injected ranges in flight.
fn ledger_record_contains() -> Body {
    let mut ledger = ReinjectLedger::default();
    let mut i = 0u64;
    each(move || {
        i += 1;
        let now = Instant::from_millis(i);
        let key = |n: u64| ReinjectKey { stream_id: 4, start: n * 1200, path: 1 };
        ledger.record(key(i), now);
        black_box(ledger.contains(&key(i.saturating_sub(16))));
        ledger.expire(now, ms(32));
    })
}

fn lb_encode_cid() -> Body {
    let mut entropy = 0u64;
    each(move || {
        entropy += 1;
        black_box(encode_cid(black_box(3), 1, entropy));
    })
}

const PACKET: usize = 1200;
/// Packets a 100 Mbps link ships per millisecond (8.3 × 1500 B).
const PACKETS_PER_MS: u64 = 8;

/// A saturated 100 Mbps link: every millisecond, send what it can carry
/// and receive what has arrived. One operation is one packet through
/// `send` + `poll` + `recv` (the payload `Vec` is part of it, as it is for
/// an endpoint handing a datagram to the world).
fn link_busy(impairments: Impairments) -> Body {
    let cfg = LinkConfig::constant_rate(100.0, ms(10)).with_impairments(impairments);
    Box::new(move |iters| {
        let mut link = Link::new(cfg.clone());
        let started = Wall::now();
        for tick in 0..iters {
            let now = Instant::from_millis(tick);
            for _ in 0..PACKETS_PER_MS {
                link.send(now, vec![0u8; PACKET]);
            }
            black_box(link.recv(now));
        }
        Sample { elapsed: started.elapsed(), ops: iters * PACKETS_PER_MS }
    })
}

/// The trace a fleet session's link replays: ~20 Mbps, 30 s, looping.
fn fleet_like_link() -> LinkConfig {
    let trace = xlink_traces::stable_lte(7, 30_000);
    LinkConfig {
        trace_ms: trace.opportunities_ms,
        delay: ms(27),
        queue_bytes: 384 * 1024,
        loss: 0.001,
        seed: 7,
        impairments: Impairments::none(),
    }
}

/// `poll` across one simulated second with nothing queued.
fn link_idle() -> Body {
    let mut link = Link::new(fleet_like_link());
    let mut now = Instant::ZERO;
    each(move || {
        now += Duration::from_secs(1);
        link.poll(black_box(now));
    })
}

/// `next_event` with a packet waiting for its delivery opportunity.
fn link_next_event() -> Body {
    let mut link = Link::new(fleet_like_link());
    let now = Instant::from_millis(5_000);
    link.poll(now);
    link.send(now, vec![0u8; PACKET]);
    each(move || {
        black_box(link.next_event(black_box(now)));
    })
}

/// A no-crypto endpoint: on every tick it may send `per_tick` more of its
/// `to_send` packets, and it answers every second packet it receives with
/// a 40-byte one.
struct Plain {
    to_send: u64,
    per_tick: u64,
    tick: Duration,
    credit: u64,
    to_answer: u64,
    received: u64,
    next_tick: Instant,
}

impl Plain {
    fn new(to_send: u64, per_tick: u64, tick: Duration) -> Self {
        let (credit, to_answer, received) = (per_tick, 0, 0);
        Plain {
            to_send,
            per_tick,
            tick,
            credit,
            to_answer,
            received,
            next_tick: Instant::ZERO + tick,
        }
    }
}

impl Endpoint for Plain {
    fn on_datagram(&mut self, _now: Instant, _path: usize, payload: &[u8]) {
        self.received += 1;
        if payload.len() == PACKET && self.received.is_multiple_of(2) {
            self.to_answer += 1;
        }
    }

    fn poll_transmit(&mut self, _now: Instant) -> Option<Transmit> {
        let len = if self.to_answer > 0 {
            self.to_answer -= 1;
            40
        } else if self.to_send > 0 && self.credit > 0 {
            self.to_send -= 1;
            self.credit -= 1;
            PACKET
        } else {
            return None;
        };
        Some(Transmit { path: (self.to_send % 2) as usize, payload: vec![0u8; len] })
    }

    fn poll_timeout(&self) -> Option<Instant> {
        Some(self.next_tick)
    }

    fn on_timeout(&mut self, now: Instant) {
        self.credit = self.per_tick;
        self.next_tick = now + self.tick;
    }
}

/// The world loop carrying traffic between two no-crypto endpoints: the
/// client fills two 100 Mbps paths for a quarter of a simulated second.
/// One operation is one packet enqueued.
fn world_busy() -> Body {
    const PACKETS: u64 = 4_000;
    let link = LinkConfig::constant_rate(100.0, ms(10));
    Box::new(move |iters| {
        let started = Wall::now();
        let mut packets = 0;
        for _ in 0..iters {
            let paths = vec![Path::symmetric(link.clone()), Path::symmetric(link.clone())];
            let client = Plain::new(PACKETS, 2 * PACKETS_PER_MS, ms(1));
            let mut world = World::new(client, Plain::new(0, 0, ms(50)), paths);
            world.run_until(Instant::from_millis(PACKETS / (2 * PACKETS_PER_MS) + 30));
            packets += world.total_packets_enqueued();
        }
        Sample { elapsed: started.elapsed(), ops: packets }
    })
}

/// One simulated second of a world with nothing to carry: two endpoints
/// that only tick (every 50 ms, like the video client), two fleet-like
/// paths.
fn world_idle() -> Body {
    let link = fleet_like_link();
    let paths = vec![Path::symmetric(link.clone()), Path::symmetric(link)];
    let mut world = World::new(Plain::new(0, 0, ms(50)), Plain::new(0, 0, ms(50)), paths);
    let mut until = Instant::ZERO;
    each(move || {
        until += Duration::from_secs(1);
        black_box(world.run_until(until));
    })
}
