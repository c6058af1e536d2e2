//! Two-host, N-path discrete-event world.
//!
//! A [`World`] owns a client endpoint, a server endpoint, and a set of
//! bidirectional paths (each an uplink + downlink [`Link`] pair). It runs
//! the classic poll loop: deliver arrived datagrams, let endpoints
//! transmit, fire timers, then jump virtual time to the next event.

use crate::impair::{FlapSchedule, LinkState};
use crate::link::{Link, LinkConfig, Stats};
use xlink_clock::{Duration, Instant};
use xlink_obs::{prof, Event, TraceLog, Tracer};

/// A datagram an endpoint wants to transmit.
#[derive(Debug, Clone)]
pub struct Transmit {
    /// Which path to send on (index into the world's path table).
    pub path: usize,
    /// The datagram bytes.
    pub payload: Vec<u8>,
}

/// Anything that can be driven by the simulator.
pub trait Endpoint {
    /// A datagram arrived on `path`.
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]);

    /// Produce the next datagram to send, if any.
    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit>;

    /// Earliest timer deadline, if armed.
    fn poll_timeout(&self) -> Option<Instant>;

    /// A timer fired.
    fn on_timeout(&mut self, now: Instant);

    /// Called once per event-loop iteration for housekeeping (e.g. a video
    /// player consuming frames). Default: nothing.
    fn on_tick(&mut self, now: Instant) {
        let _ = now;
    }

    /// True when this endpoint no longer needs the simulation to continue.
    fn is_done(&self) -> bool {
        false
    }
}

/// One bidirectional path.
#[derive(Debug)]
pub struct Path {
    /// Client → server direction.
    pub up: Link,
    /// Server → client direction.
    pub down: Link,
}

impl Path {
    /// Build from two link configurations.
    pub fn new(up: LinkConfig, down: LinkConfig) -> Self {
        Path { up: Link::new(up), down: Link::new(down) }
    }

    /// Symmetric path: same trace/delay both ways.
    pub fn symmetric(cfg: LinkConfig) -> Self {
        Path { up: Link::new(cfg.clone()), down: Link::new(cfg) }
    }

    /// Apply a scripted [`LinkState`](crate::impair::LinkState) to both
    /// directions.
    pub fn set_state(&mut self, state: crate::impair::LinkState) {
        self.up.set_state(state);
        self.down.set_state(state);
    }

    /// Conservation-counter snapshots for (up, down).
    pub fn stats(&self) -> (Stats, Stats) {
        (self.up.stats(), self.down.stats())
    }
}

/// Rounds with activity allowed at one instant before the run is declared
/// livelocked. A round delivers, fires or sends something, so real bursts
/// settle in hundreds of rounds; an endpoint whose due timer is never
/// disarmed reaches this in seconds instead of exhausting the whole-run
/// budget over minutes.
const MAX_ROUNDS_PER_INSTANT: u64 = 1_000_000;

/// The simulation world.
pub struct World<C: Endpoint, S: Endpoint> {
    /// Client endpoint.
    pub client: C,
    /// Server endpoint.
    pub server: S,
    /// Paths connecting them.
    pub paths: Vec<Path>,
    /// Current virtual time.
    now: Instant,
    /// Scripted flap schedules: (path index, schedule, next step index).
    flaps: Vec<(usize, FlapSchedule, usize)>,
    /// Per-path tracers for scripted link-state changes (index-aligned
    /// with `paths`; empty when tracing is off).
    path_tracers: Vec<Tracer>,
    /// Safety valve for runaway loops.
    max_iterations: u64,
}

impl<C: Endpoint, S: Endpoint> World<C, S> {
    /// Assemble a world at t=0.
    pub fn new(client: C, server: S, paths: Vec<Path>) -> Self {
        World {
            client,
            server,
            paths,
            now: Instant::ZERO,
            flaps: Vec::new(),
            path_tracers: Vec::new(),
            max_iterations: 50_000_000,
        }
    }

    /// Attach a tracer to every link direction (`netsim.path<i>.up` /
    /// `netsim.path<i>.down`) and to the path itself (`netsim.path<i>`,
    /// carrying scripted link-state changes).
    pub fn set_tracer(&mut self, log: &TraceLog) {
        self.path_tracers.clear();
        for (i, p) in self.paths.iter_mut().enumerate() {
            p.up.set_tracer(log.tracer(&format!("netsim.path{i}.up")));
            p.down.set_tracer(log.tracer(&format!("netsim.path{i}.down")));
            self.path_tracers.push(log.tracer(&format!("netsim.path{i}")));
        }
    }

    fn trace_link_state(&self, path: usize, state: LinkState) {
        let Some(t) = self.path_tracers.get(path) else {
            return;
        };
        let label = match state {
            LinkState::Up => "up",
            LinkState::Down => "down",
            LinkState::Degraded { .. } => "degraded",
        };
        t.emit(self.now, Event::LinkStateChange { state: label });
    }

    /// Script the links: one up/down/degrade schedule per listed path.
    /// This is the only way link state changes during a run.
    pub fn with_flap_schedules(mut self, flaps: Vec<(usize, FlapSchedule)>) -> Self {
        self.flaps = flaps.into_iter().map(|(p, s)| (p, s, 0)).collect();
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// One scheduling round at the current instant: apply flap-schedule
    /// steps due now, deliver arrived datagrams, fire
    /// timers, run housekeeping ticks, and drain up to 64 transmissions.
    /// Returns true if anything happened.
    fn round(&mut self) -> bool {
        // Apply flap-schedule steps due now.
        let mut flapped: Vec<(usize, LinkState)> = Vec::new();
        for (path, sched, idx) in &mut self.flaps {
            while let Some(step) = sched.steps().get(*idx).filter(|s| s.at <= self.now) {
                if let Some(p) = self.paths.get_mut(*path) {
                    p.set_state(step.state);
                    flapped.push((*path, step.state));
                }
                *idx += 1;
            }
        }
        for (path, state) in flapped {
            self.trace_link_state(path, state);
        }
        // Deliver arrived datagrams.
        let mut activity = false;
        {
            let _prof = prof::span!("netsim/link_delivery");
            for (i, path) in self.paths.iter_mut().enumerate() {
                for d in path.up.recv(self.now) {
                    self.server.on_datagram(self.now, i, &d.payload);
                    activity = true;
                }
                for d in path.down.recv(self.now) {
                    self.client.on_datagram(self.now, i, &d.payload);
                    activity = true;
                }
            }
        }
        // Timers.
        if self.client.poll_timeout().is_some_and(|t| t <= self.now) {
            self.client.on_timeout(self.now);
            activity = true;
        }
        if self.server.poll_timeout().is_some_and(|t| t <= self.now) {
            self.server.on_timeout(self.now);
            activity = true;
        }
        // Housekeeping ticks.
        self.client.on_tick(self.now);
        self.server.on_tick(self.now);
        // Transmissions (bounded per iteration to interleave fairly).
        for _ in 0..64 {
            let mut sent = false;
            if let Some(tx) = self.client.poll_transmit(self.now) {
                if let Some(p) = self.paths.get_mut(tx.path) {
                    p.up.send(self.now, tx.payload);
                }
                sent = true;
            }
            if let Some(tx) = self.server.poll_transmit(self.now) {
                if let Some(p) = self.paths.get_mut(tx.path) {
                    p.down.send(self.now, tx.payload);
                }
                sent = true;
            }
            if !sent {
                break;
            }
            activity = true;
        }
        activity
    }

    /// Earliest future event across links, endpoint timers and flap
    /// schedules. `None` means fully quiescent.
    fn next_wake(&self) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut consider = |t: Option<Instant>| {
            if let Some(t) = t {
                next = Some(next.map_or(t, |n: Instant| n.min(t)));
            }
        };
        for p in &self.paths {
            consider(p.up.next_event(self.now));
            consider(p.down.next_event(self.now));
        }
        consider(self.client.poll_timeout());
        consider(self.server.poll_timeout());
        for (_, sched, idx) in &self.flaps {
            consider(sched.steps().get(*idx).map(|s| s.at));
        }
        next
    }

    /// Run until `deadline`, both endpoints report done, or quiescence.
    /// Returns the time the loop stopped.
    pub fn run_until(&mut self, deadline: Instant) -> Instant {
        let mut iterations = 0u64;
        let mut rounds_here = 0u64;
        loop {
            iterations += 1;
            if iterations > self.max_iterations {
                panic!("simulation exceeded {} iterations", self.max_iterations);
            }
            let activity = self.round();
            if self.client.is_done() && self.server.is_done() {
                return self.now;
            }
            if self.now >= deadline {
                return self.now;
            }
            if activity {
                rounds_here += 1;
                if rounds_here > MAX_ROUNDS_PER_INSTANT {
                    panic!("simulation livelocked: {rounds_here} rounds at {}", self.now);
                }
                continue; // re-run at the same instant until quiescent
            }
            rounds_here = 0;
            // Jump to the next interesting time.
            match self.next_wake() {
                Some(t) if t > self.now => {
                    self.now = t.min(deadline);
                }
                Some(_) => {
                    // An event at or before now that produced no activity:
                    // nudge time forward to avoid spinning.
                    self.now = (self.now + Duration::from_micros(1)).min(deadline);
                }
                None => return self.now, // fully quiescent
            }
        }
    }

    /// Total packets offered to the wire across every path and both
    /// directions (the fleet bench's simulated-packet counter).
    pub fn total_packets_enqueued(&self) -> u64 {
        self.paths
            .iter()
            .map(|p| {
                let (up, down) = p.stats();
                up.enqueued + down.enqueued
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::OPPORTUNITY_BYTES;

    /// Test endpoint: sends `count` packets at start, echoes nothing;
    /// counts what it receives.
    struct Blaster {
        to_send: usize,
        path: usize,
        received: Vec<(Instant, usize)>,
        done_after: usize,
    }

    impl Endpoint for Blaster {
        fn on_datagram(&mut self, now: Instant, _path: usize, payload: &[u8]) {
            self.received.push((now, payload.len()));
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<Transmit> {
            if self.to_send == 0 {
                return None;
            }
            self.to_send -= 1;
            Some(Transmit { path: self.path, payload: vec![0xaa; OPPORTUNITY_BYTES] })
        }
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn on_timeout(&mut self, _now: Instant) {}
        fn is_done(&self) -> bool {
            self.received.len() >= self.done_after && self.to_send == 0
        }
    }

    fn blaster(n: usize, path: usize, done_after: usize) -> Blaster {
        Blaster { to_send: n, path, received: Vec::new(), done_after }
    }

    fn fast_path(delay_ms: u64) -> Path {
        Path::symmetric(LinkConfig {
            trace_ms: (0..1000).collect(),
            delay: xlink_clock::Duration::from_millis(delay_ms),
            queue_bytes: 10_000_000,
            loss: 0.0,
            seed: 7,
            impairments: crate::impair::Impairments::none(),
        })
    }

    #[test]
    fn packets_flow_client_to_server() {
        let mut w = World::new(blaster(10, 0, 0), blaster(0, 0, 10), vec![fast_path(5)]);
        w.run_until(Instant::from_secs(10));
        assert_eq!(w.server.received.len(), 10);
        // First arrival: the t=0 opportunity fires before the packet is
        // queued (deliver-then-transmit ordering), so the first quantum is
        // the t=1ms one, plus 5ms propagation.
        assert_eq!(w.server.received[0].0, Instant::from_millis(6));
        // 12 Mbps → one per ms thereafter.
        assert_eq!(w.server.received[9].0, Instant::from_millis(15));
    }

    #[test]
    fn run_stops_when_done() {
        let mut w = World::new(blaster(3, 0, 0), blaster(0, 0, 3), vec![fast_path(1)]);
        let end = w.run_until(Instant::from_secs(100));
        assert!(end < Instant::from_secs(1));
    }

    #[test]
    fn quiescent_world_returns_early() {
        let mut w = World::new(blaster(0, 0, 1), blaster(0, 0, 1), vec![fast_path(1)]);
        let end = w.run_until(Instant::from_secs(100));
        assert_eq!(end, Instant::ZERO);
    }

    #[test]
    fn multiple_paths_are_independent() {
        let paths = vec![fast_path(1), fast_path(50)];
        let mut w = World::new(blaster(1, 1, 0), blaster(0, 0, 1), paths);
        w.run_until(Instant::from_secs(5));
        assert_eq!(w.server.received.len(), 1);
        assert_eq!(w.server.received[0].0, Instant::from_millis(51));
    }

    #[test]
    fn flap_schedule_delays_delivery() {
        use crate::impair::FlapSchedule;
        let sched = FlapSchedule::outage(Instant::ZERO, Instant::from_millis(200));
        let mut w = World::new(blaster(1, 0, 0), blaster(0, 0, 1), vec![fast_path(0)])
            .with_flap_schedules(vec![(0, sched)]);
        w.run_until(Instant::from_secs(5));
        assert_eq!(w.server.received.len(), 1);
        assert!(w.server.received[0].0 >= Instant::from_millis(200));
        let (up, _) = w.paths[0].stats();
        assert!(up.is_conserved());
    }

    /// An endpoint whose timer is always due: the world must call the
    /// livelock instead of spinning through its whole-run budget.
    struct StuckTimer;

    impl Endpoint for StuckTimer {
        fn on_datagram(&mut self, _now: Instant, _path: usize, _payload: &[u8]) {}
        fn poll_transmit(&mut self, _now: Instant) -> Option<Transmit> {
            None
        }
        fn poll_timeout(&self) -> Option<Instant> {
            Some(Instant::ZERO)
        }
        fn on_timeout(&mut self, _now: Instant) {}
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn timer_that_stays_due_is_reported_as_livelock() {
        World::new(StuckTimer, blaster(0, 0, 1), vec![fast_path(1)])
            .run_until(Instant::from_secs(1));
    }

    #[test]
    fn deadline_respected() {
        // Endpoints never report done; the deadline must stop the loop.
        let mut w = World::new(blaster(0, 0, 99), blaster(0, 0, 99), vec![fast_path(1)]);
        let end = w.run_until(Instant::from_millis(100));
        assert!(end <= Instant::from_millis(100));
    }
}
