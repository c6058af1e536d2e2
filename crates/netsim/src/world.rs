//! Two-host, N-path discrete-event world.
//!
//! A [`World`] owns a client endpoint, a server endpoint, and a set of
//! bidirectional paths (each an uplink + downlink [`Link`] pair). It runs
//! the classic poll loop: deliver arrived datagrams, fire due timers, let
//! endpoints transmit, then jump virtual time to the next event. An
//! [`Endpoint`] acts only on a datagram or a timer, and the world asks it
//! for a datagram only after such an input.

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

/// Anything that can be driven by the simulator. It changes only on an
/// input, a datagram or a fired timer, so a `None` from
/// [`Endpoint::poll_transmit`] holds until the next one: the world asks it
/// to send only after an input and on entry to [`World::run_until`].
pub trait Endpoint {
    /// A datagram arrived on `path`.
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]);

    /// A datagram arrived on `path`, lent mutably: an endpoint that
    /// decrypts may open it where it lies. This is how the world delivers.
    /// Default: [`Endpoint::on_datagram`].
    fn on_datagram_in_place(&mut self, now: Instant, path: usize, payload: &mut [u8]) {
        self.on_datagram(now, path, payload);
    }

    /// A datagram this endpoint sent has been delivered and read: its
    /// buffer comes back to send from again, the way a NIC completes a
    /// transmit. Default: dropped.
    fn recycle(&mut self, buffer: Vec<u8>) {
        drop(buffer);
    }

    /// Produce the next datagram to send, if any.
    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit>;

    /// Earliest timer deadline, if armed.
    fn poll_timeout(&self) -> Option<Instant>;

    /// A timer fired.
    fn on_timeout(&mut self, now: Instant);

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

    /// Apply a scripted [`LinkState`] to both directions.
    pub fn set_state(&mut self, state: LinkState) {
        self.up.set_state(state);
        self.down.set_state(state);
    }

    /// Conservation-counter snapshots for (up, down).
    pub fn stats(&self) -> (Stats, Stats) {
        (self.up.stats(), self.down.stats())
    }
}

/// Ask `endpoint` for a datagram if it may have one; a `None` clears
/// `ready` until its next input.
fn poll<E: Endpoint>(endpoint: &mut E, ready: &mut bool, now: Instant) -> Option<Transmit> {
    let tx = if *ready { endpoint.poll_transmit(now) } else { None };
    *ready = tx.is_some();
    tx
}

/// Trace a scripted link-state change on its path's tracer, if it has one.
fn trace_link_state(tracer: Option<&Tracer>, now: Instant, state: LinkState) {
    let Some(t) = tracer else { return };
    let label = match state {
        LinkState::Up => "up",
        LinkState::Down => "down",
        LinkState::Degraded { .. } => "degraded",
    };
    t.emit(now, Event::LinkStateChange { state: label });
}

/// Rounds with activity allowed at one instant before the run is declared
/// livelocked. A round delivers, fires or sends something, so real bursts
/// settle in hundreds of rounds; an endpoint whose due timer is never
/// disarmed reaches this in seconds instead of exhausting the whole-run
/// budget over minutes.
const MAX_ROUNDS_PER_INSTANT: u64 = 1_000_000;

/// Rounds in one [`World::run_until`] before the run is declared runaway.
const MAX_ITERATIONS: u64 = 50_000_000;

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
    /// The client, then the server, may have something to send: set by
    /// an input and on entry to [`World::run_until`], cleared by a `None`.
    ready: [bool; 2],
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
            ready: [true; 2],
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

    /// Script the links: one up/down/degrade schedule per listed path.
    /// This is the only way link state changes during a run. Panics if a
    /// schedule names a path the world does not have.
    pub fn with_flap_schedules(mut self, flaps: Vec<(usize, FlapSchedule)>) -> Self {
        let paths = self.paths.len();
        for (path, _) in &flaps {
            assert!(
                *path < paths,
                "flap schedule for path {path}, but the world has {paths} paths"
            );
        }
        self.flaps = flaps.into_iter().map(|(p, s)| (p, s, 0)).collect();
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// One scheduling round at the current instant: apply flap-schedule
    /// steps due now, deliver arrived datagrams, fire timers, and drain up
    /// to 64 transmissions from the endpoints that may have any.
    /// Returns true if anything happened. Before transmitting, debug builds
    /// ask each endpoint that took no input since its last `None` again.
    fn round(&mut self) -> bool {
        // Apply flap-schedule steps due now.
        for (path, sched, idx) in &mut self.flaps {
            while let Some(step) = sched.steps().get(*idx).filter(|s| s.at <= self.now) {
                self.paths[*path].set_state(step.state);
                trace_link_state(self.path_tracers.get(*path), self.now, step.state);
                *idx += 1;
            }
        }
        // Deliver arrived datagrams.
        let mut activity = false;
        {
            let _prof = prof::span!("netsim/link_delivery");
            // Each datagram is read where it lies, and its buffer goes back
            // to the endpoint that sent it.
            for (i, path) in self.paths.iter_mut().enumerate() {
                for mut d in path.up.recv(self.now) {
                    self.server.on_datagram_in_place(self.now, i, &mut d.payload);
                    self.client.recycle(d.payload);
                    self.ready[1] = true;
                    activity = true;
                }
                for mut d in path.down.recv(self.now) {
                    self.client.on_datagram_in_place(self.now, i, &mut d.payload);
                    self.server.recycle(d.payload);
                    self.ready[0] = true;
                    activity = true;
                }
            }
        }
        // Timers.
        if self.client.poll_timeout().is_some_and(|t| t <= self.now) {
            self.client.on_timeout(self.now);
            self.ready[0] = true;
            activity = true;
        }
        if self.server.poll_timeout().is_some_and(|t| t <= self.now) {
            self.server.on_timeout(self.now);
            self.ready[1] = true;
            activity = true;
        }
        #[cfg(debug_assertions)]
        assert!(
            (self.ready[0] || self.client.poll_transmit(self.now).is_none())
                && (self.ready[1] || self.server.poll_transmit(self.now).is_none()),
            "an endpoint sent at {} with no input since its last None",
            self.now
        );
        // Transmissions (bounded per iteration to interleave fairly).
        for _ in 0..64 {
            let mut sent = false;
            if let Some(tx) = poll(&mut self.client, &mut self.ready[0], self.now) {
                if let Some(p) = self.paths.get_mut(tx.path) {
                    p.up.send(self.now, tx.payload);
                }
                sent = true;
            }
            if let Some(tx) = poll(&mut self.server, &mut self.ready[1], self.now) {
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
        // The caller may have changed either endpoint since the last call.
        self.ready = [true; 2];
        let mut iterations = 0u64;
        let mut rounds_here = 0u64;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                panic!("simulation exceeded {MAX_ITERATIONS} iterations");
            }
            let activity = self.round();
            if self.client.is_done() && self.server.is_done() {
                return self.now;
            }
            if self.now >= deadline {
                return self.now;
            }
            // Another round at this instant only if it has work left: an
            // endpoint that may still send, or an event already due.
            let next = self.next_wake();
            if activity && (self.ready.contains(&true) || next.is_some_and(|t| t <= self.now)) {
                rounds_here += 1;
                if rounds_here > MAX_ROUNDS_PER_INSTANT {
                    panic!("simulation livelocked: {rounds_here} rounds at {}", self.now);
                }
                continue;
            }
            rounds_here = 0;
            // Jump to the next interesting time.
            match next {
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
            trace_ms: xlink_traces::Opportunities::from_timestamps(0..1000),
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

    /// A mistyped path index must not leave the run silently fault-free.
    #[test]
    #[should_panic(expected = "flap schedule for path 1, but the world has 1 paths")]
    fn flap_schedule_for_a_missing_path_is_rejected() {
        let sched = FlapSchedule::outage(Instant::ZERO, Instant::from_millis(200));
        let _ = World::new(blaster(1, 0, 0), blaster(0, 0, 1), vec![fast_path(0)])
            .with_flap_schedules(vec![(1, sched)]);
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

    /// Sends one datagram at each of its timers; notes when it is asked
    /// to send, and whether it took an input since it last had nothing,
    /// and when a datagram reaches it.
    struct Counted {
        timers: Vec<Instant>,
        queued: usize,
        fresh: bool,
        polls: Vec<(Instant, bool)>,
        received: Vec<Instant>,
    }

    fn counted(timers: Vec<Instant>) -> Counted {
        Counted { timers, queued: 0, fresh: true, polls: vec![], received: vec![] }
    }

    impl Endpoint for Counted {
        fn on_datagram(&mut self, now: Instant, _path: usize, _payload: &[u8]) {
            self.received.push(now);
            self.fresh = true;
        }
        fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
            self.polls.push((now, self.fresh));
            self.fresh = self.queued > 0;
            self.queued = self.queued.checked_sub(1)?;
            Some(Transmit { path: 0, payload: vec![0xaa; 100] })
        }
        fn poll_timeout(&self) -> Option<Instant> {
            self.timers.first().copied()
        }
        fn on_timeout(&mut self, _now: Instant) {
            self.timers.remove(0);
            self.queued += 1;
            self.fresh = true;
        }
    }

    #[test]
    fn an_endpoint_is_asked_again_only_after_an_input() {
        let ms = Instant::from_millis;
        let mut w =
            World::new(counted(vec![ms(5), ms(10), ms(15)]), counted(vec![]), vec![fast_path(1)]);
        w.run_until(ms(100));
        // Each poll after an input; a debug build also asks in the other
        // rounds, to check that the last `None` holds.
        let after_input = |polls: &[(Instant, bool)]| -> Vec<Instant> {
            assert!(cfg!(debug_assertions) || polls.iter().all(|&(_, fresh)| fresh));
            polls.iter().filter(|&&(_, fresh)| fresh).map(|&(t, _)| t).collect()
        };
        // The server is asked once on entry, then once in each round that
        // delivered to it, and never at the client's timers.
        assert_eq!(w.server.received.len(), 3);
        let mut asked = vec![Instant::ZERO];
        asked.extend(&w.server.received);
        assert_eq!(after_input(&w.server.polls), asked);
        // The client is asked on entry, then at each timer until it has
        // nothing left to send, and never at a delivery to the server.
        assert_eq!(after_input(&w.client.polls), [0, 5, 5, 10, 10, 15, 15].map(ms));
    }

    /// Has a datagram from 5 ms on, but arms no timer for it: only a poll
    /// with no input since its last `None` finds it.
    #[cfg(debug_assertions)]
    struct Unannounced(bool);

    #[cfg(debug_assertions)]
    impl Endpoint for Unannounced {
        fn on_datagram(&mut self, _now: Instant, _path: usize, _payload: &[u8]) {}
        fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
            let due = !self.0 && now >= Instant::from_millis(5);
            self.0 |= due;
            due.then(|| Transmit { path: 0, payload: vec![0xaa; 100] })
        }
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn on_timeout(&mut self, _now: Instant) {}
    }

    /// The other endpoint's timer at 10 ms makes a round there, and a debug
    /// world asks the quiet client too.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "an endpoint sent at 0.010000s with no input since its last None")]
    fn a_debug_world_holds_a_skipped_endpoint_to_its_none() {
        let server = counted(vec![Instant::from_millis(10)]);
        World::new(Unannounced(false), server, vec![fast_path(1)]).run_until(Instant::from_secs(1));
    }

    #[test]
    fn deadline_respected() {
        // Endpoints never report done; the deadline must stop the loop.
        let mut w = World::new(blaster(0, 0, 99), blaster(0, 0, 99), vec![fast_path(1)]);
        let end = w.run_until(Instant::from_millis(100));
        assert!(end <= Instant::from_millis(100));
    }
}
