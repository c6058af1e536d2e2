//! Network scenarios. A [`Scenario`] is the one way the harness runs a
//! simulation: paths, scripted link faults, a deadline and an optional
//! trace log, with one [`Scenario::run`] that builds, scripts, traces and
//! drives the [`World`] ([`Scenario::run_sampled`] is the same run, looked
//! at every so often: `tests::sampling_leaves_the_run_unchanged`). Bulk
//! downloads (`bulk.rs`), video sessions (`video_session.rs`), the
//! adversary runs (`adversary.rs`), the fleet-vs-PoP runs (`pop.rs`, whose
//! PoP applies its own shard faults) and the sampling experiments (Fig. 1,
//! 6, 10) are thin functions on top of it; chaos plans and the handover
//! script (`chaos.rs`) only *build* scenarios.
//!
//! The rest of the module turns (technology, trace, quality) descriptions
//! into simulator paths, including the cross-ISP delay inflation of
//! Table 4 / §3.2.

use xlink_clock::{Duration, Instant};
use xlink_core::WirelessTech;
use xlink_netsim::{Endpoint, FlapSchedule, Impairments, LinkConfig, Path, World};
use xlink_obs::TraceLog;
use xlink_traces::Trace;

/// The same network, replayed under whatever endpoints the caller
/// supplies: every comparison in the paper holds one of these fixed and
/// varies the scheme.
pub struct Scenario {
    paths: Vec<Path>,
    faults: Vec<(usize, FlapSchedule)>,
    deadline: Duration,
    /// Read by the runners built on top: endpoints attach their tracers
    /// before the links do, which fixes the qlog source order.
    pub(crate) trace: Option<TraceLog>,
}

impl Scenario {
    /// Fault-free, untraced scenario over `paths`, cut off at `deadline`.
    pub fn new(paths: Vec<Path>, deadline: Duration) -> Self {
        Scenario { paths, faults: Vec::new(), deadline, trace: None }
    }

    /// Add scripted link faults: `(path index, schedule)` pairs.
    pub fn with_faults(mut self, faults: Vec<(usize, FlapSchedule)>) -> Self {
        self.faults.extend(faults);
        self
    }

    /// Add a hard outage of `path` over `[start, end)`.
    pub fn with_outage(self, path: usize, start: Instant, end: Instant) -> Self {
        self.with_faults(vec![(path, FlapSchedule::outage(start, end))])
    }

    /// Record link events (`netsim.path<i>[.up|.down]`) into `log`, and
    /// hand the same log to the runners built on top so endpoints trace
    /// into it too.
    pub fn traced(mut self, log: &TraceLog) -> Self {
        self.trace = Some(log.clone());
        self
    }

    /// Run `client` against `server` until both are done, the network is
    /// quiescent, or the deadline. The returned world holds the endpoints,
    /// the link counters and the end time ([`World::now`]).
    pub fn run<C: Endpoint, S: Endpoint>(self, client: C, server: S) -> World<C, S> {
        let whole = self.deadline;
        self.run_sampled(client, server, whole, |_, _| {})
    }

    /// [`Scenario::run`] in stretches of `every`: after each stretch, the
    /// last one cut at the deadline, `sample` gets the instant the stretch
    /// was run to and the world. The instants stay on the grid of `every`;
    /// the run, and the samples with it, ends early once both endpoints
    /// are done, and the world's clock ([`World::now`]) then stands at
    /// that moment, before the last sample's instant. At any `every` the
    /// run is [`Scenario::run`]'s to the last byte
    /// (`tests::sampling_leaves_the_run_unchanged`). The world asks an
    /// endpoint to send only after an input, so a probe brings what it
    /// reads up to [`World::now`] itself: the video client's player is
    /// advanced there (`player_mut().advance(now)`).
    pub fn run_sampled<C: Endpoint, S: Endpoint>(
        self,
        client: C,
        server: S,
        every: Duration,
        mut sample: impl FnMut(Instant, &mut World<C, S>),
    ) -> World<C, S> {
        let mut world = World::new(client, server, self.paths).with_flap_schedules(self.faults);
        if let Some(log) = &self.trace {
            world.set_tracer(log);
        }
        let end = Instant::ZERO + self.deadline;
        let mut t = Instant::ZERO;
        loop {
            t = (t + every).min(end);
            world.run_until(t);
            sample(t, &mut world);
            if t >= end || (world.client.is_done() && world.server.is_done()) {
                return world;
            }
        }
    }
}

/// The measured relative increase of cross-ISP LTE delay (Table 4), in
/// percent: `CROSS_ISP_DELAY_PCT[client_isp][server_isp]`.
pub const CROSS_ISP_DELAY_PCT: [[f64; 3]; 3] =
    [[0.0, 21.0, 17.0], [42.0, 0.0, 54.0], [39.0, 34.0, 0.0]];

/// Description of one access path.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Radio technology (sets the baseline one-way delay).
    pub tech: WirelessTech,
    /// Capacity trace, replayed in both directions.
    pub trace: Trace,
    /// Extra one-way delay on top of the technology baseline (cross-ISP,
    /// jitter draws, …).
    pub extra_delay: Duration,
    /// Stochastic loss rate.
    pub loss: f64,
    /// Seed for the path's loss process.
    pub seed: u64,
    /// Impairment stages applied to both directions.
    pub impairments: Impairments,
}

impl PathSpec {
    /// Path over `trace` in both directions, at the technology's typical delay.
    pub fn new(tech: WirelessTech, trace: Trace, seed: u64) -> Self {
        PathSpec {
            tech,
            trace,
            extra_delay: Duration::ZERO,
            loss: 0.0,
            seed,
            impairments: Impairments::none(),
        }
    }

    /// Apply the Table 4 cross-ISP delay increase for a client on
    /// `client_isp` reaching a server on `server_isp` (0..3).
    pub fn with_cross_isp(mut self, client_isp: usize, server_isp: usize) -> Self {
        let pct = CROSS_ISP_DELAY_PCT[client_isp % 3][server_isp % 3];
        let base = self.tech.typical_one_way_delay_ms() as f64;
        self.extra_delay += Duration::from_micros((base * pct / 100.0 * 1000.0) as u64);
        self
    }

    /// Set a loss rate.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Add explicit extra delay.
    pub fn with_extra_delay(mut self, d: Duration) -> Self {
        self.extra_delay += d;
        self
    }

    /// Apply impairment stages to both directions of the path.
    pub fn with_impairments(mut self, impairments: Impairments) -> Self {
        self.impairments = impairments;
        self
    }

    /// Total one-way delay of this path.
    pub fn one_way_delay(&self) -> Duration {
        Duration::from_millis(self.tech.typical_one_way_delay_ms()) + self.extra_delay
    }

    /// Materialize into a simulator path.
    pub fn build(&self) -> Path {
        let delay = self.one_way_delay();
        let mk = |seed: u64| LinkConfig {
            trace_ms: self.trace.opportunities_ms.clone(),
            delay,
            queue_bytes: 384 * 1024,
            loss: self.loss,
            seed,
            impairments: self.impairments.clone(),
        };
        Path::new(mk(self.seed), mk(self.seed ^ 0xd0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_isp_inflates_delay() {
        let t = xlink_traces::constant_rate("c", 10.0, 1000);
        let base = PathSpec::new(WirelessTech::Lte, t.clone(), 1);
        let crossed = PathSpec::new(WirelessTech::Lte, t, 1).with_cross_isp(1, 2);
        assert!(crossed.one_way_delay() > base.one_way_delay());
        // ISP B→C is +54%: 27ms → ~41.6ms.
        let expect = Duration::from_micros((27.0 * 1.54 * 1000.0) as u64);
        assert_eq!(crossed.one_way_delay(), expect);
    }

    #[test]
    fn same_isp_no_inflation() {
        let t = xlink_traces::constant_rate("c", 10.0, 1000);
        let spec = PathSpec::new(WirelessTech::Lte, t, 1).with_cross_isp(2, 2);
        assert_eq!(spec.one_way_delay(), Duration::from_millis(27));
    }

    /// [`Scenario::run_sampled`] with a sampler that looks at nothing ends
    /// where [`Scenario::run`] does, to the last byte of the result, under
    /// every scheme and at any cadence: a stretch that ends on an instant
    /// with no event runs a round there that changes nothing.
    #[test]
    fn sampling_leaves_the_run_unchanged() {
        use crate::fleet::TracePool;
        use crate::video_session::*;
        use xlink_core::Scheme;
        let schemes = [
            Scheme::Sp { path: 0 },
            Scheme::Cm,
            Scheme::VanillaMp,
            Scheme::Mptcp,
            Scheme::ReinjNoQoe,
            Scheme::Xlink,
            Scheme::XlinkNoFirstFrame,
            Scheme::XlinkAppending,
        ];
        let pool = TracePool::generate(5, 4, 20_000);
        for user in 0..3 {
            let (wifi, lte) = pool.draw_user_paths(5, 0, user);
            for scheme in schemes {
                let mut cfg = SessionConfig::short_video(scheme, user);
                cfg.video = xlink_video::Video::synth(6, 25, 1_500_000, 10.0);
                cfg.deadline = Duration::from_secs(40);
                let scenario = || Scenario::new(vec![wifi.build(), lte.build()], cfg.deadline);
                let whole = format!("{:?}", scenario().video(&cfg));
                for every in [50, 100, 150, 37, 10, 7].map(Duration::from_millis) {
                    let (client, server) = (
                        client_endpoint_for_probe(&cfg, Instant::ZERO),
                        server_endpoint_for_probe(&cfg, Instant::ZERO),
                    );
                    let world = scenario().run_sampled(client, server, every, |_, _| {});
                    let sampled = format!("{:?}", session_result(world));
                    assert_eq!(sampled, whole, "{scheme:?}, user {user}, every {every}");
                }
            }
        }
    }

    #[test]
    fn technology_sets_baseline_delay() {
        let t = xlink_traces::constant_rate("c", 10.0, 1000);
        let wifi = PathSpec::new(WirelessTech::Wifi, t.clone(), 1);
        let lte = PathSpec::new(WirelessTech::Lte, t, 1);
        assert!(lte.one_way_delay() > wifi.one_way_delay());
    }
}
