//! Deterministic fault scripts for the liveness/failover evaluation (§9).
//!
//! A [`ChaosPlan`] expands a seed into a scripted sequence of hard
//! outages — one path down at a time, never overlapping — so at least
//! one survivor always exists and a correct failover implementation can
//! finish the transfer. The plan only *builds* a [`Scenario`] (paths +
//! [`FlapSchedule`] faults), which keeps the whole run on the virtual
//! clock: the same seed replays the same outages, the same transitions,
//! and (traced into a recording [`TraceLog`]) a bit-identical failover
//! event stream.
//!
//! A [`CrashPlan`] is the edge-tier sibling: instead of links going
//! dark, PoP *shards* die — state destroyed, no drain — and optionally
//! come back. It expands into the PoP's own fault script
//! ([`CrashPlan::faults`]), which `run_pop` (see `harness::pop`) builds
//! the PoP with.

use crate::scenario::Scenario;
use xlink_clock::{Duration, Instant};
use xlink_core::lb::ServerId;
use xlink_edge::ShardFault;
use xlink_lab::Rng;
use xlink_netsim::{FlapSchedule, FlapStep, LinkConfig, LinkState, Path};
use xlink_obs::TraceLog;

/// Outages a [`ChaosPlan`] scripts.
pub const OUTAGES: u32 = 3;
/// Earliest time the first outage may start: the handshake is left alone,
/// and the first outage lands inside even a short transfer.
pub const START_AFTER: Duration = Duration::from_millis(300);
/// Shortest outage.
pub const MIN_DOWN: Duration = Duration::from_millis(600);
/// Longest outage.
pub const MAX_DOWN: Duration = Duration::from_millis(2000);
/// Minimum healthy gap between consecutive outages (lets the failed path
/// revalidate and rejoin before the next path dies).
pub const MIN_GAP: Duration = Duration::from_millis(2500);
/// Extra random slack added to the gap, up to this much.
pub const GAP_JITTER: Duration = Duration::from_millis(1500);

/// A seeded script of non-overlapping single-path outages: [`OUTAGES`]
/// outages of [`MIN_DOWN`]–[`MAX_DOWN`] from [`START_AFTER`] on, each
/// followed by [`MIN_GAP`] plus up to [`GAP_JITTER`] of recovery.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for outage placement (path choice, start, length).
    pub seed: u64,
}

impl ChaosPlan {
    /// The plan of `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosPlan { seed }
    }

    /// Expand the plan into per-path flap schedules over `num_paths`
    /// paths. Outages are strictly sequential in time (down, back up,
    /// gap, next), so with `num_paths >= 2` at least one path is healthy
    /// at every instant.
    pub fn flap_schedules(&self, num_paths: usize) -> Vec<(usize, FlapSchedule)> {
        assert!(num_paths >= 2, "chaos needs a survivor path");
        let mut rng = Rng::new(self.seed ^ 0xc4a0_5bad);
        let mut steps: Vec<Vec<FlapStep>> = vec![Vec::new(); num_paths];
        let mut t = Instant::ZERO + START_AFTER;
        let down_range = (MAX_DOWN - MIN_DOWN).as_micros();
        for _ in 0..OUTAGES {
            let victim = rng.below(num_paths as u64) as usize;
            let down = MIN_DOWN + Duration::from_micros(rng.below(down_range + 1));
            steps[victim].push(FlapStep { at: t, state: LinkState::Down });
            steps[victim].push(FlapStep { at: t + down, state: LinkState::Up });
            t = t + down + MIN_GAP + Duration::from_micros(rng.below(GAP_JITTER.as_micros() + 1));
        }
        steps
            .into_iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (i, FlapSchedule::new(s)))
            .collect()
    }

    /// The plan's outages laid over `paths`. By convention transfers run
    /// under a chaos plan seed their transport with [`ChaosPlan::seed`].
    pub fn scenario(&self, paths: Vec<Path>, deadline: Duration) -> Scenario {
        let faults = self.flap_schedules(paths.len());
        Scenario::new(paths, deadline).with_faults(faults)
    }
}

/// A scripted sequence of PoP shard crashes (and restarts) on the
/// virtual clock. Unlike [`ChaosPlan`]'s link outages, a crash destroys
/// *server state*: every connection, route, and replay-ledger entry on
/// the shard evaporates with no drain window, and clients must recover
/// by reconnecting.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// (virtual time, shard) crash events, in any order.
    pub crashes: Vec<(Duration, ServerId)>,
    /// Restart each crashed shard this long after its crash; `None`
    /// leaves crashed shards down for the rest of the run.
    pub restart_after: Option<Duration>,
}

impl CrashPlan {
    /// Crash one shard at `at`, restarting it `restart_after` later.
    pub fn single(at: Duration, shard: ServerId, restart_after: Option<Duration>) -> Self {
        CrashPlan { crashes: vec![(at, shard)], restart_after }
    }

    /// Crash the *whole PoP* at `at` — every shard at the same instant,
    /// restarted together `down` later. Because all shards share the
    /// fault, the clients' experience is shard-count independent, which
    /// is what the trace-invariance experiments script.
    pub fn total_outage(at: Duration, shards: &[ServerId], down: Duration) -> Self {
        CrashPlan { crashes: shards.iter().map(|&s| (at, s)).collect(), restart_after: Some(down) }
    }

    /// The plan as PoP faults: each crash, followed by its restart.
    pub fn faults(&self) -> impl Iterator<Item = (Duration, ShardFault)> + '_ {
        self.crashes.iter().flat_map(|&(at, shard)| {
            let restart = self.restart_after.map(|down| (at + down, ShardFault::Restart(shard)));
            [Some((at, ShardFault::Crash(shard))), restart].into_iter().flatten()
        })
    }
}

/// The §9 handover paths: a Wi-Fi-grade primary and an LTE-grade
/// standby.
pub fn handover_paths() -> Vec<Path> {
    vec![
        // Primary: fast and near (Wi-Fi).
        Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10))),
        // Standby: slower and farther (LTE).
        Path::symmetric(LinkConfig::constant_rate(12.0, Duration::from_millis(35))),
    ]
}

/// The §9 handover scenario: [`handover_paths`] with the primary
/// blackholed over `[start, start + down)` mid-transfer — the subway ride
/// the paper's failover machinery is tuned for.
pub fn handover_scenario(start: Duration, down: Duration, deadline: Duration) -> Scenario {
    let from = Instant::ZERO + start;
    Scenario::new(handover_paths(), deadline).with_outage(0, from, from + down)
}

/// Extract the deterministic failover timeline from a recorded trace:
/// every `PathSuspected` / `PathFailover` / `PathRevalidated` event (and
/// the netsim `LinkStateChange` ground truth), one formatted line each,
/// in emission order. Two runs with the same seed must produce
/// byte-identical timelines.
pub fn failover_timeline(log: &TraceLog) -> Vec<String> {
    log.events()
        .into_iter()
        .filter(|e| {
            matches!(
                e.body.name(),
                "path_suspected" | "path_failover" | "path_revalidated" | "link_state_change"
            )
        })
        .map(|e| {
            format!(
                "{:>10} {} {} {:?}",
                e.time.as_micros(),
                log.source_name(e.source),
                e.body.name(),
                e.body
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_core::{Scheme, TransportTuning};

    #[test]
    fn plan_outages_never_overlap_and_spare_a_survivor() {
        for seed in 0..20 {
            let flaps = ChaosPlan::new(seed).flap_schedules(3);
            // Collect all (start, end) windows across paths.
            let mut windows: Vec<(Instant, Instant)> = Vec::new();
            for (_, sched) in &flaps {
                let steps = sched.steps();
                let mut i = 0;
                while i + 1 < steps.len() {
                    assert_eq!(steps[i].state, LinkState::Down);
                    assert_eq!(steps[i + 1].state, LinkState::Up);
                    windows.push((steps[i].at, steps[i + 1].at));
                    i += 2;
                }
            }
            assert_eq!(windows.len(), OUTAGES as usize, "all outages placed");
            windows.sort();
            for w in windows.windows(2) {
                assert!(w[0].1 + MIN_GAP <= w[1].0, "outages must not overlap: {windows:?}");
            }
            for (start, end) in &windows {
                assert!(*end >= *start + MIN_DOWN && *end <= *start + MAX_DOWN);
                assert!(*start >= Instant::ZERO + START_AFTER);
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let a = ChaosPlan::new(7).flap_schedules(2);
        let b = ChaosPlan::new(7).flap_schedules(2);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = ChaosPlan::new(8).flap_schedules(2);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn total_outage_crashes_every_shard_at_once() {
        let total =
            CrashPlan::total_outage(Duration::from_millis(300), &[1, 2], Duration::from_millis(80));
        assert_eq!(
            total.crashes,
            vec![(Duration::from_millis(300), 1), (Duration::from_millis(300), 2)]
        );
        assert_eq!(total.restart_after, Some(Duration::from_millis(80)));
        // As the PoP's script: each crash followed by its restart, which
        // the PoP takes in time order, stably, so at one instant the
        // shards go down, and later come back, in the plan's order.
        let (down, up) = (Duration::from_millis(300), Duration::from_millis(380));
        let script = [
            (down, ShardFault::Crash(1)),
            (up, ShardFault::Restart(1)),
            (down, ShardFault::Crash(2)),
            (up, ShardFault::Restart(2)),
        ];
        assert_eq!(total.faults().collect::<Vec<_>>(), script);
        let mut pop = xlink_edge::Pop::new(xlink_edge::PopConfig {
            shards: vec![1, 2],
            faults: script.to_vec(),
            ..xlink_edge::PopConfig::default()
        });
        use xlink_netsim::Endpoint;
        let states = |pop: &xlink_edge::Pop| {
            pop.shard_stats().values().map(|s| (s.crashed, s.epoch)).collect::<Vec<_>>()
        };
        pop.on_timeout(Instant::ZERO + down);
        assert_eq!(states(&pop), [(true, 0), (true, 0)]);
        pop.on_timeout(Instant::ZERO + up);
        assert_eq!(states(&pop), [(false, 1), (false, 1)]);
    }

    #[test]
    fn chaos_run_completes_with_failover() {
        let plan = ChaosPlan::new(1);
        let r = plan.scenario(handover_paths(), Duration::from_secs(60)).bulk_quic(
            Scheme::Xlink,
            &TransportTuning::default(),
            1_500_000,
            plan.seed,
            None,
        );
        assert!(r.download_time.is_some(), "transfer must survive the chaos plan");
        for (up, down) in &r.link_stats {
            assert!(up.is_conserved() && down.is_conserved());
        }
    }

    #[test]
    fn handover_trace_records_transitions() {
        let log = TraceLog::recording();
        let r = handover_scenario(
            Duration::from_millis(500),
            Duration::from_secs(3),
            Duration::from_secs(60),
        )
        .traced(&log)
        .bulk_quic(Scheme::Xlink, &TransportTuning::default(), 2_000_000, 3, None);
        assert!(r.download_time.is_some());
        let timeline = failover_timeline(&log);
        assert!(
            timeline.iter().any(|l| l.contains("path_suspected")),
            "outage must be noticed: {timeline:?}"
        );
        assert!(
            timeline.iter().any(|l| l.contains("link_state_change")),
            "netsim ground truth missing"
        );
    }
}
