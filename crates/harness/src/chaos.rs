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
//! come back. It scripts `Pop::crash_shard` / `Pop::restart_shard`
//! calls for `run_pop` (see `harness::pop`).

use crate::scenario::Scenario;
use xlink_clock::{Duration, Instant};
use xlink_core::lb::ServerId;
use xlink_netsim::{FlapSchedule, FlapStep, LinkConfig, LinkState, Path, Rng};
use xlink_obs::TraceLog;

/// A seeded script of non-overlapping single-path outages.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for outage placement (path choice, start, length).
    pub seed: u64,
    /// Number of outages to script.
    pub outages: u32,
    /// Earliest time the first outage may start (leave the handshake
    /// alone so every scheme reaches steady state first).
    pub start_after: Duration,
    /// Shortest outage.
    pub min_down: Duration,
    /// Longest outage.
    pub max_down: Duration,
    /// Minimum healthy gap between consecutive outages (lets the failed
    /// path revalidate and rejoin before the next path dies).
    pub min_gap: Duration,
    /// Extra random slack added to the gap, up to this much.
    pub gap_jitter: Duration,
}

impl ChaosPlan {
    /// A moderately hostile default: three outages of 1–3 s separated by
    /// multi-second recovery windows.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            outages: 3,
            start_after: Duration::from_millis(800),
            min_down: Duration::from_millis(1000),
            max_down: Duration::from_millis(3000),
            min_gap: Duration::from_millis(2500),
            gap_jitter: Duration::from_millis(1500),
        }
    }

    /// Expand the plan into per-path flap schedules over `num_paths`
    /// paths. Outages are strictly sequential in time (down, back up,
    /// gap, next), so with `num_paths >= 2` at least one path is healthy
    /// at every instant.
    pub fn flap_schedules(&self, num_paths: usize) -> Vec<(usize, FlapSchedule)> {
        assert!(num_paths >= 2, "chaos needs a survivor path");
        let mut rng = Rng::new(self.seed ^ 0xc4a0_5bad);
        let mut steps: Vec<Vec<FlapStep>> = vec![Vec::new(); num_paths];
        let mut t = Instant::ZERO + self.start_after;
        let down_range = self.max_down.saturating_sub(self.min_down).as_micros() as u64;
        let jitter = self.gap_jitter.as_micros() as u64;
        for _ in 0..self.outages {
            let victim = rng.below(num_paths as u64) as usize;
            let down = self.min_down
                + Duration::from_micros(if down_range > 0 { rng.below(down_range + 1) } else { 0 });
            steps[victim].push(FlapStep { at: t, state: LinkState::Down });
            steps[victim].push(FlapStep { at: t + down, state: LinkState::Up });
            t = t
                + down
                + self.min_gap
                + Duration::from_micros(if jitter > 0 { rng.below(jitter + 1) } else { 0 });
        }
        steps
            .into_iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (i, FlapSchedule::new(s)))
            .collect()
    }

    /// Virtual time at which the last scripted outage has healed.
    pub fn horizon(&self) -> Duration {
        self.start_after + (self.max_down + self.min_gap + self.gap_jitter) * self.outages
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

    /// Seed-derived plan: `count` crashes of shards drawn from `shards`,
    /// spread over `[start_after, start_after + window)`, each restarted
    /// after `down`. Same seed → same crash script.
    pub fn seeded(
        seed: u64,
        shards: &[ServerId],
        count: u32,
        start_after: Duration,
        window: Duration,
        down: Duration,
    ) -> Self {
        assert!(!shards.is_empty(), "a crash plan needs shards to crash");
        let mut rng = Rng::new(seed ^ 0x0c4a_54ed);
        let span = window.as_micros() as u64;
        let crashes = (0..count)
            .map(|_| {
                let at =
                    start_after + Duration::from_micros(if span > 0 { rng.below(span) } else { 0 });
                let shard = shards[rng.below(shards.len() as u64) as usize];
                (at, shard)
            })
            .collect();
        CrashPlan { crashes, restart_after: Some(down) }
    }

    /// Virtual time by which every scripted crash has restarted.
    pub fn horizon(&self) -> Duration {
        let last = self.crashes.iter().map(|&(at, _)| at).max().unwrap_or(Duration::ZERO);
        last + self.restart_after.unwrap_or(Duration::ZERO)
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
    use crate::transport::{Scheme, TransportTuning};

    #[test]
    fn plan_outages_never_overlap_and_spare_a_survivor() {
        for seed in 0..20 {
            let plan = ChaosPlan { outages: 6, ..ChaosPlan::new(seed) };
            let flaps = plan.flap_schedules(3);
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
            assert_eq!(windows.iter().len(), 6, "all outages placed");
            windows.sort();
            for w in windows.windows(2) {
                assert!(w[0].1 <= w[1].0, "outages must not overlap: {windows:?}");
            }
            for (start, end) in &windows {
                assert!(*end > *start);
                assert!(*start >= Instant::ZERO + plan.start_after);
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
    fn crash_plan_is_deterministic_and_bounded() {
        let mk = || {
            CrashPlan::seeded(
                5,
                &[1, 2, 3],
                4,
                Duration::from_millis(200),
                Duration::from_secs(1),
                Duration::from_millis(50),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same script");
        assert_eq!(a.crashes.len(), 4);
        for &(at, shard) in &a.crashes {
            assert!(at >= Duration::from_millis(200) && at < Duration::from_millis(1200));
            assert!([1, 2, 3].contains(&shard));
        }
        let c = CrashPlan::seeded(
            6,
            &[1, 2, 3],
            4,
            Duration::from_millis(200),
            Duration::from_secs(1),
            Duration::from_millis(50),
        );
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "different seed, different script");
        let total =
            CrashPlan::total_outage(Duration::from_millis(300), &[1, 2], Duration::from_millis(80));
        assert_eq!(
            total.crashes,
            vec![(Duration::from_millis(300), 1), (Duration::from_millis(300), 2)]
        );
        assert_eq!(total.horizon(), Duration::from_millis(380));
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
