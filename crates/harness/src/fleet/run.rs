//! The fleet runner: a deterministic plan, independent sessions, exact
//! merges.
//!
//! Fleet sessions never interact — each owns a private client, server and
//! pair of paths — so there is no shared event queue: every planned
//! session is one [`Scenario::run_sampled`] to completion on its own local
//! clock (the samples are its buffer level, the run is [`Scenario::run`]'s),
//! folded into constant-memory aggregates and dropped. A paired fleet plays
//! each planned user twice, once per arm. The population is
//! partitioned into shards by a stable `(user, day)` hash; each shard
//! replays the same canonical arrival stream, keeps only its own sessions,
//! and the shard partials merge exactly — so fleet results are
//! bit-identical for any shard count. Shards run concurrently, on as many
//! threads as the host has cores ([`par::map`]); the partition is static,
//! not a queue of sessions, so what a shard computes — its aggregates and
//! every span and allocation count of its profile — does not depend on
//! which thread ran it or when.
//!
//! Memory is O(workers × one session + trace pool): link traces come from
//! the bounded shared [`TracePool`], a worker holds one live session at a
//! time, and a finished session leaves behind only histogram-bin
//! increments. *Simulated* concurrency (how many sessions overlap on the
//! fleet timeline) is still reported, from each session's arrival and
//! duration.

use super::agg::{ArmAgg, ConcurrencyTrack, FleetReport, ShardCounters};
use super::plan::{shard_of, FleetConfig, PlanIter, SessionPlan, TracePool};
use crate::par;
use crate::scenario::Scenario;
use crate::video_session::{
    client_endpoint_for_probe, server_endpoint_for_probe, session_result, SessionConfig,
};
use xlink_clock::{Duration, Instant};
use xlink_core::TransportTuning;
use xlink_obs::prof::{self, ProfReport};

/// Concurrency-track bin width: fine enough to resolve arrival windows,
/// coarse enough that a multi-minute horizon stays a few KB.
const CONCURRENCY_BIN: Duration = Duration::from_millis(100);

/// How often a session's play time left is sampled into
/// [`ArmAgg::buffer`]. Sampling at any cadence leaves the run exactly the
/// unsampled one (`scenario::tests`).
const BUFFER_SAMPLE: Duration = Duration::from_millis(100);

/// Everything one shard produces; merged exactly into the fleet report.
struct ShardResult {
    arm_a: ArmAgg,
    arm_b: ArmAgg,
    concurrency: ConcurrencyTrack,
    counters: ShardCounters,
}

fn session_config(cfg: &FleetConfig, plan: &SessionPlan, arm_b: bool) -> SessionConfig {
    let scheme = if arm_b { cfg.scheme_b } else { cfg.scheme_a };
    let mut s = SessionConfig::short_video(scheme, plan.seed);
    // Into the default tuning's own fields: its path list is reused, so a
    // session allocates what it did before the fleet carried a tuning.
    let TransportTuning { thresholds_ms, ack_policy, path_techs, primary_override } = &cfg.tuning;
    let t = &mut s.tuning;
    (t.thresholds_ms, t.ack_policy) = (*thresholds_ms, *ack_policy);
    t.path_techs.clone_from(path_techs);
    t.primary_override.clone_from(primary_override);
    s.video = cfg.video.clone();
    s.deadline = cfg.deadline;
    s.chunk_bytes = cfg.chunk_bytes;
    s
}

/// Run one shard: replay the canonical plan stream and run this shard's
/// sessions one after another, each to completion. A paired fleet plays
/// each plan twice, arm A then arm B, on the same paths and seed.
fn run_shard(cfg: &FleetConfig, pool: &TracePool, shard: u32) -> ShardResult {
    let mut out = ShardResult {
        arm_a: ArmAgg::default(),
        arm_b: ArmAgg::default(),
        concurrency: ConcurrencyTrack::new(cfg.horizon(), CONCURRENCY_BIN),
        counters: ShardCounters::default(),
    };
    let fps = cfg.video.fps.max(1) as f64;
    for plan in PlanIter::new(cfg).filter(|p| shard_of(p.user, p.day, cfg.shards) == shard) {
        for arm_b in [false, true].into_iter().filter(|&b| cfg.paired || b == plan.arm_b) {
            let (scenario, client, server) = {
                let _prof = prof::span!("fleet/admit");
                let scfg = session_config(cfg, &plan, arm_b);
                let (wifi, lte) = pool.draw_user_paths(cfg.seed, plan.day, plan.user);
                let lte = lte.with_extra_delay(cfg.lte_extra_delay);
                (
                    Scenario::new(vec![wifi.build(), lte.build()], cfg.deadline),
                    client_endpoint_for_probe(&scfg, Instant::ZERO),
                    server_endpoint_for_probe(&scfg, Instant::ZERO),
                )
            };
            let arm = if arm_b { &mut out.arm_b } else { &mut out.arm_a };
            let world = {
                let _prof = prof::span!("fleet/session_step");
                scenario.run_sampled(client, server, BUFFER_SAMPLE, |_, world| {
                    // After start-up and before the end, as Fig. 10 measures.
                    let player = world.client.player_stats();
                    if player.playback_started_at.is_some() && player.finished_at.is_none() {
                        arm.buffer.record(world.client.player_mut().cached_frames() as f64 / fps);
                    }
                })
            };
            let _prof = prof::span!("fleet/finalize");
            out.counters.events += 1;
            out.counters.peak_live_sessions = 1;
            out.counters.packets += world.total_packets_enqueued();
            let r = session_result(world);
            let lived = r.ended_at.saturating_duration_since(Instant::ZERO);
            out.concurrency.record(plan.arrival, plan.arrival + lived);
            arm.absorb(&r);
        }
    }
    out
}

/// Run the whole fleet: the shards side by side on `par::map`'s workers,
/// then an exact merge of the shard partials in shard order. The merged
/// report is bit-identical for any `cfg.shards ≥ 1`, any worker count and
/// any schedule (see `tests/fleet.rs` and the `invariants` suite).
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let pool = TracePool::generate(cfg.seed, cfg.trace_pool, 30_000);
    let shards = cfg.shards.max(1);
    let partials = par::map(shards as usize, |shard| run_shard(cfg, &pool, shard as u32));
    let mut arm_a = ArmAgg::default();
    let mut arm_b = ArmAgg::default();
    let mut concurrency = ConcurrencyTrack::new(cfg.horizon(), CONCURRENCY_BIN);
    let mut counters = ShardCounters::default();
    for r in &partials {
        let _prof = prof::span!("fleet/merge");
        arm_a.merge(&r.arm_a);
        arm_b.merge(&r.arm_b);
        concurrency.merge(&r.concurrency);
        counters.merge(&r.counters);
    }
    FleetReport {
        arm_a,
        arm_b,
        peak_concurrent: concurrency.peak(),
        counters,
        shards,
        trace_pool_bytes: pool.approx_bytes(),
    }
}

/// [`run_fleet`] with hot-path profiling: the fleet under
/// [`prof::with_recording`], the workers' span trees grafted into the
/// caller's by `par::map`. The simulation outcome is bit-identical to an
/// unprofiled run (the off/noop/record gate in `tests/fleet.rs`).
pub fn run_fleet_profiled(cfg: &FleetConfig) -> (FleetReport, ProfReport) {
    prof::with_recording(|| run_fleet(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_core::Scheme;
    use xlink_video::Video;

    fn tiny_fleet(shards: u32) -> FleetConfig {
        let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
        cfg.users_per_day = 24;
        cfg.days = 1;
        cfg.shards = shards;
        cfg.video = Video::synth(2, 25, 300_000, 8.0);
        cfg.deadline = Duration::from_secs(30);
        cfg.arrival_window = Duration::from_secs(2);
        cfg.trace_pool = 4;
        cfg
    }

    #[test]
    fn fleet_runs_all_sessions() {
        let r = run_fleet(&tiny_fleet(2));
        assert_eq!(r.arm_a.sessions + r.arm_b.sessions, 24);
        assert!(r.arm_a.sessions > 0 && r.arm_b.sessions > 0);
        assert!(r.peak_concurrent >= 2, "peak {}", r.peak_concurrent);
        assert!(r.counters.events > 0 && r.counters.packets > 0);
    }

    fn tiny_paired(shards: u32, scheme_b: Scheme) -> FleetConfig {
        let mut cfg = tiny_fleet(shards);
        cfg.scheme_b = scheme_b;
        cfg.users_per_day = 6;
        cfg.paired = true;
        cfg
    }

    #[test]
    fn fleet_is_shard_invariant() {
        for paired in [false, true] {
            let run = |shards| run_fleet(&FleetConfig { paired, ..tiny_fleet(shards) });
            let (one, three) = (run(1), run(3));
            assert_eq!(one.digest(), three.digest(), "paired {paired}");
            assert_eq!(
                one.to_json().split("\"shards\"").next(),
                three.to_json().split("\"shards\"").next()
            );
            for (a, b) in [(&one.arm_a, &three.arm_a), (&one.arm_b, &three.arm_b)] {
                assert!(a.buffer.count() > 0, "paired {paired}");
                assert_eq!(a.buffer.digest(), b.buffer.digest(), "paired {paired}");
            }
        }
    }

    #[test]
    fn a_paired_fleet_plays_every_user_in_both_arms() {
        let r = run_fleet(&tiny_paired(2, Scheme::Xlink));
        for arm in [&r.arm_a, &r.arm_b] {
            assert_eq!(arm.sessions, 6);
            assert_eq!(arm.rebuffer.count(), 6);
            assert!(arm.rct.count() > 0 && arm.buffer.count() > 0);
        }
        assert_eq!(r.counters.events, 12);
        assert!(r.rct_improvement(50.0).is_finite());
        assert!(r.rebuffer_improvement().is_finite());
    }

    #[test]
    fn paired_runs_are_reproducible() {
        let (a, b) =
            (run_fleet(&tiny_paired(2, Scheme::Xlink)), run_fleet(&tiny_paired(2, Scheme::Xlink)));
        assert_eq!(a.arm_a.digest(), b.arm_a.digest());
        assert_eq!(a.arm_b.digest(), b.arm_b.digest());
        assert_eq!(a.arm_b.buffer.digest(), b.arm_b.buffer.digest());
    }

    /// Both arms of a pair see the same user, paths and seed: with one
    /// scheme in both, they are the same sessions.
    #[test]
    fn a_pair_under_one_scheme_is_one_session_twice() {
        let r = run_fleet(&tiny_paired(3, Scheme::Sp { path: 0 }));
        assert_eq!(r.arm_a.digest(), r.arm_b.digest());
        assert_eq!(r.arm_a.buffer.digest(), r.arm_b.buffer.digest());
    }
}
