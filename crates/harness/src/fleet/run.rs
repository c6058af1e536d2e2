//! The fleet runner: a deterministic plan, independent sessions, exact
//! merges.
//!
//! Fleet sessions never interact — each owns a private client, server and
//! pair of paths — so there is no shared event queue: every planned
//! session is one [`Scenario::run`] to completion on its own local clock,
//! folded into constant-memory aggregates and dropped. The population is
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
use xlink_obs::prof::{self, ProfReport};

/// Concurrency-track bin width: fine enough to resolve arrival windows,
/// coarse enough that a multi-minute horizon stays a few KB.
const CONCURRENCY_BIN: Duration = Duration::from_millis(100);

/// Everything one shard produces; merged exactly into the fleet report.
struct ShardResult {
    arm_a: ArmAgg,
    arm_b: ArmAgg,
    concurrency: ConcurrencyTrack,
    counters: ShardCounters,
}

fn session_config(cfg: &FleetConfig, plan: &SessionPlan) -> SessionConfig {
    let scheme = if plan.arm_b { cfg.scheme_b } else { cfg.scheme_a };
    let mut s = SessionConfig::short_video(scheme, plan.seed);
    s.video = cfg.video.clone();
    s.deadline = cfg.deadline;
    s.chunk_bytes = cfg.chunk_bytes;
    s
}

/// Run one shard: replay the canonical plan stream and run this shard's
/// sessions one after another, each to completion.
fn run_shard(cfg: &FleetConfig, pool: &TracePool, shard: u32) -> ShardResult {
    let mut out = ShardResult {
        arm_a: ArmAgg::default(),
        arm_b: ArmAgg::default(),
        concurrency: ConcurrencyTrack::new(cfg.horizon(), CONCURRENCY_BIN),
        counters: ShardCounters::default(),
    };
    for plan in PlanIter::new(cfg).filter(|p| shard_of(p.user, p.day, cfg.shards) == shard) {
        let (scenario, client, server) = {
            let _prof = prof::span!("fleet/admit");
            let scfg = session_config(cfg, &plan);
            let (wifi, lte) = pool.draw_user_paths(cfg.seed, plan.day, plan.user);
            (
                Scenario::new(vec![wifi.build(), lte.build()], cfg.deadline),
                client_endpoint_for_probe(&scfg, Instant::ZERO),
                server_endpoint_for_probe(&scfg, Instant::ZERO),
            )
        };
        let world = {
            let _prof = prof::span!("fleet/session_step");
            scenario.run(client, server)
        };
        let _prof = prof::span!("fleet/finalize");
        out.counters.events += 1;
        out.counters.peak_live_sessions = 1;
        out.counters.packets += world.total_packets_enqueued();
        let r = session_result(world);
        let lived = r.ended_at.saturating_duration_since(Instant::ZERO);
        out.concurrency.record(plan.arrival, plan.arrival + lived);
        if plan.arm_b {
            out.arm_b.absorb(&r)
        } else {
            out.arm_a.absorb(&r)
        }
    }
    out
}

/// Run the whole fleet: the shards side by side on [`par::map`]'s workers,
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
/// caller's by [`par::map`]. The simulation outcome is bit-identical to an
/// unprofiled run (the off/noop/record gate in `tests/fleet.rs`).
pub fn run_fleet_profiled(cfg: &FleetConfig) -> (FleetReport, ProfReport) {
    prof::with_recording(|| run_fleet(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Scheme;
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

    #[test]
    fn fleet_is_shard_invariant() {
        let one = run_fleet(&tiny_fleet(1));
        let three = run_fleet(&tiny_fleet(3));
        assert_eq!(one.digest(), three.digest());
        assert_eq!(
            one.to_json().split("\"shards\"").next(),
            three.to_json().split("\"shards\"").next()
        );
    }
}
