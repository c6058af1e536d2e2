//! Fleet-engine acceptance suite: population-scale determinism, shard
//! invariance, randomized-arm balance, bounded memory, and the
//! Table 1 population differential.
//!
//! Population size scales with `XLINK_FLEET_SESSIONS` (default 240 so
//! plain debug `cargo test` stays quick); ci.sh re-runs this suite in
//! release mode at 10,000 sessions for the full-scale guarantee.

use xlink::harness::experiments::fleet_rct::population as fleet_cfg;
use xlink::harness::fleet::{run_fleet, run_fleet_profiled, shard_of, PlanIter};
use xlink::obs::prof;

fn sessions_env() -> u64 {
    std::env::var("XLINK_FLEET_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(240)
}

/// The headline guarantee: a seeded fleet completes every session with
/// the entire population concurrently live, and the report is
/// bit-identical across repeated runs AND across shard counts.
#[test]
fn fleet_is_deterministic_across_runs_and_shard_counts() {
    let users = sessions_env();
    let first = run_fleet(&fleet_cfg(users, 2));
    assert_eq!(first.arm_a.sessions + first.arm_b.sessions, users, "all sessions finalized");
    assert_eq!(first.peak_concurrent, users, "whole population concurrently live");

    let again = run_fleet(&fleet_cfg(users, 2));
    assert_eq!(first.digest(), again.digest(), "repeated run must be bit-identical");
    assert_eq!(first.to_json(), again.to_json());

    let resharded = run_fleet(&fleet_cfg(users, 8));
    assert_eq!(first.digest(), resharded.digest(), "shard count must not change results");
    // Everything before the shard-count echo is shard-invariant.
    let invariant = |json: &str| json.split("\"shards\"").next().unwrap().to_string();
    assert_eq!(invariant(&first.to_json()), invariant(&resharded.to_json()));
}

/// Arm assignment is a stable salted hash of user identity: close to
/// 50/50 at population scale, and the same user always lands in the
/// same arm. Sharding spreads users evenly.
#[test]
fn arm_assignment_is_balanced_and_stable() {
    let cfg = fleet_cfg(10_000, 4);
    let plans: Vec<_> = PlanIter::new(&cfg).collect();
    assert_eq!(plans.len(), 10_000);
    let b = plans.iter().filter(|p| p.arm_b).count() as i64;
    // Binomial sd ≈ 50; allow 6σ.
    assert!((b - 5_000).abs() < 300, "arm split {b}/10000");

    let replay: Vec<_> = PlanIter::new(&cfg).collect();
    for (x, y) in plans.iter().zip(&replay) {
        assert_eq!(x.arm_b, y.arm_b);
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.arrival, y.arrival);
    }

    let mut per_shard = [0u64; 16];
    for p in &plans {
        per_shard[shard_of(p.user, p.day, 16) as usize] += 1;
    }
    for (i, &n) in per_shard.iter().enumerate() {
        // 10k over 16 shards ⇒ 625 expected; sd ≈ 24, allow 6σ.
        assert!((n as i64 - 625).abs() < 150, "shard {i} holds {n} users");
    }
}

/// The population RCT reproduces the paper's Table 1 sign: XLINK beats
/// single-path on chunk RCT, with the analytic 95% CI excluding zero.
#[test]
fn xlink_beats_sp_with_ci_excluding_zero() {
    let users = sessions_env().min(2_000);
    let r = run_fleet(&fleet_cfg(users, 4));
    assert!(r.arm_a.sessions > 0 && r.arm_b.sessions > 0);
    let (lo, mid, hi) = r.rct_mean_diff_ci();
    assert!(
        lo > 0.0,
        "mean RCT differential CI must exclude zero in XLINK's favor: [{lo:.4}, {hi:.4}] mid {mid:.4}"
    );
    assert!(r.rct_improvement(99.0) > 0.0, "p99 RCT improvement {}", r.rct_improvement(99.0));
    // XLINK's per-arm percentile CI is itself finite and ordered.
    let (plo, phi) = r.arm_b.rct.percentile_ci(99.0, xlink::harness::fleet::Z95);
    assert!(plo > 0.0 && plo <= phi, "p99 CI [{plo}, {phi}]");
}

/// Peak memory scales with the *live* population, not total sessions:
/// tripling the number of simulated days triples total sessions but
/// leaves peak concurrency, per-shard live peak, and the shared trace
/// pool unchanged.
#[test]
fn peak_state_is_independent_of_total_sessions() {
    let users = sessions_env().min(1_000);
    let one_day = run_fleet(&fleet_cfg(users, 4));

    let mut three = fleet_cfg(users, 4);
    three.days = 3;
    let three_days = run_fleet(&three);

    assert_eq!(
        three_days.arm_a.sessions + three_days.arm_b.sessions,
        3 * users,
        "three days finalize 3× the sessions"
    );
    assert_eq!(
        one_day.peak_concurrent, three_days.peak_concurrent,
        "peak concurrency is per-day, independent of total session count"
    );
    // Per-shard live peaks stay bounded by one day's population (shard
    // membership reshuffles per day, so exact equality is not expected).
    assert!(
        three_days.counters.peak_live_sessions <= users,
        "per-shard live peak {} must not exceed one day's population {users}",
        three_days.counters.peak_live_sessions
    );
    assert_eq!(one_day.trace_pool_bytes, three_days.trace_pool_bytes);
}

/// The profiler's determinism contract: running the fleet with
/// profiling Off, Noop (timestamps taken, nothing recorded), or fully
/// Recording yields a bit-identical `FleetReport`. The profiler reads
/// the wall clock, never the simulated clock, so it cannot perturb
/// results.
#[test]
fn fleet_report_is_invariant_under_profiling_mode() {
    let users = sessions_env();
    let cfg = fleet_cfg(users, 4);

    prof::set_mode(prof::Mode::Off);
    let off = run_fleet(&cfg);

    prof::set_mode(prof::Mode::Noop);
    let noop = run_fleet(&cfg);
    prof::set_mode(prof::Mode::Off);

    let (recorded, profile) = run_fleet_profiled(&cfg);

    assert_eq!(off.digest(), noop.digest(), "noop profiling must not change the report");
    assert_eq!(off.digest(), recorded.digest(), "recording must not change the report");
    assert_eq!(off.to_json(), recorded.to_json());

    // The recorded profile itself is non-trivial: spans from every
    // instrumented layer, with sane nesting totals.
    assert!(profile.rows.len() >= 12, "expected ≥12 spans, got {}", profile.rows.len());
    for span in
        ["fleet;session_step", "netsim;link_delivery", "quic;packet_encode", "core;sched_decide"]
    {
        assert!(profile.rows.iter().any(|r| r.path.contains(span)), "missing span {span}");
    }
}

/// Profile *counts* (span calls, allocation totals) are themselves
/// deterministic: repeated profiled runs agree exactly, and per-session
/// span counts don't depend on the shard count. Only the `fleet;merge`
/// spans — one per shard by construction — are excluded from the
/// cross-shard comparison.
#[test]
fn profile_counts_are_deterministic_and_shard_invariant() {
    let users = sessions_env().min(1_000);

    let (_, p1) = run_fleet_profiled(&fleet_cfg(users, 4));
    let (_, p2) = run_fleet_profiled(&fleet_cfg(users, 4));
    assert_eq!(
        p1.counts_digest(),
        p2.counts_digest(),
        "same partition ⇒ identical span calls and alloc attribution"
    );

    let (_, p8) = run_fleet_profiled(&fleet_cfg(users, 8));
    let shard_free = |p: &prof::ProfReport| {
        let mut rows: Vec<(String, u64)> = p
            .rows
            .iter()
            .filter(|r| !r.path.starts_with("fleet;merge"))
            .map(|r| (r.path.clone(), r.calls))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(shard_free(&p1), shard_free(&p8), "span calls must not depend on shard count");
}

/// Shards run on worker threads whose span trees are grafted into the
/// caller's; one shard runs on the calling thread and spawns nothing. Both
/// profiles must read the same — calls, allocations and allocated bytes of
/// every span — or the hand-off lost or invented work. Only `fleet;merge`
/// (one call per shard) differs.
#[test]
fn threaded_profile_equals_the_profile_of_one_thread() {
    let users = sessions_env().min(1_000);
    let (one_report, one) = run_fleet_profiled(&fleet_cfg(users, 1));
    let (four_report, four) = run_fleet_profiled(&fleet_cfg(users, 4));
    assert_eq!(one_report.digest(), four_report.digest());
    let counts = |p: &prof::ProfReport| {
        p.rows
            .iter()
            .filter(|r| !r.path.starts_with("fleet;merge"))
            .map(|r| (r.path.clone(), r.calls, r.allocs, r.alloc_bytes))
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(&one), counts(&four));
    assert_eq!(four.get("fleet;merge").expect("merge span").calls, 4);
}
