//! Edge-tier acceptance suite (DESIGN.md §13–§14): the CID-routed PoP
//! must hold its five load-bearing properties at population scale —
//!
//! 1. **Admission**: an honest fleet passes Retry-token validation and
//!    completes its downloads byte-exactly.
//! 2. **Flood resilience**: Initial floods, token replays, and
//!    CID-grinding leave every bounded-state gauge within its cap, the
//!    3× pre-validation amplification budget intact, and ≥95% of the
//!    honest population completing.
//! 3. **Graceful drain**: draining a shard mid-video migrates every
//!    live connection to a survivor with zero stream-byte loss.
//! 4. **Crash recovery**: crash-restarting a shard mid-video destroys
//!    its state, yet every affected client detects the death via a
//!    §10.3 stateless reset (strictly faster than the PTO/idle
//!    baseline), reconnects, and resumes at the verified byte offset
//!    with zero stream-byte loss.
//! 5. **Determinism**: per seed, the client-visible traced event stream
//!    is bit-identical across runs AND across shard counts — even when
//!    every shard crash-restarts mid-run.
//!
//! The population, the floods with their budgets and common contract,
//! the drain and the crash-RCT arms with their claims are the
//! `attack_matrix`, `pop_drain` and `crash_rct` rows'
//! (`harness::experiments`). Population size scales with `XLINK_POP_USERS`
//! (default 48 so plain debug `cargo test` stays quick); ci.sh re-runs
//! this suite in release at 1,000 users over an 8-seed sweep.

use xlink::clock::Duration;
use xlink::harness::experiments::attack_matrix::{check_flood, flood};
use xlink::harness::experiments::crash_rct::{
    self, mid_fleet as mid_fleet_crash, population as base,
};
use xlink::harness::experiments::pop_drain;
use xlink::harness::{run_pop, run_pop_traced, CrashPlan, EdgeAttackKind, PopRunConfig};
use xlink::obs::TraceLog;

fn sweep_seeds() -> u64 {
    std::env::var("XLINK_SWEEP_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

fn users_env() -> usize {
    std::env::var("XLINK_POP_USERS").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// Admission at fleet scale: every honest session eats exactly one
/// Retry, revalidates, and downloads its object byte-exactly.
#[test]
fn honest_fleet_completes_through_admission() {
    let users = users_env();
    let r = run_pop(&base(users, 7));
    assert!(
        r.completion() >= 0.95,
        "only {}/{} honest sessions completed: {r:?}",
        r.completed,
        r.users
    );
    assert!(r.bytes_ok, "a completed session saw a corrupt byte: {r:?}");
    assert!(r.amp_ok, "PoP exceeded the 3x pre-validation budget: {r:?}");
    assert!(r.bounded.within_caps(), "gauges out of cap: {:?}", r.bounded);
    // One admission per session, one tokenless first flight per session.
    assert_eq!(r.stats.admitted as usize, r.completed);
    assert_eq!(r.stats.rejected("no_token") as usize, r.users);
}

/// The headline flood guarantee, swept across seeds: an Initial flood
/// from a dedicated address creates no backend state, every gauge stays
/// capped, the Retry reflection to the flood address respects the 3×
/// amplification budget, and the honest fleet keeps completing.
#[test]
fn initial_flood_sweep_keeps_gauges_capped_and_fleet_standing() {
    let users = users_env();
    for seed in 0..sweep_seeds() {
        let r = flood(EdgeAttackKind::InitialFlood, &base(users, seed));
        check_flood(EdgeAttackKind::InitialFlood, seed, &r);
        // Every flood datagram bounced at admission; none grew a conn.
        assert!(r.stats.rejected("no_token") >= 500, "seed {seed}: {r:?}");
        assert!(r.stats.admitted as usize <= users, "seed {seed}: flood admitted: {r:?}");
        // The flood address got *some* Retries back (admission answers),
        // but amplification-capped ones.
        assert!(r.attacker_retries_seen > 0, "seed {seed}: {r:?}");
    }
}

/// The two stateful-looking floods are absorbed too: replaying one
/// captured token admits at most one zombie, and grinding random short-
/// header CIDs hits the routing table without growing it.
#[test]
fn replay_and_grind_floods_are_absorbed() {
    let users = users_env();
    for seed in 0..sweep_seeds() {
        let replay = flood(EdgeAttackKind::TokenReplay, &base(users, seed));
        check_flood(EdgeAttackKind::TokenReplay, seed, &replay);
        // One probe admission may slip through (the token's first spend
        // is valid by construction); every other spend is a replay.
        assert!(replay.stats.rejected("replayed_token") >= 119, "seed {seed}: {replay:?}");
        assert!(replay.stats.admitted as usize <= users + 1, "seed {seed}: {replay:?}");

        let grind = flood(EdgeAttackKind::CidGrind, &base(users, seed));
        check_flood(EdgeAttackKind::CidGrind, seed, &grind);
        assert!(grind.stats.rejected("no_route") >= 300, "seed {seed}: {grind:?}");
        assert_eq!(grind.stats.admitted as usize, grind.completed, "seed {seed}: {grind:?}");
    }
}

/// Mid-video drain: with downloads still in flight, draining a shard
/// migrates every live connection on it to a survivor with zero
/// stream-byte loss. Every claim is the `pop_drain` row's own `check`.
#[test]
fn mid_video_drain_migrates_every_conn_with_zero_byte_loss() {
    pop_drain::check(&pop_drain::run(users_env().min(24), 11).0);
}

/// Mid-video crash sweep: crash-restarting a shard with downloads in
/// flight destroys every byte of its state, yet ≥95% of the population
/// completes and *every* reconnecting session resumes at its verified
/// offset with zero stream-byte loss — each death detected via the
/// restarted shard's stateless resets, not idle exhaustion.
#[test]
fn mid_video_crash_sweep_resumes_with_zero_byte_loss() {
    let users = users_env();
    for seed in 0..sweep_seeds() {
        let mut cfg = PopRunConfig {
            request_bytes: 100_000,
            idle_timeout: Some(Duration::from_secs(2)),
            ..base(users, seed)
        };
        cfg.crash =
            Some(CrashPlan::single(mid_fleet_crash(&cfg), 1, Some(Duration::from_millis(40))));
        let r = run_pop(&cfg);
        assert!(
            r.completion() >= 0.95,
            "seed {seed}: only {}/{} sessions survived the crash: {r:?}",
            r.completed,
            r.users
        );
        assert!(r.bytes_ok, "seed {seed}: crash resume corrupted a stream: {r:?}");
        assert!(r.bounded.within_caps() && r.amp_ok, "seed {seed}: {r:?}");
        assert_eq!(r.stats.shard_crashes, 1, "seed {seed}: {r:?}");
        let crashed = r.shard_stats[&1];
        assert!(!crashed.crashed && crashed.epoch == 1, "seed {seed}: not restarted: {crashed:?}");
        // The crash landed on live downloads, and every one of them came
        // back: detection via reset, reconnection, byte-exact resume.
        assert!(r.reconnects > 0, "seed {seed}: crash hit nobody: {r:?}");
        assert_eq!(r.resumed, r.reconnects, "seed {seed}: a reconnect failed to resume: {r:?}");
        assert_eq!(r.resets_detected, r.reconnects, "seed {seed}: death missed by oracle: {r:?}");
        assert_eq!(r.recovery_times.len() as u64, r.reconnects, "seed {seed}: {r:?}");
        assert!(r.stats.resets_sent > 0, "seed {seed}: restarted shard sent no resets: {r:?}");
    }
}

/// The detection differential the reset machinery exists for: with the
/// PoP muted (no §10.3 resets), a client only learns its server died by
/// idling into its own timeout; with resets on, detection is a network
/// round-trip. Both arms still finish byte-exact — resets buy *time*,
/// not correctness. Every claim is the row's own `check`.
#[test]
fn crash_detection_beats_pto_idle_baseline() {
    crash_rct::check(&crash_rct::run(users_env().min(24), 13));
}

/// Everything a *client* observes — handshake, packet, and stream
/// events, with timestamps — as one comparable string per run. PoP-side
/// events legitimately differ across shard counts (shard ids appear in
/// them), so they are excluded here and covered by the determinism test
/// below instead.
fn client_view(log: &TraceLog) -> String {
    let mut out = String::new();
    for ev in log.events() {
        let src = log.source_name(ev.source);
        if src.starts_with("client") {
            out.push_str(&format!("{} {:?} {:?}\n", src, ev.time, ev.body));
        }
    }
    out
}

/// Shard-count invariance: per seed, the client-visible traced event
/// stream is bit-identical whether the PoP runs 1, 2, or 4 shards —
/// backend placement is an edge-internal concern that never leaks into
/// client-observable timing or contents.
#[test]
fn client_trace_is_bit_identical_across_shard_counts() {
    let users = users_env().min(16);
    let runs: Vec<(String, usize)> = [vec![1], vec![1, 2], vec![1, 2, 3, 4]]
        .into_iter()
        .map(|shards| {
            let cfg = PopRunConfig { shards, ..base(users, 5) };
            let log = TraceLog::recording();
            let r = run_pop_traced(&cfg, &log);
            assert_eq!(r.completed, users, "{r:?}");
            (client_view(&log), r.completed)
        })
        .collect();
    assert!(!runs[0].0.is_empty(), "client trace captured nothing");
    assert_eq!(runs[0].0, runs[1].0, "1-shard vs 2-shard client traces differ");
    assert_eq!(runs[0].0, runs[2].0, "1-shard vs 4-shard client traces differ");
}

/// Shard-count invariance survives a total outage: crash-restarting
/// *every* shard mid-run (so each population experiences the identical
/// client-visible fault) yields bit-identical client traces — including
/// the reset detections and resume events — whether the PoP runs 1, 2,
/// or 4 shards.
#[test]
fn crash_recovery_client_trace_is_bit_identical_across_shard_counts() {
    let users = users_env().min(16);
    let runs: Vec<String> = [vec![1], vec![1, 2], vec![1, 2, 3, 4]]
        .into_iter()
        .map(|shards| {
            let mut cfg = PopRunConfig {
                shards: shards.clone(),
                request_bytes: 200_000,
                idle_timeout: Some(Duration::from_secs(2)),
                ..base(users, 5)
            };
            cfg.crash = Some(CrashPlan::total_outage(
                mid_fleet_crash(&cfg),
                &shards,
                Duration::from_millis(40),
            ));
            let log = TraceLog::recording();
            let r = run_pop_traced(&cfg, &log);
            assert_eq!(r.completed, users, "shards {shards:?}: {r:?}");
            assert!(r.bytes_ok, "shards {shards:?}: {r:?}");
            assert!(r.reconnects > 0, "shards {shards:?}: outage hit nobody: {r:?}");
            assert_eq!(r.resumed, r.reconnects, "shards {shards:?}: {r:?}");
            client_view(&log)
        })
        .collect();
    assert!(runs[0].contains("SessionResumed"), "no resume event in the client trace");
    assert_eq!(runs[0], runs[1], "1-shard vs 2-shard crash-recovery traces differ");
    assert_eq!(runs[0], runs[2], "1-shard vs 4-shard crash-recovery traces differ");
}

/// Repeat-run determinism over the *full* trace — edge events included:
/// the same config (drain and flood in the mix) twice yields the same
/// qlog byte-for-byte and the same report.
#[test]
fn repeated_runs_are_bit_identical() {
    let users = users_env().min(16);
    let cfg = PopRunConfig {
        drain: Some((Duration::from_millis(120), 2)),
        attack: Some((EdgeAttackKind::InitialFlood, 64)),
        request_bytes: 60_000,
        ..base(users, 3)
    };
    let run = || {
        let log = TraceLog::recording();
        let r = run_pop_traced(&cfg, &log);
        (log.to_qlog("edge-determinism"), format!("{r:?}"))
    };
    let (qlog_a, report_a) = run();
    let (qlog_b, report_b) = run();
    assert!(!qlog_a.is_empty());
    assert_eq!(report_a, report_b, "repeated run changed the report");
    assert_eq!(qlog_a, qlog_b, "repeated run changed the traced event stream");
}

/// The PoP tier is event-driven: an endpoint asks a connection for a
/// datagram only after that connection took an input, so the number of
/// `Connection::poll_transmit` calls per datagram the PoP ingests is a
/// small constant whatever the population. (A runner that walks every
/// connection on every round makes it grow with the users: hundreds at
/// 1000.) Exact counts, so the bound cannot flake.
#[test]
fn conn_polls_per_datagram_do_not_grow_with_the_population() {
    let polls_per_datagram = |users: usize| {
        let mut cfg = PopRunConfig {
            request_bytes: 30_000,
            idle_timeout: Some(Duration::from_secs(2)),
            attack: Some((EdgeAttackKind::InitialFlood, 500)),
            ..base(users, 7)
        };
        cfg.crash =
            Some(CrashPlan::single(mid_fleet_crash(&cfg), 1, Some(Duration::from_millis(40))));
        let r = run_pop(&cfg);
        assert!(r.completion() >= 0.95 && r.bytes_ok, "{users} users: {r:?}");
        assert!(r.timer_fires > 0, "{users} users: no timer ever fired: {r:?}");
        r.conn_polls as f64 / r.stats.datagrams_in as f64
    };
    let (small, large) = (polls_per_datagram(250), polls_per_datagram(1000));
    assert!(large <= small * 1.5, "polls per datagram grew with users: {small:.2} -> {large:.2}");
    assert!(large < 8.0, "{large:.2} connection polls per PoP datagram");
}
