//! Crash-recovery RCT (DESIGN §14): the same fleet of video-sized
//! downloads run through four arms — shard crash-restart with §10.3
//! stateless resets, the same crash with a mute PoP (clients must idle
//! out), a graceful drain, and a no-fault baseline — then a scorecard
//! comparing completion, reconnections, and the detection/recovery
//! latency distributions that justify answering resets at all.
//!
//! The last three lines printed are perf-ledger rows
//! ([`xlink_obs::ledger`]): `crash_rct/detect_time`, `crash_rct/recovery_time`
//! and the mute-PoP `detect_time_no_reset` baseline at this population, as
//! sample count, min, median, p95 and max in simulated microseconds. The
//! sim is deterministic, so every field is exact; ci.sh records them in
//! `BENCH_fleet.json` for perfgate to hold.

use crate::chaos::CrashPlan;
use crate::pop::{run_pop, PopReport, PopRunConfig};
use xlink_clock::Duration;
use xlink_core::lb::ServerId;
use xlink_lab::stats::{percentile, print_table};
use xlink_obs::ledger::Row;

/// The shard that fails, and how long it stays down.
const SHARD: ServerId = 1;
const DOWN: Duration = Duration::from_millis(40);

/// The edge population of the crash and flood experiments: `users`
/// sessions behind at most 16 NAT'd addresses, three backend shards.
pub fn population(users: usize, seed: u64) -> PopRunConfig {
    PopRunConfig {
        users,
        addrs: 16.min(users.max(1)),
        shards: vec![1, 2, 3],
        seed,
        ..PopRunConfig::default()
    }
}

/// A fault time that lands mid-fleet at any population size: after half
/// the staggered starts, with the early cohort's downloads still in flight.
pub fn mid_fleet(cfg: &PopRunConfig) -> Duration {
    cfg.stagger * (cfg.users as u32 / 2) + Duration::from_millis(150)
}

/// The four arms of the crash randomized controlled trial, all sharing
/// one seed/population so differences are attributable to the fault
/// model alone.
#[derive(Debug, Clone)]
pub struct CrashRct {
    /// When shard 1 failed (or was drained).
    pub at: Duration,
    /// Shard crash-restarted mid-run; clients recover via stateless
    /// resets and reconnection.
    pub crash: PopReport,
    /// Same crash, but the PoP stays mute (no §10.3 resets): clients
    /// must exhaust their idle timeout before reconnecting.
    pub crash_no_reset: PopReport,
    /// The shard is gracefully drained instead (connection migration,
    /// no reconnects needed).
    pub drain: PopReport,
    /// No fault at all.
    pub baseline: PopReport,
}

/// Run the four arms over `users` sessions of 200 KB each.
pub fn run(users: usize, seed: u64) -> CrashRct {
    let base = PopRunConfig {
        request_bytes: 200_000,
        // Short enough that the mute arm's idle exhaustion resolves
        // inside the run deadline.
        idle_timeout: Some(Duration::from_secs(2)),
        deadline: Duration::from_secs(40),
        ..population(users, seed)
    };
    let at = mid_fleet(&base);
    let crash =
        PopRunConfig { crash: Some(CrashPlan::single(at, SHARD, Some(DOWN))), ..base.clone() };
    let crash_no_reset = PopRunConfig { stateless_reset: false, ..crash.clone() };
    let drain = PopRunConfig { drain: Some((at, SHARD)), ..base.clone() };
    CrashRct {
        at,
        crash: run_pop(&crash),
        crash_no_reset: run_pop(&crash_no_reset),
        drain: run_pop(&drain),
        baseline: run_pop(&base),
    }
}

/// The RCT's claims, asserted: zero-byte-loss resume in both crash
/// arms, fault-free arms that never reconnect, and the detection
/// differential the reset machinery exists for — with the PoP muted a
/// client learns its server died by idling into its own 2 s timeout, with
/// resets on detection is a network round trip. Resets buy *time*, not
/// correctness.
pub fn check(rct: &CrashRct) {
    for (label, r) in [("crash", &rct.crash), ("mute", &rct.crash_no_reset)] {
        assert!(r.completion() >= 0.95, "{label} arm lost sessions: {r:?}");
        assert!(r.bytes_ok, "{label} arm corrupted a stream: {r:?}");
        assert!(r.reconnects > 0 && r.resumed == r.reconnects, "{label} arm: {r:?}");
    }
    assert!(rct.crash.resets_detected == rct.crash.reconnects, "reset oracle missed a death");
    assert!(rct.crash_no_reset.resets_detected == 0, "mute PoP produced a reset detection");
    for (label, r) in [("drain", &rct.drain), ("baseline", &rct.baseline)] {
        assert!(r.completed == r.users && r.bytes_ok && r.reconnects == 0, "{label} arm: {r:?}");
    }
    let fast = rct.crash.mean_detect().expect("reset arm detects");
    let slow = rct.crash_no_reset.mean_detect().expect("idle arm detects");
    assert!(fast < slow, "resets did not beat idle-timeout detection: {fast:?} vs {slow:?}");
    // And not marginally: resets land within a PTO or two of the
    // restart, idle exhaustion burns the full 2 s budget.
    assert!(fast < Duration::from_secs(1), "reset detection too slow: {fast:?}");
    assert!(slow >= Duration::from_secs(1), "idle arm detected implausibly fast: {slow:?}");
}

/// The three `crash_rct/*@users` rows of `BENCH_fleet.json`.
fn ledger_rows(rct: &CrashRct) -> Vec<Row> {
    [
        ("detect_time", &rct.crash.detect_times),
        ("detect_time_no_reset", &rct.crash_no_reset.detect_times),
        ("recovery_time", &rct.crash.recovery_times),
    ]
    .into_iter()
    .map(|(name, samples)| {
        let us: Vec<f64> = samples.iter().map(|d| d.as_micros() as f64).collect();
        let at = |p: f64| percentile(&us, p) as u64;
        Row::new(format!("crash_rct/{name}@{}", rct.crash.users))
            .exact("samples", us.len() as u64)
            .exact("min_us", at(0.0))
            .exact("median_us", at(50.0))
            .exact("p95_us", at(95.0))
            .exact("max_us", at(100.0))
    })
    .collect()
}

/// Print the scorecard, then the detection and recovery distributions as
/// the ledger rows.
pub fn print(rct: &CrashRct) {
    let ms = |d: Option<Duration>| {
        d.map_or("-".to_string(), |d| format!("{:.1}", d.as_micros() as f64 / 1000.0))
    };
    let title = format!(
        "Crash-recovery RCT: {} users, 3 shards, shard {SHARD} crash-restarted at {} ms for {} ms",
        rct.crash.users,
        rct.at.as_millis(),
        DOWN.as_millis(),
    );
    let arms = [
        ("crash+reset", &rct.crash),
        ("crash (mute)", &rct.crash_no_reset),
        ("drain", &rct.drain),
        ("baseline", &rct.baseline),
    ]
    .map(|(label, r)| {
        vec![
            label.to_string(),
            format!("{}/{}", r.completed, r.users),
            if r.bytes_ok { "ok" } else { "CORRUPT" }.to_string(),
            r.reconnects.to_string(),
            r.resumed.to_string(),
            ms(r.mean_detect()),
            ms(r.mean_recovery()),
        ]
    });
    let headers =
        ["Arm", "Completed", "Bytes", "Reconnects", "Resumed", "Detect (ms)", "Recover (ms)"];
    print_table(&title, &headers, &arms);
    if let (Some(fast), Some(slow)) = (rct.crash.mean_detect(), rct.crash_no_reset.mean_detect()) {
        let ratio = slow.as_micros() as f64 / fast.as_micros().max(1) as f64;
        println!("\nStateless resets cut mean death-detection {ratio:.1}x.");
    }
    println!();
    for row in ledger_rows(rct) {
        println!("{}", row.to_json());
    }
}
