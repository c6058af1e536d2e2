//! Graceful shard-drain timeline (DESIGN §13): a fleet of honest
//! video-sized downloads against a 3-shard CID-routed PoP, one shard
//! drained mid-transfer, and the traced edge-event timeline — the drain
//! announcement and each live connection's migration onto a surviving
//! shard — followed by the zero-loss scorecard.

use super::crash_rct::population;
use crate::pop::{run_pop_traced, PopReport, PopRunConfig};
use xlink_clock::Duration;
use xlink_core::lb::ServerId;
use xlink_obs::TraceLog;

/// The shard that is drained, and when.
const SHARD: ServerId = 1;
const AT: Duration = Duration::from_millis(150);

/// Drain shard 1 at 150 ms under `users` sessions of 400 KB each: the
/// scorecard and the drain's timeline, one `time-ms  event` line per event.
pub fn run(users: usize, seed: u64) -> (PopReport, Vec<String>) {
    let cfg = PopRunConfig {
        request_bytes: 400_000,
        drain: Some((AT, SHARD)),
        ..population(users, seed)
    };
    let log = TraceLog::recording();
    let report = run_pop_traced(&cfg, &log);
    let events = log.events().into_iter().filter(|e| log.source_name(e.source) == "edge.pop");
    let drain = events.filter(|e| matches!(e.body.name(), "shard_drain" | "conn_migrated"));
    let line = |e: xlink_obs::TraceEvent| {
        format!("{:>10.1}  {:?}", e.time.as_micros() as f64 / 1000.0, e.body)
    };
    (report, drain.map(line).collect())
}

/// With downloads still in flight, the drain migrates every live
/// connection to a survivor: the drained shard empties, the migration
/// ledgers agree, and every session still finishes with every byte
/// matching the pattern.
pub fn check(r: &PopReport) {
    assert_eq!(r.completed, r.users, "drain lost a session: {r:?}");
    assert!(r.bytes_ok, "drain corrupted a stream: {r:?}");
    let drained = r.shard_stats[&SHARD];
    assert!(drained.draining, "{drained:?}");
    assert_eq!(drained.live, 0, "drained shard still owns conns: {drained:?}");
    assert_eq!(r.stats.migrations, drained.migrated_out, "{r:?}");
    assert!(r.stats.migrations > 0, "drain fired before any conn was live: {r:?}");
    // Survivors absorbed exactly what the drained shard shed.
    let migrated_in: u64 = r.shard_stats.values().map(|s| s.migrated_in).sum();
    assert_eq!(migrated_in, drained.migrated_out, "{:?}", r.shard_stats);
}

/// Print the timeline and the scorecard.
pub fn print(r: &PopReport, timeline: &[String]) {
    println!(
        "shard-drain timeline ({} users, 3 shards, drain shard {SHARD} at {}ms)",
        r.users,
        AT.as_millis()
    );
    println!("{:>10}  event", "time-ms");
    timeline.iter().for_each(|line| println!("{line}"));
    println!();
    println!("scorecard:");
    println!("  completed        {}/{} sessions", r.completed, r.users);
    println!("  byte integrity   {}", if r.bytes_ok { "every byte matched" } else { "CORRUPT" });
    println!("  migrations       {}", r.stats.migrations);
    for (shard, s) in &r.shard_stats {
        println!(
            "  shard {shard}          live {} admitted {} out {} in {}{}",
            s.live,
            s.admitted,
            s.migrated_out,
            s.migrated_in,
            if s.draining { "  (drained)" } else { "" },
        );
    }
}
