//! Crash-recovery RCT (DESIGN §14): the same fleet of video-sized
//! downloads run through four arms — shard crash-restart with §10.3
//! stateless resets, the same crash with a mute PoP (clients must idle
//! out), a graceful drain, and a no-fault baseline — then a scorecard
//! comparing completion, reconnections, and the detection/recovery
//! latency distributions that justify answering resets at all.
//!
//! The scorecard and the histograms go to stderr. Stdout carries three
//! perf-ledger rows (`xlink::obs::ledger`): `crash_rct/detect_time`,
//! `crash_rct/recovery_time` and the mute-PoP `detect_time_no_reset`
//! baseline at this population, as sample count, min, median, p95 and max
//! in simulated microseconds. The sim is deterministic, so every field is
//! exact; ci.sh appends them to `BENCH_fleet.json` for perfgate to hold.
//!
//! ```sh
//! cargo run --release --example crash_rct
//! XLINK_POP_USERS=1000 cargo run --release --example crash_rct >> BENCH_fleet.json
//! ```

use xlink::clock::Duration;
use xlink::harness::{run_crash_rct, CrashRct, PopRunConfig};
use xlink::lab::stats::percentile;
use xlink::obs::ledger::Row;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn histogram(label: &str, samples: &[Duration]) {
    if samples.is_empty() {
        return;
    }
    let ms: Vec<u64> = samples.iter().map(|d| d.as_millis()).collect();
    let hi = *ms.iter().max().unwrap();
    let bucket = (hi / 8).max(1);
    eprintln!("  {label} histogram ({} samples, {bucket}ms buckets):", ms.len());
    for b in 0..=hi / bucket {
        let lo = b * bucket;
        let n = ms.iter().filter(|&&m| m >= lo && m < lo + bucket).count();
        if n > 0 {
            eprintln!("    {:>5}-{:<5}ms {:>4}  {}", lo, lo + bucket, n, "#".repeat(n.min(60)));
        }
    }
}

fn main() {
    let users = env_u64("XLINK_POP_USERS", 30) as usize;
    let seed = env_u64("XLINK_POP_SEED", 7);

    let cfg = PopRunConfig {
        users,
        addrs: 16.min(users.max(1)),
        shards: vec![1, 2, 3],
        request_bytes: 200_000,
        seed,
        idle_timeout: Some(Duration::from_secs(2)),
        deadline: Duration::from_secs(40),
        ..PopRunConfig::default()
    };
    // Land the fault mid-fleet: after half the staggered starts, with
    // the early cohort's downloads still in flight.
    let at = cfg.stagger * (cfg.users as u32 / 2) + Duration::from_millis(150);
    let down = Duration::from_millis(40);
    let rct = run_crash_rct(&cfg, at, 1, down);

    eprintln!(
        "crash-recovery RCT ({users} users, 3 shards, shard 1 {} at {}ms for {}ms)",
        "crash-restarted",
        at.as_millis(),
        down.as_millis(),
    );
    eprintln!();
    eprintln!(
        "{:<16} {:>10} {:>8} {:>10} {:>8} {:>12} {:>12}",
        "arm", "completed", "bytes", "reconnect", "resumed", "detect-ms", "recover-ms"
    );
    let arms: [(&str, &xlink::harness::PopReport); 4] = [
        ("crash+reset", &rct.crash),
        ("crash (mute)", &rct.crash_no_reset),
        ("drain", &rct.drain),
        ("baseline", &rct.baseline),
    ];
    for (label, r) in arms {
        let fmt = |d: Option<Duration>| {
            d.map_or("-".to_string(), |d| format!("{:.1}", d.as_micros() as f64 / 1000.0))
        };
        eprintln!(
            "{:<16} {:>7}/{:<2} {:>8} {:>10} {:>8} {:>12} {:>12}",
            label,
            r.completed,
            r.users,
            if r.bytes_ok { "ok" } else { "CORRUPT" },
            r.reconnects,
            r.resumed,
            fmt(r.mean_detect()),
            fmt(r.mean_recovery()),
        );
    }
    eprintln!();
    histogram("detect (reset)", &rct.crash.detect_times);
    histogram("detect (mute PoP)", &rct.crash_no_reset.detect_times);
    histogram("recovery", &rct.crash.recovery_times);

    check(&rct);

    let fast = rct.crash.mean_detect().expect("crash arm saw no detections");
    let slow = rct.crash_no_reset.mean_detect().expect("mute arm saw no detections");
    eprintln!();
    eprintln!(
        "stateless resets cut mean death-detection from {:.1}ms to {:.1}ms ({:.1}x); \
         every reconnecting session resumed at its verified offset.",
        slow.as_micros() as f64 / 1000.0,
        fast.as_micros() as f64 / 1000.0,
        slow.as_micros() as f64 / fast.as_micros().max(1) as f64,
    );

    for (name, samples) in [
        ("crash_rct/detect_time", &rct.crash.detect_times),
        ("crash_rct/detect_time_no_reset", &rct.crash_no_reset.detect_times),
        ("crash_rct/recovery_time", &rct.crash.recovery_times),
    ] {
        let us: Vec<f64> = samples.iter().map(|d| d.as_micros() as f64).collect();
        let at = |p: f64| percentile(&us, p) as u64;
        let row = Row::new(format!("{name}@{users}"))
            .exact("samples", us.len() as u64)
            .exact("min_us", at(0.0))
            .exact("median_us", at(50.0))
            .exact("p95_us", at(95.0))
            .exact("max_us", at(100.0));
        println!("{}", row.to_json());
    }
}

/// The RCT's claims, asserted: zero-byte-loss resume in both crash
/// arms, a strictly faster detection distribution with resets on, and
/// fault-free arms that never reconnect.
fn check(rct: &CrashRct) {
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
    let (fast, slow) =
        (rct.crash.mean_detect().unwrap(), rct.crash_no_reset.mean_detect().unwrap());
    assert!(fast < slow, "resets did not beat idle-timeout detection: {fast:?} vs {slow:?}");
}
