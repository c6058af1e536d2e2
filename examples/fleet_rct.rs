//! Population-scale randomized contrast trial: thousands of users split
//! user-wise into SP and XLINK arms of one deterministic fleet plan,
//! reproducing the shape of the paper's Table 1 / Fig. 6 production
//! results — with analytic 95% confidence intervals and constant-memory
//! streaming aggregation.
//!
//! ```sh
//! cargo run --release --example fleet_rct
//! XLINK_FLEET_SESSIONS=10000 cargo run --release --example fleet_rct
//! ```

use xlink::clock::Duration;
use xlink::harness::fleet::{run_fleet, FleetConfig, Z95};
use xlink::harness::Scheme;
use xlink::video::Video;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let users = env_u64("XLINK_FLEET_SESSIONS", 2_000);
    let shards = env_u64("XLINK_FLEET_SHARDS", 4) as u32;

    let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
    cfg.users_per_day = users;
    cfg.shards = shards;
    cfg.video = Video::synth(4, 25, 400_000, 8.0);
    cfg.arrival_window = Duration::from_secs(3);
    cfg.deadline = Duration::from_secs(45);

    println!(
        "XLINK fleet RCT: {} users, SP vs XLINK (user-randomized arms), {} shards\n",
        users, shards
    );
    let t0 = std::time::Instant::now();
    let r = run_fleet(&cfg);
    let wall = t0.elapsed().as_secs_f64();

    let row = |label: &str, a: f64, b: f64, unit: &str| {
        println!("{label:<26} {a:>10.3} {b:>10.3}  {unit}");
    };
    println!("{:<26} {:>10} {:>10}", "metric", "SP (A)", "XLINK (B)");
    row("sessions", r.arm_a.sessions as f64, r.arm_b.sessions as f64, "");
    row(
        "completed %",
        100.0 * r.arm_a.completed as f64 / r.arm_a.sessions.max(1) as f64,
        100.0 * r.arm_b.completed as f64 / r.arm_b.sessions.max(1) as f64,
        "",
    );
    for p in [50.0, 95.0, 99.0] {
        row(&format!("chunk RCT p{p:.0}"), r.rct_pct(false, p), r.rct_pct(true, p), "s");
    }
    row(
        "first-frame p50",
        r.arm_a.first_frame.percentile(50.0),
        r.arm_b.first_frame.percentile(50.0),
        "s",
    );
    row("rebuffer rate", r.arm_a.rebuffer_rate(), r.arm_b.rebuffer_rate(), "stall/play");
    row("redundancy mean", r.arm_a.redundancy.mean(), r.arm_b.redundancy.mean(), "ratio");

    println!("\nPopulation differential (A − B, positive favors XLINK):");
    let (lo, mid, hi) = r.rct_mean_diff_ci();
    println!("  mean chunk RCT     {mid:+.4} s   95% CI [{lo:+.4}, {hi:+.4}]");
    let (lo, mid, hi) = r.rebuffer_mean_diff_ci();
    println!("  mean rebuffer time {mid:+.4} s   95% CI [{lo:+.4}, {hi:+.4}]");
    println!("  RCT p50 improvement   {:+.1}%", r.rct_improvement(50.0));
    println!("  RCT p99 improvement   {:+.1}%", r.rct_improvement(99.0));
    println!("  rebuffer improvement  {:+.1}%", r.rebuffer_improvement());
    let (plo, phi) = r.arm_b.rct.percentile_ci(99.0, Z95);
    println!("  XLINK RCT p99 95% CI  [{plo:.3}, {phi:.3}] s");

    println!("\nFleet engine:");
    println!("  peak concurrent sessions  {} (simulated overlap)", r.peak_concurrent);
    println!("  sessions run              {}", r.counters.events);
    println!("  simulated packets         {}", r.counters.packets);
    println!("  trace pool                {} KiB", r.trace_pool_bytes / 1024);
    println!("  wall time                 {wall:.1} s  ({:.0} sessions/s)", users as f64 / wall);
    println!("  report digest             {:016x}", r.digest());
}
