//! Population-scale randomized contrast trial (DESIGN §11): thousands of
//! users split user-wise into SP and XLINK arms of one deterministic fleet
//! plan, reproducing the shape of the paper's Table 1 / Fig. 6 production
//! results — with analytic 95% confidence intervals and constant-memory
//! streaming aggregation.

use crate::fleet::{run_fleet, ArmAgg, FleetConfig, FleetReport, Z95};
use crate::transport::Scheme;
use xlink_clock::Duration;
use xlink_video::Video;

/// The fleet shape of this row, `prof_dump`, `tests/fleet.rs` and the
/// 10k-session gate: SP vs XLINK on a short drain-limited video, arrivals
/// packed into a window shorter than any session, so the whole population
/// is concurrently live.
pub fn population(users: u64, shards: u32) -> FleetConfig {
    let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
    cfg.users_per_day = users;
    cfg.shards = shards;
    cfg.video = Video::synth(4, 25, 400_000, 8.0);
    cfg.arrival_window = Duration::from_secs(3);
    cfg.deadline = Duration::from_secs(45);
    cfg
}

/// Shards of the row and of `prof_dump` (reports do not depend on it).
pub const SHARDS: u32 = 4;

/// Run `users` sessions; the merged report and the wall-clock seconds it
/// took on this host.
pub fn run(users: u64) -> (FleetReport, f64) {
    let started = std::time::Instant::now();
    let report = run_fleet(&population(users, SHARDS));
    (report, started.elapsed().as_secs_f64())
}

/// Print the per-arm table, the population differential and the engine's
/// own counters.
pub fn print(r: &FleetReport, wall_s: f64) {
    let users = r.arm_a.sessions + r.arm_b.sessions;
    println!(
        "XLINK fleet RCT: {users} users, SP vs XLINK (user-randomized arms), {} shards\n",
        r.shards
    );
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
    let buffer = |a: &ArmAgg| [1.0, 5.0, 50.0].map(|p| format!("{:.2}", a.buffer.percentile(p)));
    let (a, b) = (buffer(&r.arm_a).join("/"), buffer(&r.arm_b).join("/"));
    println!("{:<26} {a:>10} {b:>10}  s", "buffer level p1/p5/p50");
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
    println!(
        "  wall time                 {wall_s:.1} s  ({:.0} sessions/s)",
        users as f64 / wall_s
    );
    println!("  report digest             {:016x}", r.digest());
}
