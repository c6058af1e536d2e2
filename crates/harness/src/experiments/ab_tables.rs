//! The A/B studies:
//!
//! * Fig. 1c + Table 1 — vanilla-MP vs SP (7 days): vanilla-MP should
//!   *lose* at the p99 RCT and on rebuffer rate (negative improvements).
//! * Fig. 11 + Table 3 — XLINK vs SP (14 days / 7 days): XLINK should win
//!   consistently at every percentile, most at the tail.
//!
//! Each day is one paired fleet (DESIGN §11): every user plays SP and the
//! treatment on the same drawn paths and session seed, which exercises the
//! same code paths as the production study's randomized groups with far
//! lower variance at simulation scale.

use crate::fleet::{run_fleet, FleetConfig, FleetReport};
use crate::transport::Scheme;
use xlink_clock::Duration;
use xlink_lab::stats::print_table;
use xlink_video::Video;

/// Day `day` of an SP-vs-`scheme_b` study with `users` users; the day
/// seeds the draws, so each day is a different population.
pub fn day(scheme_b: Scheme, day: u64, users: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, scheme_b);
    cfg.paired = true;
    cfg.seed = day;
    cfg.users_per_day = users;
    // About one user per shard: sessions that stall run many times longer
    // than the rest, and small shards let `par::map` spread them.
    cfg.shards = users.max(1) as u32;
    // 18 s at 3 Mbps with a 5 s bounded buffer: a multi-second Wi-Fi
    // outage lands mid-play and forces the transport to react before the
    // buffer drains.
    cfg.video = Video::synth(18, 25, 3_000_000, 10.0);
    cfg.deadline = Duration::from_secs(90);
    cfg.chunk_bytes = 256 * 1024;
    cfg
}

/// Rows of an RCT-percentile A/B table (one per day).
#[derive(Debug, Clone)]
pub struct AbReport {
    /// Per-day reports, day 1 first.
    pub days: Vec<FleetReport>,
    /// Label for arm B.
    pub label_b: &'static str,
}

/// Run SP vs `scheme_b` for `days` days of `users_per_day` users: Fig. 1c
/// and Table 1 with vanilla-MP, Fig. 11 and Table 3 with XLINK.
pub fn run(scheme_b: Scheme, days: u64, users_per_day: u64) -> AbReport {
    let days = (1..=days).map(|d| run_fleet(&day(scheme_b, d, users_per_day))).collect();
    AbReport { days, label_b: scheme_b.label() }
}

/// Print the request-completion-time figure (median / p95 / p99 per day)
/// and the rebuffer-rate reduction table.
pub fn print(r: &AbReport) {
    let rows: Vec<Vec<String>> = r
        .days
        .iter()
        .zip(1..)
        .map(|(d, day)| {
            vec![
                day.to_string(),
                format!("{:.3}", d.rct_pct(false, 50.0)),
                format!("{:.3}", d.rct_pct(true, 50.0)),
                format!("{:.3}", d.rct_pct(false, 95.0)),
                format!("{:.3}", d.rct_pct(true, 95.0)),
                format!("{:.3}", d.rct_pct(false, 99.0)),
                format!("{:.3}", d.rct_pct(true, 99.0)),
                format!("{:+.1}%", d.rct_improvement(99.0)),
            ]
        })
        .collect();
    print_table(
        &format!("Request completion time: SP vs {} (s)", r.label_b),
        &[
            "Day",
            "SP med",
            &format!("{} med", r.label_b),
            "SP p95",
            &format!("{} p95", r.label_b),
            "SP p99",
            &format!("{} p99", r.label_b),
            "p99 improv",
        ],
        &rows,
    );
    let rows: Vec<Vec<String>> = r
        .days
        .iter()
        .zip(1..)
        .map(|(d, day)| vec![day.to_string(), format!("{:+.2}", d.rebuffer_improvement())])
        .collect();
    print_table(
        &format!("Reduction of rebuffer rate ({} vs SP), %", r.label_b),
        &["Day", "Improv (%)"],
        &rows,
    );
    let redundancy: f64 = r.days.iter().map(|d| d.arm_b.redundancy.sum()).sum::<f64>()
        / r.days.iter().map(|d| d.arm_b.redundancy.count()).sum::<u64>().max(1) as f64;
    println!("\nMean {} redundancy (cost): {:.2}%", r.label_b, redundancy * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature end-to-end check of the headline result: XLINK beats SP
    /// at the p99 RCT and on rebuffer rate, while vanilla-MP's p99 is not
    /// meaningfully better than SP (the paper's §3 motivation).
    #[test]
    fn headline_shapes_hold_in_miniature() {
        let xlink = run(Scheme::Xlink, 2, 8);
        let mut xl_p99 = Vec::new();
        let mut xl_rebuf = Vec::new();
        for d in &xlink.days {
            xl_p99.push(d.rct_improvement(99.0));
            xl_rebuf.push(d.rebuffer_improvement());
        }
        let mean_p99 = xl_p99.iter().sum::<f64>() / xl_p99.len() as f64;
        assert!(mean_p99 > 0.0, "XLINK should improve p99 RCT, got {mean_p99:.1}% ({xl_p99:?})");
        let mean_rebuf = xl_rebuf.iter().sum::<f64>() / xl_rebuf.len() as f64;
        assert!(mean_rebuf > -5.0, "XLINK rebuffer should not regress, got {mean_rebuf:.1}%");
    }
}
