//! Fig. 10 + Table 2: client buffer-level improvement and traffic cost
//! vs the choice of double thresholds.
//!
//! Methodology mirrors §7.1: first measure the play-time-left
//! distribution with control off, pick thresholds at the X-th/Y-th
//! percentiles of that distribution, then run each (X, Y) setting and
//! report tail buffer-level improvement over SP, cost overhead, and the
//! reduction of sub-50 ms buffer levels (the rebuffer danger zone).
//! Every setting is one paired fleet run against SP on the same users;
//! the buffer level is the fleet's sampled play time left
//! ([`ArmAgg::buffer`]).
//!
//! [`threshold_tuning`] is the operator's view of the same knob (§5.2.2:
//! "one can easily tune these thresholds to trade performance with
//! cost"): absolute (T_th1, T_th2) settings on a video with a mid-play
//! Wi-Fi outage, rebuffer time against redundancy.

use super::ab_tables;
use super::fig06::walk_out_paths;
use crate::fleet::{run_fleet, ArmAgg, FleetConfig};
use crate::video_session::{run_session, SessionConfig, SessionResult};
use xlink_clock::Duration;
use xlink_core::{Scheme, TransportTuning};
use xlink_lab::stats::improvement_pct;
use xlink_video::Video;

/// Threshold settings from the paper's x-axis, as (X, Y) percentile pairs
/// plus the two extremes.
pub const SETTINGS: [(&str, Option<(f64, f64)>); 7] = [
    ("re-inj off", None),
    ("95-80", Some((95.0, 80.0))),
    ("90-80", Some((90.0, 80.0))),
    ("90-60", Some((90.0, 60.0))),
    ("60-50", Some((60.0, 50.0))),
    ("60-1", Some((60.0, 1.0))),
    ("1-1", Some((1.0, 1.0))),
];

/// One experiment row.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Setting label.
    pub setting: &'static str,
    /// Buffer-level improvement over SP at p90/p95/p99 of the *low* tail
    /// (positive = higher buffer = better).
    pub buf_improv_pct: [f64; 3],
    /// Redundant-traffic cost: the mean session redundancy ratio, in
    /// percent (Table 3's cost).
    pub cost_pct: f64,
    /// Reduction in the fraction of buffer levels below 50 ms (Table 2).
    pub danger_reduction_pct: f64,
}

/// The low tail of the buffer-level distribution the figure reads: p10,
/// p5 and p1 (its "p90/95/99" counted from the top).
const TAIL: [f64; 3] = [10.0, 5.0, 1.0];

/// The rebuffer danger level of Table 2, in seconds of play time left.
const DANGER_S: f64 = 0.050;

/// Share of an arm's buffer-level samples at or below the danger level.
/// Play time left is whole frames (40 ms at 25 fps), so counting the
/// histogram's bins is exact here.
fn danger_share(arm: &ArmAgg) -> f64 {
    arm.buffer.count_at_or_below(DANGER_S) as f64 / arm.buffer.count().max(1) as f64
}

/// Run the sweep with `users` users per setting, each playing SP and the
/// setting's scheme in a pair.
pub fn run(users: u64) -> Vec<Fig10Row> {
    // The A/B studies' contested workload: long enough that mid-play
    // outages land while the bounded buffer is the only slack.
    let population = |scheme_b, tuning| {
        let deadline = Duration::from_secs(60);
        run_fleet(&FleetConfig { tuning, deadline, ..ab_tables::day(scheme_b, 77, users) })
    };
    // Step 1: SP, the reference, against vanilla-MP: re-injection off, the
    // play-time-left distribution the thresholds are read from.
    let base = population(Scheme::VanillaMp, TransportTuning::default());
    let sp_tail = TAIL.map(|p| base.arm_a.buffer.percentile(p).max(1e-3));
    let sp_danger = danger_share(&base.arm_a).max(1e-6);
    let row = |setting, arm: &ArmAgg| Fig10Row {
        setting,
        // Larger buffer = better, at the low tail.
        buf_improv_pct: [0, 1, 2]
            .map(|i| -improvement_pct(sp_tail[i], arm.buffer.percentile(TAIL[i]))),
        cost_pct: arm.redundancy.mean() * 100.0,
        danger_reduction_pct: improvement_pct(sp_danger, danger_share(arm)),
    };
    SETTINGS
        .iter()
        .map(|&(label, setting)| {
            let Some((x, y)) = setting else {
                return row(label, &base.arm_b);
            };
            // th(X): X% of play-time-left values are ABOVE it → the X-th
            // percentile from the top = (100-X) from the bottom.
            let t1 = base.arm_b.buffer.percentile(100.0 - x).max(0.02);
            let t2 = base.arm_b.buffer.percentile(100.0 - y).max(t1);
            let t1_ms = (t1 * 1000.0) as u64;
            let thresholds_ms = (t1_ms, ((t2 * 1000.0) as u64).max(t1_ms + 1));
            let tuning = TransportTuning { thresholds_ms, ..Default::default() };
            row(label, &population(Scheme::Xlink, tuning).arm_b)
        })
        .collect()
}

/// Print Fig. 10 and Table 2.
pub fn print(rows: &[Fig10Row]) {
    xlink_lab::stats::print_table(
        "Fig 10: buffer-level improvement and cost vs double thresholds",
        &["Setting", "Buf p90 improv", "Buf p95 improv", "Buf p99 improv", "Cost (%)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.setting.to_string(),
                    format!("{:+.1}%", r.buf_improv_pct[0]),
                    format!("{:+.1}%", r.buf_improv_pct[1]),
                    format!("{:+.1}%", r.buf_improv_pct[2]),
                    format!("{:.2}", r.cost_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    xlink_lab::stats::print_table(
        "Table 2: reduction of buffer levels < 50ms",
        &["Setting", "Improv (%)"],
        &rows
            .iter()
            .filter(|r| r.setting != "re-inj off")
            .map(|r| vec![r.setting.to_string(), format!("{:+.2}", r.danger_reduction_pct)])
            .collect::<Vec<_>>(),
    );
}

/// Absolute thresholds (ms) of the operator sweep, from ≈ vanilla to ≈
/// always-on.
const TUNING_MS: [(u64, u64); 5] = [(0, 1), (100, 500), (300, 1500), (800, 3000), (5000, 20000)];

/// Under each of `TUNING_MS`, `runs` seeded sessions, the outage sliding
/// half a second later with each.
pub fn threshold_tuning(runs: u64) -> Vec<((u64, u64), Vec<SessionResult>)> {
    let session = |thresholds_ms, s: u64| {
        let seed = 60 + s;
        let mut cfg = SessionConfig::short_video(Scheme::Xlink, seed);
        cfg.video = Video::synth(10, 25, 1_500_000, 10.0);
        cfg.tuning = TransportTuning { thresholds_ms, ..Default::default() };
        cfg.deadline = Duration::from_secs(60);
        run_session(&cfg, walk_out_paths(seed, 12_000, (2_500 + s * 500, 5_000 + s * 500)))
    };
    TUNING_MS.map(|t| (t, (0..runs).map(|s| session(t, s)).collect())).into()
}

/// Print the operator sweep: mean rebuffer time and redundancy per setting.
pub fn print_threshold_tuning(rows: &[((u64, u64), Vec<SessionResult>)]) {
    let rows = rows.iter().map(|((t1, t2), sessions)| {
        let mean = |of: fn(&SessionResult) -> f64| {
            sessions.iter().map(of).sum::<f64>() / sessions.len() as f64
        };
        vec![
            format!("({t1},{t2})"),
            format!("{:.2}", mean(|r| r.player.rebuffer_time.as_secs_f64())),
            format!("{:.1}", mean(|r| r.server_transport.redundancy_ratio()) * 100.0),
            format!("{}/{}", sessions.iter().filter(|r| r.completed).count(), sessions.len()),
        ]
    });
    xlink_lab::stats::print_table(
        "Double-threshold sweep on a video with a mid-play Wi-Fi outage",
        &["(T_th1, T_th2) ms", "Rebuffer (s)", "Redundancy (%)", "Completed"],
        &rows.collect::<Vec<_>>(),
    );
    println!(
        "\nTiny thresholds ≈ vanilla (cheap, stalls); huge thresholds ≈\n\
         always-on re-injection (smooth, costly); the middle is XLINK's\n\
         operating point — smooth at ~2% overhead."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ordering_follows_threshold_coverage() {
        let rows = run(3);
        let moderate = rows.iter().find(|r| r.setting == "95-80").unwrap();
        let always = rows.iter().find(|r| r.setting == "1-1").unwrap();
        let off = rows.iter().find(|r| r.setting == "re-inj off").unwrap();
        // Paper §7.1: cost is lower-bounded by β(1−X) and upper-bounded by
        // β(1−Y). th(95) covers only the worst 5% of buffer moments
        // (cheap, may even be zero on clean draws); th(1) covers 99% of
        // them (≈ always-on, the expensive end).
        assert_eq!(off.cost_pct, 0.0);
        assert!(always.cost_pct > 0.0, "(1,1) must re-inject");
        assert!(
            moderate.cost_pct <= always.cost_pct,
            "moderate {} should not exceed near-always-on {}",
            moderate.cost_pct,
            always.cost_pct
        );
    }
}
