//! Fig. 12: first-video-frame latency improvement over SP across
//! percentiles, with and without first-video-frame acceleration.
//!
//! Expected shape (§7.2): without acceleration the tail *degrades* vs SP
//! (the slow path's in-flight first-frame packets block start-up); with
//! acceleration the improvement is positive and grows toward the tail.
//! Each arm is read from a paired fleet run against SP on the same users.

use super::ab_tables;
use crate::fleet::{run_fleet, FleetConfig, FleetReport};
use xlink_clock::Duration;
use xlink_core::Scheme;
use xlink_lab::stats::improvement_pct;
use xlink_video::Video;

/// Percentiles the figure reports.
pub const PERCENTILES: [f64; 10] = [5.0, 25.0, 50.0, 75.0, 90.0, 93.0, 95.0, 97.0, 98.0, 99.0];

/// Result: improvement (%) per percentile for both arms.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// (percentile, improvement with acceleration, improvement without).
    pub rows: Vec<(f64, f64, f64)>,
}

/// SP against `scheme_b` for `users` users in pairs, on the A/B studies'
/// paths with a large delay difference: LTE 60 ms further away, so the
/// video-frame blocking effect is visible.
fn population(scheme_b: Scheme, users: u64) -> FleetReport {
    run_fleet(&FleetConfig {
        video: Video::synth(6, 25, 1_000_000, 14.0), // big first frame
        deadline: Duration::from_secs(40),
        lte_extra_delay: Duration::from_millis(60),
        ..ab_tables::day(scheme_b, 55, users)
    })
}

/// Run with `users` users, each playing SP and both XLINK arms. The arm
/// without acceleration is [`Scheme::XlinkNoFirstFrame`]: the server still
/// tags the first frame, but that scheme's re-injection rank ignores it.
pub fn run(users: u64) -> Fig12Result {
    let with_accel = population(Scheme::Xlink, users);
    let without = population(Scheme::XlinkNoFirstFrame, users);
    let sp = &with_accel.arm_a.first_frame;
    let rows = PERCENTILES
        .iter()
        .map(|&p| {
            let base = sp.percentile(p);
            (
                p,
                improvement_pct(base, with_accel.arm_b.first_frame.percentile(p)),
                improvement_pct(base, without.arm_b.first_frame.percentile(p)),
            )
        })
        .collect();
    Fig12Result { rows }
}

/// Print the figure.
pub fn print(r: &Fig12Result) {
    xlink_lab::stats::print_table(
        "Fig 12: first-video-frame latency improvement over SP",
        &["Percentile", "w/ first-frame accel", "w/o first-frame accel"],
        &r.rows
            .iter()
            .map(|&(p, a, b)| vec![format!("p{p:.0}"), format!("{a:+.1}%"), format!("{b:+.1}%")])
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceleration_helps_the_tail() {
        let r = run(6);
        // At the tail (last row = p99), the accelerated arm should beat
        // the unaccelerated one.
        let &(_, with_accel, without) = r.rows.last().unwrap();
        assert!(
            with_accel >= without - 5.0,
            "acceleration should not hurt the tail: {with_accel} vs {without}"
        );
    }
}
