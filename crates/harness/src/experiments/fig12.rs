//! Fig. 12: first-video-frame latency improvement over SP across
//! percentiles, with and without first-video-frame acceleration.
//!
//! Expected shape (§7.2): without acceleration the tail *degrades* vs SP
//! (the slow path's in-flight first-frame packets block start-up); with
//! acceleration the improvement is positive and grows toward the tail.

use crate::scenario::draw_user_paths;
use crate::transport::Scheme;
use crate::video_session::{run_session, SessionConfig};
use xlink_clock::Duration;
use xlink_lab::stats::{improvement_pct, percentile};
use xlink_video::Video;

/// Percentiles the figure reports.
pub const PERCENTILES: [f64; 10] = [5.0, 25.0, 50.0, 75.0, 90.0, 93.0, 95.0, 97.0, 98.0, 99.0];

/// Result: improvement (%) per percentile for both arms.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// (percentile, improvement with acceleration, improvement without).
    pub rows: Vec<(f64, f64, f64)>,
}

fn first_frame_samples(scheme: Scheme, accel: bool, users: u64) -> Vec<f64> {
    let mut out = Vec::new();
    for user in 0..users {
        let (wifi, lte) = draw_user_paths(55, user);
        // Large-delay-difference scenario: inflate LTE delay further so
        // the video-frame blocking effect is visible.
        let lte = lte.with_extra_delay(Duration::from_millis(60));
        let mut cfg = SessionConfig::short_video(scheme, 900 + user);
        cfg.video = Video::synth(6, 25, 1_000_000, 14.0); // big first frame
        cfg.first_frame_accel = accel;
        cfg.deadline = Duration::from_secs(40);
        let r = run_session(&cfg, vec![wifi.build(), lte.build()]);
        if let Some(ff) = r.first_frame_latency {
            out.push(ff.as_secs_f64());
        }
    }
    out
}

/// Run with `users` sessions per arm.
pub fn run(users: u64) -> Fig12Result {
    let sp = first_frame_samples(Scheme::Sp { path: 0 }, false, users);
    let with_accel = first_frame_samples(Scheme::Xlink, true, users);
    let without = first_frame_samples(Scheme::XlinkNoFirstFrame, false, users);
    let rows = PERCENTILES
        .iter()
        .map(|&p| {
            let base = percentile(&sp, p);
            (
                p,
                improvement_pct(base, percentile(&with_accel, p)),
                improvement_pct(base, percentile(&without, p)),
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
