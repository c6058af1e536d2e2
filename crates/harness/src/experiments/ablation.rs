//! Ablation: the three re-injection modes of Fig. 4 (appending vs
//! stream-priority vs video-frame-priority) under a slow-path scenario
//! with concurrent streams — quantifying how much each priority level
//! buys, beyond the paper's qualitative Fig. 4 walkthrough.

use crate::scenario::PathSpec;
use crate::transport::Scheme;
use crate::video_session::{run_session, SessionConfig};
use xlink_clock::Duration;
use xlink_core::WirelessTech;
use xlink_lab::stats::{mean, secs};
use xlink_video::Video;

/// One mode's aggregate outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Mode label.
    pub mode: &'static str,
    /// Mean first-frame latency (ms).
    pub first_frame_ms: f64,
    /// Mean chunk RCT (s).
    pub mean_rct_s: f64,
    /// Mean rebuffer time (s).
    pub rebuffer_s: f64,
    /// Mean redundancy ratio (%).
    pub redundancy_pct: f64,
}

/// Run the three modes over `runs` seeded sessions each.
pub fn run(runs: u64) -> Vec<AblationRow> {
    [
        ("appending (Fig 4a)", Scheme::XlinkAppending),
        ("stream priority (Fig 4b)", Scheme::XlinkNoFirstFrame),
        ("frame priority (Fig 4c)", Scheme::Xlink),
    ]
    .into_iter()
    .map(|(label, scheme)| {
        let mut ff = Vec::new();
        let mut rct = Vec::new();
        let mut rebuffer = Vec::new();
        let mut redundancy = Vec::new();
        for s in 0..runs {
            let seed = 300 + s;
            // Heterogeneous paths: decent Wi-Fi, slow high-delay LTE —
            // the "ill-conditioned path" of the Fig. 4c discussion.
            let wifi = PathSpec::new(
                WirelessTech::Wifi,
                xlink_traces::walking_wifi_with_outage(seed, 12_000, 4_000, 6_000),
                seed,
            );
            let lte = PathSpec::new(
                WirelessTech::Lte,
                xlink_traces::constant_rate("slow-lte", 4.0, 12_000),
                seed + 1,
            )
            .with_extra_delay(Duration::from_millis(80));
            let mut cfg = SessionConfig::short_video(scheme, seed);
            cfg.video = Video::synth(8, 25, 1_200_000, 12.0);
            cfg.prefetch = 3; // concurrent streams → stream blocking is possible
            cfg.first_frame_accel = scheme == Scheme::Xlink;
            cfg.deadline = Duration::from_secs(60);
            let r = run_session(&cfg, vec![wifi.build(), lte.build()]);
            if let Some(f) = r.first_frame_latency {
                ff.push(f.as_secs_f64() * 1e3);
            }
            rct.extend(secs(&r.chunk_rct));
            rebuffer.push(r.player.rebuffer_time.as_secs_f64());
            redundancy.push(r.server_transport.redundancy_ratio() * 100.0);
        }
        AblationRow {
            mode: label,
            first_frame_ms: mean(&ff),
            mean_rct_s: mean(&rct),
            rebuffer_s: mean(&rebuffer),
            redundancy_pct: mean(&redundancy),
        }
    })
    .collect()
}

/// Print the ablation table.
pub fn print(rows: &[AblationRow]) {
    xlink_lab::stats::print_table(
        "Ablation: re-injection queue-position modes (Fig. 4)",
        &["Mode", "First frame (ms)", "Mean RCT (s)", "Rebuffer (s)", "Redundancy (%)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    format!("{:.0}", r.first_frame_ms),
                    format!("{:.2}", r.mean_rct_s),
                    format!("{:.2}", r.rebuffer_s),
                    format!("{:.1}", r.redundancy_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_priority_is_not_worse_at_startup() {
        let rows = run(3);
        let appending = rows.iter().find(|r| r.mode.starts_with("appending")).unwrap();
        let frame = rows.iter().find(|r| r.mode.starts_with("frame")).unwrap();
        // Frame-priority mode should not be slower to first frame than
        // plain appending (that's its whole purpose).
        assert!(
            frame.first_frame_ms <= appending.first_frame_ms * 1.25,
            "frame {} vs appending {}",
            frame.first_frame_ms,
            appending.first_frame_ms
        );
    }
}
