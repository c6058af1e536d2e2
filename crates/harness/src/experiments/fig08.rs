//! Fig. 8: ACK_MP return-path policy (min-RTT path vs original path) vs
//! the RTT ratio between two equal-bandwidth paths, measuring the request
//! completion time of a 4 MB load under Cubic.
//!
//! Expected shape: identical at ratio 1:1, with the fastest-path policy
//! pulling ahead as the ratio grows ("faster ACK return helps the
//! congestion window grow faster").

use crate::scenario::Scenario;
use xlink_clock::Duration;
use xlink_core::{AckPathPolicy, Scheme, TransportTuning, WirelessTech};
use xlink_netsim::Path;

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct Fig08Row {
    /// RTT ratio (path1 : path0).
    pub ratio: u64,
    /// Completion time with ACK_MP on the min-RTT path (s).
    pub min_rtt_s: f64,
    /// Completion time with ACK_MP on the original path (s).
    pub original_s: f64,
}

/// Load size from the paper.
pub const LOAD_BYTES: u64 = 4 << 20;

/// Run the 1:1 … 8:1 sweep.
pub fn run(seed: u64) -> Vec<Fig08Row> {
    (1..=8)
        .map(|ratio| Fig08Row {
            ratio,
            min_rtt_s: measure(seed, ratio, AckPathPolicy::FastestPath),
            original_s: measure(seed, ratio, AckPathPolicy::OriginalPath),
        })
        .collect()
}

fn paths(ratio: u64, seed: u64) -> Vec<Path> {
    // Equal bandwidth; base one-way delay 10 ms, the second path scaled.
    let mk = |delay_ms: u64, s: u64| {
        let trace = xlink_traces::constant_rate("fig8", 12.0, 1000);
        crate::scenario::PathSpec::new(WirelessTech::Wifi, trace, s)
            .with_extra_delay(Duration::from_millis(delay_ms))
            .build()
    };
    // PathSpec adds the Wi-Fi baseline 10 ms; extra shifts the ratio.
    vec![mk(0, seed), mk(10 * (ratio - 1), seed + 1)]
}

fn measure(seed: u64, ratio: u64, policy: AckPathPolicy) -> f64 {
    let tuning = TransportTuning {
        ack_policy: policy,
        path_techs: vec![WirelessTech::Wifi, WirelessTech::Wifi],
        ..Default::default()
    };
    // Isolate the ACK-policy effect: advertise a huge client buffer so
    // the double-threshold controller keeps re-injection off, leaving the
    // min-RTT scheduler + ACK return path as the only variables.
    let huge_buffer = xlink_core::QoeSignal {
        cached_bytes: 1 << 30,
        cached_frames: 100_000,
        bps: 1_000_000,
        fps: 30,
    };
    let r = Scenario::new(paths(ratio, seed), Duration::from_secs(120)).bulk_quic(
        Scheme::Xlink,
        &tuning,
        LOAD_BYTES,
        seed,
        Some(huge_buffer),
    );
    r.download_time.map(|d| d.as_secs_f64()).unwrap_or(f64::INFINITY)
}

/// Print the figure.
pub fn print(rows: &[Fig08Row]) {
    xlink_lab::stats::print_table(
        "Fig 8: ACK_MP path selection vs RTT ratio (4MB, Cubic)",
        &["RTT ratio", "minRTT path (s)", "Original path (s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}:1", r.ratio),
                    format!("{:.2}", r.min_rtt_s),
                    format!("{:.2}", r.original_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_path_wins_at_large_ratio() {
        let even = Fig08Row {
            ratio: 1,
            min_rtt_s: measure(5, 1, AckPathPolicy::FastestPath),
            original_s: measure(5, 1, AckPathPolicy::OriginalPath),
        };
        // At 1:1 the policies should be close.
        assert!((even.min_rtt_s - even.original_s).abs() < 0.4 * even.original_s.max(0.1));
        let skew = Fig08Row {
            ratio: 6,
            min_rtt_s: measure(5, 6, AckPathPolicy::FastestPath),
            original_s: measure(5, 6, AckPathPolicy::OriginalPath),
        };
        assert!(
            skew.min_rtt_s <= skew.original_s * 1.02,
            "fastest-path should win at 6:1 ({} vs {})",
            skew.min_rtt_s,
            skew.original_s
        );
    }
}
