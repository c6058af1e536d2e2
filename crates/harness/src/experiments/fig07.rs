//! Fig. 7: first-video-frame delivery time vs frame size (128 KB … 2 MB)
//! when the multipath connection starts from a Wi-Fi primary vs a 5G SA
//! primary — the wireless-aware primary path selection study (§5.3).
//!
//! Expected shape: the 5G-primary start beats the Wi-Fi-primary start at
//! every size (the paper's 5G SA testbed has both more bandwidth and
//! lower latency than enterprise Wi-Fi), and the gap grows with size.

use crate::bulk::run_bulk_quic;
use crate::scenario::PathSpec;
use crate::transport::{Scheme, TransportTuning};
use xlink_clock::Duration;
use xlink_core::{PrimaryPathPolicy, WirelessTech};

/// One row: first-frame size and delivery time per primary choice.
#[derive(Debug, Clone)]
pub struct Fig07Row {
    /// First-frame size (bytes).
    pub frame_bytes: u64,
    /// Delivery time starting on the Wi-Fi primary (ms).
    pub wifi_primary_ms: f64,
    /// Delivery time starting on the 5G SA primary (ms).
    pub fiveg_primary_ms: f64,
}

/// Sizes from the paper's x-axis.
pub const FRAME_SIZES: [u64; 5] = [128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20];

/// Run the sweep.
pub fn run(seed: u64) -> Vec<Fig07Row> {
    FRAME_SIZES
        .iter()
        .map(|&size| {
            let wifi = measure(seed, size, 0);
            let fiveg = measure(seed, size, 1);
            Fig07Row { frame_bytes: size, wifi_primary_ms: wifi, fiveg_primary_ms: fiveg }
        })
        .collect()
}

/// Measure first-frame delivery with the primary forced to `primary`
/// (0 = Wi-Fi, 1 = 5G SA).
fn measure(seed: u64, size: u64, primary: usize) -> f64 {
    let wifi = PathSpec::new(WirelessTech::Wifi, xlink_traces::enterprise_wifi(seed, 10_000), seed);
    let fiveg =
        PathSpec::new(WirelessTech::FiveGSa, xlink_traces::fiveg_sa(seed, 10_000), seed + 1);
    let mut tuning = TransportTuning {
        path_techs: vec![WirelessTech::Wifi, WirelessTech::FiveGSa],
        ..Default::default()
    };
    // Force the primary: wireless-aware policy naturally picks 5G SA; the
    // Wi-Fi-primary arm overrides the ranking.
    tuning.primary_override = Some(if primary == 0 {
        // Rank Wi-Fi best to force a Wi-Fi start.
        PrimaryPathPolicy::default()
            .with_rank(WirelessTech::Wifi, 0)
            .with_rank(WirelessTech::FiveGSa, 9)
    } else {
        PrimaryPathPolicy::default()
    });
    let paths = vec![wifi.build(), fiveg.build()];
    let r =
        run_bulk_quic(Scheme::Xlink, &tuning, size, seed, paths, vec![], Duration::from_secs(30));
    r.download_time.map(|d| d.as_secs_f64() * 1e3).unwrap_or(f64::INFINITY)
}

/// Print the figure's rows.
pub fn print(rows: &[Fig07Row]) {
    xlink_lab::stats::print_table(
        "Fig 7: first-video-frame delivery time vs primary path",
        &["Frame size", "WiFi primary (ms)", "5G primary (ms)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}K", r.frame_bytes >> 10),
                    format!("{:.0}", r.wifi_primary_ms),
                    format!("{:.0}", r.fiveg_primary_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiveg_primary_is_faster() {
        let rows: Vec<Fig07Row> = [256 << 10, 1 << 20]
            .iter()
            .map(|&size| {
                let wifi = measure(11, size, 0);
                let fiveg = measure(11, size, 1);
                Fig07Row { frame_bytes: size, wifi_primary_ms: wifi, fiveg_primary_ms: fiveg }
            })
            .collect();
        for r in &rows {
            assert!(
                r.fiveg_primary_ms <= r.wifi_primary_ms * 1.05,
                "5G primary should win at {}: {} vs {}",
                r.frame_bytes,
                r.fiveg_primary_ms,
                r.wifi_primary_ms
            );
        }
    }
}
