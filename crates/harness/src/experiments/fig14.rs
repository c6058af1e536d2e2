//! Fig. 14: normalized communication energy-per-bit vs throughput for
//! Wi-Fi, LTE, NR, Wi-Fi+LTE, and Wi-Fi+NR — downloads of 10-50 MB with
//! each link capped at 30 Mbps, run through the radio power model.

use crate::bulk::run_bulk_quic;
use xlink_clock::Duration;
use xlink_core::{Scheme, TransportTuning, WirelessTech};
use xlink_energy::{profiles, transfer_energy, RadioProfile};
use xlink_netsim::Path;

/// One configuration's point cloud summary.
#[derive(Debug, Clone)]
pub struct Fig14Point {
    /// Configuration label.
    pub label: &'static str,
    /// Normalized throughput (max across configs = 1).
    pub norm_throughput: f64,
    /// Normalized energy per bit (max across configs = 1).
    pub norm_energy_per_bit: f64,
    /// Raw throughput in Mbps.
    pub raw_mbps: f64,
    /// Raw energy per bit in nJ.
    pub raw_nj_bit: f64,
}

const CAP_MBPS: f64 = 30.0;

fn capped_path(tech: WirelessTech, seed: u64) -> Path {
    let trace = xlink_traces::fiveg_nsa_capped(seed, 20_000, CAP_MBPS);
    crate::scenario::PathSpec::new(tech, trace, seed).build()
}

fn radio(tech: WirelessTech) -> RadioProfile {
    match tech {
        WirelessTech::Wifi => profiles::WIFI,
        WirelessTech::Lte => profiles::LTE,
        _ => profiles::NR,
    }
}

/// Measure one configuration downloading `bytes`.
fn measure(label: &'static str, techs: &[WirelessTech], bytes: u64, seed: u64) -> (f64, f64) {
    let paths: Vec<Path> =
        techs.iter().enumerate().map(|(i, &t)| capped_path(t, seed + i as u64)).collect();
    let tuning = TransportTuning { path_techs: techs.to_vec(), ..Default::default() };
    let scheme = if techs.len() == 1 { Scheme::Sp { path: 0 } } else { Scheme::Xlink };
    let r = run_bulk_quic(scheme, &tuning, bytes, seed, paths, vec![], Duration::from_secs(120));
    let dur = r.download_time.unwrap_or(Duration::from_secs(120));
    // Per-path downlink byte split from the server side.
    let mut radios: Vec<(RadioProfile, u64)> = Vec::new();
    if techs.len() == 1 {
        radios.push((radio(techs[0]), bytes));
    } else {
        for (path, b) in &r.server_bytes_per_path {
            if *path < techs.len() && *b > 0 {
                radios.push((radio(techs[*path]), *b));
            }
        }
        if radios.is_empty() {
            radios.push((radio(techs[0]), bytes));
        }
    }
    let report = transfer_energy(&radios, bytes, dur);
    let _ = label;
    (report.throughput_mbps, report.nj_per_bit)
}

/// Run all five configurations over 10-50 MB loads.
pub fn run(seed: u64) -> Vec<Fig14Point> {
    let configs: [(&'static str, Vec<WirelessTech>); 5] = [
        ("WiFi", vec![WirelessTech::Wifi]),
        ("LTE", vec![WirelessTech::Lte]),
        ("NR", vec![WirelessTech::FiveGNsa]),
        ("WiFi-LTE", vec![WirelessTech::Wifi, WirelessTech::Lte]),
        ("WiFi-NR", vec![WirelessTech::Wifi, WirelessTech::FiveGNsa]),
    ];
    let sizes = [10_000_000u64, 30_000_000, 50_000_000];
    let mut raw: Vec<(&'static str, f64, f64)> = Vec::new();
    for (label, techs) in &configs {
        let mut tps = Vec::new();
        let mut ebs = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let (tp, eb) = measure(label, techs, size, seed + i as u64 * 13);
            tps.push(tp);
            ebs.push(eb);
        }
        raw.push((
            label,
            tps.iter().sum::<f64>() / tps.len() as f64,
            ebs.iter().sum::<f64>() / ebs.len() as f64,
        ));
    }
    let max_tp = raw.iter().map(|&(_, tp, _)| tp).fold(0.0, f64::max).max(1e-9);
    let max_eb = raw.iter().map(|&(_, _, eb)| eb).fold(0.0, f64::max).max(1e-9);
    raw.into_iter()
        .map(|(label, tp, eb)| Fig14Point {
            label,
            norm_throughput: tp / max_tp,
            norm_energy_per_bit: eb / max_eb,
            raw_mbps: tp,
            raw_nj_bit: eb,
        })
        .collect()
}

/// Print the figure (top-left corner is better).
pub fn print(points: &[Fig14Point]) {
    xlink_lab::stats::print_table(
        "Fig 14: normalized energy/bit vs throughput (30 Mbps caps)",
        &["Config", "Norm energy/bit", "Norm throughput", "Mbps", "nJ/bit"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.label.to_string(),
                    format!("{:.2}", p.norm_energy_per_bit),
                    format!("{:.2}", p.norm_throughput),
                    format!("{:.1}", p.raw_mbps),
                    format!("{:.1}", p.raw_nj_bit),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_radio_configs_have_higher_throughput() {
        // One small-size probe per config to keep the test quick.
        let (wifi_tp, wifi_eb) = measure("WiFi", &[WirelessTech::Wifi], 4_000_000, 3);
        let (lte_tp, lte_eb) = measure("LTE", &[WirelessTech::Lte], 4_000_000, 3);
        let (dual_tp, dual_eb) =
            measure("WiFi-LTE", &[WirelessTech::Wifi, WirelessTech::Lte], 4_000_000, 3);
        assert!(
            dual_tp > wifi_tp.max(lte_tp) * 1.05,
            "dual {dual_tp} vs wifi {wifi_tp} / lte {lte_tp}"
        );
        // Energy/bit: Wi-Fi cheapest; dual cheaper than LTE alone.
        assert!(wifi_eb < lte_eb);
        assert!(dual_eb < lte_eb, "dual {dual_eb} vs lte {lte_eb}");
    }
}
