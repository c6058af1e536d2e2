//! Fig. 1a/1b: vanilla-MP dynamics on fast-varying wireless links —
//! in-flight packets and CWND vs link capacity on a walking Wi-Fi trace
//! (with the 1.7-2.2 s outage) and a stable LTE trace.
//!
//! Expected shape (paper §3.1): when the Wi-Fi capacity collapses, the
//! CWND cannot follow; the scheduler keeps sending, so Wi-Fi in-flight
//! bytes *rise* during the outage while LTE stays orderly.

use crate::scenario::{PathSpec, Scenario};
use crate::transport::Scheme;
use crate::video_session::{client_endpoint_for_probe, server_endpoint_for_probe, SessionConfig};
use xlink_clock::{Duration, Instant};
use xlink_core::WirelessTech;
use xlink_video::Video;

/// One 100 ms sample of a path's state.
#[derive(Debug, Clone, Copy)]
pub struct DynSample {
    /// Sample time (ms).
    pub t_ms: u64,
    /// Link capacity over the trailing window (Mbps).
    pub capacity_mbps: f64,
    /// Bytes in flight on the path.
    pub inflight: u64,
    /// Congestion window (bytes).
    pub cwnd: u64,
}

/// Result: one series per path.
#[derive(Debug, Clone)]
pub struct Fig01Result {
    /// Wi-Fi path samples (Fig. 1a).
    pub wifi: Vec<DynSample>,
    /// LTE path samples (Fig. 1b).
    pub lte: Vec<DynSample>,
}

/// Run the 3-second replay and sample both paths at 100 ms.
pub fn run(seed: u64) -> Fig01Result {
    let wifi = PathSpec::new(WirelessTech::Wifi, xlink_traces::walking_wifi(seed), seed);
    let lte = PathSpec::new(WirelessTech::Lte, xlink_traces::stable_lte(seed, 3000), seed + 1);
    // A vanilla-MP session fetching an effectively unbounded video so the
    // pipe stays full for the whole 3 s window.
    let mut cfg = SessionConfig::short_video(Scheme::VanillaMp, seed);
    cfg.video = Video::synth(30, 25, 20_000_000, 4.0);
    cfg.prefetch = 4;
    cfg.deadline = Duration::from_secs(3);
    let now = Instant::ZERO;
    let client = client_endpoint_for_probe(&cfg, now);
    let server = server_endpoint_for_probe(&cfg, now);
    let (mut samples_wifi, mut samples_lte) = (Vec::new(), Vec::new());
    let window = Duration::from_millis(100);
    let scenario = Scenario::new(vec![wifi.build(), lte.build()], cfg.deadline);
    scenario.run_sampled(client, server, window, |t, world| {
        let (inflight, cwnd) = world.server.path_state();
        for (path, samples) in [&mut samples_wifi, &mut samples_lte].into_iter().enumerate() {
            samples.push(DynSample {
                t_ms: t.as_millis(),
                capacity_mbps: world.paths[path].down.capacity_mbps(t, window),
                inflight: inflight[path],
                cwnd: cwnd[path],
            });
        }
    });
    Fig01Result { wifi: samples_wifi, lte: samples_lte }
}

/// Print the two series the figure plots.
pub fn print(r: &Fig01Result) {
    for (name, series) in [("Fig 1a: Wi-Fi path", &r.wifi), ("Fig 1b: LTE path", &r.lte)] {
        println!("\n## {name} (vanilla-MP dynamics)");
        println!("| t (ms) | capacity (Mbps) | inflight (KB) | cwnd (KB) |");
        println!("|---|---|---|---|");
        for s in series.iter() {
            println!(
                "| {} | {:.1} | {:.1} | {:.1} |",
                s.t_ms,
                s.capacity_mbps,
                s.inflight as f64 / 1e3,
                s.cwnd as f64 / 1e3
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamics_show_outage_decoupling() {
        let r = run(7);
        assert_eq!(r.wifi.len(), 30);
        // Capacity before the outage is healthy; inside it is near zero.
        let pre: f64 = r.wifi[5..14].iter().map(|s| s.capacity_mbps).sum::<f64>() / 9.0;
        let during: f64 = r.wifi[18..21].iter().map(|s| s.capacity_mbps).sum::<f64>() / 3.0;
        assert!(pre > 5.0, "pre-outage capacity {pre}");
        assert!(during < 1.0, "outage capacity {during}");
        // The transfer actually used both paths.
        assert!(r.wifi.iter().any(|s| s.inflight > 0));
        assert!(r.lte.iter().any(|s| s.inflight > 0));
        // §3.1's observation: in-flight on Wi-Fi does NOT drop to zero
        // during the outage (stagnant packets sit in flight).
        let max_inflight_during = r.wifi[18..22].iter().map(|s| s.inflight).max().unwrap();
        assert!(max_inflight_during > 0, "expected stagnant in-flight during outage");
    }
}
