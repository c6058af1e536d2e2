//! Fig. 6: how Algorithm 1 overcomes multipath HoL blocking with reduced
//! cost — client buffer level and cumulative re-injected bytes vs time
//! under (b) vanilla-MP, (c) re-injection without QoE control, and
//! (d) re-injection with QoE control, replayed on the same trace pair
//! where path 1 deteriorates midway.
//!
//! [`wifi_outage`] is the paper's motivating scenario (§3.1) under the
//! same control modes plus SP: a user walks out of Wi-Fi coverage
//! mid-video while LTE stays healthy.

use crate::chaos::failover_timeline;
use crate::scenario::{PathSpec, Scenario};
use crate::video_session::{
    client_endpoint_for_probe, server_endpoint_for_probe, SessionConfig, SessionResult,
};
use xlink_clock::{Duration, Instant};
use xlink_core::{Scheme, WirelessTech};
use xlink_netsim::Path;
use xlink_obs::TraceLog;
use xlink_video::Video;

/// One 100-ms sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig06Sample {
    /// Sample time (ms).
    pub t_ms: u64,
    /// Player buffer level (cached bytes).
    pub buffer_bytes: u64,
    /// Cumulative re-injected bytes at the server.
    pub reinject_bytes: u64,
}

/// One scheme's full series plus summary.
#[derive(Debug, Clone)]
pub struct Fig06Series {
    /// Scheme label.
    pub label: &'static str,
    /// 100-ms samples over the 6-s replay.
    pub samples: Vec<Fig06Sample>,
    /// Total rebuffer time.
    pub rebuffer: Duration,
    /// Final redundancy ratio.
    pub redundancy: f64,
}

/// Run all three schemes on the Fig. 6 trace pair.
pub fn run(seed: u64) -> Vec<Fig06Series> {
    [
        ("Vanilla-MP", Scheme::VanillaMp),
        ("Reinj w/o QoE", Scheme::ReinjNoQoe),
        ("Reinj w/ QoE", Scheme::Xlink),
    ]
    .into_iter()
    .map(|(label, scheme)| run_one(label, scheme, seed))
    .collect()
}

fn run_one(label: &'static str, scheme: Scheme, seed: u64) -> Fig06Series {
    let (t1, t2) = xlink_traces::fig6_paths(seed);
    let p1 = PathSpec::new(WirelessTech::Wifi, t1, seed).build();
    let p2 = PathSpec::new(WirelessTech::Lte, t2, seed + 1).build();
    let mut cfg = SessionConfig::short_video(scheme, seed);
    // A 6-second, ~2 Mbps video so the buffer is genuinely contested when
    // path 1 collapses.
    cfg.video = Video::synth(6, 25, 2_000_000, 8.0);
    cfg.deadline = Duration::from_secs(6);
    cfg.tuning.thresholds_ms = (400, 1200);
    let now = Instant::ZERO;
    let client = client_endpoint_for_probe(&cfg, now);
    let server = server_endpoint_for_probe(&cfg, now);
    let mut samples = Vec::new();
    let every = Duration::from_millis(100);
    let scenario = Scenario::new(vec![p1, p2], cfg.deadline);
    let mut world = scenario.run_sampled(client, server, every, |t, world| {
        let now = world.now();
        world.client.player_mut().advance(now);
        samples.push(Fig06Sample {
            t_ms: t.as_millis(),
            buffer_bytes: world.client.player_cached_bytes(),
            reinject_bytes: world.server.transport_stats().reinjected_bytes,
        });
    });
    let end = world.now();
    let stats = world.client.finish(end);
    Fig06Series {
        label,
        samples,
        rebuffer: stats.rebuffer_time,
        redundancy: world.server.transport_stats().redundancy_ratio(),
    }
}

/// Print all three series.
pub fn print(series: &[Fig06Series]) {
    for s in series {
        println!(
            "\n## Fig 6: {} (rebuffer {:.2}s, redundancy {:.1}%)",
            s.label,
            s.rebuffer.as_secs_f64(),
            s.redundancy * 100.0
        );
        println!("| t (ms) | buffer (KB) | re-injected (KB) |");
        println!("|---|---|---|");
        for p in s.samples.iter().step_by(2) {
            println!(
                "| {} | {:.0} | {:.0} |",
                p.t_ms,
                p.buffer_bytes as f64 / 1e3,
                p.reinject_bytes as f64 / 1e3
            );
        }
    }
}

/// Walking Wi-Fi of `dur_ms` that collapses to near zero over `outage`
/// (ms), beside stable LTE.
pub(super) fn walk_out_paths(seed: u64, dur_ms: u64, outage: (u64, u64)) -> Vec<Path> {
    let wifi = xlink_traces::walking_wifi_with_outage(seed, dur_ms, outage.0, outage.1);
    let lte = xlink_traces::stable_lte(seed, dur_ms);
    vec![
        PathSpec::new(WirelessTech::Wifi, wifi, seed).build(),
        PathSpec::new(WirelessTech::Lte, lte, seed + 1).build(),
    ]
}

/// A 14 s video with the Wi-Fi path dark from 3 s to 9 s, under SP pinned
/// to Wi-Fi and the three control modes: per scheme, the session and its
/// liveness transitions (§9: suspect → failover → revalidate, as seen by
/// both endpoints).
pub fn wifi_outage(seed: u64) -> Vec<(Scheme, SessionResult, Vec<String>)> {
    let walk = |scheme| {
        let mut cfg = SessionConfig::short_video(scheme, seed);
        cfg.video = Video::synth(14, 25, 2_500_000, 10.0);
        cfg.max_buffer_ahead = Duration::from_secs(3);
        cfg.deadline = Duration::from_secs(60);
        let log = TraceLog::recording();
        let paths = walk_out_paths(seed, 16_000, (3_000, 9_000));
        let r = Scenario::new(paths, cfg.deadline).traced(&log).video(&cfg);
        (scheme, r, failover_timeline(&log))
    };
    [Scheme::Sp { path: 0 }, Scheme::VanillaMp, Scheme::ReinjNoQoe, Scheme::Xlink].map(walk).into()
}

/// Print each arm's scorecard line over its failover timeline.
pub fn print_wifi_outage(arms: &[(Scheme, SessionResult, Vec<String>)]) {
    println!("Walking out of Wi-Fi coverage: 14s video, Wi-Fi outage 3-9s\n");
    for (scheme, r, timeline) in arms {
        println!(
            "{:<14} rebuffer={:.2}s events={} redundancy={:.1}% completed={}",
            scheme.label(),
            r.player.rebuffer_time.as_secs_f64(),
            r.player.rebuffer_events,
            r.server_transport.redundancy_ratio() * 100.0,
            r.completed,
        );
        timeline.iter().for_each(|line| println!("    {line}"));
    }
    println!(
        "\nExpected shape: SP stalls through the outage; XLINK matches the\n\
         always-on re-injection arm for smoothness at a fraction of its cost."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qoe_control_cuts_cost_without_losing_smoothness() {
        let series = run(3);
        let vanilla = &series[0];
        let no_qoe = &series[1];
        let with_qoe = &series[2];
        // Vanilla never re-injects.
        assert_eq!(vanilla.samples.last().unwrap().reinject_bytes, 0);
        // Without QoE control, re-injection is used much more than with it.
        let r_no = no_qoe.samples.last().unwrap().reinject_bytes;
        let r_with = with_qoe.samples.last().unwrap().reinject_bytes;
        assert!(r_no > 0, "always-on must re-inject");
        assert!(r_with < r_no, "QoE control should reduce re-injection: {r_with} vs {r_no}");
        // Re-injection (either form) should not rebuffer more than vanilla
        // on this deteriorating-path trace.
        assert!(with_qoe.rebuffer <= vanilla.rebuffer + Duration::from_millis(250));
    }
}
