//! Fig. 10 + Table 2: client buffer-level improvement and traffic cost
//! vs the choice of double thresholds.
//!
//! Methodology mirrors §7.1: first measure the play-time-left
//! distribution with control off, pick thresholds at the X-th/Y-th
//! percentiles of that distribution, then run each (X, Y) setting and
//! report tail buffer-level improvement over SP, cost overhead, and the
//! reduction of sub-50 ms buffer levels (the rebuffer danger zone).
//!
//! [`threshold_tuning`] is the operator's view of the same knob (§5.2.2:
//! "one can easily tune these thresholds to trade performance with
//! cost"): absolute (T_th1, T_th2) settings on a video with a mid-play
//! Wi-Fi outage, rebuffer time against redundancy.

use super::fig06::walk_out_paths;
use crate::scenario::{draw_user_paths, Scenario};
use crate::transport::{Scheme, TransportTuning};
use crate::video_session::{run_session, SessionConfig, SessionResult};
use xlink_clock::Duration;
use xlink_lab::stats::{improvement_pct, percentile};
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
    /// Redundant-traffic cost (percent of stream bytes).
    pub cost_pct: f64,
    /// Reduction in the fraction of buffer levels below 50 ms (Table 2).
    pub danger_reduction_pct: f64,
}

/// Collect buffer-level samples (play-time-left in seconds) for a scheme.
fn buffer_samples(
    scheme: Scheme,
    thresholds_ms: Option<(u64, u64)>,
    users: u64,
    video: &Video,
) -> (Vec<f64>, f64) {
    let mut samples = Vec::new();
    let mut reinj = 0u64;
    let mut total = 0u64;
    for user in 0..users {
        let (wifi, lte) = draw_user_paths(77, user);
        let mut cfg = SessionConfig::short_video(scheme, 500 + user);
        cfg.video = video.clone();
        cfg.deadline = Duration::from_secs(60);
        if let Some((t1, t2)) = thresholds_ms {
            cfg.tuning = TransportTuning { thresholds_ms: (t1, t2), ..Default::default() };
        }
        let r = run_session_probed(&cfg, vec![wifi.build(), lte.build()], &mut samples);
        reinj += r.server_transport.reinjected_bytes;
        total += r.server_transport.stream_bytes_sent + r.server_transport.reinjected_bytes;
    }
    let cost = if total == 0 { 0.0 } else { reinj as f64 / total as f64 * 100.0 };
    (samples, cost)
}

/// Run a session collecting post-startup buffer levels (in seconds of
/// play-time left) at the player's QoE cadence.
fn run_session_probed(
    cfg: &SessionConfig,
    paths: Vec<xlink_netsim::Path>,
    out: &mut Vec<f64>,
) -> crate::video_session::SessionResult {
    use crate::video_session::{client_endpoint_for_probe, server_endpoint_for_probe};
    let now = xlink_clock::Instant::ZERO;
    let client = client_endpoint_for_probe(cfg, now);
    let server = server_endpoint_for_probe(cfg, now);
    let fps = cfg.video.fps.max(1);
    let mut started = false;
    // The session ends with the client: the server is done from the start.
    let every = Duration::from_millis(100);
    let scenario = Scenario::new(paths, cfg.deadline);
    let world = scenario.run_sampled(client, server, every, |_, world| {
        let stats = world.client.player_stats();
        if stats.playback_started_at.is_some() {
            started = true;
        }
        if started && stats.finished_at.is_none() {
            // Play-time left ≈ cached frames / fps ("we measured the
            // buffer level after the video start-up phases").
            let q = world.client.player_mut().qoe_signal();
            out.push(q.cached_frames as f64 / fps as f64);
        }
    });
    crate::video_session::session_result(world)
}

/// Fraction of samples below 50 ms (the danger level).
fn danger_fraction(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&s| s < 0.050).count() as f64 / samples.len() as f64
}

/// Run the sweep with `users` sessions per setting.
pub fn run(users: u64) -> Vec<Fig10Row> {
    // Same contested workload as the A/B studies: long enough that
    // mid-play outages land while the bounded buffer is the only slack.
    let video = Video::synth(18, 25, 3_000_000, 10.0);
    // Step 1: play-time-left distribution with control OFF (reinj off).
    let (baseline_dist, _) = buffer_samples(Scheme::VanillaMp, None, users, &video);
    // SP reference for the improvement metric.
    let (sp_dist, _) = buffer_samples(Scheme::Sp { path: 0 }, None, users, &video);
    let sp_tail =
        [percentile(&sp_dist, 10.0), percentile(&sp_dist, 5.0), percentile(&sp_dist, 1.0)];
    let sp_danger = danger_fraction(&sp_dist);
    SETTINGS
        .iter()
        .map(|&(label, setting)| {
            let (dist, cost) = match setting {
                None => {
                    let (d, _) = buffer_samples(Scheme::VanillaMp, None, users, &video);
                    (d, 0.0)
                }
                Some((x, y)) => {
                    // th(X): X% of play-time-left values are ABOVE it → the
                    // X-th percentile from the top = (100-X) from the bottom.
                    let t1 = percentile(&baseline_dist, 100.0 - x).max(0.02);
                    let t2 = percentile(&baseline_dist, 100.0 - y).max(t1);
                    let t = (
                        (t1 * 1000.0) as u64,
                        ((t2 * 1000.0) as u64).max((t1 * 1000.0) as u64 + 1),
                    );
                    buffer_samples(Scheme::Xlink, Some(t), users, &video)
                }
            };
            // Buffer improvement at the low tail: larger buffer = better.
            let tail = [percentile(&dist, 10.0), percentile(&dist, 5.0), percentile(&dist, 1.0)];
            let buf_improv = [
                -improvement_pct(sp_tail[0].max(1e-3), tail[0]),
                -improvement_pct(sp_tail[1].max(1e-3), tail[1]),
                -improvement_pct(sp_tail[2].max(1e-3), tail[2]),
            ];
            let danger = danger_fraction(&dist);
            Fig10Row {
                setting: label,
                buf_improv_pct: buf_improv,
                cost_pct: cost,
                danger_reduction_pct: improvement_pct(sp_danger.max(1e-6), danger),
            }
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

/// Under each of [`TUNING_MS`], `runs` seeded sessions, the outage sliding
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
