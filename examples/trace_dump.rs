//! Observability demo: play a short video on a subway ride with XLINK,
//! record the full cross-layer event trace, export it as qlog JSON, and
//! print an ASCII per-path timeline of cwnd / bytes-in-flight /
//! re-injections / link outages and the session's summary.
//!
//! ```sh
//! cargo run --release --example trace_dump
//! # -> trace_dump.qlog (qlog main schema, qvis-compatible)
//! ```

use xlink::clock::Duration;
use xlink::core::WirelessTech;
use xlink::harness::{PathSpec, Scenario, Scheme, SessionConfig};
use xlink::obs::{Event, TraceLog};
use xlink::traces::{hsr_onboard_wifi, subway_cellular};
use xlink::video::Video;

const BIN_MS: u64 = 500;
const BAR_WIDTH: usize = 30;

fn paths(seed: u64) -> Vec<xlink::netsim::Path> {
    let cellular = PathSpec::new(WirelessTech::Lte, subway_cellular(seed, 60_000), seed);
    let wifi = PathSpec::new(WirelessTech::Wifi, hsr_onboard_wifi(seed + 1, 60_000), seed + 1);
    vec![wifi.build(), cellular.build()]
}

/// Per-bin, per-path aggregates harvested from the trace.
#[derive(Default, Clone, Copy)]
struct Bin {
    cwnd: Option<u64>,
    in_flight: Option<u64>,
    reinjections: u32,
    reinjected_bytes: u64,
    went_down: bool,
    came_up: bool,
}

fn main() {
    let seed = 33;
    let log = TraceLog::recording();
    let mut cfg = SessionConfig::short_video(Scheme::Xlink, seed);
    cfg.video = Video::synth(10, 25, 1_000_000, 10.0);
    cfg.deadline = Duration::from_secs(60);
    println!("Subway ride under XLINK, fully traced\n");
    let result = Scenario::new(paths(seed), cfg.deadline).traced(&log).video(&cfg);

    let qlog = log.to_qlog("xlink subway ride");
    std::fs::write("trace_dump.qlog", &qlog).expect("write trace_dump.qlog");

    // Fold the server-side trace into per-path time bins. The server is
    // the data sender, so its cwnd/in-flight/re-injection series is the
    // interesting one; link outages come from the netsim sources.
    let end_ms = result.ended_at.as_micros() / 1000;
    let bins = (end_ms / BIN_MS + 1) as usize;
    let mut series = vec![vec![Bin::default(); bins]; 2];
    for ev in log.events() {
        let bin = (ev.time.as_micros() / 1000 / BIN_MS) as usize;
        let source = log.source_name(ev.source);
        match ev.body {
            Event::CwndUpdate { path, cwnd, bytes_in_flight } if source == "server.quic" => {
                let b = &mut series[path as usize][bin];
                b.cwnd = Some(cwnd);
                b.in_flight = Some(bytes_in_flight);
            }
            Event::Reinjection { path, len, .. } if source == "server.core" => {
                let b = &mut series[path as usize][bin];
                b.reinjections += 1;
                b.reinjected_bytes += len;
            }
            Event::LinkStateChange { state } => {
                if let Some(p) = source.strip_prefix("netsim.path") {
                    if let Ok(path) = p.parse::<usize>() {
                        if state == "down" {
                            series[path][bin].went_down = true;
                        } else {
                            series[path][bin].came_up = true;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    let cwnd_max = series.iter().flatten().filter_map(|b| b.cwnd).max().unwrap_or(1).max(1);
    for (path, bins) in series.iter().enumerate() {
        println!(
            "path {path} — server cwnd ('#', full bar = {} KB), in-flight ('='):",
            cwnd_max / 1024
        );
        let (mut cwnd, mut in_flight) = (0u64, 0u64);
        for (i, b) in bins.iter().enumerate() {
            cwnd = b.cwnd.unwrap_or(cwnd);
            in_flight = b.in_flight.unwrap_or(in_flight);
            let scale = |v: u64| (v as usize * BAR_WIDTH / cwnd_max as usize).min(BAR_WIDTH);
            let (c, f) = (scale(cwnd), scale(in_flight));
            let mut bar = String::with_capacity(BAR_WIDTH);
            for j in 0..BAR_WIDTH {
                bar.push(if j < f {
                    '='
                } else if j < c {
                    '#'
                } else {
                    ' '
                });
            }
            let mut notes = String::new();
            if b.reinjections > 0 {
                notes.push_str(&format!(
                    "  R×{} ({} B re-injected)",
                    b.reinjections, b.reinjected_bytes
                ));
            }
            if b.went_down {
                notes.push_str("  LINK DOWN");
            } else if b.came_up {
                notes.push_str("  link up");
            }
            println!(
                "  {:5.1}s |{bar}| cwnd {:>4} KB  in-flight {:>4} KB{notes}",
                (i as u64 * BIN_MS) as f64 / 1000.0,
                cwnd / 1024,
                in_flight / 1024,
            );
        }
        println!();
    }

    println!(
        "session: completed={} first_frame={:?} rebuffer={:?} redundancy={:.2}%",
        result.completed,
        result.first_frame_latency,
        result.player.rebuffer_time,
        result.server_transport.redundancy_ratio() * 100.0
    );
    println!(
        "trace: {} events from {} sources -> trace_dump.qlog ({} bytes)",
        log.len(),
        log.sources().len(),
        qlog.len()
    );
}
