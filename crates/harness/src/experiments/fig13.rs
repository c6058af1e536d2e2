//! Fig. 13: extreme mobility — request download time (median and max)
//! for SP, vanilla-MP, MPTCP, CM, and XLINK across ten trace pairs
//! collected in subways and on high-speed rail. Every arm is a policy of
//! the one connection engine ([`Scheme`]); the chunks of a trace are
//! fetched at evenly spaced points of the ride.
//!
//! Expected shape (§7.3): SP suffers badly (no mobility support); CM
//! helps sometimes but resets cwnd and reacts slowly; MPTCP and
//! vanilla-MP help sometimes but hit MP-HoL blocking; XLINK is
//! consistently fastest in both median and max.
//!
//! [`subway_ride`] is the same comparison as one story: one 8 MB chunk
//! through the tunnel outages of a single subway trace pair, each arm's
//! failover timeline printed under its download time.

use crate::bulk::run_bulk_quic;
use crate::chaos::failover_timeline;
use crate::par;
use crate::scenario::Scenario;
use xlink_clock::Duration;
use xlink_core::{Scheme, TransportTuning, WirelessTech};
use xlink_netsim::Path;
use xlink_obs::TraceLog;
use xlink_traces::Trace;

/// Chunk size downloaded repeatedly per trace (the paper uses video-chunk
/// sized requests; median/max are over the per-chunk times).
pub const CHUNK_BYTES: u64 = 2 << 20;
/// Chunks fetched per trace, evenly spaced along the ride.
pub const CHUNKS_PER_TRACE: u64 = 3;
/// Length of each (looping) mobility trace.
const TRACE_MS: u64 = 60_000;

/// The figure's columns, in print order.
const ARMS: [Scheme; 5] =
    [Scheme::Sp { path: 0 }, Scheme::VanillaMp, Scheme::Mptcp, Scheme::Cm, Scheme::Xlink];

/// One trace's outcome for one scheme.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Scheme label.
    pub scheme: &'static str,
    /// Median download time (s).
    pub median_s: f64,
    /// Max download time (s).
    pub max_s: f64,
}

/// Per-trace results.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Trace pair id (1..=10).
    pub trace_id: usize,
    /// All schemes' outcomes.
    pub outcomes: Vec<SchemeOutcome>,
}

/// The pair's paths for a download that starts `start_ms` into the ride:
/// both looping traces rotated by that much.
fn build_paths(pair: &(Trace, Trace), start_ms: u64, seed: u64) -> Vec<Path> {
    let from = |trace: &Trace| {
        let rotated = trace.opportunities_ms.iter().map(|t| (t + TRACE_MS - start_ms) % TRACE_MS);
        Trace::new(&trace.label, rotated.collect())
    };
    let cellular = crate::scenario::PathSpec::new(WirelessTech::Lte, from(&pair.0), seed);
    let wifi = crate::scenario::PathSpec::new(WirelessTech::Wifi, from(&pair.1), seed + 1);
    vec![wifi.build(), cellular.build()]
}

fn download_times(scheme: Scheme, pair: &(Trace, Trace), seed: u64) -> Vec<f64> {
    let tuning = TransportTuning::default();
    (0..CHUNKS_PER_TRACE)
        .map(|chunk| {
            let start_ms = chunk * TRACE_MS / CHUNKS_PER_TRACE;
            let paths = build_paths(pair, start_ms, seed + chunk * 31);
            let deadline = Duration::from_secs(60);
            let r =
                run_bulk_quic(scheme, &tuning, CHUNK_BYTES, seed + chunk, paths, vec![], deadline);
            r.download_time.map(|d| d.as_secs_f64()).unwrap_or(60.0)
        })
        .collect()
}

/// Run over `n_traces` of the ten mobility trace pairs, side by side: a
/// pair's row is a pure function of its index.
pub fn run(n_traces: usize) -> Vec<Fig13Row> {
    let pairs = xlink_traces::mobility_trace_pairs(TRACE_MS);
    par::map(n_traces.min(pairs.len()), |i| {
        let seed = 1000 + i as u64 * 97;
        let outcomes = ARMS
            .into_iter()
            .map(|scheme| {
                let mut times = download_times(scheme, &pairs[i], seed);
                times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                SchemeOutcome {
                    scheme: scheme.label(),
                    median_s: times[times.len() / 2],
                    max_s: *times.last().expect("non-empty"),
                }
            })
            .collect();
        Fig13Row { trace_id: i + 1, outcomes }
    })
}

/// Print the figure.
pub fn print(rows: &[Fig13Row]) {
    println!("\n## Fig 13: extreme mobility — request download time (s), median/max");
    println!("| Trace | {} |", ARMS.map(Scheme::label).join(" | "));
    println!("|---|---|---|---|---|---|");
    for r in rows {
        let cells: Vec<String> =
            r.outcomes.iter().map(|o| format!("{:.1}/{:.1}", o.median_s, o.max_s)).collect();
        println!("| {} | {} |", r.trace_id, cells.join(" | "));
    }
}

/// Big enough that the download rides through at least one tunnel outage
/// (the cellular trace's first hole opens between 3 and 11 s).
const RIDE_CHUNK_BYTES: u64 = 8 << 20;

/// Fetch one chunk under every arm on the subway pair drawn from `seed`:
/// per arm, the download time (`None`: not within 60 s) and the liveness
/// transitions (§9) with the link ground truth, one line each.
pub fn subway_ride(seed: u64) -> Vec<(Scheme, Option<Duration>, Vec<String>)> {
    let pair = (
        xlink_traces::subway_cellular(seed, TRACE_MS),
        xlink_traces::hsr_onboard_wifi(seed + 1, TRACE_MS),
    );
    let ride = |scheme| {
        let log = TraceLog::recording();
        let r = Scenario::new(build_paths(&pair, 0, seed), Duration::from_secs(60))
            .traced(&log)
            .bulk_quic(scheme, &TransportTuning::default(), RIDE_CHUNK_BYTES, seed, None);
        (scheme, r.download_time, failover_timeline(&log))
    };
    ARMS.into_iter().map(ride).collect()
}

/// Print the ride.
pub fn print_subway_ride(arms: &[(Scheme, Option<Duration>, Vec<String>)]) {
    println!("Subway ride: fetching an 8 MB chunk through tunnel outages\n");
    for (scheme, download_time, timeline) in arms {
        match download_time {
            Some(d) => println!("{:<12} {:.2} s", scheme.label(), d.as_secs_f64()),
            None => println!("{:<12} did not finish within 60 s", scheme.label()),
        }
        timeline.iter().for_each(|line| println!("    {line}"));
    }
    println!(
        "\nXLINK adapts its packet distribution to the surviving path\n\
         (and re-injects stranded bytes), so it degrades the least."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// EXPERIMENTS.md's shape criteria for the figure, and the decision
    /// rule the MPTCP arm was folded into the engine under (the ROADMAP
    /// item "One transport under every baseline").
    #[test]
    fn figure_has_the_papers_shape() {
        let rows = run(10);
        let arm = |r: &Fig13Row, s: Scheme| {
            r.outcomes.iter().find(|o| o.scheme == s.label()).expect("arm").clone()
        };
        let (mut mptcp_ahead, mut mptcp_behind) = (0, 0);
        for r in &rows {
            let (sp, xl) = (arm(r, Scheme::Sp { path: 0 }), arm(r, Scheme::Xlink));
            assert!(xl.median_s <= sp.median_s, "trace {}: {xl:?} vs {sp:?}", r.trace_id);
            let others = r.outcomes.iter().filter(|o| o.scheme != xl.scheme);
            let worst = others.map(|o| o.max_s).fold(0.0, f64::max);
            assert!(xl.max_s < worst, "trace {}: XLINK's max is the worst: {r:?}", r.trace_id);
            let mptcp = arm(r, Scheme::Mptcp);
            mptcp_ahead += usize::from(mptcp.median_s < sp.median_s);
            mptcp_behind += usize::from(mptcp.median_s > sp.median_s);
        }
        assert!(
            mptcp_ahead >= 2 && mptcp_behind >= 2,
            "MPTCP helps on {mptcp_ahead} traces and hurts on {mptcp_behind}: no MP-HoL contrast"
        );
        let mut cells = rows.iter().flat_map(|r| &r.outcomes);
        assert!(cells.any(|o| o.median_s != o.max_s), "the chunks are one run thrice");
    }
}
