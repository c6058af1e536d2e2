//! Fig. 13: extreme mobility — request download time (median and max)
//! for SP, vanilla-MP, MPTCP, CM, and XLINK across ten trace pairs
//! collected in subways and on high-speed rail.
//!
//! Expected shape (§7.3): SP suffers badly (no mobility support); CM
//! helps sometimes but resets cwnd and reacts slowly; MPTCP and
//! vanilla-MP help sometimes but hit MP-HoL blocking; XLINK is
//! consistently fastest in both median and max.

use crate::bulk::run_bulk_quic;
use crate::transport::{Scheme, TransportTuning};
use xlink_clock::Duration;
use xlink_core::WirelessTech;
use xlink_netsim::Path;

/// Chunk size downloaded repeatedly per trace (the paper uses video-chunk
/// sized requests; median/max are over the per-chunk times).
pub const CHUNK_BYTES: u64 = 2 << 20;
/// Chunks fetched per trace.
pub const CHUNKS_PER_TRACE: u64 = 3;

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

fn build_paths(pair: &(xlink_traces::Trace, xlink_traces::Trace), seed: u64) -> Vec<Path> {
    let cellular = crate::scenario::PathSpec::new(WirelessTech::Lte, pair.0.clone(), seed);
    let wifi = crate::scenario::PathSpec::new(WirelessTech::Wifi, pair.1.clone(), seed + 1);
    vec![wifi.build(), cellular.build()]
}

fn download_times(
    scheme: Scheme,
    pair: &(xlink_traces::Trace, xlink_traces::Trace),
    seed: u64,
) -> Vec<f64> {
    let tuning = TransportTuning::default();
    (0..CHUNKS_PER_TRACE)
        .map(|chunk| {
            let paths = build_paths(pair, seed + chunk * 31);
            let deadline = Duration::from_secs(60);
            let r =
                run_bulk_quic(scheme, &tuning, CHUNK_BYTES, seed + chunk, paths, vec![], deadline);
            r.download_time.map(|d| d.as_secs_f64()).unwrap_or(60.0)
        })
        .collect()
}

/// Run over `n_traces` of the ten mobility trace pairs.
pub fn run(n_traces: usize) -> Vec<Fig13Row> {
    let pairs = xlink_traces::mobility_trace_pairs(60_000);
    pairs
        .iter()
        .take(n_traces)
        .enumerate()
        .map(|(i, pair)| {
            let seed = 1000 + i as u64 * 97;
            let outcomes = ARMS
                .into_iter()
                .map(|scheme| {
                    let mut times = download_times(scheme, pair, seed);
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
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xlink_beats_sp_under_mobility() {
        let rows = run(2);
        for r in &rows {
            let sp = r.outcomes.iter().find(|o| o.scheme == "SP").unwrap();
            let xl = r.outcomes.iter().find(|o| o.scheme == "XLINK").unwrap();
            assert!(
                xl.median_s <= sp.median_s * 1.1,
                "trace {}: XLINK median {} vs SP {}",
                r.trace_id,
                xl.median_s,
                sp.median_s
            );
        }
    }
}
