//! Network traces: Mahimahi-format I/O and seeded synthetic generators.
//!
//! The paper collected real traces with `saturatr` (walking on campus,
//! subways, high-speed rail, enterprise Wi-Fi, a private 5G SA testbed)
//! and replayed them through Mahimahi's `mpshell`. Those captures are not
//! public, so this crate generates traces reproducing the *published
//! shapes* (DESIGN.md substitution table):
//!
//! * Fig. 1a — walking Wi-Fi: ~20 Mbps with rapid variation and a
//!   near-zero outage from 1.7 s to 2.2 s.
//! * Fig. 1b — LTE: comparatively stable ~15-25 Mbps.
//! * Fig. 15a/b — high-speed-rail cellular and on-board Wi-Fi: deep
//!   periodic fades as the train passes cells / inter-car APs.
//! * Subway traces: frequent hard outages (tunnels, station handoffs).
//! * 5G SA / NSA and enterprise Wi-Fi profiles for the §3.2 and Fig. 7
//!   delay studies.
//!
//! A trace is one count of delivery opportunities (1500 bytes each) per
//! millisecond ([`Opportunities`]); Mahimahi files, one timestamp per
//! line, are read and written by [`io`].

pub mod gen;
pub mod io;
mod opportunities;

pub use gen::*;
pub use io::{parse_mahimahi, to_mahimahi};
pub use opportunities::Opportunities;

/// A delivery-opportunity trace (loops forever when replayed).
///
/// The counts and the label live behind `Arc`s, so cloning a trace — and
/// wiring it into any number of simulated links — allocates nothing. The
/// fleet engine leans on this: 10k+ concurrent sessions draw their paths
/// from a bounded trace pool, so link memory is O(pool), not O(sessions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Opportunities per millisecond; each grants one 1500-byte quantum.
    pub opportunities_ms: Opportunities,
    /// Human-readable label ("walking-wifi", "hsr-cellular-3", …).
    pub label: std::sync::Arc<str>,
}

impl Trace {
    /// A labelled trace.
    pub fn new(label: &str, opportunities_ms: Opportunities) -> Self {
        Trace { opportunities_ms, label: label.into() }
    }

    /// Duration covered by the trace in ms (period when looped).
    pub fn duration_ms(&self) -> u64 {
        self.opportunities_ms.period_ms()
    }

    /// Average rate in Mbps over the whole trace.
    pub fn mean_rate_mbps(&self) -> f64 {
        let d = self.duration_ms();
        if d == 0 {
            return 0.0;
        }
        (self.opportunities_ms.len() as f64 * 1500.0 * 8.0) / (d as f64 / 1000.0) / 1e6
    }

    /// Rate in Mbps within [start_ms, end_ms) of the trace as recorded
    /// (not looped: past its end the rate is zero).
    pub fn rate_mbps_between(&self, start_ms: u64, end_ms: u64) -> f64 {
        if end_ms <= start_ms {
            return 0.0;
        }
        let d = self.duration_ms();
        let n = self.opportunities_ms.count_between(start_ms.min(d), end_ms.min(d));
        (n as f64 * 1500.0 * 8.0) / ((end_ms - start_ms) as f64 / 1000.0) / 1e6
    }

    /// Per-window rate series (for plotting / Fig. 15 style summaries).
    pub fn rate_series_mbps(&self, window_ms: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut t = 0;
        while t < self.duration_ms() {
            out.push((t, self.rate_mbps_between(t, t + window_ms)));
            t += window_ms;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(label: &str, ms: impl IntoIterator<Item = u64>) -> Trace {
        Trace::new(label, Opportunities::from_timestamps(ms))
    }

    #[test]
    fn construction_sorts() {
        let t = trace("x", [5, 1, 3]);
        assert_eq!(t.opportunities_ms.iter().collect::<Vec<_>>(), [1, 3, 5]);
        assert_eq!(t.duration_ms(), 6);
    }

    #[test]
    fn mean_rate() {
        // 1000 opportunities over 1s = 12 Mbps.
        let t = trace("r", 0..1000);
        assert!((t.mean_rate_mbps() - 12.0).abs() < 0.1);
    }

    #[test]
    fn windowed_rate() {
        // Opportunities only in the first half.
        let t = trace("w", (0..500).chain(std::iter::once(999)));
        assert!(t.rate_mbps_between(0, 500) > 11.0);
        assert!(t.rate_mbps_between(500, 999) < 0.1);
    }

    #[test]
    fn empty_trace() {
        let t = trace("e", []);
        assert_eq!(t.duration_ms(), 0);
        assert_eq!(t.mean_rate_mbps(), 0.0);
        assert!(t.rate_series_mbps(100).is_empty());
    }

    /// The rate over a window against its definition before the counts: a
    /// binary search in the sorted timestamps, nothing past the trace's end.
    #[test]
    fn the_windowed_rate_is_the_timestamp_count() {
        use xlink_lab::prop::*;
        let case = (vec_of(0u64..50, 0..30), 0u64..120, 0u64..120);
        check("the_windowed_rate_is_the_timestamp_count", case, |(ts, a, b)| {
            let mut ts = ts.clone();
            ts.sort_unstable();
            let t = trace("p", ts.iter().copied());
            let (start, end) = (*a.min(b), *a.max(b));
            let n = ts.partition_point(|&t| t < end) - ts.partition_point(|&t| t < start);
            let expected = if end <= start {
                0.0
            } else {
                (n as f64 * 1500.0 * 8.0) / ((end - start) as f64 / 1000.0) / 1e6
            };
            prop_assert_eq!(t.rate_mbps_between(start, end).to_bits(), expected.to_bits());
            Ok(())
        });
    }
}
