//! Per-run metrics registry: named counters and gauges.
//!
//! The harness fills one registry per run from end-of-run state
//! (transport stats, link ledgers, player accounting) and serialises
//! it as a flat JSON object. Names are dotted paths —
//! `server.path0.reinjected_bytes`, `client.player.stall_time_us` —
//! and iteration is in sorted name order (`BTreeMap`), so serialised
//! output is deterministic and diff-friendly.

use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// A single metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Monotonic count (events, bytes, packets).
    Counter(u64),
    /// Point-in-time or derived value (ratios, rates, times).
    Gauge(f64),
}

/// A flat, deterministically-ordered collection of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Set counter `name` to `v` (overwrites).
    pub fn counter(&mut self, name: &str, v: u64) {
        self.entries.insert(name.to_string(), Metric::Counter(v));
    }

    /// Set gauge `name` to `v` (overwrites).
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.entries.insert(name.to_string(), Metric::Gauge(v));
    }

    /// Read a counter.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read a gauge.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// All metrics in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A helper that prefixes every name with `prefix.`.
    pub fn scope<'a>(&'a mut self, prefix: &str) -> MetricsScope<'a> {
        MetricsScope { reg: self, prefix: prefix.to_string() }
    }

    /// Serialise as one flat JSON object, names sorted.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (name, metric) in &self.entries {
            w.key(name); // runtime key: goes through the escaping path
            match metric {
                Metric::Counter(v) => w.uint(*v),
                Metric::Gauge(v) => w.float(*v),
            }
        }
        w.end_object();
        w.finish()
    }
}

/// Borrowed view writing `prefix.name` entries; see
/// [`MetricsRegistry::scope`].
pub struct MetricsScope<'a> {
    reg: &'a mut MetricsRegistry,
    prefix: String,
}

impl MetricsScope<'_> {
    fn name(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// Set counter `prefix.name`.
    pub fn counter(&mut self, name: &str, v: u64) {
        let n = self.name(name);
        self.reg.counter(&n, v);
    }

    /// Set gauge `prefix.name`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        let n = self.name(name);
        self.reg.gauge(&n, v);
    }

    /// Nested scope `prefix.suffix`.
    pub fn scope(&mut self, suffix: &str) -> MetricsScope<'_> {
        let n = self.name(suffix);
        MetricsScope { reg: self.reg, prefix: n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut m = MetricsRegistry::new();
        m.counter("b.total", 15);
        m.gauge("ratio", 0.25);
        {
            let mut s = m.scope("server.path0");
            s.counter("reinjected_bytes", 42);
            s.scope("up").gauge("loss", 0.5);
        }
        assert_eq!(m.get_counter("b.total"), Some(15));
        assert_eq!(m.get_counter("server.path0.reinjected_bytes"), Some(42));
        assert_eq!(m.get_gauge("server.path0.up.loss"), Some(0.5));
        let v = parse(&m.to_json()).expect("valid JSON");
        assert_eq!(v.get("b.total").unwrap().as_u64(), Some(15));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.25));
        // Sorted order is stable.
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
