//! Per-layer probes: the benchmark calls a layer's public functions on
//! fixed inputs and reports the median nanoseconds per operation over
//! [`SAMPLES`] samples, plus exact allocation counts where listed (read
//! through the `obs::prof` counting allocator). Probes depend on no seed
//! and no workload.

mod apps;
mod conn;
mod layers;
mod quic;

use crate::drive::Reading;
use crate::stats::Summary;
use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant as Wall};
use xlink_obs::prof::{self, is_stack_prefix, ProfReport, SpanGuard};

const SAMPLES: usize = 7;
/// Iterations of the recorded pass that counts allocations.
const ALLOC_ITERS: u64 = 8;

/// What one call of a probe body measured.
pub struct Sample {
    pub elapsed: Duration,
    /// Operations done (usually the iteration count; packets for the
    /// engine transfers).
    pub ops: u64,
}

/// A probe body: run `iters` iterations, time only the measured part.
pub type Body = Box<dyn FnMut(u64) -> Sample>;

pub struct Probe {
    /// `<layer>.<what>_ns`, the metric the timing is reported as.
    pub ns: &'static str,
    /// Metric for allocations per operation, if reported.
    pub allocs: Option<&'static str>,
    /// Metric for bytes allocated per operation, if reported.
    pub alloc_bytes: Option<&'static str>,
    pub build: fn() -> Body,
}

const fn timed(ns: &'static str, build: fn() -> Body) -> Probe {
    Probe { ns, allocs: None, alloc_bytes: None, build }
}

const fn counted(ns: &'static str, allocs: &'static str, build: fn() -> Body) -> Probe {
    Probe { ns, allocs: Some(allocs), alloc_bytes: None, build }
}

/// The common body: one operation per iteration, all of it timed.
fn each(mut op: impl FnMut() + 'static) -> Body {
    Box::new(move |iters| {
        let started = Wall::now();
        for _ in 0..iters {
            op();
        }
        Sample { elapsed: started.elapsed(), ops: iters }
    })
}

/// Open `bench/probe/<name>`. `prof::span!` interns one name per call
/// site, so a name chosen at run time gets its own leaked cache slot; one
/// small leak per probe per process.
fn probe_span(name: &str) -> SpanGuard {
    let name: &'static str = Box::leak(format!("bench/probe/{name}").into_boxed_str());
    let cache: &'static AtomicU32 = Box::leak(Box::new(AtomicU32::new(0)));
    prof::span_interned(name, cache)
}

fn ns_per_op(s: &Sample) -> f64 {
    s.elapsed.as_nanos() as f64 / s.ops.max(1) as f64
}

struct Measured {
    ns: Reading,
    allocs_per_op: f64,
    alloc_bytes_per_op: f64,
}

/// Calibrate to `target` per sample, take the samples untraced, then make
/// one short recorded pass under `bench/probe/<name>` for the allocation
/// counts (merged into `profile`).
fn measure(probe: &Probe, target: Duration, profile: &mut ProfReport) -> Measured {
    let mut body = (probe.build)();
    let mut iters = 1u64;
    let per_iter = loop {
        let s = body(iters);
        if s.elapsed >= target / 4 || iters >= 1 << 30 {
            break s.elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 2;
    };
    let iters = ((target.as_secs_f64() / per_iter.max(1e-12)).ceil() as u64).max(1);
    let samples: Vec<f64> = (0..SAMPLES).map(|_| ns_per_op(&body(iters))).collect();
    let Summary { median, q1, q3 } = Summary::of(&samples);
    let ns = Reading { name: probe.ns, unit: "ns", value: median, n: SAMPLES, q1, q3 };

    let name = probe.ns.trim_end_matches("_ns");
    let (sample, recorded) = prof::with_recording(|| {
        let _span = probe_span(name);
        body(ALLOC_ITERS.min(iters))
    });
    let root = format!("bench;probe;{name}");
    let under = |path: &str| path == root || is_stack_prefix(&root, path);
    let sum = |f: fn(&prof::ProfRow) -> u64| -> f64 {
        recorded.rows.iter().filter(|r| under(&r.path)).map(f).sum::<u64>() as f64
            / sample.ops.max(1) as f64
    };
    let measured = Measured {
        ns,
        allocs_per_op: sum(|r| r.allocs),
        alloc_bytes_per_op: sum(|r| r.alloc_bytes),
    };
    profile.merge(&recorded);
    measured
}

/// Every probe, in table order.
fn all() -> Vec<Probe> {
    let mut v = quic::probes();
    v.extend(conn::probes());
    v.extend(layers::probes());
    v.extend(apps::probes());
    v
}

/// Run every probe; `target` is the wall time of one sample.
pub fn run_all(target: Duration, profile: &mut ProfReport) -> Vec<Reading> {
    let mut out = Vec::new();
    let mut xlink_near_ns = 0.0;
    for probe in all() {
        let m = measure(&probe, target, profile);
        if probe.ns == "conn.xlink.pkt_ns" {
            xlink_near_ns = m.ns.value;
        }
        out.extend(probe.allocs.map(|name| Reading::exact(name, "count", m.allocs_per_op)));
        out.extend(probe.alloc_bytes.map(|name| Reading::exact(name, "B", m.alloc_bytes_per_op)));
        out.push(m.ns);
    }
    // The same bytes in one large request instead of small ones: per-packet
    // cost at high in-flight over per-packet cost at low in-flight.
    let far = measure(&conn::XLINK_HIGH_INFLIGHT, target, profile);
    out.push(Reading::exact(
        "conn.xlink.inflight_scaling",
        "ratio",
        far.ns.value / xlink_near_ns.max(1e-9),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    /// Every probe runs, and reports only names the per-layer table lists.
    #[test]
    fn probes_run_and_match_the_table() {
        let mut profile = ProfReport::default();
        let readings = run_all(Duration::from_micros(200), &mut profile);
        for r in &readings {
            assert!(PER_LAYER.iter().any(|m| m.name == r.name), "{} not in the table", r.name);
            assert!(r.value.is_finite() && r.value >= 0.0, "{} = {}", r.name, r.value);
        }
        let probe_rows = |m: &&crate::metrics::PerLayer| {
            m.name.ends_with("_ns") && !m.name.starts_with("trace.") && !m.name.starts_with("host.")
        };
        for m in PER_LAYER.iter().filter(probe_rows) {
            assert!(readings.iter().any(|r| r.name == m.name), "no probe reports {}", m.name);
        }
        assert!(profile.rows.iter().any(|r| r.path.starts_with("bench;probe;")));
    }
}
