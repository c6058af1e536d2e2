//! Micro-bench harness (in-tree `criterion` replacement).
//!
//! Benches are plain `fn main()` binaries (`harness = false`): build a
//! [`Suite`] from argv, register closures, and each bench prints one
//! machine-readable JSON line (schema `xlink-bench-v1`) suitable for
//! `BENCH_*.json` trajectory tracking, plus a human-readable summary
//! on stderr.
//!
//! The harness is virtual-clock friendly: it measures wall time around
//! the closure and makes no assumptions about what the closure does
//! internally, so whole simulated sessions (which advance
//! `xlink-clock` virtual time arbitrarily fast) bench exactly like
//! tight codec loops.
//!
//! Smoke mode (`--smoke` argv flag or `XLINK_BENCH_SMOKE=1`) takes
//! [`SMOKE_SAMPLES`] samples of at least [`SMOKE_SAMPLE_NS`] each: a bench
//! whose single call already lasts that long runs once per sample with no
//! warmup (whole simulated sessions — CI smoke stays as cheap as it was),
//! a shorter one is repeated until a sample does (a 4 µs codec call timed
//! once is mostly timer and cache noise). `XLINK_BENCH_SAMPLES` overrides
//! the sample count in either mode.

use crate::stats::Summary;
pub use std::hint::black_box;
use std::time::Instant;

/// Samples collected per bench in smoke mode. More than one so the
/// ledger's stddev/p95 columns carry real spread (a single sample made
/// them structurally zero); small enough that CI smoke stays cheap.
pub const SMOKE_SAMPLES: usize = 5;

/// Shortest wall time of one smoke-mode sample.
pub const SMOKE_SAMPLE_NS: u64 = 1_000_000;

/// Measurement parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Wall-time samples collected per bench.
    pub samples: usize,
    /// Target wall time per sample; iterations-per-sample is calibrated
    /// so one sample takes roughly this long.
    pub target_sample_ns: u64,
    /// Hard cap on calibrated iterations per sample.
    pub max_iters_per_sample: u64,
    /// Smoke mode: few, short samples; a call that fills a sample on its
    /// own is never repeated and never warmed up.
    pub smoke: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            samples: 15,
            target_sample_ns: 5_000_000, // 5 ms
            max_iters_per_sample: 1_000_000,
            smoke: false,
        }
    }
}

impl BenchConfig {
    pub fn smoke() -> Self {
        BenchConfig {
            samples: SMOKE_SAMPLES,
            target_sample_ns: SMOKE_SAMPLE_NS,
            smoke: true,
            ..BenchConfig::default()
        }
    }

    /// Iterations that fill one sample, given that `calls` calls took
    /// `elapsed`.
    fn iters_for(&self, elapsed: std::time::Duration, calls: u64) -> u64 {
        let one = (elapsed.as_nanos() as u64 / calls).max(1);
        self.target_sample_ns.div_ceil(one).clamp(1, self.max_iters_per_sample)
    }

    /// Parse argv (`--smoke`, cargo's `--bench` flag is ignored) and the
    /// `XLINK_BENCH_SMOKE` / `XLINK_BENCH_SAMPLES` environment variables.
    pub fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke")
            || std::env::var("XLINK_BENCH_SMOKE").map_or(false, |v| v == "1");
        let mut cfg = if smoke { BenchConfig::smoke() } else { BenchConfig::default() };
        if let Some(n) =
            std::env::var("XLINK_BENCH_SAMPLES").ok().and_then(|v| v.parse::<usize>().ok())
        {
            cfg.samples = n.max(1);
        }
        cfg
    }
}

/// One bench's measurements: per-iteration nanoseconds for each sample.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub iters_per_sample: u64,
    pub sample_ns: Vec<f64>,
    pub summary: Summary,
    pub bytes_per_iter: Option<u64>,
    /// Generic work-rate annotation: (unit name, units per iteration).
    /// Adds `"<unit>_per_iter"` and `"<unit>_per_sec"` to the JSON line
    /// (e.g. the fleet bench reports `sessions_per_sec` and
    /// `sim_packets_per_sec`).
    pub rate: Option<(String, u64)>,
}

impl BenchResult {
    /// One-line JSON, schema `xlink-bench-v1`. Field set and order are
    /// stable (asserted by tests); timings vary by machine.
    pub fn json_line(&self) -> String {
        let s = &self.summary;
        let mut line = format!(
            "{{\"schema\":\"xlink-bench-v1\",\"name\":\"{}\",\"samples\":{},\
             \"iters_per_sample\":{},\"mean_ns\":{:.3},\"median_ns\":{:.3},\
             \"p95_ns\":{:.3},\"stddev_ns\":{:.3},\"min_ns\":{:.3},\"max_ns\":{:.3}",
            json_escape(&self.name),
            s.n,
            self.iters_per_sample,
            s.mean,
            s.median,
            s.p95,
            s.stddev,
            s.min,
            s.max,
        );
        if let Some(bytes) = self.bytes_per_iter {
            let mbps = if s.median > 0.0 { bytes as f64 * 8000.0 / s.median } else { 0.0 };
            line.push_str(&format!(",\"bytes_per_iter\":{bytes},\"throughput_mbps\":{mbps:.3}"));
        }
        if let Some((unit, n)) = &self.rate {
            let per_sec = if s.median > 0.0 { *n as f64 * 1e9 / s.median } else { 0.0 };
            let unit = json_escape(unit);
            line.push_str(&format!(",\"{unit}_per_iter\":{n},\"{unit}_per_sec\":{per_sec:.3}"));
        }
        line.push('}');
        line
    }

    fn human_line(&self) -> String {
        let s = &self.summary;
        format!(
            "{:<44} median {:>12.1} ns/iter  p95 {:>12.1}  ±{:>10.1}  ({} samples × {} iters)",
            self.name, s.median, s.p95, s.stddev, s.n, self.iters_per_sample
        )
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A named collection of benches sharing one [`BenchConfig`].
pub struct Suite {
    cfg: BenchConfig,
    results: Vec<BenchResult>,
}

impl Suite {
    pub fn new(cfg: BenchConfig) -> Suite {
        Suite { cfg, results: Vec::new() }
    }

    /// Suite configured from argv/environment (the normal `main()` path).
    pub fn from_args() -> Suite {
        Suite::new(BenchConfig::from_args())
    }

    pub fn is_smoke(&self) -> bool {
        self.cfg.smoke
    }

    /// Measure `f`, print its JSON line, and record the result.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) -> &BenchResult {
        self.bench_inner(name, None, None, f)
    }

    /// As [`Suite::bench`], tagging each iteration as processing
    /// `bytes` bytes so the JSON line carries a throughput figure.
    pub fn bench_throughput<T>(
        &mut self,
        name: &str,
        bytes: u64,
        f: impl FnMut() -> T,
    ) -> &BenchResult {
        self.bench_inner(name, Some(bytes), None, f)
    }

    /// As [`Suite::bench`], tagging each iteration as completing `count`
    /// units of `unit` so the JSON line carries `<unit>_per_sec`.
    pub fn bench_rate<T>(
        &mut self,
        name: &str,
        unit: &str,
        count: u64,
        f: impl FnMut() -> T,
    ) -> &BenchResult {
        self.bench_inner(name, None, Some((unit.to_string(), count)), f)
    }

    fn bench_inner<T>(
        &mut self,
        name: &str,
        bytes_per_iter: Option<u64>,
        rate: Option<(String, u64)>,
        mut f: impl FnMut() -> T,
    ) -> &BenchResult {
        let result = run_bench(&self.cfg, name, bytes_per_iter, rate, &mut f);
        println!("{}", result.json_line());
        eprintln!("{}", result.human_line());
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print a closing human-readable count; returns the results.
    pub fn finish(self) -> Vec<BenchResult> {
        eprintln!(
            "xlink-lab bench: {} bench(es) done{}",
            self.results.len(),
            if self.cfg.smoke { " (smoke mode)" } else { "" }
        );
        self.results
    }
}

fn run_bench<T>(
    cfg: &BenchConfig,
    name: &str,
    bytes_per_iter: Option<u64>,
    rate: Option<(String, u64)>,
    f: &mut impl FnMut() -> T,
) -> BenchResult {
    // Calibration doubles as warmup: time a single call, then size the
    // per-sample loop to hit the target sample time. A short call is timed
    // again over that loop, because the first call of anything is cold
    // (it read 4.3 µs for a 2.5 µs `seal`).
    let t0 = Instant::now();
    black_box(f());
    let one = t0.elapsed();
    let mut iters = cfg.iters_for(one, 1);
    if iters > 1 {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        iters = cfg.iters_for(t.elapsed(), iters);
    }
    let mut sample_ns = Vec::with_capacity(cfg.samples);
    if cfg.smoke && iters == 1 {
        // The call filled a sample by itself: it is the first sample.
        sample_ns.push(one.as_nanos() as f64);
    }
    while sample_ns.len() < cfg.samples.max(1) {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        sample_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    BenchResult {
        name: name.to_string(),
        iters_per_sample: iters,
        summary: Summary::of(&sample_ns),
        sample_ns,
        bytes_per_iter,
        rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_result(name: &str, bytes: Option<u64>) -> BenchResult {
        let cfg = BenchConfig::smoke();
        let mut n = 0u64;
        run_bench(&cfg, name, bytes, None, &mut || {
            n = n.wrapping_add(1);
            n
        })
    }

    #[test]
    fn smoke_never_repeats_a_call_that_fills_a_sample() {
        let cfg = BenchConfig::smoke();
        let mut calls = 0u64;
        let r = run_bench(&cfg, "slow", None, None, &mut || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_nanos(SMOKE_SAMPLE_NS));
        });
        assert_eq!(r.iters_per_sample, 1);
        assert_eq!(r.sample_ns.len(), SMOKE_SAMPLES);
        assert_eq!(calls, SMOKE_SAMPLES as u64, "the calibration call is the first sample");
    }

    #[test]
    fn smoke_repeats_a_short_call_until_a_sample_is_long_enough() {
        use std::time::Duration;
        let cfg = BenchConfig::smoke();
        // A 4 µs call is repeated 250 times; anything from 1 ms up, once.
        assert_eq!(cfg.iters_for(Duration::from_micros(4), 1), 250);
        assert_eq!(cfg.iters_for(Duration::from_micros(2_400), 1_000), 417);
        assert_eq!(cfg.iters_for(Duration::from_micros(600), 1), 2);
        assert_eq!(cfg.iters_for(Duration::from_millis(1), 1), 1);
        assert_eq!(cfg.iters_for(Duration::from_secs(3), 1), 1);
        assert_eq!(cfg.iters_for(Duration::ZERO, 1), cfg.max_iters_per_sample);
        let mut calls = 0u64;
        let r = run_bench(&cfg, "fast", None, None, &mut || calls += 1);
        assert!(r.iters_per_sample > 1);
        assert!(calls > SMOKE_SAMPLES as u64 * r.iters_per_sample, "calibration calls on top");
    }

    #[test]
    fn json_schema_fields_are_stable() {
        let r = smoke_result("group/case", Some(1200));
        let line = r.json_line();
        // One line, no embedded newline, brace-delimited.
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        for key in [
            "\"schema\":\"xlink-bench-v1\"",
            "\"name\":\"group/case\"",
            "\"samples\":5",
            "\"iters_per_sample\":",
            "\"mean_ns\":",
            "\"median_ns\":",
            "\"p95_ns\":",
            "\"stddev_ns\":",
            "\"min_ns\":",
            "\"max_ns\":",
            "\"bytes_per_iter\":1200",
            "\"throughput_mbps\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    #[test]
    fn rate_fields_use_the_unit_name() {
        let cfg = BenchConfig::smoke();
        let r = run_bench(&cfg, "fleet", None, Some(("sessions".to_string(), 250)), &mut || 1);
        let line = r.json_line();
        assert!(line.contains("\"sessions_per_iter\":250"), "{line}");
        assert!(line.contains("\"sessions_per_sec\":"), "{line}");
        assert!(!line.contains("bytes_per_iter"));
    }

    #[test]
    fn throughput_omitted_without_bytes() {
        let line = smoke_result("plain", None).json_line();
        assert!(!line.contains("throughput_mbps"));
        assert!(!line.contains("bytes_per_iter"));
    }

    #[test]
    fn json_name_is_escaped() {
        let line = smoke_result("odd\"name\\x", None).json_line();
        assert!(line.contains("\"name\":\"odd\\\"name\\\\x\""));
    }

    #[test]
    fn measured_samples_are_positive() {
        let r = smoke_result("positive", None);
        assert!(r.sample_ns.iter().all(|&ns| ns >= 0.0));
        assert!(r.summary.median >= 0.0);
    }

    #[test]
    fn calibration_caps_iterations() {
        let cfg = BenchConfig { samples: 2, smoke: false, ..BenchConfig::default() };
        let r = run_bench(&cfg, "cap", None, None, &mut || std::hint::black_box(1 + 1));
        assert!(r.iters_per_sample >= 1);
        assert!(r.iters_per_sample <= cfg.max_iters_per_sample);
        assert_eq!(r.sample_ns.len(), 2);
    }
}
