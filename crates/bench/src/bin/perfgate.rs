//! Perf ledger gate: compare freshly emitted `BENCH_*.json` files
//! against the previously committed run and flag regressions.
//!
//! ci.sh copies each committed ledger file to `<file>.prev` before
//! regenerating it, then runs:
//!
//! ```sh
//! cargo run --release -p xlink-bench --bin perfgate -- BENCH_micro.json BENCH_fleet.json ...
//! ```
//!
//! For every bench name present in both current and previous ledgers the
//! gate compares `median_ns` (and `<unit>_per_sec` rates, inverted so
//! "lower is worse" reads the same way) against a tolerance band
//! (`--tolerance 0.30` = ±30%, the default). Regressions WARN and are
//! listed; the exit code stays 0 unless `--strict` is given — timing on
//! shared CI hosts is too noisy to hard-fail on, but the table makes
//! every hot-path claim in a PR checkable. A row whose `stddev_ns` exceeds
//! its `median_ns` (on either side) measured noise, not the bench: it is
//! reported as `unusable` and not compared.
//!
//! `BENCH_prof.json` (schema `xlink-prof-v1`) is recognised and rendered
//! as a per-span cost table; span *calls* are compared exactly, since
//! they are deterministic — a silent change in call counts is a
//! behaviour change, not noise.

use xlink_obs::json::{parse, Value};
use xlink_obs::prof::ProfReport;

struct BenchRow {
    median_ns: f64,
    stddev_ns: f64,
    rates: Vec<(String, f64)>, // (unit, per_sec)
}

impl BenchRow {
    /// The samples spread wider than their own median: no comparison
    /// against this row means anything.
    fn unusable(&self) -> bool {
        self.stddev_ns > self.median_ns
    }
}

fn parse_bench_lines(doc: &str) -> Vec<(String, BenchRow)> {
    let mut rows = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = parse(line) else { continue };
        if v.get("schema").and_then(Value::as_str) != Some("xlink-bench-v1") {
            continue;
        }
        let Some(name) = v.get("name").and_then(Value::as_str) else { continue };
        let Some(median_ns) = v.get("median_ns").and_then(Value::as_f64) else { continue };
        let stddev_ns = v.get("stddev_ns").and_then(Value::as_f64).unwrap_or(0.0);
        let mut rates = Vec::new();
        if let Value::Obj(fields) = &v {
            for (k, val) in fields {
                if let Some(unit) = k.strip_suffix("_per_sec") {
                    if let Some(r) = val.as_f64() {
                        rates.push((unit.to_string(), r));
                    }
                }
            }
        }
        rows.push((name.to_string(), BenchRow { median_ns, stddev_ns, rates }));
    }
    rows
}

/// Relative change current vs previous; positive = got worse (slower /
/// lower rate).
fn rel_worse(current: f64, previous: f64, higher_is_better: bool) -> f64 {
    if previous <= 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (previous - current) / previous
    } else {
        (current - previous) / previous
    }
}

fn gate_bench_file(file: &str, tolerance: f64, warnings: &mut Vec<String>) {
    let Ok(cur_doc) = std::fs::read_to_string(file) else {
        println!("perfgate: {file}: missing, skipped");
        return;
    };
    let prev_path = format!("{file}.prev");
    let prev_doc = std::fs::read_to_string(&prev_path).unwrap_or_default();
    let current = parse_bench_lines(&cur_doc);
    let previous = parse_bench_lines(&prev_doc);
    if current.is_empty() {
        println!("perfgate: {file}: no xlink-bench-v1 lines, skipped");
        return;
    }
    println!("\n== {file} (±{:.0}% vs {prev_path})", tolerance * 100.0);
    println!("{:<44} {:>14} {:>14} {:>9}", "bench", "median ns", "prev ns", "delta");
    for (name, row) in &current {
        let prev = previous.iter().find(|(n, _)| n == name).map(|(_, r)| r);
        match prev {
            None => println!("{:<44} {:>14.1} {:>14} {:>9}", name, row.median_ns, "-", "new"),
            Some(p) if row.unusable() || p.unusable() => {
                let side = if row.unusable() { "current" } else { "previous" };
                println!(
                    "{:<44} {:>14.1} {:>14.1} {:>9}",
                    name, row.median_ns, p.median_ns, "unusable"
                );
                warnings.push(format!(
                    "{file}: {name} unusable, not compared: {side} stddev exceeds its median"
                ));
            }
            Some(p) => {
                let worse = rel_worse(row.median_ns, p.median_ns, false);
                let mark = if worse > tolerance {
                    warnings.push(format!(
                        "{file}: {name} median {:.1} ns vs {:.1} ns (+{:.0}%)",
                        row.median_ns,
                        p.median_ns,
                        worse * 100.0
                    ));
                    " WARN"
                } else {
                    ""
                };
                println!(
                    "{:<44} {:>14.1} {:>14.1} {:>+8.1}%{}",
                    name,
                    row.median_ns,
                    p.median_ns,
                    100.0 * (row.median_ns - p.median_ns) / p.median_ns.max(1e-9),
                    mark
                );
                for (unit, rate) in &row.rates {
                    if let Some((_, pr)) = p.rates.iter().find(|(u, _)| u == unit) {
                        let worse = rel_worse(*rate, *pr, true);
                        if worse > tolerance {
                            warnings.push(format!(
                                "{file}: {name} {unit}_per_sec {rate:.0} vs {pr:.0} (-{:.0}%)",
                                worse * 100.0
                            ));
                        }
                    }
                }
            }
        }
    }
}

fn gate_prof_file(file: &str, warnings: &mut Vec<String>) {
    let Ok(cur_doc) = std::fs::read_to_string(file) else {
        println!("perfgate: {file}: missing, skipped");
        return;
    };
    let current = match ProfReport::from_json(&cur_doc) {
        Ok(r) => r,
        Err(e) => {
            warnings.push(format!("{file}: unreadable profile: {e}"));
            return;
        }
    };
    let prev_path = format!("{file}.prev");
    let previous =
        std::fs::read_to_string(&prev_path).ok().and_then(|d| ProfReport::from_json(&d).ok());
    println!("\n== {file} (per-span hot-path cost)");
    println!(
        "{:<44} {:>10} {:>12} {:>12} {:>12}",
        "span (folded path)", "calls", "incl ms", "excl ms", "allocs"
    );
    let mut rows: Vec<_> = current.rows.iter().collect();
    rows.sort_by(|a, b| b.incl_ns.cmp(&a.incl_ns));
    for r in rows.iter().take(15) {
        println!(
            "{:<44} {:>10} {:>12.1} {:>12.1} {:>12}",
            r.path,
            r.calls,
            r.incl_ns as f64 / 1e6,
            r.excl_ns as f64 / 1e6,
            r.allocs
        );
    }
    if let Some(prev) = previous {
        // Span call counts are deterministic per workload: exact drift
        // between committed runs means the workload or the span layout
        // changed — worth a warning line either way.
        for r in &current.rows {
            if let Some(p) = prev.get(&r.path) {
                if p.calls != r.calls {
                    warnings.push(format!(
                        "{file}: span {} calls changed {} -> {}",
                        r.path, p.calls, r.calls
                    ));
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strict = args.iter().any(|a| a == "--strict");
    let tolerance = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.30);
    let files: Vec<&String> =
        args.iter().filter(|a| !a.starts_with("--") && !a.parse::<f64>().is_ok()).collect();
    if files.is_empty() {
        eprintln!("usage: perfgate [--tolerance 0.30] [--strict] BENCH_*.json ...");
        std::process::exit(2);
    }
    let mut warnings = Vec::new();
    for file in &files {
        if file.contains("prof") {
            gate_prof_file(file, &mut warnings);
        } else {
            gate_bench_file(file, tolerance, &mut warnings);
        }
    }
    println!();
    if warnings.is_empty() {
        println!("perfgate: OK — no regressions beyond ±{:.0}%", tolerance * 100.0);
    } else {
        println!("perfgate: {} warning(s):", warnings.len());
        for w in &warnings {
            println!("  WARN {w}");
        }
        if strict {
            std::process::exit(1);
        }
        println!("perfgate: warnings are advisory (run with --strict to fail)");
    }
}
