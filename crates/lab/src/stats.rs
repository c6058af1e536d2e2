//! Summary statistics of the experiment harness: percentiles (the paper
//! reports medians, p90/p95/p99 tails), means and improvement ratios.

use xlink_clock::Duration;

/// Percentile of a sample set (nearest-rank on a sorted copy; `p` in
/// [0, 100]). Returns 0 for empty input.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = (p / 100.0 * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Arithmetic mean (0 for empty input).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Relative improvement of `new` over `base` in percent: positive when
/// `new` is smaller (better, for latency-like metrics).
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    (base - new) / base * 100.0
}

/// Convert durations to seconds for stats.
pub fn secs(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64()).collect()
}

/// Pretty-print a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let med = percentile(&v, 50.0);
        assert!((50.0..=51.0).contains(&med));
        let p99 = percentile(&v, 99.0);
        assert!((99.0..=100.0).contains(&p99));
    }

    #[test]
    fn percentile_handles_degenerate() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[f64::NAN, 3.0], 50.0), 3.0);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 9.0, 3.0];
        let b = [9.0, 3.0, 5.0, 1.0];
        assert_eq!(percentile(&a, 75.0), percentile(&b, 75.0));
    }

    #[test]
    fn mean_and_improvement() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(improvement_pct(2.0, 1.0), 50.0);
        assert_eq!(improvement_pct(1.0, 2.0), -100.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn secs_converts() {
        let d = [Duration::from_millis(1500)];
        assert_eq!(secs(&d), vec![1.5]);
    }
}
