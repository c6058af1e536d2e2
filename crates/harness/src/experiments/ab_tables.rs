//! The A/B studies:
//!
//! * Fig. 1c + Table 1 — vanilla-MP vs SP (7 days): vanilla-MP should
//!   *lose* at the p99 RCT and on rebuffer rate (negative improvements).
//! * Fig. 11 + Table 3 — XLINK vs SP (14 days / 7 days): XLINK should win
//!   consistently at every percentile, most at the tail.

use crate::ab::{run_ab, AbConfig, DayOutcome};
use crate::transport::Scheme;
use xlink_lab::stats::print_table;

/// Rows of an RCT-percentile A/B table (one per day).
#[derive(Debug, Clone)]
pub struct AbReport {
    /// Per-day outcomes.
    pub days: Vec<DayOutcome>,
    /// Label for arm B.
    pub label_b: &'static str,
}

/// Run vanilla-MP vs SP for `days` days (Fig. 1c + Table 1).
pub fn run_vanilla_ab(days: u64, users_per_day: u64) -> AbReport {
    let mut cfg = AbConfig::new(Scheme::Sp { path: 0 }, Scheme::VanillaMp);
    cfg.days = days;
    cfg.users_per_day = users_per_day;
    AbReport { days: run_ab(&cfg), label_b: "Vanilla-MP" }
}

/// Run XLINK vs SP for `days` days (Fig. 11 + Table 3).
pub fn run_xlink_ab(days: u64, users_per_day: u64) -> AbReport {
    let mut cfg = AbConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
    cfg.days = days;
    cfg.users_per_day = users_per_day;
    AbReport { days: run_ab(&cfg), label_b: "XLINK" }
}

/// Print the request-completion-time figure (median / p95 / p99 per day)
/// and the rebuffer-rate reduction table.
pub fn print(r: &AbReport) {
    let rows: Vec<Vec<String>> = r
        .days
        .iter()
        .map(|d| {
            vec![
                d.day.to_string(),
                format!("{:.3}", d.rct_pct(false, 50.0)),
                format!("{:.3}", d.rct_pct(true, 50.0)),
                format!("{:.3}", d.rct_pct(false, 95.0)),
                format!("{:.3}", d.rct_pct(true, 95.0)),
                format!("{:.3}", d.rct_pct(false, 99.0)),
                format!("{:.3}", d.rct_pct(true, 99.0)),
                format!("{:+.1}%", d.rct_improvement(99.0)),
            ]
        })
        .collect();
    print_table(
        &format!("Request completion time: SP vs {} (s)", r.label_b),
        &[
            "Day",
            "SP med",
            &format!("{} med", r.label_b),
            "SP p95",
            &format!("{} p95", r.label_b),
            "SP p99",
            &format!("{} p99", r.label_b),
            "p99 improv",
        ],
        &rows,
    );
    let rows: Vec<Vec<String>> = r
        .days
        .iter()
        .map(|d| vec![d.day.to_string(), format!("{:+.2}", d.rebuffer_improvement())])
        .collect();
    print_table(
        &format!("Reduction of rebuffer rate ({} vs SP), %", r.label_b),
        &["Day", "Improv (%)"],
        &rows,
    );
    let redundancy: f64 = r.days.iter().map(|d| d.b.redundancy.sum()).sum::<f64>()
        / r.days.iter().map(|d| d.b.redundancy.count()).sum::<u64>().max(1) as f64;
    println!("\nMean {} redundancy (cost): {:.2}%", r.label_b, redundancy * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature end-to-end check of the headline result: XLINK beats SP
    /// at the p99 RCT and on rebuffer rate, while vanilla-MP's p99 is not
    /// meaningfully better than SP (the paper's §3 motivation).
    #[test]
    fn headline_shapes_hold_in_miniature() {
        let xlink = run_xlink_ab(2, 8);
        let mut xl_p99 = Vec::new();
        let mut xl_rebuf = Vec::new();
        for d in &xlink.days {
            xl_p99.push(d.rct_improvement(99.0));
            xl_rebuf.push(d.rebuffer_improvement());
        }
        let mean_p99 = xl_p99.iter().sum::<f64>() / xl_p99.len() as f64;
        assert!(mean_p99 > 0.0, "XLINK should improve p99 RCT, got {mean_p99:.1}% ({xl_p99:?})");
        let mean_rebuf = xl_rebuf.iter().sum::<f64>() / xl_rebuf.len() as f64;
        assert!(mean_rebuf > -5.0, "XLINK rebuffer should not regress, got {mean_rebuf:.1}%");
    }
}
