//! `xbench compare A.json B.json`: B against the baseline A, per
//! (end-to-end metric, workload), by the bounds of the metric table.

use crate::metrics::END_TO_END;
use crate::report::load_run;
use crate::stats::{verdict, Summary, Verdict};
use xlink_obs::json::Value;

fn summary(workload: &Value, metric: &str) -> Option<Summary> {
    let m = workload.get("metrics")?.get(metric)?;
    let field = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Summary { median: field("value")?, q1: field("q1")?, q3: field("q3")? })
}

fn failed_share(workload: &Value) -> Option<f64> {
    let field = |k: &str| workload.get(k).and_then(Value::as_f64);
    Some(field("failed")? / field("attempted")?.max(1.0))
}

/// Print one verdict per (metric, workload); `Ok(false)` when any is
/// `worse` or any workload's failed share went up.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load_run(base_path)?, load_run(new_path)?);
    let workloads = |doc| Value::get(doc, "workloads").and_then(Value::as_arr);
    let base_wl = workloads(&base).ok_or("baseline has no workloads")?;
    let new_wl = workloads(&new).ok_or("new set has no workloads")?;
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for b in base_wl {
        let name = b.get("workload").and_then(Value::as_str).ok_or("workload without a name")?;
        let n = new_wl
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("{new_path} has no workload {name}"))?;
        for m in &END_TO_END {
            let (Some(sb), Some(sn)) = (summary(b, m.name), summary(n, m.name)) else {
                return Err(format!("{name}: metric {} missing (traced set?)", m.name));
            };
            let v = verdict(sb, sn, m.better, m.bound);
            ok &= v != Verdict::Worse;
            let change = if sb.median == 0.0 { 0.0 } else { (sn.median / sb.median - 1.0) * 100.0 };
            println!(
                "{name:<16} {:<22} {:>14.4} {:>14.4} {change:>+7.2}%  {}",
                m.name,
                sb.median,
                sn.median,
                v.label()
            );
        }
        let (fb, fn_) = (failed_share(b).unwrap_or(0.0), failed_share(n).unwrap_or(0.0));
        let failed_worse = fn_ > fb;
        ok &= !failed_worse;
        println!(
            "{name:<16} {:<22} {fb:>14.6} {fn_:>14.6} {:>8}  {}",
            "failed_share",
            "",
            if failed_worse { "worse" } else { "unchanged" }
        );
        let digest = |w: &Value| w.get("sim_digest").and_then(Value::as_str).map(str::to_owned);
        let same = digest(b) == digest(n);
        println!(
            "{name:<16} {:<22} {:>38}  {}",
            "sim_digest",
            "",
            if same { "identical" } else { "differs (transport behaviour or seed changed)" }
        );
    }
    Ok(ok)
}
