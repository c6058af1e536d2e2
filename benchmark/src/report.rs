//! Output: the one-line result the caller reads, the detail line with
//! sample counts and quartiles, the human table on stderr, and the
//! all-workloads document of `xbench run`.

use crate::drive::{Outcome, Reading, Request};
use crate::metrics::{DEFAULT_SEED, RUN_SECONDS};
use crate::workloads::WORKLOADS;
use std::process::Command;
use xlink_obs::json::{parse, JsonWriter, Value};

/// The last stdout line of a single-workload run.
pub fn result_line(o: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", true);
    w.field_u64("attempted", o.attempted);
    w.field_u64("failed", o.failed);
    write_readings(&mut w, &o.readings, false);
    w.end_object();
    w.finish()
}

/// `"metrics": {name: {value, unit}}`, with sample count and quartiles too
/// when `samples` is set.
fn write_readings(w: &mut JsonWriter, readings: &[Reading], samples: bool) {
    w.key("metrics");
    w.begin_object();
    for r in readings {
        w.key(r.name);
        w.begin_object();
        w.field_f64("value", r.value);
        w.field_str("unit", r.unit);
        if samples {
            w.field_u64("n", r.n as u64);
            w.field_f64("q1", r.q1);
            w.field_f64("q3", r.q3);
        }
        w.end_object();
    }
    w.end_object();
}

/// The stdout line before the result: everything `xbench run` records
/// about one workload.
pub fn detail_line(req: &Request, traced: bool, o: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", req.workload.name);
    w.field_u64("seed", req.seed);
    w.field_bool("traced", traced);
    w.field_str("size", req.workload.size);
    w.field_u64("attempted", o.attempted);
    w.field_u64("failed", o.failed);
    w.field_str("sim_digest", &format!("{:016x}", o.sim_digest));
    w.field_u64("reps", o.reps as u64);
    w.field_u64("disturbed_reps", o.disturbed_reps as u64);
    write_readings(&mut w, &o.readings, true);
    w.end_object();
    w.finish()
}

/// Human-readable table on stderr.
pub fn print_table(req: &Request, traced: bool, o: &Outcome) {
    eprintln!(
        "== {} seed={} {} reps={} (disturbed {}) failed {}/{} sim_digest={:016x}",
        req.workload.name,
        req.seed,
        if traced { "traced" } else { "untraced" },
        o.reps,
        o.disturbed_reps,
        o.failed,
        o.attempted,
        o.sim_digest,
    );
    for r in &o.readings {
        eprintln!(
            "  {:<34} {:>16.4} {:<7} n={:<3} q1={:.4} q3={:.4}",
            r.name, r.value, r.unit, r.n, r.q1, r.q3
        );
    }
}

/// `xbench run`: every workload, each in a fresh child process (re-exec of
/// this binary), collected into one JSON document on stdout.
pub fn run_all(seed: Option<u64>, seconds: Option<f64>, traced: bool) -> Result<String, String> {
    let seed = seed.unwrap_or(DEFAULT_SEED);
    let seconds = seconds.unwrap_or(RUN_SECONDS as f64);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "xbench-run-v1");
    w.field_u64("seed", seed);
    w.field_bool("traced", traced);
    w.field_u64("nproc", std::thread::available_parallelism().map_or(0, |n| n.get() as u64));
    w.key("workloads");
    w.begin_array();
    for wl in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", wl.name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", wl.name))?;
        if !out.status.success() {
            return Err(format!("workload {} failed ({})", wl.name, out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let detail = stdout.lines().rev().nth(1).ok_or("child printed no detail line")?;
        parse(detail).map_err(|e| format!("{}: bad detail line: {e}", wl.name))?.write(&mut w);
    }
    w.end_array();
    w.end_object();
    Ok(w.finish())
}

/// Read a document written by [`run_all`].
pub fn load_run(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("xbench-run-v1") => Ok(doc),
        _ => Err(format!("{path}: not an xbench-run-v1 document")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn outcome(names: impl Iterator<Item = (&'static str, &'static str)>) -> Outcome {
        Outcome {
            attempted: 600,
            failed: 0,
            sim_digest: 0xfeed_f00d,
            reps: 6,
            disturbed_reps: 1,
            readings: names.map(|(name, unit)| Reading::exact(name, unit, 1.25)).collect(),
        }
    }

    /// What the runner prints parses back with the repository's own JSON
    /// parser, with exactly the expected keys and every name in the
    /// allowed alphabet.
    #[test]
    fn emitted_json_parses_back() {
        let request = Request { workload: &WORKLOADS[0], seed: 7, seconds: 1.0 };
        let sets = [
            outcome(END_TO_END.iter().map(|m| (m.name, m.unit))),
            outcome(PER_LAYER.iter().map(|m| (m.name, m.unit))),
        ];
        for o in &sets {
            let result = parse(&result_line(o)).expect("result line parses");
            let Value::Obj(members) = &result else { panic!("result is not an object") };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("attempted").and_then(Value::as_u64), Some(600));
            let detail = parse(&detail_line(&request, false, o)).expect("detail line parses");
            for doc in [&result, &detail] {
                let Some(Value::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics") };
                assert_eq!(metrics.len(), o.readings.len());
                for (name, m) in metrics {
                    assert!(name_ok(name), "bad metric name {name:?}");
                    assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
                    assert!(m.get("unit").and_then(Value::as_str).is_some());
                }
            }
            assert_eq!(detail.get("sim_digest").and_then(Value::as_str), Some("00000000feedf00d"));
        }
    }
}
