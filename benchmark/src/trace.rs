//! The traced run: the workload once under `prof::with_recording` with
//! benchmark-side spans around the calls into the harness, the probes, and
//! every per-layer metric. End-to-end metrics never come from here.

use crate::drive::{self, Outcome, Reading, Request, BUSY_FLOOR};
use crate::metrics::{PER_LAYER, TRACED_CRATES};
use crate::probes;
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant as Wall};
use xlink_obs::prof::{self, is_stack_prefix, ProfReport};

/// Untraced repetitions the traced one is compared against.
const BASELINE_REPS: usize = 2;

/// Where the recorded spans are written at exit (git-ignored).
fn trace_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/xbench"))
}

/// The crate a span row's self time belongs to: the crate of the innermost
/// span, i.e. the last crate name among the path components before the
/// leaf (span names are `crate/leaf`, folded to `crate;leaf`). Grouping by
/// crate keeps metric names stable when a later change splits a span.
fn crate_of(path_under_run: &str) -> Option<usize> {
    path_under_run
        .rsplit(';')
        .skip(1)
        .find_map(|part| TRACED_CRATES.iter().position(|&(name, _)| name == part))
}

/// Derive the `trace.*` metrics from the spans under `bench/<workload>/run`.
fn trace_metrics(
    profile: &ProfReport,
    workload: &str,
    packets: u64,
    sessions: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let root = format!("bench;{workload};run");
    let run = profile.get(&root).ok_or_else(|| format!("traced run recorded no span {root}"))?;
    let mut self_ns = [0u64; TRACED_CRATES.len()];
    let (mut allocs, mut alloc_bytes, mut spans) = (run.allocs, run.alloc_bytes, 0u64);
    for row in profile.rows.iter().filter(|r| is_stack_prefix(&root, &r.path)) {
        if let Some(c) = crate_of(&row.path[root.len() + 1..]) {
            self_ns[c] += row.excl_ns;
        }
        allocs += row.allocs;
        alloc_bytes += row.alloc_bytes;
        spans += row.calls;
    }
    let per_pkt = |x: u64| x as f64 / packets.max(1) as f64;
    let mut out: Vec<(&'static str, f64)> =
        TRACED_CRATES.iter().zip(self_ns).map(|(&(_, metric), ns)| (metric, per_pkt(ns))).collect();
    out.extend([
        ("trace.unattributed_share", run.excl_ns as f64 / run.incl_ns.max(1) as f64),
        ("trace.allocs_per_pkt", per_pkt(allocs)),
        ("trace.alloc_bytes_per_pkt", per_pkt(alloc_bytes)),
        ("trace.allocs_per_session", allocs as f64 / sessions.max(1) as f64),
        ("trace.spans_per_pkt", per_pkt(spans)),
    ]);
    Ok(out)
}

fn write_trace(workload: &str, profile: &ProfReport) -> Result<(), String> {
    let dir = trace_dir();
    let write = |name: String, text: String| {
        std::fs::write(dir.join(&name), text).map_err(|e| format!("cannot write {name}: {e}"))
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    write(format!("trace-{workload}.json"), profile.to_json())?;
    write(format!("trace-{workload}.folded"), profile.folded())
}

/// The traced run: every per-layer metric.
pub fn run_traced(req: &Request, process_start: Wall) -> Result<Outcome, String> {
    let name = req.workload.name;
    let (job, mut profile) = prof::with_recording(|| (req.workload.prepare)(req.seed));
    let ready = drive::warm_up(job, process_start)?;

    let mut baseline = Vec::with_capacity(BASELINE_REPS);
    for _ in 0..BASELINE_REPS {
        baseline.push(drive::timed_rep(&ready)?);
    }
    // `timed_rep` holds the traced repetition to the untraced digest.
    let (traced, run_profile) = prof::with_recording(|| drive::timed_rep(&ready));
    let traced = traced.map_err(|e| format!("traced repetition: {e}"))?;
    profile.merge(&run_profile);

    let run_wall = |t: &drive::Timed| t.rep.unit_wall_s.iter().sum::<f64>();
    let untraced_wall = median(&baseline.iter().map(run_wall).collect::<Vec<_>>());
    let rep = &traced.rep;
    let mut values: BTreeMap<&'static str, Reading> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        values.insert(name, Reading::exact(name, "", value));
    };
    put("netsim.packets", rep.packets as f64);
    for &(name, v) in rep.counts.iter().chain(rep.sim.iter().filter(|(n, _)| n.starts_with("sim.")))
    {
        put(name, v);
    }
    // Every repetition lists the same host extras in the same order.
    for (i, &(host_metric, _)) in rep.host.iter().enumerate() {
        put(host_metric, median(&baseline.iter().map(|t| t.rep.host[i].1).collect::<Vec<_>>()));
    }
    put("host.cpu_busy_share", median(&baseline.iter().map(|t| t.busy_share).collect::<Vec<_>>()));
    for (name, v) in trace_metrics(&run_profile, name, rep.packets, rep.sessions)? {
        put(name, v);
    }
    put("obs.trace_overhead_pct", (run_wall(&traced) / untraced_wall - 1.0) * 100.0);

    // Probe samples shrink with `--seconds` so short smoke runs stay short.
    let sample = Duration::from_secs_f64((req.seconds / 750.0).min(0.020));
    for reading in probes::run_all(sample, &mut profile) {
        values.insert(reading.name, reading);
    }
    write_trace(name, &profile)?;

    // Every per-layer metric, in table order; one this workload cannot
    // produce reads 0. A value the table does not list is a bug here.
    let readings: Vec<Reading> = PER_LAYER
        .iter()
        .map(|m| {
            let r = values.remove(m.name).unwrap_or_else(|| Reading::exact(m.name, m.unit, 0.0));
            Reading { unit: m.unit, ..r }
        })
        .collect();
    if let Some(stray) = values.keys().next() {
        return Err(format!("metric {stray} is not in the per-layer table"));
    }
    Ok(Outcome {
        attempted: rep.attempted,
        failed: rep.failed,
        sim_digest: rep.sim_digest(),
        reps: baseline.len() + 1,
        disturbed_reps: baseline.iter().filter(|t| t.busy_share < BUSY_FLOOR).count(),
        readings,
    })
}
