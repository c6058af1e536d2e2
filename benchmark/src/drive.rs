//! Runs one workload in this process: set-up, a discarded warm-up
//! repetition, timed repetitions of identical inputs, output checks, and
//! the determinism and noise guards.

use crate::host;
use crate::metrics::{Axis, END_TO_END};
use crate::stats::{median, Summary};
use crate::workloads::{Job, Rep, Workload};
use std::process::Command;
use std::time::Instant as Wall;

/// Timed repetitions a run makes at the least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// A repetition whose process CPU time is below this share of its wall
/// time was disturbed (descheduled); it is flagged, not dropped.
pub const BUSY_FLOOR: f64 = 0.9;
/// Set-ups measured per run (this process plus fresh children).
const SETUP_SAMPLES: usize = 3;

/// What the caller asked for.
#[derive(Clone, Copy)]
pub struct Request {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
}

/// One reported metric: the value, and the samples it was taken from.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Reading { name, unit, value, n: 1, q1: value, q3: value }
    }

    fn sampled(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Self {
        let Summary { q1, q3, .. } = Summary::of(samples);
        Reading { name, unit, value, n: samples.len(), q1, q3 }
    }
}

/// A finished run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub reps: usize,
    pub disturbed_reps: usize,
    pub readings: Vec<Reading>,
}

/// A timed repetition.
pub struct Timed {
    pub rep: Rep,
    pub wall_s: f64,
    pub busy_share: f64,
}

/// The job after set-up: inputs built and one warm-up repetition done.
pub struct Ready {
    pub job: Box<dyn Job>,
    pub warm: Rep,
    /// Process start to ready-to-time, seconds.
    pub setup_s: f64,
}

/// Build the inputs and run the discarded warm-up repetition (caches fill,
/// lazy initialisation and heap growth happen here, not in the timed region).
pub fn set_up(req: &Request, process_start: Wall) -> Result<Ready, String> {
    warm_up((req.workload.prepare)(req.seed), process_start)
}

/// The second half of [`set_up`], for a caller that built the inputs itself.
pub fn warm_up(job: Box<dyn Job>, process_start: Wall) -> Result<Ready, String> {
    let warm = job.run();
    let setup_s = process_start.elapsed().as_secs_f64();
    check_outputs(&warm)?;
    Ok(Ready { job, warm, setup_s })
}

fn check_outputs(rep: &Rep) -> Result<(), String> {
    if rep.errors.is_empty() {
        Ok(())
    } else {
        Err(format!("output check failed: {}", rep.errors.join("; ")))
    }
}

/// Run one more repetition and hold it to the warm-up's outputs.
pub fn timed_rep(ready: &Ready) -> Result<Timed, String> {
    let (cpu0, started) = (host::cpu_seconds(), Wall::now());
    let rep = ready.job.run();
    let wall_s = started.elapsed().as_secs_f64();
    let busy_share = (host::cpu_seconds() - cpu0) / wall_s;
    check_outputs(&rep)?;
    let (want, got) = (ready.warm.sim_digest(), rep.sim_digest());
    if want != got {
        return Err(format!("sim_digest changed between repetitions: {want:016x} -> {got:016x}"));
    }
    Ok(Timed { rep, wall_s, busy_share })
}

/// Repeat until `seconds` have been measured (at least [`MIN_REPS`]
/// times), stopping early rather than overshooting by most of a repetition.
pub fn measure(ready: &Ready, seconds: f64) -> Result<Vec<Timed>, String> {
    let begin = Wall::now();
    let mut reps: Vec<Timed> = Vec::new();
    loop {
        reps.push(timed_rep(ready)?);
        let typical = median(&reps.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        if reps.len() >= MIN_REPS && begin.elapsed().as_secs_f64() + typical / 2.0 > seconds {
            return Ok(reps);
        }
    }
}

/// Host seconds of one repetition's work: each unit of work (a transfer, a
/// session, a population run) takes its fastest time over the repetitions,
/// and those are summed. The work is deterministic and interference from
/// the host only ever adds time, so the minimum is the estimate closest to
/// the code's own cost; measured on this kind of sandbox, its run-to-run
/// spread is half that of the per-unit median (1.3-1.6 % against 2.4-3.4 %).
fn undisturbed_wall_s(reps: &[Timed]) -> f64 {
    let units = reps[0].rep.unit_wall_s.len();
    (0..units)
        .map(|u| reps.iter().map(|t| t.rep.unit_wall_s[u]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Median set-up time over this process and `SETUP_SAMPLES - 1` fresh
/// children that do nothing but set up.
fn setup_samples(req: &Request, own: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut samples = vec![own];
    while samples.len() < SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args(["setup-only", "--workload", req.workload.name, "--seed", &req.seed.to_string()])
            .output()
            .map_err(|e| format!("cannot start set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed = text.trim().parse::<f64>().ok().filter(|_| out.status.success());
        samples.push(parsed.ok_or_else(|| {
            format!("set-up child failed: {}", String::from_utf8_lossy(&out.stderr).trim())
        })?);
    }
    Ok(samples)
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(req: &Request, process_start: Wall) -> Result<Outcome, String> {
    let ready = set_up(req, process_start)?;
    let reps = measure(&ready, req.seconds)?;
    let peak_rss_mb = host::peak_rss_mb();
    let setups = setup_samples(req, ready.setup_s)?;

    let rep = &ready.warm;
    if rep.packets == 0 || rep.sessions == 0 {
        return Err(format!(
            "nothing finished: {} packets, {} sessions",
            rep.packets, rep.sessions
        ));
    }
    let wall = undisturbed_wall_s(&reps);
    let totals: Vec<f64> = reps.iter().map(|t| t.rep.unit_wall_s.iter().sum()).collect();
    let rate = |work: u64| -> (f64, Vec<f64>) {
        (work as f64 / wall, totals.iter().map(|t| work as f64 / t).collect())
    };
    let readings = END_TO_END
        .iter()
        .map(|m| match (m.name, m.axis) {
            ("sim_packets_per_sec", _) => {
                let (value, samples) = rate(rep.packets);
                Ok(Reading::sampled(m.name, m.unit, value, &samples))
            }
            ("sessions_per_sec", _) => {
                let (value, samples) = rate(rep.sessions);
                Ok(Reading::sampled(m.name, m.unit, value, &samples))
            }
            ("peak_rss_mb", _) => Ok(Reading::exact(m.name, m.unit, peak_rss_mb)),
            ("setup_s", _) => Ok(Reading::sampled(m.name, m.unit, median(&setups), &setups)),
            (name, Axis::Sim) => rep
                .sim
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| Reading::exact(m.name, m.unit, v))
                .ok_or_else(|| format!("{} does not report {name}", req.workload.name)),
            (name, Axis::Host) => Err(format!("no reader for host metric {name}")),
        })
        .collect::<Result<Vec<_>, String>>()?;

    Ok(Outcome {
        attempted: rep.attempted,
        failed: rep.failed,
        sim_digest: rep.sim_digest(),
        reps: reps.len(),
        disturbed_reps: reps.iter().filter(|t| t.busy_share < BUSY_FLOOR).count(),
        readings,
    })
}
