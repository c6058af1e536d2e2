//! Hot-path profile of a fleet run: where the wall-clock budget of N
//! concurrent video sessions actually goes.
//!
//! Runs the fleet A/B population with `obs::prof` recording, then dumps the
//! merged per-span profile:
//!
//! * default: folded-stack lines (`netsim;link_delivery;quic;aead_open 1234`,
//!   weight = exclusive nanoseconds) for flamegraph.pl-style tooling;
//! * `--json`: the `xlink-prof-v1` document ci.sh commits as
//!   `BENCH_prof.json`;
//! * `--gate-out FILE`: additionally append two `xlink-bench-v1` lines
//!   (`sessions_per_sec`, `sim_packets_per_sec` at this population) to
//!   FILE, so the perf ledger tracks throughput at the scale CI gates.
//!
//! A top-10 span table always goes to stderr for humans, under a line that
//! says how many worker threads the shards ran on and how many cores the
//! recorded spans kept busy.
//!
//! ```sh
//! cargo run --release --example prof_dump
//! XLINK_FLEET_SESSIONS=10000 cargo run --release --example prof_dump -- --json > BENCH_prof.json
//! ```

use std::io::Write as _;
use xlink::clock::Duration;
use xlink::harness::fleet::{run_fleet_profiled, FleetConfig};
use xlink::harness::{par, Scheme};
use xlink::lab::bench::BenchResult;
use xlink::lab::stats::Summary;
use xlink::video::Video;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let users = env_u64("XLINK_FLEET_SESSIONS", 2_000);
    let shards = env_u64("XLINK_FLEET_SHARDS", 4) as u32;
    let json = std::env::args().any(|a| a == "--json");
    let gate_out = {
        let mut args = std::env::args();
        let mut out = None;
        while let Some(a) = args.next() {
            if a == "--gate-out" {
                out = args.next();
            }
        }
        out
    };

    // Same population shape as the fleet_rct example / tests/fleet.rs.
    let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
    cfg.users_per_day = users;
    cfg.shards = shards;
    cfg.video = Video::synth(4, 25, 400_000, 8.0);
    cfg.arrival_window = Duration::from_secs(3);
    cfg.deadline = Duration::from_secs(45);

    let t0 = std::time::Instant::now();
    let (report, profile) = run_fleet_profiled(&cfg);
    let wall_ns = t0.elapsed().as_nanos() as f64;

    // Human summary: top spans by inclusive time.
    let mut by_incl: Vec<_> = profile.rows.iter().collect();
    by_incl.sort_by(|a, b| b.incl_ns.cmp(&a.incl_ns));
    // Root spans are grafted from the workers, so their inclusive times sum
    // to CPU time: well under `workers` busy means the gate did not get the
    // cores it counted on.
    eprintln!(
        "prof_dump: {} sessions, {} shards on {} workers, {:.1} s wall, {:.2} cores busy \
         (span CPU time / wall), {} spans",
        users,
        shards,
        par::workers(shards as usize),
        wall_ns / 1e9,
        profile.total_incl_ns() as f64 / wall_ns,
        profile.rows.len()
    );
    eprintln!(
        "{:<44} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "span (folded path)", "calls", "incl ms", "excl ms", "allocs", "alloc KiB"
    );
    for r in by_incl.iter().take(10) {
        eprintln!(
            "{:<44} {:>10} {:>12.1} {:>12.1} {:>12} {:>14.1}",
            r.path,
            r.calls,
            r.incl_ns as f64 / 1e6,
            r.excl_ns as f64 / 1e6,
            r.allocs,
            r.alloc_bytes as f64 / 1024.0
        );
    }

    if let Some(path) = gate_out {
        let sessions = report.arm_a.sessions + report.arm_b.sessions;
        let mut lines = String::new();
        for (name, unit, count) in [
            ("fleet_gate/sessions", "sessions", sessions),
            ("fleet_gate/sim_packets", "sim_packets", report.counters.packets),
        ] {
            let r = BenchResult {
                name: format!("{name}@{users}"),
                iters_per_sample: 1,
                summary: Summary::of(&[wall_ns]),
                sample_ns: vec![wall_ns],
                bytes_per_iter: None,
                rate: Some((unit.to_string(), count)),
            };
            lines.push_str(&r.json_line());
            lines.push('\n');
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open --gate-out file");
        f.write_all(lines.as_bytes()).expect("append gate lines");
        eprintln!("prof_dump: appended fleet_gate lines to {path}");
    }

    if json {
        println!("{}", profile.to_json());
    } else {
        print!("{}", profile.folded());
    }
}
