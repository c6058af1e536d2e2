//! Hot-path profile of a fleet run: where the wall-clock budget of N
//! concurrent video sessions actually goes.
//!
//! Runs the fleet A/B population with `obs::prof` recording, then dumps the
//! merged per-span profile:
//!
//! * default: folded-stack lines (`netsim;link_delivery;quic;aead_open 1234`,
//!   weight = exclusive nanoseconds) for flamegraph.pl-style tooling;
//! * `--json`: the perf-ledger rows (`xlink::obs::ledger`) ci.sh records:
//!   the `fleet_gate@N` row (sessions and simulated packets exact, wall time
//!   and rates advisory) that opens `BENCH_fleet.json`, then
//!   `BENCH_prof.json` — one row per span (calls and allocations exact,
//!   nanoseconds advisory) and the four per-packet / per-session counters
//!   as exact fractions.
//!
//! A top-10 span table always goes to stderr for humans, under a line that
//! says how many worker threads the shards ran on, how many cores the
//! recorded spans kept busy and which AEAD kernels ran
//! (`xlink::quic::crypto::kernel`; timings are comparable only under the
//! same ones).
//!
//! ```sh
//! cargo run --release --example prof_dump
//! XLINK_FLEET_SESSIONS=10000 cargo run --release --example prof_dump -- --json
//! ```

use xlink::harness::experiments::fleet_rct;
use xlink::harness::fleet::run_fleet_profiled;
use xlink::harness::par;
use xlink::obs::ledger::Row;
use xlink::quic::crypto;

fn main() {
    let sessions = std::env::var("XLINK_FLEET_SESSIONS").ok().and_then(|v| v.parse().ok());
    let users: u64 = sessions.unwrap_or(2_000);
    let shards = fleet_rct::SHARDS;
    let json = std::env::args().any(|a| a == "--json");
    let cfg = fleet_rct::population(users, shards);

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
         (span CPU time / wall), {} spans, AEAD kernel {}",
        users,
        shards,
        par::workers(shards as usize),
        wall_ns / 1e9,
        profile.total_incl_ns() as f64 / wall_ns,
        profile.rows.len(),
        crypto::kernel()
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

    if json {
        let sessions = report.arm_a.sessions + report.arm_b.sessions;
        let packets = report.counters.packets;
        let milli = |x: f64| (x * 1e3).round() / 1e3;
        let per_sec = |count: u64| milli(count as f64 * 1e9 / wall_ns);
        let gate = Row::new(format!("fleet_gate@{users}"))
            .exact("sessions", sessions)
            .exact("sim_packets", packets)
            .advisory("wall_ns", wall_ns)
            .advisory("sessions_per_sec", per_sec(sessions))
            .advisory("sim_packets_per_sec", per_sec(packets));
        println!("{}", gate.to_json());
        for r in &profile.rows {
            let span = Row::new(r.path.as_str())
                .exact("calls", r.calls)
                .exact("allocs", r.allocs)
                .exact("alloc_bytes", r.alloc_bytes)
                .advisory("incl_ns", r.incl_ns as f64)
                .advisory("excl_ns", r.excl_ns as f64);
            println!("{}", span.to_json());
        }
        for (name, num, den) in profile.per_unit(packets, sessions) {
            let counter = Row::new(name)
                .exact("num", num)
                .exact("den", den)
                .advisory("value", milli(num as f64 / den as f64));
            println!("{}", counter.to_json());
        }
    } else {
        print!("{}", profile.folded());
    }
}
