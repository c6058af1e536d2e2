//! Robustness sweep: run a bulk download under each impairment class
//! (bursty loss, reordering, duplication, corruption, jitter, and a
//! flapping primary) for single-path QUIC, the MPTCP baseline, and
//! XLINK, and print a completion-time table plus the link-conservation
//! ledger. Companion to `tests/impairments.rs` — same scenarios, human
//! readable output.
//!
//! ```sh
//! cargo run --release --example impairment_sweep
//! ```

use xlink::clock::{Duration, Instant};
use xlink::harness::{BulkResult, Scenario, Scheme, TransportTuning};
use xlink::netsim::{FlapSchedule, FlapStep, Impairment, Impairments, LinkConfig, LinkState, Path};

const SIZE: u64 = 300_000;
const DEADLINE: Duration = Duration::from_secs(60);
const SEED: u64 = 7;

fn paths(imp: &Impairments) -> Vec<Path> {
    let mk = |mbps: f64, delay_ms: u64, s: u64| {
        let mut up = LinkConfig::constant_rate(mbps, Duration::from_millis(delay_ms));
        up.seed = s;
        up.impairments = imp.clone();
        let mut down = up.clone();
        down.seed = s ^ 0xd0;
        Path::new(up, down)
    };
    vec![mk(20.0, 10, SEED), mk(16.0, 30, SEED + 1)]
}

fn fmt(r: &BulkResult) -> String {
    match r.download_time {
        Some(t) => format!("{:>8.0}ms", t.as_secs_f64() * 1000.0),
        None => format!("{:>10}", "STALL"),
    }
}

fn main() {
    let classes: Vec<(&str, Impairments, Vec<(usize, FlapSchedule)>)> = vec![
        ("clean", Impairments::none(), vec![]),
        ("bursty-loss", Impairments::from(Impairment::bursty_loss(0.05, 0.5)), vec![]),
        (
            "reorder",
            Impairments::from(Impairment::Reorder { prob: 0.3, window: Duration::from_millis(40) }),
            vec![],
        ),
        ("duplicate", Impairments::from(Impairment::Duplicate { prob: 0.2 }), vec![]),
        ("corrupt", Impairments::from(Impairment::Corrupt { prob: 0.1 }), vec![]),
        (
            "jitter",
            Impairments::from(Impairment::Jitter { sigma: Duration::from_millis(8) }),
            vec![],
        ),
        (
            "flap",
            Impairments::none(),
            // Path 0: dark at 50ms, degraded from 200ms, healthy at
            // 600ms, one more blink — all inside the transfer window.
            vec![(
                0,
                FlapSchedule::new(vec![
                    FlapStep { at: Instant::from_millis(50), state: LinkState::Down },
                    FlapStep {
                        at: Instant::from_millis(200),
                        state: LinkState::Degraded { keep: 0.3, extra_loss: 0.05 },
                    },
                    FlapStep { at: Instant::from_millis(600), state: LinkState::Up },
                    FlapStep { at: Instant::from_millis(900), state: LinkState::Down },
                    FlapStep { at: Instant::from_millis(1100), state: LinkState::Up },
                ]),
            )],
        ),
    ];

    println!("300 KB bulk download per scheme under each impairment (seed {SEED})\n");
    println!("{:<12} {:>10} {:>10} {:>10}   conservation", "class", "sp", "mptcp", "xlink");
    let tuning = TransportTuning::default();
    for (name, imp, flaps) in classes {
        let scenario = || Scenario::new(paths(&imp), DEADLINE).with_faults(flaps.clone());
        let sp = scenario().bulk_quic(Scheme::Sp { path: 0 }, &tuning, SIZE, SEED, None);
        let mp = scenario().bulk_quic(Scheme::Mptcp, &tuning, SIZE, SEED, None);
        let xl = scenario().bulk_quic(Scheme::Xlink, &tuning, SIZE, SEED, None);
        let conserved = [&sp, &mp, &xl]
            .iter()
            .all(|r| r.link_stats.iter().all(|(u, d)| u.is_conserved() && d.is_conserved()));
        println!(
            "{:<12} {} {} {}   {}",
            name,
            fmt(&sp),
            fmt(&mp),
            fmt(&xl),
            if conserved { "ok" } else { "VIOLATED" },
        );
    }
    println!(
        "\nExpected shape: XLINK tracks the best path under every pathology;\n\
         SP pinned to the flapping/lossy primary pays the full penalty, and\n\
         every link balances enqueued + duplicated = delivered + dropped."
    );
}
