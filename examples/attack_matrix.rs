//! The adversary outcome matrix: run every scripted hostile-peer attack
//! from `harness::adversary` against single-path QUIC, the MPTCP arm and
//! XLINK multipath, and print one row per attack × transport —
//! close code (or "absorbed"), time to close, drain status, and the peak
//! of the §10 bounded-state gauges. A second section runs the edge-tier
//! floods (DESIGN §13) against a CID-routed PoP with an honest fleet in
//! the mix. Companion to `tests/adversary.rs` and `tests/edge.rs`: same
//! scripts, human-readable output.
//!
//! ```sh
//! cargo run --release --example attack_matrix
//! ```

use xlink::harness::{
    run_attack, run_edge_attack, AttackKind, EdgeAttackKind, PopRunConfig, Scheme,
};

const SEED: u64 = 7;

fn code_name(code: u64) -> &'static str {
    match code {
        0x0 => "NO_ERROR",
        0x3 => "FLOW_CONTROL_ERROR",
        0x4 => "STREAM_LIMIT_ERROR",
        0x5 => "STREAM_STATE_ERROR",
        0x6 => "FINAL_SIZE_ERROR",
        0x7 => "FRAME_ENCODING_ERROR",
        0xa => "PROTOCOL_VIOLATION",
        _ => "OTHER",
    }
}

fn main() {
    println!(
        "{:<28} {:<10} {:>24} {:>12} {:>8} {:>12}",
        "attack", "transport", "outcome", "close-ms", "drained", "peak-gauge"
    );
    for kind in AttackKind::all() {
        for scheme in [Scheme::Sp { path: 0 }, Scheme::Mptcp, Scheme::Xlink] {
            let out = run_attack(kind, scheme, SEED);
            let outcome = match out.close_code {
                Some((code, by_peer)) => {
                    format!("{} ({})", code_name(code), if by_peer { "peer" } else { "local" })
                }
                None => "absorbed".to_string(),
            };
            let ttc = out
                .time_to_close
                .map_or("-".to_string(), |d| format!("{:.1}", d.as_micros() as f64 / 1000.0));
            // The gauge the attack leans on hardest, against its cap.
            let peak = match kind {
                AttackKind::AckRangeFlood | AttackKind::OptimisticAck => {
                    format!("{} rng", out.peak.recv_ranges)
                }
                AttackKind::PathChallengeFlood => {
                    format!("{} chl", out.peak.pending_path_responses)
                }
                _ => format!("{} seg", out.peak.stream_segments),
            };
            println!(
                "{:<28} {:<10} {:>24} {:>12} {:>8} {:>12}",
                kind.label(),
                out.transport,
                outcome,
                ttc,
                if out.drained { "yes" } else { "no" },
                peak,
            );
            assert!(out.matches_expectation(), "{}: contract violated: {out:?}", kind.label());
        }
    }

    // ---- edge tier: floods against the PoP with an honest fleet ----
    println!();
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>9} {:>7} {:>12}",
        "edge attack", "budget", "complete", "rejected", "admitted", "amp-ok", "peak-conns"
    );
    let base = PopRunConfig {
        users: 40,
        addrs: 8,
        request_bytes: 20_000,
        seed: SEED,
        ..PopRunConfig::default()
    };
    for kind in EdgeAttackKind::all() {
        let budget = 400;
        let r = run_edge_attack(kind, budget, &base);
        println!(
            "{:<28} {:>8} {:>9.1}% {:>10} {:>9} {:>7} {:>6}/{:<5}",
            kind.label(),
            budget,
            100.0 * r.completion(),
            r.stats.rejected_total(),
            r.stats.admitted,
            if r.amp_ok { "yes" } else { "NO" },
            r.bounded.peak_conns,
            r.bounded.max_conns,
        );
        assert!(
            r.completion() >= 0.95 && r.amp_ok && r.bounded.within_caps(),
            "{}: edge contract violated: {r:?}",
            kind.label()
        );
    }
}
