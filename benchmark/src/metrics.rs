//! The metric tables: one source for what the runner prints, what
//! `compare` bounds, and what `/BENCHMARK.json` declares (`xbench manifest`
//! prints the file; a unit test keeps the committed copy equal to it).

use crate::stats::Better::{self, Higher, Lower};
use crate::workloads::WORKLOADS;
use xlink_obs::json::JsonWriter;

/// Seconds one run measures for (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u64 = 15;
pub const DEFAULT_SEED: u64 = 1;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Wall clock (or memory) of the simulator process: median over the
    /// timed repetitions, noisy.
    Host,
    /// What the modelled network and player would take: exact for a seed,
    /// identical across repetitions.
    Sim,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub axis: Axis,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    axis: Axis,
    bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, axis, bound }
}

/// Metrics a user of the system sees, reported by every workload. The
/// bounds are wide because they have to hold across seeds and across the
/// slow phases of a shared sandbox (15-20 % for minutes, measured).
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("sim_packets_per_sec", "1/s", Higher, Axis::Host, 0.2),
    e2e("sessions_per_sec", "1/s", Higher, Axis::Host, 0.2),
    e2e("peak_rss_mb", "MB", Lower, Axis::Host, 0.1),
    e2e("setup_s", "s", Lower, Axis::Host, 0.25),
    e2e("rct_p50_ms", "ms", Lower, Axis::Sim, 0.15),
    e2e("goodput_sim_mbps", "Mbit/s", Higher, Axis::Sim, 0.15),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Metrics of single layers (the layers are the crates), printed by the
/// traced run. A metric a workload cannot produce reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // Probes: a layer's public functions on fixed inputs, median ns per
    // operation; `_allocs` are exact allocation counts per operation.
    layer("quic.aead.seal_1200_ns", "ns", Lower),
    layer("quic.aead.seal_1200_allocs", "count", Lower),
    layer("quic.aead.open_1200_ns", "ns", Lower),
    layer("quic.aead.open_1200_allocs", "count", Lower),
    layer("quic.aead.seal_40_ns", "ns", Lower),
    layer("quic.aead.seal_40_allocs", "count", Lower),
    layer("quic.header.encode_ns", "ns", Lower),
    layer("quic.header.decode_ns", "ns", Lower),
    layer("quic.frame.stream_encode_ns", "ns", Lower),
    layer("quic.frame.stream_decode_ns", "ns", Lower),
    layer("quic.frame.ack_encode_ns", "ns", Lower),
    layer("quic.frame.ack_decode_ns", "ns", Lower),
    layer("quic.ackranges.insert_ns", "ns", Lower),
    layer("quic.ackranges.insert_gappy_ns", "ns", Lower),
    layer("quic.recovery.sent_acked_ns", "ns", Lower),
    layer("quic.recovery.detect_lost_1k_ns", "ns", Lower),
    layer("quic.stream.send_ns", "ns", Lower),
    layer("quic.stream.recv_inorder_ns", "ns", Lower),
    layer("quic.stream.recv_reorder_ns", "ns", Lower),
    layer("quic.conn.handshake_ns", "ns", Lower),
    layer("quic.conn.handshake_allocs", "count", Lower),
    layer("quic.conn.state_bytes", "B", Lower),
    layer("conn.sp.pkt_ns", "ns", Lower),
    layer("conn.sp.pkt_allocs", "count", Lower),
    layer("conn.vmp.pkt_ns", "ns", Lower),
    layer("conn.vmp.pkt_allocs", "count", Lower),
    layer("conn.xlink.pkt_ns", "ns", Lower),
    layer("conn.xlink.pkt_allocs", "count", Lower),
    layer("conn.xlink.inflight_scaling", "ratio", Lower),
    layer("core.sched.min_rtt_ns", "ns", Lower),
    layer("core.sched.ecf_ns", "ns", Lower),
    layer("core.qoe.decision_ns", "ns", Lower),
    layer("core.ledger.record_contains_ns", "ns", Lower),
    layer("core.lb.encode_cid_ns", "ns", Lower),
    layer("netsim.link.busy_pkt_ns", "ns", Lower),
    layer("netsim.link.busy_pkt_allocs", "count", Lower),
    layer("netsim.link.idle_sim_s_ns", "ns", Lower),
    layer("netsim.link.next_event_ns", "ns", Lower),
    layer("netsim.impair.pkt_ns", "ns", Lower),
    layer("netsim.world.pkt_ns", "ns", Lower),
    layer("netsim.world.idle_sim_s_ns", "ns", Lower),
    layer("traces.gen_sim_s_ns", "ns", Lower),
    layer("video.player.advance_ns", "ns", Lower),
    layer("video.player.on_bytes_ns", "ns", Lower),
    layer("video.server.body_range_mb_ns", "ns", Lower),
    layer("video.http.codec_ns", "ns", Lower),
    layer("edge.classify_route_ns", "ns", Lower),
    layer("edge.token.mint_ns", "ns", Lower),
    layer("edge.token.verify_ns", "ns", Lower),
    layer("edge.pop.admit_ns", "ns", Lower),
    layer("edge.pop.forward_pkt_ns", "ns", Lower),
    layer("fleet.plan.session_ns", "ns", Lower),
    layer("fleet.trace_pool.gen_ns", "ns", Lower),
    layer("fleet.agg.absorb_ns", "ns", Lower),
    layer("fleet.agg.merge_ns", "ns", Lower),
    layer("lab.hist.record_ns", "ns", Lower),
    layer("obs.emit_disabled_ns", "ns", Lower),
    layer("obs.prof_span_off_ns", "ns", Lower),
    // Workload counts: exact, from the public reports of the workload run.
    layer("netsim.packets", "count", Lower),
    layer("netsim.drops", "count", Lower),
    layer("netsim.bytes_delivered", "B", Lower),
    layer("quic.packets_lost", "count", Lower),
    layer("quic.spurious_losses", "count", Lower),
    layer("quic.retx_bytes", "B", Lower),
    layer("quic.handshake_retx", "count", Lower),
    layer("core.reinjected_bytes", "B", Lower),
    layer("fleet.events", "count", Lower),
    layer("fleet.peak_queue_depth", "count", Lower),
    layer("fleet.peak_live_sessions", "count", Lower),
    layer("edge.admitted", "count", Lower),
    layer("edge.retries_sent", "count", Lower),
    layer("edge.rejected", "count", Lower),
    layer("edge.resets_sent", "count", Lower),
    layer("edge.reconnects", "count", Lower),
    // Simulated outcomes only some workloads have (treatment arm = XLINK).
    layer("sim.rct_tail_ms", "ms", Lower),
    layer("sim.rct_tail_pct", "%", Higher),
    layer("sim.rct_samples", "count", Higher),
    layer("sim.rct_tail_gain_pct", "%", Higher),
    layer("sim.rebuffer_rate_pct", "%", Lower),
    layer("sim.base_rebuffer_rate_pct", "%", Lower),
    layer("sim.first_frame_p50_ms", "ms", Lower),
    layer("sim.redundancy_pct", "%", Lower),
    layer("sim.detect_p50_ms", "ms", Lower),
    layer("sim.recovery_p50_ms", "ms", Lower),
    // Host-side readings of the workload run.
    layer("host.cpu_busy_share", "ratio", Higher),
    layer("host.base_arm_ns_per_pkt", "ns", Lower),
    layer("host.treat_arm_ns_per_pkt", "ns", Lower),
    // Traced run: self time of the crates' own spans under
    // `bench/<workload>/run`, grouped by the crate of the innermost span.
    layer("trace.quic.self_ns_per_pkt", "ns", Lower),
    layer("trace.core.self_ns_per_pkt", "ns", Lower),
    layer("trace.netsim.self_ns_per_pkt", "ns", Lower),
    layer("trace.fleet.self_ns_per_pkt", "ns", Lower),
    layer("trace.video.self_ns_per_pkt", "ns", Lower),
    layer("trace.edge.self_ns_per_pkt", "ns", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
    layer("trace.allocs_per_pkt", "count", Lower),
    layer("trace.alloc_bytes_per_pkt", "B", Lower),
    layer("trace.allocs_per_session", "count", Lower),
    layer("trace.spans_per_pkt", "count", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// The crates whose spans the traced run groups self time by, each with
/// the metric its self time is reported as.
pub const TRACED_CRATES: [(&str, &str); 6] = [
    ("quic", "trace.quic.self_ns_per_pkt"),
    ("core", "trace.core.self_ns_per_pkt"),
    ("netsim", "trace.netsim.self_ns_per_pkt"),
    ("fleet", "trace.fleet.self_ns_per_pkt"),
    ("video", "trace.video.self_ns_per_pkt"),
    ("edge", "trace.edge.self_ns_per_pkt"),
];

/// The command line of the benchmark; the caller appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `/BENCHMARK.json`: one compact JSON row per list entry.
pub fn manifest() -> String {
    let row = |fields: &[(&'static str, &str)], bound: Option<f64>| {
        let mut w = JsonWriter::new();
        w.begin_object();
        for &(key, value) in fields {
            w.field_str(key, value);
        }
        if let Some(bound) = bound {
            w.field_f64("bound", bound);
        }
        w.end_object();
        w.finish()
    };
    let list = |rows: Vec<String>| rows.join(",\n    ");
    let mut command = JsonWriter::new();
    command.begin_array();
    COMMAND.iter().for_each(|arg| command.string(arg));
    command.end_array();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.finish(),
        RUN_SECONDS,
        list(WORKLOADS.iter().map(|w| row(&[("name", w.name), ("why", w.why)], None)).collect()),
        list(
            END_TO_END
                .iter()
                .map(|m| {
                    let fields = [("name", m.name), ("unit", m.unit), ("better", m.better.label())];
                    row(&fields, Some(m.bound))
                })
                .collect()
        ),
        list(
            PER_LAYER
                .iter()
                .map(|m| {
                    row(&[("name", m.name), ("unit", m.unit), ("better", m.better.label())], None)
                })
                .collect()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xlink_obs::json::{parse, Value};

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()), "{} per-layer metrics", PER_LAYER.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{} why too long", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "regenerate with `xbench manifest > BENCHMARK.json`");
        assert!(committed.len() <= 64 * 1024);
        let doc = parse(committed).expect("BENCHMARK.json parses");
        let Value::Obj(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
