//! Observability-layer integration tests (DESIGN.md §8): tracing must
//! be behaviourally invisible (A/B bit-determinism with tracing off,
//! noop, and recording), the qlog export of a full session must be
//! valid JSON carrying events from every layer, and the recorded event
//! stream must satisfy causal invariants (monotone per-source clocks,
//! acked/lost only after sent, re-injection events matching the byte
//! ledger).

use std::collections::{BTreeMap, BTreeSet};
use xlink::clock::Duration;
use xlink::harness::{
    run_bulk_quic, Scenario, Scheme, SessionConfig, SessionResult, TransportTuning,
};
use xlink::netsim::{LinkConfig, Path};
use xlink::obs::json::{parse, Value};
use xlink::obs::{Event, TraceEvent, TraceLog};
use xlink::video::Video;

fn lossy_paths() -> Vec<Path> {
    let mk = |mbps: f64, delay_ms: u64, loss: f64, seed: u64| {
        let mut cfg = LinkConfig::constant_rate(mbps, Duration::from_millis(delay_ms));
        cfg.loss = loss;
        cfg.seed = seed;
        Path::symmetric(cfg)
    };
    vec![mk(18.0, 10, 0.01, 21), mk(14.0, 27, 0.01, 22)]
}

/// A session over [`lossy_paths`] with path 0 dark from 1.5 s to 4 s,
/// traced into `trace` when one is given.
fn run_outage_session(trace: Option<&TraceLog>) -> SessionResult {
    let mut cfg = SessionConfig::short_video(Scheme::Xlink, 77);
    cfg.video = Video::synth(4, 25, 900_000, 8.0);
    cfg.deadline = Duration::from_secs(60);
    let at = xlink::clock::Instant::from_millis;
    let scenario = Scenario::new(lossy_paths(), cfg.deadline).with_outage(0, at(1500), at(4000));
    match trace {
        Some(log) => scenario.traced(log).video(&cfg),
        None => scenario.video(&cfg),
    }
}

/// Everything observable about a run, as one comparable string.
fn summary(r: &SessionResult) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} {}",
        r.chunk_rct,
        r.player,
        r.client_transport,
        r.server_transport,
        r.server_bytes_per_path,
        r.ended_at,
        r.completed
    )
}

fn traced_session() -> (TraceLog, SessionResult) {
    let log = TraceLog::recording();
    let r = run_outage_session(Some(&log));
    (log, r)
}

/// The A/B bit-determinism gate: a session with tracing disabled and
/// with full recording must be bit-identical in every output.
#[test]
fn tracing_is_behaviourally_invisible_for_video_sessions() {
    let off = run_outage_session(None);
    let (log, rec) = traced_session();
    assert!(!log.is_empty(), "recording run must actually have captured events");
    assert_eq!(summary(&off), summary(&rec), "recording sink changed behaviour");
}

#[test]
fn tracing_is_behaviourally_invisible_for_bulk_downloads() {
    let args = (Scheme::Xlink, TransportTuning::default(), 400_000u64, 9u64);
    let plain = run_bulk_quic(
        args.0,
        &args.1,
        args.2,
        args.3,
        lossy_paths(),
        vec![],
        Duration::from_secs(60),
    );
    let log = TraceLog::recording();
    let traced = Scenario::new(lossy_paths(), Duration::from_secs(60))
        .traced(&log)
        .bulk_quic(args.0, &args.1, args.2, args.3, None);
    assert!(!log.is_empty());
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "tracing changed a bulk download");
}

fn qlog_events(doc: &Value) -> Vec<Value> {
    doc.get("traces").unwrap().as_arr().unwrap()[0]
        .get("events")
        .unwrap()
        .as_arr()
        .unwrap()
        .to_vec()
}

/// The exported qlog of a full video session parses as valid JSON and
/// carries events from the quic, core, netsim, and video layers.
#[test]
fn qlog_export_is_valid_and_cross_layer() {
    let (log, r) = traced_session();
    assert!(r.completed);
    let doc = parse(&log.to_qlog("observability-test")).expect("qlog must parse");
    assert_eq!(doc.get("qlog_version").and_then(|v| v.as_str()), Some("0.3"));
    assert_eq!(doc.get("qlog_format").and_then(|v| v.as_str()), Some("JSON"));
    let events = qlog_events(&doc);
    assert!(!events.is_empty());
    let sources: BTreeSet<String> = events
        .iter()
        .map(|e| e.get("data").unwrap().get("source").unwrap().as_str().unwrap().to_string())
        .collect();
    for expected in ["client.quic", "client.core", "server.quic", "server.core", "client.video"] {
        assert!(sources.contains(expected), "missing source {expected}; have {sources:?}");
    }
    assert!(
        sources.iter().any(|s| s.starts_with("netsim.path")),
        "missing netsim sources: {sources:?}"
    );
    let categories: BTreeSet<String> = events
        .iter()
        .map(|e| e.get("name").unwrap().as_str().unwrap().split(':').next().unwrap().to_string())
        .collect();
    for cat in ["transport", "xlink", "netsim", "video"] {
        assert!(categories.contains(cat), "missing category {cat}; have {categories:?}");
    }
    // Every event carries the qlog event shape.
    for e in &events {
        assert!(e.get("time").and_then(|t| t.as_f64()).is_some());
        assert!(e.get("name").and_then(|n| n.as_str()).is_some());
        assert!(matches!(e.get("data"), Some(Value::Obj(_))));
    }
}

/// Causal invariants over the raw recorded stream: per-source clocks
/// never run backwards, and a packet can only be acked or declared
/// lost after an earlier `PacketSent` on the same (source, path).
#[test]
fn event_stream_is_causally_consistent() {
    let (log, _) = traced_session();
    let events: Vec<TraceEvent> = log.events();
    let mut last_time = BTreeMap::new();
    let mut sent: BTreeSet<(u16, u8, u64)> = BTreeSet::new();
    for ev in &events {
        let prev = last_time.entry(ev.source).or_insert(ev.time);
        assert!(
            ev.time >= *prev,
            "clock ran backwards for {}: {:?} after {:?}",
            log.source_name(ev.source),
            ev.time,
            prev
        );
        *prev = ev.time;
        match ev.body {
            Event::PacketSent { path, pn, .. } => {
                sent.insert((ev.source, path, pn));
            }
            Event::PacketAcked { path, pn } => {
                assert!(
                    sent.contains(&(ev.source, path, pn)),
                    "{} acked pn {pn} on path {path} before sending it",
                    log.source_name(ev.source)
                );
            }
            Event::PacketLost { path, pn, .. } => {
                assert!(
                    sent.contains(&(ev.source, path, pn)),
                    "{} lost pn {pn} on path {path} before sending it",
                    log.source_name(ev.source)
                );
            }
            _ => {}
        }
    }
}

/// Every `Reinjection` event carries the bytes the stats ledger counts:
/// the sum over the trace equals `reinjected_bytes` exactly.
#[test]
fn reinjection_events_match_byte_ledger() {
    let (log, r) = traced_session();
    let traced_bytes: u64 = log
        .events()
        .iter()
        .filter_map(|ev| match ev.body {
            Event::Reinjection { len, .. } => Some(len),
            _ => None,
        })
        .sum();
    let ledger = r.client_transport.reinjected_bytes + r.server_transport.reinjected_bytes;
    assert_eq!(traced_bytes, ledger, "trace disagrees with the stats ledger");
    // The outage run must actually have exercised re-injection.
    assert!(ledger > 0, "scenario failed to trigger re-injection");
}

/// Profiling composes with tracing without perturbing either: the full
/// traced event stream (every event, byte for byte via qlog) and the
/// session outcome are identical whether the profiler is off or fully
/// recording.
#[test]
fn profiling_leaves_traced_event_stream_bit_identical() {
    use xlink::obs::prof;

    let run = || {
        let (log, r) = traced_session();
        (log.to_qlog("prof-ab"), summary(&r))
    };

    prof::set_mode(prof::Mode::Off);
    let (qlog_off, sum_off) = run();

    prof::set_mode(prof::Mode::Record);
    let (qlog_rec, sum_rec) = run();
    let profile = prof::take_report();
    prof::set_mode(prof::Mode::Off);

    assert_eq!(sum_off, sum_rec, "recording profiler changed session behaviour");
    assert_eq!(qlog_off, qlog_rec, "recording profiler changed the traced event stream");
    for layer in ["netsim;link_delivery", "quic;aead_", "core;sched_decide"] {
        assert!(
            profile.rows.iter().any(|r| r.path.contains(layer)),
            "recording run missing {layer} spans"
        );
    }
}

/// The edge tier under the same A/B gate: a fleet-vs-PoP run (drain and
/// flood included) with tracing disabled and recording must produce a
/// bit-identical report — and the recorded qlog must carry well-formed
/// `edge`-category events from the `edge.pop` source alongside the
/// per-client quic events. The drain lands inside the downloads: a
/// client it moved went on acknowledging data more than a round trip
/// (20 ms) after following it, where a client with its object has only
/// its old CID to retire, at the instant it follows.
#[test]
fn tracing_is_behaviourally_invisible_for_edge_pop_runs() {
    use xlink::harness::{run_pop, run_pop_traced, EdgeAttackKind, PopRunConfig};

    let cfg = PopRunConfig {
        users: 12,
        addrs: 4,
        request_bytes: 30_000,
        drain: Some((Duration::from_millis(50), 2)),
        attack: Some((EdgeAttackKind::InitialFlood, 40)),
        ..PopRunConfig::default()
    };
    let off = run_pop(&cfg);
    let log = TraceLog::recording();
    let rec = run_pop_traced(&cfg, &log);
    assert!(!log.is_empty(), "recording run captured nothing");
    assert_eq!(format!("{off:?}"), format!("{rec:?}"), "recording sink changed an edge run");
    assert!(rec.stats.migrations > 0 && rec.completed == cfg.users && rec.bytes_ok, "{rec:?}");
    let recorded = log.events();
    let followed = recorded.iter().filter(|e| {
        log.source_name(e.source).starts_with("client")
            && matches!(e.body, Event::DcidSwitched { .. })
    });
    let mid_download = followed.filter(|m| {
        let later = m.time + Duration::from_millis(20);
        recorded.iter().any(|e| {
            e.source == m.source && e.time > later && matches!(e.body, Event::PacketSent { .. })
        })
    });
    assert!(mid_download.count() > 0, "the drain moved no client mid-download");

    let doc = parse(&log.to_qlog("edge-pop")).expect("qlog must parse");
    let events = qlog_events(&doc);
    let mut edge_names = BTreeSet::new();
    for e in &events {
        assert!(e.get("time").and_then(|t| t.as_f64()).is_some());
        let name = e.get("name").and_then(|n| n.as_str()).unwrap();
        let source = e.get("data").and_then(|d| d.get("source")).and_then(|s| s.as_str()).unwrap();
        if let Some(n) = name.strip_prefix("edge:") {
            assert_eq!(source, "edge.pop", "edge event from a non-edge source");
            edge_names.insert(n.to_string());
        }
    }
    for expected in ["edge_admit", "edge_reject", "shard_drain", "conn_migrated"] {
        assert!(edge_names.contains(expected), "missing {expected}; have {edge_names:?}");
    }
    let sources: BTreeSet<&str> = events
        .iter()
        .map(|e| e.get("data").unwrap().get("source").unwrap().as_str().unwrap())
        .collect();
    assert!(sources.contains("client0"), "per-client sources missing: {sources:?}");
}
