//! Cross-crate integration tests: full sessions over emulated networks
//! for every transport scheme, exercising the whole stack (handshake,
//! packet protection, streams, recovery, schedulers, QoE control, player).

use xlink::clock::Duration;
use xlink::harness::{run_session, Scenario, Scheme, SessionConfig};
use xlink::netsim::{LinkConfig, Path};
use xlink::video::Video;

fn dual_paths() -> Vec<Path> {
    vec![
        Path::symmetric(LinkConfig::constant_rate(18.0, Duration::from_millis(10))),
        Path::symmetric(LinkConfig::constant_rate(14.0, Duration::from_millis(27))),
    ]
}

fn lossy_paths(loss: f64) -> Vec<Path> {
    let mk = |mbps: f64, delay_ms: u64, seed: u64| {
        let mut cfg = LinkConfig::constant_rate(mbps, Duration::from_millis(delay_ms));
        cfg.loss = loss;
        cfg.seed = seed;
        Path::symmetric(cfg)
    };
    vec![mk(18.0, 10, 5), mk(14.0, 27, 6)]
}

fn small_video_session(scheme: Scheme, seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::short_video(scheme, seed);
    cfg.video = Video::synth(4, 25, 900_000, 8.0);
    cfg.deadline = Duration::from_secs(60);
    cfg
}

#[test]
fn every_scheme_completes_a_clean_session() {
    for (i, scheme) in [
        Scheme::Sp { path: 0 },
        Scheme::Sp { path: 1 },
        Scheme::Cm,
        Scheme::VanillaMp,
        Scheme::ReinjNoQoe,
        Scheme::Xlink,
        Scheme::XlinkNoFirstFrame,
        Scheme::XlinkAppending,
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = small_video_session(scheme, 100 + i as u64);
        let r = run_session(&cfg, dual_paths());
        assert!(r.completed, "{} must complete: {:?}", scheme.label(), r.player);
        assert!(r.first_frame_latency.is_some(), "{} first frame", scheme.label());
        assert!(!r.chunk_rct.is_empty(), "{} chunk RCTs", scheme.label());
    }
}

#[test]
fn sessions_survive_random_loss() {
    for scheme in [Scheme::Sp { path: 0 }, Scheme::VanillaMp, Scheme::Xlink] {
        let cfg = small_video_session(scheme, 42);
        let r = run_session(&cfg, lossy_paths(0.02));
        assert!(r.completed, "{} must survive 2% loss: {:?}", scheme.label(), r.player);
        assert!(
            r.client_transport.packets_lost + r.server_transport.packets_lost > 0
                || r.server_transport.stream_bytes_retransmitted > 0,
            "loss should actually have occurred"
        );
    }
}

#[test]
fn xlink_beats_sp_through_a_path_outage() {
    let run = |scheme| {
        let cfg = small_video_session(scheme, 7);
        let at = xlink::clock::Instant::from_millis;
        Scenario::new(dual_paths(), cfg.deadline).with_outage(0, at(1500), at(4500)).video(&cfg)
    };
    let (sp, xl) = (run(Scheme::Sp { path: 0 }), run(Scheme::Xlink));
    assert!(xl.completed, "XLINK must complete through the outage");
    assert!(
        xl.player.rebuffer_time <= sp.player.rebuffer_time,
        "XLINK {:?} vs SP {:?}",
        xl.player.rebuffer_time,
        sp.player.rebuffer_time
    );
}

#[test]
fn xlink_redundancy_stays_bounded_on_clean_links() {
    use xlink::harness::REINJECTION_COST_CAP;
    let cfg = small_video_session(Scheme::Xlink, 11);
    let r = run_session(&cfg, dual_paths());
    let ratio = r.server_transport.redundancy_ratio();
    // The paper's operating point is ~2%; clean links must stay well
    // under the always-on ~15%.
    assert!(ratio < REINJECTION_COST_CAP, "redundancy on clean links = {ratio}");
    // The new unified counters must be populated sanely on clean links:
    // no handshake retransmits, no (or almost no) spurious losses.
    assert_eq!(r.server_transport.handshake_retransmits, 0, "clean links retransmitted the hello");
    assert_eq!(r.client_transport.handshake_retransmits, 0);
    assert_eq!(r.server_transport.spurious_losses, 0, "clean links marked losses spuriously");
}

#[test]
fn xlink_reinjection_cost_stays_capped_across_seeds_and_loss() {
    use xlink::harness::REINJECTION_COST_CAP;
    // The QoE controller must hold the paper's cost envelope not just on
    // one lucky seed: sweep seeds over clean and mildly lossy paths and
    // assert the per-session cost ratio (from the unified counters)
    // never degenerates toward always-on re-injection. (Four seeds unless
    // `XLINK_SWEEP_SEEDS` says otherwise: ci.sh's debug pass runs one.)
    let seeds = std::env::var("XLINK_SWEEP_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    for seed in (23..).take(seeds) {
        for (label, paths) in [("clean", dual_paths()), ("lossy", lossy_paths(0.01))] {
            let cfg = small_video_session(Scheme::Xlink, seed);
            let r = run_session(&cfg, paths);
            assert!(r.completed, "seed {seed} {label} must complete");
            let ratio = r.server_transport.redundancy_ratio();
            assert!(
                ratio < REINJECTION_COST_CAP,
                "seed {seed} {label}: redundancy {ratio} >= cap {REINJECTION_COST_CAP} \
                 (reinjected {} of {} stream bytes)",
                r.server_transport.reinjected_bytes,
                r.server_transport.stream_bytes_sent,
            );
        }
    }
}

#[test]
fn always_on_reinjection_costs_more_than_xlink() {
    let xl = run_session(&small_video_session(Scheme::Xlink, 13), dual_paths());
    let on = run_session(&small_video_session(Scheme::ReinjNoQoe, 13), dual_paths());
    assert!(
        on.server_transport.reinjected_bytes >= xl.server_transport.reinjected_bytes,
        "always-on {} vs XLINK {}",
        on.server_transport.reinjected_bytes,
        xl.server_transport.reinjected_bytes
    );
}

#[test]
fn large_transfer_outgrows_initial_flow_control_windows() {
    // Regression: a transfer larger than the initial stream window used to
    // die with a spurious FlowControlError because a blocked stream
    // emitted its data-less FIN at the final offset (beyond the window).
    use xlink::harness::{run_bulk_quic, TransportTuning};
    let r = run_bulk_quic(
        Scheme::Xlink,
        &TransportTuning::default(),
        10_000_000, // 10 MB > the 4 MiB initial stream window
        5,
        dual_paths(),
        vec![],
        Duration::from_secs(60),
    );
    assert!(
        r.download_time.is_some(),
        "10 MB transfer must outgrow the initial windows (got {} bytes)",
        r.bytes_received
    );
}

#[test]
fn session_completes_under_loss_and_reinjection_dedup() {
    // End-to-end integrity: the player can only finish if every frame's
    // bytes arrived contiguously — through chunking, encryption, loss
    // recovery, and duplicate suppression of re-injected copies.
    let cfg = small_video_session(Scheme::ReinjNoQoe, 17);
    let r = run_session(&cfg, lossy_paths(0.01));
    assert!(r.completed, "playback must finish under loss + duplication");
    assert!(
        r.server_transport.reinjected_bytes > 0,
        "the always-on arm must actually have duplicated data"
    );
}

/// Regression: CM used to livelock the world at the instant its stall
/// timer fired (`last_recv + threshold` armed, migration waiting for
/// strictly later). This mobility session — Wi-Fi dark from 5 s to 11 s, a
/// subway-grade LTE standby — hit it at t = 7.35 s; it must now play out,
/// migrating on the way.
#[test]
fn cm_survives_a_long_outage_without_livelock() {
    use xlink::core::WirelessTech;
    use xlink::harness::PathSpec;
    use xlink::traces::{subway_cellular, walking_wifi_with_outage};
    let mut cfg = SessionConfig::short_video(Scheme::Cm, 1);
    cfg.video = Video::synth(14, 25, 4_000_000, 10.0);
    cfg.chunk_bytes = 512 * 1024;
    cfg.deadline = Duration::from_secs(60);
    let wifi = walking_wifi_with_outage(103, 60_000, 5_000, 11_000);
    let paths = vec![
        PathSpec::new(WirelessTech::Wifi, wifi, 1).with_loss(0.002).build(),
        PathSpec::new(WirelessTech::Lte, subway_cellular(3, 60_000), 2).with_loss(0.002).build(),
    ];
    let r = run_session(&cfg, paths);
    assert!(r.completed, "CM must play to the end: {:?}", r.player);
    assert!(r.client_transport.migrations >= 1, "the outage must trigger a migration");
    // The server followed the client: its bytes are split where they went.
    let split = &r.server_bytes_per_path;
    assert!(split.len() == 2 && split.iter().all(|&(_, bytes)| bytes > 0), "{split:?}");
    assert_eq!(split.iter().map(|&(_, bytes)| bytes).sum::<u64>(), r.server_transport.bytes_sent);
}

/// Regression: the CM stall clock ran only while the *client* had bytes in
/// flight, so a download — request long acked, response outstanding —
/// never migrated and CM equalled SP to the microsecond (Fig. 13).
#[test]
fn cm_migrates_on_a_download_and_beats_sp_through_an_outage() {
    use xlink::harness::{handover_scenario, TransportTuning};
    let (start, down) = (Duration::from_millis(500), Duration::from_secs(3));
    let download = |scheme| {
        let r = handover_scenario(start, down, Duration::from_secs(60)).bulk_quic(
            scheme,
            &TransportTuning::default(),
            2_000_000,
            3,
            None,
        );
        (r.download_time.expect("finishes"), r.client_transport.expect("one engine").migrations)
    };
    let (cm, migrations) = download(Scheme::Cm);
    let (sp, _) = download(Scheme::Sp { path: 0 });
    assert!(migrations >= 1, "the outage on path 0 must trigger a migration");
    assert!(cm < sp, "CM {cm} must finish before SP pinned to the dark path {sp}");
}
