//! Failover robustness suite (§9): scripted blackholes mid-transfer must
//! trigger the liveness machine (suspect → failover → revalidate) with
//! no stream-byte loss or duplication, the failover event stream must be
//! bit-reproducible under a fixed seed, and the handover scenario must
//! show XLINK stalling strictly less than both the SP and MPTCP
//! baselines.
//!
//! Sweep width defaults to 3 seeds for plain `cargo test`; CI pins
//! `XLINK_SWEEP_SEEDS=8`, and larger sweeps are opt-in via the same
//! variable.

use xlink::clock::Duration;
use xlink::harness::{
    chaos, failover_timeline, handover_scenario, BulkResult, ChaosPlan, Scheme, TransportTuning,
};
use xlink::netsim::{LinkConfig, Path};
use xlink::obs::TraceLog;

const DEADLINE: Duration = Duration::from_secs(90);

fn sweep_seeds() -> u64 {
    std::env::var("XLINK_SWEEP_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// Two asymmetric always-on paths; the chaos plan supplies the outages.
fn chaos_paths() -> Vec<Path> {
    vec![
        Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10))),
        Path::symmetric(LinkConfig::constant_rate(16.0, Duration::from_millis(30))),
    ]
}

fn assert_conserved(label: &str, seed: u64, r: &BulkResult) {
    for (i, (up, down)) in r.link_stats.iter().enumerate() {
        assert!(
            up.is_conserved(),
            "{label} seed {seed}: path {i} uplink violates conservation: {up:?}"
        );
        assert!(
            down.is_conserved(),
            "{label} seed {seed}: path {i} downlink violates conservation: {down:?}"
        );
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Property: across a seed sweep of random blackhole placements, an
/// XLINK transfer with auto-failover completes, delivers exactly the
/// requested bytes (no stream loss, no duplication), keeps link-level
/// packet conservation, and actually exercises the liveness machine.
#[test]
fn chaos_sweep_conserves_stream_bytes() {
    const CHAOS_SIZE: u64 = 2_500_000;
    for seed in 0..sweep_seeds() {
        let plan = ChaosPlan::new(seed);
        let log = TraceLog::recording();
        let r = plan.scenario(chaos_paths(), DEADLINE).traced(&log).bulk_quic(
            Scheme::Xlink,
            &TransportTuning::default(),
            CHAOS_SIZE,
            plan.seed,
            None,
        );
        assert!(
            r.download_time.is_some(),
            "chaos seed {seed}: transfer stalled (no completion by {DEADLINE})"
        );
        assert_eq!(
            r.bytes_received, CHAOS_SIZE,
            "chaos seed {seed}: stream bytes lost or duplicated past the request size"
        );
        assert_conserved("chaos", seed, &r);
        // The first blackhole lands mid-transfer, so the world must have
        // flapped the link and the liveness machine must have noticed.
        assert!(
            r.download_time.unwrap() > chaos::START_AFTER, // the first outage begins here
            "chaos seed {seed}: transfer finished before the first outage — scenario too easy"
        );
        let timeline = failover_timeline(&log);
        assert!(
            timeline.iter().any(|l| l.contains("link_state_change")),
            "chaos seed {seed}: plan produced no outages"
        );
        assert!(
            timeline.iter().any(|l| l.contains("path_suspected")),
            "chaos seed {seed}: mid-transfer blackhole never suspected: {timeline:?}"
        );
    }
}

/// Property: the failover event stream is a pure function of the seed —
/// two identical runs produce byte-identical timelines, and the
/// timeline actually contains the full suspect → failover → revalidate
/// arc for a mid-transfer outage.
#[test]
fn failover_event_stream_is_bit_reproducible() {
    for seed in 0..sweep_seeds() {
        let run = |log: &TraceLog| {
            handover_scenario(Duration::from_millis(400), Duration::from_secs(3), DEADLINE)
                .traced(log)
                .bulk_quic(Scheme::Xlink, &TransportTuning::default(), 2_000_000, seed, None)
        };
        let (log_a, log_b) = (TraceLog::recording(), TraceLog::recording());
        let ra = run(&log_a);
        let rb = run(&log_b);
        assert_eq!(ra.download_time, rb.download_time, "seed {seed}: run not deterministic");
        let (ta, tb) = (failover_timeline(&log_a), failover_timeline(&log_b));
        assert!(!ta.is_empty(), "seed {seed}: no failover events recorded");
        assert_eq!(ta, tb, "seed {seed}: failover event stream not bit-identical");
        for needle in ["path_suspected", "path_failover", "path_revalidated"] {
            assert!(
                ta.iter().any(|l| l.contains(needle)),
                "seed {seed}: timeline missing {needle}: {ta:?}"
            );
        }
    }
}

/// Differential handover: with the primary blackholed mid-transfer,
/// XLINK's stall (completion time) must be strictly below both the SP
/// baseline (which can only wait out the outage under PTO backoff) and
/// the MPTCP arm (only the blocked head is copied; the rest of the
/// stranded window waits for PTO and the probation requeue).
#[test]
fn handover_xlink_stalls_strictly_less_than_baselines() {
    let tuning = TransportTuning::default();
    let (start, down) = (Duration::from_millis(400), Duration::from_secs(4));
    let size = 1_200_000;
    let (mut sp, mut mp, mut xl) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 0..sweep_seeds() {
        let scenario = || handover_scenario(start, down, DEADLINE);
        let sp_r = scenario().bulk_quic(Scheme::Sp { path: 0 }, &tuning, size, seed, None);
        let mp_r = scenario().bulk_quic(Scheme::Mptcp, &tuning, size, seed, None);
        let xl_r = scenario().bulk_quic(Scheme::Xlink, &tuning, size, seed, None);
        for (scheme, r) in [("sp", &sp_r), ("mptcp", &mp_r), ("xlink", &xl_r)] {
            assert!(
                r.download_time.is_some(),
                "handover/{scheme} seed {seed}: download stalled past {DEADLINE}"
            );
            assert_conserved(scheme, seed, r);
        }
        sp.push(sp_r.download_time.unwrap());
        mp.push(mp_r.download_time.unwrap());
        xl.push(xl_r.download_time.unwrap());
    }
    let (sp_med, mp_med, xl_med) = (median(sp), median(mp), median(xl));
    eprintln!("handover: medians sp={sp_med} mptcp={mp_med} xlink={xl_med}");
    assert!(xl_med < sp_med, "handover: xlink median {xl_med} not strictly below sp {sp_med}");
    assert!(xl_med < mp_med, "handover: xlink median {xl_med} not strictly below mptcp {mp_med}");
}
