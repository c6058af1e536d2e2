//! Differential robustness suite: for each impairment class (bursty
//! loss, reordering, duplication, corruption, jitter, link flapping) run
//! SP vs MPTCP-mode vs XLINK bulk downloads across a seed sweep and
//! assert (a) no panic/close/stall, (b) the link-level packet
//! conservation invariant, and (c) the paper's completion-time ordering
//! (XLINK no slower than single-path) survives the pathology.
//!
//! Sweep width defaults to 3 seeds for plain `cargo test`; CI pins
//! `XLINK_SWEEP_SEEDS=8`, and larger sweeps are opt-in via the same
//! variable.

use xlink::clock::{Duration, Instant};
use xlink::harness::{BulkResult, Scenario, Scheme, TransportTuning};
use xlink::lab::prop::*;
use xlink::lab::rng::Rng;
use xlink::netsim::{
    FlapSchedule, FlapStep, GilbertElliott, Impairment, Impairments, LinkConfig, LinkState, Path,
};

const SIZE: u64 = 300_000;
const DEADLINE: Duration = Duration::from_secs(60);

fn sweep_seeds() -> u64 {
    std::env::var("XLINK_SWEEP_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// Two asymmetric paths (Wi-Fi-ish and LTE-ish) with the impairment
/// applied to all four link directions, seeded per sweep iteration.
fn impaired_paths(imp: &Impairments, seed: u64) -> Vec<Path> {
    let mk = |mbps: f64, delay_ms: u64, s: u64| {
        let mut up = LinkConfig::constant_rate(mbps, Duration::from_millis(delay_ms));
        up.seed = s;
        up.impairments = imp.clone();
        let mut down = up.clone();
        down.seed = s ^ 0xd0;
        Path::new(up, down)
    };
    vec![
        mk(20.0, 10, seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)),
        mk(16.0, 30, seed.wrapping_mul(0x85eb_ca6b).wrapping_add(2)),
    ]
}

fn assert_conserved(class: &str, scheme: &str, seed: u64, r: &BulkResult) {
    for (i, (up, down)) in r.link_stats.iter().enumerate() {
        assert!(
            up.is_conserved(),
            "{class}/{scheme} seed {seed}: path {i} uplink violates conservation: {up:?}"
        );
        assert!(
            down.is_conserved(),
            "{class}/{scheme} seed {seed}: path {i} downlink violates conservation: {down:?}"
        );
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Run the three schemes across the sweep for one impairment class and
/// enforce the three differential assertions.
fn run_class(class: &str, imp: Impairments, flaps: &[(usize, FlapSchedule)]) {
    let tuning = TransportTuning::default();
    let (mut sp, mut mp, mut xl) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 0..sweep_seeds() {
        let scenario =
            || Scenario::new(impaired_paths(&imp, seed), DEADLINE).with_faults(flaps.to_vec());
        let sp_r = scenario().bulk_quic(Scheme::Sp { path: 0 }, &tuning, SIZE, seed, None);
        let mp_r = scenario().bulk_quic(Scheme::Mptcp, &tuning, SIZE, seed, None);
        let xl_r = scenario().bulk_quic(Scheme::Xlink, &tuning, SIZE, seed, None);
        for (scheme, r) in [("sp", &sp_r), ("mptcp", &mp_r), ("xlink", &xl_r)] {
            assert!(
                r.download_time.is_some(),
                "{class}/{scheme} seed {seed}: download stalled (no completion by {DEADLINE})"
            );
            assert_conserved(class, scheme, seed, r);
        }
        sp.push(sp_r.download_time.unwrap());
        mp.push(mp_r.download_time.unwrap());
        xl.push(xl_r.download_time.unwrap());
    }
    // (c) The paper's ordering: multipath with QoE-driven re-injection is
    // never meaningfully slower than pinning to one path, whatever the
    // pathology (small tolerance absorbs per-seed noise at the median).
    let (sp_med, mp_med, xl_med) = (median(sp), median(mp), median(xl));
    assert!(
        xl_med <= sp_med.mul_f64(1.15),
        "{class}: xlink median {xl_med} worse than sp median {sp_med}"
    );
    eprintln!("{class}: medians sp={sp_med} mptcp={mp_med} xlink={xl_med}");
}

#[test]
fn bursty_loss_differential() {
    // ~9% average loss in geometric bursts of mean 2 packets.
    run_class("bursty_loss", Impairments::from(Impairment::bursty_loss(0.05, 0.5)), &[]);
}

#[test]
fn reordering_differential() {
    run_class(
        "reorder",
        Impairments::from(Impairment::Reorder { prob: 0.3, window: Duration::from_millis(40) }),
        &[],
    );
}

#[test]
fn duplication_differential() {
    run_class("duplicate", Impairments::from(Impairment::Duplicate { prob: 0.2 }), &[]);
}

#[test]
fn corruption_differential() {
    run_class("corrupt", Impairments::from(Impairment::Corrupt { prob: 0.1 }), &[]);
}

#[test]
fn jitter_differential() {
    run_class(
        "jitter",
        Impairments::from(Impairment::Jitter { sigma: Duration::from_millis(8) }),
        &[],
    );
}

#[test]
fn path_flapping_differential() {
    // Path 0 goes dark early in the transfer, limps back on a degraded
    // radio, recovers, then blinks once more; path 1 stays healthy.
    // XLINK must ride through without stalling.
    run_class("flap", Impairments::none(), &[(0, transfer_window_flap())]);
}

/// A flap schedule whose pathology lands inside a sub-second transfer:
/// down at 50ms, degraded from 200ms, healthy at 600ms, one more blink.
fn transfer_window_flap() -> FlapSchedule {
    FlapSchedule::new(vec![
        FlapStep { at: Instant::from_millis(50), state: LinkState::Down },
        FlapStep {
            at: Instant::from_millis(200),
            state: LinkState::Degraded { keep: 0.3, extra_loss: 0.05 },
        },
        FlapStep { at: Instant::from_millis(600), state: LinkState::Up },
        FlapStep { at: Instant::from_millis(900), state: LinkState::Down },
        FlapStep { at: Instant::from_millis(1100), state: LinkState::Up },
    ])
}

#[test]
fn combined_pathologies_differential() {
    // Everything at once, mildly: the "worst day on a train" scenario.
    let imp = Impairments::none()
        .with(Impairment::bursty_loss(0.02, 0.5))
        .with(Impairment::Reorder { prob: 0.15, window: Duration::from_millis(25) })
        .with(Impairment::Duplicate { prob: 0.05 })
        .with(Impairment::Corrupt { prob: 0.03 })
        .with(Impairment::Jitter { sigma: Duration::from_millis(4) });
    run_class("combined", imp, &[]);
}

// ---------------------------------------------------------------------
// Property tests for the impairment models themselves (satellite: the
// Gilbert–Elliott chain and the reorder window bound).
// ---------------------------------------------------------------------

/// Empirical loss rate of the GE chain matches its stationary
/// distribution π_bad = p / (p + r) (loss_bad = 1, loss_good = 0).
#[test]
fn ge_loss_rate_matches_stationary_distribution() {
    check(
        "ge_loss_rate_matches_stationary_distribution",
        (1u64..30, 20u64..90, 1u64..10_000),
        |&(p_pct, r_pct, seed)| {
            let (p, r) = (p_pct as f64 / 100.0, r_pct as f64 / 100.0);
            let mut ge = GilbertElliott::new(p, r, 0.0, 1.0, Rng::new(seed));
            let n = 20_000;
            let drops = (0..n).filter(|_| ge.roll()).count();
            let got = drops as f64 / n as f64;
            let expect = p / (p + r);
            prop_assert!(
                (got - expect).abs() < 0.03 + 0.25 * expect,
                "loss {got:.4} vs stationary {expect:.4} (p={p}, r={r})"
            );
            Ok(())
        },
    );
}

/// Burst lengths of the GE chain are geometric with mean 1/r.
#[test]
fn ge_burst_lengths_are_geometric() {
    check("ge_burst_lengths_are_geometric", (20u64..80, 1u64..10_000), |&(r_pct, seed)| {
        let r = r_pct as f64 / 100.0;
        let mut ge = GilbertElliott::new(0.05, r, 0.0, 1.0, Rng::new(seed));
        let mut bursts: Vec<u64> = Vec::new();
        let mut run = 0u64;
        for _ in 0..60_000 {
            if ge.roll() {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        prop_assert!(bursts.len() > 100, "need bursts to measure (got {})", bursts.len());
        let mean = bursts.iter().sum::<u64>() as f64 / bursts.len() as f64;
        let expect = 1.0 / r;
        prop_assert!(
            (mean - expect).abs() < 0.25 * expect + 0.15,
            "burst mean {mean:.3} vs geometric mean {expect:.3} (r={r})"
        );
        // Geometric support starts at 1 and is memoryless: the
        // longest observed burst should comfortably exceed the mean.
        prop_assert!(*bursts.iter().max().unwrap() as f64 >= mean);
        Ok(())
    });
}

/// Every reordered packet arrives within its configured window of the
/// unimpaired arrival time, and never earlier than unimpaired.
#[test]
fn reorder_delay_stays_within_window() {
    check("reorder_delay_stays_within_window", (1u64..80, 1u64..10_000), |&(win_ms, seed)| {
        let window = Duration::from_millis(win_ms);
        let delay = Duration::from_millis(5);
        let mut cfg = LinkConfig::constant_rate(12.0, delay); // 1 MTU per ms
        cfg.seed = seed;
        cfg.queue_bytes = 10 << 20;
        cfg.impairments = Impairments::from(Impairment::Reorder { prob: 1.0, window });
        let mut link = xlink::netsim::Link::new(cfg);
        let n = 60u64;
        for i in 0..n {
            // Exactly one MTU per opportunity, tagged with its index.
            link.send(Instant::from_millis(i), vec![i as u8; 1500]);
        }
        let got = link.recv(Instant::from_secs(120));
        prop_assert_eq!(got.len() as u64, n, "reordering must not drop packets");
        prop_assert!(
            got.windows(2).all(|w| w[0].at <= w[1].at),
            "recv must yield arrivals in time order"
        );
        for d in &got {
            let i = d.payload[0] as u64;
            let base = Instant::from_millis(i) + delay; // unimpaired arrival
            prop_assert!(d.at > base, "packet {i} arrived no later than unimpaired");
            prop_assert!(
                d.at <= base + window,
                "packet {i} exceeded the reorder window: {} > {}",
                d.at,
                base + window
            );
        }
        prop_assert!(link.stats().is_conserved());
        Ok(())
    });
}
