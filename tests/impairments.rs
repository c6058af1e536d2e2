//! Differential robustness suite: for each impairment class (bursty
//! loss, reordering, duplication, corruption, jitter, link flapping) run
//! SP vs MPTCP-mode vs XLINK bulk downloads across a seed sweep and
//! assert (a) no panic/close/stall, (b) the link-level packet
//! conservation invariant, and (c) the paper's completion-time ordering
//! (XLINK no slower than single-path) survives the pathology. The
//! classes, the paths and the three assertions are the
//! `impairment_sweep` row's (`harness::experiments::impairment_sweep`).
//!
//! Sweep width defaults to 3 seeds for plain `cargo test`; CI pins
//! `XLINK_SWEEP_SEEDS=8`, and larger sweeps are opt-in via the same
//! variable.

use xlink::clock::{Duration, Instant};
use xlink::harness::experiments::impairment_sweep::{self, classes, run_class};
use xlink::lab::prop::*;
use xlink::lab::rng::Rng;
use xlink::netsim::{GilbertElliott, Impairment, Impairments, LinkConfig};

fn sweep_seeds() -> u64 {
    std::env::var("XLINK_SWEEP_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// Run the three schemes across the sweep for one impairment class and
/// enforce the three differential assertions.
fn sweep(class: &str) {
    let class = classes().into_iter().find(|c| c.name == class).expect("a class of the sweep");
    let sweep = run_class(&class, sweep_seeds());
    impairment_sweep::check(&sweep);
    let median = |arm| sweep.median(arm).expect("no stall");
    eprintln!("{}: medians sp={} mptcp={} xlink={}", sweep.class, median(0), median(1), median(2));
}

#[test]
fn bursty_loss_differential() {
    sweep("bursty_loss");
}

#[test]
fn reordering_differential() {
    sweep("reorder");
}

#[test]
fn duplication_differential() {
    sweep("duplicate");
}

#[test]
fn corruption_differential() {
    sweep("corrupt");
}

#[test]
fn jitter_differential() {
    sweep("jitter");
}

#[test]
fn path_flapping_differential() {
    sweep("flap");
}

#[test]
fn combined_pathologies_differential() {
    sweep("combined");
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
