//! Seeded synthetic trace generators reproducing the paper's published
//! trace shapes (see the crate docs for the figure-by-figure mapping).
//!
//! All generators work the same way: a per-millisecond instantaneous rate
//! process (random-walk / Markov on-off / scripted outages) is converted
//! into delivery opportunities by accumulating fractional quanta.

use crate::Trace;
use xlink_lab::Rng;

/// Convert a per-ms rate series (Mbps) into delivery opportunities.
fn rate_to_opportunities(label: &str, rates_mbps: &[f64]) -> Trace {
    let mut acc = 0.0f64;
    let mut ops = Vec::new();
    for (ms, &r) in rates_mbps.iter().enumerate() {
        // Opportunities per ms = Mbps · 1e6 / 8 / 1500 / 1000.
        acc += (r.max(0.0) * 1e6 / 8.0 / 1500.0) / 1000.0;
        while acc >= 1.0 {
            ops.push(ms as u64);
            acc -= 1.0;
        }
    }
    Trace::new(label, ops)
}

/// Bounded random-walk rate process.
fn random_walk(
    rng: &mut Rng,
    duration_ms: u64,
    start: f64,
    min: f64,
    max: f64,
    step: f64,
) -> Vec<f64> {
    let mut rates = Vec::with_capacity(duration_ms as usize);
    let mut r = start;
    for _ in 0..duration_ms {
        r += rng.gaussian() * step;
        r = r.clamp(min, max);
        rates.push(r);
    }
    rates
}

/// Fig. 1b: comparatively stable LTE at ~15-25 Mbps.
pub fn stable_lte(seed: u64, duration_ms: u64) -> Trace {
    let mut rng = Rng::new(seed ^ 0x17e);
    let rates = random_walk(&mut rng, duration_ms, 20.0, 14.0, 26.0, 0.08);
    rate_to_opportunities("stable-lte", &rates)
}

/// Fig. 1a: walking Wi-Fi — rapid variation around ~20 Mbps with a hard
/// outage between `outage_start_ms` and `outage_end_ms` (the paper's
/// trace drops to near zero from 1.7 s to 2.2 s).
pub fn walking_wifi_with_outage(
    seed: u64,
    duration_ms: u64,
    outage_start_ms: u64,
    outage_end_ms: u64,
) -> Trace {
    let mut rng = Rng::new(seed ^ 0x311f1);
    let mut rates = random_walk(&mut rng, duration_ms, 22.0, 2.0, 34.0, 0.9);
    for (ms, r) in rates.iter_mut().enumerate() {
        let ms = ms as u64;
        if ms >= outage_start_ms && ms < outage_end_ms {
            *r = 0.05; // near-zero during the outage
        } else if ms + 200 >= outage_start_ms && ms < outage_start_ms {
            // Rapid pre-outage decay (signal fading as the user walks away).
            let frac = (outage_start_ms - ms) as f64 / 200.0;
            *r *= frac;
        }
    }
    rate_to_opportunities("walking-wifi", &rates)
}

/// The default Fig. 1a trace: 3 s walking Wi-Fi with the 1.7-2.2 s outage.
pub fn walking_wifi(seed: u64) -> Trace {
    walking_wifi_with_outage(seed, 3000, 1700, 2200)
}

/// Enterprise Wi-Fi: high and fairly steady (Fig. 7 measurements).
pub fn enterprise_wifi(seed: u64, duration_ms: u64) -> Trace {
    let mut rng = Rng::new(seed ^ 0xe111);
    let rates = random_walk(&mut rng, duration_ms, 60.0, 40.0, 90.0, 0.4);
    rate_to_opportunities("enterprise-wifi", &rates)
}

/// 5G SA: very high rate, used by the primary-path study (Fig. 7).
pub fn fiveg_sa(seed: u64, duration_ms: u64) -> Trace {
    let mut rng = Rng::new(seed ^ 0x5a5a);
    let rates = random_walk(&mut rng, duration_ms, 250.0, 120.0, 400.0, 2.0);
    rate_to_opportunities("5g-sa", &rates)
}

/// 5G NSA capped at 30 Mbps (the Fig. 14 energy study caps each link at
/// 30 Mbps to study the regime where 5G cannot reach its peak rate).
pub fn fiveg_nsa_capped(seed: u64, duration_ms: u64, cap_mbps: f64) -> Trace {
    let mut rng = Rng::new(seed ^ 0x5165a);
    let rates = random_walk(&mut rng, duration_ms, cap_mbps * 0.9, cap_mbps * 0.5, cap_mbps, 0.5);
    rate_to_opportunities("5g-nsa", &rates)
}

/// Fig. 15a: high-speed-rail cellular — rate swings between ~1 and
/// ~12 Mbps with deep fades roughly every 20-40 s as the train crosses
/// cell boundaries at 300 km/h.
pub fn hsr_cellular(seed: u64, duration_ms: u64) -> Trace {
    let mut rng = Rng::new(seed ^ 0x4458);
    let mut rates = Vec::with_capacity(duration_ms as usize);
    let mut r = 8.0f64;
    let mut next_fade = 5_000 + rng.below(20_000);
    let mut fade_left = 0u64;
    for ms in 0..duration_ms {
        if ms == next_fade {
            fade_left = 500 + rng.below(2_500); // 0.5-3 s fade
            next_fade = ms + 20_000 + rng.below(20_000);
        }
        if fade_left > 0 {
            fade_left -= 1;
            rates.push(0.2 + rng.f64() * 0.5);
            continue;
        }
        r += rng.gaussian() * 0.25;
        r = r.clamp(1.0, 12.5);
        rates.push(r);
    }
    rate_to_opportunities("hsr-cellular", &rates)
}

/// Fig. 15b: on-board HSR Wi-Fi — lower rate (~2-8 Mbps), choppier, with
/// short stalls as the on-board backhaul itself hands off.
pub fn hsr_onboard_wifi(seed: u64, duration_ms: u64) -> Trace {
    let mut rng = Rng::new(seed ^ 0x0b0a);
    let mut rates = Vec::with_capacity(duration_ms as usize);
    let mut r = 5.0f64;
    let mut stall_left = 0u64;
    for _ms in 0..duration_ms {
        if stall_left == 0 && rng.chance(0.0004) {
            stall_left = 200 + rng.below(1_800);
        }
        if stall_left > 0 {
            stall_left -= 1;
            rates.push(0.1);
            continue;
        }
        r += rng.gaussian() * 0.35;
        r = r.clamp(0.5, 8.5);
        rates.push(r);
    }
    rate_to_opportunities("hsr-onboard-wifi", &rates)
}

/// Subway cellular: hard tunnel outages every 1-3 minutes scaled down to
/// the experiment duration — frequent multi-second zero-rate holes.
pub fn subway_cellular(seed: u64, duration_ms: u64) -> Trace {
    let mut rng = Rng::new(seed ^ 0x5005);
    let mut rates = Vec::with_capacity(duration_ms as usize);
    let mut r = 10.0f64;
    let mut outage_left = 0u64;
    let mut next_outage = 3_000 + rng.below(8_000);
    for ms in 0..duration_ms {
        if ms == next_outage {
            outage_left = 1_000 + rng.below(4_000);
            next_outage = ms + 8_000 + rng.below(15_000);
        }
        if outage_left > 0 {
            outage_left -= 1;
            rates.push(0.0);
            continue;
        }
        r += rng.gaussian() * 0.5;
        r = r.clamp(2.0, 18.0);
        rates.push(r);
    }
    rate_to_opportunities("subway-cellular", &rates)
}

/// Constant-rate helper for calibration experiments (e.g. Fig. 8's
/// equal-bandwidth paths).
pub fn constant_rate(label: &str, mbps: f64, duration_ms: u64) -> Trace {
    let rates = vec![mbps; duration_ms as usize];
    rate_to_opportunities(label, &rates)
}

/// The pair of paths used in the Fig. 6 QoE-control demonstration: path 1
/// deteriorates midway (like the paper's trace where "path 1
/// deteriorates"), path 2 stays moderate.
pub fn fig6_paths(seed: u64) -> (Trace, Trace) {
    let mut rng = Rng::new(seed ^ 0xf160);
    let mut r1 = Vec::new();
    for ms in 0..6000u64 {
        let base = if (1500..3500).contains(&ms) {
            0.2 // deep deterioration in the middle
        } else {
            16.0
        };
        r1.push((base + rng.gaussian() * 0.8).clamp(0.0, 24.0));
    }
    let r2 = random_walk(&mut rng, 6000, 7.0, 4.0, 11.0, 0.2);
    (rate_to_opportunities("fig6-path1", &r1), rate_to_opportunities("fig6-path2", &r2))
}

/// Extreme-mobility trace pairs for the Fig. 13 study: ten (cellular,
/// wifi) pairs drawn from HSR and subway environments — "we always
/// replayed different traces collected in the same environment on
/// different paths".
pub fn mobility_trace_pairs(duration_ms: u64) -> Vec<(Trace, Trace)> {
    (0..10u64)
        .map(|i| {
            if i % 2 == 0 {
                (hsr_cellular(100 + i, duration_ms), hsr_onboard_wifi(200 + i, duration_ms))
            } else {
                (subway_cellular(300 + i, duration_ms), hsr_onboard_wifi(400 + i, duration_ms))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(walking_wifi(1), walking_wifi(1));
        assert_ne!(walking_wifi(1), walking_wifi(2));
        assert_eq!(hsr_cellular(3, 10_000), hsr_cellular(3, 10_000));
    }

    #[test]
    fn walking_wifi_has_the_outage() {
        let t = walking_wifi(7);
        let pre = t.rate_mbps_between(500, 1400);
        let outage = t.rate_mbps_between(1750, 2150);
        let post = t.rate_mbps_between(2400, 3000);
        assert!(pre > 8.0, "pre-outage rate {pre}");
        assert!(outage < 0.5, "outage rate {outage}");
        assert!(post > 5.0, "post-outage rate {post}");
    }

    #[test]
    fn stable_lte_is_stable() {
        let t = stable_lte(5, 3000);
        let rates: Vec<f64> = t.rate_series_mbps(250).iter().map(|&(_, r)| r).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!((14.0..26.0).contains(&mean), "mean {mean}");
        // No window deviates wildly.
        for r in &rates {
            assert!((10.0..32.0).contains(r), "window rate {r}");
        }
    }

    #[test]
    fn hsr_cellular_has_fades() {
        let t = hsr_cellular(11, 120_000);
        let rates: Vec<f64> = t.rate_series_mbps(500).iter().map(|&(_, r)| r).collect();
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(min < 1.0, "expected deep fades, min {min}");
        assert!(max > 6.0, "expected healthy peaks, max {max}");
    }

    #[test]
    fn subway_has_hard_outages() {
        let t = subway_cellular(13, 60_000);
        let zero_windows = t.rate_series_mbps(500).iter().filter(|&&(_, r)| r < 0.05).count();
        assert!(zero_windows >= 2, "expected outage windows, got {zero_windows}");
    }

    #[test]
    fn constant_rate_is_flat() {
        let t = constant_rate("c", 10.0, 2000);
        for (start, r) in t.rate_series_mbps(500) {
            assert!((r - 10.0).abs() < 0.5, "window {start}: {r}");
        }
    }

    #[test]
    fn rates_roughly_match_target_bands() {
        assert!((15.0..28.0).contains(&stable_lte(1, 5000).mean_rate_mbps()));
        assert!((40.0..95.0).contains(&enterprise_wifi(1, 5000).mean_rate_mbps()));
        assert!((100.0..420.0).contains(&fiveg_sa(1, 5000).mean_rate_mbps()));
        let capped = fiveg_nsa_capped(1, 5000, 30.0).mean_rate_mbps();
        assert!(capped <= 30.5, "capped rate {capped}");
    }

    #[test]
    fn fig6_path1_deteriorates_midway() {
        let (p1, p2) = fig6_paths(1);
        assert!(p1.rate_mbps_between(0, 1400) > 8.0);
        assert!(p1.rate_mbps_between(1700, 3300) < 2.0);
        assert!(p1.rate_mbps_between(3700, 5900) > 8.0);
        assert!(p2.mean_rate_mbps() > 3.0);
    }

    #[test]
    fn mobility_pairs_cover_ten_scenarios() {
        let pairs = mobility_trace_pairs(30_000);
        assert_eq!(pairs.len(), 10);
        for (a, b) in &pairs {
            assert!(a.duration_ms() > 20_000);
            assert!(b.duration_ms() > 20_000);
        }
    }
}
