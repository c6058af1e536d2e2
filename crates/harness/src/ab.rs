//! The paired A/B population runner behind the paper's large-scale
//! studies (Fig. 1c + Table 1, Fig. 10-12 + Tables 2-3).
//!
//! Where the production study randomized real users into contrast groups,
//! we run *paired* sessions: the same seeded (day, user) network draw is
//! played under both schemes, which exercises the identical code paths
//! with far lower variance at simulation scale.

use crate::fleet::ArmAgg;
use crate::par;
use crate::scenario::draw_user_paths;
use crate::transport::Scheme;
use crate::video_session::{run_session, SessionConfig};
use xlink_clock::Duration;
use xlink_lab::stats::improvement_pct;
use xlink_video::Video;

/// One day's paired A/B outcome.
#[derive(Debug, Clone)]
pub struct DayOutcome {
    /// Day index (1-based in printouts).
    pub day: u64,
    /// Arm A (baseline, e.g. SP).
    pub a: ArmAgg,
    /// Arm B (treatment, e.g. XLINK).
    pub b: ArmAgg,
}

impl DayOutcome {
    /// RCT percentile for an arm, read from the streaming histogram
    /// (within one log-bin of exact).
    pub fn rct_pct(&self, arm_b: bool, p: f64) -> f64 {
        let arm = if arm_b { &self.b } else { &self.a };
        arm.rct.percentile(p)
    }

    /// Improvement of B over A at an RCT percentile (positive = B faster).
    pub fn rct_improvement(&self, p: f64) -> f64 {
        improvement_pct(self.rct_pct(false, p), self.rct_pct(true, p))
    }

    /// Rebuffer-rate improvement of B over A (positive = B better).
    pub fn rebuffer_improvement(&self) -> f64 {
        improvement_pct(self.a.rebuffer_rate(), self.b.rebuffer_rate())
    }
}

/// Configuration for a multi-day A/B study.
#[derive(Debug, Clone)]
pub struct AbConfig {
    /// Baseline scheme (arm A).
    pub scheme_a: Scheme,
    /// Treatment scheme (arm B).
    pub scheme_b: Scheme,
    /// Days to simulate.
    pub days: u64,
    /// Users per day.
    pub users_per_day: u64,
    /// Video parameters.
    pub video: Video,
    /// Session deadline.
    pub deadline: Duration,
}

impl AbConfig {
    /// Defaults sized for simulation (tens of users/day, not 100K).
    pub fn new(scheme_a: Scheme, scheme_b: Scheme) -> Self {
        AbConfig {
            scheme_a,
            scheme_b,
            days: 7,
            users_per_day: 24,
            // 18 s at 3 Mbps with a 5 s bounded buffer: a multi-second
            // Wi-Fi outage lands mid-play and forces the transport to
            // react before the buffer drains.
            video: Video::synth(18, 25, 3_000_000, 10.0),
            deadline: Duration::from_secs(90),
        }
    }
}

/// Run the study; one `DayOutcome` per day. Days share nothing, so they
/// run side by side ([`par::map`]); inside a day users play in order.
pub fn run_ab(cfg: &AbConfig) -> Vec<DayOutcome> {
    par::map(cfg.days as usize, |i| {
        let day = i as u64 + 1;
        let mut a = ArmAgg::default();
        let mut b = ArmAgg::default();
        for user in 0..cfg.users_per_day {
            let (wifi, lte) = draw_user_paths(day, user);
            let seed = day * 10_000 + user;
            for (arm, scheme) in [(&mut a, cfg.scheme_a), (&mut b, cfg.scheme_b)] {
                let mut scfg = SessionConfig::short_video(scheme, seed);
                scfg.video = cfg.video.clone();
                scfg.deadline = cfg.deadline;
                let paths = vec![wifi.build(), lte.build()];
                arm.absorb(&run_session(&scfg, paths));
            }
        }
        DayOutcome { day, a, b }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ab(scheme_b: Scheme) -> AbConfig {
        let mut cfg = AbConfig::new(Scheme::Sp { path: 0 }, scheme_b);
        cfg.days = 1;
        cfg.users_per_day = 3;
        cfg.video = Video::synth(3, 25, 700_000, 8.0);
        cfg.deadline = Duration::from_secs(45);
        cfg
    }

    #[test]
    fn ab_produces_samples_for_both_arms() {
        let out = run_ab(&tiny_ab(Scheme::Xlink));
        assert_eq!(out.len(), 1);
        let d = &out[0];
        assert!(d.a.rct.count() > 0);
        assert!(d.b.rct.count() > 0);
        assert_eq!(d.a.rebuffer.count(), 3);
        assert_eq!(d.b.rebuffer.count(), 3);
        // Improvement metrics are finite.
        assert!(d.rct_improvement(50.0).is_finite());
        assert!(d.rebuffer_improvement().is_finite());
    }

    #[test]
    fn paired_runs_are_reproducible() {
        let a = run_ab(&tiny_ab(Scheme::Xlink));
        let b = run_ab(&tiny_ab(Scheme::Xlink));
        assert_eq!(a[0].a.digest(), b[0].a.digest());
        assert_eq!(a[0].b.digest(), b[0].b.digest());
    }
}
