//! Wireless technology model and wireless-aware primary path selection
//! (paper §5.3: the ranking 5G SA > 5G NSA > Wi-Fi > LTE, configurable
//! per region — "one should follow local statistics").

/// Radio access technology of a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WirelessTech {
    /// 5G standalone: new core network, edge-deployed, lowest delay.
    FiveGSa,
    /// 5G non-standalone: shares the LTE core.
    FiveGNsa,
    /// Wi-Fi (802.11).
    Wifi,
    /// LTE.
    Lte,
}

impl WirelessTech {
    /// Default preference rank: lower = preferred as primary path.
    pub fn default_rank(self) -> u8 {
        match self {
            WirelessTech::FiveGSa => 0,
            WirelessTech::FiveGNsa => 1,
            WirelessTech::Wifi => 2,
            WirelessTech::Lte => 3,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            WirelessTech::FiveGSa => "5G-SA",
            WirelessTech::FiveGNsa => "5G-NSA",
            WirelessTech::Wifi => "WiFi",
            WirelessTech::Lte => "LTE",
        }
    }

    /// Typical one-way path delay to an edge server, from the §3.2
    /// measurement study (median LTE ≈ 2.7× Wi-Fi, 5.5× 5G SA). These are
    /// the defaults the harness uses to synthesize paths per technology.
    pub fn typical_one_way_delay_ms(self) -> u64 {
        match self {
            WirelessTech::FiveGSa => 5,
            WirelessTech::FiveGNsa => 14,
            WirelessTech::Wifi => 10,
            WirelessTech::Lte => 27,
        }
    }
}

/// A ranking function for primary path selection. The default follows the
/// paper's ordering; deployments can override with local statistics.
#[derive(Debug, Clone, Default)]
pub struct PrimaryPathPolicy {
    /// Ranks per technology (lower wins). Missing techs use default_rank.
    overrides: Vec<(WirelessTech, u8)>,
}

impl PrimaryPathPolicy {
    /// Override the rank of one technology.
    pub fn with_rank(mut self, tech: WirelessTech, rank: u8) -> Self {
        self.overrides.retain(|(t, _)| *t != tech);
        self.overrides.push((tech, rank));
        self
    }

    /// Rank of a technology under this policy.
    pub fn rank(&self, tech: WirelessTech) -> u8 {
        self.overrides
            .iter()
            .find(|(t, _)| *t == tech)
            .map(|(_, r)| *r)
            .unwrap_or_else(|| tech.default_rank())
    }

    /// Choose the primary path among `(path_index, tech)` candidates.
    /// Ties break toward the lower path index. Returns 0 for an empty
    /// candidate list (the conventional default path).
    pub fn select_primary(&self, candidates: &[(usize, WirelessTech)]) -> usize {
        candidates.iter().min_by_key(|&&(i, t)| (self.rank(t), i)).map_or(0, |&(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ranking_follows_paper() {
        let ranks =
            [WirelessTech::FiveGSa, WirelessTech::FiveGNsa, WirelessTech::Wifi, WirelessTech::Lte]
                .map(|t| t.default_rank());
        assert!(ranks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn selects_best_tech() {
        let p = PrimaryPathPolicy::default();
        let cands = [(0, WirelessTech::Lte), (1, WirelessTech::Wifi), (2, WirelessTech::FiveGSa)];
        assert_eq!(p.select_primary(&cands), 2);
        let cands2 = [(0, WirelessTech::Lte), (1, WirelessTech::Wifi)];
        assert_eq!(p.select_primary(&cands2), 1);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let p = PrimaryPathPolicy::default();
        let cands = [(3, WirelessTech::Wifi), (1, WirelessTech::Wifi)];
        assert_eq!(p.select_primary(&cands), 1);
    }

    #[test]
    fn overrides_apply() {
        // A region where LTE beats Wi-Fi ("follow local statistics").
        let p = PrimaryPathPolicy::default().with_rank(WirelessTech::Lte, 0);
        let cands = [(0, WirelessTech::Wifi), (1, WirelessTech::Lte)];
        assert_eq!(p.select_primary(&cands), 1);
    }

    #[test]
    fn delay_ratios_match_measurement_study() {
        // §3.2: median LTE delay ≈ 2.7× Wi-Fi and ≈ 5.5× 5G SA.
        let lte = WirelessTech::Lte.typical_one_way_delay_ms() as f64;
        let wifi = WirelessTech::Wifi.typical_one_way_delay_ms() as f64;
        let sa = WirelessTech::FiveGSa.typical_one_way_delay_ms() as f64;
        assert!((lte / wifi - 2.7).abs() < 0.3, "LTE/WiFi = {}", lte / wifi);
        assert!((lte / sa - 5.5).abs() < 0.5, "LTE/5G = {}", lte / sa);
    }

    #[test]
    fn empty_candidates_default_to_zero() {
        assert_eq!(PrimaryPathPolicy::default().select_primary(&[]), 0);
    }
}
