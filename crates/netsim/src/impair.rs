//! Composable link impairments beyond i.i.d. loss: bursty (Gilbert–
//! Elliott) loss, reordering, duplication, byte corruption, jitter, and
//! scripted link flapping.
//!
//! The seed link model (`link.rs`) only knew independent Bernoulli loss
//! and a binary outage switch; real cellular pathologies are bursty and
//! correlated (RAN queue drains, handovers, radio fades). Each stage here
//! is a small seeded state machine; a [`Link`](crate::Link) owns one
//! `Pipeline` built from its [`Impairments`] description.
//!
//! Seeding discipline: the pipeline derives one independent RNG stream
//! per stage by forking the link RNG with a per-stage label, so adding or
//! removing one stage never perturbs the draws of another, and every run
//! stays bit-reproducible for a given `LinkConfig`.

use xlink_clock::{Duration, Instant};
use xlink_lab::Rng;

/// One impairment stage, in the order applied: drop decisions at ingress
/// (Gilbert–Elliott), payload mutation (corruption, duplication), then
/// per-packet extra delay at ship time (reordering skew, jitter).
#[derive(Debug, Clone, PartialEq)]
pub enum Impairment {
    /// Two-state bursty loss. The chain transitions *before* each packet:
    /// Good→Bad with probability `p_enter_bad`, Bad→Good with probability
    /// `p_exit_bad`; the packet is then dropped with `loss_good` or
    /// `loss_bad` depending on the state. Stationary share of Bad time is
    /// `p_enter_bad / (p_enter_bad + p_exit_bad)`; Bad dwell times are
    /// geometric with mean `1 / p_exit_bad` packets.
    GilbertElliott {
        /// P(Good → Bad) per packet.
        p_enter_bad: f64,
        /// P(Bad → Good) per packet.
        p_exit_bad: f64,
        /// Drop probability while Good (usually ~0).
        loss_good: f64,
        /// Drop probability while Bad (1.0 for classic bursts).
        loss_bad: f64,
    },
    /// With probability `prob`, delay a packet by an extra uniform draw
    /// in `(0, window]` at ship time, letting later packets overtake it.
    Reorder {
        /// Fraction of packets skewed.
        prob: f64,
        /// Maximum extra delay (the reorder window).
        window: Duration,
    },
    /// With probability `prob`, enqueue a second copy of the packet.
    Duplicate {
        /// Fraction of packets duplicated.
        prob: f64,
    },
    /// With probability `prob`, XOR 1–4 payload bytes with nonzero masks
    /// (the packet is still delivered; receivers must reject it).
    Corrupt {
        /// Fraction of packets corrupted.
        prob: f64,
    },
    /// Every packet gets an extra delay of `|N(0,1)| · sigma` at ship
    /// time (half-normal jitter; preserves ordering only statistically).
    Jitter {
        /// Jitter scale.
        sigma: Duration,
    },
}

impl Impairment {
    /// Classic Gilbert model: bursts drop everything, Good drops nothing.
    pub fn bursty_loss(p_enter_bad: f64, p_exit_bad: f64) -> Impairment {
        Impairment::GilbertElliott { p_enter_bad, p_exit_bad, loss_good: 0.0, loss_bad: 1.0 }
    }
}

/// Declarative list of impairment stages for one link direction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Impairments {
    /// Stages in application order.
    pub stages: Vec<Impairment>,
}

impl Impairments {
    /// No impairments (the seed behaviour).
    pub fn none() -> Self {
        Impairments::default()
    }

    /// Append one stage (builder style).
    pub fn with(mut self, stage: Impairment) -> Self {
        self.stages.push(stage);
        self
    }

    /// True when no stage is configured.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl From<Impairment> for Impairments {
    fn from(stage: Impairment) -> Self {
        Impairments::none().with(stage)
    }
}

/// Gilbert–Elliott state machine (public so property tests can drive it
/// directly at high sample counts).
#[derive(Debug)]
pub struct GilbertElliott {
    p_enter_bad: f64,
    p_exit_bad: f64,
    loss_good: f64,
    loss_bad: f64,
    in_bad: bool,
    rng: Rng,
}

impl GilbertElliott {
    /// Start in the Good state with a dedicated RNG stream.
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64, rng: Rng) -> Self {
        GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad, in_bad: false, rng }
    }

    /// Advance one packet; true = drop it.
    pub fn roll(&mut self) -> bool {
        if self.in_bad {
            if self.rng.chance(self.p_exit_bad) {
                self.in_bad = false;
            }
        } else if self.rng.chance(self.p_enter_bad) {
            self.in_bad = true;
        }
        let p = if self.in_bad { self.loss_bad } else { self.loss_good };
        p > 0.0 && self.rng.chance(p)
    }

    /// Currently in the Bad state?
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }
}

/// Runtime state of one stage.
#[derive(Debug)]
enum Stage {
    Ge(GilbertElliott),
    Reorder { prob: f64, window: Duration, rng: Rng },
    Duplicate { prob: f64, rng: Rng },
    Corrupt { prob: f64, rng: Rng },
    Jitter { sigma: Duration, rng: Rng },
}

/// What the ingress stages decided for one packet.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ingress {
    /// Drop the packet (bursty loss).
    pub drop: bool,
    /// Enqueue a second copy.
    pub duplicate: bool,
    /// Payload bytes were mutated in place.
    pub corrupted: bool,
}

/// Instantiated impairment pipeline owned by a `Link`.
#[derive(Debug, Default)]
pub(crate) struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Build per-stage state, forking one RNG stream per stage.
    pub(crate) fn new(cfg: &Impairments, rng: &mut Rng) -> Self {
        let stages = cfg
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let stage_rng = rng.fork(IMPAIR_SALT.wrapping_add(i as u64));
                match *s {
                    Impairment::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } => {
                        Stage::Ge(GilbertElliott::new(
                            p_enter_bad,
                            p_exit_bad,
                            loss_good,
                            loss_bad,
                            stage_rng,
                        ))
                    }
                    Impairment::Reorder { prob, window } => {
                        Stage::Reorder { prob, window, rng: stage_rng }
                    }
                    Impairment::Duplicate { prob } => Stage::Duplicate { prob, rng: stage_rng },
                    Impairment::Corrupt { prob } => Stage::Corrupt { prob, rng: stage_rng },
                    Impairment::Jitter { sigma } => Stage::Jitter { sigma, rng: stage_rng },
                }
            })
            .collect();
        Pipeline { stages }
    }

    /// Run the ingress stages for one packet, mutating the payload for
    /// corruption. Drop short-circuits the remaining stages (a dropped
    /// packet cannot also be duplicated or corrupted).
    pub(crate) fn on_ingress(&mut self, payload: &mut [u8]) -> Ingress {
        let mut out = Ingress::default();
        for stage in &mut self.stages {
            match stage {
                Stage::Ge(ge) => {
                    if ge.roll() {
                        out.drop = true;
                        return out;
                    }
                }
                Stage::Duplicate { prob, rng } => {
                    if rng.chance(*prob) {
                        out.duplicate = true;
                    }
                }
                Stage::Corrupt { prob, rng } => {
                    if !payload.is_empty() && rng.chance(*prob) {
                        out.corrupted = true;
                        let flips = 1 + rng.below(4) as usize;
                        for _ in 0..flips {
                            let idx = rng.below(payload.len() as u64) as usize;
                            let mask = 1 + rng.below(255) as u8; // never a no-op XOR
                            payload[idx] ^= mask;
                        }
                    }
                }
                Stage::Reorder { .. } | Stage::Jitter { .. } => {} // ship-time stages
            }
        }
        out
    }

    /// Extra propagation delay for one packet at ship time (reorder skew
    /// plus jitter; zero without those stages).
    pub(crate) fn ship_delay(&mut self) -> Duration {
        let mut extra = Duration::ZERO;
        for stage in &mut self.stages {
            match stage {
                Stage::Reorder { prob, window, rng } => {
                    let window = window.as_micros();
                    if window > 0 && rng.chance(*prob) {
                        extra += Duration::from_micros(1 + rng.below(window));
                    }
                }
                Stage::Jitter { sigma, rng } => {
                    let mult = rng.gaussian().abs();
                    extra += Duration::from_micros((sigma.as_micros() as f64 * mult) as u64);
                }
                _ => {}
            }
        }
        extra
    }
}

/// Stage-label salt for RNG forking, distinct from the link's own
/// `0x11ce` loss stream.
const IMPAIR_SALT: u64 = 0x001a_9a11;

/// Administrative state of a link at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkState {
    /// Normal operation.
    Up,
    /// Hard outage: no delivery opportunities are used.
    Down,
    /// Soft degradation: each delivery opportunity survives with
    /// probability `keep`, and each ingress packet is additionally lost
    /// with probability `extra_loss`.
    Degraded {
        /// Fraction of delivery opportunities kept (0..=1).
        keep: f64,
        /// Additional ingress loss probability.
        extra_loss: f64,
    },
}

/// One scripted transition of a [`FlapSchedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapStep {
    /// When the link enters `state`.
    pub at: Instant,
    /// The state entered.
    pub state: LinkState,
}

/// A scripted per-path up/down/degrade sequence — the one link script:
/// handoffs, outages, radio fades, and elevator rides are all data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlapSchedule {
    steps: Vec<FlapStep>,
}

impl FlapSchedule {
    /// Build from steps (sorted by time internally).
    pub fn new(mut steps: Vec<FlapStep>) -> Self {
        steps.sort_by_key(|s| s.at);
        FlapSchedule { steps }
    }

    /// Append a step (builder style; re-sorts).
    pub fn step(mut self, at: Instant, state: LinkState) -> Self {
        self.steps.push(FlapStep { at, state });
        self.steps.sort_by_key(|s| s.at);
        self
    }

    /// A single outage in `[start, end)`.
    pub fn outage(start: Instant, end: Instant) -> Self {
        FlapSchedule::new(vec![
            FlapStep { at: start, state: LinkState::Down },
            FlapStep { at: end, state: LinkState::Up },
        ])
    }

    /// The scripted steps, sorted by time.
    pub fn steps(&self) -> &[FlapStep] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ge_good_state_is_lossless_with_zero_entry() {
        let mut ge = GilbertElliott::new(0.0, 1.0, 0.0, 1.0, Rng::new(1));
        assert!((0..1000).all(|_| !ge.roll()));
    }

    #[test]
    fn ge_bad_state_bursts() {
        // Certain entry, never exits: every packet after the first
        // transition is dropped.
        let mut ge = GilbertElliott::new(1.0, 0.0, 0.0, 1.0, Rng::new(2));
        assert!((0..100).all(|_| ge.roll()));
        assert!(ge.in_bad());
    }

    #[test]
    fn pipeline_without_stages_is_transparent() {
        let mut rng = Rng::new(3);
        let mut p = Pipeline::new(&Impairments::none(), &mut rng);
        let mut payload = vec![7u8; 64];
        let ing = p.on_ingress(&mut payload);
        assert!(!ing.drop && !ing.duplicate && !ing.corrupted);
        assert!(payload.iter().all(|&b| b == 7));
        assert_eq!(p.ship_delay(), Duration::ZERO);
    }

    #[test]
    fn corrupt_stage_always_changes_bytes() {
        let mut rng = Rng::new(4);
        let cfg = Impairments::from(Impairment::Corrupt { prob: 1.0 });
        let mut p = Pipeline::new(&cfg, &mut rng);
        for _ in 0..200 {
            let mut payload = vec![0xa5u8; 48];
            let ing = p.on_ingress(&mut payload);
            assert!(ing.corrupted);
            assert!(payload.iter().any(|&b| b != 0xa5), "corruption must mutate");
        }
    }

    #[test]
    fn reorder_delay_bounded_by_window() {
        let mut rng = Rng::new(5);
        let window = Duration::from_millis(25);
        let cfg = Impairments::from(Impairment::Reorder { prob: 1.0, window });
        let mut p = Pipeline::new(&cfg, &mut rng);
        for _ in 0..500 {
            let d = p.ship_delay();
            assert!(d > Duration::ZERO && d <= window, "d = {d}");
        }
    }
}
