//! Robustness sweep (DESIGN §7): a 300 KB bulk download under each
//! impairment class — bursty loss, reordering, duplication, corruption,
//! jitter, a flapping primary, and all of them at once — for single-path
//! QUIC, the MPTCP arm and XLINK, across a seed sweep. The row prints the
//! median completion times and the link-conservation ledger;
//! `tests/impairments.rs` runs [`check`] on the same sweeps, class by class.

use crate::bulk::BulkResult;
use crate::scenario::Scenario;
use crate::transport::{Scheme, TransportTuning};
use xlink_clock::{Duration, Instant};
use xlink_lab::stats::print_table;
use xlink_netsim::{FlapSchedule, Impairment, Impairments, LinkConfig, LinkState, Path};

const SIZE: u64 = 300_000;
const DEADLINE: Duration = Duration::from_secs(60);

/// The sweep's columns.
pub const ARMS: [Scheme; 3] = [Scheme::Sp { path: 0 }, Scheme::Mptcp, Scheme::Xlink];

/// One pathology: what every link direction does to packets, and what
/// the scripted radio does to whole paths.
#[derive(Debug, Clone)]
pub struct Class {
    /// Name in the printed table and in test output.
    pub name: &'static str,
    /// Applied to all four link directions.
    pub impairments: Impairments,
    /// `(path, schedule)` link-state scripts.
    pub flaps: Vec<(usize, FlapSchedule)>,
}

/// Every class of the sweep, in print order.
pub fn classes() -> Vec<Class> {
    let ms = Duration::from_millis;
    let stage = |name, imp: Impairment| Class { name, impairments: imp.into(), flaps: vec![] };
    // Path 0 goes dark early in the sub-second transfer, limps back on a
    // degraded radio, recovers, then blinks once more; path 1 stays healthy.
    let at = Instant::from_millis;
    let flap = FlapSchedule::default()
        .step(at(50), LinkState::Down)
        .step(at(200), LinkState::Degraded { keep: 0.3, extra_loss: 0.05 })
        .step(at(600), LinkState::Up)
        .step(at(900), LinkState::Down)
        .step(at(1100), LinkState::Up);
    // Everything at once, mildly: the "worst day on a train" scenario.
    let combined = Impairments::none()
        .with(Impairment::bursty_loss(0.02, 0.5))
        .with(Impairment::Reorder { prob: 0.15, window: ms(25) })
        .with(Impairment::Duplicate { prob: 0.05 })
        .with(Impairment::Corrupt { prob: 0.03 })
        .with(Impairment::Jitter { sigma: ms(4) });
    vec![
        Class { name: "clean", impairments: Impairments::none(), flaps: vec![] },
        // ~9% average loss in geometric bursts of mean 2 packets.
        stage("bursty_loss", Impairment::bursty_loss(0.05, 0.5)),
        stage("reorder", Impairment::Reorder { prob: 0.3, window: ms(40) }),
        stage("duplicate", Impairment::Duplicate { prob: 0.2 }),
        stage("corrupt", Impairment::Corrupt { prob: 0.1 }),
        stage("jitter", Impairment::Jitter { sigma: ms(8) }),
        Class { name: "flap", impairments: Impairments::none(), flaps: vec![(0, flap)] },
        Class { name: "combined", impairments: combined, flaps: vec![] },
    ]
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

/// One class across the sweep: per seed, the download under each of [`ARMS`].
#[derive(Debug, Clone)]
pub struct ClassSweep {
    /// [`Class::name`].
    pub class: &'static str,
    /// `runs[seed][arm]`.
    pub runs: Vec<[BulkResult; 3]>,
}

impl ClassSweep {
    /// Median completion time of `ARMS[arm]`; `None` if a run stalled.
    pub fn median(&self, arm: usize) -> Option<Duration> {
        let times: Option<Vec<Duration>> = self.runs.iter().map(|r| r[arm].download_time).collect();
        let mut times = times?;
        times.sort_unstable();
        times.get(times.len() / 2).copied()
    }

    /// Every link of every run balances enqueued + duplicated = delivered
    /// + dropped.
    pub fn conserved(&self) -> bool {
        let mut links = self.runs.iter().flatten().flat_map(|r| &r.link_stats);
        links.all(|(up, down)| up.is_conserved() && down.is_conserved())
    }
}

/// Run [`ARMS`] under `class` for seeds `0..seeds`.
pub fn run_class(class: &Class, seeds: u64) -> ClassSweep {
    let tuning = TransportTuning::default();
    let download = |scheme, seed| {
        Scenario::new(impaired_paths(&class.impairments, seed), DEADLINE)
            .with_faults(class.flaps.clone())
            .bulk_quic(scheme, &tuning, SIZE, seed, None)
    };
    let runs = (0..seeds).map(|seed| ARMS.map(|scheme| download(scheme, seed))).collect();
    ClassSweep { class: class.name, runs }
}

/// Run every class.
pub fn run(seeds: u64) -> Vec<ClassSweep> {
    classes().iter().map(|class| run_class(class, seeds)).collect()
}

/// The three differential assertions: (a) no download stalls, (b) every
/// link conserves packets, and (c) the paper's ordering — multipath with
/// QoE-driven re-injection is never meaningfully slower than pinning to
/// one path, whatever the pathology (a small tolerance absorbs per-seed
/// noise at the median).
pub fn check(sweep: &ClassSweep) {
    let class = sweep.class;
    for (seed, run) in sweep.runs.iter().enumerate() {
        for (scheme, r) in ARMS.iter().zip(run) {
            let scheme = scheme.label();
            assert!(
                r.download_time.is_some(),
                "{class}/{scheme} seed {seed}: download stalled (no completion by {DEADLINE})"
            );
            for (i, (up, down)) in r.link_stats.iter().enumerate() {
                assert!(
                    up.is_conserved() && down.is_conserved(),
                    "{class}/{scheme} seed {seed}: path {i} violates conservation: {up:?} {down:?}"
                );
            }
        }
    }
    let (sp, xlink) = (sweep.median(0).expect("no stall"), sweep.median(2).expect("no stall"));
    assert!(sp.mul_f64(1.15) >= xlink, "{class}: xlink median {xlink} worse than sp median {sp}");
}

/// Print the completion-time table.
pub fn print(sweeps: &[ClassSweep]) {
    let seeds = sweeps.first().map_or(0, |s| s.runs.len());
    let rows = sweeps.iter().map(|sweep| {
        let cell = |arm| match sweep.median(arm) {
            Some(t) => format!("{:.0}", t.as_secs_f64() * 1000.0),
            None => "STALL".to_string(),
        };
        let conservation = if sweep.conserved() { "ok" } else { "VIOLATED" };
        vec![sweep.class.to_string(), cell(0), cell(1), cell(2), conservation.to_string()]
    });
    print_table(
        &format!("Impairment sweep: 300 KB download, median of {seeds} seeds (ms)"),
        &["Class", "SP", "MPTCP", "XLINK", "Conservation"],
        &rows.collect::<Vec<_>>(),
    );
    println!(
        "\nExpected shape: XLINK tracks the best path under every pathology;\n\
         SP pinned to the flapping/lossy primary pays the full penalty, and\n\
         every link balances enqueued + duplicated = delivered + dropped."
    );
}
