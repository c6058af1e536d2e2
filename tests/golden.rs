//! Golden regression oracle: pins the *bytes* of what the harness
//! produces — exported qlog streams, A/B arm aggregates and fleet
//! reports — so that a structural refactor is done
//! when this file passes unchanged. The constants were recorded at the
//! commit before the `Scenario` refactor, through the runner family it
//! replaced (ROADMAP "Quality of design":
//! "a simplification is done when qlog streams and `FleetReport`s are
//! unchanged").
//!
//! The `POP_*` tables pin the edge tier the same way — full qlog and
//! report of six traced fleet-vs-PoP runs, and reports of the benchmark's
//! `edge_churn` fault mix at 300 users — and were recorded at the commit
//! before the PoP tier became event-driven.
//!
//! On a mismatch every differing row is printed as a ready-to-paste table
//! line before the test fails; update a constant only when the change is
//! meant to move the simulation, and say why in CHANGES.md.

use xlink::clock::{Duration, Instant};
use xlink::harness::experiments::ab_tables;
use xlink::harness::fleet::{run_fleet, FleetConfig};
use xlink::harness::{
    handover_scenario, run_pop, run_pop_traced, ChaosPlan, CrashPlan, EdgeAttackKind, PopReport,
    PopRunConfig, Scenario, Scheme, SessionConfig, TransportTuning,
};
use xlink::netsim::{FlapSchedule, LinkConfig, LinkState, Path};
use xlink::obs::TraceLog;
use xlink::video::Video;

const SIZE: u64 = 2_500_000;
const DEADLINE: Duration = Duration::from_secs(60);

/// FNV-1a 64 over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn lossy_paths() -> Vec<Path> {
    let mk = |mbps: f64, delay_ms: u64, seed: u64| {
        let mut cfg = LinkConfig::constant_rate(mbps, Duration::from_millis(delay_ms));
        cfg.loss = 0.01;
        cfg.seed = seed;
        Path::symmetric(cfg)
    };
    vec![mk(18.0, 10, 21), mk(14.0, 27, 22)]
}

const OUTAGE: (u64, u64) = (300, 1500);

/// Path 0 fades, dies and heals; path 1 takes a short fade meanwhile.
fn degraded_flaps() -> Vec<(usize, FlapSchedule)> {
    let at = Instant::from_millis;
    vec![
        (
            0,
            FlapSchedule::default()
                .step(at(200), LinkState::Degraded { keep: 0.3, extra_loss: 0.05 })
                .step(at(1200), LinkState::Down)
                .step(at(1800), LinkState::Up),
        ),
        (
            1,
            FlapSchedule::default()
                .step(at(500), LinkState::Degraded { keep: 0.5, extra_loss: 0.02 })
                .step(at(900), LinkState::Up),
        ),
    ]
}

const HANDOVER: (Duration, Duration) = (Duration::from_millis(400), Duration::from_secs(3));

#[derive(Clone, Copy)]
enum Fault {
    Clean,
    Outage,
    Degraded,
    Chaos(u64),
    Handover,
}

fn lossy() -> Scenario {
    Scenario::new(lossy_paths(), DEADLINE)
}

/// One traced bulk download; the hash of its exported qlog.
fn bulk_qlog(scheme: Scheme, fault: Fault) -> u64 {
    let tuning = TransportTuning::default();
    let log = TraceLog::recording();
    let at = Instant::from_millis;
    let (scenario, seed) = match fault {
        Fault::Clean => (lossy(), 7),
        Fault::Outage => (lossy().with_outage(0, at(OUTAGE.0), at(OUTAGE.1)), 7),
        // Recorded before flapped runs could be traced: the row pins the
        // result's debug rendering instead of a qlog.
        Fault::Degraded => {
            let r = lossy().with_faults(degraded_flaps()).bulk_quic(scheme, &tuning, SIZE, 7, None);
            return fnv(format!("{r:?}").as_bytes());
        }
        Fault::Chaos(s) => (ChaosPlan::new(s).scenario(lossy_paths(), DEADLINE), s),
        Fault::Handover => (handover_scenario(HANDOVER.0, HANDOVER.1, DEADLINE), 7),
    };
    let r = scenario.traced(&log).bulk_quic(scheme, &tuning, SIZE, seed, None);
    assert!(r.download_time.is_some(), "golden bulk run must complete");
    fnv(log.to_qlog("golden").as_bytes())
}

/// A traced video session with a mid-play outage: (qlog hash, result hash).
fn video_outage(scheme: Scheme) -> (u64, u64) {
    let log = TraceLog::recording();
    let mut cfg = SessionConfig::short_video(scheme, 77);
    cfg.video = Video::synth(4, 25, 900_000, 8.0);
    cfg.deadline = DEADLINE;
    cfg.trace = Some(log.clone());
    let at = Instant::from_millis;
    let r = lossy().with_outage(0, at(1500), at(4000)).video(&cfg);
    assert!(r.completed);
    (fnv(log.to_qlog("golden").as_bytes()), fnv(format!("{r:?}").as_bytes()))
}

/// Digest of the streamed per-arm state of a two-day paired A/B study,
/// folded from the public accumulators so it does not depend on which
/// aggregate type carries them.
fn ab_digests() -> [u64; 2] {
    let mut out = [0xcbf2_9ce4_8422_2325u64; 2];
    for day in 1..=2 {
        let mut cfg = ab_tables::day(Scheme::Xlink, day, 3);
        cfg.video = Video::synth(3, 25, 700_000, 8.0);
        cfg.deadline = Duration::from_secs(45);
        let r = run_fleet(&cfg);
        for (h, arm) in out.iter_mut().zip([&r.arm_a, &r.arm_b]) {
            for w in [
                arm.rct.digest(),
                arm.first_frame.digest(),
                arm.rebuffer.digest(),
                arm.play.digest(),
                arm.redundancy.digest(),
            ] {
                *h = (*h ^ w).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    out
}

/// Fleet report at 240 sessions: (digest, hash of the shard-invariant
/// JSON prefix).
fn fleet(shards: u32) -> (u64, u64) {
    let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
    cfg.users_per_day = 240;
    cfg.shards = shards;
    cfg.video = Video::synth(4, 25, 400_000, 8.0);
    cfg.arrival_window = Duration::from_secs(3);
    cfg.deadline = Duration::from_secs(45);
    let r = run_fleet(&cfg);
    let json = r.to_json();
    let prefix = json.split("\"shards\"").next().expect("prefix");
    (r.digest(), fnv(prefix.as_bytes()))
}

/// Compare computed rows against the recorded table; print every
/// mismatch as a paste-ready line, then fail once.
fn check(table: &str, rows: &[(String, u64, u64)]) {
    let bad: Vec<_> = rows.iter().filter(|(_, got, want)| got != want).collect();
    for (name, got, want) in &bad {
        eprintln!("{table}: {name}: recorded 0x{want:016x}, now 0x{got:016x}");
    }
    assert!(bad.is_empty(), "{table}: {} of {} golden rows moved", bad.len(), rows.len());
}

const SCHEMES: [(&str, Scheme); 6] = [
    ("sp", Scheme::Sp { path: 0 }),
    ("cm", Scheme::Cm),
    ("vanilla", Scheme::VanillaMp),
    ("reinj", Scheme::ReinjNoQoe),
    ("xlink", Scheme::Xlink),
    ("mptcp", Scheme::Mptcp),
];

const FAULTS: [(&str, Fault); 7] = [
    ("clean", Fault::Clean),
    ("outage", Fault::Outage),
    ("degraded", Fault::Degraded),
    ("chaos1", Fault::Chaos(1)),
    ("chaos2", Fault::Chaos(2)),
    ("chaos3", Fault::Chaos(3)),
    ("handover", Fault::Handover),
];

/// Recorded qlog hashes, `BULK_QLOG[scheme][fault]` in the order of
/// [`SCHEMES`] × [`FAULTS`] (the `degraded` column hashes the result's
/// debug rendering, see [`bulk_qlog`]). A bulk client sends no QoE
/// feedback, so XLINK rows equal always-on re-injection (the video rows
/// below tell them apart), and CM rows equal SP rows where no outage
/// outlasts CM's 700 ms stall clock.
const BULK_QLOG: [[u64; 7]; 6] = [
    [
        0xb0f5_b301_ee18_4b97,
        0xb86a_1218_8363_ebf2,
        0x3a58_39b1_b870_1eb6,
        0xe2ff_2b1f_3e01_3853,
        0x8f3a_d1bf_eabc_d5dc,
        0xa7cf_1948_8212_8055,
        0x9b54_112c_78bf_c916,
    ],
    [
        0xb0f5_b301_ee18_4b97,
        0xc483_0265_d833_8798,
        0x3a58_39b1_b870_1eb6,
        0x5b3e_223a_765e_0816,
        0xa0d3_aa64_1dda_1d02,
        0xa7cf_1948_8212_8055,
        0x80b5_ef7d_93ec_f43f,
    ],
    [
        0x5cfe_9ba9_9b28_be7f,
        0x5559_9635_a9a7_b2a5,
        0xdeab_bc36_1c5a_d4ed,
        0xd574_2ea6_dd66_2d27,
        0x6307_eb2e_067a_a71d,
        0x5eda_d6af_71fb_5671,
        0xcf34_27a6_12ac_32c9,
    ],
    [
        0x4517_7986_901d_9705,
        0x1d22_2d50_341c_d418,
        0x3200_6ee3_e9bd_c603,
        0x07b3_905e_d67a_0b14,
        0x6ab3_cedb_a75f_657d,
        0x4535_75ca_c34e_b8c0,
        0x01a9_aa00_9726_01c3,
    ],
    [
        0x4517_7986_901d_9705,
        0x1d22_2d50_341c_d418,
        0x3200_6ee3_e9bd_c603,
        0x07b3_905e_d67a_0b14,
        0x6ab3_cedb_a75f_657d,
        0x4535_75ca_c34e_b8c0,
        0x01a9_aa00_9726_01c3,
    ],
    [
        0x9b82_77c6_98b5_b8b8,
        0xf77d_4321_8799_ae14,
        0xcccd_eda5_bd2b_8023,
        0xee75_4269_83bb_f78e,
        0x15ea_8306_8243_6b3a,
        0x13c4_246f_db5b_9724,
        0x67ba_b2ea_4b94_a136,
    ],
];

fn check_bulk_scheme(si: usize) {
    let (sname, scheme) = SCHEMES[si];
    let rows: Vec<_> = FAULTS
        .iter()
        .zip(BULK_QLOG[si])
        .map(|((fname, fault), want)| (format!("{sname}/{fname}"), bulk_qlog(scheme, *fault), want))
        .collect();
    check("BULK_QLOG", &rows);
}

#[test]
fn bulk_qlog_streams_are_pinned_sp() {
    check_bulk_scheme(0);
}

#[test]
fn bulk_qlog_streams_are_pinned_cm() {
    check_bulk_scheme(1);
}

#[test]
fn bulk_qlog_streams_are_pinned_vanilla_mp() {
    check_bulk_scheme(2);
}

#[test]
fn bulk_qlog_streams_are_pinned_reinj_no_qoe() {
    check_bulk_scheme(3);
}

#[test]
fn bulk_qlog_streams_are_pinned_xlink() {
    check_bulk_scheme(4);
}

#[test]
fn bulk_qlog_streams_are_pinned_mptcp() {
    check_bulk_scheme(5);
}

/// (qlog, result) hashes of the traced video session under XLINK and CM.
/// Re-recorded when the video client's 50 ms tick gave way to playback's
/// own deadline.
const VIDEO_OUTAGE: [(u64, u64); 2] = [
    (0x73e4_d715_efec_0783, 0x608e_6ab6_540d_309f),
    (0x527a_9cb7_c73e_beec, 0x4a4e_6104_356b_bbac),
];

#[test]
fn traced_video_sessions_are_pinned() {
    let mut rows = Vec::new();
    for ((name, scheme), want) in
        [("xlink", Scheme::Xlink), ("cm", Scheme::Cm)].iter().zip(VIDEO_OUTAGE)
    {
        let (qlog, result) = video_outage(*scheme);
        rows.push((format!("{name}/qlog"), qlog, want.0));
        rows.push((format!("{name}/result"), result, want.1));
    }
    check("VIDEO_OUTAGE", &rows);
}

/// Re-recorded when the A/B studies moved from their own runner onto
/// paired fleet runs: users are drawn from the fleet's trace pool.
const AB_DIGESTS: [u64; 2] = [0x5f57_2021_0053_7de1, 0xda3c_64b7_f2c9_61bb];

#[test]
fn ab_arm_digests_are_pinned() {
    let got = ab_digests();
    check(
        "AB_DIGESTS",
        &[("arm_a".into(), got[0], AB_DIGESTS[0]), ("arm_b".into(), got[1], AB_DIGESTS[1])],
    );
}

const FLEET: (u64, u64) = (0x2d13_5bf2_c320_0be2, 0x7f24_2b2b_4786_b059);

#[test]
fn fleet_report_is_pinned_for_one_and_four_shards() {
    let mut rows = Vec::new();
    for shards in [1, 4] {
        let (digest, prefix) = fleet(shards);
        rows.push((format!("digest/{shards}"), digest, FLEET.0));
        rows.push((format!("json_prefix/{shards}"), prefix, FLEET.1));
    }
    check("FLEET", &rows);
}

/// 60 users x 200 KB against three shards, 2 s idle timeout: long enough
/// downloads that a fault at 150 ms lands on live connections.
fn pop_base() -> PopRunConfig {
    PopRunConfig {
        users: 60,
        addrs: 16,
        shards: vec![1, 2, 3],
        request_bytes: 200_000,
        seed: 9,
        idle_timeout: Some(Duration::from_secs(2)),
        ..PopRunConfig::default()
    }
}

const POP_FAULT_AT: Duration = Duration::from_millis(150);

fn pop_crash() -> Option<CrashPlan> {
    Some(CrashPlan::single(POP_FAULT_AT, 1, Some(Duration::from_millis(40))))
}

/// Hash of a report's simulated content: its debug rendering up to the
/// work counters (`conn_polls`, `timer_fires`), which count what the
/// runner did on the host and are last in the struct for this reason.
fn pop_report_hash(r: &PopReport) -> u64 {
    let text = format!("{r:?}");
    let sim = text.split(", conn_polls:").next().expect("split yields a first piece");
    fnv(sim.trim_end_matches(" }").as_bytes())
}

/// One traced fleet-vs-PoP run: (full qlog hash, report hash).
fn pop_traced(cfg: &PopRunConfig) -> (u64, u64) {
    let log = TraceLog::recording();
    let r = run_pop_traced(cfg, &log);
    assert!(r.bytes_ok && r.amp_ok, "golden PoP run must stay intact: {r:?}");
    (fnv(log.to_qlog("golden").as_bytes()), pop_report_hash(&r))
}

/// The six traced runs, in the order of [`POP_TRACED`].
fn pop_traced_cases() -> [(&'static str, PopRunConfig); 6] {
    let base = pop_base();
    [
        ("clean", base.clone()),
        ("drain", PopRunConfig { drain: Some((POP_FAULT_AT, 1)), ..base.clone() }),
        ("crash", PopRunConfig { crash: pop_crash(), ..base.clone() }),
        ("crash_mute", PopRunConfig { crash: pop_crash(), stateless_reset: false, ..base.clone() }),
        (
            "token_replay",
            PopRunConfig { attack: Some((EdgeAttackKind::TokenReplay, 120)), ..base.clone() },
        ),
        (
            "grind_drain",
            PopRunConfig {
                attack: Some((EdgeAttackKind::CidGrind, 300)),
                drain: Some((POP_FAULT_AT, 2)),
                ..base
            },
        ),
    ]
}

/// (qlog, report) hashes of [`pop_traced_cases`].
const POP_TRACED: [(u64, u64); 6] = [
    (0x2d9c_ab5f_fdfa_11b4, 0x9b00_ec67_0864_e2c6),
    (0xc5f5_156b_6071_08e9, 0x0d9b_79ac_2482_66ab),
    (0x2cd7_fe93_00e8_85fb, 0xd953_ae23_f477_83aa),
    (0xed9b_cd9f_02ea_0ab9, 0x95fe_8e3a_2b84_995f),
    (0x6798_91c5_0a08_d399, 0xaa99_b03c_c73b_26bb),
    (0xdaa6_df6f_5234_1c8c, 0x5371_a0b6_ae66_c68d),
];

#[test]
fn pop_traced_runs_are_pinned() {
    let mut rows = Vec::new();
    for ((name, cfg), want) in pop_traced_cases().iter().zip(POP_TRACED) {
        let (qlog, report) = pop_traced(cfg);
        rows.push((format!("{name}/qlog"), qlog, want.0));
        rows.push((format!("{name}/report"), report, want.1));
    }
    check("POP_TRACED", &rows);
}

/// The benchmark's `edge_churn` fault mix (Retry admission, a 10 000
/// datagram Initial flood, shard 1 crash-restarted mid-fleet, 30 KB
/// objects) at 300 users.
fn pop_churn(seed: u64) -> u64 {
    let mut cfg = PopRunConfig {
        users: 300,
        addrs: 16,
        shards: vec![1, 2, 3],
        request_bytes: 30_000,
        seed,
        deadline: Duration::from_secs(40),
        attack: Some((EdgeAttackKind::InitialFlood, 10_000)),
        idle_timeout: Some(Duration::from_secs(2)),
        ..PopRunConfig::default()
    };
    let crash_at = cfg.stagger * 150 + Duration::from_millis(150);
    cfg.crash = Some(CrashPlan::single(crash_at, 1, Some(Duration::from_millis(40))));
    pop_report_hash(&run_pop(&cfg))
}

/// Report hashes of [`pop_churn`] for seeds 1, 2, 3.
const POP_CHURN: [u64; 3] = [0xcd81_037f_c10d_57cd, 0x6f5a_e58f_1b37_5ff8, 0x5976_8ebd_c197_ebb0];

#[test]
fn pop_churn_reports_are_pinned() {
    let rows: Vec<_> =
        (1..=3u64).zip(POP_CHURN).map(|(s, w)| (format!("seed{s}"), pop_churn(s), w)).collect();
    check("POP_CHURN", &rows);
}
