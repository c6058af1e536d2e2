//! `edge_churn`: the single-path engine under connection churn — a
//! thousand handshakes through Retry admission, a flood, and a shard crash.

use super::{guarded, mbps, mix, ms, percentile_ms, Job, Rep, Workload};
use std::time::Instant as Wall;
use xlink_clock::Duration;
use xlink_harness::chaos::CrashPlan;
use xlink_harness::{run_pop, EdgeAttackKind, PopReport, PopRunConfig};
use xlink_lab::Rng;
use xlink_obs::prof;

const USERS: usize = 1200;
/// Bytes per download, before the seed's +-2 %.
const REQUEST_BYTES: u64 = 30_000;
/// Session start spacing, before the seed's +-2 %.
const STAGGER_US: u64 = 2_000;

pub const WORKLOAD: Workload = Workload {
    name: "edge_churn",
    why: "The quic layer used differently: single-path engine, a thousand handshakes, Retry \
          tokens, CID routing, stateless resets, reconnects, not steady state; wall time \
          follows the population.",
    size: "run_pop: 1200 users x 30 KB over 16 addresses with 50 Mbps links, starts 2 ms apart (all +-2 % by seed), \
           shards [1,2,3], Retry admission on, 2 s idle timeout, 10 000-datagram InitialFlood, shard 1 crash-restarted (40 ms) at \
           stagger x 600 + 150 ms, 40 s deadline",
    prepare,
};

struct EdgeChurn {
    cfg: PopRunConfig,
}

fn prepare(seed: u64) -> Box<dyn Job> {
    let _span = prof::span!("bench/edge_churn/setup");
    // Besides the handshakes and the PoP's derivations, the seed perturbs
    // the object size, the link rate and the start spacing a little. Not the
    // link delay: with packets off the links' millisecond grid the world runs
    // more rounds, and since every round walks the whole population, wall
    // time would follow the seed.
    let mut rng = Rng::new(mix(seed, 0xed6e));
    let mut jitter = |base: u64, share: u64| base - base / share + rng.below(2 * base / share);
    let stagger = Duration::from_micros(jitter(STAGGER_US, 50));
    let crash_at = stagger * (USERS as u32 / 2) + Duration::from_millis(150);
    let cfg = PopRunConfig {
        users: USERS,
        addrs: 16,
        shards: vec![1, 2, 3],
        admission: true,
        request_bytes: jitter(REQUEST_BYTES, 50),
        seed,
        deadline: Duration::from_secs(40),
        stagger,
        crash: Some(CrashPlan::single(crash_at, 1, Some(Duration::from_millis(40)))),
        attack: Some((EdgeAttackKind::InitialFlood, 10_000)),
        idle_timeout: Some(Duration::from_secs(2)),
        link_mbps: jitter(50_000, 50) as f64 / 1000.0,
        ..PopRunConfig::default()
    };
    Box::new(EdgeChurn { cfg })
}

impl Job for EdgeChurn {
    fn run(&self) -> Rep {
        let started = Wall::now();
        let report = {
            let _span = prof::span!("bench/edge_churn/run");
            guarded(|| run_pop(&self.cfg))
        };
        let wall = started.elapsed().as_secs_f64();
        let _span = prof::span!("bench/edge_churn/report");
        let mut rep = Rep { unit_wall_s: vec![wall], attempted: USERS as u64, ..Rep::default() };
        match report {
            Some(r) => fill(&mut rep, &r, self.cfg.request_bytes),
            // The whole population ran inside one call: it fails as one.
            None => rep.failed = rep.attempted,
        }
        rep
    }
}

fn fill(rep: &mut Rep, r: &PopReport, request_bytes: u64) {
    rep.check(r.bytes_ok, || "a download saw a corrupt byte".into());
    rep.check(r.amp_ok, || "PoP exceeded the 3x pre-validation send budget".into());
    rep.check(r.bounded.within_caps(), || format!("PoP state over its caps: {:?}", r.bounded));
    rep.check(r.completed <= r.users, || "more downloads completed than users".into());
    // Datagrams the PoP ingested stand in for link packets: `PopReport`
    // does not expose the links.
    rep.packets = r.stats.datagrams_in;
    // Every reconnect is one more connection admitted, served and finished.
    rep.sessions = r.completed as u64 + r.reconnects;
    rep.failed = rep.attempted - r.completed as u64;
    rep.sim = vec![
        // `PopReport` has no per-download times: the request here is the
        // population's, done when the last user has every byte.
        ("rct_p50_ms", ms(r.end)),
        ("goodput_sim_mbps", mbps(r.completed as u64 * request_bytes, r.end.as_secs_f64())),
        ("sim.detect_p50_ms", percentile_ms(&r.detect_times, 50.0)),
        ("sim.recovery_p50_ms", percentile_ms(&r.recovery_times, 50.0)),
    ];
    rep.counts = vec![
        ("edge.admitted", r.stats.admitted as f64),
        ("edge.retries_sent", r.stats.retries_sent as f64),
        ("edge.rejected", r.stats.rejected_total() as f64),
        ("edge.resets_sent", r.stats.resets_sent as f64),
        ("edge.reconnects", r.reconnects as f64),
    ];
}
