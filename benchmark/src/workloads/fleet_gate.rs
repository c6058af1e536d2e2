//! `fleet_gate`: the ROADMAP's 10k-session fleet gate at reduced population.

use super::{guarded, mbps, Job, Rep, Workload};
use crate::stats::tail_percentile;
use std::time::Instant as Wall;
use xlink_clock::Duration;
use xlink_harness::{run_fleet, FleetConfig, FleetReport, Scheme};
use xlink_lab::stats::improvement_pct;
use xlink_obs::prof;
use xlink_video::Video;

const SESSIONS: u64 = 600;

pub const WORKLOAD: Workload = Workload {
    name: "fleet_gate",
    why: "Many short sessions on mostly idle 20 Mbps links: admit/handshake/finalize, the \
          event heap, idle-link trace walking and the player dominate; the only place the \
          population engine shows.",
    size: "run_fleet SP{0} vs XLINK, 600 sessions in one day, Video::synth(4,25,400_000,8.0), \
           3 s arrival window, 45 s deadline, trace pool 32, 2 shards",
    prepare,
};

struct FleetGate {
    cfg: FleetConfig,
}

fn prepare(seed: u64) -> Box<dyn Job> {
    let _span = prof::span!("bench/fleet_gate/setup");
    let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
    cfg.users_per_day = SESSIONS;
    cfg.days = 1;
    cfg.video = Video::synth(4, 25, 400_000, 8.0);
    cfg.arrival_window = Duration::from_secs(3);
    cfg.deadline = Duration::from_secs(45);
    cfg.trace_pool = 32;
    cfg.shards = 2;
    cfg.seed = seed;
    Box::new(FleetGate { cfg })
}

impl Job for FleetGate {
    fn run(&self) -> Rep {
        let started = Wall::now();
        let report = {
            let _span = prof::span!("bench/fleet_gate/run");
            guarded(|| run_fleet(&self.cfg))
        };
        let wall = started.elapsed().as_secs_f64();
        let _span = prof::span!("bench/fleet_gate/report");
        let mut rep =
            Rep { unit_wall_s: vec![wall], attempted: self.cfg.sessions_total(), ..Rep::default() };
        match report {
            Some(r) => self.fill(&mut rep, &r),
            // The whole population ran inside one call: it fails as one.
            None => rep.failed = rep.attempted,
        }
        rep
    }
}

impl FleetGate {
    fn fill(&self, rep: &mut Rep, r: &FleetReport) {
        let (sp, xl) = (&r.arm_a, &r.arm_b);
        rep.packets = r.counters.packets;
        rep.sessions = sp.sessions + xl.sessions;
        rep.failed = rep.attempted - (sp.completed + xl.completed).min(rep.attempted);
        let (ran, planned) = (rep.sessions, rep.attempted);
        rep.check(ran == planned, || format!("fleet ran {ran} sessions of {planned} planned"));
        rep.check(sp.sessions > 0 && xl.sessions > 0, || "an arm is empty".into());
        rep.check(sp.completed <= sp.sessions && xl.completed <= xl.sessions, || {
            "more sessions completed than ran".into()
        });

        // Both arms are read at the tail the smaller one supports.
        let tail = tail_percentile(sp.rct.count().min(xl.rct.count()));
        let xl_tail = xl.rct.percentile(tail) * 1e3;
        // The end-to-end pair is over every request of the workload, both arms.
        let mut all_rct = sp.rct.clone();
        all_rct.merge(&xl.rct);
        let played_bytes = (sp.completed + xl.completed) * self.cfg.video.total_bytes();
        rep.sim = vec![
            ("rct_p50_ms", all_rct.percentile(50.0) * 1e3),
            ("goodput_sim_mbps", mbps(played_bytes, all_rct.stat().sum())),
            ("sim.rct_tail_ms", xl_tail),
            ("sim.rct_tail_pct", tail),
            ("sim.rct_samples", xl.rct.count() as f64),
            ("sim.rct_tail_gain_pct", improvement_pct(sp.rct.percentile(tail) * 1e3, xl_tail)),
            ("sim.rebuffer_rate_pct", xl.rebuffer_rate() * 100.0),
            ("sim.base_rebuffer_rate_pct", sp.rebuffer_rate() * 100.0),
            ("sim.first_frame_p50_ms", xl.first_frame.percentile(50.0) * 1e3),
            ("sim.redundancy_pct", xl.redundancy.mean() * 100.0),
        ];
        rep.counts = vec![
            ("netsim.packets", r.counters.packets as f64),
            ("quic.packets_lost", (sp.packets_lost + xl.packets_lost) as f64),
            ("fleet.events", r.counters.events as f64),
            ("fleet.peak_queue_depth", r.counters.peak_queue_depth as f64),
            ("fleet.peak_live_sessions", r.counters.peak_live_sessions as f64),
        ];
    }
}
