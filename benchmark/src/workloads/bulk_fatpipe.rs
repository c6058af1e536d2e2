//! `bulk_fatpipe`: saturated clean links, where per-packet cost is the
//! whole story ("QUIC is not Quick Enough over Fast Internet").

use super::{guarded, mbps, mix, percentile_ms, Job, Rep, TransportTotals, Workload};
use crate::stats::tail_percentile;
use std::time::Instant as Wall;
use xlink_clock::Duration;
use xlink_harness::{run_bulk_quic, BulkResult, Scheme, TransportTuning};
use xlink_lab::Rng;
use xlink_netsim::{LinkConfig, Path};
use xlink_obs::prof;

const TRANSFERS: usize = 8;
const TRANSFER_BYTES: u64 = 16 << 20;
const DEADLINE: Duration = Duration::from_secs(30);

pub const WORKLOAD: Workload = Workload {
    name: "bulk_fatpipe",
    why: "Links saturated with full-size packets, no loss, no re-injection, no player: AEAD, \
          header/frame codec, streams, recovery and the receive path are the whole cost.",
    size: "8 sequential run_bulk_quic(VanillaMp, 16 MiB) over clean constant-rate 200 Mbps/5 ms \
           + 100 Mbps/12 ms paths (rates and delays jittered +-1 %/+-10 % by the seed)",
    prepare,
};

struct Transfer {
    seed: u64,
    /// Link configuration of each path (both directions alike).
    links: [LinkConfig; 2],
}

struct BulkFatpipe {
    tuning: TransportTuning,
    transfers: Vec<Transfer>,
}

fn prepare(seed: u64) -> Box<dyn Job> {
    let _span = prof::span!("bench/bulk_fatpipe/setup");
    let mut rng = Rng::new(mix(seed, 0xb01c));
    // The seed perturbs rate and delay a little, so transfers differ from
    // each other and from seed to seed while the links stay clean.
    let mut link = |mbps: f64, delay_us: u64| {
        let rate = mbps * (0.99 + 0.02 * rng.f64());
        let delay = delay_us * 9 / 10 + rng.below(delay_us / 5);
        LinkConfig::constant_rate(rate, Duration::from_micros(delay))
    };
    let transfers = (0..TRANSFERS)
        .map(|i| Transfer {
            seed: mix(seed, i as u64),
            links: [link(200.0, 5_000), link(100.0, 12_000)],
        })
        .collect();
    Box::new(BulkFatpipe { tuning: TransportTuning::default(), transfers })
}

impl Job for BulkFatpipe {
    fn run(&self) -> Rep {
        let mut rep = Rep { attempted: TRANSFERS as u64, ..Rep::default() };
        let mut results: Vec<BulkResult> = Vec::with_capacity(TRANSFERS);
        for t in &self.transfers {
            let started = Wall::now();
            let result = {
                let _span = prof::span!("bench/bulk_fatpipe/run");
                guarded(|| {
                    let paths = t.links.iter().cloned().map(Path::symmetric).collect();
                    run_bulk_quic(
                        Scheme::VanillaMp,
                        &self.tuning,
                        TRANSFER_BYTES,
                        t.seed,
                        paths,
                        Vec::new(),
                        DEADLINE,
                    )
                })
            };
            rep.unit_wall_s.push(started.elapsed().as_secs_f64());
            results.extend(result);
        }
        let _span = prof::span!("bench/bulk_fatpipe/report");
        fill(&mut rep, &results);
        rep
    }
}

fn fill(rep: &mut Rep, results: &[BulkResult]) {
    let mut times = Vec::new();
    let mut totals = TransportTotals::default();
    let (mut drops, mut delivered) = (0u64, 0u64);
    for (i, r) in results.iter().enumerate() {
        let received = r.bytes_received;
        rep.check(received <= TRANSFER_BYTES, || format!("transfer {i} received {received} B"));
        for (up, down) in &r.link_stats {
            rep.check(up.is_conserved() && down.is_conserved(), || {
                format!("transfer {i}: link packets not conserved")
            });
            rep.packets += up.enqueued + down.enqueued;
            drops += up.dropped + down.dropped;
            delivered += up.delivered_bytes + down.delivered_bytes;
        }
        for t in r.client_transport.iter().chain(&r.server_transport) {
            totals.add(t);
        }
        if let (Some(t), true) = (r.download_time, received == TRANSFER_BYTES) {
            times.push(t);
        }
    }
    rep.sessions = times.len() as u64;
    rep.failed = rep.attempted - rep.sessions;
    let tail = tail_percentile(times.len() as u64);
    let total_s: f64 = times.iter().map(|t| t.as_secs_f64()).sum();
    rep.sim = vec![
        ("rct_p50_ms", percentile_ms(&times, 50.0)),
        ("goodput_sim_mbps", mbps(rep.sessions * TRANSFER_BYTES, total_s)),
        ("sim.rct_tail_ms", percentile_ms(&times, tail)),
        ("sim.rct_tail_pct", tail),
        ("sim.rct_samples", times.len() as f64),
    ];
    rep.counts = vec![("netsim.drops", drops as f64), ("netsim.bytes_delivered", delivered as f64)];
    rep.add_transport_counts(&totals);
}
