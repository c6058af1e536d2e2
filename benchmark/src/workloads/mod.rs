//! The four workloads. Each is fixed work generated from the seed: `prepare`
//! builds the inputs (set-up, outside the timed region) and `run` executes
//! one repetition, identical every time it is called.
//!
//! Traffic never touches a socket or the loopback interface: everything is
//! in-process discrete-event emulation, so *host time* (wall clock of the
//! simulator, `unit_wall_s`) and *simulated time* (what the modelled
//! network and player would take, `sim`) are different axes.

mod bulk_fatpipe;
mod edge_churn;
mod fleet_gate;
mod mobility_video;

use std::panic::{catch_unwind, AssertUnwindSafe};
use xlink_clock::Duration;
use xlink_harness::TransportStats;

/// One repetition's results.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds per unit of work (a transfer, a session, or the whole
    /// population run); same length and order on every repetition.
    pub unit_wall_s: Vec<f64>,
    /// Packets enqueued on emulated links (edge_churn: datagrams the PoP
    /// ingested).
    pub packets: u64,
    /// Sessions / transfers / downloads finished.
    pub sessions: u64,
    /// Operations attempted and failed (deadline missed, caught panic).
    pub attempted: u64,
    pub failed: u64,
    /// Simulated results by metric name — exact for a given seed.
    pub sim: Vec<(&'static str, f64)>,
    /// Exact workload counts by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Host-time extras by per-layer metric name (median over repetitions).
    pub host: Vec<(&'static str, f64)>,
    /// Output checks that failed; any entry fails the run.
    pub errors: Vec<String>,
}

impl Rep {
    /// Hash of every simulated result and count. Must not change between
    /// repetitions, nor between a traced and an untraced run.
    pub fn sim_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for w in [self.packets, self.sessions, self.attempted, self.failed] {
            mix(w);
        }
        for (name, v) in self.sim.iter().chain(&self.counts) {
            name.bytes().for_each(|b| mix(u64::from(b)));
            mix(v.to_bits());
        }
        h
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn add_transport_counts(&mut self, totals: &TransportTotals) {
        self.counts.extend([
            ("quic.packets_lost", totals.packets_lost as f64),
            ("quic.spurious_losses", totals.spurious_losses as f64),
            ("quic.retx_bytes", totals.retx_bytes as f64),
            ("quic.handshake_retx", totals.handshake_retx as f64),
            ("core.reinjected_bytes", totals.reinjected_bytes as f64),
        ]);
    }
}

/// Transport counters summed over both ends of every connection of a rep.
#[derive(Debug, Default)]
struct TransportTotals {
    packets_lost: u64,
    spurious_losses: u64,
    retx_bytes: u64,
    handshake_retx: u64,
    reinjected_bytes: u64,
}

impl TransportTotals {
    fn add(&mut self, t: &TransportStats) {
        self.packets_lost += t.packets_lost;
        self.spurious_losses += t.spurious_losses;
        self.retx_bytes += t.stream_bytes_retransmitted;
        self.handshake_retx += t.handshake_retransmits;
        self.reinjected_bytes += t.reinjected_bytes;
    }
}

/// A prepared workload: inputs built, ready to repeat.
pub trait Job {
    fn run(&self) -> Rep;
}

/// A workload's registry entry.
pub struct Workload {
    pub name: &'static str,
    /// One sentence: why this workload is in the benchmark.
    pub why: &'static str,
    /// Final size, recorded next to the results.
    pub size: &'static str,
    pub prepare: fn(u64) -> Box<dyn Job>,
}

pub const WORKLOADS: [Workload; 4] =
    [fleet_gate::WORKLOAD, bulk_fatpipe::WORKLOAD, mobility_video::WORKLOAD, edge_churn::WORKLOAD];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run one operation so that a panic inside the crates counts as one failed
/// operation instead of aborting the run.
fn guarded<T>(op: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(op)).ok()
}

/// Derive an independent input seed from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    xlink_harness::fleet::stable_hash(&[seed, salt])
}

fn ms(d: Duration) -> f64 {
    d.as_micros() as f64 / 1000.0
}

/// Nearest-rank percentile of exact samples (ms).
fn percentile_ms(samples: &[Duration], p: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&d| ms(d)).collect();
    xlink_lab::stats::percentile(&v, p)
}

/// Mbit/s of `bytes` over `seconds` of simulated time.
fn mbps(bytes: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 * 8.0 / seconds / 1e6
    } else {
        0.0
    }
}
