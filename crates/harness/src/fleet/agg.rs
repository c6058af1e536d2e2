//! Streaming fleet aggregation: constant-memory per-arm statistics that
//! merge *exactly* across shards.
//!
//! Every accumulator here is built from integers (histogram bin counts,
//! fixed-point moment sums, time-binned concurrency deltas), so merging
//! shard partials is plain addition — associative, commutative, and
//! bit-identical no matter how the population was partitioned. That is
//! the mechanism behind the fleet's shard-count-invariance guarantee.

use crate::video_session::SessionResult;
use xlink_clock::{Duration, Instant};
use xlink_lab::stream::{LogHistogram, StreamStat};

/// z-score for the 95% two-sided normal interval.
pub const Z95: f64 = 1.96;

/// Constant-memory aggregate of one contrast arm.
#[derive(Debug, Clone, Default)]
pub struct ArmAgg {
    /// Sessions finalized into this arm.
    pub sessions: u64,
    /// Sessions whose video played to the end before the deadline.
    pub completed: u64,
    /// Chunk request completion times (seconds): full distribution.
    pub rct: LogHistogram,
    /// First-video-frame latency (seconds): full distribution.
    pub first_frame: LogHistogram,
    /// Per-session rebuffer time (seconds).
    pub rebuffer: StreamStat,
    /// Per-session play time (seconds).
    pub play: StreamStat,
    /// Per-session server redundancy ratio (re-injected / payload bytes).
    pub redundancy: StreamStat,
    /// Server wire bytes across sessions.
    pub server_bytes: u64,
    /// Server packets lost across sessions.
    pub packets_lost: u64,
    /// Play time left (seconds of cached frames), sampled every 100 ms
    /// of each session after start-up and before the end: Fig. 10's
    /// buffer level. Filled by the runner, not by [`ArmAgg::absorb`], and
    /// left out of [`ArmAgg::digest`] and [`FleetReport::to_json`], so
    /// those still pin exactly what they pinned before it existed.
    pub buffer: LogHistogram,
}

impl ArmAgg {
    /// Fold one finished session into the aggregate.
    pub fn absorb(&mut self, r: &SessionResult) {
        self.sessions += 1;
        self.completed += r.completed as u64;
        for d in &r.chunk_rct {
            self.rct.record(d.as_secs_f64());
        }
        if let Some(ff) = r.first_frame_latency {
            self.first_frame.record(ff.as_secs_f64());
        }
        self.rebuffer.record(r.player.rebuffer_time.as_secs_f64());
        self.play.record(r.player.play_time.as_secs_f64().max(0.01));
        self.redundancy.record(r.server_transport.redundancy_ratio());
        self.server_bytes += r.server_transport.bytes_sent;
        self.packets_lost += r.server_transport.packets_lost;
    }

    /// Exact integer merge of another shard's partial.
    pub fn merge(&mut self, other: &ArmAgg) {
        self.sessions += other.sessions;
        self.completed += other.completed;
        self.rct.merge(&other.rct);
        self.first_frame.merge(&other.first_frame);
        self.rebuffer.merge(&other.rebuffer);
        self.play.merge(&other.play);
        self.redundancy.merge(&other.redundancy);
        self.server_bytes += other.server_bytes;
        self.packets_lost += other.packets_lost;
        self.buffer.merge(&other.buffer);
    }

    /// The paper's rebuffer rate: total stall time over total play time.
    pub fn rebuffer_rate(&self) -> f64 {
        let play = self.play.sum();
        if play <= 0.0 {
            return 0.0;
        }
        self.rebuffer.sum() / play
    }

    /// Order-independent digest of the full aggregate state.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in [
            self.sessions,
            self.completed,
            self.rct.digest(),
            self.first_frame.digest(),
            self.rebuffer.digest(),
            self.play.digest(),
            self.redundancy.digest(),
            self.server_bytes,
            self.packets_lost,
        ] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Peak-concurrency tracking via time-binned +1/-1 deltas.
///
/// Each session contributes `+1` at its arrival bin and `-1` at its end
/// bin; shard partials merge by adding the delta arrays, and the peak is
/// the max prefix sum — exact at bin granularity and independent of the
/// order sessions were folded in.
#[derive(Debug, Clone)]
pub struct ConcurrencyTrack {
    bin_us: u64,
    deltas: Vec<i64>,
}

impl ConcurrencyTrack {
    /// Track concurrency over `[0, horizon)` at `bin` resolution.
    pub fn new(horizon: Instant, bin: Duration) -> Self {
        let bin_us = bin.as_micros().max(1);
        let bins = (horizon.as_micros() / bin_us + 2) as usize;
        ConcurrencyTrack { bin_us, deltas: vec![0; bins] }
    }

    fn bin(&self, t: Instant) -> usize {
        ((t.as_micros() / self.bin_us) as usize).min(self.deltas.len() - 1)
    }

    /// Record one session's lifetime.
    pub fn record(&mut self, arrival: Instant, end: Instant) {
        let a = self.bin(arrival);
        let e = self.bin(end).max(a);
        self.deltas[a] += 1;
        self.deltas[e] -= 1;
    }

    /// Exact merge of another shard's deltas.
    pub fn merge(&mut self, other: &ConcurrencyTrack) {
        assert_eq!(self.bin_us, other.bin_us, "mismatched concurrency bins");
        assert_eq!(self.deltas.len(), other.deltas.len());
        for (d, o) in self.deltas.iter_mut().zip(&other.deltas) {
            *d += o;
        }
    }

    /// Maximum number of simultaneously live sessions (bin granularity).
    pub fn peak(&self) -> u64 {
        let mut live = 0i64;
        let mut peak = 0i64;
        for &d in &self.deltas {
            live += d;
            peak = peak.max(live);
        }
        peak.max(0) as u64
    }
}

/// Shard-local runtime counters (merged by addition, except maxima).
///
/// `events`, `peak_queue_depth` and `peak_live_sessions` date from the
/// shared event heap and keep their meaning under the heap-free runner,
/// where they are nearly constant: a shard runs its sessions one at a
/// time, each as a single scheduling unit, and queues nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCounters {
    /// Scheduling events processed: one per session, each run to
    /// completion in one go.
    pub events: u64,
    /// Peak event-queue depth observed in this shard: always 0, there is
    /// no queue.
    pub peak_queue_depth: u64,
    /// Peak simultaneously-instantiated sessions in this shard: 1 once
    /// any session ran (simulated overlap is `peak_concurrent`).
    pub peak_live_sessions: u64,
    /// Simulated packets enqueued across all links.
    pub packets: u64,
}

impl ShardCounters {
    /// Merge: sums for totals, max for per-shard peaks.
    pub fn merge(&mut self, o: &ShardCounters) {
        self.events += o.events;
        self.peak_queue_depth = self.peak_queue_depth.max(o.peak_queue_depth);
        self.peak_live_sessions = self.peak_live_sessions.max(o.peak_live_sessions);
        self.packets += o.packets;
    }
}

/// The population-level outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Baseline arm (A).
    pub arm_a: ArmAgg,
    /// Treatment arm (B).
    pub arm_b: ArmAgg,
    /// Fleet-wide peak concurrency (exact merge of shard tracks).
    pub peak_concurrent: u64,
    /// Summed/maxed shard runtime counters.
    pub counters: ShardCounters,
    /// Shards the run was partitioned into.
    pub shards: u32,
    /// Approximate bytes held by the shared trace pool.
    pub trace_pool_bytes: u64,
}

impl FleetReport {
    /// RCT percentile for an arm (seconds).
    pub fn rct_pct(&self, arm_b: bool, p: f64) -> f64 {
        let arm = if arm_b { &self.arm_b } else { &self.arm_a };
        arm.rct.percentile(p)
    }

    /// Improvement of B over A at an RCT percentile (positive = faster).
    pub fn rct_improvement(&self, p: f64) -> f64 {
        xlink_lab::stats::improvement_pct(self.rct_pct(false, p), self.rct_pct(true, p))
    }

    /// Rebuffer-rate improvement of B over A (positive = better).
    pub fn rebuffer_improvement(&self) -> f64 {
        xlink_lab::stats::improvement_pct(self.arm_a.rebuffer_rate(), self.arm_b.rebuffer_rate())
    }

    /// Analytic 95% CI for the difference in mean chunk RCT,
    /// `mean(A) − mean(B)` in seconds (positive = B faster). Two-sample
    /// normal interval — no bootstrap, O(1) from the streaming moments.
    pub fn rct_mean_diff_ci(&self) -> (f64, f64, f64) {
        let (a, b) = (self.arm_a.rct.stat(), self.arm_b.rct.stat());
        let diff = a.mean() - b.mean();
        let se = (a.variance() / a.count().max(1) as f64 + b.variance() / b.count().max(1) as f64)
            .sqrt();
        (diff - Z95 * se, diff, diff + Z95 * se)
    }

    /// Analytic 95% CI for the difference in per-session rebuffer time,
    /// `mean(A) − mean(B)` in seconds (positive = B better).
    pub fn rebuffer_mean_diff_ci(&self) -> (f64, f64, f64) {
        let (a, b) = (&self.arm_a.rebuffer, &self.arm_b.rebuffer);
        let diff = a.mean() - b.mean();
        let se = (a.variance() / a.count().max(1) as f64 + b.variance() / b.count().max(1) as f64)
            .sqrt();
        (diff - Z95 * se, diff, diff + Z95 * se)
    }

    /// Order-independent digest of everything shard-invariant in the
    /// report (runtime peaks like queue depth are *per-shard* facts and
    /// deliberately excluded).
    pub fn digest(&self) -> u64 {
        let mut h = 0x6a09_e667_f3bc_c908u64;
        for w in
            [self.arm_a.digest(), self.arm_b.digest(), self.peak_concurrent, self.counters.packets]
        {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Canonical one-line JSON (stable key order; shard-invariant fields
    /// first, then runtime diagnostics).
    pub fn to_json(&self) -> String {
        let arm = |a: &ArmAgg| {
            format!(
                concat!(
                    "{{\"sessions\":{},\"completed\":{},",
                    "\"rct_p50_s\":{:.6},\"rct_p95_s\":{:.6},\"rct_p99_s\":{:.6},",
                    "\"first_frame_p50_s\":{:.6},\"rebuffer_rate\":{:.6},",
                    "\"redundancy_mean\":{:.6}}}"
                ),
                a.sessions,
                a.completed,
                a.rct.percentile(50.0),
                a.rct.percentile(95.0),
                a.rct.percentile(99.0),
                a.first_frame.percentile(50.0),
                a.rebuffer_rate(),
                a.redundancy.mean(),
            )
        };
        let (lo, mid, hi) = self.rct_mean_diff_ci();
        format!(
            concat!(
                "{{\"digest\":\"{:016x}\",\"peak_concurrent\":{},",
                "\"arm_a\":{},\"arm_b\":{},",
                "\"rct_mean_diff_ci_s\":[{:.6},{:.6},{:.6}],",
                "\"rct_p50_improvement_pct\":{:.3},",
                "\"rebuffer_improvement_pct\":{:.3},",
                "\"shards\":{},\"events\":{},\"packets\":{},",
                "\"peak_queue_depth\":{},\"peak_live_sessions\":{},",
                "\"trace_pool_bytes\":{}}}"
            ),
            self.digest(),
            self.peak_concurrent,
            arm(&self.arm_a),
            arm(&self.arm_b),
            lo,
            mid,
            hi,
            self.rct_improvement(50.0),
            self.rebuffer_improvement(),
            self.shards,
            self.counters.events,
            self.counters.packets,
            self.counters.peak_queue_depth,
            self.counters.peak_live_sessions,
            self.trace_pool_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_track_counts_overlap() {
        let mut t = ConcurrencyTrack::new(Instant::from_secs(10), Duration::from_millis(100));
        t.record(Instant::from_secs(1), Instant::from_secs(5));
        t.record(Instant::from_secs(2), Instant::from_secs(6));
        t.record(Instant::from_secs(7), Instant::from_secs(8));
        assert_eq!(t.peak(), 2);
    }

    #[test]
    fn concurrency_merge_is_exact() {
        let mk = || ConcurrencyTrack::new(Instant::from_secs(10), Duration::from_millis(100));
        let mut whole = mk();
        let (mut s1, mut s2) = (mk(), mk());
        let spans = [(0u64, 4u64), (1, 5), (2, 3), (3, 9), (4, 6), (5, 7)]
            .map(|(a, b)| (Instant::from_secs(a), Instant::from_secs(b)));
        for (i, (a, b)) in spans.iter().enumerate() {
            whole.record(*a, *b);
            if i % 2 == 0 {
                s1.record(*a, *b)
            } else {
                s2.record(*a, *b)
            }
        }
        s1.merge(&s2);
        assert_eq!(whole.peak(), s1.peak());
        assert_eq!(whole.deltas, s1.deltas);
    }

    #[test]
    fn arm_digest_changes_with_content() {
        let mut a = ArmAgg::default();
        let b = ArmAgg::default();
        assert_eq!(a.digest(), b.digest());
        a.sessions = 1;
        a.rebuffer.record(0.25);
        assert_ne!(a.digest(), b.digest());
    }
}
