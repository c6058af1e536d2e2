//! Fleet planning: who plays, when, on which paths, in which arm.
//!
//! Everything here is a pure function of the fleet seed and the stable
//! `(day, user)` identity — never of shard count or iteration order — so
//! any partition of the population across worker shards reproduces the
//! same sessions bit-for-bit. Arrivals are drawn Poisson-style (i.i.d.
//! exponential gaps) from a per-day RNG replayed identically by every
//! shard; arm assignment is a salted hash of the user identity, mirroring
//! the paper's randomized contrast groups (§7.1: users are split into
//! contrast groups at the granularity of a user, not a request). A
//! *paired* fleet plays every user under both arms instead.

use crate::par;
use crate::scenario::PathSpec;
use std::sync::{Arc, Mutex, Weak};
use xlink_clock::{Duration, Instant};
use xlink_core::{Scheme, TransportTuning, WirelessTech};
use xlink_lab::Rng;
use xlink_traces::Trace;
use xlink_video::Video;

/// Stable 64-bit mix of identity words (splitmix64 over a running FNV
/// combine). Used for sharding, arm assignment, and per-user seeds.
pub fn stable_hash(words: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &w in words {
        h ^= w;
        h = xlink_lab::rng::mix(h.wrapping_add(0x9e37_79b9_7f4a_7c15));
    }
    h
}

/// Which shard owns `(user, day)`. Stable under everything except the
/// shard count itself; the aggregation layer makes shard count
/// observationally irrelevant (exact merges).
pub fn shard_of(user: u64, day: u64, shards: u32) -> u32 {
    const SHARD_SALT: u64 = 0x5aad_0f5e_ed00_0001;
    (stable_hash(&[user, day, SHARD_SALT]) % shards.max(1) as u64) as u32
}

/// Configuration for a population-scale fleet RCT.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Baseline scheme (arm A).
    pub scheme_a: Scheme,
    /// Treatment scheme (arm B).
    pub scheme_b: Scheme,
    /// Days simulated (each day is a disjoint span of the timeline).
    pub days: u64,
    /// Sessions started per day.
    pub users_per_day: u64,
    /// The video every user plays.
    pub video: Video,
    /// Per-session wall-clock limit.
    pub deadline: Duration,
    /// HTTP range size per chunk request.
    pub chunk_bytes: u64,
    /// Window at the start of each day within which every session
    /// arrives (Poisson-like). Shorter than a session ⇒ the whole day's
    /// population is concurrently live.
    pub arrival_window: Duration,
    /// Worker shards the population is partitioned across.
    pub shards: u32,
    /// Fleet seed: salts arms, arrivals, traces, and session RNGs.
    pub seed: u64,
    /// Distinct trace archetypes per technology in the shared pool.
    pub trace_pool: usize,
    /// Play every planned user under both arms, on the same drawn paths
    /// and session seed (the A/B studies' variance reduction), instead of
    /// in the one arm the salted hash assigns.
    pub paired: bool,
    /// Transport tuning of every session (Fig. 10 sweeps its thresholds).
    pub tuning: TransportTuning,
    /// Extra one-way delay on every user's LTE path (Fig. 12's large
    /// delay difference).
    pub lte_extra_delay: Duration,
}

impl FleetConfig {
    /// Defaults sized for a population run: a short drain-limited video
    /// so thousands of sessions overlap, arrivals packed into a window
    /// one quarter of the session length.
    pub fn new(scheme_a: Scheme, scheme_b: Scheme) -> Self {
        FleetConfig {
            scheme_a,
            scheme_b,
            days: 1,
            users_per_day: 1000,
            // 12 s at 400 kbps with the default 5 s bounded buffer: the
            // session is drain-limited to ~7+ s of virtual time, so an
            // arrival window of 4 s keeps a day's population concurrent.
            video: Video::synth(12, 25, 400_000, 8.0),
            deadline: Duration::from_secs(60),
            chunk_bytes: 64 * 1024,
            arrival_window: Duration::from_secs(4),
            shards: 4,
            seed: 1,
            trace_pool: 32,
            paired: false,
            tuning: TransportTuning::default(),
            lte_extra_delay: Duration::ZERO,
        }
    }

    /// Total sessions across all days.
    pub fn sessions_total(&self) -> u64 {
        self.days * self.users_per_day
    }

    /// Length of one day's span on the global timeline (every session
    /// of day d starts and ends inside `[d·span, (d+1)·span)`).
    pub fn day_span(&self) -> Duration {
        self.arrival_window + self.deadline
    }

    /// End of the timeline.
    pub fn horizon(&self) -> Instant {
        Instant::ZERO + Duration::from_micros(self.day_span().as_micros() * self.days.max(1))
    }
}

/// One planned session: identity, arm, arrival, and RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct SessionPlan {
    /// Day index (0-based).
    pub day: u64,
    /// User index within the day (0-based).
    pub user: u64,
    /// True for the treatment arm (B); a paired fleet plays both.
    pub arm_b: bool,
    /// Global arrival time on the fleet timeline.
    pub arrival: Instant,
    /// Session RNG seed (stable per identity).
    pub seed: u64,
}

/// Lazily yields every session of the fleet in canonical `(day, user)`
/// order with O(1) memory. Every shard replays the same iterator and
/// keeps only its own sessions, so arrival draws are identical no
/// matter how the population is partitioned.
pub struct PlanIter {
    cfg_seed: u64,
    days: u64,
    users_per_day: u64,
    window_us: u64,
    day_span_us: u64,
    day: u64,
    user: u64,
    /// Per-day arrival process state.
    arrivals: Rng,
    clock_us: u64,
    mean_gap_us: f64,
}

impl PlanIter {
    /// Plan iterator for a fleet configuration.
    pub fn new(cfg: &FleetConfig) -> Self {
        let mut it = PlanIter {
            cfg_seed: cfg.seed,
            days: cfg.days,
            users_per_day: cfg.users_per_day,
            window_us: cfg.arrival_window.as_micros(),
            day_span_us: cfg.day_span().as_micros(),
            day: 0,
            user: 0,
            arrivals: Rng::new(0),
            clock_us: 0,
            mean_gap_us: 0.0,
        };
        it.start_day(0);
        it
    }

    fn start_day(&mut self, day: u64) {
        self.day = day;
        self.user = 0;
        self.clock_us = 0;
        self.arrivals = Rng::new(stable_hash(&[self.cfg_seed, day, 0x0a77_17a1]));
        self.mean_gap_us = self.window_us as f64 / (self.users_per_day.max(1) as f64 + 1.0);
    }
}

impl Iterator for PlanIter {
    type Item = SessionPlan;

    fn next(&mut self) -> Option<SessionPlan> {
        if self.day >= self.days {
            return None;
        }
        // Poisson-like arrival: exponential gap, clamped into the window.
        let u = self.arrivals.f64();
        let gap = -(1.0 - u).ln() * self.mean_gap_us;
        self.clock_us = (self.clock_us + gap.round().max(0.0) as u64).min(self.window_us);
        let arrival = Instant::from_micros(self.day * self.day_span_us + self.clock_us);
        let (day, user) = (self.day, self.user);
        let plan = SessionPlan {
            day,
            user,
            arm_b: stable_hash(&[self.cfg_seed, day, user, 0xa2a2]) & 1 == 1,
            arrival,
            seed: stable_hash(&[self.cfg_seed, day, user, 0x5e5e]),
        };
        self.user += 1;
        if self.user >= self.users_per_day {
            let next_day = self.day + 1;
            if next_day < self.days {
                self.start_day(next_day);
            } else {
                self.day = self.days;
            }
        }
        Some(plan)
    }
}

/// The drawn parameters of one pool trace.
enum Archetype {
    /// Walking Wi-Fi, out of service over `outage_ms` (a window past the
    /// end of the trace: no outage).
    Wifi { seed: u64, outage_ms: (u64, u64) },
    /// Degraded (HSR-style) cellular.
    Hsr { seed: u64 },
    /// Stable LTE.
    Lte { seed: u64 },
}

impl Archetype {
    /// `size` (at least one) Wi-Fi and cellular archetypes, alternating.
    fn draw_all(seed: u64, size: usize, dur: u64) -> Vec<Archetype> {
        let mut rng = Rng::new(stable_hash(&[seed, 0x7ace_b00c]));
        let mut draws = Vec::with_capacity(2 * size.max(1));
        for _ in 0..size.max(1) {
            let wifi_seed = rng.next_u64();
            let outage_ms = if rng.chance(0.6) {
                let start = 1_500 + rng.below(dur.saturating_sub(9_000).max(1));
                let len = 2_000 + rng.below(6_000);
                (start, start + len)
            } else {
                (dur + 1, dur + 2)
            };
            draws.push(Archetype::Wifi { seed: wifi_seed, outage_ms });
            draws.push(if rng.chance(0.2) {
                Archetype::Hsr { seed: rng.next_u64() }
            } else {
                Archetype::Lte { seed: rng.next_u64() }
            });
        }
        draws
    }

    fn generate(&self, dur: u64) -> Trace {
        match *self {
            Archetype::Wifi { seed, outage_ms: (from, to) } => {
                xlink_traces::walking_wifi_with_outage(seed, dur, from, to)
            }
            Archetype::Hsr { seed } => xlink_traces::hsr_cellular(seed, dur),
            Archetype::Lte { seed } => xlink_traces::stable_lte(seed, dur),
        }
    }
}

/// The pools [`TracePool::shared`] hands out: each one a run still holds,
/// by `(seed, size, duration_ms)`, and the last one asked for.
struct SharedPools {
    held: Vec<((u64, usize, u64), Weak<TracePool>)>,
    last: Option<Arc<TracePool>>,
}

/// The shared trace library: a bounded set of Wi-Fi and LTE archetypes
/// every user's paths are drawn from. Traces are `Arc`-backed, so 10k
/// concurrent links replay O(pool) trace memory, not O(sessions) — the
/// paper's methodology (replayed recorded traces) and our memory budget
/// point the same way.
#[derive(Debug, Clone)]
pub struct TracePool {
    wifi: Vec<Trace>,
    lte: Vec<Trace>,
}

impl TracePool {
    /// Generate a pool of `size` archetypes per technology: 60% of Wi-Fi
    /// archetypes carry a mid-session outage whose position and length
    /// vary, 20% of cellular archetypes are degraded (HSR-style: congested
    /// cell or fringe coverage, so some users are bad on *both* paths)
    /// rather than stable.
    ///
    /// Every archetype's parameters come from the pool's one RNG, in order;
    /// the traces themselves, each a function of its own drawn seed, are
    /// then generated side by side.
    pub fn generate(seed: u64, size: usize, duration_ms: u64) -> TracePool {
        let draws = Archetype::draw_all(seed, size, duration_ms);
        let mut traces = par::map(draws.len(), |i| draws[i].generate(duration_ms)).into_iter();
        let (mut wifi, mut lte) = (Vec::with_capacity(size), Vec::with_capacity(size));
        while let (Some(w), Some(l)) = (traces.next(), traces.next()) {
            wifi.push(w);
            lte.push(l);
        }
        TracePool { wifi, lte }
    }

    /// [`TracePool::generate`] behind an `Arc`, built once per `(seed,
    /// size, duration_ms)`: while a run holds that pool, or while it is the
    /// last one asked for. A run repeated at one seed (a benchmark's
    /// repetitions, a sweep over tunings) shares one pool; the process
    /// keeps one more than its runs hold, not one per seed.
    pub(crate) fn shared(seed: u64, size: usize, duration_ms: u64) -> Arc<TracePool> {
        static POOLS: Mutex<SharedPools> = Mutex::new(SharedPools { held: Vec::new(), last: None });
        let key = (seed, size, duration_ms);
        // Held while generating: a caller asking for the same pool
        // meanwhile waits for it instead of building its own. A generation
        // that panicked changed nothing, so the cache is still whole.
        let mut pools = POOLS.lock().unwrap_or_else(|e| e.into_inner());
        let found = pools.held.iter().find(|(k, _)| *k == key).and_then(|(_, pool)| pool.upgrade());
        let pool = found.unwrap_or_else(|| {
            let pool = Arc::new(TracePool::generate(seed, size, duration_ms));
            pools.held.retain(|(_, pool)| pool.strong_count() > 0);
            pools.held.push((key, Arc::downgrade(&pool)));
            pool
        });
        pools.last = Some(Arc::clone(&pool));
        pool
    }

    /// Heap bytes the pool's opportunity counts hold (the fleet's
    /// trace-memory gauge).
    pub fn approx_bytes(&self) -> u64 {
        self.wifi.iter().chain(self.lte.iter()).map(|t| t.opportunities_ms.heap_bytes()).sum()
    }

    /// Draw the two access paths for `(day, user)`: pool archetypes plus
    /// per-user delay/loss jitter and the §3.2 cross-ISP inflation for a
    /// minority of users. Depends only on identity and the fleet seed.
    pub fn draw_user_paths(&self, fleet_seed: u64, day: u64, user: u64) -> (PathSpec, PathSpec) {
        let mut rng = Rng::new(stable_hash(&[fleet_seed, day, user, 0xd4a3]));
        let wifi = self.wifi[(rng.below(self.wifi.len() as u64)) as usize].clone();
        let lte = self.lte[(rng.below(self.lte.len() as u64)) as usize].clone();
        let mut wifi_spec = PathSpec::new(WirelessTech::Wifi, wifi, rng.next_u64());
        let mut lte_spec = PathSpec::new(WirelessTech::Lte, lte, rng.next_u64());
        wifi_spec = wifi_spec
            .with_extra_delay(Duration::from_millis(rng.below(8)))
            .with_loss(0.0005 + rng.f64() * 0.004);
        lte_spec = lte_spec
            .with_extra_delay(Duration::from_millis(rng.below(15)))
            .with_loss(0.0005 + rng.f64() * 0.003);
        if rng.chance(0.4) {
            lte_spec = lte_spec.with_cross_isp(rng.below(3) as usize, rng.below(3) as usize);
        }
        (wifi_spec, lte_spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool as it was generated before the traces went through
    /// [`par::map`]: one loop, parameters drawn and each trace generated in
    /// turn. Kept as the reference [`TracePool::generate`] must equal.
    fn generate_in_turn(seed: u64, size: usize, duration_ms: u64) -> TracePool {
        let mut rng = Rng::new(stable_hash(&[seed, 0x7ace_b00c]));
        let dur = duration_ms;
        let mut wifi = Vec::with_capacity(size);
        let mut lte = Vec::with_capacity(size);
        for _ in 0..size.max(1) {
            let wifi_seed = rng.next_u64();
            let t = if rng.chance(0.6) {
                let start = 1_500 + rng.below(dur.saturating_sub(9_000).max(1));
                let len = 2_000 + rng.below(6_000);
                xlink_traces::walking_wifi_with_outage(wifi_seed, dur, start, start + len)
            } else {
                xlink_traces::walking_wifi_with_outage(wifi_seed, dur, dur + 1, dur + 2)
            };
            wifi.push(t);
            let l = if rng.chance(0.2) {
                xlink_traces::hsr_cellular(rng.next_u64(), dur)
            } else {
                xlink_traces::stable_lte(rng.next_u64(), dur)
            };
            lte.push(l);
        }
        TracePool { wifi, lte }
    }

    #[test]
    fn draws_are_deterministic_and_vary() {
        let pool = TracePool::generate(3, 2, 3_000);
        let draw = |day, user| format!("{:?}", pool.draw_user_paths(3, day, user));
        assert_eq!(draw(1, 1), draw(1, 1));
        // Another user, another day: another draw from the same pool.
        assert_ne!(draw(1, 2), draw(1, 1));
        assert_ne!(draw(2, 1), draw(1, 1));
    }

    #[test]
    fn built_paths_carry_traffic() {
        let pool = TracePool::generate(3, 2, 3_000);
        for user in 0..8 {
            let (wifi, lte) = pool.draw_user_paths(3, 0, user);
            for mut p in [wifi.build(), lte.build()] {
                p.up.send(Instant::ZERO, vec![0u8; 500]);
                // Delivered or randomly lost, never duplicated.
                assert!(p.up.recv(Instant::from_secs(10)).len() <= 1);
            }
        }
    }

    #[test]
    fn trace_pool_equals_the_pool_generated_in_turn() {
        for seed in [1, 7, 0xfeed_f00d] {
            for size in 0..=33 {
                let (pool, want) =
                    (TracePool::generate(seed, size, 3_000), generate_in_turn(seed, size, 3_000));
                assert_eq!(pool.wifi, want.wifi, "seed {seed}, size {size}");
                assert_eq!(pool.lte, want.lte, "seed {seed}, size {size}");
            }
        }
        // The fleet's own duration, where outages fall inside the trace.
        let (pool, want) = (TracePool::generate(1, 32, 30_000), generate_in_turn(1, 32, 30_000));
        assert!(pool.wifi == want.wifi && pool.lte == want.lte);
    }

    /// A pool asked for again is the one already built; another seed or
    /// size builds its own, equal to what `generate` builds.
    #[test]
    fn a_shared_pool_is_built_once_per_seed_and_size() {
        let (a, b) = (TracePool::shared(11, 3, 3_000), TracePool::shared(11, 3, 3_000));
        assert!(Arc::ptr_eq(&a, &b));
        let c = TracePool::shared(12, 3, 3_000);
        assert!(!Arc::ptr_eq(&a, &c));
        let want = TracePool::generate(12, 3, 3_000);
        assert!(c.wifi == want.wifi && c.lte == want.lte);
    }

    /// The fleet's default pool — 32 archetypes per technology, 30 s each —
    /// fits in 4 MiB: two bytes per millisecond of each of its 64 traces.
    #[test]
    fn the_default_pool_takes_at_most_4_mib() {
        let cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
        let pool = TracePool::generate(1, cfg.trace_pool, 30_000);
        assert_eq!(pool.wifi.len() + pool.lte.len(), 64);
        let bytes = pool.approx_bytes();
        assert!(bytes <= 4 << 20, "the default pool takes {bytes} bytes");
    }
}
