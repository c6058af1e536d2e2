//! `harness::fleet` — the population-scale A/B engine.
//!
//! A deterministic plan of tens of thousands of video sessions that
//! overlap on one simulated timeline: each planned session is an
//! independent [`Scenario`](crate::scenario::Scenario) run to completion
//! (sessions share nothing, so nothing interleaves them), the population
//! is sharded by a stable `(user, day)` hash, the shards run side by side
//! on the host's cores ([`par`](crate::par)), and per-arm results stream
//! into constant-memory aggregates ([`xlink_lab::stream`]) whose shard
//! partials merge exactly. The net guarantees, enforced by
//! `tests/fleet.rs`, `tests/golden.rs` and the invariants suite:
//!
//! * **Bit-identical** reports across repeated runs *and* across shard
//!   counts (1, 4, 16, …), worker counts and schedules.
//! * **Peak memory independent of population size**: O(workers × one
//!   session + trace pool), with finished sessions reduced to histogram
//!   bins.
//! * **Analytic confidence intervals** (normal/binomial) with no
//!   bootstrap resampling and no retained samples.
//!
//! This is the simulation analogue of the paper's production deployment
//! loop (§7): users are randomized into contrast arms at user
//! granularity, each day's cohort arrives Poisson-style, and the
//! population differential (Table 1 / Fig. 6) is read off the merged
//! aggregates. It is the one population runner: the small A/B studies
//! (Fig. 1c, 10, 11, 12) run it *paired*, every user under both arms.

mod agg;
mod plan;
mod run;

pub use agg::{ArmAgg, ConcurrencyTrack, FleetReport, ShardCounters, Z95};
pub use plan::{shard_of, stable_hash, FleetConfig, PlanIter, SessionPlan, TracePool};
pub use run::{run_fleet, run_fleet_profiled};
