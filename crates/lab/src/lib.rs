//! `xlink-lab` — the workspace's self-contained deterministic
//! testing-and-measurement subsystem. Everything the repo previously
//! pulled from the registry (`rand`, `proptest`) lives here instead, built on the same seeded xoshiro RNG the simulator
//! uses, so the whole workspace builds and tests with zero network
//! access.
//!
//! * [`rng`] — seeded xoshiro256** PRNG.
//! * [`prop`] — property-testing harness: strategies, bounded
//!   shrinking, per-case seeds, replay via `XLINK_PROP_SEED`.
//! * [`stats`] — percentiles, means and improvement ratios for the
//!   experiment harness.
//! * [`stream`] — constant-memory streaming aggregation (log-scale
//!   histograms, exactly-mergeable moments) for fleet-scale runs.
//! * [`payload`] — the one synthetic payload, `(phase + offset) mod 251`,
//!   that the PoP origin, its clients and the media store generate and
//!   check by table copy and compare.

pub mod payload;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod stream;

pub use rng::Rng;
