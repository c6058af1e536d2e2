//! # xlink — a Rust reproduction of XLINK (SIGCOMM 2021)
//!
//! *XLINK: QoE-Driven Multi-Path QUIC Transport in Large-scale Video
//! Services* (Zheng, Ma, Liu et al., Alibaba/Taobao) built from scratch:
//! a multipath QUIC transport whose packet scheduling and path management
//! are driven by the client video player's QoE feedback.
//!
//! This facade crate re-exports the workspace so applications can depend
//! on a single crate:
//!
//! * [`core`] (`xlink-core`) — the paper's contribution, a policy over the
//!   connection: schedulers, priority-based re-injection, the
//!   double-thresholding controller (Algorithm 1), wireless-aware primary
//!   path selection, and QUIC-LB CID routing.
//! * [`quic`] (`xlink-quic`) — QUIC and its multipath extension in one
//!   connection engine (paths, ACK_MP, failover, Retry, CID migration), on
//!   frames, packets, AES-256-GCM packet protection with the multipath
//!   nonce, streams, loss recovery, Cubic congestion control.
//! * [`netsim`] (`xlink-netsim`) — the Mahimahi-semantics trace-driven
//!   network emulator the controlled experiments run on.
//! * [`traces`] (`xlink-traces`) — Mahimahi trace I/O plus seeded
//!   generators for the paper's trace shapes.
//! * [`video`] (`xlink-video`) — the short-video model, player, and media
//!   server with QoE signal capture.
//! * [`edge`] (`xlink-edge`) — the CDN edge tier: a CID-routed PoP with
//!   Retry-token admission, graceful shard drain, and flood resilience.
//! * [`energy`] (`xlink-energy`) — the radio energy model.
//! * [`harness`] (`xlink-harness`) — sessions, the one population runner
//!   (`harness::fleet`: randomized or paired A/B arms), and one module per
//!   paper table/figure.
//! * [`lab`] (`xlink-lab`) — deterministic lab tooling: seeded RNG,
//!   property-testing harness, shared statistics.
//! * [`obs`] (`xlink-obs`) — deterministic qlog-style event tracing, the
//!   hot-path profiler and the perf ledger (see DESIGN.md §8, §12).
//!
//! ## Quickstart
//!
//! ```
//! use xlink::harness::{Scenario, Scheme, SessionConfig};
//! use xlink::netsim::{LinkConfig, Path};
//! use xlink::clock::{Duration, Instant};
//!
//! // Two emulated wireless paths: Wi-Fi-ish and LTE-ish.
//! let paths = vec![
//!     Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10))),
//!     Path::symmetric(LinkConfig::constant_rate(15.0, Duration::from_millis(27))),
//! ];
//! // The scenario: those paths, with Wi-Fi dark for the second half-second.
//! let scenario = Scenario::new(paths, Duration::from_secs(60))
//!     .with_outage(0, Instant::from_millis(500), Instant::from_millis(1000));
//! // Play a short video in it over full XLINK.
//! let mut cfg = SessionConfig::short_video(Scheme::Xlink, 42);
//! cfg.video = xlink::video::Video::synth(2, 25, 600_000, 8.0);
//! let result = scenario.video(&cfg);
//! assert!(result.completed);
//! println!("rebuffer rate: {:.3}", result.player.rebuffer_rate());
//! ```
//!
//! [`harness::Scenario`] is the one way to run a simulation;
//! [`harness::run_session`] and [`harness::run_bulk_quic`] are shorthands
//! for the fault-free case.

pub use xlink_clock as clock;
pub use xlink_core as core;
pub use xlink_edge as edge;
pub use xlink_energy as energy;
pub use xlink_harness as harness;
pub use xlink_lab as lab;
pub use xlink_netsim as netsim;
pub use xlink_obs as obs;
pub use xlink_quic as quic;
pub use xlink_traces as traces;
pub use xlink_video as video;
