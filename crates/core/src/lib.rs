//! # xlink-core — QoE-driven multipath QUIC (XLINK, SIGCOMM 2021)
//!
//! The paper's primary contribution, reimplemented in Rust on top of the
//! `xlink-quic` substrate:
//!
//! * [`connection::MpConnection`] — the policy over one
//!   `xlink_quic::connection::Connection` (which owns the paths, ACK_MP,
//!   path validation and PATH_STATUS): primary path selection, path choice
//!   for new data, re-injection and its QoE gate.
//! * [`sched`] — min-RTT path choice and the re-injection modes
//!   (Fig. 4's three, and the MPTCP baseline's).
//! * [`qoe`] — QoE signals and the double-thresholding controller
//!   (Algorithm 1).
//! * [`liveness`] — the tunables of blackhole detection and automatic
//!   failover (§9); the machine itself runs in the connection.
//! * [`wireless`] — wireless-aware primary path selection (§5.3).
//! * [`lb`] — QUIC-LB-style CID routing for load balancers and
//!   multi-process CDN servers (§6).

pub mod connection;
pub mod lb;
pub mod liveness;
pub mod qoe;
pub mod sched;
pub mod wireless;

pub use connection::{MpConfig, MpConnection, MpPath, MpState, MpStats, PathState};
pub use liveness::LivenessConfig;
pub use qoe::{play_time_left, redundancy_ratio, reinjection_decision, QoeControl, QoeSignal};
pub use sched::{AckPathPolicy, ReinjectMode};
pub use wireless::{PrimaryPathPolicy, WirelessTech};
