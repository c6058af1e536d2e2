//! # xlink-core — QoE-driven multipath QUIC (XLINK, SIGCOMM 2021)
//!
//! The paper's primary contribution, reimplemented in Rust on top of the
//! `xlink-quic` substrate:
//!
//! * [`connection::MpConnection`] — multipath connection with per-path
//!   packet-number spaces, ACK_MP (carrying QoE feedback), path
//!   validation and PATH_STATUS lifecycle.
//! * [`sched`] — min-RTT / round-robin / redundant schedulers and the
//!   priority-based re-injection modes of Fig. 4.
//! * [`qoe`] — QoE signals and the double-thresholding controller
//!   (Algorithm 1).
//! * [`liveness`] — blackhole detection and automatic failover: the
//!   `Active → Suspect → Probation` machine driven by consecutive-PTO
//!   and ack-silence signals (§9).
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
pub use sched::{AckPathPolicy, ReinjectMode, SchedulerKind};
pub use wireless::{PrimaryPathPolicy, WirelessTech};
