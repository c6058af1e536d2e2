//! # xlink-core — QoE-driven multipath QUIC (XLINK, SIGCOMM 2021)
//!
//! The paper's primary contribution, reimplemented in Rust on top of the
//! `xlink-quic` substrate:
//!
//! * [`connection::MpConnection`] — the policy over one
//!   `xlink_quic::connection::Connection` (which owns the paths, ACK_MP,
//!   path validation, PATH_STATUS, and the blackhole detection and
//!   automatic failover of §9 in `xlink_quic::connection::liveness`):
//!   primary path selection, path choice for new data, re-injection and its
//!   QoE gate; and every arm of the evaluation ([`Scheme`]), the
//!   single-path ones as its one-path configuration.
//! * [`sched`] — min-RTT path choice and the re-injection modes
//!   (Fig. 4's three, and the MPTCP baseline's).
//! * [`qoe`] — QoE signals and the double-thresholding controller
//!   (Algorithm 1).
//! * [`wireless`] — wireless-aware primary path selection (§5.3).
//! * [`lb`] — QUIC-LB-style CID routing for load balancers and
//!   multi-process CDN servers (§6).

pub mod connection;
pub mod lb;
pub mod qoe;
pub mod sched;
pub mod wireless;

pub use connection::{
    MpConfig, MpConnection, MpPath, MpState, MpStats, PathState, Scheme, TransportTuning,
};
pub use qoe::{play_time_left, redundancy_ratio, reinjection_decision, QoeControl, QoeSignal};
pub use sched::{AckPathPolicy, ReinjectMode};
pub use wireless::{PrimaryPathPolicy, WirelessTech};
