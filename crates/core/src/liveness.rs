//! Per-path liveness detection and failover policy (§9): the machine lives
//! with the paths it drives, in [`xlink_quic::connection::liveness`].

pub use xlink_quic::connection::liveness::{LivenessConfig, Probation};
