//! # xlink-harness — experiment infrastructure
//!
//! Builds end-to-end sessions (video plays and bulk downloads) over the
//! `xlink-netsim` emulator for every transport scheme in the paper's
//! evaluation, runs populations of them on one runner ([`fleet`]:
//! randomized or paired A/B arms), and hosts one module per table/figure
//! under [`experiments`].
//! The bulk client, the video client and server and the attack victim are
//! each an [`App`] over one [`AppEndpoint`], the emulator endpoint of every
//! `MpConnection` the harness drives ([`transport`]).

pub mod adversary;
pub mod bulk;
pub mod chaos;
pub mod fleet;
pub mod par;
pub mod pop;
pub mod scenario;
pub mod transport;
pub mod video_session;

pub mod experiments;

pub use adversary::{
    run_attack, run_attack_traced, run_path_hijack, AdversaryOutcome, AttackKind, EdgeAttackKind,
    EdgeAttacker, HijackOutcome, QuicAttacker, Victim,
};
pub use bulk::{run_bulk_quic, BulkResult};
pub use chaos::{failover_timeline, handover_paths, handover_scenario, ChaosPlan, CrashPlan};
pub use fleet::{run_fleet, run_fleet_profiled, FleetConfig, FleetReport};
pub use pop::{run_pop, run_pop_traced, PopReport, PopRunConfig};
pub use scenario::{PathSpec, Scenario};
pub use transport::{App, AppEndpoint, TransportStats, REINJECTION_COST_CAP};
pub use video_session::{run_session, SessionConfig, SessionResult};
pub use xlink_quic::connection::BoundedState;

/// The names the repository's benchmark imports from here; every arm is an
/// `MpConnection` built by `MpConnection::client` / `server`.
pub use xlink_core::{MpConnection as Conn, Scheme, TransportTuning};
