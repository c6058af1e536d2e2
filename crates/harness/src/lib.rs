//! # xlink-harness — experiment infrastructure
//!
//! Builds end-to-end sessions (video plays and bulk downloads) over the
//! `xlink-netsim` emulator for every transport scheme in the paper's
//! evaluation, runs populations of them on one runner ([`fleet`]:
//! randomized or paired A/B arms), and hosts one module per table/figure
//! under [`experiments`].

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
    EdgeAttacker, HijackOutcome, QuicAttacker, VictimPeer,
};
pub use bulk::{run_bulk_quic, BulkResult};
pub use chaos::{failover_timeline, handover_paths, handover_scenario, ChaosPlan, CrashPlan};
pub use fleet::{run_fleet, run_fleet_profiled, FleetConfig, FleetReport};
pub use pop::{run_pop, run_pop_traced, PopReport, PopRunConfig};
pub use scenario::{PathSpec, Scenario};
pub use transport::{
    BoundedState, Conn, Scheme, TransportStats, TransportTuning, REINJECTION_COST_CAP,
};
pub use video_session::{run_session, session_metrics, SessionConfig, SessionResult};
