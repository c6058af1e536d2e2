//! The adversary outcome matrix (DESIGN §10, §13): every scripted
//! hostile-peer attack of `harness::adversary` against single-path QUIC,
//! the MPTCP arm and XLINK — close code (or "absorbed"), time to close,
//! drain status and the peak of the bounded-state gauge the attack leans
//! on — then the edge-tier floods against a CID-routed PoP with an honest
//! fleet in the mix. `tests/adversary.rs` and `tests/edge.rs` assert on
//! the same matrix and the same floods, seed by seed.

use super::crash_rct::population;
use crate::adversary::{run_attack, AdversaryOutcome, AttackKind, EdgeAttackKind};
use crate::pop::{run_pop, PopReport, PopRunConfig};
use xlink_core::Scheme;
use xlink_lab::stats::print_table;
use xlink_quic::error::TransportError;

/// The victim transports every attack is run against.
pub const VICTIMS: [Scheme; 3] = [Scheme::Sp { path: 0 }, Scheme::Mptcp, Scheme::Xlink];

/// The edge floods and the datagrams each one spends.
pub const FLOODS: [(EdgeAttackKind, u64); 3] = [
    (EdgeAttackKind::InitialFlood, 500),
    (EdgeAttackKind::TokenReplay, 120),
    (EdgeAttackKind::CidGrind, 300),
];

/// Every attack × victim at `seed`, in print order.
pub fn attacks(seed: u64) -> Vec<AdversaryOutcome> {
    let cells = AttackKind::all().into_iter().flat_map(|kind| VICTIMS.map(|v| (kind, v)));
    cells.map(|(kind, victim)| run_attack(kind, victim, seed)).collect()
}

/// `kind` at its [`FLOODS`] budget mixed into the otherwise honest
/// population `base`.
pub fn flood(kind: EdgeAttackKind, base: &PopRunConfig) -> PopReport {
    let attack = FLOODS.iter().find(|(k, _)| *k == kind).copied();
    run_pop(&PopRunConfig { attack, ..base.clone() })
}

/// What every flood must leave standing: the honest fleet keeps
/// completing byte-exactly, the Retry reflection respects the 3×
/// amplification budget, and every PoP gauge stays within its cap.
pub fn check_flood(kind: EdgeAttackKind, seed: u64, r: &PopReport) {
    let label = kind.label();
    assert!(
        r.completion() >= 0.95,
        "{label} seed {seed}: only {}/{} honest sessions completed: {r:?}",
        r.completed,
        r.users
    );
    assert!(r.bytes_ok, "{label} seed {seed}: corrupt bytes: {r:?}");
    assert!(r.amp_ok, "{label} seed {seed}: amplification budget violated: {r:?}");
    assert!(r.bounded.within_caps(), "{label} seed {seed}: gauges out of cap: {:?}", r.bounded);
}

/// Both halves of the matrix.
#[derive(Debug, Clone)]
pub struct AttackMatrix {
    /// The seed of every run in it.
    pub seed: u64,
    /// One outcome per attack × victim.
    pub attacks: Vec<AdversaryOutcome>,
    /// One PoP report per flood, in [`FLOODS`] order.
    pub floods: Vec<PopReport>,
}

/// Run the matrix at `seed`, the floods against `users` honest sessions.
pub fn run(users: usize, seed: u64) -> AttackMatrix {
    let base = population(users, seed);
    AttackMatrix {
        seed,
        attacks: attacks(seed),
        floods: FLOODS.iter().map(|&(kind, _)| flood(kind, &base)).collect(),
    }
}

/// Every cell holds its attack's documented contract, every flood
/// [`check_flood`].
pub fn check(m: &AttackMatrix) {
    for out in &m.attacks {
        assert!(out.matches_expectation(), "{}: contract violated: {out:?}", out.attack.label());
    }
    for ((kind, _), r) in FLOODS.iter().zip(&m.floods) {
        check_flood(*kind, m.seed, r);
    }
}

/// Print one row per attack × transport, then one per flood.
pub fn print(m: &AttackMatrix) {
    let attacks = m.attacks.iter().map(|out| {
        let outcome = match out.close_code {
            Some((code, by_peer)) => {
                let by = if by_peer { "peer" } else { "local" };
                format!("{:?} ({by})", TransportError::from_code(code))
            }
            None => "absorbed".to_string(),
        };
        // The gauge the attack leans on hardest, against its cap.
        let peak = match out.attack {
            AttackKind::AckRangeFlood | AttackKind::OptimisticAck => {
                format!("{} rng", out.peak.recv_ranges)
            }
            AttackKind::PathChallengeFlood => format!("{} chl", out.peak.pending_path_responses),
            _ => format!("{} seg", out.peak.stream_segments),
        };
        vec![
            out.attack.label().to_string(),
            out.transport.to_string(),
            outcome,
            out.time_to_close
                .map_or("-".to_string(), |d| format!("{:.1}", d.as_micros() as f64 / 1000.0)),
            if out.drained { "yes" } else { "no" }.to_string(),
            peak,
        ]
    });
    print_table(
        "Attack matrix: hostile peer vs each transport",
        &["Attack", "Transport", "Outcome", "Close (ms)", "Drained", "Peak gauge"],
        &attacks.collect::<Vec<_>>(),
    );
    let floods = FLOODS.iter().zip(&m.floods).map(|((kind, budget), r)| {
        vec![
            kind.label().to_string(),
            budget.to_string(),
            format!("{:.1}%", 100.0 * r.completion()),
            r.stats.rejected_total().to_string(),
            r.stats.admitted.to_string(),
            if r.amp_ok { "yes" } else { "NO" }.to_string(),
            format!("{}/{}", r.bounded.peak_conns, r.bounded.max_conns),
        ]
    });
    print_table(
        "Edge floods against the PoP, honest fleet in the mix",
        &["Edge attack", "Budget", "Complete", "Rejected", "Admitted", "Amp ok", "Peak conns"],
        &floods.collect::<Vec<_>>(),
    );
}
