//! Adversarial robustness suite (DESIGN §10): every scripted hostile-peer
//! attack must end in a clean close with the RFC-correct error code or be
//! absorbed outright — zero panics, peer-growable state under its
//! documented caps, termination within the closing/draining budget — and
//! the whole thing must be bit-deterministic per seed. The multipath
//! differential at the end is the paper's robustness claim in miniature:
//! under a single-path attack, XLINK's honest path finishes the transfer
//! while single-path QUIC pinned to the attacked path does not.
//!
//! The attack × transport matrix is the `attack_matrix` row's
//! (`harness::experiments::attack_matrix`). Sweep width defaults to 2
//! seeds for plain `cargo test`; CI pins `XLINK_SWEEP_SEEDS=8`.

use xlink::clock::Duration;
use xlink::harness::experiments::attack_matrix::{attacks, VICTIMS};
use xlink::harness::{run_attack, run_attack_traced, run_path_hijack, AttackKind, Scheme};
use xlink::obs::TraceLog;
use xlink::quic::ackranges::MAX_ACK_RANGES;

fn sweep_seeds() -> u64 {
    std::env::var("XLINK_SWEEP_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

/// Every attack × transport × seed: the victim ends in the documented
/// terminal state (RFC-correct close code + full drain, or absorbed and
/// still operating), never panics, and never hangs past the drain budget.
#[test]
fn every_attack_terminates_cleanly() {
    for seed in 0..sweep_seeds() {
        for out in attacks(seed) {
            let kind = out.attack;
            assert!(
                out.victim_established,
                "{}/{} seed {seed}: handshake never completed: {out:?}",
                kind.label(),
                out.transport,
            );
            match kind.expected_close() {
                Some((code, by_peer)) => {
                    assert_eq!(
                        out.close_code,
                        Some((code, by_peer)),
                        "{}/{} seed {seed}: wrong close code: {out:?}",
                        kind.label(),
                        out.transport,
                    );
                    assert!(
                        out.drained,
                        "{}/{} seed {seed}: never finished draining: {out:?}",
                        kind.label(),
                        out.transport,
                    );
                    // The close itself must happen promptly after the
                    // hostile packet — well inside the run deadline —
                    // and the 3×PTO drain follows within it too.
                    let ttc = out.time_to_close.expect("closed implies a close time");
                    assert!(
                        ttc < Duration::from_secs(10),
                        "{}/{} seed {seed}: close took {ttc}: {out:?}",
                        kind.label(),
                        out.transport,
                    );
                }
                None => {
                    assert!(
                        !out.closed,
                        "{}/{} seed {seed}: absorbable attack closed the victim: {out:?}",
                        kind.label(),
                        out.transport,
                    );
                }
            }
        }
    }
}

/// Peer-growable state stays under the documented §10 caps for every
/// attack.
#[test]
fn caps_hold_across_attacks() {
    for seed in 0..sweep_seeds() {
        for out in attacks(seed) {
            let label = format!("{}/{} seed {seed}", out.attack.label(), out.transport);
            assert!(out.peak.within_caps(), "{label}: {:?}", out.peak);
        }
    }
}

/// The ACK-range flood must actually exercise the eviction machinery:
/// the victim's range set hits its cap and evicts, rather than the
/// attack quietly staying under the limit.
#[test]
fn ack_range_flood_reaches_the_cap() {
    for scheme in VICTIMS {
        let out = run_attack(AttackKind::AckRangeFlood, scheme, 0);
        assert!(
            out.peak.recv_ranges_evicted > 0,
            "{}: flood never forced an eviction: {out:?}",
            out.transport,
        );
        assert_eq!(out.peak.recv_ranges, MAX_ACK_RANGES, "{}: {out:?}", out.transport);
    }
}

/// The PATH_CHALLENGE flood must actually overflow the response queue
/// (drop-oldest), not fit inside it.
#[test]
fn path_challenge_flood_overflows_the_queue() {
    for scheme in VICTIMS {
        let out = run_attack(AttackKind::PathChallengeFlood, scheme, 0);
        assert!(
            out.peak.path_responses_dropped > 0,
            "{}: flood never overflowed the response queue: {out:?}",
            out.transport,
        );
    }
}

/// Two runs of the same attack with the same seed produce bit-identical
/// victim event streams (and qlog serialisations).
#[test]
fn attack_event_streams_are_bit_deterministic() {
    for scheme in VICTIMS {
        for kind in AttackKind::all() {
            let (a, b) = (TraceLog::recording(), TraceLog::recording());
            let oa = run_attack_traced(kind, scheme, 42, Some(&a));
            let ob = run_attack_traced(kind, scheme, 42, Some(&b));
            assert_eq!(oa.close_code, ob.close_code, "{}: outcome diverged", kind.label());
            assert_eq!(oa.peak, ob.peak, "{}: peak state diverged", kind.label());
            let (ea, eb) = (a.events(), b.events());
            assert!(!ea.is_empty(), "{}: no events recorded", kind.label());
            assert_eq!(ea.len(), eb.len(), "{}: event count diverged", kind.label());
            for (x, y) in ea.iter().zip(eb.iter()) {
                assert_eq!(x.time, y.time, "{}: event time diverged", kind.label());
                assert_eq!(x.source, y.source, "{}: event source diverged", kind.label());
                assert_eq!(x.body, y.body, "{}: event payload diverged", kind.label());
            }
            assert_eq!(a.to_qlog("adv"), b.to_qlog("adv"), "{}: qlog diverged", kind.label());
        }
    }
}

/// The multipath differential: with an on-path attacker corrupting one
/// path mid-transfer, XLINK finishes over the honest path while SP
/// pinned to the attacked path strands the transfer.
#[test]
fn honest_path_survives_single_path_attack() {
    for seed in [11, 12] {
        let xlink = run_path_hijack(Scheme::Xlink, seed, 0);
        assert!(
            xlink.completed,
            "seed {seed}: XLINK should finish over the honest path: {xlink:?}"
        );
        // Completion is byte-exact: the client checked every body byte.
        assert_eq!(xlink.delivered_bytes, 3 << 20, "seed {seed}: {xlink:?}");
        let sp = run_path_hijack(Scheme::Sp { path: 0 }, seed, 0);
        assert!(!sp.completed, "seed {seed}: SP pinned to the attacked path should stall: {sp:?}");
        assert!(
            xlink.delivered_bytes > sp.delivered_bytes,
            "seed {seed}: xlink {xlink:?} vs sp {sp:?}"
        );
    }
}
