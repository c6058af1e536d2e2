//! Protocol-level integration tests across crates: multipath negotiation
//! and fallback, path lifecycle, QoE feedback plumbing, load-balancer
//! routing of multipath CIDs, and adversarial datagram handling.

use std::cell::RefCell;

use xlink::clock::{Duration, Instant};
use xlink::core::{lb, MpConfig, MpConnection, PathState, QoeSignal, WirelessTech};
use xlink::lab::prop::*;
use xlink::quic::error::TransportError;
use xlink::quic::frame::PathStatusKind;

fn pump(now: &mut Instant, a: &mut MpConnection, b: &mut MpConnection) {
    for _ in 0..3000 {
        let mut any = false;
        while let Some((p, d)) = a.poll_transmit(*now) {
            b.handle_datagram(*now, p, &d);
            any = true;
        }
        while let Some((p, d)) = b.poll_transmit(*now) {
            a.handle_datagram(*now, p, &d);
            any = true;
        }
        if !any {
            break;
        }
        *now += Duration::from_micros(200);
    }
}

fn pair() -> (MpConnection, MpConnection, Instant) {
    let techs = vec![WirelessTech::Wifi, WirelessTech::Lte];
    (
        MpConnection::new(MpConfig::xlink_client(1, techs), Instant::ZERO),
        MpConnection::new(MpConfig::xlink_server(2, 2), Instant::ZERO),
        Instant::ZERO,
    )
}

#[test]
fn full_multipath_setup_via_public_api() {
    let (mut c, mut s, mut now) = pair();
    pump(&mut now, &mut c, &mut s);
    assert!(c.is_established() && s.is_established());
    assert!(c.conn().multipath_negotiated());
    assert!(c.conn().paths().iter().all(|p| p.state == PathState::Active));
    assert!(s.conn().paths().iter().all(|p| p.state == PathState::Active));
}

#[test]
fn qoe_rides_ack_mp_end_to_end() {
    let (mut c, mut s, mut now) = pair();
    pump(&mut now, &mut c, &mut s);
    c.set_qoe(QoeSignal { cached_bytes: 123, cached_frames: 4, bps: 5_000_000, fps: 30 });
    let id = c.open_stream(0);
    c.stream_send(id, b"ping", true);
    pump(&mut now, &mut c, &mut s);
    s.stream_send(id, b"pong", true);
    pump(&mut now, &mut c, &mut s);
    let q = s.conn().peer_qoe().expect("QoE delivered");
    assert_eq!(q.cached_bytes, 123);
    assert_eq!(q.cached_frames, 4);
}

#[test]
fn path_abandon_and_recovery_via_status_frames() {
    let (mut c, mut s, mut now) = pair();
    pump(&mut now, &mut c, &mut s);
    // Client stands path 1 down, then abandons it entirely.
    c.conn_mut().set_path_status(1, PathStatusKind::Standby);
    pump(&mut now, &mut c, &mut s);
    assert_eq!(s.conn().paths()[1].state, PathState::Standby);
    c.conn_mut().set_path_status(1, PathStatusKind::Available);
    pump(&mut now, &mut c, &mut s);
    assert_eq!(s.conn().paths()[1].state, PathState::Active);
    c.conn_mut().set_path_status(1, PathStatusKind::Abandon);
    pump(&mut now, &mut c, &mut s);
    assert_eq!(s.conn().paths()[1].state, PathState::Abandoned);
    // Traffic still flows on path 0.
    let id = c.open_stream(0);
    c.stream_send(id, &vec![9u8; 30_000], true);
    pump(&mut now, &mut c, &mut s);
    let got = s.stream_recv(id, usize::MAX);
    assert_eq!(got.len(), 30_000);
}

#[test]
fn lb_routes_all_multipath_cids_to_one_server() {
    // QUIC-LB-style: a real server embeds its ID in every CID it issues,
    // so every path of a connection reaches the same server (§6).
    let balancer = lb::LoadBalancer::new(&[10, 20, 30]);
    let server_id = 20;
    for path_seq in 0..4u64 {
        let cid = lb::encode_cid(server_id, 3, 0xabc0 + path_seq);
        assert_eq!(balancer.route(&cid, &[10, 20, 30]), Some(server_id));
        assert_eq!(lb::process_id(&cid), 3);
    }
}

#[test]
fn garbage_datagrams_never_crash_or_close() {
    let (mut c, mut s, mut now) = pair();
    pump(&mut now, &mut c, &mut s);
    let mut rng: u64 = 0x12345;
    for len in [0usize, 1, 7, 20, 100, 1400] {
        let junk: Vec<u8> = (0..len)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng >> 33) as u8
            })
            .collect();
        s.handle_datagram(now, 0, &junk);
        s.handle_datagram(now, 1, &junk);
        s.handle_datagram(now, 99, &junk); // unknown path
    }
    assert!(!s.conn().is_closed(), "garbage must be dropped, not fatal");
    // Connection still works.
    let id = c.open_stream(0);
    c.stream_send(id, b"still alive", true);
    pump(&mut now, &mut c, &mut s);
    assert_eq!(s.stream_recv(id, 100), b"still alive");
}

/// Mutation testing on *real* wire datagrams: capture a burst from a
/// live transfer, then bit-flip / truncate / splice / stomp them and
/// feed the mutants to the server. No mutant may close the connection
/// or perturb the per-path ACK ranges (AEAD must reject them before any
/// receive-state changes), and the original transfer must still
/// complete afterwards.
#[test]
fn mutated_datagrams_never_crash_or_corrupt_ack_state() {
    let (mut c, s, mut now) = pair();
    let s = RefCell::new(s);
    pump(&mut now, &mut c, &mut s.borrow_mut());
    // Capture a corpus of genuine datagrams (not yet delivered).
    let id = c.open_stream(0);
    let body: Vec<u8> = (0..40_000u32).map(|i| (i * 31 % 251) as u8).collect();
    c.stream_send(id, &body, true);
    let mut corpus: Vec<(usize, Vec<u8>)> = Vec::new();
    while let Some((p, d)) = c.poll_transmit(now) {
        corpus.push((p, d));
    }
    assert!(corpus.len() >= 4, "need a real corpus to mutate (got {})", corpus.len());
    let baseline: Vec<Vec<(u64, u64)>> = s.borrow().conn().recv_pn_ranges();

    check(
        "mutated_datagrams_never_crash_or_corrupt_ack_state",
        (0u64..100_000, 0u64..4, 0u64..100_000, 0u64..100_000),
        |&(idx_raw, kind, pos_raw, other_raw)| {
            let (path, orig) = &corpus[(idx_raw as usize) % corpus.len()];
            let mut mutant = orig.clone();
            match kind {
                0 => {
                    // Single bit flip.
                    let pos = (pos_raw as usize) % mutant.len();
                    mutant[pos] ^= 1 << (other_raw % 8) as u8;
                }
                1 => {
                    // Truncation.
                    mutant.truncate((pos_raw as usize) % mutant.len());
                }
                2 => {
                    // Splice: head of one datagram, tail of another.
                    let (_, other) = &corpus[(other_raw as usize) % corpus.len()];
                    let cut = (pos_raw as usize) % orig.len().min(other.len());
                    mutant = orig[..cut].iter().chain(&other[cut..]).copied().collect();
                }
                _ => {
                    // Stomp a run of bytes.
                    let pos = (pos_raw as usize) % mutant.len();
                    let end = (pos + 3).min(mutant.len());
                    for b in &mut mutant[pos..end] {
                        *b ^= 0xa5;
                    }
                }
            }
            // A mutant identical to a real datagram would legitimately
            // advance state; only adversarial inputs are interesting.
            if corpus.iter().any(|(_, d)| d == &mutant) {
                return Ok(());
            }
            let mut srv = s.borrow_mut();
            srv.handle_datagram(now, *path, &mutant);
            srv.handle_datagram(now, 99, &mutant); // unknown path too
            prop_assert!(!srv.conn().is_closed(), "mutant closed the connection");
            let ranges: Vec<Vec<(u64, u64)>> = srv.conn().recv_pn_ranges();
            prop_assert_eq!(
                &ranges,
                &baseline,
                "mutant perturbed ACK ranges (must be rejected pre-ACK-state)"
            );
            Ok(())
        },
    );

    // The battered server still completes the original transfer.
    for (p, d) in &corpus {
        s.borrow_mut().handle_datagram(now, *p, d);
    }
    pump(&mut now, &mut c, &mut s.borrow_mut());
    let got = s.borrow_mut().stream_recv(id, usize::MAX);
    assert_eq!(got, body, "transfer corrupted after mutation barrage");
}

#[test]
fn replayed_datagrams_are_no_ops() {
    let (mut c, mut s, mut now) = pair();
    pump(&mut now, &mut c, &mut s);
    let id = c.open_stream(0);
    c.stream_send(id, b"idempotent", true);
    let mut copies = Vec::new();
    while let Some((p, d)) = c.poll_transmit(now) {
        copies.push((p, d));
    }
    // Deliver everything three times over.
    for _ in 0..3 {
        for (p, d) in &copies {
            s.handle_datagram(now, *p, d);
        }
    }
    assert_eq!(s.stream_recv(id, 100), b"idempotent");
    // Duplicate suppression: only the first delivery counted.
    let dup: u64 = s.conn().streams().iter().map(|st| st.recv.duplicate_bytes()).sum();
    assert_eq!(dup, 0, "pn-level dedup should reject replays before streams");

    // A packet number the receiver has since pruned from its acknowledgement
    // state (the client acknowledged an ACK that covered it) is forgotten,
    // not unseen: replay everything the client ever sent, from the first
    // packet of each space on.
    let (mut c, mut s, mut now) = pair();
    let mut sent = Vec::new();
    let mut exchange = |c: &mut MpConnection, s: &mut MpConnection| {
        for _ in 0..3000 {
            let before = sent.len();
            while let Some((p, d)) = c.poll_transmit(now) {
                s.handle_datagram(now, p, &d);
                sent.push((p, d));
            }
            let mut any = sent.len() > before;
            while let Some((p, d)) = s.poll_transmit(now) {
                c.handle_datagram(now, p, &d);
                any = true;
            }
            if !any {
                break;
            }
            now += Duration::from_micros(200);
        }
    };
    exchange(&mut c, &mut s);
    // Requests one way and replies the other, so that each side's ACKs are
    // acknowledged in turn.
    for _ in 0..5 {
        let id = c.open_stream(0);
        c.stream_send(id, b"ping", true);
        exchange(&mut c, &mut s);
        s.stream_send(id, b"pong", true);
        exchange(&mut c, &mut s);
    }
    let lowest_kept =
        |p: &xlink::quic::connection::Path| p.space.recv.iter().next().map(|r| r.start);
    assert!(
        s.conn().paths().iter().any(|p| lowest_kept(p) > Some(0)),
        "no packet number was pruned, the replay below checks nothing"
    );
    let received = s.conn().stats().packets_received;
    for (p, d) in &sent {
        s.handle_datagram(now, *p, d);
    }
    assert_eq!(s.conn().stats().packets_received, received, "a pruned packet number came back");
}

/// Single-path QUIC pump for the CID-lifecycle regressions below.
fn pump_quic(
    now: &mut Instant,
    a: &mut xlink::quic::connection::Connection,
    b: &mut xlink::quic::connection::Connection,
) {
    for _ in 0..2000 {
        let mut any = false;
        while let Some(d) = a.poll_transmit(*now) {
            b.handle_datagram(*now, &d);
            any = true;
        }
        while let Some(d) = b.poll_transmit(*now) {
            a.handle_datagram(*now, &d);
            any = true;
        }
        if !any {
            break;
        }
        *now += Duration::from_micros(100);
    }
}

/// Regression: RETIRE_CONNECTION_ID must be *handled*, not silently
/// dropped (RFC 9000 §19.16). A migration CID with `retire_prior_to`
/// makes the peer (a) adopt the new destination CID, and (b) send a
/// retirement the issuer acts on: the retired value surfaces via
/// `take_retired_local` (the edge router's unbind signal) and a
/// replacement NEW_CONNECTION_ID keeps the peer's pool stocked —
/// with neither side closing.
#[test]
fn retire_connection_id_retires_replaces_and_unbinds() {
    use xlink::quic::cid::ConnectionId;
    use xlink::quic::connection::{Config, Connection};

    let mut now = Instant::ZERO;
    let mut c = Connection::new(Config::client(0x10), now);
    let mut s = Connection::new(Config::server(0x20), now);
    pump_quic(&mut now, &mut c, &mut s);
    assert!(c.is_established() && s.is_established());

    let old = s.local_cid();
    let fresh = ConnectionId::derive(0xd1a1, 9);
    s.issue_migration_cid(fresh, None);
    pump_quic(&mut now, &mut c, &mut s);

    // The client migrated onto the new CID and retired the old one.
    assert_eq!(c.remote_cid(), fresh, "client kept routing to the retired CID");
    let retired = s.take_retired_local();
    assert!(retired.contains(&old), "issuer never saw the retirement: {retired:?}");
    // The issuer replaced the retired CID, so its routable set is back
    // to full strength and excludes the dead value.
    let locals: Vec<ConnectionId> = s.local_cids().collect();
    assert!(locals.contains(&fresh) && !locals.contains(&old), "{locals:?}");
    assert_eq!(locals.len(), 2, "retired CID not replaced: {locals:?}");
    assert!(!c.is_closed() && !s.is_closed());

    // Still a working connection on the migrated CID.
    let id = c.open_stream(0);
    c.stream_send(id, b"post-retire", true);
    pump_quic(&mut now, &mut c, &mut s);
    assert_eq!(s.stream_recv(id, 100), b"post-retire");
}

#[test]
fn graceful_close_propagates_both_ways() {
    let (mut c, mut s, mut now) = pair();
    pump(&mut now, &mut c, &mut s);
    s.conn_mut().close(TransportError::NoError, "server done");
    pump(&mut now, &mut c, &mut s);
    assert!(c.conn().is_closed());
    assert!(s.conn().is_closed());
}
