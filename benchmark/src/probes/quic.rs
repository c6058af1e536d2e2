//! Probes of the `quic` crate: AEAD, header and frame codec, ACK ranges,
//! recovery, streams, and the connection handshake.

use super::{counted, each, timed, Body, Probe, Sample};
use std::hint::black_box;
use std::time::{Duration as WallDuration, Instant as Wall};
use xlink_clock::{Duration, Instant};
use xlink_quic::ackranges::AckRanges;
use xlink_quic::cid::ConnectionId;
use xlink_quic::connection::{Config, Connection};
use xlink_quic::crypto::AeadKey;
use xlink_quic::frame::{AckFrame, Frame};
use xlink_quic::packet::{Header, PacketType};
use xlink_quic::recovery::Recovery;
use xlink_quic::rtt::RttEstimator;
use xlink_quic::stream::{RecvStream, SendRange, SendStream};
use xlink_quic::varint::{Reader, Writer};

const AAD: &[u8] = b"short-hdr-aad";

pub fn probes() -> Vec<Probe> {
    vec![
        counted("quic.aead.seal_1200_ns", "quic.aead.seal_1200_allocs", || seal(1200)),
        counted("quic.aead.open_1200_ns", "quic.aead.open_1200_allocs", open_1200),
        counted("quic.aead.seal_40_ns", "quic.aead.seal_40_allocs", || seal(40)),
        timed("quic.header.encode_ns", header_encode),
        timed("quic.header.decode_ns", header_decode),
        timed("quic.frame.stream_encode_ns", stream_encode),
        timed("quic.frame.stream_decode_ns", stream_decode),
        timed("quic.frame.ack_encode_ns", ack_encode),
        timed("quic.frame.ack_decode_ns", ack_decode),
        timed("quic.ackranges.insert_ns", || ackranges_insert(false)),
        timed("quic.ackranges.insert_gappy_ns", || ackranges_insert(true)),
        timed("quic.recovery.sent_acked_ns", recovery_sent_acked),
        timed("quic.recovery.detect_lost_1k_ns", recovery_detect_lost_1k),
        timed("quic.stream.send_ns", stream_send),
        timed("quic.stream.recv_inorder_ns", stream_recv_inorder),
        timed("quic.stream.recv_reorder_ns", stream_recv_reorder),
        Probe {
            ns: "quic.conn.handshake_ns",
            allocs: Some("quic.conn.handshake_allocs"),
            alloc_bytes: Some("quic.conn.state_bytes"),
            build: handshake,
        },
    ]
}

fn key() -> AeadKey {
    AeadKey::new([7; 32], [3; 12])
}

fn seal(len: usize) -> Body {
    let (key, payload) = (key(), vec![0x5a; len]);
    let mut pn = 0u64;
    each(move || {
        pn += 1;
        black_box(key.seal(1, pn, AAD, black_box(&payload)));
    })
}

fn open_1200() -> Body {
    let key = key();
    let sealed = key.seal(1, 42, AAD, &[0x5a; 1200]);
    each(move || {
        black_box(key.open(1, 42, AAD, black_box(&sealed)).expect("authentic"));
    })
}

fn short_header() -> Header {
    Header {
        ty: PacketType::OneRtt,
        dcid: ConnectionId::new([1, 2, 3, 4, 5, 6, 7, 8]),
        scid: ConnectionId::new([0; 8]),
        pn: 0x1234,
        pn_len: 2,
        token: Vec::new(),
    }
}

fn header_encode() -> Body {
    let header = short_header();
    each(move || {
        black_box(black_box(&header).encode());
    })
}

fn header_decode() -> Body {
    let mut datagram = short_header().encode();
    datagram.extend_from_slice(&[0u8; 64]);
    each(move || {
        black_box(Header::decode(black_box(&datagram)).expect("valid header"));
    })
}

fn stream_frame() -> Frame {
    Frame::Stream { stream_id: 4, offset: 1 << 20, data: vec![0xab; 1200], fin: false }
}

fn encoded(frame: &Frame) -> Vec<u8> {
    let mut w = Writer::new();
    frame.encode(&mut w);
    w.into_bytes()
}

fn stream_encode() -> Body {
    let frame = stream_frame();
    each(move || {
        let mut w = Writer::with_capacity(1300);
        black_box(&frame).encode(&mut w);
        black_box(w.into_bytes());
    })
}

fn stream_decode() -> Body {
    let bytes = encoded(&stream_frame());
    each(move || {
        black_box(Frame::decode(&mut Reader::new(black_box(&bytes))).expect("valid frame"));
    })
}

/// A typical ACK_MP under mild reordering: four ranges.
fn ack_frame() -> Frame {
    let mut set = AckRanges::new();
    for pn in (0..40u64).filter(|pn| pn % 10 != 9) {
        set.insert(pn);
    }
    Frame::AckMp(AckFrame::from_ranges(1, &set, Duration::from_millis(3)).expect("non-empty"))
}

fn ack_encode() -> Body {
    let frame = ack_frame();
    each(move || {
        let mut w = Writer::with_capacity(64);
        black_box(&frame).encode(&mut w);
        black_box(w.into_bytes());
    })
}

fn ack_decode() -> Body {
    let bytes = encoded(&ack_frame());
    each(move || {
        black_box(Frame::decode(&mut Reader::new(black_box(&bytes))).expect("valid frame"));
    })
}

/// In-order arrival extends one range; `gappy` skips every third packet
/// number, so the set sits at its range cap and evicts on every insert.
fn ackranges_insert(gappy: bool) -> Body {
    let mut set = AckRanges::new();
    let mut pn = 0u64;
    each(move || {
        pn += if gappy && pn % 3 == 1 { 2 } else { 1 };
        black_box(set.insert(black_box(pn)));
    })
}

/// Steady state of a sender: two packets out, one ACK covering both.
fn recovery_sent_acked() -> Body {
    let mut recovery: Recovery<()> = Recovery::new();
    let mut rtt = RttEstimator::new();
    let mut now = Instant::ZERO;
    Box::new(move |iters| {
        let started = Wall::now();
        for _ in 0..iters {
            let first = recovery.on_packet_sent(now, 1200, true, ());
            let last = recovery.on_packet_sent(now, 1200, true, ());
            now += Duration::from_millis(20);
            let acked = std::iter::once((first, last));
            black_box(recovery.on_ack_received(now, acked, &mut rtt, Duration::from_millis(1)));
        }
        Sample { elapsed: started.elapsed(), ops: 2 * iters }
    })
}

/// The ACK after an outage: 1000 packets in flight, the newest one is
/// acknowledged, everything older is declared lost in one pass.
fn recovery_detect_lost_1k() -> Body {
    Box::new(move |iters| {
        let mut elapsed = WallDuration::ZERO;
        for _ in 0..iters {
            let mut recovery: Recovery<()> = Recovery::new();
            let mut rtt = RttEstimator::new();
            let now = Instant::from_millis(100);
            let mut last = 0;
            for _ in 0..=1000 {
                last = recovery.on_packet_sent(now, 1200, true, ());
            }
            let started = Wall::now();
            let outcome = recovery.on_ack_received(
                now + Duration::from_millis(40),
                std::iter::once((last, last)),
                &mut rtt,
                Duration::ZERO,
            );
            elapsed += started.elapsed();
            assert!(black_box(outcome).lost.len() >= 990);
        }
        Sample { elapsed, ops: iters }
    })
}

const STREAM_BLOCK: usize = 1 << 20;
const SEGMENT: usize = 1200;

/// Write 1 MiB, take it out in packet-sized chunks, acknowledge each.
fn stream_send() -> Body {
    let block = vec![0x42u8; STREAM_BLOCK];
    Box::new(move |iters| {
        let started = Wall::now();
        let mut chunks = 0u64;
        for _ in 0..iters {
            let mut stream = SendStream::new(u64::MAX);
            stream.write(&block);
            while let Some((offset, data, fin)) = stream.take_chunk(SEGMENT) {
                let range = SendRange { start: offset, end: offset + data.len() as u64 };
                black_box(stream.on_range_acked(range, fin));
                chunks += 1;
            }
        }
        Sample { elapsed: started.elapsed(), ops: chunks }
    })
}

/// Segments arrive in order and are read at once.
fn stream_recv_inorder() -> Body {
    let segment = [0u8; SEGMENT];
    Box::new(move |iters| {
        let started = Wall::now();
        let mut stream = RecvStream::new(u64::MAX);
        for i in 0..iters {
            stream.on_data(i * SEGMENT as u64, &segment, false).expect("in window");
            black_box(stream.read(usize::MAX));
        }
        Sample { elapsed: started.elapsed(), ops: iters }
    })
}

/// Two-path reassembly at its worst: even segments first, then the odd
/// ones that fill every hole, then one read.
fn stream_recv_reorder() -> Body {
    const SEGMENTS: u64 = 100;
    let segment = [0u8; SEGMENT];
    Box::new(move |iters| {
        let started = Wall::now();
        for _ in 0..iters {
            let mut stream = RecvStream::new(1 << 24);
            for i in (0..SEGMENTS).step_by(2).chain((1..SEGMENTS).step_by(2)) {
                stream.on_data(i * SEGMENT as u64, &segment, false).expect("in window");
            }
            black_box(stream.read(usize::MAX));
        }
        Sample { elapsed: started.elapsed(), ops: iters * SEGMENTS }
    })
}

/// Shuttle datagrams between two connections until neither has anything
/// to send and no timer is due within 100 ms.
pub fn pump(now: &mut Instant, a: &mut Connection, b: &mut Connection) {
    for _ in 0..10_000 {
        let mut moved = false;
        while let Some(d) = a.poll_transmit(*now) {
            b.handle_datagram(*now, &d);
            moved = true;
        }
        while let Some(d) = b.poll_transmit(*now) {
            a.handle_datagram(*now, &d);
            moved = true;
        }
        if moved {
            *now += Duration::from_micros(100);
            continue;
        }
        match [a.poll_timeout(), b.poll_timeout()].into_iter().flatten().min() {
            Some(t) if t <= *now + Duration::from_millis(100) => {
                *now = t.max(*now);
                a.on_timeout(*now);
                b.on_timeout(*now);
            }
            _ => return,
        }
    }
}

/// Establish one client/server pair of single-path connections.
fn handshake() -> Body {
    let mut seed = 0u64;
    each(move || {
        seed += 1;
        let mut now = Instant::ZERO;
        let mut client = Connection::new(Config::client(seed), now);
        let mut server = Connection::new(Config::server(seed ^ 0x5e7), now);
        pump(&mut now, &mut client, &mut server);
        assert!(client.is_established() && server.is_established());
        black_box((client, server));
    })
}
