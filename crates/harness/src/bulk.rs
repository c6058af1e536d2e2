//! Bulk-download sessions: fetch one object of a given size and measure
//! the request download time. Used by the primary-path study (Fig. 7),
//! the ACK-path study (Fig. 8), the extreme-mobility comparison (Fig. 13),
//! and the energy study (Fig. 14).

use crate::scenario::Scenario;
use crate::transport::{App, AppEndpoint, TransportStats};
use crate::video_session::{VideoServer, VideoServerEndpoint};
use xlink_clock::{Duration, Instant};
use xlink_core::{MpConnection, QoeSignal, Scheme, TransportTuning};
use xlink_netsim::{FlapSchedule, Path, Stats};
use xlink_video::{MediaStore, Request, Response, Video};

/// Result of one bulk download.
#[derive(Debug, Clone)]
pub struct BulkResult {
    /// Time from session start until the full object was received
    /// (None if the deadline hit first).
    pub download_time: Option<Duration>,
    /// Bytes received by the deadline.
    pub bytes_received: u64,
    /// Client transport stats (always `Some`; kept an `Option` for the
    /// ROADMAP item "finish the one yardstick", the benchmark package).
    pub client_transport: Option<TransportStats>,
    /// Server transport stats (always `Some`).
    pub server_transport: Option<TransportStats>,
    /// Server per-path wire-byte split.
    pub server_bytes_per_path: Vec<(usize, u64)>,
    /// Per-path link conservation counters, (up, down), harvested after
    /// the run (for the impairment robustness suite).
    pub link_stats: Vec<(Stats, Stats)>,
}

/// The bulk-download client: asks for the object once the handshake
/// lands, advertises its pinned QoE feedback, and checks and counts the
/// body as it arrives.
pub(crate) struct BulkClient {
    size: u64,
    stream: Option<u64>,
    /// Body bytes received so far.
    pub(crate) received: u64,
    header_skipped: bool,
    /// The response header's bytes until it is complete (the body is
    /// checked and counted, not kept).
    header: Vec<u8>,
    /// Every body byte so far is the object's: a download with a wrong
    /// byte never completes.
    ok: bool,
    /// When the whole object had arrived, byte-exact.
    pub(crate) done_at: Option<Instant>,
    /// Static QoE feedback to advertise (None = no feedback, which the
    /// server's controller treats as start-up urgency).
    qoe: Option<QoeSignal>,
}

impl BulkClient {
    /// A client about to ask for `size` bytes, advertising `qoe`.
    fn new(size: u64, qoe: Option<QoeSignal>) -> Self {
        let (stream, received, header_skipped, header, ok, done_at) =
            (None, 0, false, Vec::new(), true, None);
        BulkClient { size, stream, received, header_skipped, header, ok, done_at, qoe }
    }
}

impl App for BulkClient {
    /// Pin the QoE feedback, ask for the object once the handshake lands,
    /// then read what arrived of the response through the consuming read:
    /// the header is copied until it is complete, the body checked against
    /// the object's bytes at the offset it continues from and counted.
    fn on_datagram(&mut self, conn: &mut MpConnection, now: Instant) {
        if let Some(q) = self.qoe {
            conn.set_qoe(q);
        }
        let Some(id) = self.stream else {
            if conn.is_established() {
                let id = conn.open_stream(0);
                let req = Request { object: OBJECT.into(), start: 0, end: self.size };
                conn.stream_send(id, &req.encode(), true);
                self.stream = Some(id);
            }
            return;
        };
        let mut data = conn.stream_consume(id, usize::MAX);
        if !self.header_skipped && !data.is_empty() {
            let line = data.iter().position(|&b| b == b'\n').map_or(data.len(), |i| i + 1);
            self.header.extend_from_slice(&data[..line]);
            data = &data[line..];
            self.header_skipped = Response::decode(&self.header).is_some();
        }
        if self.header_skipped {
            self.ok &= MediaStore::body_matches(OBJECT, self.received, data);
            self.received += data.len() as u64;
        }
        if self.ok && self.received >= self.size && self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }

    fn is_done(&self, conn: &MpConnection) -> bool {
        self.done_at.is_some() || conn.conn().is_closed()
    }
}

/// A bulk download of `size` bytes over `scheme`, not yet started: the
/// client (seeded `seed`) and the one-object server (`seed ^ 0xbeef`).
/// `qoe` is the feedback the client pins ([`Scenario::bulk_quic`]).
pub(crate) fn bulk_pair(
    scheme: Scheme,
    tuning: &TransportTuning,
    size: u64,
    seed: u64,
    qoe: Option<QoeSignal>,
) -> (AppEndpoint<BulkClient>, VideoServerEndpoint) {
    let now = Instant::ZERO;
    let conn = MpConnection::client(scheme, tuning, seed, now);
    let client = AppEndpoint { conn, app: BulkClient::new(size, qoe) };
    let conn = MpConnection::server(scheme, tuning, seed ^ 0xbeef, now);
    (client, AppEndpoint { conn, app: VideoServer::new(blob(size), true) })
}

/// Run a QUIC-family bulk download of `size` bytes: the positional
/// shorthand for `Scenario::new(paths, deadline).with_faults(faults)
/// .bulk_quic(scheme, tuning, size, seed, None)`.
pub fn run_bulk_quic(
    scheme: Scheme,
    tuning: &TransportTuning,
    size: u64,
    seed: u64,
    paths: Vec<Path>,
    faults: Vec<(usize, FlapSchedule)>,
    deadline: Duration,
) -> BulkResult {
    Scenario::new(paths, deadline).with_faults(faults).bulk_quic(scheme, tuning, size, seed, None)
}

impl Scenario {
    /// Download `size` bytes over a QUIC-family `scheme` in this scenario.
    /// `qoe` pins the QoE feedback the client advertises (e.g. a huge
    /// buffer to hold re-injection off for the Fig. 8 ACK-policy study);
    /// `None` sends none, which the server's controller treats as start-up
    /// urgency. A traced scenario records the client under `client.*` and
    /// the server under `server.*`.
    pub fn bulk_quic(
        self,
        scheme: Scheme,
        tuning: &TransportTuning,
        size: u64,
        seed: u64,
        qoe: Option<QoeSignal>,
    ) -> BulkResult {
        let (mut client, mut server) = bulk_pair(scheme, tuning, size, seed, qoe);
        if let Some(log) = &self.trace {
            client.conn.set_tracer(&log.tracer("client"));
            server.conn.set_tracer(&log.tracer("server"));
        }
        let world = self.run(client, server);
        let client = &world.client.app;
        BulkResult {
            download_time: client.done_at.map(|t| t.saturating_duration_since(Instant::ZERO)),
            bytes_received: client.received,
            client_transport: Some(world.client.transport_stats()),
            server_transport: Some(world.server.transport_stats()),
            server_bytes_per_path: world.server.conn.bytes_per_path(),
            link_stats: world.paths.iter().map(|p| p.stats()).collect(),
        }
    }
}

/// The one object a bulk session downloads.
const OBJECT: &str = "blob";

/// A store of one "blob": a 1-frame video sized to the request. Frame 0
/// spans the first ~64 KB (a realistic first-frame size) so frame-priority
/// paths are exercised even for bulk fetches.
fn blob(size: u64) -> MediaStore {
    let mut store = MediaStore::new();
    let ff = size.clamp(1, 64 * 1024);
    store
        .insert(OBJECT, Video::from_frames(25, 8 * size, vec![ff, size.saturating_sub(ff).max(1)]));
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_netsim::LinkConfig;

    fn paths() -> Vec<Path> {
        vec![
            Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10))),
            Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(30))),
        ]
    }

    #[test]
    fn sp_bulk_download_completes() {
        let r = run_bulk_quic(
            Scheme::Sp { path: 0 },
            &TransportTuning::default(),
            500_000,
            1,
            paths(),
            vec![],
            Duration::from_secs(60),
        );
        let t = r.download_time.expect("must finish");
        // 500 KB at 20 Mbps ≈ 0.2 s + handshake; sanity bounds.
        assert!(t > Duration::from_millis(100) && t < Duration::from_secs(5), "t = {t}");
    }

    #[test]
    fn xlink_bulk_faster_than_sp_on_aggregate() {
        let size = 2_000_000;
        let sp = run_bulk_quic(
            Scheme::Sp { path: 0 },
            &TransportTuning::default(),
            size,
            2,
            paths(),
            vec![],
            Duration::from_secs(60),
        );
        let xl = run_bulk_quic(
            Scheme::Xlink,
            &TransportTuning::default(),
            size,
            2,
            paths(),
            vec![],
            Duration::from_secs(60),
        );
        let (sp_t, xl_t) = (sp.download_time.unwrap(), xl.download_time.unwrap());
        // Two 20 Mbps paths should beat one.
        assert!(xl_t < sp_t, "xlink {xl_t} vs sp {sp_t}");
    }

    #[test]
    fn deadline_caps_a_dead_network() {
        // Paths that never deliver.
        let dead = vec![Path::symmetric(LinkConfig {
            trace_ms: xlink_traces::Opportunities::default(),
            delay: Duration::ZERO,
            queue_bytes: 1000,
            loss: 0.0,
            seed: 0,
            impairments: xlink_netsim::Impairments::none(),
        })];
        let r = run_bulk_quic(
            Scheme::Sp { path: 0 },
            &TransportTuning {
                path_techs: vec![xlink_core::WirelessTech::Wifi],
                ..Default::default()
            },
            100_000,
            3,
            dead,
            vec![],
            Duration::from_secs(5),
        );
        assert!(r.download_time.is_none());
    }

    /// A server keeps no body bytes: through a 16 MB single-path download
    /// over a link that loses nothing, its send stream holds the response
    /// head at most.
    #[test]
    fn a_bulk_server_holds_only_its_response_head() {
        use xlink_netsim::{LinkConfig, World};
        let (tuning, now, size) = (TransportTuning::default(), Instant::ZERO, 16 << 20);
        let store = blob(size);
        let first_frame_end = store.first_frame_end(OBJECT);
        let head = Response { status: 200, body_len: size, first_frame_end }.encode().len() as u64;
        let client = AppEndpoint {
            conn: MpConnection::client(Scheme::Sp { path: 0 }, &tuning, 1, now),
            app: BulkClient::new(size, None),
        };
        let server = AppEndpoint {
            conn: MpConnection::server(Scheme::Sp { path: 0 }, &tuning, 2, now),
            app: VideoServer::new(store, true),
        };
        let mut link = LinkConfig::constant_rate(50.0, Duration::from_millis(10));
        link.queue_bytes = 64 << 20;
        let mut world = World::new(client, server, vec![Path::symmetric(link)]);
        let mut peak = 0;
        for ms in 1..=10_000 {
            world.run_until(Instant::from_millis(ms));
            let held = world.server.conn.conn().bounded_state().buffered_send_bytes;
            assert!(held <= head, "{held} held at {ms} ms, a {head}-byte head");
            peak = peak.max(held);
            if world.client.app.done_at.is_some() {
                break;
            }
        }
        assert!(world.client.app.done_at.is_some(), "the download finished");
        assert_eq!(world.server.transport_stats().packets_lost, 0);
        assert_eq!(peak, head, "the head is held until it is acknowledged");
    }

    type BulkWorld = xlink_netsim::World<AppEndpoint<BulkClient>, VideoServerEndpoint>;

    /// A 64 MiB XLINK download over [`paths`].
    fn two_path_download() -> BulkWorld {
        let (tuning, now, size) = (TransportTuning::default(), Instant::ZERO, 64 << 20);
        let client = AppEndpoint {
            conn: MpConnection::client(Scheme::Xlink, &tuning, 1, now),
            app: BulkClient::new(size, None),
        };
        let server = AppEndpoint {
            conn: MpConnection::server(Scheme::Xlink, &tuning, 2, now),
            app: VideoServer::new(blob(size), true),
        };
        xlink_netsim::World::new(client, server, paths())
    }

    /// The only allocations a two-path XLINK download makes once under way
    /// are the out-of-order segments its client stores, one each: bytes
    /// that arrive on the faster path ahead of those still on the slower.
    #[test]
    fn a_two_path_transfer_allocates_only_for_out_of_order_segments() {
        use xlink_obs::prof;
        let mut world = two_path_download();
        world.run_until(Instant::from_secs(4));
        let stored = |w: &BulkWorld| {
            let id = w.client.app.stream.expect("asked");
            w.client.conn.conn().streams().get(id).expect("open").recv.segments_stored()
        };
        let before = stored(&world);
        let (_, report) = prof::with_recording(|| {
            let _span = prof::span!("test/transfer");
            world.run_until(Instant::from_secs(8))
        });
        assert!(world.client.app.done_at.is_none(), "the transfer ended in the recording");
        let segments = stored(&world) - before;
        let allocs = report.get("test;transfer").expect("recorded").allocs;
        assert!(segments > 1_000, "{segments} segments out of order");
        assert!(allocs <= segments, "{allocs} allocations for {segments} segments");
    }

    /// The server's record of what the client acknowledged keeps up with a
    /// two-path download, whose acknowledgements leave thousands of gaps:
    /// every byte the client held in order 100 ms earlier (longer than the
    /// slower path's round trip) is acknowledged, so the server's first
    /// byte in flight is past it. A record that forgets acknowledgements
    /// past a cap of 256 ranges counts received bytes as in flight here
    /// from 0.89 s on.
    #[test]
    fn the_first_byte_in_flight_follows_the_acknowledgements() {
        let mut world = two_path_download();
        // (ms, the client's bytes in order, the server's first byte in flight)
        let mut samples = Vec::new();
        for ms in (10..=4_000).step_by(10) {
            world.run_until(Instant::from_millis(ms));
            let Some(id) = world.client.app.stream else { continue };
            let streams = (world.client.conn.conn().streams(), world.server.conn.conn().streams());
            let (Some(client), Some(server)) = (streams.0.get(id), streams.1.get(id)) else {
                continue;
            };
            let first = server.send.in_flight_from(0).map_or(u64::MAX, |r| r.start);
            samples.push((ms, client.recv.contiguous_offset(), first));
        }
        for pair in samples.windows(11) {
            let ((_, held, _), (ms, _, first)) = (pair[0], pair[10]);
            assert!(first >= held, "at {ms} ms byte {first} is in flight; {held} were held before");
        }
        let (_, held, _) = samples.last().expect("sampled");
        assert!(*held > 16 << 20, "{held} bytes arrived in order");
    }
}
