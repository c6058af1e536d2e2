//! Bulk-download sessions: fetch one object of a given size and measure
//! the request download time. Used by the primary-path study (Fig. 7),
//! the ACK-path study (Fig. 8), the extreme-mobility comparison (Fig. 13),
//! and the energy study (Fig. 14).

use crate::scenario::Scenario;
use crate::transport::{Conn, Scheme, TransportStats, TransportTuning};
use crate::video_session::VideoServerEndpoint;
use xlink_clock::{Duration, Instant};
use xlink_core::QoeSignal;
use xlink_netsim::{Endpoint, FlapSchedule, Path, Stats, Transmit};
use xlink_video::{MediaStore, Request, Response, Video};

/// Result of one bulk download.
#[derive(Debug, Clone)]
pub struct BulkResult {
    /// Time from session start until the full object was received
    /// (None if the deadline hit first).
    pub download_time: Option<Duration>,
    /// Bytes received by the deadline.
    pub bytes_received: u64,
    /// Client transport stats (always `Some`: ROADMAP item 9).
    pub client_transport: Option<TransportStats>,
    /// Server transport stats (always `Some`).
    pub server_transport: Option<TransportStats>,
    /// Server per-path wire-byte split.
    pub server_bytes_per_path: Vec<(usize, u64)>,
    /// Per-path link conservation counters, (up, down), harvested after
    /// the run (for the impairment robustness suite).
    pub link_stats: Vec<(Stats, Stats)>,
}

/// QUIC-family bulk client.
struct BulkClient {
    conn: Conn,
    size: u64,
    stream: Option<u64>,
    received: u64,
    header_skipped: bool,
    pending: Vec<u8>,
    done_at: Option<Instant>,
    /// Static QoE feedback to advertise (None = no feedback, which the
    /// server's controller treats as start-up urgency).
    qoe: Option<QoeSignal>,
}

impl Endpoint for BulkClient {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        self.conn.handle_datagram(now, path, payload);
        if let Some(id) = self.stream {
            let data = self.conn.stream_recv(id, usize::MAX);
            if !data.is_empty() {
                self.pending.extend_from_slice(&data);
                if !self.header_skipped {
                    if let Some((_, used)) = Response::decode(&self.pending) {
                        self.pending.drain(..used);
                        self.header_skipped = true;
                    }
                }
                if self.header_skipped {
                    self.received += self.pending.len() as u64;
                    self.pending.clear();
                }
            }
            if self.received >= self.size && self.done_at.is_none() {
                self.done_at = Some(now);
            }
        }
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        if self.conn.is_established() && self.stream.is_none() {
            let id = self.conn.open_stream(0);
            let req = Request { object: "blob".into(), start: 0, end: self.size };
            self.conn.stream_send(id, &req.encode(), true);
            self.stream = Some(id);
        }
        if let Some(q) = self.qoe {
            self.conn.inner_mut().set_qoe(q);
        }
        self.conn.poll_transmit(now).map(|(path, payload)| Transmit { path, payload })
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.conn.poll_timeout()
    }

    fn on_timeout(&mut self, now: Instant) {
        self.conn.on_timeout(now);
    }

    fn is_done(&self) -> bool {
        self.done_at.is_some() || self.conn.is_closed()
    }
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
        let now = Instant::ZERO;
        let mut client_conn = Conn::client(scheme, tuning, seed, now);
        let mut server_conn = Conn::server(scheme, tuning, seed ^ 0xbeef, now);
        if let Some(log) = &self.trace {
            client_conn.set_tracer(&log.tracer("client"));
            server_conn.set_tracer(&log.tracer("server"));
        }
        let client = BulkClient {
            conn: client_conn,
            size,
            stream: None,
            received: 0,
            header_skipped: false,
            pending: Vec::new(),
            done_at: None,
            qoe,
        };
        let mut store = MediaStore::new();
        // A "blob" is a 1-frame video sized to the request: frame 0 spans the
        // first ~64 KB (a realistic first-frame size) so frame-priority paths
        // are exercised even for bulk fetches.
        let ff = size.min(64 * 1024).max(1);
        store.insert(
            "blob",
            Video::from_frames(25, 8 * size, vec![ff, size.saturating_sub(ff).max(1)]),
        );
        let world = self.run(client, VideoServerEndpoint::serving(server_conn, store, true));
        BulkResult {
            download_time: world.client.done_at.map(|t| t.saturating_duration_since(now)),
            bytes_received: world.client.received,
            client_transport: Some(world.client.conn.stats()),
            server_transport: Some(world.server.transport_stats()),
            server_bytes_per_path: world.server.bytes_per_path(),
            link_stats: world.paths.iter().map(|p| p.stats()).collect(),
        }
    }
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
            trace_ms: Vec::new().into(),
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
}
