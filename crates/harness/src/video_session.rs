//! One short-video play session: a client fetches a video in HTTP-range
//! chunks over a chosen transport scheme while the player model consumes
//! frames and reports QoE feedback — the paper's end-to-end pipeline
//! (Fig. 2) in miniature.

use crate::scenario::Scenario;
use crate::transport::{Conn, Scheme, TransportStats, TransportTuning};
use std::collections::HashMap;
use xlink_clock::{Duration, Instant};
use xlink_netsim::{Endpoint, Path, Transmit, World};
use xlink_obs::{MetricsRegistry, TraceLog};
use xlink_video::{MediaStore, Player, PlayerConfig, PlayerStats, Request, Response, Video};

/// How often the client refreshes QoE feedback / player state.
const TICK: Duration = Duration::from_millis(50);

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The transport scheme under test.
    pub scheme: Scheme,
    /// Transport tuning knobs.
    pub tuning: TransportTuning,
    /// The video to play.
    pub video: Video,
    /// Chunk size for range requests.
    pub chunk_bytes: u64,
    /// Concurrent chunk requests ("the use of multiple concurrent streams
    /// allows the media player to pre-fetch video chunks").
    pub prefetch: usize,
    /// Player tuning.
    pub player: PlayerConfig,
    /// First-video-frame acceleration at the server (frame-priority tags).
    pub first_frame_accel: bool,
    /// Hard wall-clock limit for the session.
    pub deadline: Duration,
    /// RNG seed (propagates to transports).
    pub seed: u64,
    /// Stop issuing chunk requests while at least this much play-time is
    /// already buffered (the MediaCacheService caches a bounded window —
    /// an unbounded prefetch would make rebuffering impossible and the
    /// QoE feedback meaningless).
    pub max_buffer_ahead: Duration,
    /// Optional trace log. When set, the client ("client.*"), server
    /// ("server.*"), links ("netsim.*") and player ("client.video") all
    /// emit events into it; when `None`, tracing is compiled out to a
    /// single branch and the run is bit-identical.
    pub trace: Option<TraceLog>,
}

impl SessionConfig {
    /// A typical Taobao-style short-video session.
    pub fn short_video(scheme: Scheme, seed: u64) -> Self {
        SessionConfig {
            scheme,
            tuning: TransportTuning::default(),
            video: Video::synth(12, 25, 1_200_000, 10.0),
            chunk_bytes: 256 * 1024,
            prefetch: 2,
            player: PlayerConfig::default(),
            first_frame_accel: true,
            deadline: Duration::from_secs(120),
            seed,
            max_buffer_ahead: Duration::from_secs(5),
            trace: None,
        }
    }
}

/// Per-chunk request bookkeeping.
#[derive(Debug)]
struct ChunkReq {
    chunk_index: u64,
    requested_at: Instant,
    completed_at: Option<Instant>,
    /// Response header parsed?
    header: Option<Response>,
    /// Body bytes received so far (contiguous on the stream).
    body: Vec<u8>,
}

/// The client endpoint: issues chunk requests, feeds the player, sends
/// QoE feedback.
pub struct VideoClientEndpoint {
    conn: Conn,
    chunks: Vec<xlink_video::VideoChunk>,
    max_buffer_ahead: Duration,
    fps: u64,
    next_chunk: usize,
    prefetch: usize,
    /// stream id → request state.
    inflight: HashMap<u64, ChunkReq>,
    /// Completed chunk body *lengths* by chunk index. Only the length
    /// feeds the player's contiguous prefix, so fleets of thousands of
    /// concurrent sessions don't hold every finished body in memory.
    done: HashMap<u64, u64>,
    player: Player,
    last_tick: Instant,
    object: String,
    /// RCT per chunk (request → full body), by chunk index.
    pub chunk_rct: Vec<(u64, Duration)>,
    finished: bool,
}

impl VideoClientEndpoint {
    fn new(cfg: &SessionConfig, now: Instant) -> Self {
        let mut conn = Conn::client(cfg.scheme, &cfg.tuning, cfg.seed, now);
        let mut player = Player::new(cfg.video.clone(), cfg.player.clone());
        if let Some(log) = &cfg.trace {
            conn.set_tracer(&log.tracer("client"));
            player.set_tracer(log.tracer("client.video"));
        }
        let chunks = cfg.video.chunks(cfg.chunk_bytes);
        VideoClientEndpoint {
            conn,
            chunks,
            max_buffer_ahead: cfg.max_buffer_ahead,
            fps: cfg.video.fps.max(1),
            next_chunk: 0,
            prefetch: cfg.prefetch.max(1),
            inflight: HashMap::new(),
            done: HashMap::new(),
            player,
            last_tick: now,
            object: "video".to_string(),
            chunk_rct: Vec::new(),
            finished: false,
        }
    }

    fn maybe_issue_requests(&mut self, now: Instant) {
        if !self.conn.is_established() {
            return;
        }
        // Bounded buffering: once enough play-time is cached, pause the
        // fetch pipeline until playback consumes it.
        let buffered = Duration::from_micros(self.player.cached_frames() * 1_000_000 / self.fps);
        if buffered >= self.max_buffer_ahead {
            return;
        }
        while self.inflight.len() < self.prefetch && self.next_chunk < self.chunks.len() {
            let chunk = self.chunks[self.next_chunk];
            self.next_chunk += 1;
            // Stream priority = chunk index: earlier chunks are more
            // urgent (the paper's stream-priority ordering).
            let prio = (chunk.index.min(250)) as u8;
            let id = self.conn.open_stream(prio);
            let req = Request { object: self.object.clone(), start: chunk.start, end: chunk.end };
            self.conn.stream_send(id, &req.encode(), true);
            self.inflight.insert(
                id,
                ChunkReq {
                    chunk_index: chunk.index,
                    requested_at: now,
                    completed_at: None,
                    header: None,
                    body: Vec::new(),
                },
            );
        }
    }

    fn drain_streams(&mut self, now: Instant) {
        let ids: Vec<u64> = self.inflight.keys().copied().collect();
        for id in ids {
            let data = self.conn.stream_recv(id, usize::MAX);
            let complete = self.conn.inner().conn().streams().is_complete(id);
            let req = self.inflight.get_mut(&id).expect("tracked stream");
            if !data.is_empty() {
                req.body.extend_from_slice(&data);
                if req.header.is_none() {
                    if let Some((hdr, used)) = Response::decode(&req.body) {
                        req.body.drain(..used);
                        req.header = Some(hdr);
                    }
                }
            }
            let header_len = req.header.as_ref().map(|h| h.body_len).unwrap_or(u64::MAX);
            if complete || req.body.len() as u64 >= header_len {
                if req.completed_at.is_none() {
                    req.completed_at = Some(now);
                    self.chunk_rct
                        .push((req.chunk_index, now.saturating_duration_since(req.requested_at)));
                }
                let req = self.inflight.remove(&id).expect("present");
                self.done.insert(req.chunk_index, req.body.len() as u64);
            }
        }
        // Feed the player the contiguous video prefix.
        let prefix = self.contiguous_prefix();
        self.player.on_bytes(now, prefix);
    }

    /// Contiguous video bytes: completed chunks in order plus the
    /// in-order partial body of the next chunk.
    fn contiguous_prefix(&self) -> u64 {
        let mut prefix = 0u64;
        for (i, c) in self.chunks.iter().enumerate() {
            if let Some(&len) = self.done.get(&(i as u64)) {
                prefix = c.start + len;
                continue;
            }
            // Partial in-flight body still counts toward the prefix.
            if let Some(req) = self.inflight.values().find(|r| r.chunk_index == i as u64) {
                prefix = c.start + req.body.len() as u64;
            }
            break;
        }
        prefix
    }

    /// Player statistics.
    pub fn player_stats(&self) -> PlayerStats {
        self.player.stats()
    }

    /// Final accounting at session end.
    pub fn finish(&mut self, now: Instant) -> PlayerStats {
        self.player.finish_accounting(now)
    }

    /// Transport statistics.
    pub fn transport_stats(&self) -> TransportStats {
        self.conn.stats()
    }

    /// Borrow the player (probes).
    pub fn player_mut(&mut self) -> &mut Player {
        &mut self.player
    }

    /// Current player buffer occupancy in bytes (Fig. 6 probe).
    pub fn player_cached_bytes(&self) -> u64 {
        self.player.cached_bytes()
    }

    /// Whether the video played to the end ([`Endpoint::is_done`] also
    /// fires on transport close).
    pub fn video_finished(&self) -> bool {
        self.player.is_finished()
    }

    /// Per-chunk request completion times in chunk order.
    pub fn sorted_chunk_rct(&self) -> Vec<Duration> {
        let mut rct = self.chunk_rct.clone();
        rct.sort_by_key(|&(i, _)| i);
        rct.into_iter().map(|(_, d)| d).collect()
    }
}

impl Endpoint for VideoClientEndpoint {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        self.conn.handle_datagram(now, path, payload);
        self.drain_streams(now);
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        self.maybe_issue_requests(now);
        self.conn.poll_transmit(now).map(|(path, payload)| Transmit { path, payload })
    }

    fn poll_timeout(&self) -> Option<Instant> {
        let tick = self.last_tick + TICK;
        Some(self.conn.poll_timeout().map_or(tick, |t| t.min(tick)))
    }

    fn on_timeout(&mut self, now: Instant) {
        self.conn.on_timeout(now);
        if now >= self.last_tick + TICK {
            self.last_tick = now;
        }
    }

    fn on_tick(&mut self, now: Instant) {
        self.player.advance(now);
        // Refresh QoE feedback (the TNET query of §5.2.1).
        self.conn.inner_mut().set_qoe(self.player.qoe_signal());
        if self.player.is_finished() {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished || self.conn.is_closed()
    }
}

/// The server endpoint: answers range requests from the media store,
/// tagging first-video-frame bytes with the top frame priority when
/// acceleration is on.
pub struct VideoServerEndpoint {
    conn: Conn,
    store: MediaStore,
    first_frame_accel: bool,
    /// Streams already answered.
    answered: Vec<u64>,
    /// Request reassembly buffers per stream.
    buffers: HashMap<u64, Vec<u8>>,
}

impl VideoServerEndpoint {
    fn new(cfg: &SessionConfig, now: Instant) -> Self {
        let mut store = MediaStore::new();
        store.insert("video", cfg.video.clone());
        let mut conn = Conn::server(cfg.scheme, &cfg.tuning, cfg.seed ^ 0xf00d, now);
        if let Some(log) = &cfg.trace {
            conn.set_tracer(&log.tracer("server"));
        }
        Self::serving(conn, store, cfg.first_frame_accel)
    }

    /// Serve range requests for the objects in `store` over `conn` (the
    /// bulk-download server is this with a one-object store).
    pub(crate) fn serving(conn: Conn, store: MediaStore, first_frame_accel: bool) -> Self {
        VideoServerEndpoint {
            conn,
            store,
            first_frame_accel,
            answered: Vec::new(),
            buffers: HashMap::new(),
        }
    }

    fn serve_requests(&mut self) {
        for id in self.conn.inner().conn().streams().readable_ids() {
            if self.answered.contains(&id) {
                continue;
            }
            let data = self.conn.stream_recv(id, usize::MAX);
            let buf = self.buffers.entry(id).or_default();
            buf.extend_from_slice(&data);
            let Some(req) = Request::decode(buf) else {
                continue;
            };
            self.answered.push(id);
            self.buffers.remove(&id);
            let Some(body) = self.store.body_range(&req.object, req.start, req.end) else {
                let resp = Response { status: 404, body_len: 0, first_frame_end: 0 };
                self.conn.stream_send(id, &resp.encode(), true);
                continue;
            };
            let ff_end = self.store.first_frame_end(&req.object);
            let resp =
                Response { status: 200, body_len: body.len() as u64, first_frame_end: ff_end };
            self.conn.stream_send(id, &resp.encode(), false);
            // First-video-frame acceleration: the byte span of the first
            // frame inside this response is written at the highest frame
            // priority (paper §5.1 stream_send with position+size).
            if self.first_frame_accel && req.start < ff_end {
                let split = (ff_end - req.start).min(body.len() as u64) as usize;
                self.conn.inner_mut().stream_send_with_frame_priority(id, &body[..split], 0, false);
                self.conn.stream_send(id, &body[split..], true);
            } else {
                self.conn.stream_send(id, &body, true);
            }
        }
    }

    /// Transport statistics.
    pub fn transport_stats(&self) -> TransportStats {
        self.conn.stats()
    }

    /// Per-path bytes (for energy accounting and path-usage checks).
    pub fn bytes_per_path(&self) -> Vec<(usize, u64)> {
        self.conn.bytes_per_path()
    }

    /// Whether re-injection is currently enabled (Fig. 6 probe).
    pub fn reinjection_enabled(&self) -> bool {
        let mp = self.conn.inner();
        mp.conn().multipath_negotiated() && mp.reinjection_enabled()
    }

    /// Per-path (bytes in flight, cwnd) snapshot — the Fig. 1 series.
    pub fn path_state(&self) -> (Vec<u64>, Vec<u64>) {
        self.conn.path_state()
    }
}

impl Endpoint for VideoServerEndpoint {
    fn on_datagram(&mut self, now: Instant, path: usize, payload: &[u8]) {
        self.conn.handle_datagram(now, path, payload);
        self.serve_requests();
    }

    fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        self.conn.poll_transmit(now).map(|(path, payload)| Transmit { path, payload })
    }

    fn poll_timeout(&self) -> Option<Instant> {
        self.conn.poll_timeout()
    }

    fn on_timeout(&mut self, now: Instant) {
        self.conn.on_timeout(now);
    }

    fn is_done(&self) -> bool {
        // The server is passive: session end is the client's call.
        true
    }
}

/// Build a client endpoint directly (experiment probes that look into the
/// world while it runs, e.g. the Fig. 1 dynamics sampler over
/// [`Scenario::run_sampled`]).
pub fn client_endpoint_for_probe(cfg: &SessionConfig, now: Instant) -> VideoClientEndpoint {
    VideoClientEndpoint::new(cfg, now)
}

/// Build a server endpoint directly (see [`client_endpoint_for_probe`]).
pub fn server_endpoint_for_probe(cfg: &SessionConfig, now: Instant) -> VideoServerEndpoint {
    VideoServerEndpoint::new(cfg, now)
}

/// Everything a session produces.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Per-chunk request completion times.
    pub chunk_rct: Vec<Duration>,
    /// First-video-frame latency (request start → first frame complete).
    pub first_frame_latency: Option<Duration>,
    /// Player QoE accounting.
    pub player: PlayerStats,
    /// Client transport stats.
    pub client_transport: TransportStats,
    /// Server transport stats (where re-injection cost shows up).
    pub server_transport: TransportStats,
    /// Per-path wire bytes from the server (downlink split).
    pub server_bytes_per_path: Vec<(usize, u64)>,
    /// Virtual time when the session ended.
    pub ended_at: Instant,
    /// True if the video played to the end before the deadline.
    pub completed: bool,
}

/// Run one session over the given network paths, fault-free, until
/// `cfg.deadline`.
pub fn run_session(cfg: &SessionConfig, paths: Vec<Path>) -> SessionResult {
    Scenario::new(paths, cfg.deadline).video(cfg)
}

impl Scenario {
    /// Play `cfg`'s video in this scenario. Session tracing is configured
    /// by `cfg.trace`: when set, the links trace into it as well.
    pub fn video(self, cfg: &SessionConfig) -> SessionResult {
        let scenario = match &cfg.trace {
            Some(log) => self.traced(log),
            None => self,
        };
        let client = VideoClientEndpoint::new(cfg, Instant::ZERO);
        let server = VideoServerEndpoint::new(cfg, Instant::ZERO);
        session_result(scenario.run(client, server))
    }
}

/// Tear a finished session world down into its [`SessionResult`].
pub fn session_result(mut world: World<VideoClientEndpoint, VideoServerEndpoint>) -> SessionResult {
    let ended_at = world.now();
    let completed = world.client.video_finished();
    let player = world.client.finish(ended_at);
    SessionResult {
        chunk_rct: world.client.sorted_chunk_rct(),
        first_frame_latency: player
            .first_frame_at
            .map(|t| t.saturating_duration_since(Instant::ZERO)),
        player,
        client_transport: world.client.transport_stats(),
        server_transport: world.server.transport_stats(),
        server_bytes_per_path: world.server.bytes_per_path(),
        ended_at,
        completed,
    }
}

fn transport_metrics(s: &mut xlink_obs::MetricsScope<'_>, t: &TransportStats) {
    s.counter("bytes_sent", t.bytes_sent);
    s.counter("stream_bytes_sent", t.stream_bytes_sent);
    s.counter("stream_bytes_retransmitted", t.stream_bytes_retransmitted);
    s.counter("reinjected_bytes", t.reinjected_bytes);
    s.counter("packets_lost", t.packets_lost);
    s.counter("spurious_losses", t.spurious_losses);
    s.counter("handshake_retransmits", t.handshake_retransmits);
    s.gauge("redundancy_ratio", t.redundancy_ratio());
}

/// Distil one session into the per-run metrics registry the harness
/// serialises: the paper's cost ratio (re-injected vs. total payload
/// bytes on the server), stall accounting, spurious losses and
/// handshake retransmits, plus the per-path downlink byte split.
pub fn session_metrics(r: &SessionResult) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.counter("session.completed", r.completed as u64);
    m.counter("session.ended_at_us", r.ended_at.as_micros());
    m.counter("session.chunks", r.chunk_rct.len() as u64);
    if let Some(ff) = r.first_frame_latency {
        m.gauge("session.first_frame_latency_ms", ff.as_micros() as f64 / 1000.0);
    }
    {
        let mut p = m.scope("client.player");
        p.counter("stall_time_us", r.player.rebuffer_time.as_micros());
        p.counter("rebuffer_events", r.player.rebuffer_events);
        p.counter("play_time_us", r.player.play_time.as_micros());
    }
    transport_metrics(&mut m.scope("client.transport"), &r.client_transport);
    transport_metrics(&mut m.scope("server.transport"), &r.server_transport);
    for (path, bytes) in &r.server_bytes_per_path {
        m.counter(&format!("server.path{path}.bytes_sent"), *bytes);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_netsim::LinkConfig;

    fn good_paths() -> Vec<Path> {
        vec![
            Path::symmetric(LinkConfig::constant_rate(20.0, Duration::from_millis(10))),
            Path::symmetric(LinkConfig::constant_rate(15.0, Duration::from_millis(27))),
        ]
    }

    fn small_session(scheme: Scheme, seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::short_video(scheme, seed);
        cfg.video = Video::synth(4, 25, 800_000, 8.0);
        cfg.deadline = Duration::from_secs(60);
        cfg
    }

    #[test]
    fn sp_session_plays_to_completion() {
        let cfg = small_session(Scheme::Sp { path: 0 }, 1);
        let r = run_session(&cfg, good_paths());
        assert!(r.completed, "player should finish: {:?}", r.player);
        assert!(r.first_frame_latency.is_some());
        assert!(!r.chunk_rct.is_empty());
        assert_eq!(r.server_transport.reinjected_bytes, 0);
    }

    #[test]
    fn xlink_session_plays_to_completion() {
        let cfg = small_session(Scheme::Xlink, 2);
        let r = run_session(&cfg, good_paths());
        assert!(r.completed, "player should finish: {:?}", r.player);
        // On clean links with healthy buffers the QoE controller should
        // keep redundancy very low.
        assert!(
            r.server_transport.redundancy_ratio() < 0.3,
            "redundancy {}",
            r.server_transport.redundancy_ratio()
        );
    }

    #[test]
    fn vanilla_session_plays_to_completion() {
        let cfg = small_session(Scheme::VanillaMp, 3);
        let r = run_session(&cfg, good_paths());
        assert!(r.completed);
        assert_eq!(r.server_transport.reinjected_bytes, 0);
    }

    #[test]
    fn outage_on_one_path_stalls_sp_but_not_xlink() {
        // Path 0 dies from 1s to 4s; path 1 stays up.
        let run = |scheme| {
            let cfg = small_session(scheme, 4);
            Scenario::new(good_paths(), cfg.deadline)
                .with_outage(0, Instant::from_secs(1), Instant::from_secs(4))
                .video(&cfg)
        };
        let (sp, xl) = (run(Scheme::Sp { path: 0 }), run(Scheme::Xlink));
        assert!(xl.completed);
        let sp_rebuffer = sp.player.rebuffer_time;
        let xl_rebuffer = xl.player.rebuffer_time;
        assert!(xl_rebuffer <= sp_rebuffer, "XLINK rebuffer {xl_rebuffer} vs SP {sp_rebuffer}");
    }

    #[test]
    fn chunk_rcts_are_reasonable() {
        let cfg = small_session(Scheme::Xlink, 5);
        let r = run_session(&cfg, good_paths());
        // Every chunk finished within the session and no RCT is zero.
        for d in &r.chunk_rct {
            assert!(*d > Duration::ZERO && *d < Duration::from_secs(30));
        }
    }
}
