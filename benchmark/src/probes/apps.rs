//! Probes of the layers around the transport: `traces`, `video`, `edge`,
//! the fleet planner and aggregates of `harness`, `lab` and `obs`.

use super::{each, timed, Body, Probe, Sample};
use std::hint::black_box;
use std::time::{Duration as WallDuration, Instant as Wall};
use xlink_clock::{Duration, Instant};
use xlink_core::lb::encode_cid;
use xlink_edge::{classify, mint, verify, Classified, EdgeRouter, Pop, PopConfig};
use xlink_harness::fleet::{ArmAgg, PlanIter, TracePool};
use xlink_harness::{FleetConfig, Scheme, SessionResult, TransportStats};
use xlink_lab::stream::LogHistogram;
use xlink_netsim::Endpoint;
use xlink_obs::{prof, Event, Tracer};
use xlink_quic::connection::{Config, Connection};
use xlink_video::{MediaStore, Player, PlayerConfig, PlayerStats, Request, Response, Video};

pub fn probes() -> Vec<Probe> {
    vec![
        timed("traces.gen_sim_s_ns", traces_gen),
        timed("video.player.advance_ns", player_advance),
        timed("video.player.on_bytes_ns", player_on_bytes),
        timed("video.server.body_range_mb_ns", server_body_range),
        timed("video.http.codec_ns", http_codec),
        timed("edge.classify_route_ns", edge_classify_route),
        timed("edge.token.mint_ns", token_mint),
        timed("edge.token.verify_ns", token_verify),
        timed("edge.pop.admit_ns", pop_admit),
        timed("edge.pop.forward_pkt_ns", pop_forward),
        timed("fleet.plan.session_ns", fleet_plan),
        timed("fleet.trace_pool.gen_ns", fleet_trace_pool),
        timed("fleet.agg.absorb_ns", fleet_absorb),
        timed("fleet.agg.merge_ns", fleet_merge),
        timed("lab.hist.record_ns", hist_record),
        timed("obs.emit_disabled_ns", emit_disabled),
        timed("obs.prof_span_off_ns", prof_span_off),
    ]
}

/// Generate ten seconds of a mobility trace; one operation is one
/// simulated second.
fn traces_gen() -> Body {
    const SIM_SECONDS: u64 = 10;
    let mut seed = 0u64;
    Box::new(move |iters| {
        let started = Wall::now();
        for _ in 0..iters {
            seed += 1;
            black_box(xlink_traces::hsr_cellular(seed, SIM_SECONDS * 1000));
        }
        Sample { elapsed: started.elapsed(), ops: iters * SIM_SECONDS }
    })
}

fn short_video() -> Video {
    Video::synth(4, 25, 400_000, 8.0)
}

/// A player with the whole video buffered, advanced one frame time per
/// operation; restarted when the video ends.
fn player_advance() -> Body {
    let video = short_video();
    let frame = Duration::from_millis(40);
    let fresh = move || {
        let mut p = Player::new(video.clone(), PlayerConfig::default());
        p.on_bytes(Instant::ZERO, video.total_bytes());
        p
    };
    let (mut player, mut now) = (fresh(), Instant::ZERO);
    each(move || {
        if player.is_finished() {
            (player, now) = (fresh(), Instant::ZERO);
        }
        now += frame;
        player.advance(black_box(now));
    })
}

/// Bytes trickle in a packet at a time while the player plays.
fn player_on_bytes() -> Body {
    let video = short_video();
    let total = video.total_bytes();
    let fresh = move || Player::new(video.clone(), PlayerConfig::default());
    let (mut player, mut now, mut prefix) = (fresh(), Instant::ZERO, 0u64);
    each(move || {
        if prefix >= total {
            (player, now, prefix) = (fresh(), Instant::ZERO, 0);
        }
        prefix += 1200;
        now += Duration::from_millis(1);
        player.on_bytes(black_box(now), prefix.min(total));
    })
}

/// Materialise 1 MiB of patterned body.
fn server_body_range() -> Body {
    let mut store = MediaStore::new();
    store.insert("video", Video::synth(24, 25, 4_000_000, 10.0));
    each(move || {
        black_box(store.body_range("video", black_box(0), 1 << 20).expect("in range"));
    })
}

/// One request and one response header, encoded and decoded.
fn http_codec() -> Body {
    let request = Request { object: "video".to_string(), start: 512 << 10, end: 1 << 20 };
    let response = Response { status: 200, body_len: 512 << 10, first_frame_end: 40_000 };
    each(move || {
        let bytes = black_box(&request).encode();
        black_box(Request::decode(&bytes).expect("round trip"));
        let bytes = black_box(&response).encode();
        black_box(Response::decode(&bytes).expect("round trip"));
    })
}

/// Per-datagram edge hot path: classify the short header, then demux the
/// DCID through a router holding a thousand routes.
fn edge_classify_route() -> Body {
    let shards: Vec<u16> = (1..=8).collect();
    let mut router = EdgeRouter::new(&shards);
    let cids: Vec<_> = (0..1024u64).map(|i| encode_cid(shards[(i % 8) as usize], 0, i)).collect();
    for (slot, cid) in cids.iter().enumerate() {
        router.bind(*cid, slot);
    }
    let mut datagram = vec![0x40u8];
    datagram.extend_from_slice(&cids[513].0);
    datagram.push(0);
    each(move || match classify(black_box(&datagram)) {
        Classified::Short { dcid } => {
            black_box(router.route(&dcid).expect("bound"));
        }
        _ => unreachable!("short header"),
    })
}

const TOKEN_KEY: u64 = 0xed6e_70b5_0bad_cafe;

fn token_mint() -> Body {
    let mut nonce = 0u64;
    each(move || {
        nonce += 1;
        black_box(mint(black_box(TOKEN_KEY), 3, nonce, Instant::from_millis(100)));
    })
}

fn token_verify() -> Body {
    let minted = Instant::from_millis(100);
    let token = mint(TOKEN_KEY, 3, 7, minted);
    let (now, lifetime) = (minted + Duration::from_millis(40), Duration::from_secs(2));
    each(move || {
        verify(black_box(TOKEN_KEY), 3, now, lifetime, black_box(&token)).expect("valid token");
    })
}

/// A client connection and the PoP it talks to, shuttled directly through
/// `Pop`'s `Endpoint` interface. Only the PoP's side is timed.
struct PopPair {
    pop: Pop,
    client: Connection,
    now: Instant,
    pop_time: WallDuration,
    pop_datagrams: u64,
}

impl PopPair {
    /// A new client at `now` (the PoP's clock must never run backwards).
    fn new(pop: Pop, seed: u64, now: Instant) -> Self {
        let client = Connection::new(Config::client(seed), now);
        PopPair { pop, client, now, pop_time: WallDuration::ZERO, pop_datagrams: 0 }
    }

    /// One round: client datagrams into the PoP, PoP datagrams back.
    fn round(&mut self) -> bool {
        let mut moved = false;
        while let Some(d) = self.client.poll_transmit(self.now) {
            let started = Wall::now();
            self.pop.on_datagram(self.now, 0, &d);
            self.pop_time += started.elapsed();
            self.pop_datagrams += 1;
            moved = true;
        }
        loop {
            let started = Wall::now();
            let tx = self.pop.poll_transmit(self.now);
            self.pop_time += started.elapsed();
            let Some(tx) = tx else { break };
            self.client.handle_datagram(self.now, &tx.payload);
            self.pop_datagrams += 1;
            moved = true;
        }
        moved
    }

    /// Shuttle until `done`, firing timers when nothing moves.
    fn run_until(&mut self, mut done: impl FnMut(&mut PopPair) -> bool) {
        for _ in 0..1_000_000u32 {
            if done(self) {
                return;
            }
            if self.round() {
                self.now += Duration::from_micros(100);
                continue;
            }
            let next = [self.client.poll_timeout(), self.pop.poll_timeout()];
            self.now =
                next.into_iter().flatten().min().expect("PoP exchange stalled").max(self.now);
            self.client.on_timeout(self.now);
            self.pop.on_timeout(self.now);
        }
        panic!("PoP exchange did not finish");
    }

    fn establish(&mut self) {
        self.run_until(|p| p.client.is_established());
        assert!(self.client.retry_seen(), "admission must have sent a Retry");
    }
}

fn pop() -> Pop {
    Pop::new(PopConfig { shards: vec![1, 2, 3], ..PopConfig::default() })
}

/// Admission of one connection: Initial → Retry → Initial with token →
/// backend created → handshake done. The PoP is replaced every 256
/// admissions so it never runs into its connection cap.
fn pop_admit() -> Body {
    let mut seed = 0u64;
    Box::new(move |iters| {
        let mut elapsed = WallDuration::ZERO;
        let (mut shared, mut now) = (pop(), Instant::ZERO);
        for i in 0..iters {
            seed += 1;
            if i % 256 == 255 {
                shared = pop();
            }
            let mut pair = PopPair::new(shared, seed, now);
            pair.establish();
            elapsed += pair.pop_time;
            (shared, now) = (pair.pop, pair.now);
        }
        Sample { elapsed, ops: iters }
    })
}

/// Steady state through the PoP: one admitted client downloads 1 MiB; one
/// operation is one datagram the PoP took in or put out.
fn pop_forward() -> Body {
    const DOWNLOAD: u64 = 1 << 20;
    let mut seed = 0u64;
    Box::new(move |iters| {
        let (mut elapsed, mut datagrams) = (WallDuration::ZERO, 0u64);
        for _ in 0..iters {
            seed += 1;
            let mut pair = PopPair::new(pop(), seed, Instant::ZERO);
            pair.establish();
            let (before_time, before_datagrams) = (pair.pop_time, pair.pop_datagrams);
            let id = pair.client.open_stream(0);
            // The PoP's request protocol: `[offset | length]`, little endian.
            let mut request = [0u8; 16];
            request[8..].copy_from_slice(&DOWNLOAD.to_le_bytes());
            pair.client.stream_send(id, &request, true);
            let mut received = 0u64;
            pair.run_until(|p| {
                received += p.client.stream_recv(id, usize::MAX).len() as u64;
                received >= DOWNLOAD
            });
            elapsed += pair.pop_time - before_time;
            datagrams += pair.pop_datagrams - before_datagrams;
        }
        Sample { elapsed, ops: datagrams }
    })
}

fn fleet_config() -> FleetConfig {
    let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
    cfg.users_per_day = 1_000;
    cfg
}

/// Plan one day of a thousand sessions; one operation is one session.
fn fleet_plan() -> Body {
    let cfg = fleet_config();
    Box::new(move |iters| {
        let started = Wall::now();
        for _ in 0..iters {
            black_box(PlanIter::new(black_box(&cfg)).map(|p| p.seed).fold(0, |a, b| a ^ b));
        }
        Sample { elapsed: started.elapsed(), ops: iters * cfg.users_per_day }
    })
}

/// The trace pool every fleet run generates first (32 archetypes, 30 s).
fn fleet_trace_pool() -> Body {
    let mut seed = 0u64;
    each(move || {
        seed += 1;
        black_box(TracePool::generate(seed, 32, 30_000));
    })
}

fn session_result() -> SessionResult {
    let at = |ms| Instant::from_millis(ms);
    SessionResult {
        chunk_rct: [90, 110, 130, 180].map(Duration::from_millis).to_vec(),
        first_frame_latency: Some(Duration::from_millis(140)),
        player: PlayerStats {
            rebuffer_time: Duration::from_millis(120),
            rebuffer_events: 1,
            play_time: Duration::from_secs(4),
            first_frame_at: Some(at(140)),
            playback_started_at: Some(at(200)),
            finished_at: Some(at(4_400)),
        },
        client_transport: TransportStats::default(),
        server_transport: TransportStats {
            bytes_sent: 230_000,
            stream_bytes_sent: 200_000,
            reinjected_bytes: 4_000,
            ..TransportStats::default()
        },
        server_bytes_per_path: vec![(0, 150_000), (1, 80_000)],
        ended_at: at(4_400),
        completed: true,
    }
}

fn fleet_absorb() -> Body {
    let result = session_result();
    let mut arm = ArmAgg::default();
    each(move || arm.absorb(black_box(&result)))
}

fn fleet_merge() -> Body {
    let mut shard = ArmAgg::default();
    (0..64).for_each(|_| shard.absorb(&session_result()));
    let mut total = ArmAgg::default();
    each(move || total.merge(black_box(&shard)))
}

fn hist_record() -> Body {
    let mut hist = LogHistogram::new();
    let mut x = 0.05f64;
    each(move || {
        x = if x > 2.0 { 0.05 } else { x * 1.003 };
        hist.record(black_box(x));
    })
}

/// What every instrumented site pays when nobody listens.
fn emit_disabled() -> Body {
    let tracer = Tracer::disabled();
    each(move || {
        black_box(&tracer).emit(Instant::ZERO, Event::LinkDrop { reason: "queue", bytes: 1200 });
    })
}

fn prof_span_off() -> Body {
    each(|| {
        let _span = prof::span!("bench/span_off");
    })
}
