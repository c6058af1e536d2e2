//! The client video player: buffer, playout, rebuffer accounting, and QoE
//! signal capture (the paper's Fig. 5 pipeline — Media Source → Source
//! Pipe → Decoder — collapsed into one deterministic model).
//!
//! The player receives bytes (from the transport), converts complete
//! frames into buffer occupancy, starts playing once a start-up target is
//! buffered, then consumes frames at `fps`. When the buffer runs dry it
//! stalls (a rebuffer event) until the start-up target is met again. The
//! QoE snapshot — cached bytes, cached frames, bitrate, framerate — is
//! exactly what XLINK's client feeds into ACK_MP frames.

use crate::model::Video;
use xlink_clock::{Duration, Instant};
use xlink_obs::{Event, Tracer};
use xlink_quic::frame::QoeSignal;

/// Player tuning.
#[derive(Debug, Clone)]
pub struct PlayerConfig {
    /// Frames that must be buffered before (re)starting playback.
    pub startup_frames: u64,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig { startup_frames: 5 }
    }
}

/// Playback statistics — the paper's QoE metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlayerStats {
    /// Total stall time after start-up (rebuffering).
    pub rebuffer_time: Duration,
    /// Number of distinct rebuffer events.
    pub rebuffer_events: u64,
    /// Total time spent actually playing.
    pub play_time: Duration,
    /// When the first frame was fully received.
    pub first_frame_at: Option<Instant>,
    /// When playback first started.
    pub playback_started_at: Option<Instant>,
    /// When the last frame finished playing.
    pub finished_at: Option<Instant>,
}

impl PlayerStats {
    /// The paper's rebuffer rate: sum(rebuffer time)/sum(play time).
    pub fn rebuffer_rate(&self) -> f64 {
        let play = self.play_time.as_secs_f64();
        if play <= 0.0 {
            return 0.0;
        }
        self.rebuffer_time.as_secs_f64() / play
    }
}

/// Playback state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlayState {
    /// Waiting for the start-up buffer.
    Starting,
    /// Consuming frames.
    Playing,
    /// Stalled mid-play (rebuffering).
    Stalled,
    /// All frames played.
    Finished,
}

/// The deterministic player model.
#[derive(Debug)]
pub struct Player {
    video: Video,
    cfg: PlayerConfig,
    /// Contiguous bytes received so far.
    bytes_received: u64,
    /// Frames fully received (derived from bytes).
    frames_received: u64,
    /// Frames consumed by playback.
    frames_played: u64,
    state: PlayState,
    /// Accumulated playable time not yet consumed (fractional frames).
    last_advance: Option<Instant>,
    /// Time the current stall began.
    stall_since: Option<Instant>,
    stats: PlayerStats,
    /// Buffer-level samples (time, cached_bytes) for the Fig. 6 plots.
    pub buffer_probe: Option<Vec<(Instant, u64)>>,
    /// Player lifecycle/buffer tracer (never consulted for decisions).
    tracer: Tracer,
}

impl Player {
    /// New player for a video.
    pub fn new(video: Video, cfg: PlayerConfig) -> Self {
        Player {
            video,
            cfg,
            bytes_received: 0,
            frames_received: 0,
            frames_played: 0,
            state: PlayState::Starting,
            last_advance: None,
            stall_since: None,
            stats: PlayerStats::default(),
            buffer_probe: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer reporting player lifecycle and buffer events.
    /// Pass [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The video being played.
    pub fn video(&self) -> &Video {
        &self.video
    }

    /// Feed contiguously received bytes (absolute prefix length).
    pub fn on_bytes(&mut self, now: Instant, contiguous_bytes: u64) {
        self.advance(now);
        self.bytes_received = self.bytes_received.max(contiguous_bytes);
        let frames = self.video.frames_in_prefix(self.bytes_received);
        if frames > 0 && self.stats.first_frame_at.is_none() {
            self.stats.first_frame_at = Some(now);
            self.tracer.emit(now, Event::FirstFrame {});
        }
        if frames != self.frames_received {
            self.tracer.emit(
                now,
                Event::PlayerBuffer {
                    cached_frames: frames.saturating_sub(self.frames_played),
                    cached_bytes: self.cached_bytes(),
                },
            );
        }
        self.frames_received = frames;
        self.try_unstall(now);
        self.record_probe(now);
    }

    /// Drive playback to `now` (call periodically / on ticks).
    pub fn advance(&mut self, now: Instant) {
        match self.state {
            PlayState::Finished => return,
            PlayState::Starting | PlayState::Stalled => {
                self.try_unstall(now);
            }
            PlayState::Playing => {}
        }
        if self.state != PlayState::Playing {
            self.record_probe(now);
            return;
        }
        let last = self.last_advance.unwrap_or(now);
        let elapsed = now.saturating_duration_since(last);
        if elapsed == Duration::ZERO {
            return;
        }
        // Frames consumable in `elapsed`.
        let frame_dur = Duration::from_secs_f64(1.0 / self.video.fps as f64);
        if frame_dur == Duration::ZERO {
            return;
        }
        let consumable = elapsed.as_micros() / frame_dur.as_micros().max(1);
        if consumable == 0 {
            return;
        }
        let available = self.frames_received.saturating_sub(self.frames_played);
        let total_left = self.video.frame_count().saturating_sub(self.frames_played);
        let consumed = consumable.min(available).min(total_left);
        self.frames_played += consumed;
        let play_span = Duration::from_micros(consumed * frame_dur.as_micros());
        self.stats.play_time += play_span;
        self.last_advance = Some(last + play_span);
        if self.frames_played >= self.video.frame_count() {
            self.state = PlayState::Finished;
            self.stats.finished_at = Some(last + play_span);
            // Trace at observation time (stats keep the backdated instant)
            // so per-source timestamps stay monotone.
            self.tracer.emit(now, Event::PlaybackFinished {});
        } else if consumed < consumable && self.frames_played < self.video.frame_count() {
            // Ran out of frames mid-interval: stall begins when the buffer
            // emptied.
            self.state = PlayState::Stalled;
            self.stats.rebuffer_events += 1;
            self.stall_since = Some(last + play_span);
            self.last_advance = None;
            self.tracer.emit(now, Event::RebufferStart {});
        }
        self.record_probe(now);
    }

    fn try_unstall(&mut self, now: Instant) {
        let buffered = self.frames_received.saturating_sub(self.frames_played);
        let remaining = self.video.frame_count().saturating_sub(self.frames_played);
        let target = self.cfg.startup_frames.min(remaining.max(1));
        if buffered < target {
            return;
        }
        match self.state {
            PlayState::Starting => {
                self.state = PlayState::Playing;
                self.stats.playback_started_at = Some(now);
                self.last_advance = Some(now);
                self.tracer.emit(now, Event::PlaybackStarted {});
            }
            PlayState::Stalled => {
                if let Some(s) = self.stall_since.take() {
                    let stall = now.saturating_duration_since(s);
                    self.stats.rebuffer_time += stall;
                    self.tracer.emit(now, Event::RebufferEnd { stall_us: stall.as_micros() });
                }
                self.state = PlayState::Playing;
                self.last_advance = Some(now);
            }
            _ => {}
        }
    }

    fn record_probe(&mut self, now: Instant) {
        if self.buffer_probe.is_some() {
            let cached = self.cached_bytes();
            self.buffer_probe.as_mut().expect("just checked").push((now, cached));
        }
    }

    /// Bytes buffered ahead of the playhead.
    pub fn cached_bytes(&self) -> u64 {
        let played_bytes = if self.frames_played == 0 {
            0
        } else {
            self.video.frame_range(self.frames_played - 1).1
        };
        self.bytes_received.saturating_sub(played_bytes)
    }

    /// Frames buffered ahead of the playhead.
    pub fn cached_frames(&self) -> u64 {
        self.frames_received.saturating_sub(self.frames_played)
    }

    /// The QoE snapshot XLINK's client sends to the server (§5.2.1).
    pub fn qoe_signal(&self) -> QoeSignal {
        QoeSignal {
            cached_bytes: self.cached_bytes(),
            cached_frames: self.cached_frames(),
            bps: self.video.bps,
            fps: self.video.fps,
        }
    }

    /// True once every frame has been played.
    pub fn is_finished(&self) -> bool {
        self.state == PlayState::Finished
    }

    /// True while stalled post-startup.
    pub fn is_stalled(&self) -> bool {
        self.state == PlayState::Stalled
    }

    /// Statistics (final accounting requires [`Player::finish_accounting`]
    /// if the video never completed).
    pub fn stats(&self) -> PlayerStats {
        self.stats
    }

    /// Close the books at the end of a session: an open stall is charged
    /// up to `now`.
    pub fn finish_accounting(&mut self, now: Instant) -> PlayerStats {
        if let Some(s) = self.stall_since.take() {
            self.stats.rebuffer_time += now.saturating_duration_since(s);
            self.stall_since = Some(s); // keep state consistent
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video() -> Video {
        // 2s @ 10fps, uniform 1000-byte frames.
        Video::from_frames(10, 80_000, vec![1000; 20])
    }

    fn ms(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    #[test]
    fn startup_waits_for_buffer() {
        let mut p = Player::new(video(), PlayerConfig { startup_frames: 5 });
        p.on_bytes(ms(10), 3000); // 3 frames
        p.advance(ms(50));
        assert!(p.stats().playback_started_at.is_none());
        p.on_bytes(ms(60), 5000); // 5 frames
        assert_eq!(p.stats().playback_started_at, Some(ms(60)));
    }

    #[test]
    fn first_frame_latency_recorded() {
        let mut p = Player::new(video(), PlayerConfig::default());
        p.on_bytes(ms(5), 999);
        assert!(p.stats().first_frame_at.is_none());
        p.on_bytes(ms(7), 1000);
        assert_eq!(p.stats().first_frame_at, Some(ms(7)));
        // Not overwritten later.
        p.on_bytes(ms(9), 5000);
        assert_eq!(p.stats().first_frame_at, Some(ms(7)));
    }

    #[test]
    fn smooth_playback_no_rebuffer() {
        let mut p = Player::new(video(), PlayerConfig { startup_frames: 2 });
        p.on_bytes(ms(0), 20_000); // everything at once
        let mut t = 0;
        while !p.is_finished() && t < 10_000 {
            t += 50;
            p.advance(ms(t));
        }
        assert!(p.is_finished());
        let st = p.stats();
        assert_eq!(st.rebuffer_events, 0);
        assert_eq!(st.rebuffer_time, Duration::ZERO);
        // 20 frames at 10fps = 2s of play time.
        assert_eq!(st.play_time, Duration::from_secs(2));
        assert_eq!(st.finished_at, Some(ms(2000)));
    }

    #[test]
    fn stall_and_recovery_accounting() {
        let mut p = Player::new(video(), PlayerConfig { startup_frames: 2 });
        p.on_bytes(ms(0), 5000); // 5 frames: plays 0-500ms
        p.advance(ms(100));
        p.advance(ms(500)); // buffer empty at 500ms
        p.advance(ms(700)); // still stalled
        assert!(p.is_stalled());
        assert_eq!(p.stats().rebuffer_events, 1);
        // Refill at 900ms → stall lasted 400ms.
        p.on_bytes(ms(900), 20_000);
        assert!(!p.is_stalled());
        assert_eq!(p.stats().rebuffer_time, Duration::from_millis(400));
        // Finish the video.
        let mut t = 900;
        while !p.is_finished() && t < 10_000 {
            t += 25;
            p.advance(ms(t));
        }
        assert!(p.is_finished());
        let st = p.stats();
        assert_eq!(st.play_time, Duration::from_secs(2));
        assert!((st.rebuffer_rate() - 0.4 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn qoe_signal_tracks_buffer() {
        let mut p = Player::new(video(), PlayerConfig { startup_frames: 2 });
        p.on_bytes(ms(0), 7500); // 7 complete frames + half
        let q = p.qoe_signal();
        assert_eq!(q.cached_frames, 7);
        assert_eq!(q.cached_bytes, 7500);
        assert_eq!(q.fps, 10);
        // Play 3 frames (300ms).
        p.advance(ms(300));
        let q = p.qoe_signal();
        assert_eq!(q.cached_frames, 4);
        assert_eq!(q.cached_bytes, 7500 - 3000);
    }

    #[test]
    fn partial_interval_consumption() {
        let mut p = Player::new(video(), PlayerConfig { startup_frames: 1 });
        p.on_bytes(ms(0), 20_000);
        // Advance by 250ms = 2.5 frames → 2 frames consumed.
        p.advance(ms(250));
        assert_eq!(p.cached_frames(), 18);
        // The leftover half-frame is not lost: at 300ms total, 3 played.
        p.advance(ms(300));
        assert_eq!(p.cached_frames(), 17);
    }

    #[test]
    fn finish_accounting_charges_open_stall() {
        let mut p = Player::new(video(), PlayerConfig { startup_frames: 1 });
        p.on_bytes(ms(0), 2000);
        p.advance(ms(200)); // both frames played by 200ms
        p.advance(ms(350)); // stall detected (needs a full frame interval), backdated to 200ms
        assert!(p.is_stalled());
        let st = p.finish_accounting(ms(1200));
        assert_eq!(st.rebuffer_time, Duration::from_millis(1000));
    }

    #[test]
    fn buffer_probe_records_series() {
        let mut p = Player::new(video(), PlayerConfig::default());
        p.buffer_probe = Some(Vec::new());
        p.on_bytes(ms(1), 3000);
        p.on_bytes(ms(2), 6000);
        let probe = p.buffer_probe.as_ref().unwrap();
        assert!(probe.len() >= 2);
        assert_eq!(probe.last().unwrap().1, 6000);
    }
}
