//! The re-injection index: which stream frames in flight may be copied onto
//! which other path, kept current where the facts change instead of being
//! scanned for on every poll (DESIGN §5).
//!
//! A frame in flight on path `h` is a candidate for path `t ≠ h` while some
//! byte of it is still in flight at the stream level (or it carries a FIN
//! that has to go out again, or nothing but a FIN), no frame of the stream
//! in flight on `t` overlaps it, and its start offset was not copied to `t`
//! within [`COPY_LIFETIME`]. All three move only when a frame of the same
//! stream is sent, acknowledged, lost or drained, when the stream is reset,
//! or when a copy's lifetime runs out; [`ReinjectIndex`] re-evaluates the
//! frames around each such event and keeps the candidates of every target
//! path sorted the way re-injection consumes them.

use super::SentFrame;
use crate::sorted::SortedMap;
use crate::stream::{SendRange, StreamMap};
use std::collections::VecDeque;
use std::ops::Bound;
use xlink_clock::{Duration, Instant};

/// How long a copy keeps ranges that start where it starts from being
/// copied onto the same path again.
pub const COPY_LIFETIME: Duration = Duration::from_secs(10);

/// Queue position of a range under a re-injection policy, lower first.
pub type Rank = (u8, u8);

/// Bookkeeping for one re-injected range so the same bytes are not
/// re-injected onto the same path twice while still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReinjectKey {
    /// Stream carrying the bytes.
    pub stream_id: u64,
    /// Start offset of the re-injected range.
    pub start: u64,
    /// Path the copy was sent on.
    pub path: usize,
}

/// Tracks outstanding re-injections with expiry, so state stays bounded.
/// Records must come in time order (a connection's clock does not run
/// backwards): expiry stops at the oldest record still alive.
#[derive(Debug, Default)]
pub struct ReinjectLedger {
    /// When each key was last recorded.
    live: SortedMap<ReinjectKey, Instant>,
    /// Every record, oldest first.
    by_age: VecDeque<(Instant, ReinjectKey)>,
}

impl ReinjectLedger {
    /// Record a re-injection at `now`.
    pub fn record(&mut self, key: ReinjectKey, now: Instant) {
        self.live.insert(key, now);
        self.by_age.push_back((now, key));
    }

    /// True if this (stream, start, path) was already re-injected.
    pub fn contains(&self, key: &ReinjectKey) -> bool {
        self.live.contains_key(key)
    }

    /// Drop entries older than `ttl`.
    pub fn expire(&mut self, now: Instant, ttl: Duration) {
        while self.pop_expired(now, ttl).is_some() {}
    }

    /// Drop the oldest record if it is `ttl` old, returning its key if that
    /// was the key's last record.
    fn pop_expired(&mut self, now: Instant, ttl: Duration) -> Option<ReinjectKey> {
        loop {
            let &(at, key) = self.by_age.front()?;
            if now.saturating_duration_since(at) < ttl {
                return None;
            }
            self.by_age.pop_front();
            if self.live.get(&key) == Some(&at) {
                self.live.remove(&key);
                return Some(key);
            }
        }
    }

    /// True when no re-injections are outstanding.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// Where a stream frame in flight sits: ordered as re-injection consumes
/// frames of one rank — by stream and offset, then (ranges sent twice) by
/// the path that holds the frame, its packet and its place in the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FrameAt {
    stream: u64,
    start: u64,
    holder: usize,
    pn: u64,
    nth: usize,
}

impl FrameAt {
    /// Below every frame of `stream` that starts at `start` or later.
    fn floor(stream: u64, start: u64) -> FrameAt {
        FrameAt { stream, start, holder: 0, pn: 0, nth: 0 }
    }
}

/// The rest of what is known about a frame in flight.
#[derive(Debug, Clone, Copy)]
struct Flight {
    end: u64,
    fin: bool,
    rank: Rank,
    /// Bit `t`: the frame is a candidate for path `t`.
    eligible: u32,
}

/// A stream range that may be re-injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReinjectCandidate {
    /// Queue position under the re-injection policy.
    pub rank: Rank,
    /// The stream.
    pub stream_id: u64,
    /// The bytes of the frame in flight.
    pub range: SendRange,
    /// The frame carries the FIN.
    pub fin: bool,
    /// The path the frame is in flight on.
    pub holder: usize,
}

/// See the module documentation.
#[derive(Debug)]
pub struct ReinjectIndex {
    /// (stream priority, frame priority) → queue position.
    rank: fn(u8, u8) -> Rank,
    /// Every stream frame in flight, on any path.
    frames: SortedMap<FrameAt, Flight>,
    /// Per target path, its candidates in the order they are consumed.
    candidates: Vec<SortedMap<(Rank, FrameAt), (u64, bool)>>,
    ledger: ReinjectLedger,
    /// The longest frame ever tracked: a frame that overlaps offset `x`
    /// starts after `x - longest`.
    longest: u64,
}

impl ReinjectIndex {
    /// The index of a connection over `paths` paths whose policy queues
    /// ranges by `rank(stream priority, frame priority)`.
    pub fn new(paths: usize, rank: fn(u8, u8) -> Rank) -> Self {
        assert!(paths < u32::BITS as usize, "one bit per path");
        let candidates = (0..paths).map(|_| SortedMap::default()).collect();
        let (frames, ledger) = (SortedMap::default(), ReinjectLedger::default());
        ReinjectIndex { rank, frames, candidates, ledger, longest: 0 }
    }

    /// What may be copied onto `target` now, most urgent first.
    pub fn candidates(&self, target: usize) -> impl Iterator<Item = ReinjectCandidate> + '_ {
        self.candidates[target].iter().map(|(&(rank, at), &(end, fin))| ReinjectCandidate {
            rank,
            stream_id: at.stream,
            range: SendRange { start: at.start, end },
            fin,
            holder: at.holder,
        })
    }

    /// `frame`, the `nth` of packet `pn` on `path`, went out: if it is a
    /// stream range (a copy of data in flight elsewhere if `reinjected`),
    /// it is in flight, and the stream already counts it as sent.
    pub fn on_sent(
        &mut self,
        streams: &StreamMap,
        now: Instant,
        (path, pn, nth): (usize, u64, usize),
        frame: &SentFrame,
    ) {
        let &SentFrame::Stream { id, range, fin, reinjected } = frame else { return };
        let rank = streams
            .get(id)
            .map_or((0, 0), |s| (self.rank)(s.priority, s.send.priority_of(range.start)));
        let at = FrameAt { stream: id, start: range.start, holder: path, pn, nth };
        self.frames.insert(at, Flight { end: range.end, fin, rank, eligible: 0 });
        self.longest = self.longest.max(range.len());
        if reinjected {
            self.ledger.record(ReinjectKey { stream_id: id, start: range.start, path }, now);
        }
        self.refresh_around(streams, id, range, fin);
    }

    /// That frame left flight — acknowledged, lost or drained — and the
    /// stream has been told.
    pub fn on_gone(
        &mut self,
        streams: &StreamMap,
        (path, pn, nth): (usize, u64, usize),
        id: u64,
        range: SendRange,
        fin: bool,
    ) {
        let at = FrameAt { stream: id, start: range.start, holder: path, pn, nth };
        if let Some(flight) = self.frames.remove(&at) {
            self.set_eligible(at, flight, 0);
        }
        self.refresh_around(streams, id, range, fin);
    }

    /// Copies that have outlived `COPY_LIFETIME` no longer hold back the
    /// ranges they were made of.
    pub fn expire_copies(&mut self, streams: &StreamMap, now: Instant) {
        while let Some(key) = self.ledger.pop_expired(now, COPY_LIFETIME) {
            self.refresh_window(streams, key.stream_id, key.start, key.start + 1);
        }
    }

    /// Re-evaluate every frame of stream `id` (it was reset).
    pub fn refresh_stream(&mut self, streams: &StreamMap, id: u64) {
        self.refresh_window(streams, id, 0, u64::MAX);
    }

    /// Re-evaluate the frames an event on `range` of stream `id` can have
    /// moved: those that overlap it, and with a FIN involved (the stream's
    /// end, where every FIN-carrying frame sits) everything from it on.
    fn refresh_around(&mut self, streams: &StreamMap, id: u64, range: SendRange, fin: bool) {
        let until = if fin || range.is_empty() { u64::MAX } else { range.end };
        self.refresh_window(streams, id, range.start.saturating_sub(self.longest), until);
    }

    /// Re-evaluate the frames of stream `id` that start in `[from, until)`
    /// (no stream is `u64::MAX` bytes long).
    fn refresh_window(&mut self, streams: &StreamMap, id: u64, from: u64, until: u64) {
        let mut after = Bound::Included(FrameAt::floor(id, from));
        let end = Bound::Excluded(FrameAt::floor(id, until));
        loop {
            let Some((&at, &flight)) = self.frames.range((after, end)).next() else { break };
            let eligible = self.eligible_for(streams, at, flight);
            self.set_eligible(at, flight, eligible);
            after = Bound::Excluded(at);
        }
    }

    /// The paths `at` may be copied to, as a bit set.
    fn eligible_for(&self, streams: &StreamMap, at: FrameAt, flight: Flight) -> u32 {
        let (start, end) = (at.start, flight.end);
        let still_needed = start == end
            || streams.get(at.stream).is_some_and(|s| {
                s.send.in_flight_from(start).is_some_and(|run| run.start < end)
                    || (flight.fin && s.send.fin_pending())
            });
        if !still_needed {
            return 0;
        }
        // Paths that carry (an overlap with) the range already: the holder,
        // and (an empty range overlaps nothing) …
        let mut taken = 1u32 << at.holder;
        let window = FrameAt::floor(at.stream, start.saturating_sub(self.longest))
            ..FrameAt::floor(at.stream, end);
        for (other, other_flight) in self.frames.range(window) {
            if other_flight.end > start {
                taken |= 1 << other.holder;
            }
        }
        // … and paths it was copied to not long ago.
        for path in 0..self.candidates.len() {
            let key = ReinjectKey { stream_id: at.stream, start, path };
            if taken & (1 << path) == 0 && self.ledger.contains(&key) {
                taken |= 1 << path;
            }
        }
        !taken & ((1u32 << self.candidates.len()) - 1)
    }

    /// Move `at` into and out of the per-path candidate lists.
    fn set_eligible(&mut self, at: FrameAt, flight: Flight, eligible: u32) {
        let mut moved = flight.eligible ^ eligible;
        if moved == 0 {
            return;
        }
        if let Some(kept) = self.frames.get_mut(&at) {
            kept.eligible = eligible;
        }
        while moved != 0 {
            let path = moved.trailing_zeros() as usize;
            moved &= moved - 1;
            if eligible & (1 << path) != 0 {
                self.candidates[path].insert((flight.rank, at), (flight.end, flight.fin));
            } else {
                self.candidates[path].remove(&(flight.rank, at));
            }
        }
    }
}
