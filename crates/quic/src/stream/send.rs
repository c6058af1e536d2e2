//! Send side of a QUIC stream.
//!
//! Buffers application data, hands out byte ranges to the packetizer, and
//! accepts range-level ack/loss/retransmission signals. Re-injection (the
//! XLINK mechanism) reuses the same range bookkeeping: a re-injected range
//! is simply scheduled for transmission again while the original copy is
//! still in flight.
//!
//! The stream keeps two exact sets of byte ranges (`RangeSet`): the bytes
//! queued for (re)transmission and the bytes the peer acknowledged. Every
//! range in them is one the stream queued or sent itself, so neither has a
//! cap: the acknowledged set holds at most one range per frame sent above
//! the acknowledged prefix, and the data is all acknowledged when it is the
//! one range from 0 to what was written. The stream's state
//! ([`SendStream::state`]) is read off these records, as RFC 9000 §3.1
//! defines it: `DataRecvd` once the FIN and every byte are acknowledged,
//! in whatever order, and a FIN the peer acknowledged is never sent again.
//!
//! A stream holds only the bytes it may still be asked for. Those start at
//! the lowest offset still owed: the first unacknowledged byte, or, if
//! lower, the start of the first range queued for (re)transmission or of
//! a frame in flight that a re-injection may copy whole. They end where
//! generation has got to: a body written with [`SendStream::write_with`]
//! is generated as it is sent, at most [`FILL_WINDOW`] bytes ahead of what
//! was taken. The acknowledged prefix is released as ACKs arrive
//! ([`SendStream::release`]), and its room is reused for the bytes
//! generated next, so a transfer stops allocating once the buffer's
//! capacity is twice the most bytes it ever held. Those count the
//! released bytes not yet moved out, not only the ones still owed: a
//! `bulk_fatpipe` VanillaMp server reached 8.55 MB of capacity while
//! ~2.2 MB were owed. ROADMAP item 17 bounds capacity by what is owed.
//!
//! For video, ranges can carry a *frame priority* marker set through the
//! `stream_send`-style API (paper §5.1): the application tags the byte
//! span of the first video frame so the scheduler can re-inject it ahead
//! of everything else in the stream.

use crate::ranges::RangeSet;
use std::collections::BTreeMap;

/// Priority attached to a byte range by the application (paper §5.1:
/// "the application can set the stream data containing the first video
/// frame at the highest priority with position and size parameters").
/// Lower numeric value = more urgent.
pub type FramePriority = u8;

/// Default priority for untagged data.
pub const DEFAULT_FRAME_PRIORITY: FramePriority = 128;

/// How far a body written with [`SendStream::write_with`] is generated
/// ahead of the bytes taken for transmission: when a take reaches past
/// what was generated, the stream generates up to this many bytes beyond
/// it.
pub const FILL_WINDOW: u64 = 64 * 1024;

/// A contiguous byte range scheduled for (re)transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRange {
    /// First byte offset.
    pub start: u64,
    /// One past the last byte offset.
    pub end: u64,
}

impl SendRange {
    /// Range length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for zero-length ranges.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Send-stream states (RFC 9000 §3.1, abridged), read off the stream's
/// records by [`SendStream::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendState {
    /// Accepting writes and transmitting.
    Ready,
    /// FIN written; flushing remaining data.
    DataSent,
    /// All data including FIN acknowledged.
    DataRecvd,
    /// Reset sent.
    ResetSent,
}

/// A body written with [`SendStream::write_with`]: stream offset `o` is
/// byte `o - start + from` of the payload with `phase`
/// ([`xlink_lab::payload`]).
#[derive(Debug, Clone, Copy)]
struct Body {
    start: u64,
    phase: u64,
    from: u64,
}

/// The send half of one stream.
#[derive(Debug)]
pub struct SendStream {
    /// The bytes generated and not yet dropped: stream offsets from
    /// `buf_start` on. Those below `released` are owed no more; their room
    /// is reclaimed when bytes are appended.
    buf: Vec<u8>,
    buf_start: u64,
    /// Every byte below this offset is acknowledged, and none is queued or
    /// may be copied again: the stream no longer holds them.
    released: u64,
    /// Bytes written by the application, generated or not.
    written: u64,
    /// The body the written bytes past the end of `buf` belong to.
    body: Option<Body>,
    /// True once the application finished the stream.
    fin: bool,
    /// True once a frame carrying the FIN bit has been transmitted (and
    /// not subsequently lost).
    fin_sent: bool,
    /// True once a frame carrying the FIN bit was acknowledged.
    fin_acked: bool,
    /// True once the stream was reset.
    reset: bool,
    /// Bytes queued for transmission: from writes, loss, or explicit
    /// re-queueing of in-flight spans; they may be in flight as well.
    pending: RangeSet,
    /// Every byte the peer acknowledged, exactly.
    acked: RangeSet,
    /// Frame priority markers: offset → (end, priority).
    priorities: BTreeMap<u64, (u64, FramePriority)>,
    /// Stream-level flow control: max offset the peer allows us to send.
    max_data: u64,
    /// Largest offset we have ever transmitted (for final-size checks).
    largest_sent: u64,
    /// True if blocked by stream flow control since the last query.
    blocked_at: Option<u64>,
}

impl SendStream {
    /// New send stream with an initial peer-advertised flow limit.
    pub fn new(max_data: u64) -> Self {
        SendStream {
            buf: Vec::new(),
            buf_start: 0,
            released: 0,
            written: 0,
            body: None,
            fin: false,
            fin_sent: false,
            fin_acked: false,
            reset: false,
            pending: RangeSet::default(),
            acked: RangeSet::default(),
            priorities: BTreeMap::new(),
            max_data,
            largest_sent: 0,
            blocked_at: None,
        }
    }

    /// Append a copy of application data; returns the byte range it
    /// occupies. Panics if called after `finish`.
    pub fn write(&mut self, data: &[u8]) -> SendRange {
        if !data.is_empty() {
            // A copy goes behind every byte of a body written before it.
            self.generate(self.written);
            self.make_room(data.len());
            self.buf.extend_from_slice(data);
        }
        self.append(data.len() as u64)
    }

    /// Append `len` bytes of the payload with `phase`, from its byte
    /// `from` on ([`xlink_lab::payload`]), generated as they are sent: at
    /// most [`FILL_WINDOW`] bytes beyond what was taken. Returns the byte
    /// range they occupy. Panics if called after `finish`.
    pub fn write_with(&mut self, len: u64, phase: u64, from: u64) -> SendRange {
        if len > 0 {
            // One body at a time: the one written before goes out in full.
            self.generate(self.written);
            self.body = Some(Body { start: self.written, phase, from });
        }
        self.append(len)
    }

    /// Account `len` bytes written after the last ones and queue them.
    fn append(&mut self, len: u64) -> SendRange {
        let range = SendRange { start: self.written, end: self.written + len };
        if !range.is_empty() {
            assert_eq!(self.state(), SendState::Ready, "write after finish or reset");
            self.written = range.end;
            self.queue_range(range);
        }
        range
    }

    /// Generate the written bytes up to offset `to`.
    fn generate(&mut self, to: u64) {
        let from = self.filled();
        if to <= from {
            return;
        }
        let body = self.body.expect("written bytes past the buffer are a body's");
        let n = (to - from) as usize;
        self.make_room(n);
        if self.buf.len() + n > self.buf.capacity() {
            // Grow as a `Vec` does, doubling, but not past the body's end.
            let most = (self.written - self.buf_start) as usize;
            let want = (2 * self.buf.capacity()).min(most).max(self.buf.len() + n);
            self.buf.reserve_exact(want - self.buf.len());
        }
        let at = |offset: u64| offset - body.start + body.from;
        xlink_lab::payload::extend(body.phase, at(from)..at(to), &mut self.buf);
        if to == self.written {
            self.body = None;
        }
    }

    /// Before `n` bytes are appended: if they do not fit and at least as
    /// many bytes are released as held, the held ones move to the front
    /// instead of the buffer growing. Each byte moved is paid for by a
    /// released one, and once the capacity is twice the most bytes the
    /// buffer ever held (released bytes not yet moved included, so up to
    /// about four times what is owed), nothing grows again. ROADMAP item
    /// 17 has the tighter bound.
    fn make_room(&mut self, n: usize) {
        let dead = (self.released - self.buf_start) as usize;
        if self.buf.len() + n > self.buf.capacity() && 2 * dead >= self.buf.len() {
            self.buf.drain(..dead);
            self.buf_start = self.released;
        }
    }

    /// End of the bytes generated so far.
    fn filled(&self) -> u64 {
        self.buf_start + self.buf.len() as u64
    }

    /// Tag `range` of the written bytes with a frame priority (§5.1's
    /// `stream_send` with position and size).
    pub fn set_priority(&mut self, range: SendRange, priority: FramePriority) {
        if !range.is_empty() {
            self.priorities.insert(range.start, (range.end, priority));
        }
    }

    /// Mark the stream finished (FIN after the last written byte).
    pub fn finish(&mut self) {
        self.fin = true;
    }

    /// Total bytes written by the application.
    pub fn len(&self) -> u64 {
        self.written
    }

    /// True if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Bytes the stream holds: from the lowest offset still owed to the
    /// end of what was generated.
    pub fn buffered_bytes(&self) -> u64 {
        self.filled() - self.released
    }

    /// True once the FIN has been set by the application.
    pub fn is_finished(&self) -> bool {
        self.fin
    }

    /// Current state: `ResetSent` once reset, `Ready` until finished,
    /// `DataRecvd` once the FIN and every byte are acknowledged
    /// ([`SendStream::is_acknowledged`]), `DataSent` before.
    pub fn state(&self) -> SendState {
        if self.reset {
            SendState::ResetSent
        } else if !self.fin {
            SendState::Ready
        } else if self.is_acknowledged() {
            SendState::DataRecvd
        } else {
            SendState::DataSent
        }
    }

    /// Raise the peer's stream flow-control limit.
    pub fn set_max_data(&mut self, max: u64) {
        if max > self.max_data {
            self.max_data = max;
            self.blocked_at = None;
        }
    }

    /// The peer's current stream flow-control limit.
    pub fn max_data(&self) -> u64 {
        self.max_data
    }

    /// Offset at which we are blocked by flow control, if we are.
    pub fn blocked_at(&self) -> Option<u64> {
        self.blocked_at
    }

    /// Queue a range for (re)transmission. Released bytes are not queued.
    pub fn queue_range(&mut self, range: SendRange) {
        self.pending.insert(SendRange { start: range.start.max(self.released), end: range.end });
    }

    /// True if any byte is queued for transmission.
    pub fn has_pending(&self) -> bool {
        self.pending.first().is_some() || self.fin_pending()
    }

    /// True if the FIN still needs to be (re)sent: the application
    /// finished, the stream is not reset, and no frame carrying the FIN is
    /// in flight or acknowledged (an empty FIN still needs a frame). A FIN
    /// the peer acknowledged is not sent again, even while data is still
    /// unacknowledged (`DataSent`); four flags decide, no gap is searched.
    pub fn fin_pending(&self) -> bool {
        self.fin && !self.fin_sent && !self.fin_acked && !self.reset
    }

    /// Record that a frame carrying the FIN bit was transmitted.
    pub fn mark_fin_sent(&mut self) {
        self.fin_sent = true;
    }

    /// Largest stream offset ever transmitted (exclusive).
    pub fn largest_sent(&self) -> u64 {
        self.largest_sent
    }

    /// True once every written byte has been transmitted at least once and
    /// nothing is queued — the only state in which a data-less FIN frame
    /// may be emitted (emitting it earlier would claim a final offset
    /// beyond the peer's flow-control window).
    pub fn data_fully_sent(&self) -> bool {
        self.pending.first().is_none() && self.largest_sent == self.written
    }

    /// Highest-urgency pending range's priority (for scheduler ordering).
    pub fn next_pending_priority(&self) -> Option<FramePriority> {
        Some(self.priority_of(self.pending.first()?.start))
    }

    /// Priority of the byte at `offset`.
    pub fn priority_of(&self, offset: u64) -> FramePriority {
        self.priorities
            .range(..=offset)
            .next_back()
            .filter(|(_, (end, _))| *end > offset)
            .map(|(_, (_, p))| *p)
            .unwrap_or(DEFAULT_FRAME_PRIORITY)
    }

    /// Take up to `max_len` bytes from the front of the pending queue for
    /// transmission, bounded by flow control. Returns the range taken and
    /// whether this transmission carries the FIN; [`SendStream::data`]
    /// lends its bytes, generated by now.
    pub fn take_range(&mut self, max_len: usize) -> Option<(SendRange, bool)> {
        let fc_limit = self.max_data;
        let SendRange { start, end } = self.pending.first()?;
        if start >= fc_limit {
            self.blocked_at = Some(fc_limit);
            return None;
        }
        let end_allowed = end.min(fc_limit).min(start + max_len as u64);
        self.pending.remove_below(end_allowed);
        if end_allowed < end && end_allowed == fc_limit {
            self.blocked_at = Some(fc_limit);
        }
        if end_allowed > self.filled() {
            self.generate(self.written.min(end_allowed + FILL_WINDOW));
        }
        self.largest_sent = self.largest_sent.max(end_allowed);
        let fin_here = self.fin && end_allowed == self.written;
        if fin_here {
            self.fin_sent = true;
        }
        Some((SendRange { start, end: end_allowed }, fin_here))
    }

    /// Undo a [`SendStream::take_range`] whose bytes were not sent after
    /// all: `range` is pending again and the largest offset sent is what it
    /// was before the take, so the bytes still count as never sent when
    /// connection flow control is applied to them on the next attempt.
    pub fn untake(&mut self, range: SendRange, largest_sent_before: u64) {
        self.queue_range(range);
        self.largest_sent = largest_sent_before;
    }

    /// Owned [`SendStream::take_range`]: the offset, a copy of the bytes,
    /// and the FIN flag.
    pub fn take_chunk(&mut self, max_len: usize) -> Option<(u64, Vec<u8>, bool)> {
        let (range, fin) = self.take_range(max_len)?;
        Some((range.start, self.data(range).to_vec(), fin))
    }

    /// The written bytes of `range`, which the stream must still hold: a
    /// range just taken, or one in flight that a *re-injection* sends again
    /// without touching pending state.
    pub fn data(&self, range: SendRange) -> &[u8] {
        debug_assert!(range.start >= self.released, "released bytes were asked for");
        let at = |offset: u64| (offset - self.buf_start) as usize;
        &self.buf[at(range.start)..at(range.end)]
    }

    /// Record that a transmitted range was acknowledged. Returns true once
    /// the stream is `DataRecvd`.
    pub fn on_range_acked(&mut self, range: SendRange, fin: bool) -> bool {
        self.acked.insert(range);
        self.fin_acked |= fin;
        self.state() == SendState::DataRecvd
    }

    /// True once the FIN and every byte written are acknowledged, in
    /// whatever order: the acknowledged bytes are the one range from 0 to
    /// what was written.
    pub fn is_acknowledged(&self) -> bool {
        self.fin && self.fin_acked && self.acked.gaps(0..self.written).next().is_none()
    }

    /// Release the bytes below the lowest offset still owed: below the
    /// first range queued and, when the owner tracks the stream's frames in
    /// flight, below where the lowest of them starts (`frames_from`;
    /// `u64::MAX` for none) and the largest offset sent. A frame in flight
    /// may be copied whole by a re-injection, and every byte sent that is
    /// neither queued nor in such a frame has been acknowledged. An owner
    /// that does not track them passes `None`, and what is released stops
    /// at the first unacknowledged byte. A stream with nothing left to send
    /// or generate lets its buffer go.
    pub fn release(&mut self, frames_from: Option<u64>) {
        let settled = match frames_from {
            Some(start) => start.min(self.largest_sent),
            None => self.acked.gaps(self.released..u64::MAX).next().map_or(u64::MAX, |r| r.start),
        };
        let queued_from = self.pending.first().map_or(u64::MAX, |r| r.start);
        let to = settled.min(queued_from).min(self.filled());
        if to <= self.released {
            return;
        }
        self.released = to;
        if to == self.filled() {
            self.buf_start = to;
            if self.fin && to == self.written {
                self.buf = Vec::new();
                self.pending = RangeSet::default();
            } else {
                self.buf.clear();
            }
        }
    }

    /// Record that a transmitted range was lost; requeue the un-acked part.
    pub fn on_range_lost(&mut self, range: SendRange, fin: bool) {
        for unacked in self.acked.gaps(range.start.max(self.released)..range.end) {
            self.pending.insert(unacked);
        }
        if fin {
            // The FIN bit was lost with this frame; it must be resent.
            self.fin_sent = false;
        }
    }

    /// Reset the stream (sender-initiated abort).
    pub fn reset(&mut self) -> u64 {
        self.reset = true;
        self.pending = RangeSet::default();
        self.written
    }

    /// The first run of bytes at or after `from` that are in flight:
    /// transmitted at least once, not acknowledged and *not* currently
    /// queued — the stream-level view of the paper's `unacked_q`, what
    /// re-injection may copy. Found range by range, never byte by byte.
    pub fn in_flight_from(&self, from: u64) -> Option<SendRange> {
        let mut unacked = self.acked.gaps(from.max(self.released)..self.largest_sent);
        unacked.find_map(|run| self.pending.gaps(run.start..run.end).next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SendStream {
        /// Every in-flight run, ascending.
        fn unacked_in_flight(&self) -> Vec<SendRange> {
            let runs =
                std::iter::successors(self.in_flight_from(0), |r| self.in_flight_from(r.end));
            runs.collect()
        }

        /// True if the byte at `offset` is queued.
        fn queued_at(&self, offset: u64) -> bool {
            self.pending.contains(offset)
        }

        /// True if the byte at `offset` is acknowledged.
        fn acked_at(&self, offset: u64) -> bool {
            self.acked.contains(offset)
        }
    }

    #[test]
    fn write_and_take() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"hello world");
        let (off, data, fin) = s.take_chunk(5).unwrap();
        assert_eq!((off, data.as_slice(), fin), (0, &b"hello"[..], false));
        let (off, data, _) = s.take_chunk(100).unwrap();
        assert_eq!((off, data.as_slice()), (5, &b" world"[..]));
        assert!(s.take_chunk(100).is_none());
    }

    #[test]
    fn fin_reported_on_last_chunk() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"abc");
        s.finish();
        let (_, _, fin) = s.take_chunk(2).unwrap();
        assert!(!fin);
        let (_, _, fin) = s.take_chunk(2).unwrap();
        assert!(fin);
    }

    #[test]
    fn empty_stream_fin() {
        let mut s = SendStream::new(u64::MAX);
        s.finish();
        assert!(s.fin_pending());
        assert!(s.has_pending());
        assert!(s.take_chunk(100).is_none());
        // Acking the empty fin completes the stream.
        assert!(s.on_range_acked(SendRange { start: 0, end: 0 }, true));
        assert_eq!(s.state(), SendState::DataRecvd);
    }

    #[test]
    fn flow_control_blocks_and_unblocks() {
        let mut s = SendStream::new(4);
        s.write(b"abcdefgh");
        let (_, data, _) = s.take_chunk(100).unwrap();
        assert_eq!(data, b"abcd");
        assert!(s.take_chunk(100).is_none());
        assert_eq!(s.blocked_at(), Some(4));
        s.set_max_data(8);
        let (off, data, _) = s.take_chunk(100).unwrap();
        assert_eq!((off, data.as_slice()), (4, &b"efgh"[..]));
        assert!(s.blocked_at().is_none());
    }

    #[test]
    fn lost_range_requeues_unacked_only() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"0123456789");
        let _ = s.take_chunk(100).unwrap();
        // Ack bytes 2..5.
        s.on_range_acked(SendRange { start: 2, end: 5 }, false);
        // Lose the whole transmission 0..10.
        s.on_range_lost(SendRange { start: 0, end: 10 }, false);
        let (off, data, _) = s.take_chunk(100).unwrap();
        assert_eq!((off, data.as_slice()), (0, &b"01"[..]));
        let (off, data, _) = s.take_chunk(100).unwrap();
        assert_eq!((off, data.as_slice()), (5, &b"56789"[..]));
    }

    #[test]
    fn full_ack_completes_stream() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"xyz");
        s.finish();
        let (off, data, fin) = s.take_chunk(100).unwrap();
        assert!(fin);
        assert!(s.on_range_acked(SendRange { start: off, end: off + data.len() as u64 }, true));
        assert_eq!(s.state(), SendState::DataRecvd);
        assert!(!s.has_pending());
    }

    #[test]
    fn priority_markers() {
        let mut s = SendStream::new(u64::MAX);
        let first = s.write(b"first-frame");
        s.set_priority(first, 0);
        s.write(b"rest of the video");
        assert_eq!(s.priority_of(0), 0);
        assert_eq!(s.priority_of(10), 0);
        assert_eq!(s.priority_of(11), DEFAULT_FRAME_PRIORITY);
        assert_eq!(s.next_pending_priority(), Some(0));
        // Consume the first-frame bytes; next pending is default priority.
        let _ = s.take_chunk(11).unwrap();
        assert_eq!(s.next_pending_priority(), Some(DEFAULT_FRAME_PRIORITY));
    }

    #[test]
    fn unacked_in_flight_excludes_acked_and_pending() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"0123456789");
        let _ = s.take_chunk(100).unwrap(); // all 10 bytes in flight
        s.on_range_acked(SendRange { start: 0, end: 3 }, false);
        let unacked = s.unacked_in_flight();
        assert_eq!(unacked, vec![SendRange { start: 3, end: 10 }]);
        // Requeue (as loss) part of it: that part moves to pending.
        s.on_range_lost(SendRange { start: 3, end: 6 }, false);
        let unacked = s.unacked_in_flight();
        assert_eq!(unacked, vec![SendRange { start: 6, end: 10 }]);
    }

    #[test]
    fn data_lends_a_range_for_reinjection() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"abcdef");
        let _ = s.take_chunk(100);
        assert_eq!(s.data(SendRange { start: 2, end: 5 }), b"cde");
        // Copying does not consume pending or change state.
        assert!(s.unacked_in_flight().len() == 1);
    }

    #[test]
    fn queue_range_merges_overlaps() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"0123456789");
        let _ = s.take_chunk(100);
        s.queue_range(SendRange { start: 1, end: 3 });
        s.queue_range(SendRange { start: 2, end: 6 });
        s.queue_range(SendRange { start: 6, end: 7 });
        let (off, data, _) = s.take_chunk(100).unwrap();
        assert_eq!((off, data.len()), (1, 6)); // merged 1..7
    }

    /// The interval-arithmetic unacked_in_flight must match a
    /// byte-by-byte model under arbitrary ack/loss/take interleavings.
    #[test]
    fn prop_unacked_matches_byte_model() {
        use xlink_lab::prop::*;
        check(
            "prop_unacked_matches_byte_model",
            vec_of((0u8..4, 0u64..120, 1u64..40), 0..40),
            |ops| {
                let mut s = SendStream::new(u64::MAX);
                s.write(&[0xaa; 128]);
                for &(kind, a, b) in ops {
                    let start = a.min(127);
                    let end = (start + b).min(128);
                    match kind {
                        0 => {
                            let _ = s.take_chunk(b as usize);
                        }
                        1 => {
                            s.on_range_acked(SendRange { start, end }, false);
                        }
                        2 => {
                            s.on_range_lost(SendRange { start, end }, false);
                        }
                        _ => {
                            s.queue_range(SendRange { start, end });
                        }
                    }
                }
                // Byte model.
                let sent = s.largest_sent();
                let mut model = Vec::new();
                let mut off = 0u64;
                while off < sent {
                    if s.acked_at(off) || s.queued_at(off) {
                        off += 1;
                        continue;
                    }
                    let start = off;
                    while off < sent && !s.acked_at(off) && !s.queued_at(off) {
                        off += 1;
                    }
                    model.push(SendRange { start, end: off });
                }
                prop_assert_eq!(s.unacked_in_flight(), model);
                Ok(())
            },
        );
    }

    #[test]
    fn data_fully_sent_gates_empty_fin() {
        let mut s = SendStream::new(4); // tiny flow-control window
        s.write(b"abcdefgh");
        s.finish();
        // Only 4 bytes can leave; the FIN must not be claimable yet.
        let (_, data, fin) = s.take_chunk(100).unwrap();
        assert_eq!(data, b"abcd");
        assert!(!fin);
        assert!(!s.data_fully_sent(), "blocked stream is not fully sent");
        assert!(s.fin_pending());
        // Window opens; the rest flows and the FIN rides the last chunk.
        s.set_max_data(8);
        let (_, data, fin) = s.take_chunk(100).unwrap();
        assert_eq!(data, b"efgh");
        assert!(fin);
        assert!(s.data_fully_sent());
    }

    /// A body written at phase 7 from its byte 0.
    fn body_byte(offset: u64) -> u8 {
        xlink_lab::payload::byte(7, offset)
    }

    #[test]
    fn a_body_is_generated_a_window_ahead_of_what_was_taken() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"HEAD");
        let len = 3 * FILL_WINDOW + 123;
        assert_eq!(s.write_with(len, 7, 0), SendRange { start: 4, end: 4 + len });
        s.finish();
        assert_eq!((s.len(), s.buffered_bytes()), (4 + len, 4), "nothing generated yet");
        let mut offset = 0;
        while let Some((range, fin)) = s.take_range(1_200) {
            assert_eq!(range.start, offset);
            let expected: Vec<u8> = (range.start..range.end)
                .map(|o| if o < 4 { b"HEAD"[o as usize] } else { body_byte(o - 4) })
                .collect();
            assert_eq!(s.data(range), &expected[..], "at {offset}");
            assert!(s.filled() <= range.end + FILL_WINDOW, "generated too far ahead");
            assert_eq!(fin, range.end == s.len());
            s.on_range_acked(range, fin);
            s.release(None);
            offset = range.end;
        }
        assert_eq!(offset, s.len());
        assert_eq!(s.state(), SendState::DataRecvd);
        assert_eq!((s.buffered_bytes(), s.buf.capacity()), (0, 0), "an acknowledged stream frees");
    }

    #[test]
    fn a_copy_written_behind_a_body_generates_the_body_first() {
        let mut s = SendStream::new(u64::MAX);
        s.write_with(10, 7, 0);
        s.write(b"tail");
        let (_, data, _) = s.take_chunk(100).unwrap();
        let mut expected: Vec<u8> = (0..10).map(body_byte).collect();
        expected.extend_from_slice(b"tail");
        assert_eq!(data, expected);
    }

    #[test]
    fn the_acknowledged_prefix_is_released_and_its_room_reused() {
        let mut s = SendStream::new(u64::MAX);
        s.write_with(1 << 30, 7, 0);
        let mut in_flight = std::collections::VecDeque::new();
        let mut capacity = 0;
        for round in 0..2_000 {
            // Keep 40 packets in flight: acknowledge the oldest, send one.
            if in_flight.len() == 40 {
                s.on_range_acked(in_flight.pop_front().unwrap(), false);
                s.release(None);
            }
            let (range, _) = s.take_range(1_200).unwrap();
            in_flight.push_back(range);
            assert_eq!(s.released, in_flight[0].start);
            assert!(s.buffered_bytes() <= 40 * 1_200 + FILL_WINDOW + 1_200);
            if round == 1_000 {
                capacity = s.buf.capacity();
            }
        }
        assert_eq!(s.buf.capacity(), capacity, "the buffer stopped growing");
    }

    /// A range declared lost, queued again, then acknowledged (the loss
    /// was spurious) before it is sent again: it is still sent, with the
    /// bytes written, and they are held until then.
    #[test]
    fn a_requeued_range_acknowledged_before_it_is_resent_is_still_sent() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"0123456789");
        s.write_with(20, 7, 0);
        s.finish();
        let (first, _) = s.take_range(10).unwrap();
        let (second, _) = s.take_range(100).unwrap();
        s.on_range_lost(first, false);
        s.on_range_acked(first, false);
        s.on_range_acked(second, true);
        s.release(None);
        assert_eq!(s.released, 0, "the queued range holds the release back");
        let (offset, data, fin) = s.take_chunk(100).unwrap();
        assert_eq!((offset, &data[..], fin), (0, &b"0123456789"[..], false));
        s.on_range_acked(first, false);
        s.release(None);
        assert_eq!((s.released, s.buffered_bytes()), (30, 0));
        assert_eq!(s.state(), SendState::DataRecvd);
    }

    /// A frame in flight that a re-injection may copy whole keeps its bytes
    /// even where another frame acknowledged them.
    #[test]
    fn a_frame_in_flight_keeps_its_bytes_for_a_copy() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"abcdefghij");
        let (a, _) = s.take_range(4).unwrap(); // 0..4
        s.on_range_lost(a, false);
        let (wide, _) = s.take_range(100).unwrap(); // 0..10 sent again
        s.on_range_acked(a, false); // the first transmission arrived after all
        s.release(Some(wide.start));
        assert_eq!(s.released, 0);
        assert_eq!(s.data(wide), b"abcdefghij", "the wide frame may be copied");
        // Without frames tracked only the acknowledged prefix goes.
        s.release(None);
        assert_eq!(s.released, 4);
        assert_eq!(s.in_flight_from(0), Some(SendRange { start: 4, end: 10 }));
        // No frame left in flight: everything sent was acknowledged.
        s.on_range_acked(wide, false);
        s.release(Some(u64::MAX));
        assert_eq!((s.released, s.buffered_bytes()), (10, 0));
    }

    /// Acknowledgements that leave a gap after every other byte are all
    /// kept, however many: the gaps stay in flight, a loss queues exactly
    /// them again, the release stops at the first, and once they are sent
    /// again and acknowledged the stream is.
    #[test]
    fn every_gap_between_acknowledgements_is_kept() {
        let mut s = SendStream::new(u64::MAX);
        let len = 100 + 2 * 1_000;
        s.write_with(len, 7, 0);
        s.finish();
        while s.take_range(1).is_some() {}
        s.on_range_acked(SendRange { start: 0, end: 100 }, false);
        for o in (101..len).step_by(2) {
            s.on_range_acked(SendRange { start: o, end: o + 1 }, o + 1 == len);
            s.release(None);
        }
        assert_eq!(s.released, 100);
        let gaps = (100..len).step_by(2).map(|o| SendRange { start: o, end: o + 1 });
        assert_eq!(s.unacked_in_flight(), gaps.collect::<Vec<_>>());
        s.on_range_lost(SendRange { start: 0, end: len }, false);
        assert!((0..len).all(|o| s.queued_at(o) == (o >= 100 && o % 2 == 0)));
        while let Some((r, _)) = s.take_range(10) {
            assert!(!s.is_acknowledged());
            s.on_range_acked(r, false);
        }
        s.release(None);
        assert_eq!((s.released, s.buffered_bytes()), (len, 0));
        assert!(s.is_acknowledged());
    }

    /// A 2-byte stream sent as [0,1) and [1,2)+FIN, the FIN frame twice (a
    /// re-injected copy), one FIN copy acknowledged before the data: the
    /// stream is acknowledged, and `DataRecvd`, with the data, and the
    /// other copy declared lost, before or after the data's
    /// acknowledgement, queues nothing: the peer has the FIN.
    #[test]
    fn a_fin_acknowledged_before_the_data_completes_with_it() {
        for lost_before_the_data in [false, true] {
            let mut s = SendStream::new(u64::MAX);
            s.write(b"ab");
            s.finish();
            let (head, _) = s.take_range(1).unwrap();
            let (tail, fin) = s.take_range(1).unwrap();
            assert!(fin);
            s.on_range_acked(tail, true);
            assert!(!s.is_acknowledged());
            if lost_before_the_data {
                s.on_range_lost(tail, true);
                assert!(!s.fin_pending() && !s.has_pending());
            }
            assert!(s.on_range_acked(head, false));
            assert!(s.is_acknowledged());
            assert_eq!(s.state(), SendState::DataRecvd);
            s.on_range_lost(tail, true);
            assert!(!s.fin_pending() && !s.has_pending());
        }
    }

    /// Losing frames and queueing ranges again allocates nothing once the
    /// range sets and the buffer have their room.
    #[test]
    fn range_bookkeeping_allocates_nothing() {
        use xlink_obs::prof;
        let mut s = SendStream::new(u64::MAX);
        s.write_with(1 << 30, 7, 0);
        let round = |s: &mut SendStream| {
            let frames: [SendRange; 5] = std::array::from_fn(|_| s.take_range(1_000).unwrap().0);
            // Part of each frame arrived; the frames are lost, then the
            // middle of the lost bytes is queued again by hand.
            for r in &frames {
                s.on_range_acked(SendRange { start: r.start + 300, end: r.start + 600 }, false);
            }
            for r in frames.iter().rev() {
                s.on_range_lost(*r, false);
            }
            s.queue_range(SendRange { start: frames[1].start, end: frames[3].end });
            while s.pending.first().is_some_and(|r| r.end < s.len()) {
                s.take_range(1_000).unwrap();
            }
            // Everything sent again arrives.
            s.on_range_acked(SendRange { start: frames[0].start, end: frames[4].end }, false);
            s.release(None);
        };
        // Warm-up: the generated buffer grows to its final capacity.
        (0..100).for_each(|_| round(&mut s));
        let (_, report) = prof::with_recording(|| {
            let _span = prof::span!("test/ranges");
            (0..100).for_each(|_| round(&mut s))
        });
        assert_eq!(report.get("test;ranges").expect("recorded").allocs, 0, "{}", report.folded());
    }

    /// The first run from `from` on that `s` sent, `acked` does not hold and
    /// `s` does not queue, byte by byte.
    fn in_flight(s: &SendStream, acked: &[bool], from: u64) -> Option<SendRange> {
        let out = |o: u64| !acked[o as usize] && !s.queued_at(o);
        let sent = s.largest_sent();
        let start = (from..sent).find(|&o| out(o))?;
        let end = (start..sent).find(|&o| !out(o)).unwrap_or(sent);
        Some(SendRange { start, end })
    }

    /// One operation of [`prop_the_stream_hands_out_the_bytes_written`].
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Take up to `size` bytes for each of `n` new frames.
        Take(usize, usize),
        /// Take and put back.
        Untake(usize),
        /// The `i`th frame in flight was acknowledged.
        Ack(usize),
        /// Every other frame in flight in offset order, from the first or
        /// (`true`) the second, was acknowledged.
        AckEveryOther(bool),
        /// The first frame in flight that carries the FIN, or (`true`) the
        /// last, was acknowledged, whatever data is still out. The last may
        /// be a copy of the first.
        AckFin(bool),
        /// The first frame in flight that carries the FIN was lost: after
        /// another FIN frame was acknowledged, the FIN is not sent again.
        LoseFin,
        /// Copy the first frame in flight that carries the FIN.
        CopyFin,
        /// The `i`th frame in flight was lost.
        Lose(usize),
        /// Copy the `i`th frame in flight (re-injection).
        Copy(usize),
        /// Queue `start..end` again.
        Requeue(u64, u64),
        /// The first run in flight from an offset.
        InFlight(u64),
    }

    /// A stream of a copied head, a generated body and maybe a copied tail,
    /// driven by every operation the connection applies, against a model
    /// of written bytes and acknowledgements. Every byte the stream hands
    /// out is the byte written; after every step its first run in flight
    /// from the release point is the model's, and it never lets go of a
    /// byte still owed (not acknowledged, queued, or in a frame that may be
    /// copied) and, after each acknowledgement or loss, holds nothing below
    /// the lowest one; generation stays a window ahead of what was taken;
    /// its state is the model's (`DataRecvd` once the FIN and every byte
    /// are acknowledged, in any order: the FIN frame may be acknowledged
    /// first) and no FIN is pending once one was acknowledged; and once all
    /// is acknowledged the stream holds nothing. Runs of small frames with
    /// every other one acknowledged leave more than 256 gaps between
    /// acknowledgements.
    #[test]
    fn prop_the_stream_hands_out_the_bytes_written() {
        use xlink_lab::prop::*;
        let op = |(kind, a, b): (u8, u64, u64)| match kind {
            0 => Op::Take(1, b as usize),
            1 => Op::Untake(b as usize),
            2 => Op::Ack(a as usize),
            3 => Op::Lose(a as usize),
            4 => Op::Copy(a as usize),
            5 => Op::Requeue(a % 300_000, a % 300_000 + b),
            6 => Op::InFlight(a % 300_000),
            7 => Op::Take(513 + a as usize % 300, 1 + b as usize % 4),
            8 => Op::AckEveryOther(a % 2 == 1),
            9 => Op::AckFin(a % 2 == 1),
            10 => Op::LoseFin,
            _ => Op::CopyFin,
        };
        // With `tracked` (bit 0 of `shape`), the owner knows every frame in
        // flight, as the re-injection index does, and copies frames (a lost
        // copy is not queued again); without, no frame is copied. Bit 1
        // keeps the body under 2 000 bytes, so the FIN goes out, and is
        // acknowledged, while data is still in flight.
        let layout = (0u64..64, 0u64..250_000, 0u64..3, 0u8..4);
        let ops = vec_of((0u8..12, 0u64..1 << 20, 1u64..4_000), 0..80);
        check("prop_the_stream_hands_out_the_bytes_written", (layout, ops), |v| {
            let &((head, body, tail, shape), ref ops) = v;
            let body = if shape >= 2 { body % 2_000 } else { body };
            let (tracked, phase) = (shape % 2 == 1, body % 251);
            let mut written: Vec<u8> = (0..head).map(|o| o as u8 ^ 0x5a).collect();
            let mut s = SendStream::new(u64::MAX);
            s.write(&written);
            s.write_with(body, phase, 0);
            written.extend((0..body).map(|o| xlink_lab::payload::byte(phase, o)));
            // A tail written behind the body makes it generate in full.
            let tail: Vec<u8> = (0..tail * 5).map(|o| o as u8).collect();
            s.write(&tail);
            written.extend_from_slice(&tail);
            s.finish();
            let len = written.len() as u64;
            prop_assert_eq!(s.len(), len);
            let window_from = if tail.is_empty() { head } else { len };
            let (mut acked, mut fin_acked) = (vec![false; written.len()], false);
            // Frames in flight: range, FIN, a copy.
            let mut frames: Vec<(SendRange, bool, bool)> = Vec::new();
            let bytes = |r: SendRange| &written[r.start as usize..r.end as usize];
            let framed = |frames: &[(SendRange, bool, bool)]| {
                let starts = frames.iter().map(|(r, ..)| r.start).filter(|_| tracked);
                starts.min().unwrap_or(u64::MAX)
            };
            let frames_from = |frames: &[(SendRange, bool, bool)]| tracked.then(|| framed(frames));
            for op in ops.iter().copied().map(op) {
                let mut fins = frames.iter().enumerate().filter(|(_, f)| f.1).map(|(i, _)| i);
                let op = match op {
                    Op::AckFin(false) => fins.next().map_or(op, Op::Ack),
                    Op::AckFin(true) => fins.next_back().map_or(op, Op::Ack),
                    Op::LoseFin => fins.next().map_or(op, Op::Lose),
                    Op::CopyFin => fins.next().map_or(op, Op::Copy),
                    _ => op,
                };
                let mut released = false;
                match op {
                    Op::Take(n, size) => {
                        for _ in 0..n {
                            let Some((r, fin)) = s.take_range(size) else { break };
                            prop_assert_eq!(s.data(r), bytes(r));
                            prop_assert_eq!(fin, r.end == len);
                            frames.push((r, fin, false));
                        }
                    }
                    Op::Untake(n) => {
                        let before = s.largest_sent();
                        if let Some((r, _)) = s.take_range(n) {
                            s.untake(r, before);
                        }
                    }
                    Op::Ack(i) | Op::Lose(i) if !frames.is_empty() => {
                        let (r, fin, copy) = frames.swap_remove(i % frames.len());
                        if matches!(op, Op::Ack(_)) {
                            s.on_range_acked(r, fin);
                            acked[r.start as usize..r.end as usize].fill(true);
                            fin_acked |= fin;
                        } else if !copy {
                            s.on_range_lost(r, fin);
                        }
                        s.release(frames_from(&frames));
                        released = true;
                    }
                    Op::AckEveryOther(second) if !frames.is_empty() => {
                        frames.sort_by_key(|&(r, ..)| (r.start, r.end));
                        let mut nth = 0;
                        frames.retain(|&(r, fin, _)| {
                            nth += 1;
                            let ack = (nth % 2 == 0) == second;
                            if ack {
                                s.on_range_acked(r, fin);
                                acked[r.start as usize..r.end as usize].fill(true);
                                fin_acked |= fin;
                            }
                            !ack
                        });
                        s.release(frames_from(&frames));
                        released = true;
                    }
                    Op::Copy(i) if tracked && !frames.is_empty() => {
                        let (r, fin, _) = frames[i % frames.len()];
                        prop_assert_eq!(s.data(r), bytes(r));
                        frames.push((r, fin, true));
                    }
                    Op::Requeue(start, end) => {
                        s.queue_range(SendRange { start, end: end.min(len) })
                    }
                    Op::InFlight(from) => {
                        prop_assert_eq!(s.in_flight_from(from), in_flight(&s, &acked, from));
                    }
                    _ => {}
                }
                let from = s.released;
                prop_assert_eq!(s.in_flight_from(from), in_flight(&s, &acked, from));
                let unacked = acked.iter().position(|&a| !a).map_or(len, |o| o as u64);
                let queued = s.pending.first().map_or(u64::MAX, |r| r.start);
                let owed = unacked.min(queued).min(framed(&frames)).min(s.filled());
                prop_assert!(s.released <= owed, "released {} past {owed}", s.released);
                if released {
                    prop_assert_eq!(s.released, owed);
                }
                let taken = s.largest_sent().max(window_from);
                prop_assert!(s.filled() <= len.min(taken + FILL_WINDOW + 4_000));
                let done = fin_acked && acked.iter().all(|&a| a);
                let state = if done { SendState::DataRecvd } else { SendState::DataSent };
                prop_assert_eq!(s.state(), state);
                prop_assert!(!(fin_acked && s.fin_pending()), "an acknowledged FIN is pending");
            }
            // Send and acknowledge the rest: the stream ends holding nothing.
            loop {
                while let Some((r, fin)) = s.take_range(1_200) {
                    prop_assert_eq!(s.data(r), bytes(r));
                    frames.push((r, fin, false));
                }
                if s.fin_pending() && s.data_fully_sent() {
                    frames.push((SendRange { start: len, end: len }, true, false));
                    s.mark_fin_sent();
                }
                if frames.is_empty() {
                    break;
                }
                for (r, fin, _) in frames.drain(..) {
                    s.on_range_acked(r, fin);
                }
                s.release(frames_from(&frames));
            }
            prop_assert_eq!((s.buffered_bytes(), s.buf.capacity()), (0, 0));
            prop_assert_eq!(s.state(), SendState::DataRecvd);
            Ok(())
        });
    }

    #[test]
    fn reset_clears_pending() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"data");
        let final_size = s.reset();
        assert_eq!(final_size, 4);
        assert!(!s.has_pending());
        assert_eq!(s.state(), SendState::ResetSent);
    }
}
