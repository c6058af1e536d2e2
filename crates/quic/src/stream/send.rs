//! Send side of a QUIC stream.
//!
//! Records what the application wrote, hands out byte ranges to the
//! packetizer, and accepts range-level ack/loss/retransmission signals.
//! Re-injection (the XLINK mechanism) reuses the same range bookkeeping: a
//! re-injected range is simply sent again while the original copy is still
//! in flight.
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
//! A stream keeps no body bytes. Bytes written with [`SendStream::write`]
//! (a request, a response head) are copied into one `Vec`. A body written
//! with [`SendStream::write_with`], the stream's last write, is kept as
//! which payload bytes it is, and [`SendStream::data`] lends them from the
//! payload's `const` table ([`xlink_lab::payload::parts`]). So one call
//! serves a first send and a re-injected copy of any range, and the `Vec`
//! is all a stream holds, until it is acknowledged and nothing is queued
//! ([`SendStream::release`]).
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
/// ([`xlink_lab::payload`]), up to what was written.
#[derive(Debug, Clone, Copy)]
struct Body {
    start: u64,
    phase: u64,
    from: u64,
}

/// The send half of one stream.
#[derive(Debug)]
pub struct SendStream {
    /// The bytes written with `write`: stream offsets from 0 to the body,
    /// or to what was written. Dropped by [`SendStream::release`].
    buf: Vec<u8>,
    /// Bytes written by the application.
    written: u64,
    /// The body: the written bytes past the end of `buf`.
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
    /// Bytes queued for transmission: from writes, loss, or a take put
    /// back; they may be in flight as well.
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
    /// occupies. Panics if called after `finish` or a body.
    pub fn write(&mut self, data: &[u8]) -> SendRange {
        let range = self.append(data.len() as u64);
        self.buf.extend_from_slice(data);
        range
    }

    /// Append `len` bytes of the payload with `phase`, from its byte
    /// `from` on ([`xlink_lab::payload`]), and finish the stream: a body is
    /// its last write. Its bytes are never held; [`SendStream::data`] lends
    /// them from the payload's table. Returns the byte range they occupy.
    /// Panics if called after `finish`.
    pub fn write_with(&mut self, len: u64, phase: u64, from: u64) -> SendRange {
        let range = self.append(len);
        self.body = Some(Body { start: range.start, phase, from });
        self.fin = true;
        range
    }

    /// Account `len` bytes written after the last ones and queue them.
    fn append(&mut self, len: u64) -> SendRange {
        let range = SendRange { start: self.written, end: self.written + len };
        if !range.is_empty() {
            assert_eq!(self.state(), SendState::Ready, "write after finish or reset");
            self.written = range.end;
            self.pending.insert(range);
        }
        range
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

    /// Bytes the stream holds: those written with
    /// [`SendStream::write`], until [`SendStream::release`].
    pub fn buffered_bytes(&self) -> u64 {
        self.buf.len() as u64
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
    /// lends its bytes.
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
        self.pending.insert(range);
        self.largest_sent = largest_sent_before;
    }

    /// Owned [`SendStream::take_range`]: the offset, a copy of the bytes,
    /// and the FIN flag.
    pub fn take_chunk(&mut self, max_len: usize) -> Option<(u64, Vec<u8>, bool)> {
        let (range, fin) = self.take_range(max_len)?;
        let mut bytes = Vec::with_capacity(range.len() as usize);
        self.data(range).for_each(|part| bytes.extend_from_slice(part));
        Some((range.start, bytes, fin))
    }

    /// The written bytes of `range`, lent in parts: those written with
    /// [`SendStream::write`] from the stream's `Vec`, then the body's from
    /// the payload table, at most 4 016 bytes a part. `range` is one just
    /// taken, or one in flight that a *re-injection* sends again without
    /// touching pending state. Panics if `range` holds written bytes and
    /// the stream let them go ([`SendStream::release`]).
    pub fn data(&self, range: SendRange) -> impl Iterator<Item = &[u8]> + Clone + '_ {
        // Only a range with written bytes lends a slice of the `Vec`, which
        // may be gone.
        let head_end = range.end.min(self.body.map_or(self.written, |b| b.start));
        let head =
            (range.start < head_end).then(|| &self.buf[range.start as usize..head_end as usize]);
        let body = self.body.filter(|b| range.end > b.start).map(|b| {
            let at = |offset: u64| offset - b.start + b.from;
            xlink_lab::payload::parts(b.phase, at(range.start.max(b.start))..at(range.end))
        });
        head.into_iter().chain(body.into_iter().flatten())
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

    /// Let the written bytes go once nothing can ask for them again: the
    /// stream is acknowledged and nothing is queued. A range queued again
    /// before its acknowledgement is still sent, so it holds them until it
    /// has left. Asked at every frame that leaves flight: acknowledged,
    /// lost or drained.
    pub fn release(&mut self) {
        if self.is_acknowledged() && self.pending.first().is_none() {
            self.buf = Vec::new();
            self.pending = RangeSet::default();
        }
    }

    /// Record that a transmitted range was lost; requeue the un-acked part.
    pub fn on_range_lost(&mut self, range: SendRange, fin: bool) {
        for unacked in self.acked.gaps(range.start..range.end) {
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
        let mut unacked = self.acked.gaps(from..self.largest_sent);
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

        /// The bytes [`SendStream::data`] lends for `range`, in one piece.
        fn bytes(&self, range: SendRange) -> Vec<u8> {
            self.data(range).collect::<Vec<_>>().concat()
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
        assert_eq!(s.bytes(SendRange { start: 2, end: 5 }), b"cde");
        // Copying does not consume pending or change state.
        assert!(s.unacked_in_flight().len() == 1);
    }

    #[test]
    fn queued_ranges_merge() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"0123456789");
        let _ = s.take_chunk(100);
        s.pending.insert(SendRange { start: 1, end: 3 });
        s.pending.insert(SendRange { start: 2, end: 6 });
        s.pending.insert(SendRange { start: 6, end: 7 });
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
                            s.pending.insert(SendRange { start, end });
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

    /// A 37-byte head and a body of three table spans and more, from byte
    /// 1 000 of its payload: `data` is the written bytes at every range
    /// between offsets around the head's end and one, two and three 4 016
    /// byte spans past it, in a slice of the head if it has head bytes and
    /// as few table slices as the body's bytes need; and a range inside the
    /// body is still lent once the stream let its head go.
    #[test]
    fn data_is_the_bytes_written_across_the_head_and_the_table_spans() {
        let head: Vec<u8> = (0..37u8).map(|b| b ^ 0x5a).collect();
        let mut s = SendStream::new(u64::MAX);
        s.write(&head);
        let len = 3 * 4_016 + 500;
        assert_eq!(s.write_with(len, 7, 1_000), SendRange { start: 37, end: 37 + len });
        let mut written = head.clone();
        written.extend((0..len).map(|o| body_byte(1_000 + o)));
        let mut edges = vec![0, 1, 36, 37, 38, 37 + len - 1, 37 + len];
        for k in 1..=3 {
            edges.extend([35, 36, 37, 38, 39].map(|o| o + k * 4_016));
        }
        for &a in &edges {
            for &b in edges.iter().filter(|&&b| b >= a) {
                let r = SendRange { start: a, end: b };
                assert_eq!(s.bytes(r), &written[a as usize..b as usize], "{a}..{b}");
                let body = b.max(37) - a.max(37);
                let parts = usize::from(a < b.min(37)) + body.div_ceil(4_016) as usize;
                assert_eq!(s.data(r).count(), parts, "{a}..{b}");
            }
        }
        let all = SendRange { start: 0, end: 37 + len };
        while let Some((r, fin)) = s.take_range(1_200) {
            s.on_range_acked(r, fin);
        }
        s.release();
        assert!(s.is_acknowledged());
        assert_eq!((s.buffered_bytes(), s.buf.capacity()), (0, 0), "an acknowledged stream frees");
        let body = SendRange { start: 37, end: all.end };
        assert_eq!(s.bytes(body), &written[37..]);
        assert_eq!(s.bytes(SendRange { start: all.end, end: all.end }), b"");
    }

    #[test]
    #[should_panic(expected = "write after finish")]
    fn a_write_after_a_body_panics() {
        let mut s = SendStream::new(u64::MAX);
        s.write(b"HEAD");
        s.write_with(10, 7, 0);
        assert_eq!(s.state(), SendState::DataSent, "a body finishes the stream");
        s.write(b"tail");
    }

    /// A 16 MiB body, sent in 1 200-byte frames into one reused packet
    /// buffer with 64 frames in flight and acknowledged in order, allocates
    /// nothing after its first frame (sent and acknowledged at once): its
    /// bytes are never held, so nothing grows with what is in flight.
    #[test]
    fn a_body_sent_and_acknowledged_allocates_nothing_after_the_first_frame() {
        use xlink_obs::prof;
        let mut s = SendStream::new(u64::MAX);
        s.write_with(16 << 20, 7, 0);
        let (mut packet, mut in_flight) = (Vec::with_capacity(1_200), Vec::with_capacity(65));
        let mut send = |s: &mut SendStream, window: usize| {
            if let Some((r, fin)) = s.take_range(1_200) {
                packet.clear();
                s.data(r).for_each(|part| packet.extend_from_slice(part));
                assert_eq!(packet.len() as u64, r.len());
                in_flight.insert(0, (r, fin));
            }
            if in_flight.len() > window || s.data_fully_sent() {
                let (r, fin) = in_flight.pop()?;
                s.on_range_acked(r, fin);
                s.release();
            }
            Some(())
        };
        send(&mut s, 0).expect("a first frame");
        let (_, report) = prof::with_recording(|| {
            let _span = prof::span!("test/body");
            while send(&mut s, 64).is_some() {}
        });
        let row = report.get("test;body").expect("recorded");
        assert_eq!((row.allocs, row.alloc_bytes), (0, 0), "{}", report.folded());
        assert_eq!(s.state(), SendState::DataRecvd);
    }

    /// A range declared lost, queued again, then acknowledged (the loss
    /// was spurious) before it is sent again: it is still sent, with the
    /// bytes written, and the stream holds them until that copy has left,
    /// acknowledged or lost.
    #[test]
    fn a_requeued_range_acknowledged_before_it_is_resent_is_still_sent() {
        for resent_lost in [false, true] {
            let mut s = SendStream::new(u64::MAX);
            s.write(b"0123456789");
            s.write_with(20, 7, 0);
            let (first, _) = s.take_range(10).unwrap();
            let (second, _) = s.take_range(100).unwrap();
            s.on_range_lost(first, false);
            s.on_range_acked(first, false);
            s.on_range_acked(second, true);
            s.release();
            assert!(s.is_acknowledged());
            assert_eq!(s.buffered_bytes(), 10, "the queued range holds the head");
            let (offset, data, fin) = s.take_chunk(100).unwrap();
            assert_eq!((offset, &data[..], fin), (0, &b"0123456789"[..], false));
            if resent_lost {
                s.on_range_lost(first, false);
                assert!(!s.has_pending(), "acknowledged bytes are not queued again");
            } else {
                s.on_range_acked(first, false);
            }
            s.release();
            assert_eq!((s.buffered_bytes(), s.buf.capacity()), (0, 0));
            assert_eq!(s.state(), SendState::DataRecvd);
        }
    }

    /// Acknowledgements that leave a gap after every other byte are all
    /// kept, however many: the gaps stay in flight, a loss queues exactly
    /// them again, and once they are sent again and acknowledged the
    /// stream is.
    #[test]
    fn every_gap_between_acknowledgements_is_kept() {
        let mut s = SendStream::new(u64::MAX);
        let len = 100 + 2 * 1_000;
        s.write_with(len, 7, 0);
        while s.take_range(1).is_some() {}
        s.on_range_acked(SendRange { start: 0, end: 100 }, false);
        for o in (101..len).step_by(2) {
            s.on_range_acked(SendRange { start: o, end: o + 1 }, o + 1 == len);
        }
        let gaps = (100..len).step_by(2).map(|o| SendRange { start: o, end: o + 1 });
        assert_eq!(s.unacked_in_flight(), gaps.collect::<Vec<_>>());
        s.on_range_lost(SendRange { start: 0, end: len }, false);
        assert!((0..len).all(|o| s.queued_at(o) == (o >= 100 && o % 2 == 0)));
        while let Some((r, _)) = s.take_range(10) {
            assert!(!s.is_acknowledged());
            s.on_range_acked(r, false);
        }
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
    /// range sets have their room.
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
            s.pending.insert(SendRange { start: frames[1].start, end: frames[3].end });
            while s.pending.first().is_some_and(|r| r.end < s.len()) {
                s.take_range(1_000).unwrap();
            }
            // Everything sent again arrives.
            s.on_range_acked(SendRange { start: frames[0].start, end: frames[4].end }, false);
            s.release();
        };
        // Warm-up: the range sets grow to their final capacity.
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
        /// Queue `len` bytes from an offset (taken modulo the stream's length
        /// plus one) again.
        Requeue(u64, u64),
        /// The first run in flight from an offset.
        InFlight(u64),
    }

    /// A stream of a copied head and a body, driven by every operation the
    /// connection applies, against a model of written bytes and
    /// acknowledgements. Every byte the stream hands out, taken or copied,
    /// is the byte written. A frame is copied only when the re-injection
    /// index would offer it: one with a byte still in flight or a FIN still
    /// to send, or an empty one (which lends no byte), so never a written
    /// byte of an acknowledged stream. The stream is asked to let go at
    /// every frame that leaves flight, acknowledged or lost, as the
    /// connection asks. After every step its first run in flight is the
    /// model's; it holds the head until it is acknowledged and nothing is
    /// queued, and nothing after; its state is the model's (`DataRecvd`
    /// once the FIN and every byte are acknowledged, in any order: the FIN
    /// frame may be acknowledged first); and no FIN is pending once one was
    /// acknowledged. Once all is acknowledged the stream holds nothing.
    /// Runs of small frames with every other one acknowledged leave more
    /// than 256 gaps between acknowledgements.
    #[test]
    fn prop_the_stream_hands_out_the_bytes_written() {
        use xlink_lab::prop::*;
        let op = |(kind, a, b): (u8, u64, u64)| match kind {
            0 => Op::Take(1, b as usize),
            1 => Op::Untake(b as usize),
            2 => Op::Ack(a as usize),
            3 => Op::Lose(a as usize),
            4 => Op::Copy(a as usize),
            5 => Op::Requeue(a, b),
            6 => Op::InFlight(a % 300_000),
            7 => Op::Take(513 + a as usize % 300, 1 + b as usize % 4),
            8 => Op::AckEveryOther(a % 2 == 1),
            9 => Op::AckFin(a % 2 == 1),
            10 => Op::LoseFin,
            _ => Op::CopyFin,
        };
        // `small` keeps the body under 2 000 bytes, so the FIN goes out,
        // and is acknowledged, while data is still in flight.
        let layout = (0u64..64, 0u64..250_000, any_bool());
        let ops = vec_of((0u8..12, 0u64..1 << 20, 1u64..4_000), 0..80);
        check("prop_the_stream_hands_out_the_bytes_written", (layout, ops), |v| {
            let &((head, body, small), ref ops) = v;
            let body = if small { body % 2_000 } else { body };
            let phase = body % 251;
            let mut written: Vec<u8> = (0..head).map(|o| o as u8 ^ 0x5a).collect();
            let mut s = SendStream::new(u64::MAX);
            s.write(&written);
            s.write_with(body, phase, 0);
            written.extend((0..body).map(|o| xlink_lab::payload::byte(phase, o)));
            let len = written.len() as u64;
            prop_assert_eq!(s.len(), len);
            let (mut acked, mut fin_acked) = (vec![false; written.len()], false);
            // The stream was acknowledged, nothing queued, as a frame left.
            let mut freed = false;
            // Frames in flight: range, FIN, a copy.
            let mut frames: Vec<(SendRange, bool, bool)> = Vec::new();
            let bytes = |r: SendRange| &written[r.start as usize..r.end as usize];
            for op in ops.iter().copied().map(op) {
                let mut fins = frames.iter().enumerate().filter(|(_, f)| f.1).map(|(i, _)| i);
                let op = match op {
                    Op::AckFin(false) => fins.next().map_or(op, Op::Ack),
                    Op::AckFin(true) => fins.next_back().map_or(op, Op::Ack),
                    Op::LoseFin => fins.next().map_or(op, Op::Lose),
                    Op::CopyFin => fins.next().map_or(op, Op::Copy),
                    _ => op,
                };
                let mut gone = false;
                match op {
                    Op::Take(n, size) => {
                        for _ in 0..n {
                            let Some((r, fin)) = s.take_range(size) else { break };
                            prop_assert_eq!(s.bytes(r), bytes(r));
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
                        gone = true;
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
                        gone = true;
                    }
                    Op::Copy(i) if !frames.is_empty() => {
                        let (r, fin, _) = frames[i % frames.len()];
                        let in_flight = s.in_flight_from(r.start).is_some_and(|f| f.start < r.end);
                        if r.is_empty() || in_flight || (fin && s.fin_pending()) {
                            prop_assert_eq!(s.bytes(r), bytes(r));
                            frames.push((r, fin, true));
                        }
                    }
                    Op::Requeue(from, n) if !freed => {
                        let start = from % (len + 1);
                        s.pending.insert(SendRange { start, end: (start + n).min(len) })
                    }
                    Op::InFlight(from) => {
                        prop_assert_eq!(s.in_flight_from(from), in_flight(&s, &acked, from));
                    }
                    _ => {}
                }
                let done = fin_acked && acked.iter().all(|&a| a);
                if gone {
                    freed |= done && !s.has_pending();
                    s.release();
                }
                prop_assert_eq!(s.in_flight_from(0), in_flight(&s, &acked, 0));
                prop_assert_eq!(s.buffered_bytes(), if freed { 0 } else { head });
                let state = if done { SendState::DataRecvd } else { SendState::DataSent };
                prop_assert_eq!(s.state(), state);
                prop_assert!(!(fin_acked && s.fin_pending()), "an acknowledged FIN is pending");
            }
            // Send and acknowledge the rest: the stream ends holding nothing.
            loop {
                while let Some((r, fin)) = s.take_range(1_200) {
                    prop_assert_eq!(s.bytes(r), bytes(r));
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
                    s.release();
                }
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
