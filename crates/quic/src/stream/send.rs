//! Send side of a QUIC stream.
//!
//! Buffers application data, hands out byte ranges to the packetizer, and
//! accepts range-level ack/loss/retransmission signals. Re-injection (the
//! XLINK mechanism) reuses the same range bookkeeping: a re-injected range
//! is simply scheduled for transmission again while the original copy is
//! still in flight.
//!
//! For video, ranges can carry a *frame priority* marker set through the
//! `stream_send`-style API (paper §5.1): the application tags the byte
//! span of the first video frame so the scheduler can re-inject it ahead
//! of everything else in the stream.

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

/// Send-stream states (RFC 9000 §3.1, abridged).
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

/// The send half of one stream.
#[derive(Debug)]
pub struct SendStream {
    /// All application bytes written so far (offset 0 = first byte).
    buf: Vec<u8>,
    /// True once the application finished the stream.
    fin: bool,
    /// True once a frame carrying the FIN bit has been transmitted (and
    /// not subsequently lost).
    fin_sent: bool,
    state: SendState,
    /// Ranges queued for transmission, keyed by start offset. Invariant:
    /// non-overlapping (enforced on insert by the owner: ranges come from
    /// `write`, loss, or explicit re-injection of in-flight spans —
    /// duplicates across pending/in-flight are allowed, *within* pending
    /// they are merged).
    pending: BTreeMap<u64, u64>,
    /// Cumulatively acked prefix plus out-of-order acked ranges.
    acked: crate::ackranges::AckRanges,
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
            fin: false,
            fin_sent: false,
            state: SendState::Ready,
            pending: BTreeMap::new(),
            acked: crate::ackranges::AckRanges::new(),
            priorities: BTreeMap::new(),
            max_data,
            largest_sent: 0,
            blocked_at: None,
        }
    }

    /// Append application data; returns the byte range it occupies.
    /// Panics if called after `finish`.
    pub fn write(&mut self, data: &[u8]) -> SendRange {
        assert!(!self.fin, "write after finish");
        assert_eq!(self.state, SendState::Ready);
        let start = self.buf.len() as u64;
        self.buf.extend_from_slice(data);
        let end = self.buf.len() as u64;
        if end > start {
            self.queue_range(SendRange { start, end });
        }
        SendRange { start, end }
    }

    /// Append data tagged with a frame priority (the `stream_send` API
    /// with position/size from the paper).
    pub fn write_with_priority(&mut self, data: &[u8], priority: FramePriority) -> SendRange {
        let range = self.write(data);
        if !range.is_empty() {
            self.priorities.insert(range.start, (range.end, priority));
        }
        range
    }

    /// Mark the stream finished (FIN after the last written byte).
    pub fn finish(&mut self) {
        self.fin = true;
        if self.state == SendState::Ready {
            self.state = SendState::DataSent;
        }
    }

    /// Total bytes written by the application.
    pub fn len(&self) -> u64 {
        self.buf.len() as u64
    }

    /// True if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True once the FIN has been set by the application.
    pub fn is_finished(&self) -> bool {
        self.fin
    }

    /// Current state.
    pub fn state(&self) -> SendState {
        self.state
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

    /// Queue a range for (re)transmission, merging into `pending`.
    pub fn queue_range(&mut self, range: SendRange) {
        if range.is_empty() {
            return;
        }
        let mut start = range.start;
        let mut end = range.end;
        // Merge with overlapping/adjacent existing pending ranges.
        let overlapping: Vec<u64> =
            self.pending.range(..=end).filter(|(_, &e)| e >= start).map(|(&s, _)| s).collect();
        for s in overlapping {
            let e = self.pending.remove(&s).expect("key exists");
            start = start.min(s);
            end = end.max(e);
        }
        self.pending.insert(start, end);
    }

    /// True if any byte is queued for transmission.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty() || (self.fin_pending())
    }

    /// True if the FIN still needs to be (re)sent: the application
    /// finished and the final range is not yet fully acked nor pending as
    /// part of data (an empty-FIN still needs a frame).
    pub fn fin_pending(&self) -> bool {
        self.fin && !self.fin_sent && self.state == SendState::DataSent
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
        self.pending.is_empty() && self.largest_sent == self.buf.len() as u64
    }

    /// Highest-urgency pending range's priority (for scheduler ordering).
    pub fn next_pending_priority(&self) -> Option<FramePriority> {
        let (&start, _) = self.pending.iter().next()?;
        Some(self.priority_of(start))
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
        let (&start, &end) = self.pending.iter().next()?;
        if start >= fc_limit {
            self.blocked_at = Some(fc_limit);
            return None;
        }
        let end_allowed = end.min(fc_limit).min(start + max_len as u64);
        self.pending.remove(&start);
        if end_allowed < end {
            self.pending.insert(end_allowed, end);
            if end_allowed == fc_limit {
                self.blocked_at = Some(fc_limit);
            }
        }
        self.largest_sent = self.largest_sent.max(end_allowed);
        let fin_here = self.fin && end_allowed == self.buf.len() as u64;
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

    /// The written bytes of `range` (must be within written data) — for a
    /// range just taken, or for a *re-injection*, which sends a range
    /// again without touching pending state.
    pub fn data(&self, range: SendRange) -> &[u8] {
        &self.buf[range.start as usize..range.end as usize]
    }

    /// Record that a transmitted range was acknowledged. Returns true when
    /// the whole stream (including FIN) is now acknowledged.
    pub fn on_range_acked(&mut self, range: SendRange, fin: bool) -> bool {
        if !range.is_empty() {
            self.acked.insert_range(range.start, range.end - 1);
        }
        let all_acked = self.fin
            && (self.buf.is_empty() || self.acked.len() == self.buf.len() as u64)
            && (fin || self.fin_acked_implicitly());
        if fin && self.fin && self.acked.len() == self.buf.len() as u64 {
            self.state = SendState::DataRecvd;
        }
        if all_acked && self.state != SendState::ResetSent {
            self.state = SendState::DataRecvd;
        }
        self.state == SendState::DataRecvd
    }

    fn fin_acked_implicitly(&self) -> bool {
        self.state == SendState::DataRecvd
    }

    /// Record that a transmitted range was lost; requeue the un-acked part.
    pub fn on_range_lost(&mut self, range: SendRange, fin: bool) {
        for gap in subtract_ranges(range, self.acked.iter().map(|r| (r.start, r.end + 1))) {
            self.queue_range(gap);
        }
        if fin {
            // The FIN bit was lost with this frame; it must be resent.
            self.fin_sent = false;
        }
    }

    /// Reset the stream (sender-initiated abort).
    pub fn reset(&mut self) -> u64 {
        self.state = SendState::ResetSent;
        self.pending.clear();
        self.buf.len() as u64
    }

    /// The first run of bytes at or after `from` that are in flight:
    /// transmitted at least once, not acknowledged and *not* currently
    /// queued — the stream-level view of the paper's `unacked_q`, what
    /// re-injection may copy. Hops over the acked and the pending ranges,
    /// never byte by byte.
    pub fn in_flight_from(&self, from: u64) -> Option<SendRange> {
        let mut start = from;
        while start < self.largest_sent {
            let acked = self.acked.first_ending_from(start);
            let queued = self.pending.range(..=start).next_back().filter(|(_, &e)| e > start);
            if let Some(r) = acked.filter(|r| r.start <= start) {
                start = r.end + 1;
            } else if let Some((_, &end)) = queued {
                start = end;
            } else {
                let next_acked = acked.map_or(u64::MAX, |r| r.start);
                let next_queued = self.pending.range(start..).next().map_or(u64::MAX, |(&s, _)| s);
                let end = self.largest_sent.min(next_acked).min(next_queued);
                return Some(SendRange { start, end });
            }
        }
        None
    }

    /// Acked ranges the cap on their number has made the stream forget
    /// (those bytes count as in flight again; 0 in any honest exchange).
    pub fn acked_evicted(&self) -> u64 {
        self.acked.evicted()
    }
}

/// Subtract a sorted sequence of half-open `(start, end)` intervals from
/// `range`, returning the remaining gaps.
fn subtract_ranges(range: SendRange, holes: impl Iterator<Item = (u64, u64)>) -> Vec<SendRange> {
    let mut out = Vec::new();
    let mut cursor = range.start;
    for (hs, he) in holes {
        if he <= cursor {
            continue;
        }
        if hs >= range.end {
            break;
        }
        if hs > cursor {
            out.push(SendRange { start: cursor, end: hs.min(range.end) });
        }
        cursor = cursor.max(he);
        if cursor >= range.end {
            break;
        }
    }
    if cursor < range.end {
        out.push(SendRange { start: cursor, end: range.end });
    }
    out
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
        s.write_with_priority(b"first-frame", 0);
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
                    let in_pending =
                        s.pending.range(..=off).next_back().is_some_and(|(_, &e)| e > off);
                    if s.acked.contains(off) || in_pending {
                        off += 1;
                        continue;
                    }
                    let start = off;
                    while off < sent {
                        let in_pending =
                            s.pending.range(..=off).next_back().is_some_and(|(_, &e)| e > off);
                        if s.acked.contains(off) || in_pending {
                            break;
                        }
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
