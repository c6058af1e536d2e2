//! Receive side of a QUIC stream: out-of-order reassembly, duplicate
//! accounting (redundant bytes from re-injection land here), flow control
//! credit, and final-size enforcement.

use crate::error::TransportError;
use std::collections::BTreeMap;

/// Hard cap on buffered out-of-order segments per stream (§10 adversarial
/// bound). An honest sender is limited by the stream flow-control window:
/// with the default 4 MB window and ≥1200-byte datagrams it can open at
/// most ~3500 gaps. A peer spraying 1-byte segments at alternating
/// offsets would otherwise grow one map entry (plus allocation overhead)
/// per byte of window; past this cap the stream errors with
/// `FLOW_CONTROL_ERROR` and the connection closes.
pub const MAX_STREAM_SEGMENTS: usize = 4096;

/// Receive-stream states (RFC 9000 §3.2, abridged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvState {
    /// Receiving data.
    Recv,
    /// FIN seen, waiting for all bytes.
    SizeKnown,
    /// All bytes up to the final size received.
    DataRecvd,
    /// Peer reset the stream.
    ResetRecvd,
}

/// The receive half of one stream.
#[derive(Debug)]
pub struct RecvStream {
    /// Out-of-order segments not yet contiguous with the read offset,
    /// keyed by start offset.
    segments: BTreeMap<u64, Vec<u8>>,
    /// All bytes below this offset have been delivered to the application.
    read_offset: u64,
    /// Contiguous bytes ready to be read.
    ready: Vec<u8>,
    /// Highest offset received (exclusive).
    highest_recv: u64,
    /// Final size once FIN is seen.
    final_size: Option<u64>,
    state: RecvState,
    /// Bytes that arrived more than once (re-injection redundancy shows up
    /// here; the paper's "cost" metric counts these at the receiver).
    duplicate_bytes: u64,
    /// Flow-control limit we advertised to the peer.
    max_data: u64,
    /// Window size to maintain ahead of the read offset.
    window: u64,
}

impl RecvStream {
    /// New receive stream granting the peer `window` bytes of credit.
    pub fn new(window: u64) -> Self {
        RecvStream {
            segments: BTreeMap::new(),
            read_offset: 0,
            ready: Vec::new(),
            highest_recv: 0,
            final_size: None,
            state: RecvState::Recv,
            duplicate_bytes: 0,
            max_data: window,
            window,
        }
    }

    /// Ingest a STREAM frame. Returns an error on final-size violations or
    /// flow-control overruns.
    pub fn on_data(&mut self, offset: u64, data: &[u8], fin: bool) -> Result<(), TransportError> {
        let end = offset + data.len() as u64;
        if end > self.max_data {
            return Err(TransportError::FlowControlError);
        }
        if let Some(fs) = self.final_size {
            if end > fs || (fin && end != fs) {
                return Err(TransportError::FinalSizeError);
            }
        }
        if fin {
            if self.highest_recv > end {
                return Err(TransportError::FinalSizeError);
            }
            self.final_size = Some(end);
            if self.state == RecvState::Recv {
                self.state = RecvState::SizeKnown;
            }
        }
        self.highest_recv = self.highest_recv.max(end);
        self.ingest(offset, data);
        self.drain_contiguous();
        if self.segments.len() > MAX_STREAM_SEGMENTS {
            return Err(TransportError::FlowControlError);
        }
        if let Some(fs) = self.final_size {
            if self.read_offset + self.ready.len() as u64 == fs
                && self.segments.is_empty()
                && matches!(self.state, RecvState::Recv | RecvState::SizeKnown)
            {
                self.state = RecvState::DataRecvd;
            }
        }
        Ok(())
    }

    /// Store a segment, trimming parts already received (duplicates are
    /// counted, not stored).
    fn ingest(&mut self, offset: u64, data: &[u8]) {
        let delivered = self.read_offset + self.ready.len() as u64;
        let mut start = offset;
        let mut bytes = data;
        // Trim below the contiguous delivered prefix.
        if start < delivered {
            let skip = (delivered - start).min(bytes.len() as u64);
            self.duplicate_bytes += skip;
            bytes = &bytes[skip as usize..];
            start = delivered;
        }
        if bytes.is_empty() {
            return;
        }
        // Walk overlapping stored segments, inserting only the gaps.
        let mut cur = start;
        let end = start + bytes.len() as u64;
        while cur < end {
            // Find a stored segment covering or after `cur`.
            let covering = self
                .segments
                .range(..=cur)
                .next_back()
                .map(|(&s, v)| (s, s + v.len() as u64))
                .filter(|&(_, e)| e > cur);
            if let Some((_, seg_end)) = covering {
                let dup = (seg_end.min(end)) - cur;
                self.duplicate_bytes += dup;
                cur = seg_end.min(end);
                continue;
            }
            // Next stored segment starting after cur bounds the gap.
            let next_start = self.segments.range(cur..).next().map(|(&s, _)| s).unwrap_or(u64::MAX);
            let gap_end = next_start.min(end);
            let slice = &bytes[(cur - start) as usize..(gap_end - start) as usize];
            self.segments.insert(cur, slice.to_vec());
            cur = gap_end;
        }
    }

    /// Move contiguous segments into the ready buffer.
    fn drain_contiguous(&mut self) {
        loop {
            let next = self.read_offset + self.ready.len() as u64;
            match self.segments.remove(&next) {
                Some(seg) => self.ready.extend_from_slice(&seg),
                None => break,
            }
        }
    }

    /// Read up to `max` contiguous bytes. Returns the bytes and extends
    /// the peer's flow-control credit (caller should check
    /// [`RecvStream::wants_max_data_update`] afterwards).
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.ready.len());
        let out: Vec<u8> = self.ready.drain(..n).collect();
        self.read_offset += out.len() as u64;
        out
    }

    /// Bytes available for immediate reading.
    pub fn readable(&self) -> usize {
        self.ready.len()
    }

    /// The application-visible contiguous offset (read + buffered).
    pub fn contiguous_offset(&self) -> u64 {
        self.read_offset + self.ready.len() as u64
    }

    /// Highest received offset (possibly non-contiguous).
    pub fn highest_recv(&self) -> u64 {
        self.highest_recv
    }

    /// Buffered out-of-order segments (adversarial-load gauge; bounded by
    /// [`MAX_STREAM_SEGMENTS`]).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Bytes buffered for this stream (ready + out-of-order), bounded by
    /// the advertised flow-control window.
    pub fn buffered_bytes(&self) -> u64 {
        self.ready.len() as u64 + self.segments.values().map(|v| v.len() as u64).sum::<u64>()
    }

    /// Total duplicate bytes received (receiver-side redundancy metric).
    pub fn duplicate_bytes(&self) -> u64 {
        self.duplicate_bytes
    }

    /// Current state.
    pub fn state(&self) -> RecvState {
        self.state
    }

    /// True once all data (and FIN) has been received.
    pub fn is_complete(&self) -> bool {
        self.state == RecvState::DataRecvd
    }

    /// The final size if known.
    pub fn final_size(&self) -> Option<u64> {
        self.final_size
    }

    /// If the flow-control window should be extended, returns the new
    /// `MAX_STREAM_DATA` value to advertise (sliding window of `window`
    /// bytes past the read offset; updated when half consumed).
    pub fn wants_max_data_update(&mut self) -> Option<u64> {
        let target = self.read_offset + self.window;
        if target > self.max_data && (target - self.max_data) * 2 >= self.window {
            self.max_data = target;
            Some(target)
        } else {
            None
        }
    }

    /// Handle RESET_STREAM from the peer.
    pub fn on_reset(&mut self, final_size: u64) -> Result<(), TransportError> {
        if self.highest_recv > final_size {
            return Err(TransportError::FinalSizeError);
        }
        if let Some(fs) = self.final_size {
            if fs != final_size {
                return Err(TransportError::FinalSizeError);
            }
        }
        self.final_size = Some(final_size);
        self.state = RecvState::ResetRecvd;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_lab::prop::*;

    #[test]
    fn in_order_delivery() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"hello ", false).unwrap();
        s.on_data(6, b"world", true).unwrap();
        assert_eq!(s.read(100), b"hello world");
        assert!(s.is_complete());
        assert_eq!(s.duplicate_bytes(), 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(6, b"world", true).unwrap();
        assert_eq!(s.readable(), 0);
        s.on_data(0, b"hello ", false).unwrap();
        assert_eq!(s.read(100), b"hello world");
        assert!(s.is_complete());
    }

    #[test]
    fn duplicates_counted_not_duplicated() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"abcdef", false).unwrap();
        s.on_data(0, b"abcdef", false).unwrap(); // full duplicate
        s.on_data(3, b"defghi", false).unwrap(); // half duplicate
        assert_eq!(s.read(100), b"abcdefghi");
        assert_eq!(s.duplicate_bytes(), 9);
    }

    #[test]
    fn overlapping_out_of_order_segments() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(4, b"efgh", false).unwrap();
        s.on_data(2, b"cdef", false).unwrap(); // overlaps stored segment
        assert_eq!(s.duplicate_bytes(), 2);
        s.on_data(0, b"ab", false).unwrap();
        assert_eq!(s.read(100), b"abcdefgh");
    }

    #[test]
    fn gap_filling_between_segments() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"aa", false).unwrap();
        s.on_data(6, b"dd", false).unwrap();
        s.on_data(0, b"aabbccdd", false).unwrap(); // fills both gaps
        assert_eq!(s.read(100), b"aabbccdd");
        assert_eq!(s.duplicate_bytes(), 4);
    }

    #[test]
    fn final_size_violation_rejected() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"abc", true).unwrap();
        assert_eq!(s.on_data(3, b"d", false), Err(TransportError::FinalSizeError));
        assert_eq!(s.on_data(0, b"ab", true), Err(TransportError::FinalSizeError));
    }

    #[test]
    fn data_beyond_fin_rejected() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"abcdef", false).unwrap();
        assert_eq!(s.on_data(0, b"abc", true), Err(TransportError::FinalSizeError));
    }

    #[test]
    fn flow_control_enforced() {
        let mut s = RecvStream::new(10);
        s.on_data(0, b"0123456789", false).unwrap();
        assert_eq!(s.on_data(10, b"x", false), Err(TransportError::FlowControlError));
    }

    #[test]
    fn window_updates_as_reader_consumes() {
        let mut s = RecvStream::new(10);
        s.on_data(0, b"0123456789", false).unwrap();
        assert!(s.wants_max_data_update().is_none());
        s.read(5);
        assert_eq!(s.wants_max_data_update(), Some(15));
        assert!(s.wants_max_data_update().is_none()); // idempotent
        s.on_data(10, b"abcde", false).unwrap(); // now allowed
        assert_eq!(s.read(100), b"56789abcde");
    }

    #[test]
    fn reset_handling() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"abc", false).unwrap();
        s.on_reset(5).unwrap();
        assert_eq!(s.state(), RecvState::ResetRecvd);
        // Inconsistent reset size rejected.
        let mut s2 = RecvStream::new(1 << 20);
        s2.on_data(0, b"abcdef", false).unwrap();
        assert_eq!(s2.on_reset(3), Err(TransportError::FinalSizeError));
    }

    #[test]
    fn empty_fin_completes() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"", true).unwrap();
        assert!(s.is_complete());
        assert_eq!(s.final_size(), Some(0));
    }

    #[test]
    fn partial_reads() {
        let mut s = RecvStream::new(1 << 20);
        s.on_data(0, b"abcdefgh", false).unwrap();
        assert_eq!(s.read(3), b"abc");
        assert_eq!(s.read(3), b"def");
        assert_eq!(s.readable(), 2);
        assert_eq!(s.contiguous_offset(), 8);
    }

    #[test]
    fn segment_cap_closes_gap_spray() {
        // 1-byte segments at alternating offsets: every other byte opens a
        // new gap. The cap must trip long before the 1 GB window fills.
        let mut s = RecvStream::new(1 << 30);
        let mut err = None;
        for i in 0..(MAX_STREAM_SEGMENTS as u64 + 10) {
            // Offsets 1, 3, 5, ... are never contiguous with 0.
            if let Err(e) = s.on_data(i * 2 + 1, b"x", false) {
                err = Some((i, e));
                break;
            }
        }
        let (at, e) = err.expect("cap should trip");
        assert_eq!(e, TransportError::FlowControlError);
        assert_eq!(at as usize, MAX_STREAM_SEGMENTS);
        assert!(s.segment_count() <= MAX_STREAM_SEGMENTS + 1);
        // An honest bulk transfer never trips it: contiguous delivery
        // keeps the map empty.
        let mut h = RecvStream::new(1 << 30);
        for i in 0..10_000u64 {
            h.on_data(i * 10, &[0u8; 10], false).unwrap();
        }
        assert_eq!(h.segment_count(), 0);
        assert_eq!(h.buffered_bytes(), 100_000);
    }

    /// Deliver a message as arbitrarily fragmented, duplicated,
    /// reordered STREAM frames; the reassembled bytes must equal the
    /// original exactly.
    #[test]
    fn prop_reassembly_delivers_exact_bytes() {
        check(
            "prop_reassembly_delivers_exact_bytes",
            (bytes(1..300), vec_of((0usize..300, 1usize..64, any_bool()), 1..60)),
            |(msg, order)| {
                let mut s = RecvStream::new(1 << 30);
                for (start, len, _dup) in order {
                    let start = start % msg.len();
                    let end = (start + len).min(msg.len());
                    s.on_data(start as u64, &msg[start..end], end == msg.len()).unwrap();
                }
                // Finish by sending the whole message once.
                s.on_data(0, msg, true).unwrap();
                let got = s.read(usize::MAX);
                prop_assert_eq!(&got, msg);
                prop_assert!(s.is_complete());
                Ok(())
            },
        );
    }

    /// Duplicate accounting: sending the same full message k times
    /// counts (k-1)·len duplicate bytes.
    #[test]
    fn prop_duplicate_accounting() {
        check("prop_duplicate_accounting", (bytes(1..200), 2usize..5), |(msg, k)| {
            let mut s = RecvStream::new(1 << 30);
            for _ in 0..*k {
                s.on_data(0, msg, false).unwrap();
            }
            prop_assert_eq!(s.duplicate_bytes(), ((k - 1) * msg.len()) as u64);
            Ok(())
        });
    }
}
