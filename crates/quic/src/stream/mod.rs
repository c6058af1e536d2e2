//! Stream multiplexing: send/recv halves, stream-ID allocation, and the
//! per-connection stream map with connection-level flow control — which is
//! also where the connection gets its stream-frame receiver, the
//! flow-control-aware packer of data packets, and what an acked or lost
//! stream range means.

pub mod recv;
pub mod send;

pub use recv::{RecvState, RecvStream, MAX_STREAM_SEGMENTS};
pub use send::{FramePriority, SendRange, SendState, SendStream, DEFAULT_FRAME_PRIORITY};

use crate::cc::MAX_DATAGRAM_SIZE;
use crate::connection::{SentFrame, SentFrames};
use crate::error::TransportError;
use crate::frame::{Frame, FrameRef};
use crate::packet::PacketBuilder;
use crate::params::TransportParams;

/// Which endpoint a connection is (stream-ID allocation parity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Client: opens bidirectional streams 0, 4, 8, …
    Client,
    /// Server: opens bidirectional streams 1, 5, 9, …
    Server,
}

impl Side {
    /// The opposite side.
    pub fn peer(self) -> Side {
        match self {
            Side::Client => Side::Server,
            Side::Server => Side::Client,
        }
    }

    /// True if `stream_id` was opened by this side.
    pub fn opened_by_us(self, stream_id: u64) -> bool {
        let by_server = stream_id & 0x1 == 1;
        (self == Side::Server) == by_server
    }
}

/// A bidirectional stream: both halves plus bookkeeping.
#[derive(Debug)]
pub struct Stream {
    /// Stream identifier.
    pub id: u64,
    /// Send half.
    pub send: SendStream,
    /// Receive half.
    pub recv: RecvStream,
    /// Stream scheduling priority: lower = sent first. Streams requesting
    /// earlier video portions get lower values (paper §5.1 stream
    /// priority-based re-injection).
    pub priority: u8,
}

impl Stream {
    /// True once the stream has nothing left to do: its send half
    /// acknowledged, its receive half complete and read.
    pub(crate) fn is_finished(&self) -> bool {
        self.send.is_acknowledged() && self.recv.is_complete() && self.recv.readable() == 0
    }
}

/// Free the receive buffer of a finished stream. Both events that can
/// finish it, the last acknowledgement and the last read, ask here.
fn release_if_finished(s: &mut Stream) {
    if s.is_finished() {
        s.recv.release();
    }
}

/// Per-connection stream table and connection-level flow control.
#[derive(Debug)]
pub struct StreamMap {
    side: Side,
    /// Every stream ever opened, ascending by [`Stream::id`] (none is ever
    /// removed). The first takes a slot of its own: nearly every
    /// connection has one stream, and `Vec`'s minimum capacity of 4 would
    /// leave three 328-byte slots empty.
    streams: Vec<Stream>,
    next_local: u64,
    /// Connection-level flow control: how much the peer lets us send.
    pub send_max_data: u64,
    /// Total bytes we've committed to send (offsets claimed).
    pub send_data_used: u64,
    /// Connection-level flow control: what we advertise to the peer.
    pub recv_max_data: u64,
    /// Highest total received offset sum.
    pub recv_data_used: u64,
    /// Window to maintain for connection-level receive credit.
    recv_window: u64,
    /// Per-stream window for newly opened streams.
    stream_recv_window: u64,
    /// Peer's initial per-stream limit for our sends.
    peer_stream_window: u64,
    /// Max concurrent bidi streams the peer may open.
    max_streams: u64,
    /// Control frames waiting to ride the next data packet, last in first
    /// out: this map's flow-control updates and resets, plus whatever the
    /// connection queues (CID management, path status, …).
    pub control: Vec<Frame>,
    /// The connection-level send limit a DATA_BLOCKED was last sent for.
    data_blocked_at: Option<u64>,
    /// A STREAM frame completed a peer's stream since
    /// [`StreamMap::next_request`] last found none.
    request_ready: bool,
    /// `(priority, id)` of the streams [`StreamMap::pack`] visits, rebuilt
    /// by every pack in the same allocation.
    sendable: Vec<(u8, u64)>,
    /// A read left a stream complete and read since the last
    /// [`StreamMap::release_read`].
    read_through: bool,
}

impl StreamMap {
    /// New stream table.
    pub fn new(
        side: Side,
        recv_window: u64,
        stream_recv_window: u64,
        peer_initial_max_data: u64,
        peer_stream_window: u64,
        max_streams: u64,
    ) -> Self {
        StreamMap {
            side,
            streams: Vec::new(),
            next_local: match side {
                Side::Client => 0,
                Side::Server => 1,
            },
            send_max_data: peer_initial_max_data,
            send_data_used: 0,
            recv_max_data: recv_window,
            recv_data_used: 0,
            recv_window,
            stream_recv_window,
            peer_stream_window,
            max_streams,
            control: Vec::new(),
            data_blocked_at: None,
            request_ready: false,
            sendable: Vec::new(),
            read_through: false,
        }
    }

    /// The table of an endpoint advertising `params`. The peer's limits
    /// are unknown before its hello: assume them symmetric until
    /// [`StreamMap::on_max_data`] corrects them.
    pub fn for_endpoint(side: Side, params: &TransportParams) -> Self {
        let (data, stream_data) = (params.initial_max_data, params.initial_max_stream_data);
        Self::new(side, data, stream_data, data, stream_data, params.initial_max_streams_bidi)
    }

    /// This endpoint's side.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Where stream `id` is in the table, or where it would go.
    fn position(&self, id: u64) -> Result<usize, usize> {
        self.streams.binary_search_by_key(&id, |s| s.id)
    }

    /// Put a new stream with `id` at `at`, its place in id order.
    fn insert(&mut self, at: usize, id: u64, priority: u8) -> &mut Stream {
        if self.streams.is_empty() {
            self.streams.reserve_exact(1);
        }
        let send = SendStream::new(self.peer_stream_window);
        let recv = RecvStream::new(self.stream_recv_window);
        self.streams.insert(at, Stream { id, send, recv, priority });
        &mut self.streams[at]
    }

    /// Open a new locally-initiated bidirectional stream.
    pub fn open(&mut self, priority: u8) -> u64 {
        let id = self.next_local;
        self.next_local += 4;
        // Our ids only grow, but a larger peer id may already be in.
        let at = self.position(id).expect_err("a fresh local id");
        self.insert(at, id, priority);
        id
    }

    /// Get or lazily create the stream for a peer-initiated ID seen on the
    /// wire. Returns `StreamLimitError` if the peer exceeds its allowance:
    /// `max_streams` bidirectional streams and no unidirectional one (none
    /// is advertised, so the limit is 0; RFC 9000 §4.6). Peer ids may
    /// arrive in any order: a new one is inserted in its place, a shift
    /// that `max_streams` keeps short.
    pub fn get_or_open_peer(&mut self, id: u64) -> Result<&mut Stream, TransportError> {
        match self.position(id) {
            Ok(at) => Ok(&mut self.streams[at]),
            Err(_) if self.side.opened_by_us(id) => Err(TransportError::StreamStateError),
            Err(_) if id & 0x2 != 0 => Err(TransportError::StreamLimitError),
            Err(_) if id / 4 >= self.max_streams => Err(TransportError::StreamLimitError),
            Err(at) => Ok(self.insert(at, id, DEFAULT_FRAME_PRIORITY)),
        }
    }

    /// Borrow a stream by ID.
    pub fn get(&self, id: u64) -> Option<&Stream> {
        self.position(id).ok().map(|at| &self.streams[at])
    }

    /// Mutably borrow a stream by ID.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Stream> {
        self.position(id).ok().map(|at| &mut self.streams[at])
    }

    /// Iterate all streams ascending by ID.
    pub fn iter(&self) -> impl Iterator<Item = &Stream> {
        self.streams.iter()
    }

    /// Iterate all streams mutably, ascending by ID.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Stream> {
        self.streams.iter_mut()
    }

    /// `(priority, id)` of the streams with pending data, sorted — the
    /// transmit order XLINK's stream-priority rules require
    /// (earlier/higher-priority streams first).
    fn sendable(&mut self) -> &[(u8, u64)] {
        let pending = self.streams.iter().filter(|s| s.send.has_pending());
        self.sendable.clear();
        self.sendable.extend(pending.map(|s| (s.priority, s.id)));
        // Ids are unique: the unstable sort is the stable one.
        self.sendable.sort_unstable();
        &self.sendable
    }

    /// Connection-level send credit remaining.
    pub fn conn_send_credit(&self) -> u64 {
        self.send_max_data.saturating_sub(self.send_data_used)
    }

    /// Account connection-level bytes for newly transmitted (first-time)
    /// stream offsets.
    pub fn consume_conn_credit(&mut self, bytes: u64) {
        self.send_data_used += bytes;
        debug_assert!(self.send_data_used <= self.send_max_data);
    }

    /// Record connection-level received data; errors on overrun.
    pub fn on_conn_data_received(&mut self, new_bytes: u64) -> Result<(), TransportError> {
        self.recv_data_used += new_bytes;
        if self.recv_data_used > self.recv_max_data {
            return Err(TransportError::FlowControlError);
        }
        Ok(())
    }

    /// If the connection-level receive window should grow, returns the new
    /// MAX_DATA value to advertise.
    pub fn wants_conn_max_data_update(&mut self) -> Option<u64> {
        let target = self.recv_data_used + self.recv_window;
        if target > self.recv_max_data && (target - self.recv_max_data) * 2 >= self.recv_window {
            self.recv_max_data = target;
            Some(target)
        } else {
            None
        }
    }

    /// Handle the peer raising our connection-level send limit.
    pub fn on_max_data(&mut self, max: u64) {
        if max > self.send_max_data {
            self.send_max_data = max;
        }
    }

    /// Write a copy of `data` on a stream; `fin` marks the end. Returns the
    /// byte range it occupies.
    pub fn write(&mut self, id: u64, data: &[u8], fin: bool) -> SendRange {
        let send = self.send_half(id);
        let range = send.write(data);
        if fin {
            send.finish();
        }
        range
    }

    /// Write `len` bytes of the payload with `phase` from its byte `from`
    /// on as a stream's body, its last write ([`SendStream::write_with`]).
    /// Returns the byte range they occupy.
    pub fn write_with(&mut self, id: u64, len: u64, phase: u64, from: u64) -> SendRange {
        self.send_half(id).write_with(len, phase, from)
    }

    /// Tag `range` of what was written on a stream with a video-frame
    /// priority (§5.1's `stream_send` with position and size).
    pub fn set_frame_priority(&mut self, id: u64, range: SendRange, priority: FramePriority) {
        self.send_half(id).set_priority(range, priority);
    }

    /// The send half of a stream the application writes on.
    fn send_half(&mut self, id: u64) -> &mut SendStream {
        // Invariant: `id` came from open()/next_request() on this map — an
        // application bug, never peer-reachable input.
        &mut self.get_mut(id).expect("unknown stream").send
    }

    /// A frame of stream `id` left flight: once its send half is
    /// acknowledged and nothing is queued, it lets its written bytes go
    /// ([`SendStream::release`]), and once its receive half is complete and
    /// read as well, the stream frees its receive buffer.
    pub fn release(&mut self, id: u64) {
        let Some(s) = self.get_mut(id) else { return };
        s.send.release();
        release_if_finished(s);
    }

    /// Free the receive buffers that reads since the last call left
    /// complete and read, on streams whose send half is acknowledged: the
    /// other event that can finish a stream. A read lends the bytes it
    /// returns, so it cannot free them itself; the connection calls this at
    /// its next entry (a datagram, a poll). Returns whether a read had left
    /// a stream complete and read.
    pub(crate) fn release_read(&mut self) -> bool {
        let read_through = std::mem::take(&mut self.read_through);
        if read_through {
            self.streams.iter_mut().for_each(release_if_finished);
        }
        read_through
    }

    /// True when every stream is finished (`Stream::is_finished`), none
    /// opened included.
    pub(crate) fn all_finished(&self) -> bool {
        self.streams.iter().all(Stream::is_finished)
    }

    /// Read up to `max` available bytes from a stream, lent until the next
    /// call into the map (the consuming read, [`RecvStream::consume`]),
    /// queueing the flow-control updates the freed window calls for.
    pub fn consume(&mut self, id: u64, max: usize) -> &[u8] {
        let Ok(at) = self.position(id) else {
            return &[];
        };
        let recv = &mut self.streams[at].recv;
        let read = recv.consume(max).len();
        self.read_through |= recv.is_complete() && recv.readable() == 0;
        if let Some(new_max) = recv.wants_max_data_update() {
            self.control.push(Frame::MaxStreamData { stream_id: id, max: new_max });
        }
        if let Some(new_max) = self.wants_conn_max_data_update() {
            self.control.push(Frame::MaxData(new_max));
        }
        self.streams[at].recv.just_read(read)
    }

    /// The lowest-id stream the peer opened whose receive side is complete
    /// (FIN and every byte in) and not yet read: a request, written whole
    /// with its FIN, to be read whole. One with no bytes is never handed
    /// out. O(1) unless a STREAM frame completed a peer's stream.
    pub fn next_request(&mut self) -> Option<u64> {
        if !self.request_ready {
            return None;
        }
        let side = self.side;
        let request = self
            .streams
            .iter()
            .find(|s| !side.opened_by_us(s.id) && s.recv.is_complete() && s.recv.readable() > 0);
        let id = request.map(|s| s.id);
        self.request_ready = id.is_some();
        id
    }

    /// True once a stream's receive side is complete.
    pub fn is_complete(&self, id: u64) -> bool {
        self.get(id).is_some_and(|s| s.recv.is_complete())
    }

    /// Largest out-of-order segment count over open streams (§10 gauge;
    /// bounded by [`MAX_STREAM_SEGMENTS`]).
    pub fn max_segments(&self) -> usize {
        self.iter().map(|s| s.recv.segment_count()).max().unwrap_or(0)
    }

    /// Total buffered receive bytes over open streams (§10 gauge; bounded
    /// by the advertised flow-control windows).
    pub fn buffered_recv_bytes(&self) -> u64 {
        self.iter().map(|s| s.recv.buffered_bytes()).sum()
    }

    /// Bytes held by the send halves of open streams: those written with
    /// [`SendStream::write`] on streams not yet acknowledged (§10 gauge; a
    /// body is never held).
    pub fn buffered_send_bytes(&self) -> u64 {
        self.iter().map(|s| s.send.buffered_bytes()).sum()
    }

    /// Apply a received stream or flow-control frame; any other frame is
    /// not this map's and is ignored. An error is what to close with.
    pub fn on_frame(&mut self, frame: FrameRef<'_>) -> Result<(), (TransportError, &'static str)> {
        match frame {
            FrameRef::Stream { stream_id, offset, data, fin } => {
                // The map's verdict propagates: STREAM_LIMIT_ERROR for
                // exhaustion, STREAM_STATE_ERROR for frames on streams we
                // never opened.
                let recv =
                    &mut self.get_or_open_peer(stream_id).map_err(|e| (e, "bad stream"))?.recv;
                let prev_high = recv.highest_recv();
                recv.on_data(offset, data, fin).map_err(|e| (e, "stream data"))?;
                let new_high = recv.highest_recv();
                let completes_request = recv.is_complete() && !self.side.opened_by_us(stream_id);
                self.request_ready |= completes_request;
                if new_high > prev_high {
                    self.on_conn_data_received(new_high - prev_high)
                        .map_err(|e| (e, "conn flow control"))?;
                }
            }
            FrameRef::Other(Frame::MaxData(v)) => self.on_max_data(v),
            // About our sending on a stream of ours never opened, or on one
            // the peer opened unidirectional, receive-only for us (RFC 9000
            // §19.5, §19.10); a bidirectional one of the peer's not yet open
            // is ignored.
            FrameRef::Other(
                Frame::MaxStreamData { stream_id, .. } | Frame::StopSending { stream_id, .. },
            ) if self.get(stream_id).is_none()
                && (self.side.opened_by_us(stream_id) || stream_id & 0x2 != 0) =>
            {
                return Err((TransportError::StreamStateError, "unopened stream"));
            }
            FrameRef::Other(Frame::MaxStreamData { stream_id, max }) => {
                if let Some(s) = self.get_mut(stream_id) {
                    s.send.set_max_data(max);
                }
            }
            FrameRef::Other(Frame::ResetStream { stream_id, final_size, .. }) => {
                // As for STREAM: the map's verdict, then FINAL_SIZE_ERROR
                // for a final size that contradicts what arrived.
                let recv =
                    &mut self.get_or_open_peer(stream_id).map_err(|e| (e, "bad stream"))?.recv;
                recv.on_reset(final_size).map_err(|e| (e, "reset final size"))?;
            }
            FrameRef::Other(Frame::StopSending { stream_id, .. }) => {
                if let Some(s) = self.get_mut(stream_id) {
                    let final_size = s.send.reset();
                    self.control.push(Frame::ResetStream { stream_id, error_code: 0, final_size });
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Fill `packet` with the queued control frames, then stream data in
    /// (priority, id) order under both flow-control limits, a stream
    /// getting room while 32 bytes are left. What went in is appended to
    /// `sent`; returns how many stream bytes were sent for the first time. A range
    /// that does not fit the connection limit goes back as never sent, and
    /// DATA_BLOCKED is said once per limit (RFC 9000 §19.12), in this very
    /// packet: left on the queue it would make the next poll send with no
    /// input in between.
    pub fn pack(&mut self, packet: &mut PacketBuilder, sent: &mut SentFrames) -> u64 {
        let mut first_time = 0;
        let mut remaining = MAX_DATAGRAM_SIZE as usize - 64; // header+tag slack
        while let Some(f) = self.control.pop() {
            let Some(len) = packet.push_if_fits(&f, remaining) else {
                self.control.push(f);
                break;
            };
            remaining -= len;
            sent.push(SentFrame::control(f));
        }
        for i in 0..self.sendable().len() {
            if remaining < 32 {
                break;
            }
            let id = self.sendable[i].1;
            let conn_credit = self.conn_send_credit();
            // Invariant: sendable() only yields ids present in the map.
            let send = &mut self.get_mut(id).expect("sendable id").send;
            // Reserve frame header overhead ~ 1+8+8+4.
            let max_payload = remaining.saturating_sub(24);
            let before_largest = send.largest_sent();
            let Some((range, fin)) = send.take_range(max_payload) else {
                // A data-less FIN is only legal once every byte has been
                // sent; a flow-control-blocked stream must wait.
                if send.fin_pending() && send.data_fully_sent() {
                    let range = SendRange { start: send.len(), end: send.len() };
                    Frame::encode_stream(packet.frames(), id, range.start, [], true);
                    sent.push(SentFrame::Stream { id, range, fin: true, reinjected: false });
                    send.mark_fin_sent();
                }
                continue;
            };
            // Connection flow control applies only to never-sent offsets.
            let new_bytes = range.end.saturating_sub(before_largest.max(range.start));
            if new_bytes > conn_credit {
                send.untake(range, before_largest);
                let blocked = Frame::DataBlocked(self.send_max_data);
                if self.data_blocked_at != Some(self.send_max_data)
                    && packet.push_if_fits(&blocked, remaining).is_some()
                {
                    self.data_blocked_at = Some(self.send_max_data);
                    sent.push(SentFrame::control(blocked));
                }
                break;
            }
            // The payload goes from the stream's buffer or the payload
            // table straight into the datagram.
            Frame::encode_stream(packet.frames(), id, range.start, send.data(range), fin);
            self.consume_conn_credit(new_bytes);
            first_time += new_bytes;
            remaining = remaining.saturating_sub(range.len() as usize + 24);
            sent.push(SentFrame::Stream { id, range, fin, reinjected: false });
        }
        first_time
    }

    /// A sent frame was acknowledged: a stream range is delivered. Every
    /// other kind is the connection's to interpret.
    pub fn on_sent_frame_acked(&mut self, frame: &SentFrame) {
        let SentFrame::Stream { id, range, fin, .. } = frame else { return };
        if let Some(s) = self.get_mut(*id) {
            s.send.on_range_acked(*range, *fin);
        }
    }

    /// A sent frame was lost: an original stream range is pending again
    /// (returns the bytes to retransmit), a control frame goes back on the
    /// queue. A lost re-injected copy is left alone; every other kind is
    /// the connection's to interpret.
    pub fn on_sent_frame_lost(&mut self, frame: SentFrame) -> u64 {
        match frame {
            SentFrame::Stream { id, range, fin, reinjected: false } => {
                let Some(s) = self.get_mut(id) else { return 0 };
                s.send.on_range_lost(range, fin);
                return range.len();
            }
            other => self.control.extend(other.into_control()),
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(side: Side) -> StreamMap {
        StreamMap::new(side, 1 << 20, 1 << 18, 1 << 20, 1 << 18, 100)
    }

    #[test]
    fn stream_id_parity() {
        let mut c = map(Side::Client);
        assert_eq!(c.open(0), 0);
        assert_eq!(c.open(0), 4);
        let mut s = map(Side::Server);
        assert_eq!(s.open(0), 1);
        assert_eq!(s.open(0), 5);
    }

    #[test]
    fn opened_by_us_parity() {
        assert!(Side::Client.opened_by_us(0));
        assert!(Side::Client.opened_by_us(4));
        assert!(!Side::Client.opened_by_us(1));
        assert!(Side::Server.opened_by_us(1));
        assert!(!Side::Server.opened_by_us(0));
        assert_eq!(Side::Client.peer(), Side::Server);
    }

    #[test]
    fn peer_streams_lazily_created() {
        let mut s = map(Side::Server);
        let st = s.get_or_open_peer(0).unwrap();
        assert_eq!(st.id, 0);
        assert!(s.get(0).is_some());
        // Our own unknown stream ID is an error, not a creation.
        assert_eq!(s.get_or_open_peer(1).err(), Some(TransportError::StreamStateError));
    }

    #[test]
    fn stream_limit_enforced() {
        let mut s = StreamMap::new(Side::Server, 1 << 20, 1 << 18, 1 << 20, 1 << 18, 2);
        assert!(s.get_or_open_peer(0).is_ok());
        assert!(s.get_or_open_peer(4).is_ok());
        assert_eq!(s.get_or_open_peer(8).err(), Some(TransportError::StreamLimitError));
    }

    /// Nearly every connection has one stream: the table holds it in a
    /// block of exactly its size.
    #[test]
    fn the_first_stream_takes_one_slot() {
        use xlink_obs::prof;
        for side in [Side::Client, Side::Server] {
            let mut m = map(side);
            let (_, report) = prof::with_recording(|| {
                let _span = prof::span!("test/open");
                m.open(0);
            });
            let row = report.get("test;open").expect("recorded");
            assert_eq!((row.allocs, row.alloc_bytes), (1, size_of::<Stream>() as u64));
        }
    }

    /// RFC 9000's rules for a frame that names a stream the table does not
    /// hold, one row per clause, at a server: its peer's first
    /// unidirectional id is 2, its own first stream 1. Each closes the
    /// connection with its code and opens nothing.
    #[test]
    fn frames_naming_impossible_streams_close_with_the_rfc_code() {
        use TransportError::{StreamLimitError, StreamStateError};
        let rows = [
            // §4.6: no unidirectional limit is advertised, so it is 0.
            (FrameRef::Stream { stream_id: 2, offset: 0, data: b"x", fin: true }, StreamLimitError),
            (
                FrameRef::Other(Frame::ResetStream { stream_id: 2, error_code: 0, final_size: 1 }),
                StreamLimitError,
            ),
            // §19.5 and §19.10: a locally-initiated stream never opened,
            // and one the peer opened unidirectional, receive-only here.
            (FrameRef::Other(Frame::StopSending { stream_id: 1, error_code: 0 }), StreamStateError),
            (
                FrameRef::Other(Frame::MaxStreamData { stream_id: 1, max: 1 << 20 }),
                StreamStateError,
            ),
            (FrameRef::Other(Frame::StopSending { stream_id: 2, error_code: 0 }), StreamStateError),
            (
                FrameRef::Other(Frame::MaxStreamData { stream_id: 2, max: 1 << 20 }),
                StreamStateError,
            ),
        ];
        for (frame, code) in rows {
            let mut m = map(Side::Server);
            let row = format!("{frame:?}");
            assert_eq!(m.on_frame(frame).map_err(|(e, _)| e), Err(code), "{row}");
            assert_eq!(m.iter().count(), 0, "{row} opened a stream");
        }
    }

    /// Random sequences of local opens, peer ids (out of order, descending
    /// runs, our own parity, unidirectional, past the limit) and the two
    /// halves of a 2-byte request arriving in either order, against an
    /// ordered map: after every step the table lists the same streams in
    /// the same order, finds each one, and refuses what the model refuses;
    /// and `next_request` hands out the lowest complete, unread stream the
    /// peer opened, each once (read whole when handed out).
    #[test]
    fn prop_the_stream_table_is_the_ordered_map() {
        use std::collections::{BTreeMap, BTreeSet};
        use xlink_lab::prop::*;
        const REQUEST: [u8; 2] = [7, 9];
        let ops = vec_of((0u8..6, 0u64..256), 0..60);
        check("prop_the_stream_table_is_the_ordered_map", (0u8..2, 0u64..12, ops), |v| {
            let &(server, max_streams, ref ops) = v;
            let side = if server == 1 { Side::Server } else { Side::Client };
            let mut m = StreamMap::new(side, 1 << 20, 1 << 18, 1 << 20, 1 << 18, max_streams);
            let mut model: BTreeMap<u64, u8> = BTreeMap::new();
            // The request halves each stream holds (bit 0 the first byte,
            // bit 1 the second with the FIN), and the streams read.
            let (mut arrived, mut read) = (BTreeMap::<u64, u8>::new(), BTreeSet::new());
            let mut next_local = if server == 1 { 1 } else { 0 };
            let verdict = |model: &BTreeMap<u64, u8>, id: u64| {
                if model.contains_key(&id) {
                    Ok(())
                } else if side.opened_by_us(id) {
                    Err(TransportError::StreamStateError)
                } else if id % 4 >= 2 || id / 4 >= max_streams {
                    Err(TransportError::StreamLimitError)
                } else {
                    Ok(())
                }
            };
            for &(kind, a) in ops {
                match kind {
                    0 => {
                        prop_assert_eq!(m.open(a as u8), next_local);
                        model.insert(next_local, a as u8);
                        next_local += 4;
                    }
                    1 | 2 => {
                        let peer_ids: Vec<u64> = match kind {
                            1 => vec![a % 64],
                            _ => (0..=(a % 64) / 4).map(|k| a % 64 - 4 * k).collect(),
                        };
                        for id in peer_ids {
                            let want = verdict(&model, id).map(|()| {
                                model.entry(id).or_insert(DEFAULT_FRAME_PRIORITY);
                                id
                            });
                            prop_assert_eq!(m.get_or_open_peer(id).map(|s| s.id), want);
                        }
                    }
                    3 | 4 => {
                        let (id, half) = (a % 64, usize::from(kind - 3));
                        let data = &REQUEST[half..half + 1];
                        let frame = FrameRef::Stream {
                            stream_id: id,
                            offset: half as u64,
                            data,
                            fin: half == 1,
                        };
                        let want = verdict(&model, id);
                        if want.is_ok() {
                            model.entry(id).or_insert(DEFAULT_FRAME_PRIORITY);
                            *arrived.entry(id).or_default() |= 1 << half;
                        }
                        prop_assert_eq!(m.on_frame(frame).map_err(|(e, _)| e), want);
                    }
                    _ => {
                        let mut complete = arrived.iter().filter(|&(_, &halves)| halves == 3);
                        let want = complete
                            .find(|&(id, _)| !side.opened_by_us(*id) && !read.contains(id))
                            .map(|(&id, _)| id);
                        let got = m.next_request();
                        prop_assert_eq!(got, want);
                        // Found none: the next call is O(1) until a STREAM
                        // frame completes a peer's stream.
                        prop_assert_eq!(m.request_ready, got.is_some());
                        if let Some(id) = got {
                            prop_assert_eq!(m.consume(id, usize::MAX), &REQUEST[..]);
                            read.insert(id);
                        }
                    }
                }
                let ids: Vec<(u64, u8)> = m.iter().map(|s| (s.id, s.priority)).collect();
                let want: Vec<(u64, u8)> = model.iter().map(|(&id, &p)| (id, p)).collect();
                prop_assert_eq!(ids, want);
                prop_assert!(m.iter_mut().map(|s| s.id).eq(model.keys().copied()));
                for id in 0..next_local.max(64) + 4 {
                    let want = model.get(&id).map(|&p| (id, p));
                    prop_assert_eq!(m.get(id).map(|s| (s.id, s.priority)), want);
                    prop_assert_eq!(m.get_mut(id).map(|s| s.id), want.map(|(id, _)| id));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn sendable_sorted_by_priority_then_id() {
        let mut m = map(Side::Client);
        let a = m.open(5);
        let b = m.open(1);
        let c = m.open(5);
        m.get_mut(a).unwrap().send.write(b"a");
        m.get_mut(b).unwrap().send.write(b"b");
        m.get_mut(c).unwrap().send.write(b"c");
        assert_eq!(m.sendable(), [(1, b), (5, a), (5, c)]);
    }

    #[test]
    fn conn_flow_control_accounting() {
        let mut m = StreamMap::new(Side::Client, 100, 1 << 18, 50, 1 << 18, 10);
        assert_eq!(m.conn_send_credit(), 50);
        m.consume_conn_credit(20);
        assert_eq!(m.conn_send_credit(), 30);
        m.on_max_data(80);
        assert_eq!(m.conn_send_credit(), 60);
        m.on_max_data(10); // decrease ignored
        assert_eq!(m.conn_send_credit(), 60);
    }

    #[test]
    fn conn_recv_window_updates() {
        let mut m = StreamMap::new(Side::Client, 100, 1 << 18, 1 << 20, 1 << 18, 10);
        m.on_conn_data_received(60).unwrap();
        assert_eq!(m.wants_conn_max_data_update(), Some(160));
        assert!(m.wants_conn_max_data_update().is_none());
        assert!(m.on_conn_data_received(200).is_err());
    }
}
