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
use crate::connection::SentFrame;
use crate::error::TransportError;
use crate::frame::Frame;
use crate::packet::PacketBuilder;
use crate::params::TransportParams;
use std::collections::BTreeMap;

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

/// Per-connection stream table and connection-level flow control.
#[derive(Debug)]
pub struct StreamMap {
    side: Side,
    streams: BTreeMap<u64, Stream>,
    next_local: u64,
    /// Largest peer-opened stream ID we've seen.
    largest_peer_opened: Option<u64>,
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
    /// Bumped whenever a STREAM or RESET_STREAM frame arrives.
    epoch: u64,
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
            streams: BTreeMap::new(),
            next_local: match side {
                Side::Client => 0,
                Side::Server => 1,
            },
            largest_peer_opened: None,
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
            epoch: 0,
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

    /// Open a new locally-initiated bidirectional stream.
    pub fn open(&mut self, priority: u8) -> u64 {
        let id = self.next_local;
        self.next_local += 4;
        self.streams.insert(
            id,
            Stream {
                id,
                send: SendStream::new(self.peer_stream_window),
                recv: RecvStream::new(self.stream_recv_window),
                priority,
            },
        );
        id
    }

    /// Get or lazily create the stream for a peer-initiated ID seen on the
    /// wire. Returns `StreamLimitError` if the peer exceeds its allowance.
    pub fn get_or_open_peer(&mut self, id: u64) -> Result<&mut Stream, TransportError> {
        if self.side.opened_by_us(id) {
            return self.streams.get_mut(&id).ok_or(TransportError::StreamStateError);
        }
        if !self.streams.contains_key(&id) {
            let index = id / 4;
            if index >= self.max_streams {
                return Err(TransportError::StreamLimitError);
            }
            self.streams.insert(
                id,
                Stream {
                    id,
                    send: SendStream::new(self.peer_stream_window),
                    recv: RecvStream::new(self.stream_recv_window),
                    priority: crate::stream::send::DEFAULT_FRAME_PRIORITY,
                },
            );
            self.largest_peer_opened = Some(self.largest_peer_opened.map_or(id, |l| l.max(id)));
        }
        Ok(self.streams.get_mut(&id).expect("just inserted"))
    }

    /// Borrow a stream by ID.
    pub fn get(&self, id: u64) -> Option<&Stream> {
        self.streams.get(&id)
    }

    /// Mutably borrow a stream by ID.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Stream> {
        self.streams.get_mut(&id)
    }

    /// Iterate all streams ascending by ID.
    pub fn iter(&self) -> impl Iterator<Item = &Stream> {
        self.streams.values()
    }

    /// Iterate all streams mutably, ascending by ID.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Stream> {
        self.streams.values_mut()
    }

    /// Streams with pending data, sorted by (priority, id) — the transmit
    /// order XLINK's stream-priority rules require (earlier/higher-priority
    /// streams first).
    pub fn sendable_ids(&self) -> Vec<u64> {
        let mut ids: Vec<(u8, u64)> = self
            .streams
            .values()
            .filter(|s| s.send.has_pending())
            .map(|s| (s.priority, s.id))
            .collect();
        ids.sort();
        ids.into_iter().map(|(_, id)| id).collect()
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

    /// Write `data` on a stream, tagged with a video-frame priority if one
    /// is given (§5.1: what frame-priority re-injection accelerates);
    /// `fin` marks the end.
    pub fn write(
        &mut self,
        id: u64,
        data: &[u8],
        frame_priority: Option<FramePriority>,
        fin: bool,
    ) {
        // Invariant: `id` came from open()/readable_ids() on this map — an
        // application bug, never peer-reachable input.
        let send = &mut self.streams.get_mut(&id).expect("unknown stream").send;
        if !data.is_empty() {
            match frame_priority {
                Some(p) => send.write_with_priority(data, p),
                None => send.write(data),
            };
        }
        if fin {
            send.finish();
        }
    }

    /// Read up to `max` available bytes from a stream, queueing the
    /// flow-control updates the freed window calls for.
    pub fn read(&mut self, id: u64, max: usize) -> Vec<u8> {
        let Some(stream) = self.streams.get_mut(&id) else {
            return Vec::new();
        };
        let data = stream.recv.read(max);
        if let Some(new_max) = stream.recv.wants_max_data_update() {
            self.control.push(Frame::MaxStreamData { stream_id: id, max: new_max });
        }
        if let Some(new_max) = self.wants_conn_max_data_update() {
            self.control.push(Frame::MaxData(new_max));
        }
        data
    }

    /// Streams with readable data or a completed FIN.
    pub fn readable_ids(&self) -> Vec<u64> {
        self.iter()
            .filter(|s| s.recv.readable() > 0 || s.recv.is_complete())
            .map(|s| s.id)
            .collect()
    }

    /// True once a stream's receive side is complete.
    pub fn is_complete(&self, id: u64) -> bool {
        self.get(id).is_some_and(|s| s.recv.is_complete())
    }

    /// Monotone count of STREAM and RESET_STREAM frames received: what
    /// [`StreamMap::readable_ids`] and [`StreamMap::read`] return changes
    /// only when this moves or the application reads.
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// Apply a received stream or flow-control frame; any other frame is
    /// not this map's and is ignored. An error is what to close with.
    pub fn on_frame(&mut self, frame: Frame) -> Result<(), (TransportError, &'static str)> {
        match frame {
            Frame::Stream { stream_id, offset, data, fin } => {
                self.epoch += 1;
                // The map's verdict propagates: STREAM_LIMIT_ERROR for
                // exhaustion, STREAM_STATE_ERROR for frames on streams we
                // never opened.
                let recv =
                    &mut self.get_or_open_peer(stream_id).map_err(|e| (e, "bad stream"))?.recv;
                let prev_high = recv.highest_recv();
                recv.on_data(offset, &data, fin).map_err(|e| (e, "stream data"))?;
                let new_high = recv.highest_recv();
                if new_high > prev_high {
                    self.on_conn_data_received(new_high - prev_high)
                        .map_err(|e| (e, "conn flow control"))?;
                }
            }
            Frame::MaxData(v) => self.on_max_data(v),
            Frame::MaxStreamData { stream_id, max } => {
                if let Some(s) = self.get_mut(stream_id) {
                    s.send.set_max_data(max);
                }
            }
            Frame::ResetStream { stream_id, final_size, .. } => {
                self.epoch += 1;
                if let Ok(s) = self.get_or_open_peer(stream_id) {
                    let _ = s.recv.on_reset(final_size);
                }
            }
            Frame::StopSending { stream_id, .. } => {
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
    /// getting room while 32 bytes are left. Returns what went in
    /// and how many stream bytes were sent for the first time. A range
    /// that does not fit the connection limit goes back as never sent, and
    /// DATA_BLOCKED is said once per limit (RFC 9000 §19.12), in this very
    /// packet: left on the queue it would make the next poll send with no
    /// input in between.
    pub fn pack(&mut self, packet: &mut PacketBuilder) -> (Vec<SentFrame>, u64) {
        let mut sent = Vec::new();
        let mut first_time = 0;
        let mut remaining = MAX_DATAGRAM_SIZE as usize - 64; // header+tag slack
        while let Some(f) = self.control.pop() {
            let Some(len) = packet.push_if_fits(&f, remaining) else {
                self.control.push(f);
                break;
            };
            remaining -= len;
            sent.push(SentFrame::Control(f));
        }
        for id in self.sendable_ids() {
            if remaining < 32 {
                break;
            }
            let conn_credit = self.conn_send_credit();
            // Invariant: sendable_ids() only yields ids present in the map.
            let send = &mut self.streams.get_mut(&id).expect("sendable id").send;
            // Reserve frame header overhead ~ 1+8+8+4.
            let max_payload = remaining.saturating_sub(24);
            let before_largest = send.largest_sent();
            let Some((range, fin)) = send.take_range(max_payload) else {
                // A data-less FIN is only legal once every byte has been
                // sent; a flow-control-blocked stream must wait.
                if send.fin_pending() && send.data_fully_sent() {
                    let range = SendRange { start: send.len(), end: send.len() };
                    Frame::encode_stream(packet.frames(), id, range.start, &[], true);
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
                    sent.push(SentFrame::Control(blocked));
                }
                break;
            }
            // The payload goes from the stream's buffer straight into the
            // datagram.
            Frame::encode_stream(packet.frames(), id, range.start, send.data(range), fin);
            self.consume_conn_credit(new_bytes);
            first_time += new_bytes;
            remaining = remaining.saturating_sub(range.len() as usize + 24);
            sent.push(SentFrame::Stream { id, range, fin, reinjected: false });
        }
        (sent, first_time)
    }

    /// A sent frame was acknowledged: a stream range is delivered. Every
    /// other kind is the connection's to interpret. Returns whether the
    /// stream thereby forgot older acknowledgements (the cap on its acked
    /// ranges; never in an honest exchange).
    pub fn on_sent_frame_acked(&mut self, frame: &SentFrame) -> bool {
        let SentFrame::Stream { id, range, fin, .. } = frame else { return false };
        let Some(s) = self.streams.get_mut(id) else { return false };
        let evicted = s.send.acked_evicted();
        s.send.on_range_acked(*range, *fin);
        s.send.acked_evicted() != evicted
    }

    /// A sent frame was lost: an original stream range is pending again
    /// (returns the bytes to retransmit), a control frame goes back on the
    /// queue. A lost re-injected copy is left alone; every other kind is
    /// the connection's to interpret.
    pub fn on_sent_frame_lost(&mut self, frame: SentFrame) -> u64 {
        match frame {
            SentFrame::Stream { id, range, fin, reinjected: false } => {
                let Some(s) = self.streams.get_mut(&id) else { return 0 };
                s.send.on_range_lost(range, fin);
                return range.len();
            }
            SentFrame::Control(f) => self.control.push(f),
            _ => {}
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

    #[test]
    fn sendable_sorted_by_priority_then_id() {
        let mut m = map(Side::Client);
        let a = m.open(5);
        let b = m.open(1);
        let c = m.open(5);
        m.get_mut(a).unwrap().send.write(b"a");
        m.get_mut(b).unwrap().send.write(b"b");
        m.get_mut(c).unwrap().send.write(b"c");
        assert_eq!(m.sendable_ids(), vec![b, a, c]);
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
