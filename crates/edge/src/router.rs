//! The PoP's packet classifier and CID routing table.
//!
//! The router sits on the hot path of every datagram entering the PoP, so
//! [`classify`] is allocation-free: it peeks at the header bytes in place
//! (mirroring `xlink_quic::packet`'s wire format) and borrows the token
//! instead of copying it. Full header decoding — and the per-packet
//! allocations it implies — happens only inside the backend connection the
//! datagram is handed to.
//!
//! Routing is two-layered, like the paper's §6 deployment:
//!
//! 1. an explicit demux table from every CID a backend connection has
//!    issued to its connection slot (exact, updated on issuance and
//!    retirement), and
//! 2. the [`LoadBalancer`] consistent-hash ring for packets that match no
//!    table entry (new connections; placement only).

use std::collections::BTreeMap;
use xlink_core::lb::{server_id, LoadBalancer, ServerId};
use xlink_quic::cid::{ConnectionId, CID_LEN};
use xlink_quic::packet::MAX_TOKEN_LEN;

/// What kind of datagram arrived, with just enough routing information
/// peeked out of the header. Borrows the token from the datagram.
#[derive(Debug, PartialEq, Eq)]
pub enum Classified<'a> {
    /// 1-RTT short header: route by DCID.
    Short {
        /// Destination CID (routing key).
        dcid: ConnectionId,
    },
    /// Initial long header: new connection attempt or handshake traffic.
    Initial {
        /// Destination CID (placeholder pre-handshake).
        dcid: ConnectionId,
        /// Client's CID — the demux key for handshake-era packets.
        scid: ConnectionId,
        /// Address-validation token echoed from a Retry (may be empty).
        token: &'a [u8],
    },
    /// Handshake long header: route by client SCID like Initials.
    Handshake {
        /// Destination CID.
        dcid: ConnectionId,
        /// Client's CID.
        scid: ConnectionId,
    },
    /// A Retry. The PoP drops inbound ones (only it mints Retries); the
    /// client fleet routes them to the session `dcid` names.
    Retry {
        /// Destination CID — the client CID the Retry answers.
        dcid: ConnectionId,
        /// Server-chosen CID the client must readdress to.
        scid: ConnectionId,
    },
    /// Unparseable header.
    Malformed,
}

fn read_cid(b: &[u8]) -> ConnectionId {
    let mut cid = [0u8; CID_LEN];
    cid.copy_from_slice(&b[..CID_LEN]);
    ConnectionId(cid)
}

/// Peek the routing-relevant header fields without allocating. Mirrors
/// `Header::decode` in `xlink_quic::packet` (fixed 8-byte CIDs, Initial
/// token as varint-length-prefixed bytes).
pub fn classify(datagram: &[u8]) -> Classified<'_> {
    let Some(&first) = datagram.first() else {
        return Classified::Malformed;
    };
    if first & 0x40 == 0 {
        return Classified::Malformed; // fixed bit must be set
    }
    if first & 0x80 == 0 {
        // Short header: [first | dcid(8) | pn ...]
        if datagram.len() < 1 + CID_LEN {
            return Classified::Malformed;
        }
        return Classified::Short { dcid: read_cid(&datagram[1..]) };
    }
    // Long header: [first | dlen | dcid | slen | scid | ...]
    let ty_bits = (first >> 4) & 0x03;
    let mut off = 1;
    let Some(&dlen) = datagram.get(off) else {
        return Classified::Malformed;
    };
    off += 1;
    if dlen as usize != CID_LEN || datagram.len() < off + CID_LEN + 1 {
        return Classified::Malformed;
    }
    let dcid = read_cid(&datagram[off..]);
    off += CID_LEN;
    let slen = datagram[off];
    off += 1;
    if slen as usize != CID_LEN || datagram.len() < off + CID_LEN {
        return Classified::Malformed;
    }
    let scid = read_cid(&datagram[off..]);
    off += CID_LEN;
    match ty_bits {
        0b00 => {
            // Initial: varint token length, then the token. Tokens are
            // capped well under 64 bytes, so a one-byte varint suffices;
            // longer length prefixes are malformed by construction.
            let Some(&tlen) = datagram.get(off) else {
                return Classified::Malformed;
            };
            if tlen as usize > MAX_TOKEN_LEN || tlen & 0xc0 != 0 {
                return Classified::Malformed;
            }
            off += 1;
            let Some(token) = datagram.get(off..off + tlen as usize) else {
                return Classified::Malformed;
            };
            Classified::Initial { dcid, scid, token }
        }
        0b10 => Classified::Handshake { dcid, scid },
        0b11 => Classified::Retry { dcid, scid },
        _ => Classified::Malformed,
    }
}

/// CID → backend-connection routing for one PoP.
#[derive(Debug)]
pub struct EdgeRouter {
    lb: LoadBalancer,
    /// Shards currently accepting new connections.
    active: Vec<ServerId>,
    /// Exact demux: every live server-issued CID → connection slot.
    table: BTreeMap<ConnectionId, usize>,
    /// High-water mark of the demux table (cap audit).
    peak_table: usize,
}

impl EdgeRouter {
    /// Build a router over the given shard set.
    pub fn new(shards: &[ServerId]) -> Self {
        EdgeRouter {
            lb: LoadBalancer::new(shards),
            active: shards.to_vec(),
            table: BTreeMap::new(),
            peak_table: 0,
        }
    }

    /// Remove a shard from new-connection placement (drain or crash).
    /// Existing table entries are untouched — live connections keep
    /// routing until they are migrated and their old CIDs retired.
    /// Idempotent: returns whether the shard was active (false means it
    /// was already out of placement, or never part of this router).
    pub fn deactivate_shard(&mut self, shard: ServerId) -> bool {
        let was = self.active.contains(&shard);
        if was {
            self.active.retain(|&s| s != shard);
            self.lb = LoadBalancer::new(&self.active);
        }
        was
    }

    /// Return a shard to new-connection placement (crash restart).
    /// Idempotent: returns whether the shard was actually re-added
    /// (false means it was already active). Placement order is kept
    /// sorted so activate/deactivate round-trips are hash-stable.
    pub fn activate_shard(&mut self, shard: ServerId) -> bool {
        if self.active.contains(&shard) {
            return false;
        }
        self.active.push(shard);
        self.active.sort_unstable();
        self.lb = LoadBalancer::new(&self.active);
        true
    }

    /// Place a brand-new connection on an active shard by consistent
    /// hashing of the client's CID.
    pub fn place(&self, client_cid: &ConnectionId) -> Option<ServerId> {
        self.lb.route_by_hash(client_cid)
    }

    /// Exact-match route for an established connection's DCID.
    pub fn route(&self, dcid: &ConnectionId) -> Option<usize> {
        self.table.get(dcid).copied()
    }

    /// The shard a routable CID claims to belong to (its embedded
    /// server ID) — audit/metrics only, never a routing decision.
    pub fn claimed_shard(dcid: &ConnectionId) -> ServerId {
        server_id(dcid)
    }

    /// Bind a server-issued CID to a connection slot.
    pub fn bind(&mut self, cid: ConnectionId, slot: usize) {
        self.table.insert(cid, slot);
        self.peak_table = self.peak_table.max(self.table.len());
    }

    /// Drop a retired CID's route. Returns true if it was mapped.
    pub fn unbind(&mut self, cid: &ConnectionId) -> bool {
        self.table.remove(cid).is_some()
    }

    /// Drop every route pointing at `slot` (connection teardown).
    pub fn unbind_slot(&mut self, slot: usize) {
        self.table.retain(|_, &mut s| s != slot);
    }

    /// Live demux entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// High-water mark of the demux table.
    pub fn peak_table(&self) -> usize {
        self.peak_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_core::lb::encode_cid;
    use xlink_quic::packet::{Header, PacketType};

    fn cid(b: u8) -> ConnectionId {
        ConnectionId([b; CID_LEN])
    }

    #[test]
    fn classify_matches_full_decoder() {
        let cases = [
            Header {
                ty: PacketType::Initial,
                dcid: cid(1),
                scid: cid(2),
                pn: 0,
                pn_len: 1,
                token: vec![7; 24],
            },
            Header {
                ty: PacketType::Initial,
                dcid: cid(1),
                scid: cid(2),
                pn: 5,
                pn_len: 2,
                token: Vec::new(),
            },
            Header {
                ty: PacketType::Handshake,
                dcid: cid(3),
                scid: cid(4),
                pn: 1,
                pn_len: 1,
                token: Vec::new(),
            },
            Header {
                ty: PacketType::OneRtt,
                dcid: cid(9),
                scid: cid(0),
                pn: 42,
                pn_len: 4,
                token: Vec::new(),
            },
        ];
        for h in cases {
            let bytes = h.encode();
            match (h.ty, classify(&bytes)) {
                (PacketType::Initial, Classified::Initial { dcid, scid, token }) => {
                    assert_eq!(dcid, h.dcid);
                    assert_eq!(scid, h.scid);
                    assert_eq!(token, h.token.as_slice());
                }
                (PacketType::Handshake, Classified::Handshake { dcid, scid }) => {
                    assert_eq!(dcid, h.dcid);
                    assert_eq!(scid, h.scid);
                }
                (PacketType::OneRtt, Classified::Short { dcid }) => assert_eq!(dcid, h.dcid),
                (ty, got) => panic!("{ty:?} classified as {got:?}"),
            }
        }
    }

    #[test]
    fn classify_flags_retry_and_garbage() {
        let retry = Header {
            ty: PacketType::Retry,
            dcid: cid(1),
            scid: cid(2),
            pn: 0,
            pn_len: 1,
            token: vec![1; 24],
        };
        assert_eq!(
            classify(&retry.encode()),
            Classified::Retry { dcid: retry.dcid, scid: retry.scid }
        );
        assert_eq!(classify(&[]), Classified::Malformed);
        assert_eq!(classify(&[0x00, 1, 2]), Classified::Malformed);
        assert_eq!(classify(&[0b0100_0000, 1]), Classified::Malformed); // short, truncated
        assert_eq!(classify(&[0b1100_0000, 4, 1, 2, 3, 4]), Classified::Malformed);
        // bad cid len
    }

    #[test]
    fn table_routes_exactly_and_tracks_peak() {
        let mut r = EdgeRouter::new(&[1, 2]);
        let a = encode_cid(1, 0, 111);
        let b = encode_cid(2, 0, 222);
        r.bind(a, 0);
        r.bind(b, 1);
        assert_eq!(r.route(&a), Some(0));
        assert_eq!(r.route(&b), Some(1));
        assert_eq!(r.route(&encode_cid(1, 0, 999)), None);
        assert!(r.unbind(&a));
        assert!(!r.unbind(&a));
        assert_eq!(r.table_len(), 1);
        assert_eq!(r.peak_table(), 2);
    }

    #[test]
    fn drain_removes_shard_from_placement_only() {
        let mut r = EdgeRouter::new(&[1, 2, 3]);
        let old = encode_cid(3, 0, 5);
        r.bind(old, 7);
        r.deactivate_shard(3);
        // Placement never lands on the drained shard...
        for i in 0..200u64 {
            let s = r.place(&ConnectionId::derive(9, i)).unwrap();
            assert_ne!(s, 3, "placement hit draining shard");
        }
        // ...but established routes keep working.
        assert_eq!(r.route(&old), Some(7));
    }

    #[test]
    fn activate_deactivate_are_idempotent_and_hash_stable() {
        let mut r = EdgeRouter::new(&[1, 2, 3]);
        assert!(r.deactivate_shard(2));
        assert!(!r.deactivate_shard(2), "double deactivate must be a no-op");
        assert!(!r.deactivate_shard(9), "unknown shard is not active");
        for i in 0..100u64 {
            assert_ne!(r.place(&ConnectionId::derive(4, i)), Some(2));
        }
        assert!(r.activate_shard(2));
        assert!(!r.activate_shard(2), "double activate must be a no-op");
        // A deactivate/activate round-trip restores the original
        // placement function exactly.
        let fresh = EdgeRouter::new(&[1, 2, 3]);
        for i in 0..200u64 {
            let c = ConnectionId::derive(8, i);
            assert_eq!(r.place(&c), fresh.place(&c));
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let a = EdgeRouter::new(&[1, 2, 3, 4]);
        let b = EdgeRouter::new(&[1, 2, 3, 4]);
        for i in 0..100u64 {
            let c = ConnectionId::derive(3, i);
            assert_eq!(a.place(&c), b.place(&c));
        }
    }
}
