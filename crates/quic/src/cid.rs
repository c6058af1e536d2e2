//! Connection IDs and their issuance.
//!
//! Paths in the multipath extension are identified by the *sequence number*
//! of the connection ID in use (draft-liu-multipath-quic), so CIDs carry a
//! sequence number everywhere. For deployability with QUIC-LB style load
//! balancers, a server ID can be embedded in the first bytes of
//! server-issued CIDs (see `xlink-core`'s load-balancer module).

use crate::error::CodecError;
use crate::varint::{Reader, Writer};
use std::fmt;

/// Fixed connection-ID length used by this deployment (like the paper's
/// CDN, all endpoints issue CIDs of a single known length so short headers
/// can be parsed without out-of-band state).
pub const CID_LEN: usize = 8;

/// A connection ID: an opaque 8-byte token.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectionId(pub [u8; CID_LEN]);

impl ConnectionId {
    /// Build a CID from raw bytes.
    pub fn new(bytes: [u8; CID_LEN]) -> Self {
        ConnectionId(bytes)
    }

    /// Deterministically derive a CID from an endpoint seed and a sequence
    /// number (simple mixing; uniqueness is what matters, not secrecy).
    pub fn derive(seed: u64, seq: u64) -> Self {
        let x = xlink_lab::rng::mix(seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        ConnectionId(x.to_be_bytes())
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8; CID_LEN] {
        &self.0
    }
}

impl fmt::Debug for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid:")?;
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A CID together with its issuance sequence number — the unit exchanged in
/// NEW_CONNECTION_ID frames and used as the multipath path identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedCid {
    /// Sequence number assigned by the issuer; seq 0 is the handshake CID.
    pub seq: u64,
    /// RFC 9000 §19.15 Retire Prior To: on receipt, all peer-issued CIDs
    /// with sequence numbers below this value must be retired. Must be
    /// ≤ `seq`; the common (non-migration) case is 0.
    pub retire_prior_to: u64,
    /// The connection ID value.
    pub cid: ConnectionId,
    /// RFC 9000 §19.15: the stateless reset token the issuer would use
    /// for this CID. `None` encodes as all-zero bytes on the wire (the
    /// all-zero token is reserved as "no token" by this deployment).
    pub reset_token: Option<[u8; 16]>,
}

impl IssuedCid {
    /// Encode as part of a NEW_CONNECTION_ID frame body.
    pub fn encode(&self, w: &mut Writer) {
        w.varint(self.seq);
        w.varint(self.retire_prior_to);
        w.u8(CID_LEN as u8);
        w.bytes(&self.cid.0);
        w.bytes(&self.reset_token.unwrap_or([0u8; 16]));
    }

    /// Decode the body written by [`IssuedCid::encode`].
    pub fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let seq = r.varint()?;
        let retire_prior_to = r.varint()?;
        if retire_prior_to > seq {
            // §19.15: Retire Prior To larger than Sequence Number is a
            // FRAME_ENCODING_ERROR; surface as an invalid value here.
            return Err(CodecError::InvalidValue);
        }
        let len = r.u8()? as usize;
        if len != CID_LEN {
            return Err(CodecError::InvalidValue);
        }
        let raw = r.bytes(len)?;
        let mut cid = [0u8; CID_LEN];
        cid.copy_from_slice(raw);
        let tok_raw = r.bytes(16)?;
        let reset_token = if tok_raw.iter().all(|&b| b == 0) {
            None
        } else {
            let mut tok = [0u8; 16];
            tok.copy_from_slice(tok_raw);
            Some(tok)
        };
        Ok(IssuedCid { seq, retire_prior_to, cid: ConnectionId(cid), reset_token })
    }
}

/// Tracks CIDs issued by the local endpoint and CIDs received from the peer.
///
/// The multipath draft requires an unused CID on *each* side before a new
/// path can be opened; [`CidManager::take_unused_remote`] hands out a peer
/// CID for use as the destination CID of a new path.
#[derive(Debug)]
pub struct CidManager {
    seed: u64,
    next_local_seq: u64,
    /// CIDs we issued (the peer routes to us with these).
    local: Vec<IssuedCid>,
    /// CIDs the peer issued to us, not yet bound to a path.
    remote_unused: Vec<IssuedCid>,
    /// CIDs the peer issued that we bound to a path.
    remote_used: Vec<IssuedCid>,
}

impl CidManager {
    /// Create a manager; `seed` namespaces locally derived CID values.
    pub fn new(seed: u64) -> Self {
        CidManager {
            seed,
            next_local_seq: 0,
            local: Vec::new(),
            remote_unused: Vec::new(),
            remote_used: Vec::new(),
        }
    }

    /// Issue a fresh local CID (to be advertised in NEW_CONNECTION_ID).
    pub fn issue_local(&mut self) -> IssuedCid {
        let seq = self.next_local_seq;
        self.next_local_seq += 1;
        let issued = IssuedCid {
            seq,
            retire_prior_to: 0,
            cid: ConnectionId::derive(self.seed, seq),
            reset_token: None,
        };
        self.local.push(issued);
        issued
    }

    /// Issue a caller-supplied local CID that orders the peer to retire
    /// every earlier CID (`retire_prior_to` = the new CID's own sequence
    /// number). Used for shard drain: the replacement CID routes to a
    /// surviving shard and the peer must stop using the old route.
    pub fn issue_local_migration(
        &mut self,
        cid: ConnectionId,
        reset_token: Option<[u8; 16]>,
    ) -> IssuedCid {
        let seq = self.next_local_seq;
        self.next_local_seq += 1;
        let issued = IssuedCid { seq, retire_prior_to: seq, cid, reset_token };
        self.local.push(issued);
        issued
    }

    /// Sequence number the next locally issued CID will get.
    pub fn next_local_seq(&self) -> u64 {
        self.next_local_seq
    }

    /// All CIDs we have issued.
    pub fn local_cids(&self) -> &[IssuedCid] {
        &self.local
    }

    /// Look up the sequence number of one of our CIDs (packet routing).
    pub fn local_seq_of(&self, cid: &ConnectionId) -> Option<u64> {
        self.local.iter().find(|c| &c.cid == cid).map(|c| c.seq)
    }

    /// Remove a locally issued CID in response to the peer's
    /// RETIRE_CONNECTION_ID; returns its value, or `None` if we never
    /// issued (or already retired) that sequence number.
    pub fn retire_local(&mut self, seq: u64) -> Option<ConnectionId> {
        let idx = self.local.iter().position(|c| c.seq == seq)?;
        Some(self.local.remove(idx).cid)
    }

    /// Replace the value of the handshake-era (seq 0) local CID before the
    /// peer has learned it — a server rebinding onto a routable QUIC-LB
    /// encoded CID. Panics if seq 0 was never issued.
    pub fn rebind_initial_local(&mut self, cid: ConnectionId) {
        let slot = self
            .local
            .iter_mut()
            .find(|c| c.seq == 0)
            .expect("rebind_initial_local: seq 0 not issued");
        slot.cid = cid;
    }

    /// Record the peer's handshake-era CID (sequence 0) as in use. It is
    /// learned from the long-header SCID rather than a NEW_CONNECTION_ID
    /// frame, but still participates in Retire Prior To bookkeeping.
    pub fn bind_initial_remote(&mut self, cid: ConnectionId) {
        let known = self.remote_unused.iter().chain(self.remote_used.iter()).any(|c| c.seq == 0);
        if !known {
            self.remote_used.push(IssuedCid { seq: 0, retire_prior_to: 0, cid, reset_token: None });
        }
    }

    /// Record a CID received from the peer in NEW_CONNECTION_ID. Duplicate
    /// retransmissions are ignored. Applies the frame's Retire Prior To:
    /// every stored peer CID (used or unused) with a lower sequence number
    /// is dropped, and the retired sequence numbers are returned so the
    /// caller can acknowledge with RETIRE_CONNECTION_ID frames.
    pub fn store_remote(&mut self, issued: IssuedCid) -> Vec<u64> {
        let known =
            self.remote_unused.iter().chain(self.remote_used.iter()).any(|c| c.seq == issued.seq);
        if !known {
            self.remote_unused.push(issued);
            self.remote_unused.sort_by_key(|c| c.seq);
        }
        let rpt = issued.retire_prior_to;
        if rpt == 0 {
            return Vec::new();
        }
        let mut retired = Vec::new();
        for list in [&mut self.remote_unused, &mut self.remote_used] {
            list.retain(|c| {
                if c.seq < rpt {
                    retired.push(c.seq);
                    false
                } else {
                    true
                }
            });
        }
        retired.sort_unstable();
        retired
    }

    /// Take the lowest-sequence unused peer CID and bind it to a path.
    pub fn take_unused_remote(&mut self) -> Option<IssuedCid> {
        if self.remote_unused.is_empty() {
            return None;
        }
        let c = self.remote_unused.remove(0);
        self.remote_used.push(c);
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let a = ConnectionId::derive(1, 0);
        let b = ConnectionId::derive(1, 0);
        let c = ConnectionId::derive(1, 1);
        let d = ConnectionId::derive(2, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn issued_cid_roundtrip() {
        for rpt in [0, 40, 77] {
            let ic = IssuedCid {
                seq: 77,
                retire_prior_to: rpt,
                cid: ConnectionId::derive(9, 77),
                reset_token: None,
            };
            let mut w = Writer::new();
            ic.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(IssuedCid::decode(&mut r).unwrap(), ic);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn decode_rejects_retire_prior_to_above_seq() {
        let ic = IssuedCid {
            seq: 3,
            retire_prior_to: 4,
            cid: ConnectionId::derive(9, 3),
            reset_token: None,
        };
        let mut w = Writer::new();
        ic.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(IssuedCid::decode(&mut r), Err(CodecError::InvalidValue));
    }

    #[test]
    fn issuance_sequences_increment() {
        let mut m = CidManager::new(42);
        let a = m.issue_local();
        let b = m.issue_local();
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert_eq!(m.local_seq_of(&a.cid), Some(0));
        assert_eq!(m.local_seq_of(&b.cid), Some(1));
        assert_eq!(m.local_seq_of(&ConnectionId::new([0; 8])), None);
    }

    #[test]
    fn remote_store_dedups_and_takes_in_order() {
        let mut m = CidManager::new(1);
        let c1 = IssuedCid {
            seq: 1,
            retire_prior_to: 0,
            cid: ConnectionId::derive(5, 1),
            reset_token: None,
        };
        let c0 = IssuedCid {
            seq: 0,
            retire_prior_to: 0,
            cid: ConnectionId::derive(5, 0),
            reset_token: None,
        };
        assert!(m.store_remote(c1).is_empty());
        assert!(m.store_remote(c0).is_empty());
        assert!(m.store_remote(c1).is_empty()); // duplicate
        assert_eq!(m.take_unused_remote().unwrap().seq, 0);
        assert_eq!(m.take_unused_remote().unwrap().seq, 1);
        assert!(m.take_unused_remote().is_none());
        // a used CID is still known → re-store is a no-op
        assert!(m.store_remote(c0).is_empty());
        assert!(m.take_unused_remote().is_none());
    }

    #[test]
    fn store_remote_applies_retire_prior_to() {
        let mut m = CidManager::new(1);
        let c0 = IssuedCid {
            seq: 0,
            retire_prior_to: 0,
            cid: ConnectionId::derive(5, 0),
            reset_token: None,
        };
        let c1 = IssuedCid {
            seq: 1,
            retire_prior_to: 0,
            cid: ConnectionId::derive(5, 1),
            reset_token: None,
        };
        m.store_remote(c0);
        m.store_remote(c1);
        m.take_unused_remote(); // bind seq 0 to a path
        let c2 = IssuedCid {
            seq: 2,
            retire_prior_to: 2,
            cid: ConnectionId::derive(5, 2),
            reset_token: None,
        };
        let retired = m.store_remote(c2);
        // Both the used seq-0 and the unused seq-1 are retired.
        assert_eq!(retired, vec![0, 1]);
        assert_eq!(m.take_unused_remote().unwrap().seq, 2);
        assert!(m.take_unused_remote().is_none());
    }

    #[test]
    fn retire_local_and_migration_issue() {
        let mut m = CidManager::new(7);
        let a = m.issue_local();
        assert_eq!(m.next_local_seq(), 1);
        let mig = m.issue_local_migration(ConnectionId::new([9; 8]), Some([0x7f; 16]));
        assert_eq!(mig.seq, 1);
        assert_eq!(mig.retire_prior_to, 1);
        assert_eq!(m.retire_local(a.seq), Some(a.cid));
        assert_eq!(m.retire_local(a.seq), None); // already gone
        assert_eq!(m.local_seq_of(&a.cid), None);
        assert_eq!(m.local_seq_of(&mig.cid), Some(1));
    }

    #[test]
    fn rebind_initial_local_replaces_seq0_value() {
        let mut m = CidManager::new(3);
        let orig = m.issue_local();
        let routable = ConnectionId::new([0xee; 8]);
        m.rebind_initial_local(routable);
        assert_eq!(m.local_seq_of(&orig.cid), None);
        assert_eq!(m.local_seq_of(&routable), Some(0));
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let mut w = Writer::new();
        w.varint(3);
        w.u8(4); // wrong CID length
        w.bytes(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(IssuedCid::decode(&mut r), Err(CodecError::InvalidValue));
    }
}
