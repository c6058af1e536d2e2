//! Load-balancer compatibility (paper §6 "Work with Load Balancers").
//!
//! The deployment routes packets by connection ID in two tiers:
//!
//! 1. **Edge load balancer**: a QUIC-LB-style scheme where each real
//!    server encodes its server ID into the CIDs it issues, so every path
//!    of a multipath connection hashes to the same real server.
//! 2. **Multi-process CDN server**: a process ID in the reserved bytes of
//!    the CID routes the datagram to the OS process holding the
//!    connection context.
//!
//! CIDs here are 8 bytes: `[server_id (2) | process_id (1) | entropy (5)]`.

use xlink_quic::cid::{ConnectionId, CID_LEN};

/// Server identifier embedded in a CID.
pub type ServerId = u16;
/// Worker-process identifier embedded in a CID.
pub type ProcessId = u8;

/// Encode a routable CID.
pub fn encode_cid(server: ServerId, process: ProcessId, entropy: u64) -> ConnectionId {
    let mut b = [0u8; CID_LEN];
    b[..2].copy_from_slice(&server.to_be_bytes());
    b[2] = process;
    b[3..].copy_from_slice(&entropy.to_be_bytes()[3..]);
    ConnectionId(b)
}

/// Extract the server ID from a routable CID.
pub fn server_id(cid: &ConnectionId) -> ServerId {
    u16::from_be_bytes([cid.0[0], cid.0[1]])
}

/// Extract the process ID from a routable CID.
pub fn process_id(cid: &ConnectionId) -> ProcessId {
    cid.0[2]
}

/// A consistent-hashing load balancer over a set of real servers.
///
/// New connections (whose initial DCID carries no server ID) are placed by
/// consistent hashing; established connections are routed by the embedded
/// server ID so all paths land on the same real server.
#[derive(Debug)]
pub struct LoadBalancer {
    /// (hash point, server) ring, sorted by hash point.
    ring: Vec<(u64, ServerId)>,
}

const VNODES: usize = 32;

fn hash64(data: &[u8], salt: u64) -> u64 {
    // FNV-1a accumulation with a splitmix64 finalizer: short inputs (2-8
    // bytes) barely move FNV's high bits, so the finalizer provides the
    // avalanche the ring lookup needs.
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    xlink_lab::rng::mix(h)
}

impl LoadBalancer {
    /// Build a ring over the given server IDs.
    pub fn new(servers: &[ServerId]) -> Self {
        let mut ring = Vec::with_capacity(servers.len() * VNODES);
        for &s in servers {
            for v in 0..VNODES {
                ring.push((hash64(&s.to_be_bytes(), v as u64), s));
            }
        }
        ring.sort_unstable();
        LoadBalancer { ring }
    }

    /// Route a datagram by destination CID: established connections carry
    /// their server ID; unknown CIDs go through consistent hashing.
    pub fn route(&self, dcid: &ConnectionId, known_servers: &[ServerId]) -> Option<ServerId> {
        let sid = server_id(dcid);
        if known_servers.contains(&sid) {
            return Some(sid);
        }
        self.route_by_hash(dcid)
    }

    /// Pure consistent-hash placement (for new connections).
    pub fn route_by_hash(&self, dcid: &ConnectionId) -> Option<ServerId> {
        if self.ring.is_empty() {
            return None;
        }
        let h = hash64(&dcid.0, 0);
        let idx = self.ring.partition_point(|&(p, _)| p < h);
        let (_, s) = self.ring[idx % self.ring.len()];
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cid_encoding_roundtrip() {
        let cid = encode_cid(0x1234, 7, 0xdead_beef_99);
        assert_eq!(server_id(&cid), 0x1234);
        assert_eq!(process_id(&cid), 7);
    }

    #[test]
    fn entropy_differentiates_cids() {
        let a = encode_cid(1, 1, 100);
        let b = encode_cid(1, 1, 101);
        assert_ne!(a, b);
        assert_eq!(server_id(&a), server_id(&b));
    }

    #[test]
    fn established_connections_route_by_server_id() {
        let lb = LoadBalancer::new(&[1, 2, 3]);
        // All paths of a connection use CIDs issued by server 2.
        for entropy in 0..20 {
            let cid = encode_cid(2, 0, entropy);
            assert_eq!(lb.route(&cid, &[1, 2, 3]), Some(2));
        }
    }

    #[test]
    fn unknown_server_falls_back_to_hash() {
        let lb = LoadBalancer::new(&[1, 2, 3]);
        let cid = encode_cid(999, 0, 5); // not a real server
        let got = lb.route(&cid, &[1, 2, 3]).unwrap();
        assert!([1, 2, 3].contains(&got));
    }

    #[test]
    fn hash_distribution_is_roughly_even() {
        let lb = LoadBalancer::new(&[1, 2, 3, 4]);
        let mut counts = std::collections::HashMap::new();
        for e in 0..4000u64 {
            let cid = encode_cid(0, 0, e);
            *counts.entry(lb.route_by_hash(&cid).unwrap()).or_insert(0u32) += 1;
        }
        for (&s, &c) in &counts {
            assert!((500..2000).contains(&c), "server {s} got {c}/4000");
        }
        assert_eq!(counts.len(), 4);
    }

    #[test]
    fn consistent_hashing_is_stable_under_server_addition() {
        let lb3 = LoadBalancer::new(&[1, 2, 3]);
        let lb4 = LoadBalancer::new(&[1, 2, 3, 4]);
        let moved = (0..2000u64)
            .filter(|&e| {
                let cid = encode_cid(0, 0, e);
                lb3.route_by_hash(&cid) != lb4.route_by_hash(&cid)
            })
            .count();
        // Adding one of four servers should move roughly 1/4 of keys,
        // far from rehashing everything.
        assert!(moved < 1000, "moved {moved}/2000");
        assert!(moved > 100, "suspiciously few moved: {moved}");
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let lb = LoadBalancer::new(&[]);
        assert_eq!(lb.route_by_hash(&encode_cid(0, 0, 1)), None);
    }
}
