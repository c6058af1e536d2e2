//! RFC 9000 §10.3 stateless reset.
//!
//! When a server loses all state for a connection (a crashed shard in the
//! edge tier), it can no longer decrypt or even recognise the short-header
//! packets a client keeps sending — but it *can* answer them with a
//! **stateless reset**: a datagram indistinguishable from a short-header
//! packet whose last 16 bytes are a token the client learned during the
//! handshake. The client, unable to decrypt the datagram, compares the
//! trailing bytes against the tokens of every CID it has sent to (the
//! *reset oracle*) and, on a match, declares the connection dead
//! immediately instead of idling to PTO/idle-timeout exhaustion.
//!
//! Tokens are deterministic: `reset_token(secret, cid)` is an HMAC-shaped
//! PRF over the CID, so a restarted shard can mint the correct token for a
//! CID it has never seen — all it needs is the epoch secret under which
//! that CID was issued (DESIGN §14). Everything here is `no_std`-shaped
//! plain arithmetic; determinism is what the simulation gates on.

use crate::cid::{ConnectionId, CID_LEN};
use xlink_lab::rng::mix;

/// Length of a stateless reset token (RFC 9000 §10.3.2).
pub const RESET_TOKEN_LEN: usize = 16;

/// Total length of the reset datagrams this stack emits: one flags byte,
/// `CID_LEN` bytes of unpredictable filler (where a DCID would sit), and
/// the 16-byte token. RFC 9000 §10.3 requires at least 21 bytes; 25 keeps
/// the shape of a minimal short-header packet with an 8-byte CID.
pub const RESET_DATAGRAM_LEN: usize = 1 + CID_LEN + RESET_TOKEN_LEN;

/// Derive the stateless reset token for `cid` under `secret`.
///
/// HMAC-shaped two-pass construction (mirrors the edge Retry-token MAC):
/// the secret is split into inner/outer pads so a token never reveals the
/// secret, and the CID enters both passes so flipping any CID bit flips
/// the whole token.
pub fn reset_token(secret: u64, cid: &ConnectionId) -> [u8; RESET_TOKEN_LEN] {
    const IPAD: u64 = 0x3636_3636_3636_3636;
    const OPAD: u64 = 0x5c5c_5c5c_5c5c_5c5c;
    let c = u64::from_be_bytes(cid.0);
    let inner = mix(mix(secret ^ IPAD) ^ c);
    let hi = mix(mix(secret ^ OPAD) ^ inner);
    let lo = mix(hi ^ c.rotate_left(17));
    let mut tok = [0u8; RESET_TOKEN_LEN];
    tok[..8].copy_from_slice(&hi.to_be_bytes());
    tok[8..].copy_from_slice(&lo.to_be_bytes());
    tok
}

/// Build a stateless reset datagram for the (unroutable) `dcid` under
/// `secret`. The filler bytes are derived from the token — *not* from the
/// triggering DCID — so the reset does not echo attacker-controlled bytes,
/// and the first byte carries the short-header fixed bit (0b01xx_xxxx) so
/// middleboxes (and our own [`plausible_reset`]) see a plausible packet.
pub fn build_stateless_reset(secret: u64, dcid: &ConnectionId) -> [u8; RESET_DATAGRAM_LEN] {
    let token = reset_token(secret, dcid);
    let scramble = mix(u64::from_be_bytes(token[..8].try_into().unwrap()) ^ 0x7e5e_7da7_a6ea_0001);
    let mut out = [0u8; RESET_DATAGRAM_LEN];
    out[0] = 0b0100_0000 | (scramble as u8 & 0b0011_1111);
    out[1..1 + CID_LEN].copy_from_slice(&scramble.to_be_bytes());
    out[1 + CID_LEN..].copy_from_slice(&token);
    out
}

/// Cheap shape check: could `datagram` be a stateless reset? True when it
/// is at least as long as the resets this stack emits and its first byte
/// has the short-header form (fixed bit set, long-header bit clear).
pub fn plausible_reset(datagram: &[u8]) -> bool {
    datagram.len() >= RESET_DATAGRAM_LEN && datagram[0] & 0b1100_0000 == 0b0100_0000
}

/// Constant-time-shaped comparison of `expected` against the *trailing*
/// 16 bytes of `datagram` (§10.3.1: the token always sits at the end).
/// XOR-accumulates every byte before a single comparison so the match
/// does not leak a prefix length through early exit.
pub fn token_matches(expected: &[u8; RESET_TOKEN_LEN], datagram: &[u8]) -> bool {
    if datagram.len() < RESET_TOKEN_LEN {
        return false;
    }
    let tail = &datagram[datagram.len() - RESET_TOKEN_LEN..];
    let mut acc = 0u8;
    for (a, b) in expected.iter().zip(tail) {
        acc |= a ^ b;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_deterministic_and_secret_sensitive() {
        let cid = ConnectionId::derive(7, 3);
        assert_eq!(reset_token(9, &cid), reset_token(9, &cid));
        assert_ne!(reset_token(9, &cid), reset_token(10, &cid));
        assert_ne!(reset_token(9, &cid), reset_token(9, &ConnectionId::derive(7, 4)));
    }

    #[test]
    fn reset_datagram_shape_and_self_match() {
        let cid = ConnectionId::derive(1, 1);
        let dg = build_stateless_reset(0xfeed, &cid);
        assert_eq!(dg.len(), RESET_DATAGRAM_LEN);
        assert!(plausible_reset(&dg));
        assert!(token_matches(&reset_token(0xfeed, &cid), &dg));
        assert!(!token_matches(&reset_token(0xfeee, &cid), &dg));
        // The filler never echoes the triggering DCID.
        assert_ne!(&dg[1..1 + CID_LEN], cid.as_bytes());
    }

    #[test]
    fn plausible_reset_rejects_long_headers_and_runts() {
        assert!(!plausible_reset(&[0xc0; RESET_DATAGRAM_LEN])); // long header
        assert!(!plausible_reset(&[0x40; RESET_DATAGRAM_LEN - 1])); // too short
        assert!(!plausible_reset(&[0x00; RESET_DATAGRAM_LEN])); // fixed bit clear
    }

    #[test]
    fn token_matches_is_position_exact() {
        let cid = ConnectionId::derive(2, 2);
        let tok = reset_token(5, &cid);
        let mut dg = build_stateless_reset(5, &cid).to_vec();
        dg.push(0); // shift the token off the tail
        assert!(!token_matches(&tok, &dg));
    }
}
