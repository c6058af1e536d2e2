//! Stateless Retry-token address validation (RFC 9000 §8.1.2).
//!
//! The edge answers the first Initial of every unknown client address
//! with a Retry carrying a token; only Initials echoing a valid token
//! get a connection. The token is self-authenticating — the edge stores
//! nothing per pending client — and binds:
//!
//! - the **client address** (in the simulator: the world path index), so
//!   a token captured on one path is useless on another;
//! - the **mint time**, so tokens expire after a configurable lifetime;
//! - a **mint nonce** (the PoP's monotone mint counter), so two tokens
//!   minted for the same address in the same instant are still distinct
//!   — the replay ring keys on (nonce, MAC), and clients sharing a
//!   NAT'd address must not collide.
//!
//! Wire layout (32 bytes, all big-endian):
//!
//! ```text
//! [ mint_time_us (8) | addr (8) | nonce (8) | mac (8) ]
//! ```
//!
//! The MAC is an HMAC-shaped two-pass construction over the in-tree
//! splitmix finalizer: `outer(key, inner(key, time, addr))`. It is not
//! cryptographically strong — nothing in this workspace is — but it has
//! the structural properties the flood experiments need: an attacker
//! without the key cannot mint, and flipping any token bit breaks the
//! MAC.

use xlink_clock::{Duration, Instant};

/// Retry token length on the wire.
pub const TOKEN_LEN: usize = 32;

/// Why a token failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenError {
    /// Wrong length or garbled fields.
    Malformed,
    /// MAC mismatch: forged, corrupted, or minted for another address.
    BadMac,
    /// Minted too long ago (or claims a future mint time).
    Expired,
}

pub(crate) use xlink_lab::rng::mix as splitmix;

fn mac(key: u64, time_us: u64, addr: u64, nonce: u64) -> u64 {
    // HMAC shape: inner pass absorbs the message under key⊕ipad, outer
    // pass closes over the inner digest under key⊕opad.
    const IPAD: u64 = 0x3636_3636_3636_3636;
    const OPAD: u64 = 0x5c5c_5c5c_5c5c_5c5c;
    let inner = splitmix(
        (key ^ IPAD)
            .wrapping_add(time_us.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(splitmix(addr))
            .wrapping_add(splitmix(nonce ^ 0xa5a5_a5a5_a5a5_a5a5)),
    );
    splitmix((key ^ OPAD).wrapping_add(inner))
}

/// Mint a token for `addr` at `now` under `key`. `nonce` is the minter's
/// monotone counter; it makes same-instant same-address tokens distinct.
pub fn mint(key: u64, addr: u64, nonce: u64, now: Instant) -> [u8; TOKEN_LEN] {
    let t = now.as_micros();
    let mut out = [0u8; TOKEN_LEN];
    out[..8].copy_from_slice(&t.to_be_bytes());
    out[8..16].copy_from_slice(&addr.to_be_bytes());
    out[16..24].copy_from_slice(&nonce.to_be_bytes());
    out[24..].copy_from_slice(&mac(key, t, addr, nonce).to_be_bytes());
    out
}

/// Verify a token presented from `addr` at `now`. The MAC is checked
/// before the lifetime so a forged "fresh" token is still [`BadMac`].
///
/// [`BadMac`]: TokenError::BadMac
pub fn verify(
    key: u64,
    addr: u64,
    now: Instant,
    lifetime: Duration,
    token: &[u8],
) -> Result<(), TokenError> {
    if token.len() != TOKEN_LEN {
        return Err(TokenError::Malformed);
    }
    let t = u64::from_be_bytes(token[..8].try_into().expect("8-byte slice"));
    let a = u64::from_be_bytes(token[8..16].try_into().expect("8-byte slice"));
    let n = u64::from_be_bytes(token[16..24].try_into().expect("8-byte slice"));
    let m = u64::from_be_bytes(token[24..].try_into().expect("8-byte slice"));
    if a != addr || mac(key, t, a, n) != m {
        return Err(TokenError::BadMac);
    }
    let minted = Instant::from_micros(t);
    if minted > now || now.saturating_duration_since(minted) > lifetime {
        return Err(TokenError::Expired);
    }
    Ok(())
}

/// An epoch-tagged Retry-token MAC key (ROADMAP key-rotation item).
///
/// Long-lived PoPs must rotate the token MAC key without stranding the
/// tokens already in flight: a client that just received a Retry is about
/// to spend a token minted seconds ago. `TokenKey` derives one MAC key
/// per epoch from a base secret; [`TokenKey::mint`] always uses the
/// current epoch, and [`TokenKey::verify`] accepts the current **and the
/// immediately previous** epoch — anything older is rejected with the
/// same [`TokenError::BadMac`] a forgery gets (an observer cannot tell
/// "old epoch" from "forged"). One rotation is therefore always safe
/// mid-flood; two rotations inside a token lifetime invalidate in-flight
/// tokens by design.
#[derive(Debug, Clone, Copy)]
pub struct TokenKey {
    base: u64,
    epoch: u64,
}

impl TokenKey {
    /// Start at epoch 0 over `base` (the configured PoP token key).
    pub fn new(base: u64) -> Self {
        TokenKey { base, epoch: 0 }
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance to the next epoch; returns the new epoch number.
    pub fn rotate(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Derive the MAC key for `epoch` (domain-separated from the base so
    /// epoch keys never collide with the raw base key's token stream).
    fn key_for(&self, epoch: u64) -> u64 {
        splitmix(self.base ^ splitmix(epoch ^ 0xe90c_4a7e_90c4_a7e9))
    }

    /// Mint a token under the current epoch key.
    pub fn mint(&self, addr: u64, nonce: u64, now: Instant) -> [u8; TOKEN_LEN] {
        mint(self.key_for(self.epoch), addr, nonce, now)
    }

    /// Verify against the current epoch, then the previous one. Errors
    /// other than [`TokenError::BadMac`] (malformed, expired) are final
    /// on the first pass — an expired current-epoch token is expired, not
    /// a candidate for the old key.
    pub fn verify(
        &self,
        addr: u64,
        now: Instant,
        lifetime: Duration,
        token: &[u8],
    ) -> Result<(), TokenError> {
        match verify(self.key_for(self.epoch), addr, now, lifetime, token) {
            Err(TokenError::BadMac) if self.epoch > 0 => {
                verify(self.key_for(self.epoch - 1), addr, now, lifetime, token)
            }
            r => r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: u64 = 0x5eed_cafe_f00d_1234;
    const LIFE: Duration = Duration::from_secs(2);

    #[test]
    fn fresh_token_verifies() {
        let now = Instant::from_millis(500);
        let tok = mint(KEY, 42, 0, now);
        assert_eq!(verify(KEY, 42, now + Duration::from_millis(100), LIFE, &tok), Ok(()));
    }

    #[test]
    fn wrong_address_rejected() {
        let now = Instant::from_millis(500);
        let tok = mint(KEY, 42, 0, now);
        assert_eq!(verify(KEY, 43, now, LIFE, &tok), Err(TokenError::BadMac));
    }

    #[test]
    fn wrong_key_rejected() {
        let now = Instant::from_millis(500);
        let tok = mint(KEY, 42, 0, now);
        assert_eq!(verify(KEY ^ 1, 42, now, LIFE, &tok), Err(TokenError::BadMac));
    }

    #[test]
    fn expired_token_rejected() {
        let now = Instant::from_millis(500);
        let tok = mint(KEY, 42, 0, now);
        let late = now + LIFE + Duration::from_micros(1);
        assert_eq!(verify(KEY, 42, late, LIFE, &tok), Err(TokenError::Expired));
        // Exactly at the lifetime boundary it still verifies.
        assert_eq!(verify(KEY, 42, now + LIFE, LIFE, &tok), Ok(()));
    }

    #[test]
    fn future_token_rejected() {
        let now = Instant::from_millis(500);
        let tok = mint(KEY, 42, 0, now);
        assert_eq!(
            verify(KEY, 42, now - Duration::from_millis(1), LIFE, &tok),
            Err(TokenError::Expired)
        );
    }

    #[test]
    fn any_bitflip_breaks_the_mac_or_binding() {
        let now = Instant::from_secs(1);
        let tok = mint(KEY, 7, 3, now);
        for byte in 0..TOKEN_LEN {
            for bit in 0..8 {
                let mut t = tok;
                t[byte] ^= 1 << bit;
                assert_ne!(verify(KEY, 7, now, LIFE, &t), Ok(()), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn wrong_length_is_malformed() {
        let now = Instant::from_secs(1);
        let tok = mint(KEY, 7, 0, now);
        assert_eq!(verify(KEY, 7, now, LIFE, &tok[..TOKEN_LEN - 1]), Err(TokenError::Malformed));
        assert_eq!(verify(KEY, 7, now, LIFE, &[]), Err(TokenError::Malformed));
    }

    #[test]
    fn rotation_keeps_previous_epoch_valid_and_rejects_older() {
        let now = Instant::from_millis(500);
        let mut k = TokenKey::new(KEY);
        let epoch0 = k.mint(42, 0, now);
        assert_eq!(k.verify(42, now, LIFE, &epoch0), Ok(()));
        // One rotation: the in-flight token still spends.
        k.rotate();
        assert_eq!(k.verify(42, now, LIFE, &epoch0), Ok(()));
        let epoch1 = k.mint(42, 1, now);
        assert_eq!(k.verify(42, now, LIFE, &epoch1), Ok(()));
        // Two rotations: the epoch-0 token is indistinguishable from a
        // forgery; the epoch-1 token is now "previous" and still good.
        k.rotate();
        assert_eq!(k.verify(42, now, LIFE, &epoch0), Err(TokenError::BadMac));
        assert_eq!(k.verify(42, now, LIFE, &epoch1), Ok(()));
    }

    #[test]
    fn epoch_keys_produce_disjoint_token_streams() {
        let now = Instant::from_millis(500);
        let mut k = TokenKey::new(KEY);
        let a = k.mint(42, 0, now);
        k.rotate();
        let b = k.mint(42, 0, now);
        assert_ne!(a, b, "same inputs under different epochs must differ");
        // Epoch keys are also distinct from the raw base key's stream.
        assert_ne!(a, mint(KEY, 42, 0, now));
    }

    #[test]
    fn expired_previous_epoch_token_stays_expired() {
        // An old-epoch token past its lifetime must be Expired, not
        // resurrected by the two-key check.
        let now = Instant::from_millis(500);
        let mut k = TokenKey::new(KEY);
        let tok = k.mint(42, 0, now);
        k.rotate();
        let late = now + LIFE + Duration::from_micros(1);
        assert_eq!(k.verify(42, late, LIFE, &tok), Err(TokenError::Expired));
    }

    #[test]
    fn same_instant_same_address_tokens_are_distinct() {
        // Two clients behind one NAT'd address asking in the same
        // microsecond must not receive byte-identical tokens, or the
        // replay ring would eat the second client's only spend.
        let now = Instant::from_millis(500);
        let a = mint(KEY, 42, 0, now);
        let b = mint(KEY, 42, 1, now);
        assert_ne!(a, b);
        assert_eq!(verify(KEY, 42, now, LIFE, &a), Ok(()));
        assert_eq!(verify(KEY, 42, now, LIFE, &b), Ok(()));
    }
}
