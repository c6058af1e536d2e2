//! Key derivation for the simplified handshake.
//!
//! The real XLINK deployment derives packet-protection keys from the TLS
//! 1.3 handshake. Our simplified handshake (see `crate::handshake`)
//! derives them with an HKDF-style extract/expand built on a ChaCha20-based
//! PRF: certificate logic is orthogonal to multipath transport behaviour,
//! while key separation per direction and the 1-RTT message flow are
//! preserved (documented substitution in DESIGN.md).

use super::aead::AeadKey;
use super::chacha;

/// Pseudo-random function: one ChaCha20 block keyed by `key`, with the
/// label and counter folded into the nonce.
fn prf(key: &[u8; 32], label: &[u8], counter: u8) -> [u8; 64] {
    let mut nonce = [0u8; 12];
    for (i, b) in label.iter().enumerate() {
        nonce[i % 12] ^= b.rotate_left((i / 12) as u32);
    }
    nonce[11] ^= counter;
    chacha::block(key, u32::from(counter), &nonce)
}

/// Extract a 32-byte pseudo-random key from input keying material.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    // Absorb salt and ikm into a key by iterated PRF chaining.
    let mut state = [0u8; 32];
    for (i, chunk) in salt.chunks(32).chain(ikm.chunks(32)).enumerate() {
        let mut key = state;
        for (k, b) in key.iter_mut().zip(chunk.iter()) {
            *k ^= b;
        }
        let block = prf(&key, b"xlink extract", i as u8);
        state.copy_from_slice(&block[..32]);
    }
    state
}

/// Expand a pseudo-random key into `N` bytes bound to `label`.
pub fn expand<const N: usize>(prk: &[u8; 32], label: &[u8]) -> [u8; N] {
    assert!(N <= 255 * 32, "expand output too large");
    let mut out = [0u8; N];
    // Counters 1..=255, one per 32 bytes: the assert leaves enough of them.
    for (chunk, counter) in out.chunks_mut(32).zip(1..=u8::MAX) {
        chunk.copy_from_slice(&prf(prk, label, counter)[..chunk.len()]);
    }
    out
}

/// Directional packet-protection keys derived from the handshake secret.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// Protects packets sent client → server.
    pub client: AeadKey,
    /// Protects packets sent server → client.
    pub server: AeadKey,
}

/// Derive both directions' keys from the pre-shared secret and the two
/// hello randoms (mirrors the TLS key schedule's role).
pub fn derive_keys(psk: &[u8], client_random: &[u8; 16], server_random: &[u8; 16]) -> KeyPair {
    let mut ikm = Vec::with_capacity(psk.len() + 32);
    ikm.extend_from_slice(client_random);
    ikm.extend_from_slice(server_random);
    let prk = extract(psk, &ikm);
    let ck: [u8; 32] = expand(&prk, b"client key");
    let civ: [u8; 12] = expand(&prk, b"client iv");
    let sk: [u8; 32] = expand(&prk, b"server key");
    let siv: [u8; 12] = expand(&prk, b"server iv");
    KeyPair { client: AeadKey::new(ck, civ), server: AeadKey::new(sk, siv) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let a = derive_keys(b"psk", &[1; 16], &[2; 16]);
        let b = derive_keys(b"psk", &[1; 16], &[2; 16]);
        let sealed_a = a.client.seal(0, 0, b"", b"x");
        let sealed_b = b.client.seal(0, 0, b"", b"x");
        assert_eq!(sealed_a, sealed_b);
    }

    #[test]
    fn directions_use_distinct_keys() {
        let kp = derive_keys(b"psk", &[1; 16], &[2; 16]);
        let sealed = kp.client.seal(0, 0, b"", b"hello");
        assert!(kp.server.open(0, 0, b"", &sealed).is_err());
        assert_eq!(kp.client.open(0, 0, b"", &sealed).unwrap(), b"hello");
    }

    #[test]
    fn randoms_change_keys() {
        let a = derive_keys(b"psk", &[1; 16], &[2; 16]);
        let b = derive_keys(b"psk", &[1; 16], &[3; 16]);
        let c = derive_keys(b"psk", &[9; 16], &[2; 16]);
        let msg = a.client.seal(0, 0, b"", b"m");
        assert!(b.client.open(0, 0, b"", &msg).is_err());
        assert!(c.client.open(0, 0, b"", &msg).is_err());
    }

    #[test]
    fn psk_changes_keys() {
        let a = derive_keys(b"psk-one", &[1; 16], &[2; 16]);
        let b = derive_keys(b"psk-two", &[1; 16], &[2; 16]);
        let msg = a.client.seal(0, 0, b"", b"m");
        assert!(b.client.open(0, 0, b"", &msg).is_err());
    }

    #[test]
    fn expand_labels_are_independent() {
        let prk = extract(b"salt", b"ikm");
        let a: [u8; 32] = expand(&prk, b"label-a");
        let b: [u8; 32] = expand(&prk, b"label-b");
        assert_ne!(a, b);
    }

    #[test]
    fn expand_lengths() {
        let prk = extract(b"s", b"i");
        let a: [u8; 12] = expand(&prk, b"l");
        let b: [u8; 64] = expand(&prk, b"l");
        // A shorter expansion is a prefix of a longer one with the same label.
        assert_eq!(&a[..], &b[..12]);
    }

    /// The longest expansion the assert allows uses counter 255 for its last
    /// 32 bytes and stops there: the counter is never stepped past 255.
    #[test]
    fn longest_expansion_ends_on_counter_255() {
        let prk = extract(b"s", b"i");
        let out: [u8; 255 * 32] = expand(&prk, b"l");
        assert_eq!(&out[..32], &prf(&prk, b"l", 1)[..32]);
        assert_eq!(&out[254 * 32..], &prf(&prk, b"l", 255)[..32]);
    }
}
