//! Packet protection: from-scratch ChaCha20-Poly1305 AEAD with the
//! multipath nonce construction (paper §6), plus the key schedule for the
//! simplified handshake.

pub mod aead;
pub mod chacha;
pub mod kdf;
pub mod poly1305;

pub use aead::{AeadKey, TAG_LEN};
pub use kdf::{derive_keys, KeyPair};

/// Shared fixtures for the RFC 8439 known-answer tests.
#[cfg(test)]
pub(crate) mod rfc8439 {
    /// Decode a hex dump (whitespace and colons ignored).
    pub fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s
            .bytes()
            .filter(u8::is_ascii_hexdigit)
            .map(|b| (b as char).to_digit(16).unwrap() as u8)
            .collect();
        assert!(digits.len().is_multiple_of(2), "odd number of hex digits");
        digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
    }

    /// The plaintext of §2.4.2 and §2.8.2.
    pub const SUNSCREEN: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
}
