//! Packet protection: from-scratch ChaCha20-Poly1305 AEAD with the
//! multipath nonce construction (paper §6), plus the key schedule for the
//! simplified handshake.

pub mod aead;
pub mod chacha;
pub mod kdf;
pub mod poly1305;

pub use aead::{AeadKey, TAG_LEN};
pub use kdf::{derive_keys, KeyPair};

/// The AEAD kernels this host runs: `"avx512+ifma"` (the 16-block ChaCha20
/// and the 8-lane IFMA Poly1305), `"avx2"` (the 8-block ChaCha20 and the
/// scalar Poly1305) or `"scalar"` (both scalar, everywhere else). CPUID
/// alone decides; timings are comparable only under the same name.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        return "avx512+ifma";
    } else if has_avx2() {
        return "avx2";
    }
    "scalar"
}

/// The features both AVX-512 kernels need. A host with AVX-512F but without
/// IFMA runs the AVX2 pair.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512ifma")
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

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
