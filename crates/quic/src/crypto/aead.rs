//! AEAD_AES_256_GCM (RFC 9001 §5.3) with the multipath nonce construction
//! from the paper (§6, "Packet protection"):
//!
//! > the construction of the nonce starts with the construction of a 96 bit
//! > path-and-packet-number, composed of the 32 bit Connection ID Sequence
//! > Number in byte order, two zero bits, and the 62 bits of the
//! > reconstructed QUIC packet number in network byte order [...] The
//! > exclusive OR of the padded packet number and the IV forms the AEAD
//! > nonce.
//!
//! All paths share one key; nonce uniqueness across paths comes from the
//! CID sequence number occupying the top 32 bits.

use crate::error::TransportError;
use xlink_obs::prof;

/// Length of the authentication tag appended to every protected payload.
pub const TAG_LEN: usize = 16;

/// Packet protection keys for one direction: the 44 bytes of key and IV
/// alone. Each seal and open derives the AES round keys and the powers of H
/// again (tens of nanoseconds), which keeps a connection's four keys small.
#[derive(Clone)]
pub struct AeadKey {
    key: [u8; 32],
    iv: [u8; 12],
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AeadKey(..)") // never print key material
    }
}

impl AeadKey {
    /// Assemble from raw key material.
    pub fn new(key: [u8; 32], iv: [u8; 12]) -> Self {
        AeadKey { key, iv }
    }

    /// Build the multipath nonce: 32-bit CID sequence number, two zero
    /// bits, 62-bit packet number — XORed with the IV.
    pub fn nonce(&self, path_cid_seq: u32, packet_number: u64) -> [u8; 12] {
        debug_assert!(packet_number < (1 << 62), "packet number exceeds 62 bits");
        let mut n = [0u8; 12];
        n[..4].copy_from_slice(&path_cid_seq.to_be_bytes());
        n[4..].copy_from_slice(&packet_number.to_be_bytes());
        for (b, iv) in n.iter_mut().zip(self.iv.iter()) {
            *b ^= iv;
        }
        n
    }

    /// Encrypt `buf` in place and return the tag over `aad` (the packet
    /// header: authenticated, not encrypted) and the ciphertext.
    pub fn seal_in_place(
        &self,
        path_cid_seq: u32,
        packet_number: u64,
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        let _prof = prof::span!("quic/aead_seal");
        super::seal(&self.key, &self.nonce(path_cid_seq, packet_number), aad, buf)
    }

    /// Verify `sealed` (ciphertext ‖ tag) and decrypt it in place. Returns
    /// the plaintext, a prefix of `sealed`; on `CryptoError` nothing was
    /// decrypted and `sealed` is as it was received.
    pub fn open_in_place<'a>(
        &self,
        path_cid_seq: u32,
        packet_number: u64,
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8], TransportError> {
        let _prof = prof::span!("quic/aead_open");
        let cipher_len = sealed.len().checked_sub(TAG_LEN).ok_or(TransportError::CryptoError)?;
        let (cipher, tag) = sealed.split_at_mut(cipher_len);
        let tag: &[u8; TAG_LEN] = (&*tag).try_into().expect("split at TAG_LEN");
        let nonce = self.nonce(path_cid_seq, packet_number);
        if !super::open(&self.key, &nonce, aad, cipher, tag) {
            return Err(TransportError::CryptoError);
        }
        Ok(cipher)
    }

    /// Owned [`AeadKey::seal_in_place`]: returns ciphertext ‖ tag.
    pub fn seal(&self, path_cid_seq: u32, packet_number: u64, aad: &[u8], plain: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plain.len() + TAG_LEN);
        out.extend_from_slice(plain);
        let tag = self.seal_in_place(path_cid_seq, packet_number, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Owned [`AeadKey::open_in_place`]: returns the plaintext, or
    /// `CryptoError` if authentication fails.
    pub fn open(
        &self,
        path_cid_seq: u32,
        packet_number: u64,
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, TransportError> {
        let mut out = sealed.to_vec();
        let plain_len = self.open_in_place(path_cid_seq, packet_number, aad, &mut out)?.len();
        out.truncate(plain_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::portable;
    use xlink_lab::prop::*;

    fn key() -> AeadKey {
        AeadKey::new([9u8; 32], [4u8; 12])
    }

    /// `seal_in_place` / `open_in_place` against the portable reference
    /// under the multipath nonce, at every payload length up to a full
    /// datagram and aad lengths on both sides of a block, for an everyday
    /// nonce and the all-ones one. (The kernels themselves are compared at
    /// every length in `crypto::tests`.)
    #[test]
    fn in_place_matches_the_scalar_composition() {
        let raw = [9u8; 32];
        for (iv, path, pn) in [([4u8; 12], 2, 9), ([0xff; 12], 0, 0)] {
            let k = AeadKey::new(raw, iv);
            let nonce = k.nonce(path, pn);
            for aad_len in [0, 1, 13, 25] {
                let aad: Vec<u8> = (0..aad_len).map(|i| i as u8 ^ 0xa5).collect();
                for len in 0..=1500 {
                    let plain: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
                    let mut expect = plain.clone();
                    let tag = portable::seal(&raw, &nonce, &aad, &mut expect);
                    expect.extend_from_slice(&tag);
                    let mut buf = plain.clone();
                    let tag = k.seal_in_place(path, pn, &aad, &mut buf);
                    buf.extend_from_slice(&tag);
                    assert_eq!(buf, expect, "seal, len {len}, aad {aad_len}");
                    let opened = k.open_in_place(path, pn, &aad, &mut buf);
                    assert_eq!(opened.unwrap(), plain, "open, len {len}, aad {aad_len}");
                }
            }
        }
    }

    /// A flipped bit anywhere — aad, ciphertext or tag — is a `CryptoError`
    /// and the tag is checked before anything is decrypted: the buffer is
    /// still byte for byte what was received.
    #[test]
    fn failed_open_in_place_leaves_the_buffer_as_received() {
        let k = key();
        let aad = *b"header bytes";
        for len in [300, 1350] {
            let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = k.seal(2, 9, &aad, &plain);
            for bit in 0..8 * (aad.len() + sealed.len()) {
                let (mut aad, mut buf) = (aad, sealed.clone());
                match bit / 8 {
                    i if i < aad.len() => aad[i] ^= 1 << (bit % 8),
                    i => buf[i - aad.len()] ^= 1 << (bit % 8),
                }
                let received = buf.clone();
                let opened = k.open_in_place(2, 9, &aad, &mut buf);
                assert_eq!(opened, Err(TransportError::CryptoError));
                assert_eq!(buf, received, "len {len}, bit {bit}");
            }
        }
        let mut short = [0u8; TAG_LEN - 1];
        assert_eq!(k.open_in_place(2, 9, &aad, &mut short), Err(TransportError::CryptoError));
    }

    #[test]
    fn seal_open_roundtrip() {
        let k = key();
        let sealed = k.seal(0, 7, b"hdr", b"payload");
        assert_eq!(sealed.len(), 7 + TAG_LEN);
        let plain = k.open(0, 7, b"hdr", &sealed).unwrap();
        assert_eq!(plain, b"payload");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = key();
        let mut sealed = k.seal(1, 3, b"hdr", b"secret data");
        sealed[2] ^= 0x40;
        assert_eq!(k.open(1, 3, b"hdr", &sealed), Err(TransportError::CryptoError));
    }

    #[test]
    fn tampered_tag_rejected() {
        let k = key();
        let mut sealed = k.seal(1, 3, b"hdr", b"secret data");
        let n = sealed.len();
        sealed[n - 1] ^= 1;
        assert_eq!(k.open(1, 3, b"hdr", &sealed), Err(TransportError::CryptoError));
    }

    #[test]
    fn tampered_aad_rejected() {
        let k = key();
        let sealed = k.seal(1, 3, b"hdr", b"secret data");
        assert_eq!(k.open(1, 3, b"hdx", &sealed), Err(TransportError::CryptoError));
    }

    #[test]
    fn wrong_packet_number_rejected() {
        let k = key();
        let sealed = k.seal(0, 3, b"hdr", b"data");
        assert!(k.open(0, 4, b"hdr", &sealed).is_err());
    }

    #[test]
    fn wrong_path_rejected() {
        // Same packet number on a different path has a different nonce —
        // the §6 multipath nonce construction at work.
        let k = key();
        let sealed = k.seal(0, 3, b"hdr", b"data");
        assert!(k.open(1, 3, b"hdr", &sealed).is_err());
    }

    #[test]
    fn nonce_unique_across_paths_and_pns() {
        let k = key();
        let mut seen = std::collections::HashSet::new();
        for path in 0..4u32 {
            for pn in 0..64u64 {
                assert!(seen.insert(k.nonce(path, pn)), "nonce reuse at {path}/{pn}");
            }
        }
    }

    #[test]
    fn nonce_layout_matches_paper() {
        // IV of zero exposes the raw path-and-packet-number layout.
        let k = AeadKey::new([0u8; 32], [0u8; 12]);
        let n = k.nonce(0x0102_0304, 0x05);
        assert_eq!(&n[..4], &[1, 2, 3, 4]);
        assert_eq!(&n[4..], &[0, 0, 0, 0, 0, 0, 0, 5]);
    }

    #[test]
    fn truncated_input_rejected() {
        let k = key();
        assert!(k.open(0, 0, b"", &[0u8; 10]).is_err());
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let k = key();
        let sealed = k.seal(0, 0, b"header-only", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(k.open(0, 0, b"header-only", &sealed).unwrap(), b"");
    }

    #[test]
    fn prop_roundtrip() {
        check(
            "prop_roundtrip",
            (bytes(0..600), bytes(0..64), 0u64..(1 << 62), 0u32..=u32::MAX),
            |(plain, aad, pn, path)| {
                let k = key();
                let sealed = k.seal(*path, *pn, aad, plain);
                prop_assert_eq!(&k.open(*path, *pn, aad, &sealed).unwrap(), plain);
                Ok(())
            },
        );
    }

    #[test]
    fn prop_any_bitflip_rejected() {
        check(
            "prop_any_bitflip_rejected",
            (bytes(1..100), 0usize..200, 0u8..8),
            |(plain, idx, bit)| {
                let k = key();
                let mut sealed = k.seal(0, 1, b"aad", plain);
                let idx = idx % sealed.len();
                sealed[idx] ^= 1 << bit;
                prop_assert!(k.open(0, 1, b"aad", &sealed).is_err());
                Ok(())
            },
        );
    }
}
