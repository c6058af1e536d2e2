//! ChaCha20-Poly1305 AEAD (RFC 8439 construction) with the multipath
//! nonce construction from the paper (§6, "Packet protection"):
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

use super::chacha;
use super::poly1305::{self, Poly1305};
use crate::error::TransportError;
use xlink_obs::prof;

/// Length of the authentication tag appended to every protected payload.
pub const TAG_LEN: usize = 16;

/// Packet protection keys for one direction.
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
        let nonce = self.nonce(path_cid_seq, packet_number);
        let head = Head::new(&self.key, &nonce, buf.len());
        head.xor_payload(&self.key, &nonce, buf);
        mac(head.mac_key(), aad, buf)
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
        let nonce = self.nonce(path_cid_seq, packet_number);
        let expect: &[u8; TAG_LEN] = (&*tag).try_into().expect("split at TAG_LEN");
        // The head's keystream waits here until the tag has matched.
        let head = Head::new(&self.key, &nonce, cipher.len());
        if !poly1305::tags_equal(&mac(head.mac_key(), aad, cipher), expect) {
            return Err(TransportError::CryptoError);
        }
        head.xor_payload(&self.key, &nonce, cipher);
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

/// The keystream a seal or open computes before the tag: ChaCha20 block 0,
/// whose first 32 bytes are the Poly1305 key. A payload that fills the rest
/// of the first vector batch gets blocks 0..8 from one batch, and blocks
/// 1..8 encrypt its first [`BATCH_PAYLOAD`] bytes; a shorter one (an ACK)
/// keeps the scalar block 0 rather than pay for a mostly unused batch.
// Lives on the stack for one call; the sizes differ on purpose.
#[allow(clippy::large_enum_variant)]
enum Head {
    Block([u8; 64]),
    Batch([u8; chacha::BATCH]),
}

/// The payload bytes the first batch covers after block 0.
const BATCH_PAYLOAD: usize = chacha::BATCH - 64;

impl Head {
    fn new(key: &[u8; 32], nonce: &[u8; 12], payload_len: usize) -> Head {
        if payload_len < BATCH_PAYLOAD {
            return Head::Block(chacha::block(key, 0, nonce));
        }
        let mut batch = [0u8; chacha::BATCH];
        chacha::xor_keystream(key, 0, nonce, &mut batch);
        Head::Batch(batch)
    }

    fn mac_key(&self) -> &[u8; 32] {
        match self {
            Head::Block(block) => block.first_chunk(),
            Head::Batch(batch) => batch.first_chunk(),
        }
        .expect("at least 32 bytes")
    }

    /// XOR the payload's keystream, block 1 onwards, into `payload`.
    fn xor_payload(&self, key: &[u8; 32], nonce: &[u8; 12], payload: &mut [u8]) {
        match self {
            Head::Block(_) => chacha::xor_keystream(key, 1, nonce, payload),
            Head::Batch(batch) => {
                let (first, rest) = payload.split_at_mut(BATCH_PAYLOAD);
                first.iter_mut().zip(&batch[64..]).for_each(|(b, k)| *b ^= k);
                chacha::xor_keystream(key, (chacha::BATCH / 64) as u32, nonce, rest);
            }
        }
    }
}

/// RFC 8439 §2.8 tag: Poly1305 under `key` (the first 32 bytes of ChaCha20
/// block 0) over aad ‖ pad16 ‖ cipher ‖ pad16 ‖ len(aad) ‖ len(cipher).
fn mac(key: &[u8; 32], aad: &[u8], cipher: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update_padded(aad);
    mac.update_padded(cipher);
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(cipher.len() as u64).to_le_bytes());
    mac.update_padded(&lens);
    mac.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::rfc8439::{hex, SUNSCREEN};
    use xlink_lab::prop::*;

    fn key() -> AeadKey {
        AeadKey::new([9u8; 32], [4u8; 12])
    }

    /// RFC 8439 §2.8.2. The vector's nonce (`07 00 00 00` ‖ IV) is what the
    /// multipath construction yields for path 0, packet 0 under that IV.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
        let iv: [u8; 12] = hex("07 00 00 00 40 41 42 43 44 45 46 47").try_into().unwrap();
        let aad = hex("50 51 52 53 c0 c1 c2 c3 c4 c5 c6 c7");
        let mut expect = hex("d3 1a 8d 34 64 8e 60 db 7b 86 af bc 53 ef 7e c2
             a4 ad ed 51 29 6e 08 fe a9 e2 b5 a7 36 ee 62 d6
             3d be a4 5e 8c a9 67 12 82 fa fb 69 da 92 72 8b
             1a 71 de 0a 9e 06 0b 29 05 d6 a5 b6 7e cd 3b 36
             92 dd bd 7f 2d 77 8b 8c 98 03 ae e3 28 09 1b 58
             fa b3 24 e4 fa d6 75 94 55 85 80 8b 48 31 d7 bc
             3f f4 de f0 8e 4b 7a 9d e5 76 d2 65 86 ce c6 4b
             61 16");
        expect.extend(hex("1a e1 0b 59 4f 09 e2 6a 7e 90 2e cb d0 60 06 91"));
        let k = AeadKey::new(key, iv);
        assert_eq!(k.seal(0, 0, &aad, SUNSCREEN), expect);
        assert_eq!(k.open(0, 0, &aad, &expect).unwrap(), SUNSCREEN);
        // The same vector through the caller-buffer API the engines use.
        let mut buf = SUNSCREEN.to_vec();
        let tag = k.seal_in_place(0, 0, &aad, &mut buf);
        buf.extend_from_slice(&tag);
        assert_eq!(buf, expect);
        assert_eq!(k.open_in_place(0, 0, &aad, &mut buf).unwrap(), SUNSCREEN);
    }

    /// The construction composed from its scalar parts, as RFC 8439 §2.8
    /// writes it: block 0 for the Poly1305 key, the scalar keystream from
    /// block 1, and the scalar one-shot tag over aad ‖ pad16 ‖ cipher ‖
    /// pad16 ‖ len(aad) ‖ len(cipher) — no vector kernel on any host.
    /// Returns ciphertext ‖ tag.
    fn seal_scalar(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plain: &[u8]) -> Vec<u8> {
        let block0 = chacha::block(key, 0, nonce);
        let mut cipher = plain.to_vec();
        chacha::xor_keystream_scalar(key, 1, nonce, &mut cipher);
        let mut msg = aad.to_vec();
        msg.resize(aad.len().next_multiple_of(16), 0);
        msg.extend_from_slice(&cipher);
        msg.resize(msg.len().next_multiple_of(16), 0);
        msg.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        msg.extend_from_slice(&(cipher.len() as u64).to_le_bytes());
        let tag = poly1305::tag_scalar(block0.first_chunk().unwrap(), &msg);
        cipher.extend_from_slice(&tag);
        cipher
    }

    /// `seal_in_place` / `open_in_place` against [`seal_scalar`] at every
    /// payload length up to a full datagram — the scalar head below 448
    /// bytes, the batch head from there, with and without a partly used
    /// last batch and a scalar last block — under aad lengths on both sides
    /// of the 16-byte padding, for an everyday nonce and the all-ones one.
    /// (The AEAD's block counter starts at 0 and a datagram ends before
    /// block 24, so counter lanes wrapping inside a batch is the case of
    /// the `chacha` tests, which also call each kernel directly.)
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
                    let expect = seal_scalar(&raw, &nonce, &aad, &plain);
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
    /// still byte for byte what was received. At 1 350 bytes the forgery is
    /// rejected after the first batch's keystream exists.
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
