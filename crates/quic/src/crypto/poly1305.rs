//! Poly1305 one-time authenticator (RFC 8439 construction), implemented
//! with 64-bit limbs and 128-bit intermediate products.

/// Compute the 16-byte Poly1305 tag of `msg` under the 32-byte one-time key.
pub fn tag(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    // r with required bits cleared ("clamped"), split into 26-bit limbs.
    let mut rb = [0u8; 16];
    rb.copy_from_slice(&key[..16]);
    rb[3] &= 0x0f;
    rb[7] &= 0x0f;
    rb[11] &= 0x0f;
    rb[15] &= 0x0f;
    rb[4] &= 0xfc;
    rb[8] &= 0xfc;
    rb[12] &= 0xfc;

    let t0 = u32::from_le_bytes(rb[0..4].try_into().unwrap()) as u64;
    let t1 = u32::from_le_bytes(rb[4..8].try_into().unwrap()) as u64;
    let t2 = u32::from_le_bytes(rb[8..12].try_into().unwrap()) as u64;
    let t3 = u32::from_le_bytes(rb[12..16].try_into().unwrap()) as u64;

    let r0 = t0 & 0x3ff_ffff;
    let r1 = ((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff;
    let r2 = ((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff;
    let r3 = ((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff;
    let r4 = t3 >> 8;

    let s1 = r1 * 5;
    let s2 = r2 * 5;
    let s3 = r3 * 5;
    let s4 = r4 * 5;

    let mut h0: u64 = 0;
    let mut h1: u64 = 0;
    let mut h2: u64 = 0;
    let mut h3: u64 = 0;
    let mut h4: u64 = 0;

    let mut chunks = msg.chunks_exact(16);
    let process = |block: &[u8; 16], hibit: u64, h: &mut [u64; 5]| {
        let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap()) as u64;
        let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap()) as u64;
        let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap()) as u64;
        let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap()) as u64;

        h[0] += t0 & 0x3ff_ffff;
        h[1] += ((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff;
        h[2] += ((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff;
        h[3] += ((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff;
        h[4] += (t3 >> 8) | (hibit << 24);

        let d0 = (h[0] as u128) * (r0 as u128)
            + (h[1] as u128) * (s4 as u128)
            + (h[2] as u128) * (s3 as u128)
            + (h[3] as u128) * (s2 as u128)
            + (h[4] as u128) * (s1 as u128);
        let mut d1 = (h[0] as u128) * (r1 as u128)
            + (h[1] as u128) * (r0 as u128)
            + (h[2] as u128) * (s4 as u128)
            + (h[3] as u128) * (s3 as u128)
            + (h[4] as u128) * (s2 as u128);
        let mut d2 = (h[0] as u128) * (r2 as u128)
            + (h[1] as u128) * (r1 as u128)
            + (h[2] as u128) * (r0 as u128)
            + (h[3] as u128) * (s4 as u128)
            + (h[4] as u128) * (s3 as u128);
        let mut d3 = (h[0] as u128) * (r3 as u128)
            + (h[1] as u128) * (r2 as u128)
            + (h[2] as u128) * (r1 as u128)
            + (h[3] as u128) * (r0 as u128)
            + (h[4] as u128) * (s4 as u128);
        let mut d4 = (h[0] as u128) * (r4 as u128)
            + (h[1] as u128) * (r3 as u128)
            + (h[2] as u128) * (r2 as u128)
            + (h[3] as u128) * (r1 as u128)
            + (h[4] as u128) * (r0 as u128);

        let mut c = (d0 >> 26) as u64;
        h[0] = (d0 as u64) & 0x3ff_ffff;
        d1 += c as u128;
        c = (d1 >> 26) as u64;
        h[1] = (d1 as u64) & 0x3ff_ffff;
        d2 += c as u128;
        c = (d2 >> 26) as u64;
        h[2] = (d2 as u64) & 0x3ff_ffff;
        d3 += c as u128;
        c = (d3 >> 26) as u64;
        h[3] = (d3 as u64) & 0x3ff_ffff;
        d4 += c as u128;
        c = (d4 >> 26) as u64;
        h[4] = (d4 as u64) & 0x3ff_ffff;
        h[0] += c * 5;
        let c2 = h[0] >> 26;
        h[0] &= 0x3ff_ffff;
        h[1] += c2;
    };

    let mut h = [h0, h1, h2, h3, h4];
    for chunk in chunks.by_ref() {
        let block: &[u8; 16] = chunk.try_into().unwrap();
        process(block, 1, &mut h);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut block = [0u8; 16];
        block[..rem.len()].copy_from_slice(rem);
        block[rem.len()] = 1; // pad bit
        process(&block, 0, &mut h);
    }
    [h0, h1, h2, h3, h4] = h;

    // Full carry propagation.
    let mut c = h1 >> 26;
    h1 &= 0x3ff_ffff;
    h2 += c;
    c = h2 >> 26;
    h2 &= 0x3ff_ffff;
    h3 += c;
    c = h3 >> 26;
    h3 &= 0x3ff_ffff;
    h4 += c;
    c = h4 >> 26;
    h4 &= 0x3ff_ffff;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= 0x3ff_ffff;
    h1 += c;

    // Compute h + -p and select.
    let mut g0 = h0.wrapping_add(5);
    c = g0 >> 26;
    g0 &= 0x3ff_ffff;
    let mut g1 = h1.wrapping_add(c);
    c = g1 >> 26;
    g1 &= 0x3ff_ffff;
    let mut g2 = h2.wrapping_add(c);
    c = g2 >> 26;
    g2 &= 0x3ff_ffff;
    let mut g3 = h3.wrapping_add(c);
    c = g3 >> 26;
    g3 &= 0x3ff_ffff;
    let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

    // If g4 didn't underflow, h >= p, use g; else keep h.
    let mask = (g4 >> 63).wrapping_sub(1); // all-ones if h >= p
    h0 = (h0 & !mask) | (g0 & mask);
    h1 = (h1 & !mask) | (g1 & mask);
    h2 = (h2 & !mask) | (g2 & mask);
    h3 = (h3 & !mask) | (g3 & mask);
    h4 = (h4 & !mask) | (g4 & 0x3ff_ffff & mask);

    // Serialize h back to 128 bits.
    let hh0 = (h0 | (h1 << 26)) as u32 as u64 | (((h1 >> 6) | (h2 << 20)) as u32 as u64) << 32;
    let hh1 =
        ((h2 >> 12) | (h3 << 14)) as u32 as u64 | (((h3 >> 18) | (h4 << 8)) as u32 as u64) << 32;
    let acc = (hh0 as u128) | ((hh1 as u128) << 64);

    // Add s (the second key half) mod 2^128.
    let s = u128::from_le_bytes(key[16..32].try_into().unwrap());
    let out = acc.wrapping_add(s);
    out.to_le_bytes()
}

/// Constant-time tag comparison.
pub fn verify(key: &[u8; 32], msg: &[u8], expect: &[u8; 16]) -> bool {
    let got = tag(key, msg);
    let mut diff = 0u8;
    for (a, b) in got.iter().zip(expect.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::rfc8439::hex;
    use xlink_lab::prop::*;

    const KEY: [u8; 32] = [0x42; 32];

    /// RFC 8439 §2.5.2.
    #[test]
    fn rfc8439_poly1305_vector() {
        let key: [u8; 32] = hex("85 d6 be 78 57 55 6d 33 7f 44 52 fe 42 d5 06 a8
             01 03 80 8a fb 0d b2 fd 4a bf f6 af 41 49 f5 1b")
        .try_into()
        .unwrap();
        let expect = hex("a8 06 1d c1 30 51 36 c6 c2 2b 8b af 0c 01 27 a9");
        assert_eq!(tag(&key, b"Cryptographic Forum Research Group").to_vec(), expect);
    }

    #[test]
    fn tag_is_deterministic() {
        assert_eq!(tag(&KEY, b"hello"), tag(&KEY, b"hello"));
    }

    #[test]
    fn distinct_messages_distinct_tags() {
        assert_ne!(tag(&KEY, b"hello"), tag(&KEY, b"hellp"));
        assert_ne!(tag(&KEY, b""), tag(&KEY, b"\0"));
        assert_ne!(tag(&KEY, b"aa"), tag(&KEY, b"aaa"));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let mut k2 = KEY;
        k2[0] ^= 1;
        assert_ne!(tag(&KEY, b"msg"), tag(&k2, b"msg"));
        // Flip in the s-half as well.
        let mut k3 = KEY;
        k3[20] ^= 1;
        assert_ne!(tag(&KEY, b"msg"), tag(&k3, b"msg"));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let t = tag(&KEY, b"payload");
        assert!(verify(&KEY, b"payload", &t));
        let mut bad = t;
        bad[15] ^= 0x80;
        assert!(!verify(&KEY, b"payload", &bad));
        assert!(!verify(&KEY, b"payloae", &t));
    }

    #[test]
    fn block_boundary_lengths() {
        // Tags must be well-defined and distinct around the 16-byte block size.
        let msgs: Vec<Vec<u8>> = (0..64).map(|n| vec![0x5a; n]).collect();
        let tags: Vec<_> = msgs.iter().map(|m| tag(&KEY, m)).collect();
        for i in 0..tags.len() {
            for j in (i + 1)..tags.len() {
                assert_ne!(tags[i], tags[j], "lengths {i} and {j} collide");
            }
        }
    }

    #[test]
    fn clamping_makes_some_key_bits_irrelevant() {
        // Bits cleared by clamping (top 4 bits of r bytes 3) must not
        // change the tag.
        let mut k2 = KEY;
        k2[3] |= 0xf0;
        assert_eq!(tag(&KEY, b"abc"), tag(&k2, b"abc"));
    }

    #[test]
    fn prop_verify_own_tag() {
        check("prop_verify_own_tag", (any_array::<32>(), bytes(0..256)), |(key, msg)| {
            let t = tag(key, msg);
            prop_assert!(verify(key, msg, &t));
            Ok(())
        });
    }

    #[test]
    fn prop_bitflip_breaks_tag() {
        check(
            "prop_bitflip_breaks_tag",
            (bytes(1..128), 0usize..128, 0u8..8),
            |(msg, idx, bit)| {
                let idx = idx % msg.len();
                let t = tag(&KEY, msg);
                let mut tampered = msg.clone();
                tampered[idx] ^= 1 << bit;
                prop_assert!(!verify(&KEY, &tampered, &t));
                Ok(())
            },
        );
    }
}
