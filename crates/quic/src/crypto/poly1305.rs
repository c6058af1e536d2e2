//! Poly1305 one-time authenticator (RFC 8439 construction) as an
//! incremental state over three 44/44/42-bit limbs with 128-bit products
//! (the poly1305-donna 64-bit layout), absorbing two 16-byte blocks per step.

const M44: u64 = (1 << 44) - 1;
const M42: u64 = (1 << 42) - 1;

/// A Poly1305 computation in progress: the clamped `r` and its square, the
/// accumulator `h` (partially reduced mod 2^130 - 5 between blocks) and the
/// final addend `s`. The two ways a message can end — the AEAD's zero
/// padding and the bare MAC's `0x01` terminator — are
/// [`Poly1305::update_padded`] and [`tag`].
pub struct Poly1305 {
    r: [u64; 3],
    rr: [u64; 3],
    h: [u64; 3],
    s: [u64; 2],
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// The 16-byte block `m` as limbs, with bit 128 set to `hibit`.
fn limbs(m: &[u8], hibit: u64) -> [u64; 3] {
    let (t0, t1) = (le64(&m[0..8]), le64(&m[8..16]));
    [t0 & M44, ((t0 >> 44) | (t1 << 20)) & M44, ((t1 >> 24) & M42) | (hibit << 40)]
}

fn add(a: [u64; 3], b: [u64; 3]) -> [u64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// The three limb columns of `a · b` before carrying. 2^132 = 4·2^130 ≡ 20
/// (mod p): products that overflow limb 2 fold back multiplied by 20.
#[inline(always)]
fn columns(a: [u64; 3], b: [u64; 3]) -> [u128; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let (c1, c2) = (u128::from(b[1] * 20), u128::from(b[2] * 20));
    [a0 * b0 + a1 * c2 + a2 * c1, a0 * b1 + a1 * b0 + a2 * c2, a0 * b2 + a1 * b1 + a2 * b0]
}

/// One carry chain: the columns back to limbs below 2^44, 2^45 and 2^42 (the
/// middle one keeps a carry of less than 2^13 above 2^44).
#[inline(always)]
fn carry([d0, d1, d2]: [u128; 3]) -> [u64; 3] {
    let d1 = d1 + (d0 >> 44);
    let d2 = d2 + (d1 >> 44);
    let h0 = (d0 as u64 & M44) + (d2 >> 42) as u64 * 5;
    [h0 & M44, (d1 as u64 & M44) + (h0 >> 44), d2 as u64 & M42]
}

impl Poly1305 {
    /// Start a MAC under the 32-byte one-time key `r ‖ s`.
    pub fn new(key: &[u8; 32]) -> Self {
        let (t0, t1) = (le64(&key[0..8]), le64(&key[8..16]));
        // The masks are the limb split and the RFC's clamp in one.
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        let rr = carry(columns(r, r));
        Poly1305 { r, rr, h: [0; 3], s: [le64(&key[16..24]), le64(&key[24..32])] }
    }

    /// Absorb `data`, a whole number of 16-byte blocks, each with bit
    /// 128 set to `hibit` (1 for message blocks; 0 for a final short block
    /// that carries its own terminator byte).
    fn blocks(&mut self, data: &[u8], hibit: u64) {
        debug_assert!(data.len().is_multiple_of(16));
        let (r, rr) = (self.r, self.rr);
        let mut h = self.h;
        let mut pairs = data.chunks_exact(32);
        for m in &mut pairs {
            // h ← (h + m₁)·r² + m₂·r, one carry chain for both blocks.
            //
            // The u128 bound: between steps h is below 2^44, 2^45, 2^42 by
            // limb, so h + m₁ is below 2^46, 2^46, 2^43; r² went through the
            // same carry chain (below 2^44, 2^45, 2^42, folded limbs 20·r²₁ <
            // 2^50 and 20·r²₂ < 2^47); m₂ is below 2^44, 2^44, 2^41 and the
            // clamped r below 2^44, 2^44, 2^36. Each of the six products in a
            // column is then below 2^93, a column below 6·2^93 < 2^96, and the
            // carries into it add less than 2^53.
            let x = columns(add(h, limbs(&m[..16], hibit)), rr);
            let y = columns(limbs(&m[16..], hibit), r);
            h = carry([x[0] + y[0], x[1] + y[1], x[2] + y[2]]);
        }
        for m in pairs.remainder().chunks_exact(16) {
            h = carry(columns(add(h, limbs(m, hibit)), r));
        }
        self.h = h;
    }

    /// Absorb `data`, whose last block may be short: `terminated` ends it
    /// with the bare MAC's `0x01` byte in place of bit 128, otherwise it is
    /// zero-padded to a full block.
    fn absorb(&mut self, data: &[u8], terminated: bool) {
        let (whole, rest) = data.split_at(data.len() & !15);
        self.blocks(whole, 1);
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            last[..rest.len()].copy_from_slice(rest);
            last[rest.len()] = u8::from(terminated);
            self.blocks(&last, u64::from(!terminated));
        }
    }

    /// Absorb `data` zero-padded to a 16-byte boundary — `data ‖ pad16` in
    /// the AEAD construction of RFC 8439 §2.8.
    pub fn update_padded(&mut self, data: &[u8]) {
        self.absorb(data, false);
    }

    /// Reduce fully, add `s` and serialize the tag.
    pub fn finish(self) -> [u8; 16] {
        let [mut h0, mut h1, mut h2] = self.h;
        // Full carry propagation.
        h2 += h1 >> 44;
        h1 &= M44;
        h0 += (h2 >> 42) * 5;
        h2 &= M42;
        h1 += h0 >> 44;
        h0 &= M44;
        h2 += h1 >> 44;
        h1 &= M44;
        h0 += (h2 >> 42) * 5;
        h2 &= M42;
        h1 += h0 >> 44;
        h0 &= M44;
        // g = h - p = h + 5 - 2^130; keep it iff that did not underflow.
        let mut g0 = h0 + 5;
        let mut g1 = h1 + (g0 >> 44);
        g0 &= M44;
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        g1 &= M44;
        let keep_g = (g2 >> 63).wrapping_sub(1); // all-ones if h >= p
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);
        // (h mod 2^128) + s mod 2^128.
        let h = u128::from(h0) | u128::from(h1) << 44 | u128::from(h2) << 88;
        let s = u128::from(self.s[0]) | u128::from(self.s[1]) << 64;
        h.wrapping_add(s).to_le_bytes()
    }
}

/// Compute the 16-byte Poly1305 tag of `msg` under the 32-byte one-time key.
pub fn tag(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut p = Poly1305::new(key);
    p.absorb(msg, true);
    p.finish()
}

/// Constant-time equality of two tags.
pub fn tags_equal(a: &[u8; 16], b: &[u8; 16]) -> bool {
    a.iter().zip(b).fold(0u8, |diff, (x, y)| diff | (x ^ y)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::rfc8439::hex;
    use xlink_lab::prop::*;

    const KEY: [u8; 32] = [0x42; 32];

    /// The previous implementation (five 26-bit limbs, 25 multiplies per
    /// block), kept as the reference the limb rewrite is checked against.
    fn tag_ref26(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
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
        let hh1 = ((h2 >> 12) | (h3 << 14)) as u32 as u64
            | (((h3 >> 18) | (h4 << 8)) as u32 as u64) << 32;
        let acc = (hh0 as u128) | ((hh1 as u128) << 64);

        // Add s (the second key half) mod 2^128.
        let s = u128::from_le_bytes(key[16..32].try_into().unwrap());
        let out = acc.wrapping_add(s);
        out.to_le_bytes()
    }

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

    const IETF: &[u8] = b"Any submission to the IETF intended by the Contributor for publication \
as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an \
IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in \
IETF sessions, as well as written and electronic communications made at any time or place, which \
are addressed to";

    const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the \
wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

    /// RFC 8439 Appendix A.3, vectors #1–#11 as (r, s, message, tag).
    /// #5–#11 are built to hit what a limb implementation gets wrong: the
    /// 2^130 - 5 wrap, `h >= p` at the end, and carries out of the top limb.
    #[test]
    fn rfc8439_appendix_a3_vectors() {
        let zero = "00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00";
        let ones = "ff ff ff ff ff ff ff ff ff ff ff ff ff ff ff ff";
        let one = "01 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00";
        let two = "02 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00";
        let r10 = "01 00 00 00 00 00 00 00 04 00 00 00 00 00 00 00";
        let m11 = "e3 35 94 d7 50 5e 43 b9 00 00 00 00 00 00 00 00
                   33 94 d7 50 5e 43 79 cd 01 00 00 00 00 00 00 00
                   00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00";
        let vectors: [(&str, &str, Vec<u8>, &str); 11] = [
            (zero, zero, vec![0; 64], zero),
            (
                zero,
                "36 e5 f6 b5 c5 e0 60 70 f0 ef ca 96 22 7a 86 3e",
                IETF.to_vec(),
                "36 e5 f6 b5 c5 e0 60 70 f0 ef ca 96 22 7a 86 3e",
            ),
            (
                "36 e5 f6 b5 c5 e0 60 70 f0 ef ca 96 22 7a 86 3e",
                zero,
                IETF.to_vec(),
                "f3 47 7e 7c d9 54 17 af 89 a6 b8 79 4c 31 0c f0",
            ),
            (
                "1c 92 40 a5 eb 55 d3 8a f3 33 88 86 04 f6 b5 f0",
                "47 39 17 c1 40 2b 80 09 9d ca 5c bc 20 70 75 c0",
                JABBERWOCKY.to_vec(),
                "45 41 66 9a 7e aa ee 61 e7 08 dc 7c bc c5 eb 62",
            ),
            (two, zero, hex(ones), "03 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00"),
            (two, ones, hex(two), "03 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00"),
            (
                one,
                zero,
                hex(&format!(
                    "{ones} f0 ff ff ff ff ff ff ff ff ff ff ff ff ff ff ff
                              11 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00"
                )),
                "05 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00",
            ),
            (
                one,
                zero,
                hex(&format!(
                    "{ones} fb fe fe fe fe fe fe fe fe fe fe fe fe fe fe fe
                              01 01 01 01 01 01 01 01 01 01 01 01 01 01 01 01"
                )),
                zero,
            ),
            (
                two,
                zero,
                hex("fd ff ff ff ff ff ff ff ff ff ff ff ff ff ff ff"),
                "fa ff ff ff ff ff ff ff ff ff ff ff ff ff ff ff",
            ),
            (
                r10,
                zero,
                hex(&format!("{m11} {one}")),
                "14 00 00 00 00 00 00 00 55 00 00 00 00 00 00 00",
            ),
            (r10, zero, hex(m11), "13 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00"),
        ];
        for (i, (r, s, msg, expect)) in vectors.iter().enumerate() {
            let key: [u8; 32] = [hex(r), hex(s)].concat().try_into().unwrap();
            assert_eq!(tag(&key, msg).to_vec(), hex(expect), "vector #{}", i + 1);
            assert_eq!(tag_ref26(&key, msg).to_vec(), hex(expect), "reference, vector #{}", i + 1);
        }
    }

    /// The 3-limb, two-blocks-per-step implementation against the 5-limb,
    /// one-block one it replaced, up to full-size datagrams.
    #[test]
    fn prop_matches_26_bit_reference() {
        check(
            "prop_matches_26_bit_reference",
            (any_array::<32>(), bytes(0..1500)),
            |(key, msg)| {
                prop_assert_eq!(tag(key, msg), tag_ref26(key, msg));
                Ok(())
            },
        );
    }

    /// All-ones keys and messages keep every limb and carry at its maximum,
    /// through up to 46 pair steps.
    #[test]
    fn saturated_inputs_match_26_bit_reference() {
        for len in 0..=1500 {
            let msg = vec![0xff; len];
            for key in [[0xff; 32], KEY] {
                assert_eq!(tag(&key, &msg), tag_ref26(&key, &msg), "len {len}");
            }
        }
    }

    /// Feeding `aad ‖ pad16 ‖ cipher ‖ pad16 ‖ lengths` piecewise is the
    /// same MAC as hashing that concatenation in one go.
    #[test]
    fn streaming_padded_matches_one_shot() {
        check("streaming_padded_matches_one_shot", (bytes(0..40), bytes(0..100)), |(aad, ct)| {
            let mut whole = aad.clone();
            whole.resize(whole.len().next_multiple_of(16), 0);
            whole.extend_from_slice(ct);
            whole.resize(whole.len().next_multiple_of(16), 0);
            let mut p = Poly1305::new(&KEY);
            p.update_padded(aad);
            p.update_padded(ct);
            prop_assert_eq!(p.finish(), tag(&KEY, &whole));
            Ok(())
        });
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
    fn tags_equal_accepts_and_rejects() {
        let t = tag(&KEY, b"payload");
        assert!(tags_equal(&tag(&KEY, b"payload"), &t));
        let mut bad = t;
        bad[15] ^= 0x80;
        assert!(!tags_equal(&bad, &t));
        assert!(!tags_equal(&tag(&KEY, b"payloae"), &t));
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
    fn prop_bitflip_breaks_tag() {
        check(
            "prop_bitflip_breaks_tag",
            (bytes(1..128), 0usize..128, 0u8..8),
            |(msg, idx, bit)| {
                let idx = idx % msg.len();
                let t = tag(&KEY, msg);
                let mut tampered = msg.clone();
                tampered[idx] ^= 1 << bit;
                prop_assert!(!tags_equal(&tag(&KEY, &tampered), &t));
                Ok(())
            },
        );
    }
}
