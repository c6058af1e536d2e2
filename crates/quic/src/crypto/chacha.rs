//! ChaCha20 stream cipher (RFC 8439 construction), implemented from
//! scratch for packet protection in the simulation stack.
//!
//! 256-bit key, 96-bit nonce, 32-bit block counter. The 96-bit nonce is
//! where the multipath extension's path-aware nonce construction (paper §6)
//! plugs in — see [`crate::crypto::aead`].
//!
//! One keystream, three kernels: the scalar block function everywhere, an
//! 8-block AVX2 one, and a 16-block AVX-512 one that hands its last 512
//! bytes to the 8-block body compiled again under AVX-512VL. The vector
//! kernels are chosen at run time where the host has them
//! ([`crate::crypto::kernel`] names the one in use).

/// ChaCha20 block function state: 16 32-bit words.
type State = [u32; 16];

/// Keystream bytes per step of the 8-block kernel.
pub const BATCH: usize = 8 * 64;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(s: &mut State, a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

fn init_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> State {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        s[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    s[12] = counter;
    for i in 0..3 {
        s[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
    }
    s
}

/// Produce one 64-byte keystream block.
pub fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let initial = init_state(key, counter, nonce);
    let mut s = initial;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = s[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `counter`. Encryption and decryption are the same operation.
pub fn xor_keystream(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    let (counter, data) = if super::has_avx512() {
        // SAFETY: the one requirement of `avx512::xor_batches` is the
        // AVX-512F and AVX-512VL target features, and the host has them:
        // detected just above.
        unsafe { avx512::xor_batches(&init_state(key, counter, nonce), data) }
    } else if super::has_avx2() {
        // SAFETY: the one requirement of `avx2::xor_batches` is the AVX2
        // target feature, and the host has it: detected just above.
        unsafe { avx2::xor_batches(&init_state(key, counter, nonce), data) }
    } else {
        (counter, data)
    };
    xor_keystream_scalar(key, counter, nonce, data);
}

/// [`xor_keystream`] one scalar block at a time: the whole path without
/// AVX2, the last block with it, and the oracle the vector kernels are
/// tested against.
pub(super) fn xor_keystream_scalar(
    key: &[u8; 32],
    mut counter: u32,
    nonce: &[u8; 12],
    data: &mut [u8],
) {
    for chunk in data.chunks_mut(64) {
        let ks = block(key, counter, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// The 8-block kernel, written once and compiled under each target feature
/// set it is instantiated with: eight ChaCha20 blocks at once in 8-lane
/// form. Vector `i` holds state word `i` of blocks `counter..counter+8`, one
/// block per 32-bit lane, so a quarter round is the scalar one with every
/// operation done on eight blocks. The 16- and 8-bit rotates are byte
/// shuffles (`vpshufb`), the 12- and 7-bit ones shift-shift-or, which LLVM
/// makes one `vprold` where AVX-512VL is enabled.
#[cfg(target_arch = "x86_64")]
macro_rules! eight_block_kernel {
    ($features:tt) => {
        use crate::crypto::chacha::{State, BATCH};
        use std::arch::x86_64::*;

        /// XOR the keystream of `state` (word 12 the first block's counter)
        /// into `data` eight blocks per step while more than one block is left
        /// — a packet's last 1..=64 bytes (and a whole 40-byte ACK) cost one
        /// scalar block, not a mostly unused batch; a last batch that is only
        /// partly used goes through a copy on the stack. Returns the block
        /// counter and the bytes still to do. Outside code with these target
        /// features the compiler makes the call `unsafe`: the caller must
        /// have detected them.
        #[target_feature(enable = $features)]
        pub fn xor_batches<'a>(state: &State, mut data: &'a mut [u8]) -> (u32, &'a mut [u8]) {
            let mut state = *state;
            while data.len() > 64 {
                let ks = keystream(&state);
                state[12] = state[12].wrapping_add(8);
                let n = data.len().min(BATCH);
                let (chunk, rest) = std::mem::take(&mut data).split_at_mut(n);
                match chunk.try_into() {
                    Ok(whole) => xor_into(&ks, whole),
                    Err(_) => {
                        let mut last = [0u8; BATCH];
                        last[..chunk.len()].copy_from_slice(chunk);
                        xor_into(&ks, &mut last);
                        chunk.copy_from_slice(&last[..chunk.len()]);
                    }
                }
                data = rest;
            }
            (state[12], data)
        }

        /// XOR the sixteen 32-byte rows of a batch's keystream into `out`.
        #[target_feature(enable = $features)]
        fn xor_into(ks: &[__m256i; 16], out: &mut [u8; BATCH]) {
            for (row, k) in out.chunks_exact_mut(32).zip(ks) {
                let at = row.as_mut_ptr().cast::<__m256i>();
                // SAFETY: `row` is 32 bytes long, the width of one load and one
                // store; the unaligned forms have no alignment requirement.
                unsafe { _mm256_storeu_si256(at, _mm256_xor_si256(_mm256_loadu_si256(at), *k)) };
            }
        }

        #[inline]
        #[target_feature(enable = $features)]
        fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
            _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
        }

        #[inline]
        #[target_feature(enable = $features)]
        fn quarter_round(v: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
            // Output byte `i` of each 16-byte lane is input byte `rot[i]`: every
            // 32-bit word rotated left by 16 (`rot16`) or by 8 (`rot8`).
            #[rustfmt::skip]
            let rot16 = _mm256_setr_epi8(
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            );
            #[rustfmt::skip]
            let rot8 = _mm256_setr_epi8(
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            );
            v[a] = _mm256_add_epi32(v[a], v[b]);
            v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot16);
            v[c] = _mm256_add_epi32(v[c], v[d]);
            v[b] = rotl::<12, 20>(_mm256_xor_si256(v[b], v[c]));
            v[a] = _mm256_add_epi32(v[a], v[b]);
            v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot8);
            v[c] = _mm256_add_epi32(v[c], v[d]);
            v[b] = rotl::<7, 25>(_mm256_xor_si256(v[b], v[c]));
        }

        /// Four word vectors (word `k` of eight blocks each) as four rows
        /// `[block j, words k..k+4 | block j+4, words k..k+4]`, j = 0..4.
        #[inline]
        #[target_feature(enable = $features)]
        fn transpose4(w: &[__m256i]) -> [__m256i; 4] {
            let lo01 = _mm256_unpacklo_epi32(w[0], w[1]);
            let hi01 = _mm256_unpackhi_epi32(w[0], w[1]);
            let lo23 = _mm256_unpacklo_epi32(w[2], w[3]);
            let hi23 = _mm256_unpackhi_epi32(w[2], w[3]);
            [
                _mm256_unpacklo_epi64(lo01, lo23),
                _mm256_unpackhi_epi64(lo01, lo23),
                _mm256_unpacklo_epi64(hi01, hi23),
                _mm256_unpackhi_epi64(hi01, hi23),
            ]
        }

        /// Keystream blocks `s[12]`, …, `s[12]+7` of the state `s` (each lane's
        /// counter wraps on its own, as the scalar counter does), as the sixteen
        /// 32-byte rows of their concatenation.
        #[target_feature(enable = $features)]
        fn keystream(s: &State) -> [__m256i; 16] {
            // Loops, not `map` closures: a closure would not be inlined into
            // this function's target feature, and each call would cost one.
            let mut initial = [_mm256_setzero_si256(); 16];
            for (v, &w) in initial.iter_mut().zip(s) {
                *v = _mm256_set1_epi32(w as i32);
            }
            initial[12] = _mm256_add_epi32(initial[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
            let mut v = initial;
            for _ in 0..10 {
                quarter_round(&mut v, 0, 4, 8, 12);
                quarter_round(&mut v, 1, 5, 9, 13);
                quarter_round(&mut v, 2, 6, 10, 14);
                quarter_round(&mut v, 3, 7, 11, 15);
                quarter_round(&mut v, 0, 5, 10, 15);
                quarter_round(&mut v, 1, 6, 11, 12);
                quarter_round(&mut v, 2, 7, 8, 13);
                quarter_round(&mut v, 3, 4, 9, 14);
            }
            for (w, i) in v.iter_mut().zip(initial) {
                *w = _mm256_add_epi32(*w, i);
            }
            let (a, b) = (transpose4(&v[0..4]), transpose4(&v[4..8]));
            let (c, d) = (transpose4(&v[8..12]), transpose4(&v[12..16]));
            // Row 2n is bytes 0..32 of block n (words 0..8), row 2n+1 bytes 32..64.
            let mut rows = [_mm256_setzero_si256(); 16];
            for j in 0..4 {
                rows[2 * j] = _mm256_permute2x128_si256::<0x20>(a[j], b[j]);
                rows[2 * j + 1] = _mm256_permute2x128_si256::<0x20>(c[j], d[j]);
                rows[2 * j + 8] = _mm256_permute2x128_si256::<0x31>(a[j], b[j]);
                rows[2 * j + 9] = _mm256_permute2x128_si256::<0x31>(c[j], d[j]);
            }
            rows
        }
    };
}

/// The 8-block kernel under AVX2.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    eight_block_kernel!("avx2");
}

/// Sixteen ChaCha20 blocks at once in 16-lane form: the 8-block kernel's
/// layout at 512 bits, vector `i` holding state word `i` of sixteen blocks.
/// Every rotate is one `vprold`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{State, BATCH};
    use std::arch::x86_64::*;

    /// Keystream bytes per step: sixteen blocks.
    const WIDE: usize = 16 * 64;

    /// The 8-block kernel again, compiled under AVX-512VL.
    mod vl {
        eight_block_kernel!("avx512f,avx512vl");
    }

    /// [`super::avx2::xor_batches`] at AVX-512 width: sixteen blocks per
    /// step while more than 512 bytes are left (a last batch that is only
    /// partly used goes through a copy on the stack), then the 8-block body
    /// while more than one block is left. A 1 350-byte payload after the
    /// AEAD's head batch is one 16-block step; a rest of 512 bytes or less
    /// costs an 8-block step, not a mostly unused 16-block one. Outside
    /// code with these target features the compiler makes the call
    /// `unsafe`: the caller must have detected them.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub fn xor_batches<'a>(state: &State, mut data: &'a mut [u8]) -> (u32, &'a mut [u8]) {
        let mut state = *state;
        while data.len() > BATCH {
            let ks = keystream(&state);
            state[12] = state[12].wrapping_add(16);
            let n = data.len().min(WIDE);
            let (chunk, rest) = std::mem::take(&mut data).split_at_mut(n);
            match chunk.try_into() {
                Ok(whole) => xor_into(&ks, whole),
                Err(_) => {
                    let mut last = [0u8; WIDE];
                    last[..chunk.len()].copy_from_slice(chunk);
                    xor_into(&ks, &mut last);
                    chunk.copy_from_slice(&last[..chunk.len()]);
                }
            }
            data = rest;
        }
        vl::xor_batches(&state, data)
    }

    /// XOR the sixteen 64-byte blocks of a batch's keystream into `out`.
    #[target_feature(enable = "avx512f")]
    fn xor_into(ks: &[__m512i; 16], out: &mut [u8; WIDE]) {
        for (row, k) in out.chunks_exact_mut(64).zip(ks) {
            let at = row.as_mut_ptr().cast::<__m512i>();
            // SAFETY: `row` is 64 bytes long, the width of one load and one
            // store; the unaligned forms have no alignment requirement.
            unsafe { _mm512_storeu_si512(at, _mm512_xor_si512(_mm512_loadu_si512(at), *k)) };
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn quarter_round(v: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm512_add_epi32(v[a], v[b]);
        v[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(v[d], v[a]));
        v[c] = _mm512_add_epi32(v[c], v[d]);
        v[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(v[b], v[c]));
        v[a] = _mm512_add_epi32(v[a], v[b]);
        v[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(v[d], v[a]));
        v[c] = _mm512_add_epi32(v[c], v[d]);
        v[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(v[b], v[c]));
    }

    /// Four word vectors (word `k` of sixteen blocks each) as four vectors
    /// whose 128-bit lane `l` holds words `k..k+4` of block `4l + j`,
    /// j = 0..4.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose4(w: &[__m512i]) -> [__m512i; 4] {
        let lo01 = _mm512_unpacklo_epi32(w[0], w[1]);
        let hi01 = _mm512_unpackhi_epi32(w[0], w[1]);
        let lo23 = _mm512_unpacklo_epi32(w[2], w[3]);
        let hi23 = _mm512_unpackhi_epi32(w[2], w[3]);
        [
            _mm512_unpacklo_epi64(lo01, lo23),
            _mm512_unpackhi_epi64(lo01, lo23),
            _mm512_unpacklo_epi64(hi01, hi23),
            _mm512_unpackhi_epi64(hi01, hi23),
        ]
    }

    /// Keystream blocks `s[12]`, …, `s[12]+15` of the state `s` (each
    /// lane's counter wraps on its own, as the scalar counter does), one
    /// block per vector.
    #[target_feature(enable = "avx512f")]
    fn keystream(s: &State) -> [__m512i; 16] {
        // Loops, not `map` closures, as in the 8-block kernel.
        let mut initial = [_mm512_setzero_si512(); 16];
        for (v, &w) in initial.iter_mut().zip(s) {
            *v = _mm512_set1_epi32(w as i32);
        }
        #[rustfmt::skip]
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        initial[12] = _mm512_add_epi32(initial[12], lanes);
        let mut v = initial;
        for _ in 0..10 {
            quarter_round(&mut v, 0, 4, 8, 12);
            quarter_round(&mut v, 1, 5, 9, 13);
            quarter_round(&mut v, 2, 6, 10, 14);
            quarter_round(&mut v, 3, 7, 11, 15);
            quarter_round(&mut v, 0, 5, 10, 15);
            quarter_round(&mut v, 1, 6, 11, 12);
            quarter_round(&mut v, 2, 7, 8, 13);
            quarter_round(&mut v, 3, 4, 9, 14);
        }
        for (w, i) in v.iter_mut().zip(initial) {
            *w = _mm512_add_epi32(*w, i);
        }
        let (a, b) = (transpose4(&v[0..4]), transpose4(&v[4..8]));
        let (c, d) = (transpose4(&v[8..12]), transpose4(&v[12..16]));
        // Lane `l` of a[j], b[j], c[j], d[j] is words 0..4, 4..8, 8..12,
        // 12..16 of block 4l + j. Two rounds of 128-bit lane shuffles put
        // them side by side: first lanes 0, 1 (0x44) and 2, 3 (0xee) of two
        // sources, then the even (0x88) and odd (0xdd) lanes of those.
        let mut rows = [_mm512_setzero_si512(); 16];
        for j in 0..4 {
            let ab_lo = _mm512_shuffle_i32x4::<0x44>(a[j], b[j]);
            let ab_hi = _mm512_shuffle_i32x4::<0xee>(a[j], b[j]);
            let cd_lo = _mm512_shuffle_i32x4::<0x44>(c[j], d[j]);
            let cd_hi = _mm512_shuffle_i32x4::<0xee>(c[j], d[j]);
            rows[j] = _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo);
            rows[j + 4] = _mm512_shuffle_i32x4::<0xdd>(ab_lo, cd_lo);
            rows[j + 8] = _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi);
            rows[j + 12] = _mm512_shuffle_i32x4::<0xdd>(ab_hi, cd_hi);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::rfc8439::{hex, SUNSCREEN};
    use xlink_lab::prop::*;

    const KEY: [u8; 32] = [7u8; 32];
    const NONCE: [u8; 12] = [3u8; 12];

    /// RFC 8439 §2.3.2: the block function.
    #[test]
    fn rfc8439_block_function_vector() {
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = hex("00 00 00 09 00 00 00 4a 00 00 00 00").try_into().unwrap();
        let expect = hex("10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4
             c7 d1 f4 c7 33 c0 68 03 04 22 aa 9a c3 d4 6c 4e
             d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b 02 a2
             b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e");
        assert_eq!(block(&key, 1, &nonce).to_vec(), expect);
    }

    /// RFC 8439 §2.4.2: the cipher, counter starting at 1.
    #[test]
    fn rfc8439_cipher_vector() {
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = hex("00 00 00 00 00 00 00 4a 00 00 00 00").try_into().unwrap();
        let expect = hex("6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81
             e9 7e 7a ec 1d 43 60 c2 0a 27 af cc fd 9f ae 0b
             f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 b3 57
             16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8
             07 ca 0d bf 50 0d 6a 61 56 a3 8e 08 8a 22 b6 5e
             52 bc 51 4d 16 cc f8 06 81 8c e9 1a b7 79 37 36
             5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42
             87 4d");
        let mut data = SUNSCREEN.to_vec();
        xor_keystream(&key, 1, &nonce, &mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let orig = data.clone();
        xor_keystream(&KEY, 1, &NONCE, &mut data);
        assert_ne!(data, orig, "ciphertext must differ from plaintext");
        xor_keystream(&KEY, 1, &NONCE, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn different_nonce_different_keystream() {
        let a = block(&KEY, 0, &NONCE);
        let mut n2 = NONCE;
        n2[0] ^= 1;
        let b = block(&KEY, 0, &n2);
        assert_ne!(a, b);
    }

    #[test]
    fn different_counter_different_keystream() {
        assert_ne!(block(&KEY, 0, &NONCE), block(&KEY, 1, &NONCE));
    }

    #[test]
    fn different_key_different_keystream() {
        let mut k2 = KEY;
        k2[31] ^= 0x80;
        assert_ne!(block(&KEY, 0, &NONCE), block(&k2, 0, &NONCE));
    }

    #[test]
    fn keystream_is_deterministic() {
        assert_eq!(block(&KEY, 5, &NONCE), block(&KEY, 5, &NONCE));
    }

    #[test]
    fn long_message_crosses_block_boundaries() {
        let mut data = vec![0xabu8; 200];
        let orig = data.clone();
        xor_keystream(&KEY, 0, &NONCE, &mut data);
        // First 64 bytes must match manual single-block XOR.
        let ks0 = block(&KEY, 0, &NONCE);
        for i in 0..64 {
            assert_eq!(data[i], orig[i] ^ ks0[i]);
        }
        let ks1 = block(&KEY, 1, &NONCE);
        for i in 64..128 {
            assert_eq!(data[i], orig[i] ^ ks1[i - 64]);
        }
        xor_keystream(&KEY, 0, &NONCE, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn keystream_has_no_obvious_bias() {
        // Sanity: a keystream block should have roughly balanced bits.
        let ks = block(&KEY, 9, &NONCE);
        let ones: u32 = ks.iter().map(|b| b.count_ones()).sum();
        // 512 bits total; expect ~256, allow generous slack.
        assert!((150..=360).contains(&ones), "ones = {ones}");
    }

    /// Start counters for the differential tests: from 1 (the AEAD's
    /// payload), and ones that wrap inside a 16- or an 8-lane batch or
    /// between two (each lane wraps on its own).
    const STARTS: [u32; 8] = [
        1,
        u32::MAX - 15,
        u32::MAX - 14,
        u32::MAX - 8,
        u32::MAX - 7,
        u32::MAX - 4,
        u32::MAX - 1,
        u32::MAX,
    ];

    /// Every length a datagram's payload can have — no tail, scalar-only
    /// tail, partly used 8- and 16-block batches, one or two of each.
    const LENGTHS: std::ops::RangeInclusive<usize> = 0..=1500;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + len) as u8).collect()
    }

    /// The path this host takes against the scalar one.
    #[test]
    fn xor_keystream_matches_scalar_blocks() {
        for start in STARTS {
            for len in LENGTHS {
                let mut fast = pattern(len);
                let mut slow = fast.clone();
                xor_keystream(&KEY, start, &NONCE, &mut fast);
                xor_keystream_scalar(&KEY, start, &NONCE, &mut slow);
                assert_eq!(fast, slow, "len {len} start {start}");
            }
        }
    }

    /// A vector kernel, its tail finished by the scalar keystream, against
    /// the scalar keystream, called directly: the dispatch reaches only the
    /// widest kernel the host has.
    ///
    /// # Safety
    ///
    /// The host must have the kernel's target features.
    #[cfg(target_arch = "x86_64")]
    unsafe fn kernel_matches_scalar_blocks(
        kernel: for<'a> unsafe fn(&State, &'a mut [u8]) -> (u32, &'a mut [u8]),
    ) {
        for start in STARTS {
            for len in LENGTHS {
                let mut fast = pattern(len);
                let mut slow = fast.clone();
                // SAFETY: the host has the kernel's features (this
                // function's contract).
                let (counter, rest) =
                    unsafe { kernel(&init_state(&KEY, start, &NONCE), &mut fast) };
                xor_keystream_scalar(&KEY, counter, &NONCE, rest);
                xor_keystream_scalar(&KEY, start, &NONCE, &mut slow);
                assert_eq!(fast, slow, "len {len} start {start}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_scalar_blocks() {
        if !crate::crypto::has_avx2() {
            eprintln!("skipped: this host has no AVX2");
            return;
        }
        // SAFETY: AVX2 detected just above.
        unsafe { kernel_matches_scalar_blocks(avx2::xor_batches) };
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_kernel_matches_scalar_blocks() {
        if !crate::crypto::has_avx512() {
            eprintln!("skipped: this host lacks AVX-512F, AVX-512VL or AVX-512 IFMA");
            return;
        }
        // SAFETY: AVX-512F and AVX-512VL detected just above.
        unsafe { kernel_matches_scalar_blocks(avx512::xor_batches) };
    }

    #[test]
    fn prop_roundtrip() {
        check(
            "prop_roundtrip",
            (bytes(0..512), any_array::<32>(), any_array::<12>(), 0u32..=u32::MAX),
            |(data, key, nonce, ctr)| {
                let mut buf = data.clone();
                xor_keystream(key, *ctr, nonce, &mut buf);
                xor_keystream(key, *ctr, nonce, &mut buf);
                prop_assert_eq!(&buf, data);
                Ok(())
            },
        );
    }
}
