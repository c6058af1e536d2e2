//! AES-256-GCM on VAES and VPCLMULQDQ: the `aesni` AEAD with its
//! eight-block step in two `__m512i` of four blocks each. The key
//! schedule, the powers of H, what is short of a step and the tag are
//! `aesni`'s [`Gcm`].
//!
//! Every function here needs the target features listed on it; outside
//! code with them the compiler makes each call `unsafe`.

use super::aesni::{self, Gcm, STEP};
use std::arch::x86_64::*;

#[inline]
fn load(b: &[u8; 64]) -> __m512i {
    // SAFETY: `b` is 64 bytes, the width of the load; the unaligned form
    // has no alignment requirement.
    unsafe { _mm512_loadu_si512(b.as_ptr().cast()) }
}

#[inline]
fn store(b: &mut [u8; 64], x: __m512i) {
    // SAFETY: as in `load`, for the store.
    unsafe { _mm512_storeu_si512(b.as_mut_ptr().cast(), x) }
}

/// XOR the keystream from counter block J0 + `n` into `data`: eight
/// counter blocks per step as two vectors through the rounds, the rest in
/// `aesni`. Each 128-bit lane's counter is its lane 3 under `CTR_SWAP`,
/// so a vector counts by adding to every fourth 32-bit lane.
#[target_feature(enable = "vaes,vpclmulqdq,avx512f,avx512bw,aes,pclmulqdq,ssse3")]
fn ctr(gcm: &Gcm, n: u32, data: &mut [u8]) {
    let (steps, rest) = data.as_chunks_mut::<STEP>();
    // A loop, not `map`: a closure does not inherit the target features,
    // and left out of line each broadcast became a call.
    let mut rk = [_mm512_setzero_si512(); 15];
    for (r, &k) in rk.iter_mut().zip(&gcm.rk) {
        *r = _mm512_broadcast_i32x4(k);
    }
    let swap = _mm512_broadcast_i32x4(aesni::load(&aesni::CTR_SWAP));
    let four = _mm512_maskz_set1_epi32(0x8888, 4);
    let lanes = _mm512_set_epi32(3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0);
    let first = _mm512_add_epi32(lanes, _mm512_maskz_set1_epi32(0x8888, n as i32));
    let mut next = _mm512_add_epi32(_mm512_broadcast_i32x4(gcm.j0), first);
    for step in &mut *steps {
        let later = _mm512_add_epi32(next, four);
        let mut b = [next, later].map(|c| _mm512_xor_si512(_mm512_shuffle_epi8(c, swap), rk[0]));
        next = _mm512_add_epi32(later, four);
        for k in &rk[1..14] {
            for x in &mut b {
                *x = _mm512_aesenc_epi128(*x, *k);
            }
        }
        for (half, x) in step.as_chunks_mut::<64>().0.iter_mut().zip(b) {
            store(half, _mm512_xor_si512(load(half), _mm512_aesenclast_epi128(x, rk[14])));
        }
    }
    aesni::ctr(gcm, n + 8 * steps.len() as u32, rest);
}

/// Absorb `data`, zero-padded to whole blocks, into the GHASH accumulator
/// `acc`: per step the two vectors times `[H⁸…H⁵]` and `[H⁴…H¹]`, each
/// term's lanes summed, one reduction (the product with `acc` added last:
/// only it waits for the step before); the rest in `aesni`.
#[target_feature(enable = "vaes,vpclmulqdq,avx512f,avx512bw,aes,pclmulqdq,ssse3")]
fn ghash(gcm: &Gcm, mut acc: __m128i, data: &[u8]) -> __m128i {
    let (steps, rest) = data.as_chunks::<STEP>();
    let h = &gcm.h;
    let powers = [4, 0].map(|i| {
        let x = _mm512_inserti32x4::<1>(_mm512_zextsi128_si512(h[i + 3]), h[i + 2]);
        _mm512_inserti32x4::<3>(_mm512_inserti32x4::<2>(x, h[i + 1]), h[i])
    });
    let bswap = _mm512_broadcast_i32x4(aesni::load(&aesni::BSWAP));
    for step in steps {
        let mut sum = [_mm512_setzero_si512(); 3];
        for (half, &h) in step.as_chunks::<64>().0.iter().zip(&powers) {
            let x = _mm512_shuffle_epi8(load(half), bswap);
            let mid = _mm512_xor_si512(
                _mm512_clmulepi64_epi128::<0x01>(x, h),
                _mm512_clmulepi64_epi128::<0x10>(x, h),
            );
            let lo = _mm512_clmulepi64_epi128::<0x00>(x, h);
            let terms = [lo, mid, _mm512_clmulepi64_epi128::<0x11>(x, h)];
            for (s, t) in sum.iter_mut().zip(terms) {
                *s = _mm512_xor_si512(*s, t);
            }
        }
        let sum = sum.map(|s| {
            let s = _mm256_xor_si256(_mm512_castsi512_si256(s), _mm512_extracti64x4_epi64::<1>(s));
            _mm_xor_si128(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s))
        });
        acc = aesni::reduce(aesni::add(sum, aesni::clmul(acc, h[7])));
    }
    aesni::ghash(gcm, acc, rest)
}

aesni::seal_and_open!("vaes,vpclmulqdq,avx512f,avx512bw,aes,pclmulqdq,ssse3");
