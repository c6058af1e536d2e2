//! AES-256-GCM on AES-NI and PCLMULQDQ in `__m128i`, eight blocks per
//! step; [`super::vaes`] runs its own steps around [`Gcm`] and this
//! module's tails. GHASH runs in the POLYVAL domain (RFC 8452, appendix
//! A): a block byte-reversed is a POLYVAL element, H becomes H·x, and a
//! product `a·b` is reduced to `a·b·x⁻¹²⁸` by two carry-less multiplies.
//! Every function here needs the AES, PCLMULQDQ and SSSE3 target features;
//! outside code with them the compiler makes each call `unsafe`.

use super::TAG_LEN;
use std::arch::x86_64::*;

/// Bytes per step: eight blocks.
pub const STEP: usize = 128;

#[inline]
pub fn load(b: &[u8; 16]) -> __m128i {
    // SAFETY: `b` is 16 bytes, the width of the load; the unaligned form
    // has no alignment requirement.
    unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
}

#[inline]
pub fn store(b: &mut [u8; 16], x: __m128i) {
    // SAFETY: as in `load`, for the store.
    unsafe { _mm_storeu_si128(b.as_mut_ptr().cast(), x) }
}

/// `pshufb` masks. `BSWAP` reverses a block's bytes: a GCM block as a
/// POLYVAL element and back. `CTR_SWAP` reverses only the last four, so
/// that a counter block's big-endian counter is lane 3 of
/// `_mm_add_epi32`, and back.
pub const BSWAP: [u8; 16] = [15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0];
pub const CTR_SWAP: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12];

/// The AES-256 key schedule. SubWord is `aesenclast` on a word broadcast
/// to all four columns, where ShiftRows does nothing.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn expand(key: &[u8; 32]) -> [__m128i; 15] {
    let halves = key.as_chunks::<16>().0;
    let mut rk = [load(&halves[1]); 15];
    rk[0] = load(&halves[0]);
    // Word 3 rotated (RotWord) in every word, and word 3 in every word.
    let rot3 = _mm_set_epi8(12, 15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13);
    let word3 = _mm_set_epi8(15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13, 12);
    for i in 2..15 {
        let t = if i % 2 == 0 {
            let rcon = _mm_set1_epi32(1 << (i / 2 - 1));
            _mm_aesenclast_si128(_mm_shuffle_epi8(rk[i - 1], rot3), rcon)
        } else {
            _mm_aesenclast_si128(_mm_shuffle_epi8(rk[i - 1], word3), _mm_setzero_si128())
        };
        // The key two back, each word the sum of those before it, plus t.
        let w = _mm_xor_si128(rk[i - 2], _mm_slli_si128::<4>(rk[i - 2]));
        rk[i] = _mm_xor_si128(_mm_xor_si128(w, _mm_slli_si128::<8>(w)), t);
    }
    rk
}

/// `N` blocks through AES-256, interleaved.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn encrypt<const N: usize>(rk: &[__m128i; 15], mut b: [__m128i; N]) -> [__m128i; N] {
    for x in &mut b {
        *x = _mm_xor_si128(*x, rk[0]);
    }
    for k in &rk[1..14] {
        for x in &mut b {
            *x = _mm_aesenc_si128(*x, *k);
        }
    }
    b.map(|x| _mm_aesenclast_si128(x, rk[14]))
}

/// A 256-bit carry-less product as its low, middle and high terms
/// (`lo + mid·x⁶⁴ + hi·x¹²⁸`), so that products sum before one reduction.
pub type Wide = [__m128i; 3];

#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub fn clmul(a: __m128i, b: __m128i) -> Wide {
    let mid = _mm_xor_si128(_mm_clmulepi64_si128::<0x01>(a, b), _mm_clmulepi64_si128::<0x10>(a, b));
    [_mm_clmulepi64_si128::<0x00>(a, b), mid, _mm_clmulepi64_si128::<0x11>(a, b)]
}

#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub fn add(a: Wide, b: Wide) -> Wide {
    [_mm_xor_si128(a[0], b[0]), _mm_xor_si128(a[1], b[1]), _mm_xor_si128(a[2], b[2])]
}

/// `p·x⁻¹²⁸` modulo x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ + 1: the low half cleared 64
/// bits at a time by adding a multiple of the modulus, whose bits 57, 62
/// and 63 are the constant.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub fn reduce([lo, mid, hi]: Wide) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));
    let poly = _mm_set_epi64x(0xc200_0000_0000_0000_u64 as i64, 0);
    let t = _mm_xor_si128(_mm_shuffle_epi32::<0x4e>(lo), _mm_clmulepi64_si128::<0x10>(lo, poly));
    let t = _mm_xor_si128(_mm_shuffle_epi32::<0x4e>(t), _mm_clmulepi64_si128::<0x10>(t, poly));
    _mm_xor_si128(hi, t)
}

/// A block's bytes, zero-padded: a partial last block's copy on the stack.
fn padded(part: &[u8]) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..part.len()].copy_from_slice(part);
    b
}

/// One seal's or open's key material, derived from the key and IV in every
/// call: an `AeadKey` stores only those 44 bytes.
pub struct Gcm {
    /// The AES-256 round keys.
    pub rk: [__m128i; 15],
    /// H¹…H⁸ in the POLYVAL domain: `h[i]` is Hⁱ⁺¹.
    pub h: [__m128i; 8],
    /// J0 = IV ‖ 0³¹ ‖ 1 under [`CTR_SWAP`].
    pub j0: __m128i,
    /// E_K(J0), the tag's mask.
    mask: __m128i,
}

impl Gcm {
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    pub fn new(key: &[u8; 32], iv: &[u8; 12]) -> Gcm {
        let rk = expand(key);
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(iv);
        j0[15] = 1;
        let [h, mask] = encrypt(&rk, [_mm_setzero_si128(), load(&j0)]);
        // H·x: shifted left one bit, the bit shifted out folded back
        // through the modulus (RFC 8452's mulX_POLYVAL).
        let h = _mm_shuffle_epi8(h, load(&BSWAP));
        let carry = _mm_slli_si128::<8>(_mm_srli_epi64::<63>(h));
        let top = _mm_shuffle_epi32::<0xff>(_mm_srai_epi32::<31>(h));
        let poly = _mm_and_si128(top, _mm_set_epi64x(0xc200_0000_0000_0000_u64 as i64, 1));
        let h = _mm_xor_si128(_mm_or_si128(_mm_slli_epi64::<1>(h), carry), poly);
        let mul = |a, b| reduce(clmul(a, b));
        let h2 = mul(h, h);
        let [h3, h4] = [mul(h2, h), mul(h2, h2)];
        let h = [h, h2, h3, h4, mul(h4, h), mul(h4, h2), mul(h4, h3), mul(h4, h4)];
        Gcm { rk, h, j0: _mm_shuffle_epi8(load(&j0), load(&CTR_SWAP)), mask }
    }

    /// Counter block J0 + `n`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn counter(&self, n: u32) -> __m128i {
        _mm_shuffle_epi8(_mm_add_epi32(self.j0, _mm_set_epi32(n as i32, 0, 0, 0)), load(&CTR_SWAP))
    }

    /// `(acc ⊕ X₀)·Hⁿ ⊕ X₁·Hⁿ⁻¹ ⊕ … ⊕ Xₙ₋₁·H¹`, for 1 ≤ n ≤ 8 blocks. The
    /// product with `acc` is added last: only it waits for the step before.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn fold(&self, acc: __m128i, blocks: &[__m128i]) -> __m128i {
        let n = blocks.len();
        let mut sum = [_mm_setzero_si128(); 3];
        for (x, h) in blocks[1..].iter().zip(self.h[..n - 1].iter().rev()) {
            sum = add(sum, clmul(*x, *h));
        }
        reduce(add(sum, clmul(_mm_xor_si128(acc, blocks[0]), self.h[n - 1])))
    }

    /// The length block absorbed, back to GCM's byte order, masked with
    /// E_K(J0).
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    pub fn tag(&self, acc: __m128i, aad_len: usize, len: usize) -> [u8; TAG_LEN] {
        let lens = _mm_set_epi64x(aad_len as i64 * 8, len as i64 * 8);
        let s = _mm_shuffle_epi8(self.fold(acc, &[lens]), load(&BSWAP));
        let mut tag = [0u8; TAG_LEN];
        store(&mut tag, _mm_xor_si128(s, self.mask));
        tag
    }
}

/// XOR the keystream from counter block J0 + `n` into `data`: eight
/// blocks interleaved through the rounds per step, then a block at a time,
/// a partial last block through a copy on the stack.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub fn ctr(gcm: &Gcm, mut n: u32, data: &mut [u8]) {
    let (steps, rest) = data.as_chunks_mut::<STEP>();
    for step in steps {
        let mut ctrs = [_mm_setzero_si128(); 8];
        for (c, i) in ctrs.iter_mut().zip(0..) {
            *c = gcm.counter(n + i);
        }
        for (b, k) in step.as_chunks_mut::<16>().0.iter_mut().zip(encrypt(&gcm.rk, ctrs)) {
            store(b, _mm_xor_si128(load(b), k));
        }
        n += 8;
    }
    let (blocks, part) = rest.as_chunks_mut::<16>();
    let mut last = padded(part);
    let tail = (!part.is_empty()).then_some(&mut last);
    for (b, n) in blocks.iter_mut().chain(tail).zip(n..) {
        let [k] = encrypt(&gcm.rk, [gcm.counter(n)]);
        store(b, _mm_xor_si128(load(b), k));
    }
    part.copy_from_slice(&last[..part.len()]);
}

/// Absorb `data`, zero-padded to whole blocks, into the GHASH accumulator
/// `acc`: up to eight blocks per fold, a partial last block through a copy
/// on the stack.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
pub fn ghash(gcm: &Gcm, mut acc: __m128i, data: &[u8]) -> __m128i {
    for group in data.chunks(STEP) {
        let (whole, part) = group.as_chunks::<16>();
        let last = (!part.is_empty()).then(|| padded(part));
        let mut blocks = [_mm_setzero_si128(); 8];
        for (x, b) in blocks.iter_mut().zip(whole.iter().chain(&last)) {
            *x = _mm_shuffle_epi8(load(b), load(&BSWAP));
        }
        acc = gcm.fold(acc, &blocks[..whole.len() + last.iter().len()]);
    }
    acc
}

/// `seal` and `open` over the invoking kernel module's `ctr` and `ghash`,
/// stamped into that module so that they compile under its target
/// features.
macro_rules! seal_and_open {
    ($features:literal) => {
        /// Encrypt `buf` in place and return its tag.
        #[target_feature(enable = $features)]
        pub fn seal(key: &[u8; 32], iv: &[u8; 12], aad: &[u8], buf: &mut [u8]) -> [u8; 16] {
            let gcm = Gcm::new(key, iv);
            ctr(&gcm, 1, buf);
            let acc = ghash(&gcm, ghash(&gcm, _mm_setzero_si128(), aad), buf);
            gcm.tag(acc, aad.len(), buf.len())
        }

        /// Check `tag` over `aad` and `buf` and, only if it matched,
        /// decrypt `buf` in place.
        #[target_feature(enable = $features)]
        pub fn open(
            key: &[u8; 32],
            iv: &[u8; 12],
            aad: &[u8],
            buf: &mut [u8],
            tag: &[u8; 16],
        ) -> bool {
            let gcm = Gcm::new(key, iv);
            let acc = ghash(&gcm, ghash(&gcm, _mm_setzero_si128(), aad), buf);
            let authentic = super::tags_equal(&gcm.tag(acc, aad.len(), buf.len()), tag);
            if authentic {
                ctr(&gcm, 1, buf);
            }
            authentic
        }
    };
}
pub(super) use seal_and_open;

seal_and_open!("aes,pclmulqdq,ssse3");
