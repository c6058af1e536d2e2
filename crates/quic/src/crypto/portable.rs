//! AES-256-GCM in plain Rust: AES-256 as FIPS-197 writes it, a byte of
//! state at a time, and GHASH a bit at a time (NIST SP 800-38D, algorithm
//! 1). The reference the vector kernels are tested against, and the AEAD
//! on hosts without AES-NI; it need not be fast.

use super::TAG_LEN;

/// The S-box (FIPS-197 §5.1.1), computed at compile time: `p` walks the
/// powers of 3 and `q` those of 3⁻¹, so `q` is `p`'s inverse, and the
/// affine map follows.
const SBOX: [u8; 256] = {
    let mut sbox = [0x63u8; 256];
    let (mut p, mut q) = (1u8, 1u8);
    loop {
        p ^= (p << 1) ^ if p & 0x80 != 0 { 0x1b } else { 0 };
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        q ^= if q & 0x80 != 0 { 0x09 } else { 0 };
        let affine = q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4);
        sbox[p as usize] = affine ^ 0x63;
        if p == 1 {
            break sbox;
        }
    }
};

fn sub(b: u8) -> u8 {
    SBOX[b as usize]
}

/// The AES-256 key schedule (FIPS-197 §5.2): fifteen round keys.
pub fn expand(key: &[u8; 32]) -> [[u8; 16]; 15] {
    let mut w = [0u8; 240];
    w[..32].copy_from_slice(key);
    for i in 8..60 {
        let mut t = [w[4 * i - 4], w[4 * i - 3], w[4 * i - 2], w[4 * i - 1]];
        if i % 8 == 0 {
            t = [sub(t[1]) ^ (1 << (i / 8 - 1)), sub(t[2]), sub(t[3]), sub(t[0])];
        } else if i % 8 == 4 {
            t = t.map(sub);
        }
        for (j, t) in t.into_iter().enumerate() {
            w[4 * i + j] = w[4 * i - 32 + j] ^ t;
        }
    }
    std::array::from_fn(|r| std::array::from_fn(|i| w[16 * r + i]))
}

/// One block through AES-256 (FIPS-197 §5.1). Byte `r + 4c` of the state
/// is row `r` of column `c`.
pub fn encrypt_block(rk: &[[u8; 16]; 15], block: [u8; 16]) -> [u8; 16] {
    let xtime = |b: u8| (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 };
    let mut s: [u8; 16] = std::array::from_fn(|i| block[i] ^ rk[0][i]);
    for (round, k) in rk.iter().enumerate().skip(1) {
        // SubBytes and ShiftRows: row r of column c comes from column c + r.
        s = std::array::from_fn(|i| sub(s[(i + 4 * (i % 4)) % 16]));
        for col in s.chunks_exact_mut(4).filter(|_| round < 14) {
            let a = [col[0], col[1], col[2], col[3]];
            for r in 0..4 {
                col[r] ^= a[0] ^ a[1] ^ a[2] ^ a[3] ^ xtime(a[r] ^ a[(r + 1) % 4]);
            }
        }
        s.iter_mut().zip(k).for_each(|(b, k)| *b ^= k);
    }
    s
}

/// The AEAD under one key and IV: the round keys, H = E_K(0¹²⁸) and
/// J0 = IV ‖ 0³¹ ‖ 1, a block read as a big-endian `u128`.
struct Gcm {
    rk: [[u8; 16]; 15],
    h: u128,
    j0: u128,
}

impl Gcm {
    fn new(key: &[u8; 32], iv: &[u8; 12]) -> Gcm {
        let rk = expand(key);
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(iv);
        let h = u128::from_be_bytes(encrypt_block(&rk, [0; 16]));
        Gcm { rk, h, j0: u128::from_be_bytes(j0) | 1 }
    }

    /// E_K(`block`).
    fn e(&self, block: u128) -> u128 {
        u128::from_be_bytes(encrypt_block(&self.rk, block.to_be_bytes()))
    }

    /// XOR the keystream from J0 + 1 into `data` (the counter is the low 32
    /// bits, stepped modulo 2³²).
    fn ctr(&self, data: &mut [u8]) {
        for (chunk, i) in data.chunks_mut(16).zip(1u32..) {
            let counter = (self.j0 as u32).wrapping_add(i);
            let ks = self.e(self.j0 & !0xffff_ffff | u128::from(counter)).to_be_bytes();
            chunk.iter_mut().zip(ks).for_each(|(b, k)| *b ^= k);
        }
    }

    /// E_K(J0) ⊕ GHASH_H(aad ‖ pad ‖ cipher ‖ pad ‖ len(aad) ‖ len(cipher)),
    /// each block multiplied in a bit at a time (SP 800-38D §6.3: bit 0 of
    /// a block, its first byte's top bit, is bit 127 of the `u128`).
    fn tag(&self, aad: &[u8], cipher: &[u8]) -> [u8; TAG_LEN] {
        let lens = ((aad.len() as u128 * 8) << 64) | (cipher.len() as u128 * 8);
        let blocks = aad.chunks(16).chain(cipher.chunks(16)).map(|chunk| {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            u128::from_be_bytes(block)
        });
        let mut y = 0u128;
        for x in blocks.chain([lens]) {
            let (mut z, mut v) = (0, self.h);
            for i in (0..128).rev() {
                z ^= if (y ^ x) >> i & 1 == 1 { v } else { 0 };
                v = (v >> 1) ^ if v & 1 == 1 { 0xe1 << 120 } else { 0 };
            }
            y = z;
        }
        (y ^ self.e(self.j0)).to_be_bytes()
    }
}

/// Encrypt `buf` in place and return its tag.
pub fn seal(key: &[u8; 32], iv: &[u8; 12], aad: &[u8], buf: &mut [u8]) -> [u8; TAG_LEN] {
    let gcm = Gcm::new(key, iv);
    gcm.ctr(buf);
    gcm.tag(aad, buf)
}

/// Check `tag` over `aad` and `buf` and, only if it matched, decrypt `buf`
/// in place.
pub fn open(key: &[u8; 32], iv: &[u8; 12], aad: &[u8], buf: &mut [u8], tag: &[u8; 16]) -> bool {
    let gcm = Gcm::new(key, iv);
    let authentic = super::tags_equal(&gcm.tag(aad, buf), tag);
    if authentic {
        gcm.ctr(buf);
    }
    authentic
}
