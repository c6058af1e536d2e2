//! Packet protection: from-scratch AEAD_AES_256_GCM (RFC 9001 §5.3) with
//! the multipath nonce construction (paper §6), plus the key schedule for
//! the simplified handshake.
//!
//! One AEAD, three kernels, chosen by CPUID alone: `vaes` (VAES and
//! VPCLMULQDQ on AVX-512, eight blocks per step in two `__m512i`), `aesni`
//! (AES-NI and PCLMULQDQ, eight blocks per step in `__m128i`; the whole
//! AEAD without VAES and the part of a packet short of a step with it) and
//! `portable` (plain Rust: the reference, and the fallback).

pub mod aead;
#[cfg(target_arch = "x86_64")]
mod aesni;
pub mod kdf;
mod portable;
#[cfg(target_arch = "x86_64")]
mod vaes;

pub use aead::{AeadKey, TAG_LEN};
pub use kdf::{derive_keys, KeyPair};
use std::sync::LazyLock;

/// One AES-256-GCM implementation: `seal` encrypts a buffer in place under
/// a key and 96-bit IV and returns the tag, `open` checks the tag and only
/// if it matches decrypts in place. Both are `unsafe` to call: a vector
/// kernel needs its target features.
struct Kernel {
    name: &'static str,
    seal: Seal,
    open: Open,
}

type Seal = unsafe fn(&[u8; 32], &[u8; 12], &[u8], &mut [u8]) -> [u8; TAG_LEN];
type Open = unsafe fn(&[u8; 32], &[u8; 12], &[u8], &mut [u8], &[u8; TAG_LEN]) -> bool;

const PORTABLE: Kernel = Kernel { name: "portable", seal: portable::seal, open: portable::open };
#[cfg(target_arch = "x86_64")]
const AESNI: Kernel = Kernel { name: "aesni", seal: aesni::seal, open: aesni::open };
#[cfg(target_arch = "x86_64")]
const VAES: Kernel = Kernel { name: "vaes", seal: vaes::seal, open: vaes::open };

/// The kernel this host runs, chosen once by CPUID alone.
static KERNEL: LazyLock<Kernel> = LazyLock::new(|| {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("aes") && has!("pclmulqdq") && has!("ssse3") {
            let wide = has!("vaes") && has!("vpclmulqdq") && has!("avx512f") && has!("avx512bw");
            return if wide { VAES } else { AESNI };
        }
    }
    PORTABLE
});

/// The AEAD kernel this host runs: `"vaes"`, `"aesni"` or `"portable"`.
/// Timings are comparable only under the same name.
pub fn kernel() -> &'static str {
    KERNEL.name
}

fn seal(key: &[u8; 32], iv: &[u8; 12], aad: &[u8], buf: &mut [u8]) -> [u8; TAG_LEN] {
    // SAFETY: `KERNEL` holds a vector kernel only where CPUID reported its
    // target features, the one requirement of its entry points.
    unsafe { (KERNEL.seal)(key, iv, aad, buf) }
}

fn open(key: &[u8; 32], iv: &[u8; 12], aad: &[u8], buf: &mut [u8], tag: &[u8; 16]) -> bool {
    // SAFETY: as in `seal`.
    unsafe { (KERNEL.open)(key, iv, aad, buf, tag) }
}

/// Compare two tags in time independent of where they differ.
fn tags_equal(a: &[u8; 16], b: &[u8; 16]) -> bool {
    a.iter().zip(b).fold(0u8, |diff, (x, y)| diff | (x ^ y)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode a hex dump (whitespace ignored).
    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s
            .bytes()
            .filter(u8::is_ascii_hexdigit)
            .map(|b| (b as char).to_digit(16).unwrap() as u8)
            .collect();
        assert!(digits.len().is_multiple_of(2), "odd number of hex digits");
        digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
    }

    /// Every kernel this host runs, `portable` first; each vector kernel
    /// it lacks the features for is named on stderr as skipped.
    fn kernels() -> Vec<Kernel> {
        #[cfg(target_arch = "x86_64")]
        let mut all = vec![PORTABLE, AESNI, VAES];
        #[cfg(not(target_arch = "x86_64"))]
        let mut all = vec![PORTABLE];
        let runs = 1 + all.iter().position(|k| k.name == kernel()).expect("a known kernel");
        for k in &all[runs..] {
            eprintln!("skipped: this host lacks the target features of `{}`", k.name);
        }
        all.truncate(runs);
        all
    }

    /// FIPS-197 appendix C.3: AES-256 on one block.
    #[test]
    fn fips197_aes256_block() {
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let block = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let out = portable::encrypt_block(&portable::expand(&key), block);
        assert_eq!(out.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    /// The GCM specification's (McGrew and Viega) AES-256 test cases 13–16,
    /// through every kernel and through `AeadKey`, sealed and opened.
    #[test]
    fn gcm_spec_test_cases_13_to_16() {
        let (k0, iv0, z) = ("00".repeat(32), "00".repeat(12), "00".repeat(16));
        let k15 = "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
        let iv15 = "cafebabefacedbaddecaf888";
        let p15 = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                   1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
        let c15 = "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                   8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad";
        let a16 = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
        // Key, IV, aad, plaintext, ciphertext, tag.
        let cases = [
            [&k0, &iv0, "", "", "", "530f8afbc74536b9a963b4f1c4cb738b"],
            [
                &k0,
                &iv0,
                "",
                &z,
                "cea7403d4d606b6e074ec5d3baf39d18",
                "d0d1c8a799996bf0265b98b5d48ab919",
            ],
            [k15, iv15, "", p15, c15, "b094dac5d93471bdec1a502270e3cc6c"],
            [k15, iv15, a16, &p15[..120], &c15[..120], "76fc6ece0f4e1768cddf8853bb2d551b"],
        ];
        for case in cases {
            let [key, iv, aad, plain, cipher, tag] = case.map(hex);
            let (key, iv): ([u8; 32], [u8; 12]) = (key.try_into().unwrap(), iv.try_into().unwrap());
            let tag: [u8; 16] = tag.try_into().unwrap();
            for Kernel { name, seal, open } in kernels() {
                let mut buf = plain.clone();
                // SAFETY: `kernels` lists only what this host runs.
                assert_eq!(unsafe { seal(&key, &iv, &aad, &mut buf) }, tag, "{name}");
                assert_eq!(buf, cipher, "{name}");
                // SAFETY: as above.
                assert!(unsafe { open(&key, &iv, &aad, &mut buf, &tag) }, "{name}");
                assert_eq!(buf, plain, "{name}");
            }
            let mut sealed = cipher.clone();
            sealed.extend_from_slice(&tag);
            assert_eq!(AeadKey::new(key, iv).seal(0, 0, &aad, &plain), sealed);
            assert_eq!(AeadKey::new(key, iv).open(0, 0, &aad, &sealed).unwrap(), plain);
        }
    }

    /// Each vector kernel, called directly, against `portable` at every
    /// payload length up to a full datagram, each paired with two aad
    /// lengths that between them run through every length 0..=64: whole
    /// eight-block steps and none, every tail, partial last blocks in aad
    /// and payload.
    #[test]
    fn vector_kernels_match_portable() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 29 + 3) as u8);
        let kernels = kernels();
        for len in 0..=1500usize {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            for aad_len in [len % 65, (len * 31 + 17) % 65] {
                let aad: Vec<u8> = (0..aad_len).map(|i| i as u8 ^ 0xa5).collect();
                let iv = [len as u8; 12];
                let mut expect = plain.clone();
                let tag = portable::seal(&key, &iv, &aad, &mut expect);
                for Kernel { name, seal, open } in &kernels[1..] {
                    let mut buf = plain.clone();
                    // SAFETY: `kernels` lists only what this host runs.
                    let got = unsafe { seal(&key, &iv, &aad, &mut buf) };
                    assert_eq!(
                        (got, &buf),
                        (tag, &expect),
                        "{name} seal, len {len}, aad {aad_len}"
                    );
                    // SAFETY: as above.
                    assert!(unsafe { open(&key, &iv, &aad, &mut buf, &tag) }, "{name} open");
                    assert_eq!(buf, plain, "{name} open, len {len}, aad {aad_len}");
                }
            }
        }
    }

    /// Any flipped bit of aad, ciphertext or tag is refused by every
    /// kernel, and the buffer is left as it was received: the tag is
    /// checked before anything is decrypted. 300 bytes end in the `aesni`
    /// tail, 1 350 run whole `vaes` steps first.
    #[test]
    fn every_kernel_refuses_a_flipped_bit_and_leaves_the_buffer() {
        let key = [5u8; 32];
        let iv = [6u8; 12];
        for Kernel { name, seal, open } in kernels() {
            for len in [0, 300, 1350] {
                let aad = *b"header bytes";
                let mut cipher: Vec<u8> = (0..len).map(|i| i as u8).collect();
                // SAFETY: `kernels` lists only what this host runs.
                let tag = unsafe { seal(&key, &iv, &aad, &mut cipher) };
                for bit in 0..8 * (aad.len() + len + TAG_LEN) {
                    let (mut aad, mut buf, mut tag) = (aad, cipher.clone(), tag);
                    match bit / 8 {
                        i if i < aad.len() => aad[i] ^= 1 << (bit % 8),
                        i if i < aad.len() + len => buf[i - aad.len()] ^= 1 << (bit % 8),
                        i => tag[i - aad.len() - len] ^= 1 << (bit % 8),
                    }
                    let received = buf.clone();
                    // SAFETY: as above.
                    assert!(!unsafe { open(&key, &iv, &aad, &mut buf, &tag) }, "{name} {bit}");
                    assert_eq!(buf, received, "{name}, len {len}, bit {bit}");
                }
            }
        }
    }

    #[test]
    fn tags_equal_accepts_and_rejects() {
        let t = [7u8; 16];
        assert!(tags_equal(&t, &[7u8; 16]));
        for i in 0..16 {
            let mut bad = t;
            bad[i] ^= 0x80;
            assert!(!tags_equal(&bad, &t));
        }
    }
}
