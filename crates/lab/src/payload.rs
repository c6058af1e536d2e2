//! The one synthetic payload every producer and checker in the workspace
//! agrees on: byte `o` of a stream with phase `p` is `(p + o) mod 251`.
//!
//! The PoP's toy origin serves it at phase 0 and its clients check it; the
//! media store serves each object at the phase its name hashes to. A
//! producer lends ([`parts`]) or appends ([`extend`]) and a checker
//! compares ([`matches()`]) whole slices of one `const` table, so sending
//! or verifying a body costs a `memcpy` / `memcmp`, not a division per
//! byte.
//!
//! The period is prime, so no power-of-two stride (a packet size, a chunk
//! size) lines up with it, and any splice that repeats or skips a byte
//! breaks the sequence from that byte on.

use std::ops::Range;

/// The payload's period.
const PERIOD: u64 = 251;

/// Bytes one table slice covers: a whole number of periods, so a run of
/// full slices starts every one at the same place in the table.
const SPAN: usize = 16 * PERIOD as usize;

/// `i mod PERIOD` for every `i`: the slice starting at any residue holds
/// [`SPAN`] bytes of the payload.
const TABLE: [u8; SPAN + PERIOD as usize] = {
    let mut table = [0u8; SPAN + PERIOD as usize];
    let mut i = 0;
    while i < table.len() {
        table[i] = (i as u64 % PERIOD) as u8;
        i += 1;
    }
    table
};

/// Where byte `offset` of a stream with `phase` sits in the cycle:
/// `(phase + offset) mod PERIOD`, without the sum overflowing.
fn residue(phase: u64, offset: u64) -> usize {
    ((phase % PERIOD + offset % PERIOD) % PERIOD) as usize
}

/// The payload byte at `offset` of a stream with `phase`: the definition
/// [`parts`], [`extend`] and [`matches()`] agree with.
pub fn byte(phase: u64, offset: u64) -> u8 {
    residue(phase, offset) as u8
}

/// Bytes `range` of the stream with `phase`, lent in slices of one `const`
/// table (for any lifetime the caller needs): a range of at most 4 016
/// bytes is one slice.
pub fn parts<'a>(phase: u64, range: Range<u64>) -> impl Iterator<Item = &'a [u8]> + Clone {
    let mut left = usize::try_from(range.end.saturating_sub(range.start))
        .expect("a payload range fits in memory");
    let mut at = residue(phase, range.start);
    std::iter::from_fn(move || {
        let n = left.min(SPAN);
        let part = (n > 0).then(|| &TABLE[at..at + n])?;
        at = (at + n) % PERIOD as usize;
        left -= n;
        Some(part)
    })
}

/// Append bytes `range` of the stream with `phase` to `out`, reserving
/// room for all of them first.
pub fn extend(phase: u64, range: Range<u64>, out: &mut Vec<u8>) {
    let parts = parts(phase, range);
    out.reserve(parts.clone().map(<[u8]>::len).sum());
    parts.for_each(|part| out.extend_from_slice(part));
}

/// Whether `data` is the stream with `phase` from offset `start` on.
pub fn matches(phase: u64, start: u64, data: &[u8]) -> bool {
    let mut at = residue(phase, start);
    data.chunks(SPAN).all(|chunk| {
        let same = chunk == &TABLE[at..at + chunk.len()];
        at = (at + chunk.len()) % PERIOD as usize;
        same
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-byte definition over `len` bytes from `start`.
    fn per_byte(phase: u64, start: u64, len: u64) -> Vec<u8> {
        (0..len).map(|i| byte(phase, start + i)).collect()
    }

    /// Starts at both ends of the cycle, deep in the stream, and up to the
    /// last offsets a `u64` range reaches (ranges from there are cut short
    /// at `u64::MAX`).
    fn starts() -> Vec<u64> {
        let mut starts = vec![0, 1, PERIOD - 1, PERIOD, PERIOD + 1, 7 * PERIOD - 1, 1 << 40];
        starts.push(u64::MAX - 3 * PERIOD);
        starts.extend((u64::MAX - 600..=u64::MAX - 600 + 2 * PERIOD).step_by(37));
        starts
    }

    #[test]
    fn byte_is_the_sum_mod_the_period() {
        let big = [0, 1, PERIOD - 1, PERIOD, 1_000_003, u64::MAX - 1, u64::MAX];
        for phase in (0..2 * PERIOD).chain(big) {
            for offset in big {
                let sum = (u128::from(phase) + u128::from(offset)) % u128::from(PERIOD);
                assert_eq!(u128::from(byte(phase, offset)), sum, "{phase} + {offset}");
            }
        }
    }

    #[test]
    fn extend_is_the_per_byte_definition() {
        let max_len = 3 * PERIOD + 1;
        for phase in (0..PERIOD).chain([PERIOD, u64::MAX]) {
            for start in [0, PERIOD - 1, u64::MAX - 600] {
                let whole = per_byte(phase, start, max_len.min(u64::MAX - start));
                for len in 0..=whole.len() {
                    let mut out = vec![0xaa];
                    extend(phase, start..start + len as u64, &mut out);
                    assert_eq!(out[0], 0xaa, "extend appends");
                    assert_eq!(out[1..], whole[..len], "{phase} {start}+{len}");
                }
            }
        }
        // Longer than one table slice, from every start.
        for start in starts() {
            let len = (3 * SPAN as u64 + 17).min(u64::MAX - start);
            let mut out = Vec::new();
            extend(9, start..start + len, &mut out);
            assert_eq!(out, per_byte(9, start, len), "from {start}");
        }
    }

    /// `parts` against `byte` at random phases, starts (up to the last
    /// offsets a `u64` range reaches) and lengths (up to three table
    /// slices): the slices are the payload's bytes in order, each at most
    /// one table slice long, and a range that fits one slice is one.
    #[test]
    fn prop_parts_is_the_per_byte_payload() {
        use crate::prop::*;
        let start = (0u8..3, 0u64..1 << 40);
        check(
            "prop_parts_is_the_per_byte_payload",
            (0u64..1 << 20, start, 0u64..3 * 4_016 + 300),
            |v| {
                let &(phase, (at, start), len) = v;
                let start = match at {
                    0 => start % 600,
                    1 => start,
                    _ => u64::MAX - start % 20_000,
                };
                let range = start..start.saturating_add(len);
                let parts: Vec<&[u8]> = parts(phase, range.clone()).collect();
                crate::prop_assert!(parts.iter().all(|p| !p.is_empty() && p.len() <= SPAN));
                if range.end - range.start <= SPAN as u64 {
                    crate::prop_assert!(parts.len() <= 1, "{} slices", parts.len());
                }
                crate::prop_assert_eq!(
                    parts.concat(),
                    per_byte(phase, start, range.end - range.start)
                );
                Ok(())
            },
        );
    }

    #[test]
    fn a_range_written_in_two_pieces_is_the_range() {
        for start in starts() {
            let len = (3 * PERIOD + 1).min(u64::MAX - start);
            let whole = per_byte(77, start, len);
            for split in 0..=len {
                let mut out = Vec::new();
                extend(77, start..start + split, &mut out);
                extend(77, start + split..start + len, &mut out);
                assert_eq!(out, whole, "{start} split at {split}");
            }
        }
    }

    #[test]
    fn an_empty_or_reversed_range_appends_nothing() {
        let mut out = Vec::new();
        extend(3, 10..10, &mut out);
        #[allow(clippy::reversed_empty_ranges)]
        extend(3, 10..5, &mut out);
        assert!(out.is_empty());
        assert!(matches(3, 10, &[]));
    }

    #[test]
    fn matches_accepts_the_payload_and_nothing_else() {
        for phase in [0, 1, PERIOD - 1, 0xcbf2_9ce4_8422_2325] {
            // Starts where a whole three-period buffer fits below `u64::MAX`.
            for start in starts().into_iter().filter(|&s| s <= u64::MAX - 3 * PERIOD) {
                let good = per_byte(phase, start, 3 * PERIOD);
                assert!(matches(phase, start, &good), "{phase} {start}");
                // Every piece of it, from where it starts.
                assert!(matches(phase, start + 100, &good[100..]));
                // One flipped byte at any position.
                for i in 0..good.len() {
                    let mut bad = good.clone();
                    bad[i] ^= 1;
                    assert!(!matches(phase, start, &bad), "{phase} {start}: flip at {i}");
                }
                // A byte repeated at a splice shifts the rest by one.
                for splice in [1, 2, PERIOD as usize, 3 * PERIOD as usize - 1] {
                    let mut shifted = good[..splice].to_vec();
                    shifted.extend_from_slice(&good[splice - 1..good.len() - 1]);
                    assert!(!matches(phase, start, &shifted), "{phase} {start}: at {splice}");
                }
                // The right bytes at the wrong offset or phase.
                assert!(!matches(phase, start + 1, &good));
                assert!(!matches(phase + 1, start, &good));
            }
        }
        // Longer than one table slice, with the flip past the first.
        let good = per_byte(5, 3, 3 * SPAN as u64);
        assert!(matches(5, 3, &good));
        let mut bad = good.clone();
        bad[2 * SPAN + 7] ^= 0x80;
        assert!(!matches(5, 3, &bad));
    }
}
