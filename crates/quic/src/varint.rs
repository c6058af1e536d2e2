//! QUIC variable-length integer encoding (RFC 9000 §16).
//!
//! Varints encode 62-bit unsigned integers in 1, 2, 4, or 8 bytes; the two
//! most significant bits of the first byte give the length (00 → 1 byte,
//! 01 → 2, 10 → 4, 11 → 8).

use crate::error::CodecError;

/// Largest value representable as a QUIC varint (2^62 - 1).
pub const VARINT_MAX: u64 = (1 << 62) - 1;

/// A cursor over a byte slice used by all frame/packet decoders.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining to be read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        if self.remaining() < 1 {
            return Err(CodecError::UnexpectedEnd);
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Peek at the next byte without consuming it.
    pub fn peek_u8(&self) -> Result<u8, CodecError> {
        self.buf.get(self.pos).copied().ok_or(CodecError::UnexpectedEnd)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Decode one varint.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let first = self.u8()?;
        let len = 1usize << (first >> 6);
        let mut v = u64::from(first & 0x3f);
        for _ in 1..len {
            v = (v << 8) | u64::from(self.u8()?);
        }
        Ok(v)
    }

    /// Decode a varint-prefixed byte string.
    pub fn varint_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| CodecError::InvalidValue)?;
        self.bytes(n)
    }
}

/// Encoder mirror of [`Reader`]; appends to a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Writer { buf: Vec::with_capacity(n) }
    }

    /// Writer appending to `buf` (its capacity is reused).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Make room for at least `n` more bytes.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Drop everything written after the first `len` bytes.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append one varint. Panics if `v` exceeds [`VARINT_MAX`].
    pub fn varint(&mut self, v: u64) {
        assert!(v <= VARINT_MAX, "varint overflow: {v}");
        if v < 1 << 6 {
            self.buf.push(v as u8);
        } else if v < 1 << 14 {
            self.buf.extend_from_slice(&(v as u16 | 0x4000).to_be_bytes());
        } else if v < 1 << 30 {
            self.buf.extend_from_slice(&(v as u32 | 0x8000_0000).to_be_bytes());
        } else {
            self.buf.extend_from_slice(&(v | 0xc000_0000_0000_0000).to_be_bytes());
        }
    }

    /// Append a varint-length-prefixed byte string.
    pub fn varint_bytes(&mut self, v: &[u8]) {
        self.varint(v.len() as u64);
        self.bytes(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_lab::prop::*;

    fn roundtrip(v: u64) -> u64 {
        let mut w = Writer::new();
        w.varint(v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let got = r.varint().unwrap();
        assert!(r.is_empty());
        got
    }

    #[test]
    fn varint_boundaries() {
        for v in [0, 1, 63, 64, 16383, 16384, (1 << 30) - 1, 1 << 30, VARINT_MAX] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn varint_encoded_lengths() {
        let edges = [
            (0, 1),
            (63, 1),
            (64, 2),
            (16383, 2),
            (16384, 4),
            ((1 << 30) - 1, 4),
            (1 << 30, 8),
            (VARINT_MAX, 8),
        ];
        for (v, len) in edges {
            let mut w = Writer::new();
            w.varint(v);
            assert_eq!(w.len(), len, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "varint overflow")]
    fn varint_overflow_panics() {
        let mut w = Writer::new();
        w.varint(VARINT_MAX + 1);
    }

    #[test]
    fn reader_truncation_is_an_error() {
        let mut w = Writer::new();
        w.varint(100_000);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.varint().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn varint_prefixed_bytes() {
        let mut w = Writer::new();
        w.varint_bytes(b"hello");
        w.varint_bytes(b"");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint_bytes().unwrap(), b"hello");
        assert_eq!(r.varint_bytes().unwrap(), b"");
        assert!(r.is_empty());
    }

    #[test]
    fn fixed_width_primitives() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn peek_does_not_consume() {
        let bytes = [7u8, 8];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.peek_u8().unwrap(), 7);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.peek_u8().unwrap(), 8);
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn prop_varint_roundtrip() {
        check("prop_varint_roundtrip", 0u64..=VARINT_MAX, |&v| {
            prop_assert_eq!(roundtrip(v), v);
            Ok(())
        });
    }

    #[test]
    fn prop_varint_sequence_roundtrip() {
        check("prop_varint_sequence_roundtrip", vec_of(0u64..=VARINT_MAX, 0..64), |vs| {
            let mut w = Writer::new();
            for &v in vs {
                w.varint(v);
            }
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            for &v in vs {
                prop_assert_eq!(r.varint().unwrap(), v);
            }
            prop_assert!(r.is_empty());
            Ok(())
        });
    }
}
