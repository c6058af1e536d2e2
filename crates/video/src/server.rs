//! The media store a CDN edge server serves video ranges from.
//!
//! Bodies are generated deterministically: object `name` is the synthetic
//! [`payload`] at the phase its name hashes to, so clients can verify
//! end-to-end integrity without the store shipping real media, and a body
//! is made and checked by table copy and compare. The store also knows
//! each video's frame layout so the server endpoint can tag the first
//! video frame's bytes with the highest frame priority (the paper's
//! first-video-frame acceleration, §5.1).

use crate::model::Video;
use std::collections::HashMap;
use std::ops::Range;
use xlink_lab::payload;

/// A named collection of video objects.
#[derive(Debug, Default)]
pub struct MediaStore {
    videos: HashMap<String, Video>,
}

impl MediaStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a video under a name.
    pub fn insert(&mut self, name: &str, video: Video) {
        self.videos.insert(name.to_string(), video);
    }

    /// Look up a video.
    pub fn get(&self, name: &str) -> Option<&Video> {
        self.videos.get(name)
    }

    /// Deterministic body byte for `object` at absolute offset `off`.
    pub fn body_byte(object: &str, off: u64) -> u8 {
        payload::byte(Self::phase(object), off)
    }

    /// Append the bytes `range` of `object` to `out`, each as
    /// [`MediaStore::body_byte`] defines it. No store is consulted, so
    /// nothing is clamped.
    pub fn extend_body(object: &str, range: Range<u64>, out: &mut Vec<u8>) {
        payload::extend(Self::phase(object), range, out);
    }

    /// Whether `data` is the body of `object` from offset `start` on: a
    /// client checks each piece of a response as it arrives.
    pub fn body_matches(object: &str, start: u64, data: &[u8]) -> bool {
        payload::matches(Self::phase(object), start, data)
    }

    /// The payload phase of an object ([`payload`]): FNV-1a over its name.
    /// A server writes a body with it, and the stream lends the body from
    /// the payload table as it sends it.
    pub fn phase(object: &str) -> u64 {
        object
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// The bytes of `object` a request for `start..end` gets: the range
    /// clamped to the object size (empty if it starts past the end). None
    /// for unknown objects.
    pub fn clamp_range(&self, object: &str, start: u64, end: u64) -> Option<Range<u64>> {
        let v = self.videos.get(object)?;
        Some(start..end.min(v.total_bytes()).max(start))
    }

    /// Materialize the body bytes for a range of an object: the bytes of
    /// [`MediaStore::clamp_range`]. Returns None for unknown objects.
    pub fn body_range(&self, object: &str, start: u64, end: u64) -> Option<Vec<u8>> {
        let mut body = Vec::new();
        Self::extend_body(object, self.clamp_range(object, start, end)?, &mut body);
        Some(body)
    }

    /// End of the first video frame for an object (0 if unknown).
    pub fn first_frame_end(&self, object: &str) -> u64 {
        self.videos.get(object).map(|v| v.first_frame_bytes()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_quic::stream::{SendRange, SendStream};

    fn store() -> MediaStore {
        let mut s = MediaStore::new();
        s.insert("v1", Video::from_frames(10, 80_000, vec![1000; 10]));
        s
    }

    /// `start..end` of "v1" generated, unclamped.
    fn generated(start: u64, end: u64) -> Vec<u8> {
        let mut out = Vec::new();
        MediaStore::extend_body("v1", start..end, &mut out);
        out
    }

    #[test]
    fn body_bytes_deterministic_and_object_specific() {
        assert_eq!(MediaStore::body_byte("a", 5), MediaStore::body_byte("a", 5));
        let same = (0..64)
            .filter(|&o| MediaStore::body_byte("a", o) == MediaStore::body_byte("b", o))
            .count();
        assert!(same < 20, "objects should differ: {same}/64 equal");
    }

    #[test]
    fn body_range_is_the_per_byte_definition() {
        let s = store();
        for (start, end) in [(0, 1), (7, 7), (13, 1_031), (4_095, 4_097), (9_990, 10_000)] {
            let per_byte: Vec<u8> = (start..end).map(|o| MediaStore::body_byte("v1", o)).collect();
            assert_eq!(s.body_range("v1", start, end).unwrap(), per_byte);
            assert_eq!(generated(start, end), per_byte);
        }
        // Past the end: clamped by the store, not by the filler.
        assert_eq!(s.body_range("v1", 9_990, 10_500).unwrap().len(), 10);
        assert_eq!(generated(9_990, 10_500).len(), 510);
        // The stepped product wraps where the per-byte one does: across 2^32
        // and up to the last offset a u64 range reaches.
        for (start, end) in [((1 << 32) - 300, (1 << 32) + 300), (u64::MAX - 15, u64::MAX)] {
            let per_byte: Vec<u8> = (start..end).map(|o| MediaStore::body_byte("v1", o)).collect();
            assert_eq!(generated(start, end), per_byte);
        }
        // Lent by the stream that sends it, the way a server answers: a
        // header, then the body of each chunk request, its first-frame span
        // tagged. Chunks shorter and longer than the first frame (1 000
        // bytes here), and a last one the store clamps: every body byte
        // taken is still the per-byte one.
        let first_frame = s.first_frame_end("v1");
        for chunk in [700, 2_500, 4_096] {
            for start in (0..10_000).step_by(chunk) {
                let body = s.clamp_range("v1", start, start + chunk as u64).unwrap();
                let split = body.start.max(first_frame.min(body.end));
                let mut stream = SendStream::new(u64::MAX);
                stream.write(b"200 0 1000\n");
                let len = body.end - body.start;
                let range = stream.write_with(len, MediaStore::phase("v1"), body.start);
                let urgent =
                    SendRange { start: range.start, end: range.start + split - body.start };
                stream.set_priority(urgent, 0);
                let mut sent = Vec::new();
                while let Some((_, data, _)) = stream.take_chunk(1_200) {
                    sent.extend(data);
                }
                let per_byte: Vec<u8> =
                    body.clone().map(|o| MediaStore::body_byte("v1", o)).collect();
                assert_eq!(
                    &sent[range.start as usize..],
                    &per_byte[..],
                    "chunk {chunk} at {start}"
                );
                let offset = |o: u64| range.start + o - body.start;
                assert!((body.start..split).all(|o| stream.priority_of(offset(o)) == 0));
                assert!((split..body.end).all(|o| stream.priority_of(offset(o)) != 0));
            }
        }
    }

    #[test]
    fn range_clamped_to_object() {
        let s = store();
        let body = s.body_range("v1", 9_000, 99_999).unwrap();
        assert_eq!(body.len(), 1000);
        assert!(s.body_range("nope", 0, 10).is_none());
        assert_eq!(s.body_range("v1", 50, 50).unwrap().len(), 0);
    }

    #[test]
    fn range_bytes_match_absolute_offsets() {
        let s = store();
        let a = s.body_range("v1", 0, 100).unwrap();
        let b = s.body_range("v1", 50, 150).unwrap();
        assert_eq!(&a[50..], &b[..50]);
    }

    #[test]
    fn body_matches_only_the_object_at_its_offset() {
        let body = generated(300, 2_000);
        assert!(MediaStore::body_matches("v1", 300, &body));
        assert!(MediaStore::body_matches("v1", 1_000, &body[700..]));
        assert!(!MediaStore::body_matches("v1", 301, &body));
        assert!(!MediaStore::body_matches("v2", 300, &body));
        let mut bad = body.clone();
        bad[1_234] ^= 0x10;
        assert!(!MediaStore::body_matches("v1", 300, &bad));
    }

    #[test]
    fn first_frame_end_reported() {
        let s = store();
        assert_eq!(s.first_frame_end("v1"), 1000);
        assert_eq!(s.first_frame_end("nope"), 0);
    }
}
