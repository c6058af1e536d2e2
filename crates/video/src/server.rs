//! The media store a CDN edge server serves video ranges from.
//!
//! Bodies are generated deterministically (byte at offset `o` of object
//! `name` is a pure function of both), so clients can verify end-to-end
//! integrity without the store shipping real media. The store also knows
//! each video's frame layout so the server endpoint can tag the first
//! video frame's bytes with the highest frame priority (the paper's
//! first-video-frame acceleration, §5.1).

use crate::model::Video;
use std::collections::HashMap;

/// The body byte at offset `o` mixes in `o · GOLDEN` (wrapping).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

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
        Self::byte_at(Self::name_hash(object), off)
    }

    /// The bytes `start..end` of `object`, each as [`MediaStore::body_byte`]
    /// defines it, with the name hashed once for the whole range and the
    /// offset's product stepped by addition. No store is consulted, so
    /// nothing is clamped.
    pub fn body_bytes(object: &str, start: u64, end: u64) -> Vec<u8> {
        let name = Self::name_hash(object);
        let mut product = start.wrapping_mul(GOLDEN);
        (start..end)
            .map(|_| {
                let byte = Self::mix(name ^ product);
                product = product.wrapping_add(GOLDEN);
                byte
            })
            .collect()
    }

    /// FNV-1a over the object name.
    fn name_hash(object: &str) -> u64 {
        object
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    fn byte_at(name_hash: u64, off: u64) -> u8 {
        Self::mix(name_hash ^ off.wrapping_mul(GOLDEN))
    }

    fn mix(h: u64) -> u8 {
        ((h ^ (h >> 29)) & 0xff) as u8
    }

    /// Materialize the body bytes for a range of an object. Returns None
    /// for unknown objects; the range is clamped to the object size.
    pub fn body_range(&self, object: &str, start: u64, end: u64) -> Option<Vec<u8>> {
        let v = self.videos.get(object)?;
        Some(Self::body_bytes(object, start, end.min(v.total_bytes())))
    }

    /// End of the first video frame for an object (0 if unknown).
    pub fn first_frame_end(&self, object: &str) -> u64 {
        self.videos.get(object).map(|v| v.first_frame_bytes()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MediaStore {
        let mut s = MediaStore::new();
        s.insert("v1", Video::from_frames(10, 80_000, vec![1000; 10]));
        s
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
            assert_eq!(MediaStore::body_bytes("v1", start, end), per_byte);
        }
        // Past the end: clamped by the store, not by the filler.
        assert_eq!(s.body_range("v1", 9_990, 10_500).unwrap().len(), 10);
        assert_eq!(MediaStore::body_bytes("v1", 9_990, 10_500).len(), 510);
        // The stepped product wraps where the per-byte one does: across 2^32
        // and up to the last offset a u64 range reaches.
        for (start, end) in [((1 << 32) - 300, (1 << 32) + 300), (u64::MAX - 15, u64::MAX)] {
            let per_byte: Vec<u8> = (start..end).map(|o| MediaStore::body_byte("v1", o)).collect();
            assert_eq!(MediaStore::body_bytes("v1", start, end), per_byte);
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
    fn first_frame_end_reported() {
        let s = store();
        assert_eq!(s.first_frame_end("v1"), 1000);
        assert_eq!(s.first_frame_end("nope"), 0);
    }
}
