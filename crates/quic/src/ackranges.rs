//! Sets of received packet numbers, kept as coalesced inclusive ranges.
//!
//! Used on the receive side only: to build ACK / ACK_MP frames and to
//! detect duplicate packets. The peer chooses the packet numbers, so the
//! set is capped and remembers a replay floor below what it forgot. (A send
//! stream's record of acknowledged bytes is its own, exact and uncapped:
//! every range in it is one the stream sent.) Ranges are stored sorted
//! ascending and always coalesced.

/// Hard cap on the number of distinct ranges tracked per set (§10
/// adversarial bound). A peer that sends packet numbers with huge gaps
/// grows one range per gap; past this cap the *oldest* (lowest) ranges
/// are evicted. Retained ranges are never altered, so every packet
/// number still reported was genuinely received — eviction only
/// forgets old acknowledgements, exactly like
/// [`AckRanges::forget_below`]. Honest peers never come close: ranges
/// only accumulate while ACK gaps persist, and recovery keeps the
/// in-flight window far below this.
pub const MAX_ACK_RANGES: usize = 256;

use xlink_obs::prof;

/// An inclusive packet-number range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PnRange {
    /// Smallest packet number in the range.
    pub start: u64,
    /// Largest packet number in the range.
    pub end: u64,
}

/// A set of packet numbers as coalesced ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckRanges {
    /// Sorted ascending, non-adjacent, non-overlapping.
    ranges: Vec<PnRange>,
    /// Ranges evicted by the [`MAX_ACK_RANGES`] cap (adversarial-load
    /// gauge; 0 in any honest exchange).
    evicted: u64,
    /// Replay floor: every pn below this was forgotten, evicted by the
    /// cap or pruned by [`forget_below`](AckRanges::forget_below). Such
    /// pns must keep reporting "duplicate" on re-insert — otherwise a
    /// replayed old datagram (same nonce, same pn) would be accepted and
    /// processed a second time once its range fell out of the set.
    floor: u64,
}

impl AckRanges {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one packet number. Returns `false` if the packet must be
    /// treated as a duplicate: already present, below the replay floor
    /// (its range was evicted — a replay must not be reprocessed), or
    /// refused because the set is at capacity and this pn would become
    /// the oldest range (admitting it would evict it again immediately;
    /// to the peer the refusal is indistinguishable from loss, and
    /// retransmission always uses fresh packet numbers).
    pub fn insert(&mut self, pn: u64) -> bool {
        let _prof = prof::span!("quic/ackranges");
        if pn < self.floor {
            return false; // evicted history: treat replays as duplicates
        }
        // Find first range with start > pn.
        let idx = self.ranges.partition_point(|r| r.start <= pn);
        // Check containment in the predecessor.
        if idx > 0 {
            let prev = &mut self.ranges[idx - 1];
            if pn <= prev.end {
                return false; // duplicate
            }
            if pn == prev.end + 1 {
                prev.end = pn;
                // Maybe merge with successor.
                if idx < self.ranges.len() && self.ranges[idx].start == pn + 1 {
                    self.ranges[idx - 1].end = self.ranges[idx].end;
                    self.ranges.remove(idx);
                }
                return true;
            }
        }
        // Maybe extend the successor downward.
        if idx < self.ranges.len() && pn + 1 == self.ranges[idx].start {
            self.ranges[idx].start = pn;
            return true;
        }
        if idx == 0 && self.ranges.len() >= MAX_ACK_RANGES {
            return false; // would be evicted straight away: refuse instead
        }
        self.ranges.insert(idx, PnRange { start: pn, end: pn });
        if self.ranges.len() > MAX_ACK_RANGES {
            // Evict the lowest range, raising the replay floor past it.
            let gone = self.ranges.remove(0);
            self.floor = self.floor.max(gone.end.saturating_add(1));
            self.evicted += 1;
        }
        true
    }

    /// How many ranges the [`MAX_ACK_RANGES`] cap has evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// True if `pn` is in the set.
    pub fn contains(&self, pn: u64) -> bool {
        let idx = self.ranges.partition_point(|r| r.start <= pn);
        idx > 0 && pn <= self.ranges[idx - 1].end
    }

    /// Largest packet number seen, if any.
    pub fn largest(&self) -> Option<u64> {
        self.ranges.last().map(|r| r.end)
    }

    /// Number of distinct ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// True if no packet has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate ranges in *descending* order (the order ACK frames encode
    /// them: largest range first).
    pub fn iter_descending(&self) -> impl ExactSizeIterator<Item = PnRange> + Clone + '_ {
        self.ranges.iter().rev().copied()
    }

    /// Iterate ranges ascending.
    pub fn iter(&self) -> impl Iterator<Item = PnRange> + '_ {
        self.ranges.iter().copied()
    }

    /// Drop state for packet numbers `<= upto` (used once the peer has
    /// confirmed it no longer needs older acknowledgements). They stay
    /// duplicates: the replay floor rises past them.
    pub fn forget_below(&mut self, upto: u64) {
        self.floor = self.floor.max(upto.saturating_add(1));
        self.ranges.retain_mut(|r| {
            if r.end <= upto {
                return false;
            }
            if r.start <= upto {
                r.start = upto + 1;
            }
            true
        });
    }

    /// Total count of packet numbers in the set.
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xlink_lab::prop::*;

    #[test]
    fn insert_coalesces_adjacent() {
        let mut s = AckRanges::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(s.range_count(), 2);
        assert!(s.insert(6)); // bridges the gap
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.largest(), Some(7));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duplicate_detection() {
        let mut s = AckRanges::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(4));
        assert!(!s.insert(3));
        assert!(!s.insert(4));
    }

    #[test]
    fn evicted_history_stays_duplicate() {
        // Saturate the cap with gapped pns, forcing the lowest ranges out.
        let mut s = AckRanges::new();
        for i in 0..(MAX_ACK_RANGES as u64 + 50) {
            assert!(s.insert(i * 2));
        }
        assert!(s.evicted() > 0);
        assert_eq!(s.range_count(), MAX_ACK_RANGES);
        // pn 0 was received, evicted, and must still count as a duplicate:
        // accepting a replayed datagram (same pn, same nonce) would
        // reprocess it.
        assert!(!s.contains(0));
        assert!(!s.insert(0));
        // A brand-new pn below the lowest retained range is refused
        // rather than admitted-and-immediately-evicted.
        assert!(!s.insert(1));
        assert_eq!(s.range_count(), MAX_ACK_RANGES);
    }

    #[test]
    fn contains_and_largest() {
        let mut s = AckRanges::new();
        for pn in [10, 11, 12, 20, 0] {
            s.insert(pn);
        }
        assert!(s.contains(0));
        assert!(s.contains(11));
        assert!(!s.contains(13));
        assert!(!s.contains(19));
        assert!(s.contains(20));
        assert_eq!(s.largest(), Some(20));
        assert_eq!(s.range_count(), 3);
    }

    #[test]
    fn descending_iteration_order() {
        let mut s = AckRanges::new();
        for pn in [1, 2, 9, 5] {
            s.insert(pn);
        }
        let ranges: Vec<_> = s.iter_descending().collect();
        assert_eq!(
            ranges,
            vec![
                PnRange { start: 9, end: 9 },
                PnRange { start: 5, end: 5 },
                PnRange { start: 1, end: 2 },
            ]
        );
    }

    #[test]
    fn forget_below_trims_and_drops() {
        let mut s = AckRanges::new();
        for pn in 0..10 {
            s.insert(pn);
        }
        s.insert(20);
        s.forget_below(5);
        assert!(!s.contains(5));
        assert!(s.contains(6));
        assert!(s.contains(20));
        assert_eq!(s.len(), 5);
        // Forgotten is not unseen: neither the pn next to the lowest range
        // kept nor one further down is accepted again.
        assert!(!s.insert(5) && !s.insert(2));
        assert_eq!(s.len(), 5);
        s.forget_below(100);
        assert!(s.is_empty());
        assert!(!s.insert(20) && s.insert(101));
    }

    #[test]
    fn cap_evicts_oldest_ranges() {
        let mut s = AckRanges::new();
        for i in 0..(MAX_ACK_RANGES as u64 + 50) {
            s.insert(i * 10); // every insert opens a new range
        }
        assert_eq!(s.range_count(), MAX_ACK_RANGES);
        assert_eq!(s.evicted(), 50);
        // Newest packet numbers survive; the oldest were forgotten.
        assert!(s.contains((MAX_ACK_RANGES as u64 + 49) * 10));
        assert!(!s.contains(0));
        // Retained ranges are exact: nothing in between was fabricated.
        assert!(!s.contains(15));
    }

    #[test]
    fn prop_matches_btreeset_model() {
        check("prop_matches_btreeset_model", vec_of(0u64..200, 0..300), |pns| {
            let mut s = AckRanges::new();
            let mut model = BTreeSet::new();
            for &pn in pns {
                let fresh = s.insert(pn);
                let model_fresh = model.insert(pn);
                prop_assert_eq!(fresh, model_fresh);
            }
            prop_assert_eq!(s.len(), model.len() as u64);
            prop_assert_eq!(s.largest(), model.iter().next_back().copied());
            for pn in 0u64..200 {
                prop_assert_eq!(s.contains(pn), model.contains(&pn));
            }
            // Invariant: sorted, coalesced, non-overlapping.
            let rs: Vec<_> = s.iter().collect();
            for w in rs.windows(2) {
                prop_assert!(w[0].end + 1 < w[1].start);
            }
            Ok(())
        });
    }
}
