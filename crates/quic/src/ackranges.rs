//! Sets of received packet numbers, held in the crate's one coalescing
//! range set (`ranges::RangeSet`).
//!
//! Used on the receive side only: to build ACK / ACK_MP frames and to
//! detect duplicate packets. The peer chooses the packet numbers, so the
//! set is capped and remembers a replay floor below what it forgot. (A send
//! stream's record of acknowledged bytes is a `RangeSet` of its own,
//! exact and uncapped: every range in it is one the stream sent.) Packet
//! number `pn` is stored as the range `pn..pn + 1`, so the set's merge of
//! ranges that touch is the coalescing of consecutive packet numbers.

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

use crate::ranges::RangeSet;
use crate::stream::SendRange;
use xlink_obs::prof;

/// An inclusive packet-number range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PnRange {
    /// Smallest packet number in the range.
    pub start: u64,
    /// Largest packet number in the range.
    pub end: u64,
}

/// The packet numbers `r` holds, `r.start..r.end`, as an inclusive range.
fn inclusive(r: SendRange) -> PnRange {
    PnRange { start: r.start, end: r.end - 1 }
}

/// A set of packet numbers as coalesced ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckRanges {
    /// The packet numbers, at most [`MAX_ACK_RANGES`] ranges of them.
    set: RangeSet,
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
        if pn < self.floor || self.set.contains(pn) {
            return false;
        }
        let at_cap = self.set.range_count() >= MAX_ACK_RANGES;
        if at_cap && self.set.first().is_some_and(|lowest| pn + 1 < lowest.start) {
            return false; // would be evicted straight away: refuse instead
        }
        self.set.insert(SendRange { start: pn, end: pn + 1 });
        if self.set.range_count() > MAX_ACK_RANGES {
            // Evict the lowest range, raising the replay floor past it.
            let gone = self.set.first().expect("over the cap");
            self.set.remove_below(gone.end);
            self.floor = self.floor.max(gone.end);
            self.evicted += 1;
        }
        true
    }

    /// How many ranges the [`MAX_ACK_RANGES`] cap has evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Largest packet number seen, if any.
    pub fn largest(&self) -> Option<u64> {
        self.set.iter().next_back().map(|r| r.end - 1)
    }

    /// Number of distinct ranges.
    pub fn range_count(&self) -> usize {
        self.set.range_count()
    }

    /// Iterate ranges in *descending* order (the order ACK frames encode
    /// them: largest range first).
    pub fn iter_descending(&self) -> impl ExactSizeIterator<Item = PnRange> + Clone + '_ {
        self.set.iter().rev().map(inclusive)
    }

    /// Iterate ranges ascending.
    pub fn iter(&self) -> impl Iterator<Item = PnRange> + '_ {
        self.set.iter().map(inclusive)
    }

    /// Drop state for packet numbers `<= upto` (used once the peer has
    /// confirmed it no longer needs older acknowledgements). They stay
    /// duplicates: the replay floor rises past them.
    pub fn forget_below(&mut self, upto: u64) {
        self.floor = self.floor.max(upto.saturating_add(1));
        self.set.remove_below(self.floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xlink_lab::prop::*;

    /// The packet numbers in the set, ascending.
    fn pns(s: &AckRanges) -> Vec<u64> {
        s.iter().flat_map(|r| r.start..=r.end).collect()
    }

    #[test]
    fn insert_coalesces_adjacent() {
        let mut s = AckRanges::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(s.range_count(), 2);
        assert!(s.insert(6)); // bridges the gap
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.largest(), Some(7));
        assert_eq!(pns(&s), [5, 6, 7]);
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
        assert!(!pns(&s).contains(&0));
        assert!(!s.insert(0));
        // A brand-new pn below the lowest retained range is refused
        // rather than admitted-and-immediately-evicted.
        assert!(!s.insert(1));
        assert_eq!(s.range_count(), MAX_ACK_RANGES);
    }

    #[test]
    fn members_and_largest() {
        let mut s = AckRanges::new();
        for pn in [10, 11, 12, 20, 0] {
            s.insert(pn);
        }
        assert_eq!(pns(&s), [0, 10, 11, 12, 20]);
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
        assert_eq!(pns(&s), [6, 7, 8, 9, 20]);
        // Forgotten is not unseen: neither the pn next to the lowest range
        // kept nor one further down is accepted again.
        assert!(!s.insert(5) && !s.insert(2));
        assert_eq!(pns(&s), [6, 7, 8, 9, 20]);
        s.forget_below(100);
        assert_eq!(s.iter().next(), None);
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
        // Retained ranges are exact: nothing in between was fabricated.
        let kept = (50..MAX_ACK_RANGES as u64 + 50).map(|i| i * 10);
        assert_eq!(pns(&s), kept.collect::<Vec<_>>());
    }

    #[test]
    fn prop_matches_btreeset_model() {
        check("prop_matches_btreeset_model", vec_of(0u64..200, 0..300), |inserts| {
            let mut s = AckRanges::new();
            let mut model = BTreeSet::new();
            for &pn in inserts {
                let fresh = s.insert(pn);
                let model_fresh = model.insert(pn);
                prop_assert_eq!(fresh, model_fresh);
            }
            prop_assert_eq!(pns(&s), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(s.largest(), model.iter().next_back().copied());
            // Invariant: sorted, coalesced, non-overlapping.
            let rs: Vec<_> = s.iter().collect();
            for w in rs.windows(2) {
                prop_assert!(w[0].end + 1 < w[1].start);
            }
            Ok(())
        });
    }
}
