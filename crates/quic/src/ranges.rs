//! Sets of `u64`s kept as sorted, coalesced ranges with exclusive ends
//! ([`SendRange`]), with one merging insert. A send stream's queue and its
//! record of acknowledged bytes are such sets, exact and uncapped (the
//! peer grows neither); [`crate::ackranges::AckRanges`] holds the received
//! packet numbers in one, under a cap and a replay floor.

use crate::stream::SendRange;
use std::iter::once;
use std::ops::Range;

/// A set of `u64`s as ranges with exclusive ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RangeSet {
    /// Ascending, non-empty, neither overlapping nor touching.
    ranges: Vec<SendRange>,
}

impl RangeSet {
    /// Add the values of `range`, merging with the ranges it overlaps or
    /// touches.
    pub(crate) fn insert(&mut self, range: SendRange) {
        if range.is_empty() {
            return;
        }
        let from = self.ranges.partition_point(|r| r.end < range.start);
        let to = self.ranges.partition_point(|r| r.start <= range.end);
        if from == to {
            return self.ranges.insert(from, range);
        }
        let start = range.start.min(self.ranges[from].start);
        let end = range.end.max(self.ranges[to - 1].end);
        self.ranges[from] = SendRange { start, end };
        self.ranges.drain(from + 1..to);
    }

    /// Drop every value below `to`.
    pub(crate) fn remove_below(&mut self, to: u64) {
        let gone = self.ranges.partition_point(|r| r.end <= to);
        self.ranges.drain(..gone);
        if let Some(first) = self.ranges.first_mut() {
            first.start = first.start.max(to);
        }
    }

    /// True if `value` is in the set.
    pub(crate) fn contains(&self, value: u64) -> bool {
        let after = self.ranges.partition_point(|r| r.start <= value);
        after > 0 && value < self.ranges[after - 1].end
    }

    /// The lowest range.
    pub(crate) fn first(&self) -> Option<SendRange> {
        self.ranges.first().copied()
    }

    /// How many ranges the set is.
    pub(crate) fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// The ranges, ascending.
    pub(crate) fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = SendRange> + ExactSizeIterator + Clone + '_ {
        self.ranges.iter().copied()
    }

    /// The runs of `within` the set does not hold, ascending: before,
    /// between and after the ranges that end inside it.
    pub(crate) fn gaps(&self, within: Range<u64>) -> impl Iterator<Item = SendRange> + '_ {
        let held = &self.ranges[self.ranges.partition_point(|r| r.end <= within.start)..];
        let starts = once(within.start).chain(held.iter().map(|r| r.end));
        let ends = held.iter().map(move |r| r.start.min(within.end)).chain(once(within.end));
        let gaps = starts.zip(ends).take_while(move |&(start, _)| start < within.end);
        gaps.filter(|&(start, end)| start < end).map(|(start, end)| SendRange { start, end })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xlink_lab::prop::*;

    fn range(start: u64, end: u64) -> SendRange {
        SendRange { start, end }
    }

    #[test]
    fn inserts_merge_what_overlaps_or_touches() {
        let mut s = RangeSet::default();
        for (start, end) in [(5, 9), (0, 2), (11, 15), (2, 4), (9, 11), (20, 21), (30, 30)] {
            s.insert(range(start, end));
        }
        assert_eq!(s.ranges, [range(0, 4), range(5, 15), range(20, 21)]);
        let gaps: Vec<_> = s.gaps(1..25).collect();
        assert_eq!(gaps, [range(4, 5), range(15, 20), range(21, 25)]);
        s.remove_below(7);
        assert_eq!(s.ranges, [range(7, 15), range(20, 21)]);
    }

    /// Inserts, removals below an offset, membership and gaps against a
    /// set of offsets; the ranges stay ascending, apart and non-empty.
    #[test]
    fn prop_the_set_is_its_offsets() {
        let ops = vec_of((0u8..4, 0u64..300, 0u64..40), 0..60);
        check("prop_the_set_is_its_offsets", ops, |ops| {
            let (mut s, mut model) = (RangeSet::default(), BTreeSet::new());
            for &(kind, start, len) in ops {
                if kind == 0 {
                    s.remove_below(start);
                    model.retain(|&o| o >= start);
                } else {
                    s.insert(range(start, start + len));
                    model.extend(start..start + len);
                }
                for w in s.ranges.iter().collect::<Vec<_>>().windows(2) {
                    prop_assert!(w[0].end < w[1].start, "{:?}", s.ranges);
                }
                prop_assert!(s.ranges.iter().all(|r| !r.is_empty()));
                prop_assert_eq!(s.first().map(|r| r.start), model.first().copied());
                let gaps: Vec<u64> =
                    s.gaps(start..start + 3 * len).flat_map(|r| r.start..r.end).collect();
                let model_gaps = (start..start + 3 * len).filter(|o| !model.contains(o));
                prop_assert_eq!(gaps, model_gaps.collect::<Vec<_>>());
                let every_gap = s.gaps(0..360).flat_map(|r| r.start..r.end);
                prop_assert!(every_gap.eq((0..360).filter(|o| !model.contains(o))));
                prop_assert!((0..360).all(|o| s.contains(o) == model.contains(&o)));
            }
            Ok(())
        });
    }
}
