//! A trace's delivery opportunities, stored as one count per millisecond.

use std::sync::Arc;

/// Delivery opportunities as one `u16` count per millisecond: entry `ms`
/// is how many 1500-byte quanta may leave during millisecond `ms`. Trailing
/// empty milliseconds are trimmed, so the length is the period a replay
/// loops with (last opportunity + 1), and an empty trace has no entries.
///
/// The counts live behind an `Arc`: cloning — and wiring one trace into
/// any number of simulated links — shares one allocation. There is no
/// `FromIterator` on purpose: a list of timestamps goes through
/// [`Opportunities::from_timestamps`] and is never read as counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Opportunities(Arc<[u16]>);

impl Opportunities {
    /// Count millisecond timestamps, in any order (a repeat is one more
    /// opportunity in that millisecond).
    ///
    /// # Panics
    /// If one millisecond would hold more than `u16::MAX` opportunities.
    pub fn from_timestamps(ms: impl IntoIterator<Item = u64>) -> Self {
        let mut counts = Vec::new();
        for t in ms {
            count_one(&mut counts, t).unwrap_or_else(|e| panic!("{e}"));
        }
        Self::from_counts(counts)
    }

    /// Take per-millisecond counts as they are, trailing empty
    /// milliseconds trimmed.
    pub(crate) fn from_counts(mut counts: Vec<u16>) -> Self {
        let period = counts.iter().rposition(|&c| c != 0).map_or(0, |last| last + 1);
        counts.truncate(period);
        Opportunities(counts.into())
    }

    /// The count of each millisecond of one period.
    pub fn counts(&self) -> &[u16] {
        &self.0
    }

    /// The period a replay loops with: last opportunity + 1, or 0 for an
    /// empty trace.
    pub fn period_ms(&self) -> u64 {
        self.0.len() as u64
    }

    /// True if the trace grants no opportunity at all.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The first millisecond from `ms` on (within one period) that holds
    /// an opportunity: a scan over the empty ones.
    pub fn next_busy_ms(&self, ms: usize) -> Option<usize> {
        self.0.get(ms..)?.iter().position(|&c| c != 0).map(|i| ms + i)
    }

    /// Opportunities in one period.
    pub fn len(&self) -> u64 {
        self.0.iter().map(|&c| u64::from(c)).sum()
    }

    /// The opportunities of one period as sorted millisecond timestamps
    /// (the Mahimahi form).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let at = |(ms, &c): (usize, &u16)| std::iter::repeat_n(ms as u64, usize::from(c));
        self.0.iter().enumerate().flat_map(at)
    }

    /// Opportunities in `[start_ms, end_ms)` of the looped trace, in time
    /// proportional to the window.
    pub fn count_between(&self, start_ms: u64, end_ms: u64) -> u64 {
        let period = self.period_ms();
        if period == 0 {
            return 0;
        }
        let (mut count, mut t) = (0, start_ms);
        while t < end_ms {
            let from = t % period;
            let to = period.min(from + (end_ms - t));
            count += self.0[from as usize..to as usize].iter().map(|&c| u64::from(c)).sum::<u64>();
            t += to - from;
        }
        count
    }

    /// Bytes the counts take on the heap, the `Arc`'s two counters
    /// included.
    pub fn heap_bytes(&self) -> u64 {
        (std::mem::size_of_val::<[u16]>(&self.0) + 2 * std::mem::size_of::<usize>()) as u64
    }
}

/// One more opportunity at millisecond `ms`.
pub(crate) fn count_one(counts: &mut Vec<u16>, ms: u64) -> Result<(), String> {
    let at = usize::try_from(ms).map_err(|_| format!("millisecond {ms} is out of range"))?;
    if at >= counts.len() {
        counts.resize(at + 1, 0);
    }
    counts[at] = counts[at]
        .checked_add(1)
        .ok_or_else(|| format!("more than {} opportunities in millisecond {ms}", u16::MAX))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_lab::prop::*;

    #[test]
    fn timestamps_come_back_sorted() {
        check("timestamps_come_back_sorted", vec_of(0u64..300, 0..60), |ts| {
            let mut sorted = ts.clone();
            sorted.sort_unstable();
            let opps = Opportunities::from_timestamps(ts.iter().copied());
            prop_assert_eq!(opps.iter().collect::<Vec<_>>(), sorted.clone());
            prop_assert_eq!(opps.len(), sorted.len() as u64);
            prop_assert_eq!(opps.period_ms(), sorted.last().map_or(0, |l| l + 1));
            prop_assert_eq!(opps.is_empty(), sorted.is_empty());
            Ok(())
        });
    }

    #[test]
    fn trailing_empty_milliseconds_are_trimmed() {
        let opps = Opportunities::from_counts(vec![0, 2, 0, 1, 0, 0]);
        assert_eq!(opps.counts(), &[0, 2, 0, 1]);
        assert_eq!(Opportunities::from_counts(vec![0; 5]), Opportunities::default());
    }

    #[test]
    #[should_panic(expected = "more than 65535 opportunities in millisecond 3")]
    fn an_overfull_millisecond_panics() {
        Opportunities::from_timestamps(std::iter::repeat_n(3, 65_536));
    }

    #[test]
    fn a_full_millisecond_is_kept() {
        let opps = Opportunities::from_timestamps(std::iter::repeat_n(3, 65_535));
        assert_eq!(opps.counts(), &[0, 0, 0, u16::MAX]);
    }

    /// The windowed count against the definition it replaces: every loop
    /// the window touches, every timestamp of the trace tested against it.
    #[test]
    fn the_windowed_count_is_the_count_over_every_loop() {
        let case = (vec_of(0u64..50, 0..30), 0u64..400, 0u64..400);
        check("the_windowed_count_is_the_count_over_every_loop", case, |(ts, a, b)| {
            let mut ts = ts.clone();
            ts.sort_unstable();
            let opps = Opportunities::from_timestamps(ts.iter().copied());
            let (start, end) = (*a.min(b), *a.max(b));
            let mut expected = 0u64;
            if let Some(last) = ts.last() {
                let period = last + 1;
                for l in start / period..=end / period {
                    expected +=
                        ts.iter().filter(|&&t| (start..end).contains(&(l * period + t))).count()
                            as u64;
                }
            }
            prop_assert_eq!(opps.count_between(start, end), expected);
            Ok(())
        });
    }
}
