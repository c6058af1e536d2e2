//! An ordered map in one sorted ring buffer: lookups by binary search,
//! inserts and removals moving the entries on the shorter side. The maps
//! the connection keeps are windows — entries arrive near one end and
//! leave near the other — so an operation moves a few entries and, once
//! the buffer has grown, allocates nothing, where a B-tree allocates and
//! frees a node every few entries.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

/// See the module documentation.
#[derive(Debug, Clone)]
pub struct SortedMap<K, V> {
    /// Ascending by key, keys unique.
    entries: VecDeque<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap { entries: VecDeque::new() }
    }
}

impl<K: Ord, V> SortedMap<K, V> {
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Insert or replace; returns the value replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        self.entries.remove(i).map(|(_, v)| v)
    }

    /// The value of `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value of `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Entries the map has room for without growing.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// True if `key` is in the map.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry, ascending.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Every value, by ascending key.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The entries whose keys lie in `range`, ascending (none if it is
    /// empty or inverted).
    pub fn range(&self, range: impl RangeBounds<K>) -> impl DoubleEndedIterator<Item = (&K, &V)> {
        let first_from = |b: &K| self.entries.partition_point(|(k, _)| k < b);
        let first_after = |b: &K| self.entries.partition_point(|(k, _)| k <= b);
        let start = match range.start_bound() {
            Bound::Included(b) => first_from(b),
            Bound::Excluded(b) => first_after(b),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(b) => first_after(b),
            Bound::Excluded(b) => first_from(b),
            Bound::Unbounded => self.entries.len(),
        };
        self.entries.range(start..end.max(start)).map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use xlink_lab::prop::*;

    /// Against `BTreeMap` under random inserts, removals, replacements and
    /// range queries of every bound kind.
    #[test]
    fn prop_sorted_map_is_a_btree_map() {
        let ops = vec_of((0u8..4, 0u32..64, 0u32..64), 0..200);
        check("prop_sorted_map_is_a_btree_map", ops, |ops| {
            let (mut sorted, mut btree) = (SortedMap::default(), BTreeMap::new());
            for &(kind, a, b) in ops {
                match kind {
                    0 | 1 => prop_assert_eq!(sorted.insert(a, b), btree.insert(a, b)),
                    2 => prop_assert_eq!(sorted.remove(&a), btree.remove(&a)),
                    _ => {
                        let (lo, hi) = (a.min(b), a.max(b));
                        let bounds = [
                            (Bound::Included(lo), Bound::Excluded(hi)),
                            (Bound::Excluded(lo), Bound::Included(hi)),
                            (Bound::Included(lo), Bound::Unbounded),
                            (Bound::Unbounded, Bound::Included(hi)),
                            (Bound::Excluded(lo), Bound::Excluded(hi)),
                        ];
                        for bound in bounds {
                            if lo == hi && bound == (Bound::Excluded(lo), Bound::Excluded(hi)) {
                                continue; // BTreeMap panics on this one
                            }
                            let got: Vec<_> = sorted.range(bound).collect();
                            prop_assert_eq!(got, btree.range(bound).collect::<Vec<_>>());
                        }
                    }
                }
                prop_assert_eq!(sorted.get(&a), btree.get(&a));
                prop_assert_eq!(sorted.contains_key(&b), btree.contains_key(&b));
                prop_assert_eq!(
                    sorted.iter().collect::<Vec<_>>(),
                    btree.iter().collect::<Vec<_>>()
                );
            }
            Ok(())
        });
    }
}
