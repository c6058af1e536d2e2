//! Wake-up bookkeeping for an [`Endpoint`](crate::Endpoint) that
//! multiplexes many connections behind one address.
//!
//! [`World`](crate::World) reads an endpoint's earliest timer in every
//! round and asks it for its next datagram after every input. An endpoint
//! holding N connections that answers by asking each of them makes every
//! round cost N, and a population run quadratic. [`Wakeups`] keeps the
//! two answers incrementally instead, keyed by the endpoint's own slot
//! numbers:
//!
//! - a **ready set** of slots that may have something to send. A slot
//!   enters on any input to its connection and leaves when the connection
//!   reports it has nothing to send — which stays true until the next
//!   input, so nobody need ask again;
//! - a **deadline index**: each slot's current timer, plus the same
//!   timers ordered by time, so the earliest is the first entry and the
//!   due ones are a prefix.
//!
//! Both hand slots back in ascending slot order (cyclically from a cursor
//! for the ready set), which is the order a scan over all slots visits
//! them — an endpoint that switches from scanning to this structure sends
//! and fires in exactly the order it did before.

use std::collections::BTreeSet;
use xlink_clock::Instant;

/// The ready set and the deadline index of one multiplexing endpoint.
#[derive(Debug, Default)]
pub struct Wakeups {
    ready: BTreeSet<usize>,
    /// Each slot's current deadline (slots beyond the end have none).
    at: Vec<Option<Instant>>,
    /// The same deadlines ordered by time, then slot.
    index: BTreeSet<(Instant, usize)>,
}

impl Wakeups {
    /// `slot` got an input and may now have something to send.
    pub fn mark_ready(&mut self, slot: usize) {
        self.ready.insert(slot);
    }

    /// `slot` reported nothing to send; skip it until its next input.
    pub fn sleep(&mut self, slot: usize) {
        self.ready.remove(&slot);
    }

    /// The first ready slot at or after `from`, wrapping to the lowest
    /// ready slot when there is none: the next stop of a round-robin scan
    /// whose cursor stands at `from`.
    pub fn next_ready(&self, from: usize) -> Option<usize> {
        self.ready.range(from..).next().or_else(|| self.ready.first()).copied()
    }

    /// File `slot`'s timer as `deadline`, replacing whatever was filed.
    /// Call after anything that can move it: an input, a send (which arms
    /// loss timers), a fired timer.
    pub fn set_deadline(&mut self, slot: usize, deadline: Option<Instant>) {
        if slot >= self.at.len() {
            if deadline.is_none() {
                return;
            }
            self.at.resize(slot + 1, None);
        }
        let old = std::mem::replace(&mut self.at[slot], deadline);
        if old == deadline {
            return;
        }
        if let Some(t) = old {
            self.index.remove(&(t, slot));
        }
        if let Some(t) = deadline {
            self.index.insert((t, slot));
        }
    }

    /// The earliest deadline over all slots.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.index.first().map(|&(t, _)| t)
    }

    /// Slots whose deadline is at or before `now`, in ascending slot order.
    pub fn due(&self, now: Instant) -> Vec<usize> {
        let mut slots: Vec<usize> =
            self.index.range(..=(now, usize::MAX)).map(|&(_, slot)| slot).collect();
        slots.sort_unstable();
        slots
    }

    /// Forget `slot` entirely (its connection is gone).
    pub fn remove(&mut self, slot: usize) {
        self.ready.remove(&slot);
        self.set_deadline(slot, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_lab::prop::*;

    const SLOTS: usize = 12;

    /// What a scanning endpoint keeps: one flag and one timer per slot.
    #[derive(Default)]
    struct Naive {
        ready: [bool; SLOTS],
        deadline: [Option<Instant>; SLOTS],
    }

    impl Naive {
        fn next_ready(&self, from: usize) -> Option<usize> {
            (0..SLOTS).map(|i| (from + i) % SLOTS).find(|&s| self.ready[s])
        }

        fn due(&self, now: Instant) -> Vec<usize> {
            (0..SLOTS).filter(|&s| self.deadline[s].is_some_and(|t| t <= now)).collect()
        }

        fn next_deadline(&self) -> Option<Instant> {
            self.deadline.iter().flatten().min().copied()
        }
    }

    /// Random operation sequences against the scan: same cyclic order,
    /// same due list, same minimum after every step.
    #[test]
    fn wakeups_match_a_naive_scan() {
        // (operation, slot, time in ms); times collide often on purpose.
        let ops = vec_of((0u8..6, 0usize..SLOTS, 0u64..8), 0..200);
        check("wakeups_match_a_naive_scan", ops, |ops| {
            let (mut w, mut n) = (Wakeups::default(), Naive::default());
            for &(op, slot, ms) in ops {
                let t = Instant::from_millis(ms);
                match op {
                    0 => {
                        w.mark_ready(slot);
                        n.ready[slot] = true;
                    }
                    1 => {
                        w.sleep(slot);
                        n.ready[slot] = false;
                    }
                    2 => {
                        w.set_deadline(slot, Some(t));
                        n.deadline[slot] = Some(t);
                    }
                    3 => {
                        w.set_deadline(slot, None);
                        n.deadline[slot] = None;
                    }
                    4 => {
                        w.remove(slot);
                        n.ready[slot] = false;
                        n.deadline[slot] = None;
                    }
                    _ => {
                        // Drain the ready set the way `poll_transmit` does:
                        // every stop reports nothing to send.
                        let mut order = Vec::new();
                        while let Some(s) = w.next_ready(slot) {
                            order.push(s);
                            w.sleep(s);
                        }
                        let mut want = Vec::new();
                        while let Some(s) = n.next_ready(slot) {
                            want.push(s);
                            n.ready[s] = false;
                        }
                        prop_assert_eq!(order, want);
                    }
                }
                prop_assert_eq!(w.next_ready(slot), n.next_ready(slot));
                prop_assert_eq!(w.due(t), n.due(t));
                prop_assert_eq!(w.next_deadline(), n.next_deadline());
            }
            Ok(())
        });
    }

    #[test]
    fn ready_scan_wraps_from_the_cursor() {
        let mut w = Wakeups::default();
        for s in [1, 4, 9] {
            w.mark_ready(s);
        }
        assert_eq!(w.next_ready(0), Some(1));
        assert_eq!(w.next_ready(4), Some(4));
        assert_eq!(w.next_ready(5), Some(9));
        assert_eq!(w.next_ready(10), Some(1), "wraps to the lowest ready slot");
        w.sleep(1);
        assert_eq!(w.next_ready(10), Some(4));
    }

    #[test]
    fn refiling_a_deadline_replaces_the_old_entry() {
        let mut w = Wakeups::default();
        let at = Instant::from_millis;
        w.set_deadline(3, Some(at(50)));
        w.set_deadline(7, Some(at(20)));
        w.set_deadline(3, Some(at(10)));
        assert_eq!(w.next_deadline(), Some(at(10)));
        assert_eq!(w.due(at(20)), vec![3, 7], "slot order, not time order");
        assert_eq!(w.due(at(15)), vec![3]);
        w.remove(3);
        assert_eq!(w.next_deadline(), Some(at(20)));
        w.set_deadline(7, None);
        assert_eq!(w.next_deadline(), None);
        assert!(w.due(at(1000)).is_empty());
    }
}
