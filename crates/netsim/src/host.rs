//! The members of an [`Endpoint`] that multiplexes many endpoints behind
//! one address: a PoP's backend connections, a client fleet's sessions.
//!
//! [`World`](crate::World) reads an endpoint's earliest timer in every
//! round and asks it for a datagram after every input; asking each of N
//! members would make a round cost N. A [`Host`] keeps both answers by
//! slot instead, and is the one place that decides when a member is asked,
//! re-filed, counted or put to sleep:
//!
//! - a member is **ready** after an input: a datagram ([`Host::deliver`]),
//!   a fired timer ([`Host::fire_due`]) or anything its owner did to it
//!   ([`Host::touch`]). [`Host::poll_transmit`] asks the ready members
//!   round-robin in slot order from a cursor, which is the order a scan
//!   over all slots gives; one that answers `None` sleeps until its next
//!   input, since the answer holds until then. Debug builds ask one
//!   sleeping member again at each poll, the next on a second cursor, and
//!   assert `None`;
//! - a **deadline index** holds each member's timer, re-filed after every
//!   input and every send (sending arms loss timers), and none while the
//!   member [is done](Endpoint::is_done). The due ones fire in slot order;
//! - a removed member's slot is reused, the lowest first.

use crate::world::{Endpoint, Transmit};
use std::collections::BTreeSet;
use xlink_clock::Instant;

/// Members of one multiplexing endpoint, with their wake-ups.
#[derive(Debug)]
pub struct Host<E> {
    members: Vec<Option<E>>,
    /// Vacant slots; [`Host::insert`] takes the lowest.
    free: BTreeSet<usize>,
    /// Slots that took an input since their last `None`.
    ready: BTreeSet<usize>,
    /// Each slot's filed deadline, and whether it counts as done (a vacant
    /// slot does).
    filed: Vec<(Option<Instant>, bool)>,
    /// The filed deadlines ordered by time, then slot.
    index: BTreeSet<(Instant, usize)>,
    /// The slot the next poll starts from.
    cursor: usize,
    /// Members not done.
    live: usize,
    conn_polls: u64,
    timer_fires: u64,
    /// Room a datagram lent by reference is copied into to be opened.
    room: Vec<u8>,
    /// The slot the debug check asks next.
    #[cfg(debug_assertions)]
    recheck: usize,
}

impl<E> Default for Host<E> {
    fn default() -> Self {
        Host::with_capacity(0)
    }
}

impl<E> Host<E> {
    /// A host with room for `members` before it grows.
    pub fn with_capacity(members: usize) -> Self {
        Host {
            members: Vec::with_capacity(members),
            free: BTreeSet::new(),
            ready: BTreeSet::new(),
            filed: Vec::with_capacity(members),
            index: BTreeSet::new(),
            cursor: 0,
            live: 0,
            conn_polls: 0,
            timer_fires: 0,
            room: Vec::new(),
            #[cfg(debug_assertions)]
            recheck: 0,
        }
    }
}

impl<E: Endpoint> Host<E> {
    /// Add `member` in the lowest vacant slot, or a new one, and return
    /// the slot. Its timer is filed; it is not ready until an input.
    pub fn insert(&mut self, member: E) -> usize {
        let slot = self.free.pop_first().unwrap_or_else(|| {
            self.members.push(None);
            self.filed.push((None, true));
            self.members.len() - 1
        });
        self.members[slot] = Some(member);
        self.refile(slot);
        slot
    }

    /// Take the member out of `slot` and forget its wake-ups.
    pub fn remove(&mut self, slot: usize) -> Option<E> {
        let member = self.members.get_mut(slot)?.take()?;
        self.ready.remove(&slot);
        let (deadline, done) = std::mem::replace(&mut self.filed[slot], (None, true));
        if let Some(t) = deadline {
            self.index.remove(&(t, slot));
        }
        self.live -= usize::from(!done);
        self.free.insert(slot);
        Some(member)
    }

    /// The member in `slot`.
    pub fn get(&self, slot: usize) -> Option<&E> {
        self.members.get(slot)?.as_ref()
    }

    /// The member in `slot`, to act on: an input given it is followed by
    /// [`Host::touch`].
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut E> {
        self.members.get_mut(slot)?.as_mut()
    }

    /// Every member with its slot, in slot order.
    pub fn members(&self) -> impl Iterator<Item = (usize, &E)> {
        self.members.iter().enumerate().filter_map(|(slot, m)| Some((slot, m.as_ref()?)))
    }

    /// Members held.
    pub fn len(&self) -> usize {
        self.members.len() - self.free.len()
    }

    /// True when no member is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every member is done.
    pub fn all_done(&self) -> bool {
        self.live == 0
    }

    /// Calls made into a member's `poll_transmit`, the debug check's
    /// excepted. This and [`Host::timer_fires`] count the runner's work,
    /// not the simulation's: per datagram they must not grow with the
    /// number of members.
    pub fn conn_polls(&self) -> u64 {
        self.conn_polls
    }

    /// Calls made into a member's `on_timeout`.
    pub fn timer_fires(&self) -> u64 {
        self.timer_fires
    }

    /// The member in `slot` took an input: it may have something to send,
    /// and its timer and whether it is done may have moved.
    pub fn touch(&mut self, slot: usize) {
        self.ready.insert(slot);
        self.refile(slot);
    }

    /// File the timer of the member in `slot`, none while it is done.
    fn refile(&mut self, slot: usize) {
        let member = self.members[slot].as_ref().expect("a filed slot holds a member");
        let done = member.is_done();
        let deadline = if done { None } else { member.poll_timeout() };
        let (filed, was_done) = &mut self.filed[slot];
        self.live = self.live + usize::from(*was_done) - usize::from(done);
        *was_done = done;
        let old = std::mem::replace(filed, deadline);
        if old != deadline {
            if let Some(t) = old {
                self.index.remove(&(t, slot));
            }
            if let Some(t) = deadline {
                self.index.insert((t, slot));
            }
        }
    }

    /// Hand the member in `slot` a datagram that arrived on `path`, to be
    /// opened where it lies. Returns false if the slot is vacant.
    pub fn deliver(&mut self, now: Instant, slot: usize, path: usize, payload: &mut [u8]) -> bool {
        let Some(member) = self.get_mut(slot) else { return false };
        member.on_datagram_in_place(now, path, payload);
        self.touch(slot);
        true
    }

    /// `payload` copied into the room the host keeps, for an endpoint lent
    /// a datagram by reference to open where it lies; hand the room back
    /// with [`Host::restore_room`].
    pub fn room_with(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut room = std::mem::take(&mut self.room);
        room.clear();
        room.extend_from_slice(payload);
        room
    }

    /// Keep `room` for the next datagram lent by reference.
    pub fn restore_room(&mut self, room: Vec<u8>) {
        self.room = room;
    }

    /// The next datagram of the ready members, asked round-robin from the
    /// cursor: one that has a datagram is re-filed, one that has none
    /// sleeps.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
        #[cfg(debug_assertions)]
        self.ask_a_sleeper(now);
        while let Some(slot) = self.next_ready() {
            let member = self.members[slot].as_mut().expect("a ready slot holds a member");
            self.conn_polls += 1;
            if let Some(transmit) = member.poll_transmit(now) {
                self.refile(slot);
                self.cursor = (slot + 1) % self.members.len();
                return Some(transmit);
            }
            self.ready.remove(&slot);
        }
        None
    }

    /// The first ready slot at or after the cursor, else the lowest.
    fn next_ready(&self) -> Option<usize> {
        self.ready.range(self.cursor..).next().or_else(|| self.ready.first()).copied()
    }

    /// Ask the member at the second cursor again if it sleeps: it took no
    /// input since its last `None`, so it must say `None` again.
    #[cfg(debug_assertions)]
    fn ask_a_sleeper(&mut self, now: Instant) {
        let Some(slot) = self.recheck.checked_rem(self.members.len()) else { return };
        self.recheck = slot + 1;
        if let Some(member) = self.members[slot].as_mut().filter(|_| !self.ready.contains(&slot)) {
            let sent = member.poll_transmit(now).is_some();
            assert!(!sent, "member {slot} sent at {now} with no input since its last None");
        }
    }

    /// The earliest filed deadline.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.index.first().map(|&(t, _)| t)
    }

    /// Fire the timer of every member due at `now`, in slot order, and
    /// return their slots.
    pub fn fire_due(&mut self, now: Instant) -> Vec<usize> {
        let mut due: Vec<usize> = self.index.range(..=(now, usize::MAX)).map(|&(_, s)| s).collect();
        due.sort_unstable();
        for &slot in &due {
            let member = self.members[slot].as_mut().expect("a filed deadline has a member");
            member.on_timeout(now);
            self.timer_fires += 1;
            self.touch(slot);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlink_lab::prop::*;

    const SLOTS: usize = 12;

    /// A member that sends what its inputs queued, one datagram a poll,
    /// tagged with its id, and keeps the timer and done flag it is given.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Probe {
        id: usize,
        queued: usize,
        timer: Option<Instant>,
        done: bool,
    }

    impl Endpoint for Probe {
        fn on_datagram(&mut self, _now: Instant, _path: usize, payload: &[u8]) {
            self.queued += payload.len();
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<Transmit> {
            self.queued = self.queued.checked_sub(1)?;
            Some(Transmit { path: self.id, payload: Vec::new() })
        }
        fn poll_timeout(&self) -> Option<Instant> {
            self.timer
        }
        fn on_timeout(&mut self, _now: Instant) {
            self.timer = None;
            self.queued += 1;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// What a scanning endpoint keeps: each slot's member and a ready flag,
    /// a cursor, and its own count of the calls it made.
    #[derive(Default)]
    struct Naive {
        slots: Vec<Option<(Probe, bool)>>,
        cursor: usize,
        polls: u64,
        fires: u64,
    }

    impl Naive {
        fn insert(&mut self, member: Probe) -> usize {
            let slot = self.slots.iter().position(Option::is_none).unwrap_or_else(|| {
                self.slots.push(None);
                self.slots.len() - 1
            });
            self.slots[slot] = Some((member, false));
            slot
        }

        /// Scan every slot from the cursor, asking the ready members.
        fn poll(&mut self, now: Instant) -> Option<Transmit> {
            let n = self.slots.len();
            for slot in (0..n).map(|i| (self.cursor + i) % n) {
                let Some((member, ready @ true)) = self.slots[slot].as_mut() else { continue };
                self.polls += 1;
                match member.poll_transmit(now) {
                    Some(t) => {
                        self.cursor = (slot + 1) % n;
                        return Some(t);
                    }
                    None => *ready = false,
                }
            }
            None
        }

        /// The members not done whose timer is at or before `now`.
        fn due(&self, now: Instant) -> Vec<usize> {
            let due = |m: &Probe| !m.done && m.timer.is_some_and(|t| t <= now);
            (0..self.slots.len())
                .filter(|&s| self.slots[s].as_ref().is_some_and(|m| due(&m.0)))
                .collect()
        }

        fn next_deadline(&self) -> Option<Instant> {
            self.slots.iter().flatten().filter(|m| !m.0.done).filter_map(|m| m.0.timer).min()
        }
    }

    /// Random programs against a scan over all slots: the same datagrams
    /// in the same order, the same cursor after removals and reused slots,
    /// the same due members, timer and done state, the same work counts.
    #[test]
    fn the_host_matches_a_naive_scan() {
        // (operation, slot, argument); times collide often on purpose.
        let ops = vec_of((0u8..9, 0usize..SLOTS, 0u64..8), 0..200);
        check("the_host_matches_a_naive_scan", ops, |ops| {
            let (mut host, mut naive) = (Host::default(), Naive::default());
            let mut ids = 0;
            for &(op, slot, arg) in ops {
                let t = Instant::from_millis(arg);
                let occupied = naive.slots.get(slot).is_some_and(Option::is_some);
                match op {
                    0 if host.len() < SLOTS => {
                        ids += 1;
                        let m =
                            Probe { id: ids, timer: (arg > 3).then_some(t), ..Probe::default() };
                        prop_assert_eq!(host.insert(m.clone()), naive.insert(m));
                    }
                    1 => {
                        let gone = naive.slots.get_mut(slot).and_then(Option::take).map(|m| m.0);
                        prop_assert_eq!(host.remove(slot), gone);
                    }
                    2 => {
                        let delivered = host.deliver(t, slot, 0, &mut vec![0; arg as usize]);
                        prop_assert_eq!(delivered, occupied);
                        if let Some((m, ready)) = naive.slots.get_mut(slot).and_then(Option::as_mut)
                        {
                            m.queued += arg as usize;
                            *ready = true;
                        }
                    }
                    3..=5 if occupied => {
                        // What the owner does to a member: a new timer, or
                        // it becomes done or not.
                        let change = |m: &mut Probe| match op {
                            3 => m.timer = Some(t),
                            4 => m.timer = None,
                            _ => m.done = !m.done,
                        };
                        change(host.get_mut(slot).expect("occupied"));
                        host.touch(slot);
                        let (m, ready) = naive.slots[slot].as_mut().expect("occupied");
                        change(m);
                        *ready = true;
                    }
                    6 => {
                        let sent = |p: Option<Transmit>| p.map(|t| t.path);
                        loop {
                            let (a, b) = (sent(host.poll_transmit(t)), sent(naive.poll(t)));
                            prop_assert_eq!(a, b);
                            if a.is_none() {
                                break;
                            }
                        }
                    }
                    7 => {
                        let due = naive.due(t);
                        for &s in &due {
                            let (m, ready) = naive.slots[s].as_mut().expect("due");
                            m.on_timeout(t);
                            *ready = true;
                            naive.fires += 1;
                        }
                        prop_assert_eq!(host.fire_due(t), due);
                    }
                    _ => {}
                }
                let members: Vec<(usize, &Probe)> = host.members().collect();
                let want: Vec<(usize, &Probe)> = naive
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(s, m)| Some((s, &m.as_ref()?.0)))
                    .collect();
                prop_assert_eq!(members, want);
                prop_assert_eq!(host.next_deadline(), naive.next_deadline());
                prop_assert_eq!(host.all_done(), naive.slots.iter().flatten().all(|m| m.0.done));
                prop_assert_eq!(
                    (host.conn_polls(), host.timer_fires()),
                    (naive.polls, naive.fires)
                );
            }
            Ok(())
        });
    }

    fn probes(host: &mut Host<Probe>, n: usize) {
        for id in 0..n {
            host.insert(Probe { id, ..Probe::default() });
        }
    }

    #[test]
    fn ready_scan_wraps_from_the_cursor() {
        let mut host = Host::default();
        probes(&mut host, 10);
        let now = Instant::ZERO;
        for s in [1, 4, 9] {
            host.deliver(now, s, 0, &mut [0, 0]);
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| host.poll_transmit(now)).map(|t| t.path).collect();
        assert_eq!(order, [1, 4, 9, 1, 4, 9], "one datagram a poll, round-robin");
        assert_eq!(host.conn_polls(), 6 + 3, "each sender once more, to say None");
        host.deliver(now, 4, 0, &mut [0]);
        host.deliver(now, 9, 0, &mut [0]);
        host.remove(9);
        host.deliver(now, 1, 0, &mut [0]);
        // The last send was slot 9's, so the cursor wrapped to 0.
        assert_eq!(host.poll_transmit(now).map(|t| t.path), Some(1));
        assert_eq!(
            host.insert(Probe { id: 20, ..Probe::default() }),
            9,
            "the vacant slot is reused"
        );
        assert_eq!(host.poll_transmit(now).map(|t| t.path), Some(4));
        assert_eq!(host.poll_transmit(now).map(|t| t.path), None);
        assert_eq!(host.conn_polls(), 9 + 4, "the new member took no input and is not asked");
    }

    #[test]
    fn refiling_a_deadline_replaces_the_old_entry() {
        let mut host = Host::default();
        probes(&mut host, 8);
        let at = Instant::from_millis;
        let set = |host: &mut Host<Probe>, slot: usize, timer: Option<Instant>| {
            host.get_mut(slot).expect("a member").timer = timer;
            host.touch(slot);
        };
        set(&mut host, 3, Some(at(50)));
        set(&mut host, 7, Some(at(20)));
        set(&mut host, 3, Some(at(10)));
        assert_eq!(host.next_deadline(), Some(at(10)));
        host.get_mut(7).expect("a member").done = true;
        host.touch(7);
        assert_eq!(host.next_deadline(), Some(at(10)), "a done member files no timer");
        host.get_mut(7).expect("a member").done = false;
        host.touch(7);
        assert_eq!(host.fire_due(at(20)), vec![3, 7], "slot order, not time order");
        assert_eq!(host.timer_fires(), 2);
        set(&mut host, 3, Some(at(30)));
        host.remove(3);
        assert_eq!(host.next_deadline(), None);
        assert!(host.fire_due(at(1000)).is_empty());
    }

    /// Has a datagram from 5 ms on, but takes no input for it: only a poll
    /// asking it while it sleeps finds it.
    #[cfg(debug_assertions)]
    struct Unannounced;

    #[cfg(debug_assertions)]
    impl Endpoint for Unannounced {
        fn on_datagram(&mut self, _now: Instant, _path: usize, _payload: &[u8]) {}
        fn poll_transmit(&mut self, now: Instant) -> Option<Transmit> {
            (now >= Instant::from_millis(5)).then(|| Transmit { path: 0, payload: vec![0xaa; 100] })
        }
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn on_timeout(&mut self, _now: Instant) {}
    }

    /// A debug host asks one sleeping member again at each poll, and the
    /// one that sends without an input is caught.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "member 0 sent at 0.010000s with no input since its last None")]
    fn a_debug_host_holds_a_sleeping_member_to_its_none() {
        let mut host = Host::default();
        host.insert(Unannounced);
        assert!(host.poll_transmit(Instant::ZERO).is_none());
        assert_eq!(host.conn_polls(), 0, "the check's polls are not counted");
        host.poll_transmit(Instant::from_millis(10));
    }
}
