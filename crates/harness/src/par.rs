//! The one place the harness uses more than one core: an ordered map over
//! independent items on scoped threads.
//!
//! Populations here are sets of simulations that share nothing (fleet
//! shards, A/B days, trace archetypes), each a pure function of its index,
//! so running them side by side changes no result — only which core did
//! the work. [`map`] returns results in item order whatever the worker
//! count and schedule, and hands the profiler across the threads it spawns
//! ([`prof::on_worker`], [`prof::graft`]), so a profile reads the same
//! spans, calls and allocations as a run on one thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xlink_obs::prof;

/// Threads [`map`] works `items` items on, the calling thread included:
/// one per item up to what the host can run at once.
pub fn workers(items: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    items.min(cores).max(1)
}

/// `f(0), f(1), …, f(items - 1)`, computed on [`workers`] threads and
/// returned in item order. The calling thread is one of the workers — with
/// one core or one item nothing is spawned and this is a loop. A panic in
/// `f` is resumed on the caller once every worker has stopped.
pub(crate) fn map<R: Send>(items: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    map_on(workers(items), items, f)
}

fn map_on<R: Send>(workers: usize, items: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    // Slots are made up front so that the workers allocate nothing of their
    // own: allocation counts in a profile do not depend on which thread
    // took which item.
    let slots: Vec<Mutex<Option<R>>> = (0..items).map(|_| Mutex::new(None)).collect();
    // Relaxed: the counter only deals out indices; results are published by
    // the slot locks and the joins.
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items {
            break;
        }
        let r = f(i);
        *slots[i].lock().expect("a result slot is locked only to store into it") = Some(r);
    };
    let mode = prof::mode();
    std::thread::scope(|s| {
        let spawned: Vec<_> =
            (1..workers).map(|_| s.spawn(|| prof::on_worker(mode, work).1)).collect();
        work();
        for worker in spawned {
            match worker.join() {
                Ok(profile) => prof::graft(profile),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().ok().flatten().expect("every item was claimed and finished"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_item_order_for_any_worker_count() {
        for workers in 1..=8 {
            for items in [0, 1, 2, 7, 33] {
                let got = map_on(workers, items, |i| i * i);
                assert_eq!(got, (0..items).map(|i| i * i).collect::<Vec<_>>(), "{workers} workers");
            }
        }
    }

    #[test]
    fn every_worker_takes_part() {
        // Each of the first `workers` items waits for the others, so the map
        // finishes only if that many threads are working at once.
        for workers in 1..=4 {
            let barrier = Barrier::new(workers);
            let got = map_on(workers, workers + 3, |i| {
                if i < workers {
                    barrier.wait();
                }
                i
            });
            assert_eq!(got, (0..workers + 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_never_outnumber_items_or_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(workers(0), 1);
        assert_eq!(workers(1), 1);
        assert_eq!(workers(cores + 5), cores);
    }

    #[test]
    fn a_panic_in_any_item_is_resumed_on_the_caller() {
        for workers in 1..=4 {
            for bad in [0, 3, 9] {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    map_on(workers, 10, |i| {
                        if i == bad {
                            panic!("item {i} failed");
                        }
                        i
                    })
                }));
                let payload = caught.expect_err("the panic must reach the caller");
                let text = payload.downcast_ref::<String>().expect("the item's own payload");
                assert_eq!(text, &format!("item {bad} failed"), "{workers} workers");
            }
        }
    }

    #[test]
    fn a_profile_reads_the_same_on_any_worker_count() {
        let item = |i: usize| {
            let _s = prof::span!("test/par_item");
            let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(8 + i));
            v.capacity()
        };
        let counts = |workers: usize| {
            let (_, report) = prof::with_recording(|| {
                let _s = prof::span!("test/par_map");
                map_on(workers, 12, item)
            });
            let row = report.get("test;par_map;test;par_item").expect("items under the open span");
            (row.calls, row.allocs, row.alloc_bytes)
        };
        let serial = counts(1);
        assert_eq!(serial, (12, 12, (0..12u64).map(|i| (8 + i) * 8).sum::<u64>()));
        for workers in 2..=4 {
            assert_eq!(counts(workers), serial, "{workers} workers");
        }
    }
}
