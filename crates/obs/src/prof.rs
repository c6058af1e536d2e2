//! Hot-path profiler: deterministic span/cost attribution with
//! allocation accounting.
//!
//! `prof` answers "where does the wall-clock budget of a simulated
//! fleet go?" without perturbing the simulation itself. It is built
//! from three pieces:
//!
//! * **Scoped spans** ([`span!`](crate::prof_span)): RAII guards that
//!   attribute wall time to an interned, hierarchical span name
//!   (`prof::span!("quic/aead_open")`). Nesting is tracked by a
//!   thread-local stack, so a span opened inside another becomes its
//!   child in the profile tree.
//! * **Allocation accounting**: the crate installs a counting
//!   [`GlobalAlloc`] wrapper around the system allocator. When a
//!   thread is recording, every heap allocation bumps two thread-local
//!   counters; span enter/exit snapshots the counters, attributing
//!   allocs/bytes to the innermost open span. When no thread records,
//!   the wrapper costs one thread-local flag check per allocation.
//! * **Reports** ([`ProfReport`]): per-span totals (calls, inclusive /
//!   exclusive nanoseconds, allocations, allocated bytes) with an
//!   exact integer [`merge`](ProfReport::merge) — the same
//!   partition-invariance discipline as the fleet aggregates — plus
//!   folded-stack and JSON export for flamegraph tooling and the exact
//!   per-packet counters ([`per_unit`](ProfReport::per_unit)) of the
//!   `BENCH_prof.json` perf ledger.
//!
//! ## Determinism contract
//!
//! The profiler reads the **monotonic OS clock**, never the simulated
//! [`xlink_clock`] time, and writes only thread-local profiler state.
//! It draws no randomness, arms no simulated timers, and never feeds a
//! value back into transport or scheduler logic — so enabling it
//! cannot change any simulation outcome. `tests/fleet.rs` enforces
//! this with an off/noop/recording A/B bit-determinism gate at fleet
//! scale.
//!
//! ## Modes
//!
//! * [`Mode::Off`] (default): a span is one thread-local mode check.
//! * [`Mode::Noop`]: the guard path runs (including a monotonic clock
//!   read) but nothing is aggregated — the A/B middle rung proving the
//!   instrumented path itself is side-effect free.
//! * [`Mode::Record`]: full tree aggregation plus alloc accounting.
//!
//! ## Accounting caveats
//!
//! * Allocation counts are *requests to the allocator* (`alloc`,
//!   `alloc_zeroed`, and growth via `realloc`); frees are not tracked,
//!   so the numbers measure churn, not live footprint.
//! * Profiler-internal bookkeeping pauses the counters, so growing the
//!   span tree never pollutes the numbers it reports.
//!
//! ## Threads
//!
//! Span trees and allocation counters are per-thread, and a span never
//! sees another thread's work by itself. Code that fans work out (the
//! fleet runs its shards on scoped worker threads) hands the profiler
//! across: a worker runs under [`on_worker`] in the spawning thread's
//! [`Mode`] and records into a tree of its own, and once it is joined
//! the spawning thread [`graft`]s that tree under its innermost open
//! span — exact integer sums, so calls, allocations and allocated bytes
//! read as if the work had been done on the spawning thread, whatever
//! the worker count and schedule. Time does not: a span that fanned work
//! out holds its own *wall* time while the children grafted under it sum
//! to the workers' *CPU* time, which with two busy workers is twice as
//! much. Such a span's `excl_ns` saturates at 0 and no longer means
//! "time in no child"; the ratio of its children's `incl_ns` to its own
//! is how many cores the fan-out kept busy.

use crate::json::JsonWriter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant as WallInstant;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// System-allocator wrapper counting per-thread allocation requests
/// while that thread's profiler is recording.
pub struct CountingAlloc;

struct AllocCounters {
    on: Cell<bool>,
    allocs: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    static ALLOCS: AllocCounters = const {
        AllocCounters { on: Cell::new(false), allocs: Cell::new(0), bytes: Cell::new(0) }
    };
}

#[inline]
fn note_alloc(bytes: usize) {
    // `try_with`: the TLS slot may already be gone during thread
    // teardown; allocations there are simply not counted.
    let _ = ALLOCS.try_with(|a| {
        if a.on.get() {
            a.allocs.set(a.allocs.get().wrapping_add(1));
            a.bytes.set(a.bytes.get().wrapping_add(bytes as u64));
        }
    });
}

#[inline]
fn alloc_snapshot() -> (u64, u64) {
    ALLOCS.with(|a| (a.allocs.get(), a.bytes.get()))
}

/// Pause alloc accounting on this thread; returns the previous state.
#[inline]
fn pause_alloc_tracking() -> bool {
    ALLOCS.with(|a| a.on.replace(false))
}

#[inline]
fn set_alloc_tracking(on: bool) {
    ALLOCS.with(|a| a.on.set(on));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth counts as one request for the grown size; shrinks are
        // free (they cannot be the source of churn we hunt).
        if new_size > layout.size() {
            note_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Span-name interning (global, shared across threads)
// ---------------------------------------------------------------------------

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern_cached(name: &'static str, cache: &AtomicU32) -> u32 {
    let hit = cache.load(Ordering::Relaxed);
    if hit != 0 {
        return hit - 1;
    }
    let mut names = NAMES.lock().expect("prof name table poisoned");
    let id = match names.iter().position(|n| *n == name) {
        Some(i) => i as u32,
        None => {
            names.push(name);
            (names.len() - 1) as u32
        }
    };
    cache.store(id + 1, Ordering::Relaxed);
    id
}

fn name_table() -> Vec<&'static str> {
    NAMES.lock().expect("prof name table poisoned").clone()
}

// ---------------------------------------------------------------------------
// Thread-local profile tree
// ---------------------------------------------------------------------------

/// Profiler state for the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Spans compile to a single mode check (the production default).
    #[default]
    Off,
    /// The guard path runs (one monotonic clock read) but nothing is
    /// recorded — the A/B determinism middle rung.
    Noop,
    /// Full span-tree aggregation plus allocation accounting.
    Record,
}

struct Node {
    name: u32,
    children: Vec<u32>,
    calls: u64,
    incl_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Node {
    fn new(name: u32) -> Node {
        Node { name, children: Vec::new(), calls: 0, incl_ns: 0, allocs: 0, alloc_bytes: 0 }
    }
}

struct Frame {
    node: u32,
    start: WallInstant,
    allocs0: u64,
    bytes0: u64,
}

struct ThreadProf {
    mode: Cell<Mode>,
    nodes: RefCell<Vec<Node>>,
    stack: RefCell<Vec<Frame>>,
}

thread_local! {
    static PROF: ThreadProf = const {
        ThreadProf {
            mode: Cell::new(Mode::Off),
            nodes: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    };
}

/// Set this thread's profiling mode. Call with no spans open: open
/// guards from a previous mode finish as inert.
pub fn set_mode(mode: Mode) {
    PROF.with(|p| {
        p.mode.set(mode);
        if p.mode.get() == Mode::Record && p.nodes.borrow().is_empty() {
            p.nodes.borrow_mut().push(Node::new(u32::MAX)); // root
        }
    });
    set_alloc_tracking(mode == Mode::Record);
}

/// This thread's current profiling mode.
pub fn mode() -> Mode {
    PROF.with(|p| p.mode.get())
}

/// The child of `parent` for span name `name`, created on first use.
#[inline]
fn child_named(nodes: &mut Vec<Node>, parent: u32, name: u32) -> u32 {
    let found = nodes[parent as usize].children.iter().find(|&&c| nodes[c as usize].name == name);
    match found {
        Some(&c) => c,
        None => {
            let c = nodes.len() as u32;
            nodes.push(Node::new(name));
            nodes[parent as usize].children.push(c);
            c
        }
    }
}

/// RAII span guard: closes (and attributes cost) on drop.
#[must_use = "a span guard dropped immediately measures nothing"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            exit_span();
        }
    }
}

/// Open a span (macro backend — use [`span!`](crate::prof_span)).
/// `cache` is the per-callsite interning slot.
#[inline]
pub fn span_interned(name: &'static str, cache: &AtomicU32) -> SpanGuard {
    PROF.with(|p| match p.mode.get() {
        Mode::Off => SpanGuard { active: false },
        Mode::Noop => {
            // Pay the clock read so the instrumented path is exercised,
            // then drop the value: records nothing, perturbs nothing.
            std::hint::black_box(WallInstant::now());
            SpanGuard { active: false }
        }
        Mode::Record => {
            pause_alloc_tracking();
            let id = intern_cached(name, cache);
            let mut nodes = p.nodes.borrow_mut();
            if nodes.is_empty() {
                nodes.push(Node::new(u32::MAX));
            }
            let mut stack = p.stack.borrow_mut();
            let parent = stack.last().map_or(0, |f| f.node);
            let node = child_named(&mut nodes, parent, id);
            let (allocs0, bytes0) = alloc_snapshot();
            stack.push(Frame { node, start: WallInstant::now(), allocs0, bytes0 });
            set_alloc_tracking(true);
            SpanGuard { active: true }
        }
    })
}

fn exit_span() {
    PROF.with(|p| {
        let end = WallInstant::now();
        let (allocs1, bytes1) = alloc_snapshot();
        pause_alloc_tracking();
        {
            let mut nodes = p.nodes.borrow_mut();
            let mut stack = p.stack.borrow_mut();
            if let Some(f) = stack.pop() {
                let n = &mut nodes[f.node as usize];
                n.calls += 1;
                n.incl_ns += end.duration_since(f.start).as_nanos() as u64;
                n.allocs += allocs1.wrapping_sub(f.allocs0);
                n.alloc_bytes += bytes1.wrapping_sub(f.bytes0);
            }
        }
        if p.mode.get() == Mode::Record {
            set_alloc_tracking(true);
        }
    });
}

/// Drain this thread's profile tree into a report, resetting the tree
/// (mode is left unchanged). Call with no spans open.
pub fn take_report() -> ProfReport {
    PROF.with(|p| {
        let tracking = pause_alloc_tracking();
        debug_assert!(p.stack.borrow().is_empty(), "take_report with open spans");
        let mut nodes = p.nodes.borrow_mut();
        let tree: Vec<Node> = std::mem::take(&mut *nodes);
        if p.mode.get() == Mode::Record {
            nodes.push(Node::new(u32::MAX));
        }
        drop(nodes);
        let names = name_table();
        let mut rows = Vec::new();
        if !tree.is_empty() {
            let mut path = String::new();
            collect_rows(&tree, &names, 0, &mut path, &mut rows);
        }
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        set_alloc_tracking(tracking);
        ProfReport { rows }
    })
}

/// Run `f` with this thread recording, returning its result plus the
/// profile captured during the call. The previous mode is restored.
pub fn with_recording<T>(f: impl FnOnce() -> T) -> (T, ProfReport) {
    let prev = mode();
    set_mode(Mode::Record);
    let out = f();
    let report = take_report();
    set_mode(prev);
    (out, report)
}

/// What a worker thread recorded under [`on_worker`], on its way to the
/// thread that spawned it (see [`graft`]). Empty unless the worker ran in
/// [`Mode::Record`].
#[must_use = "graft it on the spawning thread, or what the worker recorded is lost"]
pub struct WorkerProfile {
    nodes: Vec<Node>,
    allocs: u64,
    alloc_bytes: u64,
}

/// Run `f` on a worker thread the way the thread that spawned it would
/// have: in that thread's `mode` (read there with [`mode`] before
/// spawning), recording into this thread's own tree. Returns what `f`
/// returned and what was recorded — every span `f` closed, and every
/// allocation it made inside a span or outside — for the spawning thread
/// to [`graft`] after the join. Call with no spans open, on a thread that
/// has recorded nothing it still wants; the previous mode is restored.
pub fn on_worker<T>(mode: Mode, f: impl FnOnce() -> T) -> (T, WorkerProfile) {
    let prev = self::mode();
    set_mode(mode);
    let (allocs0, bytes0) = alloc_snapshot();
    let out = f();
    let (allocs1, bytes1) = alloc_snapshot();
    pause_alloc_tracking();
    let nodes = PROF.with(|p| {
        debug_assert!(p.stack.borrow().is_empty(), "on_worker left spans open");
        std::mem::take(&mut *p.nodes.borrow_mut())
    });
    set_mode(prev);
    let (allocs, alloc_bytes) = (allocs1.wrapping_sub(allocs0), bytes1.wrapping_sub(bytes0));
    (out, WorkerProfile { nodes, allocs, alloc_bytes })
}

/// Fold a joined worker's profile into this thread's, as if this thread
/// had done the work where it stands: the worker's root spans become
/// children of the innermost open span (of the root when none is open),
/// counters summing exactly, and the worker's allocations are added to
/// this thread's running count, so that every span open here includes
/// them when it closes. Nothing happens unless this thread is recording.
pub fn graft(worker: WorkerProfile) {
    if worker.nodes.is_empty() || mode() != Mode::Record {
        return;
    }
    PROF.with(|p| {
        pause_alloc_tracking();
        // A recording thread always has its root node (`set_mode`).
        let under = p.stack.borrow().last().map_or(0, |f| f.node);
        graft_children(&mut p.nodes.borrow_mut(), under, &worker.nodes, 0);
        ALLOCS.with(|a| {
            a.allocs.set(a.allocs.get().wrapping_add(worker.allocs));
            a.bytes.set(a.bytes.get().wrapping_add(worker.alloc_bytes));
        });
        set_alloc_tracking(true);
    });
}

fn graft_children(into: &mut Vec<Node>, under: u32, from: &[Node], node: usize) {
    for &c in &from[node].children {
        let src = &from[c as usize];
        let dst = child_named(into, under, src.name);
        let d = &mut into[dst as usize];
        d.calls += src.calls;
        d.incl_ns += src.incl_ns;
        d.allocs += src.allocs;
        d.alloc_bytes += src.alloc_bytes;
        graft_children(into, dst, from, c as usize);
    }
}

fn collect_rows(
    tree: &[Node],
    names: &[&'static str],
    node: usize,
    path: &mut String,
    rows: &mut Vec<ProfRow>,
) {
    let n = &tree[node];
    let base_len = path.len();
    if node != 0 {
        if !path.is_empty() {
            path.push(';');
        }
        // Span names use '/' separators; folded stacks use ';'.
        let name = names.get(n.name as usize).copied().unwrap_or("?");
        for part in name.split('/') {
            path.push_str(part);
            path.push(';');
        }
        path.pop(); // trailing ';'
        let child_incl: u64 = n.children.iter().map(|&c| tree[c as usize].incl_ns).sum();
        rows.push(ProfRow {
            path: path.clone(),
            calls: n.calls,
            incl_ns: n.incl_ns,
            excl_ns: n.incl_ns.saturating_sub(child_incl),
            allocs: n.allocs,
            alloc_bytes: n.alloc_bytes,
        });
    }
    for &c in &n.children {
        collect_rows(tree, names, c as usize, path, rows);
    }
    path.truncate(base_len);
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One profile-tree node flattened to its full folded path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfRow {
    /// Folded stack path, components joined by `;`
    /// (e.g. `netsim;link_delivery;quic;packet_decode`).
    pub path: String,
    /// Times the span closed.
    pub calls: u64,
    /// Wall nanoseconds inside the span, children included (summed over
    /// the threads that closed it).
    pub incl_ns: u64,
    /// Wall nanoseconds not attributed to any child span; 0 for a span
    /// whose children ran on several threads at once and so sum to more
    /// than its own wall time.
    pub excl_ns: u64,
    /// Heap allocation requests while the span was open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl ProfRow {
    /// Last path component (the leaf span's own name tail).
    pub fn leaf(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }
}

/// A set of per-span totals; merges exactly (integer sums keyed by
/// path), so any partition of shard profiles folds to the same totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Rows sorted by path.
    pub rows: Vec<ProfRow>,
}

impl ProfReport {
    /// Exact integer merge: rows join by path, every counter sums.
    pub fn merge(&mut self, other: &ProfReport) {
        let mut by_path: BTreeMap<String, ProfRow> =
            self.rows.drain(..).map(|r| (r.path.clone(), r)).collect();
        for r in &other.rows {
            match by_path.get_mut(&r.path) {
                Some(m) => {
                    m.calls += r.calls;
                    m.incl_ns += r.incl_ns;
                    m.excl_ns += r.excl_ns;
                    m.allocs += r.allocs;
                    m.alloc_bytes += r.alloc_bytes;
                }
                None => {
                    by_path.insert(r.path.clone(), r.clone());
                }
            }
        }
        self.rows = by_path.into_values().collect();
    }

    /// Row lookup by exact folded path.
    pub fn get(&self, path: &str) -> Option<&ProfRow> {
        self.rows.iter().find(|r| r.path == path)
    }

    /// Root spans: rows with no ancestor among the rows.
    fn top_level(&self) -> impl Iterator<Item = &ProfRow> {
        self.rows.iter().filter(|r| !self.rows.iter().any(|p| is_stack_prefix(&p.path, &r.path)))
    }

    /// Total inclusive time of root spans — the profiled wall clock, or the
    /// CPU time of what ran under root spans grafted from worker threads.
    pub fn total_incl_ns(&self) -> u64 {
        self.top_level().map(|r| r.incl_ns).sum()
    }

    /// The perf ledger's derived counters for a run of `packets` simulated
    /// packets in `sessions` sessions, each an exact `(name, numerator,
    /// denominator)`. A row's allocation counts include its children's, so
    /// the three allocation counters sum the root spans only and a span
    /// added deeper in the tree cannot raise them; `calls` are a row's own,
    /// so spans per packet sums every row.
    pub fn per_unit(&self, packets: u64, sessions: u64) -> [(&'static str, u64, u64); 4] {
        let (allocs, bytes) =
            self.top_level().fold((0, 0), |(a, b), r| (a + r.allocs, b + r.alloc_bytes));
        let spans = self.rows.iter().map(|r| r.calls).sum();
        [
            ("allocs_per_packet", allocs, packets),
            ("alloc_bytes_per_packet", bytes, packets),
            ("allocs_per_session", allocs, sessions),
            ("spans_per_packet", spans, packets),
        ]
    }

    /// Folded-stack output (`path excl_ns` per line, flamegraph.pl
    /// compatible). Exclusive time is used as the sample weight so
    /// stacks sum correctly.
    pub fn folded(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 48);
        for r in &self.rows {
            out.push_str(&r.path);
            out.push(' ');
            out.push_str(&r.excl_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// JSON document (schema `xlink-prof-v1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(64 + self.rows.len() * 128);
        w.begin_object();
        w.field_str("schema", "xlink-prof-v1");
        w.key("spans");
        w.begin_array();
        for r in &self.rows {
            w.begin_object();
            w.field_str("path", &r.path);
            w.field_u64("calls", r.calls);
            w.field_u64("incl_ns", r.incl_ns);
            w.field_u64("excl_ns", r.excl_ns);
            w.field_u64("allocs", r.allocs);
            w.field_u64("alloc_bytes", r.alloc_bytes);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Order-independent digest over the run-deterministic part of the
    /// profile: span paths, call counts, and allocation counts. Wall
    /// times are machine noise and deliberately excluded.
    pub fn counts_digest(&self) -> u64 {
        let mut h = 0x8422_2325_cbf2_9ce4u64;
        for r in &self.rows {
            for b in r.path.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            for w in [r.calls, r.allocs, r.alloc_bytes] {
                h ^= w;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// True when `prefix` is a proper stack ancestor path of `path`.
pub fn is_stack_prefix(prefix: &str, path: &str) -> bool {
    path.len() > prefix.len() && path.starts_with(prefix) && path.as_bytes()[prefix.len()] == b';'
}

/// Open a profiling span for the current scope.
///
/// ```ignore
/// let _s = prof::span!("quic/aead_open");
/// ```
///
/// The name must be a string literal (or `'static`); `/` separators
/// become nesting levels in folded-stack output. Costs one thread-local
/// mode check when profiling is off.
#[macro_export]
macro_rules! prof_span {
    ($name:expr) => {{
        static __PROF_ID: ::std::sync::atomic::AtomicU32 = ::std::sync::atomic::AtomicU32::new(0);
        $crate::prof::span_interned($name, &__PROF_ID)
    }};
}

pub use crate::prof_span as span;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    /// Serialize the (process-global, thread-local) profiler tests.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin(n: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..n {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        x
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = locked();
        set_mode(Mode::Off);
        {
            let _s = span!("test/off");
            spin(10);
        }
        assert!(take_report().rows.is_empty());
    }

    #[test]
    fn noop_mode_records_nothing_but_runs() {
        let _g = locked();
        set_mode(Mode::Noop);
        {
            let _s = span!("test/noop");
            spin(10);
        }
        assert!(take_report().rows.is_empty());
        set_mode(Mode::Off);
    }

    #[test]
    fn record_builds_nested_tree() {
        let _g = locked();
        let ((), r) = with_recording(|| {
            for _ in 0..3 {
                let _outer = span!("test/outer");
                spin(100);
                {
                    let _inner = span!("test/inner");
                    spin(100);
                }
                {
                    let _inner = span!("test/inner");
                    spin(100);
                }
            }
        });
        let outer = r.get("test;outer").expect("outer row");
        let inner = r.get("test;outer;test;inner").expect("nested inner row");
        assert_eq!(outer.calls, 3);
        assert_eq!(inner.calls, 6);
        assert!(outer.incl_ns >= inner.incl_ns, "child time within parent");
        assert_eq!(outer.excl_ns, outer.incl_ns - inner.incl_ns);
        assert!(r.get("test;inner").is_none(), "inner only exists under outer");
    }

    #[test]
    fn allocations_attribute_to_innermost_span() {
        let _g = locked();
        let ((), r) = with_recording(|| {
            let _outer = span!("test/alloc_outer");
            let _v: Vec<u64> = std::hint::black_box(Vec::with_capacity(32));
            {
                let _inner = span!("test/alloc_inner");
                let _w: Vec<u64> = std::hint::black_box(Vec::with_capacity(1000));
            }
        });
        let outer = r.get("test;alloc_outer").expect("outer");
        let inner = r.get("test;alloc_outer;test;alloc_inner").expect("inner");
        assert!(inner.allocs >= 1, "inner saw its Vec");
        assert!(inner.alloc_bytes >= 8000, "inner bytes {}", inner.alloc_bytes);
        assert!(outer.allocs >= inner.allocs + 1, "outer includes inner plus its own");
    }

    #[test]
    fn report_merge_is_partition_invariant() {
        let _g = locked();
        let mk = |calls: u64| {
            let ((), r) = with_recording(|| {
                for _ in 0..calls {
                    let _s = span!("test/merge");
                    spin(10);
                }
            });
            r
        };
        let parts = [mk(1), mk(2), mk(3), mk(4)];
        let mut left = ProfReport::default();
        for p in &parts {
            left.merge(p);
        }
        let mut right = ProfReport::default();
        for p in parts.iter().rev() {
            right.merge(p);
        }
        assert_eq!(left, right);
        assert_eq!(left.get("test;merge").unwrap().calls, 10);
    }

    #[test]
    fn folded_and_json_round_trip() {
        let _g = locked();
        let ((), r) = with_recording(|| {
            let _a = span!("test/fold_a");
            let _b = span!("test/fold_b");
            spin(50);
        });
        for line in r.folded().lines() {
            let (path, ns) = line.rsplit_once(' ').expect("path ns");
            assert!(!path.is_empty() && path.split(';').all(|c| !c.is_empty()));
            ns.parse::<u64>().expect("numeric weight");
        }
        let doc = parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("xlink-prof-v1"));
        let spans = doc.get("spans").and_then(Value::as_arr).expect("spans array");
        assert_eq!(spans.len(), r.rows.len());
        for (span, row) in spans.iter().zip(&r.rows) {
            assert_eq!(span.get("path").and_then(Value::as_str), Some(row.path.as_str()));
            for (key, value) in [
                ("calls", row.calls),
                ("incl_ns", row.incl_ns),
                ("excl_ns", row.excl_ns),
                ("allocs", row.allocs),
                ("alloc_bytes", row.alloc_bytes),
            ] {
                assert_eq!(span.get(key).and_then(Value::as_u64), Some(value), "{key}");
            }
        }
    }

    #[test]
    fn per_unit_counters_sum_root_allocations_and_every_call() {
        let row = |path: &str, calls, allocs, alloc_bytes| ProfRow {
            path: path.into(),
            calls,
            incl_ns: 0,
            excl_ns: 0,
            allocs,
            alloc_bytes,
        };
        // `fleet;step`'s 10 allocations include the 4 under `quic;open`,
        // which include the 1 under `quic;open;lab;hist`.
        let mut r = ProfReport {
            rows: vec![
                row("fleet;admit", 2, 3, 30),
                row("fleet;step", 2, 10, 100),
                row("fleet;step;quic;open", 5, 4, 40),
                row("fleet;step;quic;open;lab;hist", 7, 1, 8),
            ],
        };
        let expected = [
            ("allocs_per_packet", 13, 50),
            ("alloc_bytes_per_packet", 130, 50),
            ("allocs_per_session", 13, 2),
            ("spans_per_packet", 16, 50),
        ];
        assert_eq!(r.per_unit(50, 2), expected);
        // One more span inside `fleet;step`: its allocations were in the
        // root's count all along, only the number of spans moves.
        r.rows.insert(2, row("fleet;step;core;sched", 9, 6, 60));
        let mut deeper = expected;
        deeper[3].1 += 9;
        assert_eq!(r.per_unit(50, 2), deeper);
    }

    #[test]
    fn counts_digest_ignores_time() {
        let a = ProfReport {
            rows: vec![ProfRow {
                path: "x".into(),
                calls: 2,
                incl_ns: 100,
                excl_ns: 100,
                allocs: 1,
                alloc_bytes: 64,
            }],
        };
        let mut b = a.clone();
        b.rows[0].incl_ns = 999_999;
        b.rows[0].excl_ns = 999_999;
        assert_eq!(a.counts_digest(), b.counts_digest());
        b.rows[0].calls = 3;
        assert_ne!(a.counts_digest(), b.counts_digest());
    }

    /// A fixed piece of work: nested spans, allocations inside them and
    /// one outside any span of its own.
    fn handoff_work() {
        for _ in 0..3 {
            let _outer = span!("test/hand_outer");
            let _v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
            let _inner = span!("test/hand_inner");
            let _w: Vec<u64> = std::hint::black_box(Vec::with_capacity(100));
        }
        let _loose: Vec<u64> = std::hint::black_box(Vec::with_capacity(7));
    }

    /// `f` on a thread of its own, under [`on_worker`] in `mode`. The
    /// thread is joined before anything is grafted, so the tests below can
    /// keep the spawn (which allocates) out of the spans they compare.
    fn worker_profile(mode: Mode, f: impl FnOnce() + Send + 'static) -> WorkerProfile {
        let worker = std::thread::Builder::new().spawn(move || on_worker(mode, f).1);
        worker.expect("spawn worker").join().expect("worker panicked")
    }

    /// Everything but time.
    fn counts(r: &ProfReport) -> Vec<(String, u64, u64, u64)> {
        r.rows.iter().map(|r| (r.path.clone(), r.calls, r.allocs, r.alloc_bytes)).collect()
    }

    #[test]
    fn worker_profile_grafts_under_the_open_span_as_if_run_here() {
        let _g = locked();
        let ((), serial) = with_recording(|| {
            let _fan = span!("test/hand_fan");
            handoff_work();
            handoff_work();
        });
        let worker = worker_profile(Mode::Record, handoff_work);
        let ((), fanned) = with_recording(|| {
            let _fan = span!("test/hand_fan");
            handoff_work();
            graft(worker);
        });
        let inner = fanned.get("test;hand_fan;test;hand_outer;test;hand_inner").expect("nested");
        assert_eq!((inner.calls, inner.allocs, inner.alloc_bytes), (6, 6, 4800));
        // The open span counts the worker's allocations too, the one made
        // outside any span of the worker's included.
        assert_eq!(fanned.get("test;hand_fan").expect("open span").allocs, 14);
        assert_eq!(counts(&fanned), counts(&serial));
        assert_eq!(fanned.counts_digest(), serial.counts_digest());
    }

    #[test]
    fn graft_with_no_span_open_lands_at_the_root() {
        let _g = locked();
        let worker = worker_profile(Mode::Record, handoff_work);
        let ((), grafted) = with_recording(|| graft(worker));
        let ((), serial) = with_recording(handoff_work);
        assert_eq!(grafted.get("test;hand_outer").expect("root span").calls, 3);
        assert_eq!(counts(&grafted), counts(&serial));
    }

    #[test]
    fn workers_of_a_caller_that_does_not_record_record_nothing() {
        let _g = locked();
        for caller in [Mode::Off, Mode::Noop] {
            set_mode(caller);
            let worker = worker_profile(mode(), || {
                assert_ne!(mode(), Mode::Record);
                handoff_work();
            });
            assert!(worker.nodes.is_empty() && worker.allocs == 0 && worker.alloc_bytes == 0);
            graft(worker);
            assert!(take_report().rows.is_empty());
        }
        set_mode(Mode::Off);
        // Nor does a recording thread take anything from such a worker.
        let worker = worker_profile(Mode::Off, handoff_work);
        let ((), r) = with_recording(|| graft(worker));
        assert!(r.rows.is_empty());
    }

    #[test]
    fn nested_fan_out_grafts_through_every_level() {
        let _g = locked();
        let ((), serial) = with_recording(|| {
            let _fan = span!("test/hand_fan");
            let _mid = span!("test/hand_mid");
            handoff_work();
            handoff_work();
        });
        let leaf = worker_profile(Mode::Record, handoff_work);
        // A worker that fans out again: it grafts its own worker under the
        // span it has open, and hands the whole of it up.
        let mid = worker_profile(Mode::Record, move || {
            let _mid = span!("test/hand_mid");
            handoff_work();
            graft(leaf);
        });
        let ((), fanned) = with_recording(|| {
            let _fan = span!("test/hand_fan");
            graft(mid);
        });
        assert_eq!(counts(&fanned), counts(&serial));
        assert_eq!(fanned.counts_digest(), serial.counts_digest());
    }

    #[test]
    fn stack_prefix_requires_component_boundary() {
        assert!(is_stack_prefix("a;b", "a;b;c"));
        assert!(!is_stack_prefix("a;b", "a;bc"));
        assert!(!is_stack_prefix("a;b", "a;b"));
    }
}
