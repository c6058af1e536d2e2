//! Trace sinks and the handles that feed them.
//!
//! A [`TraceLog`] owns one boxed [`TraceSink`] plus the table of
//! interned source names. Components never see the log directly; they
//! hold cheap cloneable [`Tracer`] handles ([`TraceLog::tracer`]) that
//! stamp every event with the component's source id. A disabled
//! tracer ([`Tracer::disabled`], the `Default`) is `None` inside — its
//! `emit` is a single branch, so instrumentation has no behavioural
//! effect when tracing is off.

use crate::event::{Event, TraceEvent};
use crate::qlog;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use xlink_clock::Instant;

/// Where emitted events go.
pub trait TraceSink {
    /// Record one event.
    fn emit(&mut self, ev: TraceEvent);
    /// Copy out everything currently held (ring sinks return only the
    /// retained tail).
    fn snapshot(&self) -> Vec<TraceEvent>;
    /// Events currently held.
    fn len(&self) -> usize;
    /// True when nothing is held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Discards everything (the explicit "tracing compiled in but off"
/// sink; behaviourally identical to a disabled tracer).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn emit(&mut self, _ev: TraceEvent) {}
    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }
    fn len(&self) -> usize {
        0
    }
}

/// Unbounded in-memory sink; keeps every event in emission order.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
    fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.clone()
    }
    fn len(&self) -> usize {
        self.events.len()
    }
}

/// Bounded ring buffer: keeps the most recent `cap` events (flight
/// recorder for long runs).
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    events: VecDeque<TraceEvent>,
}

impl RingSink {
    /// Ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingSink { cap: cap.max(1), events: VecDeque::new() }
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back(ev);
    }
    fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.iter().cloned().collect()
    }
    fn len(&self) -> usize {
        self.events.len()
    }
}

struct LogInner {
    sink: Box<dyn TraceSink>,
    sources: Vec<String>,
}

/// A shared trace: one sink plus the interned source-name table.
///
/// Clone handles freely — all clones view the same log.
#[derive(Clone)]
pub struct TraceLog {
    inner: Rc<RefCell<LogInner>>,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TraceLog")
            .field("events", &inner.sink.len())
            .field("sources", &inner.sources)
            .finish()
    }
}

impl TraceLog {
    /// Log backed by an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        TraceLog { inner: Rc::new(RefCell::new(LogInner { sink, sources: Vec::new() })) }
    }

    /// Log that records every event ([`VecSink`]).
    pub fn recording() -> Self {
        TraceLog::with_sink(Box::<VecSink>::default())
    }

    /// Log that keeps only the newest `cap` events ([`RingSink`]).
    pub fn ring(cap: usize) -> Self {
        TraceLog::with_sink(Box::new(RingSink::new(cap)))
    }

    /// Log that drops everything ([`NoopSink`]) — for A/B determinism
    /// checks of the enabled code path.
    pub fn noop() -> Self {
        TraceLog::with_sink(Box::new(NoopSink))
    }

    fn intern(&self, name: &str) -> u16 {
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner.sources.iter().position(|s| s == name) {
            return i as u16;
        }
        assert!(inner.sources.len() < u16::MAX as usize, "too many trace sources");
        inner.sources.push(name.to_string());
        (inner.sources.len() - 1) as u16
    }

    /// An enabled handle stamping events with `source` (interned; the
    /// conventional shape is `endpoint.layer`, e.g. `client.quic`).
    pub fn tracer(&self, source: &str) -> Tracer {
        let id = self.intern(source);
        Tracer { state: Some(TracerState { log: Rc::clone(&self.inner), source: id }) }
    }

    /// Snapshot of the held events in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().sink.snapshot()
    }

    /// Interned source names, in id order.
    pub fn sources(&self) -> Vec<String> {
        self.inner.borrow().sources.clone()
    }

    /// Resolve a source id to its name.
    pub fn source_name(&self, id: u16) -> String {
        self.inner.borrow().sources.get(id as usize).cloned().unwrap_or_default()
    }

    /// Events currently held by the sink.
    pub fn len(&self) -> usize {
        self.inner.borrow().sink.len()
    }

    /// True when the sink holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export the held events as a qlog-compatible JSON document.
    pub fn to_qlog(&self, title: &str) -> String {
        let inner = self.inner.borrow();
        qlog::export(title, &inner.sources, &inner.sink.snapshot())
    }
}

#[derive(Clone)]
struct TracerState {
    log: Rc<RefCell<LogInner>>,
    source: u16,
}

/// A component's handle into a [`TraceLog`]; disabled by default.
///
/// `Clone` is cheap (an `Rc` bump); `Debug` intentionally hides the
/// shared log so configs embedding a tracer stay printable.
#[derive(Clone, Default)]
pub struct Tracer {
    state: Option<TracerState>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            Some(s) => write!(f, "Tracer(source={})", s.source),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// The no-op handle (same as `Default`).
    pub fn disabled() -> Self {
        Tracer { state: None }
    }

    /// True when events actually reach a sink.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Record `body` at virtual time `now`. One branch when disabled.
    #[inline]
    pub fn emit(&self, now: Instant, body: Event) {
        if let Some(s) = &self.state {
            s.log.borrow_mut().sink.emit(TraceEvent { time: now, source: s.source, body });
        }
    }

    /// Derived handle with `.suffix` appended to this handle's source
    /// (`client` → `client.quic`). Disabled stays disabled.
    pub fn scoped(&self, suffix: &str) -> Tracer {
        match &self.state {
            None => Tracer::disabled(),
            Some(s) => {
                let name = {
                    let inner = s.log.borrow();
                    let base = &inner.sources[s.source as usize];
                    format!("{base}.{suffix}")
                };
                let id = TraceLog { inner: Rc::clone(&s.log) }.intern(&name);
                Tracer { state: Some(TracerState { log: Rc::clone(&s.log), source: id }) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_noop() {
        let t = Tracer::default();
        assert!(!t.enabled());
        t.emit(Instant::ZERO, Event::FirstFrame {});
        assert!(!t.scoped("x").enabled());
    }

    #[test]
    fn vec_sink_keeps_order_and_sources() {
        let log = TraceLog::recording();
        let a = log.tracer("client");
        let b = a.scoped("quic");
        a.emit(Instant::from_millis(1), Event::FirstFrame {});
        b.emit(Instant::from_millis(2), Event::PacketAcked { path: 0, pn: 7 });
        let evs = log.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(log.source_name(evs[0].source), "client");
        assert_eq!(log.source_name(evs[1].source), "client.quic");
        assert!(evs[0].time < evs[1].time);
        // Interning is stable: same name, same id.
        assert_eq!(log.tracer("client").state.unwrap().source, evs[0].source);
    }

    #[test]
    fn ring_sink_retains_tail() {
        let log = TraceLog::ring(3);
        let t = log.tracer("t");
        for pn in 0..10u64 {
            t.emit(Instant::from_micros(pn), Event::PacketAcked { path: 0, pn });
        }
        let evs = log.events();
        assert_eq!(evs.len(), 3);
        assert!(matches!(evs[0].body, Event::PacketAcked { pn: 7, .. }));
        assert!(matches!(evs[2].body, Event::PacketAcked { pn: 9, .. }));
    }

    #[test]
    fn noop_log_accepts_and_drops() {
        let log = TraceLog::noop();
        let t = log.tracer("t");
        assert!(t.enabled());
        t.emit(Instant::ZERO, Event::FirstFrame {});
        assert!(log.is_empty());
    }
}
