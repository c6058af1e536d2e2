//! The trace buffer and the handles that feed it.
//!
//! A [`TraceLog`] owns one event buffer, which keeps every event, plus the
//! table of interned source names. Components never see the
//! log directly; they hold cheap cloneable [`Tracer`] handles
//! ([`TraceLog::tracer`]) that stamp every event with the component's
//! source id. A disabled tracer ([`Tracer::disabled`], the `Default`) is
//! `None` inside — its `emit` is a single branch, so instrumentation has
//! no behavioural effect when tracing is off.

use crate::event::{Event, TraceEvent};
use crate::qlog;
use std::cell::RefCell;
use std::rc::Rc;
use xlink_clock::Instant;

struct LogInner {
    events: Vec<TraceEvent>,
    sources: Vec<String>,
}

impl LogInner {
    /// Kept out of line: inlined, the buffer push would be copied into
    /// every [`Tracer::emit`] site, the hot paths' included.
    #[inline(never)]
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// A shared trace: one event buffer plus the interned source-name table.
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
            .field("events", &inner.events.len())
            .field("sources", &inner.sources)
            .finish()
    }
}

impl TraceLog {
    /// Log that records every event.
    pub fn recording() -> Self {
        let inner = LogInner { events: Vec::new(), sources: Vec::new() };
        TraceLog { inner: Rc::new(RefCell::new(inner)) }
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
        self.inner.borrow().events.clone()
    }

    /// Interned source names, in id order.
    pub fn sources(&self) -> Vec<String> {
        self.inner.borrow().sources.clone()
    }

    /// Resolve a source id to its name.
    pub fn source_name(&self, id: u16) -> String {
        self.inner.borrow().sources.get(id as usize).cloned().unwrap_or_default()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when the log holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export the held events as a qlog-compatible JSON document.
    pub fn to_qlog(&self, title: &str) -> String {
        let inner = self.inner.borrow();
        qlog::export(title, &inner.sources, &self.events())
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

    /// True when events actually reach a log.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Record `body` at virtual time `now`. One branch when disabled.
    #[inline]
    pub fn emit(&self, now: Instant, body: Event) {
        if let Some(s) = &self.state {
            s.log.borrow_mut().record(TraceEvent { time: now, source: s.source, body });
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
}
