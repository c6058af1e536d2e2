//! # xlink-obs — deterministic observability for the xlink workspace
//!
//! A zero-dependency tracing and metrics layer shared by every crate in
//! the stack. Two halves:
//!
//! * **Event tracing** ([`event`], [`sink`], [`qlog`]): a typed event
//!   vocabulary (packet sent/acked/lost, cwnd/RTT updates, scheduler
//!   decisions, re-injection, PATH_STATUS transitions, QoE signals,
//!   player buffer/rebuffer/first-frame, link drops/flaps/impairment
//!   hits) emitted through cloneable [`Tracer`] handles into a shared
//!   [`TraceSink`], and exported as qlog-compatible JSON via the
//!   in-tree [`json`] writer.
//! * **Metrics** ([`metrics`]): a per-run registry of named counters
//!   and gauges (bytes re-injected vs. total — the paper's Table 5
//!   cost ratio — spurious losses, handshake retransmits, stall time)
//!   the harness serialises after each run.
//! * **Profiling** ([`prof`]): a hierarchical wall-clock + allocation
//!   profiler (`prof::span!("quic/aead_open")`) whose monotonic-clock
//!   measurements live entirely outside the simulated clock, feeding
//!   the `BENCH_prof.json` perf ledger ([`ledger`]: its row format and
//!   the equality gate over the exact fields).
//!
//! ## Determinism contract
//!
//! Tracing must never change behaviour. A [`Tracer`] only *reads*
//! state handed to [`Tracer::emit`]; it draws no randomness, arms no
//! timers, and allocates only inside the sink. The disabled handle
//! ([`Tracer::disabled`], also `Default`) is a no-op whose `emit`
//! compiles down to one `Option` check, so instrumented code paths are
//! bit-identical with tracing on or off — the property the A/B
//! determinism test in `tests/observability.rs` enforces.

pub mod event;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod prof;
pub mod qlog;
pub mod sink;

pub use event::{Event, TraceEvent};
pub use metrics::{Metric, MetricsRegistry, MetricsScope};
pub use sink::{NoopSink, RingSink, TraceLog, TraceSink, Tracer, VecSink};
