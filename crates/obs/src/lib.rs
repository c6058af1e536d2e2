//! # xlink-obs — deterministic observability for the xlink workspace
//!
//! A zero-dependency tracing and profiling layer shared by every crate
//! in the stack. Two halves:
//!
//! * **Event tracing** ([`event`], [`sink`], [`qlog`]): a typed event
//!   vocabulary (packet sent/acked/lost, cwnd/RTT updates, scheduler
//!   decisions, re-injection, PATH_STATUS transitions, QoE signals,
//!   player buffer/rebuffer/first-frame, link drops/flaps/impairment
//!   hits) emitted through cloneable [`Tracer`] handles into one shared
//!   [`TraceLog`] (every event or none), and exported as
//!   qlog-compatible JSON via the in-tree [`json`] writer.
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
//! timers, and allocates only inside the log. The disabled handle
//! ([`Tracer::disabled`], also `Default`) is a no-op whose `emit`
//! compiles down to one `Option` check, so instrumented code paths are
//! bit-identical with tracing on or off — the property the A/B
//! determinism test in `tests/observability.rs` enforces.

pub mod event;
pub mod json;
pub mod ledger;
pub mod prof;
pub mod qlog;
pub mod sink;

pub use event::{Event, TraceEvent};
pub use sink::{TraceLog, Tracer};
